//! Cross-run thermal-model caching keyed by floorplan geometry.
//!
//! Building a [`ThermalModel`] assembles the RC network and LU-factorises the
//! dense conductance system — by far the most expensive part of evaluating a
//! schedule on a fixed floorplan. Batch campaigns re-evaluate many scenarios
//! against the *same* geometry (every platform-flow scenario shares the 2×2
//! grid floorplan; co-synthesis scenarios of one benchmark often converge to
//! identical plans), so a small geometry-keyed cache turns those rebuilds
//! into lookups.
//!
//! The cache is deliberately not thread-safe: the batch engine gives every
//! worker its own cache, so no synchronisation is needed on the hot path.
//! Models are handed out as [`Arc`]s because a cached model may be shared
//! between the scheduler (the thermal-aware ASP queries it per candidate)
//! and the post-hoc evaluation of the same scenario.

use std::collections::HashMap;
use std::sync::Arc;

use tats_thermal::{Floorplan, ThermalConfig, ThermalModel};

use crate::error::CoreError;

/// Exact-bits cache key: every block coordinate and every configuration
/// field, as `f64` bit patterns. Two floorplans hash equal iff they are
/// numerically identical, which is the only equality under which reusing the
/// factorised model is sound.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct GeometryKey(Vec<u64>);

impl GeometryKey {
    fn new(floorplan: &Floorplan, config: &ThermalConfig) -> Self {
        GeometryKey(geometry_config_bits(floorplan, config))
    }
}

/// The exact-bits key material of a `(floorplan, config)` pair: every block
/// coordinate and every configuration field as `f64` bit patterns. Two
/// inputs compare equal iff they are numerically identical — the only
/// equality under which reusing a derived thermal artefact (a factorised
/// model, a grid model's per-block responses) is sound. Shared by
/// [`ThermalModelCache`] and the batch engine's grid-model cache so the two
/// can never diverge on what "same geometry" means.
pub fn geometry_config_bits(floorplan: &Floorplan, config: &ThermalConfig) -> Vec<u64> {
    let mut bits = Vec::with_capacity(4 * floorplan.block_count() + 10);
    for block in floorplan.blocks() {
        bits.push(block.x().to_bits());
        bits.push(block.y().to_bits());
        bits.push(block.width().to_bits());
        bits.push(block.height().to_bits());
    }
    for field in [
        config.ambient_c,
        config.silicon_conductivity,
        config.silicon_volumetric_heat,
        config.die_thickness,
        config.vertical_resistivity,
        config.spreader_to_sink_resistance,
        config.convection_resistance,
        config.spreader_capacitance,
        config.sink_capacitance,
        config.time_unit_seconds,
    ] {
        bits.push(field.to_bits());
    }
    bits
}

/// Hit/miss counters of one cache, cheap to copy into campaign reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build (and insert) a model.
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (0 when untouched).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Accumulates another counter pair (for merging per-worker stats).
    pub fn merge(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// A bounded geometry-keyed cache of factorised [`ThermalModel`]s.
///
/// # Examples
///
/// ```
/// use tats_core::ThermalModelCache;
/// use tats_thermal::{Block, Floorplan, ThermalConfig};
///
/// # fn main() -> Result<(), tats_core::CoreError> {
/// let plan = Floorplan::new(vec![Block::from_mm("pe0", 0.0, 0.0, 7.0, 7.0)])?;
/// let mut cache = ThermalModelCache::new();
/// let first = cache.get_or_build(&plan, ThermalConfig::default())?;
/// let second = cache.get_or_build(&plan, ThermalConfig::default())?;
/// assert!(std::sync::Arc::ptr_eq(&first, &second));
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().misses, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct ThermalModelCache {
    inner: FifoCache<GeometryKey, Arc<ThermalModel>>,
}

impl ThermalModelCache {
    /// Default number of distinct geometries kept alive.
    pub const DEFAULT_CAPACITY: usize = 64;

    /// Creates an empty cache with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates an empty cache bounded to `capacity` distinct geometries
    /// (minimum 1). When full, the oldest entry is evicted (FIFO — campaign
    /// workloads revisit a small working set, so recency tracking isn't worth
    /// the bookkeeping).
    pub fn with_capacity(capacity: usize) -> Self {
        ThermalModelCache {
            inner: FifoCache::with_capacity(capacity),
        }
    }

    /// Returns the cached model for this exact geometry and configuration,
    /// building and inserting it on a miss.
    ///
    /// # Errors
    ///
    /// Propagates thermal-model construction errors (the failed key is not
    /// inserted).
    pub fn get_or_build(
        &mut self,
        floorplan: &Floorplan,
        config: ThermalConfig,
    ) -> Result<Arc<ThermalModel>, CoreError> {
        let key = GeometryKey::new(floorplan, &config);
        let model = self.inner.get_or_try_insert_with(key, || {
            Ok::<_, CoreError>(Arc::new(ThermalModel::new(floorplan, config)?))
        })?;
        Ok(Arc::clone(model))
    }

    /// Number of models currently cached.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Returns `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// The cache's hit/miss counters so far.
    pub fn stats(&self) -> CacheStats {
        self.inner.stats()
    }
}

/// A bounded FIFO-evicting map with hit/miss accounting — the shared
/// substrate of the thermal-artefact caches ([`ThermalModelCache`] here,
/// the batch engine's grid-model cache in `tats_engine`).
///
/// Eviction is first-in-first-out: campaign workloads revisit a small
/// working set of geometries, so recency tracking isn't worth the
/// bookkeeping. A failed build inserts nothing and counts as a miss.
#[derive(Debug)]
pub struct FifoCache<K, V> {
    entries: HashMap<K, V>,
    insertion_order: Vec<K>,
    capacity: usize,
    stats: CacheStats,
}

impl<K: Eq + std::hash::Hash + Clone, V> Default for FifoCache<K, V> {
    fn default() -> Self {
        FifoCache::with_capacity(ThermalModelCache::DEFAULT_CAPACITY)
    }
}

impl<K: Eq + std::hash::Hash + Clone, V> FifoCache<K, V> {
    /// Creates an empty cache bounded to `capacity` entries (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        FifoCache {
            entries: HashMap::new(),
            insertion_order: Vec::new(),
            capacity: capacity.max(1),
            stats: CacheStats::default(),
        }
    }

    /// Returns the cached value for `key`, building and inserting it with
    /// `build` on a miss (evicting the oldest entry when full).
    ///
    /// # Errors
    ///
    /// Propagates the builder's error; the key is not inserted and the
    /// lookup still counts as a miss.
    pub fn get_or_try_insert_with<E>(
        &mut self,
        key: K,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<&V, E> {
        if self.entries.contains_key(&key) {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
            let value = build()?;
            if self.entries.len() >= self.capacity {
                let oldest = self.insertion_order.remove(0);
                self.entries.remove(&oldest);
            }
            self.insertion_order.push(key.clone());
            self.entries.insert(key.clone(), value);
        }
        Ok(self.entries.get(&key).expect("present after hit or insert"))
    }

    /// Returns `true` if `key` is currently cached (no effect on the
    /// hit/miss counters).
    pub fn contains(&self, key: &K) -> bool {
        self.entries.contains_key(key)
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The cache's hit/miss counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tats_thermal::Block;

    fn plan(offset_mm: f64) -> Floorplan {
        Floorplan::new(vec![
            Block::from_mm("pe0", 0.0, 0.0, 7.0, 7.0),
            Block::from_mm("pe1", 7.0 + offset_mm, 0.0, 7.0, 7.0),
        ])
        .unwrap()
    }

    #[test]
    fn distinct_geometries_get_distinct_models() {
        let mut cache = ThermalModelCache::new();
        let a = cache
            .get_or_build(&plan(0.0), ThermalConfig::default())
            .unwrap();
        let b = cache
            .get_or_build(&plan(1.0), ThermalConfig::default())
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().hit_rate(), 0.0);
    }

    #[test]
    fn config_changes_miss() {
        let mut cache = ThermalModelCache::new();
        let a = cache
            .get_or_build(&plan(0.0), ThermalConfig::default())
            .unwrap();
        let hot = ThermalConfig {
            ambient_c: 55.0,
            ..ThermalConfig::default()
        };
        let b = cache.get_or_build(&plan(0.0), hot).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn capacity_evicts_the_oldest_entry() {
        let mut cache = ThermalModelCache::with_capacity(2);
        let a = cache
            .get_or_build(&plan(0.0), ThermalConfig::default())
            .unwrap();
        cache
            .get_or_build(&plan(1.0), ThermalConfig::default())
            .unwrap();
        cache
            .get_or_build(&plan(2.0), ThermalConfig::default())
            .unwrap();
        assert_eq!(cache.len(), 2);
        // plan(0.0) was evicted: fetching it again is a miss that returns a
        // fresh model.
        let a2 = cache
            .get_or_build(&plan(0.0), ThermalConfig::default())
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &a2));
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 4);
    }

    /// Infallible insert helper for the generic-cache tests below.
    fn put(cache: &mut FifoCache<u32, Arc<Vec<u8>>>, key: u32) -> Arc<Vec<u8>> {
        let value = cache
            .get_or_try_insert_with(key, || {
                Ok::<_, std::convert::Infallible>(Arc::new(vec![key as u8; 4]))
            })
            .expect("infallible");
        Arc::clone(value)
    }

    #[test]
    fn fifo_evicts_in_insertion_order_not_recency() {
        let mut cache: FifoCache<u32, Arc<Vec<u8>>> = FifoCache::with_capacity(3);
        put(&mut cache, 1);
        put(&mut cache, 2);
        put(&mut cache, 3);
        // Re-touch the oldest entry: FIFO deliberately ignores recency.
        put(&mut cache, 1);
        assert_eq!(cache.stats().hits, 1);
        // Inserting a fourth key evicts key 1 (first in), not key 2.
        put(&mut cache, 4);
        assert!(!cache.contains(&1));
        assert!(cache.contains(&2));
        assert!(cache.contains(&3));
        assert!(cache.contains(&4));
        assert_eq!(cache.len(), 3);
        // Sustained pressure walks the queue in order: 5 evicts 2, 6 evicts 3.
        put(&mut cache, 5);
        assert!(!cache.contains(&2));
        put(&mut cache, 6);
        assert!(!cache.contains(&3));
        assert_eq!(
            [4, 5, 6].iter().filter(|key| cache.contains(key)).count(),
            3
        );
    }

    #[test]
    fn hit_miss_accounting_is_exact() {
        let mut cache: FifoCache<u32, Arc<Vec<u8>>> = FifoCache::with_capacity(2);
        assert_eq!(cache.stats(), CacheStats::default());
        put(&mut cache, 1); // miss
        put(&mut cache, 1); // hit
        put(&mut cache, 2); // miss
        put(&mut cache, 1); // hit
        assert_eq!(cache.stats(), CacheStats { hits: 2, misses: 2 });
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-12);
        // A failed build counts as a miss and inserts nothing.
        let result = cache.get_or_try_insert_with(3, || Err::<Arc<Vec<u8>>, &str>("boom"));
        assert_eq!(result.unwrap_err(), "boom");
        assert!(!cache.contains(&3));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats(), CacheStats { hits: 2, misses: 3 });
        // The failed key can be built successfully later.
        put(&mut cache, 3);
        assert!(cache.contains(&3));
        assert_eq!(cache.stats().misses, 4);
        // `contains` itself never moves the counters.
        assert_eq!(cache.stats(), CacheStats { hits: 2, misses: 4 });
    }

    #[test]
    fn evicted_arc_values_remain_valid_while_borrowed() {
        let mut cache: FifoCache<u32, Arc<Vec<u8>>> = FifoCache::with_capacity(1);
        let borrowed = put(&mut cache, 7);
        assert_eq!(Arc::strong_count(&borrowed), 2, "cache + borrower");
        // Evict key 7 while the Arc is still held outside the cache — the
        // batch engine does exactly this when a scenario holds a cached
        // thermal model across an eviction caused by the next scenario.
        put(&mut cache, 8);
        assert!(!cache.contains(&7));
        assert_eq!(
            Arc::strong_count(&borrowed),
            1,
            "the cache dropped its reference; the borrower's survives"
        );
        assert_eq!(*borrowed, vec![7u8; 4], "the evicted value is intact");
        // Re-inserting the evicted key builds a fresh value.
        let rebuilt = put(&mut cache, 7);
        assert!(!Arc::ptr_eq(&borrowed, &rebuilt));
        assert_eq!(*rebuilt, *borrowed);
    }

    #[test]
    fn stats_merge_and_hit_rate() {
        let mut total = CacheStats::default();
        total.merge(CacheStats { hits: 3, misses: 1 });
        total.merge(CacheStats { hits: 5, misses: 1 });
        assert_eq!(total.hits, 8);
        assert_eq!(total.misses, 2);
        assert!((total.hit_rate() - 0.8).abs() < 1e-12);
        assert!(ThermalModelCache::new().is_empty());
    }
}
