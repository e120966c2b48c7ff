//! A sharded, lock-free-on-the-hot-path metrics registry.
//!
//! The campaign service and the batch engine need live visibility — p99
//! request latency, fleet-wide cache hit rate, per-phase scenario timing —
//! without perturbing the numbers they measure. This module provides the
//! three classic primitives with allocation-free, atomic record paths:
//!
//! * [`Counter`] — a monotonically increasing `u64`;
//! * [`Gauge`] — a last-write-wins `u64` (replay stats, queue depths);
//! * [`Histogram`] — a log-linear latency histogram with an allocation-free
//!   `record` and a bucket-wise merge of its snapshots, mirroring how
//!   `tats_core::CacheStats` already merges across executor workers; the
//!   snapshots read out quantiles and the maximum.
//!
//! # Sharding model
//!
//! Registration takes a write lock once per series; the handles returned are
//! `Arc`s whose record path is pure relaxed atomics, so concurrent recording
//! never blocks. Cross-process aggregation is snapshot-based: every worker
//! owns its own registry shard and ships a [`MetricsSnapshot`] (JSON, same
//! conventions as the journal) to the server, which merges the shards at
//! scrape time. Merging is associative, so it does not matter in which order
//! shards arrive.
//!
//! # Units
//!
//! Histograms store raw `u64` values; every duration helper records
//! **microseconds**. The Prometheus renderer converts histogram buckets and
//! sums to seconds, matching the `*_seconds` naming convention.
//!
//! # Examples
//!
//! ```
//! use std::time::Duration;
//! use tats_trace::metrics::MetricsRegistry;
//!
//! let registry = MetricsRegistry::new();
//! let requests = registry.counter("http_requests_total", &[("endpoint", "GET /healthz")]);
//! let latency = registry.histogram("http_request_seconds", &[("endpoint", "GET /healthz")]);
//! requests.inc();
//! latency.record_duration(Duration::from_micros(250)); // recorded in µs
//! let text = registry.render_prometheus();
//! assert!(text.contains("# TYPE http_requests_total counter"));
//! assert!(text.contains("http_request_seconds_count{endpoint=\"GET /healthz\"} 1"));
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

use crate::json::JsonValue;

/// Exact buckets below this value; also the number of sub-buckets per octave.
const LINEAR_CUTOFF: u64 = 16;
/// Total bucket count: 16 exact buckets plus 60 octaves × 16 sub-buckets.
const BUCKETS: usize = 976;

/// Maps a value to its log-linear bucket index.
///
/// Values below [`LINEAR_CUTOFF`] get exact buckets; above it each power-of-two
/// octave is split into 16 sub-buckets, bounding the relative quantisation
/// error at 1/16 (6.25%) while covering the full `u64` range in 976 buckets.
fn bucket_index(value: u64) -> usize {
    if value < LINEAR_CUTOFF {
        value as usize
    } else {
        let msb = 63 - u64::from(value.leading_zeros());
        let octave = msb - 3;
        let sub = (value >> (msb - 4)) & (LINEAR_CUTOFF - 1);
        (octave * LINEAR_CUTOFF + sub) as usize
    }
}

/// The smallest value that lands in bucket `index`.
fn bucket_low(index: usize) -> u64 {
    if index < LINEAR_CUTOFF as usize {
        index as u64
    } else {
        let octave = (index as u64) / LINEAR_CUTOFF;
        let sub = (index as u64) % LINEAR_CUTOFF;
        (LINEAR_CUTOFF + sub) << (octave - 1)
    }
}

/// The largest value that lands in bucket `index`.
fn bucket_high(index: usize) -> u64 {
    if index + 1 >= BUCKETS {
        u64::MAX
    } else {
        bucket_low(index + 1) - 1
    }
}

/// The saturating sum of `(index, count)` bucket counts.
fn bucket_total(buckets: &[(u32, u64)]) -> u64 {
    buckets
        .iter()
        .fold(0, |total, &(_, count)| total.saturating_add(count))
}

/// A monotonically increasing counter. Recording is a relaxed atomic add.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `delta`, wrapping on overflow.
    pub fn add(&self, delta: u64) {
        // Values here are event counts that cannot realistically reach 2^64,
        // so wrapping is acceptable.
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge. Recording is a relaxed atomic store.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log-linear histogram of `u64` values with an allocation-free record path.
///
/// Buckets are exact below 16 and split each power-of-two octave into 16
/// sub-buckets above it, so the quantiles a snapshot reads out
/// ([`HistogramSnapshot::quantile`]) carry at most 6.25% relative error. All
/// mutation is relaxed atomics; snapshots are taken bucket by bucket and
/// merged bucket-wise, exactly like `CacheStats::merge` folds per-worker
/// cache counters.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("max", &self.max())
            .finish_non_exhaustive()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value. Three relaxed atomic ops plus an atomic max —
    /// no locks, no allocation.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration in microseconds (saturating at `u64::MAX`).
    pub fn record_duration(&self, duration: Duration) {
        self.record(u64::try_from(duration.as_micros()).unwrap_or(u64::MAX));
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Freezes the histogram. The count is the sum of the buckets it read,
    /// not the `count` field: a value recorded during the bucket loads may
    /// reach one and not the other, and a snapshot must agree with itself.
    fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<(u32, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(index, bucket)| {
                let count = bucket.load(Ordering::Relaxed);
                (count > 0).then_some((index as u32, count))
            })
            .collect();
        HistogramSnapshot {
            count: bucket_total(&buckets),
            sum: self.sum(),
            max: self.max(),
            buckets,
        }
    }
}

/// A metric series identity: name plus ordered label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct SeriesKey {
    name: String,
    labels: Vec<(String, String)>,
}

#[derive(Debug, Clone)]
enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// One shard of the metrics plane: a registry of named series.
///
/// Registration (the `counter`/`gauge`/`histogram` getters) takes a lock;
/// callers cache the returned `Arc` handles so the hot path is pure atomics.
/// [`MetricsRegistry::snapshot`] freezes the shard for merging or rendering.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    series: RwLock<BTreeMap<SeriesKey, Handle>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
        SeriesKey {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    /// Returns the counter for `name`+`labels`, registering it on first use.
    ///
    /// If the series is already registered as a different kind the existing
    /// registration wins and a detached (unexported) handle is returned.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let key = Self::key(name, labels);
        let mut series = self.series.write().expect("metrics lock poisoned");
        match series
            .entry(key)
            .or_insert_with(|| Handle::Counter(Arc::new(Counter::new())))
        {
            Handle::Counter(counter) => Arc::clone(counter),
            _ => Arc::new(Counter::new()),
        }
    }

    /// Returns the gauge for `name`+`labels`, registering it on first use.
    ///
    /// Kind conflicts behave as in [`MetricsRegistry::counter`].
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let key = Self::key(name, labels);
        let mut series = self.series.write().expect("metrics lock poisoned");
        match series
            .entry(key)
            .or_insert_with(|| Handle::Gauge(Arc::new(Gauge::new())))
        {
            Handle::Gauge(gauge) => Arc::clone(gauge),
            _ => Arc::new(Gauge::new()),
        }
    }

    /// Returns the histogram for `name`+`labels`, registering it on first use.
    ///
    /// Kind conflicts behave as in [`MetricsRegistry::counter`].
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let key = Self::key(name, labels);
        let mut series = self.series.write().expect("metrics lock poisoned");
        match series
            .entry(key)
            .or_insert_with(|| Handle::Histogram(Arc::new(Histogram::new())))
        {
            Handle::Histogram(histogram) => Arc::clone(histogram),
            _ => Arc::new(Histogram::new()),
        }
    }

    /// Freezes the registry into a mergeable, serialisable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let series = self.series.read().expect("metrics lock poisoned");
        MetricsSnapshot {
            series: series
                .iter()
                .map(|(key, handle)| {
                    let value = match handle {
                        Handle::Counter(counter) => MetricValue::Counter(counter.value()),
                        Handle::Gauge(gauge) => MetricValue::Gauge(gauge.value()),
                        Handle::Histogram(histogram) => {
                            MetricValue::Histogram(histogram.snapshot())
                        }
                    };
                    (key.clone(), value)
                })
                .collect(),
        }
    }

    /// Renders the registry in Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        self.snapshot().render_prometheus()
    }
}

/// A frozen histogram: total count/sum/max plus the non-empty buckets as
/// `(index, count)` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    count: u64,
    sum: u64,
    max: u64,
    buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`q` in `[0, 1]`) of the frozen distribution (a
    /// snapshot or a merge of worker snapshots), as the upper bound of the
    /// bucket holding the target rank, capped at the recorded maximum.
    /// Returns 0 when empty. `quantile(0.5)` is the median; with one sample
    /// every quantile is that sample (exactly, below 16; within 6.25%
    /// above).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        // `Histogram::snapshot`, `merge` and `from_json` all leave the
        // buckets sorted by index, each index once.
        let mut seen = 0u64;
        for &(index, count) in &self.buckets {
            seen = seen.saturating_add(count);
            if seen >= target {
                return bucket_high(index as usize).min(self.max);
            }
        }
        self.max
    }

    fn merge(&mut self, other: &HistogramSnapshot) {
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        let mut merged: BTreeMap<u32, u64> = self.buckets.iter().copied().collect();
        for &(index, count) in &other.buckets {
            let merged_count = merged.entry(index).or_insert(0);
            *merged_count = merged_count.saturating_add(count);
        }
        self.buckets = merged.into_iter().collect();
    }

    /// Count of values strictly below `bound`.
    fn below(&self, bound: u64) -> u64 {
        self.buckets
            .iter()
            .filter(|&&(index, _)| bucket_high(index as usize) < bound)
            .fold(0, |below, &(_, count)| below.saturating_add(count))
    }
}

/// A frozen metric value of any kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// A counter reading.
    Counter(u64),
    /// A gauge reading.
    Gauge(u64),
    /// A histogram reading.
    Histogram(HistogramSnapshot),
}

/// A frozen view of one or more registry shards, mergeable and serialisable.
///
/// The JSON encoding is the wire format workers use to ship their shard to
/// the server (inside the lease request body) and the file format nothing
/// else: the same value round-trips through [`MetricsSnapshot::to_json`] /
/// [`MetricsSnapshot::from_json`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    series: BTreeMap<SeriesKey, MetricValue>,
}

impl MetricsSnapshot {
    /// True when the snapshot holds no series.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Looks up a counter value by name and labels.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.series.get(&MetricsRegistry::key(name, labels))? {
            MetricValue::Counter(value) => Some(*value),
            _ => None,
        }
    }

    /// Looks up a histogram by name and labels.
    pub fn histogram_value(
        &self,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Option<&HistogramSnapshot> {
        match self.series.get(&MetricsRegistry::key(name, labels))? {
            MetricValue::Histogram(histogram) => Some(histogram),
            _ => None,
        }
    }

    /// Returns the snapshot with `(key, value)` appended to every series'
    /// labels — how the server tags each worker shard before merging.
    #[must_use]
    pub fn with_label(self, key: &str, value: &str) -> Self {
        Self {
            series: self
                .series
                .into_iter()
                .map(|(mut series_key, metric)| {
                    series_key.labels.push((key.to_string(), value.to_string()));
                    (series_key, metric)
                })
                .collect(),
        }
    }

    /// Merges another shard into this one: counters and histogram buckets
    /// add, saturating at `u64::MAX`, and gauges take the other side's
    /// value. Associative and commutative for counters and histograms, so
    /// shard arrival order does not matter.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (key, value) in &other.series {
            match (self.series.get_mut(key), value) {
                (Some(MetricValue::Counter(mine)), MetricValue::Counter(theirs)) => {
                    *mine = mine.saturating_add(*theirs);
                }
                (Some(MetricValue::Gauge(mine)), MetricValue::Gauge(theirs)) => {
                    *mine = *theirs;
                }
                (Some(MetricValue::Histogram(mine)), MetricValue::Histogram(theirs)) => {
                    mine.merge(theirs);
                }
                _ => {
                    self.series.insert(key.clone(), value.clone());
                }
            }
        }
    }

    /// Serialises the snapshot as JSON (the worker→server wire format).
    pub fn to_json(&self) -> JsonValue {
        let series = self
            .series
            .iter()
            .map(|(key, value)| {
                let mut fields = BTreeMap::new();
                fields.insert("name".to_string(), JsonValue::String(key.name.clone()));
                if !key.labels.is_empty() {
                    fields.insert(
                        "labels".to_string(),
                        JsonValue::Array(
                            key.labels
                                .iter()
                                .map(|(k, v)| {
                                    JsonValue::Array(vec![
                                        JsonValue::String(k.clone()),
                                        JsonValue::String(v.clone()),
                                    ])
                                })
                                .collect(),
                        ),
                    );
                }
                match value {
                    MetricValue::Counter(count) => {
                        fields.insert("type".to_string(), JsonValue::String("counter".into()));
                        fields.insert("value".to_string(), json_u64(*count));
                    }
                    MetricValue::Gauge(level) => {
                        fields.insert("type".to_string(), JsonValue::String("gauge".into()));
                        fields.insert("value".to_string(), json_u64(*level));
                    }
                    MetricValue::Histogram(histogram) => {
                        fields.insert("type".to_string(), JsonValue::String("histogram".into()));
                        fields.insert("count".to_string(), json_u64(histogram.count));
                        fields.insert("sum".to_string(), json_u64(histogram.sum));
                        fields.insert("max".to_string(), json_u64(histogram.max));
                        fields.insert(
                            "buckets".to_string(),
                            JsonValue::Array(
                                histogram
                                    .buckets
                                    .iter()
                                    .map(|&(index, count)| {
                                        JsonValue::Array(vec![
                                            json_u64(u64::from(index)),
                                            json_u64(count),
                                        ])
                                    })
                                    .collect(),
                            ),
                        );
                    }
                }
                JsonValue::Object(fields)
            })
            .collect();
        JsonValue::object([("series".to_string(), JsonValue::Array(series))])
    }

    /// Deserialises a snapshot produced by [`MetricsSnapshot::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field. A histogram that
    /// lists a bucket index twice, or whose `count` is not the sum of its
    /// buckets, is malformed: `to_json` never writes one.
    pub fn from_json(value: &JsonValue) -> Result<Self, String> {
        let mut series = BTreeMap::new();
        for entry in value.field_array("series")? {
            let name = entry.field_str("name")?.to_string();
            let mut labels = Vec::new();
            if let Some(pairs) = entry.get("labels").and_then(JsonValue::as_array) {
                for pair in pairs {
                    let pair = pair
                        .as_array()
                        .filter(|p| p.len() == 2)
                        .ok_or("label pair must be a two-element array")?;
                    let key = pair[0].as_str().ok_or("label key must be a string")?;
                    let value = pair[1].as_str().ok_or("label value must be a string")?;
                    labels.push((key.to_string(), value.to_string()));
                }
            }
            let metric = match entry.field_str("type")? {
                "counter" => MetricValue::Counter(entry.field_u64("value")?),
                "gauge" => MetricValue::Gauge(entry.field_u64("value")?),
                "histogram" => {
                    let mut buckets = Vec::new();
                    for pair in entry.field_array("buckets")? {
                        let pair = pair
                            .as_array()
                            .filter(|p| p.len() == 2)
                            .ok_or("bucket must be a two-element array")?;
                        let index = pair[0].as_u64().ok_or("bucket index must be a number")?;
                        let count = pair[1].as_u64().ok_or("bucket count must be a number")?;
                        let index =
                            u32::try_from(index).map_err(|_| "bucket index out of range")?;
                        if (index as usize) >= BUCKETS {
                            return Err(format!("bucket index {index} out of range"));
                        }
                        buckets.push((index, count));
                    }
                    buckets.sort_unstable();
                    if let Some(pair) = buckets.windows(2).find(|pair| pair[0].0 == pair[1].0) {
                        return Err(format!("bucket index {} repeats", pair[0].0));
                    }
                    let count = entry.field_u64("count")?;
                    let total = bucket_total(&buckets);
                    if count != total {
                        return Err(format!(
                            "histogram count {count} but its buckets hold {total}"
                        ));
                    }
                    MetricValue::Histogram(HistogramSnapshot {
                        count,
                        sum: entry.field_u64("sum")?,
                        max: entry.field_u64("max")?,
                        buckets,
                    })
                }
                other => return Err(format!("unknown metric type {other:?}")),
            };
            series.insert(SeriesKey { name, labels }, metric);
        }
        Ok(Self { series })
    }

    /// Renders the snapshot in Prometheus text exposition format.
    ///
    /// Series sharing a name are grouped under one `# TYPE` header (the
    /// `BTreeMap` key order is name-major, so grouping falls out of
    /// iteration). Histograms are exposed with power-of-four `le` bounds in
    /// seconds; `le` counts are cumulative counts of values strictly below
    /// the bound (values are integer microseconds, so at most the samples
    /// exactly on a bound are attributed one bucket up).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for (key, value) in &self.series {
            if last_name != Some(key.name.as_str()) {
                let kind = match value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) => "gauge",
                    MetricValue::Histogram(_) => "histogram",
                };
                out.push_str(&format!("# TYPE {} {}\n", key.name, kind));
                last_name = Some(key.name.as_str());
            }
            match value {
                MetricValue::Counter(count) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        key.name,
                        render_labels(&key.labels, None),
                        count
                    ));
                }
                MetricValue::Gauge(level) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        key.name,
                        render_labels(&key.labels, None),
                        level
                    ));
                }
                MetricValue::Histogram(histogram) => {
                    let mut bound_us = 1u64;
                    #[allow(clippy::cast_precision_loss)]
                    for _ in 0..14 {
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            key.name,
                            render_labels(&key.labels, Some(&format_seconds(bound_us))),
                            histogram.below(bound_us)
                        ));
                        bound_us = bound_us.saturating_mul(4);
                    }
                    out.push_str(&format!(
                        "{}_bucket{} {}\n",
                        key.name,
                        render_labels(&key.labels, Some("+Inf")),
                        histogram.count
                    ));
                    #[allow(clippy::cast_precision_loss)]
                    let sum_seconds = histogram.sum as f64 / 1e6;
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        key.name,
                        render_labels(&key.labels, None),
                        sum_seconds
                    ));
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        key.name,
                        render_labels(&key.labels, None),
                        histogram.count
                    ));
                }
            }
        }
        out
    }
}

fn json_u64(value: u64) -> JsonValue {
    #[allow(clippy::cast_precision_loss)]
    JsonValue::Number(value as f64)
}

/// Formats a microsecond bound as seconds for a `le` label.
fn format_seconds(micros: u64) -> String {
    #[allow(clippy::cast_precision_loss)]
    let seconds = micros as f64 / 1e6;
    format!("{seconds}")
}

/// Escapes a label value per the Prometheus text exposition rules:
/// backslash, double quote and newline.
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Renders a `{k="v",...}` label block, optionally with a trailing `le`.
fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", k, escape_label(v)))
        .collect();
    if let Some(bound) = le {
        parts.push(format!("le=\"{bound}\""));
    }
    format!("{{{}}}", parts.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_below_the_linear_cutoff() {
        for value in 0..LINEAR_CUTOFF {
            let index = bucket_index(value);
            assert_eq!(bucket_low(index), value);
            assert_eq!(bucket_high(index), value);
        }
    }

    #[test]
    fn bucket_index_is_monotone_and_consistent_with_bounds() {
        let probes: Vec<u64> = (0..64)
            .flat_map(|shift: u32| {
                let base = 1u64 << shift;
                [base.saturating_sub(1), base, base.saturating_add(1)]
            })
            .chain([15, 16, 17, 31, 32, 33, 1000, 123_456_789, u64::MAX])
            .collect();
        let mut last_index = 0;
        let mut sorted = probes.clone();
        sorted.sort_unstable();
        for value in sorted {
            let index = bucket_index(value);
            assert!(index >= last_index, "index not monotone at {value}");
            assert!(bucket_low(index) <= value && value <= bucket_high(index));
            last_index = index;
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn relative_bucket_error_is_bounded() {
        for value in [100u64, 1_000, 65_537, 1 << 40, (1 << 50) + 12345] {
            let index = bucket_index(value);
            let width = bucket_high(index) - bucket_low(index) + 1;
            #[allow(clippy::cast_precision_loss)]
            let relative = width as f64 / value as f64;
            assert!(relative <= 1.0 / 16.0 + 1e-9, "error {relative} at {value}");
        }
    }

    #[test]
    fn empty_histogram_reads_zero_everywhere() {
        let histogram = Histogram::new();
        assert_eq!(histogram.count(), 0);
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.quantile(0.5), 0);
        assert_eq!(snapshot.quantile(0.99), 0);
        assert_eq!(histogram.max(), 0);
    }

    #[test]
    fn single_sample_dominates_every_quantile() {
        let histogram = Histogram::new();
        histogram.record(7);
        let snapshot = histogram.snapshot();
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(snapshot.quantile(q), 7);
        }
        assert_eq!(histogram.max(), 7);
        assert_eq!(histogram.sum(), 7);
    }

    #[test]
    fn saturating_max_sample_is_representable() {
        let histogram = Histogram::new();
        histogram.record(u64::MAX);
        assert_eq!(histogram.max(), u64::MAX);
        assert_eq!(histogram.snapshot().quantile(1.0), u64::MAX);
        assert_eq!(histogram.count(), 1);
    }

    #[test]
    fn quantiles_track_a_uniform_population() {
        let histogram = Histogram::new();
        for value in 1..=1000u64 {
            histogram.record(value);
        }
        let snapshot = histogram.snapshot();
        let p50 = snapshot.quantile(0.5);
        let p99 = snapshot.quantile(0.99);
        #[allow(clippy::cast_precision_loss)]
        {
            assert!((p50 as f64 - 500.0).abs() / 500.0 < 0.08, "p50 {p50}");
            assert!((p99 as f64 - 990.0).abs() / 990.0 < 0.08, "p99 {p99}");
        }
        assert_eq!(snapshot.quantile(1.0), 1000);
    }

    #[test]
    fn counter_merge_is_associative() {
        let shard = |value: u64| {
            let registry = MetricsRegistry::new();
            registry.counter("events_total", &[]).add(value);
            registry.snapshot()
        };
        let (a, b, c) = (shard(3), shard(5), shard(9));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        assert_eq!(left, right);
        assert_eq!(left.counter_value("events_total", &[]), Some(17));
    }

    #[test]
    fn histogram_merge_matches_recording_into_one() {
        let record = |values: &[u64]| {
            let registry = MetricsRegistry::new();
            let histogram = registry.histogram("latency_seconds", &[]);
            for &value in values {
                histogram.record(value);
            }
            registry.snapshot()
        };
        let mut merged = record(&[1, 50, 3000]);
        merged.merge(&record(&[2, 70, 9000, 100_000]));
        let combined = record(&[1, 50, 3000, 2, 70, 9000, 100_000]);
        assert_eq!(merged, combined);
        let histogram = merged.histogram_value("latency_seconds", &[]).unwrap();
        assert_eq!(histogram.count(), 7);
        assert_eq!(histogram.max(), 100_000);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let registry = MetricsRegistry::new();
        registry
            .counter("requests_total", &[("endpoint", "GET /jobs")])
            .add(12);
        registry.gauge("replayed_events", &[]).set(42);
        let histogram = registry.histogram("request_seconds", &[("endpoint", "GET /jobs")]);
        histogram.record(150);
        histogram.record(95_000);
        let snapshot = registry.snapshot();
        let json = snapshot.to_json().to_json();
        let parsed = MetricsSnapshot::from_json(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(parsed, snapshot);
    }

    /// A worker's snapshot cannot overflow the server's merge of the
    /// fleet's phases: the decoder refuses a bucket listed twice, and counts
    /// from many workers saturate instead of overflowing.
    #[test]
    fn hostile_snapshots_neither_repeat_buckets_nor_overflow_the_merge() {
        use crate::json::MAX_EXACT_INTEGER;
        let honest = MetricsRegistry::new();
        honest
            .histogram("engine_phase_seconds", &[("phase", "grid")])
            .record(5);
        honest.counter("records_posted_total", &[]).add(3);
        let hostile = |bucket_count: usize| {
            let buckets = vec![format!("[5,{MAX_EXACT_INTEGER}]"); bucket_count].join(",");
            let text = format!(
                "{{\"series\":[{{\"name\":\"engine_phase_seconds\",\
                 \"labels\":[[\"phase\",\"grid\"]],\"type\":\"histogram\",\
                 \"count\":{MAX_EXACT_INTEGER},\"sum\":0,\"max\":5,\"buckets\":[{buckets}]}},\
                 {{\"name\":\"records_posted_total\",\"type\":\"counter\",\
                 \"value\":{MAX_EXACT_INTEGER}}}]}}"
            );
            MetricsSnapshot::from_json(&JsonValue::parse(&text).expect("json"))
        };
        let error = hostile(2_050).expect_err("a repeated bucket index");
        assert!(error.contains("bucket index 5 repeats"), "{error}");

        let worker = hostile(1).expect("one bucket");
        let mut merged = honest.snapshot();
        for _ in 0..2_050 {
            merged.merge(&worker);
        }
        let phase = merged
            .histogram_value("engine_phase_seconds", &[("phase", "grid")])
            .expect("phase");
        assert_eq!(phase.count(), u64::MAX);
        assert_eq!(phase.quantile(0.5), 5);
        assert_eq!(
            merged.counter_value("records_posted_total", &[]),
            Some(u64::MAX)
        );
    }

    /// A histogram whose count disagrees with its buckets would render
    /// finite `le` buckets above `+Inf`; the decoder refuses it.
    #[test]
    fn a_count_that_disagrees_with_the_buckets_is_refused() {
        let text = "{\"series\":[{\"name\":\"engine_phase_seconds\",\"type\":\"histogram\",\
                    \"count\":1,\"sum\":0,\"max\":0,\"buckets\":[[0,5]]}]}";
        let error = MetricsSnapshot::from_json(&JsonValue::parse(text).expect("json"))
            .expect_err("count 1 over a bucket of 5");
        assert!(error.contains("count 1"), "{error}");
    }

    /// A snapshot taken while another thread records agrees with itself:
    /// its count is the sum of the buckets it read.
    #[test]
    fn snapshots_taken_while_recording_count_their_own_buckets() {
        use std::sync::atomic::AtomicBool;
        let histogram = Histogram::new();
        let stop = AtomicBool::new(false);
        let disagreeing = std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut value = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    histogram.record(value % 100_000);
                    value += 7;
                }
            });
            // Snapshot only once the recorder is running.
            while histogram.count() == 0 {
                std::hint::spin_loop();
            }
            let disagreeing = (0..500)
                .map(|_| histogram.snapshot())
                .filter(|snapshot| snapshot.count != bucket_total(&snapshot.buckets))
                .count();
            // Stop the recorder before asserting, so a failure cannot leave
            // the scope waiting for it.
            stop.store(true, Ordering::Relaxed);
            disagreeing
        });
        assert_eq!(
            disagreeing, 0,
            "snapshots whose count is not their bucket sum"
        );
        assert_eq!(histogram.snapshot().count, histogram.count());
    }

    #[test]
    fn prometheus_escaping_covers_backslash_quote_newline() {
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\\b"), "a\\\\b");
        assert_eq!(escape_label("say \"hi\""), "say \\\"hi\\\"");
        assert_eq!(escape_label("line1\nline2"), "line1\\nline2");
        let registry = MetricsRegistry::new();
        registry
            .counter("odd_total", &[("path", "a\\b\"c\nd")])
            .inc();
        let text = registry.render_prometheus();
        assert!(
            text.contains("odd_total{path=\"a\\\\b\\\"c\\nd\"} 1"),
            "{text}"
        );
    }

    /// Hostile label values must survive the full cross-worker path — the
    /// worker's snapshot, its JSON wire round-trip, the server-side merge —
    /// and still render escaped. Escaping only at render time means the
    /// wire format must carry the *raw* value exactly once.
    #[test]
    fn prometheus_escaping_survives_the_snapshot_merge_round_trip() {
        let hostile = "a\\b\"c\nd";
        let worker = MetricsRegistry::new();
        worker.counter("odd_total", &[("path", hostile)]).add(2);
        let wire = worker.snapshot().to_json().to_json();
        let shipped = MetricsSnapshot::from_json(&JsonValue::parse(&wire).expect("wire json"))
            .expect("snapshot parses");

        let mut merged = MetricsRegistry::new().snapshot();
        merged.merge(&shipped);
        merged.merge(&shipped);
        let text = merged.render_prometheus();
        assert!(
            text.contains("odd_total{path=\"a\\\\b\\\"c\\nd\"} 4"),
            "escapes intact and counts summed after a double merge: {text}"
        );
        // The raw value was never double-escaped on the wire.
        assert_eq!(
            escape_label(&escape_label(hostile)),
            "a\\\\\\\\b\\\\\\\"c\\\\nd",
            "double-escaping is distinguishable, so the render above proves single"
        );
    }

    #[test]
    fn prometheus_rendering_groups_series_and_is_cumulative() {
        let registry = MetricsRegistry::new();
        registry.counter("hits_total", &[("worker", "w1")]).add(2);
        registry.counter("hits_total", &[("worker", "w2")]).add(3);
        let histogram = registry.histogram("wait_seconds", &[]);
        histogram.record(2); // 2 µs
        histogram.record(500); // 0.5 ms
        let text = registry.render_prometheus();
        assert_eq!(text.matches("# TYPE hits_total counter").count(), 1);
        assert!(text.contains("hits_total{worker=\"w1\"} 2"));
        assert!(text.contains("hits_total{worker=\"w2\"} 3"));
        assert!(
            text.contains("wait_seconds_bucket{le=\"0.000004\"} 1"),
            "{text}"
        );
        assert!(text.contains("wait_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("wait_seconds_count 2"));
    }

    #[test]
    fn kind_conflicts_return_detached_handles() {
        let registry = MetricsRegistry::new();
        registry.counter("thing", &[]).add(4);
        let detached = registry.gauge("thing", &[]);
        detached.set(99);
        assert_eq!(registry.snapshot().counter_value("thing", &[]), Some(4));
    }

    #[test]
    fn with_label_tags_every_series() {
        let registry = MetricsRegistry::new();
        registry.counter("records_total", &[]).add(8);
        let tagged = registry.snapshot().with_label("worker", "w1");
        assert_eq!(
            tagged.counter_value("records_total", &[("worker", "w1")]),
            Some(8)
        );
    }
}
