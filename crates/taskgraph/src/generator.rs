//! Seeded pseudo-random task-graph generation.
//!
//! The paper evaluates the schedulers on four synthetic benchmarks generated
//! with TGFF-style tooling; only the task count, edge count and deadline of
//! each benchmark are published. This module provides an equivalent layered
//! DAG generator: tasks are distributed over layers, every non-source task is
//! connected to an earlier layer, and additional forward edges are added
//! until the requested edge count is reached. Generation is fully
//! deterministic for a given [`GeneratorConfig`] (including the seed).

use std::fmt::Write as _;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::builder::TaskGraphBuilder;
use crate::error::GraphError;
use crate::graph::TaskGraph;
use crate::task::{TaskId, TaskKind};

/// Parameters of the layered random DAG generator.
///
/// # Examples
///
/// ```
/// use tats_taskgraph::GeneratorConfig;
///
/// # fn main() -> Result<(), tats_taskgraph::GraphError> {
/// let graph = GeneratorConfig::new("demo", 19, 19, 790.0)
///     .with_seed(42)
///     .generate()?;
/// assert_eq!(graph.task_count(), 19);
/// assert_eq!(graph.edge_count(), 19);
/// assert_eq!(graph.deadline(), 790.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    name: String,
    tasks: usize,
    edges: usize,
    deadline: f64,
    layers: Option<usize>,
    type_count: usize,
    data_volume_range: (f64, f64),
    seed: u64,
}

impl GeneratorConfig {
    /// Creates a configuration for a graph with exactly `tasks` tasks,
    /// `edges` edges and the given deadline.
    pub fn new(name: impl Into<String>, tasks: usize, edges: usize, deadline: f64) -> Self {
        GeneratorConfig {
            name: name.into(),
            tasks,
            edges,
            deadline,
            layers: None,
            type_count: 8,
            data_volume_range: (8.0, 128.0),
            seed: 0xC0FFEE,
        }
    }

    /// Fixes the number of layers instead of deriving it from the task count.
    pub fn with_layers(mut self, layers: usize) -> Self {
        self.layers = Some(layers);
        self
    }

    /// Number of distinct task types (rows of the technology-library tables).
    pub fn with_type_count(mut self, type_count: usize) -> Self {
        self.type_count = type_count;
        self
    }

    /// Range of per-edge data volumes, sampled uniformly.
    pub fn with_data_volume_range(mut self, min: f64, max: f64) -> Self {
        self.data_volume_range = (min, max);
        self
    }

    /// Seed of the pseudo-random generator; equal configurations generate
    /// byte-identical graphs.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Requested task count.
    pub fn tasks(&self) -> usize {
        self.tasks
    }

    /// Requested edge count.
    pub fn edges(&self) -> usize {
        self.edges
    }

    /// Requested deadline.
    pub fn deadline(&self) -> f64 {
        self.deadline
    }

    /// Generates the task graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] when the requested edge count
    /// cannot be realised as a simple DAG over `tasks` tasks, when `tasks` is
    /// zero or its square overflows `usize`, or when the configured ranges are
    /// malformed; construction errors from the underlying builder are
    /// propagated unchanged.
    pub fn generate(&self) -> Result<TaskGraph, GraphError> {
        if self.tasks == 0 {
            return Err(GraphError::InvalidParameter(
                "task count must be at least 1".to_string(),
            ));
        }
        let pairs = self.tasks.checked_mul(self.tasks).ok_or_else(|| {
            GraphError::InvalidParameter(format!(
                "{} tasks overflow the task-pair count",
                self.tasks
            ))
        })?;
        let max_edges = self.tasks * (self.tasks - 1) / 2;
        if self.edges > max_edges {
            return Err(GraphError::InvalidParameter(format!(
                "{} edges requested but a simple DAG over {} tasks has at most {max_edges}",
                self.edges, self.tasks
            )));
        }
        if self.type_count == 0 {
            return Err(GraphError::InvalidParameter(
                "type count must be at least 1".to_string(),
            ));
        }
        let (dv_min, dv_max) = self.data_volume_range;
        if !(dv_min.is_finite() && dv_max.is_finite()) || dv_min < 0.0 || dv_max < dv_min {
            return Err(GraphError::InvalidParameter(format!(
                "malformed data volume range [{dv_min}, {dv_max}]"
            )));
        }
        if let Some(layers) = self.layers {
            if layers == 0 || layers > self.tasks {
                return Err(GraphError::InvalidParameter(format!(
                    "layer count {layers} must be in 1..={}",
                    self.tasks
                )));
            }
        }

        let mut rng = StdRng::seed_from_u64(self.seed);
        let layer_count = self
            .layers
            .unwrap_or_else(|| ((self.tasks as f64).sqrt().round() as usize).clamp(1, self.tasks));

        // Distribute tasks over layers: each layer receives at least one.
        let mut layer_of = vec![0usize; self.tasks];
        for (i, layer) in layer_of.iter_mut().enumerate().take(layer_count) {
            *layer = i;
        }
        for layer in layer_of.iter_mut().skip(layer_count) {
            *layer = rng.gen_range(0..layer_count);
        }
        layer_of.shuffle(&mut rng);
        // Normalise: sort task indices by layer so task ids grow with depth,
        // which keeps generated graphs easy to read in DOT dumps.
        layer_of.sort_unstable();

        let mut builder = TaskGraphBuilder::new(self.name.clone(), self.deadline);
        let index_digits = (self.tasks - 1)
            .checked_ilog10()
            .map_or(1, |d| d as usize + 1);
        for (i, &layer) in layer_of.iter().enumerate() {
            let kind = TaskKind::ALL[rng.gen_range(0..TaskKind::ALL.len())];
            let type_id = rng.gen_range(0..self.type_count);
            let mut name = String::with_capacity(self.name.len() + 2 + index_digits);
            name.push_str(&self.name);
            name.push_str("_t");
            write!(name, "{i}").expect("writing to a String cannot fail");
            builder.add_task(name, kind, type_id);
            debug_assert!(layer < layer_count);
        }

        // `layer_of` is sorted and every layer holds at least one task, so
        // layer `l` holds the ids `layer_start[l]..layer_start[l + 1]`.
        let layer_start: Vec<usize> = (0..=layer_count)
            .map(|l| layer_of.partition_point(|&layer| layer < l))
            .collect();
        // `link(src, dst)` sets bit `src * tasks + dst` and reports whether it
        // was clear, i.e. whether the edge `src -> dst` is new.
        let mut linked = vec![0u64; pairs.div_ceil(64)];
        let mut link = |src: usize, dst: usize| {
            let bit = src * self.tasks + dst;
            let fresh = linked[bit / 64] & (1 << (bit % 64)) == 0;
            linked[bit / 64] |= 1 << (bit % 64);
            fresh
        };

        // Mandatory connectivity edges: every task beyond layer 0 receives one
        // predecessor from an earlier layer, as long as the edge budget lasts.
        let mut edges_added = 0usize;
        let mut connect_order: Vec<usize> = (0..self.tasks).filter(|&i| layer_of[i] > 0).collect();
        connect_order.shuffle(&mut rng);
        for &dst in &connect_order {
            if edges_added >= self.edges {
                break;
            }
            let dst_layer = layer_of[dst];
            let src_layer = rng.gen_range(0..dst_layer);
            let (first, end) = (layer_start[src_layer], layer_start[src_layer + 1]);
            let src = first + rng.gen_range(0..end - first);
            if link(src, dst) {
                let dv = rng.gen_range(dv_min..=dv_max);
                builder.add_edge(TaskId(src), TaskId(dst), dv)?;
                edges_added += 1;
            }
        }

        // Fill up with random forward edges between distinct layers.
        let mut attempts = 0usize;
        let attempt_limit = 50 * self.edges.max(self.tasks) + 1000;
        while edges_added < self.edges && attempts < attempt_limit {
            attempts += 1;
            let a = rng.gen_range(0..self.tasks);
            let b = rng.gen_range(0..self.tasks);
            if a == b || layer_of[a] == layer_of[b] {
                continue;
            }
            let (src, dst) = if layer_of[a] < layer_of[b] {
                (a, b)
            } else {
                (b, a)
            };
            if !link(src, dst) {
                continue;
            }
            let dv = rng.gen_range(dv_min..=dv_max);
            builder.add_edge(TaskId(src), TaskId(dst), dv)?;
            edges_added += 1;
        }

        // Deterministic fall-back: exhaustive scan over all id-ordered pairs.
        // Task ids are sorted by layer, so an edge from a lower id to a higher
        // id can never create a cycle even when both tasks share a layer.
        if edges_added < self.edges {
            'outer: for src in 0..self.tasks {
                for dst in (src + 1)..self.tasks {
                    if link(src, dst) {
                        let dv = rng.gen_range(dv_min..=dv_max);
                        builder.add_edge(TaskId(src), TaskId(dst), dv)?;
                        edges_added += 1;
                        if edges_added == self.edges {
                            break 'outer;
                        }
                    }
                }
            }
        }

        debug_assert_eq!(
            edges_added, self.edges,
            "edge budget is validated against the complete-DAG bound upfront"
        );

        builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_graph_matches_requested_counts() {
        for &(t, e) in &[(19usize, 19usize), (35, 40), (39, 43), (51, 60), (10, 9)] {
            let g = GeneratorConfig::new("g", t, e, 1000.0)
                .with_seed(7)
                .generate()
                .unwrap();
            assert_eq!(g.task_count(), t);
            assert_eq!(g.edge_count(), e);
        }
    }

    #[test]
    fn generation_is_deterministic_for_equal_seeds() {
        let a = GeneratorConfig::new("g", 30, 45, 500.0)
            .with_seed(11)
            .generate()
            .unwrap();
        let b = GeneratorConfig::new("g", 30, 45, 500.0)
            .with_seed(11)
            .generate()
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_graphs() {
        let a = GeneratorConfig::new("g", 30, 45, 500.0)
            .with_seed(1)
            .generate()
            .unwrap();
        let b = GeneratorConfig::new("g", 30, 45, 500.0)
            .with_seed(2)
            .generate()
            .unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn zero_tasks_rejected() {
        assert!(matches!(
            GeneratorConfig::new("g", 0, 0, 10.0).generate(),
            Err(GraphError::InvalidParameter(_))
        ));
    }

    #[test]
    fn too_many_edges_rejected() {
        assert!(matches!(
            GeneratorConfig::new("g", 4, 7, 10.0).generate(),
            Err(GraphError::InvalidParameter(_))
        ));
    }

    #[test]
    fn task_count_whose_square_overflows_rejected() {
        assert!(matches!(
            GeneratorConfig::new("g", usize::MAX, 0, 10.0).generate(),
            Err(GraphError::InvalidParameter(_))
        ));
    }

    #[test]
    fn malformed_data_volume_range_rejected() {
        assert!(matches!(
            GeneratorConfig::new("g", 5, 4, 10.0)
                .with_data_volume_range(10.0, 1.0)
                .generate(),
            Err(GraphError::InvalidParameter(_))
        ));
    }

    #[test]
    fn zero_layers_rejected() {
        assert!(matches!(
            GeneratorConfig::new("g", 5, 4, 10.0)
                .with_layers(0)
                .generate(),
            Err(GraphError::InvalidParameter(_))
        ));
    }

    #[test]
    fn type_ids_stay_below_type_count() {
        let g = GeneratorConfig::new("g", 40, 60, 100.0)
            .with_type_count(3)
            .generate()
            .unwrap();
        assert!(g.tasks().all(|t| t.type_id() < 3));
    }

    #[test]
    fn data_volumes_stay_in_range() {
        let g = GeneratorConfig::new("g", 40, 60, 100.0)
            .with_data_volume_range(2.0, 4.0)
            .generate()
            .unwrap();
        assert!(g
            .edges()
            .all(|e| e.data_volume() >= 2.0 && e.data_volume() <= 4.0));
    }

    #[test]
    fn dense_graph_with_single_fallback_path() {
        // Forces the exhaustive fall-back: 2 layers over 6 tasks can host at
        // most 9 cross-layer edges with a 3/3 split, but the generator may
        // need the deterministic scan to find the last few.
        let g = GeneratorConfig::new("g", 6, 8, 10.0)
            .with_layers(2)
            .with_seed(3)
            .generate()
            .unwrap();
        assert_eq!(g.edge_count(), 8);
    }

    #[test]
    fn single_task_graph_generates() {
        let g = GeneratorConfig::new("one", 1, 0, 10.0).generate().unwrap();
        assert_eq!(g.task_count(), 1);
        assert_eq!(g.edge_count(), 0);
    }
}
