//! Extended benchmark suite for scalability studies.
//!
//! The paper evaluates four graphs of 19–51 tasks.  The scalability sweep
//! (`tats sweep`) additionally needs a family of structurally similar
//! graphs spanning a wider size range; this module generates that family
//! deterministically so every run sweeps the same workloads.

use crate::error::GraphError;
use crate::generator::GeneratorConfig;
use crate::graph::TaskGraph;

/// Ratio of edges to tasks used by the extended graphs (matches the paper's
/// benchmarks, which carry roughly 1.1–1.2 edges per task).
pub const EDGE_RATIO: f64 = 1.15;

/// Deadline granted per task (time units); mirrors the paper's benchmarks,
/// whose deadlines are roughly 40 time units per task.
pub const DEADLINE_PER_TASK: f64 = 42.0;

/// Generates one extended benchmark with the given number of tasks.
///
/// Edges and deadline are derived from the task count via [`EDGE_RATIO`] and
/// [`DEADLINE_PER_TASK`], with the edge count capped at the `n(n-1)/2` a
/// simple DAG over `n` tasks can hold; the seed makes the graph
/// reproducible.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] for a task count below 2 and
/// propagates generator errors.
///
/// # Examples
///
/// ```
/// use tats_taskgraph::extended;
///
/// # fn main() -> Result<(), tats_taskgraph::GraphError> {
/// let graph = extended::graph_with_size(100, 7)?;
/// assert_eq!(graph.task_count(), 100);
/// assert!(graph.deadline() > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn graph_with_size(tasks: usize, seed: u64) -> Result<TaskGraph, GraphError> {
    if tasks < 2 {
        return Err(GraphError::InvalidParameter(format!(
            "extended benchmarks need at least 2 tasks, got {tasks}"
        )));
    }
    // For n >= 3 the ratio stays below the n(n-1)/2 cap, so the cap only
    // changes n = 2.
    let max_edges = tasks.saturating_mul(tasks - 1) / 2;
    let edges = (((tasks as f64) * EDGE_RATIO).round() as usize).min(max_edges);
    let deadline = tasks as f64 * DEADLINE_PER_TASK;
    GeneratorConfig::new(format!("Ext{tasks}"), tasks, edges, deadline)
        .with_seed(seed ^ (tasks as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .with_type_count(10)
        .generate()
}

/// Generates a custom-size family.
///
/// # Errors
///
/// Propagates the first generation error, if any.
pub fn suite_with_sizes(sizes: &[usize], seed: u64) -> Result<Vec<TaskGraph>, GraphError> {
    sizes
        .iter()
        .map(|&size| graph_with_size(size, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::static_criticalities;

    #[test]
    fn suite_produces_requested_sizes() {
        let sizes = [25, 50, 100, 200, 400];
        let suite = suite_with_sizes(&sizes, 1).expect("suite");
        assert_eq!(suite.len(), sizes.len());
        for (graph, &size) in suite.iter().zip(sizes.iter()) {
            assert_eq!(graph.task_count(), size);
            assert!(
                graph.edge_count() >= size - 1,
                "graph must be connected enough"
            );
            assert!(graph.deadline() > 0.0);
        }
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let a = graph_with_size(50, 3).expect("graph");
        let b = graph_with_size(50, 3).expect("graph");
        let c = graph_with_size(50, 4).expect("graph");
        assert_eq!(a.edge_count(), b.edge_count());
        let volumes_a: Vec<f64> = a.edges().map(|e| e.data_volume()).collect();
        let volumes_b: Vec<f64> = b.edges().map(|e| e.data_volume()).collect();
        assert_eq!(volumes_a, volumes_b);
        // Different seed should (overwhelmingly likely) differ somewhere.
        let volumes_c: Vec<f64> = c.edges().map(|e| e.data_volume()).collect();
        assert!(volumes_a != volumes_c || a.edge_count() != c.edge_count());
    }

    #[test]
    fn extended_graphs_are_valid_dags() {
        for graph in suite_with_sizes(&[25, 50, 100, 200, 400], 9).expect("suite") {
            // Topological order covers every task exactly once.
            assert_eq!(graph.topological_order().len(), graph.task_count());
            // The unit-weight analysis succeeds (acyclic, connected indices).
            let sc =
                static_criticalities(&graph, &vec![1.0; graph.task_count()]).expect("analysis");
            assert!(sc.iter().copied().fold(0.0, f64::max) > 0.0);
        }
    }

    #[test]
    fn tiny_sizes_are_rejected() {
        assert!(graph_with_size(1, 0).is_err());
        assert!(graph_with_size(0, 0).is_err());
        assert!(suite_with_sizes(&[10, 1], 0).is_err());
    }

    #[test]
    fn custom_sizes_are_honoured() {
        let suite = suite_with_sizes(&[12, 34], 5).expect("suite");
        assert_eq!(suite.len(), 2);
        assert_eq!(suite[0].task_count(), 12);
        assert_eq!(suite[1].task_count(), 34);
    }
}
