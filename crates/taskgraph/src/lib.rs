//! Task-graph substrate for thermal-aware task allocation and scheduling.
//!
//! This crate provides the directed-acyclic task graphs consumed by the
//! allocation and scheduling procedure (ASP) of
//! *Hung et al., "Thermal-Aware Task Allocation and Scheduling for Embedded
//! Systems", DATE 2005*:
//!
//! * [`TaskGraph`] / [`TaskGraphBuilder`] — validated DAG container with a
//!   real-time deadline,
//! * [`analysis::GraphAnalysis`] — static criticality, ASAP/ALAP levels,
//!   slack and critical paths,
//! * [`GeneratorConfig`] — seeded TGFF-style layered graph generator,
//! * [`Benchmark`] — the paper's four benchmarks (`Bm1`–`Bm4`),
//! * [`extended`] — a deterministic scalability family of any size from 2,
//! * [`tgff`] — a TGFF-inspired text export,
//! * [`dot`] — Graphviz export.
//!
//! # Examples
//!
//! Build the first paper benchmark and compute static criticalities:
//!
//! ```
//! use tats_taskgraph::{analysis::GraphAnalysis, Benchmark};
//!
//! # fn main() -> Result<(), tats_taskgraph::GraphError> {
//! let graph = Benchmark::Bm1.task_graph()?;
//! let analysis = GraphAnalysis::unit(&graph)?;
//! let most_critical = graph
//!     .task_ids()
//!     .max_by(|a, b| {
//!         analysis
//!             .static_criticality(*a)
//!             .total_cmp(&analysis.static_criticality(*b))
//!     })
//!     .expect("benchmark graphs are non-empty");
//! assert!(analysis.static_criticality(most_critical) >= 1.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod benchmarks;
mod builder;
pub mod dot;
mod edge;
mod error;
pub mod extended;
mod generator;
mod graph;
mod task;
pub mod tgff;

pub use benchmarks::{all_benchmarks, Benchmark};
pub use builder::TaskGraphBuilder;
pub use edge::{Edge, EdgeId};
pub use error::GraphError;
pub use generator::GeneratorConfig;
pub use graph::TaskGraph;
pub use task::{Task, TaskId, TaskKind};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    prop_compose! {
        fn config_strategy()(tasks in 1usize..40, extra in 0usize..30, seed in any::<u64>())
            -> GeneratorConfig {
            let max_edges = tasks * (tasks.saturating_sub(1)) / 2;
            let edges = (tasks.saturating_sub(1) + extra).min(max_edges);
            GeneratorConfig::new("prop", tasks, edges, 1000.0).with_seed(seed)
        }
    }

    proptest! {
        /// Generated graphs are always acyclic DAGs with the requested sizes.
        #[test]
        fn generated_graphs_are_well_formed(config in config_strategy()) {
            let graph = config.generate().unwrap();
            prop_assert_eq!(graph.task_count(), config.tasks());
            prop_assert_eq!(graph.edge_count(), config.edges());
            // Topological order covers every task exactly once.
            let order = graph.topological_order();
            prop_assert_eq!(order.len(), graph.task_count());
            let pos: std::collections::HashMap<_, _> =
                order.iter().enumerate().map(|(i, &t)| (t, i)).collect();
            for edge in graph.edges() {
                prop_assert!(pos[&edge.src()] < pos[&edge.dst()]);
            }
        }

        /// Static criticality of a task is always at least its own weight and
        /// at least the criticality of each successor plus its own weight.
        #[test]
        fn static_criticality_dominates_successors(config in config_strategy()) {
            let graph = config.generate().unwrap();
            let weights: Vec<f64> =
                (0..graph.task_count()).map(|i| 1.0 + (i % 5) as f64).collect();
            let analysis = analysis::GraphAnalysis::new(&graph, &weights).unwrap();
            for t in graph.task_ids() {
                let sc = analysis.static_criticality(t);
                prop_assert!(sc >= weights[t.index()]);
                for &s in graph.successors(t) {
                    prop_assert!(
                        sc >= analysis.static_criticality(s) + weights[t.index()] - 1e-9
                    );
                }
            }
        }

        /// ASAP never exceeds ALAP and the critical path bound is consistent.
        #[test]
        fn asap_alap_are_consistent(config in config_strategy()) {
            let graph = config.generate().unwrap();
            let analysis = analysis::GraphAnalysis::unit(&graph).unwrap();
            for t in graph.task_ids() {
                prop_assert!(analysis.asap(t) <= analysis.alap(t) + 1e-9);
                prop_assert!(
                    analysis.asap(t) + 1.0 <= analysis.makespan_lower_bound() + 1e-9
                );
            }
        }
    }
}
