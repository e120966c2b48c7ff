//! Task-graph substrate for thermal-aware task allocation and scheduling.
//!
//! This crate provides the directed-acyclic task graphs consumed by the
//! allocation and scheduling procedure (ASP) of
//! *Hung et al., "Thermal-Aware Task Allocation and Scheduling for Embedded
//! Systems", DATE 2005*:
//!
//! * [`TaskGraph`] / [`TaskGraphBuilder`] — validated DAG container with a
//!   real-time deadline,
//! * [`analysis::static_criticalities`] — the static criticality (bottom
//!   level) the ASP ranks ready tasks by,
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
//! use tats_taskgraph::{analysis, Benchmark};
//!
//! # fn main() -> Result<(), tats_taskgraph::GraphError> {
//! let graph = Benchmark::Bm1.task_graph()?;
//! let sc = analysis::static_criticalities(&graph, &vec![1.0; graph.task_count()])?;
//! let most_critical = graph
//!     .task_ids()
//!     .max_by(|a, b| sc[a.index()].total_cmp(&sc[b.index()]))
//!     .expect("benchmark graphs are non-empty");
//! assert!(sc[most_critical.index()] >= 1.0);
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
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    prop_compose! {
        fn config_strategy()(tasks in 1usize..40, extra in 0usize..30, seed in any::<u64>())
            -> GeneratorConfig {
            let max_edges = tasks * (tasks.saturating_sub(1)) / 2;
            let edges = (tasks.saturating_sub(1) + extra).min(max_edges);
            GeneratorConfig::new("prop", tasks, edges, 1000.0).with_seed(seed)
        }
    }

    prop_compose! {
        /// A builder-made DAG whose ids are not in topological order: a
        /// random permutation gives each task a hidden rank, and edges from
        /// lower to higher ranks are added in shuffled order.
        fn shuffled_dag_strategy()(tasks in 1usize..30, percent in 0u32..=100, seed in any::<u64>())
            -> TaskGraph {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut rank: Vec<usize> = (0..tasks).collect();
            rank.shuffle(&mut rng);
            let mut pairs = Vec::new();
            for src in 0..tasks {
                for dst in 0..tasks {
                    if rank[src] < rank[dst] && rng.gen_bool(f64::from(percent) / 100.0) {
                        pairs.push((TaskId(src), TaskId(dst)));
                    }
                }
            }
            pairs.shuffle(&mut rng);
            let mut builder = TaskGraphBuilder::new("shuffled", 100.0);
            for i in 0..tasks {
                builder.add_task(format!("t{i}"), TaskKind::Compute, 0);
            }
            for (src, dst) in pairs {
                builder.add_edge(src, dst, 1.0).expect("a fresh forward edge");
            }
            builder.build().expect("edges follow the hidden ranks")
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

        /// The compressed adjacency lists each task's neighbours in edge
        /// order, and the topological order always releases the smallest
        /// ready id, as naive scans over `edges()` compute them.
        #[test]
        fn adjacency_and_order_match_naive_references(graph in shuffled_dag_strategy()) {
            for t in graph.task_ids() {
                let successors: Vec<TaskId> =
                    graph.edges().filter(|e| e.src() == t).map(|e| e.dst()).collect();
                let predecessors: Vec<TaskId> =
                    graph.edges().filter(|e| e.dst() == t).map(|e| e.src()).collect();
                prop_assert_eq!(graph.successors(t), successors.as_slice());
                prop_assert_eq!(graph.predecessors(t), predecessors.as_slice());
            }
            let mut placed = vec![false; graph.task_count()];
            let mut order = Vec::new();
            while order.len() < graph.task_count() {
                let next = graph
                    .task_ids()
                    .find(|&t| {
                        !placed[t.index()]
                            && graph.edges().all(|e| e.dst() != t || placed[e.src().index()])
                    })
                    .expect("a DAG always has a ready task");
                placed[next.index()] = true;
                order.push(next);
            }
            prop_assert_eq!(graph.topological_order(), order.as_slice());
        }

        /// Static criticality of a task is always at least its own weight and
        /// at least the criticality of each successor plus its own weight.
        #[test]
        fn static_criticality_dominates_successors(config in config_strategy()) {
            let graph = config.generate().unwrap();
            let weights: Vec<f64> =
                (0..graph.task_count()).map(|i| 1.0 + (i % 5) as f64).collect();
            let sc = analysis::static_criticalities(&graph, &weights).unwrap();
            for t in graph.task_ids() {
                prop_assert!(sc[t.index()] >= weights[t.index()]);
                for &s in graph.successors(t) {
                    prop_assert!(sc[t.index()] >= sc[s.index()] + weights[t.index()] - 1e-9);
                }
            }
        }
    }
}
