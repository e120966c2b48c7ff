//! Static criticality, the structural quantity list schedulers rank by.
//!
//! The paper's allocation and scheduling procedure (ASP) orders ready tasks
//! by *static criticality* (SC): the maximum weighted distance from a task,
//! inclusive, to the end task of the graph — its bottom level. The weights
//! are one per task (the ASP uses each task's mean WCET over the PE types),
//! indexed by [`TaskId`](crate::TaskId).

use crate::error::GraphError;
use crate::graph::TaskGraph;

/// The static criticality (bottom level) of every task, indexed by
/// [`TaskId::index`](crate::TaskId::index), under one execution-time weight
/// per task. The largest value is the critical-path length, a lower bound on
/// any schedule's makespan under these weights.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `weights.len()` differs from
/// the task count or any weight is negative or non-finite.
///
/// # Examples
///
/// ```
/// use tats_taskgraph::{analysis, TaskGraphBuilder, TaskKind};
///
/// # fn main() -> Result<(), tats_taskgraph::GraphError> {
/// let mut b = TaskGraphBuilder::new("chain", 10.0);
/// let a = b.add_task("a", TaskKind::Compute, 0);
/// let c = b.add_task("b", TaskKind::Compute, 1);
/// b.add_edge(a, c, 1.0)?;
/// let g = b.build()?;
/// let sc = analysis::static_criticalities(&g, &[2.0, 3.0])?;
/// assert_eq!(sc, vec![5.0, 3.0]);
/// # Ok(())
/// # }
/// ```
pub fn static_criticalities(graph: &TaskGraph, weights: &[f64]) -> Result<Vec<f64>, GraphError> {
    let n = graph.task_count();
    if weights.len() != n {
        return Err(GraphError::InvalidParameter(format!(
            "expected {n} weights, got {}",
            weights.len()
        )));
    }
    if let Some(w) = weights.iter().find(|w| !w.is_finite() || **w < 0.0) {
        return Err(GraphError::InvalidParameter(format!(
            "weights must be finite and non-negative, got {w}"
        )));
    }

    // Bottom level: weight of the task plus the longest downstream chain.
    let mut bottom_level = vec![0.0_f64; n];
    for &t in graph.topological_order().iter().rev() {
        let best_succ = graph
            .successors(t)
            .iter()
            .map(|s| bottom_level[s.index()])
            .fold(0.0_f64, f64::max);
        bottom_level[t.index()] = weights[t.index()] + best_succ;
    }
    Ok(bottom_level)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TaskGraphBuilder;
    use crate::task::TaskKind;

    /// a -> b -> d, a -> c -> d with weights a=1 b=2 c=5 d=1.
    fn weighted_diamond() -> (TaskGraph, Vec<f64>) {
        let mut b = TaskGraphBuilder::new("d", 100.0);
        let a = b.add_task("a", TaskKind::Control, 0);
        let x = b.add_task("b", TaskKind::Compute, 1);
        let y = b.add_task("c", TaskKind::Dsp, 2);
        let z = b.add_task("d", TaskKind::Memory, 3);
        b.add_edge(a, x, 1.0).unwrap();
        b.add_edge(a, y, 1.0).unwrap();
        b.add_edge(x, z, 1.0).unwrap();
        b.add_edge(y, z, 1.0).unwrap();
        (b.build().unwrap(), vec![1.0, 2.0, 5.0, 1.0])
    }

    #[test]
    fn bottom_levels_on_diamond() {
        let (g, w) = weighted_diamond();
        assert_eq!(
            static_criticalities(&g, &w).unwrap(),
            vec![7.0, 3.0, 6.0, 1.0]
        );
    }

    #[test]
    fn wrong_weight_count_is_rejected() {
        let (g, _) = weighted_diamond();
        assert!(matches!(
            static_criticalities(&g, &[1.0, 2.0]),
            Err(GraphError::InvalidParameter(_))
        ));
    }

    #[test]
    fn negative_weight_is_rejected() {
        let (g, _) = weighted_diamond();
        assert!(matches!(
            static_criticalities(&g, &[1.0, -2.0, 1.0, 1.0]),
            Err(GraphError::InvalidParameter(_))
        ));
    }

    #[test]
    fn nan_weight_is_rejected() {
        let (g, _) = weighted_diamond();
        assert!(matches!(
            static_criticalities(&g, &[1.0, f64::NAN, 1.0, 1.0]),
            Err(GraphError::InvalidParameter(_))
        ));
    }

    #[test]
    fn chain_levels_accumulate() {
        let mut b = TaskGraphBuilder::new("chain", 100.0);
        let mut prev = b.add_task("t0", TaskKind::Compute, 0);
        for i in 1..6 {
            let t = b.add_task(format!("t{i}"), TaskKind::Compute, i);
            b.add_edge(prev, t, 1.0).unwrap();
            prev = t;
        }
        let g = b.build().unwrap();
        let sc = static_criticalities(&g, &[1.0; 6]).unwrap();
        assert_eq!(sc, vec![6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
    }
}
