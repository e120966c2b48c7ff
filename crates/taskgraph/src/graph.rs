//! The task-graph container.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use crate::edge::{Edge, EdgeId};
use crate::error::GraphError;
use crate::task::{Task, TaskId};

/// A directed acyclic task graph with a real-time deadline.
///
/// A `TaskGraph` is the unit of work handed to the allocation and scheduling
/// procedure: every task must be mapped to a processing element and scheduled
/// such that all precedence edges are respected and the sink task finishes no
/// later than [`TaskGraph::deadline`].
///
/// Graphs are constructed through [`crate::TaskGraphBuilder`], which
/// validates acyclicity and referential integrity, so every `TaskGraph`
/// instance is a well-formed DAG by construction.
///
/// # Examples
///
/// ```
/// use tats_taskgraph::{TaskGraphBuilder, TaskKind};
///
/// # fn main() -> Result<(), tats_taskgraph::GraphError> {
/// let mut b = TaskGraphBuilder::new("pipeline", 100.0);
/// let src = b.add_task("read", TaskKind::Memory, 0);
/// let mid = b.add_task("fft", TaskKind::Dsp, 1);
/// let dst = b.add_task("emit", TaskKind::Control, 2);
/// b.add_edge(src, mid, 16.0)?;
/// b.add_edge(mid, dst, 16.0)?;
/// let graph = b.build()?;
/// assert_eq!(graph.task_count(), 3);
/// assert_eq!(graph.edge_count(), 2);
/// assert_eq!(graph.sources(), vec![src]);
/// assert_eq!(graph.sinks(), vec![dst]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TaskGraph {
    name: String,
    deadline: f64,
    tasks: Vec<Task>,
    edges: Vec<Edge>,
    /// Task `i`'s successors are `successors[succ_start[i]..succ_start[i + 1]]`,
    /// in edge order (compressed sparse rows).
    succ_start: Vec<usize>,
    successors: Vec<TaskId>,
    /// Task `i`'s predecessors, laid out like the successors.
    pred_start: Vec<usize>,
    predecessors: Vec<TaskId>,
    topo_order: Vec<TaskId>,
}

impl TaskGraph {
    /// Assembles a graph from the builder's parts.
    ///
    /// `TaskGraphBuilder::add_edge` has already refused unknown endpoints,
    /// self loops and duplicate edges, so only the graph-wide conditions are
    /// checked here.
    pub(crate) fn from_parts(
        name: String,
        deadline: f64,
        tasks: Vec<Task>,
        edges: Vec<Edge>,
    ) -> Result<Self, GraphError> {
        if tasks.is_empty() {
            return Err(GraphError::Empty);
        }
        if deadline <= 0.0 || !deadline.is_finite() {
            return Err(GraphError::NonPositiveDeadline(deadline));
        }
        let n = tasks.len();
        let (succ_start, successors) = adjacency(n, &edges, |e| (e.src(), e.dst()));
        let (pred_start, predecessors) = adjacency(n, &edges, |e| (e.dst(), e.src()));
        let mut graph = TaskGraph {
            name,
            deadline,
            tasks,
            edges,
            succ_start,
            successors,
            pred_start,
            predecessors,
            topo_order: Vec::new(),
        };
        graph.topo_order = graph.kahn_order()?;
        Ok(graph)
    }

    /// Kahn's algorithm, releasing the smallest ready id first; fails when a
    /// cycle leaves tasks unplaced.
    fn kahn_order(&self) -> Result<Vec<TaskId>, GraphError> {
        let mut indegree: Vec<usize> = self.pred_start.windows(2).map(|w| w[1] - w[0]).collect();
        let mut ready: BinaryHeap<Reverse<TaskId>> = self
            .task_ids()
            .filter(|t| indegree[t.index()] == 0)
            .map(Reverse)
            .collect();
        let mut order = Vec::with_capacity(self.tasks.len());
        while let Some(Reverse(t)) = ready.pop() {
            order.push(t);
            for &s in self.successors(t) {
                indegree[s.index()] -= 1;
                if indegree[s.index()] == 0 {
                    ready.push(Reverse(s));
                }
            }
        }
        if order.len() == self.tasks.len() {
            Ok(order)
        } else {
            Err(GraphError::CycleDetected)
        }
    }

    /// Name of the graph (e.g. `"Bm1"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The real-time deadline by which the whole graph must complete.
    pub fn deadline(&self) -> f64 {
        self.deadline
    }

    /// Number of tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Returns the task with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// Returns the task with the given id, or `None` if it is out of range.
    pub fn get_task(&self, id: TaskId) -> Option<&Task> {
        self.tasks.get(id.index())
    }

    /// Returns the edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// Iterates over all tasks in id order.
    pub fn tasks(&self) -> impl Iterator<Item = &Task> {
        self.tasks.iter()
    }

    /// Iterates over all task ids in id order.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.tasks.len()).map(TaskId)
    }

    /// Iterates over all edges in id order.
    pub fn edges(&self) -> impl Iterator<Item = &Edge> {
        self.edges.iter()
    }

    /// Direct successors (consumers) of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn successors(&self, id: TaskId) -> &[TaskId] {
        &self.successors[self.succ_start[id.index()]..self.succ_start[id.index() + 1]]
    }

    /// Direct predecessors (producers) of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn predecessors(&self, id: TaskId) -> &[TaskId] {
        &self.predecessors[self.pred_start[id.index()]..self.pred_start[id.index() + 1]]
    }

    /// The edge connecting `src` to `dst`, if any.
    pub fn edge_between(&self, src: TaskId, dst: TaskId) -> Option<&Edge> {
        self.edges.iter().find(|e| e.src() == src && e.dst() == dst)
    }

    /// Tasks with no predecessors, in id order.
    pub fn sources(&self) -> Vec<TaskId> {
        self.task_ids()
            .filter(|&t| self.predecessors(t).is_empty())
            .collect()
    }

    /// Tasks with no successors, in id order.
    pub fn sinks(&self) -> Vec<TaskId> {
        self.task_ids()
            .filter(|&t| self.successors(t).is_empty())
            .collect()
    }

    /// The tasks in topological order. Among the tasks whose predecessors
    /// are all placed, the smallest id comes first.
    pub fn topological_order(&self) -> &[TaskId] {
        &self.topo_order
    }

    /// Returns `true` if `ancestor` can reach `descendant` through directed
    /// edges (including the trivial case `ancestor == descendant`).
    pub fn reaches(&self, ancestor: TaskId, descendant: TaskId) -> bool {
        if ancestor == descendant {
            return true;
        }
        let mut stack = vec![ancestor];
        let mut visited = vec![false; self.tasks.len()];
        while let Some(t) = stack.pop() {
            if t == descendant {
                return true;
            }
            if visited[t.index()] {
                continue;
            }
            visited[t.index()] = true;
            stack.extend_from_slice(self.successors(t));
        }
        false
    }
}

impl fmt::Display for TaskGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} tasks, {} edges, deadline {})",
            self.name,
            self.task_count(),
            self.edge_count(),
            self.deadline
        )
    }
}

/// Groups `edges` by the first task of `endpoints(edge)` with a counting
/// sort: returns `(start, neighbours)`, where task `i`'s neighbours are
/// `neighbours[start[i]..start[i + 1]]` in edge order.
fn adjacency(
    n: usize,
    edges: &[Edge],
    endpoints: impl Fn(&Edge) -> (TaskId, TaskId),
) -> (Vec<usize>, Vec<TaskId>) {
    let mut start = vec![0; n + 1];
    for e in edges {
        start[endpoints(e).0.index()] += 1;
    }
    // Prefix sums turn each count into the end of that task's range...
    for i in 1..=n {
        start[i] += start[i - 1];
    }
    // ...and filling back to front moves each end down to the range's start
    // while keeping the edges in order within a range.
    let mut neighbours = vec![TaskId(0); edges.len()];
    for e in edges.iter().rev() {
        let (from, to) = endpoints(e);
        start[from.index()] -= 1;
        neighbours[start[from.index()]] = to;
    }
    (start, neighbours)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TaskGraphBuilder;
    use crate::task::TaskKind;

    fn diamond() -> TaskGraph {
        let mut b = TaskGraphBuilder::new("diamond", 50.0);
        let a = b.add_task("a", TaskKind::Control, 0);
        let l = b.add_task("left", TaskKind::Compute, 1);
        let r = b.add_task("right", TaskKind::Dsp, 2);
        let z = b.add_task("z", TaskKind::Memory, 3);
        b.add_edge(a, l, 1.0).unwrap();
        b.add_edge(a, r, 2.0).unwrap();
        b.add_edge(l, z, 3.0).unwrap();
        b.add_edge(r, z, 4.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn diamond_structure() {
        let g = diamond();
        assert_eq!(g.task_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.sources(), vec![TaskId(0)]);
        assert_eq!(g.sinks(), vec![TaskId(3)]);
        assert_eq!(g.successors(TaskId(0)), &[TaskId(1), TaskId(2)]);
        assert_eq!(g.predecessors(TaskId(3)), &[TaskId(1), TaskId(2)]);
    }

    #[test]
    fn topo_order_respects_edges() {
        let g = diamond();
        let order = g.topological_order();
        assert_eq!(order.len(), 4);
        let pos = |t: TaskId| order.iter().position(|&x| x == t).unwrap();
        for e in g.edges() {
            assert!(pos(e.src()) < pos(e.dst()), "edge {} violated", e);
        }
    }

    #[test]
    fn reaches_is_transitive_on_diamond() {
        let g = diamond();
        assert!(g.reaches(TaskId(0), TaskId(3)));
        assert!(g.reaches(TaskId(0), TaskId(1)));
        assert!(g.reaches(TaskId(1), TaskId(3)));
        assert!(!g.reaches(TaskId(1), TaskId(2)));
        assert!(!g.reaches(TaskId(3), TaskId(0)));
        assert!(g.reaches(TaskId(2), TaskId(2)));
    }

    #[test]
    fn cycle_is_rejected() {
        let mut b = TaskGraphBuilder::new("cycle", 10.0);
        let a = b.add_task("a", TaskKind::Control, 0);
        let c = b.add_task("b", TaskKind::Control, 0);
        b.add_edge(a, c, 1.0).unwrap();
        b.add_edge(c, a, 1.0).unwrap();
        assert_eq!(b.build().unwrap_err(), GraphError::CycleDetected);
    }

    #[test]
    fn empty_graph_is_rejected() {
        let b = TaskGraphBuilder::new("empty", 10.0);
        assert_eq!(b.build().unwrap_err(), GraphError::Empty);
    }

    #[test]
    fn non_positive_deadline_is_rejected() {
        let mut b = TaskGraphBuilder::new("bad", 0.0);
        b.add_task("a", TaskKind::Control, 0);
        assert_eq!(b.build().unwrap_err(), GraphError::NonPositiveDeadline(0.0));
    }

    #[test]
    fn self_loop_is_rejected_eagerly() {
        let mut b = TaskGraphBuilder::new("loop", 10.0);
        let a = b.add_task("a", TaskKind::Control, 0);
        assert_eq!(b.add_edge(a, a, 1.0).unwrap_err(), GraphError::SelfLoop(a));
    }

    #[test]
    fn duplicate_edge_is_rejected() {
        let mut b = TaskGraphBuilder::new("dup", 10.0);
        let a = b.add_task("a", TaskKind::Control, 0);
        let c = b.add_task("b", TaskKind::Control, 0);
        b.add_edge(a, c, 1.0).unwrap();
        assert_eq!(
            b.add_edge(a, c, 2.0).unwrap_err(),
            GraphError::DuplicateEdge(a, c)
        );
    }

    #[test]
    fn edge_between_finds_the_edge() {
        let g = diamond();
        let e = g.edge_between(TaskId(0), TaskId(2)).unwrap();
        assert_eq!(e.data_volume(), 2.0);
        assert!(g.edge_between(TaskId(2), TaskId(0)).is_none());
    }

    #[test]
    fn display_contains_counts() {
        let g = diamond();
        let s = g.to_string();
        assert!(s.contains("4 tasks"));
        assert!(s.contains("4 edges"));
    }

    #[test]
    fn get_task_handles_out_of_range() {
        let g = diamond();
        assert!(g.get_task(TaskId(0)).is_some());
        assert!(g.get_task(TaskId(99)).is_none());
    }

    #[test]
    fn topo_order_releases_the_smallest_ready_id() {
        let mut b = TaskGraphBuilder::new("join", 10.0);
        let x = b.add_task("a", TaskKind::Control, 0);
        let y = b.add_task("b", TaskKind::Control, 0);
        let z = b.add_task("c", TaskKind::Control, 0);
        b.add_edge(x, z, 1.0).unwrap();
        b.add_edge(y, z, 1.0).unwrap();
        assert_eq!(b.build().unwrap().topological_order(), &[x, y, z]);

        // Bm1 has two sources, 0 and 1, and its ids grow along every edge.
        let bm1 = crate::Benchmark::Bm1.task_graph().unwrap();
        assert_eq!(bm1.sources(), vec![TaskId(0), TaskId(1)]);
        let ids: Vec<TaskId> = bm1.task_ids().collect();
        assert_eq!(bm1.topological_order(), ids.as_slice());
    }

    #[test]
    fn topo_order_is_deterministic() {
        let g1 = diamond();
        let g2 = diamond();
        assert_eq!(g1.topological_order(), g2.topological_order());
    }
}
