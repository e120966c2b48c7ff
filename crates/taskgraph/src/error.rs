//! Error types for task-graph construction and analysis.

use std::fmt;

use crate::task::TaskId;

/// Errors produced while building or validating a [`crate::TaskGraph`].
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// An edge referred to a task id that does not exist in the graph.
    UnknownTask(TaskId),
    /// A duplicate edge (same source and destination) was inserted.
    DuplicateEdge(TaskId, TaskId),
    /// An edge connects a task to itself.
    SelfLoop(TaskId),
    /// The graph contains a cycle, so it is not a valid task DAG.
    CycleDetected,
    /// The graph has no tasks.
    Empty,
    /// The deadline is not strictly positive.
    NonPositiveDeadline(f64),
    /// A generator or builder parameter was out of its valid range.
    InvalidParameter(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownTask(id) => write!(f, "unknown task id {id}"),
            GraphError::DuplicateEdge(s, d) => {
                write!(f, "duplicate edge from task {s} to task {d}")
            }
            GraphError::SelfLoop(id) => write!(f, "self loop on task {id}"),
            GraphError::CycleDetected => write!(f, "task graph contains a cycle"),
            GraphError::Empty => write!(f, "task graph has no tasks"),
            GraphError::NonPositiveDeadline(d) => {
                write!(f, "deadline must be positive, got {d}")
            }
            GraphError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_nonempty_and_lowercase() {
        let errors = vec![
            GraphError::UnknownTask(TaskId(3)),
            GraphError::DuplicateEdge(TaskId(0), TaskId(2)),
            GraphError::SelfLoop(TaskId(5)),
            GraphError::CycleDetected,
            GraphError::Empty,
            GraphError::NonPositiveDeadline(-1.0),
            GraphError::InvalidParameter("layers must be >= 1".to_string()),
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
            assert!(!msg.ends_with('.'));
        }
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GraphError>();
    }
}
