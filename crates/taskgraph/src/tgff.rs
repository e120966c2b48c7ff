//! A TGFF-inspired plain-text export of task graphs.
//!
//! The paper's benchmarks are TGFF-style pseudo-random graphs; this module
//! writes a [`TaskGraph`] in a deliberately simple line-oriented format
//! (`tats export --format tgff`):
//!
//! ```text
//! @GRAPH Bm1 deadline 790
//! @TASK 0 src control 3
//! @TASK 1 fir dsp 5
//! @EDGE 0 1 64
//! @END
//! ```
//!
//! * `@TASK <index> <name> <kind> <type_id>` — tasks in index order; names
//!   have their whitespace replaced by underscores.
//! * `@EDGE <src_index> <dst_index> <data_volume>`.

use crate::graph::TaskGraph;
use crate::task::TaskKind;

fn kind_keyword(kind: TaskKind) -> &'static str {
    match kind {
        TaskKind::Control => "control",
        TaskKind::Dsp => "dsp",
        TaskKind::Memory => "memory",
        TaskKind::Compute => "compute",
    }
}

/// Serialises a task graph to the TGFF-like text format.
///
/// Task names containing whitespace are written with the whitespace replaced
/// by underscores so the document stays line-oriented.
///
/// # Examples
///
/// ```
/// use tats_taskgraph::{tgff, Benchmark};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let graph = Benchmark::Bm1.task_graph()?;
/// let text = tgff::to_tgff(&graph);
/// assert!(text.starts_with("@GRAPH Bm1 deadline 790"));
/// assert_eq!(text.matches("@TASK ").count(), graph.task_count());
/// # Ok(())
/// # }
/// ```
pub fn to_tgff(graph: &TaskGraph) -> String {
    let mut out = String::new();
    let name = sanitise(graph.name());
    out.push_str(&format!("@GRAPH {} deadline {}\n", name, graph.deadline()));
    for task in graph.tasks() {
        out.push_str(&format!(
            "@TASK {} {} {} {}\n",
            task.id().index(),
            sanitise(task.name()),
            kind_keyword(task.kind()),
            task.type_id()
        ));
    }
    for edge in graph.edges() {
        out.push_str(&format!(
            "@EDGE {} {} {}\n",
            edge.src().index(),
            edge.dst().index(),
            edge.data_volume()
        ));
    }
    out.push_str("@END\n");
    out
}

fn sanitise(name: &str) -> String {
    let cleaned: String = name
        .chars()
        .map(|c| if c.is_whitespace() { '_' } else { c })
        .collect();
    if cleaned.is_empty() {
        "unnamed".to_string()
    } else {
        cleaned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::Benchmark;
    use crate::builder::TaskGraphBuilder;
    use crate::generator::GeneratorConfig;

    #[test]
    fn names_with_whitespace_are_sanitised() {
        let mut builder = TaskGraphBuilder::new("two words", 50.0);
        builder.add_task("task one", TaskKind::Compute, 0);
        let graph = builder.build().expect("graph");
        let text = to_tgff(&graph);
        assert!(text.contains("@GRAPH two_words"));
        assert!(text.contains("task_one"));
    }

    /// FNV-1a over the document's bytes.
    fn text_digest(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn writer_output_is_pinned() {
        let mut graphs: Vec<TaskGraph> = Benchmark::ALL
            .iter()
            .map(|benchmark| benchmark.task_graph().expect("benchmark"))
            .collect();
        graphs.push(
            GeneratorConfig::new("random", 40, 55, 1200.0)
                .with_seed(7)
                .generate()
                .expect("generated"),
        );
        let digests: Vec<(usize, u64)> = graphs
            .iter()
            .map(|graph| {
                let text = to_tgff(graph);
                (text.len(), text_digest(&text))
            })
            .collect();
        // Byte length and digest of Bm1..Bm4 and the 40-task generated graph.
        assert_eq!(
            digests,
            [
                (1032, 0x99fa_35d2_d32e_c44e),
                (2075, 0x7f80_0e43_ad22_a161),
                (2287, 0xe31f_f74f_7efc_e864),
                (3101, 0x2efb_9d84_7788_8f9a),
                (2810, 0x7177_cc5a_e555_cb5f),
            ]
        );
    }
}
