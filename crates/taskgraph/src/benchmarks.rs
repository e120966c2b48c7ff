//! The four benchmark task graphs of the paper.
//!
//! Table 1 of the paper characterises each benchmark as
//! `name/tasks/edges/deadline`:
//!
//! | Benchmark | Tasks | Edges | Deadline |
//! |-----------|-------|-------|----------|
//! | Bm1       | 19    | 19    | 790      |
//! | Bm2       | 35    | 40    | 1500     |
//! | Bm3       | 39    | 43    | 1650     |
//! | Bm4       | 51    | 60    | 2000     |
//!
//! The exact TGFF graphs are not published, so each benchmark is generated by
//! the seeded layered generator with the published counts and a fixed seed,
//! making every experiment in this repository reproducible bit-for-bit.

use crate::error::GraphError;
use crate::generator::GeneratorConfig;
use crate::graph::TaskGraph;

/// Identifier of one of the paper's four benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// `Bm1/19/19/790`
    Bm1,
    /// `Bm2/35/40/1500`
    Bm2,
    /// `Bm3/39/43/1650`
    Bm3,
    /// `Bm4/51/60/2000`
    Bm4,
}

impl Benchmark {
    /// All four benchmarks, in the order used by the paper's tables.
    pub const ALL: [Benchmark; 4] = [
        Benchmark::Bm1,
        Benchmark::Bm2,
        Benchmark::Bm3,
        Benchmark::Bm4,
    ];

    /// The benchmark's name as printed in the tables.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Bm1 => "Bm1",
            Benchmark::Bm2 => "Bm2",
            Benchmark::Bm3 => "Bm3",
            Benchmark::Bm4 => "Bm4",
        }
    }

    /// `(tasks, edges, deadline)` as published in Table 1.
    pub fn characteristics(self) -> (usize, usize, f64) {
        match self {
            Benchmark::Bm1 => (19, 19, 790.0),
            Benchmark::Bm2 => (35, 40, 1500.0),
            Benchmark::Bm3 => (39, 43, 1650.0),
            Benchmark::Bm4 => (51, 60, 2000.0),
        }
    }

    /// Deterministic seed used to instantiate the benchmark.
    fn seed(self) -> u64 {
        match self {
            Benchmark::Bm1 => 0x2005_0001,
            Benchmark::Bm2 => 0x2005_0002,
            Benchmark::Bm3 => 0x2005_0003,
            Benchmark::Bm4 => 0x2005_0004,
        }
    }

    /// Instantiates the benchmark task graph.
    ///
    /// # Errors
    ///
    /// Propagates generator errors; with the published counts and built-in
    /// seeds generation always succeeds.
    ///
    /// # Examples
    ///
    /// ```
    /// use tats_taskgraph::Benchmark;
    ///
    /// # fn main() -> Result<(), tats_taskgraph::GraphError> {
    /// let bm1 = Benchmark::Bm1.task_graph()?;
    /// assert_eq!(bm1.task_count(), 19);
    /// assert_eq!(bm1.edge_count(), 19);
    /// assert_eq!(bm1.deadline(), 790.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn task_graph(self) -> Result<TaskGraph, GraphError> {
        let (tasks, edges, deadline) = self.characteristics();
        GeneratorConfig::new(self.name(), tasks, edges, deadline)
            .with_seed(self.seed())
            .with_type_count(10)
            .generate()
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (t, e, d) = self.characteristics();
        write!(f, "{}/{}/{}/{}", self.name(), t, e, d)
    }
}

/// Instantiates all four benchmarks in table order.
///
/// # Errors
///
/// Propagates the first generation error, if any.
pub fn all_benchmarks() -> Result<Vec<TaskGraph>, GraphError> {
    Benchmark::ALL.iter().map(|b| b.task_graph()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::static_criticalities;

    #[test]
    fn benchmarks_match_published_characteristics() {
        for bm in Benchmark::ALL {
            let (tasks, edges, deadline) = bm.characteristics();
            let g = bm.task_graph().unwrap();
            assert_eq!(g.task_count(), tasks, "{bm}");
            assert_eq!(g.edge_count(), edges, "{bm}");
            assert_eq!(g.deadline(), deadline, "{bm}");
            assert_eq!(g.name(), bm.name());
        }
    }

    #[test]
    fn benchmarks_are_reproducible() {
        for bm in Benchmark::ALL {
            assert_eq!(bm.task_graph().unwrap(), bm.task_graph().unwrap());
        }
    }

    #[test]
    fn benchmarks_are_distinct() {
        let graphs = all_benchmarks().unwrap();
        for i in 0..graphs.len() {
            for j in (i + 1)..graphs.len() {
                assert_ne!(graphs[i], graphs[j]);
            }
        }
    }

    #[test]
    fn display_uses_paper_notation() {
        assert_eq!(Benchmark::Bm1.to_string(), "Bm1/19/19/790");
        assert_eq!(Benchmark::Bm4.to_string(), "Bm4/51/60/2000");
    }

    #[test]
    fn benchmarks_have_feasible_critical_paths() {
        // With unit weights the critical path must be far below the deadline,
        // otherwise no technology library could ever meet it.
        for bm in Benchmark::ALL {
            let g = bm.task_graph().unwrap();
            let sc = static_criticalities(&g, &vec![1.0; g.task_count()]).unwrap();
            let critical_path = sc.iter().copied().fold(0.0, f64::max);
            assert!(critical_path < g.deadline());
        }
    }

    #[test]
    fn all_benchmarks_returns_four_graphs() {
        assert_eq!(all_benchmarks().unwrap().len(), 4);
    }
}
