//! Scenario spaces: the deterministic grid a campaign enumerates.
//!
//! A [`Campaign`] is the cartesian product of its axes — benchmarks ×
//! design flows × scheduling policies × grid validation × seeds —
//! flattened into a **stable, totally ordered** scenario list: axis order is
//! fixed (benchmark outermost, seed innermost) and the scenario id is the
//! index in that enumeration. Everything downstream (sharding, resume,
//! merging shard outputs) leans on that stability: `--shard i/n` selects
//! `id % n == i`, resume skips ids already present in the output file, and
//! the union of any disjoint shard covering equals the single-shard run.

use std::fmt;

use tats_core::experiment::{ExperimentConfig, EXPERIMENT_TASK_TYPES};
use tats_core::Policy;
use tats_taskgraph::{Benchmark, GeneratorConfig, TaskGraph};
use tats_thermal::GridSolver;

use crate::error::EngineError;

/// Which of the paper's two design flows evaluates the scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowKind {
    /// Fixed 4-PE platform architecture on its grid floorplan (Figure 1.b).
    Platform,
    /// Co-synthesis with thermal-aware floorplanning (Figure 1.a).
    CoSynthesis,
}

impl FlowKind {
    /// Both flows, in enumeration order.
    pub const ALL: [FlowKind; 2] = [FlowKind::Platform, FlowKind::CoSynthesis];

    /// Stable lowercase name used in scenario keys and CLI filters.
    pub fn name(self) -> &'static str {
        match self {
            FlowKind::Platform => "platform",
            FlowKind::CoSynthesis => "cosynthesis",
        }
    }
}

impl fmt::Display for FlowKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Stable lowercase slug of a policy, used in scenario keys and CLI filters
/// (matches the spellings `tats_cli` accepts).
pub fn policy_slug(policy: Policy) -> &'static str {
    match policy {
        Policy::Baseline => "baseline",
        Policy::PowerAware(h) => match h.number() {
            1 => "power1",
            2 => "power2",
            _ => "power3",
        },
        Policy::ThermalAware => "thermal",
    }
}

/// One point of the campaign grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// Index in the campaign's stable enumeration; globally unique within
    /// one campaign definition and identical across shards of it.
    pub id: u64,
    /// The benchmark axis value.
    pub benchmark: Benchmark,
    /// The design-flow axis value.
    pub flow: FlowKind,
    /// The scheduling-policy axis value.
    pub policy: Policy,
    /// The grid-validation axis value: `None` evaluates on the block model
    /// only, `Some(solver)` additionally validates the steady state on the
    /// fine grid model with that solver.
    pub solver: Option<GridSolver>,
    /// The seed axis value: `0` is the canonical published benchmark graph;
    /// any other value regenerates a graph with the same task/edge/deadline
    /// characteristics from that seed (scenario diversity).
    pub seed: u64,
}

impl Scenario {
    /// Stable human-readable key, e.g. `Bm2/platform/thermal/s0` or
    /// `Bm2/platform/thermal/cholesky/s1`.
    pub fn key(&self) -> String {
        match self.solver {
            None => format!(
                "{}/{}/{}/s{}",
                self.benchmark.name(),
                self.flow,
                policy_slug(self.policy),
                self.seed
            ),
            Some(solver) => format!(
                "{}/{}/{}/{}/s{}",
                self.benchmark.name(),
                self.flow,
                policy_slug(self.policy),
                solver.name(),
                self.seed
            ),
        }
    }

    /// Instantiates the scenario's task graph: the canonical benchmark for
    /// seed 0, a same-shape seeded variant otherwise.
    ///
    /// # Errors
    ///
    /// Propagates generator errors.
    pub fn task_graph(&self) -> Result<TaskGraph, EngineError> {
        if self.seed == 0 {
            return Ok(self.benchmark.task_graph()?);
        }
        let (tasks, edges, deadline) = self.benchmark.characteristics();
        let name = format!("{}-s{}", self.benchmark.name(), self.seed);
        Ok(GeneratorConfig::new(name, tasks, edges, deadline)
            .with_seed(self.seed)
            .with_type_count(EXPERIMENT_TASK_TYPES)
            .generate()?)
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{} {}", self.id, self.key())
    }
}

/// A deterministic shard selector: scenario ids congruent to `index` mod
/// `count`. Round-robin keeps heavy benchmarks spread across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Zero-based shard index.
    pub index: usize,
    /// Total number of shards (≥ 1).
    pub count: usize,
}

impl Default for Shard {
    fn default() -> Self {
        Shard { index: 0, count: 1 }
    }
}

impl Shard {
    /// Parses the CLI spelling `i/n`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidParameter`] for malformed specs,
    /// `n == 0` or `i >= n`.
    pub fn parse(spec: &str) -> Result<Self, EngineError> {
        let invalid = || {
            EngineError::InvalidParameter(format!(
                "shard spec '{spec}' must be 'i/n' with 0 <= i < n"
            ))
        };
        let (index, count) = spec.split_once('/').ok_or_else(invalid)?;
        let index: usize = index.trim().parse().map_err(|_| invalid())?;
        let count: usize = count.trim().parse().map_err(|_| invalid())?;
        if count == 0 || index >= count {
            return Err(invalid());
        }
        Ok(Shard { index, count })
    }

    /// Whether this shard owns a scenario id.
    pub fn owns(&self, id: u64) -> bool {
        id % self.count as u64 == self.index as u64
    }
}

impl fmt::Display for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// The scenario space plus the shared evaluation configuration.
#[derive(Debug, Clone)]
pub struct Campaign {
    benchmarks: Vec<Benchmark>,
    flows: Vec<FlowKind>,
    policies: Vec<Policy>,
    solvers: Vec<Option<GridSolver>>,
    seeds: Vec<u64>,
    experiment: ExperimentConfig,
    grid_resolution: (usize, usize),
}

impl Default for Campaign {
    fn default() -> Self {
        Campaign::new(ExperimentConfig::fast())
    }
}

impl Campaign {
    /// A campaign over all four benchmarks, the platform flow, every policy,
    /// the block thermal model only and the canonical seed.
    pub fn new(experiment: ExperimentConfig) -> Self {
        Campaign {
            benchmarks: Benchmark::ALL.to_vec(),
            flows: vec![FlowKind::Platform],
            policies: Policy::ALL.to_vec(),
            solvers: vec![None],
            seeds: vec![0],
            experiment,
            grid_resolution: (16, 16),
        }
    }

    /// Replaces the benchmark axis (must be non-empty to yield scenarios).
    pub fn with_benchmarks(mut self, benchmarks: Vec<Benchmark>) -> Self {
        self.benchmarks = benchmarks;
        self
    }

    /// Replaces the flow axis.
    pub fn with_flows(mut self, flows: Vec<FlowKind>) -> Self {
        self.flows = flows;
        self
    }

    /// Replaces the policy axis.
    pub fn with_policies(mut self, policies: Vec<Policy>) -> Self {
        self.policies = policies;
        self
    }

    /// Replaces the grid-validation axis.
    pub fn with_solvers(mut self, solvers: Vec<Option<GridSolver>>) -> Self {
        self.solvers = solvers;
        self
    }

    /// Replaces the seed axis.
    pub fn with_seeds(mut self, seeds: Vec<u64>) -> Self {
        self.seeds = seeds;
        self
    }

    /// Overrides the grid-model resolution used by grid-validation
    /// scenarios.
    pub fn with_grid_resolution(mut self, nx: usize, ny: usize) -> Self {
        self.grid_resolution = (nx, ny);
        self
    }

    /// The shared experiment configuration (library, GA effort, thermal
    /// constants).
    pub fn experiment(&self) -> &ExperimentConfig {
        &self.experiment
    }

    /// The benchmark axis.
    pub fn benchmarks(&self) -> &[Benchmark] {
        &self.benchmarks
    }

    /// The flow axis.
    pub fn flows(&self) -> &[FlowKind] {
        &self.flows
    }

    /// The policy axis.
    pub fn policies(&self) -> &[Policy] {
        &self.policies
    }

    /// The grid-validation axis.
    pub fn solvers(&self) -> &[Option<GridSolver>] {
        &self.solvers
    }

    /// The seed axis.
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    /// The grid-model resolution used when a scenario's solver axis is set.
    pub fn grid_resolution(&self) -> (usize, usize) {
        self.grid_resolution
    }

    /// Number of scenarios in the full (unsharded) campaign.
    pub fn len(&self) -> usize {
        self.benchmarks.len()
            * self.flows.len()
            * self.policies.len()
            * self.solvers.len()
            * self.seeds.len()
    }

    /// Returns `true` if any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerates the full scenario list in the stable total order:
    /// benchmark, then flow, then policy, then solver, then seed; ids are
    /// enumeration indices.
    pub fn scenarios(&self) -> Vec<Scenario> {
        let mut out = Vec::with_capacity(self.len());
        let mut id = 0u64;
        for &benchmark in &self.benchmarks {
            for &flow in &self.flows {
                for &policy in &self.policies {
                    for &solver in &self.solvers {
                        for &seed in &self.seeds {
                            out.push(Scenario {
                                id,
                                benchmark,
                                flow,
                                policy,
                                solver,
                                seed,
                            });
                            id += 1;
                        }
                    }
                }
            }
        }
        out
    }

    /// The scenarios a shard owns, in id order.
    pub fn shard_scenarios(&self, shard: Shard) -> Vec<Scenario> {
        self.scenarios()
            .into_iter()
            .filter(|s| shard.owns(s.id))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumeration_is_stable_and_totally_ordered() {
        let campaign = Campaign::default();
        let a = campaign.scenarios();
        let b = campaign.scenarios();
        assert_eq!(a, b);
        assert_eq!(a.len(), campaign.len());
        assert_eq!(a.len(), 20); // 4 benchmarks x 1 flow x 5 policies
        for (index, scenario) in a.iter().enumerate() {
            assert_eq!(scenario.id, index as u64);
        }
        // Keys are unique.
        let keys: std::collections::BTreeSet<String> = a.iter().map(|s| s.key()).collect();
        assert_eq!(keys.len(), a.len());
    }

    #[test]
    fn shards_partition_the_campaign() {
        let campaign = Campaign::default()
            .with_flows(FlowKind::ALL.to_vec())
            .with_seeds(vec![0, 1, 2]);
        let all = campaign.scenarios();
        let mut merged: Vec<Scenario> = (0..3)
            .flat_map(|i| campaign.shard_scenarios(Shard { index: i, count: 3 }))
            .collect();
        merged.sort_by_key(|s| s.id);
        assert_eq!(merged, all);
    }

    #[test]
    fn shard_spec_parses_and_rejects() {
        assert_eq!(Shard::parse("1/4").unwrap(), Shard { index: 1, count: 4 });
        assert_eq!(Shard::parse("0/1").unwrap(), Shard::default());
        assert!(Shard::parse("4/4").is_err());
        assert!(Shard::parse("0/0").is_err());
        assert!(Shard::parse("banana").is_err());
        assert!(Shard::parse("1").is_err());
        assert_eq!(Shard { index: 2, count: 8 }.to_string(), "2/8");
    }

    #[test]
    fn seeded_scenarios_regenerate_same_shape_different_structure() {
        let base = Scenario {
            id: 0,
            benchmark: Benchmark::Bm1,
            flow: FlowKind::Platform,
            policy: Policy::Baseline,
            solver: None,
            seed: 0,
        };
        let canonical = base.task_graph().unwrap();
        let seeded = Scenario { seed: 7, ..base }.task_graph().unwrap();
        assert_eq!(canonical.task_count(), seeded.task_count());
        assert_eq!(canonical.deadline(), seeded.deadline());
        assert_ne!(format!("{canonical:?}"), format!("{seeded:?}"));
        assert!(Scenario { seed: 7, ..base }.key().ends_with("/s7"));
    }

    #[test]
    fn keys_include_the_solver_axis() {
        let scenario = Scenario {
            id: 3,
            benchmark: Benchmark::Bm2,
            flow: FlowKind::CoSynthesis,
            policy: Policy::ThermalAware,
            solver: Some(GridSolver::BandedCholesky),
            seed: 1,
        };
        let key = scenario.key();
        assert!(key.starts_with("Bm2/cosynthesis/thermal/"), "{key}");
        assert!(key.contains("s1"), "{key}");
        assert!(scenario.to_string().starts_with("#3 "));
    }
}
