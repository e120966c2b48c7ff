//! `tats_engine` — the sharded batch campaign engine.
//!
//! The paper's evaluation is a fixed grid of scenarios (benchmark ×
//! architecture flow × policy × thermal backend × seed). Earlier PRs made a
//! *single* evaluation fast (cached thermal sessions, a cached grid factor);
//! this crate is the layer that keeps thousands of them fed:
//!
//! * [`Campaign`] enumerates a scenario space into a **stable, totally
//!   ordered** list ([`Scenario`]s with ids = enumeration indices), so runs
//!   are splittable and restartable by construction;
//! * [`Shard`] partitions that list deterministically (`--shard i/n` keeps
//!   ids with `id % n == i`) for fan-out across machines;
//! * [`Executor`] runs scenarios on a worker pool whose workers claim whole
//!   groups of scenarios that differ only in policy (one task graph and,
//!   on co-synthesis, one architecture per group) and share one technology
//!   library per run, where every worker owns geometry-keyed caches
//!   (block-model factorisations, grid models with their per-block
//!   responses), so thermal state is **reused across scenarios** instead of
//!   rebuilt per run;
//! * results stream through the caller's sink in scenario-id order — the
//!   CLI writes JSON Lines via `tats_trace::jsonl`, which also provides the
//!   resume scanner (`--resume` skips scenario ids already on disk);
//! * [`Summary`] aggregates the record set (peak/mean temperature,
//!   makespan, energy, per-policy deltas vs the baseline);
//! * [`CampaignSpec`] is the serializable wire form of a campaign (stable
//!   axis names + named [`Effort`], JSON round-trip, fingerprint) that the
//!   campaign service ships between submitter, server and workers;
//! * [`ShardBoard`] is the clock-free lease state machine a distributed
//!   scheduler runs per job: pull-based shard leases with TTL expiry, so a
//!   dead worker's shard is re-leased and finished under resume semantics;
//! * [`table1`]/[`table2`]/[`table3`] regenerate the paper's tables as
//!   campaign summaries, pinned byte-identical to the original in-process
//!   loops.
//!
//! Determinism contract: thread count, sharding and resume schedules change
//! *when* scenarios run, never *what* they compute. One shard, `k` merged
//! shards and an interrupted-then-resumed run all yield the same record
//! set (see `tests/shard_invariance.rs`).
//!
//! # Examples
//!
//! ```
//! use tats_engine::{Campaign, Executor, Summary};
//! use tats_core::experiment::ExperimentConfig;
//! use tats_core::Policy;
//! use tats_taskgraph::Benchmark;
//!
//! # fn main() -> Result<(), tats_engine::EngineError> {
//! let campaign = Campaign::new(ExperimentConfig::fast())
//!     .with_benchmarks(vec![Benchmark::Bm1])
//!     .with_policies(vec![Policy::Baseline, Policy::ThermalAware]);
//! let scenarios = campaign.scenarios();
//! let mut summary = Summary::new();
//! let run = Executor::new(2).run(&campaign, &scenarios, &Default::default(), |record| {
//!     summary.record(record); // a real caller would also stream JSONL here
//!     Ok(())
//! })?;
//! assert_eq!(run.records.len(), 2);
//! assert_eq!(summary.scenarios, 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod error;
mod executor;
mod lease;
mod scenario;
mod spec;
mod summary;
mod tables;

pub use error::EngineError;
pub use executor::{BatchReport, BatchRun, Executor, ScenarioRecord, TraceContext, PHASES};
pub use lease::{ShardBoard, ShardState};
pub use scenario::{policy_slug, Campaign, FlowKind, Scenario, Shard};
pub use spec::{CampaignSpec, Effort};
pub use summary::{PolicyAggregate, Summary};
pub use tables::{table1, table2, table3};
