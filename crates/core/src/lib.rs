//! Thermal-aware task allocation and scheduling for embedded systems.
//!
//! This crate is the core of a from-scratch reproduction of
//! *W-L. Hung, Y. Xie, N. Vijaykrishnan, M. Kandemir, M. J. Irwin,
//! "Thermal-Aware Task Allocation and Scheduling for Embedded Systems",
//! DATE 2005*. It implements the paper's Allocation and Scheduling Procedure
//! (ASP) — a list scheduler ordered by *dynamic criticality* — together with
//! the power-aware and thermal-aware variants, and the two design flows the
//! paper evaluates:
//!
//! * [`Asp`] — the list scheduler with the [`Policy`] plug-in (baseline,
//!   power heuristics 1–3, thermal-aware),
//! * [`Schedule`] — validated task-to-PE mappings with timing,
//! * [`PlatformFlow`] — the platform-based design flow (Figure 1.b),
//! * [`CoSynthesis`] — the co-synthesis flow with thermal-aware
//!   floorplanning (Figure 1.a),
//! * [`evaluate_schedule`] — the "Total Pow. / Max Temp. / Avg Temp." table
//!   metrics: the schedule's per-PE sustained power through a
//!   [`ThermalModel`](tats_thermal::ThermalModel) of its floorplan,
//! * [`ThermalModelCache`] — geometry-keyed cache of factorised thermal
//!   models shared by the batch campaign engine,
//! * [`experiment`] — the table row/config types; the drivers regenerating
//!   Tables 1–3 live in the `tats_engine` crate and run through its batch
//!   campaign executor.
//!
//! # Examples
//!
//! Compare power-aware and thermal-aware scheduling on the paper's
//! platform-based architecture:
//!
//! ```
//! use tats_core::{PlatformFlow, Policy, PowerHeuristic};
//! use tats_taskgraph::Benchmark;
//! use tats_techlib::profiles;
//!
//! # fn main() -> Result<(), tats_core::CoreError> {
//! let library = profiles::standard_library(10)?;
//! let flow = PlatformFlow::new(&library)?;
//! let graph = Benchmark::Bm1.task_graph()?;
//!
//! let power = flow.run(&graph, Policy::PowerAware(PowerHeuristic::MinTaskEnergy))?;
//! let thermal = flow.run(&graph, Policy::ThermalAware)?;
//! // Both meet the real-time deadline; the thermal-aware schedule targets a
//! // lower and more even temperature profile.
//! assert!(power.evaluation.meets_deadline);
//! assert!(thermal.evaluation.meets_deadline);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod asp;
mod cache;
mod cosynthesis;
mod error;
pub mod experiment;
pub mod layout;
mod metrics;
mod phases;
mod platform;
mod policy;
mod schedule;

pub use asp::Asp;
pub use cache::{geometry_config_bits, CacheStats, FifoCache, ThermalModelCache};
pub use cosynthesis::{CoSynthesis, CoSynthesisResult};
pub use error::CoreError;
pub use metrics::{evaluate_schedule, ScheduleEvaluation};
pub use phases::FlowPhases;
pub use platform::{PlatformFlow, PlatformResult};
pub use policy::{Policy, PowerHeuristic};
pub use schedule::{Assignment, Schedule};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use tats_taskgraph::GeneratorConfig;
    use tats_techlib::profiles;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// For arbitrary generated task graphs, every policy produces a
        /// schedule that passes full structural validation on the platform
        /// architecture.
        #[test]
        fn schedules_are_always_valid(
            tasks in 3usize..25,
            extra_edges in 0usize..15,
            seed in any::<u64>(),
            policy_index in 0usize..Policy::ALL.len(),
        ) {
            let max_edges = tasks * (tasks - 1) / 2;
            let edges = (tasks - 1 + extra_edges).min(max_edges);
            let graph = GeneratorConfig::new("prop", tasks, edges, 1e6)
                .with_seed(seed)
                .with_type_count(10)
                .generate()
                .unwrap();
            let library = profiles::standard_library(10).unwrap();
            let platform = profiles::platform_architecture(&library).unwrap();
            let policy = Policy::ALL[policy_index];
            let schedule = Asp::new(&graph, &library, &platform)
                .unwrap()
                .with_policy(policy)
                .schedule()
                .unwrap();
            prop_assert!(schedule.validate(&graph, &platform, &library).is_ok());
            prop_assert_eq!(schedule.task_count(), tasks);
            // With an effectively unbounded deadline every schedule meets it.
            prop_assert!(schedule.meets_deadline());
        }
    }
}
