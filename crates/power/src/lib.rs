//! Power-modelling substrate for the thermal-aware scheduling suite.
//!
//! The `tats-core` crate reproduces the DATE 2005 thermal-aware allocation
//! and scheduling algorithm; this crate provides the power-side machinery
//! that the paper motivates but does not itself evaluate:
//!
//! * [`OperatingPoint`] / [`DvfsTable`] — voltage/frequency operating points
//!   and the classic DVFS scaling laws (`P ∝ V²f`, `t ∝ 1/f`);
//! * [`PowerProfile`] — the piecewise-constant per-PE power timeline of a
//!   finished schedule;
//! * [`ScheduleSimulator`] / [`ThermalTrace`] — transient (time-domain)
//!   thermal replay of a schedule, feeding the reliability analyses;
//! * [`SlackReclaimer`] / [`ScaledSchedule`] — DVS slack reclamation on top
//!   of a finished schedule.
//!
//! # Examples
//!
//! Simulate the transient temperature of a thermally-scheduled benchmark:
//!
//! ```
//! use tats_core::{layout, PlatformFlow, Policy};
//! use tats_power::{PowerProfile, ScheduleSimulator};
//! use tats_taskgraph::Benchmark;
//! use tats_techlib::profiles;
//! use tats_thermal::{ThermalConfig, ThermalModel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let library = profiles::standard_library(12)?;
//! let graph = Benchmark::Bm1.task_graph()?;
//! let result = PlatformFlow::new(&library)?.run(&graph, Policy::ThermalAware)?;
//!
//! let profile = PowerProfile::from_schedule(&result.schedule, &result.architecture, &library)?;
//! let model = ThermalModel::new(&result.floorplan, ThermalConfig::default())?;
//! let trace = ScheduleSimulator::new(&model).simulate(&profile)?;
//! assert!(trace.peak_c() < 150.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod dvs;
mod error;
mod profile;
mod simulate;
mod vf;

pub use dvs::{ScaledAssignment, ScaledSchedule, SlackReclaimer};
pub use error::PowerError;
pub use profile::{PowerProfile, ProfileSegment};
pub use simulate::{simulate_schedule, ScheduleSimulator, ThermalTrace};
pub use vf::{DvfsTable, OperatingPoint};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Dynamic power scaling is monotone in both voltage and frequency.
        #[test]
        fn power_scale_monotone(v in 0.5f64..1.0, f in 0.1f64..1.0, dv in 0.0f64..0.2, df in 0.0f64..0.2) {
            let low = OperatingPoint::new("low", v, f).expect("valid");
            let high = OperatingPoint::new("high", (v + dv).min(1.0), (f + df).min(1.0)).expect("valid");
            prop_assert!(high.dynamic_power_scale() + 1e-12 >= low.dynamic_power_scale());
        }

        /// Energy scale equals voltage squared, independently of frequency.
        #[test]
        fn energy_scale_is_voltage_squared(v in 0.5f64..1.0, f in 0.1f64..1.0) {
            let point = OperatingPoint::new("p", v, f).expect("valid");
            prop_assert!((point.energy_scale() - v * v).abs() < 1e-9);
        }

        /// A slack budget always yields a point that fits it (or nominal).
        #[test]
        fn slowest_within_fits_budget(budget in 1.0f64..5.0) {
            let table = DvfsTable::standard();
            let point = table.slowest_within(budget);
            prop_assert!(point.delay_scale() <= budget + 1e-9 || point.is_nominal());
        }
    }
}
