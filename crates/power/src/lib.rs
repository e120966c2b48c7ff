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
//!   of a finished schedule;
//! * [`ReliabilityAnalyzer`] / [`SystemReliability`] — per-PE and
//!   series-system mean time to failure from the Arrhenius [`MECHANISMS`]
//!   and [`CoffinManson`] thermal cycling with rainflow [`count_cycles`],
//!   the lifetime model of Srinivasan et al. (ISCA 2004).
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

mod cycling;
mod dvs;
mod error;
mod profile;
mod reliability;
mod simulate;
mod vf;

pub use cycling::{count_cycles, peaks_and_valleys, CoffinManson, ThermalCycle};
pub use dvs::{ScaledAssignment, ScaledSchedule, SlackReclaimer};
pub use error::PowerError;
pub use profile::{PowerProfile, ProfileSegment};
pub use reliability::{Mechanism, ReliabilityAnalyzer, SystemReliability, MECHANISMS};
pub use simulate::{simulate_schedule, ScheduleSimulator, ThermalTrace};
pub use vf::{DvfsTable, OperatingPoint};

#[cfg(test)]
mod tests {
    use super::*;
    use tats_thermal::Temperatures;

    fn synthetic_trace(block_count: usize, swings: &[(f64, f64)]) -> ThermalTrace {
        // Each (low, high) pair contributes two samples.
        let mut times = Vec::new();
        let mut samples = Vec::new();
        let mut t = 1.0;
        for &(low, high) in swings {
            times.push(t);
            samples.push(Temperatures::uniform(block_count, low));
            times.push(t + 1.0);
            samples.push(Temperatures::uniform(block_count, high));
            t += 2.0;
        }
        ThermalTrace::new(times, samples).expect("valid trace")
    }

    #[test]
    fn trace_based_lifetime_penalises_large_swings() {
        let analyzer = ReliabilityAnalyzer::new();
        let calm = synthetic_trace(2, &[(58.0, 62.0), (58.0, 62.0), (58.0, 62.0)]);
        let cycling = synthetic_trace(2, &[(35.0, 85.0), (35.0, 85.0), (35.0, 85.0)]);
        let calm_result = analyzer.from_trace(&calm).expect("calm");
        let cycling_result = analyzer.from_trace(&cycling).expect("cycling");
        // Same mean temperature (60 °C) but the large swings cost lifetime.
        assert!(cycling_result.system_mttf_hours() < calm_result.system_mttf_hours());
    }

    #[test]
    fn trace_and_steady_agree_when_the_trace_is_flat() {
        let analyzer = ReliabilityAnalyzer::new();
        let flat = synthetic_trace(3, &[(70.0, 70.0), (70.0, 70.0)]);
        let from_trace = analyzer.from_trace(&flat).expect("trace");
        let from_steady = analyzer
            .from_steady_temperatures(&Temperatures::uniform(3, 70.0))
            .expect("steady");
        let a = from_trace.system_mttf_hours();
        let b = from_steady.system_mttf_hours();
        assert!((a - b).abs() / b < 1e-9);
    }

    #[test]
    fn lifetime_arithmetic_is_pinned_bit_exact() {
        // `tats reliability` rounds MTTFs to whole hours, so only these bits
        // show that the mechanism sum, the Arrhenius factors and the
        // Coffin–Manson rate keep their floating-point operations.
        let analyzer = ReliabilityAnalyzer::new();
        let steady = analyzer
            .from_steady_temperatures(&Temperatures::uniform(4, 85.0))
            .expect("steady");
        let swings = synthetic_trace(3, &[(45.0, 80.0), (52.0, 91.0), (40.0, 85.0)]);
        let cycling = analyzer.from_trace(&swings).expect("trace");
        let bits = [
            steady.worst_mttf_hours(),
            steady.system_mttf_hours(),
            cycling.worst_mttf_hours(),
            cycling.system_mttf_hours(),
        ]
        .map(f64::to_bits);
        assert_eq!(
            bits,
            [
                0x40aa_40e3_c712_d454,
                0x408a_40e3_c712_d454,
                0x409c_2590_e653_4592,
                0x4082_c3b5_eee2_2e62,
            ]
        );
    }
}

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

        /// MTTF is monotone non-increasing in temperature for every standard
        /// mechanism.
        #[test]
        fn mechanisms_monotone(t in 30.0f64..110.0, dt in 0.0f64..40.0) {
            for mechanism in MECHANISMS {
                let cool = mechanism.mttf_hours(t).expect("valid");
                let hot = mechanism.mttf_hours(t + dt).expect("valid");
                prop_assert!(hot <= cool + 1e-9);
            }
        }

        /// Coffin-Manson cycles-to-failure is monotone non-increasing in the
        /// swing amplitude.
        #[test]
        fn coffin_manson_monotone(delta in 1.0f64..80.0, extra in 0.0f64..40.0) {
            let model = CoffinManson::standard();
            prop_assert!(model.cycles_to_failure(delta + extra) <= model.cycles_to_failure(delta) + 1e-9);
        }

        /// Cycle extraction conserves weight: a series of n alternating
        /// extremes yields total cycle weight (n-1)/2.
        #[test]
        fn cycle_weight_matches_extreme_count(n in 2usize..20, low in 30.0f64..50.0, high in 60.0f64..90.0) {
            let series: Vec<f64> = (0..n).map(|i| if i % 2 == 0 { low } else { high }).collect();
            let cycles = count_cycles(&series).expect("enough samples");
            let weight: f64 = cycles.iter().map(|c| c.weight).sum();
            prop_assert!((weight - (n as f64 - 1.0) / 2.0).abs() < 1e-9);
        }

        /// The series-system MTTF never exceeds the weakest PE's MTTF.
        #[test]
        fn system_below_worst(temp in 40.0f64..110.0, pes in 1usize..8) {
            let analyzer = ReliabilityAnalyzer::new();
            let system = analyzer
                .from_steady_temperatures(&tats_thermal::Temperatures::uniform(pes, temp))
                .expect("system");
            prop_assert!(system.system_mttf_hours() <= system.worst_mttf_hours() + 1e-9);
        }
    }
}
