//! Integration tests spanning the scheduling core and the power/DVS
//! extension crates.
//!
//! These tests exercise whole pipelines (schedule → power profile →
//! transient thermal replay → DVS) rather than single modules; the
//! per-module behaviour is covered by the unit tests inside each crate.

use tats_core::{PlatformFlow, Policy, PowerHeuristic};
use tats_power::{DvfsTable, PowerProfile, ScheduleSimulator, SlackReclaimer};
use tats_taskgraph::Benchmark;
use tats_techlib::profiles;
use tats_thermal::{ThermalConfig, ThermalModel};

fn platform_result(benchmark: Benchmark, policy: Policy) -> tats_core::PlatformResult {
    let library = profiles::standard_library(12).expect("library");
    PlatformFlow::new(&library)
        .expect("flow")
        .run(&benchmark.task_graph().expect("graph"), policy)
        .expect("schedule")
}

#[test]
fn power_profile_energy_matches_schedule_energy_plus_idle() {
    let library = profiles::standard_library(12).expect("library");
    for benchmark in Benchmark::ALL {
        let result = platform_result(benchmark, Policy::Baseline);
        let profile = PowerProfile::from_schedule(&result.schedule, &result.architecture, &library)
            .expect("profile");
        let busy_energy: f64 = result
            .schedule
            .assignments()
            .iter()
            .map(|a| a.energy())
            .sum();
        // The profile charges every PE its idle power for the whole makespan
        // and adds the task power on top while busy.
        let mut idle_energy = 0.0;
        for instance in result.architecture.instances() {
            let idle = library
                .pe_type(instance.type_id())
                .expect("pe type")
                .idle_power();
            idle_energy += idle * result.schedule.makespan();
        }
        let expected = busy_energy + idle_energy;
        assert!(
            (profile.energy() - expected).abs() < 1e-6 * expected.max(1.0),
            "{benchmark:?}: profile energy {} != busy {} + idle {}",
            profile.energy(),
            busy_energy,
            idle_energy
        );
    }
}

#[test]
fn transient_peak_is_bounded_by_worst_case_steady_state() {
    let library = profiles::standard_library(12).expect("library");
    let result = platform_result(Benchmark::Bm2, Policy::ThermalAware);
    let model = ThermalModel::new(&result.floorplan, ThermalConfig::default()).expect("model");
    let profile = PowerProfile::from_schedule(&result.schedule, &result.architecture, &library)
        .expect("profile");
    let trace = ScheduleSimulator::new(&model)
        .simulate(&profile)
        .expect("trace");

    let mut worst_case = vec![0.0; profile.pe_count()];
    for segment in profile.segments() {
        for (bound, power) in worst_case.iter_mut().zip(&segment.pe_power) {
            *bound = f64::max(*bound, *power);
        }
    }
    let bound = model
        .steady_state(&worst_case)
        .expect("steady state")
        .max_c();
    let ambient = model.config().ambient_c;
    assert!(trace.peak_c() > ambient, "the schedule must heat the die");
    assert!(
        trace.peak_c() <= bound + 1e-6,
        "transient peak {} exceeds worst-case steady bound {}",
        trace.peak_c(),
        bound
    );
}

#[test]
fn dvs_reclamation_preserves_deadlines_across_benchmarks_and_policies() {
    let reclaimer = SlackReclaimer::new(DvfsTable::standard());
    for benchmark in Benchmark::ALL {
        for policy in [
            Policy::Baseline,
            Policy::PowerAware(PowerHeuristic::MinTaskEnergy),
            Policy::ThermalAware,
        ] {
            let result = platform_result(benchmark, policy);
            if !result.schedule.meets_deadline() {
                continue;
            }
            let scaled = reclaimer.reclaim(&result.schedule).expect("reclaim");
            assert!(
                scaled.meets_deadline(),
                "{benchmark:?}/{policy:?}: reclaimed schedule misses its deadline"
            );
            assert!(
                scaled.energy() <= scaled.nominal_energy() + 1e-9,
                "{benchmark:?}/{policy:?}: reclamation increased energy"
            );
        }
    }
}

#[test]
fn dvs_on_thermal_schedule_lowers_steady_temperature() {
    let result = platform_result(Benchmark::Bm1, Policy::ThermalAware);
    let model = ThermalModel::new(&result.floorplan, ThermalConfig::default()).expect("model");

    let nominal_power = result.schedule.sustained_power_per_pe();
    let nominal_temp = model.steady_state(&nominal_power).expect("steady").max_c();

    let scaled = SlackReclaimer::new(DvfsTable::standard())
        .reclaim(&result.schedule)
        .expect("reclaim");
    let scaled_power = scaled.sustained_power_per_pe(result.schedule.pe_count());
    let scaled_temp = model.steady_state(&scaled_power).expect("steady").max_c();

    // Either slack existed and the temperature dropped, or there was no
    // usable slack and the nominal point was kept.
    if scaled.operating_point().is_nominal() {
        assert!((scaled_temp - nominal_temp).abs() < 1e-9);
    } else {
        assert!(scaled_temp < nominal_temp);
    }
}
