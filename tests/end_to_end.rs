//! Cross-crate integration tests: the full pipeline from task-graph
//! generation through the technology library, the ASP, floorplanning and the
//! thermal model, exercised the way the examples and the benchmark harness
//! use it.

use tats_core::{
    evaluate_schedule, layout, Asp, CoSynthesis, PlatformFlow, Policy, PowerHeuristic,
};
use tats_floorplan::{CostWeights, Engine, Floorplanner, GaConfig};
use tats_taskgraph::{Benchmark, GeneratorConfig};
use tats_techlib::{profiles, PeId};
use tats_thermal::{GridModel, ThermalConfig, ThermalModel};

use std::sync::Arc;

#[test]
fn platform_flow_end_to_end_on_all_benchmarks() {
    let library = profiles::standard_library(10).unwrap();
    let flow = PlatformFlow::new(&library).unwrap();
    for bm in Benchmark::ALL {
        let graph = bm.task_graph().unwrap();
        for policy in Policy::ALL {
            let result = flow.run(&graph, policy).unwrap();
            result
                .schedule
                .validate(&graph, &result.architecture, &library)
                .unwrap();
            assert!(result.evaluation.meets_deadline, "{bm} / {policy}");
            assert!(result.evaluation.max_temperature_c > result.evaluation.avg_temperature_c);
            assert!(result.evaluation.avg_temperature_c > ThermalConfig::default().ambient_c);
            assert_eq!(result.evaluation.per_pe_power.len(), 4);
        }
    }
}

#[test]
fn cosynthesis_flow_end_to_end_on_the_smallest_benchmark() {
    let library = profiles::standard_library(10).unwrap();
    let cosynthesis = CoSynthesis::new(&library).with_floorplan_ga(GaConfig {
        population: 8,
        generations: 5,
        ..GaConfig::default()
    });
    let graph = Benchmark::Bm1.task_graph().unwrap();
    for policy in [
        Policy::Baseline,
        Policy::PowerAware(PowerHeuristic::MinTaskEnergy),
        Policy::ThermalAware,
    ] {
        let result = cosynthesis.run(&graph, policy).unwrap();
        assert!(result.evaluation.meets_deadline, "{policy}");
        assert!(result.architecture.pe_count() >= 2, "{policy}");
        assert_eq!(
            result.floorplan.block_count(),
            result.architecture.pe_count()
        );
        result
            .schedule
            .validate(&graph, &result.architecture, &library)
            .unwrap();
        // The co-synthesis architecture must be cheaper to run (in total
        // sustained power) than the 4-fast-GPP platform on the same workload.
        let platform = PlatformFlow::new(&library)
            .unwrap()
            .run(&graph, policy)
            .unwrap();
        assert!(
            result.evaluation.total_average_power < platform.evaluation.total_average_power,
            "{policy}: co-synthesis should not burn more power than the platform"
        );
    }
}

#[test]
fn scheduler_output_feeds_the_grid_thermal_model() {
    // Block-level and grid-level thermal models must agree on which PE is the
    // hottest when driven by the same schedule.
    let library = profiles::standard_library(10).unwrap();
    let platform = profiles::platform_architecture(&library).unwrap();
    let plan = layout::grid_floorplan(&platform, &library).unwrap();
    let graph = Benchmark::Bm1.task_graph().unwrap();
    let schedule = Asp::new(&graph, &library, &platform)
        .unwrap()
        .with_policy(Policy::Baseline)
        .schedule()
        .unwrap();
    let power = schedule.sustained_power_per_pe();

    let block_model = ThermalModel::new(&plan, ThermalConfig::default()).unwrap();
    let block_temps = block_model.steady_state(&power).unwrap();
    let grid = GridModel::new(&plan, ThermalConfig::default(), 24, 24).unwrap();
    let grid_temps = grid.steady_state(&power).unwrap();
    let (grid_average, _) = grid.block_average_and_max_c(&grid_temps).unwrap();

    let block_hottest = block_temps.hottest_block();
    let grid_hottest = grid_average
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap();
    assert_eq!(block_hottest, grid_hottest);
    assert_eq!(grid_average.len(), 4);
    for (i, (block, grid)) in block_temps.blocks().iter().zip(&grid_average).enumerate() {
        let diff = (block - grid).abs();
        assert!(diff < 12.0, "block {i} differs by {diff} C between models");
    }
}

#[test]
fn floorplanner_feeds_the_scheduler_for_arbitrary_architectures() {
    // Architecture -> floorplanner modules -> GA floorplan -> thermal-aware
    // ASP -> evaluation, with a custom-generated workload.
    let library = profiles::standard_library(8).unwrap();
    let graph = GeneratorConfig::new("synthetic", 24, 30, 4_000.0)
        .with_seed(99)
        .with_type_count(8)
        .generate()
        .unwrap();
    let mut architecture = tats_techlib::Architecture::new("mixed");
    for pe_type in library.pe_types().iter().take(4) {
        architecture.add_instance(pe_type.id());
    }

    // Rough per-PE power estimate from a baseline schedule.
    let baseline = Asp::new(&graph, &library, &architecture)
        .unwrap()
        .schedule()
        .unwrap();
    let modules =
        layout::pe_modules(&architecture, &library, &baseline.sustained_power_per_pe()).unwrap();
    let solution = Floorplanner::new(modules)
        .with_weights(CostWeights::thermal_aware())
        .with_engine(Engine::Genetic(GaConfig {
            population: 10,
            generations: 8,
            ..GaConfig::default()
        }))
        .run()
        .unwrap();

    let model = Arc::new(ThermalModel::new(&solution.floorplan, ThermalConfig::default()).unwrap());
    let schedule = Asp::new(&graph, &library, &architecture)
        .unwrap()
        .with_policy(Policy::ThermalAware)
        .with_thermal_model(Arc::clone(&model))
        .schedule()
        .unwrap();
    schedule.validate(&graph, &architecture, &library).unwrap();
    let eval = evaluate_schedule(&schedule, &model).unwrap();
    assert!(eval.meets_deadline);
    assert!(eval.max_temperature_c < 150.0);
}

#[test]
fn thermal_aware_platform_spreads_load_at_least_as_well_as_the_baseline() {
    // The busiest-PE energy share under the thermal-aware policy must not
    // exceed the baseline's by more than a small tolerance on any benchmark.
    let library = profiles::standard_library(10).unwrap();
    let platform = profiles::platform_architecture(&library).unwrap();
    for bm in Benchmark::ALL {
        let graph = bm.task_graph().unwrap();
        let share = |policy: Policy| {
            let s = Asp::new(&graph, &library, &platform)
                .unwrap()
                .with_policy(policy)
                .schedule()
                .unwrap();
            let energies: Vec<f64> = (0..4).map(|i| s.busy_energy(PeId(i))).collect();
            let total: f64 = energies.iter().sum();
            energies.iter().cloned().fold(0.0_f64, f64::max) / total
        };
        let baseline = share(Policy::Baseline);
        let thermal = share(Policy::ThermalAware);
        assert!(
            thermal <= baseline + 0.05,
            "{bm}: thermal-aware share {thermal:.3} vs baseline {baseline:.3}"
        );
    }
}

#[test]
fn umbrella_crate_reexports_are_usable() {
    // The root `tats` crate re-exports every sub-crate under stable names.
    let graph = tats::taskgraph::Benchmark::Bm1.task_graph().unwrap();
    let library = tats::techlib::profiles::standard_library(10).unwrap();
    let platform = tats::techlib::profiles::platform_architecture(&library).unwrap();
    let schedule = tats::core::Asp::new(&graph, &library, &platform)
        .unwrap()
        .schedule()
        .unwrap();
    assert!(schedule.meets_deadline());
    let plan = tats::core::layout::grid_floorplan(&platform, &library).unwrap();
    let model =
        tats::thermal::ThermalModel::new(&plan, tats::thermal::ThermalConfig::default()).unwrap();
    let temps = model
        .steady_state(&schedule.sustained_power_per_pe())
        .unwrap();
    assert!(temps.max_c() > 45.0);
}
