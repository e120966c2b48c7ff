//! Workspace-level property tests spanning several crates.

use proptest::prelude::*;
use tats_core::{evaluate_schedule, layout, Asp, Policy};
use tats_taskgraph::GeneratorConfig;
use tats_techlib::{profiles, Architecture, LibraryGenerator, PeId};
use tats_thermal::{ThermalConfig, ThermalModel};

use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// End-to-end pipeline property: for arbitrary workloads, libraries and
    /// architectures, scheduling plus thermal evaluation succeeds, the
    /// schedule passes validation, and the evaluation is physically sane
    /// (temperatures above ambient, max >= avg, energy bookkeeping
    /// consistent).
    #[test]
    fn pipeline_is_total_and_physical(
        tasks in 4usize..30,
        extra_edges in 0usize..20,
        graph_seed in any::<u64>(),
        lib_seed in any::<u64>(),
        pe_count in 2usize..5,
        policy_index in 0usize..Policy::ALL.len(),
    ) {
        let max_edges = tasks * (tasks - 1) / 2;
        let edges = (tasks - 1 + extra_edges).min(max_edges);
        let graph = GeneratorConfig::new("prop", tasks, edges, 1e9)
            .with_seed(graph_seed)
            .with_type_count(6)
            .generate()
            .unwrap();
        let library = LibraryGenerator::new(6).with_seed(lib_seed).generate().unwrap();
        let mut architecture = Architecture::new("prop");
        for i in 0..pe_count {
            let pe_type = library.pe_types()[i % library.pe_type_count()].id();
            architecture.add_instance(pe_type);
        }
        let floorplan = layout::grid_floorplan(&architecture, &library).unwrap();
        let model = Arc::new(ThermalModel::new(&floorplan, ThermalConfig::default()).unwrap());

        let schedule = Asp::new(&graph, &library, &architecture)
            .unwrap()
            .with_policy(Policy::ALL[policy_index])
            .with_thermal_model(Arc::clone(&model))
            .schedule()
            .unwrap();
        prop_assert!(schedule.validate(&graph, &architecture, &library).is_ok());

        let eval = evaluate_schedule(&schedule, &model).unwrap();
        prop_assert!(eval.max_temperature_c + 1e-9 >= eval.avg_temperature_c);
        prop_assert!(eval.avg_temperature_c >= ThermalConfig::default().ambient_c - 1e-9);
        prop_assert!(eval.total_average_power >= 0.0);
        prop_assert!(eval.makespan > 0.0);

        // Energy accounting: the sum of assignment energies equals the sum of
        // per-PE busy energies.
        let total_assignment_energy: f64 =
            schedule.assignments().iter().map(|a| a.energy()).sum();
        let total_busy_energy: f64 = (0..architecture.pe_count())
            .map(|i| schedule.busy_energy(PeId(i)))
            .sum();
        prop_assert!((total_assignment_energy - total_busy_energy).abs() < 1e-6);
    }

    /// The baseline schedule's makespan never exceeds the serial execution of
    /// all tasks on the single fastest PE (a trivially valid schedule), and
    /// never beats the critical-path lower bound computed with the fastest
    /// per-task WCETs.
    #[test]
    fn baseline_makespan_is_bounded(
        tasks in 4usize..25,
        extra_edges in 0usize..15,
        graph_seed in any::<u64>(),
    ) {
        let max_edges = tasks * (tasks - 1) / 2;
        let edges = (tasks - 1 + extra_edges).min(max_edges);
        let graph = GeneratorConfig::new("prop", tasks, edges, 1e9)
            .with_seed(graph_seed)
            .with_type_count(10)
            .generate()
            .unwrap();
        let library = profiles::standard_library(10).unwrap();
        let platform = profiles::platform_architecture(&library).unwrap();
        let schedule = Asp::new(&graph, &library, &platform)
            .unwrap()
            .schedule()
            .unwrap();

        let pe_type = platform.instances()[0].type_id();
        let serial: f64 = graph
            .tasks()
            .map(|t| library.wcet(t.type_id(), pe_type).unwrap())
            .sum();
        prop_assert!(schedule.makespan() <= serial + 1e-6);

        // Critical-path lower bound with the fastest WCET per task.
        let fastest: Vec<f64> = graph
            .tasks()
            .map(|t| {
                (0..library.pe_type_count())
                    .map(|p| library.wcet(t.type_id(), tats_techlib::PeTypeId(p)).unwrap())
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let critical_path = tats_taskgraph::analysis::static_criticalities(&graph, &fastest)
            .unwrap()
            .into_iter()
            .fold(0.0, f64::max);
        prop_assert!(schedule.makespan() + 1e-6 >= critical_path);
    }
}
