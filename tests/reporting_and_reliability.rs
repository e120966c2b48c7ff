//! Integration tests for the reporting (`tats-trace`) and reliability
//! (`tats-reliability`) crates driven by real scheduling results.

use tats_core::{PlatformFlow, Policy, PowerHeuristic};
use tats_power::simulate_schedule;
use tats_reliability::ReliabilityAnalyzer;
use tats_taskgraph::Benchmark;
use tats_techlib::profiles;
use tats_thermal::{ThermalConfig, ThermalModel};
use tats_trace::{csv, json, GanttChart};

#[test]
fn every_benchmark_schedule_renders_and_exports() {
    let library = profiles::standard_library(12).expect("library");
    let flow = PlatformFlow::new(&library).expect("flow");
    for benchmark in Benchmark::ALL {
        let graph = benchmark.task_graph().expect("graph");
        let result = flow.run(&graph, Policy::ThermalAware).expect("schedule");

        let chart = GanttChart::new()
            .render(&result.schedule, Some(&graph))
            .expect("gantt");
        assert_eq!(
            chart.lines().filter(|line| line.starts_with("PE")).count(),
            result.schedule.pe_count()
        );

        let table = csv::schedule_to_csv(&result.schedule, Some(&graph)).expect("csv");
        assert_eq!(
            table.trim_end().lines().count(),
            result.schedule.task_count() + 1
        );

        let json_text = json::schedule_to_json(&result.schedule, Some(&graph)).to_json();
        assert!(json_text.contains("\"makespan\""));
        assert_eq!(
            json_text.matches("\"task\":").count(),
            result.schedule.task_count()
        );
    }
}

#[test]
fn thermal_aware_mapping_extends_the_worst_pe_lifetime() {
    let library = profiles::standard_library(12).expect("library");
    let flow = PlatformFlow::new(&library).expect("flow");
    let analyzer = ReliabilityAnalyzer::new();

    for benchmark in Benchmark::ALL {
        let graph = benchmark.task_graph().expect("graph");
        let mut steady_worst_mttf = Vec::new();
        for policy in [
            Policy::PowerAware(PowerHeuristic::MinTaskEnergy),
            Policy::ThermalAware,
        ] {
            let result = flow.run(&graph, policy).expect("schedule");

            // Steady-state lifetime from the paper's evaluation temperatures:
            // the worst-PE MTTF is a monotone function of the hottest block,
            // which the thermal-aware policy explicitly targets.
            let steady = analyzer
                .from_steady_temperatures(&result.evaluation.temperatures)
                .expect("steady reliability");
            steady_worst_mttf.push(steady.worst_mttf_hours());

            // Transient lifetime must always be computable and sane.
            let model =
                ThermalModel::new(&result.floorplan, ThermalConfig::default()).expect("model");
            let trace = simulate_schedule(&result.schedule, &result.architecture, &library, &model)
                .expect("trace");
            let transient = analyzer.from_trace(&trace).expect("transient reliability");
            assert!(transient.system_mttf_hours().is_finite());
            assert!(transient.system_mttf_hours() > 0.0);
            assert!(transient.worst_mttf_hours() >= transient.system_mttf_hours());
        }
        // Mirrors the Table 3 shape check (thermal max temp <= power-aware
        // max temp + 0.5 C); 0.5 C translates into a few percent of MTTF.
        assert!(
            steady_worst_mttf[1] >= steady_worst_mttf[0] * 0.90,
            "{benchmark:?}: thermal-aware worst-PE MTTF {:.0} h fell below power-aware {:.0} h",
            steady_worst_mttf[1],
            steady_worst_mttf[0]
        );
    }
}
