//! Lifetime impact of thermal-aware scheduling.
//!
//! The paper's introduction argues that temperature matters because it
//! accelerates wear-out (electromigration, stress migration).  This example
//! closes that loop: it schedules every benchmark with the best power-aware
//! heuristic and with the thermal-aware policy, replays both schedules
//! through the transient thermal model, and converts the resulting
//! temperature traces into mean-time-to-failure estimates.
//!
//! ```bash
//! cargo run --release --example reliability_comparison
//! ```

use tats_core::{PlatformFlow, Policy, PowerHeuristic};
use tats_power::{simulate_schedule, ReliabilityAnalyzer};
use tats_taskgraph::Benchmark;
use tats_techlib::profiles;
use tats_thermal::{ThermalConfig, ThermalModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let library = profiles::standard_library(12)?;
    let flow = PlatformFlow::new(&library)?;
    let analyzer = ReliabilityAnalyzer::new();

    println!("benchmark | policy        | peak temp | worst-PE MTTF | system MTTF");
    println!("----------+---------------+-----------+---------------+------------");

    for benchmark in Benchmark::ALL {
        let graph = benchmark.task_graph()?;
        for policy in [
            Policy::PowerAware(PowerHeuristic::MinTaskEnergy),
            Policy::ThermalAware,
        ] {
            let result = flow.run(&graph, policy)?;
            let model = ThermalModel::new(&result.floorplan, ThermalConfig::default())?;
            let trace =
                simulate_schedule(&result.schedule, &result.architecture, &library, &model)?;
            let system = analyzer.from_trace(&trace)?;
            println!(
                "{:<9} | {:<13} | {:6.2} C | {:10.0} h | {:9.0} h",
                benchmark.name(),
                policy.label(),
                trace.peak_c(),
                system.worst_mttf_hours(),
                system.system_mttf_hours(),
            );
        }
    }
    println!(
        "\nA lower peak temperature translates directly into longer lifetimes via the\n\
         Arrhenius mechanisms; the thermal-aware rows should dominate the power-aware rows."
    );
    Ok(())
}
