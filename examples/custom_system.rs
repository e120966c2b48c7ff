//! Build everything by hand instead of using the paper's benchmarks: a custom
//! task graph (an MPEG-like decoder pipeline), a custom technology library, a
//! custom architecture, and a thermal-aware floorplan for it.
//!
//! ```bash
//! cargo run --release --example custom_system
//! ```

use tats_core::{evaluate_schedule, Asp, Policy};
use tats_floorplan::{CostWeights, Engine, Floorplanner, GaConfig, Module, Net};
use tats_taskgraph::{TaskGraphBuilder, TaskKind};
use tats_techlib::{Architecture, PeClass, TechLibraryBuilder};
use tats_thermal::{ThermalConfig, ThermalModel};

use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Task graph: a small decoder pipeline with a 900-unit deadline. ---
    let mut builder = TaskGraphBuilder::new("decoder", 900.0);
    let parse = builder.add_task("parse", TaskKind::Control, 0);
    let vld = builder.add_task("vld", TaskKind::Compute, 1);
    let iq_a = builder.add_task("iq_luma", TaskKind::Dsp, 2);
    let iq_b = builder.add_task("iq_chroma", TaskKind::Dsp, 2);
    let idct_a = builder.add_task("idct_luma", TaskKind::Dsp, 3);
    let idct_b = builder.add_task("idct_chroma", TaskKind::Dsp, 3);
    let mc = builder.add_task("motion_comp", TaskKind::Memory, 4);
    let blend = builder.add_task("blend", TaskKind::Compute, 5);
    let out = builder.add_task("writeback", TaskKind::Memory, 6);
    for (src, dst, bytes) in [
        (parse, vld, 16.0),
        (vld, iq_a, 64.0),
        (vld, iq_b, 32.0),
        (iq_a, idct_a, 64.0),
        (iq_b, idct_b, 32.0),
        (parse, mc, 8.0),
        (idct_a, blend, 64.0),
        (idct_b, blend, 32.0),
        (mc, blend, 64.0),
        (blend, out, 96.0),
    ] {
        builder.add_edge(src, dst, bytes)?;
    }
    let graph = builder.build()?;
    println!("task graph: {graph}");

    // --- Technology library: a RISC core, a DSP and a motion accelerator. ---
    // Columns are per task type (7 types used above).
    let mut lib = TechLibraryBuilder::new(7);
    let risc = lib.add_pe_type(
        "risc",
        PeClass::GppFast,
        6.5,
        6.5,
        50.0,
        0.3,
        vec![60.0, 90.0, 120.0, 140.0, 110.0, 100.0, 70.0],
        vec![3.8, 4.2, 4.6, 4.9, 4.4, 4.3, 3.9],
    )?;
    let dsp = lib.add_pe_type(
        "dsp",
        PeClass::Dsp,
        5.0,
        6.0,
        42.0,
        0.2,
        vec![110.0, 95.0, 55.0, 60.0, 120.0, 90.0, 100.0],
        vec![2.6, 2.4, 2.2, 2.3, 2.8, 2.5, 2.6],
    )?;
    let accel = lib.add_pe_type(
        "motion-accel",
        PeClass::Accelerator,
        4.0,
        4.0,
        55.0,
        0.1,
        vec![200.0, 220.0, 180.0, 190.0, 40.0, 150.0, 160.0],
        vec![1.8, 1.9, 1.7, 1.8, 1.2, 1.6, 1.7],
    )?;
    let library = lib.build()?;
    println!("library   : {library}");

    // --- Architecture: one of each. ---
    let mut architecture = Architecture::new("custom-soc");
    architecture.add_instance(risc);
    architecture.add_instance(dsp);
    architecture.add_instance(accel);

    // --- Thermal-aware floorplan for the three PEs. ---
    let modules = vec![
        Module::from_mm("risc", 6.5, 6.5, 4.2),
        Module::from_mm("dsp", 5.0, 6.0, 2.5),
        Module::from_mm("motion-accel", 4.0, 4.0, 1.4),
    ];
    let nets = vec![
        Net::new(vec![0, 1]),
        Net::new(vec![0, 2]),
        Net::new(vec![1, 2]),
    ];
    let solution = Floorplanner::new(modules)
        .with_nets(nets)
        .with_weights(CostWeights::thermal_aware())
        .with_engine(Engine::Genetic(GaConfig {
            population: 16,
            generations: 25,
            ..GaConfig::default()
        }))
        .run()?;
    println!(
        "floorplan : {} (peak {:.2} C for the estimated powers, {} placements evaluated)",
        solution.floorplan, solution.cost.peak_temperature_c, solution.evaluations
    );

    // --- Schedule with the baseline and the thermal-aware ASP and compare. ---
    let model = Arc::new(ThermalModel::new(
        &solution.floorplan,
        ThermalConfig::default(),
    )?);
    for policy in [Policy::Baseline, Policy::ThermalAware] {
        let schedule = Asp::new(&graph, &library, &architecture)?
            .with_policy(policy)
            .with_thermal_model(Arc::clone(&model))
            .schedule()?;
        schedule.validate(&graph, &architecture, &library)?;
        let eval = evaluate_schedule(&schedule, &model)?;
        println!("\n{policy}:");
        println!("  {eval}");
        for task in graph.task_ids() {
            let a = schedule.assignment(task)?;
            let pe_name = library
                .pe_type(architecture.pe_type_of(a.pe)?)?
                .name()
                .to_string();
            println!(
                "  {:<14} -> {:<12} [{:>6.1}, {:>6.1})",
                graph.task(task).name(),
                pe_name,
                a.start,
                a.end
            );
        }
    }
    Ok(())
}
