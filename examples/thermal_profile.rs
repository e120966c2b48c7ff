//! Thermal deep-dive on one schedule: steady-state block temperatures, the
//! grid-refined temperature map, and the transient response over the schedule
//! period.
//!
//! ```bash
//! cargo run --release --example thermal_profile
//! ```

use tats_core::{layout, Asp, Policy};
use tats_taskgraph::Benchmark;
use tats_techlib::{profiles, PeId};
use tats_thermal::{
    GridModel, PowerPhase, Temperatures, ThermalConfig, ThermalModel, TransientSolver,
};

use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let library = profiles::standard_library(10)?;
    let platform = profiles::platform_architecture(&library)?;
    let floorplan = layout::grid_floorplan(&platform, &library)?;
    let graph = Benchmark::Bm2.task_graph()?;

    let config = ThermalConfig::default();
    let model = Arc::new(ThermalModel::new(&floorplan, config)?);

    let schedule = Asp::new(&graph, &library, &platform)?
        .with_policy(Policy::ThermalAware)
        .with_thermal_model(Arc::clone(&model))
        .schedule()?;
    println!("schedule: {schedule}");

    // Steady-state block temperatures from the compact model.
    let sustained = schedule.sustained_power_per_pe();
    let steady = model.steady_state(&sustained)?;
    println!("\nsteady state (block compact model):");
    for (i, block) in floorplan.blocks().iter().enumerate() {
        println!(
            "  {:<12} {:>5.2} W -> {:>6.2} C",
            block.name(),
            sustained[i],
            steady.block(i)?
        );
    }
    println!(
        "  max {:.2} C, avg {:.2} C, spread {:.2} C",
        steady.max_c(),
        steady.average_c(),
        steady.spread_c()
    );

    // Grid-refined temperature map (ASCII heat map, hottest = '#').
    let grid = GridModel::new(&floorplan, config, 28, 28)?;
    let grid_temps = grid.steady_state(&sustained)?;
    let (nx, ny) = grid_temps.resolution();
    let (min_t, max_t) = grid_temps
        .cells()
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &t| {
            (lo.min(t), hi.max(t))
        });
    println!("\ngrid model {nx}x{ny} ({min_t:.1} C .. {max_t:.1} C):");
    let shades = [' ', '.', ':', '-', '=', '+', '*', '%', '#'];
    for iy in (0..ny).rev() {
        let mut line = String::from("  ");
        for ix in 0..nx {
            let t = grid_temps.cell(ix, iy)?;
            let level = if max_t > min_t {
                (((t - min_t) / (max_t - min_t)) * (shades.len() - 1) as f64).round() as usize
            } else {
                0
            };
            line.push(shades[level]);
        }
        println!("{line}");
    }

    // Transient response: per-PE power trace derived from the schedule,
    // sampled at a handful of checkpoints across the period.
    println!("\ntransient response (backward Euler):");
    let solver = TransientSolver::new(&model).with_step(0.05);
    let mut state = Temperatures::uniform(floorplan.block_count(), config.ambient_c);
    let makespan = schedule.makespan();
    let checkpoints = 8usize;
    for step in 1..=checkpoints {
        let until = makespan * step as f64 / checkpoints as f64;
        let from = makespan * (step - 1) as f64 / checkpoints as f64;
        // Average per-PE power over this window.
        let mut window_energy = vec![0.0; platform.pe_count()];
        for a in schedule.assignments() {
            let overlap = (a.end.min(until) - a.start.max(from)).max(0.0);
            window_energy[a.pe.index()] += overlap * a.power;
        }
        let window_power: Vec<f64> = window_energy.iter().map(|e| e / (until - from)).collect();
        state = solver.run(&state, &[PowerPhase::new(until - from, window_power)])?;
        println!(
            "  t = {until:>7.1}: max {:>6.2} C, avg {:>6.2} C",
            state.max_c(),
            state.average_c()
        );
    }

    // Which PE ends up hottest, and how busy is it?
    let hottest = steady.hottest_block();
    println!(
        "\nhottest PE is {} with {} assignments and {:.1} busy time units",
        floorplan.block(hottest)?.name(),
        schedule.assignments_on(PeId(hottest)).count(),
        schedule.busy_time(PeId(hottest))
    );
    Ok(())
}
