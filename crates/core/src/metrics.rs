//! Post-hoc evaluation of schedules: the metrics reported in the paper's
//! tables.
//!
//! Regardless of which policy produced a schedule, the paper evaluates every
//! approach with the same three metrics per benchmark: total power, maximal
//! temperature and average temperature. This module computes them by handing
//! the schedule's per-PE *sustained* power (the energy a PE consumes divided
//! by the time it is busy) to the compact thermal model of the architecture's
//! floorplan. Sustained power is the thermal load a PE dissipates while
//! running; normalising by busy time rather than by the makespan keeps the
//! comparison between scheduling policies fair (a policy cannot look cooler
//! merely by producing a longer schedule).

use std::fmt;

use tats_thermal::{Temperatures, ThermalModel};

use crate::error::CoreError;
use crate::schedule::Schedule;

/// The table metrics of one scheduled benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleEvaluation {
    /// Sum of per-PE sustained powers — "Total Pow.".
    pub total_average_power: f64,
    /// Peak steady-state block temperature — "Max Temp.", °C.
    pub max_temperature_c: f64,
    /// Mean steady-state block temperature — "Avg Temp.", °C.
    pub avg_temperature_c: f64,
    /// Schedule makespan in time units.
    pub makespan: f64,
    /// Whether the makespan meets the task graph deadline.
    pub meets_deadline: bool,
    /// Per-PE sustained power (energy over busy time), watts.
    pub per_pe_power: Vec<f64>,
    /// Full temperature field, for finer inspection.
    pub temperatures: Temperatures,
}

impl fmt::Display for ScheduleEvaluation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "total {:.2} W, max {:.2} C, avg {:.2} C (makespan {:.1}, deadline {})",
            self.total_average_power,
            self.max_temperature_c,
            self.avg_temperature_c,
            self.makespan,
            if self.meets_deadline { "met" } else { "MISSED" }
        )
    }
}

/// Evaluates a schedule against the thermal model of its floorplan (one
/// block per PE, in PE-id order). The flows source the model from a
/// [`crate::ThermalModelCache`], so a scenario's scheduling and evaluation
/// share one factorisation.
///
/// # Errors
///
/// Returns [`CoreError::FloorplanMismatch`] if the model's block count
/// differs from the schedule's PE count and propagates thermal solve errors.
pub fn evaluate_schedule(
    schedule: &Schedule,
    model: &ThermalModel,
) -> Result<ScheduleEvaluation, CoreError> {
    if model.block_count() != schedule.pe_count() {
        return Err(CoreError::FloorplanMismatch {
            pes: schedule.pe_count(),
            blocks: model.block_count(),
        });
    }
    let per_pe_power = schedule.sustained_power_per_pe();
    let temperatures = model.steady_state(&per_pe_power)?;
    Ok(ScheduleEvaluation {
        total_average_power: per_pe_power.iter().sum(),
        max_temperature_c: temperatures.max_c(),
        avg_temperature_c: temperatures.average_c(),
        makespan: schedule.makespan(),
        meets_deadline: schedule.meets_deadline(),
        per_pe_power,
        temperatures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asp::Asp;
    use crate::layout;
    use crate::policy::Policy;
    use tats_taskgraph::Benchmark;
    use tats_techlib::profiles;
    use tats_thermal::ThermalConfig;

    #[test]
    fn evaluation_reports_consistent_metrics() {
        let library = profiles::standard_library(10).unwrap();
        let platform = profiles::platform_architecture(&library).unwrap();
        let graph = Benchmark::Bm1.task_graph().unwrap();
        let schedule = Asp::new(&graph, &library, &platform)
            .unwrap()
            .with_policy(Policy::Baseline)
            .schedule()
            .unwrap();
        let plan = layout::grid_floorplan(&platform, &library).unwrap();
        let model = ThermalModel::new(&plan, ThermalConfig::default()).unwrap();
        let eval = evaluate_schedule(&schedule, &model).unwrap();
        assert!(eval.total_average_power > 0.0);
        assert!(eval.max_temperature_c >= eval.avg_temperature_c);
        assert!(eval.avg_temperature_c > 45.0);
        assert!(eval.meets_deadline);
        assert_eq!(eval.per_pe_power.len(), 4);
        assert!((eval.per_pe_power.iter().sum::<f64>() - eval.total_average_power).abs() < 1e-9);
        assert_eq!(eval.makespan, schedule.makespan());
        assert!(eval.to_string().contains("met"));
    }

    #[test]
    fn mismatched_floorplan_is_rejected() {
        let library = profiles::standard_library(10).unwrap();
        let platform = profiles::platform_architecture(&library).unwrap();
        let graph = Benchmark::Bm1.task_graph().unwrap();
        let schedule = Asp::new(&graph, &library, &platform)
            .unwrap()
            .schedule()
            .unwrap();
        let plan = tats_thermal::Floorplan::new(vec![tats_thermal::Block::from_mm(
            "only", 0.0, 0.0, 7.0, 7.0,
        )])
        .unwrap();
        let model = ThermalModel::new(&plan, ThermalConfig::default()).unwrap();
        assert!(matches!(
            evaluate_schedule(&schedule, &model),
            Err(CoreError::FloorplanMismatch { .. })
        ));
    }

    #[test]
    fn concentrated_power_scores_hotter_than_balanced_power() {
        // Two synthetic schedules on the same 4-PE floorplan, same makespan
        // and same total energy: one concentrates all the work on PE0, the
        // other spreads it evenly. The concentrated one must report a higher
        // peak temperature — the physical effect the thermal-aware scheduler
        // exploits.
        use crate::schedule::{Assignment, Schedule};
        use tats_taskgraph::TaskId;
        use tats_techlib::PeId;

        let library = profiles::standard_library(10).unwrap();
        let platform = profiles::platform_architecture(&library).unwrap();
        let plan = layout::grid_floorplan(&platform, &library).unwrap();
        let model = ThermalModel::new(&plan, ThermalConfig::default()).unwrap();

        let balanced = Schedule::new(
            (0..4)
                .map(|i| Assignment {
                    task: TaskId(i),
                    pe: PeId(i),
                    start: 0.0,
                    end: 100.0,
                    power: 5.0,
                })
                .collect(),
            4,
            1_000.0,
        );
        let concentrated = Schedule::new(
            vec![Assignment {
                task: TaskId(0),
                pe: PeId(0),
                start: 0.0,
                end: 100.0,
                power: 20.0,
            }],
            4,
            1_000.0,
        );

        let balanced_eval = evaluate_schedule(&balanced, &model).unwrap();
        let concentrated_eval = evaluate_schedule(&concentrated, &model).unwrap();
        assert!(
            (balanced_eval.total_average_power - concentrated_eval.total_average_power).abs()
                < 1e-9
        );
        assert!(concentrated_eval.max_temperature_c > balanced_eval.max_temperature_c);
        assert!(concentrated_eval.temperatures.spread_c() > balanced_eval.temperatures.spread_c());
    }
}
