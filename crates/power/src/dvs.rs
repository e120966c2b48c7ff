//! Dynamic voltage scaling on top of a finished schedule.
//!
//! The paper schedules every task at the nominal operating point and uses
//! spare time only implicitly (a schedule that finishes before its deadline
//! simply idles).  A natural extension — and the standard comparison point
//! in the later thermal-aware DVS literature — is *slack reclamation*: once
//! the allocation and ordering are fixed, slow tasks down just enough that
//! the deadline is still met, trading the slack for a lower supply voltage
//! and therefore lower power density and temperature.
//!
//! [`SlackReclaimer`] implements the uniform-stretch variant: it picks, from
//! a [`DvfsTable`], the most efficient operating point whose slowdown still
//! fits the deadline and rescales every assignment accordingly.  The result
//! is reported as a [`ScaledSchedule`] (the core crate's `Schedule` is
//! intentionally only constructible by the scheduler itself, so the scaled
//! timeline lives in its own type).

use std::fmt;

use tats_core::Schedule;
use tats_taskgraph::TaskId;
use tats_techlib::PeId;

use crate::error::PowerError;
use crate::vf::{DvfsTable, OperatingPoint};

/// One task execution after voltage scaling.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaledAssignment {
    /// The task being executed.
    pub task: TaskId,
    /// The PE executing it.
    pub pe: PeId,
    /// Scaled start time (schedule time units).
    pub start: f64,
    /// Scaled end time (schedule time units).
    pub end: f64,
    /// Scaled power while executing, watts.
    pub power: f64,
}

impl ScaledAssignment {
    /// Scaled duration of the execution.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// Scaled energy of the execution (power × duration).
    pub fn energy(&self) -> f64 {
        self.power * self.duration()
    }
}

/// A schedule after DVS slack reclamation.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaledSchedule {
    assignments: Vec<ScaledAssignment>,
    operating_point: OperatingPoint,
    deadline: f64,
    nominal_makespan: f64,
    nominal_energy: f64,
}

impl ScaledSchedule {
    /// The per-task scaled executions, in the original assignment order.
    pub fn assignments(&self) -> &[ScaledAssignment] {
        &self.assignments
    }

    /// The operating point every task was scaled to.
    pub fn operating_point(&self) -> &OperatingPoint {
        &self.operating_point
    }

    /// Deadline inherited from the original schedule.
    pub fn deadline(&self) -> f64 {
        self.deadline
    }

    /// Makespan after scaling.
    pub fn makespan(&self) -> f64 {
        self.assignments
            .iter()
            .map(|assignment| assignment.end)
            .fold(0.0, f64::max)
    }

    /// Whether the scaled schedule still meets the deadline.
    pub fn meets_deadline(&self) -> bool {
        self.makespan() <= self.deadline + 1e-9
    }

    /// Makespan of the original (nominal) schedule.
    pub fn nominal_makespan(&self) -> f64 {
        self.nominal_makespan
    }

    /// Total task energy of the original (nominal) schedule.
    pub fn nominal_energy(&self) -> f64 {
        self.nominal_energy
    }

    /// Total task energy after scaling.
    pub fn energy(&self) -> f64 {
        self.assignments.iter().map(ScaledAssignment::energy).sum()
    }

    /// Fraction of the nominal task energy saved by scaling (0 when the
    /// nominal point was kept).
    pub fn energy_saving_fraction(&self) -> f64 {
        if self.nominal_energy <= 0.0 {
            return 0.0;
        }
        1.0 - self.energy() / self.nominal_energy
    }

    /// Per-PE sustained power after scaling: task energy on the PE divided by
    /// its scaled busy time (zero for an idle PE).
    pub fn sustained_power_per_pe(&self, pe_count: usize) -> Vec<f64> {
        let mut energy = vec![0.0; pe_count];
        let mut busy = vec![0.0; pe_count];
        for assignment in &self.assignments {
            if assignment.pe.index() < pe_count {
                energy[assignment.pe.index()] += assignment.energy();
                busy[assignment.pe.index()] += assignment.duration();
            }
        }
        energy
            .iter()
            .zip(&busy)
            .map(|(e, b)| if *b > 0.0 { e / b } else { 0.0 })
            .collect()
    }
}

impl fmt::Display for ScaledSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} tasks at {} (makespan {:.1}/{:.1}, energy saving {:.1}%)",
            self.assignments.len(),
            self.operating_point,
            self.makespan(),
            self.deadline,
            100.0 * self.energy_saving_fraction()
        )
    }
}

/// Uniform-stretch slack reclamation: the whole slack up to the deadline is
/// reclaimed.
#[derive(Debug, Clone)]
pub struct SlackReclaimer {
    table: DvfsTable,
}

impl SlackReclaimer {
    /// Creates a reclaimer over the given DVFS table.
    pub fn new(table: DvfsTable) -> Self {
        SlackReclaimer { table }
    }

    /// Picks the most efficient operating point that still meets the
    /// deadline and rescales the schedule to it.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::InvalidParameter`] when the nominal schedule
    /// already misses its deadline or has a non-positive makespan.
    ///
    /// # Examples
    ///
    /// ```
    /// use tats_core::{PlatformFlow, Policy};
    /// use tats_power::{DvfsTable, SlackReclaimer};
    /// use tats_taskgraph::Benchmark;
    /// use tats_techlib::profiles;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let library = profiles::standard_library(12)?;
    /// let graph = Benchmark::Bm1.task_graph()?;
    /// let result = PlatformFlow::new(&library)?.run(&graph, Policy::ThermalAware)?;
    /// let scaled = SlackReclaimer::new(DvfsTable::standard()).reclaim(&result.schedule)?;
    /// assert!(scaled.meets_deadline());
    /// assert!(scaled.energy() <= scaled.nominal_energy() + 1e-9);
    /// # Ok(())
    /// # }
    /// ```
    pub fn reclaim(&self, schedule: &Schedule) -> Result<ScaledSchedule, PowerError> {
        let nominal_makespan = schedule.makespan();
        let deadline = schedule.deadline();
        if nominal_makespan <= 0.0 {
            return Err(PowerError::InvalidParameter(
                "cannot reclaim slack of a schedule with non-positive makespan".into(),
            ));
        }
        if nominal_makespan > deadline + 1e-9 {
            return Err(PowerError::InvalidParameter(format!(
                "nominal schedule already misses its deadline ({nominal_makespan} > {deadline})"
            )));
        }
        let budget = (deadline / nominal_makespan).max(1.0);
        let point = self.table.slowest_within(budget).clone();
        let delay = point.delay_scale();
        let power_scale = point.dynamic_power_scale();

        let nominal_energy: f64 = schedule.assignments().iter().map(|a| a.energy()).sum();
        let assignments = schedule
            .assignments()
            .iter()
            .map(|assignment| ScaledAssignment {
                task: assignment.task,
                pe: assignment.pe,
                start: assignment.start * delay,
                end: assignment.end * delay,
                power: assignment.power * power_scale,
            })
            .collect();

        Ok(ScaledSchedule {
            assignments,
            operating_point: point,
            deadline,
            nominal_makespan,
            nominal_energy,
        })
    }
}

impl Default for SlackReclaimer {
    fn default() -> Self {
        SlackReclaimer::new(DvfsTable::standard())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vf::OperatingPoint;
    use tats_core::{PlatformFlow, Policy};
    use tats_taskgraph::Benchmark;
    use tats_techlib::profiles;

    fn nominal_schedule() -> Schedule {
        let library = profiles::standard_library(12).expect("library");
        let graph = Benchmark::Bm1.task_graph().expect("graph");
        PlatformFlow::new(&library)
            .expect("flow")
            .run(&graph, Policy::Baseline)
            .expect("result")
            .schedule
    }

    #[test]
    fn reclaimed_schedule_meets_deadline_and_saves_energy() {
        let schedule = nominal_schedule();
        let scaled = SlackReclaimer::default()
            .reclaim(&schedule)
            .expect("reclaimed");
        assert!(scaled.meets_deadline());
        assert!(scaled.energy() <= scaled.nominal_energy() + 1e-9);
        assert!(scaled.energy_saving_fraction() >= 0.0);
        assert_eq!(scaled.assignments().len(), schedule.task_count());
        // Scaling preserves the makespan ratio.
        let ratio = scaled.makespan() / scaled.nominal_makespan();
        assert!((ratio - scaled.operating_point().delay_scale()).abs() < 1e-9);
    }

    #[test]
    fn no_slack_keeps_the_nominal_point() {
        let schedule = nominal_schedule();
        // A table whose only sub-nominal point is far too slow for any
        // realistic slack forces the reclaimer back to nominal.
        let table = DvfsTable::new(vec![
            OperatingPoint::nominal(),
            OperatingPoint::new("crawl", 0.6, 0.05).expect("valid point"),
        ])
        .expect("valid table");
        let slack_ratio = schedule.deadline() / schedule.makespan();
        assert!(slack_ratio < 20.0, "fixture must not have 20x slack");
        let scaled = SlackReclaimer::new(table)
            .reclaim(&schedule)
            .expect("reclaimed");
        assert!(scaled.operating_point().is_nominal());
        assert!((scaled.energy_saving_fraction()).abs() < 1e-9);
    }

    #[test]
    fn sustained_power_never_increases_under_scaling() {
        let schedule = nominal_schedule();
        let scaled = SlackReclaimer::default()
            .reclaim(&schedule)
            .expect("reclaimed");
        let nominal = schedule.sustained_power_per_pe();
        let after = scaled.sustained_power_per_pe(schedule.pe_count());
        assert_eq!(nominal.len(), after.len());
        for (before, now) in nominal.iter().zip(&after) {
            assert!(now <= &(before + 1e-9));
        }
    }

    #[test]
    fn display_mentions_the_operating_point() {
        let schedule = nominal_schedule();
        let scaled = SlackReclaimer::default()
            .reclaim(&schedule)
            .expect("reclaimed");
        let text = scaled.to_string();
        assert!(text.contains(scaled.operating_point().name()));
    }
}
