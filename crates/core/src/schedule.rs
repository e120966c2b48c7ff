//! Schedules: the output of the allocation and scheduling procedure.

use std::fmt;

use tats_taskgraph::{TaskGraph, TaskId};
use tats_techlib::{Architecture, PeId, TechLibrary};

use crate::error::CoreError;

/// The assignment of one task: which PE executes it and when.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Assignment {
    /// The assigned task.
    pub task: TaskId,
    /// The executing processing element.
    pub pe: PeId,
    /// Start time, schedule time units.
    pub start: f64,
    /// Finish time, schedule time units.
    pub end: f64,
    /// Power drawn while executing, watts.
    pub power: f64,
}

impl Assignment {
    /// Execution duration.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// Energy consumed by the execution, joule-equivalent units.
    pub fn energy(&self) -> f64 {
        self.duration() * self.power
    }
}

impl fmt::Display for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {} [{:.1}, {:.1}) @ {:.2} W",
            self.task, self.pe, self.start, self.end, self.power
        )
    }
}

/// A complete mapping and schedule of a task graph onto an architecture.
///
/// Produced by [`crate::Asp::schedule`]; use [`Schedule::validate`] to check
/// the structural invariants against the originating graph and architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    assignments: Vec<Assignment>,
    pe_count: usize,
    deadline: f64,
}

impl Schedule {
    /// Assembles a schedule from per-task assignments (indexed by task id).
    pub(crate) fn new(assignments: Vec<Assignment>, pe_count: usize, deadline: f64) -> Self {
        Schedule {
            assignments,
            pe_count,
            deadline,
        }
    }

    /// Number of scheduled tasks.
    pub fn task_count(&self) -> usize {
        self.assignments.len()
    }

    /// Number of PEs in the target architecture.
    pub fn pe_count(&self) -> usize {
        self.pe_count
    }

    /// The deadline the schedule was produced against.
    pub fn deadline(&self) -> f64 {
        self.deadline
    }

    /// The assignment of a task.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnscheduledTask`] for an out-of-range task id.
    pub fn assignment(&self, task: TaskId) -> Result<&Assignment, CoreError> {
        self.assignments
            .get(task.index())
            .ok_or(CoreError::UnscheduledTask(task))
    }

    /// All assignments in task-id order.
    pub fn assignments(&self) -> &[Assignment] {
        &self.assignments
    }

    /// The PE executing a task.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnscheduledTask`] for an out-of-range task id.
    pub fn pe_of(&self, task: TaskId) -> Result<PeId, CoreError> {
        Ok(self.assignment(task)?.pe)
    }

    /// Finish time of the last task.
    pub fn makespan(&self) -> f64 {
        self.assignments
            .iter()
            .map(|a| a.end)
            .fold(0.0_f64, f64::max)
    }

    /// Returns `true` if the schedule finishes within its deadline.
    pub fn meets_deadline(&self) -> bool {
        self.makespan() <= self.deadline + 1e-9
    }

    /// Assignments executed by a given PE, in task-id order.
    ///
    /// The iterator borrows the schedule and allocates nothing; callers that
    /// need start-time order (Gantt rendering, overlap checks) should collect
    /// into a scratch buffer and sort, or use
    /// [`Schedule::assignments_on_sorted_into`].
    pub fn assignments_on(&self, pe: PeId) -> impl Iterator<Item = &Assignment> + '_ {
        self.assignments.iter().filter(move |a| a.pe == pe)
    }

    /// Fills `out` with the PE's assignments ordered by start time, reusing
    /// the buffer's capacity.
    pub fn assignments_on_sorted_into<'s>(&'s self, pe: PeId, out: &mut Vec<&'s Assignment>) {
        out.clear();
        out.extend(self.assignments_on(pe));
        out.sort_by(|a, b| a.start.total_cmp(&b.start));
    }

    /// Total busy time of a PE.
    pub fn busy_time(&self, pe: PeId) -> f64 {
        self.assignments_on(pe).map(|a| a.duration()).sum()
    }

    /// Total energy consumed by tasks on a PE.
    pub fn busy_energy(&self, pe: PeId) -> f64 {
        self.assignments_on(pe).map(|a| a.energy()).sum()
    }

    /// Average power of each PE over the makespan (energy over makespan).
    /// Its one flow caller is co-synthesis, which hands it to the
    /// floorplanner as the module powers; the schedule evaluation uses
    /// [`Schedule::sustained_power_per_pe`] instead.
    pub fn average_power_per_pe(&self) -> Vec<f64> {
        let horizon = self.makespan().max(1e-9);
        let mut out = vec![0.0; self.pe_count];
        for a in &self.assignments {
            out[a.pe.index()] += a.energy();
        }
        for power in out.iter_mut() {
            *power /= horizon;
        }
        out
    }

    /// Sustained power of each PE: the energy it consumes divided by the time
    /// it is busy (zero for idle PEs).
    ///
    /// This is the thermal load a PE dissipates *while it is running*, and
    /// the per-block power vector [`crate::evaluate_schedule`] and `tats dvs`
    /// hand the thermal model (the ASP's inquiries build the same measure
    /// incrementally); unlike the makespan-normalised average it does not
    /// reward schedules merely for taking longer.
    pub fn sustained_power_per_pe(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.pe_count];
        let mut busy = vec![0.0_f64; self.pe_count];
        for a in &self.assignments {
            out[a.pe.index()] += a.energy();
            busy[a.pe.index()] += a.duration();
        }
        for (energy, busy) in out.iter_mut().zip(&busy) {
            *energy = if *busy > 0.0 { *energy / *busy } else { 0.0 };
        }
        out
    }

    /// Ids of PEs that execute at least one task, in id order.
    pub fn used_pes(&self) -> impl Iterator<Item = PeId> + '_ {
        (0..self.pe_count)
            .map(PeId)
            .filter(move |&pe| self.assignments.iter().any(|a| a.pe == pe))
    }

    /// Validates the schedule against its graph, architecture and library.
    ///
    /// Checked invariants:
    ///
    /// 1. every task of the graph has exactly one assignment;
    /// 2. every assignment refers to a PE of the architecture;
    /// 3. a task never starts before all of its predecessors have finished;
    /// 4. assignments on the same PE never overlap in time;
    /// 5. each assignment's duration equals the library WCET of the task on
    ///    the assigned PE's type.
    ///
    /// # Errors
    ///
    /// Returns the specific [`CoreError`] variant describing the first
    /// violated invariant.
    pub fn validate(
        &self,
        graph: &TaskGraph,
        architecture: &Architecture,
        library: &TechLibrary,
    ) -> Result<(), CoreError> {
        if self.assignments.len() != graph.task_count() {
            return Err(CoreError::InvalidSchedule(format!(
                "{} assignments for {} tasks",
                self.assignments.len(),
                graph.task_count()
            )));
        }
        for assignment in &self.assignments {
            if assignment.pe.index() >= architecture.pe_count() {
                return Err(CoreError::InvalidSchedule(format!(
                    "assignment of {} refers to unknown {}",
                    assignment.task, assignment.pe
                )));
            }
            if assignment.end < assignment.start || !assignment.start.is_finite() {
                return Err(CoreError::InvalidSchedule(format!(
                    "assignment of {} has malformed interval [{}, {})",
                    assignment.task, assignment.start, assignment.end
                )));
            }
            let task = graph
                .get_task(assignment.task)
                .ok_or(CoreError::UnscheduledTask(assignment.task))?;
            let pe_type = architecture.pe_type_of(assignment.pe)?;
            let wcet = library.wcet(task.type_id(), pe_type)?;
            if (assignment.duration() - wcet).abs() > 1e-6 {
                return Err(CoreError::InvalidSchedule(format!(
                    "duration of {} is {} but its WCET on {} is {}",
                    assignment.task,
                    assignment.duration(),
                    assignment.pe,
                    wcet
                )));
            }
        }
        // Precedence.
        for task in graph.task_ids() {
            let a = self.assignment(task)?;
            for &pred in graph.predecessors(task) {
                let p = self.assignment(pred)?;
                if p.end > a.start + 1e-9 {
                    return Err(CoreError::InvalidSchedule(format!(
                        "{task} starts at {} before predecessor {pred} finishes at {}",
                        a.start, p.end
                    )));
                }
            }
        }
        // No overlap per PE.
        let mut on_pe: Vec<&Assignment> = Vec::new();
        for pe in 0..self.pe_count {
            let pe = PeId(pe);
            self.assignments_on_sorted_into(pe, &mut on_pe);
            for pair in on_pe.windows(2) {
                if pair[0].end > pair[1].start + 1e-9 {
                    return Err(CoreError::OverlappingAssignments(
                        pe,
                        pair[0].task,
                        pair[1].task,
                    ));
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "schedule: {} tasks on {} PEs, makespan {:.1} / deadline {:.1}",
            self.task_count(),
            self.pe_count,
            self.makespan(),
            self.deadline
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assignment(task: usize, pe: usize, start: f64, end: f64) -> Assignment {
        Assignment {
            task: TaskId(task),
            pe: PeId(pe),
            start,
            end,
            power: 2.0,
        }
    }

    #[test]
    fn makespan_and_deadline() {
        let s = Schedule::new(
            vec![assignment(0, 0, 0.0, 10.0), assignment(1, 1, 5.0, 25.0)],
            2,
            30.0,
        );
        assert_eq!(s.makespan(), 25.0);
        assert!(s.meets_deadline());
        let late = Schedule::new(vec![assignment(0, 0, 0.0, 40.0)], 1, 30.0);
        assert!(!late.meets_deadline());
    }

    #[test]
    fn per_pe_accounting() {
        let s = Schedule::new(
            vec![
                assignment(0, 0, 0.0, 10.0),
                assignment(1, 0, 10.0, 20.0),
                assignment(2, 1, 0.0, 5.0),
            ],
            2,
            100.0,
        );
        assert_eq!(s.busy_time(PeId(0)), 20.0);
        assert_eq!(s.busy_time(PeId(1)), 5.0);
        assert_eq!(s.busy_energy(PeId(0)), 40.0);
        let p = s.average_power_per_pe();
        assert!((p[0] - 2.0).abs() < 1e-12);
        assert!((p[1] - 0.5).abs() < 1e-12);
        // Sustained power: every assignment runs at 2 W, so each busy PE
        // sustains exactly 2 W.
        assert_eq!(s.sustained_power_per_pe(), vec![2.0, 2.0]);
        assert_eq!(s.used_pes().collect::<Vec<_>>(), vec![PeId(0), PeId(1)]);
    }

    #[test]
    fn assignment_energy_and_duration() {
        let a = assignment(0, 0, 5.0, 15.0);
        assert_eq!(a.duration(), 10.0);
        assert_eq!(a.energy(), 20.0);
        assert!(a.to_string().contains("T0"));
    }

    #[test]
    fn lookup_errors_for_unknown_tasks() {
        let s = Schedule::new(vec![assignment(0, 0, 0.0, 1.0)], 1, 10.0);
        assert!(s.assignment(TaskId(0)).is_ok());
        assert!(matches!(
            s.assignment(TaskId(5)),
            Err(CoreError::UnscheduledTask(_))
        ));
        assert!(s.pe_of(TaskId(5)).is_err());
    }

    #[test]
    fn assignments_on_iterates_and_sorted_into_orders_by_start() {
        let s = Schedule::new(
            vec![
                assignment(0, 0, 20.0, 30.0),
                assignment(1, 0, 0.0, 10.0),
                assignment(2, 1, 5.0, 6.0),
            ],
            2,
            100.0,
        );
        // The raw iterator yields task-id order without allocating.
        let ids: Vec<TaskId> = s.assignments_on(PeId(0)).map(|a| a.task).collect();
        assert_eq!(ids, vec![TaskId(0), TaskId(1)]);
        // The sorted variant orders by start time into a reusable buffer.
        let mut on0 = Vec::new();
        s.assignments_on_sorted_into(PeId(0), &mut on0);
        assert_eq!(on0[0].task, TaskId(1));
        assert_eq!(on0[1].task, TaskId(0));
        assert!(s.to_string().contains("3 tasks"));
    }
}
