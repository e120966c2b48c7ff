//! Per-PE power profiles of a schedule.
//!
//! The scheduler's steady-state view of a schedule is a single per-PE power
//! number; the transient view is a piecewise-constant *profile*: at any
//! instant a PE dissipates the power of the task it is executing plus its
//! idle power, or only the idle power when no task is running.  The profile
//! is the bridge between a [`tats_core::Schedule`] and the transient thermal
//! solver.

use tats_core::Schedule;
use tats_techlib::{Architecture, TechLibrary};

use crate::error::PowerError;

/// One piecewise-constant segment of a power profile.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSegment {
    /// Segment start time in schedule time units.
    pub start: f64,
    /// Segment end time in schedule time units.
    pub end: f64,
    /// Per-PE power during the segment, watts.
    pub pe_power: Vec<f64>,
}

impl ProfileSegment {
    /// Segment duration in schedule time units.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// Total power of the segment across all PEs, watts.
    pub fn total_power(&self) -> f64 {
        self.pe_power.iter().sum()
    }
}

/// Piecewise-constant per-PE power timeline of a schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerProfile {
    segments: Vec<ProfileSegment>,
    pe_count: usize,
}

impl PowerProfile {
    /// Builds the profile of a schedule on an architecture.
    ///
    /// Every PE dissipates its type's idle power throughout the schedule and
    /// additionally the power of the task it executes while busy.  The
    /// profile spans `[0, makespan]`.
    ///
    /// # Errors
    ///
    /// Propagates library lookups ([`PowerError::Library`]) and returns
    /// [`PowerError::InvalidParameter`] for an empty schedule.
    ///
    /// # Examples
    ///
    /// ```
    /// use tats_core::{PlatformFlow, Policy};
    /// use tats_power::PowerProfile;
    /// use tats_taskgraph::Benchmark;
    /// use tats_techlib::profiles;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let library = profiles::standard_library(12)?;
    /// let graph = Benchmark::Bm1.task_graph()?;
    /// let result = PlatformFlow::new(&library)?.run(&graph, Policy::Baseline)?;
    /// let profile = PowerProfile::from_schedule(&result.schedule, &result.architecture, &library)?;
    /// assert_eq!(profile.horizon(), result.schedule.makespan());
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_schedule(
        schedule: &Schedule,
        architecture: &Architecture,
        library: &TechLibrary,
    ) -> Result<Self, PowerError> {
        let pe_count = architecture.pe_count();
        if schedule.task_count() == 0 || pe_count == 0 {
            return Err(PowerError::InvalidParameter(
                "cannot build a power profile of an empty schedule or architecture".into(),
            ));
        }
        let mut idle_power = Vec::with_capacity(pe_count);
        for instance in architecture.instances() {
            let pe_type = library.pe_type(instance.type_id())?;
            idle_power.push(pe_type.idle_power());
        }

        // Breakpoints: 0, every assignment start and end, and the makespan.
        let makespan = schedule.makespan();
        let mut breakpoints: Vec<f64> = Vec::with_capacity(2 * schedule.task_count() + 2);
        breakpoints.push(0.0);
        breakpoints.push(makespan);
        for assignment in schedule.assignments() {
            breakpoints.push(assignment.start);
            breakpoints.push(assignment.end);
        }
        breakpoints.sort_by(|a, b| a.partial_cmp(b).expect("schedule times are finite"));
        breakpoints.dedup_by(|a, b| (*a - *b).abs() < 1e-9);

        let mut segments = Vec::with_capacity(breakpoints.len().saturating_sub(1));
        for window in breakpoints.windows(2) {
            let (start, end) = (window[0], window[1]);
            if end - start < 1e-9 {
                continue;
            }
            let midpoint = 0.5 * (start + end);
            let mut pe_power = idle_power.clone();
            for assignment in schedule.assignments() {
                if assignment.start <= midpoint && midpoint < assignment.end {
                    pe_power[assignment.pe.index()] += assignment.power;
                }
            }
            segments.push(ProfileSegment {
                start,
                end,
                pe_power,
            });
        }
        if segments.is_empty() {
            return Err(PowerError::InvalidParameter(
                "schedule has zero makespan; no power profile can be built".into(),
            ));
        }
        Ok(PowerProfile { segments, pe_count })
    }

    /// Builds a profile directly from segments (mainly for tests and custom
    /// workloads).
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::InvalidParameter`] if the segments are empty,
    /// unordered, overlapping, or have inconsistent PE counts.
    pub fn from_segments(segments: Vec<ProfileSegment>) -> Result<Self, PowerError> {
        if segments.is_empty() {
            return Err(PowerError::InvalidParameter(
                "a power profile needs at least one segment".into(),
            ));
        }
        let pe_count = segments[0].pe_power.len();
        for (index, segment) in segments.iter().enumerate() {
            if segment.pe_power.len() != pe_count {
                return Err(PowerError::LengthMismatch {
                    expected: pe_count,
                    actual: segment.pe_power.len(),
                });
            }
            if segment.end <= segment.start || !segment.start.is_finite() {
                return Err(PowerError::InvalidParameter(format!(
                    "segment {index} has malformed interval [{}, {})",
                    segment.start, segment.end
                )));
            }
            if index > 0 && segment.start < segments[index - 1].end - 1e-9 {
                return Err(PowerError::InvalidParameter(format!(
                    "segment {index} starts at {} before the previous segment ends at {}",
                    segment.start,
                    segments[index - 1].end
                )));
            }
        }
        Ok(PowerProfile { segments, pe_count })
    }

    /// Number of PEs covered by the profile.
    pub fn pe_count(&self) -> usize {
        self.pe_count
    }

    /// The piecewise-constant segments in time order.
    pub fn segments(&self) -> &[ProfileSegment] {
        &self.segments
    }

    /// Number of segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// End time of the profile (schedule time units).
    pub fn horizon(&self) -> f64 {
        self.segments.last().map(|s| s.end).unwrap_or(0.0)
    }

    /// Total energy over the profile, in watt × schedule-time-units.
    pub fn energy(&self) -> f64 {
        self.segments
            .iter()
            .map(|segment| segment.total_power() * segment.duration())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tats_core::{PlatformFlow, Policy};
    use tats_taskgraph::Benchmark;
    use tats_techlib::profiles;

    fn platform_profile() -> (PowerProfile, Schedule) {
        let library = profiles::standard_library(12).expect("library");
        let graph = Benchmark::Bm1.task_graph().expect("graph");
        let result = PlatformFlow::new(&library)
            .expect("flow")
            .run(&graph, Policy::Baseline)
            .expect("result");
        let profile = PowerProfile::from_schedule(&result.schedule, &result.architecture, &library)
            .expect("profile");
        (profile, result.schedule)
    }

    #[test]
    fn profile_spans_the_makespan() {
        let (profile, schedule) = platform_profile();
        assert!((profile.horizon() - schedule.makespan()).abs() < 1e-6);
    }

    #[test]
    fn segments_are_ordered_and_contiguous() {
        let (profile, _) = platform_profile();
        for pair in profile.segments().windows(2) {
            assert!(pair[0].end <= pair[1].start + 1e-9);
            assert!((pair[0].end - pair[1].start).abs() < 1e-6);
        }
    }

    #[test]
    fn profile_energy_accounts_for_busy_energy_plus_idle() {
        let (profile, schedule) = platform_profile();
        let busy_energy: f64 = schedule.assignments().iter().map(|a| a.energy()).sum();
        // Idle power contributes on top of the tasks' energy.
        assert!(profile.energy() >= busy_energy - 1e-6);
    }

    #[test]
    fn from_segments_validates_ordering_and_widths() {
        let good = vec![
            ProfileSegment {
                start: 0.0,
                end: 1.0,
                pe_power: vec![1.0, 2.0],
            },
            ProfileSegment {
                start: 1.0,
                end: 3.0,
                pe_power: vec![0.5, 0.5],
            },
        ];
        let profile = PowerProfile::from_segments(good).expect("valid profile");
        assert_eq!(profile.pe_count(), 2);
        assert!((profile.energy() - (3.0 + 2.0)).abs() < 1e-12);

        let overlapping = vec![
            ProfileSegment {
                start: 0.0,
                end: 2.0,
                pe_power: vec![1.0],
            },
            ProfileSegment {
                start: 1.0,
                end: 3.0,
                pe_power: vec![1.0],
            },
        ];
        assert!(PowerProfile::from_segments(overlapping).is_err());

        let inconsistent = vec![
            ProfileSegment {
                start: 0.0,
                end: 1.0,
                pe_power: vec![1.0],
            },
            ProfileSegment {
                start: 1.0,
                end: 2.0,
                pe_power: vec![1.0, 2.0],
            },
        ];
        assert!(PowerProfile::from_segments(inconsistent).is_err());
        assert!(PowerProfile::from_segments(vec![]).is_err());
    }
}
