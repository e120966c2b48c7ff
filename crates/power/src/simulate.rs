//! Transient thermal simulation of a whole schedule.
//!
//! The paper's scheduler queries steady-state temperatures while it builds
//! the schedule; this module answers the complementary validation question:
//! *given the finished schedule, how does the temperature of each PE evolve
//! over time while the schedule executes?*  The answer drives the thermal
//! cycling and reliability analyses in the `tats-reliability` crate and the
//! transient ablation benches.

use tats_core::Schedule;
use tats_techlib::{Architecture, TechLibrary};
use tats_thermal::{Temperatures, ThermalModel, TransientSolver};

use crate::error::PowerError;
use crate::profile::PowerProfile;

/// A sampled time series of temperature fields.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalTrace {
    times: Vec<f64>,
    samples: Vec<Temperatures>,
}

impl ThermalTrace {
    /// Builds a trace from parallel time and sample vectors.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::LengthMismatch`] when the vectors differ in
    /// length and [`PowerError::InvalidParameter`] when the trace is empty or
    /// the times are not strictly increasing.
    pub fn new(times: Vec<f64>, samples: Vec<Temperatures>) -> Result<Self, PowerError> {
        if times.len() != samples.len() {
            return Err(PowerError::LengthMismatch {
                expected: times.len(),
                actual: samples.len(),
            });
        }
        if times.is_empty() {
            return Err(PowerError::InvalidParameter(
                "a thermal trace needs at least one sample".into(),
            ));
        }
        if times.windows(2).any(|pair| pair[1] <= pair[0]) {
            return Err(PowerError::InvalidParameter(
                "thermal trace times must be strictly increasing".into(),
            ));
        }
        Ok(ThermalTrace { times, samples })
    }

    /// Sample times in schedule time units.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Temperature fields corresponding to [`ThermalTrace::times`].
    pub fn samples(&self) -> &[Temperatures] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the trace is empty (never true for a constructed trace).
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The final temperature field.
    pub fn last(&self) -> &Temperatures {
        self.samples.last().expect("trace is non-empty")
    }

    /// Highest block temperature reached anywhere in the trace, °C.
    pub fn peak_c(&self) -> f64 {
        self.samples
            .iter()
            .map(Temperatures::max_c)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Temperature series of one block, °C.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::InvalidParameter`] for a block index outside the
    /// model.
    pub fn block_series(&self, block: usize) -> Result<Vec<f64>, PowerError> {
        self.samples
            .iter()
            .map(|sample| {
                sample
                    .block(block)
                    .map_err(|_| PowerError::InvalidParameter(format!("no block {block}")))
            })
            .collect()
    }
}

/// Transient simulator that replays a schedule against a thermal model.
#[derive(Debug, Clone)]
pub struct ScheduleSimulator<'a> {
    model: &'a ThermalModel,
    dt_seconds: f64,
}

impl<'a> ScheduleSimulator<'a> {
    /// Creates a simulator with the backward-Euler integrator, a 10 ms step
    /// and one sample at the end of each profile segment.
    pub fn new(model: &'a ThermalModel) -> Self {
        ScheduleSimulator {
            model,
            dt_seconds: 0.01,
        }
    }

    /// Overrides the integration step in seconds.
    pub fn with_step(mut self, dt_seconds: f64) -> Self {
        self.dt_seconds = dt_seconds;
        self
    }

    /// Replays the power profile starting from the ambient temperature and
    /// records a [`ThermalTrace`].
    ///
    /// # Errors
    ///
    /// Propagates thermal solver errors and rejects empty profiles.
    ///
    /// # Examples
    ///
    /// ```
    /// use tats_core::{layout, PlatformFlow, Policy};
    /// use tats_power::{PowerProfile, ScheduleSimulator};
    /// use tats_taskgraph::Benchmark;
    /// use tats_techlib::profiles;
    /// use tats_thermal::{ThermalConfig, ThermalModel};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let library = profiles::standard_library(12)?;
    /// let graph = Benchmark::Bm1.task_graph()?;
    /// let result = PlatformFlow::new(&library)?.run(&graph, Policy::Baseline)?;
    /// let profile = PowerProfile::from_schedule(&result.schedule, &result.architecture, &library)?;
    /// let model = ThermalModel::new(&result.floorplan, ThermalConfig::default())?;
    /// let trace = ScheduleSimulator::new(&model).simulate(&profile)?;
    /// assert!(trace.peak_c() > 0.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn simulate(&self, profile: &PowerProfile) -> Result<ThermalTrace, PowerError> {
        if profile.segment_count() == 0 {
            return Err(PowerError::InvalidParameter(
                "cannot simulate an empty power profile".into(),
            ));
        }
        if profile.pe_count() != self.model.block_count() {
            return Err(PowerError::LengthMismatch {
                expected: self.model.block_count(),
                actual: profile.pe_count(),
            });
        }
        let solver = TransientSolver::new(self.model).with_step(self.dt_seconds);

        let mut state =
            Temperatures::uniform(self.model.block_count(), self.model.config().ambient_c);
        let mut times = Vec::new();
        let mut samples = Vec::new();

        for segment in profile.segments() {
            let duration = segment.duration();
            let phase = tats_thermal::PowerPhase::new(duration, segment.pe_power.clone());
            state = solver.run(&state, &[phase])?;
            times.push(segment.start + duration);
            samples.push(state.clone());
        }
        ThermalTrace::new(times, samples)
    }
}

/// Convenience wrapper: builds the power profile of a schedule and simulates
/// it against a thermal model in one call.
///
/// # Errors
///
/// Propagates profile construction and simulation errors.
pub fn simulate_schedule(
    schedule: &Schedule,
    architecture: &Architecture,
    library: &TechLibrary,
    model: &ThermalModel,
) -> Result<ThermalTrace, PowerError> {
    let profile = PowerProfile::from_schedule(schedule, architecture, library)?;
    ScheduleSimulator::new(model).simulate(&profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tats_core::{layout, PlatformFlow, Policy};
    use tats_taskgraph::Benchmark;
    use tats_techlib::profiles;
    use tats_thermal::ThermalConfig;

    struct Fixture {
        profile: PowerProfile,
        model: ThermalModel,
    }

    fn fixture() -> Fixture {
        let library = profiles::standard_library(12).expect("library");
        let graph = Benchmark::Bm1.task_graph().expect("graph");
        let result = PlatformFlow::new(&library)
            .expect("flow")
            .run(&graph, Policy::Baseline)
            .expect("result");
        let profile = PowerProfile::from_schedule(&result.schedule, &result.architecture, &library)
            .expect("profile");
        let floorplan = layout::grid_floorplan(&result.architecture, &library).expect("floorplan");
        let model = ThermalModel::new(&floorplan, ThermalConfig::default()).expect("model");
        Fixture { profile, model }
    }

    #[test]
    fn simulation_heats_up_from_ambient() {
        let fixture = fixture();
        let trace = ScheduleSimulator::new(&fixture.model)
            .simulate(&fixture.profile)
            .expect("trace");
        let ambient = fixture.model.config().ambient_c;
        assert!(trace.peak_c() > ambient);
        assert_eq!(trace.len(), fixture.profile.segment_count());
        // Times must end at the horizon.
        let last_time = *trace.times().last().expect("non-empty");
        assert!((last_time - fixture.profile.horizon()).abs() < 1e-6);
    }

    #[test]
    fn transient_peak_stays_below_steady_state_of_peak_power() {
        let fixture = fixture();
        let trace = ScheduleSimulator::new(&fixture.model)
            .simulate(&fixture.profile)
            .expect("trace");
        // For a positive linear RC system started at ambient, the transient
        // response under p(t) <= p_max (element-wise) is bounded by the
        // steady state under p_max.
        let mut p_max = vec![0.0; fixture.profile.pe_count()];
        for segment in fixture.profile.segments() {
            for (bound, power) in p_max.iter_mut().zip(&segment.pe_power) {
                *bound = f64::max(*bound, *power);
            }
        }
        let bound = fixture
            .model
            .steady_state(&p_max)
            .expect("steady state")
            .max_c();
        assert!(trace.peak_c() <= bound + 1e-6);
    }

    #[test]
    fn mismatched_model_is_rejected() {
        let fixture = fixture();
        let library = profiles::standard_library(12).expect("library");
        let bigger = tats_techlib::Architecture::platform(
            "six",
            profiles::platform_pe_type(&library).expect("pe type"),
            6,
        );
        let floorplan = layout::grid_floorplan(&bigger, &library).expect("floorplan");
        let model = ThermalModel::new(&floorplan, ThermalConfig::default()).expect("model");
        let result = ScheduleSimulator::new(&model).simulate(&fixture.profile);
        assert!(matches!(result, Err(PowerError::LengthMismatch { .. })));
    }

    #[test]
    fn trace_constructor_validates_inputs() {
        let samples = vec![
            Temperatures::uniform(2, 40.0),
            Temperatures::uniform(2, 42.0),
        ];
        assert!(ThermalTrace::new(vec![1.0, 2.0], samples.clone()).is_ok());
        assert!(ThermalTrace::new(vec![2.0, 1.0], samples.clone()).is_err());
        assert!(ThermalTrace::new(vec![1.0], samples).is_err());
        assert!(ThermalTrace::new(vec![], vec![]).is_err());
    }

    #[test]
    fn block_series_has_one_value_per_sample() {
        let fixture = fixture();
        let trace = ScheduleSimulator::new(&fixture.model)
            .simulate(&fixture.profile)
            .expect("trace");
        let series = trace.block_series(0).expect("block 0 exists");
        assert_eq!(series.len(), trace.len());
        assert!(trace.block_series(99).is_err());
    }
}
