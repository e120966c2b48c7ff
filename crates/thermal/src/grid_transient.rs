//! Transient (time-domain) integration of the grid thermal model.
//!
//! The block-level [`crate::TransientSolver`] integrates the compact RC
//! network (a handful of nodes, dense LU). Validating hotspot *movement*
//! needs the same time-domain response on the fine grid, where a dense
//! factorisation is hopeless: the implicit backward-Euler matrix
//! `C/dt + G` has the same bordered-banded structure as the steady-state
//! system, so this solver factorises it **once** with
//! [`tats_sparse::BorderedBandedCholesky`] at construction and reuses the
//! cached factor for every step of every phase.

use crate::error::ThermalError;
use crate::grid::{from_sparse, GridModel, GridTemperatures};
use crate::transient::PowerPhase;
use tats_sparse::BorderedBandedCholesky;

/// Result of one transient grid integration.
#[derive(Debug, Clone, PartialEq)]
pub struct GridTransientResult {
    /// Temperature field at the end of the trace.
    pub end: GridTemperatures,
    /// Hottest cell temperature observed at any accepted step, °C.
    pub peak_c: f64,
    /// Implicit steps taken.
    pub steps: usize,
}

/// Implicit (backward Euler) transient stepper over a [`GridModel`].
///
/// # Examples
///
/// ```
/// use tats_thermal::{
///     Block, Floorplan, GridModel, GridTransientSolver, PowerPhase, ThermalConfig,
/// };
///
/// # fn main() -> Result<(), tats_thermal::ThermalError> {
/// let plan = Floorplan::new(vec![
///     Block::from_mm("hot", 0.0, 0.0, 7.0, 7.0),
///     Block::from_mm("cold", 7.0, 0.0, 7.0, 7.0),
/// ])?;
/// let grid = GridModel::new(&plan, ThermalConfig::default(), 8, 4)?;
/// let solver = GridTransientSolver::new(&grid, 0.05)?;
/// let result = solver.run(45.0, &[PowerPhase::new(100.0, vec![8.0, 0.5])])?;
/// assert!(result.peak_c > 45.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GridTransientSolver<'a> {
    model: &'a GridModel,
    /// Integration step in seconds.
    dt_seconds: f64,
    /// Cached factor of `C/dt + G` for the nominal step.
    factor: BorderedBandedCholesky,
    /// Per-node thermal capacitance (cells, spreader, sink), J/K.
    capacitance: Vec<f64>,
}

impl<'a> GridTransientSolver<'a> {
    /// Builds the stepper and factorises `C/dt + G` for the given step.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] for a non-positive step
    /// and propagates factorisation failures.
    pub fn new(model: &'a GridModel, dt_seconds: f64) -> Result<Self, ThermalError> {
        if dt_seconds <= 0.0 || !dt_seconds.is_finite() {
            return Err(ThermalError::InvalidParameter(format!(
                "time step must be positive, got {dt_seconds}"
            )));
        }
        let capacitance = Self::node_capacitance(model);
        let factor = Self::implicit_factor(model, &capacitance, dt_seconds)?;
        Ok(GridTransientSolver {
            model,
            dt_seconds,
            factor,
            capacitance,
        })
    }

    fn node_capacitance(model: &GridModel) -> Vec<f64> {
        let config = model.config();
        let cells = model.node_count() - 2;
        let mut capacitance = vec![config.block_capacitance(model.cell_area()); cells];
        capacitance.push(config.spreader_capacitance);
        capacitance.push(config.sink_capacitance);
        capacitance
    }

    fn implicit_factor(
        model: &GridModel,
        capacitance: &[f64],
        dt: f64,
    ) -> Result<BorderedBandedCholesky, ThermalError> {
        let cells = model.node_count() - 2;
        // All cells share one capacitance value, so a scalar diagonal shift
        // covers the core; the spreader/sink shifts go into the corner.
        let (core, border, corner) = model.assemble_bordered(
            capacitance[0] / dt,
            capacitance[cells] / dt,
            capacitance[cells + 1] / dt,
        )?;
        BorderedBandedCholesky::new(&core, &border, &corner).map_err(from_sparse)
    }

    /// The integration step in seconds.
    pub fn dt_seconds(&self) -> f64 {
        self.dt_seconds
    }

    /// Integrates the power trace starting from a uniform temperature
    /// field and returns the final field plus the observed peak.
    ///
    /// Full steps reuse the cached factor; a trailing partial step (phase
    /// duration not divisible by the step) triggers one ad-hoc
    /// factorisation for that step length.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] for malformed phases and
    /// propagates power validation errors.
    pub fn run(
        &self,
        start_c: f64,
        trace: &[PowerPhase],
    ) -> Result<GridTransientResult, ThermalError> {
        if !start_c.is_finite() {
            return Err(ThermalError::InvalidParameter(format!(
                "start temperature must be finite, got {start_c}"
            )));
        }
        let n = self.model.node_count();
        let cells = n - 2;
        let time_unit = self.model.config().time_unit_seconds;
        let mut state = vec![start_c; n];
        let mut q = vec![0.0; n];
        let mut rhs = vec![0.0; n];
        let mut peak_c = state[..cells]
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        let mut steps = 0usize;

        for (phase_index, phase) in trace.iter().enumerate() {
            if phase.duration_units < 0.0 || !phase.duration_units.is_finite() {
                return Err(ThermalError::InvalidParameter(format!(
                    "phase {phase_index} has invalid duration {}",
                    phase.duration_units
                )));
            }
            self.model.validate_power(&phase.block_power)?;
            self.model.heat_input_into(&phase.block_power, &mut q);

            let mut remaining = phase.duration_units * time_unit;
            while remaining > 1e-12 {
                let dt = remaining.min(self.dt_seconds);
                let partial = (dt - self.dt_seconds).abs() > 1e-15;
                // (C/dt + G) T' = C/dt * T + Q.
                for i in 0..n {
                    rhs[i] = self.capacitance[i] / dt * state[i] + q[i];
                }
                if partial {
                    let factor = Self::implicit_factor(self.model, &self.capacitance, dt)?;
                    factor.solve_into(&mut rhs).map_err(from_sparse)?;
                } else {
                    self.factor.solve_into(&mut rhs).map_err(from_sparse)?;
                }
                state.copy_from_slice(&rhs);
                steps += 1;
                let phase_peak = state[..cells]
                    .iter()
                    .cloned()
                    .fold(f64::NEG_INFINITY, f64::max);
                peak_c = peak_c.max(phase_peak);
                remaining -= dt;
            }
        }

        let end = self.model.temperatures_from_cells(&state);
        Ok(GridTransientResult { end, peak_c, steps })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::{Block, Floorplan};
    use crate::materials::ThermalConfig;

    fn grid() -> (Floorplan, ThermalConfig) {
        let plan = Floorplan::new(vec![
            Block::from_mm("hot", 0.0, 0.0, 7.0, 7.0),
            Block::from_mm("cold", 7.0, 0.0, 7.0, 7.0),
        ])
        .unwrap();
        (plan, ThermalConfig::default())
    }

    #[test]
    fn long_constant_power_approaches_grid_steady_state() {
        let (plan, config) = grid();
        let model = GridModel::new(&plan, config, 10, 5).unwrap();
        let steady = model.steady_state(&[6.0, 1.0]).unwrap();
        let solver = GridTransientSolver::new(&model, 0.5).unwrap();
        // 100 000 time units at 10 ms = 1000 s >> the package time constant.
        let result = solver
            .run(
                config.ambient_c,
                &[PowerPhase::new(100_000.0, vec![6.0, 1.0])],
            )
            .unwrap();
        for (transient, steady) in result.end.cells().iter().zip(steady.cells()) {
            assert!((transient - steady).abs() < 0.5, "{transient} vs {steady}");
        }
        assert!(result.steps > 0);
        assert!(result.peak_c <= steady.max_c() + 0.5);
    }

    #[test]
    fn heating_then_cooling_peaks_in_the_middle() {
        let (plan, config) = grid();
        let model = GridModel::new(&plan, config, 8, 4).unwrap();
        let solver = GridTransientSolver::new(&model, 0.1).unwrap();
        let result = solver
            .run(
                config.ambient_c,
                &[
                    PowerPhase::new(2_000.0, vec![9.0, 0.0]),
                    PowerPhase::new(2_000.0, vec![0.0, 0.0]),
                ],
            )
            .unwrap();
        assert!(result.peak_c > result.end.max_c());
        assert!(result.end.max_c() >= config.ambient_c - 1e-6);
    }

    #[test]
    fn partial_final_steps_are_integrated() {
        let (plan, config) = grid();
        let model = GridModel::new(&plan, config, 6, 3).unwrap();
        let solver = GridTransientSolver::new(&model, 0.4).unwrap();
        assert!((solver.dt_seconds() - 0.4).abs() < 1e-12);
        // 10 units * 0.01 s = 0.1 s < one nominal step: a single partial
        // step covers the whole phase.
        let result = solver
            .run(config.ambient_c, &[PowerPhase::new(10.0, vec![5.0, 5.0])])
            .unwrap();
        assert_eq!(result.steps, 1);
        assert!(result.peak_c > config.ambient_c);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let (plan, config) = grid();
        let model = GridModel::new(&plan, config, 6, 3).unwrap();
        assert!(GridTransientSolver::new(&model, 0.0).is_err());
        assert!(GridTransientSolver::new(&model, f64::NAN).is_err());
        let solver = GridTransientSolver::new(&model, 0.1).unwrap();
        assert!(solver.run(f64::NAN, &[]).is_err());
        assert!(solver
            .run(45.0, &[PowerPhase::new(-1.0, vec![1.0, 1.0])])
            .is_err());
        assert!(solver
            .run(45.0, &[PowerPhase::new(1.0, vec![1.0])])
            .is_err());
        assert!(solver
            .run(45.0, &[PowerPhase::new(1.0, vec![1.0, -2.0])])
            .is_err());
    }

    #[test]
    fn empty_trace_returns_the_initial_field() {
        let (plan, config) = grid();
        let model = GridModel::new(&plan, config, 6, 3).unwrap();
        let solver = GridTransientSolver::new(&model, 0.1).unwrap();
        let result = solver.run(60.0, &[]).unwrap();
        assert_eq!(result.steps, 0);
        for &c in result.end.cells() {
            assert_eq!(c, 60.0);
        }
    }
}
