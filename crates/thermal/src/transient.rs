//! Transient (time-domain) thermal analysis.
//!
//! The scheduler mostly relies on steady-state queries (as the paper's
//! thermal-aware ASP does), but validating a schedule — and the ablation
//! benches — also need the time-domain response: given a piecewise-constant
//! power trace per block, integrate `C dT/dt = Q - G T` over time.
//!
//! The integrator is implicit backward Euler: unconditionally stable and
//! first-order accurate. The tests cross-check it on short horizons against
//! an explicit fourth-order Runge–Kutta reference.

use crate::error::ThermalError;
use crate::linalg::{LuDecomposition, Matrix};
use crate::model::{Temperatures, ThermalModel};
use crate::network::RcNetwork;

/// One segment of a piecewise-constant power trace.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerPhase {
    /// Duration of the phase in schedule time units (converted to seconds via
    /// [`crate::ThermalConfig::time_unit_seconds`]).
    pub duration_units: f64,
    /// Per-block power during the phase, watts.
    pub block_power: Vec<f64>,
}

impl PowerPhase {
    /// Creates a phase of the given duration and per-block power.
    pub fn new(duration_units: f64, block_power: Vec<f64>) -> Self {
        PowerPhase {
            duration_units,
            block_power,
        }
    }
}

/// Backward-Euler transient solver bound to a [`ThermalModel`].
#[derive(Debug, Clone)]
pub struct TransientSolver<'a> {
    model: &'a ThermalModel,
    /// Integration step in seconds.
    dt_seconds: f64,
}

impl<'a> TransientSolver<'a> {
    /// Creates a solver with a 10 ms step.
    pub fn new(model: &'a ThermalModel) -> Self {
        TransientSolver {
            model,
            dt_seconds: 0.01,
        }
    }

    /// Overrides the integration step (seconds).
    pub fn with_step(mut self, dt_seconds: f64) -> Self {
        self.dt_seconds = dt_seconds;
        self
    }

    /// Integrates the power trace starting from `initial` and returns the
    /// temperature field at the end of the trace.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] for a non-positive step or
    /// malformed phases and propagates power-vector validation errors.
    pub fn run(
        &self,
        initial: &Temperatures,
        trace: &[PowerPhase],
    ) -> Result<Temperatures, ThermalError> {
        if self.dt_seconds <= 0.0 || !self.dt_seconds.is_finite() {
            return Err(ThermalError::InvalidParameter(format!(
                "time step must be positive, got {}",
                self.dt_seconds
            )));
        }
        if initial.block_count() != self.model.block_count() {
            return Err(ThermalError::PowerLengthMismatch {
                expected: self.model.block_count(),
                actual: initial.block_count(),
            });
        }
        let network = self.model.network();
        let time_unit = self.model.config().time_unit_seconds;
        let mut state = initial.to_nodes();

        // Pre-factorise (C/dt + G) once; the matrix does not change between
        // phases.
        let implicit_lu = LuDecomposition::new(&implicit_matrix(network, self.dt_seconds))?;

        for (phase_index, phase) in trace.iter().enumerate() {
            if phase.duration_units < 0.0 || !phase.duration_units.is_finite() {
                return Err(ThermalError::InvalidParameter(format!(
                    "phase {phase_index} has invalid duration {}",
                    phase.duration_units
                )));
            }
            let q = network.heat_input(&phase.block_power)?;
            let mut remaining = phase.duration_units * time_unit;
            while remaining > 1e-12 {
                let dt = remaining.min(self.dt_seconds);
                // (C/dt + G) T' = C/dt * T + Q.  The pre-factorised matrix
                // uses the nominal dt; for the final partial step fall back
                // to an ad-hoc factorisation.
                let rhs: Vec<f64> = state
                    .iter()
                    .enumerate()
                    .map(|(i, &t)| network.capacitances()[i] / dt * t + q[i])
                    .collect();
                state = if (dt - self.dt_seconds).abs() < 1e-15 {
                    implicit_lu.solve(&rhs)?
                } else {
                    implicit_matrix(network, dt).solve(&rhs)?
                };
                remaining -= dt;
            }
        }

        Ok(Temperatures::from_nodes(
            &state,
            self.model.block_count(),
            self.model.config().ambient_c,
        ))
    }
}

/// `C/dt + G`, the backward-Euler system matrix for a step of `dt` seconds.
fn implicit_matrix(network: &RcNetwork, dt: f64) -> Matrix {
    let n = network.node_count();
    let mut m = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            m[(i, j)] = network.conductance(i, j);
        }
        m.add_to(i, i, network.capacitances()[i] / dt);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::{Block, Floorplan};
    use crate::materials::ThermalConfig;
    use crate::model::ThermalModel;

    /// Explicit classical Runge–Kutta integration of the same trace: fourth
    /// order accurate, but only stable for steps small against the fastest
    /// thermal time constant. The reference the backward-Euler solver is
    /// checked against on short horizons.
    fn rk4_reference(
        model: &ThermalModel,
        initial: &Temperatures,
        trace: &[PowerPhase],
        dt_seconds: f64,
    ) -> Temperatures {
        let network = model.network();
        let time_unit = model.config().time_unit_seconds;
        let mut state = initial.to_nodes();
        for phase in trace {
            let q = network.heat_input(&phase.block_power).unwrap();
            let mut remaining = phase.duration_units * time_unit;
            while remaining > 1e-12 {
                let dt = remaining.min(dt_seconds);
                let k1 = network.derivative(&state, &q);
                let s2: Vec<f64> = state
                    .iter()
                    .zip(&k1)
                    .map(|(t, k)| t + 0.5 * dt * k)
                    .collect();
                let k2 = network.derivative(&s2, &q);
                let s3: Vec<f64> = state
                    .iter()
                    .zip(&k2)
                    .map(|(t, k)| t + 0.5 * dt * k)
                    .collect();
                let k3 = network.derivative(&s3, &q);
                let s4: Vec<f64> = state.iter().zip(&k3).map(|(t, k)| t + dt * k).collect();
                let k4 = network.derivative(&s4, &q);
                for i in 0..state.len() {
                    state[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
                }
                remaining -= dt;
            }
        }
        Temperatures::from_nodes(&state, model.block_count(), model.config().ambient_c)
    }

    fn model() -> ThermalModel {
        let plan = Floorplan::new(vec![
            Block::from_mm("pe0", 0.0, 0.0, 7.0, 7.0),
            Block::from_mm("pe1", 7.0, 0.0, 7.0, 7.0),
        ])
        .unwrap();
        ThermalModel::new(&plan, ThermalConfig::default()).unwrap()
    }

    #[test]
    fn long_constant_power_approaches_steady_state() {
        let model = model();
        let steady = model.steady_state(&[5.0, 2.0]).unwrap();
        let start = Temperatures::uniform(2, model.config().ambient_c);
        // 100 000 time units at 10 ms each = 1000 s, far beyond the slowest
        // package time constant (~tens of seconds).
        let trace = vec![PowerPhase::new(100_000.0, vec![5.0, 2.0])];
        let end = TransientSolver::new(&model)
            .with_step(0.5)
            .run(&start, &trace)
            .unwrap();
        assert!((end.block(0).unwrap() - steady.block(0).unwrap()).abs() < 0.5);
        assert!((end.block(1).unwrap() - steady.block(1).unwrap()).abs() < 0.5);
    }

    #[test]
    fn temperature_rises_monotonically_from_ambient() {
        let model = model();
        let start = Temperatures::uniform(2, model.config().ambient_c);
        let solver = TransientSolver::new(&model).with_step(0.05);
        let after_short = solver
            .run(&start, &[PowerPhase::new(50.0, vec![6.0, 6.0])])
            .unwrap();
        let after_long = solver
            .run(&start, &[PowerPhase::new(500.0, vec![6.0, 6.0])])
            .unwrap();
        assert!(after_short.max_c() > model.config().ambient_c);
        assert!(after_long.max_c() > after_short.max_c());
    }

    #[test]
    fn cooling_phase_reduces_temperature() {
        let model = model();
        let start = Temperatures::uniform(2, model.config().ambient_c);
        let solver = TransientSolver::new(&model).with_step(0.05);
        let heated = solver
            .run(&start, &[PowerPhase::new(500.0, vec![8.0, 8.0])])
            .unwrap();
        let cooled = solver
            .run(&heated, &[PowerPhase::new(500.0, vec![0.0, 0.0])])
            .unwrap();
        assert!(cooled.max_c() < heated.max_c());
        assert!(cooled.max_c() >= model.config().ambient_c - 1e-6);
    }

    #[test]
    fn rk4_and_backward_euler_agree_on_short_horizons() {
        let model = model();
        let start = Temperatures::uniform(2, model.config().ambient_c);
        let trace = vec![PowerPhase::new(20.0, vec![4.0, 1.0])];
        let be = TransientSolver::new(&model)
            .with_step(0.002)
            .run(&start, &trace)
            .unwrap();
        let rk = rk4_reference(&model, &start, &trace, 0.002);
        assert!((be.block(0).unwrap() - rk.block(0).unwrap()).abs() < 0.2);
        assert!((be.block(1).unwrap() - rk.block(1).unwrap()).abs() < 0.2);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let model = model();
        let start = Temperatures::uniform(2, 45.0);
        assert!(TransientSolver::new(&model)
            .with_step(0.0)
            .run(&start, &[])
            .is_err());
        assert!(TransientSolver::new(&model)
            .run(&start, &[PowerPhase::new(-1.0, vec![1.0, 1.0])])
            .is_err());
        assert!(TransientSolver::new(&model)
            .run(&start, &[PowerPhase::new(1.0, vec![1.0])])
            .is_err());
        let wrong_start = Temperatures::uniform(3, 45.0);
        assert!(TransientSolver::new(&model)
            .run(&wrong_start, &[PowerPhase::new(1.0, vec![1.0, 1.0])])
            .is_err());
    }

    #[test]
    fn empty_trace_returns_initial_state() {
        let model = model();
        let start = Temperatures::uniform(2, 60.0);
        let end = TransientSolver::new(&model).run(&start, &[]).unwrap();
        assert_eq!(end.block(0).unwrap(), 60.0);
        assert_eq!(end.block(1).unwrap(), 60.0);
    }
}
