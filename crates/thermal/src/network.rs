//! Assembly of the compact thermal RC network.
//!
//! The network follows HotSpot's block-level compact model:
//!
//! * one node per floorplan block (the silicon die),
//! * one lumped node for the heat spreader,
//! * one lumped node for the heat sink,
//! * the ambient as a fixed-temperature boundary behind the convection
//!   resistance.
//!
//! Heat dissipated in a block flows vertically into the spreader (conductance
//! proportional to the block area) and laterally into abutting blocks
//! (conductance proportional to the shared edge length over the centre
//! distance). The spreader connects to the sink, the sink to the ambient.

use crate::error::ThermalError;
use crate::floorplan::{Block, Floorplan};
use crate::linalg::{LuDecomposition, Matrix};
use crate::materials::ThermalConfig;

/// The assembled conductance/capacitance network for a floorplan.
///
/// Node ordering: block `i` is node `i`; the spreader is node
/// `block_count()`; the sink is node `block_count() + 1`.
#[derive(Debug, Clone)]
pub struct RcNetwork {
    block_count: usize,
    /// Symmetric conductance (Laplacian) matrix including the ambient term on
    /// the sink diagonal.
    conductance: Matrix,
    /// Per-node thermal capacitance, J/K.
    capacitance: Vec<f64>,
    /// Conductance from the sink node to the ambient, W/K.
    ambient_conductance: f64,
    /// Ambient temperature, °C.
    ambient_c: f64,
    /// Cached factorisation of the conductance matrix for steady-state solves.
    lu: LuDecomposition,
}

impl RcNetwork {
    /// Builds the network for a floorplan under the given configuration.
    ///
    /// # Errors
    ///
    /// Returns configuration validation errors and
    /// [`ThermalError::SingularSystem`] if the assembled matrix cannot be
    /// factorised (which indicates a disconnected or degenerate network).
    pub fn new(floorplan: &Floorplan, config: &ThermalConfig) -> Result<Self, ThermalError> {
        config.validate()?;
        let n = floorplan.block_count();
        let total = n + 2;

        // The stencil lives in `session::assemble_conductance` so this path
        // and the cached `ThermalSession` kernel stay bit-identical.
        let mut g = Matrix::zeros(total, total);
        let rects: Vec<crate::Rect> = floorplan.blocks().iter().map(Block::rect).collect();
        crate::session::assemble_conductance(&mut g, &rects, config);
        let ambient_conductance = 1.0 / config.convection_resistance;

        // Capacitances.
        let mut capacitance = Vec::with_capacity(total);
        for block in floorplan.blocks() {
            capacitance.push(config.block_capacitance(block.area()));
        }
        capacitance.push(config.spreader_capacitance);
        capacitance.push(config.sink_capacitance);

        let lu = LuDecomposition::new(&g)?;

        Ok(RcNetwork {
            block_count: n,
            conductance: g,
            capacitance,
            ambient_conductance,
            ambient_c: config.ambient_c,
            lu,
        })
    }

    /// Number of floorplan blocks (excluding package nodes).
    pub fn block_count(&self) -> usize {
        self.block_count
    }

    /// Total number of network nodes (blocks + spreader + sink).
    pub fn node_count(&self) -> usize {
        self.block_count + 2
    }

    /// Index of the spreader node.
    pub fn spreader_node(&self) -> usize {
        self.block_count
    }

    /// Index of the sink node.
    pub fn sink_node(&self) -> usize {
        self.block_count + 1
    }

    /// Ambient temperature, °C.
    pub fn ambient_c(&self) -> f64 {
        self.ambient_c
    }

    /// Conductance matrix entry between two nodes, W/K.
    pub fn conductance(&self, a: usize, b: usize) -> f64 {
        self.conductance[(a, b)]
    }

    /// Conductance from the sink node to the ambient, W/K.
    pub fn ambient_conductance(&self) -> f64 {
        self.ambient_conductance
    }

    /// Per-node thermal capacitances, J/K.
    pub fn capacitances(&self) -> &[f64] {
        &self.capacitance
    }

    /// Expands a per-block power vector into a per-node heat-input vector
    /// (package nodes dissipate no power but receive the ambient injection).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::PowerLengthMismatch`] or
    /// [`ThermalError::InvalidPower`] on malformed input.
    pub fn heat_input(&self, block_power: &[f64]) -> Result<Vec<f64>, ThermalError> {
        if block_power.len() != self.block_count {
            return Err(ThermalError::PowerLengthMismatch {
                expected: self.block_count,
                actual: block_power.len(),
            });
        }
        if let Some((i, &p)) = block_power
            .iter()
            .enumerate()
            .find(|(_, p)| !p.is_finite() || **p < 0.0)
        {
            return Err(ThermalError::InvalidPower(i, p));
        }
        let mut q = vec![0.0; self.node_count()];
        q[..self.block_count].copy_from_slice(block_power);
        q[self.block_count + 1] += self.ambient_conductance * self.ambient_c;
        Ok(q)
    }

    /// Solves the steady-state system `G T = Q` for per-node temperatures in
    /// °C.
    ///
    /// # Errors
    ///
    /// Propagates [`RcNetwork::heat_input`] validation errors.
    pub fn steady_state(&self, block_power: &[f64]) -> Result<Vec<f64>, ThermalError> {
        let q = self.heat_input(block_power)?;
        self.lu.solve(&q)
    }

    /// Computes `dT/dt` for the RK4 test reference of the transient solver:
    /// `C dT/dt = Q - G T` (the ambient injection is already part of `Q`).
    #[cfg(test)]
    pub(crate) fn derivative(&self, temperatures: &[f64], heat_input: &[f64]) -> Vec<f64> {
        let flow = self
            .conductance
            .matvec(temperatures)
            .expect("temperature vector length matches the network");
        temperatures
            .iter()
            .enumerate()
            .map(|(i, _)| (heat_input[i] - flow[i]) / self.capacitance[i])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::Block;

    fn single_block_network() -> (RcNetwork, ThermalConfig) {
        let config = ThermalConfig::default();
        let plan = Floorplan::new(vec![Block::from_mm("pe0", 0.0, 0.0, 7.0, 7.0)]).unwrap();
        (RcNetwork::new(&plan, &config).unwrap(), config)
    }

    fn quad_network() -> (RcNetwork, ThermalConfig) {
        let config = ThermalConfig::default();
        let plan = Floorplan::new(vec![
            Block::from_mm("pe0", 0.0, 0.0, 7.0, 7.0),
            Block::from_mm("pe1", 7.0, 0.0, 7.0, 7.0),
            Block::from_mm("pe2", 0.0, 7.0, 7.0, 7.0),
            Block::from_mm("pe3", 7.0, 7.0, 7.0, 7.0),
        ])
        .unwrap();
        (RcNetwork::new(&plan, &config).unwrap(), config)
    }

    #[test]
    fn single_block_matches_series_resistance() {
        let (net, config) = single_block_network();
        let power = 10.0;
        let temps = net.steady_state(&[power]).unwrap();
        let r_total = config.vertical_resistivity / 49e-6
            + config.spreader_to_sink_resistance
            + config.convection_resistance;
        let expected = config.ambient_c + power * r_total;
        assert!(
            (temps[0] - expected).abs() < 1e-6,
            "got {} expected {expected}",
            temps[0]
        );
        // Sink sits above ambient by exactly P * R_conv.
        let sink = temps[net.sink_node()];
        assert!((sink - (config.ambient_c + power * config.convection_resistance)).abs() < 1e-6);
    }

    #[test]
    fn zero_power_settles_at_ambient() {
        let (net, config) = quad_network();
        let temps = net.steady_state(&[0.0; 4]).unwrap();
        for t in temps {
            assert!((t - config.ambient_c).abs() < 1e-9);
        }
    }

    #[test]
    fn hot_block_is_hotter_than_idle_neighbours() {
        let (net, _) = quad_network();
        let temps = net.steady_state(&[8.0, 0.0, 0.0, 0.0]).unwrap();
        assert!(temps[0] > temps[1]);
        assert!(temps[0] > temps[2]);
        assert!(temps[0] > temps[3]);
        // Diagonal neighbour (no shared edge) is the coolest block.
        assert!(temps[3] <= temps[1] + 1e-9);
        assert!(temps[3] <= temps[2] + 1e-9);
    }

    #[test]
    fn energy_balance_at_the_ambient_boundary() {
        let (net, config) = quad_network();
        let power = [3.0, 5.0, 2.0, 6.0];
        let temps = net.steady_state(&power).unwrap();
        let sink = temps[net.sink_node()];
        let heat_out = (sink - config.ambient_c) * net.ambient_conductance();
        let total_power: f64 = power.iter().sum();
        assert!(
            (heat_out - total_power).abs() < 1e-6,
            "heat out {heat_out} vs power {total_power}"
        );
    }

    #[test]
    fn temperatures_increase_monotonically_with_power() {
        let (net, _) = quad_network();
        let low = net.steady_state(&[2.0, 2.0, 2.0, 2.0]).unwrap();
        let high = net.steady_state(&[4.0, 4.0, 4.0, 4.0]).unwrap();
        for (l, h) in low.iter().zip(high.iter()) {
            assert!(h > l);
        }
    }

    #[test]
    fn balanced_power_is_cooler_at_the_peak_than_concentrated_power() {
        // The same total power spread over all four PEs must yield a lower
        // maximum temperature than concentrating it on one PE — this is the
        // physical effect the thermal-aware scheduler exploits.
        let (net, _) = quad_network();
        let concentrated = net.steady_state(&[12.0, 0.0, 0.0, 0.0]).unwrap();
        let balanced = net.steady_state(&[3.0, 3.0, 3.0, 3.0]).unwrap();
        let max_conc = concentrated[..4].iter().cloned().fold(f64::MIN, f64::max);
        let max_bal = balanced[..4].iter().cloned().fold(f64::MIN, f64::max);
        assert!(max_bal < max_conc);
    }

    #[test]
    fn malformed_power_vectors_are_rejected() {
        let (net, _) = quad_network();
        assert!(matches!(
            net.steady_state(&[1.0, 2.0]),
            Err(ThermalError::PowerLengthMismatch {
                expected: 4,
                actual: 2
            })
        ));
        assert!(matches!(
            net.steady_state(&[1.0, -2.0, 0.0, 0.0]),
            Err(ThermalError::InvalidPower(1, _))
        ));
        assert!(matches!(
            net.steady_state(&[1.0, f64::INFINITY, 0.0, 0.0]),
            Err(ThermalError::InvalidPower(1, _))
        ));
    }

    #[test]
    fn network_shape_and_symmetry() {
        let (net, _) = quad_network();
        assert_eq!(net.block_count(), 4);
        assert_eq!(net.node_count(), 6);
        assert_eq!(net.spreader_node(), 4);
        assert_eq!(net.sink_node(), 5);
        for a in 0..net.node_count() {
            for b in 0..net.node_count() {
                assert!((net.conductance(a, b) - net.conductance(b, a)).abs() < 1e-12);
            }
        }
        // Abutting blocks are laterally coupled; diagonal ones are not.
        assert!(net.conductance(0, 1) < 0.0);
        assert!(net.conductance(0, 2) < 0.0);
        assert_eq!(net.conductance(0, 3), 0.0);
        assert_eq!(net.capacitances().len(), 6);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let plan = Floorplan::new(vec![Block::from_mm("pe0", 0.0, 0.0, 7.0, 7.0)]).unwrap();
        let config = ThermalConfig {
            convection_resistance: 0.0,
            ..ThermalConfig::default()
        };
        assert!(RcNetwork::new(&plan, &config).is_err());
    }
}
