//! The public thermal-model API: steady-state temperature extraction.

use std::fmt;

use crate::error::ThermalError;
use crate::floorplan::Floorplan;
use crate::materials::ThermalConfig;
use crate::network::RcNetwork;

/// Per-block temperature estimate returned by the thermal model.
///
/// Block indices follow the floorplan; package temperatures (spreader and
/// sink) are reported separately.
#[derive(Debug, Clone, PartialEq)]
pub struct Temperatures {
    block_c: Vec<f64>,
    spreader_c: f64,
    sink_c: f64,
    ambient_c: f64,
}

impl Temperatures {
    pub(crate) fn from_nodes(nodes: &[f64], block_count: usize, ambient_c: f64) -> Self {
        Temperatures {
            block_c: nodes[..block_count].to_vec(),
            spreader_c: nodes[block_count],
            sink_c: nodes[block_count + 1],
            ambient_c,
        }
    }

    pub(crate) fn to_nodes(&self) -> Vec<f64> {
        let mut nodes = self.block_c.clone();
        nodes.push(self.spreader_c);
        nodes.push(self.sink_c);
        nodes
    }

    /// Creates a uniform temperature field (every node at `value_c`), the
    /// usual initial condition for transient analyses.
    pub fn uniform(block_count: usize, value_c: f64) -> Self {
        Temperatures {
            block_c: vec![value_c; block_count],
            spreader_c: value_c,
            sink_c: value_c,
            ambient_c: value_c,
        }
    }

    /// Number of blocks covered.
    pub fn block_count(&self) -> usize {
        self.block_c.len()
    }

    /// Temperature of block `index`, °C.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::UnknownBlock`] for an out-of-range index.
    pub fn block(&self, index: usize) -> Result<f64, ThermalError> {
        self.block_c
            .get(index)
            .copied()
            .ok_or(ThermalError::UnknownBlock(index))
    }

    /// All block temperatures in floorplan order, °C.
    pub fn blocks(&self) -> &[f64] {
        &self.block_c
    }

    /// Heat-spreader temperature, °C.
    pub fn spreader_c(&self) -> f64 {
        self.spreader_c
    }

    /// Heat-sink temperature, °C.
    pub fn sink_c(&self) -> f64 {
        self.sink_c
    }

    /// Ambient temperature the estimate was computed against, °C.
    pub fn ambient_c(&self) -> f64 {
        self.ambient_c
    }

    /// Maximum block temperature, °C — the paper's "Max Temp." metric.
    pub fn max_c(&self) -> f64 {
        self.block_c
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Mean block temperature, °C — the paper's "Avg Temp." metric.
    pub fn average_c(&self) -> f64 {
        self.block_c.iter().sum::<f64>() / self.block_c.len() as f64
    }

    /// Index of the hottest block.
    pub fn hottest_block(&self) -> usize {
        self.block_c
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Difference between the hottest and the coolest block, °C; a measure of
    /// how thermally even the power distribution is.
    pub fn spread_c(&self) -> f64 {
        let min = self.block_c.iter().cloned().fold(f64::INFINITY, f64::min);
        self.max_c() - min
    }
}

impl fmt::Display for Temperatures {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "max {:.2} C, avg {:.2} C over {} blocks",
            self.max_c(),
            self.average_c(),
            self.block_c.len()
        )
    }
}

/// HotSpot-equivalent compact thermal model of a floorplan.
///
/// Construct the model once per floorplan; every call to
/// [`ThermalModel::steady_state`] then reuses the factorised network, which
/// is what makes per-scheduling-decision thermal queries affordable.
///
/// # Examples
///
/// ```
/// use tats_thermal::{Block, Floorplan, ThermalConfig, ThermalModel};
///
/// # fn main() -> Result<(), tats_thermal::ThermalError> {
/// let plan = Floorplan::new(vec![
///     Block::from_mm("pe0", 0.0, 0.0, 7.0, 7.0),
///     Block::from_mm("pe1", 7.0, 0.0, 7.0, 7.0),
/// ])?;
/// let model = ThermalModel::new(&plan, ThermalConfig::default())?;
/// let temps = model.steady_state(&[6.0, 1.0])?;
/// assert!(temps.block(0)? > temps.block(1)?);
/// assert!(temps.max_c() > temps.ambient_c());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ThermalModel {
    floorplan: Floorplan,
    config: ThermalConfig,
    network: RcNetwork,
}

impl ThermalModel {
    /// Builds the model for a floorplan under the given configuration.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation and network assembly errors.
    pub fn new(floorplan: &Floorplan, config: ThermalConfig) -> Result<Self, ThermalError> {
        let network = RcNetwork::new(floorplan, &config)?;
        Ok(ThermalModel {
            floorplan: floorplan.clone(),
            config,
            network,
        })
    }

    /// The floorplan the model was built for.
    pub fn floorplan(&self) -> &Floorplan {
        &self.floorplan
    }

    /// The configuration the model was built with.
    pub fn config(&self) -> &ThermalConfig {
        &self.config
    }

    /// The underlying RC network.
    pub fn network(&self) -> &RcNetwork {
        &self.network
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.network.block_count()
    }

    /// Steady-state temperatures for the given per-block powers (watts).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::PowerLengthMismatch`] or
    /// [`ThermalError::InvalidPower`] for malformed power vectors.
    pub fn steady_state(&self, block_power: &[f64]) -> Result<Temperatures, ThermalError> {
        let nodes = self.network.steady_state(block_power)?;
        Ok(Temperatures::from_nodes(
            &nodes,
            self.network.block_count(),
            self.config.ambient_c,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::Block;

    fn quad_model() -> ThermalModel {
        let plan = Floorplan::new(vec![
            Block::from_mm("pe0", 0.0, 0.0, 7.0, 7.0),
            Block::from_mm("pe1", 7.0, 0.0, 7.0, 7.0),
            Block::from_mm("pe2", 0.0, 7.0, 7.0, 7.0),
            Block::from_mm("pe3", 7.0, 7.0, 7.0, 7.0),
        ])
        .unwrap();
        ThermalModel::new(&plan, ThermalConfig::default()).unwrap()
    }

    #[test]
    fn steady_state_summary_statistics() {
        let model = quad_model();
        let temps = model.steady_state(&[8.0, 2.0, 2.0, 2.0]).unwrap();
        assert_eq!(temps.block_count(), 4);
        assert_eq!(temps.hottest_block(), 0);
        assert!(temps.max_c() >= temps.average_c());
        assert!(temps.average_c() > temps.ambient_c());
        assert!(temps.spread_c() > 0.0);
        assert!(temps.sink_c() > temps.ambient_c());
        assert!(temps.spreader_c() > temps.sink_c());
        assert!(temps.to_string().contains("blocks"));
    }

    #[test]
    fn temperatures_in_paper_range_for_typical_powers() {
        // Four 7x7 mm PEs dissipating 3-7 W each should land in the same
        // regime as the paper's tables (roughly 60-125 °C peak).
        let model = quad_model();
        let temps = model.steady_state(&[6.5, 4.0, 3.0, 5.0]).unwrap();
        assert!(temps.max_c() > 60.0, "max {}", temps.max_c());
        assert!(temps.max_c() < 140.0, "max {}", temps.max_c());
    }

    #[test]
    fn block_accessor_bounds() {
        let model = quad_model();
        let temps = model.steady_state(&[1.0; 4]).unwrap();
        assert!(temps.block(3).is_ok());
        assert!(matches!(temps.block(4), Err(ThermalError::UnknownBlock(4))));
    }

    #[test]
    fn uniform_temperatures_report_zero_spread() {
        let t = Temperatures::uniform(3, 45.0);
        assert_eq!(t.max_c(), 45.0);
        assert_eq!(t.average_c(), 45.0);
        assert_eq!(t.spread_c(), 0.0);
        assert_eq!(t.block_count(), 3);
    }

    #[test]
    fn model_accessors_expose_inputs() {
        let model = quad_model();
        assert_eq!(model.block_count(), 4);
        assert_eq!(model.floorplan().block_count(), 4);
        assert_eq!(model.config().ambient_c, 45.0);
        assert_eq!(model.network().block_count(), 4);
    }

    #[test]
    fn errors_propagate_from_network() {
        let model = quad_model();
        assert!(model.steady_state(&[1.0, 2.0]).is_err());
    }
}
