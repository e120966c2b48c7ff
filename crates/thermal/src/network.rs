//! The compact thermal RC network: its conductance stencil and heat input.
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
//!
//! Node ordering: block `i` is node `i`, then the spreader, then the sink.
//! [`crate::ThermalSession`] owns the assembled matrix and its factor;
//! [`crate::ThermalModel`] is a session loaded once with a floorplan.

use crate::error::ThermalError;
use crate::linalg::Matrix;
use crate::materials::ThermalConfig;
use crate::session::Rect;

/// Assembles the compact-model conductance matrix for `rects` into `g`
/// (resetting it first). The ambient term sits on the sink diagonal.
pub(crate) fn assemble_conductance(g: &mut Matrix, rects: &[Rect], config: &ThermalConfig) {
    let n = rects.len();
    let spreader = n;
    let sink = n + 1;
    debug_assert_eq!(g.rows(), n + 2);
    debug_assert_eq!(g.cols(), n + 2);
    g.fill_zero();

    let add_conductance = |g: &mut Matrix, a: usize, b: usize, value: f64| {
        if value <= 0.0 {
            return;
        }
        g.add_to(a, a, value);
        g.add_to(b, b, value);
        g.add_to(a, b, -value);
        g.add_to(b, a, -value);
    };

    // Vertical paths: block -> spreader.
    for (i, rect) in rects.iter().enumerate() {
        let gv = config.vertical_conductance(rect.area());
        add_conductance(g, i, spreader, gv);
    }

    // Lateral paths between abutting blocks.
    for i in 0..n {
        for j in (i + 1)..n {
            let shared = rects[i].shared_edge_length(&rects[j]);
            if shared > 0.0 {
                let dist = rects[i].center_distance(&rects[j]);
                let gl = config.lateral_conductance(dist, shared);
                add_conductance(g, i, j, gl);
            }
        }
    }

    // Package path: spreader -> sink -> ambient.
    add_conductance(g, spreader, sink, 1.0 / config.spreader_to_sink_resistance);
    // The ambient is a Dirichlet boundary: it only contributes to the sink's
    // diagonal and to the right-hand side of the solve.
    g.add_to(sink, sink, 1.0 / config.convection_resistance);
}

/// Writes the heat-input vector of `block_power` into `q`, one entry per
/// node: the block powers, nothing on the spreader, and the ambient
/// injection on the sink.
///
/// # Errors
///
/// Returns [`ThermalError::PowerLengthMismatch`] unless `block_power` has one
/// entry per block (`q.len() - 2`), and [`ThermalError::InvalidPower`] for a
/// negative or non-finite entry.
pub(crate) fn heat_input_into(
    config: &ThermalConfig,
    block_power: &[f64],
    q: &mut [f64],
) -> Result<(), ThermalError> {
    let block_count = q.len() - 2;
    if block_power.len() != block_count {
        return Err(ThermalError::PowerLengthMismatch {
            expected: block_count,
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
    q[..block_count].copy_from_slice(block_power);
    q[block_count] = 0.0;
    q[block_count + 1] = (1.0 / config.convection_resistance) * config.ambient_c;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::{Block, Floorplan};
    use crate::model::ThermalModel;

    fn single_block_model() -> (ThermalModel, ThermalConfig) {
        let config = ThermalConfig::default();
        let plan = Floorplan::new(vec![Block::from_mm("pe0", 0.0, 0.0, 7.0, 7.0)]).unwrap();
        (ThermalModel::new(&plan, config).unwrap(), config)
    }

    fn quad_model() -> (ThermalModel, ThermalConfig) {
        let config = ThermalConfig::default();
        let plan = Floorplan::new(vec![
            Block::from_mm("pe0", 0.0, 0.0, 7.0, 7.0),
            Block::from_mm("pe1", 7.0, 0.0, 7.0, 7.0),
            Block::from_mm("pe2", 0.0, 7.0, 7.0, 7.0),
            Block::from_mm("pe3", 7.0, 7.0, 7.0, 7.0),
        ])
        .unwrap();
        (ThermalModel::new(&plan, config).unwrap(), config)
    }

    /// Every node temperature: blocks, then spreader, then sink.
    fn nodes(model: &ThermalModel, power: &[f64]) -> Vec<f64> {
        model.steady_state(power).unwrap().to_nodes()
    }

    #[test]
    fn single_block_matches_series_resistance() {
        let (model, config) = single_block_model();
        let power = 10.0;
        let temps = model.steady_state(&[power]).unwrap();
        let r_total = config.vertical_resistivity / 49e-6
            + config.spreader_to_sink_resistance
            + config.convection_resistance;
        let expected = config.ambient_c + power * r_total;
        let block = temps.block(0).unwrap();
        assert!(
            (block - expected).abs() < 1e-6,
            "got {block} expected {expected}"
        );
        // Sink sits above ambient by exactly P * R_conv.
        let sink = temps.sink_c();
        assert!((sink - (config.ambient_c + power * config.convection_resistance)).abs() < 1e-6);
    }

    #[test]
    fn zero_power_settles_at_ambient() {
        let (model, config) = quad_model();
        for t in nodes(&model, &[0.0; 4]) {
            assert!((t - config.ambient_c).abs() < 1e-9);
        }
    }

    #[test]
    fn hot_block_is_hotter_than_idle_neighbours() {
        let (model, _) = quad_model();
        let temps = nodes(&model, &[8.0, 0.0, 0.0, 0.0]);
        assert!(temps[0] > temps[1]);
        assert!(temps[0] > temps[2]);
        assert!(temps[0] > temps[3]);
        // Diagonal neighbour (no shared edge) is the coolest block.
        assert!(temps[3] <= temps[1] + 1e-9);
        assert!(temps[3] <= temps[2] + 1e-9);
    }

    #[test]
    fn energy_balance_at_the_ambient_boundary() {
        let (model, config) = quad_model();
        let power = [3.0, 5.0, 2.0, 6.0];
        let sink = model.steady_state(&power).unwrap().sink_c();
        let heat_out = (sink - config.ambient_c) / config.convection_resistance;
        let total_power: f64 = power.iter().sum();
        assert!(
            (heat_out - total_power).abs() < 1e-6,
            "heat out {heat_out} vs power {total_power}"
        );
    }

    #[test]
    fn temperatures_increase_monotonically_with_power() {
        let (model, _) = quad_model();
        let low = nodes(&model, &[2.0, 2.0, 2.0, 2.0]);
        let high = nodes(&model, &[4.0, 4.0, 4.0, 4.0]);
        for (l, h) in low.iter().zip(high.iter()) {
            assert!(h > l);
        }
    }

    #[test]
    fn balanced_power_is_cooler_at_the_peak_than_concentrated_power() {
        // The same total power spread over all four PEs must yield a lower
        // maximum temperature than concentrating it on one PE — this is the
        // physical effect the thermal-aware scheduler exploits.
        let (model, _) = quad_model();
        let concentrated = model.steady_state(&[12.0, 0.0, 0.0, 0.0]).unwrap();
        let balanced = model.steady_state(&[3.0, 3.0, 3.0, 3.0]).unwrap();
        assert!(balanced.max_c() < concentrated.max_c());
    }

    #[test]
    fn malformed_power_vectors_are_rejected() {
        let (model, _) = quad_model();
        assert!(matches!(
            model.steady_state(&[1.0, 2.0]),
            Err(ThermalError::PowerLengthMismatch {
                expected: 4,
                actual: 2
            })
        ));
        assert!(matches!(
            model.steady_state(&[1.0, -2.0, 0.0, 0.0]),
            Err(ThermalError::InvalidPower(1, _))
        ));
        assert!(matches!(
            model.steady_state(&[1.0, f64::INFINITY, 0.0, 0.0]),
            Err(ThermalError::InvalidPower(1, _))
        ));
    }

    #[test]
    fn network_shape_and_symmetry() {
        let (model, _) = quad_model();
        let g = model.conductance();
        assert_eq!(model.block_count(), 4);
        assert_eq!((g.rows(), g.cols()), (6, 6));
        for a in 0..6 {
            for b in 0..6 {
                assert!((g[(a, b)] - g[(b, a)]).abs() < 1e-12);
            }
        }
        // Abutting blocks are laterally coupled; diagonal ones are not.
        assert!(g[(0, 1)] < 0.0);
        assert!(g[(0, 2)] < 0.0);
        assert_eq!(g[(0, 3)], 0.0);
        assert_eq!(model.capacitances().len(), 6);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let plan = Floorplan::new(vec![Block::from_mm("pe0", 0.0, 0.0, 7.0, 7.0)]).unwrap();
        let config = ThermalConfig {
            convection_resistance: 0.0,
            ..ThermalConfig::default()
        };
        assert!(ThermalModel::new(&plan, config).is_err());
    }
}
