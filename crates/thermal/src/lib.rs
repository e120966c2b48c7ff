//! HotSpot-equivalent compact thermal modelling.
//!
//! The thermal-aware allocation and scheduling procedure of *Hung et al.,
//! DATE 2005* queries the HotSpot thermal model for the temperature of every
//! processing element given a floorplan and per-block power consumptions.
//! This crate is a from-scratch Rust implementation of the same class of
//! model:
//!
//! * [`Floorplan`] / [`Block`] — validated die geometry,
//! * [`ThermalConfig`] — material and package constants (HotSpot-like
//!   defaults),
//! * [`ThermalModel`] — block-level lumped-RC steady-state model (vertical
//!   conductance per block, lateral conductances between abutting blocks,
//!   spreader/sink/ambient stack): a [`ThermalSession`] loaded once with the
//!   floorplan, which owns the conductance matrix, its LU factor and the
//!   heat input. The block influence matrix `R`, solved once from that
//!   factor, serves the scheduler's per-candidate inquiries
//!   ([`ThermalModel::influence_column`]); [`ThermalModel::steady_state`]
//!   serves schedule evaluation,
//! * [`ThermalSession`] — the same kernel reloaded per candidate placement,
//!   allocation-free, for the floorplanner's inner loop,
//! * [`TransientSolver`] — time-domain integration of piecewise-constant
//!   power traces (backward Euler),
//! * [`GridModel`] — finer grid-refined steady-state model used for
//!   validation. Its cells are uniform silicon with flux-free edges, so
//!   the 2-D DCT-II diagonalises its system exactly: the model solves once
//!   per block for the cells' response to one watt and keeps the
//!   responses, as [`ThermalModel`] keeps `R`, and every query is a sum of
//!   responses over the spreader temperature. Each side holds at most
//!   [`MAX_GRID_SIDE`] cells.
//!
//! One solver, private to this crate, backs the other models: a small
//! dense LU factorises the block model's conductance matrix and the
//! transient solver's backward-Euler system. The grid factorises nothing.
//!
//! # Examples
//!
//! ```
//! use tats_thermal::{Block, Floorplan, ThermalConfig, ThermalModel};
//!
//! # fn main() -> Result<(), tats_thermal::ThermalError> {
//! // Four identical PEs in a 2x2 arrangement, one of them heavily loaded.
//! let plan = Floorplan::new(vec![
//!     Block::from_mm("pe0", 0.0, 0.0, 7.0, 7.0),
//!     Block::from_mm("pe1", 7.0, 0.0, 7.0, 7.0),
//!     Block::from_mm("pe2", 0.0, 7.0, 7.0, 7.0),
//!     Block::from_mm("pe3", 7.0, 7.0, 7.0, 7.0),
//! ])?;
//! let model = ThermalModel::new(&plan, ThermalConfig::default())?;
//! let temps = model.steady_state(&[9.0, 1.0, 1.0, 1.0])?;
//! assert_eq!(temps.hottest_block(), 0);
//! assert!(temps.max_c() > temps.average_c());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod error;
mod floorplan;
mod grid;
mod linalg;
mod materials;
mod model;
mod network;
mod session;
mod transient;

pub use error::ThermalError;
pub use floorplan::{Block, Floorplan};
pub use grid::{GridModel, GridSolver, GridTemperatures, GridWorkspace, MAX_GRID_SIDE};
pub use materials::ThermalConfig;
pub use model::{Temperatures, ThermalModel};
pub use session::{Rect, ThermalSession};
pub use transient::{PowerPhase, TransientSolver};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

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

    proptest! {
        /// Every block temperature stays at or above ambient for any
        /// non-negative power assignment, and the total heat flowing into the
        /// ambient equals the total dissipated power (energy conservation).
        #[test]
        fn steady_state_is_physical(
            p0 in 0.0f64..15.0,
            p1 in 0.0f64..15.0,
            p2 in 0.0f64..15.0,
            p3 in 0.0f64..15.0,
        ) {
            let model = quad_model();
            let power = [p0, p1, p2, p3];
            let temps = model.steady_state(&power).unwrap();
            for i in 0..4 {
                prop_assert!(temps.block(i).unwrap() >= temps.ambient_c() - 1e-9);
            }
            let heat_out =
                (temps.sink_c() - temps.ambient_c()) / model.config().convection_resistance;
            let total: f64 = power.iter().sum();
            prop_assert!((heat_out - total).abs() < 1e-6);
        }

        /// Adding power to one block never cools any block (monotonicity of
        /// the resistive network).
        #[test]
        fn more_power_never_cools(
            base in proptest::collection::vec(0.0f64..8.0, 4),
            extra in 0.1f64..8.0,
            which in 0usize..4,
        ) {
            let model = quad_model();
            let before = model.steady_state(&base).unwrap();
            let mut bumped = base.clone();
            bumped[which] += extra;
            let after = model.steady_state(&bumped).unwrap();
            for i in 0..4 {
                prop_assert!(after.block(i).unwrap() >= before.block(i).unwrap() - 1e-9);
            }
            prop_assert!(after.block(which).unwrap() > before.block(which).unwrap());
        }

        /// The superposition principle holds: temperatures rise linearly in
        /// the power vector (the network is linear).
        #[test]
        fn superposition_holds(
            a in proptest::collection::vec(0.0f64..6.0, 4),
            b in proptest::collection::vec(0.0f64..6.0, 4),
        ) {
            let model = quad_model();
            let ta = model.steady_state(&a).unwrap();
            let tb = model.steady_state(&b).unwrap();
            let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
            let tsum = model.steady_state(&sum).unwrap();
            let ambient = model.config().ambient_c;
            for i in 0..4 {
                let expected = ta.block(i).unwrap() + tb.block(i).unwrap() - ambient;
                prop_assert!((tsum.block(i).unwrap() - expected).abs() < 1e-6);
            }
        }

        /// On asymmetric floorplans (one or two rows of 1–6 blocks with
        /// random sizes, so no symmetry hides an index mix-up in `R`) the
        /// influence matrix reproduces the LU solve: `ambient + R·P` is the
        /// block part of `steady_state(P)`, and moving block `k`'s power by
        /// `Δ` moves the temperatures by `Δ·R[:, k]`.
        #[test]
        fn influence_matrix_matches_the_lu_solve(
            widths in proptest::collection::vec(2.0f64..9.0, 1..=6),
            heights in (2.0f64..9.0, 2.0f64..9.0),
            two_rows in any::<bool>(),
            power in proptest::collection::vec(0.0f64..15.0, 6),
            which in 0usize..6,
            moved in 0.0f64..15.0,
        ) {
            let n = widths.len();
            let first_row = if two_rows { n.div_ceil(2) } else { n };
            let mut x = [0.0; 2];
            let blocks = widths
                .iter()
                .enumerate()
                .map(|(i, &w)| {
                    let row = usize::from(i >= first_row);
                    let (y, h) = if row == 0 { (0.0, heights.0) } else { (heights.0, heights.1) };
                    x[row] += w;
                    Block::from_mm(format!("b{i}"), x[row] - w, y, w, h)
                })
                .collect();
            let model = ThermalModel::new(&Floorplan::new(blocks).unwrap(), ThermalConfig::default())
                .unwrap();
            let power = &power[..n];
            let ambient = model.config().ambient_c;
            let before = model.steady_state(power).unwrap();
            for (i, &solved) in before.blocks().iter().enumerate() {
                let rise: f64 = (0..n).map(|j| power[j] * model.influence_column(j)[i]).sum();
                prop_assert!((ambient + rise - solved).abs() < 1e-9, "block {i}");
            }
            let k = which % n;
            let mut bumped = power.to_vec();
            bumped[k] = moved;
            let after = model.steady_state(&bumped).unwrap();
            let delta = moved - power[k];
            for (i, &solved) in after.blocks().iter().enumerate() {
                let updated = before.blocks()[i] + delta * model.influence_column(k)[i];
                prop_assert!((updated - solved).abs() < 1e-9, "block {i}");
            }
        }
    }
}
