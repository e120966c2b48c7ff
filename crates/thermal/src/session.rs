//! The cached thermal evaluation kernel.
//!
//! The floorplanner's inner loop evaluates thousands of candidate placements,
//! and each evaluation needs one steady-state solve of the compact RC model.
//! Building a fresh [`crate::ThermalModel`] per candidate re-allocates the
//! conductance matrix, the LU workspace, the capacitance vector and a
//! `String` per block name — none of which actually depend on the candidate.
//! Only the *entries* of the conductance matrix move with the placement.
//!
//! [`ThermalSession`] keeps the matrix storage, the LU workspace and the
//! solution vector alive across evaluations: per candidate it re-assembles
//! the position-dependent conductance entries in place, re-factorises into
//! the existing workspace and solves in place. The steady-state query path
//! ([`crate::linalg::LuDecomposition::solve_into`]) performs zero heap
//! allocations.

use crate::error::ThermalError;
use crate::linalg::{LuDecomposition, Matrix};
use crate::materials::ThermalConfig;

/// Plain block geometry (metres), without the name `String` a
/// [`crate::Block`] carries. This is what the hot loop hands to the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Rect {
    /// Left edge, metres.
    pub x: f64,
    /// Bottom edge, metres.
    pub y: f64,
    /// Width, metres.
    pub width: f64,
    /// Height, metres.
    pub height: f64,
}

impl Rect {
    /// Creates a rectangle from metre-denominated geometry.
    pub fn new(x: f64, y: f64, width: f64, height: f64) -> Self {
        Rect {
            x,
            y,
            width,
            height,
        }
    }

    /// Area, square metres.
    pub fn area(&self) -> f64 {
        self.width * self.height
    }

    /// Centre coordinates, metres.
    pub fn center(&self) -> (f64, f64) {
        (self.x + self.width / 2.0, self.y + self.height / 2.0)
    }

    /// Length of the edge shared with `other`, in metres; zero when the
    /// rectangles do not abut. This is the single definition of the
    /// predicate; [`crate::Block::shared_edge_length`] delegates here.
    pub fn shared_edge_length(&self, other: &Rect) -> f64 {
        let eps = 1e-9;
        // Vertical contact: right edge of one touches left edge of the other.
        let touches_vertically = (self.x + self.width - other.x).abs() < eps
            || (other.x + other.width - self.x).abs() < eps;
        if touches_vertically {
            let overlap = (self.y + self.height).min(other.y + other.height) - self.y.max(other.y);
            if overlap > eps {
                return overlap;
            }
        }
        // Horizontal contact: top edge of one touches bottom edge of the other.
        let touches_horizontally = (self.y + self.height - other.y).abs() < eps
            || (other.y + other.height - self.y).abs() < eps;
        if touches_horizontally {
            let overlap = (self.x + self.width).min(other.x + other.width) - self.x.max(other.x);
            if overlap > eps {
                return overlap;
            }
        }
        0.0
    }

    /// Euclidean distance between rectangle centres, metres.
    pub fn center_distance(&self, other: &Rect) -> f64 {
        let (ax, ay) = self.center();
        let (bx, by) = other.center();
        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
    }
}

/// Assembles the compact-model conductance matrix for `rects` into `g`
/// (resetting it first). Node ordering matches [`crate::RcNetwork`]: block
/// `i` is node `i`, then the spreader, then the sink. The ambient term sits
/// on the sink diagonal.
///
/// This is the single source of truth for the matrix stencil: both
/// [`crate::RcNetwork::new`] and [`ThermalSession`] call it, so the cached
/// kernel is bit-identical to the rebuild-from-scratch path.
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

/// A reusable thermal evaluation kernel for a fixed block count.
///
/// Construct it once per optimisation run; per candidate placement call
/// [`ThermalSession::load_geometry`] followed by one or more
/// [`ThermalSession::solve`] calls (or the combined
/// [`ThermalSession::peak_temperature`]). All storage — matrix, LU workspace,
/// right-hand side — lives for the whole session; the solve path allocates
/// nothing.
///
/// The geometry is **not** validated against overlaps (slicing-tree
/// placements are non-overlapping by construction); callers handing over
/// arbitrary geometry should validate it with
/// [`Floorplan::new`](crate::Floorplan::new) first.
///
/// # Examples
///
/// ```
/// use tats_thermal::{Rect, ThermalConfig, ThermalSession};
///
/// # fn main() -> Result<(), tats_thermal::ThermalError> {
/// let mut session = ThermalSession::new(2, ThermalConfig::default())?;
/// let rects = [
///     Rect::new(0.0, 0.0, 7e-3, 7e-3),
///     Rect::new(7e-3, 0.0, 7e-3, 7e-3),
/// ];
/// session.load_geometry(&rects)?;
/// let nodes = session.solve(&[6.0, 1.0])?;
/// assert!(nodes[0] > nodes[1]); // the hot block is hotter
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ThermalSession {
    config: ThermalConfig,
    block_count: usize,
    geometry_loaded: bool,
    g: Matrix,
    lu: LuDecomposition,
    nodes: Vec<f64>,
}

impl ThermalSession {
    /// Creates a kernel for floorplans of exactly `block_count` blocks.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::EmptyFloorplan`] for a zero block count and
    /// propagates configuration validation errors.
    pub fn new(block_count: usize, config: ThermalConfig) -> Result<Self, ThermalError> {
        if block_count == 0 {
            return Err(ThermalError::EmptyFloorplan);
        }
        config.validate()?;
        let total = block_count + 2;
        Ok(ThermalSession {
            config,
            block_count,
            geometry_loaded: false,
            g: Matrix::zeros(total, total),
            lu: LuDecomposition::placeholder(total),
            nodes: vec![0.0; total],
        })
    }

    /// Number of blocks the kernel was sized for.
    pub fn block_count(&self) -> usize {
        self.block_count
    }

    /// The configuration in effect.
    pub fn config(&self) -> &ThermalConfig {
        &self.config
    }

    /// Loads a candidate placement: re-assembles the position-dependent
    /// conductance entries and re-factorises, reusing all storage.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] when `rects.len()` differs
    /// from the session's block count and [`ThermalError::SingularSystem`]
    /// for degenerate geometry.
    pub fn load_geometry(&mut self, rects: &[Rect]) -> Result<(), ThermalError> {
        if rects.len() != self.block_count {
            return Err(ThermalError::InvalidParameter(format!(
                "session sized for {} blocks, got {}",
                self.block_count,
                rects.len()
            )));
        }
        self.geometry_loaded = false;
        assemble_conductance(&mut self.g, rects, &self.config);
        self.lu.refactor(&self.g)?;
        self.geometry_loaded = true;
        Ok(())
    }

    /// Steady-state node temperatures (°C) for the loaded geometry: blocks in
    /// index order, then spreader, then sink. The returned slice borrows the
    /// session's internal buffer; the whole query performs zero heap
    /// allocations.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] when no geometry has been
    /// loaded, and [`ThermalError::PowerLengthMismatch`] /
    /// [`ThermalError::InvalidPower`] for malformed power vectors.
    pub fn solve(&mut self, block_power: &[f64]) -> Result<&[f64], ThermalError> {
        if !self.geometry_loaded {
            return Err(ThermalError::InvalidParameter(
                "no geometry loaded into the thermal session".to_string(),
            ));
        }
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
        // Build the heat-input vector in place, mirroring
        // `RcNetwork::heat_input`.
        self.nodes[..self.block_count].copy_from_slice(block_power);
        self.nodes[self.block_count] = 0.0;
        // `(1/R) * T`, not `T / R`: keeps the injection bit-identical to
        // `RcNetwork::heat_input`, which multiplies by a stored conductance.
        self.nodes[self.block_count + 1] =
            (1.0 / self.config.convection_resistance) * self.config.ambient_c;
        self.lu.solve_into(&mut self.nodes)?;
        Ok(&self.nodes)
    }

    /// Convenience: loads `rects` and returns the peak *block* temperature
    /// (°C) under `block_power` — the quantity the floorplanner's cost
    /// function needs.
    ///
    /// # Errors
    ///
    /// Combines the errors of [`ThermalSession::load_geometry`] and
    /// [`ThermalSession::solve`].
    pub fn peak_temperature(
        &mut self,
        rects: &[Rect],
        block_power: &[f64],
    ) -> Result<f64, ThermalError> {
        self.load_geometry(rects)?;
        let blocks = &self.solve(block_power)?[..rects.len()];
        Ok(blocks.iter().copied().fold(f64::NEG_INFINITY, f64::max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::{Block, Floorplan};
    use crate::model::ThermalModel;

    fn quad_rects() -> Vec<Rect> {
        vec![
            Rect::new(0.0, 0.0, 7e-3, 7e-3),
            Rect::new(7e-3, 0.0, 7e-3, 7e-3),
            Rect::new(0.0, 7e-3, 7e-3, 7e-3),
            Rect::new(7e-3, 7e-3, 7e-3, 7e-3),
        ]
    }

    fn quad_plan() -> Floorplan {
        Floorplan::new(vec![
            Block::from_mm("pe0", 0.0, 0.0, 7.0, 7.0),
            Block::from_mm("pe1", 7.0, 0.0, 7.0, 7.0),
            Block::from_mm("pe2", 0.0, 7.0, 7.0, 7.0),
            Block::from_mm("pe3", 7.0, 7.0, 7.0, 7.0),
        ])
        .unwrap()
    }

    #[test]
    fn rect_geometry_matches_block_geometry() {
        let a = Block::from_mm("a", 0.0, 0.0, 5.0, 5.0);
        let b = Block::from_mm("b", 5.0, 2.0, 5.0, 5.0);
        let ra = Rect::new(0.0, 0.0, 5e-3, 5e-3);
        let rb = Rect::new(5e-3, 2e-3, 5e-3, 5e-3);
        assert_eq!(ra.shared_edge_length(&rb), a.shared_edge_length(&b));
        assert_eq!(ra.center_distance(&rb), a.center_distance(&b));
        assert_eq!(ra.area(), a.area());
        assert_eq!(ra.center(), a.center());
    }

    #[test]
    fn session_matches_model_rebuild_exactly() {
        let config = ThermalConfig::default();
        let model = ThermalModel::new(&quad_plan(), config).unwrap();
        let mut session = ThermalSession::new(4, config).unwrap();
        session.load_geometry(&quad_rects()).unwrap();
        let power = [8.0, 2.0, 2.0, 2.0];
        let reference = model.steady_state(&power).unwrap();
        let nodes = session.solve(&power).unwrap();
        for (i, node) in nodes.iter().take(4).enumerate() {
            assert_eq!(*node, reference.block(i).unwrap(), "block {i}");
        }
        assert_eq!(nodes[4], reference.spreader_c());
        assert_eq!(nodes[5], reference.sink_c());
    }

    #[test]
    fn repeated_loads_give_independent_exact_results() {
        let config = ThermalConfig::default();
        let mut session = ThermalSession::new(4, config).unwrap();
        let mut rects = quad_rects();
        let power = [6.5, 4.0, 3.0, 5.0];
        let first = session.peak_temperature(&rects, &power).unwrap();
        // Shift the layout, then restore it: the kernel must reproduce the
        // original result bit-for-bit (no state leaks between candidates).
        for r in &mut rects {
            r.x += 1e-3;
        }
        let shifted = session.peak_temperature(&rects, &power).unwrap();
        assert!(shifted.is_finite());
        for r in &mut rects {
            r.x -= 1e-3;
        }
        let again = session.peak_temperature(&rects, &power).unwrap();
        assert_eq!(first, again);
    }

    #[test]
    fn session_rejects_bad_inputs() {
        let config = ThermalConfig::default();
        assert!(matches!(
            ThermalSession::new(0, config),
            Err(ThermalError::EmptyFloorplan)
        ));
        let mut session = ThermalSession::new(4, config).unwrap();
        // Solve before load.
        assert!(session.solve(&[1.0; 4]).is_err());
        assert!(session.load_geometry(&quad_rects()[..2]).is_err());
        session.load_geometry(&quad_rects()).unwrap();
        assert!(matches!(
            session.solve(&[1.0, 2.0]),
            Err(ThermalError::PowerLengthMismatch {
                expected: 4,
                actual: 2
            })
        ));
        assert!(matches!(
            session.solve(&[1.0, -2.0, 0.0, 0.0]),
            Err(ThermalError::InvalidPower(1, _))
        ));
        assert_eq!(session.block_count(), 4);
        assert_eq!(session.config().ambient_c, 45.0);
    }
}
