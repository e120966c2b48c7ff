//! Grid-refined steady-state thermal model.
//!
//! The block-level compact model (one node per PE) is what the scheduler
//! queries, matching the paper's use of HotSpot's block mode. For validation
//! and for the ablation benches this module also provides a finer grid model:
//! the floorplan bounding box is discretised into `nx × ny` cells, block
//! power is distributed over the cells it covers, and the resulting sparse
//! system is solved directly.
//!
//! # Solver
//!
//! [`GridSolver::BandedCholesky`] is the one solver: [`GridModel::new`]
//! factorises the system once, in `O(cells · nx²)`, and every query is one
//! banded sweep, `O(cells · nx)`. The cell Laplacian has bandwidth `nx`; the
//! spreader and sink nodes couple to every cell, so they form a dense
//! border that [`tats_sparse::BorderedBandedCholesky`] eliminates through a
//! Schur complement. The tests check the factor against a Gauss–Seidel
//! sweep of the same system within `1e-6`. Each side holds at most
//! [`MAX_GRID_SIDE`] cells.

use crate::error::ThermalError;
use crate::floorplan::Floorplan;
use crate::materials::ThermalConfig;
use tats_sparse::{BandedMatrix, BorderedBandedCholesky, SparseError};

/// Largest grid resolution per side, in cells. At 128×128 one cached
/// factor holds about 17 MB (`cells · (nx + 1)` band entries), and the
/// band grows with `nx³`, so larger grids would let one request claim
/// gigabytes.
pub const MAX_GRID_SIDE: usize = 128;

/// Banded cell core, dense border columns and corner block of the grid
/// system in the form [`BorderedBandedCholesky`] consumes.
type BorderedSystem = (BandedMatrix, Vec<Vec<f64>>, Vec<Vec<f64>>);

/// Converts a sparse-subsystem failure into the thermal error vocabulary.
fn from_sparse(error: SparseError) -> ThermalError {
    match error {
        SparseError::NotPositiveDefinite { .. } => ThermalError::SingularSystem,
        other => ThermalError::InvalidParameter(other.to_string()),
    }
}

/// Per-cell steady-state temperatures produced by [`GridModel::steady_state`].
#[derive(Debug, Clone, PartialEq)]
pub struct GridTemperatures {
    nx: usize,
    ny: usize,
    cell_c: Vec<f64>,
    block_avg_c: Vec<f64>,
    block_max_c: Vec<f64>,
}

impl GridTemperatures {
    /// Grid resolution `(nx, ny)`.
    pub fn resolution(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Temperature of the cell at `(ix, iy)`, °C.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] for out-of-range indices.
    pub fn cell(&self, ix: usize, iy: usize) -> Result<f64, ThermalError> {
        if ix >= self.nx || iy >= self.ny {
            return Err(ThermalError::InvalidParameter(format!(
                "cell ({ix}, {iy}) outside {}x{} grid",
                self.nx, self.ny
            )));
        }
        Ok(self.cell_c[iy * self.nx + ix])
    }

    /// All cell temperatures in row-major order, °C.
    pub fn cells(&self) -> &[f64] {
        &self.cell_c
    }

    /// Mean temperature of the cells covered by each block, °C.
    pub fn block_average_c(&self) -> &[f64] {
        &self.block_avg_c
    }

    /// Maximum temperature of the cells covered by each block, °C.
    pub fn block_max_c(&self) -> &[f64] {
        &self.block_max_c
    }

    /// Hottest cell temperature on the whole die, °C.
    pub fn max_c(&self) -> f64 {
        self.cell_c
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Steady-state solver of a [`GridModel`]: the value of the campaign axis
/// that turns on grid validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GridSolver {
    /// Direct banded Cholesky factorisation of the cell Laplacian
    /// (bandwidth `nx`) with the dense spreader/sink rows handled by block
    /// elimination; [`GridModel::new`] computes the factor once and caches
    /// it for every later right-hand side.
    #[default]
    BandedCholesky,
}

impl GridSolver {
    /// Stable textual name, the one [`GridSolver::parse`] accepts.
    pub fn name(&self) -> &'static str {
        match self {
            GridSolver::BandedCholesky => "cholesky",
        }
    }

    /// Parses a stable solver name; `cholesky` is the only grid solver.
    ///
    /// The names of solvers earlier builds offered (`gauss-seidel`, `gs`,
    /// `pcg`, `pcg-jacobi`) are refused like any other name rather than
    /// mapped onto Cholesky: a journaled job that names one must not be
    /// recomputed with a solver its spec does not name.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] naming `name`.
    pub fn parse(name: &str) -> Result<Self, ThermalError> {
        match name {
            "cholesky" => Ok(GridSolver::BandedCholesky),
            other => Err(ThermalError::InvalidParameter(format!(
                "grid solver '{other}' is not available: cholesky is the only grid solver"
            ))),
        }
    }
}

impl std::fmt::Display for GridSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Reusable buffer for repeated [`GridModel::steady_state_with`] queries.
#[derive(Debug, Clone)]
pub struct GridWorkspace {
    /// Heat input per node (cells, then spreader, then sink), overwritten
    /// in place by the node temperatures.
    t: Vec<f64>,
}

/// The grid's resolution and branch conductances, W/K: everything the
/// system matrix is assembled from.
#[derive(Debug, Clone, Copy)]
struct Stencil {
    nx: usize,
    ny: usize,
    /// Between horizontally adjacent cells.
    lateral_x: f64,
    /// Between vertically adjacent cells.
    lateral_y: f64,
    /// From one cell to the spreader.
    vertical: f64,
    /// From the spreader to the sink.
    spreader_sink: f64,
    /// From the sink to the (grounded) ambient.
    convection: f64,
}

impl Stencil {
    /// Assembles the bordered-banded form of the system: the banded cell
    /// Laplacian (bandwidth `nx`), the dense spreader/sink border and the
    /// 2×2 corner.
    fn assemble_bordered(&self) -> Result<BorderedSystem, ThermalError> {
        let (nx, ny) = (self.nx, self.ny);
        let cells = nx * ny;
        let mut core = BandedMatrix::zeros(cells, nx.min(cells.saturating_sub(1)).max(1));
        for iy in 0..ny {
            for ix in 0..nx {
                let idx = iy * nx + ix;
                core.add(idx, idx, self.vertical).map_err(from_sparse)?;
                if ix + 1 < nx {
                    core.add(idx, idx, self.lateral_x).map_err(from_sparse)?;
                    core.add(idx + 1, idx + 1, self.lateral_x)
                        .map_err(from_sparse)?;
                    core.add(idx + 1, idx, -self.lateral_x)
                        .map_err(from_sparse)?;
                }
                if iy + 1 < ny {
                    core.add(idx, idx, self.lateral_y).map_err(from_sparse)?;
                    core.add(idx + nx, idx + nx, self.lateral_y)
                        .map_err(from_sparse)?;
                    core.add(idx + nx, idx, -self.lateral_y)
                        .map_err(from_sparse)?;
                }
            }
        }
        let border = vec![vec![-self.vertical; cells], vec![0.0; cells]];
        let corner = vec![
            vec![
                cells as f64 * self.vertical + self.spreader_sink,
                -self.spreader_sink,
            ],
            vec![-self.spreader_sink, self.spreader_sink + self.convection],
        ];
        Ok((core, border, corner))
    }
}

/// Grid-based steady-state thermal solver.
///
/// # Examples
///
/// ```
/// use tats_thermal::{Block, Floorplan, GridModel, ThermalConfig};
///
/// # fn main() -> Result<(), tats_thermal::ThermalError> {
/// let plan = Floorplan::new(vec![
///     Block::from_mm("hot", 0.0, 0.0, 7.0, 7.0),
///     Block::from_mm("cold", 7.0, 0.0, 7.0, 7.0),
/// ])?;
/// let grid = GridModel::new(&plan, ThermalConfig::default(), 16, 8)?;
/// let temps = grid.steady_state(&[8.0, 0.5])?;
/// assert!(temps.block_average_c()[0] > temps.block_average_c()[1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GridModel {
    config: ThermalConfig,
    stencil: Stencil,
    /// Fraction of each cell covered by each block: `coverage[block][cell]`.
    coverage: Vec<Vec<f64>>,
    /// Cached factor of the steady-state system.
    factor: BorderedBandedCholesky,
}

impl GridModel {
    /// Builds a grid model over the floorplan bounding box and factorises
    /// its steady-state system.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] for a side outside
    /// `1..=`[`MAX_GRID_SIDE`], propagates configuration validation errors,
    /// and returns [`ThermalError::SingularSystem`] if the system is not
    /// positive definite (cannot happen for validated configurations).
    pub fn new(
        floorplan: &Floorplan,
        config: ThermalConfig,
        nx: usize,
        ny: usize,
    ) -> Result<Self, ThermalError> {
        config.validate()?;
        let sides = 1..=MAX_GRID_SIDE;
        if !sides.contains(&nx) || !sides.contains(&ny) {
            return Err(ThermalError::InvalidParameter(format!(
                "grid resolution {nx}x{ny} outside 1x1 to {MAX_GRID_SIDE}x{MAX_GRID_SIDE}"
            )));
        }
        let (width, height) = floorplan.bounding_box();
        let min_x = floorplan
            .blocks()
            .iter()
            .map(|b| b.x())
            .fold(f64::INFINITY, f64::min);
        let min_y = floorplan
            .blocks()
            .iter()
            .map(|b| b.y())
            .fold(f64::INFINITY, f64::min);
        let cell_w = width / nx as f64;
        let cell_h = height / ny as f64;
        let cell_area = cell_w * cell_h;

        // Coverage of each cell by each block.
        let mut coverage = vec![vec![0.0; nx * ny]; floorplan.block_count()];
        for (b, block) in floorplan.blocks().iter().enumerate() {
            for iy in 0..ny {
                for ix in 0..nx {
                    let cx0 = min_x + ix as f64 * cell_w;
                    let cy0 = min_y + iy as f64 * cell_h;
                    let cx1 = cx0 + cell_w;
                    let cy1 = cy0 + cell_h;
                    let ox = (block.x() + block.width()).min(cx1) - block.x().max(cx0);
                    let oy = (block.y() + block.height()).min(cy1) - block.y().max(cy0);
                    if ox > 0.0 && oy > 0.0 {
                        coverage[b][iy * nx + ix] = (ox * oy) / cell_area;
                    }
                }
            }
        }

        let stencil = Stencil {
            nx,
            ny,
            lateral_x: config.lateral_conductance(cell_w, cell_h),
            lateral_y: config.lateral_conductance(cell_h, cell_w),
            vertical: config.vertical_conductance(cell_area),
            spreader_sink: 1.0 / config.spreader_to_sink_resistance,
            convection: 1.0 / config.convection_resistance,
        };
        let (core, border, corner) = stencil.assemble_bordered()?;
        let factor = BorderedBandedCholesky::new(&core, &border, &corner).map_err(from_sparse)?;
        Ok(GridModel {
            config,
            stencil,
            coverage,
            factor,
        })
    }

    /// Selects the steady-state solver. [`GridSolver::BandedCholesky`] is
    /// the only one and [`GridModel::new`] already factorised it, so this
    /// returns the model unchanged.
    ///
    /// # Errors
    ///
    /// Never fails; the `Result` keeps campaign-axis call sites uniform.
    pub fn with_solver(self, solver: GridSolver) -> Result<Self, ThermalError> {
        match solver {
            GridSolver::BandedCholesky => Ok(self),
        }
    }

    /// Grid resolution `(nx, ny)`.
    pub fn resolution(&self) -> (usize, usize) {
        (self.stencil.nx, self.stencil.ny)
    }

    /// Number of unknowns of the assembled system (cells + spreader + sink).
    pub fn node_count(&self) -> usize {
        self.stencil.nx * self.stencil.ny + 2
    }

    fn validate_power(&self, block_power: &[f64]) -> Result<(), ThermalError> {
        let block_count = self.coverage.len();
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
        Ok(())
    }

    /// Distributes block power over covered cells proportionally to the
    /// covered area and fills the spreader/sink right-hand-side entries.
    fn heat_input_into(&self, block_power: &[f64], q: &mut [f64]) {
        let cells = self.node_count() - 2;
        q.fill(0.0);
        for (b, &p) in block_power.iter().enumerate() {
            let covered: f64 = self.coverage[b].iter().sum();
            if covered <= 0.0 {
                continue;
            }
            for (c, &frac) in self.coverage[b].iter().enumerate() {
                q[c] += p * frac / covered;
            }
        }
        q[cells] = 0.0;
        q[cells + 1] = self.config.ambient_c / self.config.convection_resistance;
    }

    /// Creates a workspace sized for this model.
    pub fn workspace(&self) -> GridWorkspace {
        GridWorkspace {
            t: vec![0.0; self.node_count()],
        }
    }

    /// Solves the steady-state grid system for the given per-block powers.
    ///
    /// Convenience wrapper around [`GridModel::steady_state_with`] that
    /// creates a fresh workspace per call.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::PowerLengthMismatch`] /
    /// [`ThermalError::InvalidPower`] for malformed input.
    pub fn steady_state(&self, block_power: &[f64]) -> Result<GridTemperatures, ThermalError> {
        self.steady_state_with(block_power, &mut self.workspace())
    }

    /// Solves the steady-state grid system on the cached factor, reusing
    /// caller-owned buffers: after the first call no heap allocation occurs
    /// on the solve path (the returned [`GridTemperatures`] owns fresh
    /// statistics vectors). A workspace sized for another model is resized.
    ///
    /// # Errors
    ///
    /// See [`GridModel::steady_state`].
    pub fn steady_state_with(
        &self,
        block_power: &[f64],
        workspace: &mut GridWorkspace,
    ) -> Result<GridTemperatures, ThermalError> {
        self.validate_power(block_power)?;
        workspace.t.resize(self.node_count(), 0.0);
        self.heat_input_into(block_power, &mut workspace.t);
        self.factor
            .solve_into(&mut workspace.t)
            .map_err(from_sparse)?;
        Ok(self.temperatures_from_cells(&workspace.t))
    }

    /// Builds the per-block statistics from a node temperature vector
    /// (cells first; trailing spreader/sink entries are ignored).
    fn temperatures_from_cells(&self, t: &[f64]) -> GridTemperatures {
        let (nx, ny) = self.resolution();
        let block_count = self.coverage.len();
        let mut block_avg = vec![0.0; block_count];
        let mut block_max = vec![f64::NEG_INFINITY; block_count];
        for (b, cover) in self.coverage.iter().enumerate() {
            let mut weight = 0.0;
            let mut acc = 0.0;
            for (c, &frac) in cover.iter().enumerate() {
                if frac > 0.0 {
                    acc += frac * t[c];
                    weight += frac;
                    block_max[b] = block_max[b].max(t[c]);
                }
            }
            block_avg[b] = if weight > 0.0 {
                acc / weight
            } else {
                self.config.ambient_c
            };
            if !block_max[b].is_finite() {
                block_max[b] = self.config.ambient_c;
            }
        }

        GridTemperatures {
            nx,
            ny,
            cell_c: t[..nx * ny].to_vec(),
            block_avg_c: block_avg,
            block_max_c: block_max,
        }
    }

    /// Number of floorplan blocks the model distributes power over.
    pub fn block_count(&self) -> usize {
        self.coverage.len()
    }
}

#[cfg(test)]
impl GridModel {
    /// Point-wise Gauss–Seidel relaxation of the same system, swept from
    /// ambient until no node moves by more than `tolerance`: the
    /// independent reference the Cholesky answers are checked against.
    ///
    /// # Panics
    ///
    /// Panics if `max_sweeps` sweeps do not reach `tolerance`.
    fn gauss_seidel(&self, block_power: &[f64], tolerance: f64, max_sweeps: usize) -> Vec<f64> {
        let Stencil {
            nx,
            ny,
            lateral_x,
            lateral_y,
            vertical,
            spreader_sink,
            convection,
        } = self.stencil;
        let cells = nx * ny;
        let (spreader, sink) = (cells, cells + 1);
        let ambient = self.config.ambient_c;
        let mut q = vec![0.0; cells + 2];
        self.heat_input_into(block_power, &mut q);
        let mut t = vec![ambient; cells + 2];
        for _ in 0..max_sweeps {
            let mut max_change: f64 = 0.0;
            for iy in 0..ny {
                for ix in 0..nx {
                    let idx = iy * nx + ix;
                    let mut num = q[idx] + vertical * t[spreader];
                    let mut den = vertical;
                    if ix > 0 {
                        num += lateral_x * t[idx - 1];
                        den += lateral_x;
                    }
                    if ix + 1 < nx {
                        num += lateral_x * t[idx + 1];
                        den += lateral_x;
                    }
                    if iy > 0 {
                        num += lateral_y * t[idx - nx];
                        den += lateral_y;
                    }
                    if iy + 1 < ny {
                        num += lateral_y * t[idx + nx];
                        den += lateral_y;
                    }
                    let new_t = num / den;
                    max_change = max_change.max((new_t - t[idx]).abs());
                    t[idx] = new_t;
                }
            }
            // Spreader node: connected to every cell and to the sink.
            let mut num = spreader_sink * t[sink];
            let mut den = spreader_sink;
            for temp in t.iter().take(cells) {
                num += vertical * temp;
                den += vertical;
            }
            let new_spreader = num / den;
            max_change = max_change.max((new_spreader - t[spreader]).abs());
            t[spreader] = new_spreader;
            // Sink node: spreader on one side, ambient on the other.
            let new_sink =
                (spreader_sink * t[spreader] + convection * ambient) / (spreader_sink + convection);
            max_change = max_change.max((new_sink - t[sink]).abs());
            t[sink] = new_sink;
            if max_change < tolerance {
                return t;
            }
        }
        panic!("Gauss-Seidel did not reach {tolerance:e} in {max_sweeps} sweeps");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::Block;
    use crate::model::ThermalModel;

    fn two_block_plan() -> Floorplan {
        Floorplan::new(vec![
            Block::from_mm("hot", 0.0, 0.0, 7.0, 7.0),
            Block::from_mm("cold", 7.0, 0.0, 7.0, 7.0),
        ])
        .unwrap()
    }

    #[test]
    fn hot_block_cells_are_hotter_with_every_solver() {
        let grid = GridModel::new(&two_block_plan(), ThermalConfig::default(), 14, 7)
            .unwrap()
            .with_solver(GridSolver::BandedCholesky)
            .unwrap();
        let temps = grid.steady_state(&[8.0, 0.5]).unwrap();
        assert!(temps.block_average_c()[0] > temps.block_average_c()[1]);
        assert!(temps.block_max_c()[0] >= temps.block_average_c()[0]);
        assert_eq!(temps.resolution(), (14, 7));
        assert_eq!(temps.cells().len(), 14 * 7);
    }

    #[test]
    fn grid_and_block_models_agree_qualitatively() {
        let plan = two_block_plan();
        let config = ThermalConfig::default();
        let block_model = ThermalModel::new(&plan, config).unwrap();
        let grid = GridModel::new(&plan, config, 16, 8).unwrap();
        let power = [6.0, 2.0];
        let block_temps = block_model.steady_state(&power).unwrap();
        let grid_temps = grid.steady_state(&power).unwrap();
        // Same ordering and the averages agree within a few degrees.
        assert!(grid_temps.block_average_c()[0] > grid_temps.block_average_c()[1]);
        for i in 0..2 {
            let diff = (grid_temps.block_average_c()[i] - block_temps.block(i).unwrap()).abs();
            assert!(diff < 10.0, "block {i} differs by {diff} C");
        }
    }

    #[test]
    fn zero_power_settles_at_ambient_everywhere() {
        let grid = GridModel::new(&two_block_plan(), ThermalConfig::default(), 8, 4).unwrap();
        let temps = grid.steady_state(&[0.0, 0.0]).unwrap();
        for &c in temps.cells() {
            assert!((c - 45.0).abs() < 1e-3, "{c}");
        }
        assert!((temps.max_c() - 45.0).abs() < 1e-3);
    }

    #[test]
    fn hotspot_is_inside_the_powered_block() {
        let grid = GridModel::new(&two_block_plan(), ThermalConfig::default(), 14, 7).unwrap();
        let temps = grid.steady_state(&[10.0, 0.0]).unwrap();
        // The hottest cell must lie in the left half of the grid.
        let (nx, ny) = temps.resolution();
        let mut best = (0usize, 0usize);
        let mut best_t = f64::MIN;
        for iy in 0..ny {
            for ix in 0..nx {
                let t = temps.cell(ix, iy).unwrap();
                if t > best_t {
                    best_t = t;
                    best = (ix, iy);
                }
            }
        }
        assert!(
            best.0 < nx / 2,
            "hottest cell {best:?} not in the hot block"
        );
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        let grid = GridModel::new(&two_block_plan(), ThermalConfig::default(), 8, 4).unwrap();
        assert!(grid.steady_state(&[1.0]).is_err());
        assert!(grid.steady_state(&[1.0, -1.0]).is_err());
        let temps = grid.steady_state(&[1.0, 1.0]).unwrap();
        assert!(temps.cell(99, 0).is_err());
        // Each side must lie in 1..=MAX_GRID_SIDE; a side of 2^32 used to
        // wrap `nx * ny` to zero on 64-bit targets.
        let huge = usize::try_from(1u64 << 32).unwrap_or(usize::MAX);
        for (nx, ny) in [
            (0, 4),
            (4, 0),
            (MAX_GRID_SIDE + 1, 4),
            (4, MAX_GRID_SIDE + 1),
            (huge, huge),
        ] {
            match GridModel::new(&two_block_plan(), ThermalConfig::default(), nx, ny) {
                Err(ThermalError::InvalidParameter(message)) => {
                    assert!(message.contains("128x128"), "{message}")
                }
                other => panic!("{nx}x{ny}: expected InvalidParameter, got {other:?}"),
            }
        }
        assert!(GridModel::new(&two_block_plan(), ThermalConfig::default(), 1, 1).is_ok());
    }

    #[test]
    fn workspace_reuse_matches_fresh_solves() {
        let grid = GridModel::new(&two_block_plan(), ThermalConfig::default(), 12, 6)
            .unwrap()
            .with_solver(GridSolver::BandedCholesky)
            .unwrap();
        let mut workspace = grid.workspace();
        for power in [[3.0, 1.0], [0.5, 9.0], [2.0, 2.0]] {
            let reused = grid.steady_state_with(&power, &mut workspace).unwrap();
            let fresh = grid.steady_state(&power).unwrap();
            for (a, b) in reused.cells().iter().zip(fresh.cells()) {
                assert!((a - b).abs() < 1e-9);
            }
        }
        // A workspace sized for another resolution is resized, not misread.
        let coarse = GridModel::new(&two_block_plan(), ThermalConfig::default(), 4, 2).unwrap();
        let mut foreign = coarse.workspace();
        let reused = grid.steady_state_with(&[3.0, 1.0], &mut foreign).unwrap();
        assert_eq!(reused, grid.steady_state(&[3.0, 1.0]).unwrap());
    }

    /// FNV-1a over the bit patterns of every cell temperature.
    fn cell_bits_digest(temps: &GridTemperatures) -> u64 {
        temps
            .cells()
            .iter()
            .flat_map(|cell| cell.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
                (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    #[test]
    fn cholesky_cells_are_pinned_bit_exact() {
        let quad = Floorplan::new(vec![
            Block::from_mm("pe0", 0.0, 0.0, 7.0, 7.0),
            Block::from_mm("pe1", 7.0, 0.0, 7.0, 7.0),
            Block::from_mm("pe2", 0.0, 7.0, 7.0, 7.0),
            Block::from_mm("pe3", 7.0, 7.0, 7.0, 7.0),
        ])
        .unwrap();
        for (plan, (nx, ny), power, digest, max_bits) in [
            (
                two_block_plan(),
                (14, 7),
                vec![8.0, 0.5],
                0x4382_e1b9_d407_0ed8,
                0x4055_577a_aa40_60fd,
            ),
            (
                quad,
                (32, 32),
                vec![9.0, 3.5, 1.0, 1.0],
                0x47b7_e678_7890_4e9e,
                0x4057_cda1_6406_88ba,
            ),
        ] {
            let temps = GridModel::new(&plan, ThermalConfig::default(), nx, ny)
                .unwrap()
                .with_solver(GridSolver::BandedCholesky)
                .unwrap()
                .steady_state(&power)
                .unwrap();
            assert_eq!(temps.cells().len(), nx * ny);
            assert_eq!(cell_bits_digest(&temps), digest, "{nx}x{ny}");
            assert_eq!(temps.max_c().to_bits(), max_bits, "{nx}x{ny}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::floorplan::Block;
    use proptest::prelude::*;

    /// A randomized strip floorplan: blocks of random sizes side by side
    /// (never overlapping by construction).
    fn strip_plan(widths_mm: &[f64], height_mm: f64) -> Floorplan {
        let mut x = 0.0;
        let mut blocks = Vec::with_capacity(widths_mm.len());
        for (i, &w) in widths_mm.iter().enumerate() {
            blocks.push(Block::from_mm(format!("b{i}"), x, 0.0, w, height_mm));
            x += w;
        }
        Floorplan::new(blocks).unwrap()
    }

    proptest! {
        /// Banded Cholesky matches the tight-tolerance Gauss–Seidel
        /// reference within 1e-6 on randomized floorplans and power
        /// assignments.
        #[test]
        fn sparse_solvers_match_gauss_seidel(
            widths in proptest::collection::vec(2.0f64..8.0, 2..5),
            height in 4.0f64..10.0,
            powers in proptest::collection::vec(0.0f64..10.0, 4),
            nx in 6usize..12,
            ny in 3usize..7,
        ) {
            let plan = strip_plan(&widths, height);
            let power = &powers[..widths.len()];
            let model = GridModel::new(&plan, ThermalConfig::default(), nx, ny).unwrap();
            let reference = model.temperatures_from_cells(&model.gauss_seidel(power, 1e-11, 500_000));
            let temps = model.steady_state(power).unwrap();
            for (cell, (a, b)) in temps.cells().iter().zip(reference.cells()).enumerate() {
                prop_assert!((a - b).abs() < 1e-6, "cell {cell}: {a} vs {b}");
            }
            for (a, b) in temps.block_average_c().iter().zip(reference.block_average_c()) {
                prop_assert!((a - b).abs() < 1e-6, "block avg {a} vs {b}");
            }
        }

        /// Every assembled grid system is symmetric and diagonally dominant
        /// with a positive diagonal (the structure Cholesky relies on).
        #[test]
        fn assembled_grid_matrices_are_symmetric_diagonally_dominant(
            widths in proptest::collection::vec(2.0f64..8.0, 2..5),
            height in 4.0f64..10.0,
            nx in 1usize..14,
            ny in 1usize..9,
        ) {
            let plan = strip_plan(&widths, height);
            let model = GridModel::new(&plan, ThermalConfig::default(), nx, ny).unwrap();
            let (core, border, corner) = model.stencil.assemble_bordered().unwrap();
            let cells = nx * ny;
            prop_assert_eq!(core.n(), cells);
            prop_assert_eq!(border.len(), 2);
            // The core stores one triangle of a symmetric band; the border
            // columns double as the border rows, so only the corner can be
            // asymmetric.
            prop_assert_eq!(corner[0][1], corner[1][0]);
            let dominated = |diagonal: f64, off: f64| diagonal > 0.0 && diagonal >= off * (1.0 - 1e-9);
            for i in 0..cells {
                let off = (0..cells).filter(|&j| j != i).map(|j| core.get(i, j).abs()).sum::<f64>()
                    + border.iter().map(|column| column[i].abs()).sum::<f64>();
                prop_assert!(dominated(core.get(i, i), off), "cell row {i}");
            }
            for (k, row) in corner.iter().enumerate() {
                let off = border[k].iter().map(|b| b.abs()).sum::<f64>() + row[1 - k].abs();
                prop_assert!(dominated(row[k], off), "border row {k}");
            }
        }
    }
}
