//! Grid-refined steady-state thermal model.
//!
//! The block-level compact model (one node per PE) is what the scheduler
//! queries, matching the paper's use of HotSpot's block mode. For validation
//! this module also provides a finer grid model: the floorplan bounding box
//! is discretised into `nx × ny` cells, block power is distributed over the
//! cells it covers, and the resulting system is solved exactly.
//!
//! # Solver
//!
//! Every cell is silicon, whitespace included, as in HotSpot's grid model:
//! every cell has the same lateral conductances `g_x`, `g_y` and vertical
//! conductance `g_v` to the spreader, and the edges of the bounding box
//! carry no flux. Summing the cell rows leaves the total power `P` alone,
//! so the package nodes follow from it: `T_sink = ambient + P/g_conv` and
//! `T_spreader = T_sink + P/g_ss`. The cells' rise above the spreader
//! solves `(g_x·(I ⊗ L_x) + g_y·(L_y ⊗ I) + g_v·I) u = q`, where `L` is the
//! free-end path Laplacian, and the orthonormal 2-D DCT-II diagonalises
//! that matrix exactly, with eigenvalues `g_x·(2 − 2cos(πk/nx)) +
//! g_y·(2 − 2cos(πl/ny)) + g_v` (Buzbee, Golub & Nielson, SIAM J. Numer.
//! Anal. 1970). [`GridModel::new`] solves once per block, by matrix-form
//! transforms in `O(nx·ny·(nx + ny))`, for the rise when one watt is spread
//! over the block's coverage, and keeps these responses, as
//! [`ThermalModel`](crate::ThermalModel) keeps its influence matrix. A query
//! is then `T_spreader + Σ_b p_b·r_b` in every cell: nothing is factorised
//! and nothing can be singular. The tests check the solve against a
//! Gauss–Seidel sweep of the same system within `1e-6`. Each side holds at
//! most [`MAX_GRID_SIDE`] cells.

use std::f64::consts::PI;

use crate::error::ThermalError;
use crate::floorplan::Floorplan;
use crate::materials::ThermalConfig;

/// Largest grid resolution per side, in cells. A model of side `n` costs
/// `O(blocks · n³)` to build and stores `2 · blocks · n²` floats (coverage
/// and responses): at 128×128 with 6 PEs that is about 1.6 MB and 14 ms of
/// one core per model in a release build. Build time grows with `n³`, so
/// larger grids would let one request claim seconds of compute.
pub const MAX_GRID_SIDE: usize = 128;

/// Per-cell steady-state temperatures produced by [`GridModel::steady_state`].
/// [`GridModel::block_average_and_max_c`] summarises them per block.
#[derive(Debug, Clone, PartialEq)]
pub struct GridTemperatures {
    nx: usize,
    ny: usize,
    cell_c: Vec<f64>,
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
    /// The exact solve from per-block DCT responses that [`GridModel::new`]
    /// computes (see the module doc). Records, scenario keys, specs and
    /// journals name it `cholesky`, after the banded Cholesky factorisation
    /// that earlier builds ran; both solve the same system, and their
    /// answers differ only in rounding.
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
    /// Cell temperatures, overwritten by every query.
    t: Vec<f64>,
}

/// The grid's resolution and branch conductances, W/K: everything the
/// system matrix is built from.
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

/// The orthonormal DCT-II of one grid axis of `n` cells: the eigenbasis of
/// the free-end path Laplacian.
struct Dct {
    /// Row-major `n × n`, one row per mode:
    /// `matrix[k][j] = s_k·cos(πk(j + ½)/n)`, `s_0 = √(1/n)`, `s_k = √(2/n)`.
    matrix: Vec<f64>,
    /// The transpose of `matrix`, which is its inverse.
    transpose: Vec<f64>,
    /// The Laplacian's eigenvalue of each mode, `2 − 2cos(πk/n)`.
    eigenvalues: Vec<f64>,
}

impl Dct {
    fn new(n: usize) -> Self {
        let mut matrix = Vec::with_capacity(n * n);
        for k in 0..n {
            let scale = (if k == 0 { 1.0 } else { 2.0 } / n as f64).sqrt();
            matrix.extend(
                (0..n).map(|j| scale * (PI * k as f64 * (j as f64 + 0.5) / n as f64).cos()),
            );
        }
        let transpose = (0..n * n).map(|i| matrix[(i % n) * n + i / n]).collect();
        let eigenvalues = (0..n)
            .map(|k| 2.0 - 2.0 * (PI * k as f64 / n as f64).cos())
            .collect();
        Dct {
            matrix,
            transpose,
            eigenvalues,
        }
    }
}

/// `a · b` for row-major `a` (`rows × inner`) and `b` (`inner × cols`),
/// skipping the zero entries of `a`, which are most of a block's coverage.
fn matmul(a: &[f64], b: &[f64], cols: usize) -> Vec<f64> {
    let inner = b.len() / cols;
    let mut out = vec![0.0; a.len() / inner * cols];
    for (a_row, out_row) in a.chunks_exact(inner).zip(out.chunks_exact_mut(cols)) {
        for (&a_ij, b_row) in a_row.iter().zip(b.chunks_exact(cols)) {
            if a_ij != 0.0 {
                for (out_ik, &b_jk) in out_row.iter_mut().zip(b_row) {
                    *out_ik += a_ij * b_jk;
                }
            }
        }
    }
    out
}

impl Stencil {
    /// Each cell's rise above the spreader, K, when one watt is spread over
    /// `cover` (one coverage fraction per cell) in proportion to the covered
    /// area; `None` when `cover` covers no cell.
    fn response(&self, cover: &[f64], x: &Dct, y: &Dct) -> Option<Vec<f64>> {
        let covered: f64 = cover.iter().sum();
        if covered <= 0.0 {
            return None;
        }
        let q: Vec<f64> = cover.iter().map(|frac| frac / covered).collect();
        let nx = self.nx;
        let mut modes = matmul(&y.matrix, &matmul(&q, &x.transpose, nx), nx);
        for (row, ey) in modes.chunks_exact_mut(nx).zip(&y.eigenvalues) {
            for (mode, ex) in row.iter_mut().zip(&x.eigenvalues) {
                *mode /= self.lateral_x * ex + self.lateral_y * ey + self.vertical;
            }
        }
        Some(matmul(&y.transpose, &matmul(&modes, &x.matrix, nx), nx))
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
/// let (average, _) = grid.block_average_and_max_c(&temps)?;
/// assert!(average[0] > average[1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GridModel {
    config: ThermalConfig,
    stencil: Stencil,
    /// Fraction of each cell covered by each block: `coverage[block][cell]`.
    coverage: Vec<Vec<f64>>,
    /// Each block's cell responses, K/W ([`Stencil::response`]); `None` for
    /// a block that covers no cell, whose power heats nothing.
    responses: Vec<Option<Vec<f64>>>,
}

impl GridModel {
    /// Builds a grid model over the floorplan bounding box and solves for
    /// each block's cell responses.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] for a side outside
    /// `1..=`[`MAX_GRID_SIDE`] and propagates configuration validation
    /// errors.
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
        let (x, y) = (Dct::new(nx), Dct::new(ny));
        let responses = coverage
            .iter()
            .map(|cover| stencil.response(cover, &x, &y))
            .collect();
        Ok(GridModel {
            config,
            stencil,
            coverage,
            responses,
        })
    }

    /// Selects the steady-state solver. [`GridSolver::BandedCholesky`] is
    /// the only one and [`GridModel::new`] already computed its responses,
    /// so this returns the model unchanged.
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

    /// Creates a workspace sized for this model.
    pub fn workspace(&self) -> GridWorkspace {
        GridWorkspace {
            t: vec![0.0; self.stencil.nx * self.stencil.ny],
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

    /// Solves the steady-state grid system from the stored responses,
    /// reusing caller-owned buffers: after the first call the only heap
    /// allocation is the returned [`GridTemperatures`]' copy of the cells.
    /// A workspace sized for another model is resized.
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
        let heating = || {
            self.responses
                .iter()
                .zip(block_power)
                .filter_map(|(response, &p)| Some((response.as_ref()?, p)))
        };
        let total: f64 = heating().map(|(_, p)| p).sum();
        let sink = self.config.ambient_c + total / self.stencil.convection;
        let spreader = sink + total / self.stencil.spreader_sink;
        workspace.t.clear();
        workspace
            .t
            .resize(self.stencil.nx * self.stencil.ny, spreader);
        for (response, p) in heating() {
            for (t, r) in workspace.t.iter_mut().zip(response) {
                *t += p * r;
            }
        }
        Ok(GridTemperatures {
            nx: self.stencil.nx,
            ny: self.stencil.ny,
            cell_c: workspace.t.clone(),
        })
    }

    /// The mean and the maximum temperature of the cells each block
    /// covers, °C, in block order; a block that covers no cell reads
    /// ambient. A query leaves these to the callers that print them: a
    /// campaign reads only [`GridTemperatures::max_c`].
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] for temperatures of
    /// another resolution.
    pub fn block_average_and_max_c(
        &self,
        temps: &GridTemperatures,
    ) -> Result<(Vec<f64>, Vec<f64>), ThermalError> {
        if temps.resolution() != self.resolution() {
            return Err(ThermalError::InvalidParameter(format!(
                "{}x{} grid temperatures for a {}x{} model",
                temps.nx, temps.ny, self.stencil.nx, self.stencil.ny
            )));
        }
        let t = temps.cells();
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
        Ok((block_avg, block_max))
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

    /// Distributes block power over covered cells proportionally to the
    /// covered area and fills the spreader/sink right-hand-side entries.
    fn heat_input_into(&self, block_power: &[f64], q: &mut [f64]) {
        let cells = self.stencil.nx * self.stencil.ny;
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
        let (average, max) = grid.block_average_and_max_c(&temps).unwrap();
        assert!(average[0] > average[1]);
        assert!(max[0] >= average[0]);
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
        let (grid_average, _) = grid.block_average_and_max_c(&grid_temps).unwrap();
        // Same ordering and the averages agree within a few degrees.
        assert!(grid_average[0] > grid_average[1]);
        for (i, (grid, block)) in grid_average.iter().zip(block_temps.blocks()).enumerate() {
            let diff = (grid - block).abs();
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
        let coarse = GridModel::new(&two_block_plan(), ThermalConfig::default(), 4, 4).unwrap();
        assert!(coarse.block_average_and_max_c(&temps).is_err());
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

    /// The cells are pinned bit for bit. The hottest cell also stays
    /// within `1e-9` K of the value the banded Cholesky factorisation of
    /// earlier builds pinned for the same system.
    #[test]
    fn grid_cells_are_pinned_bit_exact() {
        let quad = Floorplan::new(vec![
            Block::from_mm("pe0", 0.0, 0.0, 7.0, 7.0),
            Block::from_mm("pe1", 7.0, 0.0, 7.0, 7.0),
            Block::from_mm("pe2", 0.0, 7.0, 7.0, 7.0),
            Block::from_mm("pe3", 7.0, 7.0, 7.0, 7.0),
        ])
        .unwrap();
        for (plan, (nx, ny), power, digest, max_bits, cholesky_max_bits) in [
            (
                two_block_plan(),
                (14, 7),
                vec![8.0, 0.5],
                0x05be_534d_afcd_5097,
                0x4055_577a_aa40_6118,
                0x4055_577a_aa40_60fd,
            ),
            (
                quad,
                (32, 32),
                vec![9.0, 3.5, 1.0, 1.0],
                0x8fa6_81d1_dfdb_b53c,
                0x4057_cda1_6406_891f,
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
            let cholesky_max = f64::from_bits(cholesky_max_bits);
            assert!(
                (temps.max_c() - cholesky_max).abs() < 1e-9,
                "{nx}x{ny}: {} vs {cholesky_max}",
                temps.max_c()
            );
            assert_eq!(cell_bits_digest(&temps), digest, "{nx}x{ny}");
            assert_eq!(temps.max_c().to_bits(), max_bits, "{nx}x{ny}");
        }
    }

    /// The orthonormal DCT-II of every side the grid allows diagonalises
    /// the free-end path Laplacian into `2 − 2cos(πk/n)`, to `1e-12`
    /// relative to the Laplacian's norm (at most 4).
    #[test]
    fn dct_diagonalises_the_free_end_path_laplacian() {
        for n in 1..=MAX_GRID_SIDE {
            let dct = Dct::new(n);
            let modes: Vec<&[f64]> = dct.matrix.chunks_exact(n).collect();
            let laplacian_times = |v: &[f64]| -> Vec<f64> {
                (0..n)
                    .map(|j| {
                        let left = if j > 0 { v[j] - v[j - 1] } else { 0.0 };
                        let right = if j + 1 < n { v[j] - v[j + 1] } else { 0.0 };
                        left + right
                    })
                    .collect()
            };
            for (m, mode_m) in modes.iter().enumerate() {
                let l_mode_m = laplacian_times(mode_m);
                for (k, mode_k) in modes.iter().enumerate() {
                    let dot = |w: &[f64]| mode_k.iter().zip(w).map(|(a, b)| a * b).sum::<f64>();
                    let (identity, eigenvalue) = if k == m {
                        (1.0, dct.eigenvalues[k])
                    } else {
                        (0.0, 0.0)
                    };
                    assert!(
                        (dot(mode_m) - identity).abs() <= 1e-12,
                        "n = {n}: <c_{k}, c_{m}>"
                    );
                    assert!(
                        (dot(&l_mode_m) - eigenvalue).abs() <= 4e-12,
                        "n = {n}: c_{k}' L c_{m}"
                    );
                    assert_eq!(dct.transpose[m * n + k], mode_k[m]);
                }
                let expected = 2.0 - 2.0 * (std::f64::consts::PI * m as f64 / n as f64).cos();
                assert_eq!(dct.eigenvalues[m], expected);
            }
        }
    }

    /// The spreader takes every watt: for every block at every side,
    /// `Σ_cells g_v·r_b[cell] = 1`. This pins the `k = l = 0` mode at the
    /// sides the Gauss–Seidel comparison is too slow to reach.
    #[test]
    fn each_block_response_sends_one_watt_to_the_spreader() {
        // The platform's arrangement: 7 mm PEs 0.5 mm apart, with one
        // corner left empty, so whitespace cells carry heat too.
        let plan = Floorplan::new(vec![
            Block::from_mm("pe0", 0.0, 0.0, 7.0, 7.0),
            Block::from_mm("pe1", 7.5, 0.0, 7.0, 7.0),
            Block::from_mm("pe2", 0.0, 7.5, 7.0, 7.0),
        ])
        .unwrap();
        for n in 1..=MAX_GRID_SIDE {
            let (nx, ny) = (n, n.div_ceil(2));
            let model = GridModel::new(&plan, ThermalConfig::default(), nx, ny).unwrap();
            for (b, response) in model.responses.iter().enumerate() {
                let response = response.as_ref().expect("every block covers a cell");
                let watts: f64 = response.iter().map(|r| model.stencil.vertical * r).sum();
                assert!((watts - 1.0).abs() < 1e-9, "{nx}x{ny} block {b}: {watts}");
            }
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
            let mut nodes = model.gauss_seidel(power, 1e-11, 500_000);
            nodes.truncate(nx * ny);
            let reference = GridTemperatures { nx, ny, cell_c: nodes };
            let temps = model.steady_state(power).unwrap();
            for (cell, (a, b)) in temps.cells().iter().zip(reference.cells()).enumerate() {
                prop_assert!((a - b).abs() < 1e-6, "cell {cell}: {a} vs {b}");
            }
            let (average, _) = model.block_average_and_max_c(&temps).unwrap();
            let (reference_average, _) = model.block_average_and_max_c(&reference).unwrap();
            for (a, b) in average.iter().zip(&reference_average) {
                prop_assert!((a - b).abs() < 1e-6, "block avg {a} vs {b}");
            }
        }
    }
}
