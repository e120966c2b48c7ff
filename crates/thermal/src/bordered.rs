//! Banded SPD systems with a dense border, solved by block elimination.
//!
//! The grid thermal system is *almost* banded: the cell Laplacian has
//! bandwidth `nx`, but the heat-spreader node couples to **every** cell and
//! the sink node to the spreader, so ordering them anywhere blows the
//! bandwidth up to `n`. Block elimination restores the banded economics:
//!
//! ```text
//! A = [ C   B ]      C: banded n x n SPD core
//!     [ B^T D ]      B: n x m dense border (m small), D: m x m
//! ```
//!
//! Factorisation caches `chol(C)`, `W = C^{-1} B` and the dense Cholesky of
//! the Schur complement `S = D - B^T W`, after which every solve is one
//! banded sweep, one `m x m` solve and one rank-`m` correction — all in
//! place and allocation free.

use crate::banded::{dimension_mismatch, BandedCholesky, BandedMatrix};
use crate::error::ThermalError;

/// Cached factorisation of a bordered banded SPD system.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BorderedBandedCholesky {
    n: usize,
    m: usize,
    core: BandedCholesky,
    /// Border columns of `B`, each of length `n` (column-major).
    border: Vec<Vec<f64>>,
    /// `W = C^{-1} B`, column-major like `border`.
    w: Vec<Vec<f64>>,
    /// Dense lower Cholesky factor of the Schur complement, row-major `m x m`.
    schur: Vec<f64>,
}

impl BorderedBandedCholesky {
    /// Factorises the bordered system given the banded core `C`, the border
    /// columns `B` (one `Vec` of length `n` per border node) and the
    /// symmetric corner `D` (row-major `m x m`, given as `m` rows).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] for malformed border or
    /// corner shapes and [`ThermalError::SingularSystem`] when either the
    /// core or the Schur complement fails to factorise.
    pub(crate) fn new(
        core: &BandedMatrix,
        border: &[Vec<f64>],
        corner: &[Vec<f64>],
    ) -> Result<Self, ThermalError> {
        let n = core.n();
        let m = border.len();
        if corner.len() != m {
            return Err(dimension_mismatch("bordered corner rows", m, corner.len()));
        }
        for column in border {
            if column.len() != n {
                return Err(dimension_mismatch(
                    "bordered border column",
                    n,
                    column.len(),
                ));
            }
        }
        for row in corner {
            if row.len() != m {
                return Err(dimension_mismatch("bordered corner columns", m, row.len()));
            }
        }

        let core_factor = BandedCholesky::new(core)?;
        // W = C^{-1} B, one banded solve per border column.
        let mut w = Vec::with_capacity(m);
        for column in border {
            let mut solved = column.clone();
            core_factor.solve_into(&mut solved)?;
            w.push(solved);
        }
        // Schur complement S = D - B^T W, then its dense Cholesky.
        let mut schur = vec![0.0; m * m];
        for i in 0..m {
            for j in 0..m {
                let btw: f64 = border[i].iter().zip(&w[j]).map(|(b, x)| b * x).sum();
                schur[i * m + j] = corner[i][j] - btw;
            }
        }
        dense_cholesky_in_place(&mut schur, m)?;

        Ok(BorderedBandedCholesky {
            n,
            m,
            core: core_factor,
            border: border.to_vec(),
            w,
            schur,
        })
    }

    /// Solves `A x = b` in place: `b` holds `[core rhs, border rhs]` on
    /// entry and the solution on exit. **Zero heap allocations** — the
    /// border segment of `b` doubles as the Schur-system scratch.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] when `b.len() != n + m`.
    pub(crate) fn solve_into(&self, b: &mut [f64]) -> Result<(), ThermalError> {
        if b.len() != self.n + self.m {
            return Err(dimension_mismatch(
                "bordered solve",
                self.n + self.m,
                b.len(),
            ));
        }
        let (b1, b2) = b.split_at_mut(self.n);
        // y1 = C^{-1} b1.
        self.core.solve_into(b1)?;
        // b2 <- b2 - B^T y1, then solve the Schur system in place.
        for (slot, column) in b2.iter_mut().zip(&self.border) {
            *slot -= column
                .iter()
                .zip(b1.iter())
                .map(|(c, y)| c * y)
                .sum::<f64>();
        }
        dense_cholesky_solve_in_place(&self.schur, self.m, b2);
        // x1 = y1 - W x2.
        for (column, &x2) in self.w.iter().zip(b2.iter()) {
            for (y, wi) in b1.iter_mut().zip(column) {
                *y -= wi * x2;
            }
        }
        Ok(())
    }
}

/// In-place dense Cholesky of a row-major `m x m` matrix (lower triangle).
fn dense_cholesky_in_place(a: &mut [f64], m: usize) -> Result<(), ThermalError> {
    for i in 0..m {
        for j in 0..=i {
            let mut sum = a[i * m + j];
            for k in 0..j {
                sum -= a[i * m + k] * a[j * m + k];
            }
            if j == i {
                if sum <= 0.0 || sum.is_nan() {
                    return Err(ThermalError::SingularSystem);
                }
                a[i * m + i] = sum.sqrt();
            } else {
                a[i * m + j] = sum / a[j * m + j];
            }
        }
    }
    Ok(())
}

/// Solves `L L^T x = b` in place against a factor from
/// [`dense_cholesky_in_place`].
fn dense_cholesky_solve_in_place(l: &[f64], m: usize, b: &mut [f64]) {
    for i in 0..m {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l[i * m + k] * b[k];
        }
        b[i] = sum / l[i * m + i];
    }
    for i in (0..m).rev() {
        let mut sum = b[i];
        for k in i + 1..m {
            sum -= l[k * m + i] * b[k];
        }
        b[i] = sum / l[i * m + i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small conductance network: a 4-node chain core, one "spreader"
    /// border node tied to every core node, one "sink" tied to the spreader
    /// and to ground.
    fn fixture() -> (BandedMatrix, Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let n = 4;
        let g_chain = 1.0;
        let g_vert = 0.3;
        let g_sp_sink = 0.5;
        let g_ground = 0.25;
        let mut core = BandedMatrix::zeros(n, 1);
        for i in 0..n {
            core.add(i, i, g_vert).unwrap();
        }
        for i in 1..n {
            core.add(i, i, g_chain).unwrap();
            core.add(i - 1, i - 1, g_chain).unwrap();
            core.add(i, i - 1, -g_chain).unwrap();
        }
        let border = vec![vec![-g_vert; n], vec![0.0; n]];
        let corner = vec![
            vec![n as f64 * g_vert + g_sp_sink, -g_sp_sink],
            vec![-g_sp_sink, g_sp_sink + g_ground],
        ];
        (core, border, corner)
    }

    #[allow(clippy::needless_range_loop)]
    fn dense_solve(full: &[Vec<f64>], b: &[f64]) -> Vec<f64> {
        // Plain Gaussian elimination for the reference solution.
        let n = b.len();
        let mut a: Vec<Vec<f64>> = full.to_vec();
        let mut x = b.to_vec();
        for col in 0..n {
            let pivot_row = (col..n)
                .max_by(|&r, &s| a[r][col].abs().total_cmp(&a[s][col].abs()))
                .unwrap();
            a.swap(col, pivot_row);
            x.swap(col, pivot_row);
            for row in col + 1..n {
                let factor = a[row][col] / a[col][col];
                for k in col..n {
                    a[row][k] -= factor * a[col][k];
                }
                x[row] -= factor * x[col];
            }
        }
        for row in (0..n).rev() {
            for k in row + 1..n {
                x[row] -= a[row][k] * x[k];
            }
            x[row] /= a[row][row];
        }
        x
    }

    #[allow(clippy::needless_range_loop)]
    fn assemble_dense(
        core: &BandedMatrix,
        border: &[Vec<f64>],
        corner: &[Vec<f64>],
    ) -> Vec<Vec<f64>> {
        let n = core.n();
        let m = border.len();
        let mut full = vec![vec![0.0; n + m]; n + m];
        for i in 0..n {
            for j in 0..n {
                full[i][j] = core.get(i, j);
            }
        }
        for (k, column) in border.iter().enumerate() {
            for i in 0..n {
                full[i][n + k] = column[i];
                full[n + k][i] = column[i];
            }
        }
        for i in 0..m {
            for j in 0..m {
                full[n + i][n + j] = corner[i][j];
            }
        }
        full
    }

    #[test]
    fn matches_dense_elimination() {
        let (core, border, corner) = fixture();
        let factor = BorderedBandedCholesky::new(&core, &border, &corner).unwrap();
        let full = assemble_dense(&core, &border, &corner);
        let b = vec![1.0, 0.5, 0.0, -0.5, 0.0, 2.0];
        let expected = dense_solve(&full, &b);
        let mut x = b.clone();
        factor.solve_into(&mut x).unwrap();
        for (a, e) in x.iter().zip(&expected) {
            assert!((a - e).abs() < 1e-10, "{a} vs {e}");
        }
    }

    #[test]
    fn repeated_solves_are_consistent() {
        let (core, border, corner) = fixture();
        let factor = BorderedBandedCholesky::new(&core, &border, &corner).unwrap();
        let full = assemble_dense(&core, &border, &corner);
        for seed in 0..5 {
            let b: Vec<f64> = (0..6).map(|i| ((seed * 7 + i) % 5) as f64 - 2.0).collect();
            let mut x = b.clone();
            factor.solve_into(&mut x).unwrap();
            let expected = dense_solve(&full, &b);
            for (a, e) in x.iter().zip(&expected) {
                assert!((a - e).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn empty_border_degenerates_to_banded_cholesky() {
        let (core, _, _) = fixture();
        let factor = BorderedBandedCholesky::new(&core, &[], &[]).unwrap();
        let plain = BandedCholesky::new(&core).unwrap();
        let mut x1 = vec![1.0, 2.0, 3.0, 4.0];
        let mut x2 = x1.clone();
        factor.solve_into(&mut x1).unwrap();
        plain.solve_into(&mut x2).unwrap();
        assert_eq!(x1, x2);
    }

    #[test]
    fn malformed_shapes_are_rejected() {
        let (core, border, corner) = fixture();
        let message = |error: ThermalError| match error {
            ThermalError::InvalidParameter(message) => message,
            other => panic!("expected InvalidParameter, got {other:?}"),
        };
        let error = BorderedBandedCholesky::new(&core, &border, &corner[..1]).unwrap_err();
        assert_eq!(
            message(error),
            "bordered corner rows: expected dimension 2, got 1"
        );
        let short_border = vec![vec![0.0; 2], vec![0.0; 4]];
        let error = BorderedBandedCholesky::new(&core, &short_border, &corner).unwrap_err();
        assert_eq!(
            message(error),
            "bordered border column: expected dimension 4, got 2"
        );
        let ragged_corner = vec![vec![1.0], vec![0.0, 1.0]];
        let error = BorderedBandedCholesky::new(&core, &border, &ragged_corner).unwrap_err();
        assert_eq!(
            message(error),
            "bordered corner columns: expected dimension 2, got 1"
        );
        let factor = BorderedBandedCholesky::new(&core, &border, &corner).unwrap();
        let mut wrong = vec![0.0; 5];
        assert_eq!(
            message(factor.solve_into(&mut wrong).unwrap_err()),
            "bordered solve: expected dimension 6, got 5"
        );
    }

    #[test]
    fn indefinite_schur_complement_is_rejected() {
        let (core, border, _) = fixture();
        // Corner too weak: the Schur complement goes negative.
        let corner = vec![vec![0.1, 0.0], vec![0.0, 0.1]];
        assert_eq!(
            BorderedBandedCholesky::new(&core, &border, &corner),
            Err(ThermalError::SingularSystem)
        );
    }
}
