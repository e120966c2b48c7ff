//! Minimal dense linear algebra for the compact thermal model.
//!
//! The compact RC network leads to small dense symmetric systems (one row
//! per block plus a handful of package nodes), so a straightforward
//! LU decomposition with partial pivoting is both sufficient and dependency
//! free. The grid model needs no factorisation: the 2-D DCT-II diagonalises
//! its uniform cell system (see `grid.rs`).

use std::ops::{Index, IndexMut};

use crate::error::ThermalError;

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Adds `value` to the entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn add_to(&mut self, row: usize, col: usize, value: f64) {
        self[(row, col)] += value;
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] when `x.len() != cols`.
    #[cfg(test)]
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, ThermalError> {
        if x.len() != self.cols {
            return Err(ThermalError::InvalidParameter(format!(
                "matvec dimension mismatch: {} columns vs {} entries",
                self.cols,
                x.len()
            )));
        }
        let y = self
            .data
            .chunks_exact(self.cols)
            .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
            .collect();
        Ok(y)
    }

    /// Solves `A x = b` by LU decomposition with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] for non-square matrices or
    /// mismatched right-hand sides and [`ThermalError::SingularSystem`] when
    /// the matrix is numerically singular.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, ThermalError> {
        let lu = LuDecomposition::new(self)?;
        lu.solve(b)
    }

    /// Sets every entry to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (row, col): (usize, usize)) -> &f64 {
        assert!(
            row < self.rows && col < self.cols,
            "matrix index out of bounds"
        );
        &self.data[row * self.cols + col]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut f64 {
        assert!(
            row < self.rows && col < self.cols,
            "matrix index out of bounds"
        );
        &mut self.data[row * self.cols + col]
    }
}

/// LU decomposition with partial pivoting, reusable across right-hand sides.
///
/// Constructing the decomposition once and calling
/// [`LuDecomposition::solve`] repeatedly is how the thermal model amortises
/// the factorisation across its influence-matrix columns and the
/// steady-state solves of schedule evaluation.
#[derive(Debug, Clone)]
pub struct LuDecomposition {
    n: usize,
    lu: Vec<f64>,
    /// Pivoting recorded as a swap sequence (LAPACK `ipiv` style):
    /// at elimination step `col`, rows `col` and `swaps[col]` were exchanged.
    /// Unlike a gathered permutation vector, a swap sequence can be applied
    /// to a right-hand side *in place*, which is what makes
    /// [`LuDecomposition::solve_into`] allocation free.
    swaps: Vec<usize>,
}

/// The shared elimination kernel: factorises `lu` (row-major, `n x n`) in
/// place, recording row exchanges in `swaps`.
fn factorize_in_place(lu: &mut [f64], swaps: &mut [usize], n: usize) -> Result<(), ThermalError> {
    for col in 0..n {
        // Find pivot.
        let mut pivot_row = col;
        let mut pivot_val = lu[col * n + col].abs();
        for row in (col + 1)..n {
            let v = lu[row * n + col].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = row;
            }
        }
        if pivot_val < 1e-300 {
            return Err(ThermalError::SingularSystem);
        }
        swaps[col] = pivot_row;
        if pivot_row != col {
            for k in 0..n {
                lu.swap(col * n + k, pivot_row * n + k);
            }
        }
        // Eliminate below.
        let pivot = lu[col * n + col];
        for row in (col + 1)..n {
            let factor = lu[row * n + col] / pivot;
            lu[row * n + col] = factor;
            for k in (col + 1)..n {
                lu[row * n + k] -= factor * lu[col * n + k];
            }
        }
    }
    Ok(())
}

impl LuDecomposition {
    /// Factorises a square matrix.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] for non-square input and
    /// [`ThermalError::SingularSystem`] for singular matrices.
    pub fn new(matrix: &Matrix) -> Result<Self, ThermalError> {
        if !matrix.is_square() {
            return Err(ThermalError::InvalidParameter(
                "LU decomposition requires a square matrix".to_string(),
            ));
        }
        let n = matrix.rows();
        let mut lu = matrix.data.clone();
        let mut swaps: Vec<usize> = (0..n).collect();
        factorize_in_place(&mut lu, &mut swaps, n)?;
        Ok(LuDecomposition { n, lu, swaps })
    }

    /// Creates an unfactorised placeholder of dimension `n` whose storage is
    /// meant to be filled by [`LuDecomposition::refactor`] before the first
    /// solve (a solve against the untouched placeholder yields non-finite
    /// values, never undefined behaviour).
    pub fn placeholder(n: usize) -> Self {
        LuDecomposition {
            n,
            lu: vec![0.0; n * n],
            swaps: (0..n).collect(),
        }
    }

    /// Re-factorises `matrix` reusing this decomposition's storage; no heap
    /// allocation occurs when the dimension is unchanged.
    ///
    /// This is the "rebuild only what moved" half of the floorplanner's
    /// cached thermal kernel: the matrix entries change with every candidate
    /// placement, but the workspace does not.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] for non-square input and
    /// [`ThermalError::SingularSystem`] for singular matrices (the stored
    /// factorisation is invalidated in that case).
    pub fn refactor(&mut self, matrix: &Matrix) -> Result<(), ThermalError> {
        if !matrix.is_square() {
            return Err(ThermalError::InvalidParameter(
                "LU decomposition requires a square matrix".to_string(),
            ));
        }
        let n = matrix.rows();
        if n != self.n {
            self.n = n;
            self.lu.clear();
            self.lu.reserve(n * n);
            self.swaps.clear();
            self.swaps.extend(0..n);
            self.lu.extend_from_slice(&matrix.data);
        } else {
            self.lu.copy_from_slice(&matrix.data);
        }
        factorize_in_place(&mut self.lu, &mut self.swaps, n)
    }

    /// Solves `A x = b` using the stored factorisation.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] when `b.len()` differs from
    /// the system dimension.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, ThermalError> {
        let mut x = b.to_vec();
        self.solve_into(&mut x)?;
        Ok(x)
    }

    /// Solves `A x = b` in place: `b` holds the right-hand side on entry and
    /// the solution on exit. Performs **zero heap allocations** — this is the
    /// steady-state query path of the cached thermal kernel.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] when `b.len()` differs from
    /// the system dimension.
    pub fn solve_into(&self, b: &mut [f64]) -> Result<(), ThermalError> {
        if b.len() != self.n {
            return Err(ThermalError::InvalidParameter(format!(
                "right-hand side has {} entries, expected {}",
                b.len(),
                self.n
            )));
        }
        let n = self.n;
        // Apply the recorded row exchanges.
        for (col, &swap_row) in self.swaps.iter().enumerate() {
            if swap_row != col {
                b.swap(col, swap_row);
            }
        }
        // Forward substitution (L has an implicit unit diagonal).
        for i in 1..n {
            let (solved, rest) = b.split_at_mut(i);
            let mut sum = rest[0];
            for (l, x) in self.lu[i * n..i * n + i].iter().zip(solved.iter()) {
                sum -= l * x;
            }
            rest[0] = sum;
        }
        // Backward substitution.
        for i in (0..n).rev() {
            let (head, solved) = b.split_at_mut(i + 1);
            let mut sum = head[i];
            for (u, x) in self.lu[i * n + i + 1..(i + 1) * n]
                .iter()
                .zip(solved.iter())
            {
                sum -= u * x;
            }
            head[i] = sum / self.lu[i * n + i];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A matrix from equal-length rows.
    fn matrix(rows: &[&[f64]]) -> Matrix {
        let mut m = Matrix::zeros(rows.len(), rows[0].len());
        for (i, row) in rows.iter().enumerate() {
            for (j, &value) in row.iter().enumerate() {
                m[(i, j)] = value;
            }
        }
        m
    }

    fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    #[test]
    fn identity_solves_trivially() {
        let a = identity(3);
        let x = a.solve(&[1.0, -2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, -2.0, 3.0]);
    }

    #[test]
    fn known_2x2_system() {
        let a = matrix(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = a.solve(&[3.0, 5.0]).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = matrix(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = a.solve(&[2.0, 5.0]).unwrap();
        assert!((x[0] - 5.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = matrix(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(
            a.solve(&[1.0, 2.0]).unwrap_err(),
            ThermalError::SingularSystem
        );
    }

    #[test]
    fn non_square_solve_is_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            a.solve(&[1.0, 2.0]),
            Err(ThermalError::InvalidParameter(_))
        ));
    }

    #[test]
    fn rhs_length_mismatch_is_rejected() {
        let a = identity(3);
        assert!(matches!(
            a.solve(&[1.0, 2.0]),
            Err(ThermalError::InvalidParameter(_))
        ));
    }

    #[test]
    fn matvec_matches_manual_product() {
        let a = matrix(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let y = a.matvec(&[1.0, 0.0, -1.0]).unwrap();
        assert_eq!(y, vec![-2.0, -2.0]);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn solve_then_matvec_round_trips() {
        let a = matrix(&[
            &[10.0, 2.0, 0.5, 0.0],
            &[2.0, 8.0, 1.0, 0.3],
            &[0.5, 1.0, 6.0, 1.2],
            &[0.0, 0.3, 1.2, 9.0],
        ]);
        let b = vec![1.0, 2.0, 3.0, 4.0];
        let x = a.solve(&b).unwrap();
        let back = a.matvec(&x).unwrap();
        for (bi, backi) in b.iter().zip(back.iter()) {
            assert!((bi - backi).abs() < 1e-10);
        }
    }

    #[test]
    fn lu_is_reusable_across_rhs() {
        let a = matrix(&[&[3.0, 1.0], &[1.0, 2.0]]);
        let lu = LuDecomposition::new(&a).unwrap();
        for b in [[1.0, 0.0], [0.0, 1.0], [5.0, -3.0]] {
            let x = lu.solve(&b).unwrap();
            let back = a.matvec(&x).unwrap();
            assert!((back[0] - b[0]).abs() < 1e-12);
            assert!((back[1] - b[1]).abs() < 1e-12);
        }
        assert!(lu.solve(&[1.0]).is_err());
    }

    #[test]
    fn solve_into_matches_solve() {
        let a = matrix(&[
            &[10.0, 2.0, 0.5, 0.0],
            &[2.0, 8.0, 1.0, 0.3],
            &[0.5, 1.0, 6.0, 1.2],
            &[0.0, 0.3, 1.2, 9.0],
        ]);
        let lu = LuDecomposition::new(&a).unwrap();
        let b = vec![1.0, -2.0, 3.0, 4.0];
        let expected = lu.solve(&b).unwrap();
        let mut in_place = b.clone();
        lu.solve_into(&mut in_place).unwrap();
        assert_eq!(in_place, expected);
        let mut wrong = vec![1.0; 3];
        assert!(lu.solve_into(&mut wrong).is_err());
    }

    #[test]
    fn refactor_reuses_storage_and_matches_fresh_factorisation() {
        let a = matrix(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let b = matrix(&[&[3.0, 1.0], &[1.0, 2.0]]);
        let mut lu = LuDecomposition::placeholder(2);
        lu.refactor(&a).unwrap();
        assert_eq!(
            lu.solve(&[2.0, 5.0]).unwrap(),
            LuDecomposition::new(&a)
                .unwrap()
                .solve(&[2.0, 5.0])
                .unwrap()
        );
        lu.refactor(&b).unwrap();
        assert_eq!(
            lu.solve(&[1.0, 0.0]).unwrap(),
            LuDecomposition::new(&b)
                .unwrap()
                .solve(&[1.0, 0.0])
                .unwrap()
        );
        // Dimension changes are accommodated.
        let c = identity(3);
        lu.refactor(&c).unwrap();
        assert_eq!(lu.solve(&[1.0, 2.0, 3.0]).unwrap(), vec![1.0, 2.0, 3.0]);
        // Singular refactor is reported.
        let s = matrix(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(lu.refactor(&s).unwrap_err(), ThermalError::SingularSystem);
    }

    #[test]
    fn matrix_slice_and_reset_helpers() {
        let mut m = matrix(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(1, 0)], 3.0);
        m.fill_zero();
        assert_eq!(m, Matrix::zeros(2, 2));
    }

    #[test]
    fn indexing_and_max_abs() {
        let mut m = Matrix::zeros(2, 2);
        m[(0, 1)] = -7.5;
        m.add_to(0, 1, -0.5);
        assert_eq!(m[(0, 1)], -8.0);
        assert_eq!(m, matrix(&[&[0.0, -8.0], &[0.0, 0.0]]));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_indexing_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m[(2, 0)];
    }
}
