//! Banded SPD storage and Cholesky factorisation.
//!
//! The grid thermal Laplacian has bandwidth `nx` (each cell couples to its
//! four neighbours), so an `L L^T` factorisation confined to the band costs
//! `O(n * bw^2)` once and every subsequent solve costs `O(n * bw)` — orders
//! of magnitude below a dense factorisation and, after caching the factor,
//! far below an iterative sweep per right-hand side.

use crate::error::ThermalError;

/// The error for a vector or block whose length does not fit the system.
pub(crate) fn dimension_mismatch(context: &str, expected: usize, actual: usize) -> ThermalError {
    ThermalError::InvalidParameter(format!(
        "{context}: expected dimension {expected}, got {actual}"
    ))
}

/// A symmetric banded matrix, storing the lower band row-major: entry
/// `(i, j)` with `i - bandwidth <= j <= i` lives at
/// `i * (bandwidth + 1) + (j - i + bandwidth)`.
#[derive(Debug)]
pub(crate) struct BandedMatrix {
    n: usize,
    bandwidth: usize,
    /// Lower band, `n` rows of `bandwidth + 1` entries each.
    band: Vec<f64>,
}

impl BandedMatrix {
    /// Creates an all-zero `n x n` symmetric matrix with the given lower
    /// bandwidth (0 = diagonal).
    pub(crate) fn zeros(n: usize, bandwidth: usize) -> Self {
        BandedMatrix {
            n,
            bandwidth,
            band: vec![0.0; n * (bandwidth + 1)],
        }
    }

    /// Dimension of the matrix.
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    fn offset(&self, i: usize, j: usize) -> Option<usize> {
        // Callers address the lower triangle: j <= i, within the band.
        if i >= self.n || j > i || i - j > self.bandwidth {
            return None;
        }
        Some(i * (self.bandwidth + 1) + (j + self.bandwidth - i))
    }

    /// Adds `value` to the symmetric entry `(i, j)` (address the lower
    /// triangle: `j <= i`).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] for non-finite values and
    /// for entries outside the band or above the diagonal.
    pub(crate) fn add(&mut self, i: usize, j: usize, value: f64) -> Result<(), ThermalError> {
        if !value.is_finite() {
            return Err(ThermalError::InvalidParameter(format!(
                "banded entry must be finite, got {value}"
            )));
        }
        match self.offset(i, j) {
            Some(at) => {
                self.band[at] += value;
                Ok(())
            }
            None => Err(ThermalError::InvalidParameter(format!(
                "entry ({i}, {j}) outside {n} x {n} matrix",
                n = self.n
            ))),
        }
    }

    /// The entry at `(i, j)` of the full symmetric matrix (0 outside the
    /// band): the reference products of the tests.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    #[cfg(test)]
    pub(crate) fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "banded index out of bounds");
        let (lo, hi) = if j <= i { (j, i) } else { (i, j) };
        self.offset(hi, lo).map_or(0.0, |at| self.band[at])
    }
}

/// Cached `L L^T` factorisation of a [`BandedMatrix`].
///
/// Factor once, then call [`BandedCholesky::solve_into`] for every
/// right-hand side: the grid model's steady-state queries and the border
/// columns of [`crate::bordered::BorderedBandedCholesky`] all reuse one
/// factor.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BandedCholesky {
    n: usize,
    bandwidth: usize,
    /// Lower-band storage of `L`, same layout as [`BandedMatrix`].
    band: Vec<f64>,
}

impl BandedCholesky {
    /// Factorises a symmetric positive-definite banded matrix.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::SingularSystem`] when a pivot is not strictly
    /// positive.
    pub(crate) fn new(matrix: &BandedMatrix) -> Result<Self, ThermalError> {
        let (n, bandwidth) = (matrix.n, matrix.bandwidth);
        let mut band = matrix.band.clone();
        let w = bandwidth + 1;
        for i in 0..n {
            let j_min = i.saturating_sub(bandwidth);
            for j in j_min..=i {
                // sum = a_ij - sum_k l_ik l_jk over the shared band k < j.
                let k_min = j.saturating_sub(bandwidth).max(j_min);
                let mut sum = band[i * w + (j + bandwidth - i)];
                for k in k_min..j {
                    sum -= band[i * w + (k + bandwidth - i)] * band[j * w + (k + bandwidth - j)];
                }
                let at = i * w + (j + bandwidth - i);
                if j == i {
                    if sum <= 0.0 || sum.is_nan() {
                        return Err(ThermalError::SingularSystem);
                    }
                    band[at] = sum.sqrt();
                } else {
                    band[at] = sum / band[j * w + bandwidth];
                }
            }
        }
        Ok(BandedCholesky { n, bandwidth, band })
    }

    /// Solves `A x = b` in place: `b` holds the right-hand side on entry and
    /// the solution on exit. **Zero heap allocations.**
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] when `b.len() != n`.
    pub(crate) fn solve_into(&self, b: &mut [f64]) -> Result<(), ThermalError> {
        if b.len() != self.n {
            return Err(dimension_mismatch("banded solve", self.n, b.len()));
        }
        let n = self.n;
        let w = self.bandwidth + 1;
        // Forward: L y = b.
        for i in 0..n {
            let j_min = i.saturating_sub(self.bandwidth);
            let row = &self.band[i * w + (j_min + self.bandwidth - i)..i * w + self.bandwidth];
            let (solved, rest) = b.split_at_mut(i);
            let mut sum = rest[0];
            for (l, x) in row.iter().zip(&solved[j_min..]) {
                sum -= l * x;
            }
            rest[0] = sum / self.band[i * w + self.bandwidth];
        }
        // Backward: L^T x = y, scattering row i of L into earlier entries.
        for i in (0..n).rev() {
            let xi = b[i] / self.band[i * w + self.bandwidth];
            b[i] = xi;
            let j_min = i.saturating_sub(self.bandwidth);
            let row = &self.band[i * w + (j_min + self.bandwidth - i)..i * w + self.bandwidth];
            for (l, x) in row.iter().zip(b[j_min..i].iter_mut()) {
                *x -= l * xi;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1-D chain conductance matrix with a ground leak: strictly SPD.
    fn chain(n: usize, bandwidth: usize) -> BandedMatrix {
        let mut a = BandedMatrix::zeros(n, bandwidth);
        for i in 0..n {
            a.add(i, i, 0.1).unwrap();
        }
        for i in 1..n {
            a.add(i, i, 1.0).unwrap();
            a.add(i - 1, i - 1, 1.0).unwrap();
            a.add(i, i - 1, -1.0).unwrap();
        }
        a
    }

    fn matvec(a: &BandedMatrix, x: &[f64]) -> Vec<f64> {
        (0..a.n())
            .map(|i| (0..a.n()).map(|j| a.get(i, j) * x[j]).sum())
            .collect()
    }

    #[test]
    fn factor_solve_round_trips() {
        let a = chain(20, 1);
        let factor = BandedCholesky::new(&a).unwrap();
        let b: Vec<f64> = (0..20).map(|i| (i as f64).sin()).collect();
        let mut x = b.clone();
        factor.solve_into(&mut x).unwrap();
        let back = matvec(&a, &x);
        for (bi, backi) in b.iter().zip(&back) {
            assert!((bi - backi).abs() < 1e-10);
        }
    }

    #[test]
    fn wider_band_than_structure_is_harmless() {
        let a_narrow = chain(12, 1);
        let mut a_wide = BandedMatrix::zeros(12, 4);
        for i in 0..12usize {
            for j in i.saturating_sub(1)..=i {
                a_wide.add(i, j, a_narrow.get(i, j)).unwrap();
            }
        }
        let b: Vec<f64> = (0..12).map(|i| i as f64 - 6.0).collect();
        let mut x_narrow = b.clone();
        let mut x_wide = b.clone();
        BandedCholesky::new(&a_narrow)
            .unwrap()
            .solve_into(&mut x_narrow)
            .unwrap();
        BandedCholesky::new(&a_wide)
            .unwrap()
            .solve_into(&mut x_wide)
            .unwrap();
        for (a, b) in x_narrow.iter().zip(&x_wide) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn indefinite_matrix_is_rejected() {
        let mut a = BandedMatrix::zeros(2, 1);
        a.add(0, 0, 1.0).unwrap();
        a.add(1, 1, 1.0).unwrap();
        a.add(1, 0, -2.0).unwrap();
        assert_eq!(BandedCholesky::new(&a), Err(ThermalError::SingularSystem));
    }

    #[test]
    fn out_of_band_and_invalid_entries_are_rejected() {
        let mut a = BandedMatrix::zeros(5, 1);
        let message = |result: Result<(), ThermalError>| match result {
            Err(ThermalError::InvalidParameter(message)) => message,
            other => panic!("expected InvalidParameter, got {other:?}"),
        };
        for (i, j) in [(3, 1), (1, 3), (5, 0)] {
            let expected = format!("entry ({i}, {j}) outside 5 x 5 matrix");
            assert_eq!(message(a.add(i, j, 1.0)), expected);
        }
        assert_eq!(
            message(a.add(1, 1, f64::NAN)),
            "banded entry must be finite, got NaN"
        );
        assert_eq!(a.get(0, 4), 0.0);
        a.add(1, 0, -2.5).unwrap();
        assert_eq!(a.get(0, 1), -2.5);
    }

    #[test]
    fn solve_rejects_wrong_length() {
        let factor = BandedCholesky::new(&chain(4, 1)).unwrap();
        let mut short = vec![1.0; 3];
        assert_eq!(
            factor.solve_into(&mut short),
            Err(ThermalError::InvalidParameter(
                "banded solve: expected dimension 4, got 3".to_string()
            ))
        );
    }
}
