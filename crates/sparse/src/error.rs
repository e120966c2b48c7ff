//! Error types of the sparse linear-algebra subsystem.

use std::fmt;

/// Errors produced while assembling, factorising or solving banded systems.
#[derive(Debug, Clone, PartialEq)]
pub enum SparseError {
    /// A dimension did not match (vector length, matrix size, bandwidth).
    DimensionMismatch {
        /// What was being matched (e.g. "banded solve").
        context: &'static str,
        /// The dimension the operation required.
        expected: usize,
        /// The dimension it was given.
        actual: usize,
    },
    /// An index was outside the matrix.
    IndexOutOfBounds {
        /// Row index supplied.
        row: usize,
        /// Column index supplied.
        col: usize,
        /// Matrix dimension.
        n: usize,
    },
    /// A pivot required by a Cholesky-type factorisation was not positive:
    /// the matrix is not (numerically) positive definite.
    NotPositiveDefinite {
        /// Elimination step at which the pivot failed.
        pivot: usize,
        /// The offending pivot value.
        value: f64,
    },
    /// A value that must be finite (and possibly positive) was not.
    InvalidValue {
        /// What the value was (e.g. "banded entry").
        context: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::DimensionMismatch {
                context,
                expected,
                actual,
            } => write!(f, "{context}: expected dimension {expected}, got {actual}"),
            SparseError::IndexOutOfBounds { row, col, n } => {
                write!(f, "entry ({row}, {col}) outside {n} x {n} matrix")
            }
            SparseError::NotPositiveDefinite { pivot, value } => write!(
                f,
                "matrix is not positive definite: pivot {pivot} is {value:.3e}"
            ),
            SparseError::InvalidValue { context, value } => {
                write!(f, "{context} must be finite, got {value}")
            }
        }
    }
}

impl std::error::Error for SparseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_have_nonempty_messages() {
        let errors = [
            SparseError::DimensionMismatch {
                context: "banded solve",
                expected: 4,
                actual: 3,
            },
            SparseError::IndexOutOfBounds {
                row: 5,
                col: 0,
                n: 4,
            },
            SparseError::NotPositiveDefinite {
                pivot: 3,
                value: -1.0,
            },
            SparseError::InvalidValue {
                context: "banded entry",
                value: f64::NAN,
            },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_std_error_send_sync() {
        fn assert_bounds<T: std::error::Error + Send + Sync>() {}
        assert_bounds::<SparseError>();
    }
}
