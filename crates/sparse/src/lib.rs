//! Sparse linear algebra powering the grid thermal model.
//!
//! The block-level compact model solves tiny dense systems (one node per
//! PE), but the validation-grade [`GridModel`] discretises the die into
//! `nx x ny` cells and its Laplacian is far too large for dense methods.
//! This crate provides the one direct solver that workload needs,
//! dependency free:
//!
//! * [`BandedMatrix`] / [`BandedCholesky`] — symmetric banded storage and
//!   its cached `L L^T` factor (the grid Laplacian has bandwidth `nx`),
//! * [`BorderedBandedCholesky`] — the same for banded systems with a few
//!   dense coupling rows (the spreader/sink nodes), by block elimination.
//!
//! Both factors solve in place with `solve_into`, so repeated right-hand
//! sides allocate nothing.
//!
//! [`GridModel`]: https://docs.rs/tats_thermal
//!
//! # Examples
//!
//! ```
//! use tats_sparse::{BandedCholesky, BandedMatrix};
//!
//! # fn main() -> Result<(), tats_sparse::SparseError> {
//! // Assemble a 1-D conductance chain with a ground leak per node.
//! let n = 32;
//! let mut a = BandedMatrix::zeros(n, 1);
//! for i in 0..n {
//!     a.add(i, i, 0.05)?;
//! }
//! for i in 1..n {
//!     a.add(i - 1, i - 1, 1.0)?;
//!     a.add(i, i, 1.0)?;
//!     a.add(i, i - 1, -1.0)?;
//! }
//!
//! // Factor once, then solve in place for each right-hand side.
//! let factor = BandedCholesky::new(&a)?;
//! let mut x = vec![1.0; n];
//! factor.solve_into(&mut x)?;
//! // Uniform injection into a uniform leak: every node sits at 1 / 0.05.
//! assert!(x.iter().all(|t| (t - 20.0).abs() < 1e-9));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod banded;
mod bordered;
mod error;

pub use banded::{BandedCholesky, BandedMatrix};
pub use bordered::BorderedBandedCholesky;
pub use error::SparseError;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Assembles a random 2-D grid conductance system (5-point stencil with
    /// per-node ground leak) as a banded matrix.
    fn grid_matrix(nx: usize, ny: usize, leak: f64, coupling: f64) -> BandedMatrix {
        let n = nx * ny;
        let mut banded = BandedMatrix::zeros(n, nx);
        for i in 0..n {
            banded.add(i, i, leak).unwrap();
        }
        for y in 0..ny {
            for x in 0..nx {
                let i = y * nx + x;
                if x + 1 < nx {
                    banded.add(i, i, coupling).unwrap();
                    banded.add(i + 1, i + 1, coupling).unwrap();
                    banded.add(i + 1, i, -coupling).unwrap();
                }
                if y + 1 < ny {
                    banded.add(i, i, coupling).unwrap();
                    banded.add(i + nx, i + nx, coupling).unwrap();
                    banded.add(i + nx, i, -coupling).unwrap();
                }
            }
        }
        banded
    }

    proptest! {
        /// Solving then multiplying round-trips the right-hand side.
        #[test]
        fn solve_spmv_round_trips(
            nx in 2usize..6,
            ny in 2usize..6,
            leak in 0.05f64..1.0,
            rhs in proptest::collection::vec(-5.0f64..5.0, 25),
        ) {
            let banded = grid_matrix(nx, ny, leak, 1.0);
            let n = banded.n();
            let b = &rhs[..n];
            let mut x = b.to_vec();
            BandedCholesky::new(&banded).unwrap().solve_into(&mut x).unwrap();
            for (i, bi) in b.iter().enumerate() {
                let back: f64 = (0..n).map(|j| banded.get(i, j) * x[j]).sum();
                prop_assert!((bi - back).abs() < 1e-8);
            }
        }
    }
}
