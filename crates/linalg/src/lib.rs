//! # maps-linalg
//!
//! Dependency-free numerical kernels underpinning the MAPS photonic
//! simulation stack: complex arithmetic, dense/banded/sparse matrices, the
//! pivot-free banded `L·Δ·Lᵀ` of a complex symmetric band (the direct
//! solver behind every FDFD solve: `maps-fdfd` symmetrizes its operator),
//! a pivoted banded LU for general bands, BiCGSTAB, and a symmetric
//! eigensolver.
//!
//! ```
//! use maps_linalg::{Complex64, SymBandedMatrix};
//!
//! # fn main() -> Result<(), maps_linalg::LinalgError> {
//! // A complex symmetric tridiagonal matrix (one sub-diagonal).
//! let mut s = SymBandedMatrix::zeros(3, 1);
//! for i in 0..3 {
//!     s.set(i, i, Complex64::new(2.0, 0.5));
//! }
//! s.set(1, 0, Complex64::from_re(-1.0));
//! let ldlt = s.clone().factorize()?;
//! // Each right-hand side is overwritten by its solution; one system is a
//! // block of one.
//! let mut x = vec![Complex64::ONE; 3];
//! ldlt.solve(std::slice::from_mut(&mut x));
//! let sx = s.matvec(&x);
//! assert!((sx[0] - Complex64::ONE).abs() < 1e-12);
//! // A block of right-hand sides shares one pass over the factor, and
//! // each solution is bit-identical to solving its system alone.
//! let mut xs = vec![vec![Complex64::ONE; 3]; 2];
//! ldlt.solve(&mut xs);
//! assert_eq!(xs[1], x);
//! # Ok(())
//! # }
//! ```

pub mod banded;
pub mod complex;
pub mod dense;
pub mod eigen;
pub mod iterative;
pub mod ldlt;
pub mod sparse;

pub use banded::{BandedLu, BandedMatrix};
pub use complex::Complex64;
pub use dense::{DMatrix, ZMatrix};
pub use eigen::{symmetric_eigen, SymmetricEigen};
pub use iterative::{bicgstab, IterativeOptions, IterativeStats};
pub use ldlt::{
    solve_refined, BandedLdlt, Residual, Seam, SymBandedMatrix, REFINE_ABOVE, RHS_BLOCK,
};
pub use sparse::{CooMatrix, CsrMatrix};

use std::fmt;

/// Errors produced by the numerical kernels.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LinalgError {
    /// A factorization hit an exactly zero pivot at the given elimination
    /// step; the matrix is singular (or numerically so).
    Singular {
        /// Elimination step at which the zero pivot appeared.
        index: usize,
    },
    /// An iterative method failed to reach the requested tolerance.
    NoConvergence {
        /// Iterations performed before giving up.
        iterations: usize,
        /// Relative residual at the final iterate.
        residual: f64,
    },
    /// A computation was abandoned before producing a result — e.g. a
    /// coalesced factorization whose leader panicked, leaving its followers
    /// with no factor to share.
    Aborted {
        /// What interrupted the computation.
        detail: String,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::Singular { index } => {
                write!(f, "matrix is singular (zero pivot at step {index})")
            }
            LinalgError::NoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "iterative solver did not converge after {iterations} iterations (residual {residual:.3e})"
            ),
            LinalgError::Aborted { detail } => write!(f, "computation aborted: {detail}"),
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
    }

    #[test]
    fn error_display_is_lowercase() {
        let e = LinalgError::Singular { index: 3 };
        let s = e.to_string();
        assert!(s.starts_with("matrix"));
    }
}
