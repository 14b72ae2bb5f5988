//! Dense linear algebra and statistics substrate for CrowdRTSE.
//!
//! The paper's baselines (LASSO regression and graph-regularized matrix
//! completion) and the RTF trainer need a small but real numerical toolkit.
//! This crate provides it from scratch: a dense [`Matrix`], vector kernels,
//! a Cholesky solver, coordinate-descent LASSO and ridge solvers, summary
//! statistics, and histogram utilities used by the evaluation metrics.
//!
//! Everything is `f64`, row-major, and allocation-conscious: the solvers
//! reuse workspace buffers and the kernels operate on slices so callers can
//! bring their own storage.

pub mod cg;
pub mod cholesky;
pub mod histogram;
pub mod lasso;
pub mod matrix;
pub mod ridge;
pub mod sparse;
pub mod stats;
pub mod vector;

pub use cg::{conjugate_gradient, CgSolution};
pub use cholesky::CholeskyError;
pub use histogram::Histogram;
pub use lasso::{lasso_coordinate_descent, LassoConfig, LassoSolution};
pub use matrix::Matrix;
pub use ridge::ridge_solve;
pub use sparse::SparseMatrix;
pub use stats::{
    mean, pearson, population_std, sample_std, try_mean, try_pearson, try_population_std,
    try_sample_std, StatsError,
};

/// Numerical tolerance used across the crate when comparing floats.
pub const EPS: f64 = 1e-12;

/// Returns `true` when two floats agree within `tol` absolutely or relatively.
///
/// Used pervasively in tests; relative comparison guards against large
/// magnitudes, absolute comparison guards against values near zero.
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    if diff <= tol {
        return true;
    }
    let scale = a.abs().max(b.abs());
    diff <= tol * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute() {
        assert!(approx_eq(1e-13, 0.0, 1e-9));
        assert!(!approx_eq(1e-3, 0.0, 1e-9));
    }

    #[test]
    fn approx_eq_relative() {
        assert!(approx_eq(1e9, 1e9 + 1.0, 1e-6));
        assert!(!approx_eq(1e9, 1.01e9, 1e-6));
    }
}
