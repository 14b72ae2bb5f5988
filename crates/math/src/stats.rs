//! Summary statistics used by the RTF moment estimator and the synthetic
//! data generator.
//!
//! Two API surfaces cover the same math:
//!
//! * the plain functions ([`mean`], [`population_std`], …) keep the
//!   historical convention of returning `0.0` for degenerate samples —
//!   convenient inside the moment estimator, where an empty history slot
//!   legitimately means "no signal";
//! * the `try_*` variants return a typed [`StatsError`] instead, and also
//!   reject non-finite inputs, for callers that need to distinguish "no
//!   data" from "zero".

use std::error::Error;
use std::fmt;

/// Why a statistic could not be computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsError {
    /// Fewer observations than the statistic needs.
    TooFewSamples {
        /// Minimum sample count for the statistic.
        needed: usize,
        /// Observed sample count.
        got: usize,
    },
    /// Paired samples of different lengths.
    LengthMismatch {
        /// Length of the first sample.
        left: usize,
        /// Length of the second sample.
        right: usize,
    },
    /// An input value was NaN or infinite; the offending index is given.
    NonFiniteInput {
        /// Index of the first non-finite value.
        index: usize,
    },
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::TooFewSamples { needed, got } => {
                write!(f, "need at least {needed} samples, got {got}")
            }
            StatsError::LengthMismatch { left, right } => {
                write!(f, "paired samples differ in length: {left} vs {right}")
            }
            StatsError::NonFiniteInput { index } => {
                write!(f, "non-finite input at index {index}")
            }
        }
    }
}

impl Error for StatsError {}

fn check_finite(xs: &[f64]) -> Result<(), StatsError> {
    match xs.iter().position(|x| !x.is_finite()) {
        None => Ok(()),
        Some(index) => Err(StatsError::NonFiniteInput { index }),
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Arithmetic mean with typed errors: rejects empty and non-finite input.
pub fn try_mean(xs: &[f64]) -> Result<f64, StatsError> {
    if xs.is_empty() {
        return Err(StatsError::TooFewSamples { needed: 1, got: 0 });
    }
    check_finite(xs)?;
    Ok(mean(xs))
}

/// Population standard deviation (divides by `n`); 0 for slices of length < 1.
pub fn population_std(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Population standard deviation with typed errors: rejects empty and
/// non-finite input.
pub fn try_population_std(xs: &[f64]) -> Result<f64, StatsError> {
    if xs.is_empty() {
        return Err(StatsError::TooFewSamples { needed: 1, got: 0 });
    }
    check_finite(xs)?;
    Ok(population_std(xs))
}

/// Sample standard deviation (divides by `n - 1`); 0 for slices of length < 2.
pub fn sample_std(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// Sample standard deviation with typed errors: rejects fewer than 2
/// samples and non-finite input.
pub fn try_sample_std(xs: &[f64]) -> Result<f64, StatsError> {
    if xs.len() < 2 {
        return Err(StatsError::TooFewSamples { needed: 2, got: xs.len() });
    }
    check_finite(xs)?;
    Ok(sample_std(xs))
}

/// Pearson correlation with typed errors: rejects mismatched lengths,
/// fewer than 2 pairs, and non-finite input. A numerically constant
/// marginal still maps to `Ok(0.0)` — that is a well-defined answer for
/// the RTF estimator, not an error.
pub fn try_pearson(xs: &[f64], ys: &[f64]) -> Result<f64, StatsError> {
    if xs.len() != ys.len() {
        return Err(StatsError::LengthMismatch { left: xs.len(), right: ys.len() });
    }
    if xs.len() < 2 {
        return Err(StatsError::TooFewSamples { needed: 2, got: xs.len() });
    }
    check_finite(xs)?;
    check_finite(ys)?;
    Ok(pearson(xs, ys))
}

/// Pearson correlation coefficient of two paired samples.
///
/// Returns 0 when either sample is (numerically) constant, which is the
/// behaviour the RTF moment estimator wants: a road whose speed never varies
/// carries no correlation signal.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "pearson length mismatch");
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys.iter()) {
        let dx = x - mx;
        let dy = y - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    let denom = (sxx * syy).sqrt();
    if denom < 1e-12 {
        0.0
    } else {
        (sxy / denom).clamp(-1.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use proptest::prelude::*;

    #[test]
    fn mean_and_std_hand_values() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!(approx_eq(mean(&xs), 5.0, 1e-12));
        assert!(approx_eq(population_std(&xs), 2.0, 1e-12));
    }

    #[test]
    fn empty_and_singleton_edge_cases() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(population_std(&[]), 0.0);
        assert_eq!(sample_std(&[3.0]), 0.0);
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
    }

    #[test]
    fn try_variants_reject_degenerate_input() {
        assert_eq!(try_mean(&[]), Err(StatsError::TooFewSamples { needed: 1, got: 0 }));
        assert_eq!(try_population_std(&[]), Err(StatsError::TooFewSamples { needed: 1, got: 0 }));
        assert_eq!(try_sample_std(&[3.0]), Err(StatsError::TooFewSamples { needed: 2, got: 1 }));
        assert_eq!(
            try_pearson(&[1.0, 2.0], &[1.0]),
            Err(StatsError::LengthMismatch { left: 2, right: 1 })
        );
        assert_eq!(
            try_pearson(&[1.0], &[2.0]),
            Err(StatsError::TooFewSamples { needed: 2, got: 1 })
        );
    }

    #[test]
    fn try_variants_reject_non_finite_input() {
        assert_eq!(try_mean(&[1.0, f64::NAN]), Err(StatsError::NonFiniteInput { index: 1 }));
        assert_eq!(
            try_population_std(&[f64::INFINITY]),
            Err(StatsError::NonFiniteInput { index: 0 })
        );
        assert_eq!(
            try_sample_std(&[1.0, f64::NEG_INFINITY]),
            Err(StatsError::NonFiniteInput { index: 1 })
        );
        assert_eq!(
            try_pearson(&[1.0, f64::NAN], &[1.0, 2.0]),
            Err(StatsError::NonFiniteInput { index: 1 })
        );
    }

    #[test]
    fn try_variants_agree_with_plain_on_good_input() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(try_mean(&xs), Ok(mean(&xs)));
        assert_eq!(try_population_std(&xs), Ok(population_std(&xs)));
        assert_eq!(try_sample_std(&xs), Ok(sample_std(&xs)));
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x - 1.0).collect();
        assert_eq!(try_pearson(&xs, &ys), Ok(pearson(&xs, &ys)));
        // A constant marginal is a defined answer, not an error.
        assert_eq!(try_pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), Ok(0.0));
    }

    #[test]
    fn stats_error_display() {
        let s = StatsError::TooFewSamples { needed: 2, got: 0 }.to_string();
        assert!(s.contains("at least 2"));
        let s = StatsError::NonFiniteInput { index: 4 }.to_string();
        assert!(s.contains("index 4"));
    }

    #[test]
    fn pearson_perfect_correlation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!(approx_eq(pearson(&xs, &ys), 1.0, 1e-12));
        let neg: Vec<f64> = ys.iter().map(|y| -y).collect();
        assert!(approx_eq(pearson(&xs, &neg), -1.0, 1e-12));
    }

    #[test]
    fn pearson_constant_series_is_zero() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    proptest! {
        #[test]
        fn pearson_bounded(
            xs in proptest::collection::vec(-1e3..1e3f64, 2..64),
        ) {
            let ys: Vec<f64> = xs.iter().map(|x| x * 0.5 + 1.0).collect();
            let r = pearson(&xs, &ys);
            prop_assert!((-1.0..=1.0).contains(&r));
        }
    }
}
