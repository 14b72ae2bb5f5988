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

/// Welford single-pass accumulator for mean and variance.
///
/// Used where the historical store streams records instead of materializing
/// per-slot sample vectors.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one observation in.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations folded in.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Current mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance; 0 when empty.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn population_std(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Sample variance (`n - 1` denominator); 0 when fewer than 2 samples.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 += other.m2 + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.count = total;
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

    #[test]
    fn online_matches_batch() {
        let xs = [1.0, 2.0, 3.5, -4.0, 0.25];
        let mut acc = OnlineStats::new();
        for &x in &xs {
            acc.push(x);
        }
        assert!(approx_eq(acc.mean(), mean(&xs), 1e-12));
        assert!(approx_eq(acc.population_std(), population_std(&xs), 1e-12));
        assert_eq!(acc.count(), xs.len() as u64);
    }

    #[test]
    fn merge_matches_single_pass() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [10.0, 20.0];
        let mut a = OnlineStats::new();
        xs.iter().for_each(|&x| a.push(x));
        let mut b = OnlineStats::new();
        ys.iter().for_each(|&y| b.push(y));
        a.merge(&b);

        let mut all = OnlineStats::new();
        xs.iter().chain(ys.iter()).for_each(|&x| all.push(x));
        assert!(approx_eq(a.mean(), all.mean(), 1e-12));
        assert!(approx_eq(a.population_variance(), all.population_variance(), 1e-12));
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(5.0);
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);
        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
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

        #[test]
        fn online_variance_nonnegative(xs in proptest::collection::vec(-1e6..1e6f64, 0..128)) {
            let mut acc = OnlineStats::new();
            for x in &xs {
                acc.push(*x);
            }
            prop_assert!(acc.population_variance() >= 0.0);
        }
    }
}

/// Welford-style single-pass accumulator for the covariance of a paired
/// stream `(x, y)`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineCov {
    count: u64,
    mean_x: f64,
    mean_y: f64,
    m2_x: f64,
    m2_y: f64,
    comoment: f64,
}

impl OnlineCov {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one pair in.
    pub fn push(&mut self, x: f64, y: f64) {
        self.count += 1;
        let n = self.count as f64;
        let dx = x - self.mean_x;
        self.mean_x += dx / n;
        self.m2_x += dx * (x - self.mean_x);
        let dy = y - self.mean_y;
        self.mean_y += dy / n;
        self.m2_y += dy * (y - self.mean_y);
        // Co-moment uses the updated mean_x and pre-update mean_y shift.
        self.comoment += dx * (y - self.mean_y);
    }

    /// Number of pairs folded in.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Population covariance; 0 when empty.
    pub fn population_cov(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.comoment / self.count as f64
        }
    }

    /// Pearson correlation; 0 when either marginal is constant or fewer
    /// than 2 pairs were seen.
    pub fn pearson(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let denom = (self.m2_x * self.m2_y).sqrt();
        if denom < 1e-12 {
            0.0
        } else {
            (self.comoment / denom).clamp(-1.0, 1.0)
        }
    }
}

#[cfg(test)]
mod online_cov_tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn matches_batch_pearson() {
        let xs = [1.0, 2.0, 4.0, 3.0, 5.5];
        let ys = [2.1, 3.9, 8.3, 6.0, 10.8];
        let mut acc = OnlineCov::new();
        for (&x, &y) in xs.iter().zip(ys.iter()) {
            acc.push(x, y);
        }
        assert!(approx_eq(acc.pearson(), pearson(&xs, &ys), 1e-12));
        // Batch population covariance.
        let mx = mean(&xs);
        let my = mean(&ys);
        let cov: f64 = xs.iter().zip(ys.iter()).map(|(x, y)| (x - mx) * (y - my)).sum::<f64>()
            / xs.len() as f64;
        assert!(approx_eq(acc.population_cov(), cov, 1e-12));
    }

    #[test]
    fn degenerate_cases() {
        let mut acc = OnlineCov::new();
        assert_eq!(acc.pearson(), 0.0);
        acc.push(1.0, 2.0);
        assert_eq!(acc.pearson(), 0.0); // single pair
        acc.push(1.0, 5.0); // x constant
        assert_eq!(acc.pearson(), 0.0);
    }

    #[test]
    fn perfect_correlation() {
        let mut acc = OnlineCov::new();
        for i in 0..10 {
            acc.push(i as f64, 3.0 * i as f64 + 1.0);
        }
        assert!(approx_eq(acc.pearson(), 1.0, 1e-12));
    }
}
