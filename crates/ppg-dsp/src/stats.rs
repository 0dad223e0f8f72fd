//! Error metrics and summary statistics used by the evaluation harness.
//!
//! The paper reports accuracy as **mean absolute error** (MAE) in beats per
//! minute between the predicted and ECG-derived ground-truth heart rate,
//! averaged over all windows of the test subjects. Energy results are averages
//! per prediction. This module provides those reductions plus a few extras
//! (RMSE, bias, percentiles) used by the extended analyses.

use serde::{Deserialize, Serialize};

use crate::DspError;

/// Narrows an `f64` result to the `f32` return type, rejecting NaN (from NaN
/// inputs) and infinity (inputs whose mean overflows `f32`) instead of
/// returning `Ok(NaN)` / `Ok(inf)`. Every error-metric reduction funnels
/// through this after its empty/length guards.
fn finite_f32(op: &'static str, value: f64) -> Result<f32, DspError> {
    let narrowed = value as f32;
    if !narrowed.is_finite() {
        return Err(DspError::NonFinite { op });
    }
    Ok(narrowed)
}

/// Mean absolute error between two equal-length series.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] for empty inputs,
/// [`DspError::LengthMismatch`] when lengths differ (both checked before any
/// division) and [`DspError::NonFinite`] when the result is NaN (NaN inputs)
/// or overflows `f32`.
///
/// ```
/// # fn main() -> Result<(), ppg_dsp::DspError> {
/// let err = ppg_dsp::stats::mae(&[60.0, 80.0], &[61.0, 77.0])?;
/// assert!((err - 2.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn mae(predicted: &[f32], truth: &[f32]) -> Result<f32, DspError> {
    check("mae", predicted, truth)?;
    let sum: f64 = predicted
        .iter()
        .zip(truth)
        .map(|(&p, &t)| f64::from(p - t).abs())
        .sum();
    finite_f32("mae", sum / predicted.len() as f64)
}

/// Root-mean-square error between two equal-length series.
///
/// # Errors
///
/// Same conditions as [`mae`].
pub fn rmse(predicted: &[f32], truth: &[f32]) -> Result<f32, DspError> {
    check("rmse", predicted, truth)?;
    let sum: f64 = predicted
        .iter()
        .zip(truth)
        .map(|(&p, &t)| {
            let d = f64::from(p - t);
            d * d
        })
        .sum();
    finite_f32("rmse", (sum / predicted.len() as f64).sqrt())
}

/// Mean absolute percentage error between two equal-length series, in
/// percent.
///
/// # Errors
///
/// Same conditions as [`mae`], plus [`DspError::InvalidParameter`] when any
/// truth value is zero (the per-sample division would be infinite).
pub fn mape(predicted: &[f32], truth: &[f32]) -> Result<f32, DspError> {
    check("mape", predicted, truth)?;
    let mut sum = 0.0f64;
    for (&p, &t) in predicted.iter().zip(truth) {
        if t == 0.0 {
            return Err(DspError::InvalidParameter {
                op: "mape",
                name: "truth",
                requirement: "must be non-zero",
            });
        }
        sum += (f64::from(p) - f64::from(t)).abs() / f64::from(t).abs();
    }
    finite_f32("mape", 100.0 * sum / predicted.len() as f64)
}

/// Mean signed error (`mean(predicted - truth)`), positive when the predictor
/// over-estimates.
///
/// # Errors
///
/// Same conditions as [`mae`].
pub fn bias(predicted: &[f32], truth: &[f32]) -> Result<f32, DspError> {
    check("bias", predicted, truth)?;
    let sum: f64 = predicted
        .iter()
        .zip(truth)
        .map(|(&p, &t)| f64::from(p - t))
        .sum();
    finite_f32("bias", sum / predicted.len() as f64)
}

/// Arithmetic mean of a slice.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] for an empty slice.
pub fn mean(values: &[f32]) -> Result<f32, DspError> {
    if values.is_empty() {
        return Err(DspError::EmptyInput { op: "mean" });
    }
    Ok((values.iter().map(|&x| f64::from(x)).sum::<f64>() / values.len() as f64) as f32)
}

/// Population standard deviation of a slice.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] for an empty slice.
pub fn std_dev(values: &[f32]) -> Result<f32, DspError> {
    let m = f64::from(mean(values)?);
    let var = values
        .iter()
        .map(|&x| {
            let d = f64::from(x) - m;
            d * d
        })
        .sum::<f64>()
        / values.len() as f64;
    Ok(var.sqrt() as f32)
}

/// Linear-interpolated percentile (`p` in `[0, 100]`) of a slice.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] for an empty slice and
/// [`DspError::InvalidParameter`] when `p` is outside `[0, 100]`.
pub fn percentile(values: &[f32], p: f32) -> Result<f32, DspError> {
    if values.is_empty() {
        return Err(DspError::EmptyInput { op: "percentile" });
    }
    if !(0.0..=100.0).contains(&p) {
        return Err(DspError::InvalidParameter {
            op: "percentile",
            name: "p",
            requirement: "must be within [0, 100]",
        });
    }
    let mut sorted = values.to_vec();
    // total_cmp, not partial_cmp().expect: a NaN in the input must not be
    // able to panic a report path (lint rule D3). NaNs sort to the ends
    // under the IEEE total order instead.
    sorted.sort_by(f32::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f32;
    // Bounds proof for the two float→usize casts (waived in detlint.toml):
    // p ∈ [0, 100] is validated above, so rank ∈ [0, len-1] and both floor
    // and ceil stay in range.
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f32;
    Ok(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

fn check(op: &'static str, a: &[f32], b: &[f32]) -> Result<(), DspError> {
    if a.is_empty() || b.is_empty() {
        return Err(DspError::EmptyInput { op });
    }
    if a.len() != b.len() {
        return Err(DspError::LengthMismatch {
            op,
            left: a.len(),
            right: b.len(),
        });
    }
    Ok(())
}

/// Incremental accumulator of prediction-error statistics.
///
/// Used by the CHRIS runtime to aggregate per-window absolute errors without
/// storing every prediction.
#[derive(Debug, Clone, Default, Serialize, Deserialize, PartialEq)]
pub struct ErrorAccumulator {
    count: u64,
    abs_sum: f64,
    sq_sum: f64,
    signed_sum: f64,
}

impl ErrorAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one prediction/truth pair.
    pub fn record(&mut self, predicted: f32, truth: f32) {
        let d = f64::from(predicted - truth);
        self.count += 1;
        self.abs_sum += d.abs();
        self.sq_sum += d * d;
        self.signed_sum += d;
    }

    /// Number of recorded pairs.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean absolute error of the recorded pairs, or `None` when empty.
    pub fn mae(&self) -> Option<f32> {
        (self.count > 0).then(|| (self.abs_sum / self.count as f64) as f32)
    }

    /// Root-mean-square error of the recorded pairs, or `None` when empty.
    pub fn rmse(&self) -> Option<f32> {
        (self.count > 0).then(|| (self.sq_sum / self.count as f64).sqrt() as f32)
    }

    /// Mean signed error of the recorded pairs, or `None` when empty.
    pub fn bias(&self) -> Option<f32> {
        (self.count > 0).then(|| (self.signed_sum / self.count as f64) as f32)
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &Self) {
        self.count += other.count;
        self.abs_sum += other.abs_sum;
        self.sq_sum += other.sq_sum;
        self.signed_sum += other.signed_sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mae_basic() {
        assert!((mae(&[1.0, 2.0, 3.0], &[2.0, 2.0, 1.0]).unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn mae_errors() {
        assert!(mae(&[], &[]).is_err());
        assert!(mae(&[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn guards_fire_before_the_division_on_every_metric() {
        type Metric = fn(&[f32], &[f32]) -> Result<f32, DspError>;
        for (op, metric) in [
            ("mae", mae as Metric),
            ("rmse", rmse as Metric),
            ("mape", mape as Metric),
            ("bias", bias as Metric),
        ] {
            // Empty inputs reach the guard, not a 0/0 division yielding NaN.
            assert!(
                matches!(metric(&[], &[]), Err(DspError::EmptyInput { .. })),
                "{op}: empty input must error"
            );
            assert!(
                matches!(metric(&[], &[1.0]), Err(DspError::EmptyInput { .. })),
                "{op}: one-sided empty input must error"
            );
            assert!(
                matches!(
                    metric(&[1.0], &[1.0, 2.0]),
                    Err(DspError::LengthMismatch { .. })
                ),
                "{op}: mismatched lengths must error"
            );
        }
    }

    #[test]
    fn nan_inputs_error_instead_of_returning_ok_nan() {
        type Metric = fn(&[f32], &[f32]) -> Result<f32, DspError>;
        for (op, metric) in [
            ("mae", mae as Metric),
            ("rmse", rmse as Metric),
            ("mape", mape as Metric),
            ("bias", bias as Metric),
        ] {
            assert!(
                matches!(
                    metric(&[f32::NAN, 2.0], &[1.0, 2.0]),
                    Err(DspError::NonFinite { .. })
                ),
                "{op}: NaN input must yield a typed error, not Ok(NaN)"
            );
        }
    }

    #[test]
    fn f32_overflow_errors_instead_of_returning_ok_infinity() {
        // The f64 mean is finite but too large for the f32 return type; the
        // narrowing conversion must error, not hand back Ok(inf).
        let huge = [f32::MAX, f32::MAX];
        let tiny = [f32::MIN, f32::MIN];
        assert!(matches!(
            mae(&huge, &tiny),
            Err(DspError::NonFinite { op: "mae" })
        ));
        assert!(matches!(
            rmse(&huge, &tiny),
            Err(DspError::NonFinite { op: "rmse" })
        ));
        assert!(matches!(
            bias(&huge, &tiny),
            Err(DspError::NonFinite { op: "bias" })
        ));
    }

    #[test]
    fn mape_basic_and_zero_truth_guard() {
        let err = mape(&[110.0, 90.0], &[100.0, 100.0]).unwrap();
        assert!((err - 10.0).abs() < 1e-4, "got {err}");
        assert!(matches!(
            mape(&[1.0, 2.0], &[1.0, 0.0]),
            Err(DspError::InvalidParameter {
                op: "mape",
                name: "truth",
                ..
            })
        ));
        // Negative truth values use their magnitude, matching the standard
        // |p - t| / |t| formulation.
        let symmetric = mape(&[-110.0], &[-100.0]).unwrap();
        assert!((symmetric - 10.0).abs() < 1e-4);
    }

    #[test]
    fn rmse_is_at_least_mae() {
        let p = [1.0, 5.0, 3.0, 8.0];
        let t = [2.0, 2.0, 2.0, 2.0];
        assert!(rmse(&p, &t).unwrap() >= mae(&p, &t).unwrap());
    }

    #[test]
    fn bias_sign() {
        assert!(bias(&[5.0, 5.0], &[1.0, 1.0]).unwrap() > 0.0);
        assert!(bias(&[0.0, 0.0], &[1.0, 1.0]).unwrap() < 0.0);
    }

    #[test]
    fn mean_and_std() {
        assert!((mean(&[1.0, 2.0, 3.0]).unwrap() - 2.0).abs() < 1e-6);
        assert!((std_dev(&[2.0, 2.0, 2.0]).unwrap()).abs() < 1e-6);
        assert!(mean(&[]).is_err());
        assert!(std_dev(&[]).is_err());
    }

    #[test]
    fn percentile_bounds() {
        let v = [3.0, 1.0, 2.0, 4.0];
        assert!((percentile(&v, 0.0).unwrap() - 1.0).abs() < 1e-6);
        assert!((percentile(&v, 100.0).unwrap() - 4.0).abs() < 1e-6);
        assert!((percentile(&v, 50.0).unwrap() - 2.5).abs() < 1e-6);
        assert!(percentile(&v, 120.0).is_err());
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn accumulator_matches_batch_metrics() {
        let p = [61.0, 72.5, 90.0, 55.0];
        let t = [60.0, 70.0, 95.0, 54.0];
        let mut acc = ErrorAccumulator::new();
        for (&a, &b) in p.iter().zip(&t) {
            acc.record(a, b);
        }
        assert_eq!(acc.count(), 4);
        assert!((acc.mae().unwrap() - mae(&p, &t).unwrap()).abs() < 1e-6);
        assert!((acc.rmse().unwrap() - rmse(&p, &t).unwrap()).abs() < 1e-6);
        assert!((acc.bias().unwrap() - bias(&p, &t).unwrap()).abs() < 1e-6);
    }

    #[test]
    fn accumulator_empty_returns_none() {
        let acc = ErrorAccumulator::new();
        assert!(acc.mae().is_none());
        assert!(acc.rmse().is_none());
        assert!(acc.bias().is_none());
    }

    #[test]
    fn accumulator_merge() {
        let mut a = ErrorAccumulator::new();
        let mut b = ErrorAccumulator::new();
        a.record(1.0, 0.0);
        b.record(3.0, 0.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.mae().unwrap() - 2.0).abs() < 1e-6);
    }
}
