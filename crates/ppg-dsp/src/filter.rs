//! Smoothing and band-selection filters for raw PPG and accelerometer data.
//!
//! The Adaptive-Threshold HR estimator of the paper (Shin et al., its ref.
//! \[20\]) computes a rolling mean over a 24-sample window; the deep models and
//! the spectral baseline first band-pass the PPG to the plausible cardiac band
//! (0.5–4 Hz ≈ 30–240 BPM). Both primitives live here.

use crate::DspError;

/// Streaming moving-average filter with a fixed window length.
///
/// The filter reports the average of the samples seen so far until the window
/// fills up, then the average of the most recent `len` samples.
///
/// # Examples
///
/// ```
/// use ppg_dsp::filter::MovingAverage;
///
/// let mut ma = MovingAverage::new(2);
/// assert_eq!(ma.push(2.0), 2.0);
/// assert_eq!(ma.push(4.0), 3.0);
/// assert_eq!(ma.push(6.0), 5.0);
/// ```
#[derive(Debug, Clone)]
pub struct MovingAverage {
    buf: Vec<f32>,
    len: usize,
    next: usize,
    filled: usize,
    sum: f64,
}

impl MovingAverage {
    /// Creates a moving average over `len` samples.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "moving average length must be non-zero");
        Self {
            buf: vec![0.0; len],
            len,
            next: 0,
            filled: 0,
            sum: 0.0,
        }
    }

    /// Window length of the filter.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` until at least one sample has been pushed.
    pub fn is_empty(&self) -> bool {
        self.filled == 0
    }

    /// Pushes one sample and returns the current rolling mean.
    pub fn push(&mut self, x: f32) -> f32 {
        if self.filled == self.len {
            self.sum -= f64::from(self.buf[self.next]);
        } else {
            self.filled += 1;
        }
        self.buf[self.next] = x;
        self.sum += f64::from(x);
        self.next = (self.next + 1) % self.len;
        (self.sum / self.filled as f64) as f32
    }

    /// Resets the filter to its initial (empty) state.
    pub fn reset(&mut self) {
        self.buf.iter_mut().for_each(|v| *v = 0.0);
        self.next = 0;
        self.filled = 0;
        self.sum = 0.0;
    }
}

/// Applies a rolling mean of `len` samples to a whole slice, returning a new
/// vector with the same length as the input.
///
/// # Errors
///
/// Returns [`DspError::InvalidParameter`] if `len` is zero and
/// [`DspError::EmptyInput`] if `signal` is empty.
pub fn rolling_mean(signal: &[f32], len: usize) -> Result<Vec<f32>, DspError> {
    if len == 0 {
        return Err(DspError::InvalidParameter {
            op: "rolling_mean",
            name: "len",
            requirement: "must be non-zero",
        });
    }
    if signal.is_empty() {
        return Err(DspError::EmptyInput { op: "rolling_mean" });
    }
    let mut ma = MovingAverage::new(len);
    Ok(signal.iter().map(|&x| ma.push(x)).collect())
}

/// Second-order (biquad) IIR filter section in direct form I.
///
/// Coefficients follow the Audio-EQ-Cookbook convention with `a0` normalized
/// to 1. Use [`Biquad::low_pass`], [`Biquad::high_pass`] or
/// [`Biquad::band_pass`] to design standard sections.
#[derive(Debug, Clone, Copy)]
pub struct Biquad {
    b0: f32,
    b1: f32,
    b2: f32,
    a1: f32,
    a2: f32,
    x1: f32,
    x2: f32,
    y1: f32,
    y2: f32,
}

impl Biquad {
    /// Creates a biquad from raw normalized coefficients.
    pub fn from_coefficients(b0: f32, b1: f32, b2: f32, a1: f32, a2: f32) -> Self {
        Self {
            b0,
            b1,
            b2,
            a1,
            a2,
            x1: 0.0,
            x2: 0.0,
            y1: 0.0,
            y2: 0.0,
        }
    }

    fn design(
        op: &'static str,
        cutoff_hz: f32,
        sample_rate_hz: f32,
        q: f32,
    ) -> Result<(f32, f32, f32), DspError> {
        if cutoff_hz.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
            || sample_rate_hz.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
            || cutoff_hz >= sample_rate_hz / 2.0
        {
            return Err(DspError::InvalidParameter {
                op,
                name: "cutoff_hz",
                requirement: "must satisfy 0 < cutoff < sample_rate / 2",
            });
        }
        if q.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(DspError::InvalidParameter {
                op,
                name: "q",
                requirement: "must be positive",
            });
        }
        let w0 = 2.0 * std::f32::consts::PI * cutoff_hz / sample_rate_hz;
        let alpha = w0.sin() / (2.0 * q);
        Ok((w0.cos(), alpha, w0))
    }

    /// Designs a low-pass biquad with the given cutoff and quality factor.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] for non-positive or
    /// above-Nyquist cutoffs, or a non-positive `q`.
    pub fn low_pass(cutoff_hz: f32, sample_rate_hz: f32, q: f32) -> Result<Self, DspError> {
        let (cos_w0, alpha, _) = Self::design("low_pass", cutoff_hz, sample_rate_hz, q)?;
        let a0 = 1.0 + alpha;
        let b1 = (1.0 - cos_w0) / a0;
        let b0 = b1 / 2.0;
        Ok(Self::from_coefficients(
            b0,
            b1,
            b0,
            -2.0 * cos_w0 / a0,
            (1.0 - alpha) / a0,
        ))
    }

    /// Designs a high-pass biquad with the given cutoff and quality factor.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Biquad::low_pass`].
    pub fn high_pass(cutoff_hz: f32, sample_rate_hz: f32, q: f32) -> Result<Self, DspError> {
        let (cos_w0, alpha, _) = Self::design("high_pass", cutoff_hz, sample_rate_hz, q)?;
        let a0 = 1.0 + alpha;
        let b1 = -(1.0 + cos_w0) / a0;
        let b0 = -b1 / 2.0;
        Ok(Self::from_coefficients(
            b0,
            b1,
            b0,
            -2.0 * cos_w0 / a0,
            (1.0 - alpha) / a0,
        ))
    }

    /// Designs a band-pass biquad (constant 0 dB peak gain) centered on
    /// `center_hz`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Biquad::low_pass`].
    pub fn band_pass(center_hz: f32, sample_rate_hz: f32, q: f32) -> Result<Self, DspError> {
        let (cos_w0, alpha, _) = Self::design("band_pass", center_hz, sample_rate_hz, q)?;
        let a0 = 1.0 + alpha;
        Ok(Self::from_coefficients(
            alpha / a0,
            0.0,
            -alpha / a0,
            -2.0 * cos_w0 / a0,
            (1.0 - alpha) / a0,
        ))
    }

    /// Processes one sample.
    pub fn process(&mut self, x: f32) -> f32 {
        let y = self.b0 * x + self.b1 * self.x1 + self.b2 * self.x2
            - self.a1 * self.y1
            - self.a2 * self.y2;
        self.x2 = self.x1;
        self.x1 = x;
        self.y2 = self.y1;
        self.y1 = y;
        y
    }

    /// Resets the filter state (delays) to zero without touching coefficients.
    pub fn reset(&mut self) {
        self.x1 = 0.0;
        self.x2 = 0.0;
        self.y1 = 0.0;
        self.y2 = 0.0;
    }
}

/// Band-passes a PPG window to the cardiac band, removing baseline wander and
/// high-frequency noise.
///
/// The pass band is `low_hz`..`high_hz`; the implementation cascades a
/// high-pass and a low-pass biquad (Butterworth-like, Q = 0.707).
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] for an empty signal and
/// [`DspError::InvalidParameter`] if the band is not `0 < low < high < fs/2`.
pub fn band_pass(
    signal: &[f32],
    low_hz: f32,
    high_hz: f32,
    sample_rate_hz: f32,
) -> Result<Vec<f32>, DspError> {
    let _timer = crate::metrics::stage_timer(crate::metrics::Stage::BandPass);
    if signal.is_empty() {
        return Err(DspError::EmptyInput { op: "band_pass" });
    }
    if low_hz.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) || low_hz >= high_hz {
        return Err(DspError::InvalidParameter {
            op: "band_pass",
            name: "low_hz",
            requirement: "must satisfy 0 < low_hz < high_hz",
        });
    }
    let q = std::f32::consts::FRAC_1_SQRT_2;
    let mut hp = Biquad::high_pass(low_hz, sample_rate_hz, q)?;
    let mut lp = Biquad::low_pass(high_hz, sample_rate_hz, q)?;
    Ok(signal.iter().map(|&x| lp.process(hp.process(x))).collect())
}

/// Removes the mean of a window (DC component), returning a new vector.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if `signal` is empty.
pub fn remove_mean(signal: &[f32]) -> Result<Vec<f32>, DspError> {
    if signal.is_empty() {
        return Err(DspError::EmptyInput { op: "remove_mean" });
    }
    let mean = signal.iter().map(|&x| f64::from(x)).sum::<f64>() / signal.len() as f64;
    Ok(signal
        .iter()
        .map(|&x| (f64::from(x) - mean) as f32)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moving_average_warms_up() {
        let mut ma = MovingAverage::new(4);
        assert!((ma.push(4.0) - 4.0).abs() < 1e-6);
        assert!((ma.push(0.0) - 2.0).abs() < 1e-6);
        assert!((ma.push(2.0) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn moving_average_steady_state() {
        let mut ma = MovingAverage::new(3);
        for _ in 0..10 {
            ma.push(5.0);
        }
        assert!((ma.push(5.0) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn moving_average_reset() {
        let mut ma = MovingAverage::new(3);
        ma.push(10.0);
        ma.reset();
        assert!(ma.is_empty());
        assert!((ma.push(2.0) - 2.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn moving_average_zero_len_panics() {
        let _ = MovingAverage::new(0);
    }

    #[test]
    fn rolling_mean_matches_streaming() {
        let signal: Vec<f32> = (0..50).map(|i| (i as f32 * 0.3).sin()).collect();
        let rolled = rolling_mean(&signal, 24).unwrap();
        let mut ma = MovingAverage::new(24);
        for (i, &x) in signal.iter().enumerate() {
            assert!((ma.push(x) - rolled[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn rolling_mean_rejects_bad_input() {
        assert!(rolling_mean(&[], 4).is_err());
        assert!(rolling_mean(&[1.0], 0).is_err());
    }

    #[test]
    fn low_pass_attenuates_high_frequency() {
        let fs = 32.0;
        let n = 512;
        // 1 Hz (pass) + 10 Hz (stop) tones.
        let signal: Vec<f32> = (0..n)
            .map(|i| {
                let t = i as f32 / fs;
                (2.0 * std::f32::consts::PI * 1.0 * t).sin()
                    + (2.0 * std::f32::consts::PI * 10.0 * t).sin()
            })
            .collect();
        let mut lp = Biquad::low_pass(2.0, fs, 0.707).unwrap();
        let out: Vec<f32> = signal.iter().map(|&x| lp.process(x)).collect();
        // Compare energy in the second half (after transient).
        let e_in: f32 = signal[n / 2..].iter().map(|x| x * x).sum();
        let e_out: f32 = out[n / 2..].iter().map(|x| x * x).sum();
        assert!(e_out < e_in * 0.75, "low-pass should remove the 10 Hz tone");
    }

    #[test]
    fn band_pass_removes_dc() {
        let fs = 32.0;
        let signal: Vec<f32> = (0..512)
            .map(|i| 5.0 + (2.0 * std::f32::consts::PI * 1.5 * i as f32 / fs).sin())
            .collect();
        let out = band_pass(&signal, 0.5, 4.0, fs).unwrap();
        let tail_mean: f32 = out[256..].iter().sum::<f32>() / 256.0;
        assert!(
            tail_mean.abs() < 0.2,
            "band-pass should remove the DC offset, got {tail_mean}"
        );
    }

    #[test]
    fn band_pass_rejects_invalid_band() {
        let s = vec![0.0f32; 32];
        assert!(band_pass(&s, 4.0, 0.5, 32.0).is_err());
        assert!(band_pass(&s, 0.0, 4.0, 32.0).is_err());
        assert!(band_pass(&[], 0.5, 4.0, 32.0).is_err());
    }

    #[test]
    fn biquad_rejects_cutoff_above_nyquist() {
        assert!(Biquad::low_pass(20.0, 32.0, 0.707).is_err());
        assert!(Biquad::high_pass(-1.0, 32.0, 0.707).is_err());
        assert!(Biquad::band_pass(1.0, 32.0, 0.0).is_err());
    }

    #[test]
    fn remove_mean_centers_signal() {
        let out = remove_mean(&[1.0, 2.0, 3.0]).unwrap();
        let sum: f32 = out.iter().sum();
        assert!(sum.abs() < 1e-6);
        assert!(remove_mean(&[]).is_err());
    }

    #[test]
    fn biquad_reset_clears_state() {
        let mut f = Biquad::low_pass(2.0, 32.0, 0.707).unwrap();
        f.process(100.0);
        f.reset();
        let y = f.process(0.0);
        assert_eq!(y, 0.0);
    }
}
