//! Radix-2 FFT, power spectra and Welch periodograms.
//!
//! The spectral HR baseline and the difficulty analysis of the dataset use a
//! simple in-place radix-2 decimation-in-time FFT. Only power-of-two lengths
//! are supported, which is all the 256-sample windows of the paper need.

use crate::DspError;

/// A complex number represented as `(re, im)` pair of `f32`.
///
/// A minimal local type avoids pulling in an external complex-number crate for
/// the handful of operations the FFT needs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f32,
    /// Imaginary part.
    pub im: f32,
}

impl Complex {
    /// Creates a complex number from its real and imaginary parts.
    pub fn new(re: f32, im: f32) -> Self {
        Self { re, im }
    }

    /// Squared magnitude `re² + im²`.
    pub fn norm_sq(self) -> f32 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    pub fn abs(self) -> f32 {
        self.norm_sq().sqrt()
    }

    fn mul(self, other: Self) -> Self {
        Self {
            re: self.re * other.re - self.im * other.im,
            im: self.re * other.im + self.im * other.re,
        }
    }

    fn add(self, other: Self) -> Self {
        Self {
            re: self.re + other.re,
            im: self.im + other.im,
        }
    }

    fn sub(self, other: Self) -> Self {
        Self {
            re: self.re - other.re,
            im: self.im - other.im,
        }
    }
}

/// In-place radix-2 decimation-in-time FFT.
///
/// # Errors
///
/// Returns [`DspError::InvalidLength`] if `buf.len()` is not a power of two or
/// is zero.
pub fn fft_in_place(buf: &mut [Complex]) -> Result<(), DspError> {
    let n = buf.len();
    if n == 0 || !n.is_power_of_two() {
        return Err(DspError::InvalidLength {
            op: "fft_in_place",
            len: n,
            requirement: "length must be a non-zero power of two",
        });
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1);
        if j > i {
            buf.swap(i, j);
        }
    }
    // Butterflies.
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f32::consts::PI / len as f32;
        let wlen = Complex::new(ang.cos(), ang.sin());
        let mut i = 0;
        while i < n {
            let mut w = Complex::new(1.0, 0.0);
            for k in 0..len / 2 {
                let u = buf[i + k];
                let v = buf[i + k + len / 2].mul(w);
                buf[i + k] = u.add(v);
                buf[i + k + len / 2] = u.sub(v);
                w = w.mul(wlen);
            }
            i += len;
        }
        len <<= 1;
    }
    Ok(())
}

/// Computes the FFT of a real signal, returning the full complex spectrum.
///
/// # Errors
///
/// Same conditions as [`fft_in_place`].
pub fn fft_real(signal: &[f32]) -> Result<Vec<Complex>, DspError> {
    let mut buf: Vec<Complex> = signal.iter().map(|&x| Complex::new(x, 0.0)).collect();
    fft_in_place(&mut buf)?;
    Ok(buf)
}

/// One-sided power spectrum of a real signal: `|X[k]|² / N` for
/// `k = 0..N/2 + 1`.
///
/// # Errors
///
/// Same conditions as [`fft_in_place`].
pub fn power_spectrum(signal: &[f32]) -> Result<Vec<f32>, DspError> {
    let n = signal.len();
    let spec = fft_real(signal)?;
    Ok(spec[..n / 2 + 1]
        .iter()
        .map(|c| c.norm_sq() / n as f32)
        .collect())
}

/// Frequency (in Hz) of bin `k` for an `n`-point FFT at `sample_rate_hz`.
pub fn bin_frequency(k: usize, n: usize, sample_rate_hz: f32) -> f32 {
    k as f32 * sample_rate_hz / n as f32
}

/// Index of the spectral bin with the largest power inside `[low_hz, high_hz]`.
///
/// Returns `(bin, frequency_hz, power)`.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if the band contains no bins and
/// propagates FFT length errors.
pub fn dominant_frequency(
    signal: &[f32],
    sample_rate_hz: f32,
    low_hz: f32,
    high_hz: f32,
) -> Result<(usize, f32, f32), DspError> {
    let n = signal.len();
    let ps = power_spectrum(signal)?;
    let mut best: Option<(usize, f32)> = None;
    for (k, &p) in ps.iter().enumerate() {
        let f = bin_frequency(k, n, sample_rate_hz);
        if f < low_hz || f > high_hz {
            continue;
        }
        if best.is_none_or(|(_, bp)| p > bp) {
            best = Some((k, p));
        }
    }
    let (k, p) = best.ok_or(DspError::EmptyInput {
        op: "dominant_frequency",
    })?;
    Ok((k, bin_frequency(k, n, sample_rate_hz), p))
}

/// Welch power-spectral-density estimate with 50 % overlapping Hann windows.
///
/// Returns one value per frequency bin `0..=segment_len/2`.
///
/// # Errors
///
/// Returns [`DspError::InvalidLength`] if `segment_len` is not a power of two
/// or the signal is shorter than one segment.
pub fn welch_psd(signal: &[f32], segment_len: usize) -> Result<Vec<f32>, DspError> {
    if !segment_len.is_power_of_two() || segment_len == 0 {
        return Err(DspError::InvalidLength {
            op: "welch_psd",
            len: segment_len,
            requirement: "segment length must be a non-zero power of two",
        });
    }
    if signal.len() < segment_len {
        return Err(DspError::InvalidLength {
            op: "welch_psd",
            len: signal.len(),
            requirement: "signal must contain at least one full segment",
        });
    }
    let hann: Vec<f32> = (0..segment_len)
        .map(|i| {
            let x = std::f32::consts::PI * i as f32 / (segment_len - 1) as f32;
            x.sin() * x.sin()
        })
        .collect();
    let step = segment_len / 2;
    let mut acc = vec![0.0f32; segment_len / 2 + 1];
    let mut segments = 0usize;
    let mut start = 0usize;
    while start + segment_len <= signal.len() {
        let windowed: Vec<f32> = signal[start..start + segment_len]
            .iter()
            .zip(&hann)
            .map(|(&x, &w)| x * w)
            .collect();
        let ps = power_spectrum(&windowed)?;
        for (a, p) in acc.iter_mut().zip(ps) {
            *a += p;
        }
        segments += 1;
        start += step;
    }
    for a in &mut acc {
        *a /= segments as f32;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(freq: f32, fs: f32, n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (2.0 * std::f32::consts::PI * freq * i as f32 / fs).sin())
            .collect()
    }

    #[test]
    fn fft_rejects_non_power_of_two() {
        let mut buf = vec![Complex::default(); 100];
        assert!(fft_in_place(&mut buf).is_err());
        let mut empty: Vec<Complex> = Vec::new();
        assert!(fft_in_place(&mut empty).is_err());
    }

    #[test]
    fn fft_of_dc_is_impulse_at_zero() {
        let spec = fft_real(&[1.0f32; 8]).unwrap();
        assert!((spec[0].re - 8.0).abs() < 1e-4);
        for c in &spec[1..] {
            assert!(c.abs() < 1e-4);
        }
    }

    #[test]
    fn dominant_frequency_finds_tone() {
        let fs = 32.0;
        let signal = tone(2.0, fs, 256);
        let (_, f, _) = dominant_frequency(&signal, fs, 0.5, 4.0).unwrap();
        assert!((f - 2.0).abs() < fs / 256.0, "expected ~2 Hz, got {f}");
    }

    #[test]
    fn dominant_frequency_respects_band() {
        let fs = 32.0;
        // Strong 6 Hz tone outside the band, weak 1.5 Hz inside.
        let signal: Vec<f32> = tone(6.0, fs, 256)
            .iter()
            .zip(tone(1.5, fs, 256))
            .map(|(&a, b)| 3.0 * a + 0.5 * b)
            .collect();
        let (_, f, _) = dominant_frequency(&signal, fs, 0.5, 4.0).unwrap();
        assert!(
            (f - 1.5).abs() < 2.0 * fs / 256.0,
            "expected ~1.5 Hz, got {f}"
        );
    }

    #[test]
    fn dominant_frequency_errors_on_empty_band() {
        let signal = tone(2.0, 32.0, 256);
        assert!(dominant_frequency(&signal, 32.0, 100.0, 200.0).is_err());
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let signal = tone(3.0, 32.0, 128);
        let time_energy: f32 = signal.iter().map(|x| x * x).sum();
        let spec = fft_real(&signal).unwrap();
        let freq_energy: f32 = spec.iter().map(|c| c.norm_sq()).sum::<f32>() / 128.0;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-3);
    }

    #[test]
    fn welch_psd_peaks_at_tone() {
        let fs = 32.0;
        let signal = tone(2.0, fs, 1024);
        let psd = welch_psd(&signal, 256).unwrap();
        let peak_bin = psd
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let peak_hz = bin_frequency(peak_bin, 256, fs);
        assert!((peak_hz - 2.0).abs() < 0.3, "expected ~2 Hz, got {peak_hz}");
    }

    #[test]
    fn welch_psd_rejects_bad_lengths() {
        let signal = tone(2.0, 32.0, 100);
        assert!(welch_psd(&signal, 300).is_err());
        assert!(welch_psd(&signal, 0).is_err());
        assert!(welch_psd(&signal, 256).is_err());
    }

    #[test]
    fn power_spectrum_length_is_half_plus_one() {
        let ps = power_spectrum(&tone(1.0, 32.0, 64)).unwrap();
        assert_eq!(ps.len(), 33);
    }

    #[test]
    fn bin_frequency_scales_linearly() {
        assert_eq!(bin_frequency(0, 256, 32.0), 0.0);
        assert!((bin_frequency(128, 256, 32.0) - 16.0).abs() < 1e-6);
    }
}
