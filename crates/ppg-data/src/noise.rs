//! Random-noise helpers (Gaussian sampling, smoothed noise).
//!
//! The whitelisted `rand` crate does not bundle a Gaussian distribution, so
//! this module provides a small Box–Muller sampler plus a first-order
//! autoregressive (AR(1)) smoother used by the HR-trajectory and
//! motion-artifact generators.

use rand::{Rng, RngCore};

/// Draws one sample from a standard normal distribution using the Box–Muller
/// transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    // Avoid ln(0) by sampling the half-open interval (0, 1].
    let u1: f32 = 1.0 - rng.random::<f32>();
    let u2: f32 = rng.random::<f32>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Draws one sample from a normal distribution with the given mean and
/// standard deviation.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f32, std_dev: f32) -> f32 {
    mean + std_dev * standard_normal(rng)
}

/// Generates `n` samples of zero-mean white Gaussian noise with standard
/// deviation `std_dev`.
pub fn white_noise<R: Rng + ?Sized>(rng: &mut R, n: usize, std_dev: f32) -> Vec<f32> {
    (0..n).map(|_| std_dev * standard_normal(rng)).collect()
}

/// First-order autoregressive process: `x[t] = rho * x[t-1] + e[t]` with
/// Gaussian innovations scaled so the process variance equals
/// `std_dev²` (for `|rho| < 1`).
///
/// Used for smooth, band-limited random fluctuations such as heart-rate
/// wandering and slow motion-artifact envelopes.
pub fn ar1_noise<R: Rng + ?Sized>(rng: &mut R, n: usize, rho: f32, std_dev: f32) -> Vec<f32> {
    let rho = rho.clamp(-0.9999, 0.9999);
    let innovation_std = std_dev * (1.0 - rho * rho).sqrt();
    let mut out = Vec::with_capacity(n);
    let mut x = std_dev * standard_normal(rng);
    for _ in 0..n {
        x = rho * x + innovation_std * standard_normal(rng);
        out.push(x);
    }
    out
}

/// Random words [`white_noise`] draws for `n` samples: one Box–Muller pair
/// per sample.
pub(crate) const fn white_noise_words(n: usize) -> usize {
    2 * n
}

/// Random words [`ar1_noise`] draws for `n` samples: the Box–Muller pair of
/// the initial state plus one per sample.
pub(crate) const fn ar1_noise_words(n: usize) -> usize {
    2 * (n + 1)
}

/// Advances `rng` by `words` 64-bit draws, discarding them: the cheap way
/// past draws whose values nobody reads.
pub(crate) fn skip_words<R: RngCore + ?Sized>(rng: &mut R, words: usize) {
    for _ in 0..words {
        rng.next_u64();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn standard_normal_has_zero_mean_unit_variance() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean: f32 = samples.iter().sum::<f32>() / n as f32;
        let var: f32 = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    fn normal_respects_mean_and_std() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| normal(&mut rng, 10.0, 2.0)).collect();
        let mean: f32 = samples.iter().sum::<f32>() / n as f32;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn white_noise_length_and_scale() {
        let mut rng = StdRng::seed_from_u64(3);
        let noise = white_noise(&mut rng, 5000, 0.5);
        assert_eq!(noise.len(), 5000);
        let var: f32 = noise.iter().map(|x| x * x).sum::<f32>() / 5000.0;
        assert!((var - 0.25).abs() < 0.05, "variance {var}");
    }

    #[test]
    fn ar1_noise_is_smoother_than_white_noise() {
        let mut rng = StdRng::seed_from_u64(4);
        let smooth = ar1_noise(&mut rng, 4000, 0.98, 1.0);
        let white = white_noise(&mut rng, 4000, 1.0);
        // Mean squared sample-to-sample difference is far smaller for AR(1).
        let diff_energy = |v: &[f32]| {
            v.windows(2).map(|p| (p[1] - p[0]).powi(2)).sum::<f32>() / (v.len() - 1) as f32
        };
        assert!(diff_energy(&smooth) < diff_energy(&white) * 0.2);
    }

    #[test]
    fn ar1_noise_variance_is_calibrated() {
        let mut rng = StdRng::seed_from_u64(5);
        let samples = ar1_noise(&mut rng, 50_000, 0.9, 2.0);
        let mean: f32 = samples.iter().sum::<f32>() / samples.len() as f32;
        let var: f32 =
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / samples.len() as f32;
        assert!((var - 4.0).abs() < 0.6, "variance {var}");
    }

    #[test]
    fn ar1_handles_degenerate_rho() {
        let mut rng = StdRng::seed_from_u64(6);
        let samples = ar1_noise(&mut rng, 100, 1.0, 1.0);
        assert_eq!(samples.len(), 100);
        assert!(samples.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn word_counts_match_the_draws() {
        let mut drawn = StdRng::seed_from_u64(10);
        let mut skipped = drawn.clone();
        white_noise(&mut drawn, 37, 1.0);
        ar1_noise(&mut drawn, 41, 0.9, 1.0);
        skip_words(&mut skipped, white_noise_words(37) + ar1_noise_words(41));
        assert_eq!(drawn, skipped);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = white_noise(&mut StdRng::seed_from_u64(9), 10, 1.0);
        let b = white_noise(&mut StdRng::seed_from_u64(9), 10, 1.0);
        assert_eq!(a, b);
    }
}
