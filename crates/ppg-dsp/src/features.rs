//! Statistical feature extraction for activity recognition.
//!
//! The paper selects four features per accelerometer window by grid search:
//! **mean**, **energy**, **standard deviation** and **number of peaks**
//! (discrete-derivative sign changes). Features are computed per axis and
//! aggregated across the three axes; the resulting [`FeatureVector`] feeds the
//! random-forest activity classifier in `ppg-models`.

use serde::{Deserialize, Serialize};

use crate::peaks::count_sign_changes;
use crate::DspError;

/// The four scalar features the paper uses, computed over one signal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct FeatureVector {
    /// Arithmetic mean of the samples.
    pub mean: f32,
    /// Signal energy (mean of squared samples).
    pub energy: f32,
    /// Standard deviation (population).
    pub std_dev: f32,
    /// Number of discrete-derivative sign changes, normalized by window length.
    pub peak_rate: f32,
}

impl FeatureVector {
    /// Computes the four features over one window of samples.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] if `signal` is empty.
    pub fn from_signal(signal: &[f32]) -> Result<Self, DspError> {
        if signal.is_empty() {
            return Err(DspError::EmptyInput {
                op: "FeatureVector::from_signal",
            });
        }
        let n = signal.len() as f64;
        let mean = signal.iter().map(|&x| f64::from(x)).sum::<f64>() / n;
        let energy = signal
            .iter()
            .map(|&x| f64::from(x) * f64::from(x))
            .sum::<f64>()
            / n;
        let var = signal
            .iter()
            .map(|&x| {
                let d = f64::from(x) - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        Ok(Self {
            mean: mean as f32,
            energy: energy as f32,
            std_dev: var.sqrt() as f32,
            peak_rate: count_sign_changes(signal) as f32 / signal.len() as f32,
        })
    }

    /// Flattens the feature vector into a fixed-order array
    /// `[mean, energy, std_dev, peak_rate]`.
    pub fn to_array(self) -> [f32; 4] {
        [self.mean, self.energy, self.std_dev, self.peak_rate]
    }
}

/// Features of one 3-axis accelerometer window: per-axis features plus the
/// features of the acceleration magnitude.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct AccelFeatures {
    /// Features of the X axis.
    pub x: FeatureVector,
    /// Features of the Y axis.
    pub y: FeatureVector,
    /// Features of the Z axis.
    pub z: FeatureVector,
    /// Features of the per-sample magnitude `sqrt(x² + y² + z²)`.
    pub magnitude: FeatureVector,
}

impl AccelFeatures {
    /// Number of scalar features produced by [`AccelFeatures::to_vec`].
    pub const LEN: usize = 16;

    /// Computes features from three equal-length axis slices.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if the axes differ in length and
    /// [`DspError::EmptyInput`] if they are empty.
    pub fn from_axes(x: &[f32], y: &[f32], z: &[f32]) -> Result<Self, DspError> {
        if x.len() != y.len() || y.len() != z.len() {
            return Err(DspError::LengthMismatch {
                op: "AccelFeatures::from_axes",
                left: x.len(),
                right: y.len().max(z.len()),
            });
        }
        let magnitude: Vec<f32> = x
            .iter()
            .zip(y)
            .zip(z)
            .map(|((&a, &b), &c)| (a * a + b * b + c * c).sqrt())
            .collect();
        Ok(Self {
            x: FeatureVector::from_signal(x)?,
            y: FeatureVector::from_signal(y)?,
            z: FeatureVector::from_signal(z)?,
            magnitude: FeatureVector::from_signal(&magnitude)?,
        })
    }

    /// Flattens every per-axis feature into one `LEN`-element vector in the
    /// fixed order x, y, z, magnitude.
    pub fn to_vec(self) -> Vec<f32> {
        let mut out = Vec::with_capacity(Self::LEN);
        out.extend_from_slice(&self.x.to_array());
        out.extend_from_slice(&self.y.to_array());
        out.extend_from_slice(&self.z.to_array());
        out.extend_from_slice(&self.magnitude.to_array());
        out
    }

    /// Mean signal energy across the three axes.
    ///
    /// The paper orders activities by "average accelerometer signal energy";
    /// this is the scalar used for that ordering.
    pub fn mean_axis_energy(&self) -> f32 {
        (self.x.energy + self.y.energy + self.z.energy) / 3.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn features_of_constant_signal() {
        let f = FeatureVector::from_signal(&[2.0; 64]).unwrap();
        assert!((f.mean - 2.0).abs() < 1e-6);
        assert!((f.energy - 4.0).abs() < 1e-6);
        assert!(f.std_dev.abs() < 1e-6);
        assert_eq!(f.peak_rate, 0.0);
    }

    #[test]
    fn features_of_alternating_signal() {
        let signal: Vec<f32> = (0..64)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let f = FeatureVector::from_signal(&signal).unwrap();
        assert!(f.mean.abs() < 1e-6);
        assert!((f.energy - 1.0).abs() < 1e-6);
        assert!((f.std_dev - 1.0).abs() < 1e-6);
        assert!(
            f.peak_rate > 0.5,
            "alternating signal has many sign changes"
        );
    }

    #[test]
    fn features_reject_empty_input() {
        assert!(FeatureVector::from_signal(&[]).is_err());
    }

    #[test]
    fn to_array_order_is_stable() {
        let f = FeatureVector {
            mean: 1.0,
            energy: 2.0,
            std_dev: 3.0,
            peak_rate: 4.0,
        };
        assert_eq!(f.to_array(), [1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn accel_features_magnitude_of_unit_axes() {
        let x = vec![1.0f32; 32];
        let y = vec![0.0f32; 32];
        let z = vec![0.0f32; 32];
        let f = AccelFeatures::from_axes(&x, &y, &z).unwrap();
        assert!((f.magnitude.mean - 1.0).abs() < 1e-6);
        assert_eq!(f.to_vec().len(), AccelFeatures::LEN);
    }

    #[test]
    fn accel_features_reject_mismatched_axes() {
        assert!(AccelFeatures::from_axes(&[1.0], &[1.0, 2.0], &[1.0]).is_err());
        assert!(AccelFeatures::from_axes(&[], &[], &[]).is_err());
    }

    #[test]
    fn mean_axis_energy_grows_with_amplitude() {
        let quiet: Vec<f32> = (0..64).map(|i| 0.1 * (i as f32 * 0.3).sin()).collect();
        let noisy: Vec<f32> = (0..64).map(|i| 2.0 * (i as f32 * 0.3).sin()).collect();
        let zeros = vec![0.0f32; 64];
        let f_quiet = AccelFeatures::from_axes(&quiet, &zeros, &zeros).unwrap();
        let f_noisy = AccelFeatures::from_axes(&noisy, &zeros, &zeros).unwrap();
        assert!(f_noisy.mean_axis_energy() > f_quiet.mean_axis_energy());
    }

    #[test]
    fn feature_order_in_flattened_vector() {
        let x = vec![1.0f32; 32];
        let y = vec![2.0f32; 32];
        let z = vec![3.0f32; 32];
        let f = AccelFeatures::from_axes(&x, &y, &z).unwrap();
        let v = f.to_vec();
        // First feature of each axis block is the mean of that axis.
        assert!((v[0] - 1.0).abs() < 1e-6);
        assert!((v[4] - 2.0).abs() < 1e-6);
        assert!((v[8] - 3.0).abs() < 1e-6);
    }
}
