//! Spectral peak-tracking HR estimator.
//!
//! A TROIKA-style baseline that band-passes the PPG to the cardiac band,
//! computes its power spectrum and reports the dominant in-band frequency,
//! with a simple tracking constraint that limits the estimate's jump between
//! consecutive windows (heart rate does not change by more than a few BPM in
//! two seconds). The paper's related-work section describes this family of
//! classical algorithms; CHRIS does not include it in its default zoo but the
//! extended analyses use it as an additional operating point.

use hw_sim::profile::Workload;
use ppg_data::LabeledWindow;
use ppg_dsp::fft::dominant_frequency;
use ppg_dsp::filter::band_pass;

use crate::error::ModelError;
use crate::traits::{clamp_bpm, HrEstimator};

/// Approximate cycle count of one spectral prediction on the STM32WB55
/// (band-pass + 256-point FFT + peak search).
pub const SPECTRAL_CYCLES_STM32: u64 = 350_000;

/// Lower edge of the cardiac band, in Hz (42 BPM).
pub const BAND_LOW_HZ: f32 = 0.7;
/// Upper edge of the cardiac band, in Hz (210 BPM).
pub const BAND_HIGH_HZ: f32 = 3.5;

/// FFT-based dominant-frequency HR estimator with inter-window tracking.
#[derive(Debug, Clone)]
pub struct SpectralPeak {
    /// Maximum BPM change allowed between consecutive windows.
    max_step_bpm: f32,
    last_bpm: Option<f32>,
}

impl Default for SpectralPeak {
    fn default() -> Self {
        Self::new()
    }
}

impl SpectralPeak {
    /// Creates the estimator with a 10 BPM per-window tracking limit.
    pub fn new() -> Self {
        Self {
            max_step_bpm: 10.0,
            last_bpm: None,
        }
    }
}

impl HrEstimator for SpectralPeak {
    fn name(&self) -> &str {
        "SpectralPeak"
    }

    fn predict(&mut self, window: &LabeledWindow) -> Result<f32, ModelError> {
        if window.ppg.len() < 64 || !window.ppg.len().is_power_of_two() {
            return Err(ModelError::InvalidWindow {
                model: "SpectralPeak",
                reason: format!(
                    "window length {} must be a power of two >= 64",
                    window.ppg.len()
                ),
            });
        }
        let filtered = band_pass(
            &window.ppg,
            BAND_LOW_HZ,
            BAND_HIGH_HZ,
            ppg_data::SAMPLE_RATE_HZ,
        )?;
        let (_, freq_hz, _) = dominant_frequency(
            &filtered,
            ppg_data::SAMPLE_RATE_HZ,
            BAND_LOW_HZ,
            BAND_HIGH_HZ,
        )?;
        let mut bpm = clamp_bpm(freq_hz * 60.0);
        if let Some(last) = self.last_bpm {
            bpm = bpm.clamp(last - self.max_step_bpm, last + self.max_step_bpm);
        }
        self.last_bpm = Some(bpm);
        Ok(bpm)
    }

    fn workload(&self) -> Workload {
        Workload::Cycles(SPECTRAL_CYCLES_STM32)
    }

    fn reset(&mut self) {
        self.last_bpm = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppg_data::{Activity, SubjectId};

    fn synthetic_window(hr_bpm: f32, motion: f32, seed: u64) -> LabeledWindow {
        use ppg_data::ppg_synth::ppg_segment;
        use ppg_data::subject::SubjectProfile;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let subject = SubjectProfile::nominal(SubjectId(0));
        let hr = vec![hr_bpm; 256];
        let env = vec![motion; 256];
        let ppg = ppg_segment(&mut rng, &subject, &hr, &env, 32.0);
        LabeledWindow {
            subject: SubjectId(0),
            activity: Activity::Resting,
            hr_bpm,
            ppg,
            accel_x: vec![0.0; 256],
            accel_y: vec![0.0; 256],
            accel_z: vec![1.0; 256],
            mean_motion_g: motion,
        }
    }

    #[test]
    fn tracks_clean_signal() {
        for (i, &hr) in [65.0f32, 85.0, 120.0].iter().enumerate() {
            let w = synthetic_window(hr, 0.0, 20 + i as u64);
            // A fresh estimator has no previous estimate to track from.
            let est = SpectralPeak::new().predict(&w).unwrap();
            // Spectral resolution of an 8 s window is 7.5 BPM per bin.
            assert!((est - hr).abs() < 9.0, "clean {hr} BPM estimated as {est}");
        }
    }

    #[test]
    fn tracking_limits_jumps() {
        let mut sp = SpectralPeak::new();
        let w1 = synthetic_window(60.0, 0.0, 30);
        let first = sp.predict(&w1).unwrap();
        // Sudden (unphysiological) jump of the true HR.
        let w2 = synthetic_window(170.0, 0.0, 31);
        let second = sp.predict(&w2).unwrap();
        assert!(
            second <= first + 10.0 + 1e-3,
            "tracking should limit the step"
        );
    }

    #[test]
    fn rejects_bad_window_length() {
        let mut sp = SpectralPeak::new();
        let mut w = synthetic_window(70.0, 0.0, 32);
        w.ppg.truncate(100);
        assert!(matches!(
            sp.predict(&w),
            Err(ModelError::InvalidWindow { .. })
        ));
    }

    #[test]
    fn reset_clears_tracking() {
        let mut sp = SpectralPeak::new();
        let w = synthetic_window(60.0, 0.0, 33);
        sp.predict(&w).unwrap();
        sp.reset();
        let w2 = synthetic_window(160.0, 0.0, 34);
        let est = sp.predict(&w2).unwrap();
        assert!(
            est > 100.0,
            "after reset the estimator should not be anchored at 60"
        );
    }

    #[test]
    fn name_and_workload() {
        let sp = SpectralPeak::new();
        assert_eq!(sp.name(), "SpectralPeak");
        assert_eq!(sp.workload(), Workload::Cycles(SPECTRAL_CYCLES_STM32));
    }
}
