//! Labeled analysis windows.
//!
//! A [`LabeledWindow`] is the unit every model and the CHRIS runtime operate
//! on: 8 seconds (256 samples) of PPG plus the three accelerometer axes, the
//! ground-truth mean heart rate over the window, the activity being performed
//! and the subject it came from. A *labels-only* window (from
//! [`Synthesis::LabelsOnly`](crate::Synthesis::LabelsOnly)) carries the labels
//! and no signal.

use serde::{Deserialize, Serialize};

use crate::activity::Activity;
use crate::subject::SubjectId;

/// One 8-second analysis window with its labels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabeledWindow {
    /// Subject the window was recorded from.
    pub subject: SubjectId,
    /// Activity performed during the window.
    pub activity: Activity,
    /// Ground-truth mean heart rate over the window, in BPM.
    pub hr_bpm: f32,
    /// Raw PPG samples (256 at 32 Hz).
    pub ppg: Vec<f32>,
    /// Accelerometer X axis in g (256 samples).
    pub accel_x: Vec<f32>,
    /// Accelerometer Y axis in g (256 samples).
    pub accel_y: Vec<f32>,
    /// Accelerometer Z axis in g (256 samples).
    pub accel_z: Vec<f32>,
    /// Mean of the motion envelope over the window (g); a direct measure of
    /// how corrupted the window is. Not available to the models (it is a
    /// generator-side quantity) but useful for analysis and tests. `0.0` in a
    /// labels-only window: not synthesized.
    pub mean_motion_g: f32,
}

impl LabeledWindow {
    /// Number of samples per channel.
    pub fn len(&self) -> usize {
        self.ppg.len()
    }

    /// Whether the window holds no samples.
    pub fn is_empty(&self) -> bool {
        self.ppg.is_empty()
    }

    /// Whether the PPG and the three accelerometer channels all have the same
    /// length. Full and labels-only windows both pass; a window that fails
    /// is malformed, and models reject it.
    pub fn channels_agree(&self) -> bool {
        let len = self.ppg.len();
        self.accel_x.len() == len && self.accel_y.len() == len && self.accel_z.len() == len
    }

    /// Difficulty level of the window's activity (1 easiest .. 9 hardest).
    pub fn difficulty(&self) -> crate::activity::DifficultyLevel {
        self.activity.difficulty()
    }

    /// Accelerometer features of the window (the classifier input).
    ///
    /// # Errors
    ///
    /// Propagates [`ppg_dsp::DspError`] if the window is empty.
    pub fn accel_features(&self) -> Result<ppg_dsp::AccelFeatures, ppg_dsp::DspError> {
        ppg_dsp::AccelFeatures::from_axes(&self.accel_x, &self.accel_y, &self.accel_z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window() -> LabeledWindow {
        LabeledWindow {
            subject: SubjectId(0),
            activity: Activity::Walking,
            hr_bpm: 95.0,
            ppg: vec![0.0; 256],
            accel_x: vec![0.1; 256],
            accel_y: vec![0.2; 256],
            accel_z: vec![0.9; 256],
            mean_motion_g: 0.3,
        }
    }

    #[test]
    fn len_and_empty() {
        let w = window();
        assert_eq!(w.len(), 256);
        assert!(!w.is_empty());
    }

    #[test]
    fn difficulty_tracks_activity() {
        let w = window();
        assert_eq!(w.difficulty(), Activity::Walking.difficulty());
    }

    #[test]
    fn channels_agree_unless_one_is_cut() {
        let mut w = window();
        assert!(w.channels_agree());
        w.accel_y.pop();
        assert!(!w.channels_agree());
        for channel in [&mut w.ppg, &mut w.accel_x, &mut w.accel_y, &mut w.accel_z] {
            channel.clear();
        }
        assert!(w.channels_agree());
    }

    #[test]
    fn accel_features_compute() {
        let w = window();
        let f = w.accel_features().unwrap();
        assert!((f.x.mean - 0.1).abs() < 1e-5);
        assert!((f.z.mean - 0.9).abs() < 1e-5);
    }

    #[test]
    fn accel_features_fail_on_empty_window() {
        let mut w = window();
        w.accel_x.clear();
        w.accel_y.clear();
        w.accel_z.clear();
        assert!(w.accel_features().is_err());
    }
}
