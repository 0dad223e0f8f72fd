//! Synthetic wrist PPG generation.
//!
//! The clean PPG is a pulse train driven by the ground-truth heart-rate
//! trajectory: each cardiac cycle contributes a systolic peak and a smaller
//! diastolic (dicrotic) bump, modelled as two Gaussian lobes. On top of the
//! clean signal the generator adds:
//!
//! * **baseline wander** — a slow (~0.2–0.4 Hz) respiratory oscillation,
//! * **sensor noise** — white Gaussian noise,
//! * **motion artifacts** — the dominant corruption on the wrist.  Artifacts
//!   are *correlated with the accelerometer motion envelope* produced by
//!   [`crate::accel_synth`]: the envelope modulates both an in-band oscillatory
//!   component (the light-leakage artifact has pseudo-periodic content in the
//!   cardiac band, which is what confuses naive spectral trackers) and an
//!   abrupt baseline-shift component.
//!
//! The relative amplitude of artifacts versus the clean pulse is what makes an
//! activity "difficult": at rest the artifact term is negligible; during table
//! soccer it dominates the pulse by several times, as in the real dataset.
//!
//! Every PPG draw has a fixed word count, so labels-only synthesis moves the
//! stream past a segment with one precomputed jump (`PpgSkip`).

use rand::rngs::{Jump, StdRng};
use rand::Rng;

use crate::noise::{ar1_noise, ar1_noise_words, white_noise, white_noise_words};
use crate::subject::SubjectProfile;

/// Relative amplitude of the diastolic (dicrotic) bump versus the systolic peak.
const DIASTOLIC_RATIO: f32 = 0.35;
/// Gain converting the accelerometer motion envelope (g) into artifact
/// amplitude relative to the clean pulse amplitude.
const ARTIFACT_COUPLING: f32 = 2.2;

/// Synthesizes a PPG segment from a per-sample heart-rate trajectory and the
/// accelerometer motion envelope of the same segment.
///
/// `hr_bpm` and `motion_envelope` must have the same length; the output has
/// that length too.
///
/// # Panics
///
/// Panics if the two inputs differ in length (this is an internal generator
/// invariant; the public dataset builder always passes matched segments).
pub fn ppg_segment<R: Rng + ?Sized>(
    rng: &mut R,
    subject: &SubjectProfile,
    hr_bpm: &[f32],
    motion_envelope: &[f32],
    sample_rate_hz: f32,
) -> Vec<f32> {
    assert_eq!(
        hr_bpm.len(),
        motion_envelope.len(),
        "hr trajectory and motion envelope must be sample-aligned"
    );
    let n = hr_bpm.len();
    if n == 0 {
        return Vec::new();
    }

    let amp = subject.ppg_amplitude;

    // Cardiac phase: integrate the instantaneous frequency.
    let mut phase = rng.random_range(0.0..1.0f32);
    let mut clean = Vec::with_capacity(n);
    for &hr in hr_bpm {
        let f = hr / 60.0;
        phase += f / sample_rate_hz;
        if phase >= 1.0 {
            phase -= 1.0;
        }
        clean.push(amp * beat_waveform(phase));
    }

    // Respiratory baseline wander: slow sinusoid with drifting frequency.
    let resp_f = rng.random_range(0.2..0.4f32);
    let resp_phase = rng.random_range(0.0..std::f32::consts::TAU);
    let wander_amp = 0.3 * amp;

    // Motion artifacts: oscillatory in-band component + baseline shifts,
    // both modulated by the accelerometer motion envelope.
    let artifact_f = rng.random_range(0.8..2.5f32); // pseudo-periodic, cardiac band
    let artifact_phase = rng.random_range(0.0..std::f32::consts::TAU);
    let baseline_shift = ar1_noise(rng, n, 0.995, 1.0);
    let sensor_noise = white_noise(rng, n, 0.02 * amp);

    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let t = i as f32 / sample_rate_hz;
        let wander = wander_amp * (std::f32::consts::TAU * resp_f * t + resp_phase).sin();
        let envelope = motion_envelope[i];
        let artifact = ARTIFACT_COUPLING
            * envelope
            * amp
            * ((std::f32::consts::TAU * artifact_f * t + artifact_phase).sin()
                + 0.6 * baseline_shift[i]);
        out.push(clean[i] + wander + artifact + sensor_noise[i]);
    }
    out
}

/// Random words [`ppg_segment`] draws over `n_samples` samples: cardiac
/// phase, respiratory frequency and phase, artifact frequency and phase,
/// then the baseline-shift AR(1) and the sensor noise, or nothing for an
/// empty segment. `None` if the count overflows `u64`.
fn ppg_words(n_samples: usize) -> Option<u64> {
    if n_samples == 0 {
        return Some(0);
    }
    ar1_noise_words(n_samples)?
        .checked_add(5)?
        .checked_add(white_noise_words(n_samples)?)
}

/// Advances a stream exactly as far as [`ppg_segment`] over a fixed number
/// of samples would, without synthesizing the segment.
#[derive(Debug, Clone)]
pub(crate) struct PpgSkip(Jump);

impl PpgSkip {
    /// The skip over `n_samples`-sample segments, or `None` if their word
    /// count overflows `u64`.
    pub(crate) fn new(n_samples: usize) -> Option<Self> {
        Some(Self(Jump::new(ppg_words(n_samples)?)))
    }

    /// Advances `rng` past one segment.
    pub(crate) fn skip(&self, rng: &mut StdRng) {
        rng.jump(&self.0);
    }
}

/// Normalized single-beat waveform as a function of the cardiac phase in
/// `[0, 1)`: a systolic Gaussian peak followed by a smaller diastolic bump.
pub fn beat_waveform(phase: f32) -> f32 {
    let gaussian = |center: f32, width: f32| {
        let d = (phase - center) / width;
        (-0.5 * d * d).exp()
    };
    gaussian(0.20, 0.07) + DIASTOLIC_RATIO * gaussian(0.45, 0.10)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::Activity;
    use crate::hr_profile::hr_trajectory;
    use crate::noise::skip_words;
    use crate::subject::{SubjectId, SubjectProfile};
    use rand::SeedableRng;

    fn subject() -> SubjectProfile {
        SubjectProfile::nominal(SubjectId(0))
    }

    #[test]
    fn beat_waveform_peaks_at_systole() {
        let systole = beat_waveform(0.20);
        let diastole = beat_waveform(0.45);
        let end = beat_waveform(0.95);
        assert!(systole > diastole);
        assert!(diastole > end);
        assert!(systole <= 1.0 + DIASTOLIC_RATIO);
    }

    #[test]
    fn output_length_matches_input() {
        let mut rng = StdRng::seed_from_u64(1);
        let hr = vec![70.0f32; 256];
        let env = vec![0.0f32; 256];
        let ppg = ppg_segment(&mut rng, &subject(), &hr, &env, 32.0);
        assert_eq!(ppg.len(), 256);
    }

    #[test]
    fn empty_input_gives_empty_output() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(ppg_segment(&mut rng, &subject(), &[], &[], 32.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "sample-aligned")]
    fn mismatched_inputs_panic() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = ppg_segment(&mut rng, &subject(), &[70.0; 10], &[0.0; 5], 32.0);
    }

    #[test]
    fn clean_ppg_has_cardiac_dominant_frequency() {
        // With no motion the dominant in-band frequency must track the HR.
        let mut rng = StdRng::seed_from_u64(2);
        let hr = vec![90.0f32; 1024]; // 1.5 Hz
        let env = vec![0.0f32; 1024];
        let ppg = ppg_segment(&mut rng, &subject(), &hr, &env, 32.0);
        let centered = ppg_dsp::filter::band_pass(&ppg, 0.6, 4.0, 32.0).unwrap();
        let (_, f, _) = ppg_dsp::fft::dominant_frequency(&centered[512..], 32.0, 0.7, 4.0).unwrap();
        assert!((f - 1.5).abs() < 0.25, "expected ~1.5 Hz, got {f}");
    }

    #[test]
    fn motion_artifacts_increase_signal_power() {
        let mut rng_a = StdRng::seed_from_u64(3);
        let mut rng_b = StdRng::seed_from_u64(3);
        let hr = vec![70.0f32; 512];
        let quiet = ppg_segment(&mut rng_a, &subject(), &hr, &vec![0.0; 512], 32.0);
        let moving = ppg_segment(&mut rng_b, &subject(), &hr, &vec![0.8; 512], 32.0);
        let power = |v: &[f32]| v.iter().map(|x| x * x).sum::<f32>() / v.len() as f32;
        assert!(power(&moving) > power(&quiet) * 2.0);
    }

    #[test]
    fn realistic_pipeline_resting_window_tracks_hr() {
        // End-to-end sanity: with a real HR trajectory and a quiet envelope,
        // the spectral peak of the PPG is within a few BPM of the mean HR.
        let mut rng = StdRng::seed_from_u64(4);
        let s = subject();
        let hr = hr_trajectory(&mut rng, &s, Activity::Resting, 1024, 32.0, 65.0);
        let env = vec![0.01f32; 1024];
        let ppg = ppg_segment(&mut rng, &s, &hr, &env, 32.0);
        let filtered = ppg_dsp::filter::band_pass(&ppg, 0.6, 4.0, 32.0).unwrap();
        let (_, f, _) = ppg_dsp::fft::dominant_frequency(&filtered[512..], 32.0, 0.7, 4.0).unwrap();
        let mean_hr = hr.iter().sum::<f32>() / hr.len() as f32;
        assert!(
            (f * 60.0 - mean_hr).abs() < 8.0,
            "spectral HR {} vs ground truth {}",
            f * 60.0,
            mean_hr
        );
    }

    #[test]
    fn skip_leaves_the_stream_where_synthesis_does() {
        for n in [0, 1, 256, 32 * 24 + 5] {
            let mut synthesized = StdRng::seed_from_u64(5);
            let mut skipped = synthesized.clone();
            let hr = vec![80.0f32; n];
            let env = vec![0.2f32; n];
            ppg_segment(&mut synthesized, &subject(), &hr, &env, 32.0);
            PpgSkip::new(n).unwrap().skip(&mut skipped);
            assert_eq!(synthesized, skipped, "{n} samples");
        }
    }

    #[test]
    fn jump_matches_stepping_word_by_word() {
        for n in [1, 256, 32 * 60, 32 * 1_800] {
            let mut stepped = StdRng::seed_from_u64(n as u64);
            let mut jumped = stepped.clone();
            skip_words(&mut stepped, ppg_words(n).unwrap());
            PpgSkip::new(n).unwrap().skip(&mut jumped);
            assert_eq!(stepped, jumped, "{n} samples");
        }
        assert_eq!(ppg_words(768), Some(4 * 768 + 7));
        assert_eq!(ppg_words(usize::MAX), None);
    }
}
