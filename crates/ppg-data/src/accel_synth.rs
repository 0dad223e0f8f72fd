//! Synthetic 3-axis wrist accelerometer generation.
//!
//! The accelerometer stream has three roles in the paper:
//!
//! 1. its statistical features feed the activity-recognition random forest
//!    (the difficulty proxy of CHRIS),
//! 2. its energy defines the difficulty ordering of the activities,
//! 3. motion artifacts in the PPG are correlated with it (sensor fusion is
//!    what the deep models exploit).
//!
//! The generator therefore produces, per activity segment: a gravity
//! component with a slowly changing orientation, an optional periodic
//! component at the activity's cadence (walking arm swing, pedalling, ...),
//! aperiodic bursts (reaching, steering, table-soccer shots) and white sensor
//! noise. The per-sample *motion envelope* (non-gravity magnitude, smoothed)
//! is returned alongside the axes so the PPG synthesizer can couple artifacts
//! to it.

use rand::Rng;

use crate::activity::Activity;
use crate::noise::{ar1_noise, ar1_noise_words, skip_words, white_noise, white_noise_words};
use crate::subject::SubjectProfile;

/// A 3-axis accelerometer segment plus the motion envelope used to couple
/// motion artifacts into the PPG.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AccelSegment {
    /// X-axis acceleration in g.
    pub x: Vec<f32>,
    /// Y-axis acceleration in g.
    pub y: Vec<f32>,
    /// Z-axis acceleration in g.
    pub z: Vec<f32>,
    /// Smoothed per-sample magnitude of the non-gravity motion, in g.
    pub motion_envelope: Vec<f32>,
}

impl AccelSegment {
    /// Number of samples in the segment.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Whether the segment contains no samples.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }
}

/// Generates one activity segment of 3-axis accelerometer data.
pub fn accel_segment<R: Rng + ?Sized>(
    rng: &mut R,
    subject: &SubjectProfile,
    activity: Activity,
    n_samples: usize,
    sample_rate_hz: f32,
) -> AccelSegment {
    if n_samples == 0 {
        return AccelSegment::default();
    }
    let intensity = activity.motion_intensity_g();
    let cadence = activity.motion_periodicity_hz();

    // Slowly drifting gravity orientation (wrist pose changes).
    let pose_x = ar1_noise(rng, n_samples, 0.9995, 0.15);
    let pose_y = ar1_noise(rng, n_samples, 0.9995, 0.15);

    // Periodic component phase offsets per axis.
    let phase: [f32; 3] = [
        rng.random_range(0.0..std::f32::consts::TAU),
        rng.random_range(0.0..std::f32::consts::TAU),
        rng.random_range(0.0..std::f32::consts::TAU),
    ];
    // Slight cadence wobble.
    let cadence_jitter = ar1_noise(rng, n_samples, 0.999, 0.05);

    // Aperiodic motion: AR(1) envelope modulating white noise, plus bursts.
    let aperiodic_env = ar1_noise(rng, n_samples, 0.995, 1.0);
    let sensor_noise: [Vec<f32>; 3] = [
        white_noise(rng, n_samples, 0.01),
        white_noise(rng, n_samples, 0.01),
        white_noise(rng, n_samples, 0.01),
    ];

    // Burst gain: a raised-cosine envelope per scheduled burst.
    let mut burst_gain = vec![0.0f32; n_samples];
    burst_schedule(
        rng,
        activity,
        n_samples,
        sample_rate_hz,
        |t, burst_len, amp| {
            let end = (t + burst_len).min(n_samples);
            for (k, gain) in burst_gain[t..end].iter_mut().enumerate() {
                let frac = k as f32 / burst_len as f32;
                *gain = gain.max(amp * (std::f32::consts::PI * frac).sin().powi(2));
            }
        },
    );

    let mut seg = AccelSegment {
        x: Vec::with_capacity(n_samples),
        y: Vec::with_capacity(n_samples),
        z: Vec::with_capacity(n_samples),
        motion_envelope: Vec::with_capacity(n_samples),
    };

    let periodic_amp = intensity * 1.2;
    let aperiodic_amp = intensity * 0.6;
    for i in 0..n_samples {
        let time_s = i as f32 / sample_rate_hz;
        // Gravity split between axes according to the slowly drifting pose.
        let gx = pose_x[i].sin();
        let gy = pose_y[i].sin() * pose_x[i].cos();
        let gz = (1.0 - (gx * gx + gy * gy)).max(0.0).sqrt();

        let mut motion = [0.0f32; 3];
        if let Some(f0) = cadence {
            let f = f0 * (1.0 + cadence_jitter[i]);
            for (axis, m) in motion.iter_mut().enumerate() {
                *m += periodic_amp
                    * (std::f32::consts::TAU * f * time_s + phase[axis]).sin()
                    * (1.0 + 0.3 * aperiodic_env[i]);
            }
        }
        let burst = burst_gain[i];
        for (axis, m) in motion.iter_mut().enumerate() {
            *m += aperiodic_amp * aperiodic_env[i] * (0.5 + 0.5 * (axis as f32 + 1.0) / 3.0);
            *m += intensity * burst * sensor_noise[axis][i] * 40.0;
        }

        let x = gx + motion[0] + sensor_noise[0][i];
        let y = gy + motion[1] + sensor_noise[1][i];
        let z = gz + motion[2] + sensor_noise[2][i];
        let envelope =
            (motion[0] * motion[0] + motion[1] * motion[1] + motion[2] * motion[2]).sqrt();
        seg.x.push(x);
        seg.y.push(y);
        seg.z.push(z);
        seg.motion_envelope
            .push(envelope * subject.artifact_susceptibility);
    }
    seg
}

/// Draws the burst schedule of a segment: each second may start a burst of
/// 0.5..2 s, and `on_burst(start, length, amplitude)` sees every burst in
/// order.
///
/// The one place the schedule's draws happen, shared by [`accel_segment`]
/// and [`skip_accel_segment`]: the burst length is rejection-sampled, so its
/// word count is not fixed and the skip must replay the draws, not count
/// them.
fn burst_schedule<R: Rng + ?Sized>(
    rng: &mut R,
    activity: Activity,
    n_samples: usize,
    sample_rate_hz: f32,
    mut on_burst: impl FnMut(usize, usize, f32),
) {
    let burst_p = activity.burst_probability();
    let samples_per_second = sample_rate_hz as usize;
    let mut t = 0usize;
    while t < n_samples {
        if rng.random::<f32>() < burst_p {
            let burst_len = rng.random_range(samples_per_second / 2..samples_per_second * 2);
            let amp = rng.random_range(1.5f32..4.0);
            on_burst(t, burst_len, amp);
        }
        t += samples_per_second.max(1);
    }
}

/// Advances `rng` exactly as far as [`accel_segment`] with the same
/// arguments would, without synthesizing the segment: the fixed-size noise
/// draws are skipped word by word and only the burst schedule is replayed.
pub(crate) fn skip_accel_segment<R: Rng + ?Sized>(
    rng: &mut R,
    activity: Activity,
    n_samples: usize,
    sample_rate_hz: f32,
) {
    if n_samples == 0 {
        return;
    }
    // Four AR(1) series (pose x/y, cadence jitter, aperiodic envelope), three
    // phase offsets and three sensor-noise axes, all drawn before the bursts.
    skip_words(
        rng,
        4 * ar1_noise_words(n_samples) + 3 + 3 * white_noise_words(n_samples),
    );
    burst_schedule(rng, activity, n_samples, sample_rate_hz, |_, _, _| {});
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subject::SubjectId;
    use ppg_dsp::features::AccelFeatures;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn subject() -> SubjectProfile {
        SubjectProfile::nominal(SubjectId(0))
    }

    fn segment(activity: Activity, seed: u64) -> AccelSegment {
        let mut rng = StdRng::seed_from_u64(seed);
        accel_segment(&mut rng, &subject(), activity, 32 * 60, 32.0)
    }

    #[test]
    fn segment_lengths_match() {
        let seg = segment(Activity::Walking, 1);
        assert_eq!(seg.len(), 32 * 60);
        assert_eq!(seg.x.len(), seg.y.len());
        assert_eq!(seg.y.len(), seg.z.len());
        assert_eq!(seg.z.len(), seg.motion_envelope.len());
        assert!(!seg.is_empty());
    }

    #[test]
    fn empty_request_is_empty() {
        let mut rng = StdRng::seed_from_u64(1);
        let seg = accel_segment(&mut rng, &subject(), Activity::Resting, 0, 32.0);
        assert!(seg.is_empty());
    }

    #[test]
    fn resting_magnitude_is_close_to_gravity() {
        let seg = segment(Activity::Resting, 2);
        let mean_mag: f32 = seg
            .x
            .iter()
            .zip(&seg.y)
            .zip(&seg.z)
            .map(|((&x, &y), &z)| (x * x + y * y + z * z).sqrt())
            .sum::<f32>()
            / seg.len() as f32;
        assert!(
            (mean_mag - 1.0).abs() < 0.15,
            "resting magnitude ≈ 1 g, got {mean_mag}"
        );
    }

    #[test]
    fn motion_energy_increases_with_difficulty() {
        // The activity ordering by accelerometer energy must be (statistically)
        // monotone — this is the foundation of the difficulty proxy.
        let mut energies = Vec::new();
        for (i, activity) in Activity::ALL.iter().enumerate() {
            let seg = segment(*activity, 100 + i as u64);
            let f = AccelFeatures::from_axes(&seg.x, &seg.y, &seg.z).unwrap();
            // Subtract the ~1 g gravity energy so we compare motion only.
            energies.push(f.mean_axis_energy());
        }
        // Check monotonicity loosely: every "hard" activity (index >= 5) must
        // have more energy than every "easy" one (index <= 2).
        for hard in &energies[5..] {
            for easy in &energies[..3] {
                assert!(
                    hard > easy,
                    "hard {hard} should exceed easy {easy}: {energies:?}"
                );
            }
        }
    }

    #[test]
    fn walking_has_periodic_component() {
        let seg = segment(Activity::Walking, 3);
        // Dominant non-DC frequency of the x axis should be near the 1.8 Hz cadence.
        let x = ppg_dsp::filter::remove_mean(&seg.x[..1024]).unwrap();
        let (_, f, _) = ppg_dsp::fft::dominant_frequency(&x, 32.0, 0.8, 4.0).unwrap();
        assert!(
            (f - 1.8).abs() < 0.5,
            "expected cadence near 1.8 Hz, got {f}"
        );
    }

    #[test]
    fn motion_envelope_is_non_negative() {
        for activity in [Activity::Resting, Activity::Lunch, Activity::TableSoccer] {
            let seg = segment(activity, 4);
            assert!(seg.motion_envelope.iter().all(|&e| e >= 0.0));
        }
    }

    #[test]
    fn susceptible_subject_has_larger_envelope() {
        let mut rng_a = StdRng::seed_from_u64(5);
        let mut rng_b = StdRng::seed_from_u64(5);
        let mut sensitive = subject();
        sensitive.artifact_susceptibility = 1.5;
        let mut robust = subject();
        robust.artifact_susceptibility = 0.7;
        let a = accel_segment(&mut rng_a, &sensitive, Activity::Walking, 32 * 30, 32.0);
        let b = accel_segment(&mut rng_b, &robust, Activity::Walking, 32 * 30, 32.0);
        let sum = |v: &[f32]| v.iter().sum::<f32>();
        assert!(sum(&a.motion_envelope) > sum(&b.motion_envelope));
    }

    #[test]
    fn skip_leaves_the_stream_where_synthesis_does() {
        for (i, activity) in Activity::ALL.iter().enumerate() {
            for n in [0, 1, 31, 32, 33, 32 * 24 + 5] {
                let mut synthesized = StdRng::seed_from_u64(200 + i as u64);
                let mut skipped = synthesized.clone();
                accel_segment(&mut synthesized, &subject(), *activity, n, 32.0);
                skip_accel_segment(&mut skipped, *activity, n, 32.0);
                assert_eq!(synthesized, skipped, "{activity} over {n} samples");
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = segment(Activity::Cycling, 11);
        let b = segment(Activity::Cycling, 11);
        assert_eq!(a, b);
    }
}
