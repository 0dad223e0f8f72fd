//! Dataset generation: sessions, recordings and window extraction.
//!
//! A [`Dataset`] is the synthetic stand-in for PPGDalia: for every subject it
//! holds one [`SessionRecording`] per activity, generated by chaining the HR
//! trajectory, accelerometer and PPG synthesizers. Windows are extracted with
//! the paper's 256-sample / 64-sample-stride scheme.
//!
//! A builder can also synthesize *labels only* ([`Synthesis::LabelsOnly`]):
//! the heart-rate trajectory runs in full, and the subject's stream is
//! advanced past the accelerometer and PPG draws without computing them, so
//! every label is bit-identical to full synthesis at a fraction of the cost.
//! The fixed-size draws are jumped over with two xoshiro256++ jump
//! polynomials built once per builder (their word counts depend only on the
//! segment length); only the accelerometer's burst schedule is replayed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::accel_synth::{accel_segment, AccelSegment, AccelSkip};
use crate::activity::Activity;
use crate::error::DataError;
use crate::hr_profile::{hr_trajectory, window_mean_hr};
use crate::ppg_synth::{ppg_segment, PpgSkip};
use crate::stream::cache::{CachedWindows, WindowCache, WindowCacheKey};
use crate::stream::{self, RecordingWindows, SynthWindows, WindowSource};
use crate::subject::{SubjectId, SubjectProfile};
use crate::window::LabeledWindow;
use crate::{FULL_SUBJECT_COUNT, SAMPLE_RATE_HZ, WINDOW_SAMPLES};

/// The longest recording per activity a builder accepts: one day, in
/// seconds.
pub const MAX_SECONDS_PER_ACTIVITY: f32 = 86_400.0;

/// The error for a per-activity duration that is not a number of seconds
/// within [`MAX_SECONDS_PER_ACTIVITY`].
const SECONDS_OUT_OF_RANGE: DataError = DataError::InvalidParameter {
    name: "seconds_per_activity",
    requirement: "must be finite and at most 86400 s",
};

/// What a synthesized session carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Synthesis {
    /// Labels plus the PPG and accelerometer signals.
    #[default]
    Full,
    /// Labels only: subject, activity and heart rate, with empty signal
    /// channels. For consumers that read no signal, such as the oracle
    /// classifier and the calibrated estimators; the labels are
    /// bit-identical to [`Synthesis::Full`].
    LabelsOnly,
}

/// A continuous recording of one subject performing one activity.
///
/// A labels-only recording ([`Synthesis::LabelsOnly`]) carries `hr_bpm` and
/// leaves every signal channel empty.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionRecording {
    /// Subject recorded.
    pub subject: SubjectId,
    /// Activity performed.
    pub activity: Activity,
    /// Per-sample ground-truth heart rate in BPM.
    pub hr_bpm: Vec<f32>,
    /// PPG channel.
    pub ppg: Vec<f32>,
    /// Accelerometer X axis in g.
    pub accel_x: Vec<f32>,
    /// Accelerometer Y axis in g.
    pub accel_y: Vec<f32>,
    /// Accelerometer Z axis in g.
    pub accel_z: Vec<f32>,
    /// Motion envelope used to couple artifacts into the PPG (generator-side).
    pub motion_envelope: Vec<f32>,
}

impl SessionRecording {
    /// Number of samples in the recording: the PPG length, or the
    /// heart-rate length of a labels-only recording.
    pub fn len(&self) -> usize {
        if self.is_labels_only() {
            self.hr_bpm.len()
        } else {
            self.ppg.len()
        }
    }

    /// Whether the recording is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the recording carries no signal channel at all, as
    /// [`Synthesis::LabelsOnly`] produces it.
    pub fn is_labels_only(&self) -> bool {
        [
            &self.ppg,
            &self.accel_x,
            &self.accel_y,
            &self.accel_z,
            &self.motion_envelope,
        ]
        .iter()
        .all(|channel| channel.is_empty())
    }

    /// Extracts the labeled window starting at sample `start`; the caller
    /// guarantees `start + WINDOW_SAMPLES <= self.len()`. The one place
    /// window extraction happens — every eager and streaming path goes
    /// through it.
    pub(crate) fn window_at(&self, start: usize) -> LabeledWindow {
        let hr_bpm = window_mean_hr(&self.hr_bpm, start, WINDOW_SAMPLES);
        if self.is_labels_only() {
            return LabeledWindow {
                subject: self.subject,
                activity: self.activity,
                hr_bpm,
                ppg: Vec::new(),
                accel_x: Vec::new(),
                accel_y: Vec::new(),
                accel_z: Vec::new(),
                mean_motion_g: 0.0,
            };
        }
        let end = start + WINDOW_SAMPLES;
        let mean_motion =
            self.motion_envelope[start..end].iter().sum::<f32>() / WINDOW_SAMPLES as f32;
        LabeledWindow {
            subject: self.subject,
            activity: self.activity,
            hr_bpm,
            ppg: self.ppg[start..end].to_vec(),
            accel_x: self.accel_x[start..end].to_vec(),
            accel_y: self.accel_y[start..end].to_vec(),
            accel_z: self.accel_z[start..end].to_vec(),
            mean_motion_g: mean_motion,
        }
    }

    /// Number of analysis windows this recording yields.
    pub fn window_count(&self) -> usize {
        stream::window_count_for(self.len())
    }

    /// Streams the labeled analysis windows of this recording lazily, one
    /// window materialized per pull.
    pub fn window_stream(&self) -> RecordingWindows<&Self> {
        RecordingWindows::new(self)
    }

    /// Extracts the labeled analysis windows of this recording.
    ///
    /// Eager convenience wrapper over [`SessionRecording::window_stream`];
    /// prefer the stream on memory-sensitive paths.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::RecordingTooShort`] when the recording holds fewer
    /// than [`WINDOW_SAMPLES`] samples.
    pub fn windows(&self) -> Result<Vec<LabeledWindow>, DataError> {
        stream::collect_windows(self.window_stream())
    }
}

/// The full synthetic dataset: every subject's profile and recordings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    subjects: Vec<SubjectProfile>,
    recordings: Vec<SessionRecording>,
    seconds_per_activity: f32,
    seed: u64,
}

impl Dataset {
    /// Number of subjects in the dataset.
    pub fn subject_count(&self) -> usize {
        self.subjects.len()
    }

    /// Subject profiles.
    pub fn subjects(&self) -> &[SubjectProfile] {
        &self.subjects
    }

    /// All recordings (one per subject per activity).
    pub fn recordings(&self) -> &[SessionRecording] {
        &self.recordings
    }

    /// Extracts every labeled window of the dataset, in subject/activity order.
    pub fn windows(&self) -> Vec<LabeledWindow> {
        extract_windows(self.recordings.iter())
    }

    /// Seconds of data generated per activity per subject.
    pub fn seconds_per_activity(&self) -> f32 {
        self.seconds_per_activity
    }

    /// Seed the dataset was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// Eagerly extracts the windows of `recordings`, in order; a recording too
/// short for one window contributes none.
fn extract_windows<'a>(
    recordings: impl Iterator<Item = &'a SessionRecording>,
) -> Vec<LabeledWindow> {
    recordings
        .flat_map(|r| r.window_stream().iter().filter_map(Result::ok))
        .collect()
}

/// Builder for [`Dataset`] with the paper's defaults.
///
/// # Examples
///
/// ```
/// use ppg_data::DatasetBuilder;
///
/// let small = DatasetBuilder::new()
///     .subjects(2)
///     .seconds_per_activity(20.0)
///     .seed(1)
///     .build()?;
/// assert_eq!(small.subject_count(), 2);
/// # Ok::<(), ppg_data::DataError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DatasetBuilder {
    subjects: usize,
    seconds_per_activity: f32,
    seed: u64,
    activities: Vec<Activity>,
    synthesis: Synthesis,
}

impl Default for DatasetBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl DatasetBuilder {
    /// Creates a builder with the full-dataset defaults: 15 subjects,
    /// 150 seconds per activity, seed 0, all nine activities, full signals.
    pub fn new() -> Self {
        Self {
            subjects: FULL_SUBJECT_COUNT,
            seconds_per_activity: 150.0,
            seed: 0,
            activities: Activity::ALL.to_vec(),
            synthesis: Synthesis::Full,
        }
    }

    /// Number of subjects to generate (1..=15).
    pub fn subjects(mut self, subjects: usize) -> Self {
        self.subjects = subjects;
        self
    }

    /// Seconds of recording per activity per subject (must allow at least one
    /// 8-second window and be at most [`MAX_SECONDS_PER_ACTIVITY`]).
    pub fn seconds_per_activity(mut self, seconds: f32) -> Self {
        self.seconds_per_activity = seconds;
        self
    }

    /// RNG seed; the same seed always yields the same dataset.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Restricts generation to a subset of activities (defaults to all nine).
    pub fn activities(mut self, activities: &[Activity]) -> Self {
        self.activities = activities.to_vec();
        self
    }

    /// What the synthesized recordings and windows carry (defaults to
    /// [`Synthesis::Full`]). Labels are bit-identical in either mode.
    pub fn synthesis(mut self, synthesis: Synthesis) -> Self {
        self.synthesis = synthesis;
        self
    }

    /// Validates the builder parameters, returning the per-activity sample
    /// count the synthesizers run with.
    fn validated_samples_per_activity(&self) -> Result<usize, DataError> {
        if self.subjects == 0 || self.subjects > FULL_SUBJECT_COUNT {
            return Err(DataError::InvalidParameter {
                name: "subjects",
                requirement: "must be within 1..=15",
            });
        }
        if self.activities.is_empty() {
            return Err(DataError::InvalidParameter {
                name: "activities",
                requirement: "must contain at least one activity",
            });
        }
        let seconds = self.seconds_per_activity;
        if !seconds.is_finite() || seconds > MAX_SECONDS_PER_ACTIVITY {
            return Err(SECONDS_OUT_OF_RANGE);
        }
        let samples_per_activity = (seconds * SAMPLE_RATE_HZ) as usize;
        if samples_per_activity < WINDOW_SAMPLES {
            return Err(DataError::InvalidParameter {
                name: "seconds_per_activity",
                requirement: "must cover at least one 8-second window",
            });
        }
        Ok(samples_per_activity)
    }

    /// Streams the labeled windows of the dataset this builder describes
    /// **without materializing it**: windows are synthesized on demand from
    /// `(seed, subjects, activity schedule)`, holding at most one activity
    /// segment alive (labels only, or raw signal too, per
    /// [`DatasetBuilder::synthesis`]). Collecting the stream yields exactly
    /// `self.build()?.windows()`.
    ///
    /// # Errors
    ///
    /// Same parameter validation as [`DatasetBuilder::build`].
    pub fn window_stream(self) -> Result<SynthWindows, DataError> {
        Ok(SynthWindows::new(self.sessions()?))
    }

    /// The memoization key of the stream this builder describes: the full
    /// synthesis input, so two builders with equal keys produce bit-identical
    /// streams (see [`crate::stream::cache::WindowCache`]).
    ///
    /// # Errors
    ///
    /// Same parameter validation as [`DatasetBuilder::build`].
    pub fn window_cache_key(&self) -> Result<WindowCacheKey, DataError> {
        let samples_per_activity = self.validated_samples_per_activity()?;
        Ok(WindowCacheKey {
            seed: self.seed,
            subjects: self.subjects,
            activities: self.activities.clone(),
            samples_per_activity,
            synthesis: self.synthesis,
        })
    }

    /// Like [`DatasetBuilder::window_stream`], but memoized through `cache`:
    /// the first call for a given key synthesizes and materializes the
    /// windows once, and every later call with an equal key replays the
    /// shared buffer instead of re-running the synthesizers. The replay is
    /// element-wise identical to a fresh stream.
    ///
    /// # Errors
    ///
    /// Same parameter validation as [`DatasetBuilder::build`], plus any
    /// synthesis error surfaced while filling the cache.
    pub fn cached_window_stream(self, cache: &mut WindowCache) -> Result<CachedWindows, DataError> {
        let key = self.window_cache_key()?;
        cache.stream_with(key, move || self.window_stream())
    }

    /// Generates the dataset.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidParameter`] when the subject count is not
    /// in `1..=15`, the activity list is empty, or the per-activity duration
    /// is not a number, is shorter than one analysis window or is longer
    /// than [`MAX_SECONDS_PER_ACTIVITY`].
    pub fn build(self) -> Result<Dataset, DataError> {
        let (seconds_per_activity, seed) = (self.seconds_per_activity, self.seed);
        let mut sessions = self.sessions()?;
        let recordings = sessions.by_ref().collect();
        Ok(Dataset {
            subjects: sessions.profiles,
            recordings,
            seconds_per_activity,
            seed,
        })
    }

    /// The lazy session generator of the dataset this builder describes.
    fn sessions(self) -> Result<Sessions, DataError> {
        let samples_per_activity = self.validated_samples_per_activity()?;
        let signals = match self.synthesis {
            Synthesis::Full => Signals::Synthesize,
            Synthesis::LabelsOnly => {
                let accel = AccelSkip::new(samples_per_activity);
                let ppg = PpgSkip::new(samples_per_activity);
                let (accel, ppg) = accel.zip(ppg).ok_or(SECONDS_OUT_OF_RANGE)?;
                Signals::Skip { accel, ppg }
            }
        };
        Ok(Sessions {
            master: StdRng::seed_from_u64(self.seed),
            subjects: self.subjects,
            next_activity: self.activities.len(),
            activities: self.activities,
            samples_per_activity,
            signals,
            profiles: Vec::with_capacity(self.subjects),
            // Replaced by subject 0's stream on the first pull.
            rng: StdRng::seed_from_u64(self.seed),
            last_hr: 0.0,
        })
    }
}

/// The lazy session generator: yields every recording of a dataset in
/// subject/activity order, synthesizing each on demand by chaining the HR
/// trajectory, accelerometer and PPG generators. In labels-only mode the
/// accelerometer and PPG draws are jumped over, not computed, so the
/// subject's stream — and every later label — stays exactly where full
/// synthesis leaves it.
///
/// The one place subject streams are derived and the heart-rate trajectory
/// is chained across activities: [`DatasetBuilder::build`] collects it and
/// [`SynthWindows`] pulls from it one recording at a time, so the eager and
/// lazy paths cannot drift.
#[derive(Debug, Clone)]
pub(crate) struct Sessions {
    master: StdRng,
    subjects: usize,
    activities: Vec<Activity>,
    samples_per_activity: usize,
    signals: Signals,
    /// Profiles generated so far; the last one is the subject being recorded.
    profiles: Vec<SubjectProfile>,
    /// The current subject's stream.
    rng: StdRng,
    /// Where the current subject's next HR trajectory starts.
    last_hr: f32,
    /// Index into `activities` of the next recording; `activities.len()`
    /// once the current subject is done.
    next_activity: usize,
}

/// How [`Sessions`] treats the signal draws of each segment.
#[derive(Debug, Clone)]
enum Signals {
    /// Synthesize the accelerometer and PPG ([`Synthesis::Full`]).
    Synthesize,
    /// Jump the stream past them ([`Synthesis::LabelsOnly`]), with skips
    /// built once for the segment length.
    Skip { accel: AccelSkip, ppg: PpgSkip },
}

impl Sessions {
    /// Number of windows the whole generator yields.
    pub(crate) fn window_total(&self) -> usize {
        self.subjects * self.activities.len() * stream::window_count_for(self.samples_per_activity)
    }
}

impl Iterator for Sessions {
    type Item = SessionRecording;

    fn next(&mut self) -> Option<SessionRecording> {
        if self.next_activity == self.activities.len() {
            let id = SubjectId(self.profiles.len());
            if id.0 == self.subjects {
                return None;
            }
            // Every subject gets an independent stream so adding subjects does
            // not perturb previously generated ones.
            self.rng = StdRng::seed_from_u64(self.master.random());
            let profile = SubjectProfile::generate(id, &mut self.rng);
            self.last_hr = profile.resting_hr_bpm;
            self.profiles.push(profile);
            self.next_activity = 0;
        }
        let profile = self.profiles.last()?;
        let activity = self.activities[self.next_activity];
        self.next_activity += 1;
        let (rng, samples) = (&mut self.rng, self.samples_per_activity);
        let hr = hr_trajectory(
            rng,
            profile,
            activity,
            samples,
            SAMPLE_RATE_HZ,
            self.last_hr,
        );
        self.last_hr = *hr.last().expect("non-empty trajectory");
        let (accel, ppg) = match &self.signals {
            Signals::Synthesize => {
                let accel = accel_segment(rng, profile, activity, samples, SAMPLE_RATE_HZ);
                let ppg = ppg_segment(rng, profile, &hr, &accel.motion_envelope, SAMPLE_RATE_HZ);
                (accel, ppg)
            }
            Signals::Skip { accel, ppg } => {
                accel.skip(rng, activity, SAMPLE_RATE_HZ);
                ppg.skip(rng);
                (AccelSegment::default(), Vec::new())
            }
        };
        Some(SessionRecording {
            subject: profile.id,
            activity,
            hr_bpm: hr,
            ppg,
            accel_x: accel.x,
            accel_y: accel.y,
            accel_z: accel.z,
            motion_envelope: accel.motion_envelope,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_dataset() -> Dataset {
        DatasetBuilder::new()
            .subjects(2)
            .seconds_per_activity(24.0)
            .seed(11)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_defaults_match_paper() {
        let b = DatasetBuilder::new();
        assert_eq!(b.subjects, 15);
        assert_eq!(b.activities.len(), 9);
    }

    #[test]
    fn builder_rejects_bad_parameters() {
        assert!(DatasetBuilder::new().subjects(0).build().is_err());
        assert!(DatasetBuilder::new().subjects(16).build().is_err());
        assert!(DatasetBuilder::new()
            .seconds_per_activity(1.0)
            .build()
            .is_err());
        assert!(DatasetBuilder::new().activities(&[]).build().is_err());
    }

    #[test]
    fn dataset_has_one_recording_per_subject_activity() {
        let d = small_dataset();
        assert_eq!(d.recordings().len(), 2 * 9);
        assert_eq!(d.subject_count(), 2);
        for r in d.recordings() {
            assert_eq!(r.len(), (24.0 * 32.0) as usize);
            assert!(!r.is_empty());
        }
    }

    #[test]
    fn windows_have_equal_activity_representation() {
        let d = small_dataset();
        let windows = d.windows();
        assert!(!windows.is_empty());
        let mut counts = std::collections::HashMap::new();
        for w in &windows {
            *counts.entry(w.activity).or_insert(0usize) += 1;
        }
        let values: Vec<usize> = counts.values().copied().collect();
        assert_eq!(counts.len(), 9);
        assert!(
            values.iter().all(|&c| c == values[0]),
            "equal representation: {counts:?}"
        );
    }

    #[test]
    fn window_shapes_are_correct() {
        let d = small_dataset();
        for w in d.windows() {
            assert_eq!(w.ppg.len(), WINDOW_SAMPLES);
            assert_eq!(w.accel_x.len(), WINDOW_SAMPLES);
            assert_eq!(w.accel_y.len(), WINDOW_SAMPLES);
            assert_eq!(w.accel_z.len(), WINDOW_SAMPLES);
            assert!(w.hr_bpm > 40.0 && w.hr_bpm < 190.0);
        }
    }

    #[test]
    fn same_seed_same_dataset() {
        let a = DatasetBuilder::new()
            .subjects(1)
            .seconds_per_activity(16.0)
            .seed(3)
            .build()
            .unwrap();
        let b = DatasetBuilder::new()
            .subjects(1)
            .seconds_per_activity(16.0)
            .seed(3)
            .build()
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_different_dataset() {
        let a = DatasetBuilder::new()
            .subjects(1)
            .seconds_per_activity(16.0)
            .seed(3)
            .build()
            .unwrap();
        let b = DatasetBuilder::new()
            .subjects(1)
            .seconds_per_activity(16.0)
            .seed(4)
            .build()
            .unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn adding_subjects_preserves_existing_ones() {
        let one = DatasetBuilder::new()
            .subjects(1)
            .seconds_per_activity(16.0)
            .seed(5)
            .build()
            .unwrap();
        let two = DatasetBuilder::new()
            .subjects(2)
            .seconds_per_activity(16.0)
            .seed(5)
            .build()
            .unwrap();
        assert_eq!(one.recordings()[0], two.recordings()[0]);
    }

    #[test]
    fn recording_too_short_error() {
        let d = small_dataset();
        let mut r = d.recordings()[0].clone();
        r.ppg.truncate(100);
        assert!(matches!(
            r.windows(),
            Err(DataError::RecordingTooShort { .. })
        ));
    }

    #[test]
    fn harder_activities_have_larger_motion() {
        let d = DatasetBuilder::new()
            .subjects(3)
            .seconds_per_activity(40.0)
            .seed(9)
            .build()
            .unwrap();
        let windows = d.windows();
        let mean_motion = |a: Activity| {
            let v: Vec<f32> = windows
                .iter()
                .filter(|w| w.activity == a)
                .map(|w| w.mean_motion_g)
                .collect();
            v.iter().sum::<f32>() / v.len() as f32
        };
        assert!(mean_motion(Activity::TableSoccer) > mean_motion(Activity::Resting) * 3.0);
        assert!(mean_motion(Activity::Walking) > mean_motion(Activity::Sitting));
    }
}
