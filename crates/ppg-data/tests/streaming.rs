//! Conformance suite for streaming window synthesis: for random
//! `(seed, subjects, schedule)` parameters, the lazy `WindowSource` paths
//! must be **element-wise identical** to the legacy eager vectors — the
//! property that lets every downstream report stay byte-identical after the
//! streaming redesign.

use ppg_data::{Activity, DatasetBuilder, LabeledWindow, Synthesis, WindowSource};
use proptest::prelude::*;

/// Decodes a non-empty activity subset from a 9-bit mask.
fn activities_from_mask(mask: usize) -> Vec<Activity> {
    Activity::ALL
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, &a)| a)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `DatasetBuilder::window_stream()` collected equals
    /// `build()?.windows()` for random generation parameters, with an exact
    /// `len`/`size_hint`.
    #[test]
    fn synth_stream_is_element_wise_identical_to_eager_build(
        seed in 0u64..10_000,
        subjects in 1usize..=3,
        seconds_idx in 0usize..3,
        activity_mask in 1usize..512,
    ) {
        let seconds = [16.0f32, 24.0, 40.0][seconds_idx];
        let activities = activities_from_mask(activity_mask);
        let builder = || DatasetBuilder::new()
            .subjects(subjects)
            .seconds_per_activity(seconds)
            .seed(seed)
            .activities(&activities);

        let eager = builder().build().unwrap().windows();
        let stream = builder().window_stream().unwrap();
        prop_assert_eq!(stream.len(), eager.len());
        prop_assert_eq!(stream.size_hint(), (eager.len(), Some(eager.len())));
        let streamed: Vec<_> = stream.iter().map(Result::unwrap).collect();
        prop_assert_eq!(streamed, eager);
    }

    /// The lazy recording streams over a *materialized* dataset also replay
    /// the eager vectors exactly.
    #[test]
    fn dataset_and_recording_streams_match_their_eager_vectors(
        seed in 0u64..10_000,
        subjects in 1usize..=2,
    ) {
        let dataset = DatasetBuilder::new()
            .subjects(subjects)
            .seconds_per_activity(20.0)
            .seed(seed)
            .build()
            .unwrap();

        let eager = dataset.windows();
        let mut from_recordings = Vec::new();
        for recording in dataset.recordings() {
            prop_assert_eq!(recording.window_count(), recording.windows().unwrap().len());
            from_recordings.extend(recording.window_stream().iter().map(Result::unwrap));
        }
        prop_assert_eq!(&from_recordings, &eager);
    }
}

/// Asserts that `labels` is the labels-only rendering of `full`, window by
/// window: same subject, activity and heart-rate bits, no signal.
fn assert_labels_match(labels: &[LabeledWindow], full: &[LabeledWindow]) {
    assert_eq!(labels.len(), full.len());
    for (i, (l, f)) in labels.iter().zip(full).enumerate() {
        assert_eq!(
            (l.subject, l.activity, l.hr_bpm.to_bits()),
            (f.subject, f.activity, f.hr_bpm.to_bits()),
            "window {i}"
        );
        assert!(
            l.is_empty() && l.channels_agree(),
            "window {i} carries signal"
        );
        assert_eq!(l.mean_motion_g, 0.0);
    }
}

fn labels_only_and_full(
    builder: impl Fn() -> DatasetBuilder,
) -> (Vec<LabeledWindow>, Vec<LabeledWindow>) {
    let collect = |b: DatasetBuilder| -> Vec<LabeledWindow> {
        b.window_stream()
            .unwrap()
            .iter()
            .map(Result::unwrap)
            .collect()
    };
    (
        collect(builder().synthesis(Synthesis::LabelsOnly)),
        collect(builder()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Labels-only synthesis skips the accelerometer and PPG draws without
    /// moving any label: for random seeds, subject counts, schedules and
    /// segment lengths it matches full synthesis window by window.
    #[test]
    fn labels_only_stream_matches_full_synthesis_labels(
        seed in 0u64..1_000_000,
        subjects in 1usize..=3,
        samples in 256usize..4_000,
        activity_mask in 1usize..512,
    ) {
        let activities = activities_from_mask(activity_mask);
        let seconds = samples as f32 / ppg_data::SAMPLE_RATE_HZ;
        let (labels, full) = labels_only_and_full(|| {
            DatasetBuilder::new()
                .subjects(subjects)
                .seconds_per_activity(seconds)
                .seed(seed)
                .activities(&activities)
        });
        prop_assert!(!labels.is_empty());
        assert_labels_match(&labels, &full);
    }
}

#[test]
fn labels_only_synthesis_matches_full_labels_on_every_activity() {
    for seed in [0u64, 42, 9001] {
        let (labels, full) = labels_only_and_full(|| {
            DatasetBuilder::new()
                .subjects(2)
                .seconds_per_activity(20.0)
                .seed(seed)
        });
        assert_labels_match(&labels, &full);
        for activity in Activity::ALL {
            assert!(labels.iter().any(|w| w.activity == activity));
        }
    }
    // `build` honours the mode too: labels-only recordings keep their length.
    let dataset = DatasetBuilder::new()
        .subjects(1)
        .seconds_per_activity(20.0)
        .synthesis(Synthesis::LabelsOnly)
        .build()
        .unwrap();
    for recording in dataset.recordings() {
        assert!(recording.is_labels_only());
        assert_eq!(recording.len(), 20 * 32);
        assert_eq!(recording.window_count(), recording.windows().unwrap().len());
    }
}

#[test]
fn builder_stream_validates_parameters_like_build() {
    assert!(DatasetBuilder::new().subjects(0).window_stream().is_err());
    assert!(DatasetBuilder::new().subjects(16).window_stream().is_err());
    assert!(DatasetBuilder::new()
        .seconds_per_activity(1.0)
        .window_stream()
        .is_err());
    assert!(DatasetBuilder::new()
        .activities(&[])
        .window_stream()
        .is_err());
    // Durations whose sample count would saturate `usize` are typed errors
    // in either mode, never an allocation failure or a wrapped size hint.
    for seconds in [f32::INFINITY, 1e12, f32::MAX, f32::NAN] {
        for synthesis in [Synthesis::Full, Synthesis::LabelsOnly] {
            let builder = || {
                DatasetBuilder::new()
                    .seconds_per_activity(seconds)
                    .synthesis(synthesis)
            };
            for error in [
                builder().window_stream().err(),
                builder().build().err(),
                builder().window_cache_key().err(),
            ] {
                assert!(
                    matches!(
                        error,
                        Some(ppg_data::DataError::InvalidParameter {
                            name: "seconds_per_activity",
                            ..
                        })
                    ),
                    "{seconds} s ({synthesis:?}): {error:?}"
                );
            }
        }
    }
    // The bound itself is accepted.
    let day = DatasetBuilder::new()
        .subjects(1)
        .activities(&[Activity::Resting])
        .seconds_per_activity(ppg_data::dataset::MAX_SECONDS_PER_ACTIVITY)
        .synthesis(Synthesis::LabelsOnly)
        .window_stream()
        .unwrap();
    assert_eq!(day.len(), (86_400 * 32 - 256) / 64 + 1);
}
