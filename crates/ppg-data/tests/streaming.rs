//! Conformance suite for streaming window synthesis: for random
//! `(seed, subjects, schedule)` parameters, the lazy `WindowSource` paths
//! must be **element-wise identical** to the legacy eager vectors — the
//! property that lets every downstream report stay byte-identical after the
//! streaming redesign.

use ppg_data::{Activity, DatasetBuilder, WindowSource};
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
}
