//! Golden labels-only heart-rate labels at the held-out seed 9001.
//!
//! Labels-only synthesis advances each subject's stream past the
//! accelerometer and PPG draws without computing them. This test pins the
//! `hr_bpm` bits of every labels-only window for two subjects at three
//! segment lengths against a committed fixture, so any change to how the
//! stream is advanced that moves a single label shows up here. The 1,800 s
//! segments advance the stream by more than 2^19 words per segment.
//!
//! The fixture holds one line per recording: segment seconds, subject,
//! activity, then the hex `f32` bits of every window's `hr_bpm`. If a change
//! is *meant* to move the labels, regenerate it with
//!
//! ```text
//! UPDATE_FIXTURES=1 cargo test -p ppg-data --test golden_labels
//! ```
//!
//! and call the change out in the PR description.

use std::fmt::Write as _;

use ppg_data::{DatasetBuilder, Synthesis, WindowSource};

const SEED: u64 = 9001;
const SUBJECTS: usize = 2;
const SEGMENT_SECONDS: [f32; 3] = [8.0, 24.0, 1_800.0];

/// Renders the fixture text of the labels-only windows at every segment
/// length.
fn render() -> String {
    let mut out = String::new();
    for seconds in SEGMENT_SECONDS {
        let mut stream = DatasetBuilder::new()
            .subjects(SUBJECTS)
            .seconds_per_activity(seconds)
            .seed(SEED)
            .synthesis(Synthesis::LabelsOnly)
            .window_stream()
            .unwrap();
        let mut line_key = None;
        while let Some(window) = stream.next_window() {
            let window = window.unwrap();
            let key = (window.subject, window.activity);
            if line_key != Some(key) {
                if line_key.is_some() {
                    out.push('\n');
                }
                write!(out, "{seconds} {} {}:", window.subject.0, window.activity).unwrap();
                line_key = Some(key);
            }
            write!(out, " {:08x}", window.hr_bpm.to_bits()).unwrap();
        }
        out.push('\n');
    }
    out
}

#[test]
fn labels_only_heart_rates_are_bit_stable_at_the_held_out_seed() {
    let fresh = render();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/labels-only-seed9001.txt");
    if std::env::var_os("UPDATE_FIXTURES").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &fresh).unwrap();
        return;
    }
    let golden =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert_eq!(
        fresh.lines().count(),
        golden.lines().count(),
        "recording count drifted"
    );
    for (i, (fresh, golden)) in fresh.lines().zip(golden.lines()).enumerate() {
        assert!(
            fresh == golden,
            "recording {i} drifted from its golden labels ({}); if this change is \
             intentional, regenerate the fixture with:\n  \
             UPDATE_FIXTURES=1 cargo test -p ppg-data --test golden_labels",
            golden.split(':').next().unwrap_or_default()
        );
    }
}
