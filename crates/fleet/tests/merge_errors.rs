//! Negative-path coverage for `merge` and the streaming `MergeAccumulator`
//! — the validation layer behind the `fleet-merge` binary. Every bad artifact set
//! must be rejected with the specific typed [`MergeError`], never folded
//! into a corrupted report, whether the artifacts arrive as one batch or
//! one at a time.

use fleet::{
    merge, ExecutorOptions, FleetReport, FleetSimulation, MergeAccumulator, MergeError, ReportMode,
    ScenarioMix, ShardReport, ShardSpec,
};

const DEVICES: u64 = 8;
const SHARDS: u32 = 4;

/// Simulates a small fleet and returns its four shard artifacts.
fn artifacts() -> Vec<ShardReport> {
    let simulation = FleetSimulation::new(42, ScenarioMix::balanced()).unwrap();
    let spec = ShardSpec::new(DEVICES, SHARDS).unwrap();
    let options = ExecutorOptions {
        threads: 1,
        ..ExecutorOptions::default()
    };
    (0..SHARDS)
        .map(|index| {
            simulation
                .run_shard_with_options(&spec, index, &options, None)
                .unwrap()
        })
        .collect()
}

/// Pushes `shards` into a fresh accumulator one at a time, in the given
/// order, the way `fleet-merge` streams artifacts off disk.
fn push_all(shards: &[ShardReport]) -> Result<FleetReport, MergeError> {
    let mut accumulator = MergeAccumulator::new();
    for shard in shards {
        accumulator.push(shard)?;
    }
    accumulator.finalize()
}

#[test]
fn overlapping_ranges_are_rejected() {
    let mut shards = artifacts();
    // Duplicate the second shard: its range is now claimed twice.
    shards.push(shards[1].clone());
    let err = merge(shards).unwrap_err();
    assert_eq!(
        err,
        MergeError::OverlappingShards {
            left: (2, 4),
            right: (2, 4),
        }
    );
}

#[test]
fn partially_overlapping_ranges_are_rejected() {
    let mut shards = artifacts();
    // Stretch shard 0 to also claim shard 1's first device.
    let extra = shards[1].devices[0].clone();
    shards[0].meta.end = 3;
    shards[0].devices.push(extra);
    let err = merge(shards).unwrap_err();
    assert_eq!(
        err,
        MergeError::OverlappingShards {
            left: (0, 3),
            right: (2, 4),
        }
    );
}

#[test]
fn a_missing_shard_is_rejected() {
    let mut shards = artifacts();
    shards.remove(2); // devices [4, 6) now uncovered
    let err = merge(shards).unwrap_err();
    assert_eq!(err, MergeError::MissingDevices { start: 4, end: 6 });
}

#[test]
fn a_missing_trailing_shard_is_rejected() {
    let mut shards = artifacts();
    shards.pop(); // devices [6, 8) now uncovered
    let err = merge(shards).unwrap_err();
    assert_eq!(err, MergeError::MissingDevices { start: 6, end: 8 });
}

#[test]
fn mismatched_master_seed_is_rejected() {
    let mut shards = artifacts();
    shards[3].meta.master_seed = 43;
    let err = merge(shards).unwrap_err();
    assert_eq!(
        err,
        MergeError::SeedMismatch {
            expected: 42,
            found: 43,
        }
    );
}

#[test]
fn mismatched_engine_version_is_rejected() {
    let mut shards = artifacts();
    shards[1].meta.engine_version = "0.0.0-other".to_string();
    let err = merge(shards).unwrap_err();
    assert_eq!(
        err,
        MergeError::VersionMismatch {
            expected: fleet::ENGINE_VERSION.to_string(),
            found: "0.0.0-other".to_string(),
        }
    );
}

#[test]
fn mismatched_mix_is_rejected() {
    let mut shards = artifacts();
    shards[2].meta.mix = ScenarioMix::harsh();
    assert_eq!(merge(shards).unwrap_err(), MergeError::MixMismatch);
}

#[test]
fn mismatched_fleet_size_is_rejected() {
    let mut shards = artifacts();
    shards[2].meta.fleet_devices = DEVICES + 1;
    assert_eq!(
        merge(shards).unwrap_err(),
        MergeError::FleetSizeMismatch {
            expected: DEVICES,
            found: DEVICES + 1,
        }
    );
}

#[test]
fn mismatched_shard_count_is_rejected() {
    let mut shards = artifacts();
    shards[0].meta.shard_count = SHARDS + 1;
    assert_eq!(
        merge(shards).unwrap_err(),
        MergeError::ShardCountMismatch {
            expected: SHARDS + 1,
            found: SHARDS,
        }
    );
}

#[test]
fn mismatched_report_mode_is_rejected() {
    // Batch merge: pushing the range-sorted shards catches the mixed mode.
    let mut shards = artifacts();
    shards[2].meta.report_mode = ReportMode::Sketch;
    assert_eq!(
        merge(shards).unwrap_err(),
        MergeError::ReportModeMismatch {
            expected: ReportMode::Exact,
            found: ReportMode::Sketch,
        }
    );

    // Streaming merge: the push rejects it and leaves the fold untouched.
    let mut shards = artifacts();
    shards[1].meta.report_mode = ReportMode::Sketch;
    let mut accumulator = MergeAccumulator::new();
    accumulator.push(&shards[0]).unwrap();
    assert_eq!(
        accumulator.push(&shards[1]).unwrap_err(),
        MergeError::ReportModeMismatch {
            expected: ReportMode::Exact,
            found: ReportMode::Sketch,
        }
    );
    assert_eq!(accumulator.cursor(), 2);
    assert_eq!(accumulator.devices(), 2);
}

#[test]
fn tampered_device_list_is_rejected() {
    let mut shards = artifacts();
    shards[1].devices.swap(0, 1);
    assert!(matches!(
        merge(shards).unwrap_err(),
        MergeError::CorruptShard {
            start: 2,
            end: 4,
            ..
        }
    ));
}

#[test]
fn validation_never_yields_a_partial_report() {
    // The untampered artifact set still merges cleanly after all the
    // negative tests above cloned and mutated copies of it.
    let outcome = merge(artifacts()).unwrap();
    assert_eq!(outcome.report.devices, DEVICES as usize);
    assert_eq!(outcome.devices.len(), DEVICES as usize);
}

#[test]
fn streaming_merge_matches_batch_merge_on_real_artifacts() {
    let shards = artifacts();
    let batch = merge(shards.clone()).unwrap();
    let streamed = push_all(&shards).unwrap();
    assert_eq!(streamed, batch.report);
    assert_eq!(
        serde_json::to_string_pretty(&streamed).unwrap(),
        serde_json::to_string_pretty(&batch.report).unwrap()
    );
}

#[test]
fn streaming_merge_rejects_a_mid_stream_seed_mismatch() {
    let mut shards = artifacts();
    shards[2].meta.master_seed = 43;
    assert_eq!(
        push_all(&shards).unwrap_err(),
        MergeError::SeedMismatch {
            expected: 42,
            found: 43,
        }
    );
}

#[test]
fn streaming_merge_rejects_gaps_where_batch_merge_does() {
    let mut shards = artifacts();
    shards.remove(1); // devices [2, 4) uncovered
    let batch_err = merge(shards.clone()).unwrap_err();
    let stream_err = push_all(&shards).unwrap_err();
    assert_eq!(batch_err, MergeError::MissingDevices { start: 2, end: 4 });
    assert_eq!(stream_err, batch_err);
}

#[test]
fn batch_merge_reports_the_streaming_merge_error() {
    // A gap before a seed mismatch: the streaming merge stops at the gap,
    // and the batch merge, in any argument order, must agree.
    let mut shards = artifacts();
    shards.remove(1); // devices [2, 4) uncovered
    shards.last_mut().unwrap().meta.master_seed = 43;
    let stream_err = push_all(&shards).unwrap_err();
    assert_eq!(stream_err, MergeError::MissingDevices { start: 2, end: 4 });
    assert_eq!(merge(shards.clone()).unwrap_err(), stream_err);
    shards.reverse();
    assert_eq!(merge(shards).unwrap_err(), stream_err);
}

#[test]
fn incremental_pushes_reject_a_tampered_artifact_and_resume() {
    let shards = artifacts();
    let mut accumulator = MergeAccumulator::new();
    accumulator.push(&shards[0]).unwrap();
    let mut tampered = shards[1].clone();
    tampered.devices.swap(0, 1);
    assert!(matches!(
        accumulator.push(&tampered).unwrap_err(),
        MergeError::CorruptShard {
            start: 2,
            end: 4,
            ..
        }
    ));
    // The failed push left the fold untouched; the intact artifact lands.
    for shard in &shards[1..] {
        accumulator.push(shard).unwrap();
    }
    let report = accumulator.finalize().unwrap();
    assert_eq!(report, merge(shards).unwrap().report);
}
