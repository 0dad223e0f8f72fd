//! Exact merging of shard artifacts into a fleet report.
//!
//! [`merge`] folds K [`ShardReport`]s into the [`FleetOutcome`] a
//! single-process run over the same fleet would have produced — not an
//! approximation: the per-device reports are folded in device-id order
//! through the same fixed-order reductions
//! ([`crate::report::FleetAccumulator`], the engine behind
//! [`FleetReport::from_devices`]), so the merged report serializes
//! **byte-identically** to the single-process one. The population-level
//! MAE/energy claims the paper's evaluation rests on therefore survive
//! scale-out unchanged.
//!
//! Merging is *streaming*: [`MergeAccumulator`] consumes one artifact at a
//! time — validate, fold its devices, drop it — so a consumer reading shard
//! artifacts off disk (the `fleet-merge` binary) holds one artifact plus
//! the per-device scalar samples, never the whole artifact set. [`merge`] is
//! the batch wrapper: it sorts the artifacts by range and pushes each into
//! the same accumulator, so a batch merge and a streaming one reject a bad
//! set with the same error.
//!
//! Before any numbers are trusted, the artifact set must prove it is
//! coherent: same engine version, master seed, scenario mix, fleet size and
//! shard count everywhere; each shard's device list matches its declared
//! range; and the ranges tile `0..fleet_devices` with no overlap and no gap.
//! Any violation is a typed [`MergeError`] — a corrupted report is never
//! emitted.

use telemetry::MetricsSnapshot;

use crate::error::MergeError;
use crate::report::{FleetAccumulator, FleetReport, ReportMode, SketchInfo};
use crate::shard::{ShardMeta, ShardReport, ENGINE_VERSION};
use crate::FleetOutcome;

/// Incremental, validating merge of shard artifacts.
///
/// Push shards in **ascending device-range order** (the order `fleet-merge`
/// establishes by sorting artifact metadata first); each push validates the
/// shard against the accumulated provenance and tiling cursor, folds its
/// devices into a [`FleetAccumulator`], and lets the caller drop the
/// artifact. [`MergeAccumulator::finalize`] proves the pushed ranges covered
/// the whole fleet and returns the aggregate report — byte-identical to a
/// single-process run over the same fleet.
///
/// The cursor check is also what makes sketch-mode reports independent of
/// the tiling: sketches are pinned to fold position, and a gap-free
/// ascending tiling from id 0 folds device `i` at position `i`.
#[derive(Debug, Clone, Default)]
pub struct MergeAccumulator {
    reference: Option<ShardMeta>,
    cursor: u64,
    /// Last non-empty range folded, for overlap diagnostics.
    previous: Option<(u64, u64)>,
    /// Aggregation mode pinned by the caller; `None` adopts the mode
    /// declared by the first pushed shard.
    forced_mode: Option<ReportMode>,
    fleet: FleetAccumulator,
    telemetry: MetricsSnapshot,
}

impl MergeAccumulator {
    /// Creates an empty accumulator that adopts the report mode declared by
    /// the first pushed shard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty accumulator pinned to `mode`, regardless of what the
    /// pushed shards declare. Shards still have to agree with *each other*
    /// ([`MergeError::ReportModeMismatch`] otherwise) — a forced mode only
    /// selects how the merger re-aggregates their device reports, which is
    /// how an exact artifact set can be rolled up as a sketch.
    pub fn with_mode(mode: ReportMode) -> Self {
        Self {
            forced_mode: Some(mode),
            fleet: FleetAccumulator::with_mode(mode),
            ..Self::default()
        }
    }

    /// The aggregation mode the accumulator folds under. Before the first
    /// push this is the forced mode, or [`ReportMode::Exact`] by default.
    pub fn mode(&self) -> ReportMode {
        self.fleet.mode()
    }

    /// Sketch accuracy/footprint diagnostics, `Some` iff the accumulator is
    /// folding in [`ReportMode::Sketch`]. Read before
    /// [`MergeAccumulator::finalize`], which consumes the accumulator.
    pub fn sketch_info(&self) -> Option<SketchInfo> {
        self.fleet.sketch_info()
    }

    /// Device-id coverage so far: every id below the cursor has been folded.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Number of devices folded so far.
    pub fn devices(&self) -> usize {
        self.fleet.devices()
    }

    /// Telemetry snapshots of the pushed shards, folded series-wise
    /// (counters and histogram buckets add, gauges take the maximum).
    /// Read (or clone) this before [`MergeAccumulator::finalize`], which
    /// consumes the accumulator.
    pub fn telemetry(&self) -> &MetricsSnapshot {
        &self.telemetry
    }

    /// Validates one shard against the artifact set seen so far and folds
    /// its devices into the aggregate.
    ///
    /// # Errors
    ///
    /// Returns the [`MergeError`] naming the first incompatibility: a
    /// provenance mismatch against the first pushed shard, an internally
    /// inconsistent artifact ([`MergeError::CorruptShard`]), or a range that
    /// does not extend the tiling cursor —
    /// [`MergeError::OverlappingShards`] when it starts below it (which is
    /// also what an out-of-order push looks like),
    /// [`MergeError::MissingDevices`] when it leaves a gap. A failed push
    /// leaves the accumulator unchanged.
    pub fn push(&mut self, shard: &ShardReport) -> Result<(), MergeError> {
        let meta = &shard.meta;
        // The first shard is its own reference: only its engine version can
        // mismatch.
        check_provenance(self.reference.as_ref().unwrap_or(meta), meta)?;
        validate_shard_devices(shard)?;
        if meta.start < self.cursor {
            return Err(MergeError::OverlappingShards {
                left: self
                    .previous
                    .expect("the cursor only advances past pushed ranges"),
                right: (meta.start, meta.end),
            });
        }
        if meta.start > self.cursor {
            return Err(MergeError::MissingDevices {
                start: self.cursor,
                end: meta.start,
            });
        }
        // Fold telemetry through a pure merge *before* mutating anything, so
        // a conflicting snapshot leaves the accumulator unchanged like every
        // other rejection.
        let telemetry =
            self.telemetry
                .merged(&shard.telemetry)
                .map_err(|e| MergeError::TelemetryConflict {
                    detail: e.to_string(),
                })?;

        // The first accepted shard decides the fold mode (unless the caller
        // pinned one); all validation is behind us, so swapping the empty
        // accumulator here cannot lose samples.
        if self.reference.is_none() && self.forced_mode.is_none() {
            let mode = meta.report_mode;
            if mode != self.fleet.mode() {
                self.fleet = FleetAccumulator::with_mode(mode);
            }
        }
        for device in &shard.devices {
            self.fleet.push(device);
        }
        self.cursor = meta.end;
        self.telemetry = telemetry;
        if meta.end > meta.start {
            self.previous = Some((meta.start, meta.end));
        }
        if self.reference.is_none() {
            self.reference = Some(meta.clone());
        }
        Ok(())
    }

    /// Proves the pushed shards covered the whole fleet and returns the
    /// aggregate report.
    ///
    /// # Errors
    ///
    /// Returns [`MergeError::NoShards`] when nothing was pushed, or
    /// [`MergeError::MissingDevices`] when the tail of the device-id range
    /// is uncovered.
    pub fn finalize(self) -> Result<FleetReport, MergeError> {
        let Some(reference) = &self.reference else {
            return Err(MergeError::NoShards);
        };
        if self.cursor < reference.fleet_devices {
            return Err(MergeError::MissingDevices {
                start: self.cursor,
                end: reference.fleet_devices,
            });
        }
        Ok(self.fleet.finalize())
    }
}

/// Merges shard reports into the exact single-process [`FleetOutcome`].
///
/// Shards may be supplied in any order; they are sorted by range and pushed
/// into a [`MergeAccumulator`], which takes the lowest-range shard as the
/// provenance reference, as `fleet-merge` does. Empty shards (from a
/// [`crate::ShardSpec`] with more shards than devices) are valid and
/// contribute nothing.
///
/// # Errors
///
/// Returns the [`MergeError`] the accumulator raises at the first
/// incompatibility in range order: [`MergeError::NoShards`], a provenance
/// mismatch
/// ([`MergeError::VersionMismatch`], [`MergeError::SeedMismatch`],
/// [`MergeError::MixMismatch`], [`MergeError::FleetSizeMismatch`],
/// [`MergeError::ShardCountMismatch`],
/// [`MergeError::ReportModeMismatch`]), an internally inconsistent artifact
/// ([`MergeError::CorruptShard`]) or bad coverage
/// ([`MergeError::OverlappingShards`], [`MergeError::MissingDevices`]).
pub fn merge(mut shards: Vec<ShardReport>) -> Result<FleetOutcome, MergeError> {
    shards.sort_by_key(|s| (s.meta.start, s.meta.end));

    // Range-sorted shards feed the accumulator in device-id order — the
    // exact fold a single-process run performs in
    // `FleetReport::from_devices`.
    let mut accumulator = MergeAccumulator::new();
    let mut devices = Vec::with_capacity(
        shards
            .iter()
            .map(|shard| shard.devices.len())
            .sum::<usize>(),
    );
    for shard in shards {
        accumulator.push(&shard)?;
        devices.extend(shard.devices);
    }
    let telemetry = accumulator.telemetry().clone();
    let sketch = accumulator.sketch_info();
    let report = accumulator.finalize()?;
    Ok(FleetOutcome {
        report,
        devices,
        telemetry,
        sketch,
    })
}

/// Checks that `meta` was produced by this engine and describes the same
/// fleet as `reference`: master seed, scenario mix, fleet size, shard count
/// and report mode.
fn check_provenance(reference: &ShardMeta, meta: &ShardMeta) -> Result<(), MergeError> {
    if meta.engine_version != ENGINE_VERSION {
        return Err(MergeError::VersionMismatch {
            expected: ENGINE_VERSION.to_string(),
            found: meta.engine_version.clone(),
        });
    }
    if meta.master_seed != reference.master_seed {
        return Err(MergeError::SeedMismatch {
            expected: reference.master_seed,
            found: meta.master_seed,
        });
    }
    if meta.mix != reference.mix {
        return Err(MergeError::MixMismatch);
    }
    if meta.fleet_devices != reference.fleet_devices {
        return Err(MergeError::FleetSizeMismatch {
            expected: reference.fleet_devices,
            found: meta.fleet_devices,
        });
    }
    if meta.shard_count != reference.shard_count {
        return Err(MergeError::ShardCountMismatch {
            expected: reference.shard_count,
            found: meta.shard_count,
        });
    }
    if meta.report_mode != reference.report_mode {
        return Err(MergeError::ReportModeMismatch {
            expected: reference.report_mode,
            found: meta.report_mode,
        });
    }
    Ok(())
}

/// Checks that a shard's device list is exactly its declared range, in order.
fn validate_shard_devices(shard: &ShardReport) -> Result<(), MergeError> {
    let meta = &shard.meta;
    let corrupt = |detail: String| MergeError::CorruptShard {
        start: meta.start,
        end: meta.end,
        detail,
    };
    if meta.end < meta.start {
        return Err(corrupt("range end precedes range start".to_string()));
    }
    if meta.end > meta.fleet_devices {
        return Err(corrupt(format!(
            "range exceeds the {}-device fleet",
            meta.fleet_devices
        )));
    }
    let expected = meta.end - meta.start;
    if shard.devices.len() as u64 != expected {
        return Err(corrupt(format!(
            "expected {expected} device reports, found {}",
            shard.devices.len()
        )));
    }
    for (offset, device) in shard.devices.iter().enumerate() {
        let expected_id = meta.start + offset as u64;
        if device.device_id != expected_id {
            return Err(corrupt(format!(
                "expected device {expected_id} at offset {offset}, found {}",
                device.device_id
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::DeviceReport;
    use crate::scenario::ScenarioMix;
    use crate::shard::ShardMeta;
    use chris_core::config::EnergyAccounting;
    use chris_core::decision::UserConstraint;
    use hw_sim::units::Energy;

    fn device(id: u64) -> DeviceReport {
        DeviceReport {
            device_id: id,
            windows: 10,
            mae_bpm: 5.0 + id as f32,
            avg_watch_energy: Energy::from_microjoules(300.0 + id as f64),
            avg_phone_energy: Energy::from_microjoules(30.0),
            offload_fraction: 0.5,
            simple_fraction: 0.3,
            disconnected_fraction: 0.0,
            battery_life_hours: 500.0,
            constraint: UserConstraint::MaxMae(6.0),
            accounting: EnergyAccounting::BleOnly,
            constraint_violated: false,
        }
    }

    fn shard(
        fleet_devices: u64,
        shard_count: u32,
        index: u32,
        start: u64,
        end: u64,
    ) -> ShardReport {
        ShardReport {
            meta: ShardMeta {
                engine_version: ENGINE_VERSION.to_string(),
                master_seed: 42,
                mix: ScenarioMix::balanced(),
                report_mode: ReportMode::Exact,
                fleet_devices,
                shard_count,
                shard_index: index,
                start,
                end,
            },
            devices: (start..end).map(device).collect(),
            telemetry: MetricsSnapshot::default(),
        }
    }

    #[test]
    fn merge_of_ordered_shards_matches_direct_aggregation() {
        let merged = merge(vec![shard(8, 2, 0, 0, 4), shard(8, 2, 1, 4, 8)]).unwrap();
        let direct: Vec<_> = (0..8).map(device).collect();
        assert_eq!(merged.devices, direct);
        assert_eq!(merged.report, FleetReport::from_devices(&direct));
    }

    #[test]
    fn shard_order_does_not_matter() {
        let a = merge(vec![shard(8, 2, 0, 0, 4), shard(8, 2, 1, 4, 8)]).unwrap();
        let b = merge(vec![shard(8, 2, 1, 4, 8), shard(8, 2, 0, 0, 4)]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_shards_are_valid() {
        let merged = merge(vec![
            shard(2, 4, 0, 0, 1),
            shard(2, 4, 1, 1, 2),
            shard(2, 4, 2, 2, 2),
            shard(2, 4, 3, 2, 2),
        ])
        .unwrap();
        assert_eq!(merged.report.devices, 2);
    }

    #[test]
    fn no_shards_is_rejected() {
        assert_eq!(merge(Vec::new()).unwrap_err(), MergeError::NoShards);
        assert_eq!(
            MergeAccumulator::new().finalize().unwrap_err(),
            MergeError::NoShards
        );
    }

    #[test]
    fn streaming_merge_matches_batch_merge() {
        let shards = vec![
            shard(8, 3, 0, 0, 3),
            shard(8, 3, 1, 3, 6),
            shard(8, 3, 2, 6, 8),
        ];
        let batch = merge(shards.clone()).unwrap();
        let mut accumulator = MergeAccumulator::new();
        for piece in &shards {
            accumulator.push(piece).unwrap();
        }
        let streamed = accumulator.finalize().unwrap();
        assert_eq!(streamed, batch.report);
        assert_eq!(
            serde_json::to_string(&streamed).unwrap(),
            serde_json::to_string(&batch.report).unwrap()
        );
    }

    #[test]
    fn accumulator_folds_one_artifact_at_a_time() {
        let mut accumulator = MergeAccumulator::new();
        for piece in [shard(8, 2, 0, 0, 4), shard(8, 2, 1, 4, 8)] {
            accumulator.push(&piece).unwrap();
            // The artifact is dropped here; only the fold survives.
        }
        assert_eq!(accumulator.cursor(), 8);
        assert_eq!(accumulator.devices(), 8);
        let direct: Vec<_> = (0..8).map(device).collect();
        assert_eq!(
            accumulator.finalize().unwrap(),
            FleetReport::from_devices(&direct)
        );
    }

    #[test]
    fn streaming_push_rejects_gaps_and_out_of_order_ranges() {
        // A gap surfaces immediately, not at finalize.
        let mut accumulator = MergeAccumulator::new();
        accumulator.push(&shard(8, 2, 0, 0, 4)).unwrap();
        assert_eq!(
            accumulator.push(&shard(8, 2, 1, 6, 8)).unwrap_err(),
            MergeError::MissingDevices { start: 4, end: 6 }
        );

        // Out-of-order (or duplicate) ranges look like overlap against the
        // cursor; pushes must come in ascending range order.
        let mut accumulator = MergeAccumulator::new();
        accumulator.push(&shard(8, 2, 1, 4, 8)).unwrap_err();
        // First-push gap: [4, 8) cannot open the fleet.
        assert_eq!(accumulator.cursor(), 0);
        let mut accumulator = MergeAccumulator::new();
        accumulator.push(&shard(8, 2, 0, 0, 4)).unwrap();
        assert_eq!(
            accumulator.push(&shard(8, 2, 0, 0, 4)).unwrap_err(),
            MergeError::OverlappingShards {
                left: (0, 4),
                right: (0, 4),
            }
        );

        // An uncovered tail is caught at finalize.
        let mut accumulator = MergeAccumulator::new();
        accumulator.push(&shard(8, 2, 0, 0, 4)).unwrap();
        assert_eq!(
            accumulator.finalize().unwrap_err(),
            MergeError::MissingDevices { start: 4, end: 8 }
        );
    }

    #[test]
    fn failed_push_leaves_the_accumulator_unchanged() {
        let mut accumulator = MergeAccumulator::new();
        accumulator.push(&shard(8, 2, 0, 0, 4)).unwrap();
        let mut corrupt = shard(8, 2, 1, 4, 8);
        corrupt.devices[1].device_id = 99;
        accumulator.push(&corrupt).unwrap_err();
        assert_eq!(accumulator.cursor(), 4);
        assert_eq!(accumulator.devices(), 4);
        accumulator.push(&shard(8, 2, 1, 4, 8)).unwrap();
        assert_eq!(accumulator.finalize().unwrap().devices, 8);
    }

    #[test]
    fn corrupt_device_list_is_rejected() {
        let mut bad = shard(4, 1, 0, 0, 4);
        bad.devices[2].device_id = 99;
        assert!(matches!(
            merge(vec![bad]).unwrap_err(),
            MergeError::CorruptShard {
                start: 0,
                end: 4,
                ..
            }
        ));
        let mut truncated = shard(4, 1, 0, 0, 4);
        truncated.devices.pop();
        assert!(matches!(
            merge(vec![truncated]).unwrap_err(),
            MergeError::CorruptShard { .. }
        ));
    }

    #[test]
    fn telemetry_folds_across_shards_and_conflicts_reject_atomically() {
        use telemetry::{CounterSample, Stability};
        let counter = |value| CounterSample {
            name: "chris_windows_total".to_string(),
            labels: Vec::new(),
            help: "Windows processed".to_string(),
            stability: Stability::Stable,
            value,
        };
        let mut a = shard(8, 2, 0, 0, 4);
        a.telemetry.counters.push(counter(10));
        let mut b = shard(8, 2, 1, 4, 8);
        b.telemetry.counters.push(counter(32));

        let merged = merge(vec![a.clone(), b.clone()]).unwrap();
        assert_eq!(
            merged.telemetry.counter_value("chris_windows_total", &[]),
            Some(42)
        );

        // A snapshot whose metadata conflicts is rejected like any other bad
        // artifact — and the failed push leaves the accumulator unchanged.
        let mut accumulator = MergeAccumulator::new();
        accumulator.push(&a).unwrap();
        let mut bad = b;
        bad.telemetry.counters[0].help = "renamed help".to_string();
        assert!(matches!(
            accumulator.push(&bad).unwrap_err(),
            MergeError::TelemetryConflict { .. }
        ));
        assert_eq!(accumulator.cursor(), 4);
        assert_eq!(
            accumulator
                .telemetry()
                .counter_value("chris_windows_total", &[]),
            Some(10)
        );
    }

    #[test]
    fn sketch_mode_shards_merge_to_the_direct_sketch_fold() {
        let mut a = shard(8, 2, 0, 0, 4);
        let mut b = shard(8, 2, 1, 4, 8);
        a.meta.report_mode = ReportMode::Sketch;
        b.meta.report_mode = ReportMode::Sketch;
        let merged = merge(vec![a.clone(), b]).unwrap();
        let direct: Vec<_> = (0..8).map(device).collect();
        assert_eq!(
            merged.report,
            FleetReport::from_devices_with_mode(&direct, ReportMode::Sketch)
        );
        assert!(merged.sketch.is_some());

        // Mixed-mode artifact sets are refused, batch and streaming alike,
        // and the failed push leaves the accumulator unchanged.
        let exact = shard(8, 2, 1, 4, 8);
        let mismatch = MergeError::ReportModeMismatch {
            expected: ReportMode::Sketch,
            found: ReportMode::Exact,
        };
        assert_eq!(merge(vec![a.clone(), exact.clone()]).unwrap_err(), mismatch);
        let mut accumulator = MergeAccumulator::new();
        accumulator.push(&a).unwrap();
        assert_eq!(accumulator.mode(), ReportMode::Sketch);
        assert_eq!(accumulator.push(&exact).unwrap_err(), mismatch);
        assert_eq!(accumulator.cursor(), 4);

        // A forced mode re-aggregates an exact artifact set as a sketch.
        let mut forced = MergeAccumulator::with_mode(ReportMode::Sketch);
        assert_eq!(forced.mode(), ReportMode::Sketch);
        for piece in [shard(8, 2, 0, 0, 4), shard(8, 2, 1, 4, 8)] {
            forced.push(&piece).unwrap();
        }
        assert!(forced.sketch_info().is_some());
        assert_eq!(
            forced.finalize().unwrap(),
            FleetReport::from_devices_with_mode(&direct, ReportMode::Sketch)
        );
    }

    #[test]
    fn range_beyond_the_fleet_is_corrupt() {
        let bad = shard(4, 2, 1, 2, 6);
        assert!(matches!(
            merge(vec![shard(4, 2, 0, 0, 2), bad]).unwrap_err(),
            MergeError::CorruptShard { .. }
        ));
    }
}
