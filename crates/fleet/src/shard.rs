//! Sharded fleet execution: partitioning and shard artifacts.
//!
//! Device scenarios are pure functions of `(master seed, device id)`, so a
//! fleet can be cut into contiguous device-id ranges and each range simulated
//! anywhere — another process, another host — with no coordination beyond
//! agreeing on the [`ShardSpec`]. A worker's output is a [`ShardReport`]: the
//! per-device [`DeviceReport`]s of its range plus the [`ShardMeta`] needed to
//! prove, at merge time, that a set of artifacts really describes one fleet
//! (same master seed, same mix, same engine version, ranges that tile the
//! fleet exactly). [`crate::merge::merge`] folds validated shard artifacts
//! into a [`crate::FleetReport`] byte-identical to a single-process run.

use std::ops::Range;

use serde::{Deserialize, Serialize};
use telemetry::MetricsSnapshot;

use crate::error::FleetError;
use crate::report::{DeviceReport, ReportMode};
use crate::scenario::ScenarioMix;

/// Version stamp embedded in every shard artifact.
///
/// [`crate::merge::merge`] refuses artifacts produced by a different engine
/// version: scenario generation, reduction order and serialization are all
/// allowed to change between versions, and merging across them would silently
/// break the byte-identity guarantee. (0.3.0 added
/// `ScenarioMix::subject_pool` to the artifact format, 0.4.0 added the
/// embedded `telemetry` snapshot, and 0.5.0 added `report_mode` to
/// [`ShardMeta`]; artifacts from earlier versions fail deserialization with
/// a "missing field" error naming the file — regenerate them with the
/// current binaries.)
pub const ENGINE_VERSION: &str = env!("CARGO_PKG_VERSION");

/// Partition of a fleet's device-id range `0..devices` into contiguous
/// shards.
///
/// Shard `i` covers a contiguous range; the first `devices % shards` shards
/// hold one extra device, so ranges tile `0..devices` exactly — no device is
/// duplicated or dropped, for any `(devices, shards)` pair including
/// `shards > devices` (excess shards are empty).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSpec {
    devices: u64,
    shards: u32,
}

impl ShardSpec {
    /// Creates a partition of `devices` devices into `shards` contiguous
    /// shards.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::ZeroShards`] when `shards == 0`.
    pub fn new(devices: u64, shards: u32) -> Result<Self, FleetError> {
        if shards == 0 {
            return Err(FleetError::ZeroShards);
        }
        Ok(Self { devices, shards })
    }

    /// The trivial partition: the whole fleet in one shard.
    pub fn single(devices: u64) -> Self {
        Self { devices, shards: 1 }
    }

    /// Total number of devices in the fleet.
    pub fn devices(&self) -> u64 {
        self.devices
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Device-id range `[start, end)` of shard `index`, or `None` when
    /// `index >= shards`.
    pub fn range(&self, index: u32) -> Option<Range<u64>> {
        if index >= self.shards {
            return None;
        }
        let base = self.devices / u64::from(self.shards);
        let remainder = self.devices % u64::from(self.shards);
        let i = u64::from(index);
        let start = i * base + i.min(remainder);
        let len = base + u64::from(i < remainder);
        Some(start..start + len)
    }

    /// The ranges of all shards, in shard order; they tile `0..devices`.
    pub fn ranges(&self) -> Vec<Range<u64>> {
        (0..self.shards)
            .map(|i| self.range(i).expect("index < shard count"))
            .collect()
    }
}

/// Provenance of one shard artifact: everything [`crate::merge::merge`] needs
/// to verify that a set of shards describes the same fleet and tiles it
/// exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardMeta {
    /// [`ENGINE_VERSION`] of the engine that produced the shard.
    pub engine_version: String,
    /// Master seed every device scenario derives from.
    pub master_seed: u64,
    /// Scenario mix the fleet was generated with.
    pub mix: ScenarioMix,
    /// Aggregation mode the shard's producer ran under. Merging mixed-mode
    /// artifact sets is refused: sketch and exact runs summarize
    /// distributions differently, so a mixed merge could not reproduce
    /// either single-process result.
    pub report_mode: ReportMode,
    /// Total number of devices in the fleet this shard belongs to.
    pub fleet_devices: u64,
    /// Number of shards the fleet was split into.
    pub shard_count: u32,
    /// This shard's index in `0..shard_count`.
    pub shard_index: u32,
    /// First device id of the shard's range.
    pub start: u64,
    /// One past the last device id of the shard's range.
    pub end: u64,
}

impl ShardMeta {
    /// The provenance of shard `index` of `spec`, produced by this engine
    /// from `master_seed` and `mix` under `report_mode`: what
    /// [`crate::FleetSimulation::run_shard_with_options`] stamps into its
    /// artifact and what a checkpoint must carry to be trusted. `None` when
    /// `index` is out of range.
    pub fn new(
        spec: &ShardSpec,
        index: u32,
        master_seed: u64,
        mix: ScenarioMix,
        report_mode: ReportMode,
    ) -> Option<Self> {
        let range = spec.range(index)?;
        Some(Self {
            engine_version: ENGINE_VERSION.to_string(),
            master_seed,
            mix,
            report_mode,
            fleet_devices: spec.devices(),
            shard_count: spec.shards(),
            shard_index: index,
            start: range.start,
            end: range.end,
        })
    }

    /// The shard's device-id range.
    pub fn range(&self) -> Range<u64> {
        self.start..self.end
    }
}

/// Serializable result of simulating one shard: per-device reports in
/// device-id order plus the provenance metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardReport {
    /// Shard provenance, validated at merge time.
    pub meta: ShardMeta,
    /// Per-device reports, ordered by device id, exactly covering
    /// `meta.start..meta.end`.
    pub devices: Vec<DeviceReport>,
    /// [`Stable`](telemetry::Stability::Stable) telemetry series of the
    /// shard's run (windows processed, offload decisions, model
    /// invocations). Only workload-deterministic series are embedded, so the
    /// artifact stays byte-identical for any thread count;
    /// [`crate::merge::merge`] folds the snapshots of all shards into the
    /// fleet-level total.
    pub telemetry: MetricsSnapshot,
}

/// Meta-only view of a serialized shard artifact.
///
/// Deserializing a [`ShardReport`]'s JSON into this type keeps just the
/// provenance. The JSON parser still reads the whole document, device
/// payload included; what is skipped is converting that payload into
/// [`DeviceReport`]s. The streaming `fleet-merge` pipeline's first pass
/// uses it to order and size an artifact set without building its device
/// reports twice.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct ShardProvenance {
    /// The artifact's provenance.
    pub meta: ShardMeta,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_shards_is_rejected() {
        assert!(matches!(ShardSpec::new(10, 0), Err(FleetError::ZeroShards)));
    }

    #[test]
    fn ranges_tile_the_fleet_exactly() {
        for (devices, shards) in [(0u64, 1u32), (1, 1), (1, 4), (7, 3), (64, 4), (100, 8)] {
            let spec = ShardSpec::new(devices, shards).unwrap();
            let ranges = spec.ranges();
            assert_eq!(ranges.len(), shards as usize);
            let mut cursor = 0;
            for range in &ranges {
                assert_eq!(range.start, cursor, "{devices} devices / {shards} shards");
                cursor = range.end;
            }
            assert_eq!(cursor, devices);
            assert!(spec.range(shards).is_none());
        }
    }

    #[test]
    fn remainder_devices_go_to_the_first_shards() {
        let spec = ShardSpec::new(10, 4).unwrap();
        let lens: Vec<u64> = spec.ranges().iter().map(|r| r.end - r.start).collect();
        assert_eq!(lens, vec![3, 3, 2, 2]);
    }

    #[test]
    fn huge_fleets_partition_without_overflow() {
        let spec = ShardSpec::new(u64::MAX, 7).unwrap();
        let ranges = spec.ranges();
        let mut cursor = 0;
        for range in &ranges {
            assert_eq!(range.start, cursor);
            assert!(range.end >= range.start);
            cursor = range.end;
        }
        assert_eq!(cursor, u64::MAX);
    }

    #[test]
    fn single_is_one_shard_over_everything() {
        let spec = ShardSpec::single(42);
        assert_eq!(spec.shards(), 1);
        assert_eq!(spec.devices(), 42);
        assert_eq!(spec.range(0), Some(0..42));
    }

    #[test]
    fn shard_spec_round_trips_through_json() {
        let spec = ShardSpec::new(100, 8).unwrap();
        let json = serde_json::to_string(&spec).unwrap();
        let back: ShardSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn meta_new_stamps_the_shard_range_and_rejects_bad_indices() {
        let spec = ShardSpec::new(10, 4).unwrap();
        let meta =
            ShardMeta::new(&spec, 3, 42, ScenarioMix::balanced(), ReportMode::Sketch).unwrap();
        assert_eq!(meta.range(), spec.range(3).unwrap());
        assert_eq!(
            (meta.fleet_devices, meta.shard_count, meta.shard_index),
            (10, 4, 3)
        );
        assert_eq!(meta.engine_version, ENGINE_VERSION);
        assert!(
            ShardMeta::new(&spec, 4, 42, ScenarioMix::balanced(), ReportMode::Sketch).is_none()
        );
    }

    #[test]
    fn provenance_reads_a_shard_artifact_without_its_devices() {
        let report = ShardReport {
            meta: ShardMeta {
                engine_version: ENGINE_VERSION.to_string(),
                master_seed: 42,
                mix: ScenarioMix::balanced(),
                report_mode: ReportMode::Exact,
                fleet_devices: 4,
                shard_count: 2,
                shard_index: 1,
                start: 2,
                end: 4,
            },
            devices: Vec::new(),
            telemetry: MetricsSnapshot::default(),
        };
        let json = serde_json::to_string(&report).unwrap();
        let provenance: ShardProvenance = serde_json::from_str(&json).unwrap();
        assert_eq!(provenance.meta, report.meta);
    }
}
