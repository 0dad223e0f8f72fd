//! # fleet — fleet-scale CHRIS simulation engine
//!
//! The paper evaluates CHRIS one device at a time. A production deployment
//! serves *millions* of wearables whose subjects, activity mixes, BLE link
//! quality, batteries and user constraints all differ. This crate simulates
//! such a fleet: thousands of independent [`chris_core::ChrisRuntime`] device
//! simulations run in parallel and are folded into population-level
//! statistics — the quantities a fleet operator actually watches (error
//! percentiles, battery-life distribution, offload load on phones,
//! constraint-violation counts).
//!
//! The engine has four layers:
//!
//! * [`scenario`] — a deterministic scenario generator: from one master seed
//!   it derives, per device id, the subject physiology (via `ppg-data`
//!   synthesis), the activity schedule, the BLE connection pattern, the
//!   battery capacity, the user constraint and the energy-accounting mode.
//!   A device's scenario depends **only** on `(master seed, device id)`, so
//!   fleets are reproducible and independent of execution order,
//! * [`executor`] — a parallel executor: std scoped threads pull fixed-size
//!   chunks of devices from a shared work queue (work stealing by atomic
//!   cursor). Every device simulation is independent, and results are merged
//!   in device-id order, so reports are **byte-identical for any thread
//!   count**. Workers are *scenario-free* ([`executor::run_fleet_range`]):
//!   each scenario is derived on demand from `(generator, device id)` inside
//!   the claiming worker, so a shard's scenario memory is O(threads), not
//!   O(devices). Device windows are likewise *streamed*, not materialized:
//!   the runtime pulls them one at a time from
//!   [`DeviceScenario::window_stream`], so peak per-device memory is one
//!   activity segment instead of the whole session. Fleet windows carry
//!   labels only ([`ppg_data::Synthesis::LabelsOnly`]): the oracle
//!   classifier and the calibrated estimators read nothing else, so no
//!   PPG or accelerometer signal is synthesized. [`progress`] sinks
//!   observe each device, with its window count, as it completes
//!   (`--progress` on the `fleet` / `fleet-shard` CLIs). A pooled mix
//!   ([`ScenarioMix::subject_pool`] > 0) always synthesizes each pool slot
//!   once per [`FleetSimulation`]; the slot's other devices replay it in
//!   every worker and shard run — byte-identical output, hit/miss counters
//!   in the [`PROFILE_CACHE_EVENTS_SERIES`] telemetry series — and the
//!   slot memoizes their runs of the window loop for the simulation's
//!   lifetime ([`RUN_MEMO_EVENTS_SERIES`]),
//! * [`report`] — the aggregation layer: MAE percentiles (p50/p90/p99,
//!   exact nearest-rank with integer-math ranks), per-device energy and
//!   projected battery-life distributions, an offload-fraction histogram and
//!   constraint-violation counts, all serializable via serde. Aggregation is
//!   incremental — [`FleetAccumulator`] folds device reports one at a time,
//!   and [`FleetReport::from_devices`] is that fold over a slice. Both
//!   report modes fold into append-only [`QuantileSketch`]es pinned to fold
//!   position; exact mode's are unbounded and never compact,
//! * [`shard`] / [`merge`](mod@merge) — scale-out: a [`ShardSpec`] cuts the
//!   device-id range into contiguous shards that can run on any process or
//!   host, each producing a serializable [`ShardReport`] artifact;
//!   [`merge::merge`] validates the artifacts and folds them into a
//!   [`FleetReport`]
//!   **byte-identical** to a single-process run, and
//!   [`merge::MergeAccumulator`] does the same incrementally — one artifact
//!   in memory at a time, which is how the `fleet-merge` binary scales to
//!   arbitrarily many shards. The
//!   single-process path itself is "run one shard, then merge", so the
//!   paths can never drift.
//!
//! ## Example
//!
//! ```
//! use fleet::{ExecutorOptions, FleetSimulation, ScenarioMix};
//!
//! let simulation = FleetSimulation::new(42, ScenarioMix::balanced()).unwrap();
//! let run = |threads| {
//!     let options = ExecutorOptions { threads, ..Default::default() };
//!     simulation.run_with_options(16, &options, None).unwrap()
//! };
//! let outcome = run(4);
//! assert_eq!(outcome.report.devices, 16);
//! // Identical regardless of thread count:
//! assert_eq!(outcome.report, run(1).report);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod executor;
pub mod merge;
pub mod progress;
pub mod report;
pub mod scenario;
pub mod shard;
pub mod sketch;
pub mod sync;

pub use error::{FleetError, MergeError};
pub use executor::{
    run_fleet_range, simulate_device, simulate_device_cached, ExecutorOptions,
    PROFILE_CACHE_EVENTS_SERIES, RUN_MEMO_EVENTS_SERIES,
};
pub use merge::{merge, MergeAccumulator};
pub use progress::ProgressSink;
pub use report::{
    DeviceReport, DistributionSummary, FleetAccumulator, FleetReport, ReportMode, SketchInfo,
    SketchedReport, OFFLOAD_HISTOGRAM_BINS,
};
pub use scenario::{DeviceScenario, ScenarioGenerator, ScenarioMix};
pub use shard::{ShardMeta, ShardProvenance, ShardReport, ShardSpec, ENGINE_VERSION};
pub use sketch::{QuantileSketch, DEFAULT_SKETCH_CAPACITY};

use chris_core::{DecisionEngine, Profiler, ProfilingOptions};
use ppg_data::{DatasetBuilder, Synthesis};
use ppg_models::zoo::ModelZoo;
use telemetry::MetricsSnapshot;

/// Result of a fleet run: the aggregate report plus the per-device reports
/// (sorted by device id).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    /// Aggregate fleet statistics.
    pub report: FleetReport,
    /// Per-device results, ordered by device id.
    pub devices: Vec<DeviceReport>,
    /// Workload-deterministic ([`telemetry::Stability::Stable`]) telemetry
    /// folded across all merged shards: windows processed, offload decisions
    /// by backend, model invocations. Identical for any thread count and any
    /// shard partition of the same fleet.
    pub telemetry: MetricsSnapshot,
    /// Sketch accuracy/footprint diagnostics, `Some` iff the run aggregated
    /// in [`ReportMode::Sketch`]: the worst-case rank error of the reported
    /// percentiles, the retained-sample footprint and the compaction count.
    pub sketch: Option<SketchInfo>,
}

/// High-level entry point tying the three layers together.
///
/// Profiles the 60 CHRIS configurations once on a profiling dataset derived
/// from the master seed (the table every smartwatch ships with, as in the
/// paper), then simulates any number of devices against that shared table.
#[derive(Debug)]
pub struct FleetSimulation {
    generator: ScenarioGenerator,
    zoo: ModelZoo,
    engine: DecisionEngine,
    sessions: executor::PoolSessions,
}

impl FleetSimulation {
    /// Number of subjects in the shared profiling dataset.
    pub const PROFILING_SUBJECTS: usize = 2;
    /// Seconds of recording per activity in the shared profiling dataset.
    pub const PROFILING_SECONDS_PER_ACTIVITY: f32 = 24.0;

    /// Creates a simulation for a master seed and a scenario mix.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError`] when profiling the configuration table fails.
    pub fn new(master_seed: u64, mix: ScenarioMix) -> Result<Self, FleetError> {
        let zoo = ModelZoo::paper_setup();
        // The profiling dataset is streamed straight into the profiler:
        // windows are buffered once for the multi-pass table build, but the
        // recordings never materialize. The profiler's oracle classifier and
        // calibrated estimators read labels only, so no signal is
        // synthesized; the table is identical to one profiled on full
        // signals.
        let profiling_stream = DatasetBuilder::new()
            .subjects(Self::PROFILING_SUBJECTS)
            .seconds_per_activity(Self::PROFILING_SECONDS_PER_ACTIVITY)
            .seed(master_seed)
            .synthesis(Synthesis::LabelsOnly)
            .window_stream()?;
        let profiler = Profiler::new(&zoo);
        let table = profiler.profile_all(profiling_stream, ProfilingOptions::default())?;
        let generator = ScenarioGenerator::new(master_seed, mix);
        Ok(Self {
            sessions: executor::PoolSessions::new(&generator),
            generator,
            zoo,
            engine: DecisionEngine::new(table),
        })
    }

    /// The scenario generator backing this simulation.
    pub fn generator(&self) -> &ScenarioGenerator {
        &self.generator
    }

    /// The shared, profiled decision engine every simulated device runs.
    pub fn engine(&self) -> &DecisionEngine {
        &self.engine
    }

    /// The model zoo the shared table was profiled against (and that every
    /// simulated device runs on).
    pub fn zoo(&self) -> &ModelZoo {
        &self.zoo
    }

    /// Simulates `devices` devices with the given [`ExecutorOptions`] and
    /// aggregates the results; an optional [`ProgressSink`] observes each
    /// device, with its window count, as it completes. The outcome
    /// is byte-identical for every option combination, with or without a
    /// sink.
    ///
    /// This *is* the sharded path specialized to one shard: the fleet runs as
    /// a single in-process shard whose [`ShardReport`] is fed through
    /// [`merge::merge`], so single-process and sharded execution share one
    /// code path and cannot drift apart.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError`] when the fleet is empty or any device
    /// simulation fails.
    pub fn run_with_options(
        &self,
        devices: u64,
        options: &ExecutorOptions,
        sink: Option<&dyn ProgressSink>,
    ) -> Result<FleetOutcome, FleetError> {
        if devices == 0 {
            return Err(FleetError::EmptyFleet);
        }
        let spec = ShardSpec::single(devices);
        let shard = self.run_shard_with_options(&spec, 0, options, sink)?;
        merge::merge(vec![shard]).map_err(FleetError::from)
    }

    /// Simulates one shard of a partitioned fleet and returns its
    /// serializable [`ShardReport`] artifact; options and sink as in
    /// [`FleetSimulation::run_with_options`] (the sink is how
    /// `fleet-shard --progress` surfaces per-device progress on very large
    /// device ranges).
    ///
    /// Any shard can run on any process or host: the scenario of each device
    /// is derived purely from `(master seed, device id)`, and the artifact
    /// carries the provenance ([`ShardMeta`]) that [`merge::merge`] later
    /// validates. A shard with an empty device range (possible when
    /// `spec.shards() > spec.devices()`) yields a well-formed artifact with
    /// no device reports.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::ShardIndexOutOfRange`] when
    /// `index >= spec.shards()`, or the underlying error when a device
    /// simulation fails.
    pub fn run_shard_with_options(
        &self,
        spec: &ShardSpec,
        index: u32,
        options: &ExecutorOptions,
        sink: Option<&dyn ProgressSink>,
    ) -> Result<ShardReport, FleetError> {
        let meta = ShardMeta::new(
            spec,
            index,
            self.generator.master_seed(),
            *self.generator.mix(),
            options.report_mode,
        )
        .ok_or_else(|| FleetError::ShardIndexOutOfRange {
            index,
            shards: spec.shards(),
        })?;
        let range = meta.range();
        // The shard's run records into a private registry, so its embedded
        // snapshot covers exactly this run — not whatever else the process
        // did — and concurrent shard runs in one process cannot bleed into
        // each other. The full snapshot (durations, cache counters) is
        // re-absorbed into the caller's active registry afterwards; only the
        // Stable subset is embedded in the byte-stable artifact.
        let run_registry = telemetry::Registry::new();
        // Scenario-free execution: the workers derive each device's scenario
        // on demand from (generator, id), so no `Vec<DeviceScenario>` is
        // materialized no matter how large the shard's range is.
        let devices = if range.is_empty() {
            Vec::new()
        } else {
            let _scope = telemetry::scoped(&run_registry);
            run_fleet_range(self, range, options, sink)?
        };
        telemetry::active()
            .absorb(&run_registry.snapshot())
            .expect("run series are self-consistent across registries");
        Ok(ShardReport {
            meta,
            devices,
            telemetry: run_registry.snapshot_stable(),
        })
    }
}
