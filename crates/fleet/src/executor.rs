//! Parallel fleet execution over std scoped threads.
//!
//! Devices are distributed through a shared atomic cursor over fixed-size
//! chunks — a minimal work-stealing queue: fast workers simply claim more
//! chunks. One thread runs the same worker body, inline on the calling
//! thread, so there is a single executor path. Every device simulation is a pure function of its scenario and
//! the shared (read-only) zoo + decision engine, and results are merged in
//! device order afterwards, so the output is byte-identical for any thread
//! count and any scheduling interleaving.
//!
//! Workers are *scenario-free*: [`run_fleet_range`] hands each worker only a
//! [`FleetSimulation`] and a device-id range, and the worker derives each
//! [`DeviceScenario`] on demand as it claims ids — one scenario alive per
//! worker, never a materialized `Vec<DeviceScenario>` (asserted by
//! [`metrics::peak_live_scenarios`] in `tests/scenario_free.rs`). A
//! billion-device shard therefore costs O(threads) scenario memory.
//!
//! The executor is the per-process layer of the scale-out story: both the
//! single-process path ([`crate::FleetSimulation::run_with_options`]) and
//! every `fleet-shard` worker drive their device range through
//! [`run_fleet_range`], so a sharded fleet and a single-process fleet execute
//! identical per-device work — only the partitioning and the final
//! [`crate::merge::merge`] differ.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use crate::sync::atomic::{AtomicU64, Ordering};

use chris_core::runtime::{ChrisRuntime, RuntimeOptions};
use chris_core::DecisionEngine;
use hw_sim::battery::{Battery, HWATCH_BATTERY_VOLTAGE, HWATCH_CONVERTER_EFFICIENCY};
use ppg_data::{drain_shared, BufferWindows, DataError, LabeledWindow, WindowCache, WindowSource};
use ppg_models::zoo::ModelZoo;
use telemetry::Stability;

use crate::error::FleetError;
use crate::progress::ProgressSink;
use crate::report::{DeviceReport, ReportMode};
use crate::scenario::{DeviceScenario, ScenarioMix};
use crate::FleetSimulation;

/// Instrumentation gauges for scenario materialization.
///
/// A facade over the process-global [`telemetry`] registry (the gauges keep
/// their original process-wide semantics, independent of any worker scope) —
/// the `scenario_free` integration test uses them to prove that the
/// generator-backed execution path keeps at most one generated
/// [`DeviceScenario`] alive per worker thread, instead of materializing the
/// whole range up front.
pub mod metrics {
    use std::sync::OnceLock;
    use telemetry::{Gauge, Stability};

    /// Series name of the currently-alive generated-scenario gauge.
    pub const LIVE_SCENARIOS_SERIES: &str = "chris_live_generated_scenarios";

    /// Series name of the generated-scenario high-water-mark gauge.
    pub const PEAK_SCENARIOS_SERIES: &str = "chris_peak_live_scenarios";

    fn live() -> &'static Gauge {
        static LIVE: OnceLock<Gauge> = OnceLock::new();
        LIVE.get_or_init(|| {
            telemetry::global()
                .gauge(
                    LIVE_SCENARIOS_SERIES,
                    &[],
                    "Generated scenarios currently alive inside executor workers",
                    Stability::Observational,
                )
                .expect("scenario gauge registration cannot fail")
        })
    }

    fn peak() -> &'static Gauge {
        static PEAK: OnceLock<Gauge> = OnceLock::new();
        PEAK.get_or_init(|| {
            telemetry::global()
                .gauge(
                    PEAK_SCENARIOS_SERIES,
                    &[],
                    "High-water mark of live generated scenarios since the last reset",
                    Stability::Observational,
                )
                .expect("scenario gauge registration cannot fail")
        })
    }

    /// Generated scenarios currently alive inside executor workers.
    pub fn live_generated_scenarios() -> usize {
        usize::try_from(live().value()).unwrap_or(0)
    }

    /// High-water mark of [`live_generated_scenarios`] since the last
    /// [`reset_peak`].
    pub fn peak_live_scenarios() -> usize {
        usize::try_from(peak().value()).unwrap_or(0)
    }

    /// Resets the peak gauge (the live gauge is self-balancing).
    pub fn reset_peak() {
        peak().set(live().value());
    }

    /// RAII guard accounting one generated scenario's lifetime.
    pub(crate) struct GeneratedScenario;

    impl GeneratedScenario {
        pub(crate) fn track() -> Self {
            let gauge = live();
            gauge.add(1);
            peak().set_max(gauge.value());
            Self
        }
    }

    impl Drop for GeneratedScenario {
        fn drop(&mut self) {
            live().sub(1);
        }
    }
}

/// Upper bound on the projected battery life, in hours (≈11 years). Keeps
/// the distribution finite for pathological near-zero average power.
pub const BATTERY_LIFE_CAP_HOURS: f64 = 100_000.0;

/// Most pool slots a simulation holds sessions for; devices of higher slots
/// stream directly, so a custom pool cannot pin unbounded memory.
const MAX_POOL_SLOTS: u64 = 256;

/// Devices claimed per queue pop. Larger chunks amortize contention,
/// smaller chunks balance better when device workloads differ.
const CHUNK_SIZE: u64 = 8;

/// Knobs of the parallel executor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutorOptions {
    /// Worker thread count; `0` means one worker per available core.
    pub threads: usize,
    /// No effect on the run: a pooled mix always replays its pool slots
    /// (see [`run_fleet_range`]). Kept only because the frozen benchmark
    /// harness reads it as a [`WindowCache`] capacity; delete with the next
    /// change allowed to touch the benchmark.
    pub profile_cache: Option<usize>,
    /// How the run's device reports are aggregated:
    /// [`ReportMode::Exact`] keeps every per-device sample (O(devices)
    /// memory), [`ReportMode::Sketch`] folds them into mergeable
    /// [`crate::QuantileSketch`]es with a surfaced worst-case rank-error
    /// bound (O(log devices) memory). The mode is stamped into
    /// [`crate::ShardMeta`], so artifact sets cannot silently mix modes.
    pub report_mode: ReportMode,
}

impl ExecutorOptions {
    fn effective_threads(&self, devices: usize) -> usize {
        let requested = if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            self.threads
        };
        requested.clamp(1, devices.max(1))
    }
}

/// Simulates one device: streams its windows straight out of the synthesizer
/// into CHRIS under the device's constraint and schedule, and projects
/// battery life.
///
/// Each call owns a fresh [`ChrisRuntime`] built from clones of the shared
/// zoo and engine, which is what lets workers run devices concurrently
/// without sharing mutable state. The session is never materialized: the
/// runtime pulls windows one at a time from
/// [`DeviceScenario::window_stream`], so peak per-device memory is one
/// activity segment of labels plus one window instead of the whole session
/// vector (asserted by the `streaming` integration test via
/// [`ppg_data::stream::metrics`]). The windows are labels-only; the report
/// equals one computed from full-signal windows of the same session,
/// because the runtime's oracle classifier and calibrated estimators read
/// only labels.
///
/// # Errors
///
/// Returns [`FleetError::Device`], carrying the device id, when data
/// synthesis, the runtime or the battery model fails for this device.
pub fn simulate_device(
    scenario: &DeviceScenario,
    zoo: &ModelZoo,
    engine: &DecisionEngine,
) -> Result<DeviceReport, FleetError> {
    simulate(scenario, zoo, engine, None, scenario.window_stream())
}

/// [`simulate_device`] with a [`WindowCache`]: the device's windows come
/// through [`DeviceScenario::cached_window_stream`], so a cache hit replays
/// an earlier device's synthesized session instead of re-running the
/// synthesizers. The report is byte-identical to the uncached path.
///
/// # Errors
///
/// Same conditions as [`simulate_device`].
pub fn simulate_device_cached(
    scenario: &DeviceScenario,
    zoo: &ModelZoo,
    engine: &DecisionEngine,
    cache: &mut WindowCache,
    sink: Option<&dyn ProgressSink>,
) -> Result<DeviceReport, FleetError> {
    let stream = scenario.cached_window_stream(cache);
    simulate(scenario, zoo, engine, sink, stream)
}

/// The device-simulation core behind [`simulate_device`],
/// [`simulate_device_cached`] and the executor's workers, on the device's
/// opened session `stream`.
fn simulate<S: WindowSource>(
    scenario: &DeviceScenario,
    zoo: &ModelZoo,
    engine: &DecisionEngine,
    sink: Option<&dyn ProgressSink>,
    stream: Result<S, DataError>,
) -> Result<DeviceReport, FleetError> {
    let for_device = |e: FleetError| FleetError::for_device(scenario.device_id, e);
    let stream = stream.map_err(|e| for_device(e.into()))?;
    let options = RuntimeOptions {
        accounting: scenario.accounting,
        seed: scenario.dataset_seed,
        ..RuntimeOptions::default()
    };
    let mut runtime = ChrisRuntime::new(zoo.clone(), engine.clone(), options);
    // The device report reads only scalars: the totals skip the run
    // report's label-keyed maps.
    let run = runtime
        .run_totals(stream, &scenario.constraint, &scenario.schedule)
        .map_err(|e| for_device(e.into()))?;
    if let Some(sink) = sink {
        sink.device_completed(scenario.device_id, run.windows);
    }

    let battery = Battery::new(
        scenario.battery_capacity_mah,
        HWATCH_BATTERY_VOLTAGE,
        HWATCH_CONVERTER_EFFICIENCY,
    )
    .map_err(|e| for_device(e.into()))?;
    let battery_life_hours =
        (battery.lifetime(run.avg_watch_power()).as_seconds() / 3600.0).min(BATTERY_LIFE_CAP_HOURS);

    let constraint_violated = match scenario.constraint {
        chris_core::UserConstraint::MaxMae(target) => run.mae_bpm > target,
        chris_core::UserConstraint::MaxEnergy(budget) => run.avg_watch_energy > budget,
    };

    Ok(DeviceReport {
        device_id: scenario.device_id,
        windows: run.windows,
        mae_bpm: run.mae_bpm,
        avg_watch_energy: run.avg_watch_energy,
        avg_phone_energy: run.avg_phone_energy,
        offload_fraction: run.offload_fraction,
        simple_fraction: run.simple_fraction,
        disconnected_fraction: run.disconnected_fraction,
        battery_life_hours,
        constraint: scenario.constraint,
        accounting: scenario.accounting,
        constraint_violated,
    })
}

/// Runs the devices of a contiguous id range and returns their reports in
/// device-id order, deriving each scenario on demand inside the claiming
/// worker — the scenario-free path.
///
/// No `Vec<DeviceScenario>` is ever built: peak *scenario* memory is one
/// scenario per worker thread regardless of the range size. Nothing is
/// allocated up front in proportion to the range either: result vectors
/// grow as devices finish, so a huge range that is cancelled early costs
/// only what it ran. (The returned `Vec<DeviceReport>` is still O(range) —
/// partition huge fleets into shards sized to what one process can report
/// on.) An optional [`ProgressSink`] observes each device, with its window
/// count, as it completes, and may cancel the run between devices;
/// attaching one never changes the results, which are byte-identical for
/// any thread count.
///
/// Every thread count runs the same worker body — at one thread inline on
/// the calling thread, otherwise on scoped threads over a shared chunk
/// cursor. Each worker records telemetry into its own private
/// [`telemetry::Registry`] (lock-free, no cross-thread contention) and folds
/// its snapshot into the registry that was active when the run started, at
/// exit. Counter/histogram merging is commutative, so the totals are
/// identical for any interleaving.
///
/// A pooled mix ([`ScenarioMix::subject_pool`] > 0) always replays: each of
/// the first 256 pool slots of `simulation` is synthesized once over all its
/// runs and replayed by the slot's other devices, byte-identical to
/// streaming. Such a run publishes [`PROFILE_CACHE_EVENTS_SERIES`], whose
/// misses count the slots filled plus the devices of higher slots (they
/// stream directly); a pool-less mix streams and records no cache series.
///
/// # Errors
///
/// Returns [`FleetError::EmptyFleet`] for an empty (or inverted) range and
/// [`FleetError::Cancelled`] when the sink cancels the run; when multiple
/// devices fail, the error of the lowest device id is returned
/// (deterministic for any thread count: a worker stops claiming after its
/// own first failure, and chunks are claimed in increasing id order, so
/// every lower id has been claimed by a worker that runs it).
pub fn run_fleet_range(
    simulation: &FleetSimulation,
    range: Range<u64>,
    options: &ExecutorOptions,
    sink: Option<&dyn ProgressSink>,
) -> Result<Vec<DeviceReport>, FleetError> {
    // An inverted range is empty (Rust `Range` convention), not an underflow.
    let count = range.end.saturating_sub(range.start);
    if count == 0 {
        return Err(FleetError::EmptyFleet);
    }
    let threads = options.effective_threads(usize::try_from(count).unwrap_or(usize::MAX));
    let active = telemetry::active();
    let pooled = simulation.generator().mix().subject_pool > 0;
    if pooled {
        // Eager registration: a run whose slots never hit still exposes
        // zero-valued hit/miss series.
        cache_event_counter(&active, "hit");
        cache_event_counter(&active, "miss");
    }
    let cursor = AtomicU64::new(0);
    let worker = || {
        // One registry and one set of cache counts per worker: counters
        // merge once at worker exit.
        let registry = telemetry::Registry::new();
        let _scope = telemetry::scoped(&registry);
        let mut events = CacheEvents::default();
        let mut local = Vec::new();
        // Compare-exchange claims instead of `fetch_add`: the cursor never
        // moves past `count`, so id ranges near `u64::MAX` cannot overflow
        // it.
        'claims: while let Some(claimed) = claim_chunk(&cursor, count, CHUNK_SIZE) {
            for index in claimed {
                // Polled between devices, so cancellation lands on a device
                // boundary.
                if sink.is_some_and(ProgressSink::should_cancel) {
                    break 'claims;
                }
                let result = simulate_in(simulation, range.start + index, sink, &mut events);
                let failed = result.is_err();
                local.push((index, result));
                if failed {
                    break 'claims;
                }
            }
        }
        if pooled {
            cache_event_counter(&registry, "hit").add(events.hits);
            cache_event_counter(&registry, "miss").add(events.misses);
        }
        active
            .absorb(&registry.snapshot())
            .expect("worker series are self-consistent across registries");
        local
    };
    let locals: Vec<Vec<(u64, Result<DeviceReport, FleetError>)>> = if threads == 1 {
        vec![worker()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
            handles
                .into_iter()
                .map(|handle| {
                    handle
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        })
    };

    let mut merged = Vec::with_capacity(locals.iter().map(Vec::len).sum());
    for local in locals {
        merged.extend(local);
    }
    merged.sort_by_key(|&(index, _)| index);
    let reports = merged
        .into_iter()
        .map(|(_, result)| result)
        .collect::<Result<Vec<_>, _>>()?;
    // Workers stopped claiming before the cursor was exhausted without any
    // device failing — the sink requested cancellation. A failure observed
    // before the cancellation point wins above, so a real error is never
    // masked as a mere cancellation.
    if (reports.len() as u64) < count {
        return Err(FleetError::Cancelled);
    }
    Ok(reports)
}

/// Derives and simulates device `device_id` of `simulation` for the
/// executor, tracking the generated scenario's lifetime so tests can assert
/// the scenario-free memory bound. The device replays its pool slot's
/// session when it has one, counting the lookup in `events`.
fn simulate_in(
    simulation: &FleetSimulation,
    device_id: u64,
    sink: Option<&dyn ProgressSink>,
    events: &mut CacheEvents,
) -> Result<DeviceReport, FleetError> {
    let scenario = simulation.generator().scenario(device_id);
    let _live = metrics::GeneratedScenario::track();
    let pool = simulation.generator().mix().subject_pool;
    let session = simulation.sessions.session(pool, &scenario, events);
    let (zoo, engine) = (simulation.zoo(), simulation.engine());
    match session {
        Some(s) => simulate(&scenario, zoo, engine, sink, Ok(BufferWindows::new(s))),
        None => simulate(&scenario, zoo, engine, sink, scenario.window_stream()),
    }
}

/// Series name of the profiling-window cache event counter (labelled by
/// `result`: `"hit"` or `"miss"`).
pub const PROFILE_CACHE_EVENTS_SERIES: &str = "chris_profile_cache_events_total";

/// Resolves (registering if needed) one cache-event counter on `registry`.
///
/// Which shard run fills a pool slot depends on scheduling, so the series is
/// [`Observational`](Stability::Observational): visible in exposition,
/// never embedded in byte-stable shard artifacts.
fn cache_event_counter(registry: &telemetry::Registry, result: &str) -> telemetry::Counter {
    registry
        .counter(
            PROFILE_CACHE_EVENTS_SERIES,
            &[("result", result)],
            "Profiling-window cache lookups, by result (hit replays a memoized stream)",
            Stability::Observational,
        )
        .expect("cache counter registration cannot fail")
}

/// One worker's profile-cache lookups, published once when it exits.
#[derive(Default)]
struct CacheEvents {
    hits: u64,
    misses: u64,
}

/// One simulation's labels-only pool sessions: device `id` of a pooled mix
/// has the [`DeviceScenario::window_cache_key`] of slot `id % subject_pool`,
/// so the first worker to reach a slot fills it, and every other device of
/// the slot, in any worker and shard run, replays it. Pool-less mixes get none.
#[derive(Debug, Clone)]
pub(crate) struct PoolSessions {
    slots: Box<[PoolSlot]>,
}

/// One pool slot: its session once filled, `None` if the fill failed.
type PoolSlot = OnceLock<Option<Arc<[LabeledWindow]>>>;

impl PoolSessions {
    pub(crate) fn new(mix: &ScenarioMix) -> Self {
        let count = mix.subject_pool.min(MAX_POOL_SLOTS);
        let slots = (0..count).map(|_| OnceLock::new()).collect();
        Self { slots }
    }

    /// The session of `scenario`'s slot in a `pool`-slot mix, filled on
    /// first use, lookup counted in `events`. `None` (a miss) when the
    /// device has no slot or the fill failed: it then streams directly,
    /// reporting any synthesis error exactly as [`simulate_device`] does.
    fn session(
        &self,
        pool: u64,
        scenario: &DeviceScenario,
        events: &mut CacheEvents,
    ) -> Option<Arc<[LabeledWindow]>> {
        let slot = scenario
            .device_id
            .checked_rem(pool)
            .and_then(|slot| self.slots.get(usize::try_from(slot).ok()?));
        let mut filled = false;
        let session = slot.and_then(|slot| {
            slot.get_or_init(|| {
                filled = true;
                scenario.window_stream().and_then(drain_shared).ok()
            })
            .clone()
        });
        if session.is_some() && !filled {
            events.hits += 1;
        } else {
            events.misses += 1;
        }
        session
    }
}

/// Claims the next chunk of work-item indices, or `None` when the supply is
/// exhausted.
///
/// Invariant (exhaustively model-checked in
/// `fleet/tests/interleave_harness.rs::executor_cursor_*`): across any set
/// of concurrently claiming workers, the returned ranges exactly tile
/// `0..count` — disjoint, gap-free, and never past `count` — even with all
/// orderings Relaxed and spurious `compare_exchange_weak` failures. Public
/// so the interleaving harness drives the exact production code path.
pub fn claim_chunk(cursor: &AtomicU64, count: u64, chunk: u64) -> Option<Range<u64>> {
    // relaxed: advisory first read; the CAS below is what claims.
    let mut start = cursor.load(Ordering::Relaxed);
    loop {
        if start >= count {
            return None;
        }
        let end = start.saturating_add(chunk).min(count);
        // relaxed: the CAS only partitions the index space — ranges are
        // disjoint by RMW atomicity alone. Work items are read-only shared
        // state published before the workers were spawned, and results flow
        // back through channel/join edges, so no payload rides this cursor.
        match cursor.compare_exchange_weak(start, end, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return Some(start..end),
            Err(observed) => start = observed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioMix;

    fn simulation(seed: u64, mix: ScenarioMix) -> FleetSimulation {
        FleetSimulation::new(seed, mix).unwrap()
    }

    #[test]
    fn parallel_and_sequential_results_are_identical() {
        let simulation = simulation(9, ScenarioMix::balanced());
        let (generator, zoo, engine) = (
            simulation.generator(),
            simulation.zoo(),
            simulation.engine(),
        );
        // One chunk per worker, so all 4 workers can claim work.
        let devices = 4 * CHUNK_SIZE;
        let run = |threads| {
            let options = ExecutorOptions {
                threads,
                ..ExecutorOptions::default()
            };
            run_fleet_range(&simulation, 3..3 + devices, &options, None).unwrap()
        };
        let sequential = run(1);
        assert_eq!(sequential, run(4));
        assert_eq!(sequential.len() as u64, devices);
        // The executor adds nothing to the per-device simulation: each
        // report is exactly what `simulate_device` returns for that id.
        for (offset, report) in sequential.iter().enumerate() {
            let id = 3 + offset as u64;
            assert_eq!(report.device_id, id);
            assert!(report.windows > 0);
            assert_eq!(
                *report,
                simulate_device(&generator.scenario(id), zoo, engine).unwrap()
            );
        }
    }

    #[test]
    fn empty_range_is_rejected() {
        let simulation = simulation(9, ScenarioMix::balanced());
        let options = ExecutorOptions::default();
        assert!(matches!(
            run_fleet_range(&simulation, 5..5, &options, None),
            Err(FleetError::EmptyFleet)
        ));
        // An inverted range is empty by Rust convention — EmptyFleet, not a
        // subtraction underflow.
        #[allow(clippy::reversed_empty_ranges)]
        let inverted = 5..3;
        assert!(matches!(
            run_fleet_range(&simulation, inverted, &options, None),
            Err(FleetError::EmptyFleet)
        ));
    }

    #[test]
    fn chunk_claims_tile_the_supply_without_overflow() {
        let cursor = AtomicU64::new(0);
        let mut seen = Vec::new();
        while let Some(range) = claim_chunk(&cursor, 10, 4) {
            seen.push(range);
        }
        assert_eq!(seen, vec![0..4, 4..8, 8..10]);
        assert!(claim_chunk(&cursor, 10, 4).is_none());

        // A cursor near u64::MAX saturates instead of wrapping.
        let cursor = AtomicU64::new(u64::MAX - 3);
        assert_eq!(
            claim_chunk(&cursor, u64::MAX, 8),
            Some(u64::MAX - 3..u64::MAX)
        );
        assert!(claim_chunk(&cursor, u64::MAX, 8).is_none());
    }

    /// Sink that requests cancellation once `after` devices completed.
    struct CancelAfter {
        after: usize,
        completed: std::sync::atomic::AtomicUsize,
    }

    impl CancelAfter {
        fn new(after: usize) -> Self {
            Self {
                after,
                completed: std::sync::atomic::AtomicUsize::new(0),
            }
        }

        fn completed(&self) -> usize {
            // relaxed: read after the executor returned (workers joined).
            self.completed.load(Ordering::Relaxed)
        }
    }

    impl ProgressSink for CancelAfter {
        fn device_completed(&self, _device_id: u64, _windows: usize) {
            // relaxed: cross-thread test counter; the assertions read it
            // after the executor joined its workers.
            self.completed.fetch_add(1, Ordering::Relaxed);
        }

        fn should_cancel(&self) -> bool {
            // relaxed: a stale count only delays cancellation by one poll —
            // exactly what the tests' tolerance ranges allow.
            self.completed.load(Ordering::Relaxed) >= self.after
        }
    }

    #[test]
    fn cancellation_aborts_at_a_device_boundary() {
        let simulation = simulation(9, ScenarioMix::balanced());
        // One chunk per worker, so all 4 workers can be mid-chunk when the
        // cancellation request lands.
        let devices = 4 * CHUNK_SIZE;
        let run = |threads, sink: &CancelAfter| {
            let options = ExecutorOptions {
                threads,
                ..ExecutorOptions::default()
            };
            run_fleet_range(&simulation, 0..devices, &options, Some(sink))
        };
        // Inline (one thread) and on scoped threads, the worker body honors
        // the hook: every worker re-polls before each device of its chunk,
        // so at most `threads` devices complete after the request.
        for threads in [1usize, 4] {
            let sink = CancelAfter::new(2);
            let result = run(threads, &sink);
            assert!(
                matches!(result, Err(FleetError::Cancelled)),
                "threads={threads}: expected Cancelled, got {result:?}"
            );
            let completed = sink.completed();
            assert!(
                (2..devices as usize).contains(&completed),
                "threads={threads}: cancellation should stop the run partway, \
                 completed={completed}"
            );
        }

        // A sink that cancels immediately aborts before any device runs.
        let sink = CancelAfter::new(0);
        assert!(matches!(run(0, &sink), Err(FleetError::Cancelled)));
        assert_eq!(sink.completed(), 0);
    }

    #[test]
    fn huge_ranges_allocate_nothing_up_front() {
        // A slot per device of `1 << 62` would overflow `Vec` capacity; a
        // cancelled run must cost only the devices it ran.
        let simulation = simulation(9, ScenarioMix::balanced());
        let options = ExecutorOptions {
            threads: 2,
            ..ExecutorOptions::default()
        };
        let sink = CancelAfter::new(1);
        let result = run_fleet_range(&simulation, 0..1 << 62, &options, Some(&sink));
        assert!(
            matches!(result, Err(FleetError::Cancelled)),
            "expected Cancelled, got {result:?}"
        );
        assert!((1..=2).contains(&sink.completed()));
    }

    #[test]
    fn battery_failure_reports_the_device_id() {
        let simulation = simulation(2, ScenarioMix::balanced());
        let mut scenario = simulation.generator().scenario(41);
        scenario.battery_capacity_mah = 0.0;
        let err = simulate_device(&scenario, simulation.zoo(), simulation.engine()).unwrap_err();
        assert!(
            matches!(err, FleetError::Device { device_id: 41, .. }),
            "expected a device-tagged error, got {err:?}"
        );
        assert!(err.to_string().contains("device 41"));
    }

    #[test]
    fn offline_devices_never_offload() {
        let simulation = simulation(21, ScenarioMix::harsh());
        let scenarios: Vec<_> = (0..200)
            .map(|id| simulation.generator().scenario(id))
            .filter(|s| s.schedule == hw_sim::ble::ConnectionSchedule::NeverConnected)
            .take(3)
            .collect();
        assert!(
            !scenarios.is_empty(),
            "harsh mix should produce offline devices"
        );
        for scenario in &scenarios {
            let report = simulate_device(scenario, simulation.zoo(), simulation.engine()).unwrap();
            assert_eq!(report.offload_fraction, 0.0);
            assert_eq!(report.disconnected_fraction, 1.0);
        }
    }
}
