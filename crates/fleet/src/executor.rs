//! Parallel fleet execution over std scoped threads.
//!
//! Devices are distributed through a shared atomic cursor over fixed-size
//! chunks — a minimal work-stealing queue: fast workers simply claim more
//! chunks. One thread runs the same worker body, inline on the calling
//! thread, so there is a single executor path. Every device simulation is a
//! pure function of its scenario and the shared (read-only) zoo + decision
//! engine, and results are merged in device order afterwards, so the output
//! is byte-identical for any thread count and any scheduling interleaving.
//!
//! Workers are *scenario-free*: [`run_fleet_range`] hands each worker only a
//! [`FleetSimulation`] and a device-id range, and the worker derives each
//! [`DeviceScenario`] on demand as it claims ids — one scenario alive per
//! worker, never a materialized `Vec<DeviceScenario>`, and nothing a device
//! allocates outlives it, except a pooled device's entry in the call's run
//! memo, which is freed when [`run_fleet_range`] returns (both checked with
//! a counting allocator in `tests/scenario_free.rs`). A billion-device shard
//! therefore costs O(threads) scenario memory.
//!
//! The executor is the per-process layer of the scale-out story: both the
//! single-process path ([`crate::FleetSimulation::run_with_options`]) and
//! every `fleet-shard` worker drive their device range through
//! [`run_fleet_range`], so a sharded fleet and a single-process fleet execute
//! identical per-device work — only the partitioning and the final
//! [`crate::merge::merge`] differ.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};

use crate::sync::atomic::{AtomicU64, Ordering};

use chris_core::report::watch_power;
use chris_core::runtime::{ChrisRuntime, RuntimeOptions};
use chris_core::{
    ChrisError, Configuration, DecisionEngine, EnergyAccounting, LinkPlan, RunTotals,
};
use hw_sim::battery::{Battery, HWATCH_BATTERY_VOLTAGE, HWATCH_CONVERTER_EFFICIENCY};
use hw_sim::ble::ConnectionSchedule;
use hw_sim::units::Energy;
use ppg_data::{drain_shared, BufferWindows, DataError, LabeledWindow, WindowCache, WindowSource};
use ppg_models::surrogate::NoiseTape;
use ppg_models::zoo::{ModelKind, ModelZoo};
use telemetry::Stability;

use crate::error::FleetError;
use crate::progress::ProgressSink;
use crate::report::{DeviceReport, ReportMode};
use crate::scenario::{DeviceScenario, ScenarioGenerator, SynthesisProfile};
use crate::FleetSimulation;

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
    /// memory), [`ReportMode::Sketch`] folds them into
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
/// without sharing mutable state. The executor's pooled devices may instead
/// reuse an earlier device's run (see [`run_fleet_range`]); their reports
/// equal this function's. The session is never materialized: the
/// runtime pulls windows one at a time from
/// [`DeviceScenario::window_stream`], so peak per-device memory is one
/// activity segment of labels plus one window instead of the whole session
/// vector (checked with a counting allocator in `tests/no_eager_alloc.rs`).
/// The windows are labels-only; the report equals one computed from
/// full-signal windows of the same session, because the runtime's oracle
/// classifier and calibrated estimators read only labels. The estimators
/// draw every error live: a streaming device has an empty noise tape (see
/// [`run_fleet_range`] for the pool slots' tapes).
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
/// [`simulate_device_cached`] and the executor's streaming devices, on the
/// device's opened session `stream`: plans the device's constraint, then
/// runs the plan. A stream that failed to open wins over an invalid
/// constraint.
fn simulate<S: WindowSource>(
    scenario: &DeviceScenario,
    zoo: &ModelZoo,
    engine: &DecisionEngine,
    sink: Option<&dyn ProgressSink>,
    stream: Result<S, DataError>,
) -> Result<DeviceReport, FleetError> {
    let for_device = |e: FleetError| FleetError::for_device(scenario.device_id, e);
    let stream = stream.map_err(|e| for_device(e.into()))?;
    let tape = NoiseTape::empty(scenario.dataset_seed);
    let run = engine
        .plan(&scenario.constraint)
        .and_then(|plan| run_device(scenario, zoo, engine, &plan, stream, &tape))
        .map_err(|e| for_device(e.into()))?;
    finish(scenario, sink, &run)
}

/// Runs `plan` over `windows` under `scenario`'s schedule and accounting,
/// with estimators seeded by its dataset seed that replay `tape`, a
/// recording of that seed's error sequence (see
/// [`ChrisRuntime::with_noise_tape`]): a pool slot's tape covers its whole
/// session, and a streaming device's is empty, so it draws every error live.
///
/// Each call owns a fresh [`ChrisRuntime`] built from clones of the shared
/// zoo and engine, so workers run devices concurrently without sharing
/// mutable state; the tape is shared read-only.
fn run_device<S: WindowSource>(
    scenario: &DeviceScenario,
    zoo: &ModelZoo,
    engine: &DecisionEngine,
    plan: &LinkPlan,
    windows: S,
    tape: &NoiseTape,
) -> Result<DeviceRun, ChrisError> {
    let options = RuntimeOptions {
        accounting: scenario.accounting,
        seed: scenario.dataset_seed,
        ..RuntimeOptions::default()
    };
    let mut runtime = ChrisRuntime::with_noise_tape(zoo.clone(), engine.clone(), options, tape);
    runtime
        .run_totals(windows, plan, &scenario.schedule)
        .map(|totals| DeviceRun::from(&totals))
}

/// Builds `scenario`'s report from its `run`: reports the device to `sink`,
/// projects battery life and checks the constraint. Shared by every path,
/// so a memoized run and a fresh one give the same report.
fn finish(
    scenario: &DeviceScenario,
    sink: Option<&dyn ProgressSink>,
    run: &DeviceRun,
) -> Result<DeviceReport, FleetError> {
    if let Some(sink) = sink {
        sink.device_completed(scenario.device_id, run.windows);
    }

    let battery = Battery::new(
        scenario.battery_capacity_mah,
        HWATCH_BATTERY_VOLTAGE,
        HWATCH_CONVERTER_EFFICIENCY,
    )
    .map_err(|e| FleetError::for_device(scenario.device_id, e.into()))?;
    let battery_life_hours = (battery
        .lifetime(watch_power(run.avg_watch_energy))
        .as_seconds()
        / 3600.0)
        .min(BATTERY_LIFE_CAP_HOURS);

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

/// What a device report reads of a run, plus the counts the run published:
/// the memo's value, 72 bytes where a [`RunTotals`] takes about 500.
#[derive(Debug, Clone, Copy)]
struct DeviceRun {
    windows: usize,
    offloaded: usize,
    avg_watch_energy: Energy,
    avg_phone_energy: Energy,
    /// Predictions per model, indexed by [`ModelKind::index`].
    invocations: [u64; ModelKind::ALL.len()],
    mae_bpm: f32,
    offload_fraction: f32,
    simple_fraction: f32,
    disconnected_fraction: f32,
}

impl From<&RunTotals> for DeviceRun {
    fn from(totals: &RunTotals) -> Self {
        Self {
            windows: totals.windows,
            offloaded: totals.offloaded,
            avg_watch_energy: totals.avg_watch_energy,
            avg_phone_energy: totals.avg_phone_energy,
            invocations: totals.invocations,
            mae_bpm: totals.mae_bpm,
            offload_fraction: totals.offload_fraction,
            simple_fraction: totals.simple_fraction,
            disconnected_fraction: totals.disconnected_fraction,
        }
    }
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
/// A pooled mix ([`crate::ScenarioMix::subject_pool`] > 0) always replays:
/// each of the first 256 pool slots of `simulation` holds its devices'
/// synthesis profile, drawn when the simulation was built, so a device's
/// scenario derivation takes the profile from the slot instead of drawing
/// it again. The slot's session is synthesized once over all its runs,
/// together with a noise tape of the slot's dataset seed as long as the
/// session, and the slot's devices replay both: the window loop's
/// estimators read their errors off the tape instead of drawing them. All
/// of it is byte-identical to streaming. Such a run publishes
/// [`PROFILE_CACHE_EVENTS_SERIES`], whose misses count the slots filled
/// plus the devices of higher slots (they derive and stream directly, with
/// live errors); a pool-less mix streams and records no cache series.
///
/// A replaying device's run is also memoized, for the duration of this call:
/// each device is planned once ([`DecisionEngine::plan`]), and the first
/// device with a given run key — pool slot, link schedule, energy
/// accounting and its plan's configurations masked to the link statuses
/// the schedule reaches within the slot's windows
/// ([`ConnectionSchedule::reaches`]) — runs the window loop on that plan,
/// and every later device with that key, in any worker, rebuilds its report
/// from the stored result. The worker adds each reused run's Stable counts
/// to a tally that it publishes once, when it exits, through
/// [`chris_core::metrics::record_run`]. Reports, Stable telemetry and
/// returned errors are those of running every device;
/// `chris_stage_duration_ns{stage="runtime"}` counts loop runs only. A
/// device whose plan fails, or whose plan failed for a reachable status,
/// counts as a miss and gets no key: the latter runs unmemoized, so the
/// runtime raises the error itself. The memo keeps one map per pool slot,
/// so a lookup searches and locks only its slot's keys. It holds one entry
/// per distinct key, a count the mix bounds (slots, schedules, accounting
/// modes and the engine's configurations are all finite) whatever the
/// device count, and is dropped when the call returns.
/// Such a run publishes [`RUN_MEMO_EVENTS_SERIES`]: a miss per device that
/// ran the loop (those of higher slots included), a hit per reuse, so a
/// successful run counts the same at any thread count.
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
        PoolEvents::default().publish(&active);
    }
    let cursor = AtomicU64::new(0);
    let memo = RunMemo::new(simulation.sessions.len());
    let worker = || {
        // One registry and one set of pool counts per worker: counters
        // merge once at worker exit.
        let registry = telemetry::Registry::new();
        let _scope = telemetry::scoped(&registry);
        let mut events = PoolEvents::default();
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
                let result = simulate_in(simulation, range.start + index, sink, &memo, &mut events);
                let failed = result.is_err();
                local.push((index, result));
                if failed {
                    break 'claims;
                }
            }
        }
        if pooled {
            events.reused.publish();
            events.publish(&registry);
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
/// executor; the scenario is dropped when the device completes. A device
/// with a pool slot takes its synthesis profile from the slot and replays
/// the slot's session and noise tape through `memo`; every other device
/// streams, a memo miss. Pool lookups are counted in `events`.
fn simulate_in(
    simulation: &FleetSimulation,
    device_id: u64,
    sink: Option<&dyn ProgressSink>,
    memo: &RunMemo,
    events: &mut PoolEvents,
) -> Result<DeviceReport, FleetError> {
    let (zoo, engine) = (simulation.zoo(), simulation.engine());
    let (scenario, session) =
        simulation
            .sessions
            .scenario(simulation.generator(), device_id, &mut events.cache);
    let Some((slot, session)) = session else {
        events.memo.misses += 1;
        return simulate(&scenario, zoo, engine, sink, scenario.window_stream());
    };
    let run = match engine.plan(&scenario.constraint) {
        Ok(plan) => {
            let windows = &*session.windows;
            let key = RunKey::new(&scenario, &plan, windows.len());
            memo.run(slot, key, events, || {
                let windows = BufferWindows::new(windows);
                run_device(&scenario, zoo, engine, &plan, windows, &session.tape)
            })
        }
        Err(e) => {
            events.memo.misses += 1;
            Err(e)
        }
    };
    let run = run.map_err(|e| FleetError::for_device(device_id, e.into()))?;
    finish(&scenario, sink, &run)
}

/// Series name of the profiling-window cache event counter (labelled by
/// `result`: `"hit"` or `"miss"`).
pub const PROFILE_CACHE_EVENTS_SERIES: &str = "chris_profile_cache_events_total";

/// Series name of the run-memo event counter (labelled by `result`:
/// `"hit"` for a pooled device that reused a memoized run, `"miss"` for one
/// that ran the window loop).
pub const RUN_MEMO_EVENTS_SERIES: &str = "chris_run_memo_events_total";

/// Hit and miss counts of one kind of lookup.
#[derive(Default)]
struct Events {
    hits: u64,
    misses: u64,
}

/// One worker's pool-slot and run-memo lookups and the runs it reused,
/// published once when it exits.
#[derive(Default)]
struct PoolEvents {
    cache: Events,
    memo: Events,
    reused: ReusedRuns,
}

/// The Stable counts of the memoized runs one worker reused, summed.
#[derive(Default)]
struct ReusedRuns {
    windows: usize,
    offloaded: usize,
    /// Indexed by [`ModelKind::index`].
    invocations: [u64; ModelKind::ALL.len()],
}

impl ReusedRuns {
    fn add(&mut self, run: &DeviceRun) {
        self.windows += run.windows;
        self.offloaded += run.offloaded;
        for (sum, count) in self.invocations.iter_mut().zip(run.invocations) {
            *sum += count;
        }
    }

    /// Publishes the sums into the thread's active registry in one
    /// [`chris_core::metrics::record_run`], so the Stable series read as if
    /// each reused run had repeated. A worker that reused no run publishes
    /// nothing, as a worker that ran no loop registers no run series (a
    /// successful run has at least one window).
    fn publish(&self) {
        if self.windows > 0 {
            chris_core::metrics::record_run(self.windows, self.offloaded, self.invocations);
        }
    }
}

impl PoolEvents {
    /// Adds the counts to `registry`'s event counters, registering them if
    /// needed.
    ///
    /// Which worker or shard run fills a slot depends on scheduling, so the
    /// series are [`Observational`](Stability::Observational): visible in
    /// exposition, never embedded in byte-stable shard artifacts.
    fn publish(&self, registry: &telemetry::Registry) {
        let series = [
            (
                PROFILE_CACHE_EVENTS_SERIES,
                "Profiling-window cache lookups, by result (hit replays a memoized stream)",
                &self.cache,
            ),
            (
                RUN_MEMO_EVENTS_SERIES,
                "Pooled device runs, by result (hit reuses a memoized run of the window loop)",
                &self.memo,
            ),
        ];
        for (name, help, events) in series {
            for (result, count) in [("hit", events.hits), ("miss", events.misses)] {
                registry
                    .counter(name, &[("result", result)], help, Stability::Observational)
                    .expect("event counter registration cannot fail")
                    .add(count);
            }
        }
    }
}

/// Everything a pooled device's run depends on besides the simulation's
/// zoo and engine and its pool slot (which fixes the session and the
/// estimator seed, and picks the memo's map): the constraint matters only
/// through the configurations it selects.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct RunKey {
    schedule: ConnectionSchedule,
    accounting: EnergyAccounting,
    /// The device's [`LinkPlan`] masked by [`ConnectionSchedule::reaches`]:
    /// the configuration for each link status (index 0 connected, 1
    /// disconnected) the schedule reaches; `None` for a status it never
    /// reaches, so devices that differ only there share a run.
    selections: [Option<Configuration>; 2],
}

impl RunKey {
    /// The key of `scenario`'s run of `plan` over its slot's
    /// `windows`-window session. `None` when a reachable status's selection
    /// failed: such a device runs unmemoized, so the runtime reports the
    /// error in its own order.
    fn new(scenario: &DeviceScenario, plan: &LinkPlan, windows: usize) -> Option<Self> {
        let selections = plan.masked(scenario.schedule.reaches(windows)).ok()?;
        Some(Self {
            schedule: scenario.schedule.clone(),
            accounting: scenario.accounting,
            selections,
        })
    }
}

/// One memoized run: filled once by the first device with its key, then
/// read by every later one. An error is stored as the runtime returned it
/// and tagged with each reading device's id.
type MemoCell = OnceLock<Result<DeviceRun, ChrisError>>;

/// One pool slot's memoized runs, by key.
type SlotMemo = Mutex<BTreeMap<RunKey, Arc<MemoCell>>>;

/// The run memo of one [`run_fleet_range`] call, shared by its workers:
/// one map per pool slot, each behind its own lock.
///
/// A lock is held only to get or insert a key's cell; the run fills the
/// cell outside it, so a worker waits only on a run of its own key, and
/// workers on different slots never contend.
struct RunMemo {
    /// Indexed by pool slot.
    slots: Box<[SlotMemo]>,
}

impl RunMemo {
    /// An empty memo for `slots` pool slots.
    fn new(slots: usize) -> Self {
        Self {
            slots: (0..slots).map(|_| Mutex::default()).collect(),
        }
    }

    /// The result of the run keyed `key` in pool slot `slot`: computed by
    /// `run` for the first device with the key (and for every device
    /// without one), otherwise reused, its Stable counts added to
    /// `events.reused`. Counted in `events.memo`.
    fn run(
        &self,
        slot: usize,
        key: Option<RunKey>,
        events: &mut PoolEvents,
        run: impl FnOnce() -> Result<DeviceRun, ChrisError>,
    ) -> Result<DeviceRun, ChrisError> {
        let Some(key) = key else {
            events.memo.misses += 1;
            return run();
        };
        let cell = Arc::clone(
            self.slots[slot]
                .lock()
                .expect("the memo lock is held only to insert a cell, which cannot panic")
                .entry(key)
                .or_default(),
        );
        let mut ran = false;
        let result = cell.get_or_init(|| {
            ran = true;
            run()
        });
        if ran {
            events.memo.misses += 1;
        } else {
            events.memo.hits += 1;
            if let Ok(run) = result {
                events.reused.add(run);
            }
        }
        result.clone()
    }
}

/// One simulation's pool slots. Device `id` of a pooled mix belongs to slot
/// `id % subject_pool`. Each of the first 256 slots owns what its devices
/// share: its synthesis profile, drawn when the simulation is built, and,
/// once the first worker to reach the slot has filled it, its labels-only
/// session and the noise tape of its dataset seed. Every other device of the
/// slot, in any worker and shard run, derives its scenario from the slot's
/// profile and replays the session and the tape. Pool-less mixes get no
/// slots.
#[derive(Debug, Clone)]
pub(crate) struct PoolSessions {
    slots: Box<[PoolSlot]>,
}

/// One pool slot: its devices' synthesis profile and, once filled, their
/// session.
#[derive(Debug, Clone)]
struct PoolSlot {
    profile: SynthesisProfile,
    /// The filled session, `None` if the fill failed.
    session: OnceLock<Option<SlotSession>>,
}

/// A filled pool slot's labels-only session and the noise tape that its
/// runs replay. The runtime's three estimators share one RNG seed, the
/// slot's dataset seed, so one tape as long as the session covers every
/// prediction of every run over it.
#[derive(Debug, Clone)]
struct SlotSession {
    windows: Arc<[LabeledWindow]>,
    tape: NoiseTape,
}

impl SlotSession {
    /// Synthesizes `scenario`'s session and records its tape; `None` when
    /// synthesis fails.
    fn fill(scenario: &DeviceScenario) -> Option<Self> {
        let windows = scenario.window_stream().and_then(drain_shared).ok()?;
        let tape = NoiseTape::record(scenario.dataset_seed, windows.len());
        Some(Self { windows, tape })
    }
}

impl PoolSessions {
    pub(crate) fn new(generator: &ScenarioGenerator) -> Self {
        let count = generator.mix().subject_pool.min(MAX_POOL_SLOTS);
        let slots = (0..count)
            .map(|slot| PoolSlot {
                profile: generator.slot_profile(slot),
                session: OnceLock::new(),
            })
            .collect();
        Self { slots }
    }

    /// The number of slots held.
    fn len(&self) -> usize {
        self.slots.len()
    }

    /// Derives device `device_id`'s scenario, taking the synthesis profile
    /// from its slot, and returns it with the slot's index and session,
    /// filled on first use; the lookup is counted in `events`. The session
    /// is `None` (a miss) when the device has no slot or the fill failed:
    /// the device then streams directly, reporting any synthesis error
    /// exactly as [`simulate_device`] does.
    fn scenario(
        &self,
        generator: &ScenarioGenerator,
        device_id: u64,
        events: &mut Events,
    ) -> (DeviceScenario, Option<(usize, &SlotSession)>) {
        let slot = device_id
            .checked_rem(generator.mix().subject_pool)
            .and_then(|slot| usize::try_from(slot).ok())
            .and_then(|index| Some((index, self.slots.get(index)?)));
        let Some((index, slot)) = slot else {
            events.misses += 1;
            return (generator.scenario(device_id), None);
        };
        let scenario = generator.scenario_in_slot(device_id, &slot.profile);
        let mut filled = false;
        let session = slot
            .session
            .get_or_init(|| {
                filled = true;
                SlotSession::fill(&scenario)
            })
            .as_ref();
        if session.is_some() && !filled {
            events.hits += 1;
        } else {
            events.misses += 1;
        }
        (scenario, session.map(|session| (index, session)))
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

    /// Every device's own result, through one memo shared in id order.
    fn memoized(
        simulation: &FleetSimulation,
        range: Range<u64>,
    ) -> (Vec<Result<DeviceReport, FleetError>>, PoolEvents) {
        let memo = RunMemo::new(simulation.sessions.len());
        let mut events = PoolEvents::default();
        let results = range
            .map(|id| simulate_in(simulation, id, None, &memo, &mut events))
            .collect();
        (results, events)
    }

    #[test]
    fn an_empty_engine_fails_every_pooled_device_under_its_own_id() {
        let mut simulation = simulation(9, ScenarioMix::cohort());
        simulation.engine = DecisionEngine::new(Vec::new());
        let range = 5..5 + 4 * CHUNK_SIZE;
        let expected =
            |id| FleetError::for_device(id, FleetError::from(ChrisError::EmptyProfileTable));
        // No selection succeeds, so no device has a run key: each runs the
        // loop, which fails.
        let (results, events) = memoized(&simulation, range.clone());
        for (id, result) in range.clone().zip(results) {
            assert_eq!(result, Err(expected(id)));
        }
        assert_eq!((events.memo.hits, events.memo.misses), (0, 4 * CHUNK_SIZE));
        // At any thread count, the lowest failing id wins.
        for threads in [1usize, 4] {
            let options = ExecutorOptions {
                threads,
                ..ExecutorOptions::default()
            };
            assert_eq!(
                run_fleet_range(&simulation, range.clone(), &options, None),
                Err(expected(5)),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn a_memoized_run_error_is_tagged_with_each_device_id() {
        // A zoo whose link is down fails every run that offloads, after
        // selection succeeded: the failed run is memoized.
        let mut simulation = simulation(9, ScenarioMix::cohort());
        let zoo = simulation.zoo();
        let mut ble = zoo.ble().clone();
        ble.connected = false;
        simulation.zoo = ModelZoo::new(zoo.watch().clone(), zoo.phone().clone(), ble);
        let range = 0..4 * CHUNK_SIZE;
        let alone = |id| {
            let scenario = simulation.generator().scenario(id);
            simulate_device(&scenario, simulation.zoo(), simulation.engine())
        };
        let (results, events) = memoized(&simulation, range.clone());
        let mut failed = 0;
        for (id, result) in range.clone().zip(results) {
            let expected = alone(id);
            failed += u64::from(expected.is_err());
            assert_eq!(result, expected, "device {id}");
        }
        assert!(failed > 0, "some device offloads");
        assert!(events.memo.hits > 0, "some run key repeats");
        let lowest = range.clone().find_map(|id| alone(id).err()).unwrap();
        for threads in [1usize, 4] {
            let options = ExecutorOptions {
                threads,
                ..ExecutorOptions::default()
            };
            assert_eq!(
                run_fleet_range(&simulation, range.clone(), &options, None),
                Err(lowest.clone()),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn pooled_derivation_equals_the_generators_scenario() {
        // The cohort pool, and a custom 300-slot pool of short sessions
        // whose slots from 256 up have no slot and derive their profile
        // from the generator. Each range covers every slot twice: the first
        // device fills it, the second replays it.
        let short = ScenarioMix {
            subject_pool: 300,
            seconds_per_activity: (16.0, 16.0),
            activity_count: (1, 2),
            ..ScenarioMix::cohort()
        };
        for mix in [ScenarioMix::cohort(), short] {
            let simulation = simulation(42, mix);
            let (generator, pool) = (simulation.generator(), mix.subject_pool);
            let mut events = Events::default();
            for id in 0..2 * pool + 1 {
                let (scenario, session) = simulation.sessions.scenario(generator, id, &mut events);
                assert_eq!(scenario, generator.scenario(id), "pool {pool}, device {id}");
                let slot = id % pool;
                assert_eq!(
                    session.map(|(index, _)| index as u64),
                    (slot < MAX_POOL_SLOTS).then_some(slot)
                );
            }
            let slots = pool.min(MAX_POOL_SLOTS);
            assert_eq!(
                (events.hits, events.misses),
                (slots + 1, 2 * pool - slots),
                "pool {pool}"
            );
        }
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
