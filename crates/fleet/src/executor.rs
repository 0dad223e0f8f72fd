//! Parallel fleet execution over std scoped threads.
//!
//! Devices are distributed through a shared atomic cursor over fixed-size
//! chunks — a minimal work-stealing queue: fast workers simply claim more
//! chunks. One thread runs the same worker body, inline on the calling
//! thread, so there is a single executor path. Every device simulation is a
//! pure function of its scenario and the shared (read-only) zoo + decision
//! engine, and results are merged in device order afterwards, so the output
//! is byte-identical for any thread count and any scheduling interleaving.
//! Workers share nothing mutable but the cursor, the run's telemetry
//! registry and, for a pooled mix, each pool slot's session cell and the
//! one lock of its run memo.
//!
//! Workers are *scenario-free*: [`run_fleet_range`] hands each worker only a
//! [`FleetSimulation`] and a device-id range, and the worker derives each
//! [`DeviceScenario`] on demand as it claims ids — one scenario alive per
//! worker, never a materialized `Vec<DeviceScenario>`, and nothing a device
//! allocates outlives it, except a pooled device's first run of its key,
//! which its pool slot's run memo keeps for the simulation's lifetime as one
//! 72-byte entry (both checked with a counting allocator in
//! `tests/scenario_free.rs`). A billion-device shard therefore costs
//! O(threads) scenario memory, and a pooled simulation's memo is bounded by
//! its distinct run keys.
//!
//! The executor is the per-process layer of the scale-out story: both the
//! single-process path ([`crate::FleetSimulation::run_with_options`]) and
//! every `fleet-shard` worker drive their device range through
//! [`run_fleet_range`], so a sharded fleet and a single-process fleet execute
//! identical per-device work — only the partitioning and the final
//! [`crate::merge::merge`] differ.

use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

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
use crate::scenario::{DeviceFields, DeviceScenario, ScenarioGenerator, SynthesisProfile};
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
    let device = scenario.fields();
    let tape = NoiseTape::empty(scenario.dataset_seed);
    let run = engine
        .plan(&device.constraint)
        .and_then(|plan| run_device(&device, zoo, engine, &plan, stream, &tape))
        .map_err(|e| for_device(e.into()))?;
    finish(&device, sink, &run)
}

/// Runs `plan` over `windows` under `device`'s schedule and accounting,
/// with estimators seeded by the device's dataset seed that replay `tape`,
/// a recording of that seed's error sequence (see
/// [`ChrisRuntime::with_noise_tape`]): a pool slot's tape covers its whole
/// session, and a streaming device's is empty, so it draws every error live.
///
/// Each call owns a fresh [`ChrisRuntime`] built from clones of the shared
/// zoo and engine, so workers run devices concurrently without sharing
/// mutable state; the tape is shared read-only.
fn run_device<S: WindowSource>(
    device: &DeviceFields,
    zoo: &ModelZoo,
    engine: &DecisionEngine,
    plan: &LinkPlan,
    windows: S,
    tape: &NoiseTape,
) -> Result<DeviceRun, ChrisError> {
    let options = RuntimeOptions {
        accounting: device.accounting,
        seed: tape.rng_seed(),
        ..RuntimeOptions::default()
    };
    let mut runtime = ChrisRuntime::with_noise_tape(zoo.clone(), engine.clone(), options, tape);
    runtime
        .run_totals(windows, plan, &device.schedule)
        .and_then(|totals| DeviceRun::try_from(&totals))
}

/// Builds `device`'s report from its `run`: reports the device to `sink`,
/// projects battery life and checks the constraint. Shared by every path,
/// so a memoized run and a fresh one give the same report.
fn finish(
    device: &DeviceFields,
    sink: Option<&dyn ProgressSink>,
    run: &DeviceRun,
) -> Result<DeviceReport, FleetError> {
    if let Some(sink) = sink {
        sink.device_completed(device.device_id, run.windows as usize);
    }

    let battery = Battery::new(
        device.battery_capacity_mah,
        HWATCH_BATTERY_VOLTAGE,
        HWATCH_CONVERTER_EFFICIENCY,
    )
    .map_err(|e| FleetError::for_device(device.device_id, e.into()))?;
    let battery_life_hours = (battery
        .lifetime(watch_power(run.avg_watch_energy))
        .as_seconds()
        / 3600.0)
        .min(BATTERY_LIFE_CAP_HOURS);

    let constraint_violated = match device.constraint {
        chris_core::UserConstraint::MaxMae(target) => run.mae_bpm > target,
        chris_core::UserConstraint::MaxEnergy(budget) => run.avg_watch_energy > budget,
    };

    Ok(DeviceReport {
        device_id: device.device_id,
        windows: run.windows as usize,
        mae_bpm: run.mae_bpm,
        avg_watch_energy: run.avg_watch_energy,
        avg_phone_energy: run.avg_phone_energy,
        offload_fraction: run.offload_fraction,
        simple_fraction: run.simple_fraction,
        disconnected_fraction: run.disconnected_fraction,
        battery_life_hours,
        constraint: device.constraint,
        accounting: device.accounting,
        constraint_violated,
    })
}

/// What a device report reads of a run, plus the counts the run published:
/// the memo's value, 56 bytes where a [`RunTotals`] takes about 500. Its
/// counts are `u32`s, which holds any run shorter than 2^32 windows (272
/// years of recording).
#[derive(Debug, Clone, Copy)]
struct DeviceRun {
    windows: u32,
    offloaded: u32,
    avg_watch_energy: Energy,
    avg_phone_energy: Energy,
    /// Predictions per model, indexed by [`ModelKind::index`].
    invocations: [u32; ModelKind::ALL.len()],
    mae_bpm: f32,
    offload_fraction: f32,
    simple_fraction: f32,
    disconnected_fraction: f32,
}

impl TryFrom<&RunTotals> for DeviceRun {
    type Error = ChrisError;

    /// Fails for a run of 2^32 windows or more.
    fn try_from(totals: &RunTotals) -> Result<Self, ChrisError> {
        let count = |count: u64| {
            u32::try_from(count).map_err(|_| ChrisError::InvalidParameter {
                name: "windows",
                requirement: "a device run has fewer than 2^32 windows",
            })
        };
        let [at, small, big] = totals.invocations;
        Ok(Self {
            windows: count(totals.windows as u64)?,
            offloaded: count(totals.offloaded as u64)?,
            avg_watch_energy: totals.avg_watch_energy,
            avg_phone_energy: totals.avg_phone_energy,
            invocations: [count(at)?, count(small)?, count(big)?],
            mae_bpm: totals.mae_bpm,
            offload_fraction: totals.offload_fraction,
            simple_fraction: totals.simple_fraction,
            disconnected_fraction: totals.disconnected_fraction,
        })
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
/// cursor. Every worker records telemetry into the registry that was active
/// when the run started; its instruments are atomics, and counter and
/// histogram additions commute, so the totals are identical for any
/// interleaving.
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
/// A replaying device's run is also memoized, in its pool slot, so the memo
/// lives as long as `simulation` and every run and shard run of it, in any
/// thread, reuses it: each device is planned once
/// ([`DecisionEngine::plan`]), and the first device of the simulation with
/// a given run key — link schedule, energy accounting and its plan's
/// configurations masked to the link statuses the schedule reaches within
/// the slot's windows ([`ConnectionSchedule::reaches`]) — runs the window
/// loop on that plan, and every later device of its slot with that key
/// rebuilds its report from the stored result. The worker adds each reused
/// run's Stable counts to a tally that it publishes once, when it exits,
/// through [`chris_core::metrics::record_run`]. Reports, Stable telemetry
/// and returned errors are those of running every device;
/// `chris_stage_duration_ns{stage="runtime"}` counts loop runs only, so a
/// repeated run of a range records none. A device whose plan fails, whose
/// plan failed for a reachable status, or whose key does not fit its bits
/// (which no generated mix draws) counts as a miss and runs unmemoized;
/// after a failed reachable status the runtime raises the error itself. A
/// slot holds one entry per distinct key, a count the mix bounds
/// (schedules, accounting modes and the engine's configurations are all
/// finite) whatever the device count, and runs each key's loop once per
/// simulation while holding the slot's lock, so a device of the slot that
/// arrives during another worker's, run's or shard run's loop waits for it.
/// Such a run publishes [`RUN_MEMO_EVENTS_SERIES`] from every worker: a miss per
/// device that ran the loop (those of higher slots included), a hit per
/// reuse. Across the successful runs of a simulation, the counts therefore
/// depend only on which devices ran, never on thread counts, shard cuts or
/// which run came first, and a run over devices that earlier runs covered
/// counts only hits.
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
    let cursor = AtomicU64::new(0);
    let worker = || {
        // Every worker records into the run's registry; its pool counts are
        // published once, at exit.
        let _scope = telemetry::scoped(&active);
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
                let result = simulate_in(simulation, range.start + index, sink, &mut events);
                let failed = result.is_err();
                local.push((index, result));
                if failed {
                    break 'claims;
                }
            }
        }
        if pooled {
            events.reused.publish();
            events.publish(&active);
        }
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
/// with a filled pool slot takes its synthesis profile from the slot and
/// replays the slot's session and noise tape through the slot's run memo;
/// every other device streams, a memo miss. Pool lookups are counted in
/// `events`.
fn simulate_in(
    simulation: &FleetSimulation,
    device_id: u64,
    sink: Option<&dyn ProgressSink>,
    events: &mut PoolEvents,
) -> Result<DeviceReport, FleetError> {
    let (zoo, engine) = (simulation.zoo(), simulation.engine());
    let claimed = simulation
        .sessions
        .device(simulation.generator(), device_id, &mut events.cache);
    let (device, slot, session) = match claimed {
        Claimed::Pooled {
            device,
            slot,
            session,
        } => (device, slot, session),
        Claimed::Streaming(scenario) => {
            events.memo.misses += 1;
            return simulate(&scenario, zoo, engine, sink, scenario.window_stream());
        }
    };
    let run = match engine.plan(&device.constraint) {
        Ok(plan) => {
            let windows = &*session.windows;
            let key = RunKey::new(&device, &plan, windows.len());
            slot.memo.run(key, events, || {
                let windows = BufferWindows::new(windows);
                run_device(&device, zoo, engine, &plan, windows, &session.tape)
            })
        }
        Err(e) => {
            events.memo.misses += 1;
            Err(e)
        }
    };
    let run = run.map_err(|e| FleetError::for_device(device_id, e.into()))?;
    finish(&device, sink, &run)
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
        self.windows += run.windows as usize;
        self.offloaded += run.offloaded as usize;
        for (sum, count) in self.invocations.iter_mut().zip(run.invocations) {
            *sum += u64::from(count);
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
/// estimator seed, and holds the memo): the link schedule, the energy
/// accounting and the device's [`LinkPlan`] masked by
/// [`ConnectionSchedule::reaches`] — the configuration for each link status
/// the schedule reaches, none for a status it never reaches, so devices that
/// differ only there share a run. The constraint matters only through the
/// configurations it selects. Packed into 60 bits, low to high: the
/// schedule (2 bits of variant, 18 of `up`, 18 of `down`), the accounting
/// (2), then the connected and the disconnected selection (10 each).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct RunKey(u64);

impl RunKey {
    /// The key of `device`'s run of `plan` over its slot's
    /// `windows`-window session. `None` when a reachable status's selection
    /// failed, so the runtime reports the error in its own order, or when
    /// the key does not fit its bits: a duty cycle of 2^18 windows or more.
    fn new(device: &DeviceFields, plan: &LinkPlan, windows: usize) -> Option<Self> {
        let selections = plan.masked(device.schedule.reaches(windows)).ok()?;
        Self::of(device.schedule, device.accounting, selections)
    }

    /// The key of a run under `schedule` and `accounting` of the masked
    /// `[connected, disconnected]` selections.
    fn of(
        schedule: ConnectionSchedule,
        accounting: EnergyAccounting,
        [connected, disconnected]: [Option<Configuration>; 2],
    ) -> Option<Self> {
        let (variant, up, down) = match schedule {
            ConnectionSchedule::AlwaysConnected => (0, 0, 0),
            ConnectionSchedule::NeverConnected => (1, 0, 0),
            ConnectionSchedule::DutyCycle { up, down } => (2, up as u64, down as u64),
        };
        pack(&[
            (selection_code(disconnected)?, 10),
            (selection_code(connected)?, 10),
            (accounting as u64, 2),
            (down, 18),
            (up, 18),
            (variant, 2),
        ])
        .map(Self)
    }
}

/// A link status's selection in 10 bits: none is 0; a configuration sets
/// the low bit and packs its target, both models and its threshold.
/// `None` for a threshold of 16 or more, which only a hand-built engine
/// can hold.
fn selection_code(selection: Option<Configuration>) -> Option<u64> {
    let Some(config) = selection else {
        return Some(0);
    };
    pack(&[
        (u64::from(config.threshold.value()), 4),
        (config.complex.index() as u64, 2),
        (config.simple.index() as u64, 2),
        (config.target as u64, 1),
        (1, 1),
    ])
}

/// Packs `(value, bits)` fields into one word, the first field highest;
/// `None` when a value does not fit its bits.
fn pack(fields: &[(u64, u32)]) -> Option<u64> {
    debug_assert!(fields.iter().map(|&(_, bits)| bits).sum::<u32>() <= 64);
    fields.iter().try_fold(0, |word: u64, &(value, bits)| {
        (value >> bits == 0).then(|| word << bits | value)
    })
}

/// A stored run: the run as the runtime returned it, an error boxed so the
/// entry stays small. An error is tagged with each reading device's id.
type MemoRun = Result<DeviceRun, Box<ChrisError>>;

/// One pool slot's memoized runs, sorted by key, 72 bytes per key, behind
/// one lock.
///
/// A miss runs the loop while holding the lock, so a key's loop runs once
/// per simulation across threads and concurrent runs, and a device of the
/// slot that arrives meanwhile waits for that run. A run that panics stores
/// nothing, and the lock it poisoned is entered anyway, so the memo stays
/// usable and a later device runs the key again.
#[derive(Debug, Default)]
struct RunMemo(Mutex<Vec<(RunKey, MemoRun)>>);

impl RunMemo {
    fn entries(&self) -> MutexGuard<'_, Vec<(RunKey, MemoRun)>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The result of the run keyed `key`: computed by `run` for the first
    /// device of the simulation with the key (and for every device without
    /// one), otherwise reused, its Stable counts added to `events.reused`.
    /// Counted in `events.memo`.
    fn run(
        &self,
        key: Option<RunKey>,
        events: &mut PoolEvents,
        run: impl FnOnce() -> Result<DeviceRun, ChrisError>,
    ) -> Result<DeviceRun, ChrisError> {
        let Some(key) = key else {
            events.memo.misses += 1;
            return run();
        };
        let mut entries = self.entries();
        match entries.binary_search_by_key(&key, |&(key, _)| key) {
            Ok(at) => {
                events.memo.hits += 1;
                match &entries[at].1 {
                    Ok(run) => {
                        events.reused.add(run);
                        Ok(*run)
                    }
                    Err(e) => Err(ChrisError::clone(e)),
                }
            }
            Err(at) => {
                events.memo.misses += 1;
                let result = run();
                entries.insert(at, (key, result.clone().map_err(Box::new)));
                result
            }
        }
    }
}

/// One simulation's pool slots. Device `id` of a pooled mix belongs to slot
/// `id % subject_pool`. Each of the first 256 slots owns what its devices
/// share: its synthesis profile, drawn when the simulation is built; once
/// the first worker to reach the slot has filled it, its labels-only
/// session and the noise tape of its dataset seed; and its run memo. Every
/// other device of the slot, in any worker and any run or shard run of the
/// simulation, derives its scenario from the slot's profile, replays the
/// session and the tape, and reuses the memo's runs. Pool-less mixes get no
/// slots.
#[derive(Debug)]
pub(crate) struct PoolSessions {
    slots: Box<[PoolSlot]>,
}

/// One pool slot: its devices' synthesis profile, once filled their
/// session, and their memoized runs.
#[derive(Debug)]
struct PoolSlot {
    profile: SynthesisProfile,
    /// The filled session, `None` if the fill failed.
    session: OnceLock<Option<SlotSession>>,
    memo: RunMemo,
}

/// A filled pool slot's labels-only session and the noise tape that its
/// runs replay. The runtime's three estimators share one RNG seed, the
/// slot's dataset seed, so one tape as long as the session covers every
/// prediction of every run over it.
#[derive(Debug)]
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

/// How the executor runs a claimed device.
enum Claimed<'a> {
    /// A device of a filled pool slot: its own fields, its slot and the
    /// slot's session.
    Pooled {
        device: DeviceFields,
        slot: &'a PoolSlot,
        session: &'a SlotSession,
    },
    /// A device without a slot, or whose slot's fill failed: its whole
    /// scenario, to stream.
    Streaming(DeviceScenario),
}

impl PoolSessions {
    pub(crate) fn new(generator: &ScenarioGenerator) -> Self {
        let count = generator.mix().subject_pool.min(MAX_POOL_SLOTS);
        let slots = (0..count)
            .map(|slot| PoolSlot {
                profile: generator.slot_profile(slot),
                session: OnceLock::new(),
                memo: RunMemo::default(),
            })
            .collect();
        Self { slots }
    }

    /// Derives device `device_id`, taking the synthesis profile from its
    /// slot, and returns it with the slot and its session, filled on first
    /// use; the lookup is counted in `events`. Only a fill builds the
    /// device's whole scenario. A device without a slot, or whose slot's
    /// fill failed, misses and streams directly, reporting any synthesis
    /// error exactly as [`simulate_device`] does.
    fn device(
        &self,
        generator: &ScenarioGenerator,
        device_id: u64,
        events: &mut Events,
    ) -> Claimed<'_> {
        let slot = device_id
            .checked_rem(generator.mix().subject_pool)
            .and_then(|slot| usize::try_from(slot).ok())
            .and_then(|index| self.slots.get(index));
        let Some(slot) = slot else {
            events.misses += 1;
            return Claimed::Streaming(generator.scenario(device_id));
        };
        let pooled = generator.scenario_in_slot(device_id, &slot.profile);
        let mut filled = false;
        let session = slot.session.get_or_init(|| {
            filled = true;
            SlotSession::fill(&pooled.to_scenario())
        });
        match session {
            Some(session) => {
                if filled {
                    events.misses += 1;
                } else {
                    events.hits += 1;
                }
                Claimed::Pooled {
                    device: pooled.device,
                    slot,
                    session,
                }
            }
            None => {
                events.misses += 1;
                Claimed::Streaming(pooled.to_scenario())
            }
        }
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

    /// Every device's own result, in id order, through the simulation's
    /// memo.
    fn memoized(
        simulation: &FleetSimulation,
        range: Range<u64>,
    ) -> (Vec<Result<DeviceReport, FleetError>>, PoolEvents) {
        let mut events = PoolEvents::default();
        let results = range
            .map(|id| simulate_in(simulation, id, None, &mut events))
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
                let scenario = match simulation.sessions.device(generator, id, &mut events) {
                    Claimed::Pooled { device, slot, .. } => {
                        let slots = &simulation.sessions.slots;
                        let index = slots.iter().position(|s| std::ptr::eq(s, slot));
                        assert_eq!(index, Some((id % pool) as usize), "device {id}");
                        let scenario = generator.scenario_in_slot(id, &slot.profile).to_scenario();
                        assert_eq!(scenario.fields(), device, "device {id}");
                        scenario
                    }
                    Claimed::Streaming(scenario) => {
                        assert!(id % pool >= MAX_POOL_SLOTS, "device {id} has a slot");
                        scenario
                    }
                };
                assert_eq!(scenario, generator.scenario(id), "pool {pool}, device {id}");
            }
            let slots = pool.min(MAX_POOL_SLOTS);
            assert_eq!(
                (events.hits, events.misses),
                (slots + 1, 2 * pool - slots),
                "pool {pool}"
            );
        }
    }

    /// A run of `windows` windows, distinct per value.
    fn device_run(windows: u32) -> DeviceRun {
        DeviceRun {
            windows,
            offloaded: 0,
            avg_watch_energy: Energy::from_millijoules(1.0),
            avg_phone_energy: Energy::from_millijoules(0.0),
            invocations: [windows, 0, 0],
            mae_bpm: 1.0,
            offload_fraction: 0.0,
            simple_fraction: 1.0,
            disconnected_fraction: 0.0,
        }
    }

    #[test]
    fn run_keys_are_distinct_for_distinct_runs() {
        // Every generated schedule shape, every accounting mode and every
        // pair of masked selections packs to its own key.
        let mut schedules = vec![
            ConnectionSchedule::AlwaysConnected,
            ConnectionSchedule::NeverConnected,
        ];
        for up in 0..24 {
            for down in 0..24 {
                schedules.push(ConnectionSchedule::DutyCycle { up, down });
            }
        }
        let selections: Vec<Option<Configuration>> = std::iter::once(None)
            .chain(
                chris_core::config::enumerate_configurations()
                    .into_iter()
                    .map(Some),
            )
            .collect();
        assert_eq!(selections.len(), 61);
        let mut keys = std::collections::BTreeSet::new();
        let mut count = 0;
        for schedule in &schedules {
            for accounting in EnergyAccounting::ALL {
                for (i, &first) in selections.iter().enumerate() {
                    // Both halves over every selection would be 10M keys;
                    // a rotation still pairs each with 8 others.
                    for &second in selections.iter().cycle().skip(i).take(8) {
                        let key = RunKey::of(*schedule, accounting, [first, second]).unwrap();
                        assert!(key.0 >> 60 == 0, "{key:?} exceeds 60 bits");
                        keys.insert(key);
                        count += 1;
                    }
                }
            }
        }
        assert_eq!(keys.len(), count);
        // What does not fit gets no key.
        let long = ConnectionSchedule::DutyCycle {
            up: 1 << 18,
            down: 1,
        };
        assert_eq!(RunKey::of(long, EnergyAccounting::BleOnly, [None; 2]), None);
    }

    #[test]
    fn a_key_runs_once_across_threads() {
        let memo = RunMemo::default();
        let runs = std::sync::atomic::AtomicUsize::new(0);
        let arrived = std::sync::atomic::AtomicUsize::new(0);
        let events: Vec<(u64, u64)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        let mut events = PoolEvents::default();
                        // relaxed: a spin count read by the running worker.
                        arrived.fetch_add(1, Ordering::Relaxed);
                        let run = memo.run(Some(RunKey(7)), &mut events, || {
                            // relaxed: read after the workers joined.
                            runs.fetch_add(1, Ordering::Relaxed);
                            // The run ends only once all four workers
                            // arrived, and a while after, so the other
                            // three reach the memo during the run.
                            // relaxed: a spin on a count.
                            while arrived.load(Ordering::Relaxed) < 4 {
                                std::thread::yield_now();
                            }
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Ok(device_run(3))
                        });
                        assert_eq!(run.map(|run| run.windows), Ok(3));
                        (events.memo.hits, events.memo.misses)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        // relaxed: the workers joined.
        assert_eq!(runs.load(Ordering::Relaxed), 1);
        let totals = events
            .iter()
            .fold((0, 0), |(h, m), &(hits, misses)| (h + hits, m + misses));
        assert_eq!(totals, (3, 1));
    }

    #[test]
    fn a_panicking_run_leaves_the_memo_usable() {
        let memo = RunMemo::default();
        let mut events = PoolEvents::default();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.run(Some(RunKey(7)), &mut events, || panic!("the loop failed"))
        }));
        assert!(panicked.is_err());
        // Nothing was stored: the next device runs the key, and the one
        // after reuses it.
        assert!(memo.entries().is_empty());
        for expected in [(0, 2), (1, 2)] {
            let run = memo.run(Some(RunKey(7)), &mut events, || Ok(device_run(5)));
            assert_eq!(run.map(|run| run.windows), Ok(5));
            assert_eq!((events.memo.hits, events.memo.misses), expected);
        }
        assert_eq!(memo.entries().len(), 1);
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
