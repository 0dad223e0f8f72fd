//! Runtime and profiling telemetry, published once per run.
//!
//! `RunInstruments` bundles every telemetry handle
//! [`ChrisRuntime::run_totals`](crate::runtime::ChrisRuntime::run_totals)
//! publishes to. The handles are resolved **once per registry per thread**:
//! a thread-local [`telemetry::HandleCache`] keeps the set resolved from the
//! thread's active registry and resolves again only when a different
//! registry becomes active, so a run pays no registry lock and builds no
//! series key. The counts are still published **once per run**, into the
//! registry active when the run ends: the window loop counts into locals
//! and touches no handle, the counts are added once after the loop, and the
//! loop as a whole is timed once, into
//! `chris_stage_duration_ns{stage="runtime"}`. A
//! [`Profiler`](crate::profiling::Profiler) pass likewise adds its per-model
//! prediction counts once per profile, through a cache of its own holding
//! only the invocation counters.
//!
//! Counter series (windows, offload decisions by backend, model invocations)
//! are [`Stable`](telemetry::Stability::Stable): their values depend only on
//! the simulated workload and are identical for any thread count or
//! partition, so the fleet layer embeds them in byte-stable shard artifacts.
//! The stage duration histogram is
//! [`Observational`](telemetry::Stability::Observational).

use std::cell::OnceCell;

use ppg_models::zoo::ModelKind;
use telemetry::{
    Counter, HandleCache, Histogram, Registry, ScopedTimer, Stability, DURATION_NS_BOUNDS,
};

/// Series name of the processed-window counter.
pub const WINDOWS_SERIES: &str = "chris_windows_total";

/// Help text of [`WINDOWS_SERIES`].
pub const WINDOWS_HELP: &str = "Windows processed by the CHRIS runtime";

/// Series name of the per-backend offload decision counter (labelled by
/// `backend`: `"phone"` for offloaded windows, `"wearable"` for local ones).
pub const OFFLOAD_DECISIONS_SERIES: &str = "chris_offload_decisions_total";

/// Help text of [`OFFLOAD_DECISIONS_SERIES`].
pub const OFFLOAD_DECISIONS_HELP: &str =
    "Per-window inference placement decisions, by executing backend";

/// Series name of the per-model prediction counter (labelled by `model`).
pub const MODEL_INVOCATIONS_SERIES: &str = "chris_model_invocations_total";

/// Help text of [`MODEL_INVOCATIONS_SERIES`].
pub const MODEL_INVOCATIONS_HELP: &str = "HR predictions executed, by model";

/// The stage label under which a whole run is timed into
/// [`telemetry::STAGE_DURATION_SERIES`].
const RUNTIME_STAGE: &str = "runtime";

thread_local! {
    static RUN_HANDLES: HandleCache<RunInstruments> = const { HandleCache::new() };
    /// Filled per model on first use, so profiling registers the series of
    /// the models it profiled and no others.
    static INVOCATION_HANDLES: HandleCache<[OnceCell<Counter>; ModelKind::ALL.len()]> =
        const { HandleCache::new() };
}

/// Resolves (registering if needed) the invocation counter of `model` on
/// `registry`.
fn invocation_counter(registry: &Registry, model: ModelKind) -> Counter {
    registry
        .counter(
            MODEL_INVOCATIONS_SERIES,
            &[("model", model.name())],
            MODEL_INVOCATIONS_HELP,
            Stability::Stable,
        )
        .expect("model invocation counter registration cannot fail")
}

/// Adds `count` predictions of `model` to the active registry's invocation
/// counter, through the thread's cached handles.
pub(crate) fn add_invocations(model: ModelKind, count: u64) {
    INVOCATION_HANDLES.with(|cache| {
        cache.with(
            |_| Default::default(),
            |counters| {
                counters[model.index()]
                    // The cache is keyed on the active registry, so this is
                    // the registry the cell belongs to.
                    .get_or_init(|| invocation_counter(&telemetry::active(), model))
                    .add(count);
            },
        );
    });
}

/// Publishes a finished run's Stable counts into the thread's active
/// registry: `windows` processed, `offloaded` of them to the phone, and the
/// predictions per model, indexed by [`ModelKind::index`].
///
/// [`ChrisRuntime::run_totals`](crate::runtime::ChrisRuntime::run_totals)
/// publishes through this after its loop. A caller that reuses earlier
/// runs' [`RunTotals`](crate::RunTotals) instead of running the loop again
/// calls it with the `windows`, `offloaded` and `invocations` of those
/// runs, summed, so the Stable series read as if each run had repeated:
/// the counters only add, so one call with the sums equals one call per
/// run. The fleet executor calls it once per worker, at the worker's exit,
/// for every run the worker reused. The runtime stage is not observed: it
/// times runs of the loop only.
pub fn record_run(windows: usize, offloaded: usize, invocations: [u64; ModelKind::ALL.len()]) {
    RunInstruments::with_active(|instruments| instruments.record(windows, offloaded, invocations));
}

/// Telemetry handles for the runtime, resolved once per registry per thread.
///
/// All seven series are registered eagerly, when a thread's first run under
/// a registry resolves them — a run that never offloads still exposes a
/// zero-valued `backend="phone"` counter, so every shard reports an
/// identical series set. Counts are published once per run, by
/// [`record_run`].
#[derive(Debug)]
pub(crate) struct RunInstruments {
    windows: Counter,
    offload_phone: Counter,
    offload_wearable: Counter,
    /// Indexed by [`ModelKind::index`].
    invocations: [Counter; ModelKind::ALL.len()],
    runtime: Histogram,
}

impl RunInstruments {
    /// Calls `f` with the handles of the thread's active registry, resolving
    /// (and registering) them first if this thread has not yet done so for
    /// that registry.
    pub(crate) fn with_active<R>(f: impl FnOnce(&Self) -> R) -> R {
        RUN_HANDLES.with(|cache| cache.with(Self::resolve, f))
    }

    /// Resolves (registering if needed) every series on `registry`.
    fn resolve(registry: &Registry) -> Self {
        let offload = |backend: &str| -> Counter {
            registry
                .counter(
                    OFFLOAD_DECISIONS_SERIES,
                    &[("backend", backend)],
                    OFFLOAD_DECISIONS_HELP,
                    Stability::Stable,
                )
                .expect("offload counter registration cannot fail")
        };
        Self {
            windows: registry
                .counter(WINDOWS_SERIES, &[], WINDOWS_HELP, Stability::Stable)
                .expect("window counter registration cannot fail"),
            offload_phone: offload("phone"),
            offload_wearable: offload("wearable"),
            invocations: ModelKind::ALL.map(|model| invocation_counter(registry, model)),
            runtime: registry
                .histogram(
                    telemetry::STAGE_DURATION_SERIES,
                    &[("stage", RUNTIME_STAGE)],
                    telemetry::STAGE_DURATION_HELP,
                    Stability::Observational,
                    &DURATION_NS_BOUNDS,
                )
                .expect("stage histogram registration cannot fail"),
        }
    }

    /// Publishes a finished run's counts: `windows` processed, `offloaded`
    /// of them to the phone, and the predictions per model, indexed by
    /// [`ModelKind::index`].
    pub(crate) fn record(
        &self,
        windows: usize,
        offloaded: usize,
        invocations: [u64; ModelKind::ALL.len()],
    ) {
        self.windows.add(windows as u64);
        self.offload_phone.add(offloaded as u64);
        self.offload_wearable.add((windows - offloaded) as u64);
        for (counter, count) in self.invocations.iter().zip(invocations) {
            counter.add(count);
        }
    }

    /// Times the whole window loop: one observation per run.
    pub(crate) fn time_run(&self) -> ScopedTimer {
        self.runtime.start_timer()
    }
}
