//! Runtime and profiling telemetry, published once per run.
//!
//! `RunInstruments` bundles every telemetry handle
//! [`ChrisRuntime::run`](crate::runtime::ChrisRuntime::run) publishes to.
//! The handles are resolved **once per run** from the thread's active
//! registry. The window loop counts into locals and touches no handle: the
//! counts are added once after the loop, and the loop as a whole is timed
//! once, into `chris_stage_duration_ns{stage="runtime"}`.
//! [`Profiler::profile_with`](crate::profiling::Profiler::profile_with)
//! likewise adds its per-model prediction counts once per profile, through
//! `invocation_counter`.
//!
//! Counter series (windows, offload decisions by backend, model invocations)
//! are [`Stable`](telemetry::Stability::Stable): their values depend only on
//! the simulated workload and are identical for any thread count or
//! partition, so the fleet layer embeds them in byte-stable shard artifacts.
//! The stage duration histogram is
//! [`Observational`](telemetry::Stability::Observational).

use ppg_models::zoo::ModelKind;
use telemetry::{Counter, Histogram, Registry, ScopedTimer, Stability, DURATION_NS_BOUNDS};

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

/// Resolves (registering if needed) the invocation counter of `model` on
/// `registry`.
pub(crate) fn invocation_counter(registry: &Registry, model: ModelKind) -> Counter {
    registry
        .counter(
            MODEL_INVOCATIONS_SERIES,
            &[("model", model.name())],
            MODEL_INVOCATIONS_HELP,
            Stability::Stable,
        )
        .expect("model invocation counter registration cannot fail")
}

/// Telemetry handles for one runtime run, resolved once at run start.
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
    /// Resolves (registering if needed) every series on the thread's active
    /// registry. All seven series are registered eagerly — a run that never
    /// offloads still exposes a zero-valued `backend="phone"` counter, so
    /// every shard reports an identical series set.
    pub(crate) fn resolve() -> Self {
        let registry = telemetry::active();
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
            invocations: ModelKind::ALL.map(|model| invocation_counter(&registry, model)),
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
