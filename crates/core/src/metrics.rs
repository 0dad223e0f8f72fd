//! Runtime hot-path instrumentation.
//!
//! [`RunInstruments`] bundles every telemetry handle the per-window loop in
//! [`ChrisRuntime::run`](crate::runtime::ChrisRuntime::run) touches. The
//! handles are resolved **once per run** from the thread's active registry,
//! so the per-window cost is a few relaxed atomic increments: no registry
//! lookups and no clock reads inside the loop. The loop as a whole is timed
//! once per run, into `chris_stage_duration_ns{stage="runtime"}`.
//!
//! Counter series (windows, offload decisions by backend) are
//! [`Stable`](telemetry::Stability::Stable): their values depend only on the
//! simulated workload and are identical for any thread count or partition,
//! so the fleet layer embeds them in byte-stable shard artifacts. The stage
//! duration histogram is
//! [`Observational`](telemetry::Stability::Observational).

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

/// The stage label under which a whole run is timed into
/// [`telemetry::STAGE_DURATION_SERIES`].
const RUNTIME_STAGE: &str = "runtime";

/// Telemetry handles for one runtime run, resolved once at run start.
#[derive(Debug)]
pub(crate) struct RunInstruments {
    windows: Counter,
    offload_phone: Counter,
    offload_wearable: Counter,
    runtime: Histogram,
}

impl RunInstruments {
    /// Resolves (registering if needed) every series on the thread's active
    /// registry. All series are registered eagerly — a run that never
    /// offloads still exposes a zero-valued `backend="phone"` counter, so
    /// every shard reports an identical series set.
    pub(crate) fn resolve() -> Self {
        let registry = telemetry::active();
        let offload = |registry: &Registry, backend: &str| -> Counter {
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
            offload_phone: offload(&registry, "phone"),
            offload_wearable: offload(&registry, "wearable"),
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

    pub(crate) fn window_processed(&self) {
        self.windows.inc();
    }

    pub(crate) fn offload_decision(&self, offloaded: bool) {
        if offloaded {
            self.offload_phone.inc();
        } else {
            self.offload_wearable.inc();
        }
    }

    /// Times the whole window loop: one observation per run.
    pub(crate) fn time_run(&self) -> ScopedTimer {
        self.runtime.start_timer()
    }
}
