//! Lock-free metrics core for the CHRIS workspace.
//!
//! This crate is the observability substrate the fleet engine reports
//! through: a [`Registry`] of named instruments ([`Counter`], [`Gauge`],
//! [`Histogram`]) with Prometheus-style labels, a deterministic text
//! exposition writer ([`render_text`]), and a serde-serializable
//! [`MetricsSnapshot`] that merges across shards and processes.
//!
//! Design constraints, in order:
//!
//! 1. **The hot path never locks.** Instrument handles are cheap clones
//!    around shared atomics; incrementing a counter or observing into a
//!    histogram is a handful of relaxed atomic operations. Only
//!    *registration* (resolving a name to a handle) takes the registry's
//!    internal lock — callers resolve once and cache the handle.
//! 2. **Determinism is first-class.** Counters saturate instead of
//!    wrapping, histogram sums are integer nanoseconds (addition is
//!    commutative and order-independent), snapshots are sorted by
//!    `(name, labels)`, and merging two snapshots is a pure function —
//!    so per-worker registries merged at worker exit produce byte-identical
//!    reports for any thread count.
//! 3. **Stability is explicit.** Every series is registered as either
//!    [`Stability::Stable`] (value depends only on the simulated workload —
//!    safe to embed in shard artifacts that must be byte-identical across
//!    thread counts and cache settings) or [`Stability::Observational`]
//!    (timings, cache effectiveness — scheduling-dependent, exposed only
//!    through the sidecar exposition).
//!
//! ## Scopes
//!
//! Instrumented code does not take a registry parameter; it resolves the
//! thread's *active* registry via [`active`]. [`scoped`] pushes a registry
//! onto the current thread's scope stack for the lifetime of the returned
//! guard; with no scope installed, [`active`] falls back to the process
//! [`global`] registry. Worker threads do not inherit scopes — executors
//! install a per-worker registry explicitly and merge snapshots at exit.
//! Hot paths that record into the active registry resolve their handles
//! through a thread-local [`HandleCache`], once per thread per registry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod registry;
mod scope;
mod snapshot;
pub mod sync;
mod text;

pub use error::TelemetryError;
pub use registry::{Counter, Gauge, Histogram, Registry, ScopedTimer, Stability};
pub use scope::{active, global, scoped, HandleCache, RegistryScope};
pub use snapshot::{CounterSample, GaugeSample, HistogramSample, MetricsSnapshot};
pub use text::{parse_exposition, render_text, sample_value, Sample};

/// Series name shared by every per-stage pipeline duration histogram
/// (labelled by `stage`). Centralized so all crates register the family with
/// identical metadata and snapshots merge cleanly.
pub const STAGE_DURATION_SERIES: &str = "chris_stage_duration_ns";

/// Help text of the [`STAGE_DURATION_SERIES`] family.
pub const STAGE_DURATION_HELP: &str =
    "Wall-clock duration of one pipeline stage invocation, in nanoseconds";

/// Default bucket upper bounds (nanoseconds) for stage-duration histograms:
/// a coarse exponential ladder from sub-microsecond to tens of milliseconds.
pub const DURATION_NS_BOUNDS: [u64; 10] = [
    250, 1_000, 4_000, 16_000, 64_000, 256_000, 1_000_000, 4_000_000, 16_000_000, 64_000_000,
];
