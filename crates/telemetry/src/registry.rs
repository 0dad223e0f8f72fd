//! The instrument registry and its handle types.

use crate::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::error::TelemetryError;
use crate::snapshot::{CounterSample, GaugeSample, HistogramSample, MetricsSnapshot};

/// Whether a series' value is invariant to execution strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Stability {
    /// Depends only on the simulated workload: identical for any thread
    /// count, chunking, cache setting, or shard partition. Safe to embed in
    /// byte-stable artifacts such as `ShardReport`.
    Stable,
    /// Scheduling- or wall-clock-dependent (durations, cache effectiveness,
    /// liveness gauges). Exposed through the sidecar exposition only.
    Observational,
}

/// A saturating, monotonically non-decreasing `u64` counter.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
    enabled: bool,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`, saturating at `u64::MAX` instead of wrapping.
    #[inline]
    pub fn add(&self, n: u64) {
        if !self.enabled || n == 0 {
            return;
        }
        let _ = self
            .cell
            // relaxed: single-cell counter; no other memory is published
            // under it, and the exposition layer tolerates skew between
            // cells (PR 7 monotone clamp).
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_add(n))
            });
    }

    /// The current value.
    pub fn value(&self) -> u64 {
        // relaxed: single-cell read; freshness, not ordering, is all a
        // metrics scrape can ask of a live counter.
        self.cell.load(Ordering::Relaxed)
    }
}

/// A signed gauge supporting set/add/sub and running-maximum updates.
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
    enabled: bool,
}

impl Gauge {
    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        if self.enabled {
            // relaxed: single-cell gauge write; readers only need some
            // recent value, never a happens-before edge.
            self.cell.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `d` (saturating).
    #[inline]
    pub fn add(&self, d: i64) {
        if !self.enabled {
            return;
        }
        let _ = self
            .cell
            // relaxed: single-cell read-modify-write; RMW atomicity alone
            // guarantees no lost updates.
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_add(d))
            });
    }

    /// Subtracts `d` (saturating).
    ///
    /// Saturation applies to the *subtraction on the cell value*, not to a
    /// pre-negation of `d`: `d.saturating_neg()` would map `i64::MIN` to
    /// `i64::MAX` and turn the most negative delta into an off-by-one add.
    #[inline]
    pub fn sub(&self, d: i64) {
        if !self.enabled {
            return;
        }
        let _ = self
            .cell
            // relaxed: single-cell read-modify-write, as in `add`.
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(d))
            });
    }

    /// Raises the gauge to `v` if it is currently lower.
    #[inline]
    pub fn set_max(&self, v: i64) {
        if self.enabled {
            // relaxed: fetch_max is an atomic RMW; racing maxima converge to
            // the true maximum regardless of ordering.
            self.cell.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// The current value.
    pub fn value(&self) -> i64 {
        // relaxed: single-cell read, as in `Counter::value`.
        self.cell.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Bucket upper bounds, strictly increasing; an implicit `+Inf` bucket
    /// follows (`count` doubles as its cumulative value).
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket histogram over `u64` observations (nanoseconds by
/// convention). Sums are saturating integer adds, so merged histograms are
/// independent of merge order.
#[derive(Debug, Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
    enabled: bool,
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, value: u64) {
        if !self.enabled {
            return;
        }
        // relaxed (all three cells): bucket/sum/count are updated without a
        // transaction on purpose — a scrape may see count ahead of a bucket,
        // and the exposition layer re-derives a consistent view by clamping
        // cumulative buckets monotonically (PR 7). Stronger orderings here
        // would not close that window, only slow the hot path. Every
        // interleaving of this method against a snapshot is exhaustively
        // model-checked in telemetry/tests/interleave_harness.rs
        // (histogram_snapshot_tearing_is_repaired_by_the_exposition_clamp).
        if let Some(i) = self.core.bounds.iter().position(|&b| value <= b) {
            // relaxed: see the tearing note above.
            self.core.buckets[i].fetch_add(1, Ordering::Relaxed);
        }
        let _ = self
            .core
            .sum
            // relaxed: see the tearing note above.
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_add(value))
            });
        // relaxed: see the tearing note above.
        self.core.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Starts a timer that observes the elapsed nanoseconds when dropped.
    /// On a disabled registry the clock is never read.
    #[inline]
    pub fn start_timer(&self) -> ScopedTimer {
        ScopedTimer {
            histogram: self.clone(),
            start: self.enabled.then(Instant::now),
        }
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        // relaxed: single-cell read for display; see `observe`.
        self.core.count.load(Ordering::Relaxed)
    }

    fn absorb_sample(&self, sample: &HistogramSample) {
        for (bucket, add) in self.core.buckets.iter().zip(&sample.buckets) {
            // relaxed: same per-cell merge discipline as `observe` — the
            // exposition clamp handles cross-cell skew.
            bucket.fetch_add(*add, Ordering::Relaxed);
        }
        let _ = self
            .core
            .sum
            // relaxed: see `observe`.
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_add(sample.sum))
            });
        // relaxed: see `observe`.
        self.core.count.fetch_add(sample.count, Ordering::Relaxed);
    }
}

/// Guard returned by [`Histogram::start_timer`]; observes the elapsed time
/// into the histogram on drop.
#[derive(Debug)]
pub struct ScopedTimer {
    histogram: Histogram,
    start: Option<Instant>,
}

impl ScopedTimer {
    /// Stops the timer early, recording the elapsed nanoseconds now.
    pub fn stop(mut self) {
        self.record();
    }

    fn record(&mut self) {
        if let Some(start) = self.start.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.histogram.observe(ns);
        }
    }
}

impl Drop for ScopedTimer {
    fn drop(&mut self) {
        self.record();
    }
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct SeriesKey {
    name: String,
    labels: Vec<(String, String)>,
}

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug)]
struct Series {
    help: String,
    stability: Stability,
    instrument: Instrument,
}

#[derive(Debug)]
struct RegistryInner {
    /// Process-unique, never reused: see [`Registry::id`].
    id: u64,
    enabled: bool,
    series: RwLock<BTreeMap<SeriesKey, Series>>,
}

/// The id the next registry created in this process gets.
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

impl RegistryInner {
    fn new(enabled: bool) -> Self {
        Self {
            // relaxed: ids only need to be distinct, which the RMW's
            // atomicity guarantees; no other memory is published under the
            // counter.
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            enabled,
            series: RwLock::new(BTreeMap::new()),
        }
    }
}

/// A collection of named instruments. Cloning shares the underlying store;
/// handles resolved from any clone observe into the same series.
///
/// Registration (the `counter`/`gauge`/`histogram` methods) takes a write
/// lock; the returned handles are lock-free. Callers on hot paths resolve
/// handles once and reuse them.
#[derive(Debug, Clone)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Default for Registry {
    /// Same as [`Registry::new`].
    fn default() -> Self {
        Self::new()
    }
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    if name.starts_with("__") {
        return false;
    }
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn validated_key(name: &str, labels: &[(&str, &str)]) -> Result<SeriesKey, TelemetryError> {
    if !valid_metric_name(name) {
        return Err(TelemetryError::InvalidMetricName {
            name: name.to_string(),
        });
    }
    let mut owned: Vec<(String, String)> = Vec::with_capacity(labels.len());
    for (label, value) in labels {
        if !valid_label_name(label) {
            return Err(TelemetryError::InvalidLabelName {
                label: (*label).to_string(),
            });
        }
        if value.is_empty() {
            return Err(TelemetryError::EmptyLabelValue {
                label: (*label).to_string(),
            });
        }
        owned.push(((*label).to_string(), (*value).to_string()));
    }
    owned.sort();
    Ok(SeriesKey {
        name: name.to_string(),
        labels: owned,
    })
}

impl Registry {
    /// Creates an empty, enabled registry.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(RegistryInner::new(true)),
        }
    }

    /// Creates a registry whose instruments are no-ops: registration still
    /// validates and returns handles, but `inc`/`observe`/timers do nothing
    /// (timers never read the clock). Used to measure instrumentation
    /// overhead against a true baseline.
    pub fn disabled() -> Self {
        Self {
            inner: Arc::new(RegistryInner::new(false)),
        }
    }

    /// An identity token for handle caching: assigned from a process-wide
    /// counter when the registry is created, shared by its clones, and never
    /// given to another registry — not even after this one is dropped, so a
    /// cache keyed on it can never mistake a new registry for a dead one
    /// (see [`HandleCache`](crate::HandleCache)).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Registers (or resolves) a counter series.
    ///
    /// # Errors
    ///
    /// [`TelemetryError`] when the name or labels are invalid, or the series
    /// exists with a different kind, help, or stability.
    pub fn counter(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        stability: Stability,
    ) -> Result<Counter, TelemetryError> {
        let key = validated_key(name, labels)?;
        let enabled = self.inner.enabled;
        let create = || {
            Instrument::Counter(Counter {
                cell: Arc::new(AtomicU64::new(0)),
                enabled,
            })
        };
        match self.resolve(key, "counter", help, stability, create)? {
            Instrument::Counter(counter) => Ok(counter),
            _ => unreachable!("kind checked on resolution"),
        }
    }

    /// Registers (or resolves) a gauge series.
    ///
    /// # Errors
    ///
    /// [`TelemetryError`] when the name or labels are invalid, or the series
    /// exists with a different kind, help, or stability.
    pub fn gauge(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        stability: Stability,
    ) -> Result<Gauge, TelemetryError> {
        let key = validated_key(name, labels)?;
        let enabled = self.inner.enabled;
        let create = || {
            Instrument::Gauge(Gauge {
                cell: Arc::new(AtomicI64::new(0)),
                enabled,
            })
        };
        match self.resolve(key, "gauge", help, stability, create)? {
            Instrument::Gauge(gauge) => Ok(gauge),
            _ => unreachable!("kind checked on resolution"),
        }
    }

    /// Registers (or resolves) a histogram series with the given bucket
    /// upper bounds (strictly increasing; an implicit `+Inf` bucket is
    /// always appended at exposition time).
    ///
    /// # Errors
    ///
    /// [`TelemetryError`] when the name, labels, or bounds are invalid, or
    /// the series exists with different metadata or bucket layout.
    pub fn histogram(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        stability: Stability,
        bounds: &[u64],
    ) -> Result<Histogram, TelemetryError> {
        let key = validated_key(name, labels)?;
        if bounds.is_empty() || bounds.windows(2).any(|w| w[0] >= w[1]) {
            return Err(TelemetryError::KindMismatch {
                name: key.name,
                detail: "histogram bounds must be non-empty and strictly increasing".to_string(),
            });
        }
        let enabled = self.inner.enabled;
        let create = || {
            Instrument::Histogram(Histogram {
                core: Arc::new(HistogramCore {
                    bounds: bounds.to_vec(),
                    buckets: bounds.iter().map(|_| AtomicU64::new(0)).collect(),
                    sum: AtomicU64::new(0),
                    count: AtomicU64::new(0),
                }),
                enabled,
            })
        };
        let histogram = match self.resolve(key, "histogram", help, stability, create)? {
            Instrument::Histogram(histogram) => histogram,
            _ => unreachable!("kind checked on resolution"),
        };
        if histogram.core.bounds != bounds {
            return Err(TelemetryError::KindMismatch {
                name: name.to_string(),
                detail: "histogram bucket bounds differ".to_string(),
            });
        }
        Ok(histogram)
    }

    /// The lookup path every instrument kind shares: under the write lock,
    /// resolves the series at `key`, whose kind, help and stability must
    /// match, or registers the instrument `create` builds.
    fn resolve(
        &self,
        key: SeriesKey,
        kind: &'static str,
        help: &str,
        stability: Stability,
        create: impl FnOnce() -> Instrument,
    ) -> Result<Instrument, TelemetryError> {
        let mut store = self
            .inner
            .series
            .write()
            .expect("telemetry registry poisoned");
        if let Some(existing) = store.get(&key) {
            check_meta(existing, kind, help, stability, &key.name)?;
            return Ok(existing.instrument.clone());
        }
        let instrument = create();
        store.insert(
            key,
            Series {
                help: help.to_string(),
                stability,
                instrument: instrument.clone(),
            },
        );
        Ok(instrument)
    }

    /// A point-in-time snapshot of every series, sorted by `(name, labels)`.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.snapshot_filtered(None)
    }

    /// Like [`Registry::snapshot`] but containing only
    /// [`Stability::Stable`] series — the subset safe to embed in
    /// byte-stable artifacts.
    pub fn snapshot_stable(&self) -> MetricsSnapshot {
        self.snapshot_filtered(Some(Stability::Stable))
    }

    /// Snapshots the registry and renders it as Prometheus text exposition in
    /// one call — the live scrape path of a serving process (e.g. `fleetd`'s
    /// `GET /metrics`), as opposed to the `--metrics-out` file the one-shot
    /// CLIs write at exit. Each call observes the registry at that instant;
    /// two scrapes of a busy process legitimately differ.
    pub fn exposition(&self) -> String {
        crate::text::render_text(&self.snapshot())
    }

    fn snapshot_filtered(&self, only: Option<Stability>) -> MetricsSnapshot {
        let store = self
            .inner
            .series
            .read()
            .expect("telemetry registry poisoned");
        let mut snap = MetricsSnapshot::default();
        for (key, series) in store.iter() {
            if only.is_some_and(|s| series.stability != s) {
                continue;
            }
            match &series.instrument {
                Instrument::Counter(c) => snap.counters.push(CounterSample {
                    name: key.name.clone(),
                    labels: key.labels.clone(),
                    help: series.help.clone(),
                    stability: series.stability,
                    value: c.value(),
                }),
                Instrument::Gauge(g) => snap.gauges.push(GaugeSample {
                    name: key.name.clone(),
                    labels: key.labels.clone(),
                    help: series.help.clone(),
                    stability: series.stability,
                    value: g.value(),
                }),
                Instrument::Histogram(h) => snap.histograms.push(HistogramSample {
                    name: key.name.clone(),
                    labels: key.labels.clone(),
                    help: series.help.clone(),
                    stability: series.stability,
                    bounds: h.core.bounds.clone(),
                    buckets: h
                        .core
                        .buckets
                        .iter()
                        // relaxed: snapshot reads race in-flight `observe`
                        // calls by design; the exposition clamp repairs
                        // cross-cell skew, so acquire loads buy nothing —
                        // proven over every interleaving in
                        // telemetry/tests/interleave_harness.rs.
                        .map(|b| b.load(Ordering::Relaxed))
                        .collect(),
                    // relaxed: see the bucket note above.
                    sum: h.core.sum.load(Ordering::Relaxed),
                    // relaxed: see the bucket note above.
                    count: h.core.count.load(Ordering::Relaxed),
                }),
            }
        }
        // BTreeMap iteration is already (name, labels)-sorted per kind.
        snap
    }

    /// Folds a snapshot into this registry: missing series are registered
    /// with the snapshot's metadata, counters add (saturating), gauges take
    /// the running maximum, histogram buckets add.
    ///
    /// # Errors
    ///
    /// [`TelemetryError`] when a sample conflicts with an already-registered
    /// series (different kind, help, stability, or bucket bounds).
    pub fn absorb(&self, snapshot: &MetricsSnapshot) -> Result<(), TelemetryError> {
        for sample in &snapshot.counters {
            let labels = borrow_labels(&sample.labels);
            let counter = self.counter(&sample.name, &labels, &sample.help, sample.stability)?;
            counter.add(sample.value);
        }
        for sample in &snapshot.gauges {
            let labels = borrow_labels(&sample.labels);
            let gauge = self.gauge(&sample.name, &labels, &sample.help, sample.stability)?;
            gauge.set_max(sample.value);
        }
        for sample in &snapshot.histograms {
            let labels = borrow_labels(&sample.labels);
            let histogram = self.histogram(
                &sample.name,
                &labels,
                &sample.help,
                sample.stability,
                &sample.bounds,
            )?;
            histogram.absorb_sample(sample);
        }
        Ok(())
    }
}

fn borrow_labels(labels: &[(String, String)]) -> Vec<(&str, &str)> {
    labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect()
}

fn check_meta(
    existing: &Series,
    kind: &'static str,
    help: &str,
    stability: Stability,
    name: &str,
) -> Result<(), TelemetryError> {
    if existing.instrument.kind() != kind {
        return Err(TelemetryError::KindMismatch {
            name: name.to_string(),
            detail: format!(
                "registered as {}, requested as {kind}",
                existing.instrument.kind()
            ),
        });
    }
    if existing.help != help {
        return Err(TelemetryError::KindMismatch {
            name: name.to_string(),
            detail: "help text differs".to_string(),
        });
    }
    if existing.stability != stability {
        return Err(TelemetryError::KindMismatch {
            name: name.to_string(),
            detail: "stability differs".to_string(),
        });
    }
    Ok(())
}
