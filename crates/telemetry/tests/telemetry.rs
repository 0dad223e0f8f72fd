//! Unit and conformance tests for the metrics core: registration
//! validation, saturating arithmetic, exposition escaping and grammar,
//! snapshot merging, scope semantics and the per-thread handle cache.

use telemetry::{
    parse_exposition, render_text, sample_value, HandleCache, Histogram, HistogramSample,
    MetricsSnapshot, Registry, Stability, TelemetryError, DURATION_NS_BOUNDS,
};

#[test]
fn counters_saturate_instead_of_wrapping() {
    let registry = Registry::new();
    let c = registry
        .counter("sat_total", &[], "saturation probe", Stability::Stable)
        .unwrap();
    c.add(u64::MAX - 1);
    c.add(5);
    assert_eq!(c.value(), u64::MAX);
    c.inc();
    assert_eq!(c.value(), u64::MAX);
}

#[test]
fn gauges_support_add_sub_and_running_max() {
    let registry = Registry::new();
    let g = registry
        .gauge("live", &[], "liveness probe", Stability::Observational)
        .unwrap();
    g.add(3);
    g.sub(1);
    assert_eq!(g.value(), 2);
    g.set_max(10);
    g.set_max(4);
    assert_eq!(g.value(), 10);
    g.set(-2);
    assert_eq!(g.value(), -2);
}

#[test]
fn gauge_sub_of_i64_min_saturates_instead_of_adding_max() {
    let registry = Registry::new();
    let g = registry
        .gauge("extreme", &[], "saturation probe", Stability::Observational)
        .unwrap();
    // Subtracting the most negative delta must behave like
    // `v.saturating_sub(i64::MIN)`. The old `d.saturating_neg()` pre-negation
    // collapsed `i64::MIN` to `i64::MAX` and produced `i64::MAX - 5` here.
    g.set(-5);
    g.sub(i64::MIN);
    assert_eq!(g.value(), i64::MAX - 4);
    g.set(10);
    g.sub(i64::MIN);
    assert_eq!(g.value(), i64::MAX);
    // The ordinary path is unchanged.
    g.set(7);
    g.sub(3);
    assert_eq!(g.value(), 4);
    g.set(i64::MIN);
    g.sub(1);
    assert_eq!(g.value(), i64::MIN);
}

#[test]
fn torn_histogram_snapshot_still_renders_a_monotone_cdf() {
    // `observe()` bumps bucket and count as independent relaxed atomics, so
    // a concurrent snapshot can capture the bucket increment but not the
    // count increment: 3 + 2 = 5 bucketed observations, count still 4.
    let mut snapshot = MetricsSnapshot::default();
    snapshot.histograms.push(HistogramSample {
        name: "chris_torn_ns".to_string(),
        labels: Vec::new(),
        help: "torn snapshot probe".to_string(),
        stability: Stability::Observational,
        bounds: vec![250, 1_000],
        buckets: vec![3, 2],
        sum: 900,
        count: 4,
    });
    let samples = parse_exposition(&render_text(&snapshot)).unwrap();
    // The +Inf line is clamped up to the last finite cumulative bucket...
    assert_eq!(
        sample_value(&samples, "chris_torn_ns_bucket{le=\"+Inf\"}"),
        Some(5.0)
    );
    assert_eq!(
        sample_value(&samples, "chris_torn_ns_bucket{le=\"1000\"}"),
        Some(5.0)
    );
    // ...and _count is clamped with it: Prometheus requires
    // `_count == _bucket{le="+Inf"}`, and a scraper that trusts the raw
    // torn count would see a CDF whose tail exceeds its total.
    assert_eq!(sample_value(&samples, "chris_torn_ns_count"), Some(5.0));

    // A consistent snapshot is untouched: +Inf and _count equal the count.
    snapshot.histograms[0].count = 6;
    let samples = parse_exposition(&render_text(&snapshot)).unwrap();
    assert_eq!(
        sample_value(&samples, "chris_torn_ns_bucket{le=\"+Inf\"}"),
        Some(6.0)
    );
    assert_eq!(sample_value(&samples, "chris_torn_ns_count"), Some(6.0));
}

#[test]
fn invalid_names_and_labels_are_rejected_with_typed_errors() {
    let registry = Registry::new();
    assert!(matches!(
        registry.counter("", &[], "h", Stability::Stable),
        Err(TelemetryError::InvalidMetricName { .. })
    ));
    assert!(matches!(
        registry.counter("9leading_digit", &[], "h", Stability::Stable),
        Err(TelemetryError::InvalidMetricName { .. })
    ));
    assert!(matches!(
        registry.counter("has space", &[], "h", Stability::Stable),
        Err(TelemetryError::InvalidMetricName { .. })
    ));
    assert!(matches!(
        registry.counter("ok_total", &[("", "v")], "h", Stability::Stable),
        Err(TelemetryError::InvalidLabelName { .. })
    ));
    assert!(matches!(
        registry.counter("ok_total", &[("__reserved", "v")], "h", Stability::Stable),
        Err(TelemetryError::InvalidLabelName { .. })
    ));
    assert!(matches!(
        registry.counter("ok_total", &[("label", "")], "h", Stability::Stable),
        Err(TelemetryError::EmptyLabelValue { .. })
    ));
}

#[test]
fn re_registration_resolves_the_same_series_or_errors_on_mismatch() {
    let registry = Registry::new();
    let a = registry
        .counter("dup_total", &[("k", "v")], "help", Stability::Stable)
        .unwrap();
    let b = registry
        .counter("dup_total", &[("k", "v")], "help", Stability::Stable)
        .unwrap();
    a.add(2);
    b.add(3);
    assert_eq!(a.value(), 5);
    assert!(matches!(
        registry.gauge("dup_total", &[("k", "v")], "help", Stability::Stable),
        Err(TelemetryError::KindMismatch { .. })
    ));
    assert!(matches!(
        registry.counter("dup_total", &[("k", "v")], "other help", Stability::Stable),
        Err(TelemetryError::KindMismatch { .. })
    ));
    assert!(matches!(
        registry.counter("dup_total", &[("k", "v")], "help", Stability::Observational),
        Err(TelemetryError::KindMismatch { .. })
    ));
}

#[test]
fn histogram_bounds_must_be_strictly_increasing_and_consistent() {
    let registry = Registry::new();
    assert!(registry
        .histogram("h_ns", &[], "h", Stability::Observational, &[])
        .is_err());
    assert!(registry
        .histogram("h_ns", &[], "h", Stability::Observational, &[5, 5])
        .is_err());
    registry
        .histogram("h_ns", &[], "h", Stability::Observational, &[1, 2, 3])
        .unwrap();
    assert!(matches!(
        registry.histogram("h_ns", &[], "h", Stability::Observational, &[1, 2]),
        Err(TelemetryError::KindMismatch { .. })
    ));
}

#[test]
fn exposition_escapes_newlines_quotes_and_backslashes() {
    let registry = Registry::new();
    registry
        .counter(
            "esc_total",
            &[("path", "a\\b\"c\nd")],
            "help with\nnewline and \\ backslash",
            Stability::Stable,
        )
        .unwrap()
        .inc();
    let text = render_text(&registry.snapshot());
    assert!(text.contains("# HELP esc_total help with\\nnewline and \\\\ backslash"));
    assert!(text.contains("esc_total{path=\"a\\\\b\\\"c\\nd\"} 1"));
    // The escaped form must survive a parse round-trip.
    let samples = parse_exposition(&text).unwrap();
    assert_eq!(
        sample_value(&samples, "esc_total{path=\"a\\\\b\\\"c\\nd\"}"),
        Some(1.0)
    );
}

#[test]
fn render_is_deterministic_and_groups_families() {
    let registry = Registry::new();
    for backend in ["wearable", "phone"] {
        registry
            .counter(
                "decisions_total",
                &[("backend", backend)],
                "offload decisions",
                Stability::Stable,
            )
            .unwrap()
            .add(2);
    }
    let h = registry
        .histogram(
            "stage_duration_ns",
            &[("stage", "fft")],
            "stage durations",
            Stability::Observational,
            &DURATION_NS_BOUNDS,
        )
        .unwrap();
    h.observe(500);
    h.observe(2_000_000);
    let text = render_text(&registry.snapshot());
    assert_eq!(text, render_text(&registry.snapshot()));
    // One HELP/TYPE pair per family, series sorted by label set.
    assert_eq!(text.matches("# TYPE decisions_total counter").count(), 1);
    let phone = text.find("backend=\"phone\"").unwrap();
    let wearable = text.find("backend=\"wearable\"").unwrap();
    assert!(phone < wearable);
    let samples = parse_exposition(&text).unwrap();
    assert_eq!(
        sample_value(&samples, "stage_duration_ns_count{stage=\"fft\"}"),
        Some(2.0)
    );
    assert_eq!(
        sample_value(
            &samples,
            "stage_duration_ns_bucket{le=\"+Inf\",stage=\"fft\"}"
        ),
        Some(2.0)
    );
    // Cumulative buckets: the 1_000 bucket holds only the 500ns observation.
    assert_eq!(
        sample_value(
            &samples,
            "stage_duration_ns_bucket{le=\"1000\",stage=\"fft\"}"
        ),
        Some(1.0)
    );
}

#[test]
fn parser_rejects_malformed_lines() {
    assert!(parse_exposition("name{unterminated 3").is_err());
    assert!(parse_exposition("name{l=\"v\"} not_a_number").is_err());
    assert!(parse_exposition("9bad 1").is_err());
    assert!(parse_exposition("# TYPE x flavor").is_err());
    assert!(parse_exposition("name{l=v} 1").is_err());
}

#[test]
fn snapshots_merge_commutatively_and_reject_conflicts() {
    let a = Registry::new();
    let b = Registry::new();
    for (reg, n) in [(&a, 3u64), (&b, 4u64)] {
        reg.counter("windows_total", &[], "windows", Stability::Stable)
            .unwrap()
            .add(n);
        let h = reg
            .histogram(
                "lat_ns",
                &[],
                "latency",
                Stability::Observational,
                &[10, 100],
            )
            .unwrap();
        h.observe(n);
    }
    b.counter("only_b_total", &[], "b-only", Stability::Stable)
        .unwrap()
        .inc();
    let sa = a.snapshot();
    let sb = b.snapshot();
    let ab = sa.merged(&sb).unwrap();
    let ba = sb.merged(&sa).unwrap();
    assert_eq!(ab, ba);
    assert_eq!(ab.counter_value("windows_total", &[]), Some(7));
    assert_eq!(ab.counter_value("only_b_total", &[]), Some(1));

    let conflicting = Registry::new();
    conflicting
        .counter("windows_total", &[], "different help", Stability::Stable)
        .unwrap();
    assert!(matches!(
        sa.merged(&conflicting.snapshot()),
        Err(TelemetryError::MergeConflict { .. })
    ));
}

#[test]
fn absorb_folds_a_snapshot_into_a_registry() {
    let worker = Registry::new();
    worker
        .counter("windows_total", &[], "windows", Stability::Stable)
        .unwrap()
        .add(9);
    let batch = Registry::new();
    batch.absorb(&worker.snapshot()).unwrap();
    batch.absorb(&worker.snapshot()).unwrap();
    assert_eq!(
        batch.snapshot().counter_value("windows_total", &[]),
        Some(18)
    );
}

#[test]
fn stable_snapshot_filters_observational_series() {
    let registry = Registry::new();
    registry
        .counter("stable_total", &[], "s", Stability::Stable)
        .unwrap();
    registry
        .counter("obs_total", &[], "o", Stability::Observational)
        .unwrap();
    let stable = registry.snapshot_stable();
    assert_eq!(stable.len(), 1);
    assert_eq!(stable.counter_value("stable_total", &[]), Some(0));
}

#[test]
fn snapshot_serializes_round_trip() {
    let registry = Registry::new();
    registry
        .counter("rt_total", &[("k", "v")], "round trip", Stability::Stable)
        .unwrap()
        .add(7);
    registry
        .histogram("rt_ns", &[], "hist", Stability::Observational, &[1, 10])
        .unwrap()
        .observe(3);
    let snap = registry.snapshot();
    let json = serde_json::to_string(&snap).unwrap();
    let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(back, snap);
}

#[test]
fn scopes_nest_and_fall_back_to_global() {
    let outer = Registry::new();
    let inner = Registry::new();
    assert_eq!(telemetry::active().id(), telemetry::global().id());
    {
        let _o = telemetry::scoped(&outer);
        assert_eq!(telemetry::active().id(), outer.id());
        {
            let _i = telemetry::scoped(&inner);
            assert_eq!(telemetry::active().id(), inner.id());
        }
        assert_eq!(telemetry::active().id(), outer.id());
        // Spawned threads do not inherit the scope.
        let outer_id = outer.id();
        std::thread::scope(|s| {
            s.spawn(move || {
                assert_ne!(telemetry::active().id(), outer_id);
            });
        });
    }
    assert_eq!(telemetry::active().id(), telemetry::global().id());
}

#[test]
fn disabled_registry_records_nothing() {
    let registry = Registry::disabled();
    let c = registry
        .counter("noop_total", &[], "noop", Stability::Stable)
        .unwrap();
    c.add(100);
    assert_eq!(c.value(), 0);
    let h = registry
        .histogram("noop_ns", &[], "noop", Stability::Observational, &[1, 2])
        .unwrap();
    h.observe(5);
    drop(h.start_timer());
    assert_eq!(h.count(), 0);
}

#[test]
fn registry_ids_are_shared_by_clones_and_never_reused() {
    let registry = Registry::new();
    assert_eq!(registry.clone().id(), registry.id());
    // Dropped registries free their allocation for the next one; their ids
    // must stay retired all the same.
    let mut ids: Vec<u64> = (0..64)
        .map(|i| {
            if i % 2 == 0 {
                Registry::new().id()
            } else {
                Registry::disabled().id()
            }
        })
        .collect();
    ids.push(registry.id());
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 65);
}

/// Times one observation of `stage` through `cache`, which resolves the
/// stage's duration histogram from the active registry.
fn time_stage(cache: &HandleCache<Histogram>, stage: &str) {
    cache.with(
        |registry| {
            registry
                .histogram(
                    telemetry::STAGE_DURATION_SERIES,
                    &[("stage", stage)],
                    telemetry::STAGE_DURATION_HELP,
                    Stability::Observational,
                    &DURATION_NS_BOUNDS,
                )
                .unwrap()
        },
        |histogram| drop(histogram.start_timer()),
    );
}

#[test]
fn handles_re_resolve_when_the_active_registry_changes() {
    let cache = HandleCache::new();
    let a = Registry::new();
    let b = Registry::new();
    for registry in [&a, &b] {
        let _scope = telemetry::scoped(registry);
        time_stage(&cache, "features");
    }
    for registry in [&a, &b] {
        let snap = registry.snapshot();
        let features = snap
            .histograms
            .iter()
            .find(|h| h.labels == vec![("stage".to_string(), "features".to_string())])
            .expect("features series registered");
        assert_eq!(features.count, 1);
    }
}

#[test]
fn a_new_registry_is_never_served_a_dropped_ones_handles() {
    // A registry dropped and replaced on the same thread: the new one
    // often reuses the old one's allocation, so an address-keyed cache
    // would keep timing into the dead registry.
    let cache = HandleCache::new();
    let a = Registry::new();
    {
        let _scope = telemetry::scoped(&a);
        time_stage(&cache, "fft");
    }
    drop(a);
    let b = Registry::new();
    {
        let _scope = telemetry::scoped(&b);
        time_stage(&cache, "fft");
    }
    let exposition = b.exposition();
    assert!(
        exposition.contains("chris_stage_duration_ns_count{stage=\"fft\"} 1"),
        "{exposition}"
    );
}
