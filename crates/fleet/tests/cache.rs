//! Conformance suite for the per-worker profiling-window cache: enabling
//! memoization must be **invisible in every output byte** — for arbitrary
//! seeds, mixes, device counts and cache capacities — while the hit/miss
//! accounting stays exact on a deterministic (single-threaded) executor.

use std::sync::atomic::{AtomicU64, Ordering};

use fleet::{
    run_fleet_range, DeviceReport, ExecutorOptions, FleetSimulation, ProgressSink, ScenarioMix,
    DEFAULT_PROFILE_CACHE_CAPACITY,
};
use proptest::prelude::*;

const GOLDEN: &str = include_str!("fixtures/fleet-64-balanced-seed42.json");

fn options(threads: usize, profile_cache: Option<usize>) -> ExecutorOptions {
    ExecutorOptions {
        threads,
        profile_cache,
        ..ExecutorOptions::default()
    }
}

/// A balanced population drawn from 3 synthesis profiles: devices `i` and
/// `i + 3` share a cache key, so hits and evictions actually happen.
fn pooled(master_seed: u64) -> FleetSimulation {
    let mix = ScenarioMix {
        subject_pool: 3,
        ..ScenarioMix::balanced()
    };
    FleetSimulation::new(master_seed, mix).unwrap()
}

/// Runs devices `0..devices` of `simulation` straight through the executor.
fn run(
    simulation: &FleetSimulation,
    devices: u64,
    options: &ExecutorOptions,
    sink: Option<&dyn ProgressSink>,
) -> Vec<DeviceReport> {
    run_fleet_range(
        simulation.generator(),
        0..devices,
        simulation.zoo(),
        simulation.engine(),
        options,
        sink,
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Cached and uncached fleets serialize byte-identically for arbitrary
    /// `(seed, mix, device count)` — the cache's core guarantee.
    #[test]
    fn cached_and_uncached_reports_are_byte_identical(
        master_seed in 0u64..10_000,
        devices in 1u64..10,
        mix_idx in 0usize..3,
        capacity_idx in 0usize..4,
    ) {
        let capacity = [0usize, 1, 3, usize::MAX][capacity_idx];
        let mix = [ScenarioMix::balanced(), ScenarioMix::harsh(), ScenarioMix::connected()][mix_idx];
        let simulation = FleetSimulation::new(master_seed, mix).unwrap();
        let uncached = simulation
            .run_with_options(devices, &options(2, None), None)
            .unwrap();
        let cached = simulation
            .run_with_options(devices, &options(2, Some(capacity)), None)
            .unwrap();
        prop_assert_eq!(
            serde_json::to_string_pretty(&uncached.report).unwrap(),
            serde_json::to_string_pretty(&cached.report).unwrap()
        );
        prop_assert_eq!(&uncached.devices, &cached.devices);
    }
}

/// Eviction pressure never leaks into results: capacity 0 (always miss),
/// capacity 1 (maximal eviction churn) and unbounded produce the same report
/// as each other and as the uncached run, across thread counts. 32 devices
/// give each of 4 workers its own 8-device executor chunk, so every worker
/// runs its own cache.
#[test]
fn eviction_determinism_across_capacities() {
    let simulation = pooled(11);
    let reference = run(&simulation, 32, &options(1, None), None);
    for threads in [1usize, 4] {
        for capacity in [0usize, 1, usize::MAX] {
            let cached = run(&simulation, 32, &options(threads, Some(capacity)), None);
            assert_eq!(
                cached, reference,
                "capacity {capacity} at {threads} threads changed a report"
            );
        }
    }
}

#[derive(Default)]
struct CacheStatsSink {
    hits: AtomicU64,
    misses: AtomicU64,
    calls: AtomicU64,
}

impl ProgressSink for CacheStatsSink {
    fn windows_processed(&self, _device_id: u64, _count: usize) {}

    fn device_completed(&self, _device_id: u64, _windows: usize) {}

    fn profile_cache(&self, hits: u64, misses: u64) {
        // relaxed: assertions read these after the executor returned, so
        // the worker join already orders every store.
        self.hits.store(hits, Ordering::Relaxed);
        // relaxed: ordered by the worker join, as above.
        self.misses.store(misses, Ordering::Relaxed);
        // relaxed: ordered by the worker join, as above.
        self.calls.fetch_add(1, Ordering::Relaxed);
    }
}

/// On one worker thread the accounting is exact: misses equal the distinct
/// cache keys, hits equal the repeats, and the counters arrive exactly once
/// per run through `ProgressSink::profile_cache`.
#[test]
fn hit_and_miss_counters_account_for_every_device() {
    let simulation = pooled(5);
    // 3 distinct profiles, 9 devices: 3 misses + 6 hits with room to cache.
    let sink = CacheStatsSink::default();
    let outcome = run(
        &simulation,
        9,
        &options(1, Some(DEFAULT_PROFILE_CACHE_CAPACITY)),
        Some(&sink),
    );
    assert_eq!(outcome.len(), 9);
    // relaxed: post-join test assertion.
    assert_eq!(sink.calls.load(Ordering::Relaxed), 1);
    // relaxed: post-join test assertion.
    assert_eq!(sink.misses.load(Ordering::Relaxed), 3);
    // relaxed: post-join test assertion.
    assert_eq!(sink.hits.load(Ordering::Relaxed), 6);

    // Capacity 0 stores nothing: every device misses.
    let cold = CacheStatsSink::default();
    run(&simulation, 9, &options(1, Some(0)), Some(&cold));
    // relaxed: post-join test assertion.
    assert_eq!(cold.misses.load(Ordering::Relaxed), 9);
    // relaxed: post-join test assertion.
    assert_eq!(cold.hits.load(Ordering::Relaxed), 0);

    // Cache disabled: the sink is never called.
    let off = CacheStatsSink::default();
    run(&simulation, 9, &options(1, None), Some(&off));
    // relaxed: post-join test assertion.
    assert_eq!(off.calls.load(Ordering::Relaxed), 0);
}

/// The generator's own cohort mechanism feeds the cache end to end: a
/// `cohort` fleet run through `FleetSimulation` (the CLI path) hits for
/// every device beyond the first of its pool slot, and the report matches
/// the uncached run byte for byte.
#[test]
fn cohort_mix_hits_the_cache_through_the_full_pipeline() {
    let simulation = FleetSimulation::new(13, ScenarioMix::cohort()).unwrap();
    let pool = ScenarioMix::cohort().subject_pool;
    let devices = 2 * pool;

    let uncached = simulation
        .run_with_options(devices, &options(1, None), None)
        .unwrap();
    let sink = CacheStatsSink::default();
    let cached = simulation
        .run_with_options(
            devices,
            &options(1, Some(DEFAULT_PROFILE_CACHE_CAPACITY)),
            Some(&sink),
        )
        .unwrap();
    assert_eq!(
        serde_json::to_string_pretty(&uncached.report).unwrap(),
        serde_json::to_string_pretty(&cached.report).unwrap()
    );
    assert_eq!(uncached.devices, cached.devices);
    // One miss per pool slot, one hit per repeat — exact on one thread.
    // relaxed: post-join test assertion.
    assert_eq!(sink.misses.load(Ordering::Relaxed), pool);
    // relaxed: post-join test assertion.
    assert_eq!(sink.hits.load(Ordering::Relaxed), devices - pool);
}

/// The committed 64-device golden fixture is reproduced byte-for-byte with
/// the cache enabled — the same guarantee the CI smoke job checks through
/// the `fleet --profile-cache` CLI.
#[test]
fn golden_fixture_is_byte_identical_with_the_cache_enabled() {
    let simulation = FleetSimulation::new(42, ScenarioMix::balanced()).unwrap();
    let outcome = simulation
        .run_with_options(64, &options(0, Some(DEFAULT_PROFILE_CACHE_CAPACITY)), None)
        .unwrap();
    let json = serde_json::to_string_pretty(&outcome.report).unwrap();
    assert_eq!(
        format!("{json}\n"),
        GOLDEN,
        "enabling the profile cache moved a population-level number"
    );
}
