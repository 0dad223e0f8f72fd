//! Conformance suite for the per-worker profiling-window cache: enabling
//! memoization must be **invisible in every output byte** — for arbitrary
//! seeds, mixes, device counts and cache capacities — while the hit/miss
//! accounting stays exact on a deterministic (single-threaded) executor.

use fleet::{
    run_fleet_range, DeviceReport, ExecutorOptions, FleetSimulation, ScenarioMix,
    DEFAULT_PROFILE_CACHE_CAPACITY, PROFILE_CACHE_EVENTS_SERIES,
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
fn run(simulation: &FleetSimulation, devices: u64, options: &ExecutorOptions) -> Vec<DeviceReport> {
    run_fleet_range(
        simulation.generator(),
        0..devices,
        simulation.zoo(),
        simulation.engine(),
        options,
        None,
    )
    .unwrap()
}

/// The `(hits, misses)` a run recorded into a private registry, `None` when
/// it recorded no cache series.
fn cache_counters(registry: &telemetry::Registry) -> Option<(u64, u64)> {
    let snapshot = registry.snapshot();
    let event = |result| snapshot.counter_value(PROFILE_CACHE_EVENTS_SERIES, &[("result", result)]);
    Some((event("hit")?, event("miss")?))
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
    let reference = run(&simulation, 32, &options(1, None));
    for threads in [1usize, 4] {
        for capacity in [0usize, 1, usize::MAX] {
            let cached = run(&simulation, 32, &options(threads, Some(capacity)));
            assert_eq!(
                cached, reference,
                "capacity {capacity} at {threads} threads changed a report"
            );
        }
    }
}

/// On one worker thread the accounting is exact: misses equal the distinct
/// cache keys, hits equal the repeats, and both land in the registry that
/// was active when the run started.
#[test]
fn hit_and_miss_counters_account_for_every_device() {
    let simulation = pooled(5);
    let counted = |capacity| {
        let registry = telemetry::Registry::new();
        let _scope = telemetry::scoped(&registry);
        assert_eq!(run(&simulation, 9, &options(1, capacity)).len(), 9);
        cache_counters(&registry)
    };
    // 3 distinct profiles, 9 devices: 3 misses + 6 hits with room to cache.
    assert_eq!(counted(Some(DEFAULT_PROFILE_CACHE_CAPACITY)), Some((6, 3)));
    // Capacity 0 stores nothing: every device misses.
    assert_eq!(counted(Some(0)), Some((0, 9)));
    // Cache disabled: no cache series is recorded at all.
    assert_eq!(counted(None), None);
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
    let registry = telemetry::Registry::new();
    let cached = {
        let _scope = telemetry::scoped(&registry);
        simulation
            .run_with_options(
                devices,
                &options(1, Some(DEFAULT_PROFILE_CACHE_CAPACITY)),
                None,
            )
            .unwrap()
    };
    assert_eq!(
        serde_json::to_string_pretty(&uncached.report).unwrap(),
        serde_json::to_string_pretty(&cached.report).unwrap()
    );
    assert_eq!(uncached.devices, cached.devices);
    // One miss per pool slot, one hit per repeat — exact on one thread.
    assert_eq!(cache_counters(&registry), Some((devices - pool, pool)));
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
