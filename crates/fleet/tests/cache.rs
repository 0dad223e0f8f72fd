//! Conformance suite for the per-simulation profiling-window cache: enabling
//! memoization must be **invisible in every output byte** — for arbitrary
//! seeds, mixes, device counts, thread counts and the (unread) capacity —
//! while the hit/miss accounting stays exact at any thread count: a
//! simulation synthesizes each pool slot once, over all its runs.

use fleet::{
    merge, run_fleet_range, DeviceReport, ExecutorOptions, FleetSimulation, ScenarioMix, ShardSpec,
    PROFILE_CACHE_EVENTS_SERIES,
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
/// `i + 3` share a pool slot, so hits actually happen.
fn pooled(master_seed: u64) -> FleetSimulation {
    let mix = ScenarioMix {
        subject_pool: 3,
        ..ScenarioMix::balanced()
    };
    FleetSimulation::new(master_seed, mix).unwrap()
}

/// Runs devices `0..devices` of `simulation` straight through the executor.
fn run(simulation: &FleetSimulation, devices: u64, options: &ExecutorOptions) -> Vec<DeviceReport> {
    run_fleet_range(simulation, 0..devices, options, None).unwrap()
}

/// The `(hits, misses)` a run recorded into a private registry, `None` when
/// it recorded no cache series.
fn cache_counters(registry: &telemetry::Registry) -> Option<(u64, u64)> {
    let snapshot = registry.snapshot();
    let event = |result| snapshot.counter_value(PROFILE_CACHE_EVENTS_SERIES, &[("result", result)]);
    Some((event("hit")?, event("miss")?))
}

/// Runs `body` with a fresh private registry active and returns its result
/// with the cache counters it recorded.
fn counted<T>(body: impl FnOnce() -> T) -> (T, Option<(u64, u64)>) {
    let registry = telemetry::Registry::new();
    let result = {
        let _scope = telemetry::scoped(&registry);
        body()
    };
    (result, cache_counters(&registry))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Cached and uncached fleets serialize byte-identically for arbitrary
    /// `(seed, mix, device count, capacity)` — the cache's core guarantee.
    #[test]
    fn cached_and_uncached_reports_are_byte_identical(
        master_seed in 0u64..10_000,
        devices in 1u64..10,
        mix_idx in 0usize..4,
        capacity_idx in 0usize..4,
    ) {
        let capacity = [0usize, 1, 3, usize::MAX][capacity_idx];
        let mix = [
            ScenarioMix::balanced(),
            ScenarioMix::harsh(),
            ScenarioMix::connected(),
            ScenarioMix::cohort(),
        ][mix_idx];
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

/// The capacity inside `Some` is never read: 0, 1 and unbounded give the
/// same reports as each other and as the uncached run, and the same
/// counters, at one thread and at four. 32 devices give each of 4 workers
/// its own 8-device executor chunk, so workers race for the 3 slots.
#[test]
fn capacity_never_changes_reports_or_counters() {
    let reference = run(&pooled(11), 32, &options(1, None));
    for threads in [1usize, 4] {
        for capacity in [0usize, 1, usize::MAX] {
            // A fresh simulation per run, so every run fills its own slots.
            let simulation = pooled(11);
            let (cached, counters) =
                counted(|| run(&simulation, 32, &options(threads, Some(capacity))));
            assert_eq!(
                cached, reference,
                "capacity {capacity} at {threads} threads changed a report"
            );
            assert_eq!(
                counters,
                Some((29, 3)),
                "capacity {capacity} at {threads} threads"
            );
        }
    }
}

/// The accounting is exact: misses equal the pool slots filled, hits the
/// devices that replayed a filled slot, and both land in the registry that
/// was active when the run started. A later run of the same simulation
/// finds every slot filled.
#[test]
fn hit_and_miss_counters_account_for_every_device() {
    let simulation = pooled(5);
    let (reports, counters) = counted(|| run(&simulation, 9, &options(2, Some(usize::MAX))));
    assert_eq!(reports.len(), 9);
    // 3 distinct profiles, 9 devices: 3 misses + 6 hits.
    assert_eq!(counters, Some((6, 3)));
    // The slots outlive the run: the simulation's next run only hits.
    let (again, counters) = counted(|| run(&simulation, 9, &options(1, Some(0))));
    assert_eq!(again, reports);
    assert_eq!(counters, Some((9, 0)));
    // Cache disabled: no cache series is recorded at all.
    assert_eq!(counted(|| run(&simulation, 9, &options(1, None))).1, None);
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
    let (cached, counters) = counted(|| {
        simulation
            .run_with_options(devices, &options(1, Some(usize::MAX)), None)
            .unwrap()
    });
    assert_eq!(
        serde_json::to_string_pretty(&uncached.report).unwrap(),
        serde_json::to_string_pretty(&cached.report).unwrap()
    );
    assert_eq!(uncached.devices, cached.devices);
    // One miss per pool slot, one hit per repeat.
    assert_eq!(counters, Some((devices - pool, pool)));
}

/// The shards of one simulation share its slots, as a `fleetd` job's
/// shards do: four shard runs of a 128-device cohort fleet synthesize the
/// 16-slot pool once in total, at one thread and at two, and still merge
/// to the uncached single-process report.
#[test]
fn shard_runs_of_one_simulation_fill_each_slot_once() {
    let reference = FleetSimulation::new(42, ScenarioMix::cohort())
        .unwrap()
        .run_with_options(128, &options(1, None), None)
        .unwrap();
    let spec = ShardSpec::new(128, 4).unwrap();
    for threads in [1usize, 2] {
        let simulation = FleetSimulation::new(42, ScenarioMix::cohort()).unwrap();
        let (shards, counters) = counted(|| {
            (0..4)
                .map(|index| {
                    simulation
                        .run_shard_with_options(
                            &spec,
                            index,
                            &options(threads, Some(usize::MAX)),
                            None,
                        )
                        .unwrap()
                })
                .collect::<Vec<_>>()
        });
        assert_eq!(counters, Some((112, 16)), "threads {threads}");
        let merged = merge(shards).unwrap();
        assert_eq!(merged.report, reference.report);
        assert_eq!(merged.devices, reference.devices);
    }
}

/// A slot whose fill fails gives each of its devices the uncached path's
/// device-tagged error, so the lowest failing id still wins at any thread
/// count. Sessions of 4–12 s per activity are sometimes shorter than one
/// 8 s window, which the synthesizer rejects.
#[test]
fn failed_fills_report_the_uncached_error() {
    let mix = ScenarioMix {
        subject_pool: 3,
        seconds_per_activity: (4.0, 12.0),
        ..ScenarioMix::balanced()
    };
    let mut failing_ids = Vec::new();
    for seed in 0..4 {
        let uncached = run_fleet_range(
            &FleetSimulation::new(seed, mix).unwrap(),
            0..24,
            &options(1, None),
            None,
        );
        for threads in [1usize, 4] {
            let simulation = FleetSimulation::new(seed, mix).unwrap();
            let cached = run_fleet_range(&simulation, 0..24, &options(threads, Some(0)), None);
            assert_eq!(cached, uncached, "seed {seed} at {threads} threads");
        }
        if let Err(fleet::FleetError::Device { device_id, .. }) = uncached {
            failing_ids.push(device_id);
        }
    }
    // The seeds cover a failing slot other than slot 0.
    assert!(failing_ids.iter().any(|&id| id > 0), "{failing_ids:?}");
}

/// A simulation holds at most 256 pool slots, so a huge custom pool costs
/// no table memory up front; devices of slots past the table stream
/// directly and count as misses.
#[test]
fn devices_beyond_the_slot_table_stream_directly() {
    let mix = ScenarioMix {
        subject_pool: u64::MAX,
        ..ScenarioMix::balanced()
    };
    let simulation = FleetSimulation::new(3, mix).unwrap();
    let uncached = run_fleet_range(&simulation, 254..258, &options(1, None), None).unwrap();
    // Slots 254 and 255 are tabled: filled by the first run, replayed by the
    // second; 256 and 257 miss every time.
    for expected in [(0, 4), (2, 2)] {
        let (cached, counters) =
            counted(|| run_fleet_range(&simulation, 254..258, &options(1, Some(0)), None).unwrap());
        assert_eq!(cached, uncached);
        assert_eq!(counters, Some(expected));
    }
}

/// The committed 64-device golden fixture is reproduced byte-for-byte with
/// the cache enabled — the same guarantee the CI smoke job checks through
/// the `fleet --profile-cache` CLI.
#[test]
fn golden_fixture_is_byte_identical_with_the_cache_enabled() {
    let simulation = FleetSimulation::new(42, ScenarioMix::balanced()).unwrap();
    let outcome = simulation
        .run_with_options(64, &options(0, Some(usize::MAX)), None)
        .unwrap();
    let json = serde_json::to_string_pretty(&outcome.report).unwrap();
    assert_eq!(
        format!("{json}\n"),
        GOLDEN,
        "enabling the profile cache moved a population-level number"
    );
}
