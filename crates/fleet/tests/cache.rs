//! Conformance suite for pool-slot replay: a pooled mix always synthesizes
//! each pool slot once per simulation and replays it for the slot's other
//! devices. Replay must be **invisible in every output byte** — every
//! device's report equals the per-device streaming path
//! ([`fleet::simulate_device`]) for arbitrary seeds, mixes, device counts
//! and thread counts — while the hit/miss accounting stays exact at any
//! thread count.

use fleet::{
    merge, run_fleet_range, simulate_device, DeviceReport, ExecutorOptions, FleetError,
    FleetReport, FleetSimulation, ScenarioMix, ShardSpec, PROFILE_CACHE_EVENTS_SERIES,
};
use proptest::prelude::*;

const COHORT_GOLDEN: &str = include_str!("fixtures/fleet-64-cohort-seed42.json");

fn options(threads: usize) -> ExecutorOptions {
    ExecutorOptions {
        threads,
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

/// The reference that never replays: each device of `range` streamed on
/// its own through [`simulate_device`], in id order, stopping at the first
/// (lowest-id) failure.
fn streamed(
    simulation: &FleetSimulation,
    range: std::ops::Range<u64>,
) -> Result<Vec<DeviceReport>, FleetError> {
    range
        .map(|id| {
            let scenario = simulation.generator().scenario(id);
            simulate_device(&scenario, simulation.zoo(), simulation.engine())
        })
        .collect()
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

    /// Fleet runs serialize byte-identically to per-device streaming for
    /// arbitrary `(seed, mix, device count)` — pooled mixes replay their
    /// slots, the others stream, and neither moves a byte.
    #[test]
    fn cached_and_uncached_reports_are_byte_identical(
        master_seed in 0u64..10_000,
        devices in 1u64..10,
        mix_idx in 0usize..4,
    ) {
        let mix = [
            ScenarioMix::balanced(),
            ScenarioMix::harsh(),
            ScenarioMix::connected(),
            ScenarioMix::cohort(),
        ][mix_idx];
        let simulation = FleetSimulation::new(master_seed, mix).unwrap();
        let reference = streamed(&simulation, 0..devices).unwrap();
        let outcome = simulation
            .run_with_options(devices, &options(2), None)
            .unwrap();
        prop_assert_eq!(
            serde_json::to_string_pretty(&FleetReport::from_devices(&reference)).unwrap(),
            serde_json::to_string_pretty(&outcome.report).unwrap()
        );
        prop_assert_eq!(&reference, &outcome.devices);
    }
}

/// `ExecutorOptions::profile_cache` is inert: `None`, 0, 1 and unbounded
/// give the same reports as per-device streaming and the same counters, at
/// one thread and at four. 32 devices give each of 4 workers its own
/// 8-device executor chunk, so workers race for the 3 slots.
#[test]
fn capacity_never_changes_reports_or_counters() {
    let reference = streamed(&pooled(11), 0..32).unwrap();
    for threads in [1usize, 4] {
        for capacity in [None, Some(0usize), Some(1), Some(usize::MAX)] {
            // A fresh simulation per run, so every run fills its own slots.
            let simulation = pooled(11);
            let options = ExecutorOptions {
                profile_cache: capacity,
                ..options(threads)
            };
            let (reports, counters) = counted(|| run(&simulation, 32, &options));
            assert_eq!(
                reports, reference,
                "capacity {capacity:?} at {threads} threads changed a report"
            );
            assert_eq!(
                counters,
                Some((29, 3)),
                "capacity {capacity:?} at {threads} threads"
            );
        }
    }
}

/// The accounting is exact: misses equal the pool slots filled, hits the
/// devices that replayed a filled slot, and both land in the registry that
/// was active when the run started. A later run of the same simulation
/// finds every slot filled. A pool-less mix records no cache series.
#[test]
fn hit_and_miss_counters_account_for_every_device() {
    let simulation = pooled(5);
    let (reports, counters) = counted(|| run(&simulation, 9, &options(2)));
    assert_eq!(reports.len(), 9);
    // 3 distinct profiles, 9 devices: 3 misses + 6 hits.
    assert_eq!(counters, Some((6, 3)));
    // The slots outlive the run: the simulation's next run only hits.
    let (again, counters) = counted(|| run(&simulation, 9, &options(1)));
    assert_eq!(again, reports);
    assert_eq!(counters, Some((9, 0)));
    // No pool: every device streams and no cache series is recorded at all.
    let balanced = FleetSimulation::new(5, ScenarioMix::balanced()).unwrap();
    assert_eq!(counted(|| run(&balanced, 9, &options(2))).1, None);
}

/// The generator's own cohort mechanism feeds slot replay end to end: a
/// `cohort` fleet run through `FleetSimulation` (the CLI path) hits for
/// every device beyond the first of its pool slot, and the report matches
/// per-device streaming byte for byte.
#[test]
fn cohort_mix_hits_the_cache_through_the_full_pipeline() {
    let simulation = FleetSimulation::new(13, ScenarioMix::cohort()).unwrap();
    let pool = ScenarioMix::cohort().subject_pool;
    let devices = 2 * pool;

    let reference = streamed(&simulation, 0..devices).unwrap();
    let (outcome, counters) = counted(|| {
        simulation
            .run_with_options(devices, &options(1), None)
            .unwrap()
    });
    assert_eq!(
        serde_json::to_string_pretty(&FleetReport::from_devices(&reference)).unwrap(),
        serde_json::to_string_pretty(&outcome.report).unwrap()
    );
    assert_eq!(reference, outcome.devices);
    // One miss per pool slot, one hit per repeat.
    assert_eq!(counters, Some((devices - pool, pool)));
}

/// The shards of one simulation share its slots, as a `fleetd` job's
/// shards do: four shard runs of a 128-device cohort fleet synthesize the
/// 16-slot pool once in total, at one thread and at two, and still merge
/// to the per-device streaming report.
#[test]
fn shard_runs_of_one_simulation_fill_each_slot_once() {
    let reference = streamed(
        &FleetSimulation::new(42, ScenarioMix::cohort()).unwrap(),
        0..128,
    )
    .unwrap();
    let spec = ShardSpec::new(128, 4).unwrap();
    for threads in [1usize, 2] {
        let simulation = FleetSimulation::new(42, ScenarioMix::cohort()).unwrap();
        let (shards, counters) = counted(|| {
            (0..4)
                .map(|index| {
                    simulation
                        .run_shard_with_options(&spec, index, &options(threads), None)
                        .unwrap()
                })
                .collect::<Vec<_>>()
        });
        assert_eq!(counters, Some((112, 16)), "threads {threads}");
        let merged = merge(shards).unwrap();
        assert_eq!(merged.report, FleetReport::from_devices(&reference));
        assert_eq!(merged.devices, reference);
    }
}

/// A slot whose fill fails gives each of its devices the streaming path's
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
        let reference = streamed(&FleetSimulation::new(seed, mix).unwrap(), 0..24);
        for threads in [1usize, 4] {
            let simulation = FleetSimulation::new(seed, mix).unwrap();
            let replayed = run_fleet_range(&simulation, 0..24, &options(threads), None);
            assert_eq!(replayed, reference, "seed {seed} at {threads} threads");
        }
        if let Err(FleetError::Device { device_id, .. }) = reference {
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
    let reference = streamed(&simulation, 254..258).unwrap();
    // Slots 254 and 255 are tabled: filled by the first run, replayed by the
    // second; 256 and 257 miss every time.
    for expected in [(0, 4), (2, 2)] {
        let (reports, counters) =
            counted(|| run_fleet_range(&simulation, 254..258, &options(1), None).unwrap());
        assert_eq!(reports, reference);
        assert_eq!(counters, Some(expected));
    }
}

/// The committed 64-device cohort fixture, produced by direct streaming, is
/// reproduced byte-for-byte both by per-device streaming (the reference the
/// tests above compare against) and by the slot-replaying fleet run — the
/// same guarantee the CI smoke job checks through the `fleet` CLI.
#[test]
fn golden_fixture_is_byte_identical_with_the_cache_enabled() {
    let simulation = FleetSimulation::new(42, ScenarioMix::cohort()).unwrap();
    let reference = FleetReport::from_devices(&streamed(&simulation, 0..64).unwrap());
    let (outcome, counters) =
        counted(|| simulation.run_with_options(64, &options(0), None).unwrap());
    assert_eq!(counters, Some((48, 16)));
    for (path, report) in [("streaming", &reference), ("replay", &outcome.report)] {
        let json = serde_json::to_string_pretty(report).unwrap();
        assert_eq!(
            format!("{json}\n"),
            COHORT_GOLDEN,
            "{path} moved a population-level number of the cohort fixture"
        );
    }
}
