//! Conformance suite for the run memo: a pooled device whose run key
//! repeats an earlier device's of the same simulation reuses that run
//! instead of running the window loop again, in the same run or a later
//! one. The memo must be **invisible in every output**: each report equals
//! the per-device streaming path ([`fleet::simulate_device`]), and the
//! run's Stable telemetry equals the sum of running every device on its
//! own, for arbitrary pools, link schedules and accounting modes, at one
//! thread and at four.

use fleet::{
    run_fleet_range, simulate_device, DeviceReport, ExecutorOptions, FleetSimulation, ScenarioMix,
    ShardSpec, RUN_MEMO_EVENTS_SERIES,
};
use proptest::prelude::*;
use telemetry::MetricsSnapshot;

fn options(threads: usize) -> ExecutorOptions {
    ExecutorOptions {
        threads,
        ..ExecutorOptions::default()
    }
}

/// A balanced population over a `pool`-slot subject pool, with every
/// accounting mode and harsh-mix link quality: most devices duty-cycled or
/// offline, so both link statuses and both selections are exercised.
fn mix(pool: u64) -> ScenarioMix {
    ScenarioMix {
        subject_pool: pool,
        accounting_sweep: true,
        flaky_link_share: ScenarioMix::harsh().flaky_link_share,
        offline_share: ScenarioMix::harsh().offline_share,
        min_link_availability: ScenarioMix::harsh().min_link_availability,
        ..ScenarioMix::balanced()
    }
}

/// Runs `body` with a fresh registry active and returns its result with the
/// registry.
fn recorded<T>(body: impl FnOnce() -> T) -> (T, telemetry::Registry) {
    let registry = telemetry::Registry::new();
    let result = {
        let _scope = telemetry::scoped(&registry);
        body()
    };
    (result, registry)
}

/// How many times the run timed the window loop.
fn loop_runs(snapshot: &MetricsSnapshot) -> u64 {
    snapshot
        .histograms
        .iter()
        .filter(|h| h.name == telemetry::STAGE_DURATION_SERIES)
        .filter(|h| h.labels == [("stage".to_string(), "runtime".to_string())])
        .map(|h| h.count)
        .sum()
}

/// The run's `(hits, misses)` memo counts.
fn memo_events(snapshot: &MetricsSnapshot) -> (u64, u64) {
    let event = |result| {
        snapshot
            .counter_value(RUN_MEMO_EVENTS_SERIES, &[("result", result)])
            .expect("a pooled run registers the memo series")
    };
    (event("hit"), event("miss"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Memoized fleet runs equal per-device streaming, report for report
    /// and in their Stable telemetry. Pool 300 crosses the 256-slot table,
    /// so devices of its higher slots stream directly inside the same run.
    #[test]
    fn memoized_runs_equal_per_device_streaming(
        master_seed in 0u64..10_000,
        pool_idx in 0usize..4,
        start in 0u64..400,
        devices in 1u64..48,
    ) {
        let pool = [1u64, 3, 16, 300][pool_idx];
        // A fresh simulation per thread count, so each run starts with an
        // empty memo.
        let simulation = || FleetSimulation::new(master_seed, mix(pool)).unwrap();
        let reference_simulation = simulation();
        let range = start..start + devices;
        let (reference, streamed) = recorded(|| {
            range
                .clone()
                .map(|id| {
                    let sim = &reference_simulation;
                    simulate_device(&sim.generator().scenario(id), sim.zoo(), sim.engine()).unwrap()
                })
                .collect::<Vec<DeviceReport>>()
        });
        let mut counts = Vec::new();
        for threads in [1usize, 4] {
            let simulation = simulation();
            let (reports, registry) = recorded(|| {
                run_fleet_range(&simulation, range.clone(), &options(threads), None).unwrap()
            });
            prop_assert_eq!(&reports, &reference, "{} threads", threads);
            prop_assert_eq!(
                registry.snapshot_stable(),
                streamed.snapshot_stable(),
                "{} threads",
                threads
            );
            let snapshot = registry.snapshot();
            let (hits, misses) = memo_events(&snapshot);
            // Every device is a hit or a miss, and only a miss runs the loop.
            prop_assert_eq!(hits + misses, devices);
            prop_assert_eq!(loop_runs(&snapshot), misses);
            counts.push((hits, misses));
        }
        // Which worker runs a key's loop depends on scheduling; how many
        // runs there are does not.
        prop_assert_eq!(counts[0], counts[1]);
    }
}

/// The 64-device seed-42 cohort fleet repeats 10 of its device runs: 54 runs
/// of the window loop on a fresh simulation at any thread count, against 64
/// without the memo.
#[test]
fn the_cohort_fixture_runs_the_loop_once_per_distinct_key() {
    for threads in [1usize, 4] {
        let simulation = FleetSimulation::new(42, ScenarioMix::cohort()).unwrap();
        let (_, registry) =
            recorded(|| run_fleet_range(&simulation, 0..64, &options(threads), None).unwrap());
        let snapshot = registry.snapshot();
        assert_eq!(memo_events(&snapshot), (10, 54), "{threads} threads");
        assert_eq!(loop_runs(&snapshot), 54, "{threads} threads");
    }
}

/// The memo lives as long as the simulation: a second run over the same
/// devices reuses every run and runs the loop not once, with the first
/// run's reports and Stable telemetry.
#[test]
fn a_second_run_reuses_every_run() {
    let simulation = FleetSimulation::new(42, ScenarioMix::cohort()).unwrap();
    let run = || recorded(|| run_fleet_range(&simulation, 0..64, &options(2), None).unwrap());
    let (first, first_registry) = run();
    let (again, again_registry) = run();
    assert_eq!(first, again);
    assert_eq!(
        first_registry.snapshot_stable(),
        again_registry.snapshot_stable()
    );
    let snapshot = again_registry.snapshot();
    assert_eq!(memo_events(&snapshot), (64, 0));
    assert_eq!(loop_runs(&snapshot), 0);
}

/// The shards of one simulation share its memo: the four 16-device shards
/// of the seed-42 cohort fleet count the single-process run's hits and
/// misses, whether they run one after another or two at a time.
#[test]
fn shards_of_one_simulation_share_its_memo() {
    let spec = ShardSpec::new(64, 4).unwrap();
    let shard = |simulation: &FleetSimulation, index| {
        let (artifact, registry) = recorded(|| {
            simulation
                .run_shard_with_options(&spec, index, &options(1), None)
                .unwrap()
        });
        (artifact, memo_events(&registry.snapshot()))
    };
    let total = |counts: Vec<(u64, u64)>| {
        counts
            .into_iter()
            .fold((0, 0), |(h, m), (hits, misses)| (h + hits, m + misses))
    };

    let simulation = FleetSimulation::new(42, ScenarioMix::cohort()).unwrap();
    let (sequential, counts): (Vec<_>, Vec<_>) =
        (0..4).map(|index| shard(&simulation, index)).unzip();
    assert_eq!(total(counts), (10, 54));

    let simulation = FleetSimulation::new(42, ScenarioMix::cohort()).unwrap();
    let concurrent: Vec<_> = std::thread::scope(|scope| {
        let pairs = [[0, 1], [2, 3]].map(|pair| {
            let workers = pair.map(|index| {
                let simulation = &simulation;
                scope.spawn(move || shard(simulation, index))
            });
            workers.map(|worker| worker.join().unwrap())
        });
        pairs.into_iter().flatten().collect()
    });
    let (artifacts, counts): (Vec<_>, Vec<_>) = concurrent.into_iter().unzip();
    assert_eq!(total(counts), (10, 54));
    assert_eq!(artifacts, sequential);
}

/// A pool-less mix never memoizes and records no memo series.
#[test]
fn pool_less_mixes_record_no_memo_series() {
    let simulation = FleetSimulation::new(42, ScenarioMix::balanced()).unwrap();
    let (_, registry) =
        recorded(|| run_fleet_range(&simulation, 0..16, &options(2), None).unwrap());
    let snapshot = registry.snapshot();
    assert_eq!(
        snapshot.counter_value(RUN_MEMO_EVENTS_SERIES, &[("result", "miss")]),
        None
    );
    assert_eq!(loop_runs(&snapshot), 16);
}
