//! The scenario-free execution path never materializes a
//! `Vec<DeviceScenario>`: workers derive scenarios on demand from
//! `(generator, device id)`, so at most one generated scenario is alive per
//! worker thread — asserted here through the executor's live-scenario gauge
//! (`fleet::executor::metrics`).
//!
//! This lives in its own integration binary on purpose: the gauge is
//! process-global, and other test binaries legitimately run fleets
//! concurrently, which would race the peak measurement.

use std::sync::Mutex;

use fleet::executor::metrics;
use fleet::{ExecutorOptions, FleetSimulation, ScenarioMix, ShardSpec};

const THREADS: usize = 4;

/// One 8-device executor chunk per worker, so every worker claims work and
/// the peak can actually reach `THREADS`.
const DEVICES: u64 = 8 * THREADS as u64;

/// Serializes the tests of this binary: both drive the scenario-free path,
/// and the gauge they observe is process-global.
static GAUGE_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn generated_scenarios_stay_bounded_by_the_worker_count() {
    let _guard = GAUGE_LOCK.lock().unwrap();
    let simulation = FleetSimulation::new(42, ScenarioMix::balanced()).unwrap();

    let options = ExecutorOptions {
        threads: THREADS,
        ..ExecutorOptions::default()
    };

    // The scenario-free path: per-device reports, O(threads) scenario memory.
    metrics::reset_peak();
    assert_eq!(metrics::live_generated_scenarios(), 0);
    let scenario_free = fleet::run_fleet_range(&simulation, 0..DEVICES, &options, None).unwrap();
    assert_eq!(
        metrics::live_generated_scenarios(),
        0,
        "every generated scenario must be dropped when its device completes"
    );
    let peak = metrics::peak_live_scenarios();
    assert!(
        (1..=THREADS).contains(&peak),
        "peak live scenarios was {peak}; the scenario-free path must keep at \
         most one generated scenario alive per worker (threads = {THREADS})"
    );

    // Equivalence half: the same reports as simulating each device alone.
    for (id, report) in scenario_free.iter().enumerate() {
        let scenario = simulation.generator().scenario(id as u64);
        let alone =
            fleet::simulate_device(&scenario, simulation.zoo(), simulation.engine()).unwrap();
        assert_eq!(*report, alone);
    }
}

#[test]
fn sharded_run_uses_the_scenario_free_path() {
    let _guard = GAUGE_LOCK.lock().unwrap();
    let simulation = FleetSimulation::new(7, ScenarioMix::connected()).unwrap();
    let spec = ShardSpec::new(12, 3).unwrap();

    // `run_shard_with_options` is the scenario-free path end to end: its
    // reports match a per-device run over the same range without ever
    // collecting one.
    let options = ExecutorOptions {
        threads: 2,
        ..ExecutorOptions::default()
    };
    let shard = simulation
        .run_shard_with_options(&spec, 1, &options, None)
        .unwrap();
    let range = spec.range(1).unwrap();
    let eager: Vec<_> = simulation
        .generator()
        .scenarios_in(range.clone())
        .map(|scenario| {
            fleet::simulate_device(&scenario, simulation.zoo(), simulation.engine()).unwrap()
        })
        .collect();
    assert_eq!(shard.devices, eager);
    assert_eq!(shard.meta.start, range.start);
    assert_eq!(shard.meta.end, range.end);
}
