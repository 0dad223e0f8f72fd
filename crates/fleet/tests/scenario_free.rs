//! The scenario-free execution path never materializes a
//! `Vec<DeviceScenario>`: workers derive scenarios on demand from
//! `(generator, device id)`, so at most one generated scenario is alive per
//! worker thread. Checked with the counting allocator of `tests/run_memory`,
//! which counts per thread, so the two tests of this binary may run
//! concurrently. A pooled run's memo holds one entry per distinct run and
//! is freed when the run returns.

mod run_memory;

use std::sync::Mutex;

use fleet::{ExecutorOptions, FleetSimulation, ProgressSink, ScenarioMix, ShardSpec};

/// Devices of the run whose live levels are sampled.
const SAMPLED_DEVICES: usize = 64;

/// Progress sink recording the live byte level at each device completion.
/// Its buffer is reserved up front, so recording never allocates.
struct LiveLevels(Mutex<Vec<isize>>);

impl ProgressSink for LiveLevels {
    fn device_completed(&self, _device_id: u64, _windows: usize) {
        let mut levels = self.0.lock().unwrap();
        assert!(levels.len() < levels.capacity(), "recording would allocate");
        levels.push(run_memory::live());
    }
}

#[test]
fn generated_scenarios_stay_bounded_by_the_worker_count() {
    // At one worker, nothing a device allocates (its scenario included)
    // may outlive it: sampled as each device completes, the live level
    // changes only when the worker's result vector grows, or, in a pooled
    // mix, when a device stores a new run in the run's memo.
    for pool in [0, 4] {
        for activities in [9, 1] {
            let simulation = run_memory::simulation(activities, pool);
            // Warm-up: registers the telemetry series, caches the thread's
            // handles and fills the pool slots, all of which outlive a run.
            run_memory::run(&simulation, 0..16, None);

            // Nothing of a run outlives it, the memo included: once its
            // reports are dropped, the live level is back where it was.
            let before = run_memory::live();
            drop(run_memory::run(
                &simulation,
                0..SAMPLED_DEVICES as u64,
                None,
            ));
            assert_eq!(
                run_memory::live(),
                before,
                "pool {pool}, {activities} activities: a run left bytes behind"
            );

            // The sampled run records into a registry of its own, which
            // reads back its memo misses.
            let registry = telemetry::Registry::new();
            let _scope = telemetry::scoped(&registry);
            let sink = LiveLevels(Mutex::new(Vec::with_capacity(SAMPLED_DEVICES)));
            let (reports, _) = run_memory::run(&simulation, 0..SAMPLED_DEVICES as u64, Some(&sink));
            let misses = registry
                .snapshot()
                .counter_value(fleet::RUN_MEMO_EVENTS_SERIES, &[("result", "miss")])
                .unwrap_or(0);
            assert_eq!(misses > 0, pool > 0, "pool {pool}: {misses} memo misses");
            let mut levels = sink.0.into_inner().unwrap();
            assert_eq!(levels.len(), SAMPLED_DEVICES);
            levels.sort_unstable();
            levels.dedup();
            // One level before the first result, then one per growth of
            // the worker's result vector (capacity 4, 8, ..., 64), plus one
            // spare, plus one per memo entry.
            let bound = 7 + usize::try_from(misses).unwrap();
            assert!(
                levels.len() <= bound,
                "pool {pool}, {activities} activities: live bytes took {} \
                 distinct levels over {SAMPLED_DEVICES} devices, more than \
                 {bound}: {levels:?}",
                levels.len()
            );

            // Equivalence half: the same reports as simulating each device
            // alone.
            for (id, report) in reports.iter().enumerate() {
                let scenario = simulation.generator().scenario(id as u64);
                let alone =
                    fleet::simulate_device(&scenario, simulation.zoo(), simulation.engine())
                        .unwrap();
                assert_eq!(
                    *report, alone,
                    "pool {pool}, {activities} activities, device {id}"
                );
            }
        }
    }
}

#[test]
fn sharded_run_uses_the_scenario_free_path() {
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
