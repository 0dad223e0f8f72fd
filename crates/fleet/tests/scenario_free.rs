//! The scenario-free execution path never materializes a
//! `Vec<DeviceScenario>`: workers derive scenarios on demand from
//! `(generator, device id)`, so at most one generated scenario is alive per
//! worker thread. Checked with the counting allocator of `tests/run_memory`,
//! which counts per thread, so the tests of this binary may run
//! concurrently. A pooled simulation's memo keeps one 72-byte entry per
//! distinct run in its pool slot, so a run over devices that an earlier run
//! of the simulation covered leaves nothing behind.

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
    // mix, when a device stores a new run in its slot's memo.
    for pool in [0, 4] {
        for activities in [9, 1] {
            let simulation = run_memory::simulation(activities, pool);
            // Warm-up: registers the telemetry series, caches the thread's
            // handles and fills the pool slots, all of which outlive a run.
            run_memory::run(&simulation, 0..16, None);

            // The sampled run records into a registry of its own, which
            // reads back its memo misses: the runs it stored.
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

            // A repeat run over the same devices stores nothing: once its
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
                "pool {pool}, {activities} activities: a repeat run left bytes behind"
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

/// A pool slot's memo keeps its runs in one key-sorted vector of 72-byte
/// entries (a packed 8-byte key and the stored run, its counts narrowed to
/// `u32`), grown as `Vec` grows: to 4 entries, then by doubling.
#[test]
fn a_memo_key_costs_one_72_byte_entry() {
    const ENTRY_BYTES: isize = 72;
    let capacity =
        |keys: u64| ENTRY_BYTES * isize::try_from(keys.next_power_of_two().max(4)).unwrap();
    // One slot, so every key lands in one vector. A twin simulation counts
    // the keys: a fresh simulation's misses are its distinct keys, since
    // every device of this mix gets one.
    let keys = |devices| {
        let twin = run_memory::simulation(9, 1);
        let registry = telemetry::Registry::new();
        let _scope = telemetry::scoped(&registry);
        run_memory::run(&twin, devices, None);
        registry
            .snapshot()
            .counter_value(fleet::RUN_MEMO_EVENTS_SERIES, &[("result", "miss")])
            .unwrap()
    };
    let (first, all) = (keys(0..1), keys(0..SAMPLED_DEVICES as u64));
    assert!(all > 4, "{all} keys leave the vector at its first capacity");

    let simulation = run_memory::simulation(9, 1);
    let registry = telemetry::Registry::new();
    let _scope = telemetry::scoped(&registry);
    // Warm-up: fills the slot, registers the series and stores the first
    // device's run.
    run_memory::run(&simulation, 0..1, None);
    let before = run_memory::live();
    drop(run_memory::run(
        &simulation,
        1..SAMPLED_DEVICES as u64,
        None,
    ));
    assert_eq!(
        run_memory::live() - before,
        capacity(all) - capacity(first),
        "{first} then {all} keys"
    );
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
