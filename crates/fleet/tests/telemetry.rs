//! Fleet-level telemetry integration tests.
//!
//! Locks in the three cross-layer guarantees of the metrics registry:
//!
//! * the [`telemetry::Stability::Stable`] snapshot embedded in a
//!   [`fleet::ShardReport`] depends only on the workload — identical for any
//!   thread count,
//! * merging shard artifacts folds their telemetry into exactly the snapshot
//!   a single-process run over the same fleet produces (proptest-locked
//!   across fleet sizes and shard counts),
//! * the [`fleet::ProgressSink::profile_cache`] callback reports the same
//!   totals the registry's `chris_profile_cache_events_total` series holds —
//!   the sink is a view of the snapshot, not a separate counter island.

use std::sync::{Mutex, OnceLock};

use fleet::{
    merge, ExecutorOptions, FleetSimulation, ProgressSink, ScenarioMix, ShardSpec,
    DEFAULT_PROFILE_CACHE_CAPACITY, PROFILE_CACHE_EVENTS_SERIES,
};
use proptest::prelude::*;

/// Executor options with `threads` workers and every other knob at default.
fn on(threads: usize) -> ExecutorOptions {
    ExecutorOptions {
        threads,
        ..ExecutorOptions::default()
    }
}

/// One shared simulation: profiling the configuration table dominates test
/// time, and every test wants the same master seed anyway.
fn simulation() -> &'static FleetSimulation {
    static SIM: OnceLock<FleetSimulation> = OnceLock::new();
    SIM.get_or_init(|| FleetSimulation::new(42, ScenarioMix::balanced()).expect("profiling works"))
}

#[test]
fn shard_telemetry_is_stable_across_thread_counts() {
    let sim = simulation();
    let spec = ShardSpec::single(6);
    let one = sim.run_shard_with_options(&spec, 0, &on(1), None).unwrap();
    let four = sim.run_shard_with_options(&spec, 0, &on(4), None).unwrap();
    assert_eq!(one.devices, four.devices);
    assert_eq!(one.telemetry, four.telemetry);

    // The embedded snapshot counts exactly the windows the devices report.
    let windows: u64 = one.devices.iter().map(|d| d.windows as u64).sum();
    assert_eq!(
        one.telemetry.counter_value("chris_windows_total", &[]),
        Some(windows)
    );

    // Offload decisions partition the windows: every window executes on
    // exactly one backend.
    let phone = one
        .telemetry
        .counter_value("chris_offload_decisions_total", &[("backend", "phone")])
        .expect("eagerly registered");
    let wearable = one
        .telemetry
        .counter_value("chris_offload_decisions_total", &[("backend", "wearable")])
        .expect("eagerly registered");
    assert_eq!(phone + wearable, windows);

    // Only workload-deterministic series are embedded — durations and cache
    // counters vary run to run and must stay out of byte-stable artifacts.
    assert!(one.telemetry.histograms.is_empty());
    for counter in &one.telemetry.counters {
        assert_eq!(counter.stability, telemetry::Stability::Stable);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn merged_shard_telemetry_matches_the_single_process_run(
        devices in 3u64..8,
        shards in 1u32..4,
        threads in 1usize..3,
    ) {
        let sim = simulation();
        let single = sim.run_with_options(devices, &on(1), None).unwrap();

        let spec = ShardSpec::new(devices, shards).unwrap();
        let artifacts: Vec<_> = (0..shards)
            .map(|index| {
                sim.run_shard_with_options(&spec, index, &on(threads), None)
                    .unwrap()
            })
            .collect();
        let merged = merge::merge(artifacts).unwrap();

        prop_assert_eq!(&merged.report, &single.report);
        prop_assert_eq!(&merged.telemetry, &single.telemetry);
    }
}

/// Sink capturing the one `profile_cache` callback of a run.
#[derive(Default)]
struct CacheSink {
    seen: Mutex<Option<(u64, u64)>>,
}

impl ProgressSink for CacheSink {
    fn windows_processed(&self, _device_id: u64, _count: usize) {}
    fn device_completed(&self, _device_id: u64, _windows: usize) {}
    fn profile_cache(&self, hits: u64, misses: u64) {
        *self.seen.lock().unwrap() = Some((hits, misses));
    }
}

#[test]
fn sink_cache_counters_mirror_the_registry_snapshot() {
    let sim = simulation();
    let registry = telemetry::Registry::new();
    let sink = CacheSink::default();
    let options = ExecutorOptions {
        threads: 2,
        profile_cache: Some(DEFAULT_PROFILE_CACHE_CAPACITY),
        ..ExecutorOptions::default()
    };
    {
        let _scope = telemetry::scoped(&registry);
        sim.run_with_options(8, &options, Some(&sink)).unwrap();
    }

    let (hits, misses) = sink
        .seen
        .lock()
        .unwrap()
        .expect("the executor reports cache counters when the cache is enabled");
    let snapshot = registry.snapshot();
    let event = |result| snapshot.counter_value(PROFILE_CACHE_EVENTS_SERIES, &[("result", result)]);
    assert_eq!(event("hit"), Some(hits));
    assert_eq!(event("miss"), Some(misses));
    // Every device resolves its profile through the cache, so lookups cover
    // the whole fleet.
    assert_eq!(hits + misses, 8);
}
