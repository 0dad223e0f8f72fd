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
//! * a pooled run's `chris_profile_cache_events_total` series reaches the
//!   caller's active registry from every worker, and stays out of the
//!   byte-stable shard artifact.

use std::sync::OnceLock;

use fleet::{
    merge, ExecutorOptions, FleetSimulation, ScenarioMix, ShardSpec, PROFILE_CACHE_EVENTS_SERIES,
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

    // Model invocations partition them too: every window runs exactly one
    // model. Profiling predictions are not part of a shard's run telemetry.
    let invocations: u64 = ["AT", "TimePPG-Small", "TimePPG-Big"]
        .into_iter()
        .map(|model| {
            one.telemetry
                .counter_value("chris_model_invocations_total", &[("model", model)])
                .expect("eagerly registered")
        })
        .sum();
    assert_eq!(invocations, windows);

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

/// The cache counters of a multi-worker pooled run are folded into the
/// caller's active registry: every device's lookup is counted exactly once,
/// whichever worker made it, while the artifact embeds none of them.
#[test]
fn cache_counters_reach_the_active_registry_from_every_worker() {
    let sim = FleetSimulation::new(42, ScenarioMix::cohort()).expect("profiling works");
    let registry = telemetry::Registry::new();
    let shard = {
        let _scope = telemetry::scoped(&registry);
        sim.run_shard_with_options(&ShardSpec::single(20), 0, &on(2), None)
            .unwrap()
    };

    let snapshot = registry.snapshot();
    let event = |result| snapshot.counter_value(PROFILE_CACHE_EVENTS_SERIES, &[("result", result)]);
    // The cohort mix's 16 slots are each filled once and replayed by the
    // other 4 devices — on any worker, in any interleaving.
    assert_eq!(event("hit"), Some(4));
    assert_eq!(event("miss"), Some(16));
    assert_eq!(
        shard
            .telemetry
            .counter_value(PROFILE_CACHE_EVENTS_SERIES, &[("result", "miss")]),
        None
    );
}
