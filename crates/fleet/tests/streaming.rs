//! Conformance suite for the streaming fleet executor: for random fleets,
//! the stream-driven path must reproduce the legacy eager path exactly —
//! element-wise identical windows, equal device reports, and `FleetReport`
//! bytes unchanged whether or not a progress sink observes the run.

use std::sync::atomic::{AtomicU64, Ordering};

use chris_core::runtime::{ChrisRuntime, RuntimeOptions};
use fleet::{
    simulate_device, ExecutorOptions, FleetSimulation, ProgressSink, ScenarioGenerator, ScenarioMix,
};
use ppg_data::WindowSource;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A device's collected `window_stream()` is element-wise identical to
    /// the legacy eager `windows()` vector, for random
    /// `(master seed, device id)` across all mixes.
    #[test]
    fn device_stream_equals_eager_windows(
        master_seed in 0u64..10_000,
        device_id in 0u64..100_000,
        mix_idx in 0usize..3,
    ) {
        let mix = [ScenarioMix::balanced(), ScenarioMix::harsh(), ScenarioMix::connected()][mix_idx];
        let scenario = ScenarioGenerator::new(master_seed, mix).scenario(device_id);
        let eager = scenario.windows().unwrap();
        let streamed: Vec<_> = scenario
            .window_stream()
            .unwrap()
            .iter()
            .map(Result::unwrap)
            .collect();
        prop_assert_eq!(&streamed, &eager);
        prop_assert_eq!(scenario.window_count().unwrap(), eager.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// The streaming `simulate_device` reproduces the legacy executor shape
    /// (materialize the window vector, run the runtime over the slice)
    /// number for number.
    #[test]
    fn streaming_executor_matches_legacy_eager_run(master_seed in 0u64..1000) {
        let simulation = FleetSimulation::new(master_seed, ScenarioMix::balanced()).unwrap();
        for device_id in 0..3u64 {
            let scenario = simulation.generator().scenario(device_id);
            let streaming =
                simulate_device(&scenario, simulation.zoo(), simulation.engine()).unwrap();

            let windows = scenario.windows().unwrap();
            let options = RuntimeOptions {
                accounting: scenario.accounting,
                seed: scenario.dataset_seed,
                ..RuntimeOptions::default()
            };
            let mut runtime = ChrisRuntime::new(
                simulation.zoo().clone(),
                simulation.engine().clone(),
                options,
            );
            let eager = runtime
                .run(&windows, &scenario.constraint, &scenario.schedule)
                .unwrap();

            prop_assert_eq!(streaming.windows, eager.windows);
            prop_assert_eq!(streaming.mae_bpm, eager.mae_bpm);
            prop_assert_eq!(streaming.avg_watch_energy, eager.avg_watch_energy);
            prop_assert_eq!(streaming.avg_phone_energy, eager.avg_phone_energy);
            prop_assert_eq!(streaming.offload_fraction, eager.offload_fraction);
            prop_assert_eq!(streaming.simple_fraction, eager.simple_fraction);
            prop_assert_eq!(streaming.disconnected_fraction, eager.disconnected_fraction);
        }
    }
}

#[derive(Default)]
struct CountingSink {
    devices: AtomicU64,
    windows: AtomicU64,
}

impl ProgressSink for CountingSink {
    fn device_completed(&self, _device_id: u64, windows: usize) {
        // relaxed: cross-thread test counter, read post-join.
        self.devices.fetch_add(1, Ordering::Relaxed);
        // relaxed: cross-thread test counter, read post-join.
        self.windows.fetch_add(windows as u64, Ordering::Relaxed);
    }
}

/// Attaching a progress sink changes nothing in the output: `FleetReport`
/// serializes byte-identically with and without progress, at any thread
/// count, and the sink's totals agree with the report.
#[test]
fn progress_observation_leaves_report_bytes_unchanged() {
    let simulation = FleetSimulation::new(7, ScenarioMix::balanced()).unwrap();
    let on = |threads| ExecutorOptions {
        threads,
        ..ExecutorOptions::default()
    };
    let plain = simulation.run_with_options(12, &on(1), None).unwrap();

    let sink = CountingSink::default();
    let observed = simulation
        .run_with_options(12, &on(4), Some(&sink))
        .unwrap();

    let plain_json = serde_json::to_string_pretty(&plain.report).unwrap();
    let observed_json = serde_json::to_string_pretty(&observed.report).unwrap();
    assert_eq!(plain_json, observed_json);
    assert_eq!(plain.devices, observed.devices);

    // relaxed: post-join test assertion.
    assert_eq!(sink.devices.load(Ordering::Relaxed), 12);
    assert_eq!(
        // relaxed: post-join test assertion.
        sink.windows.load(Ordering::Relaxed),
        observed.report.total_windows as u64
    );
}
