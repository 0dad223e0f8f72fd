//! Degenerate-input coverage: empty shards, single-device fleets and u64
//! device-id boundaries must yield well-formed reports — no panics, no NaNs.

use fleet::{
    merge, run_fleet_range, simulate_device, DistributionSummary, ExecutorOptions, FleetReport,
    FleetSimulation, ScenarioMix, ShardSpec,
};

/// Executor options with `threads` workers and every other knob at default.
fn on(threads: usize) -> ExecutorOptions {
    ExecutorOptions {
        threads,
        ..ExecutorOptions::default()
    }
}

fn assert_finite(summary: &DistributionSummary, name: &str) {
    for (field, value) in [
        ("min", summary.min),
        ("mean", summary.mean),
        ("p50", summary.p50),
        ("p90", summary.p90),
        ("p99", summary.p99),
        ("max", summary.max),
    ] {
        assert!(value.is_finite(), "{name}.{field} is not finite: {value}");
    }
}

fn assert_well_formed(report: &FleetReport) {
    assert_finite(&report.mae_bpm, "mae_bpm");
    assert_finite(&report.watch_energy_uj, "watch_energy_uj");
    assert_finite(&report.battery_life_hours, "battery_life_hours");
    assert!(report.offloaded_window_share.is_finite());
    assert!(report.disconnected_window_share.is_finite());
    assert!(report.avg_phone_energy_uj.is_finite());
    assert_eq!(
        report.offload_histogram.len(),
        fleet::OFFLOAD_HISTOGRAM_BINS
    );
    assert_eq!(
        report.offload_histogram.iter().sum::<usize>(),
        report.devices
    );
}

#[test]
fn empty_shards_produce_well_formed_artifacts_and_merge() {
    let simulation = FleetSimulation::new(7, ScenarioMix::balanced()).unwrap();
    // More shards than devices: the last two shards are empty.
    let spec = ShardSpec::new(2, 4).unwrap();
    let shards: Vec<_> = (0..4)
        .map(|i| {
            simulation
                .run_shard_with_options(&spec, i, &on(1), None)
                .unwrap()
        })
        .collect();
    assert!(shards[2].devices.is_empty());
    assert!(shards[3].devices.is_empty());
    // Empty artifacts survive serialization and merge into the exact
    // single-process outcome.
    for shard in &shards {
        let json = serde_json::to_string(shard).unwrap();
        let back: fleet::ShardReport = serde_json::from_str(&json).unwrap();
        assert_eq!(&back, shard);
    }
    let merged = merge(shards).unwrap();
    assert_eq!(
        merged,
        simulation.run_with_options(2, &on(1), None).unwrap()
    );
    assert_well_formed(&merged.report);
}

#[test]
fn zero_device_fleet_merges_to_an_all_zero_report() {
    let simulation = FleetSimulation::new(7, ScenarioMix::balanced()).unwrap();
    let spec = ShardSpec::single(0);
    let shard = simulation
        .run_shard_with_options(&spec, 0, &on(1), None)
        .unwrap();
    assert!(shard.devices.is_empty());
    let merged = merge(vec![shard]).unwrap();
    assert_eq!(merged.report, FleetReport::from_devices(&[]));
    assert_eq!(merged.report.devices, 0);
    assert_well_formed(&merged.report);
    // The single-process entry point still reports the empty fleet loudly.
    assert!(matches!(
        simulation.run_with_options(0, &on(1), None),
        Err(fleet::FleetError::EmptyFleet)
    ));
}

#[test]
fn single_device_fleet_is_well_formed() {
    let simulation = FleetSimulation::new(11, ScenarioMix::harsh()).unwrap();
    let outcome = simulation.run_with_options(1, &on(1), None).unwrap();
    assert_eq!(outcome.report.devices, 1);
    assert_eq!(outcome.devices.len(), 1);
    assert_well_formed(&outcome.report);
    // With one sample every order statistic is that sample.
    let mae = &outcome.report.mae_bpm;
    assert_eq!(mae.min, mae.max);
    assert_eq!(mae.p50, mae.max);
    assert_eq!(mae.p99, mae.max);
    assert_eq!(mae.mean, mae.max);
}

#[test]
fn u64_boundary_device_ids_simulate_cleanly() {
    let simulation = FleetSimulation::new(3, ScenarioMix::balanced()).unwrap();
    let generator = simulation.generator();
    let reports: Vec<_> = [u64::MAX, u64::MAX - 1, 0]
        .into_iter()
        .map(|id| {
            simulate_device(
                &generator.scenario(id),
                simulation.zoo(),
                simulation.engine(),
            )
            .unwrap()
        })
        .collect();
    assert_eq!(reports[0].device_id, u64::MAX);
    assert!(reports.iter().all(|r| r.windows > 0));
    let report = FleetReport::from_devices(&reports);
    assert_well_formed(&report);
    // Boundary ids survive the JSON round trip without losing precision.
    let json = serde_json::to_string(&reports).unwrap();
    let back: Vec<fleet::DeviceReport> = serde_json::from_str(&json).unwrap();
    assert_eq!(back, reports);

    // The executor at the top of the id space: a multi-worker run over a
    // range ending at `u64::MAX` derives every id without overflowing and
    // returns the reports in id order. 16 devices are two 8-device chunks,
    // so both workers claim one.
    let range = u64::MAX - 16..u64::MAX;
    let top = run_fleet_range(&simulation, range.clone(), &on(2), None).unwrap();
    let ids: Vec<_> = top.iter().map(|r| r.device_id).collect();
    assert_eq!(ids, range.collect::<Vec<_>>());
    assert_eq!(top[15], reports[1]);
}

#[test]
fn huge_shard_specs_partition_without_overflow() {
    for shards in [1u32, 2, 7, 64] {
        let spec = ShardSpec::new(u64::MAX, shards).unwrap();
        let mut cursor = 0u64;
        for range in spec.ranges() {
            assert_eq!(range.start, cursor);
            cursor = range.end;
        }
        assert_eq!(cursor, u64::MAX);
    }
}

#[test]
fn distribution_summary_degenerate_samples() {
    // Exact mode summarizes through a sketch that never compacts.
    let exact = |values: &[f64]| {
        let mut sketch = fleet::QuantileSketch::with_capacity(usize::MAX);
        values.iter().for_each(|&v| sketch.insert(v));
        sketch.summary()
    };
    assert!(exact(&[]).is_none());
    let single = exact(&[3.5]).unwrap();
    assert_eq!(single.min, 3.5);
    assert_eq!(single.max, 3.5);
    assert_eq!(single.p50, 3.5);
    assert_eq!(single.p90, 3.5);
    assert_eq!(single.p99, 3.5);
    assert_eq!(single.mean, 3.5);
    assert_finite(&single, "single");
}
