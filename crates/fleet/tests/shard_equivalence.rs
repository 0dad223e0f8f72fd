//! Conformance suite for sharded fleet execution: for random fleets,
//! partitioning the device-id range into K shards, simulating each shard
//! independently and merging the artifacts must reproduce the single-process
//! report **byte-for-byte** — the property that makes population-level
//! MAE/energy claims survive scale-out unchanged.

use std::collections::BTreeSet;

use fleet::{merge, ExecutorOptions, FleetSimulation, ReportMode, ScenarioMix, ShardSpec};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Shard boundaries never duplicate or drop a device, for any fleet size
    /// and shard count (including more shards than devices).
    #[test]
    fn shard_ranges_tile_the_fleet(devices in 0u64..100_000, shards in 1u32..=64) {
        let spec = ShardSpec::new(devices, shards).unwrap();
        let ranges = spec.ranges();
        prop_assert_eq!(ranges.len(), shards as usize);
        let mut cursor = 0u64;
        for (index, range) in ranges.iter().enumerate() {
            // Contiguous: no gap, no overlap.
            prop_assert_eq!(range.start, cursor);
            prop_assert!(range.end >= range.start);
            cursor = range.end;
            prop_assert_eq!(spec.range(index as u32).unwrap(), range.clone());
        }
        prop_assert_eq!(cursor, devices);
        prop_assert!(spec.range(shards).is_none());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// End-to-end equivalence: running K shards independently (at an
    /// arbitrary thread count) and merging serializes byte-identically to
    /// the single-process run over the same fleet — also for a cohort fleet
    /// with the cache on, whose shard runs share one simulation's pool
    /// slots.
    #[test]
    fn merged_report_is_byte_identical_to_single_process(
        master_seed in 0u64..1000,
        devices in 1u64..40,
        shards in 1u32..=8,
        threads in 1usize..=4,
    ) {
        for (mix, profile_cache) in [
            (ScenarioMix::balanced(), None),
            (ScenarioMix::cohort(), Some(usize::MAX)),
        ] {
            let simulation = FleetSimulation::new(master_seed, mix).unwrap();
            let on = |threads| ExecutorOptions { threads, ..ExecutorOptions::default() };
            // The uncached reference leaves the pool slots empty, so the
            // shard runs below fill them themselves.
            let single = simulation.run_with_options(devices, &on(1), None).unwrap();

            let spec = ShardSpec::new(devices, shards).unwrap();
            let sharded = ExecutorOptions { profile_cache, ..on(threads) };
            let mut artifacts = Vec::new();
            let mut seen_ids = BTreeSet::new();
            for index in 0..shards {
                let shard = simulation
                    .run_shard_with_options(&spec, index, &sharded, None)
                    .unwrap();
                for device in &shard.devices {
                    // No device id may appear in two shards.
                    prop_assert!(seen_ids.insert(device.device_id));
                }
                // Shard artifacts survive the JSON round trip exactly.
                let json = serde_json::to_string(&shard).unwrap();
                let back: fleet::ShardReport = serde_json::from_str(&json).unwrap();
                prop_assert_eq!(&back, &shard);
                artifacts.push(back);
            }
            // No device id may be dropped.
            let expected_ids: BTreeSet<u64> = (0..devices).collect();
            prop_assert_eq!(seen_ids, expected_ids);

            let merged = merge(artifacts).unwrap();
            prop_assert_eq!(&merged.devices, &single.devices);
            prop_assert_eq!(&merged.report, &single.report);

            let merged_json = serde_json::to_string_pretty(&merged.report).unwrap();
            let single_json = serde_json::to_string_pretty(&single.report).unwrap();
            prop_assert_eq!(merged_json, single_json);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// The byte-identity guarantee survives sketch mode: merging
    /// sketch-mode shard artifacts of an arbitrary tiling — in range order
    /// or reversed — serializes byte-identically to the sketch-mode
    /// single-process run.
    #[test]
    fn sketch_mode_merge_is_byte_identical_to_single_process(
        master_seed in 0u64..1000,
        devices in 1u64..30,
        shards in 1u32..=6,
        threads in 1usize..=4,
    ) {
        let options = ExecutorOptions {
            report_mode: ReportMode::Sketch,
            ..ExecutorOptions::default()
        };
        let simulation = FleetSimulation::new(master_seed, ScenarioMix::balanced()).unwrap();
        let single = simulation.run_with_options(devices, &options, None).unwrap();
        prop_assert!(single.sketch.is_some());

        let spec = ShardSpec::new(devices, shards).unwrap();
        let threaded = ExecutorOptions { threads, ..options };
        let mut artifacts = Vec::new();
        for index in 0..shards {
            let shard = simulation
                .run_shard_with_options(&spec, index, &threaded, None)
                .unwrap();
            prop_assert_eq!(shard.meta.report_mode, ReportMode::Sketch);
            // Sketch-mode artifacts survive the JSON round trip exactly.
            let json = serde_json::to_string(&shard).unwrap();
            let back: fleet::ShardReport = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(&back, &shard);
            artifacts.push(back);
        }

        let mut reversed = artifacts.clone();
        reversed.reverse();
        let merged = merge(artifacts).unwrap();
        let merged_reversed = merge(reversed).unwrap();

        for outcome in [&merged, &merged_reversed] {
            prop_assert_eq!(&outcome.devices, &single.devices);
            prop_assert_eq!(&outcome.report, &single.report);
            prop_assert_eq!(&outcome.sketch, &single.sketch);
            prop_assert_eq!(
                serde_json::to_string_pretty(&outcome.report).unwrap(),
                serde_json::to_string_pretty(&single.report).unwrap()
            );
        }
    }
}
