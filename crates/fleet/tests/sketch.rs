//! Conformance suite for the deterministic quantile sketch behind
//! `ReportMode::Sketch`: byte identity of sketch-mode reports over arbitrary
//! shard tilings of the device-id space (the sketch is pinned to fold
//! position, and the merge layer folds every tiling in id order from id 0),
//! the proven worst-case rank-error bound against exact order statistics,
//! and the O(log devices) retained-sample footprint that unblocks
//! fleet sizes an exact accumulator cannot hold.

use chris_core::config::EnergyAccounting;
use chris_core::decision::UserConstraint;
use fleet::{
    merge, FleetAccumulator, FleetReport, MergeAccumulator, QuantileSketch, ReportMode,
    ScenarioMix, ShardMeta, ShardReport, SketchedReport, DEFAULT_SKETCH_CAPACITY,
};
use hw_sim::units::Energy;
use proptest::prelude::*;

/// Deterministic pseudo-values: a fixed hash of the id, so every test run
/// sketches the same population without a random source.
fn value_for(id: u64) -> f64 {
    let mut z = id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % 1_000_000) as f64 / 100.0
}

/// Builds the sketch of the values of ids `0..n` at `capacity`.
fn sketch_of(capacity: usize, n: u64) -> QuantileSketch {
    let mut sketch = QuantileSketch::with_capacity(capacity);
    for id in 0..n {
        sketch.insert(value_for(id));
    }
    sketch
}

/// One synthetic device report whose distribution samples derive from the id.
fn device(id: u64) -> fleet::DeviceReport {
    fleet::DeviceReport {
        device_id: id,
        windows: 10 + (id % 50) as usize,
        mae_bpm: (value_for(id) / 100.0) as f32,
        avg_watch_energy: Energy::from_microjoules(100.0 + value_for(id.wrapping_add(1))),
        avg_phone_energy: Energy::from_microjoules(30.0),
        offload_fraction: ((id % 11) as f32) / 10.0,
        simple_fraction: 0.3,
        disconnected_fraction: 0.0,
        battery_life_hours: 100.0 + value_for(id.wrapping_add(2)),
        constraint: if id.is_multiple_of(2) {
            UserConstraint::MaxMae(6.0)
        } else {
            UserConstraint::MaxEnergy(Energy::from_millijoules(0.5))
        },
        accounting: EnergyAccounting::ALL[id as usize % EnergyAccounting::ALL.len()],
        constraint_violated: id.is_multiple_of(7),
    }
}

/// A sketch-mode shard artifact holding the synthetic devices
/// `[start, end)` of a `fleet_devices`-device fleet cut into `shard_count`.
fn shard(fleet_devices: u64, shard_count: u64, index: u64, start: u64, end: u64) -> ShardReport {
    ShardReport {
        meta: ShardMeta {
            engine_version: fleet::ENGINE_VERSION.to_string(),
            master_seed: 42,
            mix: ScenarioMix::balanced(),
            report_mode: ReportMode::Sketch,
            fleet_devices,
            shard_count: shard_count as u32,
            shard_index: index as u32,
            start,
            end,
        },
        devices: (start..end).map(device).collect(),
        telemetry: telemetry::MetricsSnapshot::default(),
    }
}

/// The bytes a sketch-mode report prints as: the envelope with the sketch
/// annotation.
fn sketched_json(sketch: fleet::SketchInfo, report: FleetReport) -> String {
    serde_json::to_string_pretty(&SketchedReport { sketch, report }).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Byte identity over tilings: cut devices `0..n` into arbitrary
    /// shards (cuts land mid-block as often as not), then merge them with
    /// `merge::merge` in shuffled order and with a `MergeAccumulator` in
    /// range order — both print exactly what one `FleetAccumulator` fold
    /// over the whole fleet prints, sketch annotation included.
    #[test]
    fn any_tiling_merged_in_any_order_is_byte_identical(
        n in 1u64..3000,
        raw_cuts in prop::collection::vec(0u64..3000, 0..6),
        shuffle_seed in 0u64..u64::MAX,
    ) {
        let mut single = FleetAccumulator::with_mode(ReportMode::Sketch);
        for id in 0..n {
            single.push(&device(id));
        }
        let single_info = single.sketch_info().unwrap();
        let expected = sketched_json(single_info, single.finalize());

        // Tile [0, n) at the sampled cut points.
        let mut cuts: Vec<u64> = raw_cuts.into_iter().map(|c| c % (n + 1)).collect();
        cuts.push(0);
        cuts.push(n);
        cuts.sort_unstable();
        cuts.dedup();
        let count = (cuts.len() - 1) as u64;
        let shards: Vec<ShardReport> = cuts
            .windows(2)
            .enumerate()
            .map(|(index, w)| shard(n, count, index as u64, w[0], w[1]))
            .collect();

        let mut accumulator = MergeAccumulator::new();
        for tile in &shards {
            accumulator.push(tile).unwrap();
        }
        let info = accumulator.sketch_info().unwrap();
        let streamed = sketched_json(info, accumulator.finalize().unwrap());
        prop_assert_eq!(&streamed, &expected);

        // Deterministic Fisher–Yates driven by the sampled seed.
        let mut shuffled = shards;
        let mut state = shuffle_seed;
        for i in (1..shuffled.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            shuffled.swap(i, (state >> 33) as usize % (i + 1));
        }
        let outcome = merge(shuffled).unwrap();
        let batch = sketched_json(outcome.sketch.unwrap(), outcome.report);
        prop_assert_eq!(&batch, &expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The surfaced rank-error bound holds against exact order statistics:
    /// the value returned for target rank `r` has true rank within
    /// `[r - E, r + E]` of the exact sorted sample, for every reported
    /// percentile.
    #[test]
    fn percentiles_stay_within_the_reported_rank_error_bound(
        values in prop::collection::vec(-1.0e4f64..1.0e4, 1..1200),
        capacity_idx in 0usize..3,
    ) {
        let capacity = [2usize, 16, 128][capacity_idx];
        let mut sketch = QuantileSketch::with_capacity(capacity);
        for &v in &values {
            sketch.insert(v);
        }
        let bound = sketch.rank_error_bound();
        let n = values.len() as u128;
        for p in [1u32, 10, 25, 50, 75, 90, 99, 100] {
            let estimate = sketch.percentile(p).unwrap();
            let target = (u128::from(p) * n).div_ceil(100).max(1);
            let count_le = values
                .iter()
                .filter(|v| v.total_cmp(&estimate).is_le())
                .count() as u128;
            let count_lt = values
                .iter()
                .filter(|v| v.total_cmp(&estimate).is_lt())
                .count() as u128;
            // True rank of `estimate` reaches down to `target - bound`...
            prop_assert!(
                count_le + u128::from(bound) >= target,
                "p{p}: estimate {estimate} has rank ≤ {count_le}, target {target}, bound {bound}"
            );
            // ...and up to `target + bound`.
            prop_assert!(
                count_lt <= target - 1 + u128::from(bound),
                "p{p}: estimate {estimate} has rank > {count_lt}, target {target}, bound {bound}"
            );
        }
        // Min/max/mean are exact, not sketched.
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        prop_assert_eq!(sketch.min(), sorted.first().copied());
        prop_assert_eq!(sketch.max(), sorted.last().copied());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The same bound holds through the report layer: every sketched
    /// percentile in a sketch-mode `FleetReport` is within the reported
    /// rank-error bound of the exact per-device MAE sample.
    #[test]
    fn sketch_report_percentiles_respect_the_bound(n in 1u64..3000) {
        let devices: Vec<fleet::DeviceReport> = (0..n).map(device).collect();
        let mut accumulator = FleetAccumulator::with_mode(ReportMode::Sketch);
        for d in &devices {
            accumulator.push(d);
        }
        let info = accumulator.sketch_info().unwrap();
        let report = accumulator.finalize();
        let maes: Vec<f64> = devices.iter().map(|d| f64::from(d.mae_bpm)).collect();
        for (p, estimate) in [
            (50u32, report.mae_bpm.p50),
            (90, report.mae_bpm.p90),
            (99, report.mae_bpm.p99),
        ] {
            let target = (u128::from(p) * u128::from(n)).div_ceil(100).max(1);
            let count_le = maes
                .iter()
                .filter(|v| v.total_cmp(&estimate).is_le())
                .count() as u128;
            let count_lt = maes
                .iter()
                .filter(|v| v.total_cmp(&estimate).is_lt())
                .count() as u128;
            let bound = u128::from(info.max_rank_error);
            prop_assert!(count_le + bound >= target, "p{p} undershoots the bound");
            prop_assert!(count_lt <= target - 1 + bound, "p{p} overshoots the bound");
        }
    }
}

/// The memory claim of the tentpole, asserted directly (the analogue of
/// `tests/scenario_free.rs` for aggregation memory): a sketch over `n`
/// devices retains O(capacity · log(n / capacity)) samples, not O(n).
#[test]
fn retained_samples_grow_logarithmically_not_linearly() {
    const N: u64 = 100_000;
    let sketch = sketch_of(DEFAULT_SKETCH_CAPACITY, N);
    assert_eq!(sketch.count(), N);
    // At most one node per level of the dyadic forest (the binary digits of
    // the block count), each holding `capacity` values, plus one partial run
    // of fewer than `capacity` raw values.
    let blocks = N / DEFAULT_SKETCH_CAPACITY as u64;
    let levels = 64 - blocks.leading_zeros() as usize;
    let bound = DEFAULT_SKETCH_CAPACITY * (levels + 1);
    assert!(
        sketch.retained() <= bound,
        "retained {} exceeds the O(k log(n/k)) bound {bound}",
        sketch.retained()
    );
    assert!(
        (sketch.retained() as u64) < N / 20,
        "retained {} is not sublinear in n = {N}",
        sketch.retained()
    );
    // The bound it trades for stays honest and sublinear too.
    assert!(sketch.rank_error_fraction() < 0.05);

    // Through the accumulator: all three per-device distributions together
    // stay within 3× the single-sketch bound.
    let mut accumulator = FleetAccumulator::with_mode(ReportMode::Sketch);
    for id in 0..20_000 {
        accumulator.push(&device(id));
    }
    let info = accumulator.sketch_info().unwrap();
    let blocks = 20_000 / DEFAULT_SKETCH_CAPACITY as u64;
    let levels = 64 - blocks.leading_zeros() as usize;
    let per_sketch = DEFAULT_SKETCH_CAPACITY * (levels + 1);
    assert!(
        info.retained_samples <= 3 * per_sketch,
        "accumulator retains {} samples, bound {}",
        info.retained_samples,
        3 * per_sketch
    );
    assert_eq!(accumulator.devices(), 20_000);
    assert_eq!(accumulator.finalize().devices, 20_000);
}

/// Sharded sketch aggregation over synthetic artifacts: a 7-shard merge —
/// streaming or batch, in order or reversed — is byte-identical to the
/// single-process sketch fold over the same 2000 devices.
#[test]
fn synthetic_shard_merge_matches_the_single_process_sketch_fold() {
    const DEVICES: u64 = 2000;
    const SHARDS: u64 = 7;
    let per_shard = DEVICES.div_ceil(SHARDS);
    let shards: Vec<ShardReport> = (0..SHARDS)
        .map(|i| {
            shard(
                DEVICES,
                SHARDS,
                i,
                (i * per_shard).min(DEVICES),
                ((i + 1) * per_shard).min(DEVICES),
            )
        })
        .collect();

    let all: Vec<fleet::DeviceReport> = (0..DEVICES).map(device).collect();
    let single = FleetReport::from_devices_with_mode(&all, ReportMode::Sketch);

    // Streaming, in range order.
    let mut accumulator = MergeAccumulator::new();
    for shard in &shards {
        accumulator.push(shard).unwrap();
    }
    let info = accumulator.sketch_info().unwrap();
    assert!(
        info.compactions > 0,
        "2000 devices must compact at capacity 256"
    );
    let streamed = accumulator.finalize().unwrap();
    assert_eq!(streamed, single);
    assert_eq!(
        serde_json::to_string(&streamed).unwrap(),
        serde_json::to_string(&single).unwrap()
    );

    // Batch, reversed artifact order.
    let mut reversed = shards;
    reversed.reverse();
    let outcome = merge(reversed).unwrap();
    assert_eq!(outcome.report, single);
    assert_eq!(outcome.sketch, Some(info));
}
