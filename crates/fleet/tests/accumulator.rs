//! Property suite for streaming fleet aggregation: feeding random device
//! reports one at a time through `FleetAccumulator` must serialize
//! byte-identically to the batch `FleetReport::from_devices` over the same
//! slice — including empty and single-device fleets. This is the lock that
//! keeps incremental aggregation (and therefore streaming shard merges)
//! exact rather than approximate.

use chris_core::config::EnergyAccounting;
use chris_core::decision::UserConstraint;
use fleet::{DistributionSummary, FleetAccumulator, FleetReport, QuantileSketch, ReportMode};
use hw_sim::units::Energy;
use proptest::prelude::*;

/// Builds one synthetic device report from sampled scalars.
#[allow(clippy::too_many_arguments)]
fn device(
    id: u64,
    windows: usize,
    mae: f32,
    watch_uj: f64,
    phone_uj: f64,
    offload: f32,
    battery_hours: f64,
    max_mae_constraint: bool,
    accounting_index: usize,
    violated: bool,
) -> fleet::DeviceReport {
    fleet::DeviceReport {
        device_id: id,
        windows,
        mae_bpm: mae,
        avg_watch_energy: Energy::from_microjoules(watch_uj),
        avg_phone_energy: Energy::from_microjoules(phone_uj),
        offload_fraction: offload,
        simple_fraction: 0.4,
        disconnected_fraction: 1.0 - offload,
        battery_life_hours: battery_hours,
        constraint: if max_mae_constraint {
            UserConstraint::MaxMae(6.0)
        } else {
            UserConstraint::MaxEnergy(Energy::from_millijoules(0.5))
        },
        accounting: EnergyAccounting::ALL[accounting_index % EnergyAccounting::ALL.len()],
        constraint_violated: violated,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// One-at-a-time accumulation equals batch aggregation, byte for byte.
    #[test]
    fn accumulator_equals_from_devices_byte_for_byte(
        seeds in prop::collection::vec(
            (
                1usize..400,          // windows
                0.1f32..40.0,         // MAE
                (1.0f64..2000.0, 0.0f64..500.0),  // watch / phone energy
                0.0f32..=1.0,         // offload fraction
                1.0f64..5000.0,       // battery life
            ),
            0..40,
        ),
        constraint_bits in prop::collection::vec(prop::bool::ANY, 40),
        accounting_indices in prop::collection::vec(0usize..8, 40),
    ) {
        let devices: Vec<fleet::DeviceReport> = seeds
            .iter()
            .enumerate()
            .map(|(i, (windows, mae, (watch, phone), offload, battery))| {
                device(
                    i as u64,
                    *windows,
                    *mae,
                    *watch,
                    *phone,
                    *offload,
                    *battery,
                    constraint_bits[i],
                    accounting_indices[i],
                    i % 7 == 0,
                )
            })
            .collect();

        let batch = FleetReport::from_devices(&devices);
        let mut accumulator = FleetAccumulator::new();
        for d in &devices {
            accumulator.push(d);
        }
        let streamed = accumulator.finalize();

        prop_assert_eq!(&streamed, &batch);
        // Byte-for-byte: the serialized artifacts are indistinguishable.
        prop_assert_eq!(
            serde_json::to_string(&streamed).unwrap(),
            serde_json::to_string(&batch).unwrap()
        );

        // The same lock holds in sketch mode — streamed sketch aggregation
        // is byte-identical to the batch sketch fold, and everything
        // non-percentile matches the exact report.
        let sketch_batch = FleetReport::from_devices_with_mode(&devices, ReportMode::Sketch);
        let mut sketch_accumulator = FleetAccumulator::with_mode(ReportMode::Sketch);
        for d in &devices {
            sketch_accumulator.push(d);
        }
        prop_assert_eq!(sketch_accumulator.sketch_info().is_some(), true);
        let sketch_streamed = sketch_accumulator.finalize();
        prop_assert_eq!(&sketch_streamed, &sketch_batch);
        prop_assert_eq!(
            serde_json::to_string(&sketch_streamed).unwrap(),
            serde_json::to_string(&sketch_batch).unwrap()
        );
        prop_assert_eq!(sketch_streamed.total_windows, batch.total_windows);
        prop_assert_eq!(&sketch_streamed.offload_histogram, &batch.offload_histogram);
        prop_assert_eq!(sketch_streamed.constraint_violations, batch.constraint_violations);
    }
}

/// Values whose order statistics and means are easy to get wrong.
const EDGE_VALUES: [f64; 6] = [
    f64::NAN,
    -f64::NAN,
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// Reference summary of `values`, independent of the crate: sort by
/// `total_cmp`, index the integer nearest rank, and sum in insertion order.
/// The six fields as bits, in declaration order.
fn oracle_bits(values: &[f64]) -> [u64; 6] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = |p: usize| sorted[(p * n).div_ceil(100) - 1];
    let total = values[1..].iter().fold(values[0], |acc, &v| acc + v);
    let mean = total / n as f64;
    [sorted[0], mean, rank(50), rank(90), rank(99), sorted[n - 1]].map(f64::to_bits)
}

/// The six fields of `summary` as bits, in declaration order.
fn bits(summary: &DistributionSummary) -> [u64; 6] {
    let DistributionSummary {
        min,
        mean,
        p50,
        p90,
        p99,
        max,
    } = *summary;
    [min, mean, p50, p90, p99, max].map(f64::to_bits)
}

/// Checks one sample against the oracle through an exact-mode
/// `FleetAccumulator` (all three quantities) and an unbounded sketch.
fn assert_exact_matches_the_oracle(values: &[f64]) {
    let devices: Vec<fleet::DeviceReport> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| device(i as u64, 10, v as f32, v, 1.0, 0.5, v, true, 0, false))
        .collect();
    let mut accumulator = FleetAccumulator::with_mode(ReportMode::Exact);
    for d in &devices {
        accumulator.push(d);
    }
    assert_eq!(accumulator.sketch_info(), None);
    let report = accumulator.finalize();
    let maes: Vec<f64> = devices.iter().map(|d| f64::from(d.mae_bpm)).collect();
    let summaries = [
        &report.mae_bpm,
        &report.watch_energy_uj,
        &report.battery_life_hours,
    ];
    let expected = [oracle_bits(&maes), oracle_bits(values), oracle_bits(values)];
    assert_eq!(summaries.map(bits), expected, "{values:?}");

    let mut sketch = QuantileSketch::with_capacity(usize::MAX);
    for &v in values {
        sketch.insert(v);
    }
    assert_eq!(sketch.compactions(), 0);
    assert_eq!(sketch.rank_error_bound(), 0);
    assert_eq!(sketch.retained(), values.len());
    assert_eq!(bits(&sketch.summary().unwrap()), oracle_bits(values));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Exact mode is exact: past the 256-value block a bounded sketch would
    /// compact, with NaN of both signs, ±0, ±∞ and duplicates mixed in,
    /// every field matches the oracle bit for bit.
    #[test]
    fn exact_mode_matches_an_independent_oracle_bit_for_bit(
        finite in prop::collection::vec(
            // Half small integers, so duplicates are common.
            (prop::bool::ANY, -4i32..4, -1.0e6f64..1.0e6)
                .prop_map(|(small, int, wide)| if small { f64::from(int) } else { wide }),
            1..=600,
        ),
        edges in prop::collection::vec((0usize..=600, 0..EDGE_VALUES.len()), 0..8),
    ) {
        let mut values = finite;
        for (at, edge) in edges {
            values.insert(at % (values.len() + 1), EDGE_VALUES[edge]);
        }
        values.truncate(600);
        assert_exact_matches_the_oracle(&values);
    }
}

#[test]
fn exact_mode_matches_the_oracle_on_degenerate_samples() {
    let all_negative_zero = [-0.0; 300];
    assert_exact_matches_the_oracle(&all_negative_zero);
    assert!(QuantileSketch::with_capacity(usize::MAX)
        .summary()
        .is_none());
    for edge in EDGE_VALUES {
        assert_exact_matches_the_oracle(&[edge]);
        assert_exact_matches_the_oracle(&[edge; 7]);
    }
    assert_exact_matches_the_oracle(&EDGE_VALUES);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The integer-math percentile index is exactly the nearest rank: the
    /// *smallest* 1-based rank covering `p` percent of the sample — never
    /// one past it, which is what the old float `ceil` formulation produced
    /// whenever `p / 100.0` rounded up against an exact-integer rank.
    #[test]
    fn nearest_rank_index_is_the_smallest_covering_rank(
        p in 1u32..=100,
        n in 1usize..100_000,
    ) {
        let index = fleet::DistributionSummary::nearest_rank_index(p, n);
        prop_assert!(index < n);
        let rank = (index + 1) as u128;
        let target = u128::from(p) * n as u128;
        // `rank` samples cover p percent of the population...
        prop_assert!(rank * 100 >= target, "rank {rank} misses p{p} of {n}");
        // ...and no smaller rank does (the overshoot the fix removes).
        prop_assert!(
            (rank - 1) * 100 < target,
            "rank {rank} exceeds the true nearest rank for p{p} of {n}"
        );
    }
}

#[test]
fn empty_fleet_accumulates_to_the_batch_report() {
    let streamed = FleetAccumulator::new().finalize();
    let batch = FleetReport::from_devices(&[]);
    assert_eq!(streamed, batch);
    assert_eq!(
        serde_json::to_string(&streamed).unwrap(),
        serde_json::to_string(&batch).unwrap()
    );
}

#[test]
fn single_device_fleet_accumulates_to_the_batch_report() {
    let only = device(0, 120, 5.5, 420.0, 60.0, 0.35, 900.0, true, 0, false);
    let batch = FleetReport::from_devices(std::slice::from_ref(&only));
    let mut accumulator = FleetAccumulator::new();
    accumulator.push(&only);
    let streamed = accumulator.finalize();
    assert_eq!(streamed, batch);
    assert_eq!(
        serde_json::to_string(&streamed).unwrap(),
        serde_json::to_string(&batch).unwrap()
    );
}
