//! Golden-report snapshots: a committed 64-device fleet report per preset
//! mix (`balanced`, `harsh`, `connected`, `cohort`) is byte-compared against
//! a fresh run. Any accidental change to scenario
//! generation, device simulation, reduction order or JSON serialization
//! fails this test loudly instead of silently shifting the population-level
//! numbers every downstream claim rests on.
//!
//! If the change is *intentional* (e.g. a deliberate engine change that is
//! allowed to move the numbers), regenerate each fixture with exactly:
//!
//! ```text
//! cargo run --release -p bench --bin fleet -- --devices 64 --seed 42 --mix <mix> --json \
//!     > crates/fleet/tests/fixtures/fleet-64-<mix>-seed42.json
//! ```
//!
//! and call the change out in the PR description.
//!
//! A 5000-device cohort fleet in sketch mode is pinned the same way: at
//! 5000 devices the capacity-256 sketches compact, so the fixture covers
//! the compaction schedule, the keep offsets and the rank-error bound that
//! the 64-device fixtures never reach. Its regeneration command is
//!
//! ```text
//! cargo run --release -p bench --bin fleet -- --devices 5000 --seed 42 --mix cohort \
//!     --report-mode sketch --json > crates/fleet/tests/fixtures/fleet-5000-cohort-seed42-sketch.json
//! ```

use fleet::{ExecutorOptions, FleetSimulation, ReportMode, ScenarioMix, SketchedReport};

const GOLDEN: &str = include_str!("fixtures/fleet-64-balanced-seed42.json");

const REGENERATE: &str = "cargo run --release -p bench --bin fleet -- \
     --devices 64 --seed 42 --mix balanced --json \
     > crates/fleet/tests/fixtures/fleet-64-balanced-seed42.json";

#[test]
fn golden_64_device_balanced_report_is_byte_stable() {
    let simulation = FleetSimulation::new(42, ScenarioMix::balanced()).unwrap();
    let outcome = simulation
        .run_with_options(64, &ExecutorOptions::default(), None)
        .unwrap();
    let json = serde_json::to_string_pretty(&outcome.report).unwrap();
    // The CLI prints the JSON with a trailing newline; mirror it so the
    // fixture can be regenerated by redirecting the CLI's stdout.
    let fresh = format!("{json}\n");
    assert_eq!(
        fresh, GOLDEN,
        "the 64-device balanced fleet report drifted from the committed golden \
         fixture; if this change is intentional, regenerate it with:\n  {REGENERATE}"
    );
}

/// The other preset mixes, each pinned by its own fixture. Every activity
/// has a nonzero burst probability, so all of them exercise the
/// accelerometer burst schedule.
const OTHER_MIXES: [(&str, &str); 3] = [
    ("harsh", include_str!("fixtures/fleet-64-harsh-seed42.json")),
    (
        "connected",
        include_str!("fixtures/fleet-64-connected-seed42.json"),
    ),
    (
        "cohort",
        include_str!("fixtures/fleet-64-cohort-seed42.json"),
    ),
];

#[test]
fn golden_64_device_reports_of_the_other_mixes_are_byte_stable() {
    for (name, golden) in OTHER_MIXES {
        let mix = ScenarioMix::from_name(name).unwrap();
        let simulation = FleetSimulation::new(42, mix).unwrap();
        let outcome = simulation
            .run_with_options(64, &ExecutorOptions::default(), None)
            .unwrap();
        let json = serde_json::to_string_pretty(&outcome.report).unwrap();
        assert_eq!(
            format!("{json}\n"),
            golden,
            "the 64-device {name} fleet report drifted from its golden fixture; \
             if this change is intentional, regenerate it with:\n  \
             cargo run --release -p bench --bin fleet -- --devices 64 --seed 42 \
             --mix {name} --json > crates/fleet/tests/fixtures/fleet-64-{name}-seed42.json"
        );
    }
}

#[test]
fn streaming_pipeline_reproduces_the_golden_fixture_byte_for_byte() {
    // The full streaming stack — scenario-free shard workers, incremental
    // FleetAccumulator aggregation, one-artifact-at-a-time merge — must land
    // on the committed fixture exactly, proving the streaming refactor moved
    // no population-level number.
    let simulation = FleetSimulation::new(42, ScenarioMix::balanced()).unwrap();
    let spec = fleet::ShardSpec::new(64, 4).unwrap();
    let options = ExecutorOptions {
        threads: 2,
        ..ExecutorOptions::default()
    };
    let mut accumulator = fleet::MergeAccumulator::new();
    for index in 0..4 {
        let shard = simulation
            .run_shard_with_options(&spec, index, &options, None)
            .unwrap();
        accumulator.push(&shard).unwrap();
    }
    let report = accumulator.finalize().unwrap();
    let json = serde_json::to_string_pretty(&report).unwrap();
    assert_eq!(
        format!("{json}\n"),
        GOLDEN,
        "the streaming shard/merge pipeline drifted from the golden fixture"
    );
}

#[test]
fn golden_fixture_parses_back_into_a_report() {
    let report: fleet::FleetReport = serde_json::from_str(GOLDEN.trim_end()).unwrap();
    assert_eq!(report.devices, 64);
    assert_eq!(report.offload_histogram.iter().sum::<usize>(), 64);
}

const SKETCH_GOLDEN: &str = include_str!("fixtures/fleet-5000-cohort-seed42-sketch.json");

/// Renders a sketch-mode report the way `fleet --report-mode sketch --json`
/// prints it: the pretty envelope plus a trailing newline.
fn render_sketched(sketched: SketchedReport) -> String {
    format!("{}\n", serde_json::to_string_pretty(&sketched).unwrap())
}

#[test]
fn golden_5000_device_cohort_sketch_report_is_byte_stable() {
    let simulation = FleetSimulation::new(42, ScenarioMix::cohort()).unwrap();
    let options = ExecutorOptions {
        report_mode: ReportMode::Sketch,
        ..ExecutorOptions::default()
    };
    let outcome = simulation.run_with_options(5000, &options, None).unwrap();
    let fresh = render_sketched(SketchedReport {
        sketch: outcome.sketch.expect("sketch-mode runs report sketch info"),
        report: outcome.report,
    });
    assert_eq!(
        fresh, SKETCH_GOLDEN,
        "the 5000-device cohort sketch report drifted from its golden fixture; \
         if this change is intentional, regenerate it with:\n  \
         cargo run --release -p bench --bin fleet -- --devices 5000 --seed 42 --mix cohort \
         --report-mode sketch --json > crates/fleet/tests/fixtures/fleet-5000-cohort-seed42-sketch.json"
    );
}

#[test]
fn sharded_sketch_pipeline_reproduces_the_5000_device_fixture() {
    // Four shards of 1250 devices: no shard boundary is a multiple of the
    // sketch capacity (256), so blocks straddle every artifact seam.
    let simulation = FleetSimulation::new(42, ScenarioMix::cohort()).unwrap();
    let spec = fleet::ShardSpec::new(5000, 4).unwrap();
    let options = ExecutorOptions {
        threads: 2,
        report_mode: ReportMode::Sketch,
        ..ExecutorOptions::default()
    };
    let mut accumulator = fleet::MergeAccumulator::new();
    for index in 0..4 {
        let shard = simulation
            .run_shard_with_options(&spec, index, &options, None)
            .unwrap();
        assert_ne!(
            shard.meta.end % 256,
            0,
            "shard {index} ends on a block edge"
        );
        accumulator.push(&shard).unwrap();
    }
    let sketch = accumulator.sketch_info().unwrap();
    let report = accumulator.finalize().unwrap();
    assert_eq!(
        render_sketched(SketchedReport { sketch, report }),
        SKETCH_GOLDEN,
        "the sharded sketch pipeline drifted from the 5000-device fixture"
    );
}
