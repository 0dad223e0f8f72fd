//! End-to-end telemetry conformance of the fleet CLI family, driven as
//! subprocesses:
//!
//! * stdout artifacts are **byte-identical** with and without the
//!   observability flags (`--progress --metrics-out`) and across thread
//!   counts — telemetry is strictly a sidecar,
//! * a pooled `fleet --progress` run reports its pool-slot replays on
//!   stderr while stdout stays the committed golden report,
//! * `--metrics-out` writes exposition that parses and carries the
//!   workload-deterministic counters, and exactly the families the run
//!   recorded — nothing process-global,
//! * `fleet-merge --metrics-out` over shard artifacts emits the same stable
//!   counters as the single-process run.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const DEVICES: &str = "12";
const SEED: &str = "42";

fn run_ok(binary: &str, args: &[&str]) -> Output {
    let output = Command::new(binary)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("running {binary} failed: {e}"));
    assert!(
        output.status.success(),
        "{binary} {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chris-metrics-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn shard_stdout(threads: &str, observability: Option<&Path>) -> Vec<u8> {
    let mut args = vec![
        "--devices",
        DEVICES,
        "--seed",
        SEED,
        "--mix",
        "cohort",
        "--threads",
        threads,
    ];
    let metrics_path = observability.map(|dir| dir.join(format!("shard-t{threads}.prom")));
    if let Some(path) = &metrics_path {
        args.extend(["--progress", "--metrics-out", path.to_str().unwrap()]);
    }
    let output = run_ok(env!("CARGO_BIN_EXE_fleet-shard"), &args);
    if let Some(path) = &metrics_path {
        // The sidecar must exist and parse; stdout must not contain it.
        let text = std::fs::read_to_string(path).unwrap();
        telemetry::parse_exposition(&text).expect("sidecar exposition parses");
    }
    output.stdout
}

#[test]
fn observability_flags_never_change_the_stdout_artifact() {
    let dir = temp_dir("stdout-stability");
    let baseline = shard_stdout("1", None);
    assert!(!baseline.is_empty());
    for threads in ["1", "4", "8"] {
        assert_eq!(
            baseline,
            shard_stdout(threads, None),
            "plain artifact drifted at {threads} threads"
        );
        assert_eq!(
            baseline,
            shard_stdout(threads, Some(&dir)),
            "--progress --metrics-out changed stdout at {threads} threads"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pooled_fleet_progress_reports_slot_replays_without_a_flag() {
    let output = run_ok(
        env!("CARGO_BIN_EXE_fleet"),
        &[
            "--devices",
            "64",
            "--seed",
            SEED,
            "--mix",
            "cohort",
            "--json",
            "--progress",
            "--threads",
            "4",
        ],
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    // 16 pool slots, each synthesized once and replayed by 3 more devices.
    assert!(
        stderr
            .lines()
            .any(|line| line == "progress: profile-cache hits 48 misses 16"),
        "cache line missing:\n{stderr}"
    );
    // 54 distinct run keys among the 64 devices: the other 10 reuse a run.
    assert!(
        stderr
            .lines()
            .any(|line| line == "progress: run-memo hits 10 misses 54"),
        "run-memo line missing:\n{stderr}"
    );
    assert_eq!(
        String::from_utf8_lossy(&output.stdout),
        include_str!("../../fleet/tests/fixtures/fleet-64-cohort-seed42.json"),
        "slot replay moved the cohort report"
    );
}

#[test]
fn progress_lines_are_throttled_to_the_hard_cap() {
    // 100 devices with a 1/32 step would previously print up to 100 lines;
    // the throttle caps device-progress lines at 33 (32 steps + the
    // guaranteed final totals) while stdout stays the report alone.
    let output = run_ok(
        env!("CARGO_BIN_EXE_fleet"),
        &[
            "--devices",
            "100",
            "--seed",
            SEED,
            "--threads",
            "4",
            "--progress",
            "--json",
        ],
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    let lines: Vec<&str> = stderr
        .lines()
        .filter(|line| line.starts_with("progress: devices "))
        .collect();
    assert!(
        lines.len() <= 33,
        "{} progress lines exceed the cap:\n{stderr}",
        lines.len()
    );
    assert!(
        lines.iter().any(|line| line.contains("devices 100/100")),
        "final totals line missing:\n{stderr}"
    );
    assert!(
        output.stdout.starts_with(b"{"),
        "stdout is still the report"
    );
}

#[test]
fn fleet_metrics_exposition_carries_the_run_counters() {
    let dir = temp_dir("exposition");
    let path = dir.join("fleet.prom");
    run_ok(
        env!("CARGO_BIN_EXE_fleet"),
        &[
            "--devices",
            DEVICES,
            "--seed",
            SEED,
            "--threads",
            "2",
            "--json",
            "--metrics-out",
            path.to_str().unwrap(),
        ],
    );
    let text = std::fs::read_to_string(&path).unwrap();
    let samples = telemetry::parse_exposition(&text).unwrap();

    let windows =
        telemetry::sample_value(&samples, "chris_windows_total").expect("windows counter present");
    assert!(windows > 0.0);
    let phone =
        telemetry::sample_value(&samples, "chris_offload_decisions_total{backend=\"phone\"}")
            .expect("offload counter present");
    let wearable = telemetry::sample_value(
        &samples,
        "chris_offload_decisions_total{backend=\"wearable\"}",
    )
    .expect("offload counter present");
    assert_eq!(phone + wearable, windows);

    // The runtime loop is timed once per run, and a balanced fleet has no
    // subject pool, so no device reuses another's run.
    let runs =
        telemetry::sample_value(&samples, "chris_stage_duration_ns_count{stage=\"runtime\"}")
            .expect("the runtime stage has a duration histogram");
    assert_eq!(
        runs,
        DEVICES.parse::<f64>().unwrap(),
        "one observation per device"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fleet_exposition_holds_exactly_the_run_families() {
    let dir = temp_dir("families");
    for mix in ["balanced", "cohort"] {
        for mode in ["exact", "sketch"] {
            let path = dir.join(format!("{mix}-{mode}.prom"));
            run_ok(
                env!("CARGO_BIN_EXE_fleet"),
                &[
                    "--devices",
                    "64",
                    "--seed",
                    SEED,
                    "--mix",
                    mix,
                    "--report-mode",
                    mode,
                    "--json",
                    "--metrics-out",
                    path.to_str().unwrap(),
                ],
            );
            let text = std::fs::read_to_string(&path).unwrap();
            let families: BTreeSet<&str> = text
                .lines()
                .filter_map(|line| line.strip_prefix("# TYPE "))
                .filter_map(|rest| rest.split(' ').next())
                .collect();
            let mut expected = BTreeSet::from([
                "chris_model_invocations_total",
                "chris_offload_decisions_total",
                "chris_stage_duration_ns",
                "chris_windows_total",
            ]);
            if mix == "cohort" {
                expected.extend([
                    "chris_profile_cache_events_total",
                    "chris_run_memo_events_total",
                ]);
            }
            if mode == "sketch" {
                expected.extend([
                    "chris_sketch_compactions_total",
                    "chris_sketch_retained_samples",
                ]);
            }
            assert_eq!(families, expected, "--mix {mix} --report-mode {mode}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merged_exposition_matches_the_single_process_stable_counters() {
    let dir = temp_dir("merge");
    let shards: Vec<PathBuf> = (0..3u32)
        .map(|index| {
            let path = dir.join(format!("shard-{index}.json"));
            run_ok(
                env!("CARGO_BIN_EXE_fleet-shard"),
                &[
                    "--devices",
                    DEVICES,
                    "--shards",
                    "3",
                    "--shard-index",
                    &index.to_string(),
                    "--seed",
                    SEED,
                    "--threads",
                    "2",
                    "--out",
                    path.to_str().unwrap(),
                ],
            );
            path
        })
        .collect();

    let merged_prom = dir.join("merged.prom");
    let mut merge_args = vec!["--json", "--metrics-out", merged_prom.to_str().unwrap()];
    let shard_strs: Vec<&str> = shards.iter().map(|p| p.to_str().unwrap()).collect();
    merge_args.extend(&shard_strs);
    run_ok(env!("CARGO_BIN_EXE_fleet-merge"), &merge_args);

    let single_prom = dir.join("single.prom");
    run_ok(
        env!("CARGO_BIN_EXE_fleet"),
        &[
            "--devices",
            DEVICES,
            "--seed",
            SEED,
            "--threads",
            "1",
            "--json",
            "--metrics-out",
            single_prom.to_str().unwrap(),
        ],
    );

    let merged = std::fs::read_to_string(&merged_prom).unwrap();
    let single = std::fs::read_to_string(&single_prom).unwrap();
    let merged_samples = telemetry::parse_exposition(&merged).unwrap();
    let single_samples = telemetry::parse_exposition(&single).unwrap();
    assert!(!merged_samples.is_empty());

    // The merged exposition holds only the shards' embedded Stable series:
    // the run telemetry of every device, which must match the single-process
    // exposition's run counters exactly. Snapshot-level equality of run
    // telemetry is proptest-locked in fleet's test suite.
    for series in [
        "chris_windows_total",
        "chris_offload_decisions_total{backend=\"phone\"}",
        "chris_offload_decisions_total{backend=\"wearable\"}",
    ] {
        assert_eq!(
            telemetry::sample_value(&merged_samples, series),
            telemetry::sample_value(&single_samples, series),
            "series {series} diverged between merged and single-process runs"
        );
        assert!(
            telemetry::sample_value(&merged_samples, series).is_some(),
            "series {series} missing from the merged exposition"
        );
    }
    // In the merged exposition every window runs exactly one model, so the
    // model invocations sum to the windows. The single-process exposition
    // adds the profiling share: the fleet profiles each of the 60
    // configurations once over the same profiling windows, one prediction
    // per window, before any device runs (each fleet-shard process profiles
    // too, but only its run telemetry is embedded in the artifact).
    let invocations = |samples: &[telemetry::Sample]| -> f64 {
        ["AT", "TimePPG-Small", "TimePPG-Big"]
            .into_iter()
            .map(|model| {
                let series = format!("chris_model_invocations_total{{model=\"{model}\"}}");
                telemetry::sample_value(samples, &series)
                    .unwrap_or_else(|| panic!("series {series} missing from the exposition"))
            })
            .sum()
    };
    let windows = telemetry::sample_value(&merged_samples, "chris_windows_total").unwrap();
    assert_eq!(invocations(&merged_samples), windows);
    let profiling = invocations(&single_samples) - windows;
    assert!(
        profiling > 0.0 && profiling % 60.0 == 0.0,
        "profiling share {profiling} is not one prediction per window per configuration"
    );
    std::fs::remove_dir_all(&dir).ok();
}
