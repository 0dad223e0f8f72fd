//! End-to-end conformance of the sharded CLI pipeline: the actual
//! `fleet-shard` and `fleet-merge` binaries, driven as subprocesses, must
//! reproduce `fleet --json` byte-for-byte — and `fleet-merge` must reject
//! incoherent artifact sets with the typed error on stderr.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const DEVICES: &str = "24";
const SHARDS: u32 = 3;
const SEED: &str = "42";

fn run(binary: &str, args: &[&str]) -> Output {
    Command::new(binary)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("running {binary} failed: {e}"))
}

fn run_ok(binary: &str, args: &[&str]) -> Output {
    let output = run(binary, args);
    assert!(
        output.status.success(),
        "{binary} {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

/// Writes the shard artifacts of a 24-device fleet into `dir` and returns
/// their paths.
fn write_shards(dir: &Path) -> Vec<PathBuf> {
    (0..SHARDS)
        .map(|index| {
            let path = dir.join(format!("shard-{index}.json"));
            run_ok(
                env!("CARGO_BIN_EXE_fleet-shard"),
                &[
                    "--devices",
                    DEVICES,
                    "--shards",
                    &SHARDS.to_string(),
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
        .collect()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chris-shard-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn sharded_pipeline_reproduces_the_single_process_report_byte_for_byte() {
    let dir = temp_dir("equivalence");
    let shards = write_shards(&dir);

    let mut merge_args: Vec<&str> = vec!["--json"];
    let shard_strs: Vec<&str> = shards.iter().map(|p| p.to_str().unwrap()).collect();
    merge_args.extend(&shard_strs);
    let merged = run_ok(env!("CARGO_BIN_EXE_fleet-merge"), &merge_args);

    let single = run_ok(
        env!("CARGO_BIN_EXE_fleet"),
        &[
            "--devices",
            DEVICES,
            "--threads",
            "8",
            "--seed",
            SEED,
            "--json",
        ],
    );

    assert_eq!(
        merged.stdout, single.stdout,
        "merged shard output differs from the single-process report"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn streaming_merge_accepts_any_argument_order_and_stays_byte_identical() {
    // fleet-merge consumes artifacts one at a time (streaming fold); the
    // metadata scan must put them in device-id order no matter how the
    // paths are given, and the output must stay byte-identical.
    let dir = temp_dir("ordering");
    let shards = write_shards(&dir);

    let forward: Vec<&str> = shards.iter().map(|p| p.to_str().unwrap()).collect();
    let mut forward_args = vec!["--json"];
    forward_args.extend(&forward);
    let forward_out = run_ok(env!("CARGO_BIN_EXE_fleet-merge"), &forward_args);

    let mut reversed: Vec<&str> = forward.clone();
    reversed.reverse();
    let mut reversed_args = vec!["--json"];
    reversed_args.extend(&reversed);
    let reversed_out = run_ok(env!("CARGO_BIN_EXE_fleet-merge"), &reversed_args);

    assert_eq!(
        forward_out.stdout, reversed_out.stdout,
        "artifact argument order changed the merged report"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merge_rejects_a_missing_shard_with_a_typed_error() {
    let dir = temp_dir("missing");
    let shards = write_shards(&dir);

    // Merge everything except shard 1 (devices [8, 16)).
    let output = run(
        env!("CARGO_BIN_EXE_fleet-merge"),
        &[
            "--json",
            shards[0].to_str().unwrap(),
            shards[2].to_str().unwrap(),
        ],
    );
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("devices [8, 16) are covered by no shard"),
        "unexpected stderr: {stderr}"
    );
    assert!(
        output.stdout.is_empty(),
        "no report may be emitted on error"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merge_rejects_mismatched_seeds_with_a_typed_error() {
    let dir = temp_dir("seeds");
    let shards = write_shards(&dir);

    // Re-run shard 2 under a different master seed.
    run_ok(
        env!("CARGO_BIN_EXE_fleet-shard"),
        &[
            "--devices",
            DEVICES,
            "--shards",
            &SHARDS.to_string(),
            "--shard-index",
            "2",
            "--seed",
            "43",
            "--out",
            shards[2].to_str().unwrap(),
        ],
    );

    let shard_strs: Vec<&str> = shards.iter().map(|p| p.to_str().unwrap()).collect();
    let output = run(env!("CARGO_BIN_EXE_fleet-merge"), &shard_strs);
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("master seed mismatch"),
        "unexpected stderr: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fleet_and_shard_clis_reject_an_invalid_job_spec_before_running() {
    let cases = [
        ("--threads", "1025", "threads must be at most 1024"),
        ("--devices", "0", "devices must be at least 1"),
    ];
    for binary in [
        env!("CARGO_BIN_EXE_fleet"),
        env!("CARGO_BIN_EXE_fleet-shard"),
    ] {
        for (flag, value, message) in cases {
            let output = run(binary, &[flag, value]);
            assert!(
                !output.status.success(),
                "{binary} {flag} {value} succeeded"
            );
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(stderr.contains(message), "unexpected stderr: {stderr}");
            assert!(
                output.stdout.is_empty(),
                "no report may be emitted on error"
            );
        }
    }
}
