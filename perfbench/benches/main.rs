//! `perfbench` — the CHRIS fleet benchmark.
//!
//! ```text
//! perfbench --workload balanced|cohort|daemon [--seed N] [--seconds S] [--trace 0|1]
//!           [--record FILE] [--spans-out FILE] [--smoke]
//! perfbench suite [--seed N] [--seconds S] [--record FILE] [--smoke]
//! perfbench compare BASE.jsonl HEAD.jsonl [--spec BENCHMARK.json]
//! ```
//!
//! A run measures one workload for `--seconds` (default 10), checks every
//! output against an expected one, prints every metric by name with its
//! unit, and ends with one JSON line: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics, or with `--trace 1` the per-layer
//! metrics of a separate traced run. `--record` appends the result with its
//! reproducibility stamp (seed, git rev, nproc, engine version, rustc,
//! build profile) to a JSON-lines file; `compare` reads two such files.
//! `suite` runs all three workloads traced, which includes their untraced
//! runs. Scratch files (daemon spools, artifacts) live under `.bench_run/`
//! in the working directory and are removed before exit.
//!
//! The workload seed defaults to 42. Seed 9001 is held out: no tuning of
//! this benchmark used it, and later performance claims are re-checked on
//! it.

mod compare;
mod daemon;
mod fleetload;
mod metrics;
mod probes;
mod replay;
mod stats;
mod trace;

use std::fs::OpenOptions;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{json_number, Metric, RunResult};
use trace::Trace;

/// The workloads, in the order `suite` runs them.
pub const WORKLOADS: [&str; 3] = ["balanced", "cohort", "daemon"];
/// Default workload seed.
const DEFAULT_SEED: u64 = 42;
/// Timed repetitions (fleet runs, daemon jobs) made however short the run:
/// twenty puts the tail percentile at p50 or above.
const MIN_REPS: usize = 20;

/// Report digests recorded for the default fleet sizes: `workload seed
/// devices digest` per line.
const RECORDED_DIGESTS: &str = include_str!("../expected.txt");

/// The recorded report digest of a fleet workload, if one was recorded for
/// this seed and size.
pub fn recorded_digest(workload: &str, seed: u64, devices: u64) -> Option<u64> {
    RECORDED_DIGESTS
        .lines()
        .filter(|line| !line.starts_with('#'))
        .find_map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields[..] {
                [w, s, d, digest]
                    if w == workload && s.parse() == Ok(seed) && d.parse() == Ok(devices) =>
                {
                    u64::from_str_radix(digest, 16).ok()
                }
                _ => None,
            }
        })
}

/// How one run is made.
pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny fleets and jobs, for self-tests.
    pub smoke: bool,
    pub min_reps: usize,
    /// Overrides the recorded digest in self-tests (a wrong one must fail
    /// every device).
    pub expected_digest: Option<u64>,
    pub nproc: usize,
    /// Per-process scratch root under `.bench_run/`.
    pub run_dir: PathBuf,
    pub spans_out: Option<PathBuf>,
}

impl Settings {
    fn new(seed: u64, seconds: f64, trace: bool, smoke: bool) -> Self {
        Self {
            seed,
            seconds,
            trace,
            smoke,
            min_reps: if smoke { 1 } else { MIN_REPS },
            expected_digest: None,
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            run_dir: PathBuf::from(".bench_run").join(std::process::id().to_string()),
            spans_out: None,
        }
    }

    /// A scratch directory for `tag`, inside the run's scratch root.
    pub fn scratch_dir(&self, tag: &str) -> PathBuf {
        self.run_dir.join(tag)
    }

    /// Appends the traces' spans to `--spans-out`, if given.
    pub fn write_spans(&self, traces: &[(&str, &Trace)]) {
        let Some(path) = &self.spans_out else { return };
        let written = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut file| {
                traces
                    .iter()
                    .try_for_each(|(run, trace)| trace.write_jsonl(&mut file, run))
            });
        if let Err(e) = written {
            eprintln!("perfbench: writing spans to {} failed: {e}", path.display());
        }
    }

    fn cleanup(&self) {
        let _ = std::fs::remove_dir_all(&self.run_dir);
        if let Some(parent) = self.run_dir.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Runs one workload.
///
/// # Errors
///
/// A message when the workload is unknown or cannot run at all.
pub fn run_workload(workload: &str, settings: &Settings) -> Result<RunResult, String> {
    let result = match workload {
        "daemon" => daemon::run(settings.seed, settings),
        other => match fleetload::specs(other, settings.seed, settings.nproc, settings.smoke) {
            Some(specs) => fleetload::run(&specs, settings),
            None => Err(format!(
                "unknown workload `{other}`; expected one of {}",
                WORKLOADS.join(", ")
            )),
        },
    };
    settings.cleanup();
    result
}

/// The reproducibility stamp of a result, as a JSON object.
fn stamp(settings: &Settings) -> String {
    let git_rev = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"seed\": {}, \"git_rev\": \"{git_rev}\", \"nproc\": {}, \"engine_version\": \"{}\", \
         \"rustc\": \"{}\", \"profile\": \"{}\"}}",
        settings.seed,
        settings.nproc,
        fleet::ENGINE_VERSION,
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
    )
}

fn metrics_object(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {}", m.name, json_number(m.value)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Prints the human-readable report of one run.
fn print_report(workload: &str, settings: &Settings, result: &RunResult, stamp: &str) {
    println!(
        "perfbench {workload}: seed {}, {} s, trace {}, stamp {stamp}",
        settings.seed,
        settings.seconds,
        u8::from(settings.trace)
    );
    for note in &result.notes {
        println!("  {note}");
    }
    for failure in &result.failures {
        println!("  FAILED: {failure}");
    }
    println!(
        "  {:<40} {:>16.4} ratio ({} of {} attempted)",
        "failed_frac",
        result.failed_frac(),
        result.failed,
        result.attempted
    );
    if !result.correct() {
        println!("  outputs were wrong: no metric is reported");
        return;
    }
    let mut rows = result.end_to_end.metrics();
    if let Some(layers) = &result.layers {
        rows.extend(layers.metrics());
    }
    for m in rows {
        println!("  {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

fn record(path: &PathBuf, workload: &str, settings: &Settings, result: &RunResult, stamp: &str) {
    let (end_to_end, per_layer) = match (&result.layers, result.correct()) {
        (_, false) => (Vec::new(), Vec::new()),
        (Some(layers), true) => (result.end_to_end.metrics(), layers.metrics()),
        (None, true) => (result.end_to_end.metrics(), Vec::new()),
    };
    let line = format!(
        "{{\"workload\": \"{workload}\", \"seconds\": {}, \"trace\": {}, \"stamp\": {stamp}, \
         \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"end_to_end\": {}, \"per_layer\": {}}}",
        json_number(settings.seconds),
        u8::from(settings.trace),
        result.correct(),
        result.attempted,
        result.failed,
        metrics_object(&end_to_end),
        metrics_object(&per_layer),
    );
    let appended = OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut file| writeln!(file, "{line}"));
    if let Err(e) = appended {
        eprintln!("perfbench: recording to {} failed: {e}", path.display());
    }
}

struct Cli {
    command: String,
    workload: Option<String>,
    settings: Settings,
    record: Option<PathBuf>,
    positional: Vec<String>,
    spec: PathBuf,
}

fn parse_args(args: Vec<String>) -> Result<Cli, String> {
    let mut command = "run".to_string();
    let mut rest = args.into_iter().peekable();
    if let Some(first) = rest.peek() {
        if first == "suite" || first == "compare" {
            command = rest.next().unwrap_or_default();
        }
    }
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, DEFAULT_SEED, 10.0, false, false);
    let (mut record, mut spans_out, mut positional) = (None, None, Vec::new());
    let mut spec = PathBuf::from("BENCHMARK.json");
    while let Some(arg) = rest.next() {
        let mut value = |flag: &str| rest.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?
                    .max(0.0);
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--record" => record = Some(PathBuf::from(value("--record")?)),
            "--spans-out" => spans_out = Some(PathBuf::from(value("--spans-out")?)),
            "--spec" => spec = PathBuf::from(value("--spec")?),
            "--smoke" => smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            _ => positional.push(arg),
        }
    }
    let mut settings = Settings::new(seed, seconds, trace, smoke);
    settings.spans_out = spans_out;
    Ok(Cli {
        command,
        workload,
        settings,
        record,
        positional,
        spec,
    })
}

fn main() -> ExitCode {
    let cli = match parse_args(std::env::args().skip(1).collect()) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::FAILURE;
        }
    };
    match cli.command.as_str() {
        "compare" => match &cli.positional[..] {
            [base, head] => match compare::run(base, head, &cli.spec) {
                Ok(()) => ExitCode::SUCCESS,
                Err(message) => {
                    eprintln!("perfbench compare: {message}");
                    ExitCode::FAILURE
                }
            },
            _ => {
                eprintln!("perfbench compare: expected BASE.jsonl HEAD.jsonl");
                ExitCode::FAILURE
            }
        },
        "suite" => {
            let mut settings = cli.settings;
            settings.trace = true;
            let stamp = stamp(&settings);
            let mut all_correct = true;
            for workload in WORKLOADS {
                match run_workload(workload, &settings) {
                    Ok(result) => {
                        print_report(workload, &settings, &result, &stamp);
                        if let Some(path) = &cli.record {
                            record(path, workload, &settings, &result, &stamp);
                        }
                        all_correct &= result.correct();
                    }
                    Err(message) => {
                        eprintln!("perfbench {workload}: {message}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            println!("{{\"correct\": {all_correct}}}");
            ExitCode::SUCCESS
        }
        _ => {
            let Some(workload) = cli.workload.as_deref() else {
                eprintln!(
                    "perfbench: --workload is required ({})",
                    WORKLOADS.join(", ")
                );
                return ExitCode::FAILURE;
            };
            let settings = cli.settings;
            match run_workload(workload, &settings) {
                Ok(result) => {
                    let stamp = stamp(&settings);
                    print_report(workload, &settings, &result, &stamp);
                    if let Some(path) = &cli.record {
                        record(path, workload, &settings, &result, &stamp);
                    }
                    println!("{}", result.json_line());
                    ExitCode::SUCCESS
                }
                Err(message) => {
                    eprintln!("perfbench {workload}: {message}");
                    ExitCode::FAILURE
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, trace: bool) -> RunResult {
        let mut settings = Settings::new(5, 0.0, trace, true);
        settings.run_dir = std::env::temp_dir().join(format!(
            "perfbench-test-{}-{workload}-{trace}",
            std::process::id()
        ));
        run_workload(workload, &settings).unwrap()
    }

    /// All three workloads, untraced and traced, at smoke size: correct
    /// outputs, every metric finite, the traced decomposition agreeing with
    /// the untraced run.
    #[test]
    fn smoke_size_runs_every_workload() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let result = smoke(workload, trace);
                assert!(result.correct(), "{workload}: {:?}", result.failures);
                assert!(result.attempted > 0);
                let metrics = result.reported();
                assert!(!metrics.is_empty());
                for m in &metrics {
                    assert!(m.value.is_finite(), "{workload}: {} = {}", m.name, m.value);
                }
                let e2e = result.end_to_end.metrics();
                for m in &e2e {
                    assert!(
                        m.value > 0.0 || m.name == "sim_violation_frac",
                        "{workload}: {} is 0",
                        m.name
                    );
                }
            }
        }
    }

    /// A deliberately wrong expected digest fails every device of the run.
    #[test]
    fn wrong_expected_digest_fails_every_operation() {
        let mut settings = Settings::new(5, 0.0, false, true);
        settings.run_dir =
            std::env::temp_dir().join(format!("perfbench-test-{}-digest", std::process::id()));
        settings.expected_digest = Some(0xdead_beef);
        let result = run_workload("balanced", &settings).unwrap();
        assert!(!result.correct());
        assert_eq!(result.failed_frac(), 1.0);
        assert!(result.json_line().ends_with("\"metrics\": {}}"));
    }

    #[test]
    fn recorded_digests_parse() {
        assert!(recorded_digest("balanced", 42, fleetload::BALANCED_DEVICES).is_some());
        assert!(recorded_digest("cohort", 9001, fleetload::COHORT_DEVICES).is_some());
        assert_eq!(recorded_digest("balanced", 42, 1), None);
    }
}
