//! Merge step of the sharded fleet pipeline.
//!
//! Reads the shard artifacts written by `fleet-shard`, validates that they
//! describe one fleet (same master seed, mix, engine version; device ranges
//! that tile the fleet with no overlap and no gap) and folds them into the
//! aggregate report. With `--json` the output is **byte-identical** to
//! `fleet --json` run single-process over the same fleet; any incompatibility
//! is rejected with a typed error instead of a corrupted report.
//!
//! The merge is *streaming*: a first pass reads each artifact only to record
//! its provenance and range, then the fold re-reads them in device-id order,
//! pushing each into `fleet::MergeAccumulator` and dropping it before the
//! next is loaded. Peak memory is one shard artifact plus the accumulator's
//! per-device scalars — never the whole artifact set — so the number of
//! shards a merge can absorb is bounded by disk, not RAM. (`--per-device`
//! is the exception: it buffers one rendered line per device, O(fleet),
//! because the aggregate header prints before the device lines.)
//!
//! ```text
//! fleet-merge --json shard-0.json shard-1.json shard-2.json shard-3.json
//! ```

use std::io::Write;
use std::process::ExitCode;

use chris_bench::fleet_cli;
use fleet::{MergeAccumulator, ReportMode};

const USAGE: &str = "usage: fleet-merge [--json] [--per-device] [--report-mode NAME] \
     [--metrics-out PATH] [--metrics-json] SHARD.json...\n\
       --json          print the merged aggregate report as JSON instead of text\n\
       --per-device    also print one line per device\n\
       --report-mode NAME  force the aggregation mode: exact | sketch (default: the mode\n\
                       the shard artifacts declare; forcing sketch rolls an exact\n\
                       artifact set up through O(log devices) quantile sketches)\n\
       {METRICS}\n\
     Positional arguments are shard artifacts written by fleet-shard, in any order.\n\
     The --metrics flags emit the shards' embedded telemetry snapshots folded into one\n\
     fleet-level snapshot (identical to the single-process run's).";

fn usage() -> String {
    USAGE.replace("{METRICS}", fleet_cli::METRICS_USAGE)
}

struct Args {
    json: bool,
    per_device: bool,
    report_mode: Option<ReportMode>,
    metrics: fleet_cli::MetricsArgs,
    paths: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        json: false,
        per_device: false,
        report_mode: None,
        metrics: fleet_cli::MetricsArgs::default(),
        paths: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        if fleet_cli::parse_metrics(&mut args.metrics, &arg, &mut it)? {
            continue;
        }
        match arg.as_str() {
            "--json" => args.json = true,
            "--per-device" => args.per_device = true,
            "--report-mode" => {
                args.report_mode = Some(fleet_cli::flag_value("--report-mode", &mut it)?.parse()?);
            }
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown argument `{other}`\n{}", usage()));
            }
            path => args.paths.push(path.to_string()),
        }
    }
    if args.paths.is_empty() {
        return Err(format!("no shard artifacts given\n{}", usage()));
    }
    Ok(args)
}

/// Provenance scanned from one artifact during the ordering pass.
struct ScannedShard {
    path: String,
    start: u64,
    end: u64,
}

/// Reads each artifact's provenance — the file is parsed as JSON, but its
/// device payload is never converted into `DeviceReport`s on this pass
/// (`fleet::ShardProvenance`) — and returns the paths sorted into device-id
/// order, the order `MergeAccumulator` consumes.
fn scan_and_sort(paths: &[String]) -> Result<(Vec<ScannedShard>, u64, u64), String> {
    let mut scanned = Vec::with_capacity(paths.len());
    let mut seed = 0;
    let mut fleet_devices = 0;
    for (index, path) in paths.iter().enumerate() {
        let meta = fleet_cli::read_shard_meta(path)?;
        if index == 0 {
            seed = meta.master_seed;
            fleet_devices = meta.fleet_devices;
        }
        scanned.push(ScannedShard {
            path: path.clone(),
            start: meta.start,
            end: meta.end,
        });
    }
    scanned.sort_by_key(|s| (s.start, s.end));
    Ok((scanned, seed, fleet_devices))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    let (scanned, seed, fleet_devices) = match scan_and_sort(&args.paths) {
        Ok(scanned) => scanned,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    // Fold pass: one artifact resident at a time. Device lines are
    // pre-rendered during the fold (only when requested) so no report needs
    // to be retained for printing later.
    let mut accumulator = match args.report_mode {
        Some(mode) => MergeAccumulator::with_mode(mode),
        None => MergeAccumulator::new(),
    };
    let mut device_lines = Vec::new();
    for shard in &scanned {
        let artifact = match fleet_cli::read_shard_report(&shard.path) {
            Ok(artifact) => artifact,
            Err(message) => {
                eprintln!("{message}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = accumulator.push(&artifact) {
            eprintln!("merge failed: {e}");
            return ExitCode::FAILURE;
        }
        if args.per_device {
            device_lines.extend(artifact.devices.iter().map(fleet_cli::device_line));
        }
    }
    // The folded telemetry must be read before `finalize` consumes the
    // accumulator; it is only cloned when an emission flag asks for it.
    let telemetry = args
        .metrics
        .enabled()
        .then(|| accumulator.telemetry().clone());
    let sketch = accumulator.sketch_info();
    let report = match accumulator.finalize() {
        Ok(report) => report,
        Err(e) => {
            eprintln!("merge failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    if args.json {
        // The exact bytes fleetd serves for the same fleet: sketch runs are
        // wrapped in the envelope carrying their accuracy diagnostics.
        let body = fleetd::spool::render_report_body(&report, sketch);
        if let Err(e) = std::io::stdout().write_all(&body) {
            eprintln!("writing the report failed: {e}");
            return ExitCode::FAILURE;
        }
    } else {
        println!(
            "CHRIS fleet simulation  (seed {seed}, {fleet_devices} devices, \
             merged from {} shard artifacts)",
            scanned.len()
        );
        println!("{report}");
        if let Some(sketch) = &sketch {
            println!("{}", fleet_cli::sketch_note(sketch));
        }
        if args.per_device {
            println!();
            for line in &device_lines {
                println!("{line}");
            }
        }
    }
    if let Some(telemetry) = &telemetry {
        if let Err(message) = fleet_cli::emit_metrics(&args.metrics, telemetry) {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
