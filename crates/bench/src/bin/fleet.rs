//! Fleet-scale CHRIS simulation driver.
//!
//! Simulates a fleet of independent devices in parallel and prints the
//! aggregate report (MAE percentiles, energy and battery-life distributions,
//! offload histogram, constraint violations). The output is byte-identical
//! for any `--threads` value. Execution is scenario-free end to end: worker
//! threads derive device scenarios on demand and the report is folded
//! incrementally (`fleet::FleetAccumulator`), so memory scales with threads
//! and devices' scalars, not with materialized scenarios.
//!
//! ```text
//! cargo run --release -p bench --bin fleet -- --devices 1000 --threads 8 --seed 42
//! ```

use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

use chris_bench::fleet_cli::{self, FleetArgs, StderrProgress};
use fleet::FleetSimulation;

struct Args {
    common: FleetArgs,
    json: bool,
    per_device: bool,
    progress: bool,
}

const USAGE: &str = "usage: fleet [--devices N] [--threads N] [--seed N] [--mix NAME] \
     [--report-mode NAME] [--metrics-out PATH] [--metrics-json] [--json] [--per-device] \
     [--progress]\n\
     {COMMON}\n\
       --json          print the aggregate report as JSON instead of text\n\
       --per-device    also print one line per device\n\
       --progress      print live progress lines (windows / devices) to stderr";

fn usage() -> String {
    USAGE.replace("{COMMON}", fleet_cli::COMMON_USAGE)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        common: FleetArgs::default(),
        json: false,
        per_device: false,
        progress: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if fleet_cli::parse_common(&mut args.common, &flag, &mut it)? {
            continue;
        }
        match flag.as_str() {
            "--json" => args.json = true,
            "--per-device" => args.per_device = true,
            "--progress" => args.progress = true,
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    args.common.spec.validate()?;
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    // Root telemetry registry for the whole invocation: profiling and the
    // fleet run record under this scope, and the process-global series are
    // folded in at emission time.
    let telemetry_root = telemetry::Registry::new();
    let _telemetry_scope = telemetry::scoped(&telemetry_root);

    let setup_start = Instant::now();
    let spec = &args.common.spec;
    let simulation = match FleetSimulation::new(spec.seed, spec.resolved_mix()) {
        Ok(simulation) => simulation,
        Err(e) => {
            eprintln!("profiling the shared configuration table failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let setup_time = setup_start.elapsed();

    let run_start = Instant::now();
    let sink = args.progress.then(|| StderrProgress::new(spec.devices));
    let outcome = match simulation.run_with_options(
        spec.devices,
        &spec.executor_options(),
        sink.as_ref().map(|s| s as &dyn fleet::ProgressSink),
    ) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("fleet run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let run_time = run_start.elapsed();
    if args.progress {
        // The run's cache totals come from the registry it recorded into.
        if let Some(line) = fleet_cli::cache_line(&telemetry_root.snapshot()) {
            eprintln!("{line}");
        }
    }

    if args.json {
        // The exact bytes fleetd serves for the same fleet: sketch runs are
        // wrapped in the envelope carrying their accuracy diagnostics.
        let body = fleetd::spool::render_report_body(&outcome.report, outcome.sketch);
        if let Err(e) = std::io::stdout().write_all(&body) {
            eprintln!("writing the report failed: {e}");
            return ExitCode::FAILURE;
        }
    } else {
        println!(
            "CHRIS fleet simulation  (seed {}, mix {}, {} devices)",
            spec.seed, spec.mix, spec.devices
        );
        println!("{}", outcome.report);
        if let Some(sketch) = &outcome.sketch {
            println!("{}", fleet_cli::sketch_note(sketch));
        }
        if args.per_device {
            println!();
            for d in &outcome.devices {
                println!("{}", fleet_cli::device_line(d));
            }
        }
        let windows_per_s = outcome.report.total_windows as f64 / run_time.as_secs_f64();
        let devices_per_s = spec.devices as f64 / run_time.as_secs_f64();
        eprintln!(
            "\nprofiling {:.2} s; simulated {} windows in {:.2} s \
             ({windows_per_s:.0} windows/s, {devices_per_s:.0} devices/s)",
            setup_time.as_secs_f64(),
            outcome.report.total_windows,
            run_time.as_secs_f64(),
        );
    }
    if args.common.metrics.enabled() {
        let snapshot = fleet_cli::process_snapshot(&telemetry_root);
        if let Err(message) = fleet_cli::emit_metrics(&args.common.metrics, &snapshot) {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
