//! Shard worker of the sharded fleet pipeline.
//!
//! Simulates one contiguous slice of a fleet's device-id range and writes the
//! resulting [`fleet::ShardReport`] artifact as JSON. Because every device
//! scenario is a pure function of `(master seed, device id)`, the K shard
//! invocations can run on different processes or hosts with no coordination;
//! `fleet-merge` later folds the artifacts into the exact single-process
//! report.
//!
//! Workers are scenario-free: each worker thread derives the scenario of a
//! device as it claims its id, so the shard never materializes a scenario
//! vector — `--devices 1000000000 --shards 1000` costs O(threads) scenario
//! memory per worker process, not O(range).
//!
//! ```text
//! fleet-shard --devices 1000 --shards 4 --shard-index 0 --seed 42 --out shard-0.json
//! ```

use std::process::ExitCode;

use chris_bench::fleet_cli::{self, FleetArgs, StderrProgress};
use fleet::FleetSimulation;

struct Args {
    common: FleetArgs,
    shard_index: u32,
    out: Option<String>,
    progress: bool,
}

const USAGE: &str = "usage: fleet-shard --shards K --shard-index I [--devices N] [--threads N] \
     [--seed N] [--mix NAME] [--report-mode NAME] [--metrics-out PATH] [--metrics-json] \
     [--out PATH] [--progress]\n\
     {COMMON}\n\
       --shards K      number of contiguous shards the fleet is split into (default 1)\n\
       --shard-index I which shard to simulate, 0-based (default 0)\n\
       --out PATH      write the shard artifact to PATH instead of stdout\n\
       --progress      print live progress lines (windows / devices) to stderr";

fn usage() -> String {
    USAGE.replace("{COMMON}", fleet_cli::COMMON_USAGE)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        common: FleetArgs::default(),
        shard_index: 0,
        out: None,
        progress: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if fleet_cli::parse_common(&mut args.common, &flag, &mut it)? {
            continue;
        }
        match flag.as_str() {
            "--shards" => args.common.spec.shards = fleet_cli::parse_value(&flag, &mut it)?,
            "--shard-index" => args.shard_index = fleet_cli::parse_value(&flag, &mut it)?,
            "--out" => args.out = Some(fleet_cli::flag_value(&flag, &mut it)?),
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

    let job = &args.common.spec;
    let spec = match job.shard_spec() {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("invalid shard specification: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Root telemetry registry for the whole invocation: profiling and the
    // shard run record under this scope, and its snapshot is what the
    // metrics flags emit.
    let telemetry_root = telemetry::Registry::new();
    let _telemetry_scope = telemetry::scoped(&telemetry_root);

    let simulation = match FleetSimulation::new(job.seed, job.resolved_mix()) {
        Ok(simulation) => simulation,
        Err(e) => {
            eprintln!("profiling the shared configuration table failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Progress totals are per shard: the worker only sees its own range.
    let shard_devices = spec
        .range(args.shard_index)
        .map_or(0, |range| range.end - range.start);
    let sink = args.progress.then(|| StderrProgress::new(shard_devices));
    let shard = match simulation.run_shard_with_options(
        &spec,
        args.shard_index,
        &job.executor_options(),
        sink.as_ref().map(|s| s as &dyn fleet::ProgressSink),
    ) {
        Ok(shard) => shard,
        Err(e) => {
            eprintln!("shard run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.progress {
        // The run's pool totals come from the registry it recorded into.
        for line in fleet_cli::pool_lines(&telemetry_root.snapshot()) {
            eprintln!("{line}");
        }
    }

    let json = match serde_json::to_string_pretty(&shard) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("serializing the shard artifact failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    match &args.out {
        Some(path) => {
            // Atomic write: a killed shard run leaves either no artifact or a
            // complete one, so spool/merge consumers never see torn JSON.
            if let Err(e) =
                fleetd::write_atomic(std::path::Path::new(path), format!("{json}\n").as_bytes())
            {
                eprintln!("writing {path} failed: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!(
                "shard {}/{} (devices [{}, {})) -> {path}",
                shard.meta.shard_index, shard.meta.shard_count, shard.meta.start, shard.meta.end,
            );
        }
        None => println!("{json}"),
    }
    if args.common.metrics.enabled() {
        let snapshot = telemetry_root.snapshot();
        if let Err(message) = fleet_cli::emit_metrics(&args.common.metrics, &snapshot) {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
