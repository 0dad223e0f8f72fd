//! Shared CLI plumbing for the fleet binary family (`fleet`, `fleet-shard`,
//! `fleet-merge`).
//!
//! `fleet` and `fleet-shard` describe a fleet by the same flags — master
//! seed, device count, scenario mix, worker threads — so those flags live
//! here once ([`parse_common`]): each binary loops over its raw arguments,
//! first offering every flag to [`parse_common`], then handling its own
//! extras, which keeps the shard and single-process CLIs from drifting apart
//! on fleet identity. The flags fill in a [`fleetd::JobSpec`], the same type
//! a `fleetd` job is submitted as, so the CLI and HTTP paths map a fleet onto
//! executor options through one function ([`fleetd::JobSpec::executor_options`])
//! and produce the same bytes by construction. `fleet-merge` takes no fleet
//! flags (it derives the fleet from the artifacts' provenance) but shares the
//! per-device rendering ([`device_line`]) so its `--per-device` output
//! matches `fleet`'s exactly.

use std::sync::atomic::{AtomicU64, Ordering};

use fleet::ProgressSink;
use fleetd::JobSpec;

/// The flags shared by `fleet` and `fleet-shard`, with their defaults.
#[derive(Debug, Clone)]
pub struct FleetArgs {
    /// The fleet the flags describe. `fleet-shard --shards` sets
    /// `spec.shards` (default 1); `fleet` runs the fleet as one shard and
    /// ignores it.
    pub spec: JobSpec,
    /// Telemetry output selection (`--metrics-out`, `--metrics-json`).
    pub metrics: MetricsArgs,
}

impl Default for FleetArgs {
    fn default() -> Self {
        Self {
            spec: JobSpec {
                shards: 1,
                ..JobSpec::new(1000)
            },
            metrics: MetricsArgs::default(),
        }
    }
}

/// Telemetry output flags shared by every fleet binary.
///
/// Telemetry is strictly a sidecar: the exposition goes to its own file and
/// the JSON snapshot to stderr, so a `--json` report redirected from stdout
/// stays byte-identical whether metrics are requested or not.
#[derive(Debug, Clone, Default)]
pub struct MetricsArgs {
    /// Write the snapshot as Prometheus text exposition to this path.
    pub out: Option<String>,
    /// Print the snapshot as one JSON line to stderr.
    pub json: bool,
}

impl MetricsArgs {
    /// Whether any telemetry output was requested.
    pub fn enabled(&self) -> bool {
        self.out.is_some() || self.json
    }
}

/// Usage lines of the flags [`parse_metrics`] understands.
pub const METRICS_USAGE: &str =
    "--metrics-out PATH  write run telemetry as Prometheus text exposition to PATH\n\
       --metrics-json  print the telemetry snapshot as one JSON line to stderr";

/// Tries to consume one of the telemetry output flags; same contract as
/// [`parse_common`].
///
/// # Errors
///
/// Returns a usage-style message when `--metrics-out` lacks its path.
pub fn parse_metrics(
    args: &mut MetricsArgs,
    flag: &str,
    it: &mut dyn Iterator<Item = String>,
) -> Result<bool, String> {
    match flag {
        "--metrics-out" => args.out = Some(flag_value(flag, it)?),
        "--metrics-json" => args.json = true,
        _ => return Ok(false),
    }
    Ok(true)
}

/// Emits a telemetry snapshot per the `--metrics-*` flags: deterministic
/// Prometheus text exposition to the sidecar file, compact JSON to stderr.
/// Never writes to stdout.
///
/// The sidecar file is written crash-safely ([`fleetd::write_atomic`]): a
/// scraper or a `promcheck` race against a dying process reads either the
/// previous exposition or the complete new one, never a truncated file.
///
/// # Errors
///
/// Returns a usage-style message when writing or serialization fails.
pub fn emit_metrics(
    args: &MetricsArgs,
    snapshot: &telemetry::MetricsSnapshot,
) -> Result<(), String> {
    if let Some(path) = &args.out {
        fleetd::write_atomic(
            std::path::Path::new(path),
            telemetry::render_text(snapshot).as_bytes(),
        )
        .map_err(|e| format!("writing {path} failed: {e}"))?;
    }
    if args.json {
        let json = serde_json::to_string(snapshot)
            .map_err(|e| format!("serializing telemetry failed: {e}"))?;
        eprintln!("{json}");
    }
    Ok(())
}

/// The whole process's telemetry: the binary's root registry (everything the
/// run recorded under its scope) plus the process-global registry's series
/// (eager-collect counter, scenario gauges), folded for emission.
pub fn process_snapshot(root: &telemetry::Registry) -> telemetry::MetricsSnapshot {
    root.absorb(&telemetry::global().snapshot())
        .expect("global series never conflict with run series");
    root.snapshot()
}

/// Usage lines of the flags [`parse_common`] understands, for embedding in
/// each binary's `--help` text.
pub const COMMON_USAGE: &str = "--devices N     number of simulated devices (default 1000)\n\
       --threads N     worker threads, 0 = one per core (default 0)\n\
       --seed N        master seed; fixes every device's scenario (default 42)\n\
       --mix NAME      scenario mix: balanced | harsh | connected | cohort (default balanced)\n\
       --report-mode NAME  aggregation mode: exact | sketch (default exact; sketch folds\n\
                       percentiles through O(log devices) mergeable quantile sketches)\n\
       --metrics-out PATH  write run telemetry as Prometheus text exposition to PATH\n\
       --metrics-json  print the telemetry snapshot as one JSON line to stderr";

/// Pulls the next raw argument as the value of `flag`.
///
/// # Errors
///
/// Returns a usage-style message when the iterator is exhausted.
pub fn flag_value(flag: &str, it: &mut dyn Iterator<Item = String>) -> Result<String, String> {
    it.next().ok_or_else(|| format!("missing value for {flag}"))
}

/// Parses the value of `flag` into any `FromStr` type, with the flag name in
/// the error message.
///
/// # Errors
///
/// Returns a usage-style message when the value is missing or unparseable.
pub fn parse_value<T>(flag: &str, it: &mut dyn Iterator<Item = String>) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    flag_value(flag, it)?
        .parse()
        .map_err(|e| format!("{flag}: {e}"))
}

/// [`ProgressSink`] that prints `progress:` lines to stderr, shared by the
/// `fleet` and `fleet-shard` binaries behind their `--progress` flag.
///
/// Lines go to **stderr** so a redirected `--json` report on stdout stays
/// byte-identical with or without progress. To keep huge fleets from
/// drowning the terminal, device lines are throttled to one per
/// `ceil(total/32)` completed devices — a hard cap of 33 lines per run (32
/// step lines plus the guaranteed final-totals line) no matter how many
/// devices the fleet has. Windows are counted as each device finishes, so a
/// live line lags by at most one in-flight device per worker; the final line
/// (`devices total/total`) is always printed and its window count is exact.
pub struct StderrProgress {
    total_devices: u64,
    step: u64,
    devices_done: AtomicU64,
    windows_done: AtomicU64,
    lines_emitted: AtomicU64,
    /// Serializes printing; counters are re-read under it so the printed
    /// device counts never go backwards across interleaved workers.
    print_lock: std::sync::Mutex<()>,
}

impl StderrProgress {
    /// Creates a sink for a fleet (or shard) of `total_devices` devices.
    pub fn new(total_devices: u64) -> Self {
        Self {
            total_devices,
            step: total_devices.div_ceil(32).max(1),
            devices_done: AtomicU64::new(0),
            windows_done: AtomicU64::new(0),
            lines_emitted: AtomicU64::new(0),
            print_lock: std::sync::Mutex::new(()),
        }
    }

    /// Devices completed so far.
    pub fn devices_done(&self) -> u64 {
        // relaxed: single-cell monotone counter read for display.
        self.devices_done.load(Ordering::Relaxed)
    }

    /// Device-progress lines printed so far — what the throttle cap bounds.
    #[cfg(test)]
    fn progress_lines(&self) -> u64 {
        // relaxed: single-cell monotone counter read for display.
        self.lines_emitted.load(Ordering::Relaxed)
    }

    /// Windows processed so far, across all devices.
    pub fn windows_done(&self) -> u64 {
        // relaxed: single-cell monotone counter read for display.
        self.windows_done.load(Ordering::Relaxed)
    }
}

/// The `--progress` line of a finished run's profile-cache totals, read from
/// the snapshot of the registry the run recorded into; `None` when the mix
/// has no pool (the run recorded no cache series).
pub fn cache_line(snapshot: &telemetry::MetricsSnapshot) -> Option<String> {
    let event =
        |result| snapshot.counter_value(fleet::PROFILE_CACHE_EVENTS_SERIES, &[("result", result)]);
    Some(format!(
        "progress: profile-cache hits {} misses {}",
        event("hit")?,
        event("miss")?
    ))
}

impl ProgressSink for StderrProgress {
    fn device_completed(&self, _device_id: u64, windows: usize) {
        self.windows_done
            // relaxed: single-cell monotone counter; the `AcqRel` increment
            // below publishes it to whichever worker prints.
            .fetch_add(windows as u64, Ordering::Relaxed);
        // AcqRel: the release half publishes this worker's window add with
        // its device; the acquire half makes every earlier device's window
        // add visible to the worker that reaches `done == total`, so the
        // final line is exact.
        let done = self.devices_done.fetch_add(1, Ordering::AcqRel) + 1;
        if done.is_multiple_of(self.step) || done == self.total_devices {
            let _guard = self
                .print_lock
                .lock()
                .expect("progress printing never panics");
            // relaxed: written and read only under `print_lock`.
            self.lines_emitted.fetch_add(1, Ordering::Relaxed);
            // Fresh snapshot under the lock: a worker that lost the print
            // race reports the newer totals instead of a stale, smaller
            // count.
            eprintln!(
                "progress: devices {}/{} windows {}",
                // relaxed: display snapshot under the print lock; the
                // final-totals line is exact because every device's window
                // add happens-before the `AcqRel` increment that reached
                // `done == total`.
                self.devices_done.load(Ordering::Relaxed),
                self.total_devices,
                // relaxed: display snapshot under the print lock, as above.
                self.windows_done.load(Ordering::Relaxed),
            );
        }
    }
}

/// Reads and parses one shard artifact written by `fleet-shard`.
///
/// The fold step of the streaming `fleet-merge` pipeline loads one artifact
/// at a time through this and drops it after pushing it into the merge
/// accumulator, so only one shard's device reports are ever resident.
///
/// # Errors
///
/// Returns a usage-style message naming the path when reading or parsing
/// fails.
pub fn read_shard_report(path: &str) -> Result<fleet::ShardReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path} failed: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing {path} failed: {e}"))
}

/// Reads only the provenance ([`fleet::ShardMeta`]) of one shard artifact.
///
/// The ordering scan of the streaming `fleet-merge` pipeline: the whole
/// file is still parsed as JSON, but deserializing into
/// [`fleet::ShardProvenance`] skips converting the device payload into
/// `DeviceReport`s, so the scan builds none of them.
///
/// # Errors
///
/// Returns a usage-style message naming the path when reading or parsing
/// fails.
pub fn read_shard_meta(path: &str) -> Result<fleet::ShardMeta, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path} failed: {e}"))?;
    let provenance: fleet::ShardProvenance =
        serde_json::from_str(&text).map_err(|e| format!("parsing {path} failed: {e}"))?;
    Ok(provenance.meta)
}

/// Formats the `--per-device` report line of one device, shared by `fleet`
/// and `fleet-merge` so the two renderings cannot drift apart.
pub fn device_line(d: &fleet::DeviceReport) -> String {
    format!(
        "  device {:>6}  {:>4} windows  MAE {:>6.2} BPM  {:>8.1} uJ/pred  \
         offload {:>5.1} %  battery {:>8.1} h  {}{}",
        d.device_id,
        d.windows,
        d.mae_bpm,
        d.avg_watch_energy.as_microjoules(),
        d.offload_fraction * 100.0,
        d.battery_life_hours,
        d.constraint,
        if d.constraint_violated {
            "  VIOLATED"
        } else {
            ""
        },
    )
}

/// Formats the one-line sketch-accuracy note printed (to stdout, under the
/// text report) by `fleet` and `fleet-merge` when a run aggregated in sketch
/// mode, so the two renderings cannot drift apart.
pub fn sketch_note(info: &fleet::SketchInfo) -> String {
    format!(
        "  sketch: percentiles within ±{} ranks ({:.3} % of {} retained samples, {} compactions)",
        info.max_rank_error,
        info.rank_error_fraction * 100.0,
        info.retained_samples,
        info.compactions,
    )
}

/// Tries to consume one of the common fleet flags.
///
/// Returns `Ok(true)` when `flag` (and, where applicable, its value) was
/// consumed, `Ok(false)` when the flag is not a common one and the caller
/// should handle it.
///
/// # Errors
///
/// Returns a usage-style message when a value is missing or invalid.
pub fn parse_common(
    args: &mut FleetArgs,
    flag: &str,
    it: &mut dyn Iterator<Item = String>,
) -> Result<bool, String> {
    let spec = &mut args.spec;
    match flag {
        "--devices" => spec.devices = parse_value(flag, it)?,
        "--threads" => spec.threads = parse_value(flag, it)?,
        "--seed" => spec.seed = parse_value(flag, it)?,
        "--mix" => {
            spec.mix = flag_value(flag, it)?;
            spec.validate_mix()?;
        }
        "--report-mode" => {
            spec.report_mode = flag_value(flag, it)?.parse()?;
        }
        _ => return parse_metrics(&mut args.metrics, flag, it),
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use fleet::{ReportMode, ScenarioMix};

    use super::*;

    fn parse_all(raw: &[&str]) -> Result<FleetArgs, String> {
        let mut args = FleetArgs::default();
        let mut it = raw.iter().map(|s| s.to_string());
        while let Some(flag) = it.next() {
            if !parse_common(&mut args, &flag, &mut it)? {
                return Err(format!("unknown argument `{flag}`"));
            }
        }
        Ok(args)
    }

    #[test]
    fn common_flags_are_parsed() {
        let args = parse_all(&[
            "--devices",
            "64",
            "--threads",
            "4",
            "--seed",
            "7",
            "--mix",
            "harsh",
        ])
        .unwrap();
        assert_eq!(
            args.spec,
            JobSpec {
                devices: 64,
                threads: 4,
                seed: 7,
                mix: "harsh".to_string(),
                ..FleetArgs::default().spec
            }
        );
        assert_eq!(args.spec.resolved_mix(), ScenarioMix::harsh());
    }

    #[test]
    fn defaults_match_the_cli_contract() {
        let spec = parse_all(&[]).unwrap().spec;
        assert_eq!(
            spec,
            JobSpec {
                devices: 1000,
                seed: 42,
                mix: "balanced".to_string(),
                threads: 0,
                shards: 1,
                report_mode: ReportMode::Exact,
                profile_cache: false,
            }
        );
    }

    #[test]
    fn report_mode_flag_is_parsed_and_threaded_through() {
        let default = parse_all(&[]).unwrap().spec;
        assert_eq!(default.report_mode, ReportMode::Exact);
        assert_eq!(default.executor_options().report_mode, ReportMode::Exact);

        let sketch = parse_all(&["--report-mode", "sketch"]).unwrap().spec;
        assert_eq!(sketch.report_mode, ReportMode::Sketch);
        assert_eq!(sketch.executor_options().report_mode, ReportMode::Sketch);

        let err = parse_all(&["--report-mode", "fuzzy"]).unwrap_err();
        assert!(err.contains("fuzzy"));
        assert!(err.contains("exact, sketch"));
        assert!(parse_all(&["--report-mode"])
            .unwrap_err()
            .contains("--report-mode"));
    }

    #[test]
    fn sketch_note_renders_the_error_bound() {
        let note = sketch_note(&fleet::SketchInfo {
            max_rank_error: 24,
            rank_error_fraction: 0.0125,
            retained_samples: 512,
            compactions: 7,
        });
        assert!(note.contains("±24 ranks"));
        assert!(note.contains("1.250 %"));
        assert!(note.contains("512 retained"));
        assert!(note.contains("7 compactions"));
    }

    #[test]
    fn stderr_progress_counts_devices_and_windows() {
        let sink = StderrProgress::new(64);
        assert_eq!(sink.devices_done(), 0);
        sink.device_completed(3, 15);
        sink.device_completed(4, 10);
        assert_eq!(sink.devices_done(), 2);
        assert_eq!(sink.windows_done(), 25);
    }

    #[test]
    fn stderr_progress_is_throttled_to_a_hard_line_cap() {
        // Small fleets may print every device but never more than total.
        for total in [1u64, 2, 31, 32, 33] {
            let sink = StderrProgress::new(total);
            for id in 0..total {
                sink.device_completed(id, 1);
            }
            assert!(
                sink.progress_lines() <= total.min(33),
                "total {total}: {} lines",
                sink.progress_lines()
            );
            assert!(sink.progress_lines() >= 1, "final line always prints");
        }
        // Large fleets: at most 32 step lines plus the final-totals line,
        // regardless of size.
        for total in [64u64, 1000, 4096, 100_001] {
            let sink = StderrProgress::new(total);
            for id in 0..total {
                sink.device_completed(id, 0);
            }
            let lines = sink.progress_lines();
            assert!(lines <= 33, "total {total}: {lines} lines exceed the cap");
            assert!(
                lines >= 30,
                "total {total}: {lines} lines undershoot 1/32 granularity"
            );
            assert_eq!(sink.devices_done(), total, "final totals are complete");
        }
    }

    #[test]
    fn cache_line_reports_the_registry_counters() {
        let registry = telemetry::Registry::new();
        assert_eq!(cache_line(&registry.snapshot()), None);
        let event = |result| {
            registry
                .counter(
                    fleet::PROFILE_CACHE_EVENTS_SERIES,
                    &[("result", result)],
                    "Cache lookups",
                    telemetry::Stability::Observational,
                )
                .unwrap()
        };
        event("hit").add(5);
        event("miss").add(3);
        assert_eq!(
            cache_line(&registry.snapshot()).as_deref(),
            Some("progress: profile-cache hits 5 misses 3")
        );
    }

    #[test]
    fn read_shard_meta_skips_the_device_payload() {
        let report = fleet::ShardReport {
            meta: fleet::ShardMeta {
                engine_version: fleet::ENGINE_VERSION.to_string(),
                master_seed: 7,
                mix: ScenarioMix::balanced(),
                report_mode: ReportMode::Exact,
                fleet_devices: 2,
                shard_count: 1,
                shard_index: 0,
                start: 0,
                end: 2,
            },
            devices: Vec::new(),
            telemetry: telemetry::MetricsSnapshot::default(),
        };
        let path =
            std::env::temp_dir().join(format!("chris-fleet-cli-meta-{}.json", std::process::id()));
        std::fs::write(&path, serde_json::to_string(&report).unwrap()).unwrap();
        let meta = read_shard_meta(path.to_str().unwrap()).unwrap();
        assert_eq!(meta, report.meta);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_shard_report_names_the_path_on_failure() {
        let missing = read_shard_report("/nonexistent/shard.json").unwrap_err();
        assert!(missing.contains("/nonexistent/shard.json"));
        let dir = std::env::temp_dir();
        let path = dir.join(format!("chris-fleet-cli-bad-{}.json", std::process::id()));
        std::fs::write(&path, "{ not json").unwrap();
        let garbled = read_shard_report(path.to_str().unwrap()).unwrap_err();
        assert!(garbled.contains("parsing"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn metrics_flags_are_parsed_and_emitted_off_stdout() {
        let off = parse_all(&[]).unwrap();
        assert!(!off.metrics.enabled());

        let on = parse_all(&["--metrics-out", "m.prom", "--metrics-json"]).unwrap();
        assert_eq!(on.metrics.out.as_deref(), Some("m.prom"));
        assert!(on.metrics.json);
        assert!(on.metrics.enabled());
        assert!(parse_all(&["--metrics-out"])
            .unwrap_err()
            .contains("--metrics-out"));

        // A written exposition file round-trips through the parser.
        let registry = telemetry::Registry::new();
        registry
            .counter(
                "chris_demo_total",
                &[],
                "Demo",
                telemetry::Stability::Stable,
            )
            .unwrap()
            .add(3);
        let path = std::env::temp_dir().join(format!(
            "chris-fleet-cli-metrics-{}.prom",
            std::process::id()
        ));
        let args = MetricsArgs {
            out: Some(path.to_str().unwrap().to_string()),
            json: false,
        };
        emit_metrics(&args, &registry.snapshot()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let samples = telemetry::parse_exposition(&text).unwrap();
        assert_eq!(
            telemetry::sample_value(&samples, "chris_demo_total"),
            Some(3.0)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_values_are_reported_with_the_flag_name() {
        assert!(parse_all(&["--devices"]).unwrap_err().contains("--devices"));
        assert!(parse_all(&["--seed", "x"]).unwrap_err().contains("--seed"));
        assert!(parse_all(&["--mix", "nope"]).unwrap_err().contains("nope"));
        assert!(parse_all(&["--wat"]).unwrap_err().contains("--wat"));
    }
}
