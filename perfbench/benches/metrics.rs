//! The benchmark's metrics: names, units and the run result they form.
//!
//! Every workload reports every end-to-end metric (untraced run) and, with
//! `--trace 1`, every per-layer metric. A layer a workload never reaches
//! reports `0` (a daemon-client timing on an in-process fleet run, a cache
//! hit ratio without a cache).

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// End-to-end metrics, from the untraced run. Lower is better except
/// `windows_per_s` and `jobs_per_s`.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    /// Median set-up time: `FleetSimulation::new`, or a cold daemon's bind
    /// and spool scan through its first job's served report.
    pub setup_s: f64,
    /// Simulated windows per host second of the run phase.
    pub windows_per_s: f64,
    /// Completed jobs per host second (a job is one fleet run, or one
    /// daemon job).
    pub jobs_per_s: f64,
    /// Median job latency.
    pub job_p50_ms: f64,
    /// Latency at [`crate::stats::tail_percentile`] of the job count.
    pub job_tail_ms: f64,
    /// Peak resident memory of the process (VmHWM).
    pub peak_rss_mb: f64,
    /// Fleet mean of per-device MAE (modelled; repeats exactly per seed).
    pub sim_mae_bpm: f64,
    /// Fleet mean smartwatch energy per prediction (modelled).
    pub sim_watch_uj: f64,
    /// Constraint violations per device (modelled).
    pub sim_violation_frac: f64,
}

impl EndToEnd {
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("setup_s", "s", self.setup_s),
            metric("windows_per_s", "windows/s", self.windows_per_s),
            metric("jobs_per_s", "jobs/s", self.jobs_per_s),
            metric("job_p50_ms", "ms", self.job_p50_ms),
            metric("job_tail_ms", "ms", self.job_tail_ms),
            metric("peak_rss_mb", "MiB", self.peak_rss_mb),
            metric("sim_mae_bpm", "BPM", self.sim_mae_bpm),
            metric("sim_watch_uj", "uJ", self.sim_watch_uj),
            metric("sim_violation_frac", "ratio", self.sim_violation_frac),
        ]
    }
}

/// Per-layer metrics, from the traced run. Rates are per work item of the
/// named layer; `*_frac` values are shares of the untraced run's
/// thread-seconds.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub scenario_ns_per_device: f64,
    pub synth_ns_per_window: f64,
    pub hr_ns_per_sample: f64,
    pub accel_ns_per_sample: f64,
    pub ppg_ns_per_sample: f64,
    pub extract_ns_per_window: f64,
    pub cache_hit_ratio: f64,
    pub cache_replay_ns_per_window: f64,
    pub runtime_ns_per_window: f64,
    pub runtime_build_ns_per_device: f64,
    pub profiling_ms: f64,
    pub executor_busy_frac: f64,
    pub report_exact_ns_per_device: f64,
    pub report_sketch_ns_per_device: f64,
    pub artifact_encode_ns_per_device: f64,
    pub artifact_decode_ns_per_device: f64,
    pub artifact_bytes_per_device: f64,
    pub merge_ns_per_device: f64,
    pub spool_write_us_per_shard: f64,
    pub queue_wait_ms: f64,
    pub run_ms: f64,
    pub http_rtt_us: f64,
    pub polls_per_job: f64,
    pub fixed_frac: f64,
    pub devices: f64,
    pub windows: f64,
    pub jobs: f64,
    pub attributed_frac: f64,
    pub overhead_frac: f64,
}

impl Layers {
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric(
                "fleet.scenario.ns_per_device",
                "ns",
                self.scenario_ns_per_device,
            ),
            metric(
                "ppg_data.synth.ns_per_window",
                "ns",
                self.synth_ns_per_window,
            ),
            metric("ppg_data.hr.ns_per_sample", "ns", self.hr_ns_per_sample),
            metric(
                "ppg_data.accel.ns_per_sample",
                "ns",
                self.accel_ns_per_sample,
            ),
            metric("ppg_data.ppg.ns_per_sample", "ns", self.ppg_ns_per_sample),
            metric(
                "ppg_data.extract.ns_per_window",
                "ns",
                self.extract_ns_per_window,
            ),
            metric("ppg_data.cache.hit_ratio", "ratio", self.cache_hit_ratio),
            metric(
                "ppg_data.cache.replay_ns_per_window",
                "ns",
                self.cache_replay_ns_per_window,
            ),
            metric(
                "chris_core.runtime.ns_per_window",
                "ns",
                self.runtime_ns_per_window,
            ),
            metric(
                "chris_core.runtime.build_ns_per_device",
                "ns",
                self.runtime_build_ns_per_device,
            ),
            metric("chris_core.profiling.ms", "ms", self.profiling_ms),
            metric("fleet.executor.busy_frac", "ratio", self.executor_busy_frac),
            metric(
                "fleet.report.exact.ns_per_device",
                "ns",
                self.report_exact_ns_per_device,
            ),
            metric(
                "fleet.report.sketch.ns_per_device",
                "ns",
                self.report_sketch_ns_per_device,
            ),
            metric(
                "fleet.artifact.encode_ns_per_device",
                "ns",
                self.artifact_encode_ns_per_device,
            ),
            metric(
                "fleet.artifact.decode_ns_per_device",
                "ns",
                self.artifact_decode_ns_per_device,
            ),
            metric(
                "fleet.artifact.bytes_per_device",
                "bytes",
                self.artifact_bytes_per_device,
            ),
            metric("fleet.merge.ns_per_device", "ns", self.merge_ns_per_device),
            metric(
                "fleetd.spool_write_us_per_shard",
                "us",
                self.spool_write_us_per_shard,
            ),
            metric("fleetd.queue_wait_ms", "ms", self.queue_wait_ms),
            metric("fleetd.run_ms", "ms", self.run_ms),
            metric("fleetd.http_rtt_us", "us", self.http_rtt_us),
            metric("fleetd.polls_per_job", "count", self.polls_per_job),
            metric("fleetd.fixed_frac", "ratio", self.fixed_frac),
            metric("work.devices", "count", self.devices),
            metric("work.windows", "count", self.windows),
            metric("work.jobs", "count", self.jobs),
            metric("trace.attributed_frac", "ratio", self.attributed_frac),
            metric("trace.overhead_frac", "ratio", self.overhead_frac),
        ]
    }
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// What one benchmark run produced.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Operations attempted: devices simulated (fleet runs) or jobs
    /// submitted (daemon).
    pub attempted: u64,
    /// Operations that failed: a device in a run whose report digest did
    /// not match, a job that was refused, failed or served wrong bytes, or
    /// every operation of a run whose traced results disagreed.
    pub failed: u64,
    /// Why operations failed, one line each.
    pub failures: Vec<String>,
    pub end_to_end: EndToEnd,
    /// Present iff the run was traced.
    pub layers: Option<Layers>,
    /// Human-readable findings printed above the metrics: the tail
    /// percentile and job count, the attribution table, digests.
    pub notes: Vec<String>,
}

impl RunResult {
    /// Marks every attempted operation failed, with a reason.
    pub fn fail_all(&mut self, reason: String) {
        self.failed = self.attempted.max(1);
        self.attempted = self.attempted.max(1);
        self.failures.push(reason);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// `failed ÷ attempted`.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The metrics the result line carries: end-to-end without tracing,
    /// per-layer with it; none when the outputs were wrong.
    pub fn reported(&self) -> Vec<Metric> {
        if !self.correct() {
            return Vec::new();
        }
        match &self.layers {
            Some(layers) => layers.metrics(),
            None => self.end_to_end.metrics(),
        }
    }

    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .reported()
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; non-finite values (never expected) become `null`.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names and units the benchmark emits are exactly the ones
    /// BENCHMARK.json declares, in both lists.
    #[test]
    fn emitted_metrics_match_the_benchmark_spec() {
        let spec = include_str!("../../BENCHMARK.json");
        let declared = |list: &str| -> Vec<(String, String)> {
            let body = spec.split(&format!("\"{list}\"")).nth(1).unwrap();
            let body = &body[..body.find(']').unwrap()];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let rest = entry.split(&format!("\"{key}\": \"")).nth(1).unwrap();
                        rest[..rest.find('"').unwrap()].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let emitted = |metrics: Vec<Metric>| -> Vec<(String, String)> {
            metrics
                .into_iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect()
        };
        assert_eq!(
            declared("end_to_end"),
            emitted(EndToEnd::default().metrics())
        );
        assert_eq!(declared("per_layer"), emitted(Layers::default().metrics()));
    }

    #[test]
    fn result_line_has_exactly_the_four_keys_and_hides_wrong_numbers() {
        let mut result = RunResult {
            attempted: 4,
            ..RunResult::default()
        };
        result.end_to_end.setup_s = 0.25;
        let line = result.json_line();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        result.fail_all("digest mismatch".to_string());
        assert_eq!(result.failed_frac(), 1.0);
        assert!(result
            .json_line()
            .ends_with("\"failed\": 4, \"metrics\": {}}"));
    }
}
