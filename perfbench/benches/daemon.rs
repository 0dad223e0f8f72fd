//! The `daemon` workload: `fleetd` on loopback under a closed loop.
//!
//! One client thread keeps `nproc` jobs outstanding against a daemon with
//! `nproc` workers. For each job it sends `POST /jobs`, polls
//! `GET /jobs/{id}` until the job is done, fetches `GET /jobs/{id}/report`,
//! checks the bytes against the expected body, then submits the next job.
//! Jobs are small exact-mode cohort fleets split into several shards, so
//! the per-job fixed costs — profiling, HTTP, artifact encoding, spool
//! writes and reads, the merge — are a visible share of each job.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fleet::{FleetOutcome, FleetSimulation, ReportMode, ScenarioGenerator};
use fleetd::spool::render_report_body;
use fleetd::{Daemon, DaemonConfig, JobSpec, JobStatus};
use ppg_data::WindowCache;

use crate::fleetload::attribution_row;
use crate::metrics::{peak_rss_mb, Layers, RunResult};
use crate::probes;
use crate::replay::{self, replay_device, Model};
use crate::stats::{median, percentile, tail_percentile};
use crate::trace::Trace;
use crate::Settings;

/// Devices per job: two full passes over the 16-profile pool per shard, so
/// every shard's cache both fills and hits.
pub const JOB_DEVICES: u64 = 128;
/// Checkpoint shards per job.
pub const JOB_SHARDS: u32 = 4;
/// Distinct job specs the client cycles through (seeds `seed..seed + 16`):
/// enough fleets that the work per job averages out across seeds.
const JOB_SPECS: u64 = 16;
/// Cold daemon starts timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Polling pause while a cold daemon runs its first job: fine enough to
/// resolve a ~100 ms job to a few percent.
const SETUP_POLL_INTERVAL: Duration = Duration::from_millis(1);
/// Pause between two polling rounds of the client. The daemon closes every
/// connection, so each request costs a loopback port for the TIME_WAIT
/// minute; polling faster than this exhausts the ephemeral port range over
/// back-to-back runs and slows every connect.
const POLL_INTERVAL: Duration = Duration::from_millis(10);
/// How long past the deadline outstanding jobs may take before they count
/// as failed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// The job specs the client submits, cycling.
pub fn job_specs(seed: u64, smoke: bool) -> Vec<JobSpec> {
    (0..JOB_SPECS)
        .map(|k| {
            let mut spec = JobSpec::new(if smoke { 40 } else { JOB_DEVICES });
            spec.seed = seed.wrapping_add(k);
            spec.mix = "cohort".to_string();
            spec.threads = 1;
            spec.shards = if smoke { 2 } else { JOB_SHARDS };
            spec.report_mode = ReportMode::Exact;
            spec.profile_cache = true;
            spec
        })
        .collect()
}

/// A daemon serving on loopback from its own thread.
struct Served {
    addr: SocketAddr,
    spool: PathBuf,
    handle: JoinHandle<std::io::Result<()>>,
}

impl Served {
    fn start(spool: PathBuf, workers: usize) -> Result<Self, String> {
        let config = DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            spool: spool.clone(),
            workers,
            queue_depth: 4 * workers.max(1),
        };
        let daemon = Daemon::bind(&config).map_err(|e| format!("starting fleetd: {e}"))?;
        let addr = daemon
            .local_addr()
            .map_err(|e| format!("bound address: {e}"))?;
        let handle = std::thread::spawn(move || daemon.run());
        Ok(Self {
            addr,
            spool,
            handle,
        })
    }

    /// Shuts the daemon down (draining, or aborting in-flight shards),
    /// waits for its threads and removes its spool.
    fn stop(self, abort: bool) -> Result<(), String> {
        let target = if abort {
            "/shutdown?mode=abort"
        } else {
            "/shutdown"
        };
        let shutdown = request(self.addr, "POST", target, None);
        let joined = self.handle.join();
        let _ = std::fs::remove_dir_all(&self.spool);
        match (shutdown, joined) {
            (Ok((200, _)), Ok(Ok(()))) => Ok(()),
            (Ok((status, _)), _) if status != 200 => Err(format!("shutdown answered {status}")),
            (Err(e), _) => Err(e),
            _ => Err("the daemon's accept loop failed".to_string()),
        }
    }
}

/// One HTTP/1.1 exchange over a fresh loopback connection (the daemon
/// closes every connection after its response).
fn request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: Option<&[u8]>,
) -> Result<(u16, Vec<u8>), String> {
    let fail = |e: std::io::Error| format!("{method} {target}: {e}");
    let mut stream = TcpStream::connect(addr).map_err(fail)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(fail)?;
    let mut head = format!("{method} {target} HTTP/1.1\r\nHost: fleetd\r\n");
    if let Some(body) = body {
        head.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes()).map_err(fail)?;
    stream.write_all(body.unwrap_or_default()).map_err(fail)?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response).map_err(fail)?;
    let split = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("{method} {target}: truncated response"))?;
    let status = std::str::from_utf8(&response[..split])
        .ok()
        .and_then(|head| head.split(' ').nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("{method} {target}: malformed status line"))?;
    Ok((status, response[split + 4..].to_vec()))
}

fn submit(addr: SocketAddr, spec: &JobSpec) -> Result<u64, String> {
    match request(addr, "POST", "/jobs", Some(spec.to_json().as_bytes()))? {
        (202, body) => Ok(parse_status(&body)?.id),
        (status, body) => Err(format!(
            "POST /jobs answered {status}: {}",
            String::from_utf8_lossy(&body)
        )),
    }
}

/// Submits one job, polls it to completion and returns its served report.
fn first_report(addr: SocketAddr, spec: &JobSpec) -> Result<Vec<u8>, String> {
    let id = submit(addr, spec)?;
    loop {
        let (status, body) = request(addr, "GET", &format!("/jobs/{id}"), None)?;
        if status != 200 {
            return Err(format!("GET /jobs/{id} answered {status}"));
        }
        match parse_status(&body)?.state.as_str() {
            "done" => break,
            "queued" | "running" => std::thread::sleep(SETUP_POLL_INTERVAL),
            other => return Err(format!("job {id} ended in state {other}")),
        }
    }
    match request(addr, "GET", &format!("/jobs/{id}/report"), None)? {
        (200, body) => Ok(body),
        (status, _) => Err(format!("GET /jobs/{id}/report answered {status}")),
    }
}

fn parse_status(body: &[u8]) -> Result<JobStatus, String> {
    let text = std::str::from_utf8(body).map_err(|_| "job status is not UTF-8".to_string())?;
    serde_json::from_str(text).map_err(|e| format!("job status: {e}"))
}

/// A submitted job the client is still polling.
struct InFlight {
    id: u64,
    spec: usize,
    submitted: Instant,
    started: Option<Instant>,
    polls: u32,
}

/// Client-side timings of one completed job, in seconds.
struct Completed {
    spec: usize,
    latency: f64,
    queue_wait: f64,
    run: f64,
    polls: u32,
}

/// What the closed loop observed.
#[derive(Default)]
struct Loop {
    completed: Vec<Completed>,
    rtts: Vec<f64>,
    elapsed: f64,
}

/// Drives the closed loop until `seconds` have passed (and at least
/// `min_jobs` jobs were submitted), then drains the outstanding jobs.
fn closed_loop(
    addr: SocketAddr,
    specs: &[JobSpec],
    references: &[Vec<u8>],
    outstanding: usize,
    settings: &Settings,
    result: &mut RunResult,
) -> Loop {
    let mut observed = Loop::default();
    let mut inflight: Vec<InFlight> = Vec::new();
    let mut submitted = 0usize;
    let start = Instant::now();
    let mut last_done = start;
    loop {
        let open =
            start.elapsed().as_secs_f64() < settings.seconds || submitted < settings.min_reps;
        while open && inflight.len() < outstanding {
            let spec = submitted % specs.len();
            submitted += 1;
            result.attempted += 1;
            let at = Instant::now();
            match submit(addr, &specs[spec]) {
                Ok(id) => inflight.push(InFlight {
                    id,
                    spec,
                    submitted: at,
                    started: None,
                    polls: 0,
                }),
                Err(e) => {
                    result.failed += 1;
                    result.failures.push(e);
                }
            }
        }
        if inflight.is_empty() {
            if open {
                continue;
            }
            break;
        }
        std::thread::sleep(POLL_INTERVAL);
        let mut index = 0;
        while index < inflight.len() {
            let job = &mut inflight[index];
            let polled = Instant::now();
            let status = request(addr, "GET", &format!("/jobs/{}", job.id), None);
            observed.rtts.push(polled.elapsed().as_secs_f64());
            job.polls += 1;
            let state = match status {
                Ok((200, body)) => parse_status(&body).map(|s| s.state),
                Ok((status, _)) => Err(format!("GET /jobs/{} answered {status}", job.id)),
                Err(e) => Err(e),
            };
            match state.as_deref() {
                Ok("queued") => index += 1,
                Ok("running") => {
                    job.started.get_or_insert(polled);
                    index += 1;
                }
                Ok("done") => {
                    let report = request(addr, "GET", &format!("/jobs/{}/report", job.id), None);
                    let received = Instant::now();
                    let started = job.started.unwrap_or(polled);
                    match report {
                        Ok((200, body)) if body == references[job.spec] => {
                            observed.completed.push(Completed {
                                spec: job.spec,
                                latency: (received - job.submitted).as_secs_f64(),
                                queue_wait: (started - job.submitted).as_secs_f64(),
                                run: (polled - started).as_secs_f64(),
                                polls: job.polls,
                            });
                            last_done = received;
                        }
                        Ok((200, _)) => {
                            result.failed += 1;
                            result
                                .failures
                                .push(format!("job {} served a report that differs", job.id));
                        }
                        Ok((status, _)) => {
                            result.failed += 1;
                            result
                                .failures
                                .push(format!("GET /jobs/{}/report answered {status}", job.id));
                        }
                        Err(e) => {
                            result.failed += 1;
                            result.failures.push(e);
                        }
                    }
                    inflight.swap_remove(index);
                }
                Ok(other) => {
                    result.failed += 1;
                    result
                        .failures
                        .push(format!("job {} ended in state {other}", job.id));
                    inflight.swap_remove(index);
                }
                Err(e) => {
                    result.failed += 1;
                    result.failures.push(e.clone());
                    inflight.swap_remove(index);
                }
            }
        }
        if start.elapsed() > Duration::from_secs_f64(settings.seconds) + DRAIN_TIMEOUT {
            result.failed += inflight.len() as u64;
            result
                .failures
                .push(format!("{} jobs did not finish in time", inflight.len()));
            break;
        }
    }
    observed.elapsed = (last_done - start).as_secs_f64();
    observed
}

/// Runs the daemon workload.
///
/// # Errors
///
/// A message when a reference run, a daemon start or a shutdown fails.
pub fn run(seed: u64, settings: &Settings) -> Result<RunResult, String> {
    let specs = job_specs(seed, settings.smoke);
    let workers = settings.nproc;
    let mut result = RunResult::default();

    // Expected bodies, outside the timed window: the served report must be
    // `render_report_body` of `FleetSimulation::run_with_options`.
    let mut references = Vec::new();
    let mut outcomes: Vec<FleetOutcome> = Vec::new();
    for spec in &specs {
        let sim = FleetSimulation::new(spec.seed, spec.resolved_mix())
            .map_err(|e| format!("reference set-up: {e}"))?;
        let outcome = sim
            .run_with_options(spec.devices, &spec.executor_options(), None)
            .map_err(|e| format!("reference run: {e}"))?;
        references.push(render_report_body(&outcome.report, outcome.sketch));
        outcomes.push(outcome);
    }

    // Set-up: a cold daemon, from bind and spool scan through its first
    // job's served report. The bind-to-accept interval alone is about a
    // millisecond of thread wake-ups and spool writes, whose median swings
    // by half between runs on a shared host.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        let begin = Instant::now();
        let served = Served::start(settings.scratch_dir(&format!("setup-{rep}")), workers)?;
        let first = first_report(served.addr, &specs[0]);
        setups.push(begin.elapsed().as_secs_f64());
        served.stop(false)?;
        result.attempted += 1;
        if first? != references[0] {
            result.failed += 1;
            result
                .failures
                .push("a cold daemon served a report that differs".to_string());
        }
    }

    let served = Served::start(settings.scratch_dir("spool"), workers)?;
    let observed = closed_loop(
        served.addr,
        &specs,
        &references,
        workers,
        settings,
        &mut result,
    );
    served.stop(false)?;

    let done = &observed.completed;
    if done.is_empty() {
        result.fail_all("no job completed".to_string());
        return Ok(result);
    }
    let latencies: Vec<f64> = done.iter().map(|c| c.latency * 1e3).collect();
    let windows: usize = done
        .iter()
        .map(|c| outcomes[c.spec].report.total_windows)
        .sum();
    let tail = tail_percentile(done.len());
    let e2e = &mut result.end_to_end;
    e2e.setup_s = median(&setups);
    e2e.windows_per_s = windows as f64 / observed.elapsed;
    e2e.jobs_per_s = done.len() as f64 / observed.elapsed;
    e2e.job_p50_ms = median(&latencies);
    e2e.job_tail_ms = percentile(&latencies, tail);
    e2e.peak_rss_mb = peak_rss_mb();
    let mean = |f: &dyn Fn(&FleetOutcome) -> f64| {
        outcomes.iter().map(f).sum::<f64>() / outcomes.len() as f64
    };
    e2e.sim_mae_bpm = mean(&|o| o.report.mae_bpm.mean);
    e2e.sim_watch_uj = mean(&|o| o.report.watch_energy_uj.mean);
    e2e.sim_violation_frac =
        mean(&|o| o.report.constraint_violations as f64 / o.report.devices as f64);
    result.notes.push(format!(
        "job = {} devices in {} shards; job_tail_ms is p{tail} of {} jobs; {} outstanding, {} workers",
        specs[0].devices,
        specs[0].shards,
        done.len(),
        workers,
        workers
    ));

    if settings.trace {
        let layers = trace(
            &specs[0],
            &outcomes[0],
            &references[0],
            &observed,
            settings,
            &mut result,
        )?;
        result.layers = Some(layers);
    }
    Ok(result)
}

/// The traced decomposition of one job: profiling, every shard's devices
/// replayed through the layers (one cache per shard, as the executor keeps
/// one per shard run), the artifact path through the spool and the merge,
/// plus the client's own HTTP time.
fn trace(
    spec: &JobSpec,
    outcome: &FleetOutcome,
    reference: &[u8],
    observed: &Loop,
    settings: &Settings,
    result: &mut RunResult,
) -> Result<Layers, String> {
    let mut trace = Trace::new();
    let begin = Instant::now();
    let (zoo, engine) = probes::profile(&mut trace, spec.seed, 0)?;
    let generator = ScenarioGenerator::new(spec.seed, spec.resolved_mix());
    let model = Model {
        generator: &generator,
        zoo: &zoo,
        engine: &engine,
    };
    let capacity = spec.executor_options().profile_cache;
    let shard_spec = spec.shard_spec().map_err(|e| e.to_string())?;
    let (mut hits, mut lookups, mut mismatches) = (0u64, 0u64, 0usize);
    for range in shard_spec.ranges() {
        let mut cache = capacity.map(WindowCache::new);
        for id in range {
            let traced = replay_device(&mut trace, &model, id, cache.as_mut())?;
            let untraced = usize::try_from(id)
                .ok()
                .and_then(|i| outcome.devices.get(i));
            if !untraced.is_some_and(|u| replay::same_result(&traced, u)) {
                mismatches += 1;
            }
        }
        if let Some(cache) = &cache {
            hits += cache.hits();
            lookups += cache.hits() + cache.misses();
        }
    }
    let replay_s = begin.elapsed().as_secs_f64();
    if mismatches > 0 {
        result.fail_all(format!(
            "the traced replay disagreed with the untraced run on {mismatches} devices"
        ));
    }

    let mut side = Trace::new();
    let sim = FleetSimulation::new(spec.seed, spec.resolved_mix()).map_err(|e| e.to_string())?;
    let spool = settings.scratch_dir("artifacts");
    let artifacts = probes::artifacts(&mut side, &sim, spec, &spool, 1);
    let _ = std::fs::remove_dir_all(&spool);
    let artifacts = artifacts?;
    if artifacts.body != reference {
        result.fail_all("the artifact path rendered a different report".to_string());
    }
    probes::synthesis_sample(&mut side, &model, 16.min(spec.devices))?;
    probes::segments(&mut side, spec.seed);
    probes::aggregators(&mut side, &outcome.devices, 3);

    let done = &observed.completed;
    let polls = done.iter().map(|c| f64::from(c.polls)).sum::<f64>() / done.len() as f64;
    let rtt = median(&observed.rtts);
    // Worker-seconds the untraced daemon spent on a job of this size, at
    // its measured window rate (the client cycles through jobs of
    // different sizes).
    let windows = outcome.report.total_windows as f64;
    let thread_seconds = settings.nproc as f64 * windows / result.end_to_end.windows_per_s;
    let span_s = |t: &Trace, name: &str| t.total(name).ns as f64 / 1e9;
    let device_s: f64 = replay::SPANS.iter().map(|name| span_s(&trace, name)).sum();
    // A job's worker time: profiling, the shards' devices, per-shard spool
    // writes (which encode), the merge's spool reads (which decode), the
    // merge itself and rendering. HTTP handling, queueing and scheduling
    // are what remains unattributed.
    let rows = [
        (probes::PROFILING, span_s(&trace, probes::PROFILING)),
        ("device simulation (replay spans)", device_s),
        (probes::SPOOL_WRITE, span_s(&side, probes::SPOOL_WRITE)),
        (probes::SPOOL_READ, span_s(&side, probes::SPOOL_READ)),
        (probes::MERGE, span_s(&side, probes::MERGE)),
        (probes::RENDER, span_s(&side, probes::RENDER)),
    ];
    let attributed_s: f64 = rows.iter().map(|(_, s)| s).sum();
    let fixed_s = attributed_s - device_s;
    let artifact_s: f64 = rows[2..].iter().map(|(_, s)| s).sum();
    result.notes.push(format!(
        "attribution of one {windows}-window job: {} workers x {windows} / {:.0} windows/s = {:.1} worker-ms",
        settings.nproc,
        result.end_to_end.windows_per_s,
        thread_seconds * 1e3
    ));
    for (name, s) in rows {
        result.notes.push(attribution_row(name, s, thread_seconds));
    }
    result.notes.push(attribution_row(
        "unattributed",
        thread_seconds - attributed_s,
        thread_seconds,
    ));
    result.notes.push(format!(
        "per-job fixed costs: {:.1} ms = {:.1}% of the traced job's worker time",
        fixed_s * 1e3,
        100.0 * fixed_s / attributed_s
    ));
    result.notes.push(format!(
        "client side: {:.1} requests per job at a p50 round trip of {:.0} us",
        polls + 2.0,
        rtt * 1e6
    ));
    settings.write_spans(&[("replay", &trace), ("probes", &side)]);

    Ok(Layers {
        scenario_ns_per_device: trace.total(replay::SCENARIO).ns_per_item(),
        synth_ns_per_window: side.total(replay::SYNTH).ns_per_item(),
        hr_ns_per_sample: side.total(probes::HR).ns_per_item(),
        accel_ns_per_sample: side.total(probes::ACCEL).ns_per_item(),
        ppg_ns_per_sample: side.total(probes::PPG).ns_per_item(),
        extract_ns_per_window: side.total(replay::EXTRACT).ns_per_item(),
        cache_hit_ratio: if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
        cache_replay_ns_per_window: trace.total(replay::CACHE_HIT).ns_per_item(),
        runtime_ns_per_window: trace.total(replay::RUNTIME).ns_per_item(),
        runtime_build_ns_per_device: trace.total(replay::RUNTIME_BUILD).ns_per_item(),
        profiling_ms: trace.total(probes::PROFILING).ns_per_item() / 1e6,
        executor_busy_frac: device_s / thread_seconds,
        report_exact_ns_per_device: side.total(probes::REPORT_EXACT).ns_per_item(),
        report_sketch_ns_per_device: side.total(probes::REPORT_SKETCH).ns_per_item(),
        artifact_encode_ns_per_device: side.total(probes::ENCODE).ns_per_item(),
        artifact_decode_ns_per_device: side.total(probes::DECODE).ns_per_item(),
        artifact_bytes_per_device: artifacts.bytes as f64 / spec.devices as f64,
        merge_ns_per_device: side.total(probes::MERGE).ns_per_item(),
        spool_write_us_per_shard: side.total(probes::SPOOL_WRITE).ns_per_item() / 1e3,
        queue_wait_ms: median(&done.iter().map(|c| c.queue_wait * 1e3).collect::<Vec<_>>()),
        run_ms: median(&done.iter().map(|c| c.run * 1e3).collect::<Vec<_>>()),
        http_rtt_us: rtt * 1e6,
        polls_per_job: polls,
        fixed_frac: fixed_s / attributed_s,
        devices: spec.devices as f64,
        windows: outcome.report.total_windows as f64,
        jobs: done.len() as f64,
        attributed_frac: attributed_s / thread_seconds,
        overhead_frac: (replay_s + artifact_s) / thread_seconds - 1.0,
    })
}
