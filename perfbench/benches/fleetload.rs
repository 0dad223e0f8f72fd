//! The in-process fleet workloads, `balanced` and `cohort`.
//!
//! A run builds the simulation (timed: `setup_s`), computes the expected
//! report body through an independent path outside the timed window, then
//! repeats `FleetSimulation::run_with_options` over the workload's fleet for
//! the requested seconds. Each repetition is one "job": its report body must
//! match the expected one byte for byte. The traced run then replays the
//! same fleet device by device through the layers' public functions.

use std::time::Instant;

use fleet::{FleetAccumulator, FleetOutcome, FleetSimulation, ReportMode, ScenarioMix};
use fleetd::spool::render_report_body;
use fleetd::JobSpec;
use ppg_data::WindowCache;

use crate::metrics::{peak_rss_mb, Layers, RunResult};
use crate::probes;
use crate::replay::{self, replay_device, Model};
use crate::stats::{fnv1a64, median, percentile, quartiles, tail_percentile};
use crate::trace::Trace;
use crate::Settings;

/// Devices per `balanced` fleet run (~7k windows, ~0.2 s at one thread:
/// short enough for about fifty runs, and a p80 tail, in ten seconds).
pub const BALANCED_DEVICES: u64 = 128;
/// Devices per `cohort` fleet run (~450k windows, mostly cache replays).
pub const COHORT_DEVICES: u64 = 8192;
/// Fleets a run rotates through (seeds `seed..seed + 8`): enough that the
/// work per fleet and the modelled means average out across seeds.
pub const FLEETS: u64 = 8;
/// Set-ups timed per fleet; `setup_s` is the median over all of them.
const SETUPS_PER_FLEET: usize = 3;
/// Shards the artifact probe splits the fleet into.
const ARTIFACT_SHARDS: u32 = 4;
/// Devices whose synthesis the cohort trace samples directly (its replay
/// synthesizes only inside cache fills).
const SAMPLE_DEVICES: u64 = 16;

pub const PUSH: &str = "fleet.report.push";
pub const FINALIZE: &str = "fleet.report.finalize";

/// The workload's fleets, as the job specs the daemon would run for them:
/// seeds `seed..seed + FLEETS`, run in rotation.
pub fn specs(workload: &str, seed: u64, nproc: usize, smoke: bool) -> Option<Vec<JobSpec>> {
    let (devices, threads, report_mode, profile_cache) = match workload {
        // Every device a distinct subject: the cache could never hit, so it
        // stays off, and the executor's one-thread path runs.
        "balanced" => (BALANCED_DEVICES, 1, ReportMode::Exact, false),
        // A 16-profile subject pool replayed from per-worker caches sized
        // to the pool, on every core.
        "cohort" => (COHORT_DEVICES, nproc, ReportMode::Sketch, true),
        _ => return None,
    };
    let fleets = if smoke { 2 } else { FLEETS };
    let specs = (0..fleets).map(|k| {
        let mut spec = JobSpec::new(if smoke { 48 } else { devices });
        spec.seed = seed.wrapping_add(k);
        spec.mix = workload.to_string();
        spec.threads = threads;
        spec.shards = ARTIFACT_SHARDS;
        spec.report_mode = report_mode;
        spec.profile_cache = profile_cache;
        spec
    });
    Some(specs.collect())
}

/// One fleet of the rotation.
struct Fleet {
    spec: JobSpec,
    sim: FleetSimulation,
    /// The expected report body.
    reference: Vec<u8>,
    /// The first run's outcome.
    outcome: Option<FleetOutcome>,
}

/// The expected report body, computed without the executor, the shard or
/// the merge layer: each device through `fleet::simulate_device` (or its
/// cached variant with one pool-sized cache) at one thread, folded by a
/// `FleetAccumulator`.
fn reference_body(sim: &FleetSimulation, spec: &JobSpec) -> Result<Vec<u8>, String> {
    let mut cache = spec.executor_options().profile_cache.map(WindowCache::new);
    let mut accumulator = FleetAccumulator::with_mode(spec.report_mode);
    for id in 0..spec.devices {
        let scenario = sim.generator().scenario(id);
        let device = match cache.as_mut() {
            Some(cache) => {
                fleet::simulate_device_cached(&scenario, sim.zoo(), sim.engine(), cache, None)
            }
            None => fleet::simulate_device(&scenario, sim.zoo(), sim.engine()),
        }
        .map_err(|e| format!("reference run: {e}"))?;
        accumulator.push(&device);
    }
    let sketch = accumulator.sketch_info();
    Ok(render_report_body(&accumulator.finalize(), sketch))
}

/// Builds `spec`'s simulation `SETUPS_PER_FLEET` times, recording how long
/// each `FleetSimulation::new` took, and returns the last one.
fn timed_setups(spec: &JobSpec, setups: &mut Vec<f64>) -> Result<FleetSimulation, String> {
    let mix = ScenarioMix::from_name(&spec.mix).ok_or("unknown mix")?;
    let mut sim = None;
    for _ in 0..SETUPS_PER_FLEET {
        let start = Instant::now();
        let built = FleetSimulation::new(spec.seed, mix).map_err(|e| format!("set-up: {e}"))?;
        setups.push(start.elapsed().as_secs_f64());
        sim = Some(built);
    }
    sim.ok_or_else(|| "no set-up ran".to_string())
}

/// Runs a fleet workload.
///
/// # Errors
///
/// A message when the simulation cannot be built or a run fails outright
/// (wrong output is a failed operation, not an error).
pub fn run(specs: &[JobSpec], settings: &Settings) -> Result<RunResult, String> {
    let mut result = RunResult::default();

    // Set-up, timed a few times per fleet; then each fleet's expected body.
    let mut setups = Vec::new();
    let mut fleets = Vec::new();
    let mut wrong_digest = false;
    for spec in specs {
        let sim = timed_setups(spec, &mut setups)?;
        let reference = reference_body(&sim, spec)?;
        let digest = fnv1a64(&reference);
        let recorded = settings
            .expected_digest
            .or_else(|| crate::recorded_digest(&spec.mix, spec.seed, spec.devices));
        let verdict = match recorded {
            None => "",
            Some(recorded) if recorded == digest => ", matches the recorded digest",
            Some(recorded) => {
                wrong_digest = true;
                result.failures.push(format!(
                    "seed {}: report digest {digest:016x} differs from the recorded {recorded:016x}",
                    spec.seed
                ));
                ", DIFFERS from the recorded digest"
            }
        };
        result.notes.push(format!(
            "fleet seed {}: expected report {} bytes, digest {digest:016x}{verdict}",
            spec.seed,
            reference.len()
        ));
        fleets.push(Fleet {
            spec: spec.clone(),
            sim,
            reference,
            outcome: None,
        });
    }

    // One untimed warm-up run, then timed runs through the rotation until
    // the time is up and every fleet ran.
    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut start = Instant::now();
    let mut rep = 0usize;
    loop {
        let fleet = &mut fleets[rep % specs.len()];
        let begin = Instant::now();
        let run = fleet
            .sim
            .run_with_options(fleet.spec.devices, &fleet.spec.executor_options(), None)
            .map_err(|e| format!("fleet run: {e}"))?;
        let wall = begin.elapsed().as_secs_f64();
        result.attempted += fleet.spec.devices;
        let body = render_report_body(&run.report, run.sketch);
        if body != fleet.reference {
            result.failed += fleet.spec.devices;
            result.failures.push(format!(
                "run {rep} (seed {}): report digest {:016x}, expected {:016x}",
                fleet.spec.seed,
                fnv1a64(&body),
                fnv1a64(&fleet.reference)
            ));
        }
        if rep == 0 {
            start = Instant::now();
        } else {
            walls.push(wall);
            rates.push(run.report.total_windows as f64 / wall);
        }
        fleet.outcome.get_or_insert(run);
        rep += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if walls.len() >= settings.min_reps.max(specs.len()) && elapsed >= settings.seconds {
            break;
        }
    }
    if wrong_digest {
        result.fail_all("an expected report differs from its recorded digest".to_string());
    }
    // As many set-ups again after the timed runs, so the median does not
    // hinge on the host's state in the run's first seconds.
    for spec in specs {
        timed_setups(spec, &mut setups)?;
    }
    let reports: Vec<&fleet::FleetReport> = fleets
        .iter()
        .filter_map(|f| f.outcome.as_ref().map(|o| &o.report))
        .collect();
    let mean = |f: &dyn Fn(&fleet::FleetReport) -> f64| {
        reports.iter().map(|r| f(r)).sum::<f64>() / reports.len() as f64
    };
    let walls_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    let tail = tail_percentile(walls.len());
    let e2e = &mut result.end_to_end;
    e2e.setup_s = median(&setups);
    e2e.windows_per_s = median(&rates);
    e2e.jobs_per_s = walls.len() as f64 / walls.iter().sum::<f64>();
    e2e.job_p50_ms = median(&walls_ms);
    e2e.job_tail_ms = percentile(&walls_ms, tail);
    e2e.peak_rss_mb = peak_rss_mb();
    e2e.sim_mae_bpm = mean(&|r| r.mae_bpm.mean);
    e2e.sim_watch_uj = mean(&|r| r.watch_energy_uj.mean);
    e2e.sim_violation_frac = mean(&|r| r.constraint_violations as f64 / r.devices as f64);
    let (q1, _, q3) = quartiles(&rates);
    let p90 = percentile(&rates, 90);
    result.notes.push(format!(
        "job = one fleet run of {} devices, rotating over {} seeds; job_tail_ms is p{tail} of {} timed runs; \
         windows/s within the run: quartiles {q1:.0} .. {q3:.0}, p90 {p90:.0}",
        specs[0].devices,
        specs.len(),
        walls.len()
    ));

    if settings.trace {
        let fleet = &fleets[0];
        let outcome = fleet.outcome.as_ref().ok_or("the first fleet never ran")?;
        // Untraced seconds of this fleet's run, at the median window rate.
        let untraced = outcome.report.total_windows as f64 / result.end_to_end.windows_per_s;
        let layers = trace(
            &fleet.spec,
            &fleet.sim,
            outcome,
            untraced,
            walls.len(),
            settings,
            &mut result,
        )?;
        result.layers = Some(layers);
    }
    Ok(result)
}

/// The traced run: replays the fleet device by device at one thread, in
/// program order, for half the run time (at least once), then probes the
/// layers the replay does not reach.
fn trace(
    spec: &JobSpec,
    sim: &FleetSimulation,
    outcome: &FleetOutcome,
    untraced_wall: f64,
    jobs: usize,
    settings: &Settings,
    result: &mut RunResult,
) -> Result<Layers, String> {
    let options = spec.executor_options();
    let threads = options.threads.max(1).min(outcome.devices.len()) as f64;
    let model = Model {
        generator: sim.generator(),
        zoo: sim.zoo(),
        engine: sim.engine(),
    };
    let mut trace = Trace::new();
    let mut replay_walls = Vec::new();
    let (mut hits, mut lookups, mut mismatches) = (0u64, 0u64, 0usize);
    let start = Instant::now();
    loop {
        let begin = Instant::now();
        let mut cache = options.profile_cache.map(WindowCache::new);
        let mut accumulator = FleetAccumulator::with_mode(spec.report_mode);
        for untraced in &outcome.devices {
            let id = untraced.device_id;
            let traced = replay_device(&mut trace, &model, id, cache.as_mut())?;
            if !replay::same_result(&traced, untraced) {
                mismatches += 1;
            }
            trace.span(PUSH, id, || accumulator.push(untraced), |_| 1);
        }
        let sketch = accumulator.sketch_info();
        let report = trace.span(FINALIZE, 0, || accumulator.finalize(), |_| spec.devices);
        replay_walls.push(begin.elapsed().as_secs_f64());
        if report != outcome.report || sketch != outcome.sketch {
            mismatches += 1;
        }
        if let Some(cache) = &cache {
            hits += cache.hits();
            lookups += cache.hits() + cache.misses();
        }
        if start.elapsed().as_secs_f64() >= settings.seconds / 2.0 {
            break;
        }
    }
    if mismatches > 0 {
        result.fail_all(format!(
            "the traced replay disagreed with the untraced run {mismatches} times"
        ));
    }
    let reps = replay_walls.len() as f64;

    let mut side = Trace::new();
    if trace.total(replay::SYNTH).spans == 0 {
        probes::synthesis_sample(&mut side, &model, SAMPLE_DEVICES.min(spec.devices))?;
    }
    if trace.total(replay::CACHE_HIT).spans == 0 {
        probes::cache_sample(&mut side, &model, 4.min(spec.devices))?;
    }
    probes::segments(&mut side, spec.seed);
    for unit in 0..3 {
        probes::profile(&mut side, spec.seed, unit)?;
    }
    probes::aggregators(&mut side, &outcome.devices, 3);
    let spool = settings.scratch_dir("artifacts");
    let artifacts = probes::artifacts(&mut side, sim, spec, &spool, 1);
    let _ = std::fs::remove_dir_all(&spool);
    let artifacts = artifacts?;
    if artifacts.merged.0 != outcome.report || artifacts.merged.1 != outcome.sketch {
        result.fail_all("the artifact path merged a different report".to_string());
    }

    let pick = |name: &str| {
        let replayed = trace.total(name);
        if replayed.spans > 0 {
            replayed
        } else {
            side.total(name)
        }
    };
    let thread_seconds = threads * untraced_wall;
    let per_rep_s = |name: &str| trace.total(name).ns as f64 / reps / 1e9;
    let device_s: f64 = replay::SPANS.iter().map(|name| per_rep_s(name)).sum();
    let attributed_s = device_s + per_rep_s(PUSH) + per_rep_s(FINALIZE);
    result.notes.push(format!(
        "attribution of one fleet run: {threads} thread(s) x {:.1} ms untraced = {:.1} thread-ms",
        untraced_wall * 1e3,
        thread_seconds * 1e3
    ));
    for name in replay::SPANS.iter().chain(&[PUSH, FINALIZE]) {
        let s = per_rep_s(name);
        if s > 0.0 {
            result.notes.push(attribution_row(name, s, thread_seconds));
        }
    }
    result.notes.push(attribution_row(
        "unattributed",
        thread_seconds - attributed_s,
        thread_seconds,
    ));
    settings.write_spans(&[("replay", &trace), ("probes", &side)]);

    Ok(Layers {
        scenario_ns_per_device: trace.total(replay::SCENARIO).ns_per_item(),
        synth_ns_per_window: pick(replay::SYNTH).ns_per_item(),
        hr_ns_per_sample: side.total(probes::HR).ns_per_item(),
        accel_ns_per_sample: side.total(probes::ACCEL).ns_per_item(),
        ppg_ns_per_sample: side.total(probes::PPG).ns_per_item(),
        extract_ns_per_window: pick(replay::EXTRACT).ns_per_item(),
        cache_hit_ratio: if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
        cache_replay_ns_per_window: pick(replay::CACHE_HIT).ns_per_item(),
        runtime_ns_per_window: trace.total(replay::RUNTIME).ns_per_item(),
        runtime_build_ns_per_device: trace.total(replay::RUNTIME_BUILD).ns_per_item(),
        profiling_ms: side.total(probes::PROFILING).ns_per_item() / 1e6,
        executor_busy_frac: device_s / thread_seconds,
        report_exact_ns_per_device: side.total(probes::REPORT_EXACT).ns_per_item(),
        report_sketch_ns_per_device: side.total(probes::REPORT_SKETCH).ns_per_item(),
        artifact_encode_ns_per_device: side.total(probes::ENCODE).ns_per_item(),
        artifact_decode_ns_per_device: side.total(probes::DECODE).ns_per_item(),
        artifact_bytes_per_device: artifacts.bytes as f64 / spec.devices as f64,
        merge_ns_per_device: side.total(probes::MERGE).ns_per_item(),
        spool_write_us_per_shard: side.total(probes::SPOOL_WRITE).ns_per_item() / 1e3,
        devices: spec.devices as f64,
        windows: outcome.report.total_windows as f64,
        jobs: jobs as f64,
        attributed_frac: attributed_s / thread_seconds,
        overhead_frac: median(&replay_walls) / thread_seconds - 1.0,
        ..Layers::default()
    })
}

/// One row of the attribution table: seconds per unit and share.
pub fn attribution_row(name: &str, seconds: f64, thread_seconds: f64) -> String {
    format!(
        "  {name:<34} {:>10.3} ms {:>6.1}%",
        seconds * 1e3,
        100.0 * seconds / thread_seconds
    )
}
