//! Direct calls into single layers, timed from outside on the workload's own
//! shape: the synthesizers on fixed segments, profiling, both aggregators,
//! and the shard-artifact path (encode, spool write, spool read, decode,
//! merge, render). Their spans go to a side trace: they measure per-item
//! rates, and only the ones a workload's job actually performs count
//! towards its attribution.

use std::path::Path;

use chris_core::{DecisionEngine, Profiler, ProfilingOptions};
use fleet::{
    DeviceReport, FleetAccumulator, FleetReport, FleetSimulation, MergeAccumulator, ReportMode,
    ShardReport,
};
use fleetd::spool::render_report_body;
use fleetd::{JobSpec, Spool};
use ppg_data::accel_synth::accel_segment;
use ppg_data::hr_profile::hr_trajectory;
use ppg_data::ppg_synth::ppg_segment;
use ppg_data::{Activity, DatasetBuilder, SubjectId, SubjectProfile, WindowCache, SAMPLE_RATE_HZ};
use ppg_models::zoo::ModelZoo;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::replay::{self, Model};
use crate::trace::Trace;

pub const HR: &str = "ppg_data.hr";
pub const ACCEL: &str = "ppg_data.accel";
pub const PPG: &str = "ppg_data.ppg";
pub const PROFILING: &str = "chris_core.profiling";
pub const REPORT_EXACT: &str = "fleet.report.exact";
pub const REPORT_SKETCH: &str = "fleet.report.sketch";
pub const ENCODE: &str = "fleet.artifact.encode";
pub const DECODE: &str = "fleet.artifact.decode";
pub const SPOOL_WRITE: &str = "fleetd.spool.write_shard";
pub const SPOOL_READ: &str = "fleetd.spool.read_shard";
pub const MERGE: &str = "fleet.merge";
pub const RENDER: &str = "fleetd.spool.render_report_body";

/// Length of the fixed synthesis segments, as in the paper's 150 s
/// recordings per activity.
const SEGMENT_SECONDS: f32 = 150.0;

/// Times `hr_trajectory`, `accel_segment` and `ppg_segment` on one 150 s
/// segment per activity (items: samples).
pub fn segments(side: &mut Trace, seed: u64) {
    let samples = (SEGMENT_SECONDS * SAMPLE_RATE_HZ) as usize;
    let mut rng = StdRng::seed_from_u64(seed);
    let profile = SubjectProfile::generate(SubjectId(0), &mut rng);
    let mut last_hr = profile.resting_hr_bpm;
    let n = samples as u64;
    for (index, &activity) in Activity::ALL.iter().enumerate() {
        let unit = index as u64;
        let hr = side.span(
            HR,
            unit,
            || {
                hr_trajectory(
                    &mut rng,
                    &profile,
                    activity,
                    samples,
                    SAMPLE_RATE_HZ,
                    last_hr,
                )
            },
            |_| n,
        );
        last_hr = hr.last().copied().unwrap_or(last_hr);
        let accel = side.span(
            ACCEL,
            unit,
            || accel_segment(&mut rng, &profile, activity, samples, SAMPLE_RATE_HZ),
            |_| n,
        );
        let ppg = side.span(
            PPG,
            unit,
            || {
                ppg_segment(
                    &mut rng,
                    &profile,
                    &hr,
                    &accel.motion_envelope,
                    SAMPLE_RATE_HZ,
                )
            },
            |_| n,
        );
        std::hint::black_box(ppg);
    }
}

/// The profiled decision engine `FleetSimulation::new` builds for `seed`,
/// with `Profiler::profile_all` inside a span.
///
/// # Errors
///
/// A message when the profiling stream or the profiler fails.
pub fn profile(
    side: &mut Trace,
    seed: u64,
    unit: u64,
) -> Result<(ModelZoo, DecisionEngine), String> {
    let zoo = ModelZoo::paper_setup();
    let stream = DatasetBuilder::new()
        .subjects(FleetSimulation::PROFILING_SUBJECTS)
        .seconds_per_activity(FleetSimulation::PROFILING_SECONDS_PER_ACTIVITY)
        .seed(seed)
        .window_stream()
        .map_err(|e| format!("profiling stream: {e}"))?;
    let profiler = Profiler::new(&zoo);
    let table = side
        .span(
            PROFILING,
            unit,
            || profiler.profile_all(stream, ProfilingOptions::default()),
            |_| 1,
        )
        .map_err(|e| format!("profiling: {e}"))?;
    Ok((zoo, DecisionEngine::new(table)))
}

/// Times both aggregators over `devices` (items: devices), `passes` times.
pub fn aggregators(side: &mut Trace, devices: &[DeviceReport], passes: usize) {
    for pass in 0..passes {
        for (name, mode) in [
            (REPORT_EXACT, ReportMode::Exact),
            (REPORT_SKETCH, ReportMode::Sketch),
        ] {
            let report = side.span(
                name,
                pass as u64,
                || {
                    let mut accumulator = FleetAccumulator::with_mode(mode);
                    for device in devices {
                        accumulator.push(device);
                    }
                    accumulator.finalize()
                },
                |_| devices.len() as u64,
            );
            std::hint::black_box(report);
        }
    }
}

/// Synthesis and extraction of the first `count` devices' sessions, for
/// workloads whose replay synthesizes only through the cache.
pub fn synthesis_sample(side: &mut Trace, model: &Model<'_>, count: u64) -> Result<(), String> {
    for id in 0..count {
        let scenario = model.generator.scenario(id);
        let dataset = side
            .span(
                replay::SYNTH,
                id,
                || replay::session_builder(&scenario).build(),
                |d| {
                    d.as_ref().map_or(0, |d| {
                        d.recordings().iter().map(|r| r.window_count() as u64).sum()
                    })
                },
            )
            .map_err(|e| format!("device {id}: synthesis: {e}"))?;
        let windows = side
            .span(
                replay::EXTRACT,
                id,
                || replay::extract(dataset.recordings()),
                |w| w.as_ref().map_or(0, |w| w.len() as u64),
            )
            .map_err(|e| format!("device {id}: extraction: {e}"))?;
        std::hint::black_box(windows);
    }
    Ok(())
}

/// Cache hits on the first `count` devices' sessions, for workloads whose
/// replay never hits (items: windows replayed).
pub fn cache_sample(side: &mut Trace, model: &Model<'_>, count: u64) -> Result<(), String> {
    let mut cache = WindowCache::new(usize::try_from(count).unwrap_or(usize::MAX));
    for id in 0..count {
        let scenario = model.generator.scenario(id);
        scenario
            .cached_window_stream(&mut cache)
            .map_err(|e| format!("device {id}: cache fill: {e}"))?;
        let stream = side
            .span(
                replay::CACHE_HIT,
                id,
                || scenario.cached_window_stream(&mut cache),
                |s| {
                    s.as_ref()
                        .map_or(0, |s| ppg_data::WindowSource::size_hint(s).0 as u64)
                },
            )
            .map_err(|e| format!("device {id}: cache replay: {e}"))?;
        std::hint::black_box(stream);
    }
    Ok(())
}

/// What the artifact path produced.
pub struct Artifacts {
    /// The merged report and its sketch diagnostics.
    pub merged: (FleetReport, Option<fleet::SketchInfo>),
    /// The rendered body, as a daemon would serve it.
    pub body: Vec<u8>,
    /// Encoded bytes over every shard.
    pub bytes: u64,
}

/// Runs `spec`'s shards with `FleetSimulation::run_shard_with_options`
/// (untimed), then times each shard's `to_string_pretty` and `from_str`
/// (items: devices), `Spool::write_shard` and `Spool::read_shard` into a
/// spool under `spool_dir` (items: shards for writes, devices for reads),
/// the `MergeAccumulator` fold (items: devices) and `render_report_body`.
///
/// # Errors
///
/// A message naming the failing step; decode round-trips must be exact.
pub fn artifacts(
    side: &mut Trace,
    sim: &FleetSimulation,
    spec: &JobSpec,
    spool_dir: &Path,
    job: u64,
) -> Result<Artifacts, String> {
    let shard_spec = spec.shard_spec().map_err(|e| e.to_string())?;
    let options = spec.executor_options();
    let mut shards = Vec::new();
    for index in 0..spec.shards {
        shards.push(
            sim.run_shard_with_options(&shard_spec, index, &options, None)
                .map_err(|e| format!("shard {index}: {e}"))?,
        );
    }
    let spool = Spool::new(spool_dir).map_err(|e| format!("opening the spool: {e}"))?;
    std::fs::create_dir_all(spool.job_dir(job))
        .map_err(|e| format!("creating the job dir: {e}"))?;
    let mut bytes = 0u64;
    for shard in &shards {
        let index = u64::from(shard.meta.shard_index);
        let devices = shard.devices.len() as u64;
        let text = side
            .span(
                ENCODE,
                index,
                || serde_json::to_string_pretty(shard),
                |_| devices,
            )
            .map_err(|e| format!("encoding shard {index}: {e}"))?;
        bytes += text.len() as u64;
        let decoded: ShardReport = side
            .span(DECODE, index, || serde_json::from_str(&text), |_| devices)
            .map_err(|e| format!("decoding shard {index}: {e}"))?;
        if &decoded != shard {
            return Err(format!(
                "shard {index} does not survive an encode/decode round trip"
            ));
        }
        side.span(SPOOL_WRITE, index, || spool.write_shard(job, shard), |_| 1)?;
    }
    let mut read = Vec::new();
    for index in 0..spec.shards {
        read.push(side.span(
            SPOOL_READ,
            u64::from(index),
            || spool.read_shard(job, spec, index),
            |s| s.as_ref().map_or(0, |s| s.devices.len() as u64),
        )?);
    }
    let merged = side
        .span(
            MERGE,
            job,
            || {
                let mut accumulator = MergeAccumulator::new();
                for shard in &read {
                    accumulator.push(shard)?;
                }
                let sketch = accumulator.sketch_info();
                accumulator.finalize().map(|report| (report, sketch))
            },
            |_| spec.devices,
        )
        .map_err(|e| format!("merging: {e}"))?;
    let body = side.span(
        RENDER,
        job,
        || render_report_body(&merged.0, merged.1),
        |_| 1,
    );
    Ok(Artifacts {
        merged,
        body,
        bytes,
    })
}
