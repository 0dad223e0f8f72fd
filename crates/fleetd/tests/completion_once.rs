//! Every job completes exactly once, however its shards interleave.
//!
//! In a live daemon the worker that checkpoints a job's last shard merges
//! it; no other worker can. This binary runs in its own process, so the
//! global registry `GET /metrics` serves counts only this test's jobs: many
//! concurrent 4-shard jobs on 4 workers must each be counted `completed`
//! once, none `failed`, and each must serve the CLI's bytes.

mod common;

use common::TestDaemon;
use fleet::FleetSimulation;
use fleetd::job::JobSpec;
use fleetd::spool::render_report_body;

const JOBS: u64 = 16;
const SHARDS: u32 = 4;

fn spec(seed: u64) -> JobSpec {
    let mut spec = JobSpec::new(8);
    spec.seed = seed;
    spec.shards = SHARDS;
    spec
}

#[test]
fn each_job_completes_exactly_once_with_the_cli_bytes() {
    let daemon = TestDaemon::start("once", 4, JOBS as usize);
    let ids: Vec<(u64, u64)> = (0..JOBS)
        .map(|seed| {
            let (status, body) = daemon.request("POST", "/jobs", Some(&spec(seed).to_json()));
            assert_eq!(status, 202, "submit: {body}");
            (common::job_id(&body), seed)
        })
        .collect();
    for &(id, _) in &ids {
        let done = daemon.wait_done(id);
        assert!(done.contains("\"state\":\"done\""), "job {id}: {done}");
    }

    let (status, metrics) = daemon.request("GET", "/metrics", None);
    assert_eq!(status, 200);
    let samples = telemetry::parse_exposition(&metrics).expect("valid exposition");
    let series = |name: &str| telemetry::sample_value(&samples, name);
    assert_eq!(
        series("chris_fleetd_jobs_total{event=\"submitted\"}"),
        Some(JOBS as f64)
    );
    assert_eq!(
        series("chris_fleetd_jobs_total{event=\"completed\"}"),
        Some(JOBS as f64)
    );
    assert_eq!(series("chris_fleetd_jobs_total{event=\"failed\"}"), None);
    assert_eq!(
        series("chris_fleetd_shards_total{event=\"completed\"}"),
        Some((JOBS * u64::from(SHARDS)) as f64)
    );

    for (id, seed) in ids {
        let spec = spec(seed);
        let sim = FleetSimulation::new(spec.seed, spec.resolved_mix()).expect("profiling");
        let outcome = sim
            .run_with_options(spec.devices, &spec.executor_options(), None)
            .expect("running the fleet");
        let (status, served) = daemon.request("GET", &format!("/jobs/{id}/report"), None);
        assert_eq!(status, 200);
        assert_eq!(
            served.into_bytes(),
            render_report_body(&outcome.report, outcome.sketch),
            "job {id} (seed {seed})"
        );
    }
    daemon.cleanup();
}
