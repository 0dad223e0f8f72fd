//! End-to-end daemon tests: submit over HTTP, poll to completion, verify the
//! served report is byte-identical to an in-process run, scrape live
//! metrics, and restart over the same spool.

mod common;

use common::TestDaemon;
use fleet::FleetSimulation;
use fleetd::job::JobSpec;
use fleetd::spool::render_report_body;

/// What the CLI would print for `spec`: run the same engine in-process and
/// render with the shared report renderer.
fn expected_body(spec: &JobSpec) -> String {
    let sim = FleetSimulation::new(spec.seed, spec.resolved_mix()).expect("profiling");
    let outcome = sim
        .run_with_options(spec.devices, &spec.executor_options(), None)
        .expect("running the fleet");
    String::from_utf8(render_report_body(&outcome.report, outcome.sketch)).expect("UTF-8 report")
}

#[test]
fn http_jobs_round_trip_byte_identical_reports() {
    let daemon = TestDaemon::start("roundtrip", 2, 4);

    // Exact mode.
    let (status, body) = daemon.request(
        "POST",
        "/jobs",
        Some(r#"{"devices": 5, "seed": 11, "shards": 2, "threads": 2}"#),
    );
    assert_eq!(status, 202, "submit: {body}");
    assert!(
        body.contains("\"state\":\"queued\""),
        "initial state: {body}"
    );
    let exact_id = common::job_id(&body);
    let done = daemon.wait_done(exact_id);
    assert!(done.contains("\"state\":\"done\""), "terminal: {done}");
    assert!(done.contains("\"shards_done\":2"), "shards: {done}");
    assert!(done.contains("\"devices_done\":5"), "devices: {done}");

    let (status, served) = daemon.request("GET", &format!("/jobs/{exact_id}/report"), None);
    assert_eq!(status, 200);
    let mut spec = JobSpec::new(5);
    spec.seed = 11;
    spec.shards = 2;
    spec.threads = 2;
    assert_eq!(served, expected_body(&spec), "exact-mode byte identity");

    // Sketch mode: same guarantee through the SketchedReport envelope.
    let (status, body) = daemon.request(
        "POST",
        "/jobs",
        Some(r#"{"devices": 5, "seed": 11, "shards": 2, "report_mode": "sketch"}"#),
    );
    assert_eq!(status, 202, "sketch submit: {body}");
    let sketch_id = common::job_id(&body);
    daemon.wait_done(sketch_id);
    let (status, served) = daemon.request("GET", &format!("/jobs/{sketch_id}/report"), None);
    assert_eq!(status, 200);
    let mut sketch_spec = JobSpec::new(5);
    sketch_spec.seed = 11;
    sketch_spec.shards = 2;
    sketch_spec.report_mode = fleet::ReportMode::Sketch;
    assert_eq!(
        served,
        expected_body(&sketch_spec),
        "sketch-mode byte identity"
    );
    assert!(
        served.starts_with("{\n  \"sketch\""),
        "sketch envelope: {served}"
    );

    // The job index lists both.
    let (status, listing) = daemon.request("GET", "/jobs", None);
    assert_eq!(status, 200);
    assert!(listing.contains(&format!("\"id\":{exact_id}")));
    assert!(listing.contains(&format!("\"id\":{sketch_id}")));

    // Live metrics: the scrape serves the process registry, which by now
    // carries both daemon counters and fleet run series.
    let (status, metrics) = daemon.request("GET", "/metrics", None);
    assert_eq!(status, 200);
    assert!(metrics.contains("# TYPE chris_fleetd_http_requests_total counter"));
    assert!(metrics.contains("chris_fleetd_jobs_total{event=\"completed\"}"));
    assert!(
        metrics.contains("chris_windows_total"),
        "fleet series: live registry"
    );

    daemon.cleanup();
}

#[test]
fn restart_over_the_same_spool_recovers_finished_jobs() {
    let mut daemon = TestDaemon::start("restart", 1, 4);
    let (status, body) = daemon.request("POST", "/jobs", Some(r#"{"devices": 3, "seed": 4}"#));
    assert_eq!(status, 202, "submit: {body}");
    let id = common::job_id(&body);
    daemon.wait_done(id);
    let (_, first_report) = daemon.request("GET", &format!("/jobs/{id}/report"), None);
    daemon.shutdown();
    let spool = daemon.spool.clone();

    // A new incarnation over the same spool serves the same job, same bytes.
    let revived = TestDaemon::start_on(spool, 1, 4);
    let (status, body) = revived.request("GET", &format!("/jobs/{id}"), None);
    assert_eq!(status, 200);
    assert!(body.contains("\"state\":\"done\""), "recovered: {body}");
    assert!(body.contains("\"devices_done\":3"), "recovered: {body}");
    let (status, second_report) = revived.request("GET", &format!("/jobs/{id}/report"), None);
    assert_eq!(status, 200);
    assert_eq!(second_report, first_report, "recovery byte identity");

    // Fresh ids continue after the recovered ones.
    let (status, body) = revived.request("POST", "/jobs", Some(r#"{"devices": 1}"#));
    assert_eq!(status, 202);
    assert_eq!(common::job_id(&body), id + 1);
    revived.cleanup();
}

#[test]
fn a_deleted_report_file_gives_a_typed_error() {
    let daemon = TestDaemon::start("deleted", 1, 4);
    let (status, body) = daemon.request("POST", "/jobs", Some(r#"{"devices": 2, "seed": 6}"#));
    assert_eq!(status, 202, "submit: {body}");
    let id = common::job_id(&body);
    daemon.wait_done(id);
    // The daemon serves the body from the spool, not from memory.
    std::fs::remove_file(daemon.spool.join(format!("job-{id}/report.json"))).unwrap();
    let (status, body) = daemon.request("GET", &format!("/jobs/{id}/report"), None);
    assert_eq!(status, 500);
    let error: fleetd::http::ErrorBody = serde_json::from_str(&body).expect("typed error body");
    assert!(error.error.contains("unreadable"), "error: {}", error.error);
    // The daemon keeps serving.
    let (status, _) = daemon.request("GET", &format!("/jobs/{id}"), None);
    assert_eq!(status, 200);
    daemon.cleanup();
}

#[test]
fn shutdown_drains_and_the_accept_loop_returns() {
    let mut daemon = TestDaemon::start("drain", 1, 4);
    let (status, text) = daemon.request("POST", "/shutdown", None);
    assert_eq!(status, 200);
    assert!(text.contains("draining"));
    daemon.join();
    let _ = std::fs::remove_dir_all(&daemon.spool);
}
