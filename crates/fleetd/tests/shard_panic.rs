//! A shard that panics fails its job; it does not wedge it.
//!
//! The panic is provoked through the registry the daemon's workers record
//! into: `chris_windows_total` is registered on the process-global registry
//! with a help text the runtime does not use, so folding a shard run's
//! registry into it fails and `run_shard_with_options`'s `expect` panics.
//! That pollutes the global registry for the whole process, hence this
//! binary of its own.

mod common;

use common::TestDaemon;
use fleetd::job::JobSpec;
use telemetry::Stability;

#[test]
fn a_panicking_shard_fails_its_job_and_frees_its_queue_slot() {
    telemetry::global()
        .counter(
            "chris_windows_total",
            &[],
            "a help text no run records with",
            Stability::Stable,
        )
        .unwrap();
    // One worker and one queue slot: a wedged job would hold both.
    let daemon = TestDaemon::start("shard-panic", 1, 1);
    let mut spec = JobSpec::new(2);
    spec.shards = 1;

    let (status, body) = daemon.request("POST", "/jobs", Some(&spec.to_json()));
    assert_eq!(status, 202, "first submit: {body}");
    let first = daemon.wait_done(common::job_id(&body));
    assert!(first.contains("\"state\":\"failed\""), "{first}");
    assert!(first.contains("shard 0 panicked: "), "{first}");

    // The slot is free again, and the worker is still alive to run the
    // next job to a terminal state.
    let (status, body) = daemon.request("POST", "/jobs", Some(&spec.to_json()));
    assert_eq!(status, 202, "second submit: {body}");
    daemon.wait_done(common::job_id(&body));
    daemon.cleanup();
}
