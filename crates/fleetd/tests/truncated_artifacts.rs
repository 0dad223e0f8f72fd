//! A daemon killed mid-write, or a disk that filled up, can leave a spool
//! file cut short anywhere. Every strict prefix of a spooled shard artifact
//! and of a `spec.json` must read back as a typed error, never as a value
//! and never as a panic.

use fleet::{FleetSimulation, ReportMode};
use fleetd::{JobSpec, Spool};

/// A 4-device cohort job in one shard: a small artifact whose devices
/// share pool slots, so it carries every field a spooled shard has.
fn spec() -> JobSpec {
    let mut spec = JobSpec::new(4);
    spec.mix = "cohort".to_string();
    spec.shards = 1;
    spec.threads = 1;
    spec.report_mode = ReportMode::Exact;
    spec
}

#[test]
fn every_strict_prefix_of_a_spooled_shard_is_an_error() {
    let root = std::env::temp_dir().join(format!("fleetd-prefixes-{}", std::process::id()));
    let spool = Spool::new(&root).unwrap();
    let spec = spec();
    let simulation = FleetSimulation::new(spec.seed, spec.resolved_mix()).unwrap();
    let shard = simulation
        .run_shard_with_options(
            &spec.shard_spec().unwrap(),
            0,
            &spec.executor_options(),
            None,
        )
        .unwrap();
    spool.persist_spec(1, &spec).unwrap();
    spool.write_shard(1, &shard).unwrap();
    let path = spool.job_dir(1).join("shard-00000.json");
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(spool.read_shard(1, &spec, 0).unwrap(), shard);

    // The artifact is a JSON document plus a newline; a prefix that keeps
    // the whole document is not truncated.
    let document = bytes
        .strip_suffix(b"\n")
        .expect("artifacts end in a newline");
    for len in 0..document.len() {
        std::fs::write(&path, &document[..len]).unwrap();
        assert!(
            spool.read_shard(1, &spec, 0).is_err(),
            "a {len}-byte prefix of a {}-byte artifact read back",
            document.len()
        );
    }
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn every_strict_prefix_of_a_spec_is_an_error() {
    let json = spec().to_json();
    assert_eq!(JobSpec::from_json(json.as_bytes()), Ok(spec()));
    for len in 0..json.len() {
        assert!(
            JobSpec::from_json(&json.as_bytes()[..len]).is_err(),
            "the prefix {:?} parsed",
            &json[..len]
        );
    }
}
