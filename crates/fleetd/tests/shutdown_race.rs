//! Threaded regression test for the abort-shutdown race.
//!
//! The latch itself is model-checked exhaustively in
//! `fleetd/tests/interleave_harness.rs`; this test drives the *whole
//! daemon* — real sockets, real worker pool, real spool — through the
//! race the latch guards: `POST /shutdown?mode=abort` arriving while
//! clients are still submitting jobs. Whatever side of the drain each
//! submission lands on, the invariants are:
//!
//! * every accepted (`202`) job occupies a real queue slot backed by a
//!   persisted spec — a restart over the same spool knows all of them
//!   and can finish them (no leaked slots, no lost jobs);
//! * the spool never holds a partial artifact: `write_atomic` temp
//!   siblings are gone and every checkpointed shard passes the same
//!   provenance gate recovery itself applies;
//! * rejected submissions got the typed drain/full answer, not a
//!   connection drop — except once the daemon may have exited, where a
//!   refused or reset connection is the rejection.

mod common;

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use common::TestDaemon;

/// Submits one job spec over a fresh connection and returns the raw
/// response bytes.
fn submit(addr: SocketAddr, body: &str) -> std::io::Result<Vec<u8>> {
    let request = format!(
        "POST /jobs HTTP/1.1\r\nHost: fleetd\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(request.as_bytes())?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    Ok(response)
}

/// Files under `root`, recursively.
fn walk(root: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(root) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            walk(&path, out);
        } else {
            out.push(path);
        }
    }
}

#[test]
fn abort_shutdown_racing_admission_leaks_nothing() {
    let mut daemon = TestDaemon::start("abort-race", 2, 16);
    let addr = daemon.addr;

    // Four clients submit small jobs as fast as they can while the main
    // thread fires the abort. Submissions land on both sides of the drain.
    let shutdown_sent = Arc::new(AtomicBool::new(false));
    let submitters: Vec<_> = (0..4)
        .map(|client| {
            let shutdown_sent = Arc::clone(&shutdown_sent);
            std::thread::spawn(move || {
                let mut accepted = Vec::new();
                for round in 0..6 {
                    let body = format!(
                        r#"{{"devices": 2, "seed": {}, "shards": 2}}"#,
                        client * 100 + round
                    );
                    let response = submit(addr, &body);
                    let text = match response {
                        Ok(bytes) if !bytes.is_empty() => {
                            String::from_utf8_lossy(&bytes).into_owned()
                        }
                        // Once the shutdown is sent the daemon may exit
                        // before this connection is accepted: a refused,
                        // reset or unanswered connection then rejects the
                        // submission, and every later one.
                        _ if shutdown_sent.load(Ordering::SeqCst) => break,
                        other => panic!("submission failed before the shutdown: {other:?}"),
                    };
                    let status: u16 = text
                        .split_whitespace()
                        .nth(1)
                        .expect("status line")
                        .parse()
                        .expect("status code");
                    match status {
                        202 => accepted.push(common::job_id(&text)),
                        // Draining or queue-full: the typed rejections.
                        503 | 429 => {}
                        other => panic!("unexpected submit status {other}: {text}"),
                    }
                }
                accepted
            })
        })
        .collect();

    // Let admission get going, then abort mid-stream.
    std::thread::sleep(std::time::Duration::from_millis(15));
    shutdown_sent.store(true, Ordering::SeqCst);
    let (status, body) = daemon.request("POST", "/shutdown?mode=abort", None);
    assert_eq!(status, 200, "shutdown: {body}");
    assert!(body.contains("aborting"), "abort mode echoed: {body}");

    let mut accepted: Vec<u64> = submitters
        .into_iter()
        .flat_map(|s| s.join().expect("submitter must not panic"))
        .collect();
    accepted.sort_unstable();
    daemon.join();
    let spool = daemon.spool.clone();

    // The spool holds no partial artifact: no `write_atomic` temp sibling
    // survived the abort.
    let mut files = Vec::new();
    walk(&spool, &mut files);
    let strays: Vec<_> = files
        .iter()
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.contains(".tmp-"))
        })
        .collect();
    assert!(strays.is_empty(), "partial artifacts spooled: {strays:?}");

    // Every accepted job has a persisted spec the recovery scan admits:
    // the restarted daemon knows each id (no leaked or half-admitted
    // slot) and finishes the aborted remainder from the checkpoints —
    // which also re-runs every shard artifact through the provenance
    // gate; a corrupt or partial checkpoint would fail the job.
    let revived = TestDaemon::start_on(spool, 2, 16);
    for &id in &accepted {
        let (status, body) = revived.request("GET", &format!("/jobs/{id}"), None);
        assert_eq!(status, 200, "job {id} leaked out of the spool: {body}");
        let done = revived.wait_done(id);
        assert!(
            done.contains("\"state\":\"done\""),
            "job {id} did not recover cleanly: {done}"
        );
        let (status, _) = revived.request("GET", &format!("/jobs/{id}/report"), None);
        assert_eq!(status, 200, "job {id} has no servable report");
    }
    revived.cleanup();
}
