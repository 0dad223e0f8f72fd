//! Exhaustive model-checking harness for the fleet crate's lock-free core.
//!
//! Runs only with `--features interleave` (see `crates/interleave` and the
//! sibling harness in `crates/telemetry/tests/interleave_harness.rs`).
//!
//! Subject: the executor's CAS-claimed device cursor
//! ([`fleet::executor::claim_chunk`]) — concurrent workers must tile the
//! device range exactly (disjoint, gap-free, in-bounds) in every
//! interleaving, even with all-Relaxed orderings and spurious weak-CAS
//! failures injected. The mutation self-test splits the CAS into a load and
//! a store and demands the checker *find* the double claim — proving the
//! harness has teeth.

#![cfg(feature = "interleave")]

use std::ops::Range;
use std::sync::Arc;

use fleet::executor::claim_chunk;
use fleet::sync::atomic::{AtomicU64, Ordering};

/// Devices in the simulated fleet; small enough to explore exhaustively,
/// large enough that two workers interleave mid-range.
const DEVICES: u64 = 5;
/// Chunk size; deliberately not a divisor of [`DEVICES`] so the final
/// chunk is short.
const CHUNK: u64 = 2;

type Claim = fn(&AtomicU64, u64, u64) -> Option<Range<u64>>;

/// Two workers race `claim` over one cursor; their claims must tile
/// `0..DEVICES` exactly — no overlap, no gap, no out-of-bounds range.
fn two_workers_tile_the_range(claim: Claim) {
    let cursor = Arc::new(AtomicU64::new(0));
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let cursor = Arc::clone(&cursor);
            interleave::thread::spawn(move || {
                let mut claimed = Vec::new();
                while let Some(range) = claim(&cursor, DEVICES, CHUNK) {
                    assert!(range.start < range.end, "empty claim {range:?}");
                    assert!(range.end <= DEVICES, "out-of-bounds claim {range:?}");
                    claimed.push(range);
                }
                claimed
            })
        })
        .collect();
    let mut all: Vec<_> = workers
        .into_iter()
        .flat_map(|w| w.join().expect("worker must not panic"))
        .collect();
    all.sort_by_key(|r| r.start);
    // Exact tiling: starts at 0, each claim begins where the previous ended,
    // ends at DEVICES. Any overlap or gap breaks the chain.
    let mut next = 0;
    for range in &all {
        assert_eq!(range.start, next, "gap or overlap at {range:?} in {all:?}");
        next = range.end;
    }
    assert_eq!(next, DEVICES, "devices left unclaimed: {all:?}");
}

/// Claims tile the range in every interleaving, including those with
/// spurious `compare_exchange_weak` failures injected by the checker.
#[test]
fn executor_cursor_claims_tile_the_device_range_exactly() {
    let stats = interleave::explore(&interleave::Options::default(), || {
        two_workers_tile_the_range(claim_chunk);
    })
    .unwrap_or_else(|failure| panic!("{failure}"));
    assert!(stats.complete, "schedule space not exhausted: {stats:?}");
    assert!(
        stats.executions > 1,
        "expected many interleavings: {stats:?}"
    );
}

/// Mutation of `claim_chunk`: the compare-exchange split into a load and a
/// store, so two workers can read the same start and both claim it.
fn torn_claim(cursor: &AtomicU64, count: u64, chunk: u64) -> Option<Range<u64>> {
    // relaxed: deliberately unsound mutation; the checker must catch it.
    let start = cursor.load(Ordering::Relaxed);
    if start >= count {
        return None;
    }
    let end = start.saturating_add(chunk).min(count);
    // relaxed: deliberately unsound mutation, as above.
    cursor.store(end, Ordering::Relaxed);
    Some(start..end)
}

/// Mutation self-test: the torn claim must make the checker find a double
/// claim, and the failing schedule must replay to the same assertion.
#[test]
fn torn_cursor_claim_mutation_is_caught_and_replays() {
    let body = || two_workers_tile_the_range(torn_claim);
    let failure = interleave::explore(&interleave::Options::default(), body)
        .expect_err("the checker must catch the torn claim");
    assert!(
        failure.message.contains("gap or overlap"),
        "wrong failure: {failure}"
    );
    // The printed schedule replays deterministically to the same bug.
    let replayed = interleave::replay(&failure.schedule, body)
        .expect_err("replaying the failing schedule must fail again");
    assert_eq!(replayed.message, failure.message);
}
