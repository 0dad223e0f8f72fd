//! A runtime's memory does not grow with the number of windows it runs.
//!
//! The fleet streams every device one window at a time, so a device's
//! footprint must be O(1 window). This binary installs a counting global
//! allocator and checks that `ChrisRuntime::run` makes exactly the same
//! allocations, and reaches exactly the same peak of live bytes, over N
//! windows as over the same windows cycled to 8N. On a warm thread (its
//! telemetry handles cached), `ChrisRuntime::run_totals`, the fleet's path,
//! allocates nothing at all, and `run` allocates only its report's maps.
//!
//! It is its own test binary with a single test, so no other test thread
//! allocates while a run is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use chris_core::prelude::*;
use hw_sim::ble::ConnectionSchedule;
use ppg_data::{DatasetBuilder, LabeledWindow, Synthesis};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

impl Counting {
    fn grow(size: usize) {
        // relaxed: plain event counters; the only reader is the measuring
        // thread after the run it measures has returned.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // relaxed: same single-measuring-thread counters as above.
        let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        // relaxed: same single-measuring-thread counters as above.
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    fn shrink(size: usize) {
        // relaxed: same single-measuring-thread counters as above.
        LIVE.fetch_sub(size, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments;
// the counters never affect the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::grow(layout.size());
        // SAFETY: forwarded unchanged from the caller.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::shrink(layout.size());
        // SAFETY: forwarded unchanged from the caller.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::shrink(layout.size());
        Self::grow(new_size);
        // SAFETY: forwarded unchanged from the caller.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation count and peak live bytes above the starting level, of one
/// `run` call.
#[derive(Debug, PartialEq, Eq)]
struct Footprint {
    allocations: usize,
    peak_bytes: usize,
}

/// The footprint of `call`, which returns the number of windows it ran;
/// asserts that it ran all of `windows`.
fn measure(windows: &[LabeledWindow], call: impl FnOnce(&[LabeledWindow]) -> usize) -> Footprint {
    // relaxed: this thread is the only one allocating during the test.
    let base = LIVE.load(Ordering::Relaxed);
    // relaxed: as above.
    PEAK.store(base, Ordering::Relaxed);
    // relaxed: as above.
    ALLOCATIONS.store(0, Ordering::Relaxed);
    let ran = call(windows);
    let footprint = Footprint {
        // relaxed: as above.
        allocations: ALLOCATIONS.load(Ordering::Relaxed),
        // relaxed: as above.
        peak_bytes: PEAK.load(Ordering::Relaxed) - base,
    };
    assert_eq!(ran, windows.len());
    footprint
}

#[test]
fn run_memory_does_not_grow_with_the_window_count() {
    let windows = DatasetBuilder::new()
        .subjects(2)
        .seconds_per_activity(24.0)
        .seed(7)
        .synthesis(Synthesis::LabelsOnly)
        .build()
        .unwrap()
        .windows();
    let cycled: Vec<LabeledWindow> = windows
        .iter()
        .cycle()
        .take(8 * windows.len())
        .cloned()
        .collect();
    let zoo = ModelZoo::paper_setup();
    let engine = DecisionEngine::new(
        Profiler::new(&zoo)
            .profile_all(&windows, ProfilingOptions::default())
            .unwrap(),
    );
    // Both link states, so both selections and every power state are hit.
    let constraint = UserConstraint::MaxMae(5.6);
    let schedule = ConnectionSchedule::DutyCycle { up: 5, down: 2 };
    let mut runtime = ChrisRuntime::new(zoo.clone(), engine.clone(), RuntimeOptions::default());
    // Both measured calls drop their result inside the measured window, so
    // every byte they allocate is freed again before the next one.
    let mut run = |ws: &[LabeledWindow]| runtime.run(ws, &constraint, &schedule).unwrap().windows;
    // Warm-up: the first run registers the telemetry series and caches the
    // thread's handles, which allocates once per registry and thread.
    measure(&windows, &mut run);

    let short = measure(&windows, &mut run);
    let long = measure(&cycled, &mut run);
    assert_eq!(
        short,
        long,
        "a run over {} windows allocated differently from one over {}",
        windows.len(),
        cycled.len()
    );
    // Only the report's three label-keyed maps and their keys allocate; a
    // warm thread resolves no telemetry series.
    assert!(
        short.allocations <= 24,
        "a warm run made {} allocations",
        short.allocations
    );

    let plan = engine.plan(&constraint).unwrap();
    let mut totals =
        |ws: &[LabeledWindow]| runtime.run_totals(ws, &plan, &schedule).unwrap().windows;
    let none = Footprint {
        allocations: 0,
        peak_bytes: 0,
    };
    assert_eq!(measure(&windows, &mut totals), none);
    assert_eq!(measure(&cycled, &mut totals), none);
}
