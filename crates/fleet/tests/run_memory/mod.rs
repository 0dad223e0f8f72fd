//! Measures the live heap bytes of a fleet run, for the memory-bound tests
//! (`tests/no_eager_alloc.rs` and `tests/scenario_free.rs`).
//!
//! Including this module installs a counting global allocator in the test
//! binary. It counts per thread: a run measured here executes at one thread,
//! which runs the executor inline on the calling thread (the same worker
//! body as every thread count), so other tests of the same binary that
//! allocate concurrently on their own threads do not disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::Range;

use fleet::{DeviceReport, ExecutorOptions, FleetSimulation, ProgressSink, ScenarioMix};

thread_local! {
    /// Bytes this thread allocated minus bytes it freed. Signed, because a
    /// thread may free memory another thread allocated.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The highest `LIVE` since the last [`run`] started.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn add(delta: isize) {
        // `try_with` cannot allocate or panic: both cells are
        // const-initialized and have no destructor.
        let _ = LIVE.try_with(|live| {
            let level = live.get() + delta;
            live.set(level);
            let _ = PEAK.try_with(|peak| peak.set(peak.get().max(level)));
        });
    }
}

fn signed(size: usize) -> isize {
    isize::try_from(size).expect("an allocation fits in isize")
}

// SAFETY: every method forwards to `System` with the caller's arguments;
// the counters never affect the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::add(signed(layout.size()));
        // SAFETY: forwarded unchanged from the caller.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::add(-signed(layout.size()));
        // SAFETY: forwarded unchanged from the caller.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::add(signed(new_size) - signed(layout.size()));
        // SAFETY: forwarded unchanged from the caller.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The calling thread's live heap bytes.
pub fn live() -> isize {
    LIVE.with(Cell::get)
}

/// A balanced mix whose devices each record `activities` activities of
/// exactly 24 s, drawn from a `pool`-slot subject pool.
pub fn simulation(activities: usize, pool: u64) -> FleetSimulation {
    let mix = ScenarioMix {
        seconds_per_activity: (24.0, 24.0),
        activity_count: (activities, activities),
        subject_pool: pool,
        ..ScenarioMix::balanced()
    };
    FleetSimulation::new(42, mix).unwrap()
}

/// Runs `devices` of `simulation` at one thread, returning the reports and
/// how far live bytes peaked above their level at the start.
pub fn run(
    simulation: &FleetSimulation,
    devices: Range<u64>,
    sink: Option<&dyn ProgressSink>,
) -> (Vec<DeviceReport>, usize) {
    let options = ExecutorOptions {
        threads: 1,
        ..ExecutorOptions::default()
    };
    let base = live();
    PEAK.with(|peak| peak.set(base));
    let reports = fleet::run_fleet_range(simulation, devices.clone(), &options, sink).unwrap();
    let peak = PEAK.with(Cell::get) - base;
    assert_eq!(reports.len() as u64, devices.end - devices.start);
    (
        reports,
        usize::try_from(peak).expect("the peak is at or above the start"),
    )
}
