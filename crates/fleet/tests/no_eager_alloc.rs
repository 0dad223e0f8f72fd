//! The streaming executor never materializes a device's session: a run over
//! devices that each perform nine activities peaks within one
//! `LabeledWindow` of a run over devices that perform one, so a device's
//! footprint does not grow with its session. Checked with the counting
//! allocator of `tests/run_memory`, with and without a subject pool.

mod run_memory;

use ppg_data::LabeledWindow;

#[test]
fn fleet_execution_never_collects_a_window_vector() {
    for pool in [0, 4] {
        let [nine, one] = [9, 1].map(|activities| {
            let simulation = run_memory::simulation(activities, pool);
            // Warm-up: registers the telemetry series, caches the thread's
            // handles and fills the pool slots, all of which outlive a run.
            run_memory::run(&simulation, 0..16, None);
            simulation
        });

        let (_, long) = run_memory::run(&nine, 0..16, None);
        let (_, short) = run_memory::run(&one, 0..16, None);
        assert!(
            long.abs_diff(short) < std::mem::size_of::<LabeledWindow>(),
            "pool {pool}: nine-activity devices peaked at {long} bytes, \
             one-activity devices at {short}"
        );
    }
}
