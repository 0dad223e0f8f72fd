//! The streaming executor never materializes a full per-device window
//! vector: every eager collect in `ppg-data` bumps a process-global counter
//! (`ppg_data::stream::metrics`), and a fleet run must leave it untouched.
//!
//! This lives in its own integration binary on purpose — other test
//! binaries legitimately call eager `windows()` helpers concurrently, which
//! would race the counter.

use fleet::{ExecutorOptions, FleetSimulation, ScenarioMix};
use ppg_data::stream::metrics;

#[test]
fn fleet_execution_never_collects_a_window_vector() {
    // Setup (profiling) is allowed to buffer its windows once; measure only
    // the execution phase.
    let simulation = FleetSimulation::new(42, ScenarioMix::balanced()).unwrap();
    let cohort = FleetSimulation::new(42, ScenarioMix::cohort()).unwrap();

    let before = metrics::eager_collects();
    let plain = ExecutorOptions {
        threads: 2,
        ..ExecutorOptions::default()
    };
    let outcome = simulation.run_with_options(8, &plain, None).unwrap();
    assert_eq!(outcome.report.devices, 8);
    assert!(outcome.report.total_windows > 0);
    assert_eq!(
        metrics::eager_collects(),
        before,
        "the streaming executor materialized a full per-device window vector"
    );

    // The profile cache materializes one session per pool slot — a
    // deliberate, pool-bounded memoization that must not register as an
    // eager-collect regression on the executor path, whether the mix has a
    // pool (the slot fill) or not (every device streams directly).
    let options = ExecutorOptions {
        profile_cache: Some(4),
        ..plain
    };
    let cached = simulation.run_with_options(8, &options, None).unwrap();
    assert_eq!(cached.report, outcome.report);
    let pooled = cohort.run_with_options(40, &options, None).unwrap();
    assert_eq!(pooled.report.devices, 40);
    assert_eq!(
        metrics::eager_collects(),
        before,
        "the cached executor path tripped the eager-collect counter"
    );
}
