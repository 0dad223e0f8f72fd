//! Overhead of the telemetry registry on the fleet hot path.
//!
//! The instrumentation (nothing per window; per device run, one registry
//! resolution, three counter adds and one runtime stage timer) must stay in
//! the noise of the simulation itself — the README documents a <2%
//! wall-clock target. Executor workers record into the registry active when
//! the run starts, so the caller's registry below is the one every
//! instrument writes to. This bench runs the same fleet under three
//! registries:
//!
//! * `enabled`   — a live [`telemetry::Registry`], the production path,
//! * `disabled`  — [`telemetry::Registry::disabled`], whose instruments are
//!   no-ops: the uninstrumented baseline,
//! * `global`    — no explicit scope, so recording lands on the process
//!   global registry (the default for library users).
//!
//! Reports are asserted identical across all three before timing starts.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use fleet::{run_fleet_range, ExecutorOptions, FleetSimulation, ScenarioMix};

const DEVICES: u64 = 16;

fn options() -> ExecutorOptions {
    ExecutorOptions {
        // Single-threaded keeps the comparison about instrument cost, not
        // scheduling noise.
        threads: 1,
        ..ExecutorOptions::default()
    }
}

fn run(simulation: &FleetSimulation) -> Vec<fleet::DeviceReport> {
    run_fleet_range(simulation, 0..DEVICES, &options(), None).unwrap()
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    let simulation = FleetSimulation::new(42, ScenarioMix::balanced()).expect("profiling succeeds");
    let total_windows: u64 = simulation
        .generator()
        .scenarios(DEVICES)
        .map(|s| s.window_count().expect("valid scenario") as u64)
        .sum();

    let live = telemetry::Registry::new();
    let dead = telemetry::Registry::disabled();

    // Telemetry must be invisible in the output: byte-identical reports
    // whether instruments are live, disabled, or global.
    let baseline = run(&simulation);
    {
        let _scope = telemetry::scoped(&live);
        assert_eq!(baseline, run(&simulation));
    }
    {
        let _scope = telemetry::scoped(&dead);
        assert_eq!(baseline, run(&simulation));
    }

    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(10);
    group.throughput(Throughput::Elements(total_windows));
    group.bench_function("enabled_registry", |b| {
        let _scope = telemetry::scoped(&live);
        b.iter(|| black_box(run(black_box(&simulation))))
    });
    group.bench_function("disabled_registry", |b| {
        let _scope = telemetry::scoped(&dead);
        b.iter(|| black_box(run(black_box(&simulation))))
    });
    group.bench_function("global_registry", |b| {
        b.iter(|| black_box(run(black_box(&simulation))))
    });
    group.finish();
}

criterion_group!(benches, bench_telemetry_overhead);
criterion_main!(benches);
