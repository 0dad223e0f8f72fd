//! Criterion benchmarks of the CHRIS machinery itself: configuration
//! profiling, decision-engine selection and the full runtime loop — the code
//! that would execute on the smartwatch between two predictions.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use chris_bench::{bench_windows, build_engine};
use chris_core::config::{Configuration, DifficultyThreshold};
use chris_core::prelude::*;
use hw_sim::ble::ConnectionSchedule;
use hw_sim::units::Energy;

fn bench_runtime(c: &mut Criterion) {
    let windows = bench_windows();
    let zoo = ModelZoo::paper_setup();
    let profiler = Profiler::new(&zoo);
    let engine = build_engine(&zoo, &windows);

    let config = Configuration::new(
        ModelKind::AdaptiveThreshold,
        ModelKind::TimePpgBig,
        DifficultyThreshold::new(6).unwrap(),
        ExecutionTarget::Hybrid,
    )
    .unwrap();
    c.bench_function("chris/profile_one_configuration", |b| {
        b.iter(|| {
            profiler
                .profile(
                    black_box(config),
                    black_box(&windows),
                    ProfilingOptions::default(),
                )
                .unwrap()
        })
    });

    c.bench_function("chris/profile_all_60_configurations", |b| {
        b.iter(|| {
            profiler
                .profile_all(black_box(&windows), ProfilingOptions::default())
                .unwrap()
        })
    });

    c.bench_function("chris/decision_engine_select", |b| {
        b.iter(|| {
            engine
                .select(
                    &UserConstraint::MaxMae(black_box(5.6)),
                    ConnectionStatus::Connected,
                )
                .unwrap()
        })
    });

    // One run's decision: a selection per link status, for each kind of
    // constraint.
    let mut group = c.benchmark_group("chris/decision_engine_plan");
    for (kind, constraint) in [
        ("max_mae", UserConstraint::MaxMae(5.6)),
        (
            "max_energy",
            UserConstraint::MaxEnergy(Energy::from_millijoules(0.45)),
        ),
    ] {
        group.bench_function(kind, |b| {
            b.iter(|| engine.plan(black_box(&constraint)).unwrap())
        });
    }
    group.finish();

    c.bench_function("chris/pareto_front_extraction", |b| {
        b.iter(|| engine.pareto(ConnectionStatus::Connected))
    });

    c.bench_function("chris/runtime_full_run", |b| {
        b.iter(|| {
            let mut runtime =
                ChrisRuntime::new(zoo.clone(), engine.clone(), RuntimeOptions::default());
            runtime
                .run(
                    black_box(&windows),
                    &UserConstraint::MaxMae(5.6),
                    &ConnectionSchedule::AlwaysConnected,
                )
                .unwrap()
        })
    });

    c.bench_function("chris/runtime_per_window_cost", |b| {
        let mut runtime = ChrisRuntime::new(zoo.clone(), engine.clone(), RuntimeOptions::default());
        // One window at a time approximates the on-line per-prediction overhead.
        let single = vec![windows[0].clone()];
        b.iter(|| {
            runtime
                .run(
                    black_box(&single),
                    &UserConstraint::MaxMae(5.6),
                    &ConnectionSchedule::AlwaysConnected,
                )
                .unwrap()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_runtime
}
criterion_main!(benches);
