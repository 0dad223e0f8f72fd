//! Criterion benchmarks of the HR predictors and the activity classifier:
//! what one prediction costs on the host, and the float-vs-int8 inference gap.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

use chris_bench::bench_windows;
use ppg_models::adaptive_threshold::AdaptiveThreshold;
use ppg_models::random_forest::{RandomForest, RandomForestConfig};
use ppg_models::spectral::SpectralPeak;
use ppg_models::surrogate::{CalibratedEstimator, NoiseTape};
use ppg_models::timeppg::{build_network, window_to_tensor, TimePpgVariant};
use ppg_models::traits::{ActivityClassifier, HrEstimator};
use ppg_models::zoo::ModelKind;
use tinydl::quant::QuantizedNetwork;

fn bench_models(c: &mut Criterion) {
    let windows = bench_windows();
    let window = windows[windows.len() / 2].clone();

    c.bench_function("models/adaptive_threshold_predict", |b| {
        b.iter_batched(
            AdaptiveThreshold::new,
            |mut at| at.predict(black_box(&window)).unwrap(),
            BatchSize::SmallInput,
        )
    });

    // The calibrated surrogate over the bench session, from its first
    // window, per prediction: drawing each error live, and replaying a
    // noise tape as long as the session, as a fleet pool slot's runs do.
    let mut group = c.benchmark_group("models/calibrated_predict");
    group.throughput(Throughput::Elements(windows.len() as u64));
    let (kind, seed) = (ModelKind::TimePpgSmall, 42);
    let tape = NoiseTape::record(CalibratedEstimator::rng_seed(kind, seed), windows.len());
    for (name, tape) in [("live", NoiseTape::empty(tape.rng_seed())), ("taped", tape)] {
        let mut estimator = CalibratedEstimator::with_tape(kind, seed, tape);
        group.bench_function(name, |b| {
            b.iter(|| {
                estimator.reset();
                for window in &windows {
                    black_box(estimator.predict(black_box(window)).unwrap());
                }
            })
        });
    }
    group.finish();

    c.bench_function("models/spectral_peak_predict", |b| {
        b.iter_batched(
            SpectralPeak::new,
            |mut sp| sp.predict(black_box(&window)).unwrap(),
            BatchSize::SmallInput,
        )
    });

    let mut small = build_network(TimePpgVariant::Small).expect("small network builds");
    let input = window_to_tensor(&window).expect("window converts");
    c.bench_function("models/timeppg_small_forward_f32", |b| {
        b.iter(|| small.forward(black_box(&input)).unwrap())
    });

    let quant_small = QuantizedNetwork::from_sequential(&small).expect("quantizes");
    c.bench_function("models/timeppg_small_forward_int8", |b| {
        b.iter(|| quant_small.forward(black_box(&input)).unwrap())
    });

    let rf = RandomForest::train(&windows, RandomForestConfig::default()).expect("rf trains");
    c.bench_function("models/random_forest_classify", |b| {
        b.iter(|| rf.classify(black_box(&window)).unwrap())
    });

    c.bench_function("models/random_forest_train_8x5", |b| {
        b.iter(|| RandomForest::train(black_box(&windows), RandomForestConfig::default()).unwrap())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_models
}
criterion_main!(benches);
