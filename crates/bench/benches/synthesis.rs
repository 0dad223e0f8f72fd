//! Labels-only window synthesis, and the RNG jump that makes it cheap.
//!
//! Fleet devices synthesize windows labels-only: the heart-rate trajectory
//! runs in full and each subject's xoshiro256++ stream is jumped past the
//! accelerometer and PPG draws. Two groups:
//!
//! * `synthesis/labels_only/{16,24,32}s` — one subject, all nine
//!   activities, at the fleet's segment lengths. The throughput column is
//!   windows per second; ns/window is its inverse.
//! * `synthesis/rng` — `Jump::new` and `StdRng::jump` for a 10,000-word
//!   jump, against stepping the same 10,000 words one `next_u64` at a time.
//!
//! The perfbench traced rows `ppg_data.synth.ns_per_window` and
//! `chris_core.profiling.ms` replay *full* synthesis, so this bench is the
//! per-layer evidence for labels-only changes.
//!
//! ```text
//! cargo bench -p bench --bench synthesis
//! ```

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use ppg_data::{DatasetBuilder, Synthesis, WindowSource};
use rand::rngs::{Jump, StdRng};
use rand::{RngCore, SeedableRng};

const JUMP_WORDS: u64 = 10_000;

fn labels_only(seconds: f32) -> DatasetBuilder {
    DatasetBuilder::new()
        .subjects(1)
        .seconds_per_activity(seconds)
        .seed(42)
        .synthesis(Synthesis::LabelsOnly)
}

fn bench_labels_only(c: &mut Criterion) {
    let mut group = c.benchmark_group("synthesis/labels_only");
    for seconds in [16.0f32, 24.0, 32.0] {
        let windows = labels_only(seconds).window_stream().unwrap().len();
        group.throughput(Throughput::Elements(windows as u64));
        group.bench_function(format!("{seconds}s"), |b| {
            b.iter(|| {
                let mut stream = labels_only(black_box(seconds)).window_stream().unwrap();
                let mut bpm = 0.0f32;
                while let Some(window) = stream.next_window() {
                    bpm += window.unwrap().hr_bpm;
                }
                bpm
            })
        });
    }
    group.finish();
}

fn bench_rng(c: &mut Criterion) {
    let mut group = c.benchmark_group("synthesis/rng");
    let jump = Jump::new(JUMP_WORDS);
    let mut rng = StdRng::seed_from_u64(42);
    group.bench_function("jump_new", |b| b.iter(|| Jump::new(black_box(JUMP_WORDS))));
    group.bench_function("jump_apply", |b| {
        b.iter(|| {
            rng.jump(black_box(&jump));
            rng.next_u64()
        })
    });
    group.bench_function("jump_new_and_apply", |b| {
        b.iter(|| {
            rng.jump(&Jump::new(black_box(JUMP_WORDS)));
            rng.next_u64()
        })
    });
    group.bench_function("step_10000_words", |b| {
        b.iter(|| {
            for _ in 0..black_box(JUMP_WORDS) {
                rng.next_u64();
            }
            rng.next_u64()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_labels_only, bench_rng);
criterion_main!(benches);
