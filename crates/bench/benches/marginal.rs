//! Before/after benches for the marginal-counting engine: the naive per-row
//! counter vs the engine kernel on 1-way and 2-way tables, and the fused
//! multi-marginal sweep vs a per-set loop, all at ≥100k rows (`perfgrid`
//! records the same comparisons to `BENCH_marginal.json`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use synrd_data::{Marginal, MarginalEngine};

const ROWS: usize = 120_000;
const ATTRS: usize = 12;

fn one_way_counting(c: &mut Criterion) {
    let data = synrd_bench::marginal_bench_dataset(ROWS, &synrd_bench::marginal_bench_shape(ATTRS));
    let mut group = c.benchmark_group("marginal_one_way");
    group.sample_size(20);
    group.bench_with_input(BenchmarkId::new("engine", ROWS), &(), |b, ()| {
        b.iter(|| black_box(Marginal::count(&data, &[3]).expect("count").total()));
    });
    group.bench_with_input(BenchmarkId::new("naive", ROWS), &(), |b, ()| {
        b.iter(|| black_box(Marginal::count_naive(&data, &[3]).expect("count").total()));
    });
    group.finish();
}

fn two_way_counting(c: &mut Criterion) {
    let data = synrd_bench::marginal_bench_dataset(ROWS, &synrd_bench::marginal_bench_shape(ATTRS));
    let mut group = c.benchmark_group("marginal_two_way");
    group.sample_size(20);
    group.bench_with_input(BenchmarkId::new("engine", ROWS), &(), |b, ()| {
        b.iter(|| black_box(Marginal::count(&data, &[2, 5]).expect("count").total()));
    });
    group.bench_with_input(BenchmarkId::new("naive", ROWS), &(), |b, ()| {
        b.iter(|| {
            black_box(
                Marginal::count_naive(&data, &[2, 5])
                    .expect("count")
                    .total(),
            )
        });
    });
    group.finish();
}

fn batched_multi_marginal(c: &mut Criterion) {
    let data = synrd_bench::marginal_bench_dataset(ROWS, &synrd_bench::marginal_bench_shape(ATTRS));
    let pairs: Vec<Vec<usize>> = (0..ATTRS)
        .flat_map(|a| ((a + 1)..ATTRS).map(move |b| vec![a, b]))
        .collect();
    let mut group = c.benchmark_group("marginal_all_pairs_batch");
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::new("engine_fused", pairs.len()),
        &(),
        |b, ()| {
            b.iter(|| {
                let mut engine = MarginalEngine::new(&data);
                let batch = engine.count_many(&pairs).expect("count");
                black_box(batch.iter().map(Marginal::total).sum::<f64>())
            });
        },
    );
    group.bench_with_input(BenchmarkId::new("naive_loop", pairs.len()), &(), |b, ()| {
        b.iter(|| {
            let mut sink = 0.0;
            for attrs in &pairs {
                sink += Marginal::count_naive(&data, attrs).expect("count").total();
            }
            black_box(sink)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    one_way_counting,
    two_way_counting,
    batched_multi_marginal
);
criterion_main!(benches);
