//! Ablation benches for the Private-PGM substrate:
//! mirror-descent iteration count vs wall time, junction-tree sampling
//! throughput as the tree widens, and before/after kernel benches pitting
//! the stride-based calibration and the batched sampler against their
//! retained naive oracles (`perfgrid` records the same comparisons to
//! `BENCH_pgm.json` and `BENCH_sampling.json`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use synrd_data::{BenchmarkDataset, Marginal};
use synrd_pgm::{
    calibrate_into, calibrate_naive, estimate, CalibratedTree, CalibrationWorkspace,
    EstimationOptions, NaiveSampler, NoisyMeasurement, TreeSampler,
};

/// Chain measurements over the Saw dataset (one per adjacent pair).
fn chain_measurements() -> (Vec<usize>, Vec<NoisyMeasurement>) {
    let data = BenchmarkDataset::Saw2018.generate(5_000, 3);
    let shape = data.domain().shape();
    let mut ms = Vec::new();
    for a in 0..data.n_attrs() {
        let m = Marginal::count(&data, &[a]).unwrap();
        ms.push(NoisyMeasurement {
            attrs: vec![a],
            values: m.counts().to_vec(),
            sigma: 5.0,
        });
    }
    for a in 0..data.n_attrs() - 1 {
        let m = Marginal::count(&data, &[a, a + 1]).unwrap();
        ms.push(NoisyMeasurement {
            attrs: vec![a, a + 1],
            values: m.counts().to_vec(),
            sigma: 5.0,
        });
    }
    (shape, ms)
}

fn estimation_iterations(c: &mut Criterion) {
    let (shape, ms) = chain_measurements();
    let mut group = c.benchmark_group("pgm_mirror_descent");
    group.sample_size(10);
    for iters in [10usize, 50, 150] {
        group.bench_with_input(BenchmarkId::from_parameter(iters), &iters, |b, &iters| {
            b.iter(|| {
                estimate(
                    &shape,
                    &ms,
                    EstimationOptions {
                        iterations: iters,
                        fit_threads: 1,
                    },
                )
                .expect("estimate")
            });
        });
    }
    group.finish();
}

fn sampling_throughput(c: &mut Criterion) {
    let (shape, ms) = chain_measurements();
    let model = estimate(&shape, &ms, EstimationOptions::default()).expect("estimate");
    let sampler = TreeSampler::new(&model).expect("sampler");
    let mut group = c.benchmark_group("pgm_sampling");
    group.sample_size(10);
    for rows in [1_000usize, 10_000] {
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |b, &rows| {
            let mut rng = StdRng::seed_from_u64(11);
            b.iter(|| sampler.sample_columns(rows, &mut rng));
        });
    }
    group.finish();
}

/// Before/after row-generation bench: the batched clique-major engine vs
/// the retained per-row oracle, on the same fitted model (`perfgrid`
/// records the same comparison to `BENCH_sampling.json`).
fn sampling_kernels(c: &mut Criterion) {
    let (shape, ms) = chain_measurements();
    let model = estimate(&shape, &ms, EstimationOptions::default()).expect("estimate");
    let sampler = TreeSampler::new(&model).expect("sampler");
    let oracle = NaiveSampler::new(&model).expect("sampler");
    let mut group = c.benchmark_group("pgm_sampling_kernel");
    group.sample_size(10);
    let rows = 100_000usize;
    group.bench_with_input(BenchmarkId::new("batched", rows), &(), |b, ()| {
        b.iter(|| sampler.sample_columns(rows, &mut StdRng::seed_from_u64(11)));
    });
    group.bench_with_input(BenchmarkId::new("naive", rows), &(), |b, ()| {
        b.iter(|| oracle.sample_columns(rows, &mut StdRng::seed_from_u64(11)));
    });
    group.finish();
}

/// Before/after kernel bench: one full calibration through the stride
/// kernels (workspace reused across iterations, as the mirror-descent loop
/// does) vs the naive expand-then-zip reference. Problems come from
/// [`synrd_bench::pgm_chain_problem`] — the same grid `perfgrid` records
/// to `BENCH_pgm.json`.
fn calibrate_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("pgm_calibrate_kernel");
    group.sample_size(20);
    for (d, card) in [(8usize, 4usize), (6, 10)] {
        let (tree, pots) = synrd_bench::pgm_chain_problem(d, card);
        let mut ws = CalibrationWorkspace::new(&tree).expect("workspace");
        let mut out = CalibratedTree::default();
        group.bench_with_input(
            BenchmarkId::new("stride", format!("d{d}c{card}")),
            &(),
            |b, ()| {
                b.iter(|| {
                    calibrate_into(&pots, &mut ws, &mut out).expect("calibrate");
                    out.beliefs[0].log_values()[0]
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("naive", format!("d{d}c{card}")),
            &(),
            |b, ()| {
                b.iter(|| calibrate_naive(&tree, &pots).expect("calibrate"));
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    estimation_iterations,
    sampling_throughput,
    sampling_kernels,
    calibrate_kernels
);
criterion_main!(benches);
