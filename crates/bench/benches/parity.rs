//! End-to-end parity evaluation cost: one (synthesizer, ε) cell on the
//! smallest paper, and the finding-evaluation loop alone — the quantities
//! that dominate the Figure 3 grid's wall time. Finding evaluation is timed
//! on a saw2018-sized case (15 regression findings) and a jeong2021-sized
//! one (8 findings over a logistic regression and a random forest), with
//! the forest fit alone beside them.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;
use synrd::benchmark::{run_paper, BenchmarkConfig};
use synrd::publication_by_id;
use synrd_data::Dataset;
use synrd_ml::{ForestOptions, RandomForest, TreeOptions};
use synrd_synth::SynthKind;

fn one_cell(c: &mut Criterion) {
    let mut group = c.benchmark_group("parity_cell_fruiht");
    group.sample_size(10);
    group.bench_function("mst_1eps_1seed_2draws", |b| {
        let paper = publication_by_id("fruiht2018").expect("registered");
        let config = BenchmarkConfig {
            epsilons: vec![std::f64::consts::E],
            seeds: 1,
            bootstraps: 2,
            data_scale: 0.25,
            min_rows: 1_000,
            data_seed: 7,
            threads: 1,
            fit_timeout: Some(Duration::from_secs(600)),
            synthesizers: vec![SynthKind::Mst],
        };
        b.iter(|| run_paper(paper.as_ref(), &config).expect("run"));
    });
    group.finish();
}

fn finding_evaluation(c: &mut Criterion) {
    let paper = publication_by_id("saw2018").expect("registered");
    let data = paper.generate(5_000, 3);
    let findings = paper.findings();
    c.bench_function("evaluate_15_saw_findings", |b| {
        b.iter(|| {
            for f in &findings {
                f.evaluate(&data).expect("evaluate");
            }
        });
    });

    // jeong2021's findings memoize their pipeline on the last dataset, so
    // each iteration takes the next of several bootstrap resamples drawn
    // before timing: every iteration trains both models afresh, as every
    // synthetic draw does.
    let paper = publication_by_id("jeong2021").expect("registered");
    let data = paper.generate(2_500, 3);
    let findings = paper.findings();
    let mut rng = StdRng::seed_from_u64(5);
    let resamples: Vec<Dataset> = (0..4)
        .map(|_| data.bootstrap_sample(data.n_rows(), &mut rng))
        .collect();
    let mut next = 0;
    c.bench_function("evaluate_8_jeong_findings", |b| {
        b.iter(|| {
            let draw = &resamples[next % resamples.len()];
            next += 1;
            for f in &findings {
                f.evaluate(draw).expect("evaluate");
            }
        });
    });
}

/// The forest jeong2021's pipeline trains at quick scale: 1,750 training
/// rows (70% of 2,500) by 55 features (every attribute but the label and
/// the group), 20 trees of depth 8 with a minimum split of 10.
fn forest_fit(c: &mut Criterion) {
    let data = publication_by_id("jeong2021")
        .expect("registered")
        .generate(2_500, 3);
    let label = data.domain().index_of("top50").expect("label");
    let group = data.domain().index_of("race_group").expect("group");
    let columns = data.to_columns();
    let rows = 1_750;
    let x: Vec<Vec<f64>> = (0..rows)
        .map(|r| {
            (0..columns.len())
                .filter(|&a| a != label && a != group)
                .map(|a| f64::from(columns[a][r]))
                .collect()
        })
        .collect();
    let y: Vec<f64> = columns[label][..rows]
        .iter()
        .map(|&c| f64::from(c))
        .collect();
    let options = ForestOptions {
        n_trees: 20,
        tree: TreeOptions {
            max_depth: 8,
            min_samples_split: 10,
            max_features: None,
        },
    };
    c.bench_function("fit_forest_jeong_shape", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(0x4a31_2021);
            RandomForest::fit(&x, &y, options, &mut rng).expect("fit")
        });
    });
}

criterion_group!(benches, one_cell, finding_evaluation, forest_fit);
criterion_main!(benches);
