//! §7 "Computational resources": relative fit/sample cost of the six
//! synthesizers. The paper reports PrivMRF slowest (GPU-bound), PrivBayes
//! second; GEM/PATECTGAN the only methods tractable on wide domains. These
//! benches document our implementations' cost ordering.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use synrd_data::BenchmarkDataset;
use synrd_synth::SynthKind;

fn fit_cost(c: &mut Criterion) {
    let data = BenchmarkDataset::Saw2018.generate(2_000, 5);
    let eps = std::f64::consts::E;
    let mut group = c.benchmark_group("fit_saw2018_n2000");
    group.sample_size(10);
    for kind in SynthKind::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.name()),
            &kind,
            |b, &kind| {
                b.iter(|| {
                    let mut synth = kind.build();
                    synth
                        .fit(&data, kind.native_privacy(eps, data.n_rows()), 7)
                        .expect("fit");
                });
            },
        );
    }
    group.finish();
}

fn sample_cost(c: &mut Criterion) {
    let data = BenchmarkDataset::Saw2018.generate(2_000, 5);
    let eps = std::f64::consts::E;
    let mut group = c.benchmark_group("sample_10k_rows");
    group.sample_size(10);
    for kind in SynthKind::ALL {
        let mut synth = kind.build();
        synth
            .fit(&data, kind.native_privacy(eps, data.n_rows()), 7)
            .expect("fit");
        group.bench_with_input(BenchmarkId::from_parameter(kind.name()), &kind, |b, _| {
            b.iter(|| synth.sample(10_000, 3).expect("sample"));
        });
    }
    group.finish();

    // The shape serve time goes to: lee2021's PATECTGAN, whose generator
    // ends in an 860-wide one-hot layer, asked for a small and a large
    // request.
    let data = BenchmarkDataset::Lee2021.generate(2_500, 5);
    let kind = SynthKind::PateCtgan;
    let mut synth = kind.build();
    synth
        .fit(&data, kind.native_privacy(eps, data.n_rows()), 7)
        .expect("fit");
    let mut group = c.benchmark_group("sample_lee2021_patectgan");
    group.sample_size(10);
    for rows in [1_000usize, 10_000] {
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |b, &rows| {
            b.iter(|| synth.sample(rows, 3).expect("sample"));
        });
    }
    group.finish();
}

fn wide_domain_fit(c: &mut Criterion) {
    // Only GEM and PATECTGAN can fit Jeong's 1e43 domain; time them.
    let data = BenchmarkDataset::Jeong2021.generate(1_500, 5);
    let eps = std::f64::consts::E;
    let mut group = c.benchmark_group("fit_jeong_n1500_wide_domain");
    group.sample_size(10);
    for kind in [SynthKind::Gem, SynthKind::PateCtgan] {
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.name()),
            &kind,
            |b, &kind| {
                b.iter(|| {
                    let mut synth = kind.build();
                    synth
                        .fit(&data, kind.native_privacy(eps, data.n_rows()), 7)
                        .expect("fit");
                });
            },
        );
    }
    group.finish();
}

fn gem_fit(c: &mut Criterion) {
    // Where a grid's GEM time goes: quick-scale iverson2021 (27 attributes,
    // eight of them 18-valued), whose pair measurements make the trainer's
    // steps the cost. saw2018 above is the small case and jeong2021 the
    // wide one (57 attributes).
    let data = BenchmarkDataset::Iverson2021.generate(1_762, 5);
    let eps = std::f64::consts::E;
    let kind = SynthKind::Gem;
    let mut group = c.benchmark_group("fit_iverson_n1762");
    group.sample_size(10);
    group.bench_function(kind.name(), |b| {
        b.iter(|| {
            let mut synth = kind.build();
            synth
                .fit(&data, kind.native_privacy(eps, data.n_rows()), 7)
                .expect("fit");
        });
    });
    group.finish();
}

criterion_group!(benches, fit_cost, sample_cost, wide_domain_fit, gem_fit);
criterion_main!(benches);
