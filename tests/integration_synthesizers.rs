//! Cross-crate synthesizer integration: every synthesizer must round-trip
//! on real benchmark data, and the PGM-based ones must preserve the low-
//! dimensional structure the findings consume.

use synrd_data::{BenchmarkDataset, Marginal};
use synrd_synth::{SynthError, SynthKind};

const EPS_E: f64 = std::f64::consts::E;

#[test]
fn every_synthesizer_handles_saw_data() {
    // Saw et al. is the smallest-domain paper: everything must fit it.
    let data = BenchmarkDataset::Saw2018.generate(3_000, 42);
    for kind in SynthKind::ALL {
        let mut synth = kind.build();
        synth
            .fit(&data, kind.native_privacy(EPS_E, data.n_rows()), 1)
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        let sample = synth.sample(3_000, 2).unwrap();
        assert_eq!(sample.domain(), data.domain());
        // 1-way marginal of stem aspiration must be in the right ballpark.
        let attr = data.domain().index_of("stem_asp_9").unwrap();
        let real_p = data.mean_of(attr).unwrap();
        let synth_p = sample.mean_of(attr).unwrap();
        assert!(
            (real_p - synth_p).abs() < 0.12,
            "{}: aspiration rate {synth_p:.3} vs real {real_p:.3}",
            kind.name()
        );
    }
}

#[test]
fn pgm_methods_crosshatch_jeong() {
    // Jeong et al.'s 1e43 domain must be infeasible for PGM-based methods
    // (Figure 3's crosshatch) while GEM and PATECTGAN fit it.
    let data = BenchmarkDataset::Jeong2021.generate(1_000, 7);
    for kind in SynthKind::ALL {
        let mut synth = kind.build();
        let result = synth.fit(&data, kind.native_privacy(EPS_E, data.n_rows()), 3);
        let pgm_based = matches!(
            kind,
            SynthKind::Aim | SynthKind::PrivMrf | SynthKind::Mst | SynthKind::PrivBayes
        );
        if pgm_based {
            assert!(
                matches!(result, Err(SynthError::Infeasible { .. })),
                "{} should refuse Jeong",
                kind.name()
            );
        } else {
            result.unwrap_or_else(|e| panic!("{} should fit Jeong: {e}", kind.name()));
            let sample = synth.sample(500, 5).unwrap();
            assert_eq!(sample.n_rows(), 500);
        }
    }
}

#[test]
fn mst_preserves_pairwise_structure_on_fruiht() {
    let data = BenchmarkDataset::Fruiht2018.generate(4_173, 11);
    let mut synth = SynthKind::Mst.build();
    synth
        .fit(
            &data,
            SynthKind::Mst.native_privacy(EPS_E, data.n_rows()),
            5,
        )
        .unwrap();
    let sample = synth.sample(data.n_rows(), 7).unwrap();
    // mentor × edu_attain: synthetic must keep the mentorship gap direction.
    let edu = data.domain().index_of("edu_attain").unwrap();
    let mentor = data.domain().index_of("mentor").unwrap();
    let gap = |ds: &synrd_data::Dataset| {
        let m = ds.filter_rows(|r| r.get(mentor) == 1).mean_of(edu).unwrap();
        let n = ds.filter_rows(|r| r.get(mentor) == 0).mean_of(edu).unwrap();
        m - n
    };
    assert!(gap(&data) > 0.5);
    assert!(gap(&sample) > 0.0, "synthetic gap = {:.3}", gap(&sample));
}

#[test]
fn epsilon_scales_noise_for_marginal_methods() {
    // At tiny ε the 1-way marginal error of MST must exceed the error at
    // large ε (sanity of the budget plumbing).
    let data = BenchmarkDataset::Saw2018.generate(5_000, 13);
    let err_at = |eps: f64| {
        let mut synth = SynthKind::Mst.build();
        synth
            .fit(&data, SynthKind::Mst.native_privacy(eps, data.n_rows()), 17)
            .unwrap();
        let sample = synth.sample(data.n_rows(), 19).unwrap();
        let real = Marginal::count(&data, &[0, 1]).unwrap();
        let fake = Marginal::count(&sample, &[0, 1]).unwrap();
        real.l1_distance(&fake).unwrap()
    };
    let low = err_at((-3.0f64).exp());
    let high = err_at((2.0f64).exp());
    assert!(
        low > high,
        "L1 at eps=e^-3 ({low:.4}) should exceed L1 at eps=e^2 ({high:.4})"
    );
}

#[test]
fn synthesizers_are_reusable_after_refit() {
    let a = BenchmarkDataset::Saw2018.generate(2_000, 1);
    let b = BenchmarkDataset::Pierce2019.generate(1_585, 1);
    let mut synth = SynthKind::PrivBayes.build();
    synth
        .fit(&a, SynthKind::PrivBayes.native_privacy(1.0, a.n_rows()), 3)
        .unwrap();
    let sample_a = synth.sample(100, 4).unwrap();
    assert_eq!(sample_a.domain(), a.domain());
    // Refit on a different domain: the old model must be replaced.
    synth
        .fit(&b, SynthKind::PrivBayes.native_privacy(1.0, b.n_rows()), 3)
        .unwrap();
    let sample_b = synth.sample(100, 4).unwrap();
    assert_eq!(sample_b.domain(), b.domain());
}
