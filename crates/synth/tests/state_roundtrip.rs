//! Fitted-state export/restore must be lossless for the serve path: a
//! synthesizer restored from `fitted_state()` has to replay every draw
//! bit-for-bit against the instance that did the fitting.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use synrd_data::{Attribute, Dataset, Domain};
use synrd_synth::{FittedState, SynthError, SynthKind};

fn correlated_data(n: usize) -> Dataset {
    let domain = Domain::new(vec![
        Attribute::binary("x"),
        Attribute::binary("y"),
        Attribute::ordinal("z", 4),
    ]);
    let mut rng = StdRng::seed_from_u64(9);
    let mut ds = Dataset::with_capacity(domain, n);
    for _ in 0..n {
        let x = u32::from(rng.gen::<f64>() < 0.3);
        let y = if rng.gen::<f64>() < 0.85 { x } else { 1 - x };
        let z = if x == 1 {
            rng.gen_range(2..4)
        } else {
            rng.gen_range(0..2)
        };
        ds.push_row(&[x, y, z]).unwrap();
    }
    ds
}

#[test]
fn every_synthesizer_round_trips_its_fitted_state() {
    let data = correlated_data(2_000);
    for kind in SynthKind::ALL {
        let mut fitted = kind.build();
        let privacy = kind.native_privacy(std::f64::consts::E, data.n_rows());
        fitted
            .fit(&data, privacy, 17)
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        let state = fitted
            .fitted_state()
            .unwrap_or_else(|| panic!("{}: no state after fit", kind.name()));
        assert_eq!(state.domain(), data.domain(), "{}", kind.name());

        let mut restored = kind.build();
        restored
            .restore_state(state)
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        for seed in [0u64, 1, 5, 99] {
            let a = fitted.sample(700, seed).unwrap();
            let b = restored.sample(700, seed).unwrap();
            assert_eq!(a, b, "{} seed {seed}", kind.name());
        }
    }
}

#[test]
fn unfitted_synthesizers_export_no_state() {
    for kind in SynthKind::ALL {
        assert!(
            kind.build().fitted_state().is_none(),
            "{}: state before fit",
            kind.name()
        );
    }
}

#[test]
fn wrong_variant_restores_are_rejected() {
    let data = correlated_data(1_500);
    // One state of each family.
    let mut gem = SynthKind::Gem.build();
    gem.fit(&data, SynthKind::Gem.native_privacy(1.0, data.n_rows()), 3)
        .unwrap();
    let gem_state = gem.fitted_state().unwrap();
    let mut mst = SynthKind::Mst.build();
    mst.fit(&data, SynthKind::Mst.native_privacy(1.0, data.n_rows()), 3)
        .unwrap();
    let pgm_state = mst.fitted_state().unwrap();

    for (kind, state) in [
        (SynthKind::Mst, gem_state.clone()),
        (SynthKind::Aim, gem_state.clone()),
        (SynthKind::PrivMrf, gem_state.clone()),
        (SynthKind::PrivBayes, pgm_state.clone()),
        (SynthKind::PateCtgan, pgm_state.clone()),
        (SynthKind::Gem, pgm_state),
    ] {
        let err = kind.build().restore_state(state).unwrap_err();
        assert!(
            matches!(err, SynthError::StateMismatch { .. }),
            "{}: {err}",
            kind.name()
        );
    }
}

#[test]
fn inconsistent_states_are_rejected() {
    let data = correlated_data(1_500);

    // GEM with a truncated logits row.
    let mut gem = SynthKind::Gem.build();
    gem.fit(&data, SynthKind::Gem.native_privacy(1.0, data.n_rows()), 3)
        .unwrap();
    let Some(FittedState::Gem { domain, mut model }) = gem.fitted_state() else {
        panic!("gem state");
    };
    model.logits[0][0].pop();
    let err = SynthKind::Gem
        .build()
        .restore_state(FittedState::Gem { domain, model })
        .unwrap_err();
    assert!(matches!(err, SynthError::StateMismatch { .. }), "{err}");

    // PrivBayes with a child sampled before its parent.
    let mut pb = SynthKind::PrivBayes.build();
    pb.fit(
        &data,
        SynthKind::PrivBayes.native_privacy(1.0, data.n_rows()),
        3,
    )
    .unwrap();
    let Some(FittedState::PrivBayes { domain, mut nodes }) = pb.fitted_state() else {
        panic!("privbayes state");
    };
    nodes.reverse();
    let reversed_has_parents = nodes.iter().any(|n| !n.parents.is_empty());
    if reversed_has_parents {
        let err = SynthKind::PrivBayes
            .build()
            .restore_state(FittedState::PrivBayes { domain, nodes })
            .unwrap_err();
        assert!(matches!(err, SynthError::StateMismatch { .. }), "{err}");
    }

    // PGM state whose domain disagrees with the junction tree's shape.
    let mut mst = SynthKind::Mst.build();
    mst.fit(&data, SynthKind::Mst.native_privacy(1.0, data.n_rows()), 3)
        .unwrap();
    let Some(FittedState::Pgm { model, .. }) = mst.fitted_state() else {
        panic!("mst state");
    };
    let narrow = Domain::new(vec![Attribute::binary("x"), Attribute::binary("y")]);
    let err = SynthKind::Mst
        .build()
        .restore_state(FittedState::Pgm {
            domain: narrow,
            model,
        })
        .unwrap_err();
    assert!(matches!(err, SynthError::StateMismatch { .. }), "{err}");
}
