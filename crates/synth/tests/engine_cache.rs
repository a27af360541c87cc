//! Proof that the selection loops stopped rescanning the data: the
//! process-wide `marginal_counts_performed` counter (the data-side mirror of
//! the grid driver's fit counter) bounds the counting passes a fit may make.
//!
//! These tests share one global counter, so they serialize on a mutex —
//! everything else in this binary would otherwise race the deltas.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;
use synrd_data::{marginal_counts_performed, Attribute, Dataset, Domain};
use synrd_dp::Privacy;
use synrd_synth::{Aim, Gem, Mst, Synthesizer};

static COUNTER_LOCK: Mutex<()> = Mutex::new(());

/// A 4-attribute correlated dataset (chain with a weak extra column).
fn data(n: usize) -> Dataset {
    let domain = Domain::new(vec![
        Attribute::binary("a"),
        Attribute::binary("b"),
        Attribute::ordinal("c", 3),
        Attribute::binary("d"),
    ]);
    let mut rng = StdRng::seed_from_u64(11);
    let mut ds = Dataset::with_capacity(domain, n);
    for _ in 0..n {
        let a = u32::from(rng.gen::<f64>() < 0.5);
        let b = if rng.gen::<f64>() < 0.85 { a } else { 1 - a };
        let c = (b + u32::from(rng.gen::<f64>() < 0.3)).min(2);
        let d = u32::from(rng.gen::<f64>() < 0.4);
        ds.push_row(&[a, b, c, d]).unwrap();
    }
    ds
}

#[test]
fn aim_counts_each_candidate_at_most_once_per_fit() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let ds = data(2_000);
    let d = ds.n_attrs();
    // The AIM workload: all attribute pairs. AIM's 12 rounds exceed the 6
    // pairs, so it runs one round per pair and every round re-scores the
    // workload.
    let pairs = d * (d - 1) / 2;

    let before = marginal_counts_performed();
    let mut aim = Aim::default();
    aim.fit(&ds, Privacy::approx(1.0, 1e-9).unwrap(), 7)
        .unwrap();
    let passes = marginal_counts_performed() - before;

    // Per fit: d one-way initializations plus each workload candidate at
    // most once — never rounds × candidates, and no recount when the chosen
    // candidate is measured.
    assert!(
        passes <= (d + pairs) as u64,
        "AIM made {passes} counting passes; cap is {} (d={d} one-ways + {pairs} candidates)",
        d + pairs
    );
    // Sanity: the naive loop would have re-counted candidates every round.
    assert!(
        passes < (d + pairs * pairs) as u64,
        "counter no better than the naive recount bound"
    );
}

#[test]
fn gem_counts_each_candidate_at_most_once_per_fit() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let ds = data(1_500);
    let d = ds.n_attrs();
    let pairs = d * (d - 1) / 2;

    let before = marginal_counts_performed();
    let mut gem = Gem::default();
    gem.fit(&ds, Privacy::zcdp(1.0).unwrap(), 3).unwrap();
    let passes = marginal_counts_performed() - before;

    assert!(
        passes <= (d + pairs) as u64,
        "GEM made {passes} counting passes; cap is {}",
        d + pairs
    );
}

#[test]
fn mst_counts_each_pair_once_including_tree_measurement() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let ds = data(1_500);
    let d = ds.n_attrs();
    let pairs = d * (d - 1) / 2;

    let before = marginal_counts_performed();
    let mut mst = Mst::default();
    mst.fit(&ds, Privacy::approx(1.0, 1e-9).unwrap(), 5)
        .unwrap();
    let passes = marginal_counts_performed() - before;

    // d one-ways + every pair once; phase 3's d-1 tree-edge measurements
    // must be cache hits, not recounts.
    assert_eq!(
        passes,
        (d + pairs) as u64,
        "MST made {passes} counting passes; expected exactly {}",
        d + pairs
    );
}
