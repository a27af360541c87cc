//! Differential proptests: the stride-based factor kernels must agree
//! **bit-for-bit** with the retained naive reference implementations
//! (`Factor::naive_*`) on random scopes, shapes and log-values —
//! including `±inf`, `±0.0` and NaN cells, where IEEE-754 special-case
//! propagation makes "almost equal" meaningless.
//!
//! Bitwise equality is the contract that makes the persistent result store
//! and the golden report digests survive kernel rewrites.

use proptest::prelude::*;
use synrd_pgm::{Factor, PgmError};

/// Bit-exact comparison (NaN == NaN iff same payload; -0.0 != +0.0).
fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn factor_bits_eq(got: &Factor, want: &Factor) -> std::result::Result<(), String> {
    if got.attrs() != want.attrs() || got.shape() != want.shape() {
        return Err(format!(
            "scope diverged: {:?}{:?} vs {:?}{:?}",
            got.attrs(),
            got.shape(),
            want.attrs(),
            want.shape()
        ));
    }
    if !bits_eq(got.log_values(), want.log_values()) {
        return Err(format!(
            "values diverged\n  stride: {:?}\n  naive:  {:?}",
            got.log_values(),
            want.log_values()
        ));
    }
    Ok(())
}

/// A log-value including the special cells the hot path produces.
fn log_value() -> impl Strategy<Value = f64> {
    (0u8..=9, -50.0f64..50.0).prop_map(|(kind, v)| match kind {
        0 => f64::NEG_INFINITY,
        1 => f64::INFINITY,
        2 => f64::NAN,
        3 => -0.0,
        4 => 0.0,
        _ => v,
    })
}

/// Sorted attribute subset from a 0/1 mask (never empty: attr 0 fallback).
fn pick(mask: &[u8]) -> Vec<usize> {
    let v: Vec<usize> = mask
        .iter()
        .enumerate()
        .filter_map(|(i, &m)| (m == 1).then_some(i))
        .collect();
    if v.is_empty() {
        vec![0]
    } else {
        v
    }
}

fn factor_over(shape: &[usize], attrs: Vec<usize>) -> impl Strategy<Value = Factor> {
    let fshape: Vec<usize> = attrs.iter().map(|&a| shape[a]).collect();
    let cells: usize = fshape.iter().product();
    proptest::collection::vec(log_value(), cells..=cells)
        .prop_map(move |vals| Factor::from_log_values(attrs.clone(), fshape.clone(), vals).unwrap())
}

/// Two factors over random sorted subsets of a random domain (cardinality 1
/// axes included, to exercise degenerate strides).
fn factor_pair() -> impl Strategy<Value = (Factor, Factor)> {
    proptest::collection::vec(1usize..=4, 2..=6).prop_flat_map(|shape| {
        let d = shape.len();
        (
            Just(shape),
            proptest::collection::vec(0u8..=1, d..=d),
            proptest::collection::vec(0u8..=1, d..=d),
        )
            .prop_flat_map(|(shape, ma, mb)| {
                let fa = factor_over(&shape, pick(&ma));
                let fb = factor_over(&shape, pick(&mb));
                (fa, fb)
            })
    })
}

/// A factor plus a second factor whose scope is a subset of the first's
/// (a kept subset for marginalization).
fn factor_with_sub() -> impl Strategy<Value = (Factor, Factor)> {
    proptest::collection::vec(1usize..=4, 2..=6).prop_flat_map(|shape| {
        let d = shape.len();
        (
            Just(shape),
            proptest::collection::vec(0u8..=1, d..=d),
            proptest::collection::vec(0u8..=1, d..=d),
        )
            .prop_flat_map(|(shape, ma, msub)| {
                let a = pick(&ma);
                let sub: Vec<usize> = a
                    .iter()
                    .copied()
                    .filter(|&x| msub.get(x).copied().unwrap_or(0) == 1)
                    .collect();
                let sub = if sub.is_empty() { vec![a[0]] } else { sub };
                let fa = factor_over(&shape, a);
                let fsub = factor_over(&shape, sub);
                (fa, fsub)
            })
    })
}

/// Cells of a wide factor are capped so a debug-build case stays short.
const WIDE_CELL_CAP: usize = 1 << 16;

/// A factor over 2–3 axes at lee2021's widths (cardinalities up to 130, one
/// axis forced to cardinality 1 in some cases) and a random kept subset.
/// Runs here are up to thousands of cells long, where the default
/// strategies' cardinalities of 1–4 make them a few cells. Values come from
/// a seeded SplitMix64 stream, with one cell in 32 `±inf`, NaN or `±0.0`.
fn wide_factor_with_keep() -> impl Strategy<Value = (Factor, Vec<usize>)> {
    (
        proptest::collection::vec(1usize..=130, 2..=3),
        0usize..6,
        proptest::collection::vec(0u8..=1, 3..=3),
        0u64..u64::MAX,
    )
        .prop_map(|(mut shape, unit_axis, mask, seed)| {
            // The last axis shrinks to keep the cells within the cap (at
            // least 3 remain for a third axis).
            let (last, lead) = shape.split_last_mut().unwrap();
            *last = (*last).min(WIDE_CELL_CAP / lead.iter().product::<usize>());
            if let Some(card) = shape.get_mut(unit_axis) {
                *card = 1;
            }
            let attrs: Vec<usize> = (0..shape.len()).collect();
            let keep: Vec<usize> = attrs.iter().copied().filter(|&a| mask[a] == 1).collect();
            let mut state = seed;
            let values = (0..shape.iter().product::<usize>())
                .map(|_| {
                    state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                    z ^= z >> 31;
                    match z % 32 {
                        0 => [f64::NEG_INFINITY, f64::INFINITY, f64::NAN, -0.0, 0.0]
                            [(z >> 5) as usize % 5],
                        _ => ((z >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 100.0,
                    }
                })
                .collect();
            let factor = Factor::from_log_values(attrs, shape, values).unwrap();
            (factor, keep)
        })
}

proptest! {
    /// `marginalize_keep` ≡ `naive_marginalize_keep` on random kept subsets
    /// (max-shifted sums hit the ±inf and NaN finalization branches).
    #[test]
    fn marginalize_is_bit_identical((fa, fsub) in factor_with_sub()) {
        let keep = fsub.attrs();
        let stride = fa.marginalize_keep(keep).unwrap();
        let naive = fa.naive_marginalize_keep(keep).unwrap();
        prop_assert!(
            factor_bits_eq(&stride, &naive).is_ok(),
            "marginalize {:?} keep {:?}: {}",
            fa.attrs(), keep, factor_bits_eq(&stride, &naive).unwrap_err()
        );
    }

    /// The same law at lee2021's widths, where runs are long, cardinality-1
    /// axes sit between wide ones and adjacent axes merge into one run.
    #[test]
    fn wide_marginalize_is_bit_identical((fa, keep) in wide_factor_with_keep()) {
        let stride = fa.marginalize_keep(&keep).unwrap();
        let naive = fa.naive_marginalize_keep(&keep).unwrap();
        prop_assert!(
            factor_bits_eq(&stride, &naive).is_ok(),
            "marginalize {:?} keep {:?}: {}",
            fa.shape(), keep, factor_bits_eq(&stride, &naive).unwrap_err()
        );
    }

    /// Scope errors agree between the two paths on arbitrary scope pairs.
    #[test]
    fn scope_errors_agree((fa, fb) in factor_pair()) {
        prop_assert_eq!(
            fa.marginalize_keep(fb.attrs()).err(),
            fa.naive_marginalize_keep(fb.attrs()).err()
        );
    }

    /// A reversed or repeated keep is rejected with the same error by both
    /// paths, and one that also names an attribute outside the scope gives
    /// `ScopeMismatch` first.
    #[test]
    fn unsorted_and_repeated_keeps_agree((fa, fsub) in factor_with_sub()) {
        let keep = fsub.attrs();
        let mut reversed = keep.to_vec();
        reversed.reverse();
        let mut repeated = keep.to_vec();
        repeated.push(keep[keep.len() - 1]);
        let mut outside = repeated.clone();
        outside.push(usize::MAX);
        let mut bad = vec![
            (repeated, PgmError::UnsortedAttributes),
            (outside, PgmError::ScopeMismatch),
        ];
        if keep.len() > 1 {
            bad.push((reversed, PgmError::UnsortedAttributes));
        }
        for (keep, want) in bad {
            let (stride, naive) = (fa.marginalize_keep(&keep), fa.naive_marginalize_keep(&keep));
            prop_assert!(
                stride.as_ref().err() == Some(&want) && naive.as_ref().err() == Some(&want),
                "keep {:?}: stride {:?}, naive {:?}, want {:?}",
                keep, stride.err(), naive.err(), want
            );
        }
    }
}
