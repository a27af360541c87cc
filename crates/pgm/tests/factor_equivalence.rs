//! Differential proptests: the stride-based factor kernels must agree
//! **bit-for-bit** with the retained naive reference implementations
//! (`Factor::naive_*`) on random scopes, shapes and log-values —
//! including `±inf`, `±0.0` and NaN cells, where IEEE-754 special-case
//! propagation makes "almost equal" meaningless.
//!
//! Bitwise equality is the contract that makes the persistent result store
//! and the golden report digests survive kernel rewrites.

use proptest::prelude::*;
use synrd_pgm::Factor;

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

    /// Scope errors agree between the two paths on arbitrary scope pairs.
    #[test]
    fn scope_errors_agree((fa, fb) in factor_pair()) {
        prop_assert_eq!(
            fa.marginalize_keep(fb.attrs()).is_err(),
            fa.naive_marginalize_keep(fb.attrs()).is_err()
        );
    }
}
