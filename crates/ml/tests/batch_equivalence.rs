//! Differential proptests pinning the batched MLP kernels bit-identical to
//! the per-example oracle across random shapes, batch sizes (including 0
//! and 1), output activations, and non-finite inputs — on **every
//! registered backend** (`synrd_ml::backend::registered_backends()`), so a
//! new backend is covered by the full differential suite for free.
//!
//! CI also runs this at `PROPTEST_CASES=1024`.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use synrd_ml::backend::registered_backends;
use synrd_ml::{Activation, BatchWorkspace, Mlp};

fn activation() -> impl Strategy<Value = Activation> {
    (0usize..3).prop_map(|i| match i {
        0 => Activation::Linear,
        1 => Activation::Sigmoid,
        _ => Activation::Tanh,
    })
}

/// Mostly-finite values with a deliberate tail of ±∞ and NaN: the kernels
/// must propagate non-finite arithmetic exactly the way the per-example
/// loops do (e.g. ReLU's `max(0.0)` quashes NaN on both paths).
fn values(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec((0u8..16, -3.0f64..3.0), len..=len).prop_map(|v| {
        v.into_iter()
            .map(|(sel, x)| match sel {
                13 => f64::INFINITY,
                14 => f64::NEG_INFINITY,
                15 => f64::NAN,
                _ => x,
            })
            .collect()
    })
}

type Case = (Vec<usize>, usize, Activation, u64, Vec<f64>, Vec<f64>);

/// Random layer sizes, batch (0..=5), activation, net seed, and an input /
/// output-gradient block sized to match. Layer sizes reach 12 so the SIMD
/// backend's 8-wide and 4-wide lane blocks are exercised as well as its
/// scalar ragged edges.
fn case() -> impl Strategy<Value = Case> {
    (
        proptest::collection::vec(1usize..=12, 2..=4),
        0usize..=5,
        activation(),
        0u64..u64::MAX,
    )
        .prop_flat_map(|(sizes, batch, act, seed)| {
            let n_in = batch * sizes[0];
            let n_out = batch * *sizes.last().expect("at least two sizes");
            (
                (Just(sizes), Just(batch), Just(act), Just(seed)),
                values(n_in),
                values(n_out),
            )
        })
        .prop_map(|((sizes, batch, act, seed), xs, grads)| (sizes, batch, act, seed, xs, grads))
}

/// Bitwise view of one value, with NaNs canonicalized: IEEE 754 leaves the
/// sign/payload of a *generated* NaN unspecified, and LLVM is free to
/// commute the operands of a float add between two compilations of the same
/// reduction, flipping which operand's NaN is propagated. NaN *positions*
/// and every non-NaN bit pattern (±∞ included) still compare exactly.
fn canon(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|&x| canon(x)).collect()
}

/// The full training state as text: weights, biases, all four Adam moment
/// buffers, the step counter and the learning rate. `Debug` prints every
/// NaN as `NaN` whatever its sign and payload (the same canonicalization as
/// `canon`) and every other float as its shortest round-trip text, so equal
/// text means equal bits everywhere else, ±∞ and -0.0 included.
fn state_text(net: &Mlp) -> String {
    format!("{net:?}")
}

proptest! {
    #[test]
    fn forward_batch_is_bit_identical((sizes, batch, act, seed, xs, _g) in case()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let net = Mlp::new(&sizes, act, &mut rng);
        let naive: Vec<f64> = net
            .forward_batch_naive(&xs, batch)
            .iter()
            .flat_map(|c| c.output().to_vec())
            .collect();
        for backend in registered_backends() {
            let mut ws = BatchWorkspace::with_backend(backend);
            net.forward_batch(&xs, batch, &mut ws);
            prop_assert_eq!((backend.name(), bits(ws.output())), (backend.name(), bits(&naive)));
        }
    }

    #[test]
    fn input_gradient_batch_is_bit_identical((sizes, batch, act, seed, xs, grads) in case()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let net = Mlp::new(&sizes, act, &mut rng);
        let caches = net.forward_batch_naive(&xs, batch);
        let naive = net.input_gradient_batch_naive(&caches, &grads);
        for backend in registered_backends() {
            let mut ws = BatchWorkspace::with_backend(backend);
            net.forward_batch(&xs, batch, &mut ws);
            let mut dx = Vec::new();
            net.input_gradient_batch(&mut ws, &grads, &mut dx);
            prop_assert_eq!((backend.name(), bits(&dx)), (backend.name(), bits(&naive)));
        }
    }

    #[test]
    fn backward_apply_batch_is_bit_identical((sizes, batch, act, seed, xs, grads) in case()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let net = Mlp::new(&sizes, act, &mut rng);
        for backend in registered_backends() {
            let mut batched = net.clone();
            let mut naive = net.clone();
            let mut ws = BatchWorkspace::with_backend(backend);
            // Two consecutive steps so the comparison exercises the Adam
            // state (moments + step counter) past the first bias correction,
            // and the workspace arenas get reused.
            for _round in 0..2 {
                batched.forward_batch(&xs, batch, &mut ws);
                batched.backward_apply_batch(&mut ws, &grads);
                let caches = naive.forward_batch_naive(&xs, batch);
                naive.backward_apply_batch_naive(&caches, &grads);
                prop_assert_eq!(
                    (backend.name(), state_text(&batched)),
                    (backend.name(), state_text(&naive))
                );
            }
        }
    }
}
