//! Property tests for the fitted-state codecs: arbitrary junction-tree
//! models, PrivBayes networks, GEM tensors, and generator MLPs survive
//! `to_json → parse → to_json` **byte-identically**, including NaN/±∞
//! weights and log-probabilities.
//!
//! Same generation idiom as `proptests.rs`: the vendored proptest drives a
//! single `u64` seed per case, and a seeded `StdRng` builds the structured
//! value — deterministic and replayable via `PROPTEST_SEED`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use synrd_data::{AttrKind, Attribute, Domain, Marginal};
use synrd_ml::{Activation, DenseState, MlpState};
use synrd_pgm::{CalibratedTree, Factor, FittedModel, JunctionTree};
use synrd_store::JsonCodec;
use synrd_synth::{BayesNode, FittedState, GemState};

fn arb_f64(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..10u32) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        4 => -0.0,
        5 => f64::MIN_POSITIVE,
        6 => 5e-324, // subnormal
        7 => f64::MAX,
        _ => (rng.gen::<f64>() - 0.5) * 10f64.powi(rng.gen_range(-300..300)),
    }
}

fn arb_f64_vec(rng: &mut StdRng, len: usize) -> Vec<f64> {
    (0..len).map(|_| arb_f64(rng)).collect()
}

const NAME_POOL: &[&str] = &["x", "with space", "quote\"inside", "ünïcodé-名前", ""];

fn arb_attribute(rng: &mut StdRng) -> Attribute {
    let cards = rng.gen_range(2..5usize);
    let kind = match rng.gen_range(0..3u32) {
        0 => AttrKind::Categorical,
        1 => AttrKind::Ordinal,
        _ => AttrKind::Binary,
    };
    let categories = (0..cards)
        .map(|c| format!("{}-{c}", NAME_POOL[rng.gen_range(0..NAME_POOL.len())]))
        .collect::<Vec<_>>();
    let numeric_values = if rng.gen::<bool>() {
        Some(arb_f64_vec(rng, cards))
    } else {
        None
    };
    Attribute::from_parts(
        NAME_POOL[rng.gen_range(0..NAME_POOL.len())],
        kind,
        categories,
        numeric_values,
    )
    .expect("generated attribute is structurally valid")
}

fn arb_domain(rng: &mut StdRng) -> Domain {
    let n = rng.gen_range(1..5usize);
    Domain::new((0..n).map(|_| arb_attribute(rng)).collect())
}

fn arb_marginal(rng: &mut StdRng) -> Marginal {
    let d = rng.gen_range(1..4usize);
    let attrs: Vec<usize> = (0..d).map(|_| rng.gen_range(0..8)).collect();
    let shape: Vec<usize> = (0..d).map(|_| rng.gen_range(1..4)).collect();
    let cells = shape.iter().product();
    Marginal::from_counts(attrs, shape, arb_f64_vec(rng, cells))
        .expect("generated marginal is structurally valid")
}

/// A random model the way the synthesizers make one: random measurement
/// sets over a random domain shape, a tree built from them, and one belief
/// per clique with arbitrary (possibly non-finite) log-probabilities.
fn arb_fitted_model(rng: &mut StdRng) -> FittedModel {
    let n = rng.gen_range(2..5usize);
    let domain_shape: Vec<usize> = (0..n).map(|_| rng.gen_range(2..4)).collect();
    let sets = rng.gen_range(1..4usize);
    let attr_sets: Vec<Vec<usize>> = (0..sets)
        .map(|_| {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            let mut set = vec![a, b];
            set.sort_unstable();
            set.dedup();
            set
        })
        .collect();
    let tree = JunctionTree::build(&domain_shape, &attr_sets, usize::MAX)
        .expect("generated measurement sets fit a tree");
    let beliefs = (0..tree.cliques().len())
        .map(|c| {
            let shape = tree.clique_shape(c).to_vec();
            let cells = shape.iter().product();
            Factor::from_log_values(tree.cliques()[c].clone(), shape, arb_f64_vec(rng, cells))
                .expect("belief matches its clique shape")
        })
        .collect();
    FittedModel::from_parts(tree, CalibratedTree { beliefs })
        .expect("beliefs were built from the tree")
}

fn arb_gem_state(rng: &mut StdRng) -> GemState {
    let k = rng.gen_range(1..4usize);
    let attrs = rng.gen_range(1..4usize);
    let cards: Vec<usize> = (0..attrs).map(|_| rng.gen_range(1..4)).collect();
    GemState {
        logits: (0..k)
            .map(|_| cards.iter().map(|&c| arb_f64_vec(rng, c)).collect())
            .collect(),
    }
}

fn arb_mlp_state(rng: &mut StdRng) -> MlpState {
    let layers = rng.gen_range(1..4usize);
    let mut input = rng.gen_range(1..5usize);
    let layers = (0..layers)
        .map(|_| {
            let output = rng.gen_range(1..5usize);
            let layer = DenseState {
                input,
                output,
                w: arb_f64_vec(rng, input * output),
                b: arb_f64_vec(rng, output),
            };
            input = output;
            layer
        })
        .collect();
    MlpState {
        layers,
        output_activation: match rng.gen_range(0..3u32) {
            0 => Activation::Linear,
            1 => Activation::Sigmoid,
            _ => Activation::Tanh,
        },
    }
}

fn arb_bayes_nodes(rng: &mut StdRng) -> Vec<BayesNode> {
    // Codec-level round trip only: network-consistency is `restore_state`'s
    // job, so tables and parent sets are free-form here.
    let n = rng.gen_range(1..4usize);
    (0..n)
        .map(|i| BayesNode {
            attr: i,
            parents: (0..i).filter(|_| rng.gen::<bool>()).collect(),
            table: arb_marginal(rng),
        })
        .collect()
}

fn arb_fitted_state(rng: &mut StdRng) -> FittedState {
    let domain = arb_domain(rng);
    match rng.gen_range(0..4u32) {
        0 => FittedState::Pgm {
            domain,
            model: arb_fitted_model(rng),
        },
        1 => FittedState::PrivBayes {
            domain,
            nodes: arb_bayes_nodes(rng),
        },
        2 => FittedState::Gem {
            domain,
            model: arb_gem_state(rng),
        },
        _ => {
            let z_dim = rng.gen_range(1..5usize);
            FittedState::PateCtgan {
                domain,
                generator: arb_mlp_state(rng),
                blocks: (0..rng.gen_range(1..4usize))
                    .map(|_| (rng.gen_range(0..10), rng.gen_range(1..4)))
                    .collect(),
                z_dim,
            }
        }
    }
}

/// `encode ∘ decode ∘ encode` is the identity on bytes.
fn assert_text_fixed_point<T: JsonCodec>(value: &T, what: &str) {
    let text = value.to_json_text();
    let back = T::from_json_text(&text)
        .unwrap_or_else(|e| panic!("{what}: decode of own encoding failed: {e}"));
    assert_eq!(back.to_json_text(), text, "{what}: canonical text drifted");
}

proptest! {
    #[test]
    fn attribute_codec_is_a_text_fixed_point(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        assert_text_fixed_point(&arb_attribute(&mut rng), "attribute");
    }

    #[test]
    fn domain_codec_is_a_text_fixed_point(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        assert_text_fixed_point(&arb_domain(&mut rng), "domain");
    }

    #[test]
    fn marginal_codec_is_a_text_fixed_point(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = arb_marginal(&mut rng);
        assert_text_fixed_point(&m, "marginal");
        // Counts survive bit-for-bit, NaN and ±∞ included.
        let back = Marginal::from_json_text(&m.to_json_text()).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(back.counts()), bits(m.counts()));
    }

    #[test]
    fn fitted_model_codec_rebuilds_the_same_tree(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = arb_fitted_model(&mut rng);
        assert_text_fixed_point(&model, "fitted model");
        let back = FittedModel::from_json_text(&model.to_json_text()).unwrap();
        // The tree is rebuilt from its cliques; rebuild must be exact.
        prop_assert_eq!(back.tree().domain_shape(), model.tree().domain_shape());
        prop_assert_eq!(back.tree().cliques(), model.tree().cliques());
        prop_assert_eq!(back.tree().edges(), model.tree().edges());
        // Belief tables survive bit-for-bit (== would reject NaN == NaN).
        prop_assert_eq!(back.calibrated().beliefs.len(), model.calibrated().beliefs.len());
        for (b, m) in back.calibrated().beliefs.iter().zip(&model.calibrated().beliefs) {
            prop_assert_eq!(b.attrs(), m.attrs());
            prop_assert_eq!(b.shape(), m.shape());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(b.log_values()), bits(m.log_values()));
        }
    }

    #[test]
    fn gem_state_codec_is_a_text_fixed_point(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let state = arb_gem_state(&mut rng);
        assert_text_fixed_point(&state, "gem state");
        let back = GemState::from_json_text(&state.to_json_text()).unwrap();
        prop_assert_eq!(back.logits.len(), state.logits.len());
    }

    #[test]
    fn mlp_state_codec_is_a_text_fixed_point(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let state = arb_mlp_state(&mut rng);
        assert_text_fixed_point(&state, "mlp state");
        let back = MlpState::from_json_text(&state.to_json_text()).unwrap();
        prop_assert_eq!(back.layers.len(), state.layers.len());
        prop_assert_eq!(back.output_activation, state.output_activation);
    }

    #[test]
    fn bayes_nodes_codec_is_a_text_fixed_point(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        for node in arb_bayes_nodes(&mut rng) {
            assert_text_fixed_point(&node, "bayes node");
        }
    }

    #[test]
    fn fitted_state_codec_is_a_text_fixed_point(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        assert_text_fixed_point(&arb_fitted_state(&mut rng), "fitted state");
    }
}
