//! Property tests for the fitted-state codecs: arbitrary junction-tree
//! models, PrivBayes networks, GEM tensors, and generator MLPs survive
//! `to_json → parse → to_json` **byte-identically**, including NaN/±∞
//! weights and log-probabilities. A fit document states each cardinality
//! once, in its domain, so the PGM and PrivBayes parts are generated over
//! their state's domain: a file cannot express a part that disagrees with
//! it. Only the whole state decodes, so every part's round trip goes
//! through the state's.
//!
//! Same generation idiom as `proptests.rs`: the vendored proptest drives a
//! single `u64` seed per case, and a seeded `StdRng` builds the structured
//! value — deterministic and replayable via `PROPTEST_SEED`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use synrd_data::{AttrKind, Attribute, Domain, Marginal};
use synrd_ml::{Activation, DenseState, MlpState};
use synrd_pgm::{FittedModel, JunctionTree};
use synrd_store::{JsonCodec, JsonDecode};
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

/// A random model the way the synthesizers make one: random measurement
/// sets over `domain`, a tree built from them, and one belief per clique
/// with arbitrary (possibly non-finite) log-probabilities.
fn arb_fitted_model(rng: &mut StdRng, domain: &Domain) -> FittedModel {
    let n = domain.len();
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
    let tree = JunctionTree::build(&domain.shape(), &attr_sets, usize::MAX)
        .expect("generated measurement sets fit a tree");
    let beliefs = (0..tree.cliques().len())
        .map(|c| arb_f64_vec(rng, tree.clique_shape(c).iter().product()))
        .collect();
    FittedModel::from_parts(tree, beliefs).expect("beliefs were built from the tree")
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

/// Nodes in domain order, each with a random subset of the earlier
/// attributes as parents and a table over sorted `parents ∪ {attr}` with the
/// domain's cardinalities and arbitrary counts.
fn arb_bayes_nodes(rng: &mut StdRng, domain: &Domain) -> Vec<BayesNode> {
    let cards = domain.shape();
    (0..cards.len())
        .map(|attr| {
            let parents: Vec<usize> = (0..attr).filter(|_| rng.gen::<bool>()).collect();
            let mut attrs = parents.clone();
            attrs.push(attr);
            let shape: Vec<usize> = attrs.iter().map(|&a| cards[a]).collect();
            let counts = arb_f64_vec(rng, shape.iter().product());
            BayesNode {
                attr,
                parents,
                table: Marginal::from_counts(attrs, shape, counts)
                    .expect("generated table matches its shape"),
            }
        })
        .collect()
}

/// One state of every variant over one random domain.
fn arb_fitted_states(rng: &mut StdRng) -> [FittedState; 4] {
    let domain = arb_domain(rng);
    [
        FittedState::Pgm {
            model: arb_fitted_model(rng, &domain),
            domain: domain.clone(),
        },
        FittedState::PrivBayes {
            nodes: arb_bayes_nodes(rng, &domain),
            domain: domain.clone(),
        },
        FittedState::Gem {
            domain: domain.clone(),
            model: arb_gem_state(rng),
        },
        FittedState::PateCtgan {
            domain,
            generator: arb_mlp_state(rng),
        },
    ]
}

/// Checks that `state`'s encoding is a text fixed point
/// (`encode ∘ decode ∘ encode` is the identity on bytes) and returns the
/// state decoded from it.
fn round_trip(state: &FittedState) -> FittedState {
    let what = state.variant();
    let text = state.to_json_text();
    let back = FittedState::from_json_text(&text)
        .unwrap_or_else(|e| panic!("{what}: decode of own encoding failed: {e}"));
    assert_eq!(back.to_json_text(), text, "{what}: canonical text drifted");
    back
}

/// A GEM state over `domain` with no mixture components: the smallest state
/// that carries a domain through the codec.
fn domain_round_trip(domain: Domain) -> Domain {
    let state = FittedState::Gem {
        domain,
        model: GemState { logits: Vec::new() },
    };
    round_trip(&state).domain().clone()
}

/// A PGM model over a random domain, and the model decoded from the
/// encoding of its fitted state. A model has no codec of its own.
fn pgm_round_trip(rng: &mut StdRng) -> (FittedModel, FittedModel) {
    let domain = arb_domain(rng);
    let state = FittedState::Pgm {
        model: arb_fitted_model(rng, &domain),
        domain,
    };
    match (round_trip(&state), state) {
        (FittedState::Pgm { model: back, .. }, FittedState::Pgm { model, .. }) => (model, back),
        _ => panic!("variant changed"),
    }
}

/// PrivBayes nodes over a random domain, and the nodes decoded from the
/// encoding of their fitted state. Nodes and their tables have no codec of
/// their own.
fn privbayes_round_trip(rng: &mut StdRng) -> (Vec<BayesNode>, Vec<BayesNode>) {
    let domain = arb_domain(rng);
    let state = FittedState::PrivBayes {
        nodes: arb_bayes_nodes(rng, &domain),
        domain,
    };
    match (round_trip(&state), state) {
        (FittedState::PrivBayes { nodes: back, .. }, FittedState::PrivBayes { nodes, .. }) => {
            (nodes, back)
        }
        _ => panic!("variant changed"),
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    /// An attribute carried by a state's domain decodes to the same
    /// canonical text.
    #[test]
    fn attribute_codec_is_a_text_fixed_point(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let attr = arb_attribute(&mut rng);
        let back = domain_round_trip(Domain::new(vec![attr.clone()]));
        prop_assert_eq!(back.attributes()[0].to_json_text(), attr.to_json_text());
    }

    #[test]
    fn domain_codec_is_a_text_fixed_point(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let domain = arb_domain(&mut rng);
        prop_assert_eq!(domain_round_trip(domain.clone()).to_json_text(), domain.to_json_text());
    }

    #[test]
    fn gem_state_codec_is_a_text_fixed_point(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let state = FittedState::Gem {
            domain: arb_domain(&mut rng),
            model: arb_gem_state(&mut rng),
        };
        let (FittedState::Gem { model: back, .. }, FittedState::Gem { model, .. }) =
            (round_trip(&state), &state)
        else {
            panic!("variant changed");
        };
        prop_assert_eq!(back.to_json_text(), model.to_json_text());
        prop_assert_eq!(back.logits.len(), model.logits.len());
    }

    #[test]
    fn mlp_state_codec_is_a_text_fixed_point(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let state = FittedState::PateCtgan {
            domain: arb_domain(&mut rng),
            generator: arb_mlp_state(&mut rng),
        };
        let (FittedState::PateCtgan { generator: back, .. }, FittedState::PateCtgan { generator, .. }) =
            (round_trip(&state), &state)
        else {
            panic!("variant changed");
        };
        prop_assert_eq!(back.to_json_text(), generator.to_json_text());
        prop_assert_eq!(back.layers.len(), generator.layers.len());
        prop_assert_eq!(back.output_activation, generator.output_activation);
    }

    /// A PrivBayes table's counts survive bit for bit, NaN and ±∞ included
    /// (`==` would reject NaN == NaN).
    #[test]
    fn marginal_codec_is_a_text_fixed_point(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (nodes, back) = privbayes_round_trip(&mut rng);
        prop_assert_eq!(back.len(), nodes.len());
        for (b, n) in back.iter().zip(&nodes) {
            prop_assert_eq!(bits(b.table.counts()), bits(n.table.counts()));
        }
    }

    /// The tree is rebuilt from its cliques; the rebuild must be exact, and
    /// every belief survives bit for bit.
    #[test]
    fn fitted_model_codec_rebuilds_the_same_tree(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (model, back) = pgm_round_trip(&mut rng);
        prop_assert_eq!(back.tree().domain_shape(), model.tree().domain_shape());
        prop_assert_eq!(back.tree().cliques(), model.tree().cliques());
        prop_assert_eq!(back.tree().edges(), model.tree().edges());
        let (bb, mb) = (&back.calibrated().beliefs, &model.calibrated().beliefs);
        prop_assert_eq!(bb.len(), mb.len());
        for (b, m) in bb.iter().zip(mb) {
            prop_assert_eq!(b.attrs(), m.attrs());
            prop_assert_eq!(b.shape(), m.shape());
            prop_assert_eq!(bits(b.log_values()), bits(m.log_values()));
        }
    }

    /// Each node's table is rebuilt from the node and the domain; the
    /// rebuild must be exact.
    #[test]
    fn bayes_nodes_codec_is_a_text_fixed_point(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (nodes, back) = privbayes_round_trip(&mut rng);
        prop_assert_eq!(back.len(), nodes.len());
        for (b, n) in back.iter().zip(&nodes) {
            prop_assert_eq!(b.attr, n.attr);
            prop_assert_eq!(&b.parents, &n.parents);
            prop_assert_eq!(b.table.attrs(), n.table.attrs());
            prop_assert_eq!(b.table.shape(), n.table.shape());
        }
    }

    #[test]
    fn fitted_state_codec_is_a_text_fixed_point(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        for state in arb_fitted_states(&mut rng) {
            prop_assert_eq!(round_trip(&state).variant(), state.variant());
        }
    }
}
