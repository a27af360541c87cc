//! Property-based tests for the graphical-model substrate: factor algebra
//! laws and junction-tree invariants on random structures.

use proptest::prelude::*;
use synrd_pgm::{calibrate, Factor, JunctionTree};

/// Strategy: a factor over `attrs` (global ids 0..k) with random log values.
fn random_factor(attrs: Vec<usize>, shape: Vec<usize>) -> impl Strategy<Value = Factor> {
    let cells: usize = shape.iter().product();
    proptest::collection::vec(-3.0f64..3.0, cells..=cells)
        .prop_map(move |vals| Factor::from_log_values(attrs.clone(), shape.clone(), vals).unwrap())
}

proptest! {
    /// Marginalizing a product over the second factor's exclusive scope
    /// yields the first factor scaled by the second's total mass.
    #[test]
    fn product_marginalization_law(
        fa in random_factor(vec![0], vec![3]),
        fb in random_factor(vec![1], vec![4]),
    ) {
        let joint = fa.naive_multiply(&fb).unwrap();
        let back = joint.marginalize_keep(&[0]).unwrap();
        let total_b = fb.log_sum_exp();
        for (orig, marg) in fa.log_values().iter().zip(back.log_values()) {
            prop_assert!((orig + total_b - marg).abs() < 1e-9);
        }
    }

    /// Normalization makes probabilities sum to 1 and keeps ratios.
    #[test]
    fn normalization_preserves_ratios(f in random_factor(vec![0, 2], vec![2, 3])) {
        let probs = f.probabilities();
        prop_assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Ratio of first two cells must match the raw log difference.
        let want = (f.log_values()[0] - f.log_values()[1]).exp();
        let got = probs[0] / probs[1];
        prop_assert!((want - got).abs() / want.max(1.0) < 1e-6);
    }

    /// Expansion followed by marginalization is identity up to constants.
    #[test]
    fn expand_marginalize_round_trip(f in random_factor(vec![1], vec![4])) {
        let expanded = f.expand(&[0, 1, 2], &[2, 4, 3]).unwrap();
        let back = expanded.marginalize_keep(&[1]).unwrap();
        // Each cell gains a factor of 2*3 = 6 mass (uniform replication).
        for (orig, marg) in f.log_values().iter().zip(back.log_values()) {
            prop_assert!((orig + 6.0f64.ln() - marg).abs() < 1e-9);
        }
    }

    /// Junction trees cover every measurement set, for random pair sets.
    #[test]
    fn junction_tree_covers_measurements(
        shape in proptest::collection::vec(2usize..=4, 3..=7),
        pair_seeds in proptest::collection::vec((0usize..100, 0usize..100), 1..=8),
    ) {
        let d = shape.len();
        let sets: Vec<Vec<usize>> = pair_seeds
            .iter()
            .map(|&(a, b)| {
                let (x, y) = (a % d, b % d);
                if x == y { vec![x] } else { let mut v = vec![x, y]; v.sort_unstable(); v }
            })
            .collect();
        let jt = JunctionTree::build(&shape, &sets, 1 << 20).unwrap();
        for s in &sets {
            prop_assert!(jt.containing_clique(s).is_some(), "{s:?} uncovered");
        }
        // Every attribute appears in some clique.
        for a in 0..d {
            prop_assert!(jt.containing_clique(&[a]).is_some());
        }
    }

    /// Calibrated beliefs agree on separators for random chain potentials.
    #[test]
    fn calibration_separator_consistency(
        vals in proptest::collection::vec(-2.0f64..2.0, 12..=12),
    ) {
        let shape = vec![2usize, 2, 2];
        let sets = vec![vec![0, 1], vec![1, 2]];
        let tree = JunctionTree::build(&shape, &sets, 1 << 20).unwrap();
        let pots: Vec<Factor> = tree
            .cliques()
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let cshape: Vec<usize> = c.iter().map(|&a| shape[a]).collect();
                let cells: usize = cshape.iter().product();
                Factor::from_log_values(
                    c.clone(),
                    cshape,
                    vals[i * 4..i * 4 + cells].to_vec(),
                )
                .unwrap()
            })
            .collect();
        let cal = calibrate(&tree, &pots).unwrap();
        for (i, j, sep) in tree.edges() {
            let mi = cal.beliefs[*i].marginalize_keep(sep).unwrap().probabilities();
            let mj = cal.beliefs[*j].marginalize_keep(sep).unwrap().probabilities();
            for (a, b) in mi.iter().zip(&mj) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }
    }
}
