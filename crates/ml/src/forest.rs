//! Random forest: bagged Gini trees with √d feature subsampling.
//!
//! A fit builds one value table over all its rows (see [`crate::tree`])
//! and grows each tree on its bootstrap sample, a list of row indices into
//! that table: no row is copied. The RNG is drawn in the order of the fit
//! that copied each tree's rows: per tree, `n` calls to `gen_range(0..n)`,
//! then each node's feature shuffle, left subtree before right. The
//! sort-based fit stays as the test oracle `fit_naive`.

use crate::error::{validate_finite, validate_xy, MlError, Result};
use crate::tree::{DecisionTree, TreeOptions, ValueTable};
use rand::Rng;

/// Hyperparameters for the forest.
#[derive(Debug, Clone, Copy)]
pub struct ForestOptions {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree options; `max_features = None` here means √d.
    pub tree: TreeOptions,
}

impl ForestOptions {
    /// Per-tree options for `d` features: `max_features = None` becomes ⌈√d⌉.
    fn tree_options(&self, d: usize) -> TreeOptions {
        let max_features = self
            .tree
            .max_features
            .unwrap_or_else(|| (d as f64).sqrt().ceil() as usize)
            .max(1);
        TreeOptions {
            max_features: Some(max_features),
            ..self.tree
        }
    }
}

impl Default for ForestOptions {
    fn default() -> Self {
        ForestOptions {
            n_trees: 30,
            tree: TreeOptions {
                max_depth: 10,
                min_samples_split: 8,
                max_features: None,
            },
        }
    }
}

/// A fitted random forest predicting P(y = 1 | x) as the mean of its trees.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
}

impl RandomForest {
    /// Fit with bootstrap rows per tree and √d features per node.
    ///
    /// # Errors
    /// The errors of [`DecisionTree::fit`], and
    /// [`MlError::InvalidParameter`] for `n_trees == 0`.
    pub fn fit<R: Rng + ?Sized>(
        x: &[Vec<f64>],
        y: &[f64],
        options: ForestOptions,
        rng: &mut R,
    ) -> Result<RandomForest> {
        let d = validate_xy(x, y)?;
        validate_finite(x)?;
        options.tree.validate()?;
        if options.n_trees == 0 {
            return Err(MlError::InvalidParameter {
                name: "n_trees",
                value: 0.0,
            });
        }
        let tree_options = options.tree_options(d);
        let n = x.len();
        let table = ValueTable::new(x, y);
        let mut rows: Vec<usize> = Vec::with_capacity(n);
        let mut trees = Vec::with_capacity(options.n_trees);
        for _ in 0..options.n_trees {
            rows.clear();
            rows.extend((0..n).map(|_| rng.gen_range(0..n)));
            trees.push(DecisionTree::grow(&table, y, &mut rows, &tree_options, rng));
        }
        Ok(RandomForest { trees })
    }

    /// Mean tree probability for one row.
    pub fn predict_proba_row(&self, row: &[f64]) -> f64 {
        self.trees
            .iter()
            .map(|t| t.predict_proba_row(row))
            .sum::<f64>()
            / self.trees.len() as f64
    }

    /// Mean tree probabilities for many rows.
    pub fn predict_proba(&self, x: &[Vec<f64>]) -> Vec<f64> {
        x.iter().map(|r| self.predict_proba_row(r)).collect()
    }
}

/// The sort-based fit the shared value table replaced, the oracle of
/// `forest_matches_naive`. Each tree's `grow_naive` reads its bootstrap rows
/// through the index list in draw order, the order of the copies the fit
/// used to make, so it sorts the same values in the same order.
#[cfg(test)]
impl RandomForest {
    fn fit_naive<R: Rng + ?Sized>(
        x: &[Vec<f64>],
        y: &[f64],
        options: ForestOptions,
        rng: &mut R,
    ) -> RandomForest {
        let tree_options = options.tree_options(x[0].len());
        let n = x.len();
        let trees = (0..options.n_trees)
            .map(|_| {
                let rows: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
                DecisionTree::fit_naive(x, y, &rows, tree_options, rng)
            })
            .collect();
        RandomForest { trees }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::tests::{kinds, mixed_data};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn beats_chance_on_noisy_linear_data() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 600;
        let x: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>()])
            .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|r| f64::from(r[0] + 0.5 * r[1] + 0.1 * (rng.gen::<f64>() - 0.5) > 0.75))
            .collect();
        let forest = RandomForest::fit(&x, &y, ForestOptions::default(), &mut rng).unwrap();
        let preds = forest.predict_proba(&x);
        let acc = preds
            .iter()
            .zip(&y)
            .filter(|(p, &t)| (**p > 0.5) == (t == 1.0))
            .count() as f64
            / n as f64;
        assert!(acc > 0.9, "train accuracy = {acc}");
    }

    #[test]
    fn probabilities_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(6);
        let x: Vec<Vec<f64>> = (0..100).map(|i| vec![(i % 7) as f64]).collect();
        let y: Vec<f64> = (0..100).map(|i| f64::from(i % 3 == 0)).collect();
        let forest = RandomForest::fit(&x, &y, ForestOptions::default(), &mut rng).unwrap();
        for p in forest.predict_proba(&x) {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn non_finite_features_are_an_error() {
        let mut rng = StdRng::seed_from_u64(7);
        let x = vec![vec![0.0], vec![f64::NAN], vec![2.0]];
        let y = [0.0, 1.0, 1.0];
        assert_eq!(
            RandomForest::fit(&x, &y, ForestOptions::default(), &mut rng).unwrap_err(),
            MlError::NonFiniteFeature { row: 1, feature: 0 }
        );
    }

    #[test]
    fn zero_trees_is_an_error() {
        let mut rng = StdRng::seed_from_u64(8);
        let options = ForestOptions {
            n_trees: 0,
            ..ForestOptions::default()
        };
        assert_eq!(
            RandomForest::fit(&[vec![0.0], vec![1.0]], &[0.0, 1.0], options, &mut rng).unwrap_err(),
            MlError::InvalidParameter {
                name: "n_trees",
                value: 0.0
            }
        );
    }

    /// Fit with the shared table and with the sort-based oracle from one
    /// seed, and require equal trees, predictions and RNG states, bit for
    /// bit.
    fn assert_matches_naive(x: &[Vec<f64>], y: &[f64], options: ForestOptions, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rng_naive = StdRng::seed_from_u64(seed);
        let forest = RandomForest::fit(x, y, options, &mut rng).unwrap();
        let naive = RandomForest::fit_naive(x, y, options, &mut rng_naive);
        assert_eq!(forest.trees.len(), naive.trees.len());
        for (tree, naive_tree) in forest.trees.iter().zip(&naive.trees) {
            assert_eq!(tree.node_bits(), naive_tree.node_bits(), "{options:?}");
        }
        let bits = |p: Vec<f64>| p.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(forest.predict_proba(x)), bits(naive.predict_proba(x)));
        assert_eq!(rng.next_u64(), rng_naive.next_u64(), "{options:?}");
    }

    #[test]
    fn forest_matches_naive() {
        // jeong2021's pipeline forest on jeong2021-shaped codes (55 features
        // of 1-10 levels), then mixed kinds under other options.
        let (x, y) = mixed_data(1_000, &[0; 55], 11);
        let jeong = ForestOptions {
            n_trees: 20,
            tree: TreeOptions {
                max_depth: 8,
                min_samples_split: 10,
                max_features: None,
            },
        };
        assert_matches_naive(&x, &y, jeong, 12);
        let (x, y) = mixed_data(400, &[0, 1, 2, 3, 0, 1], 13);
        for max_depth in [1, 12] {
            for min_samples_split in [2, 10] {
                for max_features in [None, Some(2)] {
                    let options = ForestOptions {
                        n_trees: 5,
                        tree: TreeOptions {
                            max_depth,
                            min_samples_split,
                            max_features,
                        },
                    };
                    assert_matches_naive(&x, &y, options, 14);
                }
            }
        }
    }

    proptest! {
        #[test]
        fn forest_matches_naive_on_random_matrices(
            (n, d, n_trees) in (1usize..=60, 1usize..=5, 1usize..=4),
            (max_depth, min_samples_split, features) in (1usize..=12, 0usize..=8, 0usize..=6),
            seed in 0u64..u64::MAX,
        ) {
            let (x, y) = mixed_data(n, &kinds(d, seed), seed);
            let options = ForestOptions {
                n_trees,
                tree: TreeOptions {
                    max_depth,
                    min_samples_split,
                    max_features: features.checked_sub(1),
                },
            };
            assert_matches_naive(&x, &y, options, seed ^ 2);
        }
    }
}
