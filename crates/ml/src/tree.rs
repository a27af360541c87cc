//! CART-style binary decision tree with Gini impurity.
//!
//! One of Jeong et al.'s three model families (via [`crate::forest`]). The
//! implementation supports per-node feature subsampling so the forest gets
//! decorrelated trees.
//!
//! # Split search
//!
//! A fit first builds a value table: for each feature, its distinct values
//! in ascending order (its *levels*) and each row's rank among them. A
//! forest builds one table for all its trees. A node scores a feature by
//! counting its rows and positive labels per level in one pass over its
//! rows, then sweeping the levels in ascending order, skipping those the
//! node has no rows at. Each boundary between two consecutive levels that
//! do hold rows is a candidate split, with the midpoint of those two values
//! as its threshold. No node sorts its rows.
//!
//! This grows the same trees, bit for bit, as sorting each node's
//! `(value, label)` pairs and sweeping the boundaries between distinct
//! values. Labels are 0/1, so every count and positive sum is an exact
//! integer in `f64`, whatever order it is added in. The candidates are the
//! same boundaries in the same order, scored by the same expressions, so
//! every gain, threshold and tie comes out the same. A split still sends a
//! row left exactly when its value is `<= threshold`: the midpoint of two
//! adjacent doubles can round onto the upper one, so the split need not
//! fall at the boundary it was scored at. The sort-based search stays as
//! the test oracle `grow_naive`.

use crate::error::{validate_finite, validate_xy, MlError, Result};
use rand::seq::SliceRandom;
use rand::Rng;

/// Hyperparameters for tree induction.
#[derive(Debug, Clone, Copy)]
pub struct TreeOptions {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples to attempt a split.
    pub min_samples_split: usize,
    /// Features tried per node; `None` = all.
    pub max_features: Option<usize>,
}

impl Default for TreeOptions {
    fn default() -> Self {
        TreeOptions {
            max_depth: 8,
            min_samples_split: 10,
            max_features: None,
        }
    }
}

impl TreeOptions {
    /// A tree needs `max_depth >= 1`.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.max_depth == 0 {
            return Err(MlError::InvalidParameter {
                name: "max_depth",
                value: 0.0,
            });
        }
        Ok(())
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        prob: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A fitted decision tree predicting P(y = 1 | x).
#[derive(Debug, Clone)]
pub struct DecisionTree {
    root: Node,
    n_features: usize,
}

impl DecisionTree {
    /// Fit on row-major features and 0/1 labels.
    ///
    /// # Errors
    /// The shape and label errors of a supervised fit,
    /// [`MlError::NonFiniteFeature`] for a NaN or infinite feature, and
    /// [`MlError::InvalidParameter`] for `max_depth == 0`.
    pub fn fit<R: Rng + ?Sized>(
        x: &[Vec<f64>],
        y: &[f64],
        options: TreeOptions,
        rng: &mut R,
    ) -> Result<DecisionTree> {
        validate_xy(x, y)?;
        validate_finite(x)?;
        options.validate()?;
        let table = ValueTable::new(x, y);
        let mut rows: Vec<usize> = (0..x.len()).collect();
        Ok(DecisionTree::grow(&table, y, &mut rows, &options, rng))
    }

    /// Grow a tree on `rows`, indices into `table`'s rows (repeats allowed).
    /// Reorders `rows`.
    pub(crate) fn grow<R: Rng + ?Sized>(
        table: &ValueTable,
        y: &[f64],
        rows: &mut [usize],
        options: &TreeOptions,
        rng: &mut R,
    ) -> DecisionTree {
        let n_features = table.levels.len();
        let max_levels = table.levels.iter().map(Vec::len).max().unwrap_or(0);
        let mut grower = Grower {
            table,
            y,
            options,
            rng,
            features: Vec::with_capacity(n_features),
            counts: vec![0; 2 * max_levels],
        };
        DecisionTree {
            root: grower.node(rows, 0),
            n_features,
        }
    }

    /// Predicted probability for one row.
    pub fn predict_proba_row(&self, row: &[f64]) -> f64 {
        debug_assert_eq!(row.len(), self.n_features);
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { prob } => return *prob,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if row[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// Predicted probabilities for many rows.
    pub fn predict_proba(&self, x: &[Vec<f64>]) -> Vec<f64> {
        x.iter().map(|r| self.predict_proba_row(r)).collect()
    }
}

/// Each feature's levels and each row's rank among them, built once per fit
/// and read by every node of every tree grown from it.
pub(crate) struct ValueTable {
    n_rows: usize,
    /// `levels[f]`: feature `f`'s distinct values, ascending (`-0.0` and
    /// `0.0` are one level, as they compare equal).
    levels: Vec<Vec<f64>>,
    /// `keys[f * n_rows + i] = 2 * rank + label` for row `i`, where `rank`
    /// indexes `levels[f]`: one counter per (level, label) pair.
    keys: Vec<u32>,
}

impl ValueTable {
    /// Build from finite features and 0/1 labels (both validated).
    pub(crate) fn new(x: &[Vec<f64>], y: &[f64]) -> ValueTable {
        let n_rows = x.len();
        let d = x.first().map_or(0, Vec::len);
        let mut levels = Vec::with_capacity(d);
        let mut keys = Vec::with_capacity(n_rows * d);
        let mut column = Vec::with_capacity(n_rows);
        for f in 0..d {
            column.clear();
            column.extend(x.iter().map(|row| row[f]));
            let mut distinct = column.clone();
            distinct.sort_unstable_by(f64::total_cmp);
            distinct.dedup_by(|a, b| a == b);
            keys.extend(column.iter().zip(y).map(|(&value, &label)| {
                let rank = distinct.partition_point(|&level| level < value);
                2 * rank as u32 + u32::from(label == 1.0)
            }));
            levels.push(distinct);
        }
        ValueTable {
            n_rows,
            levels,
            keys,
        }
    }

    fn keys(&self, feature: usize) -> &[u32] {
        &self.keys[feature * self.n_rows..(feature + 1) * self.n_rows]
    }
}

/// One tree's growth: what every node reads, plus scratch every node reuses.
struct Grower<'a, R: ?Sized> {
    table: &'a ValueTable,
    y: &'a [f64],
    options: &'a TreeOptions,
    rng: &'a mut R,
    /// The current node's candidate features.
    features: Vec<usize>,
    /// Rows of the current node and feature per key; zero between sweeps.
    counts: Vec<u32>,
}

impl<R: Rng + ?Sized> Grower<'_, R> {
    fn node(&mut self, rows: &mut [usize], depth: usize) -> Node {
        let total = rows.len() as f64;
        let pos: f64 = rows.iter().map(|&i| self.y[i]).sum();
        let prob = if total > 0.0 { pos / total } else { 0.5 };
        let pure = pos == 0.0 || pos == total;
        if depth >= self.options.max_depth || rows.len() < self.options.min_samples_split || pure {
            return Node::Leaf { prob };
        }

        // Candidate features (subsampled for forests).
        let d = self.table.levels.len();
        self.features.clear();
        self.features.extend(0..d);
        if let Some(k) = self.options.max_features {
            self.features.shuffle(self.rng);
            self.features.truncate(k.max(1).min(d));
        }

        let parent_gini = gini(pos, total);
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, gain)
        for &f in &self.features {
            let keys = self.table.keys(f);
            let levels = &self.table.levels[f];
            let counts = &mut self.counts[..2 * levels.len()];
            for &i in rows.iter() {
                counts[keys[i] as usize] += 1;
            }
            // Sweep the levels the node has rows at, zeroing their counters;
            // `below` is the previous such level.
            let mut left_pos = 0.0;
            let mut left_n = 0.0;
            let mut below: Option<f64> = None;
            for (&value, pair) in levels.iter().zip(counts.chunks_exact_mut(2)) {
                let (negatives, positives) = (pair[0], pair[1]);
                if negatives + positives == 0 {
                    continue;
                }
                pair.fill(0);
                if let Some(a) = below {
                    let right_pos = pos - left_pos;
                    let right_n = total - left_n;
                    let weighted = (left_n / total) * gini(left_pos, left_n)
                        + (right_n / total) * gini(right_pos, right_n);
                    let gain = parent_gini - weighted;
                    // Zero-gain splits are allowed (XOR-style problems have
                    // no first-level gain); depth and the purity check bound
                    // the tree.
                    if best.map_or(gain >= -1e-12, |(_, _, g)| gain > g) {
                        best = Some((f, 0.5 * (a + value), gain));
                    }
                }
                left_n += f64::from(negatives + positives);
                left_pos += f64::from(positives);
                below = Some(value);
            }
        }

        let Some((feature, threshold, _)) = best else {
            return Node::Leaf { prob };
        };
        // A row goes left when its value is `<= threshold`. Levels ascend,
        // so that holds exactly for the levels below `cut`.
        let cut = self.table.levels[feature].partition_point(|&v| v <= threshold);
        let keys = self.table.keys(feature);
        let split = partition(rows, |i| (keys[i] as usize) < 2 * cut);
        if split == 0 || split == rows.len() {
            return Node::Leaf { prob };
        }
        let (left_rows, right_rows) = rows.split_at_mut(split);
        let left = Box::new(self.node(left_rows, depth + 1));
        let right = Box::new(self.node(right_rows, depth + 1));
        Node::Split {
            feature,
            threshold,
            left,
            right,
        }
    }
}

/// Move the rows for which `goes_left` holds to the front of `rows`, and
/// return how many there are.
fn partition(rows: &mut [usize], goes_left: impl Fn(usize) -> bool) -> usize {
    let mut split = 0;
    for j in 0..rows.len() {
        if goes_left(rows[j]) {
            rows.swap(split, j);
            split += 1;
        }
    }
    split
}

fn gini(pos: f64, total: f64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    let p = pos / total;
    2.0 * p * (1.0 - p)
}

/// The sort-based search the counting search replaced: the oracle that
/// `tree_matches_naive` and the forest's `forest_matches_naive` compare
/// against, node by node.
#[cfg(test)]
impl DecisionTree {
    /// Grow a tree on rows `idx` of `x` (repeats allowed) with `grow_naive`.
    pub(crate) fn fit_naive<R: Rng + ?Sized>(
        x: &[Vec<f64>],
        y: &[f64],
        idx: &[usize],
        options: TreeOptions,
        rng: &mut R,
    ) -> DecisionTree {
        DecisionTree {
            root: grow_naive(x, y, idx, 0, &options, rng),
            n_features: x[0].len(),
        }
    }

    /// The tree in pre-order: `(feature, threshold bits)` per split and
    /// `(usize::MAX, probability bits)` per leaf.
    pub(crate) fn node_bits(&self) -> Vec<(usize, u64)> {
        fn walk(node: &Node, out: &mut Vec<(usize, u64)>) {
            match node {
                Node::Leaf { prob } => out.push((usize::MAX, prob.to_bits())),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    out.push((*feature, threshold.to_bits()));
                    walk(left, out);
                    walk(right, out);
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.root, &mut out);
        out
    }
}

/// Sort each node's `(value, label)` pairs per candidate feature and sweep
/// the boundaries between distinct values.
#[cfg(test)]
fn grow_naive<R: Rng + ?Sized>(
    x: &[Vec<f64>],
    y: &[f64],
    idx: &[usize],
    depth: usize,
    options: &TreeOptions,
    rng: &mut R,
) -> Node {
    let total = idx.len() as f64;
    let pos: f64 = idx.iter().map(|&i| y[i]).sum();
    let prob = if total > 0.0 { pos / total } else { 0.5 };
    let pure = pos == 0.0 || pos == total;
    if depth >= options.max_depth || idx.len() < options.min_samples_split || pure {
        return Node::Leaf { prob };
    }

    let d = x[0].len();
    let mut features: Vec<usize> = (0..d).collect();
    if let Some(k) = options.max_features {
        features.shuffle(rng);
        features.truncate(k.max(1).min(d));
    }

    let parent_gini = gini(pos, total);
    let mut best: Option<(usize, f64, f64)> = None;
    let mut values: Vec<(f64, f64)> = Vec::with_capacity(idx.len());
    for &f in &features {
        values.clear();
        values.extend(idx.iter().map(|&i| (x[i][f], y[i])));
        values.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite features"));
        let mut left_pos = 0.0;
        let mut left_n = 0.0;
        for w in 0..values.len().saturating_sub(1) {
            left_pos += values[w].1;
            left_n += 1.0;
            if values[w].0 == values[w + 1].0 {
                continue;
            }
            let right_pos = pos - left_pos;
            let right_n = total - left_n;
            let weighted = (left_n / total) * gini(left_pos, left_n)
                + (right_n / total) * gini(right_pos, right_n);
            let gain = parent_gini - weighted;
            if best.map_or(gain >= -1e-12, |(_, _, g)| gain > g) {
                let threshold = 0.5 * (values[w].0 + values[w + 1].0);
                best = Some((f, threshold, gain));
            }
        }
    }

    match best {
        None => Node::Leaf { prob },
        Some((feature, threshold, _)) => {
            let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
                idx.iter().partition(|&&i| x[i][feature] <= threshold);
            if left_idx.is_empty() || right_idx.is_empty() {
                return Node::Leaf { prob };
            }
            Node::Split {
                feature,
                threshold,
                left: Box::new(grow_naive(x, y, &left_idx, depth + 1, options, rng)),
                right: Box::new(grow_naive(x, y, &right_idx, depth + 1, options, rng)),
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn learns_a_threshold_rule() {
        let x: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..200).map(|i| f64::from(i >= 100)).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let tree = DecisionTree::fit(&x, &y, TreeOptions::default(), &mut rng).unwrap();
        assert!(tree.predict_proba_row(&[5.0]) < 0.1);
        assert!(tree.predict_proba_row(&[150.0]) > 0.9);
    }

    #[test]
    fn learns_xor_with_depth() {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..400 {
            let a = f64::from(i % 2 == 0);
            let b = f64::from((i / 2) % 2 == 0);
            x.push(vec![a, b]);
            y.push(f64::from((a != b) as u8));
        }
        let mut rng = StdRng::seed_from_u64(2);
        let tree = DecisionTree::fit(&x, &y, TreeOptions::default(), &mut rng).unwrap();
        assert!(tree.predict_proba_row(&[0.0, 1.0]) > 0.9);
        assert!(tree.predict_proba_row(&[1.0, 1.0]) < 0.1);
    }

    #[test]
    fn respects_max_depth_one() {
        let x: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..100).map(|i| f64::from(i >= 50)).collect();
        let mut rng = StdRng::seed_from_u64(3);
        let opts = TreeOptions {
            max_depth: 1,
            ..TreeOptions::default()
        };
        let tree = DecisionTree::fit(&x, &y, opts, &mut rng).unwrap();
        // A stump still separates this data.
        assert!(tree.predict_proba_row(&[0.0]) < 0.2);
        assert!(tree.predict_proba_row(&[99.0]) > 0.8);
    }

    #[test]
    fn validation_errors() {
        let mut rng = StdRng::seed_from_u64(4);
        assert!(DecisionTree::fit(&[], &[], TreeOptions::default(), &mut rng).is_err());
        assert!(DecisionTree::fit(&[vec![1.0]], &[2.0], TreeOptions::default(), &mut rng).is_err());
    }

    #[test]
    fn non_finite_features_are_an_error() {
        let mut rng = StdRng::seed_from_u64(5);
        let y = [0.0, 1.0, 1.0];
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let x = vec![vec![0.0, 1.0], vec![1.0, bad], vec![2.0, 0.0]];
            assert_eq!(
                DecisionTree::fit(&x, &y, TreeOptions::default(), &mut rng).unwrap_err(),
                MlError::NonFiniteFeature { row: 1, feature: 1 }
            );
        }
    }

    /// Test data: a label with a planted signal and features of kind `0`
    /// (integer codes with 1–10 levels, as jeong2021's survey codes), `1`
    /// (continuous), `2` (a constant) or `3` (a few values spaced one or two
    /// ulps apart, plus signed zeros: heavy ties and midpoints that round
    /// onto a level).
    pub(crate) fn mixed_data(n: usize, kinds: &[u8], seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cards: Vec<u32> = kinds.iter().map(|_| rng.gen_range(1..=10)).collect();
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let latent: f64 = rng.gen::<f64>() - 0.5;
            let row: Vec<f64> = kinds
                .iter()
                .zip(&cards)
                .map(|(&kind, &card)| {
                    let noisy = latent + 0.5 * (rng.gen::<f64>() - 0.5);
                    match kind {
                        0 => (((noisy + 0.75) * f64::from(card)) as i64)
                            .clamp(0, i64::from(card) - 1) as f64,
                        1 => noisy * 3.7,
                        2 => 4.0,
                        _ => match rng.gen_range(0..5u32) {
                            0 => -0.0,
                            1 => 0.0,
                            k => 1.0 + f64::from(k) * f64::EPSILON,
                        },
                    }
                })
                .collect();
            x.push(row);
            y.push(f64::from(latent + 0.2 * (rng.gen::<f64>() - 0.5) > 0.0));
        }
        (x, y)
    }

    /// Fit with the counting search and with the oracle from one seed, and
    /// require equal trees, predictions and RNG states, bit for bit.
    fn assert_matches_naive(x: &[Vec<f64>], y: &[f64], options: TreeOptions, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rng_naive = StdRng::seed_from_u64(seed);
        let tree = DecisionTree::fit(x, y, options, &mut rng).unwrap();
        let all: Vec<usize> = (0..x.len()).collect();
        let naive = DecisionTree::fit_naive(x, y, &all, options, &mut rng_naive);
        assert_eq!(tree.node_bits(), naive.node_bits(), "{options:?}");
        let bits = |p: Vec<f64>| p.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(tree.predict_proba(x)), bits(naive.predict_proba(x)));
        assert_eq!(rng.next_u64(), rng_naive.next_u64(), "{options:?}");
    }

    #[test]
    fn tree_matches_naive() {
        let cases: [(&[u8], usize); 5] = [
            (&[0; 12], 1_200),
            (&[0, 0, 1, 0, 2, 0], 800),
            (&[1, 1], 300),
            (&[3, 0, 3], 500),
            (&[2, 2, 2], 50),
        ];
        for (seed, (kinds, n)) in cases.into_iter().enumerate() {
            let (x, y) = mixed_data(n, kinds, seed as u64);
            for max_depth in [1, 12] {
                for min_samples_split in [2, 10] {
                    for max_features in [None, Some(1), Some(3)] {
                        let options = TreeOptions {
                            max_depth,
                            min_samples_split,
                            max_features,
                        };
                        assert_matches_naive(&x, &y, options, 40 + seed as u64);
                    }
                }
            }
        }
    }

    /// Feature kinds from one draw (see `mixed_data`).
    pub(crate) fn kinds(d: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..d).map(|_| rng.gen_range(0..4)).collect()
    }

    proptest! {
        #[test]
        fn tree_matches_naive_on_random_matrices(
            (n, d) in (1usize..=60, 1usize..=5),
            (max_depth, min_samples_split, features) in (1usize..=12, 0usize..=8, 0usize..=6),
            seed in 0u64..u64::MAX,
        ) {
            let (x, y) = mixed_data(n, &kinds(d, seed), seed);
            let options = TreeOptions {
                max_depth,
                min_samples_split,
                max_features: features.checked_sub(1),
            };
            assert_matches_naive(&x, &y, options, seed ^ 1);
        }
    }
}
