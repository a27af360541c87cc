//! Parallel exponential-mechanism candidate scoring with a pinned
//! deterministic reduction order.
//!
//! AIM re-scores its whole workload every round and MST scores all O(d²)
//! pairwise edges once; after PR 4 both loops are served from the
//! [`MarginalEngine`](synrd_data::MarginalEngine) cache, so each score is a
//! pure read of a cached marginal plus some per-candidate arithmetic —
//! embarrassingly parallel. [`map_scores`] fans the candidates out with
//! rayon and collects the results *in candidate order* (the reduction order
//! the exponential mechanism consumes), so the parallel pass is
//! bit-identical to the sequential one: each candidate's arithmetic is
//! untouched and independent, and order-preserving collection leaves
//! nothing for the schedule to perturb (pinned by
//! `tests/parallel_scoring.rs`).

use crate::error::Result;
use rayon::prelude::*;
use synrd_data::Marginal;

/// Map `score` over `items` into a score vector in item order — in
/// parallel when `parallel` is set. Either way the output is collected in
/// the pinned item order, so both paths produce bit-identical vectors.
pub fn map_scores<T, F>(items: &[T], parallel: bool, score: F) -> Result<Vec<f64>>
where
    T: Sync,
    F: Fn(&T) -> Result<f64> + Sync,
{
    if parallel {
        let results: Vec<Result<f64>> = items.par_iter().map(score).collect();
        results.into_iter().collect()
    } else {
        items.iter().map(score).collect()
    }
}

/// Whether a scoring pass over `candidates` items should fan out across
/// threads (tiny pools lose more to thread spawn than they gain).
pub(crate) fn parallel_scoring(candidates: usize) -> bool {
    candidates >= 16 && rayon::current_num_threads() > 1
}

/// AIM's candidate utility: `L1 model error − expected noise cost` for one
/// workload marginal, exactly as the round loop computed it inline (same op
/// order, so scores are bit-identical wherever computed). Every workload
/// query weighs 1.
pub fn aim_candidate_score(true_counts: &Marginal, model_probs: &[f64], sigma_next: f64) -> f64 {
    let n = true_counts.total();
    let l1: f64 = true_counts
        .counts()
        .iter()
        .zip(model_probs)
        .map(|(&c, &p)| (c - n * p).abs())
        .sum();
    let noise_cost =
        (2.0 / std::f64::consts::PI).sqrt() * sigma_next * true_counts.n_cells() as f64;
    l1 - noise_cost
}

/// MST's edge score: L1 gap between the true pair joint and the
/// independent approximation implied by the (noisy, already-paid-for)
/// one-way marginals `pa` ⊗ `pb`.
pub fn mst_edge_score(joint: &Marginal, pa: &[f64], pb: &[f64], n: f64) -> f64 {
    let card_b = joint.shape()[1];
    let mut score = 0.0;
    for (idx, &c) in joint.counts().iter().enumerate() {
        score += (c - n * pa[idx / card_b] * pb[idx % card_b]).abs();
    }
    score
}
