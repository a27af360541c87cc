//! Belief-propagation calibration on a junction tree (Shafer–Shenoy).
//!
//! Given one log-potential per clique, calibration computes the normalized
//! clique marginals of the implied Markov random field
//! `p(x) ∝ Π_c exp(θ_c(x_c))` with two sweeps of message passing per tree
//! component.
//!
//! The production path is [`calibrate_into`]: it runs entirely inside the
//! [`CalibrationWorkspace`] built for the tree — message products
//! accumulate in a clique-sized scratch slice via precomputed stride plans,
//! marginalization streams into separator buffers, and beliefs are written
//! into a caller-owned [`CalibratedTree`] — so repeated calibrations of the
//! tree perform no factor-buffer allocations. The original
//! allocate-per-operation implementation is retained as [`calibrate_naive`]
//! (the differential-testing oracle) and produces **bit-identical** beliefs:
//! both paths execute the same floating-point operations in the same order
//! per cell.

use crate::error::{PgmError, Result};
use crate::factor::{bcast_add, marg_finish, marg_max, marg_sum, normalize_log_values, Factor};
use crate::junction_tree::JunctionTree;
use crate::workspace::CalibrationWorkspace;

/// A calibrated junction tree: per-clique normalized log-marginals that
/// agree on every separator.
#[derive(Debug, Clone, Default)]
pub struct CalibratedTree {
    /// Normalized belief (log-probability table) per clique.
    pub beliefs: Vec<Factor>,
}

impl CalibratedTree {
    /// Normalized marginal probabilities over `attrs` (must be inside one
    /// clique).
    ///
    /// # Errors
    /// [`PgmError::UncoveredMeasurement`] if no clique contains `attrs`.
    pub fn marginal(&self, tree: &JunctionTree, attrs: &[usize]) -> Result<Vec<f64>> {
        let clique =
            tree.containing_clique(attrs)
                .ok_or_else(|| PgmError::UncoveredMeasurement {
                    attrs: attrs.to_vec(),
                })?;
        let m = self.beliefs[clique].marginalize_keep(attrs)?;
        Ok(m.probabilities())
    }
}

/// Check that `potentials[i]` has exactly clique `i`'s scope.
fn validate_potentials(tree: &JunctionTree, potentials: &[Factor]) -> Result<()> {
    if potentials.len() != tree.cliques().len() {
        return Err(PgmError::ScopeMismatch);
    }
    for (i, p) in potentials.iter().enumerate() {
        if p.attrs() != tree.cliques()[i].as_slice() {
            return Err(PgmError::ScopeMismatch);
        }
    }
    Ok(())
}

/// Run two-pass message passing and return the calibrated beliefs.
///
/// One-shot convenience over [`calibrate_into`] (builds a fresh
/// workspace; hot loops should hold a [`CalibrationWorkspace`] and call
/// [`calibrate_into`] directly).
///
/// `potentials[i]` must have exactly clique `i`'s scope.
pub fn calibrate(tree: &JunctionTree, potentials: &[Factor]) -> Result<CalibratedTree> {
    let mut ws = CalibrationWorkspace::new(tree)?;
    let mut out = CalibratedTree::default();
    calibrate_into(potentials, &mut ws, &mut out)?;
    Ok(out)
}

/// Two-pass message passing over the workspace's tree, into the workspace
/// and a caller-owned output. Only the first call into a fresh `out` sizes
/// its beliefs; after that, calls allocate nothing.
///
/// # Errors
/// [`PgmError::ScopeMismatch`] when `potentials` don't match the cliques.
pub fn calibrate_into(
    potentials: &[Factor],
    ws: &mut CalibrationWorkspace,
    out: &mut CalibratedTree,
) -> Result<()> {
    let tree = ws.tree;
    validate_potentials(tree, potentials)?;
    ws.filled.fill(false);

    // Upward pass: leaves to root (reverse BFS order).
    for idx in (0..ws.order.len()).rev() {
        let c = ws.order[idx];
        if let Some((p, e)) = ws.parent[c] {
            compute_message_into(potentials, ws, c, p, e);
        }
    }
    // Downward pass: root to leaves (BFS order).
    for idx in 0..ws.order.len() {
        let c = ws.order[idx];
        if let Some((p, e)) = ws.parent[c] {
            compute_message_into(potentials, ws, p, c, e);
        }
    }

    // Beliefs: potential × all incoming messages, normalized.
    ensure_beliefs(out, tree)?;
    for (c, potential) in potentials.iter().enumerate() {
        let belief = &mut out.beliefs[c];
        belief.copy_values_from(potential);
        for &(nbr, e) in tree.neighbors(c) {
            let slot = CalibrationWorkspace::slot(tree, e, nbr);
            debug_assert!(ws.filled[slot], "two-pass schedule fills all messages");
            let plan = ws.plan_for(e, c);
            bcast_add(
                belief.log_values_mut(),
                ws.messages[slot].log_values(),
                plan,
            );
        }
        belief.normalize();
    }
    Ok(())
}

/// Size `out.beliefs` to the tree's cliques, reusing buffers whose scope
/// already matches.
fn ensure_beliefs(out: &mut CalibratedTree, tree: &JunctionTree) -> Result<()> {
    let k = tree.cliques().len();
    out.beliefs.truncate(k);
    for c in 0..k {
        let matches = out
            .beliefs
            .get(c)
            .is_some_and(|b| b.attrs() == tree.cliques()[c] && b.shape() == tree.clique_shape(c));
        if !matches {
            let fresh = Factor::uniform(tree.cliques()[c].clone(), tree.clique_shape(c).to_vec())?;
            if c < out.beliefs.len() {
                out.beliefs[c] = fresh;
            } else {
                out.beliefs.push(fresh);
            }
        }
    }
    Ok(())
}

/// Message from clique `from` to clique `to` over edge `e`: marginalize
/// (potential(from) × incoming messages except from `to`) onto the
/// separator, entirely in workspace scratch. Mirrors the naive
/// `compute_message` operation-for-operation.
fn compute_message_into(
    potentials: &[Factor],
    ws: &mut CalibrationWorkspace,
    from: usize,
    to: usize,
    e: usize,
) {
    let tree = ws.tree;
    let cells = potentials[from].n_cells();
    let product = &mut ws.clique_scratch[..cells];
    product.copy_from_slice(potentials[from].log_values());
    for &(nbr, edge) in tree.neighbors(from) {
        if nbr == to && edge == e {
            continue;
        }
        let slot = CalibrationWorkspace::slot(tree, edge, nbr);
        if ws.filled[slot] {
            let (i, _, _) = tree.edges()[edge];
            let plan = if from == i {
                &ws.plans[edge].0
            } else {
                &ws.plans[edge].1
            };
            bcast_add(product, ws.messages[slot].log_values(), plan);
        }
    }

    let out_slot = CalibrationWorkspace::slot(tree, e, from);
    let (i, _, _) = tree.edges()[e];
    let plan = if from == i {
        &ws.plans[e].0
    } else {
        &ws.plans[e].1
    };
    let sep_cells = plan.small_cells();
    let msg = ws.messages[out_slot].log_values_mut();
    if plan.is_identity() {
        // Degenerate separator == clique (cannot arise from maximal
        // cliques, but keep the naive identity fast path bit-for-bit).
        msg.copy_from_slice(product);
    } else {
        let maxes = &mut ws.marg_maxes[..sep_cells];
        let sums = &mut ws.marg_sums[..sep_cells];
        maxes.fill(f64::NEG_INFINITY);
        sums.fill(0.0);
        marg_max(product, maxes, plan);
        marg_sum(product, maxes, sums, plan);
        marg_finish(maxes, sums, msg);
    }
    // Rescale messages to avoid drift; beliefs are normalized at the end.
    normalize_log_values(msg);
    ws.filled[out_slot] = true;
}

// ---------------------------------------------------------------------------
// Naive reference calibration — the differential-testing oracle.
// ---------------------------------------------------------------------------

/// The original allocate-per-operation calibration, built on the naive
/// factor algebra. Retained as the bit-identity oracle for
/// [`calibrate_into`] (see `tests/calibration_determinism.rs`).
pub fn calibrate_naive(tree: &JunctionTree, potentials: &[Factor]) -> Result<CalibratedTree> {
    validate_potentials(tree, potentials)?;
    let k = tree.cliques().len();

    // BFS order per component; parent[i] = (parent clique, edge index).
    let mut parent: Vec<Option<(usize, usize)>> = vec![None; k];
    let mut order: Vec<usize> = Vec::with_capacity(k);
    let mut seen = vec![false; k];
    for root in 0..k {
        if seen[root] {
            continue;
        }
        seen[root] = true;
        let mut queue = std::collections::VecDeque::from([root]);
        while let Some(c) = queue.pop_front() {
            order.push(c);
            for &(nbr, e) in tree.neighbors(c) {
                if !seen[nbr] {
                    seen[nbr] = true;
                    parent[nbr] = Some((c, e));
                    queue.push_back(nbr);
                }
            }
        }
    }

    let n_edges = tree.edges().len();
    let mut messages: Vec<Option<Factor>> = vec![None; 2 * n_edges];

    // Upward pass: leaves to root (reverse BFS order).
    for &c in order.iter().rev() {
        if let Some((p, e)) = parent[c] {
            let msg = naive_message(tree, potentials, &messages, c, p, e)?;
            messages[CalibrationWorkspace::slot(tree, e, c)] = Some(msg);
        }
    }
    // Downward pass: root to leaves (BFS order).
    for &c in order.iter() {
        if let Some((p, e)) = parent[c] {
            let msg = naive_message(tree, potentials, &messages, p, c, e)?;
            messages[CalibrationWorkspace::slot(tree, e, p)] = Some(msg);
        }
    }

    // Beliefs: potential × all incoming messages, normalized.
    let mut beliefs = Vec::with_capacity(k);
    for c in 0..k {
        let mut belief = potentials[c].clone();
        for &(nbr, e) in tree.neighbors(c) {
            let incoming = messages[CalibrationWorkspace::slot(tree, e, nbr)]
                .as_ref()
                .expect("two-pass schedule fills all messages");
            belief = belief.naive_multiply(incoming)?;
        }
        belief.normalize();
        beliefs.push(belief);
    }
    Ok(CalibratedTree { beliefs })
}

fn naive_message(
    tree: &JunctionTree,
    potentials: &[Factor],
    messages: &[Option<Factor>],
    from: usize,
    to: usize,
    e: usize,
) -> Result<Factor> {
    let mut product = potentials[from].clone();
    for &(nbr, edge) in tree.neighbors(from) {
        if nbr == to && edge == e {
            continue;
        }
        if let Some(msg) = messages[CalibrationWorkspace::slot(tree, edge, nbr)].as_ref() {
            product = product.naive_multiply(msg)?;
        }
    }
    let (_, _, sep) = &tree.edges()[e];
    let mut msg = product.naive_marginalize_keep(sep)?;
    // Rescale messages to avoid drift; beliefs are normalized at the end.
    msg.normalize();
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force joint distribution from clique potentials.
    fn brute_force_joint(shape: &[usize], cliques: &[Vec<usize>], pots: &[Factor]) -> Vec<f64> {
        let cells: usize = shape.iter().product();
        let strides: Vec<usize> = {
            let mut s = vec![1; shape.len()];
            for i in (0..shape.len() - 1).rev() {
                s[i] = s[i + 1] * shape[i + 1];
            }
            s
        };
        let mut joint = vec![0.0f64; cells];
        for (idx, slot) in joint.iter_mut().enumerate() {
            let codes: Vec<usize> = (0..shape.len())
                .map(|a| (idx / strides[a]) % shape[a])
                .collect();
            let mut log_p = 0.0;
            for (clique, pot) in cliques.iter().zip(pots) {
                let cs: Vec<usize> = clique
                    .iter()
                    .map(|&a| pot.shape()[clique.iter().position(|&x| x == a).unwrap()])
                    .collect();
                let cstr = {
                    let mut s = vec![1; cs.len()];
                    for i in (0..cs.len().saturating_sub(1)).rev() {
                        s[i] = s[i + 1] * cs[i + 1];
                    }
                    s
                };
                let mut cidx = 0;
                for (k, &a) in clique.iter().enumerate() {
                    cidx += codes[a] * cstr[k];
                }
                log_p += pot.log_values()[cidx];
            }
            *slot = log_p.exp();
        }
        let z: f64 = joint.iter().sum();
        joint.iter().map(|v| v / z).collect()
    }

    #[test]
    fn calibration_matches_brute_force_on_chain() {
        let shape = vec![2, 3, 2];
        let sets = vec![vec![0, 1], vec![1, 2]];
        let tree = JunctionTree::build(&shape, &sets, 1 << 20).unwrap();
        // Arbitrary potentials per clique (deterministic pattern).
        let pots: Vec<Factor> = tree
            .cliques()
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let cshape: Vec<usize> = c.iter().map(|&a| shape[a]).collect();
                let cells: usize = cshape.iter().product();
                let vals: Vec<f64> = (0..cells)
                    .map(|k| ((k as f64) * 0.37 + i as f64 * 0.11).sin() * 0.8)
                    .collect();
                Factor::from_log_values(c.clone(), cshape, vals).unwrap()
            })
            .collect();
        let cal = calibrate(&tree, &pots).unwrap();
        let joint = brute_force_joint(&shape, tree.cliques(), &pots);

        // Check the pair marginal (1,2) against brute force.
        let got = cal.marginal(&tree, &[1, 2]).unwrap();
        let mut expect = vec![0.0; 6];
        for (idx, &p) in joint.iter().enumerate() {
            let c1 = (idx / 2) % 3;
            let c2 = idx % 2;
            expect[c1 * 2 + c2] += p;
        }
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-9, "{got:?} vs {expect:?}");
        }
        // And a single marginal through a different clique.
        let got0 = cal.marginal(&tree, &[0]).unwrap();
        let mut expect0 = vec![0.0; 2];
        for (idx, &p) in joint.iter().enumerate() {
            expect0[idx / 6] += p;
        }
        for (g, e) in got0.iter().zip(&expect0) {
            assert!((g - e).abs() < 1e-9);
        }
    }

    #[test]
    fn separator_consistency() {
        let shape = vec![2, 2, 2, 2];
        let sets = vec![vec![0, 1], vec![1, 2], vec![2, 3]];
        let tree = JunctionTree::build(&shape, &sets, 1 << 20).unwrap();
        let pots: Vec<Factor> = tree
            .cliques()
            .iter()
            .map(|c| {
                let cshape: Vec<usize> = c.iter().map(|&a| shape[a]).collect();
                let cells: usize = cshape.iter().product();
                let vals: Vec<f64> = (0..cells).map(|k| (k as f64 * 0.61).cos()).collect();
                Factor::from_log_values(c.clone(), cshape, vals).unwrap()
            })
            .collect();
        let cal = calibrate(&tree, &pots).unwrap();
        // Neighboring beliefs must agree on their separator marginals.
        for (i, j, sep) in tree.edges() {
            let mi = cal.beliefs[*i]
                .marginalize_keep(sep)
                .unwrap()
                .probabilities();
            let mj = cal.beliefs[*j]
                .marginalize_keep(sep)
                .unwrap()
                .probabilities();
            for (a, b) in mi.iter().zip(&mj) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn forest_components_are_independent() {
        // Two disconnected pairs.
        let shape = vec![2, 2, 3, 3];
        let sets = vec![vec![0, 1], vec![2, 3]];
        let tree = JunctionTree::build(&shape, &sets, 1 << 20).unwrap();
        let pots: Vec<Factor> = tree
            .cliques()
            .iter()
            .map(|c| {
                let cshape: Vec<usize> = c.iter().map(|&a| shape[a]).collect();
                Factor::uniform(c.clone(), cshape).unwrap()
            })
            .collect();
        let cal = calibrate(&tree, &pots).unwrap();
        let m = cal.marginal(&tree, &[0]).unwrap();
        assert!((m[0] - 0.5).abs() < 1e-12);
        let m2 = cal.marginal(&tree, &[2]).unwrap();
        assert!((m2[0] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn workspace_reuse_is_identical_to_fresh_calibration() {
        let shape = vec![2, 3, 2, 2];
        let sets = vec![vec![0, 1], vec![1, 2], vec![2, 3]];
        let tree = JunctionTree::build(&shape, &sets, 1 << 20).unwrap();
        let pots = |seed: f64| -> Vec<Factor> {
            tree.cliques()
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let cshape: Vec<usize> = c.iter().map(|&a| shape[a]).collect();
                    let cells: usize = cshape.iter().product();
                    let vals: Vec<f64> = (0..cells)
                        .map(|k| ((k as f64) * seed + i as f64 * 0.31).sin())
                        .collect();
                    Factor::from_log_values(c.clone(), cshape, vals).unwrap()
                })
                .collect()
        };
        let mut ws = CalibrationWorkspace::new(&tree).unwrap();
        let mut out = CalibratedTree::default();
        for seed in [0.37, 0.59, 0.83] {
            let p = pots(seed);
            calibrate_into(&p, &mut ws, &mut out).unwrap();
            let fresh = calibrate(&tree, &p).unwrap();
            for (a, b) in out.beliefs.iter().zip(&fresh.beliefs) {
                assert_eq!(a, b, "workspace reuse drifted at seed {seed}");
            }
        }
    }
}
