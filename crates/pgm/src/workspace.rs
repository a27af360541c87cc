//! Reusable scratch arena for the calibration hot path.
//!
//! [`CalibrationWorkspace`] owns every buffer and precomputed stride table
//! that belief propagation needs for a given junction tree: the BFS
//! schedule, one separator-scoped message factor per directed edge, one
//! stride plan per edge side (used both to broadcast a message onto its
//! clique and to marginalize a clique product onto its separator), and
//! clique-sized scratch slices. Built once (lazily, on the first
//! [`crate::inference::calibrate_into`] call), then reused across every
//! calibration of the same tree — which is what lets the 120-iteration
//! mirror-descent loop in [`crate::estimation::estimate`] run with **zero
//! factor-buffer allocations after warm-up** (pinned by the allocation
//! counter test in `tests/calibration_determinism.rs`).

use crate::error::Result;
use crate::factor::{note_buffer_alloc, Factor, StridePlan};
use crate::junction_tree::JunctionTree;

/// Scratch arena bound to one junction-tree topology (rebuilt automatically
/// when handed a different tree).
#[derive(Debug, Default)]
pub struct CalibrationWorkspace {
    /// Fingerprint of the tree the buffers were built for (0 = unbuilt).
    fingerprint: u64,
    /// BFS visit order, parents before children, across all components.
    pub(crate) order: Vec<usize>,
    /// `parent[c] = (parent clique, edge index)` for non-root cliques.
    pub(crate) parent: Vec<Option<(usize, usize)>>,
    /// Message factor per directed slot: `2e` for low→high clique index,
    /// `2e + 1` for high→low (the classic Shafer–Shenoy layout).
    pub(crate) messages: Vec<Factor>,
    /// Whether a directed slot has been computed this calibration.
    pub(crate) filled: Vec<bool>,
    /// Per edge `(i, j)`: stride plans embedding the separator into clique
    /// `i` resp. `j`. One plan serves both kernel directions (broadcast a
    /// message into the clique; marginalize the clique onto the separator).
    pub(crate) plans: Vec<(StridePlan, StridePlan)>,
    /// Scratch sized to the largest clique (message products).
    pub(crate) clique_scratch: Vec<f64>,
    /// Max/sum scratch for strided marginalization, sized to the largest
    /// clique (safe upper bound for separators and measurement scopes).
    pub(crate) marg_maxes: Vec<f64>,
    pub(crate) marg_sums: Vec<f64>,
    /// Flat max/sum arena for the estimation loss pass: one disjoint
    /// `(maxes, sums)` pair per measurement target, so targets can be
    /// marginalized concurrently (and the sequential path replays exactly
    /// the same per-slice operations). Sized by `estimate_with` during
    /// warm-up; grow-only, so AIM's repeated refits reuse one arena.
    pub(crate) target_scratch: Vec<f64>,
}

/// Cheap structural fingerprint of a junction tree (FNV-1a over cliques,
/// shapes and edges). Collisions would only ever reuse wrong-sized buffers
/// across *different* trees handed to one workspace, and every buffer is
/// shape-checked in debug builds; equal trees always match.
fn tree_fingerprint(tree: &JunctionTree) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(tree.cliques().len() as u64);
    for (i, clique) in tree.cliques().iter().enumerate() {
        eat(clique.len() as u64);
        for (&a, &s) in clique.iter().zip(tree.clique_shape(i)) {
            eat(a as u64);
            eat(s as u64);
        }
    }
    eat(tree.edges().len() as u64);
    for (i, j, sep) in tree.edges() {
        eat(*i as u64);
        eat(*j as u64);
        eat(sep.len() as u64);
        for &a in sep {
            eat(a as u64);
        }
    }
    h.max(1) // reserve 0 for "unbuilt"
}

impl CalibrationWorkspace {
    /// An empty workspace; buffers are built on first use.
    pub fn new() -> CalibrationWorkspace {
        CalibrationWorkspace::default()
    }

    /// Message slot for `edge` when sent *from* clique `from`.
    #[inline]
    pub(crate) fn slot(tree: &JunctionTree, edge: usize, from: usize) -> usize {
        let (i, _, _) = tree.edges()[edge];
        if from == i {
            2 * edge
        } else {
            2 * edge + 1
        }
    }

    /// The separator↔clique stride plan for `edge` on the `clique` side.
    #[inline]
    pub(crate) fn plan_for(&self, edge: usize, clique: usize, tree: &JunctionTree) -> &StridePlan {
        let (i, _, _) = tree.edges()[edge];
        if clique == i {
            &self.plans[edge].0
        } else {
            &self.plans[edge].1
        }
    }

    /// Rebuild buffers if `tree` differs from the one this workspace was
    /// built for; always resets the per-calibration message flags.
    ///
    /// # Errors
    /// Propagates factor-construction errors (cannot happen for trees built
    /// by [`JunctionTree::build`]).
    pub(crate) fn ensure(&mut self, tree: &JunctionTree) -> Result<()> {
        let fp = tree_fingerprint(tree);
        if self.fingerprint == fp {
            self.filled.fill(false);
            return Ok(());
        }

        let k = tree.cliques().len();

        // BFS order per component; parent[c] = (parent clique, edge index).
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

        let mut messages = Vec::with_capacity(2 * tree.edges().len());
        let mut plans = Vec::with_capacity(tree.edges().len());
        for (i, j, sep) in tree.edges() {
            let sep_shape: Vec<usize> = sep.iter().map(|&a| tree.domain_shape()[a]).collect();
            let plan_i =
                StridePlan::embed(sep, &sep_shape, &tree.cliques()[*i], tree.clique_shape(*i))?;
            let plan_j =
                StridePlan::embed(sep, &sep_shape, &tree.cliques()[*j], tree.clique_shape(*j))?;
            plans.push((plan_i, plan_j));
            // Two directed slots per edge, both separator-scoped.
            messages.push(Factor::uniform(sep.clone(), sep_shape.clone())?);
            messages.push(Factor::uniform(sep.clone(), sep_shape)?);
        }

        let max_clique_cells = tree.max_clique_cells().max(1);
        note_buffer_alloc(); // clique_scratch
        note_buffer_alloc(); // marg_maxes
        note_buffer_alloc(); // marg_sums

        self.fingerprint = fp;
        self.order = order;
        self.parent = parent;
        self.filled = vec![false; messages.len()];
        self.messages = messages;
        self.plans = plans;
        self.clique_scratch = vec![0.0; max_clique_cells];
        self.marg_maxes = vec![0.0; max_clique_cells];
        self.marg_sums = vec![0.0; max_clique_cells];
        Ok(())
    }

    /// Grow the per-target marginalization arena to at least `len` floats
    /// (2 × total measurement cells for the current fit). A no-op once the
    /// arena is large enough, so the mirror-descent loop stays
    /// allocation-free after warm-up.
    pub(crate) fn ensure_target_scratch(&mut self, len: usize) {
        if self.target_scratch.len() < len {
            note_buffer_alloc();
            self.target_scratch.resize(len, 0.0);
        }
    }
}
