//! Scratch arena for the calibration hot path.
//!
//! [`CalibrationWorkspace`] borrows the junction tree it serves and owns
//! every buffer and precomputed stride plan that belief propagation needs
//! for it: the BFS schedule, one separator-scoped message factor per
//! directed edge, one stride plan per edge side (used both to broadcast a
//! message onto its clique and to marginalize a clique product onto its
//! separator), and clique-sized scratch slices. Built once per fit, then
//! reused by every calibration of that tree — which is what lets the
//! mirror-descent loop in [`crate::estimation::estimate`] run with **zero
//! factor-buffer allocations after warm-up** (pinned by the allocation
//! counter test in `tests/calibration_determinism.rs`). Because the
//! workspace holds its tree, [`crate::inference::calibrate_into`] cannot be
//! handed buffers planned for another one.

use crate::error::Result;
use crate::factor::{note_buffer_alloc, Factor, StridePlan};
use crate::junction_tree::JunctionTree;

/// Scratch arena bound to one junction tree.
#[derive(Debug)]
pub struct CalibrationWorkspace<'t> {
    /// The tree every buffer below was planned for.
    pub(crate) tree: &'t JunctionTree,
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
    /// clique (safe upper bound for every separator).
    pub(crate) marg_maxes: Vec<f64>,
    pub(crate) marg_sums: Vec<f64>,
}

impl<'t> CalibrationWorkspace<'t> {
    /// Plan and size every buffer for calibrating `tree`.
    ///
    /// # Errors
    /// Propagates factor-construction errors (cannot happen for trees built
    /// by [`JunctionTree::build`]).
    pub fn new(tree: &'t JunctionTree) -> Result<CalibrationWorkspace<'t>> {
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

        Ok(CalibrationWorkspace {
            tree,
            order,
            parent,
            filled: vec![false; messages.len()],
            messages,
            plans,
            clique_scratch: vec![0.0; max_clique_cells],
            marg_maxes: vec![0.0; max_clique_cells],
            marg_sums: vec![0.0; max_clique_cells],
        })
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
    pub(crate) fn plan_for(&self, edge: usize, clique: usize) -> &StridePlan {
        let (i, _, _) = self.tree.edges()[edge];
        if clique == i {
            &self.plans[edge].0
        } else {
            &self.plans[edge].1
        }
    }
}
