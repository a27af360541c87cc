//! Batched, clique-major ancestral sampling from a calibrated junction tree,
//! and the row-generation harness every synthesizer samples through.
//!
//! The sampler walks each tree component from a root clique: the root's
//! joint is sampled directly, each child clique is then sampled conditioned
//! on the separator codes already fixed by its parent. Conditional
//! cumulative tables are precomputed per clique at construction.
//!
//! Row generation is **clique-major**: all `(row, clique)` uniforms are
//! pre-drawn from the caller's RNG in the exact row-major order the per-row
//! sampler consumes them (so outputs are bit-identical to the retained
//! per-row path), then one clique is resolved at a time across every row —
//! rows are grouped by separator configuration so each group's draws search
//! the same cumulative slice back to back, and the chosen cell's attribute
//! codes come from a pre-decoded table instead of a per-draw div/mod chain.
//!
//! [`assemble_chunks`] is the one harness that runs a generation pass: it
//! decides whether the pass fans out across threads, counts its rows in
//! [`rows_sampled`], resolves row ranges through the caller's chunk sampler
//! and stitches the chunks' columns in chunk order. `TreeSampler` and the
//! `synrd-synth` samplers (GEM, PrivBayes, PATE-CTGAN) all pre-draw their
//! randomness and hand it to the harness; each chunk reads integer-indexed
//! slices of it, so the parallel pass is bit-identical to the sequential
//! one (each row depends only on its own draws).
//!
//! The original per-row implementation is retained as [`NaiveSampler`],
//! the differential-testing oracle (`tests/sampling_equivalence.rs` pins
//! bit-identity on random trees). Both samplers share one per-clique build
//! step that groups cells by separator configuration; `TreeSampler`
//! flattens each clique's groups as soon as they are built, so only the
//! oracle holds them.

use crate::error::Result;
use crate::estimation::FittedModel;
use crate::factor::{note_buffer_alloc, strides_of};
use crate::junction_tree::JunctionTree;
use rand::Rng;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of synthetic rows generated by [`assemble_chunks`]
/// passes (the sampling-side mirror of the grid driver's fit counter and
/// the marginal engine's counting counter).
static ROWS_SAMPLED: AtomicU64 = AtomicU64::new(0);

/// Total synthetic rows generated by batched sampling passes in this
/// process. Purely observational, like [`crate::factor_buffer_allocs`]:
/// tests read it before and after a sampling call to prove the batched
/// path (and not a hidden per-row fallback) produced the rows.
pub fn rows_sampled() -> u64 {
    ROWS_SAMPLED.load(Ordering::Relaxed)
}

/// Process-wide count of [`TreeSampler`] constructions (every path: from a
/// fitted model and the test-only table constructor).
static SAMPLERS_BUILT: AtomicU64 = AtomicU64::new(0);

/// Total `TreeSampler` constructions in this process. Observational, like
/// [`rows_sampled`]: the fitted-state sampler cache is proven by reading
/// this before and after repeated `sample` calls — flattening the
/// cumulative/guide/emit tables must happen at most once per fitted model,
/// not once per bootstrap draw.
pub fn samplers_built() -> u64 {
    SAMPLERS_BUILT.load(Ordering::Relaxed)
}

/// Inverse-CDF slot for a uniform draw `u` over a cumulative table: the
/// *lower bound* — the first index whose cumulative value reaches `u` —
/// clamped to the last slot (so `u` ≥ the final cumulative value still
/// yields a valid cell). Lower bound is a uniquely defined function of
/// `(cumulative, u)` — unlike `binary_search`, which may return any index
/// of a duplicated value — which is what lets the batched engine accelerate
/// the same search with per-group guide tables and stay bit-identical on
/// every input, exact ties against zero-mass cells included. Shared by the
/// batched and naive paths and by GEM's ancestral sampler in `synrd-synth`.
#[inline]
pub fn search_cumulative(cumulative: &[f64], u: f64) -> usize {
    cumulative
        .partition_point(|&c| c < u)
        .min(cumulative.len().saturating_sub(1))
}

/// Rows per batched-sampling chunk floor; actual chunks are sized so a
/// parallel pass produces at most ~4 blocks per worker at the stitch.
const SAMPLE_CHUNK_ROWS: usize = 1 << 13;

/// Minimum rows before a sampling pass fans out across threads; below this
/// the per-chunk block allocations outweigh the win.
const SAMPLE_PAR_THRESHOLD: usize = 1 << 14;

/// Chunk size for a production pass (chunk size has no effect on the
/// sampled codes, only on locality and the stitch bound).
fn production_sample_chunk(rows: usize) -> usize {
    let max_chunks = rayon::current_num_threads().saturating_mul(4).max(1);
    SAMPLE_CHUNK_ROWS.max(rows.div_ceil(max_chunks))
}

/// Whether a sampling pass over `n` rows fans out across threads.
fn parallel_rows(n: usize) -> bool {
    n >= SAMPLE_PAR_THRESHOLD && rayon::current_num_threads() > 1
}

/// Generate `n` rows of `d` columns through `sample_chunk`, which returns
/// the `d` columns of rows `lo..hi`. The harness picks the chunking and
/// whether the pass fans out across threads, adds `n` to
/// [`rows_sampled`], and stitches the chunks' columns in chunk order. Each
/// chunk must read only integer-indexed slices of the caller's pre-drawn
/// randomness, which makes the stitched result bit-identical to the
/// sequential single-chunk pass.
pub fn assemble_chunks(
    n: usize,
    d: usize,
    sample_chunk: impl Fn(usize, usize) -> Vec<Vec<u32>> + Sync,
) -> Vec<Vec<u32>> {
    run_chunks(
        n,
        d,
        production_sample_chunk(n),
        parallel_rows(n),
        sample_chunk,
    )
}

/// The chunk-and-stitch loop behind [`assemble_chunks`], with the chunk
/// size and fan-out given (the test hook
/// [`TreeSampler::sample_columns_chunked`] forces small parallel chunks).
fn run_chunks(
    n: usize,
    d: usize,
    chunk_rows: usize,
    parallel: bool,
    sample_chunk: impl Fn(usize, usize) -> Vec<Vec<u32>> + Sync,
) -> Vec<Vec<u32>> {
    ROWS_SAMPLED.fetch_add(n as u64, Ordering::Relaxed);
    let n_chunks = n.div_ceil(chunk_rows).max(1);
    if !parallel || n_chunks <= 1 {
        return sample_chunk(0, n);
    }
    let blocks: Vec<Vec<Vec<u32>>> = (0..n_chunks)
        .into_par_iter()
        .map(|c| sample_chunk(c * chunk_rows, ((c + 1) * chunk_rows).min(n)))
        .collect();
    let mut columns: Vec<Vec<u32>> = (0..d).map(|_| Vec::with_capacity(n)).collect();
    for block in blocks {
        for (col, part) in columns.iter_mut().zip(block) {
            col.extend_from_slice(&part);
        }
    }
    columns
}

/// Precomputed sampler for a fitted model.
#[derive(Debug, Clone)]
pub struct TreeSampler {
    n_attrs: usize,
    nodes: Vec<Node>,
}

/// One clique's conditional tables, grouped by separator configuration:
/// the build step both samplers share. [`TreeSampler`] flattens each
/// clique into a [`Node`] as soon as it is built; [`NaiveSampler`] keeps
/// them as they are.
#[derive(Debug, Clone)]
struct Clique {
    /// Clique attribute ids.
    attrs: Vec<usize>,
    /// Clique shape and row-major strides (decode a cell index into codes).
    shape: Vec<usize>,
    strides: Vec<usize>,
    /// Positions (within this clique) of the separator attributes
    /// (empty for roots).
    sep_positions: Vec<usize>,
    /// Mixed-radix strides over separator configurations.
    sep_strides: Vec<usize>,
    /// For each separator configuration: cumulative probabilities over the
    /// member cells of that configuration. Roots have exactly one group.
    groups: Vec<Group>,
}

/// Cumulative table of one separator configuration.
#[derive(Debug, Clone)]
struct Group {
    cells: Vec<usize>,
    cumulative: Vec<f64>,
}

/// One clique in the batched sampler's flattened layout.
#[derive(Debug, Clone)]
struct Node {
    /// Clique attribute ids.
    attrs: Vec<usize>,
    /// Positions (within this clique) of the separator attributes
    /// (empty for roots).
    sep_positions: Vec<usize>,
    /// Mixed-radix strides over separator configurations.
    sep_strides: Vec<usize>,
    /// Attributes this clique *introduces* (positions not in the
    /// separator). The running-intersection property guarantees every
    /// separator attribute was already fixed by an earlier clique in BFS
    /// order, so the batched path only writes these — the naive path's
    /// separator re-writes store the very same values.
    emit_attrs: Vec<usize>,
    /// Flattened copy of every group's cumulative table (group-major), for
    /// locality in the batched inner loop. Every group has exactly
    /// `members` slots (the product of the non-separator dimensions), so
    /// group `g` occupies `g * members .. (g + 1) * members`.
    cum_flat: Vec<f64>,
    /// Cells per separator configuration (`cum_flat.len() / n_groups`).
    members: usize,
    /// Pre-decoded emit-attribute codes per member cell
    /// (`emit_attrs.len()` codes per slot, aligned with `cum_flat`): the
    /// batched path replaces the naive per-draw div/mod decode chain with
    /// straight reads from this table.
    emit_flat: Vec<u32>,
    /// Inverse-CDF guide table, aligned with `cum_flat`: `guide_flat[off +
    /// b]` is the lower bound of `b / len` in the group's cumulative slice
    /// (`len` the slice length), so a draw starts its forward walk at most
    /// one expected step from its slot instead of binary-searching.
    guide_flat: Vec<u32>,
}

impl Node {
    /// Flatten one clique's grouped tables: the per-group cumulative tables
    /// back to back, the introduced attributes' codes pre-decoded per
    /// member cell, and a guide table per group, so the hot loop does one
    /// search plus straight reads.
    fn flatten(clique: Clique) -> Node {
        let Clique {
            attrs,
            shape,
            strides,
            sep_positions,
            sep_strides,
            groups,
        } = clique;
        let emit_positions: Vec<usize> = (0..attrs.len())
            .filter(|p| !sep_positions.contains(p))
            .collect();
        let emit_attrs: Vec<usize> = emit_positions.iter().map(|&p| attrs[p]).collect();
        let cells_total: usize = groups.iter().map(|g| g.cells.len()).sum();
        // Every separator configuration owns the same number of cells
        // (the product of the non-separator dimensions).
        let members = cells_total / groups.len();
        debug_assert!(groups.iter().all(|g| g.cells.len() == members));
        let mut cum_flat = Vec::with_capacity(cells_total);
        let mut emit_flat = Vec::with_capacity(cells_total * emit_positions.len());
        let mut guide_flat = Vec::with_capacity(cells_total);
        for group in &groups {
            cum_flat.extend_from_slice(&group.cumulative);
            for &cell in &group.cells {
                for &p in &emit_positions {
                    emit_flat.push(((cell / strides[p]) % shape[p]) as u32);
                }
            }
            // Guide table: lower bound of every bucket boundary
            // b/members, built in one monotone walk over the slice.
            let cum = &group.cumulative;
            let mut slot = 0usize;
            for b in 0..members {
                let boundary = b as f64 / members as f64;
                while slot < members && cum[slot] < boundary {
                    slot += 1;
                }
                guide_flat.push(slot as u32);
            }
        }
        Node {
            attrs,
            sep_positions,
            sep_strides,
            emit_attrs,
            cum_flat,
            members,
            emit_flat,
            guide_flat,
        }
    }

    /// Lower-bound slot of draw `u` within group `g`: the guide entry for
    /// `u`'s bucket is the lower bound of the bucket's left edge (≤ u), so
    /// the forward walk is monotone and lands precisely where
    /// [`search_cumulative`] would — for every input, exact ties included.
    /// Returns the absolute index into `cum_flat` / `emit_flat` (per emit
    /// width).
    #[inline(always)]
    fn slot(&self, g: usize, u: f64) -> usize {
        let members = self.members;
        let base = g * members;
        // Bucket index: u < 1, but `u * members` can round up to `members`
        // at the very top of the range — clamp before use.
        let bucket = ((u * members as f64) as usize).min(members - 1);
        let mut slot = self.guide_flat[base + bucket] as usize;
        while slot < members && self.cum_flat[base + slot] < u {
            slot += 1;
        }
        base + slot.min(members - 1)
    }

    /// Resolve one draw and write the chosen cell's pre-decoded codes into
    /// the introduced attributes' columns.
    #[inline(always)]
    fn emit_row(&self, g: usize, r: usize, u: f64, local: &mut [Vec<u32>]) {
        let slot = self.slot(g, u);
        let width = self.emit_attrs.len();
        for (w, &attr) in self.emit_attrs.iter().enumerate() {
            local[attr][r] = self.emit_flat[slot * width + w];
        }
    }

    /// Resolve every row of a chunk in row order, with the group id taken
    /// from `groups` (`None` for roots — always group 0). The dominant
    /// single-emit-attribute case gets specialized zip loops that hold the
    /// output column borrowed across the whole pass, with no per-draw
    /// indexing.
    #[inline]
    fn emit_rows(&self, groups: Option<&[usize]>, u_col: &[f64], local: &mut [Vec<u32>]) {
        match (self.emit_attrs.as_slice(), groups) {
            ([], _) => {}
            ([attr], None) => {
                let col = &mut local[*attr];
                for (&u, c) in u_col.iter().zip(col.iter_mut()) {
                    *c = self.emit_flat[self.slot(0, u)];
                }
            }
            ([attr], Some(gs)) => {
                let col = &mut local[*attr];
                for ((&g, &u), c) in gs.iter().zip(u_col).zip(col.iter_mut()) {
                    *c = self.emit_flat[self.slot(g, u)];
                }
            }
            ([a, b], None) => {
                // Width-2 roots (the chain-measurement shape): hold both
                // output columns across the pass.
                let [ca, cb] = local
                    .get_disjoint_mut([*a, *b])
                    .expect("emit attributes are distinct");
                for ((&u, x), y) in u_col.iter().zip(ca.iter_mut()).zip(cb.iter_mut()) {
                    let slot = self.slot(0, u);
                    *x = self.emit_flat[2 * slot];
                    *y = self.emit_flat[2 * slot + 1];
                }
            }
            (_, None) => {
                for (r, &u) in u_col.iter().enumerate() {
                    self.emit_row(0, r, u, local);
                }
            }
            (_, Some(gs)) => {
                for (r, (&g, &u)) in gs.iter().zip(u_col).enumerate() {
                    self.emit_row(g, r, u, local);
                }
            }
        }
    }
}

/// Where a clique's belief probabilities come from while building a
/// sampler: the calibrated model (production) or raw per-clique tables
/// (the equivalence tests, which need to force degenerate cases such as
/// all-zero-mass separator groups).
enum ProbSource<'a> {
    Model(&'a FittedModel),
    Tables(&'a [Vec<f64>]),
}

impl<'a> ProbSource<'a> {
    /// Raw per-clique tables, checked against the tree's clique shapes.
    fn tables(tree: &JunctionTree, tables: &'a [Vec<f64>]) -> ProbSource<'a> {
        assert_eq!(tables.len(), tree.cliques().len(), "one table per clique");
        for (c, t) in tables.iter().enumerate() {
            let cells: usize = tree.clique_shape(c).iter().product();
            assert_eq!(t.len(), cells, "table size for clique {c}");
        }
        ProbSource::Tables(tables)
    }
}

/// Root each tree component, then build every clique's grouped conditional
/// tables in BFS order (parents first), handing each to `each` as soon as
/// it is built — so a caller that flattens them holds one clique's grouped
/// tables at a time.
fn build_cliques(tree: &JunctionTree, source: ProbSource<'_>, mut each: impl FnMut(Clique)) {
    let k = tree.cliques().len();
    // Belief probabilities are materialized one clique at a time into a
    // scratch sized to the largest clique.
    let mut prob_scratch = match source {
        ProbSource::Model(_) => {
            note_buffer_alloc();
            vec![0.0; tree.max_clique_cells().max(1)]
        }
        ProbSource::Tables(_) => Vec::new(),
    };

    let mut parent: Vec<Option<(usize, usize)>> = vec![None; k];
    let mut order = Vec::with_capacity(k);
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

    for &c in &order {
        let attrs = tree.cliques()[c].clone();
        let shape = tree.clique_shape(c).to_vec();
        let strides = strides_of(&shape);
        let probs: &[f64] = match source {
            ProbSource::Model(model) => {
                let belief = &model.calibrated().beliefs[c];
                let buf = &mut prob_scratch[..belief.n_cells()];
                belief.probabilities_into(buf);
                buf
            }
            ProbSource::Tables(tables) => &tables[c],
        };

        let sep_attrs: Vec<usize> = match parent[c] {
            Some((_, e)) => tree.edges()[e].2.clone(),
            None => Vec::new(),
        };
        let sep_positions: Vec<usize> = sep_attrs
            .iter()
            .map(|a| {
                attrs
                    .iter()
                    .position(|x| x == a)
                    .expect("separator ⊆ clique")
            })
            .collect();
        let sep_shape: Vec<usize> = sep_positions.iter().map(|&p| shape[p]).collect();
        let sep_strides = strides_of(&sep_shape);
        let n_groups: usize = sep_shape.iter().product::<usize>().max(1);

        // Group cells by separator configuration, then cumsum.
        let mut groups: Vec<Group> = (0..n_groups)
            .map(|_| Group {
                cells: Vec::new(),
                cumulative: Vec::new(),
            })
            .collect();
        for (cell, &p) in probs.iter().enumerate() {
            let mut g = 0usize;
            for (k2, &pos) in sep_positions.iter().enumerate() {
                let code = (cell / strides[pos]) % shape[pos];
                g += code * sep_strides[k2];
            }
            groups[g].cells.push(cell);
            groups[g].cumulative.push(p.max(0.0));
        }
        for group in &mut groups {
            let mut acc = 0.0;
            for v in group.cumulative.iter_mut() {
                acc += *v;
                *v = acc;
            }
            // A NaN/∞ belief would silently corrupt every draw of this
            // group (all comparisons false → cell 0), so fail loudly at
            // construction — earlier than the per-draw panic the
            // pre-batched sampler raised on first contact.
            assert!(
                acc.is_finite(),
                "non-finite belief mass in clique {c} (sum {acc})"
            );
            if acc <= 0.0 {
                // Unseen separator configuration: uniform fallback.
                let n = group.cumulative.len().max(1) as f64;
                for (i, v) in group.cumulative.iter_mut().enumerate() {
                    *v = (i + 1) as f64 / n;
                }
            } else {
                for v in group.cumulative.iter_mut() {
                    *v /= acc;
                }
            }
        }

        each(Clique {
            attrs,
            shape,
            strides,
            sep_positions,
            sep_strides,
            groups,
        });
    }
}

impl TreeSampler {
    /// Build the sampler from a fitted model.
    pub fn new(model: &FittedModel) -> Result<TreeSampler> {
        Ok(Self::build(model.tree(), ProbSource::Model(model)))
    }

    /// Test-only constructor from raw (unnormalized; negatives are clamped
    /// to zero exactly like belief probabilities) per-clique tables in
    /// clique order — the differential proptests use it to inject zero-mass
    /// separator groups and other degenerate tables that a calibrated model
    /// cannot produce.
    #[doc(hidden)]
    pub fn from_probabilities(tree: &JunctionTree, tables: &[Vec<f64>]) -> Result<TreeSampler> {
        Ok(Self::build(tree, ProbSource::tables(tree, tables)))
    }

    fn build(tree: &JunctionTree, source: ProbSource<'_>) -> TreeSampler {
        SAMPLERS_BUILT.fetch_add(1, Ordering::Relaxed);
        let mut nodes = Vec::with_capacity(tree.cliques().len());
        build_cliques(tree, source, |clique| nodes.push(Node::flatten(clique)));
        TreeSampler {
            n_attrs: tree.domain_shape().len(),
            nodes,
        }
    }

    /// Sample `n` rows into column-major storage through the batched
    /// clique-major engine and the [`assemble_chunks`] harness.
    /// Bit-identical to [`NaiveSampler`] for the same RNG state, sequential
    /// or parallel.
    pub fn sample_columns<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<Vec<u32>> {
        let uniforms = self.draw_uniforms(n, rng);
        assemble_chunks(n, self.n_attrs, |lo, hi| {
            self.sample_chunk(lo, hi, n, &uniforms)
        })
    }

    /// Test/bench hook: sample with an explicit chunk size, always taking
    /// the parallel chunk-and-stitch path of the harness. The differential
    /// proptests use it to pin chunk-parallel vs sequential bit-identity.
    #[doc(hidden)]
    pub fn sample_columns_chunked<R: Rng + ?Sized>(
        &self,
        n: usize,
        rng: &mut R,
        chunk_rows: usize,
    ) -> Vec<Vec<u32>> {
        let uniforms = self.draw_uniforms(n, rng);
        run_chunks(n, self.n_attrs, chunk_rows.max(1), true, |lo, hi| {
            self.sample_chunk(lo, hi, n, &uniforms)
        })
    }

    /// Pre-draw every (row, clique) uniform in the exact row-major order
    /// the per-row sampler consumes them — the same RNG-word sequence as
    /// `for row { for clique { rng.gen() } }`, which is what keeps the
    /// batched output bit-identical to the retained naive path (and to the
    /// pre-rewrite sampler). Storage is *clique-major*
    /// (`uniforms[clique * n + row]`): the draw order fixes the values, the
    /// transposed layout gives every clique pass a sequential read stream
    /// instead of one cache line per draw.
    fn draw_uniforms<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<f64> {
        let k = self.nodes.len();
        let mut uniforms = vec![0.0; n * k];
        for r in 0..n {
            for ni in 0..k {
                uniforms[ni * n + r] = rng.gen();
            }
        }
        uniforms
    }

    /// Generate rows `lo..hi` (of a pass over `n` total rows) clique-major
    /// into fresh column storage of length `hi - lo`, reading each clique's
    /// sequential uniform stream `uniforms[clique * n + row]`.
    fn sample_chunk(&self, lo: usize, hi: usize, n: usize, uniforms: &[f64]) -> Vec<Vec<u32>> {
        let rows = hi - lo;
        let mut local: Vec<Vec<u32>> = (0..self.n_attrs).map(|_| vec![0u32; rows]).collect();
        // Separator-group id per row, and the counting-sort buffers that
        // bucket rows by group; sized on first use.
        let mut group_of_row: Vec<usize> = Vec::new();
        let mut counts: Vec<usize> = Vec::new();
        let mut order: Vec<u32> = Vec::new();
        for (ni, node) in self.nodes.iter().enumerate() {
            let u_col = &uniforms[ni * n + lo..ni * n + hi];
            // Every group is `members ≥ 1` slots wide (the clique has at
            // least one cell per separator configuration).
            let n_groups = node.cum_flat.len() / node.members;
            if n_groups == 1 {
                // Root (or trivial separator): every row searches the same
                // cumulative slice.
                node.emit_rows(None, u_col, &mut local);
                continue;
            }
            // Group id per row from the already-sampled separator codes,
            // accumulated column-by-column (one streaming pass per
            // separator attribute; the first pass writes instead of
            // zero-then-add, so no memset is needed).
            group_of_row.resize(rows, 0);
            for (k2, &pos) in node.sep_positions.iter().enumerate() {
                let stride = node.sep_strides[k2];
                let col = &local[node.attrs[pos]];
                if k2 == 0 {
                    for (g, &code) in group_of_row.iter_mut().zip(col) {
                        *g = code as usize * stride;
                    }
                } else {
                    for (g, &code) in group_of_row.iter_mut().zip(col) {
                        *g += code as usize * stride;
                    }
                }
            }
            // Bucket rows by separator configuration only when the node's
            // tables outgrow the fast cache levels: for resident tables the
            // counting sort and its scattered accesses cost more than they
            // save. (The rule reads only table/row sizes, so it cannot
            // affect the sampled codes — row order never does.)
            let bucket_worthwhile = n_groups <= rows && node.cum_flat.len() > (1 << 15);
            if bucket_worthwhile {
                // Stable counting sort, then resolve each group's draws
                // back to back over one hot cumulative slice. Row order
                // within a group does not affect the result — each row
                // depends only on its own uniform.
                counts.clear();
                counts.resize(n_groups + 1, 0);
                for &g in &group_of_row {
                    counts[g + 1] += 1;
                }
                for i in 1..counts.len() {
                    counts[i] += counts[i - 1];
                }
                order.resize(rows, 0);
                for (r, &g) in group_of_row.iter().enumerate() {
                    order[counts[g]] = r as u32;
                    counts[g] += 1;
                }
                let mut start = 0usize;
                for g in 0..n_groups {
                    let end = counts[g];
                    for &r in &order[start..end] {
                        node.emit_row(g, r as usize, u_col[r as usize], &mut local);
                    }
                    start = end;
                }
            } else {
                // Cache-resident tables (or more configurations than
                // rows): resolve rows in row order directly.
                node.emit_rows(Some(&group_of_row), u_col, &mut local);
            }
        }
        local
    }
}

/// The original per-row sampler, kept as the differential oracle for
/// [`TreeSampler`]: one fresh conditional-slice lookup and binary search
/// per clique per row. It owns the grouped per-clique tables that
/// [`TreeSampler`] flattens and drops, so production samplers carry no
/// oracle state.
#[derive(Debug, Clone)]
pub struct NaiveSampler {
    n_attrs: usize,
    cliques: Vec<Clique>,
}

impl NaiveSampler {
    /// Build the oracle from a fitted model.
    pub fn new(model: &FittedModel) -> Result<NaiveSampler> {
        Ok(Self::build(model.tree(), ProbSource::Model(model)))
    }

    /// The oracle over raw per-clique tables, like
    /// [`TreeSampler::from_probabilities`].
    pub fn from_probabilities(tree: &JunctionTree, tables: &[Vec<f64>]) -> Result<NaiveSampler> {
        Ok(Self::build(tree, ProbSource::tables(tree, tables)))
    }

    fn build(tree: &JunctionTree, source: ProbSource<'_>) -> NaiveSampler {
        let mut cliques = Vec::with_capacity(tree.cliques().len());
        build_cliques(tree, source, |clique| cliques.push(clique));
        NaiveSampler {
            n_attrs: tree.domain_shape().len(),
            cliques,
        }
    }

    /// Sample `n` rows into column-major storage, one row at a time.
    pub fn sample_columns<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<Vec<u32>> {
        let mut columns = vec![vec![0u32; n]; self.n_attrs];
        let mut row = vec![0u32; self.n_attrs];
        for r in 0..n {
            self.sample_row(&mut row, rng);
            for (a, col) in columns.iter_mut().enumerate() {
                col[r] = row[a];
            }
        }
        columns
    }

    /// Sample a single row in place (`row.len() == n_attrs`).
    fn sample_row<R: Rng + ?Sized>(&self, row: &mut [u32], rng: &mut R) {
        debug_assert_eq!(row.len(), self.n_attrs);
        for clique in &self.cliques {
            // Locate the group from already-fixed separator codes.
            let mut g = 0usize;
            for (k, &pos) in clique.sep_positions.iter().enumerate() {
                let attr = clique.attrs[pos];
                g += row[attr] as usize * clique.sep_strides[k];
            }
            let group = &clique.groups[g];
            let u: f64 = rng.gen();
            let slot = search_cumulative(&group.cumulative, u);
            let cell = group.cells[slot];
            for (k, &attr) in clique.attrs.iter().enumerate() {
                row[attr] = ((cell / clique.strides[k]) % clique.shape[k]) as u32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimation::{estimate, EstimationOptions, NoisyMeasurement};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fit_chain() -> FittedModel {
        // Strongly correlated chain 0-1-2 of binary attributes.
        let domain = vec![2usize, 2, 2];
        let strong = vec![450.0, 50.0, 50.0, 450.0];
        let ms = vec![
            NoisyMeasurement {
                attrs: vec![0, 1],
                values: strong.clone(),
                sigma: 1.0,
            },
            NoisyMeasurement {
                attrs: vec![1, 2],
                values: strong,
                sigma: 1.0,
            },
        ];
        let opts = EstimationOptions {
            iterations: 120,
            fit_threads: 1,
        };
        estimate(&domain, &ms, opts).unwrap()
    }

    #[test]
    fn samples_match_fitted_marginals() {
        let model = fit_chain();
        let sampler = TreeSampler::new(&model).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let cols = sampler.sample_columns(40_000, &mut rng);
        // Pair (0,1) frequencies ≈ [0.45, 0.05, 0.05, 0.45].
        let mut counts = [0.0f64; 4];
        for r in 0..40_000 {
            counts[(cols[0][r] * 2 + cols[1][r]) as usize] += 1.0;
        }
        for c in counts.iter_mut() {
            *c /= 40_000.0;
        }
        for (got, expect) in counts.iter().zip(&[0.45, 0.05, 0.05, 0.45]) {
            assert!((got - expect).abs() < 0.015, "{counts:?}");
        }
    }

    #[test]
    fn chain_correlation_propagates_to_unmeasured_pair() {
        let model = fit_chain();
        let sampler = TreeSampler::new(&model).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let cols = sampler.sample_columns(40_000, &mut rng);
        // Correlation of (0,2) through the chain: agreement prob
        // = 0.9*0.9 + 0.1*0.1 = 0.82.
        let agree = (0..40_000).filter(|&r| cols[0][r] == cols[2][r]).count() as f64 / 40_000.0;
        assert!((agree - 0.82).abs() < 0.02, "agree = {agree}");
    }

    #[test]
    fn sampling_is_deterministic_given_seed() {
        let model = fit_chain();
        let sampler = TreeSampler::new(&model).unwrap();
        let a = sampler.sample_columns(100, &mut StdRng::seed_from_u64(5));
        let b = sampler.sample_columns(100, &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
    }

    #[test]
    fn batched_matches_naive_on_fitted_chain() {
        let model = fit_chain();
        let sampler = TreeSampler::new(&model).unwrap();
        let oracle = NaiveSampler::new(&model).unwrap();
        for n in [0usize, 1, 7, 1000] {
            let batched = sampler.sample_columns(n, &mut StdRng::seed_from_u64(9));
            let naive = oracle.sample_columns(n, &mut StdRng::seed_from_u64(9));
            assert_eq!(batched, naive, "n = {n}");
        }
    }

    #[test]
    fn counters_advance_with_batched_passes() {
        let model = fit_chain();
        let sampler = TreeSampler::new(&model).unwrap();
        let rows0 = rows_sampled();
        sampler.sample_columns(123, &mut StdRng::seed_from_u64(3));
        // ≥, not ==: the counter is process-wide and other tests in this
        // binary may sample concurrently.
        assert!(rows_sampled() >= rows0 + 123);
    }
}
