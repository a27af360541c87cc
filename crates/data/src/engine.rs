//! Batched, cached, parallel marginal counting — the data-side hot path of
//! every synthesizer selection loop.
//!
//! The naive counter ([`Marginal::count_naive`]) walks the rows once *per
//! marginal*, recomputing a mixed-radix index from scratch for each row with
//! an inner loop over the attribute set. The selection loops of the
//! synthesizers make that quadratic-to-cubic in practice: AIM re-scores the
//! whole workload every round, MST counts all O(d²) pairwise joints, and
//! PrivMRF/PrivBayes score mutual information over the same pairs again.
//! True marginals of the input data never change during a fit, so all of
//! that work is redundant across rounds and embarrassingly parallel within
//! a pass. This module removes it in three layers:
//!
//! 1. **Kernel** — single-pass counting into `u64` integer accumulators
//!    with precomputed per-attribute stride tables, streaming straight from
//!    the bit-packed word image ([`crate::packed::PackedColumn`]): the
//!    memory the sweep actually reads is `ceil(log2(card))` bits per cell,
//!    not a `u32`. One-way sets unpack-and-count directly from words; wider
//!    sets share per-block decode scratch — each distinct column of a fused
//!    batch is unpacked once per cache-sized block, then the specialized
//!    two-way zips and the column-major mixed-radix accumulator run over
//!    the L1-resident decoded slices, so the DRAM traffic of a selection
//!    loop's whole candidate pool is the packed words, streamed once per
//!    chunk. There is no per-row inner loop and no per-cell heap
//!    allocation anywhere.
//! 2. **Parallelism** — row-chunked counting with per-thread scratch
//!    histograms merged by integer addition. `u64` addition is associative
//!    and commutative, so the merged counts are *bit-identical* to the
//!    sequential pass (pinned by the differential proptests in
//!    `tests/engine_equivalence.rs`), and converting an exact integer count
//!    to `f64` equals the naive kernel's repeated `+= 1.0` exactly for any
//!    dataset below 2^53 rows.
//! 3. **Memoization** — a per-fit [`MarginalCache`] keyed by attribute set,
//!    so a round loop counts each candidate at most once per fit, bounded
//!    by a total-cell budget (FIFO eviction) so wide-domain workloads trade
//!    hits for recounts instead of memory. The process-wide
//!    [`marginal_counts_performed`] counter (mirroring the grid driver's
//!    fit counter) makes the at-most-once property provable in tests.
//!
//! The differential oracle for all three layers is the naive per-row
//! counter, [`Marginal::count_naive`].

use crate::dataset::Dataset;
use crate::domain::validate_attr_set;
use crate::error::{DataError, Result};
use crate::marginal::{mi_from_joint, strides_of, Marginal, DEFAULT_CELL_LIMIT};
use crate::packed::PackedColumn;
use rayon::prelude::*;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of marginal counting passes (one per attribute set
/// actually counted from data; cache hits do not count).
///
/// Purely observational, like [`synrd::benchmark::fits_performed`]: the
/// engine-cache tests assert that a synthesizer's round loop counts each
/// candidate attribute set at most once per fit by reading this counter
/// before and after a fit.
static MARGINAL_COUNTS: AtomicU64 = AtomicU64::new(0);

/// Total marginal counting passes performed by this process.
pub fn marginal_counts_performed() -> u64 {
    MARGINAL_COUNTS.load(Ordering::Relaxed)
}

/// Rows per chunk of a counting sweep. Chunks bound the per-thread scratch
/// and keep a fused batch's working set (chunk of every column + all batch
/// histograms) inside the cache hierarchy.
const CHUNK_ROWS: usize = 1 << 16;

/// Rows per decode block inside a chunk: each distinct column of the batch
/// is unpacked once per block into scratch (32 KB per column), sized so a
/// dozen decoded columns plus the batch histograms stay L2-resident while
/// the counting loops re-read them once per plan, and large enough that the
/// per-block lane setup/merge stays negligible against the counting.
const BLOCK_ROWS: usize = 8192;

/// Minimum rows before a sweep fans out across threads; below this the
/// per-chunk scratch allocation outweighs the win.
const PAR_ROW_THRESHOLD: usize = 1 << 15;

/// Precomputed counting plan for one attribute set: resolved packed
/// columns, the per-attribute stride table, and the table geometry.
struct CountPlan<'d> {
    attrs: Vec<usize>,
    shape: Vec<usize>,
    strides: Vec<usize>,
    cols: Vec<&'d PackedColumn>,
    cells: usize,
}

impl<'d> CountPlan<'d> {
    /// Validate `attrs` against `dataset` and resolve everything the kernel
    /// needs, enforcing `cell_limit` exactly like the naive counter.
    fn build(dataset: &'d Dataset, attrs: &[usize], cell_limit: usize) -> Result<CountPlan<'d>> {
        validate_attr_set(dataset.domain().len(), attrs)?;
        let cells = dataset.domain().cells(attrs)?;
        if cells > cell_limit as u128 {
            return Err(DataError::MarginalTooLarge {
                cells,
                limit: cell_limit,
            });
        }
        let shape: Vec<usize> = attrs
            .iter()
            .map(|&a| dataset.domain().cardinality(a))
            .collect::<Result<_>>()?;
        let cols: Vec<&PackedColumn> = attrs
            .iter()
            .map(|&a| dataset.packed_column(a))
            .collect::<Result<_>>()?;
        Ok(CountPlan {
            attrs: attrs.to_vec(),
            strides: strides_of(&shape),
            shape,
            cols,
            cells: cells as usize,
        })
    }

    /// Materialize a [`Marginal`] from the finished `u64` accumulator.
    fn into_marginal(self, hist: Vec<u64>) -> Result<Marginal> {
        Marginal::from_counts(
            self.attrs,
            self.shape,
            hist.into_iter().map(|c| c as f64).collect(),
        )
    }
}

/// Table size up to which the bump pass spreads increments over four
/// interleaved histogram lanes. Real data has hot cells (and correlated
/// columns make consecutive rows hit the same cell), which serializes the
/// read-modify-write chain on a single accumulator; four lanes break that
/// dependency at the cost of 3 extra tables, merged by integer addition
/// afterwards — so the result is still bit-identical. Above this limit the
/// extra tables would pollute the cache more than the chain costs.
const LANE_CELL_LIMIT: usize = 1 << 12;

/// Reusable scratch for one counting thread: the per-block decoded columns
/// (one buffer per distinct attribute of the fused batch), the mixed-radix
/// index buffer (sets wider than two attributes) and the extra histogram
/// lanes.
#[derive(Default)]
struct CountScratch {
    decoded: Vec<Vec<u32>>,
    idx: Vec<usize>,
    lanes: Vec<u64>,
}

/// Borrow three extra lanes the same size as `hist` from `lanes`, run the
/// counting body over `(hist, l1, l2, l3)`, then fold the lanes back into
/// `hist` by integer addition (order-free, so still bit-identical).
fn with_lanes(
    hist: &mut [u64],
    lanes: &mut Vec<u64>,
    body: impl FnOnce(&mut [u64], &mut [u64], &mut [u64], &mut [u64]),
) {
    let cells = hist.len();
    lanes.clear();
    lanes.resize(3 * cells, 0);
    let (l1, rest) = lanes.split_at_mut(cells);
    let (l2, l3) = rest.split_at_mut(cells);
    body(hist, l1, l2, l3);
    for ((h, &a), (&b, &c)) in hist.iter_mut().zip(&*l1).zip(l2.iter().zip(&*l3)) {
        *h += a + b + c;
    }
}

/// The decode layout of a fused sweep: the distinct packed columns that the
/// multi-attribute plans share (each decoded once per block), and for every
/// plan the positions of its attributes inside that decode set. One-way
/// plans never decode — they unpack-and-count straight from the words — so
/// they contribute no columns and carry an empty slot map.
fn sweep_layout<'d>(plans: &[CountPlan<'d>]) -> (Vec<&'d PackedColumn>, Vec<Vec<usize>>) {
    let mut distinct_attrs: Vec<usize> = Vec::new();
    let mut distinct: Vec<&'d PackedColumn> = Vec::new();
    let slots: Vec<Vec<usize>> = plans
        .iter()
        .map(|plan| {
            if plan.cols.len() < 2 {
                return Vec::new();
            }
            plan.attrs
                .iter()
                .zip(&plan.cols)
                .map(
                    |(&a, &col)| match distinct_attrs.iter().position(|&x| x == a) {
                        Some(slot) => slot,
                        None => {
                            distinct_attrs.push(a);
                            distinct.push(col);
                            distinct.len() - 1
                        }
                    },
                )
                .collect()
        })
        .collect();
    (distinct, slots)
}

/// Count rows `lo..hi` of a one-way plan straight from the packed words:
/// no decode scratch. A constant column is a single addition for the whole
/// range; widths 1–3 use bit-sliced equality counting (cost scales with the
/// cardinality, not the rows); wider codes take one shift-mask-bump per row.
fn count_one_way(col: &PackedColumn, lo: usize, hi: usize, hist: &mut [u64], lanes: &mut Vec<u64>) {
    let width = col.width() as usize;
    if width == 0 {
        hist[0] += (hi - lo) as u64;
        return;
    }
    if hist.len() > LANE_CELL_LIMIT {
        col.for_each_range(lo, hi, |c| hist[c as usize] += 1);
        return;
    }
    // Narrow codes (width ≤ 3, so cardinality ≤ 8): bit-sliced equality
    // counting. For each value, one XOR + OR-collapse + POPCNT counts its
    // occurrences across a whole word of `64 / width` rows, so the cost
    // scales with the cardinality instead of the row count — a kernel shape
    // the packed layout enables and a `u32` slice cannot express.
    match col.width() {
        1 => return count_one_way_eq::<1>(col.iter_words(), lo, hi, hist),
        2 => return count_one_way_eq::<2>(col.iter_words(), lo, hi, hist),
        3 => return count_one_way_eq::<3>(col.iter_words(), lo, hi, hist),
        _ => {}
    }
    // Word-major with four interleaved lanes: one u64 load covers
    // `64 / width` rows, each extracted by a shift-and-mask with no
    // cross-iteration dependency. Widths 4–8 dispatch to a const-width
    // instance whose shift amounts are immediates and whose per-word loop
    // fully unrolls (mirroring `decode_range_into`); wider codes take the
    // out-of-line runtime-width instance.
    with_lanes(hist, lanes, |h0, l1, l2, l3| match col.width() {
        4 => count_one_way_words_const::<4>(col.iter_words(), lo, hi, h0, l1, l2, l3),
        5 => count_one_way_words_const::<5>(col.iter_words(), lo, hi, h0, l1, l2, l3),
        6 => count_one_way_words_const::<6>(col.iter_words(), lo, hi, h0, l1, l2, l3),
        7 => count_one_way_words_const::<7>(col.iter_words(), lo, hi, h0, l1, l2, l3),
        8 => count_one_way_words_const::<8>(col.iter_words(), lo, hi, h0, l1, l2, l3),
        _ => count_one_way_words_wide(col.iter_words(), width, lo, hi, h0, l1, l2, l3),
    });
}

/// Bit-sliced equality counting for [`count_one_way`] over narrow codes
/// (`WIDTH` ≤ 3): for each value `v` of the (≤ 8-value) alphabet, XOR the
/// word against `v` replicated into every field, OR-collapse each field
/// onto its low bit, and POPCNT the non-matches — `64 / WIDTH` rows per
/// popcount. Partial words at the range ends fall back to shift-and-mask,
/// so column padding is never touched. All counts are exact `u64`s, so the
/// histogram is bit-identical to the per-row bump.
#[inline(always)]
fn count_one_way_eq<const WIDTH: usize>(words: &[u64], lo: usize, hi: usize, hist: &mut [u64]) {
    let per_word = 64 / WIDTH;
    let mask = (1u64 << WIDTH) - 1;
    let head_end = hi.min(lo.next_multiple_of(per_word));
    for r in lo..head_end {
        hist[((words[r / per_word] >> ((r % per_word) * WIDTH)) & mask) as usize] += 1;
    }
    if head_end == hi {
        return;
    }
    // A 1 at the low bit of every field (the top `64 % WIDTH` padding bits
    // stay clear); multiplying by `v < 2^WIDTH` replicates `v` into each
    // field without carries.
    let mut lsb = 0u64;
    let mut k = 0usize;
    while k < per_word {
        lsb |= 1 << (k * WIDTH);
        k += 1;
    }
    let full = &words[head_end / per_word..hi / per_word];
    for (v, cell) in hist.iter_mut().enumerate() {
        let bcast = lsb.wrapping_mul(v as u64);
        let mut matches = 0u64;
        for &w in full {
            let t = w ^ bcast;
            let mut z = t;
            let mut s = 1usize;
            while s < WIDTH {
                z |= t >> s;
                s += 1;
            }
            matches += per_word as u64 - u64::from((z & lsb).count_ones());
        }
        *cell += matches;
    }
    for r in (hi / per_word) * per_word..hi {
        hist[((words[r / per_word] >> ((r % per_word) * WIDTH)) & mask) as usize] += 1;
    }
}

/// Word-major histogram body for [`count_one_way`].
/// `#[inline(always)]` so the const-width wrapper below folds `width`,
/// `per_word` and `mask` to constants: every shift amount becomes an
/// immediate and the per-word extraction loop unrolls completely.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn count_one_way_words(
    words: &[u64],
    width: usize,
    lo: usize,
    hi: usize,
    h0: &mut [u64],
    l1: &mut [u64],
    l2: &mut [u64],
    l3: &mut [u64],
) {
    let per_word = 64 / width;
    let mask = (1u64 << width) - 1;
    let head_end = hi.min(lo.next_multiple_of(per_word));
    for r in lo..head_end {
        h0[((words[r / per_word] >> ((r % per_word) * width)) & mask) as usize] += 1;
    }
    if head_end == hi {
        return;
    }
    let last_word = hi / per_word;
    for &w in &words[head_end / per_word..last_word] {
        let mut k = 0usize;
        while k + 4 <= per_word {
            h0[((w >> (k * width)) & mask) as usize] += 1;
            l1[((w >> ((k + 1) * width)) & mask) as usize] += 1;
            l2[((w >> ((k + 2) * width)) & mask) as usize] += 1;
            l3[((w >> ((k + 3) * width)) & mask) as usize] += 1;
            k += 4;
        }
        while k < per_word {
            h0[((w >> (k * width)) & mask) as usize] += 1;
            k += 1;
        }
    }
    for r in last_word * per_word..hi {
        h0[((words[r / per_word] >> ((r % per_word) * width)) & mask) as usize] += 1;
    }
}

#[allow(clippy::too_many_arguments)]
fn count_one_way_words_const<const WIDTH: usize>(
    words: &[u64],
    lo: usize,
    hi: usize,
    h0: &mut [u64],
    l1: &mut [u64],
    l2: &mut [u64],
    l3: &mut [u64],
) {
    count_one_way_words(words, WIDTH, lo, hi, h0, l1, l2, l3);
}

/// [`count_one_way_words`] for codes wider than 8 bits (cardinalities above
/// 256 — rare in the benchmark's social-science domains), kept out of line.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn count_one_way_words_wide(
    words: &[u64],
    width: usize,
    lo: usize,
    hi: usize,
    h0: &mut [u64],
    l1: &mut [u64],
    l2: &mut [u64],
    l3: &mut [u64],
) {
    count_one_way_words(words, width, lo, hi, h0, l1, l2, l3);
}

/// Count one block (`lo..hi`, already decoded into `decoded` per the plan's
/// slot map) into `hist`.
#[allow(clippy::too_many_arguments)]
fn count_block(
    plan: &CountPlan<'_>,
    slots: &[usize],
    decoded: &[Vec<u32>],
    lo: usize,
    hi: usize,
    hist: &mut [u64],
    idx_scratch: &mut Vec<usize>,
    lanes: &mut Vec<u64>,
) {
    let use_lanes = hist.len() <= LANE_CELL_LIMIT;
    match slots {
        [] => count_one_way(plan.cols[0], lo, hi, hist, lanes),
        [sa, sb] => {
            let stride = plan.strides[0];
            let (ca, cb) = (&decoded[*sa][..], &decoded[*sb][..]);
            if use_lanes {
                with_lanes(hist, lanes, |h0, l1, l2, l3| {
                    let mut qa = ca.chunks_exact(4);
                    let mut qb = cb.chunks_exact(4);
                    for (a, b) in qa.by_ref().zip(qb.by_ref()) {
                        h0[a[0] as usize * stride + b[0] as usize] += 1;
                        l1[a[1] as usize * stride + b[1] as usize] += 1;
                        l2[a[2] as usize * stride + b[2] as usize] += 1;
                        l3[a[3] as usize * stride + b[3] as usize] += 1;
                    }
                    for (&a, &b) in qa.remainder().iter().zip(qb.remainder()) {
                        h0[a as usize * stride + b as usize] += 1;
                    }
                });
            } else {
                for (&a, &b) in ca.iter().zip(cb) {
                    hist[a as usize * stride + b as usize] += 1;
                }
            }
        }
        slots => {
            // Column-major mixed-radix accumulation: one vectorizable pass
            // per attribute into the index scratch, then one bump pass.
            let n = hi - lo;
            idx_scratch.clear();
            idx_scratch.resize(n, 0);
            for (&slot, &stride) in slots.iter().zip(&plan.strides) {
                for (i, &c) in idx_scratch.iter_mut().zip(&decoded[slot]) {
                    *i += c as usize * stride;
                }
            }
            let idx = &*idx_scratch;
            if use_lanes {
                with_lanes(hist, lanes, |h0, l1, l2, l3| {
                    let mut quads = idx.chunks_exact(4);
                    for q in quads.by_ref() {
                        h0[q[0]] += 1;
                        l1[q[1]] += 1;
                        l2[q[2]] += 1;
                        l3[q[3]] += 1;
                    }
                    for &i in quads.remainder() {
                        h0[i] += 1;
                    }
                });
            } else {
                for &i in idx {
                    hist[i] += 1;
                }
            }
        }
    }
}

/// Count rows `lo..hi` of a whole fused batch: per decode block, unpack
/// each distinct multi-attribute column once into scratch, then run every
/// plan's counting loop over the decoded slices (one-way plans stream the
/// words directly).
fn count_chunk(
    plans: &[CountPlan<'_>],
    distinct: &[&PackedColumn],
    slots: &[Vec<usize>],
    lo: usize,
    hi: usize,
    hists: &mut [Vec<u64>],
    scratch: &mut CountScratch,
) {
    if scratch.decoded.len() < distinct.len() {
        scratch.decoded.resize_with(distinct.len(), Vec::new);
    }
    let mut blo = lo;
    while blo < hi {
        let bhi = (blo + BLOCK_ROWS).min(hi);
        let n = bhi - blo;
        for (buf, col) in scratch.decoded.iter_mut().zip(distinct) {
            buf.clear();
            buf.resize(n, 0);
            col.decode_range_into(blo, bhi, buf);
        }
        for ((plan, slot), hist) in plans.iter().zip(slots).zip(hists.iter_mut()) {
            count_block(
                plan,
                slot,
                &scratch.decoded,
                blo,
                bhi,
                hist,
                &mut scratch.idx,
                &mut scratch.lanes,
            );
        }
        blo = bhi;
    }
}

/// Run one fused sweep over `rows` rows for a batch of plans, returning one
/// `u64` histogram per plan. Chunked for locality; parallel across chunks
/// when `parallel` is set. Per-thread partial histograms are merged by
/// integer addition (associative), so the result is bit-identical to the
/// sequential sweep regardless of chunking, blocking or thread count.
fn sweep_plans(
    plans: &[CountPlan<'_>],
    rows: usize,
    chunk_rows: usize,
    parallel: bool,
) -> Vec<Vec<u64>> {
    for _ in plans {
        MARGINAL_COUNTS.fetch_add(1, Ordering::Relaxed);
    }
    let (distinct, slots) = sweep_layout(plans);
    let chunk_rows = chunk_rows.max(1);
    let n_chunks = rows.div_ceil(chunk_rows).max(1);
    if !parallel || n_chunks <= 1 {
        let mut hists: Vec<Vec<u64>> = plans.iter().map(|p| vec![0u64; p.cells]).collect();
        let mut scratch = CountScratch::default();
        for c in 0..n_chunks {
            let lo = c * chunk_rows;
            let hi = ((c + 1) * chunk_rows).min(rows);
            count_chunk(plans, &distinct, &slots, lo, hi, &mut hists, &mut scratch);
        }
        return hists;
    }
    let distinct = &distinct;
    let slots = &slots;
    let locals: Vec<Vec<Vec<u64>>> = (0..n_chunks)
        .into_par_iter()
        .map(|c| {
            let lo = c * chunk_rows;
            let hi = ((c + 1) * chunk_rows).min(rows);
            let mut scratch = CountScratch::default();
            let mut hists: Vec<Vec<u64>> = plans.iter().map(|p| vec![0u64; p.cells]).collect();
            count_chunk(plans, distinct, slots, lo, hi, &mut hists, &mut scratch);
            hists
        })
        .collect();
    // Merge partials in chunk order (order is irrelevant for u64 addition,
    // but determinism costs nothing).
    let mut hists: Vec<Vec<u64>> = plans.iter().map(|p| vec![0u64; p.cells]).collect();
    for local in locals {
        for (hist, part) in hists.iter_mut().zip(local) {
            for (h, p) in hist.iter_mut().zip(part) {
                *h += p;
            }
        }
    }
    hists
}

/// Whether a sweep over `rows` rows should fan out across threads.
fn should_parallelize(rows: usize) -> bool {
    rows >= PAR_ROW_THRESHOLD && rayon::current_num_threads() > 1
}

/// Chunk size for a production sweep: [`CHUNK_ROWS`], grown as needed so a
/// parallel sweep never materializes more than ~4 partial histogram sets
/// per worker at the merge barrier (the transient memory is
/// `n_chunks × Σ cells` until merged; chunk *size* has no effect on the
/// counts, only on locality and that bound).
fn production_chunk_rows(rows: usize) -> usize {
    let max_chunks = rayon::current_num_threads().saturating_mul(4).max(1);
    CHUNK_ROWS.max(rows.div_ceil(max_chunks))
}

/// One-shot engine-kernel count (the implementation behind
/// [`Marginal::from_dataset`]).
pub(crate) fn count_marginal(
    dataset: &Dataset,
    attrs: &[usize],
    cell_limit: usize,
) -> Result<Marginal> {
    let plan = CountPlan::build(dataset, attrs, cell_limit)?;
    let rows = dataset.n_rows();
    let parallel = should_parallelize(rows);
    let hist = sweep_plans(
        std::slice::from_ref(&plan),
        rows,
        production_chunk_rows(rows),
        parallel,
    )
    .pop()
    .expect("one histogram per plan");
    plan.into_marginal(hist)
}

/// Test/bench hook: count with an explicit chunk size, always taking the
/// chunk-merge code path when more than one chunk results. Used by the
/// differential proptests to pin parallel-vs-sequential bit-identity.
#[doc(hidden)]
pub fn count_marginal_chunked(
    dataset: &Dataset,
    attrs: &[usize],
    cell_limit: usize,
    chunk_rows: usize,
) -> Result<Marginal> {
    let plan = CountPlan::build(dataset, attrs, cell_limit)?;
    let rows = dataset.n_rows();
    let hist = sweep_plans(std::slice::from_ref(&plan), rows, chunk_rows, true)
        .pop()
        .expect("one histogram per plan");
    plan.into_marginal(hist)
}

/// Default soft bound on the total cells a [`MarginalCache`] retains
/// (16M `f64` cells = 128 MB). Benchmark-scale tables never come close; the
/// bound exists so a wide-domain fit that prefetches hundreds of large pair
/// joints degrades to recounting instead of exhausting memory.
pub const DEFAULT_CACHE_CELL_BUDGET: usize = 1 << 24;

/// Per-fit memo of counted marginals, keyed by attribute set (in the order
/// requested — `[a, b]` and `[b, a]` are distinct tables). Bounded by a
/// total-cell budget with FIFO eviction: hot small tables stay, and an
/// over-budget workload trades cache hits for recounts rather than memory.
#[derive(Debug)]
pub struct MarginalCache {
    map: HashMap<Vec<usize>, Marginal>,
    /// Insertion order, for FIFO eviction (keys are unique: entries are
    /// inserted only when absent).
    order: VecDeque<Vec<usize>>,
    total_cells: usize,
    cell_budget: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Default for MarginalCache {
    fn default() -> Self {
        MarginalCache {
            map: HashMap::new(),
            order: VecDeque::new(),
            total_cells: 0,
            cell_budget: DEFAULT_CACHE_CELL_BUDGET,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }
}

impl MarginalCache {
    /// Record a freshly counted marginal (the key must be absent).
    fn insert(&mut self, key: Vec<usize>, marginal: Marginal) {
        debug_assert!(!self.map.contains_key(&key));
        self.total_cells += marginal.n_cells();
        self.order.push_back(key.clone());
        self.map.insert(key, marginal);
        self.misses += 1;
    }

    /// Evict oldest entries until the budget holds, sparing `keep` (the
    /// entry a caller is about to borrow).
    fn enforce_budget(&mut self, keep: &[usize]) {
        while self.total_cells > self.cell_budget && self.order.len() > 1 {
            let victim = self.order.pop_front().expect("len checked above");
            if victim == keep {
                self.order.push_back(victim);
                continue;
            }
            if let Some(evicted) = self.map.remove(&victim) {
                self.total_cells -= evicted.n_cells();
                self.evictions += 1;
            }
        }
    }

    /// Cache lookups that were served without touching the data.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache lookups that required a counting pass.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries dropped to stay under the cell budget.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Number of distinct attribute sets cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing has been counted yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Batched, cached, parallel marginal counter over one dataset.
///
/// Synthesizers hold one engine per fit: every true-data marginal a
/// selection loop needs goes through [`count`](MarginalEngine::count) (or is
/// warmed in bulk by [`prefetch`](MarginalEngine::prefetch) /
/// [`count_many`](MarginalEngine::count_many)), so repeated rounds hit the
/// [`MarginalCache`] instead of rescanning the data.
pub struct MarginalEngine<'d> {
    data: &'d Dataset,
    cell_limit: usize,
    cache: MarginalCache,
}

impl<'d> MarginalEngine<'d> {
    /// Engine over `data` with [`DEFAULT_CELL_LIMIT`].
    pub fn new(data: &'d Dataset) -> MarginalEngine<'d> {
        MarginalEngine::with_cell_limit(data, DEFAULT_CELL_LIMIT)
    }

    /// Engine over `data` refusing tables larger than `cell_limit` cells.
    pub fn with_cell_limit(data: &'d Dataset, cell_limit: usize) -> MarginalEngine<'d> {
        MarginalEngine {
            data,
            cell_limit,
            cache: MarginalCache::default(),
        }
    }

    /// The dataset this engine counts over.
    pub fn dataset(&self) -> &'d Dataset {
        self.data
    }

    /// Cache statistics for this fit.
    pub fn cache(&self) -> &MarginalCache {
        &self.cache
    }

    /// The true marginal of `attrs`, counted at most once per engine.
    ///
    /// # Errors
    /// Same contract as [`Marginal::from_dataset`].
    pub fn count(&mut self, attrs: &[usize]) -> Result<&Marginal> {
        if self.cache.map.contains_key(attrs) {
            self.cache.hits += 1;
        } else {
            let marginal = count_marginal(self.data, attrs, self.cell_limit)?;
            self.cache.insert(attrs.to_vec(), marginal);
            self.cache.enforce_budget(attrs);
        }
        Ok(self
            .cache
            .map
            .get(attrs)
            .expect("present: hit or just inserted"))
    }

    /// The cached marginal for `attrs`, if it has already been counted — a
    /// pure read: no hit/miss accounting, no eviction, `&self` only. This
    /// is what lets the synthesizers' parallel scoring closures read a
    /// shared engine after a sequential warm-up pass has counted (or
    /// prefetched) every candidate.
    pub fn peek(&self, attrs: &[usize]) -> Option<&Marginal> {
        self.cache.map.get(attrs)
    }

    /// Warm the cache for a whole batch of attribute sets with fused sweeps:
    /// the not-yet-cached sets are grouped and counted together, so the data
    /// is streamed through cache once per chunk for the entire group rather
    /// than once per set.
    ///
    /// # Errors
    /// Fails on the first invalid or oversized set (in batch order), leaving
    /// previously cached sets intact and counting nothing.
    pub fn prefetch(&mut self, sets: &[Vec<usize>]) -> Result<()> {
        // Plan every uncached set up front so validation errors surface in
        // batch order before any counting work happens.
        let mut pending: Vec<CountPlan<'d>> = Vec::new();
        for attrs in sets {
            if self.cache.map.contains_key(attrs.as_slice())
                || pending.iter().any(|p| &p.attrs == attrs)
            {
                continue;
            }
            pending.push(CountPlan::build(self.data, attrs, self.cell_limit)?);
        }
        if pending.is_empty() {
            return Ok(());
        }
        let rows = self.data.n_rows();
        let parallel = should_parallelize(rows);
        // Bound a group's scratch: every set fits `cell_limit` individually,
        // so cap the fused batch at the same total.
        let mut group: Vec<CountPlan<'d>> = Vec::new();
        let mut group_cells = 0usize;
        let flush = |group: &mut Vec<CountPlan<'d>>, cache: &mut MarginalCache| -> Result<()> {
            if group.is_empty() {
                return Ok(());
            }
            let hists = sweep_plans(group, rows, production_chunk_rows(rows), parallel);
            for (plan, hist) in group.drain(..).zip(hists) {
                let key = plan.attrs.clone();
                let marginal = plan.into_marginal(hist)?;
                cache.insert(key, marginal);
            }
            cache.enforce_budget(&[]);
            Ok(())
        };
        for plan in pending {
            if !group.is_empty() && group_cells + plan.cells > self.cell_limit {
                flush(&mut group, &mut self.cache)?;
                group_cells = 0;
            }
            group_cells += plan.cells;
            group.push(plan);
        }
        flush(&mut group, &mut self.cache)?;
        Ok(())
    }

    /// Count a whole batch of attribute sets in fused sweeps, returning the
    /// marginals in request order (cloned out of the cache, which keeps
    /// serving later [`count`](MarginalEngine::count) calls).
    ///
    /// # Errors
    /// Same contract as [`prefetch`](MarginalEngine::prefetch).
    pub fn count_many(&mut self, sets: &[Vec<usize>]) -> Result<Vec<Marginal>> {
        self.prefetch(sets)?;
        sets.iter()
            .map(|attrs| Ok(self.count(attrs)?.clone()))
            .collect()
    }

    /// Empirical mutual information between attributes `a` and `b`, with the
    /// joint served from the cache (bit-identical to
    /// [`crate::mutual_information`]).
    pub fn mutual_information(&mut self, a: usize, b: usize) -> Result<f64> {
        let joint = self.count(&[a, b])?;
        mi_from_joint(joint)
    }
}

impl std::fmt::Debug for MarginalEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MarginalEngine")
            .field("rows", &self.data.n_rows())
            .field("cell_limit", &self.cell_limit)
            .field("cached", &self.cache.len())
            .field("hits", &self.cache.hits)
            .field("misses", &self.cache.misses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::Attribute;
    use crate::domain::Domain;

    fn toy(rows: usize) -> Dataset {
        let domain = Domain::new(vec![
            Attribute::binary("x"),
            Attribute::ordinal("y", 3),
            Attribute::ordinal("z", 4),
        ]);
        let mut ds = Dataset::with_capacity(domain, rows);
        for r in 0..rows {
            ds.push_row(&[(r % 2) as u32, (r % 3) as u32, ((r * 7) % 4) as u32])
                .unwrap();
        }
        ds
    }

    #[test]
    fn engine_matches_naive_count() {
        let ds = toy(257);
        let mut engine = MarginalEngine::new(&ds);
        for attrs in [vec![0], vec![1], vec![0, 1], vec![2, 0], vec![0, 1, 2]] {
            let fast = engine.count(&attrs).unwrap().clone();
            let naive = Marginal::count_naive(&ds, &attrs).unwrap();
            assert_eq!(fast, naive, "attrs {attrs:?}");
        }
    }

    #[test]
    fn fused_batch_matches_naive_across_decode_blocks() {
        let sets = [vec![0], vec![1], vec![0, 1], vec![2, 0], vec![0, 1, 2]];
        // 8,195 rows cross a decode-block boundary (`BLOCK_ROWS`).
        for rows in [4_099, 8_195] {
            let ds = toy(rows);
            let batch = MarginalEngine::new(&ds).count_many(&sets).unwrap();
            for (attrs, fast) in sets.iter().zip(&batch) {
                let naive = Marginal::count_naive(&ds, attrs).unwrap();
                assert_eq!(fast, &naive, "rows {rows} attrs {attrs:?}");
            }
            // One-way sets over codes wider than 8 bits (9 and 12 bits)
            // take the out-of-line runtime-width body; at 8,195 rows the
            // second block starts mid-word.
            let wide_domain = Domain::new(vec![
                Attribute::ordinal("w9", 257),
                Attribute::ordinal("w12", 4_096),
            ]);
            let wide_cols = vec![
                (0..rows).map(|r| ((r * 131) % 257) as u32).collect(),
                (0..rows)
                    .map(|r| ((r * 2_333 + r / 7) % 4_096) as u32)
                    .collect(),
            ];
            let wide = Dataset::new(wide_domain, wide_cols).unwrap();
            let one_way = [vec![0], vec![1]];
            let batch = MarginalEngine::new(&wide).count_many(&one_way).unwrap();
            for (attrs, fast) in one_way.iter().zip(&batch) {
                let naive = Marginal::count_naive(&wide, attrs).unwrap();
                assert_eq!(fast, &naive, "rows {rows} wide attrs {attrs:?}");
            }
        }
    }

    #[test]
    fn cache_serves_repeats_without_recounting() {
        let ds = toy(64);
        let mut engine = MarginalEngine::new(&ds);
        engine.count(&[0, 1]).unwrap();
        engine.count(&[0, 1]).unwrap();
        engine.count(&[0, 1]).unwrap();
        // Per-engine stats (race-free under the parallel test harness,
        // unlike the process-wide counter): one counting pass, two hits.
        assert_eq!(engine.cache().hits(), 2);
        assert_eq!(engine.cache().misses(), 1);
    }

    #[test]
    fn count_many_matches_individual_counts() {
        let ds = toy(123);
        let sets = vec![vec![0], vec![1], vec![2], vec![0, 2], vec![1, 2]];
        let mut engine = MarginalEngine::new(&ds);
        let batch = engine.count_many(&sets).unwrap();
        for (attrs, m) in sets.iter().zip(&batch) {
            assert_eq!(m, &Marginal::count_naive(&ds, attrs).unwrap());
        }
        // The batch itself cost one pass per set; re-requesting costs none.
        assert_eq!(engine.cache().misses(), sets.len() as u64);
        engine.count_many(&sets).unwrap();
        assert_eq!(engine.cache().misses(), sets.len() as u64);
    }

    #[test]
    fn prefetch_errors_leave_cache_usable() {
        let ds = toy(32);
        let mut engine = MarginalEngine::with_cell_limit(&ds, 4);
        // [1, 2] has 12 cells > 4: the whole batch fails before counting.
        let err = engine.prefetch(&[vec![0], vec![1, 2]]).unwrap_err();
        assert!(matches!(err, DataError::MarginalTooLarge { .. }));
        assert!(engine.cache().is_empty());
        // The engine still counts what fits.
        assert_eq!(engine.count(&[0]).unwrap().total(), 32.0);
    }

    #[test]
    fn engine_mi_matches_free_function() {
        let ds = toy(300);
        let mut engine = MarginalEngine::new(&ds);
        let via_engine = engine.mutual_information(1, 2).unwrap();
        let direct = crate::mutual_information(&ds, 1, 2).unwrap();
        assert_eq!(via_engine.to_bits(), direct.to_bits());
    }

    #[test]
    fn cache_budget_evicts_fifo_but_answers_stay_correct() {
        let ds = toy(90);
        // Budget of 8 cells: the 2-way tables (6, 8, 12 cells) cannot all
        // stay resident; the newest entry always survives.
        let mut engine = MarginalEngine::new(&ds);
        engine.cache.cell_budget = 8;
        let sets = [vec![0, 1], vec![0, 2], vec![1, 2]];
        for _ in 0..3 {
            for attrs in &sets {
                let fast = engine.count(attrs).unwrap().clone();
                assert_eq!(fast, Marginal::count_naive(&ds, attrs).unwrap());
            }
        }
        assert!(engine.cache().evictions() > 0);
        // Retained cells never exceed budget + the most recent entry.
        assert!(engine.cache().len() <= 2);
        // Unbudgeted engine on the same loop makes exactly 3 passes.
        let mut roomy = MarginalEngine::new(&ds);
        for _ in 0..3 {
            for attrs in &sets {
                roomy.count(attrs).unwrap();
            }
        }
        assert_eq!(roomy.cache().misses(), 3);
        assert_eq!(roomy.cache().hits(), 6);
    }

    #[test]
    fn empty_dataset_counts_to_zero() {
        let ds = toy(0);
        let mut engine = MarginalEngine::new(&ds);
        let m = engine.count(&[0, 1]).unwrap();
        assert_eq!(m.total(), 0.0);
        assert_eq!(m.n_cells(), 6);
    }

    #[test]
    fn constant_attribute_counts_by_range_addition() {
        // A cardinality-1 attribute stores no words; the one-way kernel
        // counts it with a single range-length addition and the wider
        // kernels decode it to zeros.
        let domain = Domain::new(vec![
            Attribute::categorical_from("const", &["only"]),
            Attribute::ordinal("y", 3),
        ]);
        let cols = vec![vec![0u32; 100], (0..100u32).map(|i| i % 3).collect()];
        let ds = Dataset::new(domain, cols).unwrap();
        let mut engine = MarginalEngine::new(&ds);
        assert_eq!(engine.count(&[0]).unwrap().counts(), &[100.0]);
        let joint = engine.count(&[0, 1]).unwrap();
        assert_eq!(joint.counts(), &[34.0, 33.0, 33.0]);
    }
}
