//! Bit-packed column storage.
//!
//! A [`PackedColumn`] stores one attribute's codes at `ceil(log2(card))`
//! bits each inside 64-bit words. The layout is *aligned*: each word holds
//! `floor(64 / width)` codes and a value never straddles a word boundary,
//! so extraction is one shift and one mask (the 1-bit case degenerates to
//! the classic binary occupancy grid of tile engines — 64 cells per word).
//! The top `64 mod width` bits of every word are zero padding, which makes
//! the word image canonical: two columns with equal codes have equal words,
//! so derived `PartialEq` is logical equality.
//!
//! Bit widths follow the attribute cardinality, not the data: a cardinality
//! of 2–20 costs 1–5 bits per cell instead of the 32 the previous
//! `Vec<u32>` layout spent, and a cardinality-1 attribute costs 0 bits —
//! the column stores nothing at all and decodes to zeros.
//!
//! Random access divides the row index by the codes-per-word factor. That
//! division sits on the `RowRef::get` hot path, so it is strength-reduced
//! to a multiply-shift (the magic-number scheme of Lemire, Kaser & Kurz,
//! "Faster remainder by direct computation", exact for all row indices
//! below 2^32) with a plain-division fallback beyond.
//!
//! Everything that reads a column — the marginal engine's counting
//! kernels, the paper replications and the samplers — goes
//! through `get` / `for_each_code` / `decode_into` / `iter_words`, never a
//! raw code slice. The differential oracle is a plain `Vec<u32>` per
//! column: the proptests in `tests/packed_oracle.rs` keep one beside every
//! dataset they pack and pin every reader against it.

/// Bits needed to store codes `0..cardinality`: `ceil(log2(cardinality))`,
/// with constant columns (cardinality ≤ 1) costing 0 bits. Codes are `u32`,
/// so the width never exceeds 32.
pub fn width_for(cardinality: usize) -> u32 {
    if cardinality <= 1 {
        0
    } else {
        (usize::BITS - (cardinality - 1).leading_zeros()).min(32)
    }
}

/// One attribute's codes, bit-packed into 64-bit words (see the module
/// docs for the layout).
#[derive(Debug, Clone, PartialEq)]
pub struct PackedColumn {
    words: Vec<u64>,
    len: usize,
    width: u32,
    /// Codes per word: `64 / width` (unused sentinel 64 when `width == 0`).
    per_word: u32,
    /// `(1 << width) - 1`; extraction mask.
    mask: u64,
    /// Lemire fast-division magic for `row / per_word`.
    magic: u64,
}

impl PackedColumn {
    /// An empty column for codes `0..cardinality`.
    pub fn new(cardinality: usize) -> PackedColumn {
        PackedColumn::with_capacity(cardinality, 0)
    }

    /// An empty column with space reserved for `rows` codes.
    pub fn with_capacity(cardinality: usize, rows: usize) -> PackedColumn {
        let width = width_for(cardinality);
        // A width-0 column stores no words; give it a nominal 64 codes per
        // word so the locate math stays well-defined.
        let per_word = 64 / width.max(1);
        let words = if width == 0 {
            Vec::new()
        } else {
            Vec::with_capacity(rows.div_ceil(per_word as usize))
        };
        PackedColumn {
            words,
            len: 0,
            width,
            per_word,
            mask: if width == 0 { 0 } else { (1u64 << width) - 1 },
            magic: u64::MAX / u64::from(per_word) + 1,
        }
    }

    /// Bulk-pack a slice of codes (word-major, one pass). Codes must be in
    /// `0..cardinality`; the caller validates (as `Dataset::new` does).
    pub fn from_codes(cardinality: usize, codes: &[u32]) -> PackedColumn {
        let mut col = PackedColumn::with_capacity(cardinality, codes.len());
        if col.width == 0 {
            col.len = codes.len();
            return col;
        }
        debug_assert!(codes.iter().all(|&c| u64::from(c) <= col.mask));
        let width = col.width;
        for chunk in codes.chunks(col.per_word as usize) {
            let mut word = 0u64;
            let mut shift = 0u32;
            for &c in chunk {
                word |= u64::from(c) << shift;
                shift += width;
            }
            col.words.push(word);
        }
        col.len = codes.len();
        col
    }

    /// `(word index, bit shift)` of `row`. Only meaningful for `width > 0`.
    #[inline(always)]
    fn locate(&self, row: usize) -> (usize, u32) {
        debug_assert!(self.width > 0);
        let r = row as u64;
        let word = if r <= u64::from(u32::MAX) {
            // Exact for r < 2^32 and per_word <= 64 (Lemire fastdiv).
            ((u128::from(self.magic) * u128::from(r)) >> 64) as u64
        } else {
            r / u64::from(self.per_word)
        };
        let slot = r - word * u64::from(self.per_word);
        (word as usize, slot as u32 * self.width)
    }

    /// Append one code. The caller guarantees `code < cardinality` (as
    /// `Dataset::push_row` does after validation).
    #[inline]
    pub fn push(&mut self, code: u32) {
        debug_assert!(self.width == 32 || u64::from(code) <= self.mask);
        if self.width == 0 {
            self.len += 1;
            return;
        }
        let (word, shift) = self.locate(self.len);
        if word == self.words.len() {
            debug_assert_eq!(shift, 0);
            self.words.push(u64::from(code));
        } else {
            self.words[word] |= u64::from(code) << shift;
        }
        self.len += 1;
    }

    /// Heap bytes of the packed word image.
    pub fn packed_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }

    /// Number of codes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the column holds no codes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bits per code in this layout (0 for constant columns).
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The code at `row`. Panics if `row >= len()`.
    #[inline]
    pub fn get(&self, row: usize) -> u32 {
        assert!(
            row < self.len,
            "row {row} out of range for column of {} rows",
            self.len
        );
        if self.width == 0 {
            return 0;
        }
        let (word, shift) = self.locate(row);
        ((self.words[word] >> shift) & self.mask) as u32
    }

    /// Visit the codes of rows `lo..hi` in order. Panics on an out-of-range
    /// or inverted range.
    pub fn for_each_range(&self, lo: usize, hi: usize, mut f: impl FnMut(u32)) {
        assert!(lo <= hi && hi <= self.len, "range {lo}..{hi} out of bounds");
        if self.width == 0 {
            for _ in lo..hi {
                f(0);
            }
            return;
        }
        visit_words(&self.words, self.width, lo, hi, &mut f);
    }

    /// Visit every code in row order.
    pub fn for_each_code(&self, f: impl FnMut(u32)) {
        self.for_each_range(0, self.len, f);
    }

    /// Decode rows `lo..hi` into `out`, which must hold exactly `hi - lo`
    /// slots.
    pub fn decode_range_into(&self, lo: usize, hi: usize, out: &mut [u32]) {
        assert!(lo <= hi && hi <= self.len, "range {lo}..{hi} out of bounds");
        assert_eq!(out.len(), hi - lo, "output slice must match the range");
        // Const-width dispatch: the common small widths get fully unrolled
        // shift/mask bodies; anything wider takes the generic loop.
        match self.width {
            0 => out.fill(0),
            1 => decode_words_const::<1>(&self.words, lo, out),
            2 => decode_words_const::<2>(&self.words, lo, out),
            3 => decode_words_const::<3>(&self.words, lo, out),
            4 => decode_words_const::<4>(&self.words, lo, out),
            5 => decode_words_const::<5>(&self.words, lo, out),
            6 => decode_words_const::<6>(&self.words, lo, out),
            7 => decode_words_const::<7>(&self.words, lo, out),
            8 => decode_words_const::<8>(&self.words, lo, out),
            w => decode_words(&self.words, w, lo, out),
        }
    }

    /// Decode the whole column into a reusable scratch vector (cleared and
    /// resized to `len()`).
    pub fn decode_into(&self, out: &mut Vec<u32>) {
        out.clear();
        out.resize(self.len, 0);
        self.decode_range_into(0, self.len, out);
    }

    /// The backing words for kernels that unpack inline. Width-0 columns
    /// store no words and return an empty slice.
    pub fn iter_words(&self) -> &[u64] {
        &self.words
    }
}

/// Word-major decode of rows `lo..lo + out.len()` from an aligned packing.
/// `#[inline(always)]` so the const-width wrappers below fold `width`,
/// `per`, and `mask` to constants and the inner loops fully unroll.
#[inline(always)]
fn decode_words(words: &[u64], width: u32, lo: usize, out: &mut [u32]) {
    let n = out.len();
    if n == 0 {
        return;
    }
    let per = (64 / width) as usize;
    let mask = (1u64 << width) - 1;
    let mut word_idx = lo / per;
    let head_slot = lo % per;
    let mut i = 0usize;
    if head_slot != 0 {
        let mut x = words[word_idx] >> (head_slot as u32 * width);
        let take = (per - head_slot).min(n);
        for o in &mut out[..take] {
            *o = (x & mask) as u32;
            x >>= width;
        }
        i = take;
        word_idx += 1;
    }
    while n - i >= per {
        let mut x = words[word_idx];
        for o in &mut out[i..i + per] {
            *o = (x & mask) as u32;
            x >>= width;
        }
        i += per;
        word_idx += 1;
    }
    if i < n {
        let mut x = words[word_idx];
        for o in &mut out[i..] {
            *o = (x & mask) as u32;
            x >>= width;
        }
    }
}

fn decode_words_const<const W: u32>(words: &[u64], lo: usize, out: &mut [u32]) {
    decode_words(words, W, lo, out);
}

/// Word-major visit of rows `lo..hi`; the streaming counterpart of
/// [`decode_words`] for callers that fold instead of materializing.
#[inline(always)]
fn visit_words(words: &[u64], width: u32, lo: usize, hi: usize, mut f: impl FnMut(u32)) {
    let n = hi - lo;
    if n == 0 {
        return;
    }
    let per = (64 / width) as usize;
    let mask = (1u64 << width) - 1;
    let mut word_idx = lo / per;
    let head_slot = lo % per;
    let mut remaining = n;
    if head_slot != 0 {
        let mut x = words[word_idx] >> (head_slot as u32 * width);
        let take = (per - head_slot).min(remaining);
        for _ in 0..take {
            f((x & mask) as u32);
            x >>= width;
        }
        remaining -= take;
        word_idx += 1;
    }
    while remaining >= per {
        let mut x = words[word_idx];
        for _ in 0..per {
            f((x & mask) as u32);
            x >>= width;
        }
        remaining -= per;
        word_idx += 1;
    }
    if remaining > 0 {
        let mut x = words[word_idx];
        for _ in 0..remaining {
            f((x & mask) as u32);
            x >>= width;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_for_matches_ceil_log2() {
        for (card, want) in [
            (0, 0),
            (1, 0),
            (2, 1),
            (3, 2),
            (4, 2),
            (5, 3),
            (8, 3),
            (9, 4),
            (16, 4),
            (17, 5),
            (1 << 20, 20),
        ] {
            assert_eq!(width_for(card), want, "card {card}");
        }
    }

    fn ramp(card: usize, n: usize) -> Vec<u32> {
        (0..n).map(|i| ((i * 7 + i / 5) % card) as u32).collect()
    }

    #[test]
    fn push_and_bulk_pack_agree_across_widths() {
        for card in [1usize, 2, 3, 5, 8, 17, 100, 1 << 16] {
            for n in [0usize, 1, 63, 64, 65, 200] {
                let codes = ramp(card.max(1), n);
                let bulk = PackedColumn::from_codes(card, &codes);
                let mut pushed = PackedColumn::new(card);
                for &c in &codes {
                    pushed.push(c);
                }
                assert_eq!(bulk, pushed, "card {card} n {n}");
                assert_eq!(bulk.len(), n);
                for (r, &c) in codes.iter().enumerate() {
                    assert_eq!(bulk.get(r), c, "card {card} n {n} row {r}");
                }
            }
        }
    }

    #[test]
    fn decode_ranges_match_source_slices() {
        let card = 17; // width 5, 12 codes per word: exercises padding bits.
        let codes = ramp(card, 301);
        let col = PackedColumn::from_codes(card, &codes);
        for (lo, hi) in [(0, 301), (0, 0), (5, 5), (0, 12), (11, 25), (250, 301)] {
            let mut out = vec![0u32; hi - lo];
            col.decode_range_into(lo, hi, &mut out);
            assert_eq!(&out[..], &codes[lo..hi], "{lo}..{hi}");
            let mut visited = Vec::new();
            col.for_each_range(lo, hi, |c| visited.push(c));
            assert_eq!(&visited[..], &codes[lo..hi], "{lo}..{hi} via visit");
        }
        let mut all = Vec::new();
        col.decode_into(&mut all);
        assert_eq!(all, codes);
    }

    #[test]
    fn constant_column_stores_no_words() {
        let mut col = PackedColumn::new(1);
        for _ in 0..1000 {
            col.push(0);
        }
        assert_eq!(col.len(), 1000);
        assert_eq!(col.width(), 0);
        assert!(col.iter_words().is_empty());
        assert_eq!(col.packed_bytes(), 0);
        assert_eq!(col.get(999), 0);
        let mut out = Vec::new();
        col.decode_into(&mut out);
        assert!(out.iter().all(|&c| c == 0));
    }

    #[test]
    fn padding_is_canonical_so_eq_is_logical() {
        // Build the same logical column two ways; words must match exactly,
        // including the padding bits of the final partial word.
        let codes = ramp(5, 70);
        let a = PackedColumn::from_codes(5, &codes);
        let mut b = PackedColumn::with_capacity(5, 70);
        for &c in &codes {
            b.push(c);
        }
        assert_eq!(a.iter_words(), b.iter_words());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_past_len_panics() {
        let col = PackedColumn::from_codes(4, &[1, 2, 3]);
        col.get(3);
    }

    #[test]
    fn wide_codes_round_trip() {
        // Width above the const-dispatch table takes the generic path.
        let card = 1 << 20;
        let codes: Vec<u32> = (0..50u32).map(|i| i * 19_391 % (card as u32)).collect();
        let col = PackedColumn::from_codes(card, &codes);
        assert_eq!(col.width(), 20);
        let mut out = Vec::new();
        col.decode_into(&mut out);
        assert_eq!(out, codes);
    }
}
