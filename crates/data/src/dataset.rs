//! Column-major discrete dataset over bit-packed storage.
//!
//! Storage is one [`PackedColumn`] per attribute: codes cost
//! `ceil(log2(card))` bits each instead of a full `u32`, which cuts the
//! bytes the marginal kernels stream by 4–16× on the benchmark registry
//! (see `packed.rs` for the word layout). All reads go through
//! [`PackedColumn`]'s readers — bulk readers decode into reusable scratch,
//! per-row readers use the [`RowRef`] cursor — never through a raw code
//! slice.

use crate::attribute::AttrKind;
use crate::digest::Fnv1a;
use crate::domain::{validate_attr_set, Domain};
use crate::error::{DataError, Result};
use crate::packed::PackedColumn;
use rand::Rng;

/// A discrete tabular dataset over a [`Domain`].
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    domain: Domain,
    /// `columns[a]` holds the codes of attribute `a`, bit-packed.
    columns: Vec<PackedColumn>,
    rows: usize,
}

/// A lightweight cursor over one row, used by [`Dataset::filter_rows`]
/// predicates and per-row readers ([`Dataset::row`]).
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    /// Direct column handle: `get` resolves bounds once via the packed
    /// column instead of re-walking `column(attr)?`'s error path per cell.
    columns: &'a [PackedColumn],
    row: usize,
}

impl<'a> RowRef<'a> {
    /// Code of attribute `attr` in this row. Panics on bad index (the
    /// dataset validated its shape on construction, so indices from the
    /// same domain are always in range).
    #[inline]
    pub fn get(&self, attr: usize) -> u32 {
        self.columns[attr].get(self.row)
    }

    /// Row index inside the parent dataset.
    pub fn index(&self) -> usize {
        self.row
    }
}

impl Dataset {
    /// Build a dataset from pre-validated columns, bit-packing each one.
    ///
    /// # Errors
    /// - [`DataError::RaggedColumns`] if column lengths differ or the column
    ///   count does not match the domain;
    /// - [`DataError::CodeOutOfRange`] if any code exceeds its attribute's
    ///   cardinality.
    pub fn new(domain: Domain, columns: Vec<Vec<u32>>) -> Result<Self> {
        if columns.len() != domain.len() {
            return Err(DataError::RaggedColumns);
        }
        let rows = columns.first().map_or(0, Vec::len);
        for col in &columns {
            if col.len() != rows {
                return Err(DataError::RaggedColumns);
            }
        }
        let mut packed = Vec::with_capacity(columns.len());
        for (a, col) in columns.iter().enumerate() {
            let card = domain.cardinality(a)?;
            if let Some(&bad) = col.iter().find(|&&c| c >= card as u32) {
                return Err(DataError::CodeOutOfRange {
                    attribute: domain.attribute(a)?.name().to_string(),
                    code: bad,
                    cardinality: card,
                });
            }
            packed.push(PackedColumn::from_codes(card, col));
        }
        Ok(Dataset {
            domain,
            columns: packed,
            rows,
        })
    }

    /// An empty dataset over `domain` with row capacity reserved.
    pub fn with_capacity(domain: Domain, capacity: usize) -> Self {
        let columns = domain
            .attributes()
            .iter()
            .map(|a| PackedColumn::with_capacity(a.cardinality(), capacity))
            .collect();
        Dataset {
            domain,
            columns,
            rows: 0,
        }
    }

    /// Append one row of codes.
    ///
    /// # Errors
    /// [`DataError::RowArity`] / [`DataError::CodeOutOfRange`] on shape or
    /// range mismatch. On error the dataset is unchanged.
    pub fn push_row(&mut self, row: &[u32]) -> Result<()> {
        if row.len() != self.domain.len() {
            return Err(DataError::RowArity {
                expected: self.domain.len(),
                got: row.len(),
            });
        }
        for (a, &code) in row.iter().enumerate() {
            let card = self.domain.cardinality(a)? as u32;
            if code >= card {
                return Err(DataError::CodeOutOfRange {
                    attribute: self.domain.attribute(a)?.name().to_string(),
                    code,
                    cardinality: card as usize,
                });
            }
        }
        for (col, &code) in self.columns.iter_mut().zip(row) {
            col.push(code);
        }
        self.rows += 1;
        Ok(())
    }

    /// The dataset's schema.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.rows
    }

    /// Number of attributes.
    pub fn n_attrs(&self) -> usize {
        self.domain.len()
    }

    /// Whether the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The packed column of one attribute (the entry point for kernels and
    /// streaming readers).
    pub fn packed_column(&self, attr: usize) -> Result<&PackedColumn> {
        self.columns
            .get(attr)
            .ok_or(DataError::AttributeIndexOutOfBounds {
                index: attr,
                len: self.columns.len(),
            })
    }

    /// Decode one attribute's codes into a fresh vector.
    pub fn decode_column(&self, attr: usize) -> Result<Vec<u32>> {
        let mut out = Vec::new();
        self.decode_column_into(attr, &mut out)?;
        Ok(out)
    }

    /// Decode one attribute's codes into a reusable scratch vector.
    pub fn decode_column_into(&self, attr: usize, out: &mut Vec<u32>) -> Result<()> {
        self.packed_column(attr)?.decode_into(out);
        Ok(())
    }

    /// Decode an attribute's codes looked up by name.
    pub fn decode_column_by_name(&self, name: &str) -> Result<Vec<u32>> {
        let idx = self.domain.index_of(name)?;
        self.decode_column(idx)
    }

    /// Decode every column into plain `Vec<u32>`s (the pre-packing layout;
    /// used by benches and differential oracles).
    pub fn to_columns(&self) -> Vec<Vec<u32>> {
        self.columns
            .iter()
            .map(|col| {
                let mut out = Vec::new();
                col.decode_into(&mut out);
                out
            })
            .collect()
    }

    /// Heap bytes of the packed storage across all columns.
    pub fn packed_bytes(&self) -> usize {
        self.columns.iter().map(PackedColumn::packed_bytes).sum()
    }

    /// Heap bytes the same columns would cost at one `u32` per cell (the
    /// pre-packing layout, for the bytes-per-row benchmark record).
    pub fn unpacked_bytes(&self) -> usize {
        self.rows * self.columns.len() * std::mem::size_of::<u32>()
    }

    /// Numeric interpretation of a column (bin midpoints / scores / codes).
    ///
    /// # Errors
    /// [`DataError::NotNumeric`] for categorical attributes.
    pub fn numeric_column(&self, attr: usize) -> Result<Vec<f64>> {
        let attribute = self.domain.attribute(attr)?;
        self.decode_column(attr)?
            .into_iter()
            .map(|c| attribute.numeric(c))
            .collect()
    }

    /// Code at `(row, attr)`. Bounds are resolved once; per-row loops
    /// should prefer the [`Dataset::row`] cursor.
    pub fn value(&self, row: usize, attr: usize) -> Result<u32> {
        let col = self.packed_column(attr)?;
        if row >= col.len() {
            return Err(DataError::RowArity {
                expected: self.rows,
                got: row,
            });
        }
        Ok(col.get(row))
    }

    /// Cursor over row `row`: repeated [`RowRef::get`] calls skip the
    /// per-cell attribute-resolution of [`Dataset::value`]. Panics if
    /// `row >= n_rows()` on the first `get`.
    pub fn row(&self, row: usize) -> RowRef<'_> {
        RowRef {
            columns: &self.columns,
            row,
        }
    }

    /// Project onto a subset of attributes, preserving the given order.
    pub fn select(&self, attrs: &[usize]) -> Result<Dataset> {
        validate_attr_set(self.domain.len(), attrs)?;
        let domain = self.domain.project(attrs)?;
        let columns = attrs.iter().map(|&a| self.columns[a].clone()).collect();
        Ok(Dataset {
            domain,
            columns,
            rows: self.rows,
        })
    }

    /// Keep the rows for which `pred` returns true, streaming matches
    /// straight into pre-sized packed builders (no intermediate keep-list).
    pub fn filter_rows(&self, pred: impl Fn(RowRef<'_>) -> bool) -> Dataset {
        let mut columns: Vec<PackedColumn> = self
            .domain
            .attributes()
            .iter()
            .map(|a| PackedColumn::with_capacity(a.cardinality(), self.rows))
            .collect();
        let mut rows = 0;
        for r in 0..self.rows {
            let row = RowRef {
                columns: &self.columns,
                row: r,
            };
            if pred(row) {
                for (dst, src) in columns.iter_mut().zip(&self.columns) {
                    dst.push(src.get(r));
                }
                rows += 1;
            }
        }
        Dataset {
            domain: self.domain.clone(),
            columns,
            rows,
        }
    }

    /// Materialize a dataset from a list of row indices (may repeat rows, as
    /// in bootstrap resampling).
    pub fn take_rows(&self, rows: &[usize]) -> Dataset {
        let columns = self
            .domain
            .attributes()
            .iter()
            .zip(&self.columns)
            .map(|(attr, src)| {
                let mut dst = PackedColumn::with_capacity(attr.cardinality(), rows.len());
                for &r in rows {
                    dst.push(src.get(r));
                }
                dst
            })
            .collect();
        Dataset {
            domain: self.domain.clone(),
            columns,
            rows: rows.len(),
        }
    }

    /// Uniform bootstrap resample of `n` rows (with replacement).
    pub fn bootstrap_sample<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Dataset {
        let rows: Vec<usize> = (0..n).map(|_| rng.gen_range(0..self.rows)).collect();
        self.take_rows(&rows)
    }

    /// Count of each code of one attribute: `counts[code]`. Counts in `u64`
    /// and converts once (the engine's integer-accumulation convention).
    pub fn value_counts(&self, attr: usize) -> Result<Vec<f64>> {
        let card = self.domain.cardinality(attr)?;
        let mut counts = vec![0u64; card];
        self.columns[attr].for_each_code(|c| counts[c as usize] += 1);
        Ok(counts.into_iter().map(|c| c as f64).collect())
    }

    /// Mean of the numeric interpretation of an attribute. For binary
    /// attributes this is the proportion of 1s.
    pub fn mean_of(&self, attr: usize) -> Result<f64> {
        let vals = self.numeric_column(attr)?;
        if vals.is_empty() {
            return Ok(f64::NAN);
        }
        Ok(vals.iter().sum::<f64>() / vals.len() as f64)
    }

    /// Proportion of rows whose attribute equals `code`.
    pub fn proportion(&self, attr: usize, code: u32) -> Result<f64> {
        let col = self.packed_column(attr)?;
        if col.is_empty() {
            return Ok(f64::NAN);
        }
        let mut hits = 0u64;
        col.for_each_code(|c| hits += u64::from(c == code));
        Ok(hits as f64 / col.len() as f64)
    }

    /// 64-bit FNV-1a digest over the full content: schema (names, kinds,
    /// labels, numeric scores bit-exactly) and every cell in column-major
    /// order. Two datasets digest equal iff they would behave identically
    /// under every fit — this is the dataset component of the fit-cache key,
    /// which is how papers sharing a generator share fitted models.
    pub fn content_digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.domain.len() as u64);
        for attr in self.domain.attributes() {
            h.write_str(attr.name());
            h.write_u64(match attr.kind() {
                AttrKind::Categorical => 0,
                AttrKind::Ordinal => 1,
                AttrKind::Binary => 2,
            });
            h.write_u64(attr.cardinality() as u64);
            for label in attr.categories() {
                h.write_str(label);
            }
            match attr.numeric_values() {
                None => {
                    h.write_u64(0);
                }
                Some(values) => {
                    h.write_u64(1);
                    for v in values {
                        h.write_u64(v.to_bits());
                    }
                }
            }
        }
        h.write_u64(self.rows as u64);
        for col in &self.columns {
            col.for_each_code(|c| {
                h.write_u64(u64::from(c));
            });
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::Attribute;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy() -> Dataset {
        let domain = Domain::new(vec![
            Attribute::binary("treated"),
            Attribute::ordinal("score", 5),
        ]);
        Dataset::new(domain, vec![vec![0, 1, 1, 0, 1], vec![0, 4, 3, 1, 4]]).unwrap()
    }

    #[test]
    fn construction_validates_shape_and_codes() {
        let domain = Domain::new(vec![Attribute::binary("b")]);
        assert!(matches!(
            Dataset::new(domain.clone(), vec![vec![0], vec![1]]),
            Err(DataError::RaggedColumns)
        ));
        assert!(matches!(
            Dataset::new(domain, vec![vec![0, 2]]),
            Err(DataError::CodeOutOfRange { .. })
        ));
    }

    #[test]
    fn push_row_is_atomic_on_error() {
        let mut ds = toy();
        let before = ds.n_rows();
        assert!(ds.push_row(&[1]).is_err());
        assert!(ds.push_row(&[1, 9]).is_err());
        assert_eq!(ds.n_rows(), before);
        ds.push_row(&[1, 2]).unwrap();
        assert_eq!(ds.n_rows(), before + 1);
    }

    #[test]
    fn select_and_filter() {
        let ds = toy();
        let only_score = ds.select(&[1]).unwrap();
        assert_eq!(only_score.n_attrs(), 1);
        assert_eq!(only_score.decode_column(0).unwrap(), vec![0, 4, 3, 1, 4]);

        let treated = ds.filter_rows(|r| r.get(0) == 1);
        assert_eq!(treated.n_rows(), 3);
        assert_eq!(treated.decode_column(1).unwrap(), vec![4, 3, 4]);
    }

    #[test]
    fn stats_helpers() {
        let ds = toy();
        assert!((ds.mean_of(0).unwrap() - 0.6).abs() < 1e-12);
        assert!((ds.proportion(1, 4).unwrap() - 0.4).abs() < 1e-12);
        assert_eq!(ds.value_counts(1).unwrap(), vec![1.0, 1.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn bootstrap_preserves_schema_and_size() {
        let ds = toy();
        let mut rng = StdRng::seed_from_u64(7);
        let bs = ds.bootstrap_sample(100, &mut rng);
        assert_eq!(bs.n_rows(), 100);
        assert_eq!(bs.domain(), ds.domain());
    }

    #[test]
    fn row_cursor_and_value_agree() {
        let ds = toy();
        for r in 0..ds.n_rows() {
            let row = ds.row(r);
            for a in 0..ds.n_attrs() {
                assert_eq!(row.get(a), ds.value(r, a).unwrap());
            }
        }
        assert!(ds.value(99, 0).is_err());
        assert!(ds.value(0, 99).is_err());
    }

    #[test]
    fn content_digest_tracks_schema_and_cells() {
        let ds = toy();
        assert_eq!(ds.content_digest(), toy().content_digest());
        // One flipped cell changes the digest.
        let mut cols = ds.to_columns();
        cols[0][0] = 1;
        let changed = Dataset::new(ds.domain().clone(), cols).unwrap();
        assert_ne!(ds.content_digest(), changed.content_digest());
        // Same cells under a renamed schema changes the digest.
        let renamed = Domain::new(vec![
            Attribute::binary("exposed"),
            Attribute::ordinal("score", 5),
        ]);
        let other = Dataset::new(renamed, ds.to_columns()).unwrap();
        assert_ne!(ds.content_digest(), other.content_digest());
    }

    #[test]
    fn packing_shrinks_storage() {
        let ds = toy();
        // 2 attrs × 5 rows × 4 bytes unpacked; packed fits in one word per
        // column (1-bit and 3-bit codes).
        assert_eq!(ds.unpacked_bytes(), 40);
        assert_eq!(ds.packed_bytes(), 16);
        assert_eq!(
            ds.to_columns(),
            vec![vec![0, 1, 1, 0, 1], vec![0, 4, 3, 1, 4]]
        );
    }
}
