//! Workload generation for the workload-aware synthesizers (AIM, GEM).
//!
//! The paper's setting: scientists pre-select ~10–60 variables of interest
//! and "relationships between any of the selected variables of interest are
//! permitted", so the workload is all attribute pairs, uniformly weighted
//! (§2, *Workload-aware synthesizers*).

use synrd_data::Domain;
use synrd_pgm::CLIQUE_CELL_LIMIT;

/// All pairs of attributes, as sorted attribute sets.
pub fn all_pairs(domain: &Domain) -> Vec<Vec<usize>> {
    let d = domain.len();
    let mut out = Vec::with_capacity(d * d.saturating_sub(1) / 2);
    for a in 0..d {
        for b in (a + 1)..d {
            out.push(vec![a, b]);
        }
    }
    out
}

/// All pairs whose marginal table fits under [`CLIQUE_CELL_LIMIT`] — the
/// candidate filter AIM needs on wide-domain data, so every selected pair
/// stays estimable.
pub(crate) fn all_pairs_under(domain: &Domain) -> Vec<Vec<usize>> {
    all_pairs(domain)
        .into_iter()
        .filter(|pair| {
            domain
                .cells(pair)
                .map(|c| c <= CLIQUE_CELL_LIMIT as u128)
                .unwrap_or(false)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use synrd_data::Attribute;

    #[test]
    fn pair_count_is_binomial() {
        let domain = Domain::new(vec![
            Attribute::binary("a"),
            Attribute::binary("b"),
            Attribute::binary("c"),
            Attribute::ordinal("d", 5),
        ]);
        let w = all_pairs(&domain);
        assert_eq!(w.len(), 6);
        assert!(w.iter().all(|pair| pair.len() == 2 && pair[0] < pair[1]));
    }

    #[test]
    fn cell_limit_filters() {
        let domain = Domain::new(vec![
            Attribute::ordinal("big1", 2048),
            Attribute::ordinal("big2", 2048),
            Attribute::binary("small"),
        ]);
        let w = all_pairs_under(&domain);
        // big1×big2 = 4,194,304 cells, above the 2^21 limit, is excluded;
        // the two big×small pairs stay.
        assert_eq!(w, [vec![0, 2], vec![1, 2]]);
    }
}
