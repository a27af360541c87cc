//! Synthetic study generators.
//!
//! The benchmark papers analyze restricted-access ICPSR microdata that we
//! cannot redistribute, so each generator produces a synthetic population
//! with (a) the schema of Table 1 — variable counts, domain sizes, sample
//! sizes — and (b) *planted* statistical relationships chosen so that every
//! finding of the corresponding publication is true on the generated data.
//! The README's "Departures from the paper" documents this substitution.
//!
//! All generators are deterministic functions of `(n, seed)`.

pub mod acl;
pub mod addhealth;
pub mod hsls;
pub mod nsduh;
pub mod uci;
pub(crate) mod util;

use crate::dataset::Dataset;

/// The ten datasets characterized in Table 1: the eight benchmark papers plus
/// the Adult/Mushroom comparison datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchmarkDataset {
    /// Saw, Chang & Chan 2018 (HSLS:09) — STEM career aspiration disparities.
    Saw2018,
    /// Lee & Simpkins 2021 (HSLS:09) — math performance and teacher support.
    Lee2021,
    /// Jeong et al. 2021 (HSLS:09) — racial bias in ML performance prediction.
    Jeong2021,
    /// Fruiht & Chan 2018 (AddHealth) — mentorship and education attainment.
    Fruiht2018,
    /// Iverson & Terry 2021 (AddHealth) — high-school football and depression.
    Iverson2021,
    /// Fairman et al. 2019 (NSDUH) — marijuana-first substance initiation.
    Fairman2019,
    /// Assari & Bazargan 2019 (ACL) — obesity and cerebrovascular mortality.
    Assari2019,
    /// Pierce & Quiroz 2019 (ACL) — social support/strain and emotions.
    Pierce2019,
    /// UCI Adult analogue (comparison only).
    Adult,
    /// UCI Mushroom analogue (comparison only).
    Mushroom,
}

impl BenchmarkDataset {
    /// All ten datasets in Table 1 row order.
    pub const ALL: [BenchmarkDataset; 10] = [
        BenchmarkDataset::Assari2019,
        BenchmarkDataset::Fairman2019,
        BenchmarkDataset::Fruiht2018,
        BenchmarkDataset::Iverson2021,
        BenchmarkDataset::Jeong2021,
        BenchmarkDataset::Lee2021,
        BenchmarkDataset::Pierce2019,
        BenchmarkDataset::Saw2018,
        BenchmarkDataset::Adult,
        BenchmarkDataset::Mushroom,
    ];

    /// The eight paper datasets (no UCI comparisons).
    pub const PAPERS: [BenchmarkDataset; 8] = [
        BenchmarkDataset::Assari2019,
        BenchmarkDataset::Fairman2019,
        BenchmarkDataset::Fruiht2018,
        BenchmarkDataset::Iverson2021,
        BenchmarkDataset::Jeong2021,
        BenchmarkDataset::Lee2021,
        BenchmarkDataset::Pierce2019,
        BenchmarkDataset::Saw2018,
    ];

    /// Citation-style name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            BenchmarkDataset::Saw2018 => "Saw et al. [59]",
            BenchmarkDataset::Lee2021 => "Lee and Simpkins [39]",
            BenchmarkDataset::Jeong2021 => "Jeong et al. [35]",
            BenchmarkDataset::Fruiht2018 => "Fruiht and Chan [24]",
            BenchmarkDataset::Iverson2021 => "Iverson and Terry [31]",
            BenchmarkDataset::Fairman2019 => "Fairman et al. [23]",
            BenchmarkDataset::Assari2019 => "Assari and Bazargan [2]",
            BenchmarkDataset::Pierce2019 => "Pierce and Quiroz [47]",
            BenchmarkDataset::Adult => "Adult [38]",
            BenchmarkDataset::Mushroom => "Mushroom [60]",
        }
    }

    /// Short machine-friendly identifier.
    pub fn id(self) -> &'static str {
        match self {
            BenchmarkDataset::Saw2018 => "saw2018",
            BenchmarkDataset::Lee2021 => "lee2021",
            BenchmarkDataset::Jeong2021 => "jeong2021",
            BenchmarkDataset::Fruiht2018 => "fruiht2018",
            BenchmarkDataset::Iverson2021 => "iverson2021",
            BenchmarkDataset::Fairman2019 => "fairman2019",
            BenchmarkDataset::Assari2019 => "assari2019",
            BenchmarkDataset::Pierce2019 => "pierce2019",
            BenchmarkDataset::Adult => "adult",
            BenchmarkDataset::Mushroom => "mushroom",
        }
    }

    /// Sample size reported in Table 1.
    pub fn paper_n(self) -> usize {
        match self {
            BenchmarkDataset::Saw2018 => 20_242,
            BenchmarkDataset::Lee2021 => 14_575,
            BenchmarkDataset::Jeong2021 => 15_054,
            BenchmarkDataset::Fruiht2018 => 4_173,
            BenchmarkDataset::Iverson2021 => 1_762,
            BenchmarkDataset::Fairman2019 => 293_581,
            BenchmarkDataset::Assari2019 => 3_361,
            BenchmarkDataset::Pierce2019 => 1_585,
            BenchmarkDataset::Adult => 32_561,
            BenchmarkDataset::Mushroom => 8_124,
        }
    }

    /// Generate `n` rows deterministically from `seed`.
    pub fn generate(self, n: usize, seed: u64) -> Dataset {
        match self {
            BenchmarkDataset::Saw2018 => hsls::saw2018(n, seed),
            BenchmarkDataset::Lee2021 => hsls::lee2021(n, seed),
            BenchmarkDataset::Jeong2021 => hsls::jeong2021(n, seed),
            BenchmarkDataset::Fruiht2018 => addhealth::fruiht2018(n, seed),
            BenchmarkDataset::Iverson2021 => addhealth::iverson2021(n, seed),
            BenchmarkDataset::Fairman2019 => nsduh::fairman2019(n, seed),
            BenchmarkDataset::Assari2019 => acl::assari2019(n, seed),
            BenchmarkDataset::Pierce2019 => acl::pierce2019(n, seed),
            BenchmarkDataset::Adult => uci::adult(n, seed),
            BenchmarkDataset::Mushroom => uci::mushroom(n, seed),
        }
    }

    /// Generate at the paper's sample size.
    pub fn generate_paper(self, seed: u64) -> Dataset {
        self.generate(self.paper_n(), seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_generators_produce_requested_rows() {
        for ds in BenchmarkDataset::ALL {
            let data = ds.generate(200, 7);
            assert_eq!(data.n_rows(), 200, "{}", ds.id());
            assert!(data.n_attrs() >= 6, "{}", ds.id());
        }
    }

    #[test]
    fn generators_are_deterministic() {
        for ds in BenchmarkDataset::ALL {
            let a = ds.generate(100, 42);
            let b = ds.generate(100, 42);
            assert_eq!(a, b, "{}", ds.id());
            let c = ds.generate(100, 43);
            assert_ne!(a, c, "{} should vary with seed", ds.id());
        }
    }

    #[test]
    fn variable_counts_match_table1() {
        let expected = [
            (BenchmarkDataset::Assari2019, 16),
            (BenchmarkDataset::Fairman2019, 6),
            (BenchmarkDataset::Fruiht2018, 11),
            (BenchmarkDataset::Iverson2021, 27),
            (BenchmarkDataset::Jeong2021, 57),
            (BenchmarkDataset::Lee2021, 9),
            (BenchmarkDataset::Pierce2019, 17),
            (BenchmarkDataset::Saw2018, 9),
            (BenchmarkDataset::Adult, 15),
            (BenchmarkDataset::Mushroom, 23),
        ];
        for (ds, vars) in expected {
            let data = ds.generate(50, 1);
            assert_eq!(data.n_attrs(), vars, "{}", ds.id());
        }
    }

    #[test]
    fn domain_sizes_match_table1_magnitudes() {
        // Same order of magnitude (within 1 decade) as Table 1.
        let expected = [
            (BenchmarkDataset::Assari2019, 9.03e9),
            (BenchmarkDataset::Fairman2019, 2.03e5),
            (BenchmarkDataset::Fruiht2018, 2.20e5),
            (BenchmarkDataset::Iverson2021, 5.71e15),
            (BenchmarkDataset::Jeong2021, 7.04e42),
            (BenchmarkDataset::Lee2021, 5.11e17),
            (BenchmarkDataset::Pierce2019, 7.19e11),
            (BenchmarkDataset::Saw2018, 4.30e4),
            (BenchmarkDataset::Adult, 9.06e14),
            (BenchmarkDataset::Mushroom, 2.44e14),
        ];
        for (ds, size) in expected {
            let data = ds.generate(10, 1);
            let got = data.domain().size();
            let ratio = got / size;
            assert!(
                (0.05..=20.0).contains(&ratio),
                "{}: domain {got:.3e} vs paper {size:.3e}",
                ds.id()
            );
        }
    }
}
