//! Synthetic population for Fairman et al. (2019), built from NSDUH
//! (National Survey on Drug Use and Health).
//!
//! This is the benchmark's *large-n* dataset: ~293k rows over only 6
//! variables with a small domain (~2e5 cells). The paper found this shape
//! uniquely sensitive to marginal noise at low ε because findings compare
//! counts, so this generator deliberately keeps relationships modest in
//! magnitude.

use crate::attribute::Attribute;
use crate::dataset::Dataset;
use crate::domain::Domain;
use crate::generators::util::{bernoulli, categorical, softmax_choice};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Codes of the `first_substance` attribute (code 0 is "none").
pub const FIRST_ALCOHOL: u32 = 1;
pub const FIRST_CIGARETTES: u32 = 2;
pub const FIRST_MARIJUANA: u32 = 3;
pub const FIRST_OTHER: u32 = 4;

/// Race codes (matching attribute label order).
pub const RACE_LABELS: [&str; 7] = [
    "white",
    "black",
    "hispanic",
    "asian",
    "aian",
    "nhpi",
    "multiracial",
];

/// Additive logit adjustments for initiating marijuana first, by race —
/// the demographic disparity behind the paper's Figure 1 and its
/// "more likely to be Black, American Indian/Alaskan Native, multiracial,
/// or Hispanic than White or Asian" finding.
pub const MJ_FIRST_RACE_LOGIT: [f64; 7] = [0.0, 0.55, 0.25, -0.60, 0.75, 0.30, 0.50];

/// Fairman et al. (2019): predictors and consequences of using marijuana
/// before other substances. 6 variables, domain ≈ 2.0e5, n ≈ 293,581.
///
/// Planted structure:
/// * P(marijuana first) ≈ 6% overall, higher for males, older respondents,
///   later survey years, and the race groups of [`MJ_FIRST_RACE_LOGIT`].
/// * Cigarette-first initiation declines across survey years (the paper's
///   temporal finding).
/// * The ordinal `outcome` severity scale (0 = none … 9 = daily use/CUD) is
///   shifted upward for marijuana-first respondents (aOR/aRRR findings).
pub fn fairman2019(n: usize, seed: u64) -> Dataset {
    let domain = Domain::new(vec![
        Attribute::categorical_from(
            "first_substance",
            &["none", "alcohol", "cigarettes", "marijuana", "other"],
        ),
        Attribute::categorical_from("race", &RACE_LABELS),
        Attribute::categorical_from("sex", &["male", "female"]),
        Attribute::ordinal_scored("age", (12..30).map(|a| a as f64).collect()),
        Attribute::ordinal_scored("year", (2004..2020).map(|y| y as f64).collect()),
        Attribute::ordinal("outcome", 10),
    ]);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ds = Dataset::with_capacity(domain, n);

    for _ in 0..n {
        let race = categorical(&mut rng, &[0.575, 0.14, 0.18, 0.05, 0.012, 0.006, 0.037]);
        let sex = bernoulli(&mut rng, 0.51); // 1 = female

        // Triangular-ish age distribution over 12..=29.
        let age = categorical(
            &mut rng,
            &[
                3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 8.0, 8.0, 7.5, 7.0, 6.5, 6.0, 5.5, 5.0, 4.5, 4.0,
                3.5, 3.0,
            ],
        );
        // Slight growth in sample size over years.
        let year = categorical(
            &mut rng,
            &[
                5.5, 5.6, 5.7, 5.8, 5.9, 6.0, 6.1, 6.2, 6.3, 6.4, 6.5, 6.6, 6.7, 6.8, 6.9, 7.0,
            ],
        );
        let age_z = (age as f64 - 8.5) / 8.5;
        let year_z = (year as f64 - 7.5) / 7.5;
        let male = 1.0 - sex as f64;

        // Multinomial logit over first substance, baseline = "none".
        let mj_logit =
            -2.05 + 0.35 * male + 0.45 * age_z + 0.45 * year_z + MJ_FIRST_RACE_LOGIT[race as usize];
        let cig_logit = -0.62 + 0.10 * male + 0.30 * age_z - 0.60 * year_z;
        let alc_logit = 0.12 + 0.05 * male + 0.50 * age_z;
        let other_logit = -3.6 + 0.15 * male;
        let first = softmax_choice(
            &mut rng,
            &[0.0, alc_logit, cig_logit, mj_logit, other_logit],
        );

        // Outcome severity: marijuana-first carries the largest bump.
        let sev_shift = match first {
            FIRST_MARIJUANA => 2.2,
            FIRST_CIGARETTES => 1.1,
            FIRST_ALCOHOL => 0.7,
            FIRST_OTHER => 1.5,
            _ => 0.0,
        };
        let mut weights = [0.0f64; 10];
        for (k, w) in weights.iter_mut().enumerate() {
            // Geometric decay from 0, flattened by the severity shift.
            let rate = 1.25 - 0.09 * sev_shift;
            *w = (-(k as f64) * rate + 0.28 * sev_shift * (k as f64).min(4.0)).exp();
        }
        let outcome = categorical(&mut rng, &weights);

        ds.push_row(&[first, race, sex, age, year, outcome])
            .expect("codes generated in range");
    }
    ds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marijuana_first_rate_is_modest() {
        let ds = fairman2019(80_000, 21);
        let p = ds.proportion(0, FIRST_MARIJUANA).unwrap();
        assert!((0.04..0.10).contains(&p), "p = {p:.4}");
    }

    #[test]
    fn race_disparities_match_planted_direction() {
        let ds = fairman2019(200_000, 22);
        let rate = |race: u32| {
            let group = ds.filter_rows(|r| r.get(1) == race);
            group.proportion(0, FIRST_MARIJUANA).unwrap()
        };
        let white = rate(0);
        assert!(rate(1) > white, "black > white");
        assert!(rate(4) > white, "aian > white");
        assert!(rate(6) > white, "multiracial > white");
        assert!(rate(3) < white, "asian < white");
    }

    #[test]
    fn cigarette_first_declines_over_years() {
        let ds = fairman2019(200_000, 23);
        let early = ds.filter_rows(|r| r.get(4) < 4);
        let late = ds.filter_rows(|r| r.get(4) >= 12);
        let p_early = early.proportion(0, FIRST_CIGARETTES).unwrap();
        let p_late = late.proportion(0, FIRST_CIGARETTES).unwrap();
        assert!(p_early > p_late + 0.03, "{p_early:.3} vs {p_late:.3}");
    }

    #[test]
    fn marijuana_first_predicts_severity() {
        let ds = fairman2019(150_000, 24);
        let mj = ds.filter_rows(|r| r.get(0) == FIRST_MARIJUANA);
        let alc = ds.filter_rows(|r| r.get(0) == FIRST_ALCOHOL);
        let heavy = |d: &crate::dataset::Dataset| {
            let counts = d.value_counts(5).unwrap();
            let total: f64 = counts.iter().sum();
            counts[5..].iter().sum::<f64>() / total
        };
        assert!(
            heavy(&mj) > 1.5 * heavy(&alc),
            "{} vs {}",
            heavy(&mj),
            heavy(&alc)
        );
    }
}
