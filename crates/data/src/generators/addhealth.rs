//! Synthetic populations for the two AddHealth papers.
//!
//! AddHealth (National Longitudinal Study of Adolescent to Adult Health)
//! follows U.S. adolescents from 1994-95 into adulthood. The public-use file
//! is a <50% subsample, which is why both papers work with a few thousand
//! rows.

use crate::attribute::Attribute;
use crate::dataset::Dataset;
use crate::domain::Domain;
use crate::generators::util::{bernoulli, categorical, clamp_code, normal, sigmoid};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Mean years of education attained, by the four (parent_college × mentor)
/// cells — the moderation structure of Fruiht & Chan's PROCESS model.
/// Mentorship lifts first-generation students more than continuing-generation
/// students (negative interaction).
pub const FRUIHT_EDU_MEAN: [[f64; 2]; 2] = [
    // parent_college = 0:  [no mentor, mentor]
    [13.0, 14.3],
    // parent_college = 1:  [no mentor, mentor]
    [14.7, 15.4],
];

/// Fruiht & Chan (2018): naturally occurring mentorship and educational
/// attainment of first-generation college goers. 11 variables, domain ≈ 3e5.
///
/// Planted structure:
/// * `edu_attain` (years, 8–20) follows [`FRUIHT_EDU_MEAN`] plus a −0.7-year
///   penalty for African American respondents and small income effects.
/// * 77% of respondents report a mentor (the paper's headline descriptive).
/// * `first_gen` is the complement of `parent_college`.
pub fn fruiht2018(n: usize, seed: u64) -> Dataset {
    let domain = Domain::new(vec![
        Attribute::categorical_from("race", &["white", "black", "hispanic", "asian", "other"]),
        Attribute::categorical_from("sex", &["male", "female"]),
        Attribute::binary("parent_college"),
        Attribute::binary("first_gen"),
        Attribute::binary("mentor"),
        Attribute::categorical_from(
            "mentor_type",
            &["none", "family", "teacher", "coach", "community", "other"],
        ),
        Attribute::binary("support_emotional"),
        Attribute::binary("support_instrumental"),
        Attribute::ordinal("age", 4),
        Attribute::ordinal("income", 3),
        Attribute::ordinal_scored("edu_attain", (8..=20).map(|y| y as f64).collect()),
    ]);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ds = Dataset::with_capacity(domain, n);

    for _ in 0..n {
        let race = categorical(&mut rng, &[0.55, 0.21, 0.14, 0.06, 0.04]);
        let sex = bernoulli(&mut rng, 0.53);
        let parent_college = bernoulli(&mut rng, 0.35);
        let first_gen = 1 - parent_college;
        let mentor = bernoulli(&mut rng, 0.77);
        let mentor_type = if mentor == 0 {
            0
        } else {
            1 + categorical(&mut rng, &[0.33, 0.27, 0.12, 0.18, 0.10])
        };
        let support_emotional = if mentor == 1 {
            bernoulli(&mut rng, 0.72)
        } else {
            0
        };
        let support_instrumental = if mentor == 1 {
            bernoulli(&mut rng, 0.46)
        } else {
            0
        };
        let age = categorical(&mut rng, &[0.22, 0.30, 0.30, 0.18]);
        let income = categorical(
            &mut rng,
            &if parent_college == 1 {
                [0.20, 0.35, 0.45]
            } else {
                [0.42, 0.36, 0.22]
            },
        );

        let mut edu = FRUIHT_EDU_MEAN[parent_college as usize][mentor as usize];
        if race == 1 {
            edu -= 0.7; // African American attainment penalty (paper finding)
        }
        edu += 0.35 * (income as f64 - 1.0) + 1.8 * normal(&mut rng);
        let edu_code = clamp_code(edu - 8.0, 13);

        ds.push_row(&[
            race,
            sex,
            parent_college,
            first_gen,
            mentor,
            mentor_type,
            support_emotional,
            support_instrumental,
            age,
            income,
            edu_code,
        ])
        .expect("codes generated in range");
    }
    ds
}

/// Iverson & Terry (2021): high-school football and adult depression /
/// suicidality in men. 27 variables (19 binary + 8 wide categoricals),
/// domain ≈ 5.8e15 with near-zero pairwise mutual information — the
/// hardest dataset in the benchmark for every synthesizer.
///
/// Planted structure:
/// * Football has **no** direct effect on adult depression or suicidality
///   (the paper's null finding).
/// * Adolescent depression raises adult depression (OR ≈ 3.3) and
///   suicidality (OR ≈ 2.7) — the paper's positive finding.
/// * The eight 18-level categoricals (income, region, etc.) are mutually
///   near-independent, giving the low-MI / high-sparsity regime of Table 1.
pub fn iverson2021(n: usize, seed: u64) -> Dataset {
    let mut attrs = vec![
        Attribute::binary("football"),
        Attribute::binary("dep_adolescent"),
        Attribute::binary("dep_adult"),
        Attribute::binary("suicidality_adult"),
        Attribute::binary("counseling"),
        Attribute::binary("anxiety"),
        Attribute::binary("psych_hosp"),
    ];
    // Twelve more binary risk factors / covariates.
    const RISK: [&str; 12] = [
        "smoker",
        "binge_drinking",
        "obese",
        "injury_history",
        "adhd",
        "low_gpa",
        "single_parent",
        "rural_school",
        "team_sport_other",
        "violence_exposure",
        "insurance",
        "married_w5",
    ];
    for name in RISK {
        attrs.push(Attribute::binary(name));
    }
    // Eight wide categoricals with no numeric interpretation (skew = NaN).
    const WIDE: [&str; 8] = [
        "income_cat",
        "occupation",
        "region",
        "school_bucket",
        "age_months_cat",
        "education_cat",
        "bmi_cat",
        "sport_mix",
    ];
    for name in WIDE {
        let labels: Vec<String> = (0..18).map(|i| format!("c{i}")).collect();
        attrs.push(Attribute::categorical(name, labels));
    }
    let domain = Domain::new(attrs);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ds = Dataset::with_capacity(domain, n);

    // Baseline prevalences for the 12 risk binaries.
    const RISK_P: [f64; 12] = [
        0.24, 0.31, 0.28, 0.18, 0.08, 0.22, 0.27, 0.21, 0.44, 0.13, 0.82, 0.58,
    ];

    for _ in 0..n {
        let football = bernoulli(&mut rng, 0.48);
        let dep_adolescent = bernoulli(&mut rng, 0.11);
        // No football term by construction: the paper found no direct effect.
        let dep_adult_logit = -2.32 + 1.20 * dep_adolescent as f64;
        let dep_adult = bernoulli(&mut rng, sigmoid(dep_adult_logit));
        let suic_logit = -3.38 + 1.00 * dep_adolescent as f64 + 0.55 * dep_adult as f64;
        let suicidality = bernoulli(&mut rng, sigmoid(suic_logit));
        let counseling = bernoulli(
            &mut rng,
            sigmoid(-1.62 + 1.30 * dep_adult as f64 + 0.4 * suicidality as f64),
        );
        let anxiety = bernoulli(&mut rng, sigmoid(-2.44 + 0.85 * dep_adult as f64));
        let psych_hosp = bernoulli(&mut rng, sigmoid(-3.95 + 1.0 * suicidality as f64));

        let mut row = vec![
            football,
            dep_adolescent,
            dep_adult,
            suicidality,
            counseling,
            anxiety,
            psych_hosp,
        ];
        for &p in &RISK_P {
            row.push(bernoulli(&mut rng, p));
        }
        // Wide categoricals: a mild Zipf-ish tilt, independent of everything.
        for _ in 0..8 {
            let u: f64 = rng.gen();
            let tilted = u * u; // denser near 0
            row.push((tilted * 18.0).floor().clamp(0.0, 17.0) as u32);
        }
        ds.push_row(&row).expect("codes generated in range");
    }
    ds
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Marginal prevalences for Iverson & Terry's five adult-diagnosis
    /// descriptives (hard finding #39): depression, suicidality, counseling,
    /// anxiety disorder, psychiatric hospitalization.
    const IVERSON_DIAGNOSIS_RATES: [f64; 5] = [0.111, 0.042, 0.185, 0.092, 0.021];

    #[test]
    fn fruiht_mentor_lifts_attainment() {
        let ds = fruiht2018(20_000, 11);
        let edu = ds.domain().index_of("edu_attain").unwrap();
        let mentored = ds.filter_rows(|r| r.get(4) == 1);
        let not = ds.filter_rows(|r| r.get(4) == 0);
        let gap = mentored.mean_of(edu).unwrap() - not.mean_of(edu).unwrap();
        assert!(gap > 0.6, "gap = {gap:.3}");
    }

    #[test]
    fn fruiht_interaction_is_negative() {
        // Mentor effect among first-gen exceeds mentor effect among
        // continuing-gen.
        let ds = fruiht2018(40_000, 12);
        let edu = ds.domain().index_of("edu_attain").unwrap();
        let cell = |pc: u32, m: u32| {
            ds.filter_rows(|r| r.get(2) == pc && r.get(4) == m)
                .mean_of(edu)
                .unwrap()
        };
        let effect_first_gen = cell(0, 1) - cell(0, 0);
        let effect_cont_gen = cell(1, 1) - cell(1, 0);
        assert!(
            effect_first_gen > effect_cont_gen + 0.2,
            "{effect_first_gen:.3} vs {effect_cont_gen:.3}"
        );
    }

    #[test]
    fn fruiht_mentor_type_consistent_with_mentor_flag() {
        let ds = fruiht2018(3_000, 13);
        for r in 0..ds.n_rows() {
            let row = ds.row(r);
            let mentor = row.get(4);
            let mtype = row.get(5);
            assert_eq!(mtype == 0, mentor == 0);
        }
    }

    #[test]
    fn iverson_football_null_effect() {
        let ds = iverson2021(60_000, 14);
        let fb = ds.filter_rows(|r| r.get(0) == 1);
        let no_fb = ds.filter_rows(|r| r.get(0) == 0);
        let diff = (fb.mean_of(2).unwrap() - no_fb.mean_of(2).unwrap()).abs();
        assert!(diff < 0.01, "diff = {diff:.4}");
    }

    #[test]
    fn iverson_adolescent_depression_predicts_adult() {
        let ds = iverson2021(60_000, 15);
        let dep = ds.filter_rows(|r| r.get(1) == 1);
        let no_dep = ds.filter_rows(|r| r.get(1) == 0);
        let ratio = dep.mean_of(2).unwrap() / no_dep.mean_of(2).unwrap();
        assert!(ratio > 2.0, "risk ratio = {ratio:.2}");
    }

    #[test]
    fn iverson_diagnosis_rates_near_targets() {
        let ds = iverson2021(120_000, 16);
        let idx = [2usize, 3, 4, 5, 6];
        for (k, &attr) in idx.iter().enumerate() {
            let p = ds.mean_of(attr).unwrap();
            let target = IVERSON_DIAGNOSIS_RATES[k];
            assert!(
                (p - target).abs() < 0.015,
                "attr {attr}: {p:.3} vs {target:.3}"
            );
        }
    }
}
