//! Property tests for the canonical JSON codecs: arbitrary report values
//! survive `to_json → parse → to_json` **byte-identically**, including
//! NaN/∞ parity cells, empty grids, and crosshatched/skipped statuses.
//! Cells decode back to bit-identical values; reports, configs and series
//! are never read back, so their text is checked through the generic
//! parser.
//!
//! The vendored proptest's strategy combinators are deliberately minimal,
//! so structured values are generated from a seeded `StdRng` drawn through
//! a single `u64` strategy — every case is still fully deterministic and
//! replayable via `PROPTEST_SEED`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use synrd::benchmark::{BenchmarkConfig, CellOutcome, CellStatus, PaperReport};
use synrd::finding::FindingType;
use synrd::parity::AggregateSeries;
use synrd_store::{parse, JsonCodec, JsonDecode};
use synrd_synth::SynthKind;

/// Names exercising escaping (quotes, backslashes, control chars, unicode).
const NAME_POOL: &[&str] = &[
    "",
    "plain",
    "with space",
    "quote\"inside",
    "back\\slash",
    "new\nline",
    "tab\tand\rcr",
    "control\u{1}char",
    "ünïcodé-名前-😀",
    "a-very-long-finding-name-that-keeps-going-and-going",
];

/// Finite-or-not f64 with the *standard* quiet NaN (bit patterns compare
/// equal under `bitwise_eq` after a round trip).
fn arb_f64(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..10u32) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        4 => -0.0,
        5 => f64::MIN_POSITIVE, // smallest normal
        6 => 5e-324,            // subnormal
        7 => f64::MAX,
        _ => (rng.gen::<f64>() - 0.5) * 10f64.powi(rng.gen_range(-300..300)),
    }
}

fn arb_f64_vec(rng: &mut StdRng, max_len: usize) -> Vec<f64> {
    let len = rng.gen_range(0..=max_len);
    (0..len).map(|_| arb_f64(rng)).collect()
}

fn arb_status(rng: &mut StdRng) -> CellStatus {
    match rng.gen_range(0..4u32) {
        0 => CellStatus::Ok,
        1 => CellStatus::TimedOut,
        2 => CellStatus::Skipped,
        _ => {
            let reason = NAME_POOL[rng.gen_range(0..NAME_POOL.len())].to_string();
            CellStatus::Infeasible(reason)
        }
    }
}

fn arb_cell(rng: &mut StdRng) -> CellOutcome {
    let findings = rng.gen_range(0..5usize);
    CellOutcome {
        parity: (0..findings).map(|_| arb_f64(rng)).collect(),
        seed_variance: (0..findings).map(|_| arb_f64(rng)).collect(),
        status: arb_status(rng),
        fit_seconds: arb_f64(rng).abs(),
    }
}

fn arb_synths(rng: &mut StdRng, max: usize) -> Vec<SynthKind> {
    let len = rng.gen_range(0..=max);
    (0..len)
        .map(|_| SynthKind::ALL[rng.gen_range(0..SynthKind::ALL.len())])
        .collect()
}

fn arb_report(rng: &mut StdRng) -> PaperReport {
    let n_findings = rng.gen_range(0..4usize);
    let synthesizers = arb_synths(rng, 3);
    let n_eps = rng.gen_range(0..4usize);
    let findings: Vec<(u32, &'static str, FindingType)> = (0..n_findings)
        .map(|_| {
            (
                rng.gen::<u32>(),
                NAME_POOL[rng.gen_range(0..NAME_POOL.len())],
                FindingType::ALL[rng.gen_range(0..FindingType::ALL.len())],
            )
        })
        .collect();
    let cells = (0..synthesizers.len())
        .map(|_| (0..n_eps).map(|_| arb_cell(rng)).collect())
        .collect();
    PaperReport {
        paper_id: NAME_POOL[rng.gen_range(0..NAME_POOL.len())],
        paper_name: NAME_POOL[rng.gen_range(0..NAME_POOL.len())],
        findings,
        epsilons: (0..n_eps).map(|_| arb_f64(rng)).collect(),
        synthesizers,
        cells,
        control: arb_f64_vec(rng, 4),
        n_rows: rng.gen::<u32>() as usize,
    }
}

fn arb_config(rng: &mut StdRng) -> BenchmarkConfig {
    BenchmarkConfig {
        epsilons: arb_f64_vec(rng, 6),
        seeds: rng.gen_range(0..100),
        bootstraps: rng.gen_range(0..100),
        data_scale: arb_f64(rng),
        min_rows: rng.gen::<u32>() as usize,
        data_seed: rng.gen::<u64>(),
        threads: rng.gen_range(1..32),
        fit_timeout: if rng.gen::<bool>() {
            Some(std::time::Duration::new(
                rng.gen_range(0..10_000),
                rng.gen_range(0..1_000_000_000),
            ))
        } else {
            None
        },
        synthesizers: arb_synths(rng, 6),
    }
}

fn arb_series(rng: &mut StdRng) -> AggregateSeries {
    let n_eps = rng.gen_range(0..5usize);
    let series = |rng: &mut StdRng| -> Vec<(SynthKind, Vec<f64>)> {
        let n = rng.gen_range(0..4usize);
        (0..n)
            .map(|_| {
                (
                    SynthKind::ALL[rng.gen_range(0..SynthKind::ALL.len())],
                    (0..n_eps).map(|_| arb_f64(rng)).collect(),
                )
            })
            .collect()
    };
    AggregateSeries {
        epsilons: (0..n_eps).map(|_| arb_f64(rng)).collect(),
        parity: series(rng),
        variance: series(rng),
    }
}

/// `text` read by the generic parser and written again.
fn rewritten(text: &str) -> Result<String, TestCaseError> {
    parse(text)
        .map(|doc| doc.to_text())
        .map_err(|e| TestCaseError::fail(format!("parse failed: {e}")))
}

proptest! {
    /// CellOutcome: canonical text is a fixed point and the decoded value
    /// is bit-identical (including fit_seconds, which bitwise_eq excludes).
    #[test]
    fn cell_roundtrip_is_byte_identical(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cell = arb_cell(&mut rng);
        let text = cell.to_json_text();
        let back = CellOutcome::from_json_text(&text)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        prop_assert_eq!(back.to_json_text(), text);
        prop_assert!(back.bitwise_eq(&cell), "payload drifted: {:?}", cell);
        prop_assert_eq!(back.fit_seconds.to_bits(), cell.fit_seconds.to_bits());
    }

    /// Even NaNs with nonstandard payloads round-trip byte-identically at
    /// the *text* level (the writer normalizes every NaN to one token).
    #[test]
    fn cell_text_is_fixed_point_for_any_bit_pattern(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let parity: Vec<f64> = (0..rng.gen_range(0..6usize))
            .map(|_| f64::from_bits(rng.gen::<u64>()))
            .collect();
        let cell = CellOutcome {
            seed_variance: parity.clone(),
            parity,
            status: arb_status(&mut rng),
            fit_seconds: f64::from_bits(rng.gen::<u64>()),
        };
        let text = cell.to_json_text();
        let back = CellOutcome::from_json_text(&text)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        prop_assert_eq!(back.to_json_text(), text);
    }

    /// PaperReport text (`reports/<paper>.json`) is canonical: parsing and
    /// rewriting it gives the same bytes, across empty grids, NaN cells and
    /// every status.
    #[test]
    fn report_roundtrip_is_byte_identical(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let text = arb_report(&mut rng).to_json_text();
        prop_assert_eq!(rewritten(&text)?, text);
    }

    /// BenchmarkConfig text (`config.json`) is canonical.
    #[test]
    fn config_roundtrip_is_byte_identical(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let text = arb_config(&mut rng).to_json_text();
        prop_assert_eq!(rewritten(&text)?, text);
    }

    /// AggregateSeries text (`fig4_series.json`) is canonical.
    #[test]
    fn series_roundtrip_is_byte_identical(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let text = arb_series(&mut rng).to_json_text();
        prop_assert_eq!(rewritten(&text)?, text);
    }

    /// The JSON parser is total over canonical-writer output embedded in
    /// larger documents (stress on deep-ish nesting and odd strings).
    #[test]
    fn parser_accepts_writer_output_of_nested_values(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cell = arb_cell(&mut rng);
        let doc = synrd_store::JsonValue::obj(vec![
            ("wrapped", synrd_store::JsonValue::Arr(vec![cell.to_json()])),
            ("name", synrd_store::JsonValue::Str(
                NAME_POOL[rng.gen_range(0..NAME_POOL.len())].to_string(),
            )),
        ]);
        let text = doc.to_text();
        let parsed = parse(&text)
            .map_err(|e| TestCaseError::fail(format!("parse failed: {e}")))?;
        prop_assert_eq!(parsed.to_text(), text);
    }
}
