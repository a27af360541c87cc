//! Report-digest regression test: `run_paper` on saw2018 must produce a
//! **byte-identical** canonical-JSON [`PaperReport`] across refactors of the
//! numeric substrate. The fixture stores only the FNV-1a digest of the
//! canonical encoding (the full document is a few hundred KB), which is
//! enough to pin every float bit in every cell.
//!
//! The digest was generated *before* the stride-kernel rewrite of
//! `synrd-pgm`, so a passing run proves the rewritten factor algebra is
//! bit-identical to the naive implementation over a full paper pipeline
//! (data generation → DP measurement → mirror descent → sampling → parity).
//!
//! Regenerated once since: the fit-cache PR re-keyed fit seeds by dataset
//! content digest instead of paper id (so papers sharing a dataset share
//! fits), which intentionally changed every cell's draws.
//!
//! To regenerate after an *intentional* numeric or schema change:
//!
//! ```text
//! SYNRD_GOLDEN_REGEN=1 cargo test --test integration_report_digest
//! ```

use std::path::PathBuf;
use synrd::benchmark::{run_paper, BenchmarkConfig};
use synrd::publication::publication_by_id;
use synrd_store::{fnv1a64, hex16, JsonCodec};
use synrd_synth::SynthKind;

fn digest_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/saw2018_report.digest")
}

/// Small-but-real configuration: both ε values the PGM family cares about,
/// two seeds so the seed-variance path is exercised, no fit timeout so the
/// outcome cannot depend on machine speed.
fn digest_config() -> BenchmarkConfig {
    BenchmarkConfig {
        epsilons: vec![1.0, std::f64::consts::E],
        seeds: 2,
        bootstraps: 2,
        data_scale: 0.05,
        min_rows: 1_500,
        data_seed: 99,
        threads: 4,
        fit_timeout: None,
        synthesizers: vec![SynthKind::Mst, SynthKind::Aim],
    }
}

#[test]
fn saw2018_report_digest_is_stable() {
    let paper = publication_by_id("saw2018").expect("registered paper");
    let mut report = run_paper(paper.as_ref(), &digest_config()).expect("grid runs");
    // `fit_seconds` is wall-clock time — the one legitimately
    // nondeterministic field. Zero it so the digest pins every *numeric*
    // output bit (parity, seed variance, statuses, control row) only.
    for row in &mut report.cells {
        for cell in row {
            cell.fit_seconds = 0.0;
        }
    }
    let text = report.to_json_text();
    let digest = format!("{} {} bytes\n", hex16(fnv1a64(text.as_bytes())), text.len());

    let path = digest_path();
    if std::env::var_os("SYNRD_GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &digest).unwrap();
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden digest {} ({e}); run with SYNRD_GOLDEN_REGEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        digest, expected,
        "canonical PaperReport bytes drifted from the pre-rewrite baseline; \
         the factor kernels are no longer bit-identical (or the schema changed \
         intentionally — then regenerate with SYNRD_GOLDEN_REGEN=1)"
    );
}
