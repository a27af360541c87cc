//! The on-disk entry format is pinned byte for byte: file name (the
//! content address) and file text of one cell entry and one fit entry.
//! Existing stores — and `synrd serve` over them — keep hitting only while
//! both stay identical, so a change here needs a fingerprint version bump.

use std::fs;
use std::path::{Path, PathBuf};
use synrd::benchmark::{BenchmarkConfig, CellOutcome, CellStatus, CellStore, FitStore};
use synrd_data::{Attribute, Domain};
use synrd_store::{DiskCellCache, DiskFitCache};
use synrd_synth::{FittedState, GemState, SynthKind};

const CELL_NAME: &str = "03f0e30217da4070.json";
const CELL_TEXT: &str = concat!(
    r#"{"key":{"fingerprint":"6dabeaa6b98a61fa","paper":"saw2018","synth":"MST","#,
    r#""epsilon_bits":"4005bf0a8b145769","epsilon":2.718281828459045},"#,
    r#""cell":{"parity":[1.0,NaN,0.25],"seed_variance":[0.0,NaN,0.0625],"#,
    r#""status":"ok","fit_seconds":0.5}}"#,
);

const FIT_NAME: &str = "f2c3b435ac6ec7cf.json";
const FIT_TEXT: &str = concat!(
    r#"{"key":{"fingerprint":"a59235e98beab678","dataset":"123456789abcdef0","#,
    r#""synth":"GEM","epsilon_bits":"3ff0000000000000","epsilon":1.0,"seed_index":2},"#,
    r#""state":{"kind":"gem","domain":[{"name":"x","kind":"binary","#,
    r#""categories":["no","yes"],"numeric_values":null}],"#,
    r#""model":{"logits":[[[0.5,-1.25]]],"m":[[[0.0,0.125]]],"v":[[[0.001,2.5e-7]]],"#,
    r#""step":3}}}"#,
);

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("synrd-format-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// `(file name, text)` of the single entry in `dir`.
fn only_entry(dir: &Path) -> (String, String) {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(entries.len(), 1, "{entries:?}");
    let path = entries.pop().unwrap();
    (
        path.file_name().unwrap().to_string_lossy().into_owned(),
        fs::read_to_string(&path).unwrap(),
    )
}

#[test]
fn cell_entry_bytes_are_pinned() {
    let dir = scratch("cell");
    let cells = DiskCellCache::open(&dir, &BenchmarkConfig::quick()).unwrap();
    let cell = CellOutcome {
        parity: vec![1.0, f64::NAN, 0.25],
        seed_variance: vec![0.0, f64::NAN, 0.0625],
        status: CellStatus::Ok,
        fit_seconds: 0.5,
    };
    cells.save("saw2018", SynthKind::Mst, std::f64::consts::E, &cell);
    assert_eq!(
        only_entry(&dir.join("cells")),
        (CELL_NAME.into(), CELL_TEXT.into())
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fit_entry_bytes_are_pinned() {
    let dir = scratch("fit");
    let fits = DiskFitCache::open(&dir, &BenchmarkConfig::quick()).unwrap();
    let state = FittedState::Gem {
        domain: Domain::new(vec![Attribute::binary("x")]),
        model: GemState {
            logits: vec![vec![vec![0.5, -1.25]]],
            m: vec![vec![vec![0.0, 0.125]]],
            v: vec![vec![vec![1e-3, 2.5e-7]]],
            step: 3,
        },
    };
    fits.save(0x1234_5678_9abc_def0, SynthKind::Gem, 1.0, 2, &state);
    assert_eq!(
        only_entry(&dir.join("fits")),
        (FIT_NAME.into(), FIT_TEXT.into())
    );
    fs::remove_dir_all(&dir).unwrap();
}
