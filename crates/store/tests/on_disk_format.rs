//! The on-disk entry format is pinned byte for byte: file name (the
//! content address) and file text of one cell entry and of one MST (PGM),
//! one GEM and one PATECTGAN fit entry. Existing stores — and `synrd serve` over them —
//! keep hitting only while these stay identical, so a change here needs a
//! fingerprint version bump.

use std::fs;
use std::path::{Path, PathBuf};
use synrd::benchmark::{BenchmarkConfig, CellOutcome, CellStatus, CellStore, FitStore};
use synrd_data::{Attribute, Domain};
use synrd_ml::{Activation, DenseState, MlpState};
use synrd_pgm::{CalibratedTree, Factor, FittedModel, JunctionTree, CLIQUE_CELL_LIMIT};
use synrd_store::{DiskCellCache, DiskFitCache};
use synrd_synth::{FittedState, GemState, SynthKind};

const CELL_NAME: &str = "03f0e30217da4070.json";
const CELL_TEXT: &str = concat!(
    r#"{"key":{"fingerprint":"6dabeaa6b98a61fa","paper":"saw2018","synth":"MST","#,
    r#""epsilon_bits":"4005bf0a8b145769","epsilon":2.718281828459045},"#,
    r#""cell":{"parity":[1.0,NaN,0.25],"seed_variance":[0.0,NaN,0.0625],"#,
    r#""status":"ok","fit_seconds":0.5}}"#,
);

const PGM_FIT_NAME: &str = "8bf6420aa4e24ade.json";
const PGM_FIT_TEXT: &str = concat!(
    r#"{"key":{"fingerprint":"4f30c4a1e4f0dfc6","dataset":"123456789abcdef0","#,
    r#""synth":"MST","epsilon_bits":"3ff0000000000000","epsilon":1.0,"seed_index":1},"#,
    r#""state":{"kind":"pgm","domain":[{"name":"x","kind":"binary","#,
    r#""categories":["no","yes"],"numeric_values":null},{"name":"y","kind":"binary","#,
    r#""categories":["no","yes"],"numeric_values":null},{"name":"z","kind":"binary","#,
    r#""categories":["no","yes"],"numeric_values":null}],"#,
    r#""model":{"domain_shape":[2,2,2],"cliques":[[0,1],[1,2]],"#,
    r#""beliefs":[{"attrs":[0,1],"shape":[2,2],"log_values":[-0.5,-2.0,-1.5,-0.75]},"#,
    r#"{"attrs":[1,2],"shape":[2,2],"log_values":[-1.0,-1.25,-0.25,-3.0]}]}}}"#,
);

const FIT_NAME: &str = "1f6d89250acc6ae6.json";
const FIT_TEXT: &str = concat!(
    r#"{"key":{"fingerprint":"4f30c4a1e4f0dfc6","dataset":"123456789abcdef0","#,
    r#""synth":"GEM","epsilon_bits":"3ff0000000000000","epsilon":1.0,"seed_index":2},"#,
    r#""state":{"kind":"gem","domain":[{"name":"x","kind":"binary","#,
    r#""categories":["no","yes"],"numeric_values":null}],"#,
    r#""model":{"logits":[[[0.5,-1.25]]]}}}"#,
);

const PATECTGAN_FIT_NAME: &str = "7a6ac4f82d3e3e30.json";
const PATECTGAN_FIT_TEXT: &str = concat!(
    r#"{"key":{"fingerprint":"4f30c4a1e4f0dfc6","dataset":"123456789abcdef0","#,
    r#""synth":"PATECTGAN","epsilon_bits":"3ff0000000000000","epsilon":1.0,"seed_index":0},"#,
    r#""state":{"kind":"patectgan","domain":[{"name":"x","kind":"binary","#,
    r#""categories":["no","yes"],"numeric_values":null}],"#,
    r#""generator":{"layers":[{"input":1,"output":2,"w":[0.75,-2.5],"b":[0.0,0.125]}],"#,
    r#""output_activation":"linear"},"blocks":[[0,2]],"z_dim":1}}"#,
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
fn pgm_fit_entry_bytes_are_pinned() {
    let dir = scratch("pgm-fit");
    let fits = DiskFitCache::open(&dir, &BenchmarkConfig::quick()).unwrap();
    // The shape of an MST fit over a chain of three binary attributes: one
    // clique per measured tree edge.
    let cliques = vec![vec![0, 1], vec![1, 2]];
    let tree = JunctionTree::build(&[2, 2, 2], &cliques, CLIQUE_CELL_LIMIT).unwrap();
    let beliefs = vec![
        Factor::from_log_values(vec![0, 1], vec![2, 2], vec![-0.5, -2.0, -1.5, -0.75]).unwrap(),
        Factor::from_log_values(vec![1, 2], vec![2, 2], vec![-1.0, -1.25, -0.25, -3.0]).unwrap(),
    ];
    let state = FittedState::Pgm {
        domain: Domain::new(vec![
            Attribute::binary("x"),
            Attribute::binary("y"),
            Attribute::binary("z"),
        ]),
        model: FittedModel::from_parts(tree, CalibratedTree { beliefs }).unwrap(),
    };
    fits.save(0x1234_5678_9abc_def0, SynthKind::Mst, 1.0, 1, &state);
    assert_eq!(
        only_entry(&dir.join("fits")),
        (PGM_FIT_NAME.into(), PGM_FIT_TEXT.into())
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
        },
    };
    fits.save(0x1234_5678_9abc_def0, SynthKind::Gem, 1.0, 2, &state);
    assert_eq!(
        only_entry(&dir.join("fits")),
        (FIT_NAME.into(), FIT_TEXT.into())
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn patectgan_fit_entry_bytes_are_pinned() {
    let dir = scratch("patectgan-fit");
    let fits = DiskFitCache::open(&dir, &BenchmarkConfig::quick()).unwrap();
    // A one-layer generator from a one-wide latent to one binary
    // attribute's softmax block.
    let state = FittedState::PateCtgan {
        domain: Domain::new(vec![Attribute::binary("x")]),
        generator: MlpState {
            layers: vec![DenseState {
                input: 1,
                output: 2,
                w: vec![0.75, -2.5],
                b: vec![0.0, 0.125],
            }],
            output_activation: Activation::Linear,
        },
        blocks: vec![(0, 2)],
        z_dim: 1,
    };
    fits.save(0x1234_5678_9abc_def0, SynthKind::PateCtgan, 1.0, 0, &state);
    assert_eq!(
        only_entry(&dir.join("fits")),
        (PATECTGAN_FIT_NAME.into(), PATECTGAN_FIT_TEXT.into())
    );
    fs::remove_dir_all(&dir).unwrap();
}
