//! Regenerates **Figure 1**: the qualitative visual finding from Fairman et
//! al. — the distribution of first-substance use across race groups, on real
//! data (top) and on MST synthetic data at ε = e (bottom), plus the
//! total-variation similarity score used to judge "subjectively similar".
//!
//! ```text
//! cargo run --release -p synrd-bench --bin fig1 [--paper-scale] [--out-dir DIR]
//! ```
//!
//! With `--out-dir`, the rendered figure is also written to
//! `DIR/fig1.txt` so a result store carries every artifact of a run. An
//! unknown flag or a missing value exits with code 2 before any work.

use std::fmt::Write as _;
use std::path::PathBuf;
use synrd::visual::VisualFinding;
use synrd_data::BenchmarkDataset;
use synrd_synth::SynthKind;

/// Parse `--paper-scale` and `--out-dir DIR` into `(paper_scale, out_dir)`.
///
/// # Errors
/// A message naming the flag for an unknown flag or a missing value.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<(bool, Option<String>), String> {
    let mut paper_scale = false;
    let mut out_dir = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--paper-scale" => paper_scale = true,
            "--out-dir" => out_dir = Some(synrd_bench::flag_value(&arg, it.next().as_ref())?),
            _ => return Err(format!("unknown flag '{arg}'")),
        }
    }
    Ok((paper_scale, out_dir))
}

fn main() {
    let (paper_scale, out_dir) = parse_args(std::env::args().skip(1)).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    });
    let n = if paper_scale {
        BenchmarkDataset::Fairman2019.paper_n()
    } else {
        29_358 // 1/10 scale
    };
    let real = BenchmarkDataset::Fairman2019.generate(n, 20230531);
    let finding = VisualFinding::fairman_figure1();
    let real_table = finding.table(&real).expect("table over real data");

    let mut out = String::new();
    let _ = writeln!(out, "=== Figure 1 (top): real data, n = {n} ===\n");
    let _ = write!(
        out,
        "{}",
        finding.render(&real, &real_table).expect("render")
    );

    // MST at epsilon = e, as in the paper's caption.
    let eps = std::f64::consts::E;
    let mut synth = SynthKind::Mst.build();
    synth
        .fit(&real, SynthKind::Mst.native_privacy(eps, n), 7)
        .expect("MST fits Fairman");
    let synthetic = synth.sample(n, 11).expect("sampling");
    let synth_table = finding.table(&synthetic).expect("table over synthetic");

    let _ = writeln!(
        out,
        "\n=== Figure 1 (bottom): MST synthetic at eps = e ===\n"
    );
    let _ = write!(
        out,
        "{}",
        finding.render(&synthetic, &synth_table).expect("render")
    );

    let similarity = VisualFinding::similarity(&real_table, &synth_table);
    let _ = writeln!(
        out,
        "\nMean per-group total-variation similarity: {similarity:.4}"
    );
    let _ = writeln!(
        out,
        "(paper: \"agreement is subjectively high, though imperfect\")"
    );

    print!("{out}");
    if let Some(dir) = out_dir.map(PathBuf::from) {
        std::fs::create_dir_all(&dir).expect("create --out-dir");
        let path = dir.join("fig1.txt");
        std::fs::write(&path, &out).expect("write fig1.txt");
        println!("\n[store] wrote {}", path.display());
    }
}
