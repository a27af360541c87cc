//! Regenerates **Table 1**: properties and meta-features of the benchmark
//! datasets plus the Adult/Mushroom comparison datasets.
//!
//! ```text
//! cargo run --release -p synrd-bench --bin table1 [--paper-scale]
//! ```
//!
//! Quick mode computes meta-features on 1/10-scale samples (mutual
//! information over all pairs of the 57-variable Jeong dataset is the
//! expensive part); `--paper-scale` uses the full Table 1 sample sizes.
//! Any other flag exits with code 2 before any work.

use synrd_data::{meta_features, BenchmarkDataset};

fn main() {
    let mut paper_scale = false;
    for arg in std::env::args().skip(1) {
        if arg != "--paper-scale" {
            eprintln!("unknown flag '{arg}'");
            std::process::exit(2);
        }
        paper_scale = true;
    }
    let mut rows = Vec::new();
    for ds in BenchmarkDataset::ALL {
        let n = if paper_scale {
            ds.paper_n()
        } else {
            (ds.paper_n() / 10).max(2_000)
        };
        let data = ds.generate(n, 20230531);
        let mf = meta_features(&data).expect("meta-features computable");
        rows.push((ds.name(), mf));
    }
    println!(
        "Table 1: dataset properties and meta-features ({} scale)\n",
        if paper_scale { "paper" } else { "1/10" }
    );
    print!("{}", synrd::report::render_table1(&rows));
    println!(
        "\nAll ten are synthetic stand-ins for the paper's datasets; \
         see the README's \"Departures from the paper\"."
    );
}
