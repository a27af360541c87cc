//! Regenerates **Figure 4**: average epistemic parity (left) and average
//! parity variance (right) as a function of ε, per synthesizer, aggregated
//! over the benchmark papers.
//!
//! ```text
//! cargo run --release -p synrd-bench --bin fig4 \
//!     [--paper-scale] [--papers fruiht2018,pierce2019,saw2018] \
//!     [--out-dir DIR] [--resume] [--shard i/n] [--merge-shards d0,d1,...]
//! ```
//!
//! The result-store flags behave exactly as in `fig3`: `--out-dir`
//! persists cells into a content-addressed store, `--resume` serves them
//! back (a warm store aggregates with zero synthesizer fits), `--shard`
//! computes one deterministic slice of the cell list, and
//! `--merge-shards` unions shard stores before aggregating.

use synrd::benchmark::PaperReport;
use synrd::parity::aggregate;
use synrd::report::render_fig4;
use synrd_bench::{
    assemble_from_shards, cli_from_args, print_summary, run_papers, run_shard_mode,
    selected_publications,
};
use synrd_store::JsonCodec;

fn main() {
    let cli = cli_from_args();
    let config = &cli.config;
    let papers = selected_publications(&cli.papers);
    println!(
        "Figure 4: parity vs epsilon  (seeds k={}, draws B={}, scale={})\n",
        config.seeds, config.bootstraps, config.data_scale
    );

    if let Some(shard) = cli.store.shard {
        let stores = run_shard_mode(&cli, &papers, shard);
        print_summary(&stores.cells, Some(&stores.fits));
        return;
    }

    let mut reports: Vec<PaperReport> = Vec::new();
    // The store's cells, and its fits unless the reports were assembled
    // from merged shards (no fitting at all).
    let (cells, fits) = if cli.store.merge_shards.is_empty() {
        let stores = run_papers(&cli, &papers, |paper, result, _| match result {
            Ok(report) => {
                println!("  finished {}", report.paper_name);
                reports.push(report);
            }
            Err(e) => println!("  {} failed: {e}", paper.name()),
        });
        stores.map(|s| (s.cells, s.fits)).unzip()
    } else {
        let (cache, results) = assemble_from_shards(&cli, &papers);
        for (name, result) in results {
            match result {
                Ok(report) => {
                    println!("  assembled {} from store", report.paper_name);
                    reports.push(report);
                }
                Err(e) => println!("  {name} failed: {e}"),
            }
        }
        (Some(cache), None)
    };

    let agg = match aggregate(&reports) {
        Ok(agg) => agg,
        Err(e) => {
            eprintln!("aggregation failed: {e}");
            std::process::exit(1);
        }
    };
    print!("\n{}", render_fig4(&agg));

    // Persist the aggregated series next to the per-paper reports.
    if let Some(cells) = &cells {
        let path = cells.root().join("fig4_series.json");
        if let Err(e) = std::fs::write(&path, agg.to_json_text()) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }

    // The paper's headline observation: parity is relatively insensitive
    // to epsilon. Report the per-synthesizer spread across the grid.
    println!("\nSpread of mean parity across the eps grid (max - min):");
    for (kind, series) in &agg.parity {
        let finite: Vec<f64> = series.iter().copied().filter(|v| v.is_finite()).collect();
        if finite.is_empty() {
            continue;
        }
        let max = finite.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = finite.iter().cloned().fold(f64::INFINITY, f64::min);
        println!("  {:>10}: {:.3}", kind.name(), max - min);
    }
    if let Some(cells) = &cells {
        print_summary(cells, fits.as_ref());
    }
}
