//! Regenerates **Figure 3**: epistemic parity for all findings across all
//! papers, per synthesizer per ε, as an ASCII heatmap with the
//! "real, bootstrap" control row and crosshatched infeasible cells.
//!
//! ```text
//! cargo run --release -p synrd-bench --bin fig3 \
//!     [--paper-scale] [--papers saw2018,fruiht2018] [--seeds K] [--bootstraps B] \
//!     [--out-dir DIR] [--resume] [--shard i/n] [--merge-shards d0,d1,...]
//! ```
//!
//! Quick mode (default: 1/10 data, k = 3, B = 5) finishes on a laptop;
//! `--paper-scale` reproduces the full k = 10 × B = 25 protocol.
//!
//! With `--out-dir`, every computed cell and every assembled report is
//! persisted into a content-addressed result store; `--resume` serves
//! stored cells instead of refitting (a warm store renders the whole
//! figure with zero synthesizer fits). `--shard i/n` computes only the
//! i-th of n deterministic slices of the global cell list — run all n
//! slices (anywhere, any order), then `--merge-shards` unions their
//! stores and assembles reports bit-identical to a monolithic run.

use std::time::Instant;
use synrd::benchmark::PaperReport;
use synrd::parity::{never_reproduced, paper_summary};
use synrd::report::render_fig3_block;
use synrd_bench::{
    assemble_from_shards, cli_from_args, print_summary, run_papers, run_shard_mode,
    selected_publications,
};

fn print_report(report: &PaperReport, started: Instant) {
    print!("{}", render_fig3_block(report));
    let summary = paper_summary(report);
    let best = summary
        .iter()
        .filter(|(_, p)| p.is_finite())
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
    if let Some((kind, parity)) = best {
        println!(
            "  best synthesizer: {} (mean parity {:.3})",
            kind.name(),
            parity
        );
    }
    let hard = never_reproduced(report, 0.5);
    if !hard.is_empty() {
        println!("  findings below 0.5 parity for every synthesizer: {hard:?}");
    }
    println!(
        "  [{} in {:.1}s]\n",
        report.paper_id,
        started.elapsed().as_secs_f64()
    );
}

fn main() {
    let cli = cli_from_args();
    let config = &cli.config;
    let papers = selected_publications(&cli.papers);
    println!(
        "Figure 3: epistemic parity heatmap  (seeds k={}, draws B={}, scale={}, {} threads)\n",
        config.seeds, config.bootstraps, config.data_scale, config.threads
    );

    // Shard mode: populate the store with this slice of the cell list and
    // stop — rendering happens after a merge.
    if let Some(shard) = cli.store.shard {
        let stores = run_shard_mode(&cli, &papers, shard);
        print_summary(&stores.cells, Some(&stores.fits));
        return;
    }

    // Merge mode: union shard stores, then assemble every report purely
    // from cached cells (no fits at all, so no `[fits]` line either).
    if !cli.store.merge_shards.is_empty() {
        let started = Instant::now();
        let (cache, results) = assemble_from_shards(&cli, &papers);
        for (name, result) in results {
            match result {
                Ok(report) => print_report(&report, started),
                Err(e) => println!("  {name} failed: {e}\n"),
            }
        }
        print_summary(&cache, None);
        return;
    }

    // Monolithic mode, optionally backed by the store.
    let stores = run_papers(&cli, &papers, |paper, result, started| match result {
        Ok(report) => print_report(&report, started),
        Err(e) => println!("  {} failed: {e}\n", paper.name()),
    });
    if let Some(stores) = &stores {
        print_summary(&stores.cells, Some(&stores.fits));
    }
}
