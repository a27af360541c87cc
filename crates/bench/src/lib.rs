//! # synrd-bench — harness regenerating every table and figure
//!
//! One binary per artifact:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table1` | Table 1 — dataset meta-features |
//! | `table2` | Table 2 — finding counts per type |
//! | `fig1`   | Figure 1 — Fairman visual finding, real vs MST at ε = e |
//! | `fig3`   | Figure 3 — parity heatmap per finding × synthesizer × ε |
//! | `fig4`   | Figure 4 — mean parity / parity variance vs ε |
//!
//! All binaries run at laptop scale by default and accept `--paper-scale`
//! for the full protocol (k = 10, B = 25, paper sample sizes). Criterion
//! benches in `benches/` cover the §7 "computational resources" comparison
//! and our ablations.

use std::path::PathBuf;
use std::time::Instant;
use synrd::benchmark::{
    assemble_report, fits_performed, rows_sampled, run_grid_sharded_with_stores,
    run_paper_with_stores, BenchmarkConfig, CellStore, FitStore, PaperReport, Shard, MAX_THREADS,
};
use synrd::Publication;
use synrd_store::{
    hex16, merge_shard_dirs, DiskCellCache, DiskFitCache, DiskStore, Keyspace, Session,
};

/// Result-store flags shared by the grid binaries (`fig3`, `fig4`).
#[derive(Debug, Default)]
pub struct StoreOptions {
    /// `--out-dir DIR`: root of the persistent result store.
    pub out_dir: Option<PathBuf>,
    /// `--resume`: serve stored cells and fits instead of recomputing them.
    pub resume: bool,
    /// `--shard i/n`: compute only this shard of the global cell list.
    pub shard: Option<Shard>,
    /// `--merge-shards a,b,c`: union these shard stores into `--out-dir`.
    pub merge_shards: Vec<PathBuf>,
}

/// The result store at `--out-dir`: both keyspaces under one root. Cells
/// live under `cells/`, fits under `fits/`, and `synrd serve` later
/// answers sampling requests from the same tree.
#[derive(Debug)]
pub struct Stores {
    /// Finished cells and assembled reports.
    pub cells: DiskCellCache,
    /// Fitted synthesizer states.
    pub fits: DiskFitCache,
}

impl StoreOptions {
    /// Open the store at `--out-dir` (if given) for `config`, exiting with
    /// a message on I/O failure.
    pub fn open(&self, config: &BenchmarkConfig) -> Option<Stores> {
        let dir = self.out_dir.as_ref()?;
        let opened = DiskCellCache::open(dir, config).and_then(|cells| {
            Ok(Stores {
                cells,
                fits: DiskFitCache::open(dir, config)?,
            })
        });
        match opened {
            Ok(stores) => Some(stores),
            Err(e) => {
                eprintln!("cannot open result store {}: {e}", dir.display());
                std::process::exit(2);
            }
        }
    }
}

impl Stores {
    /// Run `body` with both keyspaces viewed through `--resume` semantics.
    /// With the flag, every stored cell and fit is served. Without it, each
    /// keyspace is read through a [`Session`]: a fresh run distrusts what
    /// earlier processes left on disk and recomputes (and rewrites) every
    /// cell, but still shares fits *within* the run, so papers whose
    /// generators produce the same dataset fit each `(synthesizer, ε,
    /// seed)` once. Served entries are bit-identical to recomputing them.
    pub fn with_views<R>(
        &self,
        resume: bool,
        body: impl FnOnce(&dyn CellStore, &dyn FitStore) -> R,
    ) -> R {
        if resume {
            body(&self.cells, &self.fits)
        } else {
            body(&Session(&self.cells), &Session(&self.fits))
        }
    }
}

/// Everything the figure binaries take from the command line.
#[derive(Debug)]
pub struct CliOptions {
    /// Grid configuration after flag overrides.
    pub config: BenchmarkConfig,
    /// `--papers` filter (empty = all eight).
    pub papers: Vec<String>,
    /// Result-store options.
    pub store: StoreOptions,
}

/// Parse the process arguments with [`parse_cli`]. Bad input exits with
/// code 2 and the parser's message.
pub fn cli_from_args() -> CliOptions {
    parse_cli(std::env::args().skip(1)).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    })
}

/// Parse the flags shared by the figure binaries.
///
/// Supported flags:
/// * `--paper-scale` — full protocol (expect hours of compute);
/// * `--papers a,b,c` — restrict to specific paper ids;
/// * `--seeds K` / `--bootstraps B` / `--scale F` — override grid knobs
///   (`K` and `B` at least 1, `F` finite and above 0);
/// * `--threads N` — cores for the grid, 1 to [`MAX_THREADS`] (1 =
///   sequential). Cells run on up to `N` workers, and each fit gets
///   `N / running cells` threads (at least 1) for mirror descent. Results
///   are bit-identical at any `N`;
/// * `--out-dir DIR` — persist cells/fits/reports into a result store;
/// * `--resume` — serve already-stored cells and fits instead of refitting;
/// * `--shard i/n` — compute only shard `i` of `n` (requires `--out-dir`);
/// * `--merge-shards a,b,c` — union shard stores into `--out-dir` and
///   assemble reports purely from cached cells.
///
/// # Errors
/// A message naming the flag for an unknown flag or paper id, a value that
/// does not parse or is out of range, a missing value, or
/// `--shard`/`--merge-shards` without `--out-dir`.
pub fn parse_cli(args: impl IntoIterator<Item = String>) -> Result<CliOptions, String> {
    let args: Vec<String> = args.into_iter().collect();
    let mut config = if args.iter().any(|a| a == "--paper-scale") {
        BenchmarkConfig::paper()
    } else {
        BenchmarkConfig::quick()
    };
    let mut papers: Vec<String> = Vec::new();
    let mut store = StoreOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--paper-scale" => {}
            "--papers" => {
                papers = split_list(&flag_value("--papers", it.next())?);
                if let Some(bad) = papers
                    .iter()
                    .find(|id| synrd::publication_by_id(id).is_none())
                {
                    let valid: Vec<&str> = synrd::all_publications()
                        .iter()
                        .map(|p| p.dataset().id())
                        .collect();
                    return Err(format!(
                        "unknown paper id '{bad}' in --papers; valid ids: {}",
                        valid.join(" ")
                    ));
                }
                if papers.is_empty() {
                    return Err("--papers requires at least one paper id".to_string());
                }
            }
            "--seeds" => config.seeds = positive_count("--seeds", it.next())?,
            "--bootstraps" => config.bootstraps = positive_count("--bootstraps", it.next())?,
            "--scale" => config.data_scale = positive_scale("--scale", it.next())?,
            "--threads" => config.threads = thread_count("--threads", it.next())?,
            "--out-dir" => {
                store.out_dir = Some(PathBuf::from(flag_value("--out-dir", it.next())?));
            }
            "--resume" => store.resume = true,
            "--shard" => {
                let spec = flag_value("--shard", it.next())?;
                let shard =
                    parse_shard(&spec).map_err(|msg| format!("bad --shard '{spec}': {msg}"))?;
                store.shard = Some(shard);
            }
            "--merge-shards" => {
                store.merge_shards = split_list(&flag_value("--merge-shards", it.next())?)
                    .into_iter()
                    .map(PathBuf::from)
                    .collect();
            }
            _ => return Err(format!("unknown flag '{arg}'")),
        }
    }
    if (store.shard.is_some() || !store.merge_shards.is_empty()) && store.out_dir.is_none() {
        return Err("--shard and --merge-shards require --out-dir".to_string());
    }
    Ok(CliOptions {
        config,
        papers,
        store,
    })
}

/// Monolithic mode, shared by the grid binaries: run every paper in order,
/// backed by the store at `--out-dir` when given, persist each report under
/// `reports/`, and hand each result to `each` (with the paper's start time)
/// as it finishes. Returns the store for the summary lines.
///
/// One view of each keyspace spans the whole loop: that is what lets later
/// papers reuse fits an earlier paper computed on the same dataset.
pub fn run_papers(
    cli: &CliOptions,
    papers: &[Box<dyn Publication>],
    mut each: impl FnMut(&dyn Publication, synrd::Result<PaperReport>, Instant),
) -> Option<Stores> {
    let stores = cli.store.open(&cli.config);
    let mut run = |cells: Option<&dyn CellStore>, fits: Option<&dyn FitStore>| {
        for paper in papers {
            let started = Instant::now();
            let result = run_paper_with_stores(paper.as_ref(), &cli.config, cells, fits);
            if let (Some(stores), Ok(report)) = (&stores, &result) {
                let _ = stores.cells.write_report(report);
            }
            each(paper.as_ref(), result, started);
        }
    };
    match &stores {
        Some(s) => s.with_views(cli.store.resume, |cells, fits| run(Some(cells), Some(fits))),
        None => run(None, None),
    }
    stores
}

/// `--shard i/n` mode, shared by the grid binaries: open the store, compute
/// the owned slice of the global cell list, print the partition summary,
/// and hand back the store for the summary lines. Exits on failure.
pub fn run_shard_mode(cli: &CliOptions, papers: &[Box<dyn Publication>], shard: Shard) -> Stores {
    let stores = cli
        .store
        .open(&cli.config)
        .expect("--shard requires --out-dir");
    let result = stores.with_views(cli.store.resume, |cells, fits| {
        run_grid_sharded_with_stores(papers, &cli.config, cells, Some(fits), shard)
    });
    match result {
        Ok(s) => println!(
            "shard {}/{}: owned {} of {} cells ({} computed, {} already stored)",
            shard.index(),
            shard.count(),
            s.cells_owned,
            s.cells_total,
            s.cells_computed,
            s.cells_cached
        ),
        Err(e) => {
            eprintln!("shard run failed: {e}");
            std::process::exit(1);
        }
    }
    stores
}

/// `--merge-shards` mode, shared by the grid binaries: union the shard
/// stores (cells and fits, so the merged store can feed `synrd serve`)
/// into `--out-dir`, then assemble every report purely from cached cells
/// (no fits), persisting each under `reports/`. Results are paired with
/// paper names so callers can print-and-continue. Exits when the merge
/// itself fails.
#[allow(clippy::type_complexity)] // (name, Result) pairs, one per paper
pub fn assemble_from_shards(
    cli: &CliOptions,
    papers: &[Box<dyn Publication>],
) -> (
    DiskCellCache,
    Vec<(&'static str, synrd::Result<PaperReport>)>,
) {
    let dest = cli
        .store
        .out_dir
        .clone()
        .expect("--merge-shards requires --out-dir");
    let cache = match merge_shard_dirs(&cli.store.merge_shards, &dest, &cli.config) {
        Ok(cache) => cache,
        Err(e) => {
            eprintln!("merging shard stores failed: {e}");
            std::process::exit(1);
        }
    };
    let results = papers
        .iter()
        .map(|paper| {
            let result = assemble_report(paper.as_ref(), &cli.config, &cache);
            if let Ok(report) = &result {
                let _ = cache.write_report(report);
            }
            (paper.name(), result)
        })
        .collect();
    (cache, results)
}

/// One-line store telemetry per keyspace: the `[store]` line carries the
/// cell counters plus the process-wide grid fit and sampled-row counts,
/// and the `[fits]` line (when `fits` is given) the fit counters. CI's
/// end-to-end jobs grep these for `misses=0`, `fits=0` and `hits=` to
/// prove a warm rerun served cells and fits instead of recomputing them.
pub fn print_summary(cells: &DiskCellCache, fits: Option<&DiskFitCache>) {
    println!(
        "{} fits={} sampled_rows={}",
        summary_line("store", cells),
        fits_performed(),
        rows_sampled()
    );
    if let Some(fits) = fits {
        println!("{}", summary_line("fits", fits));
    }
}

/// `[tag] dir=… fingerprint=… hits=… misses=… stores=… errors=…`.
fn summary_line<K: Keyspace>(tag: &str, store: &DiskStore<K>) -> String {
    let stats = store.stats();
    format!(
        "[{tag}] dir={} fingerprint={} hits={} misses={} stores={} errors={}",
        store.root().display(),
        hex16(store.fingerprint()),
        stats.hits,
        stats.misses,
        stats.stores,
        stats.errors,
    )
}

/// The value for a flag that requires one: missing values and values that
/// look like another flag are user errors, not values — both would
/// otherwise silently disable or misdirect the flag.
///
/// # Errors
/// A message naming `flag` when `next` is missing or is another flag.
pub fn flag_value(flag: &str, next: Option<&String>) -> Result<String, String> {
    match next {
        Some(v) if !v.starts_with("--") => Ok(v.clone()),
        Some(v) => Err(format!("{flag} requires a value, but got the flag '{v}'")),
        None => Err(format!("{flag} requires a value")),
    }
}

/// The parsed value for a numeric flag.
fn parsed_value<T: std::str::FromStr>(flag: &str, next: Option<&String>) -> Result<T, String> {
    let value = flag_value(flag, next)?;
    value
        .parse()
        .map_err(|_| format!("bad {flag} '{value}': expected a number"))
}

/// The parsed value for a count flag that must be at least 1: zero seeds or
/// zero draws would score every cell over no trials.
fn positive_count(flag: &str, next: Option<&String>) -> Result<usize, String> {
    match parsed_value(flag, next)? {
        0 => Err(format!("bad {flag} '0': expected a positive count")),
        count => Ok(count),
    }
}

/// The parsed value for `--scale`: a finite multiplier above 0. `rows_for`
/// would floor zero, negatives and NaN at `min_rows` and cap infinity at
/// each paper's size, each value storing the same cells under a
/// fingerprint of its own.
fn positive_scale(flag: &str, next: Option<&String>) -> Result<f64, String> {
    let value = flag_value(flag, next)?;
    match value.parse::<f64>() {
        Ok(scale) if scale.is_finite() && scale > 0.0 => Ok(scale),
        _ => Err(format!(
            "bad {flag} '{value}': expected a finite number above 0"
        )),
    }
}

/// The parsed value for a thread-count flag: 1 to [`MAX_THREADS`].
fn thread_count(flag: &str, next: Option<&String>) -> Result<usize, String> {
    let value = flag_value(flag, next)?;
    match value.parse::<usize>() {
        Ok(threads) if (1..=MAX_THREADS).contains(&threads) => Ok(threads),
        _ => Err(format!(
            "bad {flag} '{value}': expected a thread count from 1 to {MAX_THREADS}"
        )),
    }
}

/// The non-empty items of a comma-separated list.
fn split_list(list: &str) -> Vec<String> {
    list.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

/// Parse `i/n` into a [`Shard`].
///
/// # Errors
/// A human-readable message for malformed specs.
pub fn parse_shard(spec: &str) -> Result<Shard, String> {
    let (i, n) = spec
        .split_once('/')
        .ok_or_else(|| "expected the form i/n, e.g. 0/3".to_string())?;
    let index: usize = i.trim().parse().map_err(|_| format!("bad index '{i}'"))?;
    let count: usize = n.trim().parse().map_err(|_| format!("bad count '{n}'"))?;
    Shard::new(index, count).map_err(|e| e.to_string())
}

/// The publications selected by `--papers` (all eight when empty).
pub fn selected_publications(papers: &[String]) -> Vec<Box<dyn synrd::Publication>> {
    if papers.is_empty() {
        synrd::all_publications()
    } else {
        papers
            .iter()
            .filter_map(|id| synrd::publication_by_id(id))
            .collect()
    }
}

/// A benchmark calibration problem: a junction tree plus one deterministic
/// log-potential per clique. Shared by the criterion kernel benches
/// (`benches/pgm.rs`) and the `perfgrid` binary so both measure exactly the
/// same problems (the checked-in `BENCH_pgm.json` record stays comparable
/// to the interactive benches).
pub fn pgm_problem(
    shape: Vec<usize>,
    sets: Vec<Vec<usize>>,
) -> (synrd_pgm::JunctionTree, Vec<synrd_pgm::Factor>) {
    let tree = synrd_pgm::JunctionTree::build(&shape, &sets, synrd_pgm::CLIQUE_CELL_LIMIT)
        .expect("tree fits cell limit");
    let pots = tree
        .cliques()
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let cshape: Vec<usize> = c.iter().map(|&a| shape[a]).collect();
            let cells: usize = cshape.iter().product();
            let vals: Vec<f64> = (0..cells)
                .map(|k| ((k as f64) * 0.37 + i as f64 * 0.11).sin())
                .collect();
            synrd_pgm::Factor::from_log_values(c.clone(), cshape, vals).expect("potential")
        })
        .collect();
    (tree, pots)
}

/// Chain of adjacent attribute pairs over `d` attributes of cardinality
/// `card` (the MST measurement shape).
pub fn pgm_chain_problem(
    d: usize,
    card: usize,
) -> (synrd_pgm::JunctionTree, Vec<synrd_pgm::Factor>) {
    pgm_problem(vec![card; d], (0..d - 1).map(|a| vec![a, a + 1]).collect())
}

/// Overlapping attribute triples (width-3 cliques) over `d` attributes.
pub fn pgm_triples_problem(
    d: usize,
    card: usize,
) -> (synrd_pgm::JunctionTree, Vec<synrd_pgm::Factor>) {
    pgm_problem(
        vec![card; d],
        (0..d - 2).map(|a| vec![a, a + 1, a + 2]).collect(),
    )
}

/// Mixed-cardinality shape for the marginal-engine benches: `d` attributes
/// cycling through small-to-medium cardinalities (the regime of the paper's
/// social-science domains).
pub fn marginal_bench_shape(d: usize) -> Vec<usize> {
    const CARDS: [usize; 6] = [2, 3, 5, 7, 4, 9];
    (0..d).map(|a| CARDS[a % CARDS.len()]).collect()
}

/// Deterministic synthetic dataset for the marginal-engine benches, shared
/// by the criterion benches (`benches/marginal.rs`) and `perfgrid` so the
/// checked-in `BENCH_marginal.json` record stays comparable to the
/// interactive benches. Codes come from a SplitMix64 stream (no `rand`
/// dependency in the bench library), mildly correlated across adjacent
/// attributes so counting hits realistic cell distributions.
pub fn marginal_bench_dataset(rows: usize, shape: &[usize]) -> synrd_data::Dataset {
    let mut state = 0x243f_6a88_85a3_08d3u64; // pi digits; any fixed seed works
    let mut next = move || -> u64 {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut columns: Vec<Vec<u32>> = Vec::with_capacity(shape.len());
    for (a, &card) in shape.iter().enumerate() {
        let mut col = Vec::with_capacity(rows);
        if a == 0 {
            for _ in 0..rows {
                col.push((next() % card as u64) as u32);
            }
        } else {
            // Couple each attribute to its predecessor half the time.
            let prev = &columns[a - 1];
            for &p in prev.iter() {
                let fresh = (next() % card as u64) as u32;
                let code = if next() % 2 == 0 {
                    p.min(card as u32 - 1)
                } else {
                    fresh
                };
                col.push(code);
            }
        }
        columns.push(col);
    }
    let attrs = shape
        .iter()
        .enumerate()
        .map(|(i, &card)| synrd_data::Attribute::ordinal(format!("x{i}"), card))
        .collect();
    synrd_data::Dataset::new(synrd_data::Domain::new(attrs), columns)
        .expect("generated codes are in range")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliOptions, String> {
        parse_cli(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn flags_override_the_quick_config() {
        let cli = parse(&[
            "--papers",
            "saw2018, lee2021",
            "--seeds",
            "2",
            "--bootstraps",
            "3",
            "--scale",
            "0.5",
            "--threads",
            "4",
            "--out-dir",
            "store",
            "--resume",
            "--shard",
            "1/3",
        ])
        .unwrap();
        assert_eq!(cli.papers, ["saw2018", "lee2021"]);
        assert_eq!(
            (cli.config.seeds, cli.config.bootstraps, cli.config.threads),
            (2, 3, 4)
        );
        assert_eq!(cli.config.data_scale, 0.5);
        assert_eq!(cli.store.out_dir, Some(PathBuf::from("store")));
        assert!(cli.store.resume);
        assert_eq!(cli.store.shard, Some(Shard::new(1, 3).unwrap()));

        let defaults = parse(&[]).unwrap();
        assert!(defaults.papers.is_empty());
        assert_eq!(defaults.config.seeds, BenchmarkConfig::quick().seeds);
        assert_eq!(
            parse(&["--paper-scale"]).unwrap().config.seeds,
            BenchmarkConfig::paper().seeds
        );
    }

    #[test]
    fn unknown_paper_ids_are_rejected() {
        let err = parse(&["--papers", "saw2018,nobody2020"]).unwrap_err();
        assert!(err.contains("'nobody2020'"), "{err}");
        assert!(
            err.contains("lee2021"),
            "the message lists valid ids: {err}"
        );
        assert!(parse(&["--papers", " , "]).is_err(), "an empty list");
    }

    #[test]
    fn unparseable_values_are_rejected() {
        for flag in ["--seeds", "--bootstraps", "--scale", "--threads"] {
            let err = parse(&[flag, "many"]).unwrap_err();
            assert!(err.contains(flag) && err.contains("'many'"), "{err}");
        }
        for flag in ["--seeds", "--bootstraps", "--threads"] {
            assert!(parse(&[flag, "-1"]).is_err(), "{flag} is a count");
        }
        for flag in ["--seeds", "--bootstraps"] {
            let err = parse(&[flag, "0"]).unwrap_err();
            assert!(err.contains(flag) && err.contains("'0'"), "{err}");
        }
        for flag in ["--ml-backend", "--fit-threads", "--seed", "saw2018"] {
            let err = parse(&["--papers", "saw2018", flag, "1"]).unwrap_err();
            assert_eq!(err, format!("unknown flag '{flag}'"));
        }
        assert!(parse(&["--shard", "3/3", "--out-dir", "store"]).is_err());
    }

    #[test]
    fn out_of_range_scales_and_thread_counts_are_rejected() {
        for scale in ["0", "-3", "-0.5", "NaN", "inf", "-inf", "1e400"] {
            let err = parse(&["--scale", scale]).unwrap_err();
            assert!(
                err.contains("--scale") && err.contains(&format!("'{scale}'")),
                "{err}"
            );
        }
        assert_eq!(parse(&["--scale", "2.5"]).unwrap().config.data_scale, 2.5);
        for threads in ["0", "1025", "1000000"] {
            let err = parse(&["--threads", threads]).unwrap_err();
            assert!(
                err.contains("--threads") && err.contains(&format!("'{threads}'")),
                "{err}"
            );
        }
        for threads in [1, MAX_THREADS] {
            let cli = parse(&["--threads", &threads.to_string()]).unwrap();
            assert_eq!(cli.config.threads, threads);
        }
    }

    #[test]
    fn flags_missing_their_value_are_rejected() {
        for flag in ["--papers", "--seeds", "--scale", "--out-dir", "--shard"] {
            assert!(parse(&[flag]).is_err(), "{flag} at the end");
            let err = parse(&[flag, "--resume"]).unwrap_err();
            assert!(err.contains("got the flag '--resume'"), "{err}");
        }
    }

    #[test]
    fn shard_modes_require_an_out_dir() {
        assert!(parse(&["--shard", "0/2"]).is_err());
        assert!(parse(&["--merge-shards", "a,b"]).is_err());
        let cli = parse(&["--merge-shards", "a, b,", "--out-dir", "m"]).unwrap();
        assert_eq!(
            cli.store.merge_shards,
            [PathBuf::from("a"), PathBuf::from("b")]
        );
    }
}
