//! The `synrd` serve-mode binary.
//!
//! ```text
//! synrd serve --out-dir DIR [--addr HOST:PORT] [--workers N] [grid knobs]
//! synrd request ADDR 'JSON'        # one request line, prints the response
//! synrd bench-serve [--quick] [--out BENCH_serve.json]
//! ```
//!
//! `serve` answers sampling / workload requests from the fit cache a grid
//! run left under `--out-dir` (see `synrd_serve` for the protocol). The
//! grid knobs (`--seeds`, `--scale`, ...) must match the run that
//! populated the store — they determine the dataset digests and the fit
//! fingerprint requests resolve against — so an unknown flag or a value
//! that does not parse exits with code 2 before anything binds.
//!
//! `bench-serve` measures the serve-path win and writes `BENCH_serve.json`:
//! cold fit-and-sample versus warm serve-mode sampling from a cached fit.
//! Exits nonzero when the warm path is not at least 5x the cold path —
//! the CI gate for the whole fit-cache tentpole. Like `serve`, it exits
//! with code 2 on an unknown flag or a missing value before it runs.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;
use synrd::benchmark::{BenchmarkConfig, FitStore};
use synrd::publication_by_id;
use synrd_serve::{handle_request, serve, FitService};
use synrd_store::JsonValue;
use synrd_synth::SynthKind;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("request") => cmd_request(&args[1..]),
        Some("bench-serve") => cmd_bench_serve(&args[1..]),
        _ => {
            eprintln!(
                "usage: synrd serve --out-dir DIR [--addr HOST:PORT] [--workers N] [grid knobs]\n\
                 \x20      synrd request ADDR 'JSON'\n\
                 \x20      synrd bench-serve [--quick] [--out PATH]"
            );
            std::process::exit(2);
        }
    }
}

/// `synrd serve`'s command line.
struct ServeOptions {
    out_dir: String,
    addr: String,
    workers: usize,
    /// The grid knobs that set dataset digests and the fit fingerprint.
    config: BenchmarkConfig,
}

/// Parse `serve`'s flags: the store, the listener and the grid knobs
/// (`--paper-scale`, `--seeds`, `--bootstraps`, `--scale`).
///
/// # Errors
/// A message naming the flag for an unknown flag, a missing or
/// unparseable value, or a missing `--out-dir`.
fn parse_serve(args: &[String]) -> Result<ServeOptions, String> {
    let mut config = if args.iter().any(|a| a == "--paper-scale") {
        BenchmarkConfig::paper()
    } else {
        BenchmarkConfig::quick()
    };
    let mut out_dir = None;
    let mut addr = "127.0.0.1:7878".to_string();
    let mut workers = 4;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out-dir" => out_dir = Some(parsed(flag, it.next())?),
            "--addr" => addr = parsed(flag, it.next())?,
            "--workers" => workers = parsed(flag, it.next())?,
            "--paper-scale" => {}
            "--seeds" => config.seeds = parsed(flag, it.next())?,
            "--bootstraps" => config.bootstraps = parsed(flag, it.next())?,
            "--scale" => config.data_scale = parsed(flag, it.next())?,
            _ => return Err(format!("unknown flag '{flag}' for synrd serve")),
        }
    }
    Ok(ServeOptions {
        out_dir: out_dir.ok_or("serve requires --out-dir (the grid run's result store)")?,
        addr,
        workers,
        config,
    })
}

/// The parsed value after `flag`. Another flag in the value's place counts
/// as a missing value.
fn parsed<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
    let value = value
        .filter(|v| !v.starts_with("--"))
        .ok_or_else(|| format!("{flag} requires a value"))?;
    value
        .parse()
        .map_err(|_| format!("bad {flag} '{value}': expected a number"))
}

fn cmd_serve(args: &[String]) {
    let ServeOptions {
        out_dir,
        addr,
        workers,
        config,
    } = parse_serve(args).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    });
    let service = match FitService::open(&out_dir, config) {
        Ok(service) => Arc::new(service),
        Err(e) => {
            eprintln!("cannot open fit cache {out_dir}: {e}");
            std::process::exit(2);
        }
    };
    match serve(service, &addr, workers) {
        Ok(handle) => {
            // CI and scripts parse this line for the bound port.
            println!("[serve] listening on {} workers={workers}", handle.addr());
            handle.join();
            println!("[serve] shut down");
        }
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            std::process::exit(2);
        }
    }
}

fn cmd_request(args: &[String]) {
    let (Some(addr), Some(body)) = (args.first(), args.get(1)) else {
        eprintln!("usage: synrd request ADDR 'JSON'");
        std::process::exit(2);
    };
    let mut stream = match TcpStream::connect(addr) {
        Ok(stream) => stream,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };
    if writeln!(stream, "{body}").is_err() {
        eprintln!("send failed");
        std::process::exit(1);
    }
    let mut response = String::new();
    if BufReader::new(&stream).read_line(&mut response).is_err() {
        eprintln!("no response");
        std::process::exit(1);
    }
    print!("{response}");
    // Non-ok responses fail the invoking script.
    if !response.contains("\"ok\":true") {
        std::process::exit(1);
    }
}

/// Parse `bench-serve`'s flags into `(quick, out_path)`.
///
/// # Errors
/// A message naming the flag for an unknown flag or a missing value.
fn parse_bench_serve(args: &[String]) -> Result<(bool, String), String> {
    let mut quick = false;
    let mut out_path = "BENCH_serve.json".to_string();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = parsed(flag, it.next())?,
            _ => return Err(format!("unknown flag '{flag}' for synrd bench-serve")),
        }
    }
    Ok((quick, out_path))
}

/// Cold fit-and-sample versus warm serve-mode sampling, on a real paper's
/// dataset at quick scale.
fn cmd_bench_serve(args: &[String]) {
    let (quick, out_path) = parse_bench_serve(args).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    });
    let reps = if quick { 3 } else { 10 };
    let n = 2_000usize;
    let paper_id = "fruiht2018";
    let kind = SynthKind::Mst;
    let epsilon = 1.0;
    let config = BenchmarkConfig::quick();

    let paper = publication_by_id(paper_id).expect("registered paper");
    let rows = config.rows_for(paper.dataset().paper_n());
    let data = paper.generate(rows, config.data_seed);
    let privacy = kind.native_privacy(epsilon, data.n_rows());

    // Cold path: every batch pays a fresh fit, the cost the cache removes.
    let cold_started = Instant::now();
    for rep in 0..reps {
        let mut synth = kind.build();
        synth.fit(&data, privacy, rep as u64).expect("cold fit");
        synth.sample(n, rep as u64).expect("cold sample");
    }
    let cold_ns = cold_started.elapsed().as_nanos() as f64 / reps as f64;

    // Warm path: one cached fit, served through the full request protocol.
    let dir = std::env::temp_dir().join(format!("synrd-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let service = FitService::open(&dir, config).expect("open fit cache");
    let mut synth = kind.build();
    synth.fit(&data, privacy, 0).expect("seed fit");
    let state = synth.fitted_state().expect("fitted state");
    service
        .fits()
        .save(data.content_digest(), kind, epsilon, 0, &state);
    let request = JsonValue::obj(vec![
        ("op", JsonValue::Str("sample".to_string())),
        ("paper", JsonValue::Str(paper_id.to_string())),
        ("synth", JsonValue::Str(kind.name().to_string())),
        ("epsilon", JsonValue::Num(epsilon)),
        ("seed_index", JsonValue::Uint(0)),
        ("n", JsonValue::Uint(n as u64)),
        ("seed", JsonValue::Uint(1)),
    ]);
    // Untimed warm-up: the first request pays the one-off disk load +
    // restore; steady-state serving is what the gate measures.
    let first = handle_request(&service, &request);
    assert_eq!(
        first.get("ok"),
        Some(&JsonValue::Bool(true)),
        "warm-up request failed: {}",
        first.to_text()
    );
    let warm_started = Instant::now();
    for _ in 0..reps {
        let response = handle_request(&service, &request);
        assert_eq!(response.get("ok"), Some(&JsonValue::Bool(true)));
    }
    let warm_ns = warm_started.elapsed().as_nanos() as f64 / reps as f64;
    let _ = std::fs::remove_dir_all(&dir);

    let speedup = cold_ns / warm_ns;
    let doc = JsonValue::obj(vec![
        ("schema", JsonValue::Str("synrd-bench-serve/1".to_string())),
        (
            "mode",
            JsonValue::Str(if quick { "quick" } else { "full" }.to_string()),
        ),
        ("paper", JsonValue::Str(paper_id.to_string())),
        ("synth", JsonValue::Str(kind.name().to_string())),
        ("epsilon", JsonValue::Num(epsilon)),
        ("fit_rows", JsonValue::Uint(data.n_rows() as u64)),
        ("sample_rows", JsonValue::Uint(n as u64)),
        ("reps", JsonValue::Uint(reps as u64)),
        ("cold_fit_and_sample_ns", JsonValue::Num(cold_ns)),
        ("warm_serve_sample_ns", JsonValue::Num(warm_ns)),
        ("speedup", JsonValue::Num(speedup)),
        ("gate", JsonValue::Num(5.0)),
    ]);
    std::fs::write(&out_path, format!("{}\n", doc.to_text())).expect("write BENCH_serve.json");
    println!(
        "[bench-serve] cold={:.2}ms warm={:.2}ms speedup={speedup:.1}x (gate 5x) -> {out_path}",
        cold_ns / 1e6,
        warm_ns / 1e6,
    );
    if speedup < 5.0 {
        eprintln!("serve-mode warm sampling is below the 5x gate");
        std::process::exit(1);
    }
}
