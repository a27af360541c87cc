//! End-to-end benchmark of the SynRD workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid-cold|fit-wide|grid-warm|serve-mixed \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with no spans
//! recorded; with `--trace 1` it runs the workload untraced and then traced,
//! checks both give the same results, and prints the per-layer metrics plus
//! the tracing overhead. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. See `README.md`.

mod grid;
mod serve;
mod stats;
mod trace;
mod wrap;

use std::path::{Path, PathBuf};
use synrd_store::JsonValue;

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("fit_store_bytes", "bytes"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("first_touch_mean_ms", "ms"),
];

/// Per-layer metrics, printed with `--trace 1`; a layer a workload does not
/// exercise reads 0. Peak memory is here rather than end to end: on
/// grid-cold it lands on one of two allocator states (about 23 or 33 MB)
/// from run to run, a spread no bound can hold.
const PER_LAYER: [(&str, &str); 38] = [
    ("trace.overhead_s", "s"),
    ("proc.peak_rss_mb", "MB"),
    ("synth.fit_s", "s"),
    ("synth.fits", "count"),
    ("synth.fit_max_s", "s"),
    ("synth.fit_s.AIM", "s"),
    ("synth.fit_s.PrivMRF", "s"),
    ("synth.fit_s.MST", "s"),
    ("synth.fit_s.PrivBayes", "s"),
    ("synth.fit_s.PATECTGAN", "s"),
    ("synth.fit_s.GEM", "s"),
    ("core.serial_s", "s"),
    ("core.cell_busy_s", "s"),
    ("core.cell_max_s", "s"),
    ("core.idle_core_s", "s"),
    ("finding.eval_s", "s"),
    ("finding.evals", "count"),
    ("finding.eval_errors", "count"),
    ("finding.control_s", "s"),
    ("synth.draw_s", "s"),
    ("synth.rows_sampled", "count"),
    ("synth.rows_per_s", "1/s"),
    ("store.fit_load_s", "s"),
    ("store.fit_hits", "count"),
    ("store.fit_misses", "count"),
    ("store.fit_save_s", "s"),
    ("store.fit_saves", "count"),
    ("store.cell_save_s", "s"),
    ("data.generate_s", "s"),
    ("serve.query_s", "s"),
    ("serve.handle_s", "s"),
    ("serve.restore_s", "s"),
    ("serve.first_touches", "count"),
    ("serve.memo_hits", "count"),
    ("serve.sample_s", "s"),
    ("serve.encode_s", "s"),
    ("serve.response_bytes", "bytes"),
    ("serve.net_s", "s"),
];

const WORKLOADS: [&str; 4] = ["grid-cold", "fit-wide", "grid-warm", "serve-mixed"];

/// Command-line arguments of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10, false);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("bad {flag} '{value}'"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = number()?,
                "--seconds" => seconds = number()?.max(1),
                "--trace" => trace = number()? == 1,
                _ => return Err(format!("unknown flag '{flag}'")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload '{workload}' (one of {WORKLOADS:?})"
            ));
        }
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// What a workload run reports.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<(String, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness gates that did not hold.
    pub gate_failures: Vec<String>,
    pub notes: Vec<String>,
    pub fit_store_bytes: u64,
    /// Intra-fit thread allowance the workload's fits ran with.
    pub fit_threads: usize,
    pub spans: Vec<trace::Span>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    pub fn fail_gate(&mut self, why: String) {
        self.gate_failures.push(why);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Run `set_up` into fresh directories under `work` at least three times and
/// until a quarter second of set-up has been measured, and record the median
/// as `setup_s`; the traced run, which reports no set-up time, sets up once.
/// Returns the directory of the last set-up, which the run then uses.
pub fn repeat_setup(
    args: &Args,
    work: &Path,
    out: &mut Outcome,
    mut set_up: impl FnMut(&Path) -> Result<(), String>,
) -> Result<PathBuf, String> {
    let mut secs: Vec<f64> = Vec::new();
    loop {
        let dir = work.join(format!("setup{}", secs.len()));
        let t = std::time::Instant::now();
        set_up(&dir)?;
        secs.push(t.elapsed().as_secs_f64());
        let enough = secs.len() >= 3 && secs.iter().sum::<f64>() >= 0.25;
        if args.trace || enough {
            out.metric("setup_s", stats::median(&secs));
            return Ok(dir);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The grid's master data seed for a workload seed; seed 0 is the figure
/// binaries' default, so seed-0 reports match `fig3` under the same shape.
pub fn data_seed(seed: u64) -> u64 {
    synrd::BenchmarkConfig::quick().data_seed.wrapping_add(seed)
}

/// Bytes of the regular files directly under `dir` (0 when it is missing).
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_features() -> [(&'static str, bool); 3] {
    #[cfg(target_arch = "x86_64")]
    {
        [
            ("avx", std::arch::is_x86_feature_detected!("avx")),
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        ]
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        [("avx", false), ("avx2", false), ("avx512f", false)]
    }
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn metadata(args: &Args, out: &Outcome) -> JsonValue {
    let features = cpu_features()
        .iter()
        .map(|&(name, on)| (name, JsonValue::Bool(on)))
        .collect();
    JsonValue::obj(vec![
        ("workload", JsonValue::Str(args.workload.clone())),
        ("seed", JsonValue::Uint(args.seed)),
        ("seconds", JsonValue::Uint(args.seconds)),
        ("trace", JsonValue::Bool(args.trace)),
        ("cores", JsonValue::Uint(cores() as u64)),
        ("cpu_features", JsonValue::obj(features)),
        (
            "rustc",
            JsonValue::Str(env!("PERFBENCH_RUSTC_VERSION").to_string()),
        ),
        (
            "ml_backend",
            JsonValue::Str(synrd_synth::ml_backend::global_name().to_string()),
        ),
        ("fit_threads", JsonValue::Uint(out.fit_threads as u64)),
        (
            "git_commit",
            JsonValue::Str(env!("PERFBENCH_GIT_COMMIT").to_string()),
        ),
    ])
}

fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "grid-cold" => grid::run(&grid::GRID_COLD, args, work),
        "fit-wide" => grid::run(&grid::FIT_WIDE, args, work),
        "grid-warm" => grid::run(&grid::GRID_WARM, args, work),
        "serve-mixed" => serve::run(args, work),
        other => Err(format!("unknown workload '{other}'")),
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(".perfbench");
    let work = root
        .join("work")
        .join(format!("{}-{}", args.workload, std::process::id()));
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("work directory {}: {e}", work.display()))
        .and_then(|()| run(&args, &work));
    let _ = std::fs::remove_dir_all(&work);
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };

    let rss = peak_rss_mb();
    out.metric("proc.peak_rss_mb", rss);
    out.note(format!("peak resident set {rss:.1} MB"));
    out.metric("fit_store_bytes", out.fit_store_bytes as f64);

    if args.trace {
        let path = root
            .join("trace")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match trace::write_jsonl(&out.spans, &path) {
            Ok(()) => out.note(format!(
                "{} spans written to {}",
                out.spans.len(),
                path.display()
            )),
            Err(e) => out.fail_gate(format!("writing spans to {}: {e}", path.display())),
        }
    }

    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in wanted {
        let value = out
            .metrics
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v);
        let value = match value {
            // `+ 0.0` turns the -0.0 of an empty sum into 0.
            Some(v) if v.is_finite() => v + 0.0,
            Some(v) => {
                out.gate_failures.push(format!("{name} is {v}"));
                0.0
            }
            None if args.trace => 0.0,
            None => {
                out.gate_failures.push(format!("{name} was not measured"));
                0.0
            }
        };
        println!("{name} = {value} {unit}");
        metrics.push((
            name,
            JsonValue::obj(vec![
                ("value", JsonValue::Num(value)),
                ("unit", JsonValue::Str(unit.to_string())),
            ]),
        ));
    }
    for note in &out.notes {
        println!("note: {note}");
    }
    println!(
        "fail_frac = {} ({} failed of {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for failure in &out.gate_failures {
        println!("GATE FAILED: {failure}");
    }
    println!(
        "{}",
        JsonValue::obj(vec![("meta", metadata(&args, &out))]).to_text()
    );
    let result = JsonValue::obj(vec![
        ("correct", JsonValue::Bool(out.gate_failures.is_empty())),
        ("attempted", JsonValue::Uint(out.attempted.max(1))),
        ("failed", JsonValue::Uint(out.failed)),
        ("metrics", JsonValue::obj(metrics)),
    ]);
    println!("{}", result.to_text());
}
