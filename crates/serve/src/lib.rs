//! # synrd-serve — the serve-mode sampling service
//!
//! A grid run with `--out-dir` leaves behind a fit cache: one serialized
//! synthesizer state per `(dataset content, synthesizer, ε, trial seed)`.
//! This crate turns that cache into a long-running service — `synrd serve`
//! answers sampling and workload-query requests from those fits without
//! ever refitting, which is where the fit cache's 5x+ warm-path win
//! becomes user-visible (`BENCH_serve.json`, gated in CI).
//!
//! Three layers, each testable without the one above:
//!
//! * [`FitService`] — restores synthesizers from a
//!   [`DiskFitCache`] on first use and memoizes
//!   them in memory (an `RwLock` map of `Arc`ed synthesizers; the
//!   [`Synthesizer`] trait is `Send + Sync`, so one restored model serves
//!   every worker concurrently).
//! * [`handle_request`] — the protocol: one canonical-JSON request in, one
//!   canonical-JSON response out. Pure with respect to the network.
//! * [`serve`] — a `TcpListener` acceptor plus a fixed worker pool sharing
//!   an `mpsc` channel of connections; each connection speaks
//!   line-delimited JSON.
//!
//! ## Protocol
//!
//! One request per line, one response line back:
//!
//! ```text
//! {"op":"ping"}
//! {"op":"stats"}
//! {"op":"sample","paper":"fruiht2018","synth":"MST","epsilon":1.0,
//!  "seed_index":0,"n":500,"seed":7,"rows":false}
//! {"op":"workload","paper":"fruiht2018","synth":"MST","epsilon":1.0,
//!  "seed_index":0,"n":500,"seed":7,"queries":[[0],[0,2]]}
//! {"op":"shutdown"}
//! ```
//!
//! Responses carry `"ok":true` plus op-specific fields, or `"ok":false`
//! with an `"error"` message. A fit that was never cached is an error, not
//! a refit: serve mode is deliberately read-only over the store.
//!
//! Requests are bounded: a line longer than [`MAX_LINE`] bytes is answered
//! with an error and its connection closed, a `"n"` above
//! [`MAX_SAMPLE_ROWS`] is refused before anything is allocated, a
//! `workload` request whose queries total more than [`MAX_RESPONSE_CELLS`]
//! marginal cells is refused before any marginal is counted, and a
//! `"rows":true` sample whose rows × attributes exceed
//! [`MAX_RESPONSE_CELLS`] is refused before any column is decoded.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use synrd::benchmark::{BenchmarkConfig, FitStore};
use synrd::publication_by_id;
use synrd_data::{Dataset, MarginalEngine, DEFAULT_CELL_LIMIT};
use synrd_store::{hex16, parse, DiskFitCache, JsonValue};
use synrd_synth::{SynthKind, Synthesizer};

/// Most rows one `sample` or `workload` request may ask for (2^20). A
/// failed allocation aborts the process rather than panicking, so an
/// unbounded `n` would let one request kill every connection.
pub const MAX_SAMPLE_ROWS: usize = 1 << 20;

/// Longest request line the server reads, in bytes (1 MiB, newline
/// excluded).
pub const MAX_LINE: usize = 1 << 20;

/// Most marginal cells one `workload` response may hold, summed over its
/// queries, and most codes one `sample` rows payload may hold (rows ×
/// attributes): [`DEFAULT_CELL_LIMIT`] (2^22), the largest single marginal
/// the engine counts. A line of 1 MiB can repeat a wide query tens of
/// thousands of times, a legal `n` over a wide fit makes a rows payload of
/// tens of millions of values, and a failed allocation for the response
/// would abort the process.
pub const MAX_RESPONSE_CELLS: usize = DEFAULT_CELL_LIMIT;

/// Key of one restored synthesizer:
/// `(dataset digest, synth name, ε bits, seed index)` — the fit cache's key.
type FitKey = (u64, &'static str, u64, usize);

/// A sampling service over one fit cache.
///
/// `&self` everywhere: one instance is shared by the whole worker pool.
pub struct FitService {
    config: BenchmarkConfig,
    fits: DiskFitCache,
    /// Restored synthesizers, keyed like the fit cache. Restoring is
    /// cheap next to fitting but not free (PGM models rebuild their
    /// sampler lazily), so warm requests skip even that.
    restored: RwLock<HashMap<FitKey, Arc<Box<dyn Synthesizer>>>>,
    /// Paper id → dataset content digest, memoized (computing one means
    /// generating the paper's dataset once).
    paper_digests: RwLock<HashMap<String, u64>>,
    samples_served: AtomicU64,
    queries_served: AtomicU64,
}

impl FitService {
    /// Open the fit cache under `root` (a grid run's `--out-dir`) for
    /// `config`.
    ///
    /// # Errors
    /// Directory creation failing.
    pub fn open(root: impl Into<PathBuf>, config: BenchmarkConfig) -> io::Result<FitService> {
        Ok(FitService {
            fits: DiskFitCache::open(root, &config)?,
            config,
            restored: RwLock::new(HashMap::new()),
            paper_digests: RwLock::new(HashMap::new()),
            samples_served: AtomicU64::new(0),
            queries_served: AtomicU64::new(0),
        })
    }

    /// The underlying fit cache (tests and `bench-serve` seed it directly).
    pub fn fits(&self) -> &DiskFitCache {
        &self.fits
    }

    /// The config the cache is keyed under.
    pub fn config(&self) -> &BenchmarkConfig {
        &self.config
    }

    /// The dataset content digest a paper's cells were fitted against
    /// under this config — the same digest `ground_truth` computes, so
    /// serve-mode requests address exactly the fits the grid stored.
    pub fn dataset_digest(&self, paper_id: &str) -> Result<u64, String> {
        if let Some(&digest) = self.paper_digests.read().unwrap().get(paper_id) {
            return Ok(digest);
        }
        let paper =
            publication_by_id(paper_id).ok_or_else(|| format!("unknown paper '{paper_id}'"))?;
        let n = self.config.rows_for(paper.dataset().paper_n());
        let digest = paper.generate(n, self.config.data_seed).content_digest();
        self.paper_digests
            .write()
            .unwrap()
            .insert(paper_id.to_string(), digest);
        Ok(digest)
    }

    /// The restored synthesizer for one fit-cache entry, loading it from
    /// disk on first use.
    ///
    /// # Errors
    /// A human-readable message when the entry is missing or does not
    /// restore — serve mode never refits.
    pub fn synthesizer(
        &self,
        dataset_digest: u64,
        kind: SynthKind,
        epsilon: f64,
        seed_index: usize,
    ) -> Result<Arc<Box<dyn Synthesizer>>, String> {
        let key = (dataset_digest, kind.name(), epsilon.to_bits(), seed_index);
        if let Some(synth) = self.restored.read().unwrap().get(&key) {
            return Ok(Arc::clone(synth));
        }
        let state = self
            .fits
            .load(dataset_digest, kind, epsilon, seed_index)
            .ok_or_else(|| {
                format!(
                    "no cached fit for dataset {} synth {} epsilon {epsilon} seed {seed_index} \
                     (run the grid with --out-dir first)",
                    hex16(dataset_digest),
                    kind.name(),
                )
            })?;
        let mut synth = kind.build();
        synth
            .restore_state(state)
            .map_err(|e| format!("cached fit failed to restore: {e}"))?;
        let synth = Arc::new(synth);
        let mut map = self.restored.write().unwrap();
        // A racing restorer may have won; keep exactly one.
        Ok(Arc::clone(
            map.entry(key).or_insert_with(|| Arc::clone(&synth)),
        ))
    }

    /// (samples, workload queries) answered so far.
    pub fn served(&self) -> (u64, u64) {
        (
            self.samples_served.load(Ordering::Relaxed),
            self.queries_served.load(Ordering::Relaxed),
        )
    }
}

fn error_response(message: impl Into<String>) -> JsonValue {
    JsonValue::obj(vec![
        ("ok", JsonValue::Bool(false)),
        ("error", JsonValue::Str(message.into())),
    ])
}

fn str_field<'a>(req: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    req.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("missing string field '{key}'"))
}

fn usize_field_or(req: &JsonValue, key: &str, default: usize) -> Result<usize, String> {
    match req.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .and_then(|u| usize::try_from(u).ok())
            .ok_or_else(|| format!("field '{key}' is not an unsigned integer")),
    }
}

/// The dataset digest a request addresses: `"paper"` (id registered in
/// `synrd`) or `"dataset"` (explicit 16-hex-digit content digest).
fn request_digest(service: &FitService, req: &JsonValue) -> Result<u64, String> {
    if let Some(paper) = req.get("paper") {
        let paper = paper.as_str().ok_or("field 'paper' is not a string")?;
        return service.dataset_digest(paper);
    }
    let hex = str_field(req, "dataset")
        .map_err(|_| "request needs either 'paper' or 'dataset'".to_string())?;
    u64::from_str_radix(hex, 16).map_err(|_| format!("bad dataset digest '{hex}'"))
}

/// Sample the synthetic dataset a request describes.
fn sampled_dataset(service: &FitService, req: &JsonValue) -> Result<Dataset, String> {
    let n = req
        .get("n")
        .and_then(JsonValue::as_u64)
        .and_then(|u| usize::try_from(u).ok())
        .ok_or("missing unsigned field 'n'")?;
    if n > MAX_SAMPLE_ROWS {
        return Err(format!(
            "'n' is {n}, above the limit of {MAX_SAMPLE_ROWS} rows per request"
        ));
    }
    let digest = request_digest(service, req)?;
    let synth_name = str_field(req, "synth")?;
    let kind = SynthKind::from_name(synth_name)
        .ok_or_else(|| format!("unknown synthesizer '{synth_name}'"))?;
    let epsilon = req
        .get("epsilon")
        .and_then(JsonValue::as_f64)
        .ok_or("missing number field 'epsilon'")?;
    let seed_index = usize_field_or(req, "seed_index", 0)?;
    let seed = req.get("seed").and_then(JsonValue::as_u64).unwrap_or(0);
    let synth = service.synthesizer(digest, kind, epsilon, seed_index)?;
    synth
        .sample(n, seed)
        .map_err(|e| format!("sampling failed: {e}"))
}

fn handle_sample(service: &FitService, req: &JsonValue) -> Result<JsonValue, String> {
    let data = sampled_dataset(service, req)?;
    let with_rows = req.get("rows").and_then(JsonValue::as_bool) == Some(true);
    let cells = data.n_rows() as u128 * data.n_attrs() as u128;
    if with_rows && cells > MAX_RESPONSE_CELLS as u128 {
        return Err(format!(
            "a rows payload of {} rows x {} attributes is {cells} values, above the limit \
             of {MAX_RESPONSE_CELLS} values per request",
            data.n_rows(),
            data.n_attrs()
        ));
    }
    service.samples_served.fetch_add(1, Ordering::Relaxed);
    let mut fields = vec![
        ("ok", JsonValue::Bool(true)),
        ("n", JsonValue::Uint(data.n_rows() as u64)),
        ("digest", JsonValue::Str(hex16(data.content_digest()))),
    ];
    // Row payloads are opt-in: workload-style consumers usually only need
    // counts, and a million-row sample would make a very long line.
    if with_rows {
        let columns = (0..data.n_attrs())
            .map(|a| {
                let codes = data
                    .decode_column(a)
                    .map_err(|e| format!("column decode failed: {e}"))?;
                Ok(JsonValue::Arr(
                    codes
                        .into_iter()
                        .map(|c| JsonValue::Uint(u64::from(c)))
                        .collect(),
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        fields.push(("columns", JsonValue::Arr(columns)));
    }
    Ok(JsonValue::obj(fields))
}

fn handle_workload(service: &FitService, req: &JsonValue) -> Result<JsonValue, String> {
    let sets = req
        .get("queries")
        .and_then(JsonValue::as_arr)
        .ok_or("missing array field 'queries'")?
        .iter()
        .map(|set| {
            set.as_arr()
                .ok_or("query is not an array of attribute ids")?
                .iter()
                .map(|v| {
                    v.as_u64()
                        .and_then(|u| usize::try_from(u).ok())
                        .ok_or("non-index value in query")
                })
                .collect::<Result<Vec<usize>, &str>>()
        })
        .collect::<Result<Vec<_>, &str>>()
        .map_err(str::to_string)?;
    let data = sampled_dataset(service, req)?;
    let mut cells = 0u128;
    for set in &sets {
        let set_cells = data
            .domain()
            .cells(set)
            .map_err(|e| format!("query {set:?} failed: {e}"))?;
        cells = cells.saturating_add(set_cells);
    }
    if cells > MAX_RESPONSE_CELLS as u128 {
        return Err(format!(
            "queries total {cells} marginal cells, above the limit of \
             {MAX_RESPONSE_CELLS} cells per request"
        ));
    }
    let mut engine = MarginalEngine::new(&data);
    let mut results = Vec::with_capacity(sets.len());
    for set in &sets {
        let marginal = engine
            .count(set)
            .map_err(|e| format!("query {set:?} failed: {e}"))?;
        results.push(JsonValue::obj(vec![
            (
                "attrs",
                JsonValue::Arr(
                    marginal
                        .attrs()
                        .iter()
                        .map(|&a| JsonValue::Uint(a as u64))
                        .collect(),
                ),
            ),
            ("counts", JsonValue::num_arr(marginal.counts())),
        ]));
    }
    service
        .queries_served
        .fetch_add(sets.len() as u64, Ordering::Relaxed);
    Ok(JsonValue::obj(vec![
        ("ok", JsonValue::Bool(true)),
        ("n", JsonValue::Uint(data.n_rows() as u64)),
        ("results", JsonValue::Arr(results)),
    ]))
}

fn handle_stats(service: &FitService) -> JsonValue {
    let stats = service.fits.stats();
    let (samples, queries) = service.served();
    JsonValue::obj(vec![
        ("ok", JsonValue::Bool(true)),
        ("fit_hits", JsonValue::Uint(stats.hits)),
        ("fit_misses", JsonValue::Uint(stats.misses)),
        ("fit_errors", JsonValue::Uint(stats.errors)),
        ("samples_served", JsonValue::Uint(samples)),
        ("queries_served", JsonValue::Uint(queries)),
        (
            "restored_in_memory",
            JsonValue::Uint(service.restored.read().unwrap().len() as u64),
        ),
        // The ML backend `auto` selects on this CPU. Informational:
        // backends are bit-identical, so serving results do not depend on it.
        (
            "ml_backend",
            JsonValue::Str(synrd_synth::ml_backend::global_name().to_string()),
        ),
    ])
}

/// Answer one protocol request. Network-free: the TCP layer is a thin loop
/// around this, and tests drive it directly.
pub fn handle_request(service: &FitService, request: &JsonValue) -> JsonValue {
    let op = match str_field(request, "op") {
        Ok(op) => op,
        Err(e) => return error_response(e),
    };
    let result = match op {
        "ping" => Ok(JsonValue::obj(vec![
            ("ok", JsonValue::Bool(true)),
            ("pong", JsonValue::Bool(true)),
        ])),
        "stats" => Ok(handle_stats(service)),
        "sample" => handle_sample(service, request),
        "workload" => handle_workload(service, request),
        "shutdown" => Ok(JsonValue::obj(vec![
            ("ok", JsonValue::Bool(true)),
            ("bye", JsonValue::Bool(true)),
        ])),
        other => Err(format!("unknown op '{other}'")),
    };
    result.unwrap_or_else(error_response)
}

/// Answer one raw request line (parse errors become protocol errors).
pub fn handle_line(service: &FitService, line: &str) -> JsonValue {
    answer_line(service, line).0
}

/// [`handle_line`], plus whether the line asked the server to shut down.
fn answer_line(service: &FitService, line: &str) -> (JsonValue, bool) {
    match parse(line) {
        Ok(request) => {
            let shutdown = request.get("op").and_then(JsonValue::as_str) == Some("shutdown");
            (handle_request(service, &request), shutdown)
        }
        Err(e) => (error_response(format!("bad request: {e}")), false),
    }
}

/// A running serve-mode instance.
pub struct ServerHandle {
    addr: SocketAddr,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Wait for the server to shut down (a client sending
    /// `{"op":"shutdown"}`).
    pub fn join(self) {
        let _ = self.acceptor.join();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// Serve `service` on `addr` with a pool of `workers` connection handlers.
///
/// Returns as soon as the listener is bound; the acceptor and workers run
/// on background threads until a shutdown request arrives.
///
/// # Errors
/// Binding the listener.
pub fn serve(service: Arc<FitService>, addr: &str, workers: usize) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel::<TcpStream>();
    let rx = Arc::new(Mutex::new(rx));

    let worker_handles = (0..workers.max(1))
        .map(|_| {
            let rx = Arc::clone(&rx);
            let service = Arc::clone(&service);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || loop {
                // Take one connection; the acceptor dropping the sender is
                // the pool's stop signal.
                let stream = match rx.lock().unwrap_or_else(|e| e.into_inner()).recv() {
                    Ok(stream) => stream,
                    Err(_) => return,
                };
                handle_connection(&service, stream, &shutdown, local);
            })
        })
        .collect();

    let acceptor = std::thread::spawn(move || {
        for stream in listener.incoming() {
            if shutdown.load(Ordering::SeqCst) {
                break; // tx drops here; workers drain and exit
            }
            if let Ok(stream) = stream {
                if tx.send(stream).is_err() {
                    break;
                }
            }
        }
    });

    Ok(ServerHandle {
        addr: local,
        acceptor,
        workers: worker_handles,
    })
}

fn handle_connection(
    service: &FitService,
    stream: TcpStream,
    shutdown: &AtomicBool,
    local: SocketAddr,
) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // Read one byte past the cap at most, so an over-long line is
        // caught without buffering the rest of it.
        match (&mut reader)
            .take(MAX_LINE as u64 + 1)
            .read_until(b'\n', &mut buf)
        {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
        }
        if buf.len() > MAX_LINE {
            let refusal = error_response(format!("request line longer than {MAX_LINE} bytes"));
            let _ = write_response(&mut writer, &refusal);
            return;
        }
        let line = match std::str::from_utf8(&buf) {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => line,
            Err(_) => return,
        };
        let (response, shutdown_requested) = answer_line(service, line);
        if write_response(&mut writer, &response).is_err() {
            return;
        }
        if shutdown_requested {
            shutdown.store(true, Ordering::SeqCst);
            // The acceptor is blocked in accept(); poke it awake so it can
            // observe the flag and exit.
            let _ = TcpStream::connect(local);
            return;
        }
    }
}

/// Write one response line.
fn write_response(writer: &mut TcpStream, response: &JsonValue) -> io::Result<()> {
    let mut text = response.to_text();
    text.push('\n');
    writer.write_all(text.as_bytes())
}
