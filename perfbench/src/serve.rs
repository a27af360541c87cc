//! The serve workload: `synrd_serve::serve` over TCP under a closed loop of
//! two client connections, answering a seeded, Zipf-popular request schedule
//! from fits that set-up stored through `FitService::fits().save`.
//!
//! The traced run replays the same requests against a server of the
//! benchmark's own that answers them with the same public calls the
//! protocol layer makes (`FitService::synthesizer`, `Synthesizer::sample`,
//! `MarginalEngine::count`, `JsonValue::to_text`), timing each; its
//! responses must equal the real server's byte for byte.

use crate::stats::supported_percentile;
use crate::trace::{self, Tracer};
use crate::{dir_bytes, Args, Outcome};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use synrd::benchmark::{rows_sampled, BenchmarkConfig, FitStore};
use synrd::publication_by_id;
use synrd_data::{Dataset, MarginalEngine};
use synrd_dp::grid_seed;
use synrd_serve::FitService;
use synrd_store::{fnv1a64, hex16, parse, DiskFitCache, JsonValue};
use synrd_synth::{FitContext, SynthKind, Synthesizer};

/// Fits set-up stores, per paper. The order is the keys' popularity order:
/// it puts lee2021's PATECTGAN (about 0.4 s per 10 000 rows, by far the
/// slowest request) at ranks 11–12, so about 2 % of requests are in that
/// slowest cluster and the p99 falls inside it rather than at its edge.
const FITS: &[(&str, &[SynthKind])] = &[
    (
        "fairman2019",
        &[
            SynthKind::Aim,
            SynthKind::Mst,
            SynthKind::PrivBayes,
            SynthKind::PateCtgan,
            SynthKind::Gem,
        ],
    ),
    (
        "lee2021",
        &[SynthKind::PateCtgan, SynthKind::Mst, SynthKind::PrivBayes],
    ),
    ("jeong2021", &[SynthKind::PateCtgan, SynthKind::Gem]),
];
const EPSILON_EXPONENTS: [i32; 2] = [-1, 1];
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
const ZIPF_S: f64 = 1.1;
/// Largest marginal a workload query asks for, so responses stay lines of
/// modest length even over lee2021's wide attributes.
const MAX_MARGINAL_CELLS: usize = 4_096;
/// Sample responses re-derived directly from the store after a run.
const CHECKS: usize = 12;
/// Fresh servers touched once per key outside the closed loop, so the
/// first-touch mean rests on several cold runs of every key.
const COLD_STARTS: usize = 8;

/// One stored fit a request can address.
#[derive(Debug, Clone)]
pub struct Key {
    pub paper: &'static str,
    pub kind: SynthKind,
    pub epsilon: f64,
    pub seed_index: usize,
    pub digest: u64,
    /// Attribute cardinalities of the paper's domain.
    pub cards: Arc<Vec<usize>>,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Sample { rows: bool },
    Workload(Vec<Vec<usize>>),
}

#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub key: usize,
    pub n: usize,
    pub seed: u64,
    pub op: Op,
}

/// SplitMix64, seeded per (workload seed, request index) so any request can
/// be generated on its own.
struct Mix(u64);

impl Mix {
    fn for_request(seed: u64, idx: u64) -> Mix {
        let mut m = Mix(seed ^ 0x5eed_5e4e_u64.rotate_left(17));
        let a = m.next();
        Mix(a ^ idx.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Request classes: (operation, rows in the sample, share of requests).
const CLASSES: [(ClassOp, usize, f64); 5] = [
    (ClassOp::Sample, 1_000, 0.35),
    (ClassOp::Sample, 10_000, 0.35),
    (ClassOp::Workload, 1_000, 0.10),
    (ClassOp::Workload, 10_000, 0.10),
    (ClassOp::Rows, 1_000, 0.10),
];
/// The class of every key's first request in a block.
const FIRST_CLASS: usize = 0;
const BLOCK: u64 = 1_000;

#[derive(Debug, Clone, Copy, PartialEq)]
enum ClassOp {
    Sample,
    Workload,
    Rows,
}

/// Split `total` in proportion to `weights` by largest remainder.
fn apportion(total: usize, weights: &[f64]) -> Vec<usize> {
    let sum: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| total as f64 * w / sum).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = total - counts.iter().sum::<usize>();
    for &i in order.iter().take(short) {
        counts[i] += 1;
    }
    counts
}

/// The seeded request stream. Requests come in blocks of [`BLOCK`] with a
/// fixed make-up: key `k` (in [`FITS`] order) has Zipf popularity
/// `1/(k+1)^s`, and each key's requests split 70 % plain samples, 20 %
/// workload queries and 10 % samples with rows. The seed shuffles each
/// block and draws every sample seed and query, so runs with different
/// seeds see different requests of the same make-up. A block opens with one
/// plain 1 000-row sample per key, in popularity order, so the first
/// touches of a run do the same kind of work in the same order on every
/// seed and do not queue behind the slowest requests.
pub struct Schedule {
    seed: u64,
    /// (key, class) of every slot of a block, before shuffling.
    slots: Vec<(usize, usize)>,
    cards: Vec<Arc<Vec<usize>>>,
}

impl Schedule {
    pub fn new(seed: u64, cards: Vec<Arc<Vec<usize>>>) -> Schedule {
        let popularity: Vec<f64> = (1..=cards.len())
            .map(|r| 1.0 / (r as f64).powf(ZIPF_S))
            .collect();
        let class_shares: Vec<f64> = CLASSES.iter().map(|c| c.2).collect();
        let mut slots = Vec::with_capacity(BLOCK as usize);
        for (key, &count) in apportion(BLOCK as usize, &popularity).iter().enumerate() {
            for (class, &n) in apportion(count, &class_shares).iter().enumerate() {
                slots.extend(std::iter::repeat_n((key, class), n));
            }
        }
        Schedule { seed, slots, cards }
    }

    /// The shuffled block `block`, opened by one [`FIRST_CLASS`] slot per key
    /// in key order.
    fn block(&self, block: u64) -> Vec<(usize, usize)> {
        let mut slots = self.slots.clone();
        let mut mix = Mix::for_request(self.seed, u64::MAX - block);
        for i in (1..slots.len()).rev() {
            slots.swap(i, mix.below(i + 1));
        }
        let mut opening = Vec::with_capacity(self.cards.len());
        for key in 0..self.cards.len() {
            let at = slots
                .iter()
                .position(|&slot| slot == (key, FIRST_CLASS))
                .expect("every key has a slot of the first class");
            opening.push(slots.remove(at));
        }
        opening.extend(slots);
        opening
    }

    pub fn request(&self, idx: u64) -> Request {
        let (key, class) = self.block(idx / BLOCK)[(idx % BLOCK) as usize];
        let (op, n, _) = CLASSES[class];
        let mut mix = Mix::for_request(self.seed, idx);
        let seed = mix.next() >> 11;
        let op = match op {
            ClassOp::Sample => Op::Sample { rows: false },
            ClassOp::Rows => Op::Sample { rows: true },
            ClassOp::Workload => Op::Workload(
                (0..3 + mix.below(8))
                    .map(|_| marginal(&mut mix, &self.cards[key]))
                    .collect(),
            ),
        };
        Request { key, n, seed, op }
    }
}

/// 1–3 distinct attributes whose marginal has at most
/// [`MAX_MARGINAL_CELLS`] cells.
fn marginal(mix: &mut Mix, cards: &[usize]) -> Vec<usize> {
    let want = 1 + mix.below(3);
    let mut set: Vec<usize> = Vec::new();
    let mut cells = 1usize;
    for _ in 0..32 {
        if set.len() == want {
            break;
        }
        let a = mix.below(cards.len());
        if !set.contains(&a) && cells * cards[a] <= MAX_MARGINAL_CELLS {
            cells *= cards[a];
            set.push(a);
        }
    }
    if set.is_empty() {
        let smallest = (0..cards.len()).min_by_key(|&a| cards[a]).unwrap_or(0);
        set.push(smallest);
    }
    set.sort_unstable();
    set
}

fn request_line(keys: &[Key], req: &Request, idx: u64) -> String {
    let key = &keys[req.key];
    let mut fields = vec![
        ("id", JsonValue::Uint(idx)),
        (
            "op",
            JsonValue::Str(
                match req.op {
                    Op::Sample { .. } => "sample",
                    Op::Workload(_) => "workload",
                }
                .to_string(),
            ),
        ),
        ("dataset", JsonValue::Str(hex16(key.digest))),
        ("synth", JsonValue::Str(key.kind.name().to_string())),
        ("epsilon", JsonValue::Num(key.epsilon)),
        ("seed_index", JsonValue::Uint(key.seed_index as u64)),
        ("n", JsonValue::Uint(req.n as u64)),
        ("seed", JsonValue::Uint(req.seed)),
    ];
    match &req.op {
        Op::Sample { rows } => fields.push(("rows", JsonValue::Bool(*rows))),
        Op::Workload(sets) => fields.push((
            "queries",
            JsonValue::Arr(
                sets.iter()
                    .map(|s| JsonValue::Arr(s.iter().map(|&a| JsonValue::Uint(a as u64)).collect()))
                    .collect(),
            ),
        )),
    }
    let mut line = JsonValue::obj(fields).to_text();
    line.push('\n');
    line
}

fn config(seed: u64) -> BenchmarkConfig {
    BenchmarkConfig {
        data_seed: crate::data_seed(seed),
        ..BenchmarkConfig::quick()
    }
}

/// Fit every stored key on two threads and save it through the service's
/// fit store. Returns the keys in a fixed order and the seconds spent
/// generating the papers' datasets.
fn fill(dir: &Path, config: &BenchmarkConfig) -> Result<(Vec<Key>, f64), String> {
    let service = FitService::open(dir, config.clone()).map_err(|e| format!("fit store: {e}"))?;
    let mut data: Vec<(Dataset, u64)> = Vec::new();
    let mut generate_s = 0.0;
    let mut keys = Vec::new();
    for (p, (paper_id, kinds)) in FITS.iter().enumerate() {
        let paper =
            publication_by_id(paper_id).ok_or_else(|| format!("unknown paper '{paper_id}'"))?;
        let t = Instant::now();
        let real = paper.generate(config.rows_for(paper.dataset().paper_n()), config.data_seed);
        generate_s += t.elapsed().as_secs_f64();
        let digest = real.content_digest();
        let cards = Arc::new(real.domain().shape());
        data.push((real, digest));
        for &kind in kinds.iter() {
            for &k in &EPSILON_EXPONENTS {
                keys.push((
                    p,
                    Key {
                        paper: paper_id,
                        kind,
                        epsilon: f64::from(k).exp(),
                        seed_index: 0,
                        digest,
                        cards: Arc::clone(&cards),
                    },
                ));
            }
        }
    }
    let cursor = AtomicU64::new(0);
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..WORKERS {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed) as usize;
                let Some((p, key)) = keys.get(i) else { break };
                let (real, digest) = &data[*p];
                let mut synth = key.kind.build();
                let seed = grid_seed(
                    config.data_seed,
                    &format!("ds-{digest:016x}"),
                    key.kind.name(),
                    key.epsilon,
                    key.seed_index as u64,
                );
                let privacy = key.kind.native_privacy(key.epsilon, real.n_rows());
                let fitted = synth
                    .fit_with(real, privacy, seed, FitContext::with_threads(1))
                    .map_err(|e| e.to_string())
                    .and_then(|()| synth.fitted_state().ok_or_else(|| "no state".to_string()));
                match fitted {
                    Ok(state) => {
                        service
                            .fits()
                            .save(*digest, key.kind, key.epsilon, key.seed_index, &state)
                    }
                    Err(e) => errors.lock().expect("error list poisoned").push(format!(
                        "{} {} eps={} seed {}: {e}",
                        key.paper,
                        key.kind.name(),
                        key.epsilon,
                        key.seed_index
                    )),
                }
            });
        }
    });
    let errors = errors.into_inner().expect("error list poisoned");
    if !errors.is_empty() {
        return Err(format!("set-up fits failed: {}", errors.join("; ")));
    }
    Ok((keys.into_iter().map(|(_, k)| k).collect(), generate_s))
}

/// One answered (or failed) request as the client saw it.
#[derive(Debug, Clone)]
struct Record {
    idx: u64,
    rtt: f64,
    ok: bool,
    /// FNV-1a of the response line.
    hash: u64,
    digest: Option<String>,
}

enum Limit {
    Until(Instant),
    Count(u64),
}

/// Run the closed loop: `CLIENTS` connections, each sending its next request
/// only after the previous reply, pulling request indices from one cursor.
/// Returns the records, the loop's wall time and the connection errors.
fn drive(
    addr: std::net::SocketAddr,
    schedule: &Schedule,
    keys: &[Key],
    limit: Limit,
) -> (Vec<Record>, f64, u64) {
    let cursor = AtomicU64::new(0);
    let conn_errors = AtomicU64::new(0);
    let records: Mutex<Vec<Record>> = Mutex::new(Vec::new());
    let opening = Mutex::new(());
    let started = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                let Ok(stream) = TcpStream::connect(addr) else {
                    conn_errors.fetch_add(1, Ordering::Relaxed);
                    return;
                };
                let _ = stream.set_nodelay(true);
                let Ok(read_half) = stream.try_clone() else {
                    conn_errors.fetch_add(1, Ordering::Relaxed);
                    return;
                };
                let mut reader = BufReader::new(read_half);
                let mut writer = stream;
                let mut mine = Vec::new();
                let mut response = String::new();
                loop {
                    if let Limit::Until(deadline) = limit {
                        if Instant::now() >= deadline {
                            break;
                        }
                    }
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    if let Limit::Count(n) = limit {
                        if idx >= n {
                            break;
                        }
                    }
                    // The run's opening — one request per key, every one a
                    // first touch — goes one request at a time, so a first
                    // touch is not timed against another.
                    let _alone = (idx < keys.len() as u64)
                        .then(|| opening.lock().expect("opening lock poisoned"));
                    let line = request_line(keys, &schedule.request(idx), idx);
                    response.clear();
                    let t = Instant::now();
                    let sent = writer.write_all(line.as_bytes()).is_ok();
                    let read = sent && matches!(reader.read_line(&mut response), Ok(n) if n > 0);
                    let rtt = t.elapsed().as_secs_f64();
                    if !read {
                        conn_errors.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                    let reply = parse(response.trim_end()).ok();
                    let ok = reply
                        .as_ref()
                        .and_then(|r| r.get("ok"))
                        .and_then(JsonValue::as_bool)
                        == Some(true);
                    let digest = reply
                        .as_ref()
                        .and_then(|r| r.get("digest"))
                        .and_then(JsonValue::as_str)
                        .map(str::to_string);
                    mine.push(Record {
                        idx,
                        rtt,
                        ok,
                        hash: fnv1a64(response.trim_end().as_bytes()),
                        digest,
                    });
                }
                records.lock().expect("record list poisoned").extend(mine);
            });
        }
    });
    let wall = started.elapsed().as_secs_f64();
    let mut records = records.into_inner().expect("record list poisoned");
    records.sort_by_key(|r| r.idx);
    (records, wall, conn_errors.into_inner())
}

/// `count` fresh servers, each touched once per key, one request at a time;
/// their round trips go to `firsts`.
fn cold_starts(
    count: usize,
    dir: &Path,
    config: &BenchmarkConfig,
    schedule: &Schedule,
    keys: &[Key],
    out: &mut Outcome,
    firsts: &mut Vec<f64>,
) -> Result<(), String> {
    for _ in 0..count {
        let opening = Limit::Count(keys.len() as u64);
        let (recs, _, errors) = real_pass(dir, config, schedule, keys, opening)?;
        out.attempted += recs.len() as u64 + errors;
        out.failed += recs.iter().filter(|r| !r.ok).count() as u64 + errors;
        firsts.extend(recs.iter().map(|r| r.rtt * 1e3));
    }
    Ok(())
}

/// A pass against the real `synrd_serve::serve` with a fresh service.
fn real_pass(
    dir: &Path,
    config: &BenchmarkConfig,
    schedule: &Schedule,
    keys: &[Key],
    limit: Limit,
) -> Result<(Vec<Record>, f64, u64), String> {
    let service =
        Arc::new(FitService::open(dir, config.clone()).map_err(|e| format!("fit store: {e}"))?);
    let server =
        synrd_serve::serve(service, "127.0.0.1:0", WORKERS).map_err(|e| format!("bind: {e}"))?;
    let result = drive(server.addr(), schedule, keys, limit);
    let stopped = TcpStream::connect(server.addr()).and_then(|mut s| {
        s.write_all(b"{\"op\":\"shutdown\"}\n")?;
        let mut bye = String::new();
        BufReader::new(s).read_line(&mut bye)
    });
    if let Err(e) = stopped {
        return Err(format!("shutdown request failed: {e}"));
    }
    server.join();
    Ok(result)
}

/// What the traced server's handlers share.
struct Traced<'a> {
    service: FitService,
    tracer: &'a Tracer,
    restored: Mutex<HashSet<(u64, &'static str, u64, usize)>>,
    response_bytes: AtomicU64,
}

impl Traced<'_> {
    fn span<R>(&self, name: &'static str, body: impl FnOnce() -> R) -> R {
        self.tracer.open(name, "", None);
        let out = body();
        self.tracer.close(name);
        out
    }

    fn str_field<'r>(req: &'r JsonValue, key: &str) -> Result<&'r str, String> {
        req.get(key)
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("missing string field '{key}'"))
    }

    /// The same answer `synrd_serve::handle_request` gives to a sample or
    /// workload request, through the same public calls, timed.
    fn answer(&self, req: &JsonValue) -> Result<JsonValue, String> {
        let op = Self::str_field(req, "op")?;
        let hex = Self::str_field(req, "dataset")?;
        let digest =
            u64::from_str_radix(hex, 16).map_err(|_| format!("bad dataset digest '{hex}'"))?;
        let kind =
            SynthKind::from_name(Self::str_field(req, "synth")?).ok_or("unknown synthesizer")?;
        let epsilon = req
            .get("epsilon")
            .and_then(JsonValue::as_f64)
            .ok_or("missing epsilon")?;
        let seed_index = req
            .get("seed_index")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0) as usize;
        let n = req
            .get("n")
            .and_then(JsonValue::as_u64)
            .ok_or("missing n")? as usize;
        let seed = req.get("seed").and_then(JsonValue::as_u64).unwrap_or(0);
        let key = (digest, kind.name(), epsilon.to_bits(), seed_index);
        let first = self.restored.lock().expect("set poisoned").insert(key);
        let restore = if first { "serve.restore" } else { "serve.memo" };
        let synth = self.span(restore, || {
            self.service.synthesizer(digest, kind, epsilon, seed_index)
        })?;
        let data = self
            .span("serve.sample", || synth.sample(n, seed))
            .map_err(|e| format!("sampling failed: {e}"))?;
        match op {
            "sample" => {
                let mut fields = vec![
                    ("ok", JsonValue::Bool(true)),
                    ("n", JsonValue::Uint(data.n_rows() as u64)),
                    ("digest", JsonValue::Str(hex16(data.content_digest()))),
                ];
                if req.get("rows").and_then(JsonValue::as_bool) == Some(true) {
                    let columns = (0..data.n_attrs())
                        .map(|a| {
                            let codes = data.decode_column(a).map_err(|e| e.to_string())?;
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
            "workload" => {
                let sets = req
                    .get("queries")
                    .and_then(JsonValue::as_arr)
                    .ok_or("missing queries")?;
                let mut engine = MarginalEngine::new(&data);
                let mut results = Vec::with_capacity(sets.len());
                for set in sets {
                    let attrs: Vec<usize> = set
                        .as_arr()
                        .ok_or("query is not an array")?
                        .iter()
                        .filter_map(|v| v.as_u64().map(|u| u as usize))
                        .collect();
                    let marginal = self
                        .span("serve.query", || engine.count(&attrs).cloned())
                        .map_err(|e| format!("query {attrs:?} failed: {e}"))?;
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
                Ok(JsonValue::obj(vec![
                    ("ok", JsonValue::Bool(true)),
                    ("n", JsonValue::Uint(data.n_rows() as u64)),
                    ("results", JsonValue::Arr(results)),
                ]))
            }
            other => Err(format!("unknown op '{other}'")),
        }
    }

    fn connection(&self, stream: TcpStream) {
        let Ok(mut writer) = stream.try_clone() else {
            return;
        };
        for line in BufReader::new(stream).lines() {
            let Ok(line) = line else { return };
            let Ok(req) = parse(&line) else { return };
            let id = req
                .get("id")
                .and_then(JsonValue::as_u64)
                .unwrap_or(u64::MAX);
            self.tracer.open("serve.handle", "", Some(id));
            let response = self.answer(&req).unwrap_or_else(|e| {
                JsonValue::obj(vec![
                    ("ok", JsonValue::Bool(false)),
                    ("error", JsonValue::Str(e)),
                ])
            });
            let mut text = self.span("serve.encode", || response.to_text());
            self.tracer.close("serve.handle");
            text.push('\n');
            self.response_bytes
                .fetch_add(text.len() as u64, Ordering::Relaxed);
            if writer.write_all(text.as_bytes()).is_err() {
                return;
            }
        }
    }
}

/// A pass against the traced server, over exactly `count` requests.
fn traced_pass(
    traced: &Traced,
    schedule: &Schedule,
    keys: &[Key],
    count: u64,
) -> Result<(Vec<Record>, f64, u64), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    listener.set_nonblocking(true).map_err(|e| e.to_string())?;
    let done = AtomicBool::new(false);
    let mut result = None;
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut accepted = 0;
            while accepted < CLIENTS && !done.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        accepted += 1;
                        let _ = stream.set_nonblocking(false);
                        s.spawn(move || traced.connection(stream));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(1)),
                }
            }
        });
        result = Some(drive(addr, schedule, keys, Limit::Count(count)));
        done.store(true, Ordering::SeqCst);
    });
    result.ok_or_else(|| "traced pass did not run".to_string())
}

/// Re-derive a seeded subset of sample responses straight from the store:
/// `restore_state` + `sample(n, seed)` must give the digest served.
fn check_digests(
    dir: &Path,
    config: &BenchmarkConfig,
    schedule: &Schedule,
    keys: &[Key],
    records: &[Record],
    seed: u64,
) -> Result<usize, String> {
    let fits = DiskFitCache::open(dir, config).map_err(|e| format!("fit store: {e}"))?;
    let mut restored: HashMap<usize, Box<dyn Synthesizer>> = HashMap::new();
    let mut checked = 0;
    for record in records {
        if checked == CHECKS {
            break;
        }
        let req = schedule.request(record.idx);
        if !matches!(req.op, Op::Sample { .. })
            || !Mix::for_request(seed, record.idx).next().is_multiple_of(8)
        {
            continue;
        }
        let key = &keys[req.key];
        let synth = match restored.entry(req.key) {
            Entry::Occupied(entry) => entry.into_mut(),
            Entry::Vacant(entry) => {
                let state = fits
                    .load(key.digest, key.kind, key.epsilon, key.seed_index)
                    .ok_or_else(|| {
                        format!("stored fit missing for {} {}", key.paper, key.kind.name())
                    })?;
                let mut synth = key.kind.build();
                synth.restore_state(state).map_err(|e| e.to_string())?;
                entry.insert(synth)
            }
        };
        let data = synth.sample(req.n, req.seed).map_err(|e| e.to_string())?;
        let expected = hex16(data.content_digest());
        if record.digest.as_deref() != Some(expected.as_str()) {
            return Err(format!(
                "request {} served digest {:?}, direct sampling gives {expected}",
                record.idx, record.digest
            ));
        }
        checked += 1;
    }
    Ok(checked)
}

pub fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let config = config(args.seed);
    let (mut keys, mut generate_s) = (Vec::new(), 0.0);
    let dir = crate::repeat_setup(args, work, &mut out, |dir| {
        (keys, generate_s) = fill(dir, &config)?;
        Ok(())
    })?;
    out.fit_store_bytes = dir_bytes(&dir.join("fits"));
    out.fit_threads = 1;
    let schedule = Schedule::new(
        args.seed,
        keys.iter().map(|k| Arc::clone(&k.cards)).collect(),
    );

    // Half the cold starts run before the closed loop and half after it, so
    // the first-touch mean samples the host at both ends of the run rather
    // than in one second of it.
    let cold = if args.trace { 0 } else { COLD_STARTS / 2 };
    let mut firsts: Vec<f64> = Vec::new();
    cold_starts(cold, &dir, &config, &schedule, &keys, &mut out, &mut firsts)?;

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (records, wall, conn_errors) =
        real_pass(&dir, &config, &schedule, &keys, Limit::Until(deadline))?;
    if records.is_empty() {
        return Err("no request completed".to_string());
    }
    cold_starts(cold, &dir, &config, &schedule, &keys, &mut out, &mut firsts)?;
    let not_ok = records.iter().filter(|r| !r.ok).count() as u64;
    out.attempted += records.len() as u64 + conn_errors;
    out.failed += not_ok + conn_errors;
    let checked = check_digests(&dir, &config, &schedule, &keys, &records, args.seed);
    match checked {
        Ok(n) if n > 0 => out.note(format!(
            "{n} served sample digests match direct restore + sample"
        )),
        Ok(_) => out.fail_gate("no sample response was checked".to_string()),
        Err(e) => out.fail_gate(e),
    }

    let mut seen = HashSet::new();
    let first_touch: HashSet<u64> = records
        .iter()
        .filter(|r| seen.insert(schedule.request(r.idx).key))
        .map(|r| r.idx)
        .collect();

    if args.trace {
        let tracer = Tracer::default();
        let traced = Traced {
            service: FitService::open(&dir, config.clone())
                .map_err(|e| format!("fit store: {e}"))?,
            tracer: &tracer,
            restored: Mutex::new(HashSet::new()),
            response_bytes: AtomicU64::new(0),
        };
        let rows_before = rows_sampled();
        let count = records.last().map_or(0, |r| r.idx + 1);
        let (traced_records, traced_wall, traced_errors) =
            traced_pass(&traced, &schedule, &keys, count)?;
        let rows = rows_sampled() - rows_before;
        // A second untraced pass after the traced one, so the overhead is
        // not confounded with the process warming up.
        let (after_records, after_wall, after_errors) =
            real_pass(&dir, &config, &schedule, &keys, Limit::Count(count))?;
        let plain: HashMap<u64, u64> = records.iter().map(|r| (r.idx, r.hash)).collect();
        for (pass, recs, errors) in [
            ("traced", &traced_records, traced_errors),
            ("second untraced", &after_records, after_errors),
        ] {
            out.attempted += recs.len() as u64 + errors;
            out.failed += recs.iter().filter(|r| !r.ok).count() as u64 + errors;
            let differing = recs
                .iter()
                .filter(|r| plain.get(&r.idx).is_some_and(|&h| h != r.hash))
                .count();
            if differing > 0 || recs.len() != records.len() {
                out.fail_gate(format!(
                    "{pass} pass answered {differing} of {} requests differently",
                    recs.len()
                ));
            }
        }
        let response_bytes = traced.response_bytes.load(Ordering::Relaxed);
        drop(traced);
        let spans = tracer.finish();
        let handle: HashMap<u64, f64> = spans
            .iter()
            .filter(|s| s.name == "serve.handle")
            .map(|s| (s.scope, s.duration()))
            .collect();
        let net: f64 = traced_records
            .iter()
            .map(|r| r.rtt - handle.get(&r.idx).copied().unwrap_or(0.0))
            .sum();
        let sample = trace::total(&spans, "serve.sample");
        out.metric("trace.overhead_s", traced_wall - (wall + after_wall) / 2.0);
        out.metric("serve.handle_s", trace::total(&spans, "serve.handle"));
        out.metric("serve.restore_s", trace::total(&spans, "serve.restore"));
        out.metric(
            "serve.first_touches",
            trace::count(&spans, "serve.restore") as f64,
        );
        out.metric("serve.memo_hits", trace::count(&spans, "serve.memo") as f64);
        out.metric("serve.sample_s", sample);
        out.metric("serve.encode_s", trace::total(&spans, "serve.encode"));
        out.metric("serve.response_bytes", response_bytes as f64);
        out.metric("serve.net_s", net);
        out.metric("serve.query_s", trace::total(&spans, "serve.query"));
        out.metric("data.generate_s", generate_s);
        out.metric("synth.draw_s", sample);
        out.metric("synth.rows_sampled", rows as f64);
        out.metric(
            "synth.rows_per_s",
            if sample > 0.0 {
                rows as f64 / sample
            } else {
                0.0
            },
        );
        out.spans = spans;
    }

    let mut rtts: Vec<f64> = records.iter().map(|r| r.rtt * 1e3).collect();
    rtts.sort_by(f64::total_cmp);
    firsts.extend(
        records
            .iter()
            .filter(|r| first_touch.contains(&r.idx))
            .map(|r| r.rtt * 1e3),
    );
    let (p50, _) = supported_percentile(&rtts, 5_000);
    let (p99, used_bp) = supported_percentile(&rtts, 9_900);
    out.metric("wall_s", wall);
    out.metric("latency_p50_ms", p50);
    out.metric("latency_p99_ms", p99);
    out.metric("throughput_rps", records.len() as f64 / wall);
    // The mean, not the median: first-touch costs spread log-uniformly over
    // the keys (0.3–60 ms), so the median falls between two unlike keys and
    // moves by half from seed to seed.
    out.metric(
        "first_touch_mean_ms",
        firsts.iter().sum::<f64>() / firsts.len().max(1) as f64,
    );
    out.note(format!(
        "closed loop, {CLIENTS} connections, {WORKERS} server workers, {} stored fits: \
         {} requests in {wall:.2} s; latency over n={} (tail reported at p{}); \
         first touches n={} over {} cold starts",
        keys.len(),
        records.len(),
        rtts.len(),
        used_bp as f64 / 100.0,
        firsts.len(),
        if args.trace { 1 } else { COLD_STARTS + 1 }
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cards() -> Vec<Arc<Vec<usize>>> {
        let wide = Arc::new(vec![2, 120, 90, 3, 64]);
        let narrow = Arc::new(vec![2, 3, 4]);
        (0..12)
            .map(|i| Arc::clone(if i % 3 == 0 { &wide } else { &narrow }))
            .collect()
    }

    #[test]
    fn schedule_is_a_pure_function_of_seed_and_index() {
        let a = Schedule::new(7, cards());
        let b = Schedule::new(7, cards());
        let c = Schedule::new(8, cards());
        let first: Vec<Request> = (0..1_500).map(|i| a.request(i)).collect();
        // Any order of generation gives the same requests.
        for i in (0..1_500).rev() {
            assert_eq!(b.request(i), first[i as usize]);
        }
        assert!((0..1_500).any(|i| c.request(i) != first[i as usize]));
    }

    #[test]
    fn every_block_has_the_same_make_up() {
        let s = Schedule::new(3, cards());
        let make_up = |block: u64| {
            let mut counts = HashMap::new();
            for i in block * BLOCK..(block + 1) * BLOCK {
                let r = s.request(i);
                let class = match &r.op {
                    Op::Sample { rows } => (*rows, r.n, 0),
                    Op::Workload(sets) => {
                        assert!((3..=10).contains(&sets.len()));
                        for set in sets {
                            let cells: usize = set.iter().map(|&a| s.cards[r.key][a]).product();
                            assert!((1..=3).contains(&set.len()) && cells <= MAX_MARGINAL_CELLS);
                        }
                        (false, r.n, 1)
                    }
                };
                *counts.entry((r.key, class)).or_insert(0usize) += 1;
            }
            counts
        };
        let first = make_up(0);
        assert_eq!(first, make_up(1));
        // (key, (rows, n, 0 for a sample or 1 for a workload query))
        type Slot = (usize, (bool, usize, u8));
        let share = |pred: &dyn Fn(&Slot) -> bool| {
            first
                .iter()
                .filter(|(k, _)| pred(k))
                .map(|(_, n)| n)
                .sum::<usize>() as f64
                / BLOCK as f64
        };
        assert!((share(&|k| k.1 .2 == 0 && !k.1 .0) - 0.7).abs() < 0.02);
        assert!((share(&|k| k.1 .2 == 1) - 0.2).abs() < 0.02);
        assert!((share(&|k| k.1 .0) - 0.1).abs() < 0.02);
        // Zipf: the first key is drawn far more often than the last.
        assert!(share(&|k| k.0 == 0) > 5.0 * share(&|k| k.0 == 11));
    }

    #[test]
    fn a_block_opens_with_a_small_plain_sample_per_key() {
        let s = Schedule::new(11, cards());
        for block in 0..3u64 {
            for (key, i) in (block * BLOCK..block * BLOCK + 12).enumerate() {
                let r = s.request(i);
                assert_eq!((r.key, r.op, r.n), (key, Op::Sample { rows: false }, 1_000));
            }
        }
    }

    #[test]
    fn apportion_sums_to_total() {
        assert_eq!(apportion(10, &[1.0, 1.0, 1.0]), vec![4, 3, 3]);
        assert_eq!(
            apportion(7, &[0.35, 0.35, 0.1, 0.1, 0.1])
                .iter()
                .sum::<usize>(),
            7
        );
    }
}
