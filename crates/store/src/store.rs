//! The content-addressed on-disk store: one generic [`DiskStore`] over two
//! keyspaces, finished grid cells ([`Cells`]) and fitted synthesizer states
//! ([`Fits`]), plus shard-directory merging.
//!
//! Layout of a store directory (`--out-dir`):
//!
//! ```text
//! out-dir/
//!   config.json            last-used BenchmarkConfig + its cell fingerprint
//!   cells/<digest16>.json  one (paper, synthesizer, ε) cell outcome each
//!   fits/<digest16>.json   one (dataset, synthesizer, ε, seed) fitted state each
//!   reports/<paper>.json   assembled PaperReports (written by fig3/fig4)
//! ```
//!
//! Each entry is addressed by the FNV-1a digest of its keyspace fingerprint
//! and coordinates, and embeds that key block verbatim next to its payload,
//! so a load verifies the key before trusting the payload: a digest
//! collision, a stale file, truncation or a hand edit degrades to a cache
//! miss (the grid recomputes and overwrites), never to wrong numbers.
//!
//! Fit seeds derive from the dataset's content digest rather than the
//! paper id (see `synrd::benchmark`), so papers whose generators produce
//! the same rows share every fit, and the fit fingerprint covers the master
//! seed alone: changing `bootstraps`, `scale`, `min_rows` or the fit
//! timeout invalidates cells but keeps fits warm (scale and floor reach
//! fits through the dataset digest when they change the data).
//!
//! `TimedOut` cells are deliberately **not** persisted: the paper's
//! wall-clock fit budget makes that verdict a property of the machine that
//! ran the cell, not of its key.

use crate::codec::JsonCodec;
use crate::digest::{hex16, Fnv1a};
use crate::json::JsonValue;
use crate::parse::parse;
use std::collections::HashSet;
use std::fs;
use std::io;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use synrd::benchmark::{
    BenchmarkConfig, CellOutcome, CellStatus, CellStore, FitStore, PaperReport,
};
use synrd_synth::{FittedState, SynthKind};

/// Version tag mixed into every cell fingerprint; bump when cell semantics
/// change so old stores invalidate wholesale.
///
/// v2: fit seeds became a function of the dataset content digest instead
/// of the paper id (the shared-fit fix), which changes every cell's
/// synthetic draws.
///
/// v3: PATECTGAN training moved to batched minibatch rounds (one Adam step
/// per round, retuned rounds/learning rate), changing its fitted states
/// and samples.
const FINGERPRINT_VERSION: u64 = 3;

/// Version tag mixed into every fit fingerprint; bump when fitted-state
/// semantics change so old fit files invalidate wholesale.
///
/// v2: PATECTGAN fits are produced by the batched minibatch round loop
/// (new trajectory and retuned hyperparameters), so v1 fit files describe
/// states the current trainer can no longer reproduce.
const FIT_FINGERPRINT_VERSION: u64 = 2;

/// Digest of every config knob that can change a cell's outcome; `threads`
/// and the ε/synthesizer lists only schedule or shape the grid and stay out.
///
/// Floats are fingerprinted by bit pattern, so "the same config" means
/// bit-identical knobs, matching the grid's bitwise determinism contract.
pub fn config_fingerprint(config: &BenchmarkConfig) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(FINGERPRINT_VERSION)
        .write_u64(config.seeds as u64)
        .write_u64(config.bootstraps as u64)
        .write_u64(config.data_scale.to_bits())
        .write_u64(config.min_rows as u64)
        .write_u64(config.data_seed);
    match config.fit_timeout {
        None => h.write_u64(0).write_u64(0),
        Some(d) => h.write_u64(1).write_u64(d.as_nanos() as u64),
    };
    h.write_u64(u64::from(config.restrict_privmrf));
    h.finish()
}

/// Digest of the config knobs a *fit* depends on: the master seed, since
/// fit seeds are `grid_seed(data_seed, dataset_key, synth, ε, seed_idx)`.
pub fn fit_fingerprint(config: &BenchmarkConfig) -> u64 {
    Fnv1a::new()
        .write_u64(FIT_FINGERPRINT_VERSION)
        .write_u64(config.data_seed)
        .finish()
}

/// Content address of one cell: `(fingerprint, paper, synthesizer, ε bits)`.
pub fn cell_digest(fingerprint: u64, paper_id: &str, synth: &str, epsilon: f64) -> u64 {
    Fnv1a::new()
        .write_u64(fingerprint)
        .write_str(paper_id)
        .write_str(synth)
        .write_u64(epsilon.to_bits())
        .finish()
}

/// Content address of one fit:
/// `(fingerprint, dataset digest, synthesizer, ε bits, seed index)`.
pub fn fit_digest(
    fingerprint: u64,
    dataset_digest: u64,
    synth: &str,
    epsilon: f64,
    seed_index: usize,
) -> u64 {
    Fnv1a::new()
        .write_u64(fingerprint)
        .write_u64(dataset_digest)
        .write_str(synth)
        .write_u64(epsilon.to_bits())
        .write_u64(seed_index as u64)
        .finish()
}

/// One kind of entry a [`DiskStore`] holds.
pub trait Keyspace {
    /// Subdirectory of the store root holding this keyspace's entries.
    const DIR: &'static str;
    /// Field of an entry document holding the payload, next to `key`.
    const FIELD: &'static str;
    /// The payload.
    type Value: JsonCodec;

    /// Digest of the config knobs this keyspace's entries depend on.
    fn fingerprint(config: &BenchmarkConfig) -> u64;

    /// Extra set-up when a store opens this keyspace (none by default);
    /// only I/O can fail.
    fn on_open(_root: &Path, _fingerprint: u64, _config: &BenchmarkConfig) -> io::Result<()> {
        Ok(())
    }
}

/// Finished grid cells, keyed by `(config fingerprint, paper, synth, ε)`.
#[derive(Debug)]
pub struct Cells;

impl Keyspace for Cells {
    const DIR: &'static str = "cells";
    const FIELD: &'static str = "cell";
    type Value = CellOutcome;

    fn fingerprint(config: &BenchmarkConfig) -> u64 {
        config_fingerprint(config)
    }

    /// Cell stores also hold the assembled reports, and record the config
    /// (and its fingerprint) in `config.json` for humans and tooling; cells
    /// from other fingerprints may coexist and are simply never matched.
    fn on_open(root: &Path, fingerprint: u64, config: &BenchmarkConfig) -> io::Result<()> {
        fs::create_dir_all(root.join("reports"))?;
        let doc = JsonValue::obj(vec![
            ("fingerprint", JsonValue::Str(hex16(fingerprint))),
            ("config", config.to_json()),
        ]);
        write_atomic(&root.join("config.json"), doc.to_text().as_bytes())
    }
}

/// Fitted states, keyed by `(fit fingerprint, dataset digest, synth, ε, seed)`.
#[derive(Debug)]
pub struct Fits;

impl Keyspace for Fits {
    const DIR: &'static str = "fits";
    const FIELD: &'static str = "state";
    type Value = FittedState;

    fn fingerprint(config: &BenchmarkConfig) -> u64 {
        fit_fingerprint(config)
    }
}

/// The cell keyspace of a store: the grid's [`CellStore`].
pub type DiskCellCache = DiskStore<Cells>;

/// The fit keyspace of a store: the grid's [`FitStore`], and what
/// `synrd serve` samples from.
pub type DiskFitCache = DiskStore<Fits>;

/// Load/store/error counters for one store handle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Loads served from disk.
    pub hits: u64,
    /// Loads that found no usable file (including key-mismatch rejects).
    pub misses: u64,
    /// Entries written.
    pub stores: u64,
    /// I/O or decode failures (each also counts as a miss on the load path).
    pub errors: u64,
}

/// An entry's digest (its file name) and the key block the file embeds.
struct Key {
    digest: u64,
    block: JsonValue,
}

/// A content-addressed store of one [`Keyspace`] under a store directory.
///
/// Cheap to open, safe to share across rayon workers (`&self` everywhere,
/// atomic counters), and safe against concurrent writers of the *same*
/// entry: writes go to a unique temp file and are `rename`d into place.
#[derive(Debug)]
pub struct DiskStore<K> {
    root: PathBuf,
    fingerprint: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    errors: AtomicU64,
    /// Digests saved through this handle: what a [`Session`] serves back.
    written: Mutex<HashSet<u64>>,
    keyspace: PhantomData<K>,
}

impl<K: Keyspace> DiskStore<K> {
    /// Open (creating if needed) this keyspace of the store at `root` for
    /// `config`.
    ///
    /// # Errors
    /// Directory creation or the keyspace's own set-up failing.
    pub fn open(root: impl Into<PathBuf>, config: &BenchmarkConfig) -> io::Result<DiskStore<K>> {
        let root = root.into();
        fs::create_dir_all(root.join(K::DIR))?;
        let fingerprint = K::fingerprint(config);
        K::on_open(&root, fingerprint, config)?;
        Ok(DiskStore {
            root,
            fingerprint,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            written: Mutex::new(HashSet::new()),
            keyspace: PhantomData,
        })
    }

    /// The store's root directory (the `--out-dir`).
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The fingerprint entries are being keyed under.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Counters since this handle was opened.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }

    /// Copy in every entry of another store directory not already held here
    /// (the shard-merge primitive) and return how many; a directory without
    /// this keyspace's subdirectory contributes nothing.
    ///
    /// # Errors
    /// I/O failures reading the source or writing the destination.
    pub fn merge_from(&self, other_root: &Path) -> io::Result<usize> {
        let src = other_root.join(K::DIR);
        if !src.is_dir() {
            return Ok(0);
        }
        let mut copied = 0usize;
        for entry in fs::read_dir(&src)? {
            let entry = entry?;
            if entry.path().extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let dest = self.root.join(K::DIR).join(entry.file_name());
            if dest.exists() {
                continue;
            }
            write_atomic(&dest, &fs::read(entry.path())?)?;
            copied += 1;
        }
        Ok(copied)
    }

    fn path(&self, digest: u64) -> PathBuf {
        self.root
            .join(K::DIR)
            .join(format!("{}.json", hex16(digest)))
    }

    /// Whether the entry at `key` was saved through this handle.
    fn saved(&self, key: &Key) -> bool {
        self.written.lock().expect("poisoned").contains(&key.digest)
    }

    /// The payload stored at `key`, if its file exists, parses, and embeds
    /// exactly `key`'s block.
    fn get(&self, key: &Key) -> Option<K::Value> {
        let Ok(text) = fs::read_to_string(self.path(key.digest)) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let decoded = parse(&text).ok().and_then(|doc| {
            if doc.get("key") != Some(&key.block) {
                return None;
            }
            K::Value::from_json(doc.get(K::FIELD)?).ok()
        });
        if decoded.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            // Truncated, corrupted, or mismatched file: a miss (the caller
            // recomputes and the save overwrites the bad file), plus an
            // error for the summary line.
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        decoded
    }

    /// Write `value` at `key`. Best-effort by contract: a failed save must
    /// not fail the run, the entry just will not be stored.
    fn put(&self, key: &Key, value: &K::Value) {
        let doc = JsonValue::obj(vec![
            ("key", key.block.clone()),
            (K::FIELD, value.to_json()),
        ]);
        if write_atomic(&self.path(key.digest), doc.to_text().as_bytes()).is_ok() {
            self.stores.fetch_add(1, Ordering::Relaxed);
            self.written.lock().expect("poisoned").insert(key.digest);
        } else {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl DiskStore<Cells> {
    fn key(&self, paper_id: &str, synth: &str, epsilon: f64) -> Key {
        Key {
            digest: cell_digest(self.fingerprint, paper_id, synth, epsilon),
            block: JsonValue::obj(vec![
                ("fingerprint", JsonValue::Str(hex16(self.fingerprint))),
                ("paper", JsonValue::Str(paper_id.to_string())),
                ("synth", JsonValue::Str(synth.to_string())),
                ("epsilon_bits", JsonValue::Str(hex16(epsilon.to_bits()))),
                ("epsilon", JsonValue::Num(epsilon)),
            ]),
        }
    }

    /// Persist an assembled report under `reports/<paper_id>.json`.
    ///
    /// # Errors
    /// I/O failures.
    pub fn write_report(&self, report: &PaperReport) -> io::Result<PathBuf> {
        let path = self
            .root
            .join("reports")
            .join(format!("{}.json", report.paper_id));
        write_atomic(&path, report.to_json_text().as_bytes())?;
        Ok(path)
    }

    /// Read back a previously written report, if present and decodable.
    pub fn read_report(&self, paper_id: &str) -> Option<PaperReport> {
        let path = self.root.join("reports").join(format!("{paper_id}.json"));
        let text = fs::read_to_string(path).ok()?;
        PaperReport::from_json_text(&text).ok()
    }
}

impl DiskStore<Fits> {
    fn key(&self, dataset_digest: u64, synth: &str, epsilon: f64, seed_index: usize) -> Key {
        Key {
            digest: fit_digest(self.fingerprint, dataset_digest, synth, epsilon, seed_index),
            block: JsonValue::obj(vec![
                ("fingerprint", JsonValue::Str(hex16(self.fingerprint))),
                ("dataset", JsonValue::Str(hex16(dataset_digest))),
                ("synth", JsonValue::Str(synth.to_string())),
                ("epsilon_bits", JsonValue::Str(hex16(epsilon.to_bits()))),
                ("epsilon", JsonValue::Num(epsilon)),
                ("seed_index", JsonValue::Uint(seed_index as u64)),
            ]),
        }
    }
}

impl CellStore for DiskCellCache {
    fn load(&self, paper_id: &str, kind: SynthKind, epsilon: f64) -> Option<CellOutcome> {
        self.get(&self.key(paper_id, kind.name(), epsilon))
    }

    fn save(&self, paper_id: &str, kind: SynthKind, epsilon: f64, cell: &CellOutcome) {
        // A TimedOut crosshatch is a wall-clock observation of *this*
        // machine (see the module docs): leave it uncached so reruns
        // re-attempt the fit.
        if cell.status != CellStatus::TimedOut {
            self.put(&self.key(paper_id, kind.name(), epsilon), cell);
        }
    }
}

impl FitStore for DiskFitCache {
    fn load(
        &self,
        dataset_digest: u64,
        kind: SynthKind,
        epsilon: f64,
        seed_index: usize,
    ) -> Option<FittedState> {
        self.get(&self.key(dataset_digest, kind.name(), epsilon, seed_index))
    }

    fn save(
        &self,
        dataset_digest: u64,
        kind: SynthKind,
        epsilon: f64,
        seed_index: usize,
        state: &FittedState,
    ) {
        let key = self.key(dataset_digest, kind.name(), epsilon, seed_index);
        self.put(&key, state);
    }
}

/// The fresh-run view of a store (`--out-dir` without `--resume`): saves
/// write through to disk, but loads serve only entries saved through the
/// same handle, so a run distrusts whatever a previous process left behind.
///
/// For fits this is what lets papers sharing a dataset *within* one run
/// share every fit. For cells it is write-only in effect, because every
/// grid path loads a cell once, before its own save.
pub struct Session<'a, K>(pub &'a DiskStore<K>);

impl<'a, K: Keyspace> Session<'a, K> {
    /// A session view over `store`.
    pub fn new(store: &'a DiskStore<K>) -> Session<'a, K> {
        Session(store)
    }

    /// The store's entry at `key`, if it was saved through this handle.
    fn get(&self, key: &Key) -> Option<K::Value> {
        self.0.saved(key).then(|| self.0.get(key)).flatten()
    }
}

impl CellStore for Session<'_, Cells> {
    fn load(&self, paper_id: &str, kind: SynthKind, epsilon: f64) -> Option<CellOutcome> {
        self.get(&self.0.key(paper_id, kind.name(), epsilon))
    }

    fn save(&self, paper_id: &str, kind: SynthKind, epsilon: f64, cell: &CellOutcome) {
        self.0.save(paper_id, kind, epsilon, cell);
    }
}

impl FitStore for Session<'_, Fits> {
    fn load(
        &self,
        dataset_digest: u64,
        kind: SynthKind,
        epsilon: f64,
        seed_index: usize,
    ) -> Option<FittedState> {
        self.get(&self.0.key(dataset_digest, kind.name(), epsilon, seed_index))
    }

    fn save(
        &self,
        dataset_digest: u64,
        kind: SynthKind,
        epsilon: f64,
        seed_index: usize,
        state: &FittedState,
    ) {
        self.0
            .save(dataset_digest, kind, epsilon, seed_index, state);
    }
}

/// Merge several shard store directories into `dest` (opened for `config`)
/// and return its cell store, ready for
/// [`synrd::benchmark::assemble_report`]. Fits are merged too, so the
/// merged store can feed `synrd serve`.
///
/// # Errors
/// I/O failures; a shard directory without a `cells/` subdirectory is an
/// error (it was not produced by a sharded run), while one without `fits/`
/// (an older store layout) contributes no fits.
pub fn merge_shard_dirs(
    shards: &[PathBuf],
    dest: &Path,
    config: &BenchmarkConfig,
) -> io::Result<DiskCellCache> {
    let cells = DiskCellCache::open(dest, config)?;
    let fits = DiskFitCache::open(dest, config)?;
    for shard in shards {
        if !shard.join(Cells::DIR).is_dir() {
            let msg = format!("{} has no cells/ directory", shard.display());
            return Err(io::Error::new(io::ErrorKind::NotFound, msg));
        }
        cells.merge_from(shard)?;
        fits.merge_from(shard)?;
    }
    Ok(cells)
}

/// Write `bytes` to `path` atomically-with-respect-to-readers: a unique
/// temp file in the same directory, then `rename` into place.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    let tmp = path.with_file_name(format!("{name}.tmp.{}.{n}", std::process::id()));
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path).inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })
}

#[cfg(test)]
mod cell_tests {
    use super::*;
    use crate::WriteOnly;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("synrd-store-unit-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn cell(parity: Vec<f64>) -> CellOutcome {
        CellOutcome {
            seed_variance: vec![0.0; parity.len()],
            parity,
            status: CellStatus::Ok,
            fit_seconds: 0.5,
        }
    }

    #[test]
    fn save_then_load_roundtrips_bitwise() {
        let dir = tmp_dir("roundtrip");
        let config = BenchmarkConfig::quick();
        let cache = DiskCellCache::open(&dir, &config).unwrap();
        let c = cell(vec![1.0, f64::NAN, 0.25]);

        assert!(cache.load("saw2018", SynthKind::Mst, 1.0).is_none());
        cache.save("saw2018", SynthKind::Mst, 1.0, &c);
        let back = cache.load("saw2018", SynthKind::Mst, 1.0).unwrap();
        assert!(back.bitwise_eq(&c));

        // Other coordinates do not alias.
        assert!(cache.load("saw2018", SynthKind::Gem, 1.0).is_none());
        assert!(cache.load("saw2018", SynthKind::Mst, 2.0).is_none());
        assert!(cache.load("lee2021", SynthKind::Mst, 1.0).is_none());

        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.stores, 1);
        assert_eq!(stats.misses, 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn config_change_invalidates_cells() {
        let dir = tmp_dir("invalidate");
        let config = BenchmarkConfig::quick();
        let cache = DiskCellCache::open(&dir, &config).unwrap();
        cache.save("saw2018", SynthKind::Mst, 1.0, &cell(vec![1.0]));

        let mut changed = BenchmarkConfig::quick();
        changed.seeds += 1;
        let cache2 = DiskCellCache::open(&dir, &changed).unwrap();
        assert_ne!(cache.fingerprint(), cache2.fingerprint());
        assert!(
            cache2.load("saw2018", SynthKind::Mst, 1.0).is_none(),
            "a changed config must not see old cells"
        );
        // threads is scheduling-only and must NOT invalidate.
        let mut threads_only = BenchmarkConfig::quick();
        threads_only.threads = 1;
        let cache3 = DiskCellCache::open(&dir, &threads_only).unwrap();
        assert_eq!(cache.fingerprint(), cache3.fingerprint());
        assert!(cache3.load("saw2018", SynthKind::Mst, 1.0).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_or_mismatched_files_degrade_to_misses() {
        let dir = tmp_dir("corrupt");
        let config = BenchmarkConfig::quick();
        let cache = DiskCellCache::open(&dir, &config).unwrap();
        cache.save("saw2018", SynthKind::Mst, 1.0, &cell(vec![1.0]));
        let digest = cell_digest(cache.fingerprint(), "saw2018", "MST", 1.0);
        let path = cache.path(digest);

        fs::write(&path, b"{not json").unwrap();
        assert!(cache.load("saw2018", SynthKind::Mst, 1.0).is_none());

        // Valid JSON, wrong key block (as if a digest collision happened).
        let foreign = JsonValue::obj(vec![
            ("key", cache.key("other-paper", "MST", 1.0).block),
            ("cell", cell(vec![0.0]).to_json()),
        ]);
        fs::write(&path, foreign.to_text()).unwrap();
        assert!(cache.load("saw2018", SynthKind::Mst, 1.0).is_none());
        assert!(cache.stats().errors >= 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_unions_shard_directories() {
        let config = BenchmarkConfig::quick();
        let d1 = tmp_dir("merge-1");
        let d2 = tmp_dir("merge-2");
        let dm = tmp_dir("merge-dest");
        let s1 = DiskCellCache::open(&d1, &config).unwrap();
        let s2 = DiskCellCache::open(&d2, &config).unwrap();
        s1.save("saw2018", SynthKind::Mst, 1.0, &cell(vec![1.0]));
        s1.save("saw2018", SynthKind::Mst, 2.0, &cell(vec![0.5]));
        s2.save("saw2018", SynthKind::Gem, 1.0, &cell(vec![0.0]));
        // Overlap: both shards have this cell; merge keeps the first copy.
        s2.save("saw2018", SynthKind::Mst, 1.0, &cell(vec![1.0]));

        let merged = merge_shard_dirs(&[d1.clone(), d2.clone()], &dm, &config).unwrap();
        assert!(merged.load("saw2018", SynthKind::Mst, 1.0).is_some());
        assert!(merged.load("saw2018", SynthKind::Mst, 2.0).is_some());
        assert!(merged.load("saw2018", SynthKind::Gem, 1.0).is_some());
        for d in [d1, d2, dm] {
            fs::remove_dir_all(&d).unwrap();
        }
    }

    #[test]
    fn merge_requires_cells_but_not_fits() {
        let config = BenchmarkConfig::quick();
        let shard = tmp_dir("merge-shard");
        let dest = tmp_dir("merge-into");
        DiskCellCache::open(&shard, &config).unwrap().save(
            "saw2018",
            SynthKind::Mst,
            1.0,
            &cell(vec![1.0]),
        );
        // A store from before fit caching: cells but no fits/ directory.
        let merged = merge_shard_dirs(std::slice::from_ref(&shard), &dest, &config).unwrap();
        assert!(merged.load("saw2018", SynthKind::Mst, 1.0).is_some());

        // A directory no sharded run produced has no cells/ at all.
        let stray = tmp_dir("merge-stray");
        fs::create_dir_all(&stray).unwrap();
        let err = merge_shard_dirs(&[shard.clone(), stray.clone()], &dest, &config).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        for d in [shard, dest, stray] {
            fs::remove_dir_all(&d).unwrap();
        }
    }

    #[test]
    fn timed_out_cells_are_never_persisted() {
        let dir = tmp_dir("timeout");
        let config = BenchmarkConfig::quick();
        let cache = DiskCellCache::open(&dir, &config).unwrap();
        let timed_out = CellOutcome {
            parity: vec![f64::NAN],
            seed_variance: vec![f64::NAN],
            status: CellStatus::TimedOut,
            fit_seconds: 301.0,
        };
        cache.save("saw2018", SynthKind::Mst, 1.0, &timed_out);
        assert_eq!(cache.stats().stores, 0);
        assert!(
            cache.load("saw2018", SynthKind::Mst, 1.0).is_none(),
            "a wall-clock give-up must not be served to future runs"
        );
        // Every other unavailable status IS deterministic and is cached.
        let skipped = CellOutcome {
            parity: vec![f64::NAN],
            seed_variance: vec![f64::NAN],
            status: CellStatus::Skipped,
            fit_seconds: 0.0,
        };
        cache.save("saw2018", SynthKind::PrivMrf, 2.0, &skipped);
        assert!(cache.load("saw2018", SynthKind::PrivMrf, 2.0).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_only_never_serves_loads() {
        let dir = tmp_dir("write-only");
        let config = BenchmarkConfig::quick();
        // A previous process left a cell behind.
        DiskCellCache::open(&dir, &config).unwrap().save(
            "saw2018",
            SynthKind::Mst,
            1.0,
            &cell(vec![1.0]),
        );

        let cache = DiskCellCache::open(&dir, &config).unwrap();
        let wo = WriteOnly(&cache);
        assert!(wo.load("saw2018", SynthKind::Mst, 1.0).is_none());
        wo.save("saw2018", SynthKind::Mst, 1.0, &cell(vec![1.0]));
        assert!(cache.load("saw2018", SynthKind::Mst, 1.0).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn report_persistence_roundtrips() {
        let dir = tmp_dir("reports");
        let config = BenchmarkConfig::quick();
        let cache = DiskCellCache::open(&dir, &config).unwrap();
        let report = PaperReport {
            paper_id: "toy",
            paper_name: "Toy et al.",
            findings: vec![(1, "f1", synrd::finding::FindingType::DescriptiveStatistics)],
            epsilons: vec![1.0],
            synthesizers: vec![SynthKind::Mst],
            cells: vec![vec![cell(vec![0.75])]],
            control: vec![1.0],
            n_rows: 100,
        };
        cache.write_report(&report).unwrap();
        let back = cache.read_report("toy").unwrap();
        assert!(back.bitwise_eq(&report));
        assert!(cache.read_report("missing").is_none());
        fs::remove_dir_all(&dir).unwrap();
    }
}

#[cfg(test)]
mod fit_tests {
    use super::*;
    use crate::SessionFits;
    use synrd_data::{Attribute, Dataset, Domain};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("synrd-fit-unit-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn fitted_state(seed: u64) -> FittedState {
        let domain = Domain::new(vec![
            Attribute::binary("x"),
            Attribute::binary("y"),
            Attribute::ordinal("z", 3),
        ]);
        let mut data = Dataset::with_capacity(domain, 200);
        for i in 0..200u64 {
            let h = i.wrapping_mul(seed | 1).wrapping_add(seed);
            data.push_row(&[(h % 2) as u32, ((h >> 1) % 2) as u32, ((h >> 2) % 3) as u32])
                .unwrap();
        }
        let mut synth = SynthKind::Mst.build();
        synth
            .fit(
                &data,
                SynthKind::Mst.native_privacy(1.0, data.n_rows()),
                seed,
            )
            .unwrap();
        synth.fitted_state().unwrap()
    }

    fn restored_samples(state: FittedState) -> Dataset {
        let mut synth = SynthKind::Mst.build();
        synth.restore_state(state).unwrap();
        synth.sample(300, 5).unwrap()
    }

    #[test]
    fn save_then_load_roundtrips_the_sampler_bitwise() {
        let dir = tmp_dir("roundtrip");
        let config = BenchmarkConfig::quick();
        let cache = DiskFitCache::open(&dir, &config).unwrap();
        let state = fitted_state(11);
        let want = restored_samples(state.clone());

        assert!(cache.load(42, SynthKind::Mst, 1.0, 0).is_none());
        cache.save(42, SynthKind::Mst, 1.0, 0, &state);
        let back = cache.load(42, SynthKind::Mst, 1.0, 0).unwrap();
        assert_eq!(restored_samples(back), want);

        // Other coordinates do not alias.
        assert!(cache.load(43, SynthKind::Mst, 1.0, 0).is_none());
        assert!(cache.load(42, SynthKind::Aim, 1.0, 0).is_none());
        assert!(cache.load(42, SynthKind::Mst, 2.0, 0).is_none());
        assert!(cache.load(42, SynthKind::Mst, 1.0, 1).is_none());

        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.stores, 1);
        assert_eq!(stats.misses, 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_files_degrade_to_misses_and_are_overwritten() {
        let dir = tmp_dir("truncate");
        let config = BenchmarkConfig::quick();
        let cache = DiskFitCache::open(&dir, &config).unwrap();
        let state = fitted_state(7);
        cache.save(9, SynthKind::Mst, 1.0, 0, &state);
        let digest = fit_digest(cache.fingerprint(), 9, "MST", 1.0, 0);
        let path = cache.path(digest);

        // Truncate the entry mid-file, as if the writer was killed (the
        // rename makes this unreachable for *our* writes, but files from
        // other tools or damaged disks must still degrade gracefully).
        let full = fs::read_to_string(&path).unwrap();
        for cut in [full.len() / 2, 1, full.len() - 1] {
            fs::write(&path, &full.as_bytes()[..cut]).unwrap();
            assert!(
                cache.load(9, SynthKind::Mst, 1.0, 0).is_none(),
                "truncation at {cut} must be a miss, not an error"
            );
        }
        assert_eq!(cache.stats().errors, 3);

        // The refit path overwrites the damaged file and recovers.
        cache.save(9, SynthKind::Mst, 1.0, 0, &state);
        assert!(cache.load(9, SynthKind::Mst, 1.0, 0).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn master_seed_change_invalidates_fits() {
        let dir = tmp_dir("invalidate");
        let config = BenchmarkConfig::quick();
        let cache = DiskFitCache::open(&dir, &config).unwrap();
        cache.save(1, SynthKind::Mst, 1.0, 0, &fitted_state(3));

        let mut reseeded = BenchmarkConfig::quick();
        reseeded.data_seed ^= 0xdead;
        let cache2 = DiskFitCache::open(&dir, &reseeded).unwrap();
        assert_ne!(cache.fingerprint(), cache2.fingerprint());
        assert!(cache2.load(1, SynthKind::Mst, 1.0, 0).is_none());

        // Cell-only knobs keep fits warm: fits do not depend on bootstraps.
        let mut more_draws = BenchmarkConfig::quick();
        more_draws.bootstraps += 7;
        let cache3 = DiskFitCache::open(&dir, &more_draws).unwrap();
        assert_eq!(cache.fingerprint(), cache3.fingerprint());
        assert!(cache3.load(1, SynthKind::Mst, 1.0, 0).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ml_backend_selection_never_reaches_the_fingerprint() {
        // Backends are bit-identical, so backend choice must stay out of
        // fit identity: the fingerprint is computed from the config alone
        // and a fit saved under one backend loads under any other.
        use synrd_synth::ml_backend;
        let dir = tmp_dir("backend");
        let config = BenchmarkConfig::quick();
        let fp_auto = fit_fingerprint(&config);
        ml_backend::set_global(Some("cpu")).unwrap();
        let cache = DiskFitCache::open(&dir, &config).unwrap();
        assert_eq!(cache.fingerprint(), fp_auto);
        cache.save(6, SynthKind::Mst, 1.0, 0, &fitted_state(2));

        let other = if ml_backend::select(Some("simd")).is_ok() {
            "simd"
        } else {
            "cpu"
        };
        ml_backend::set_global(Some(other)).unwrap();
        assert_eq!(fit_fingerprint(&config), fp_auto);
        let reopened = DiskFitCache::open(&dir, &config).unwrap();
        assert!(
            reopened.load(6, SynthKind::Mst, 1.0, 0).is_some(),
            "a cpu-backend fit must hit under the {other} backend"
        );
        ml_backend::set_global(Some("auto")).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fit_thread_allowance_never_reaches_the_fingerprint() {
        // Intra-fit parallelism is bit-identical at any thread count, so the
        // allowance must stay out of fit identity: configs differing only in
        // `fit_threads` fingerprint identically, and a fit saved by a
        // sequential run loads under any allowance.
        let dir = tmp_dir("fit-threads");
        let seq = BenchmarkConfig {
            fit_threads: Some(1),
            ..BenchmarkConfig::quick()
        };
        let wide = BenchmarkConfig {
            fit_threads: Some(8),
            ..BenchmarkConfig::quick()
        };
        let auto = BenchmarkConfig {
            fit_threads: None,
            ..BenchmarkConfig::quick()
        };
        let fp = fit_fingerprint(&seq);
        assert_eq!(fit_fingerprint(&wide), fp);
        assert_eq!(fit_fingerprint(&auto), fp);

        let cache = DiskFitCache::open(&dir, &seq).unwrap();
        cache.save(9, SynthKind::Mst, 1.0, 0, &fitted_state(3));
        let reopened = DiskFitCache::open(&dir, &wide).unwrap();
        assert!(
            reopened.load(9, SynthKind::Mst, 1.0, 0).is_some(),
            "a sequential fit must hit under an 8-thread allowance"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_only_never_serves_loads() {
        let dir = tmp_dir("write-only");
        let config = BenchmarkConfig::quick();
        // A previous process left a fit behind.
        DiskFitCache::open(&dir, &config).unwrap().save(
            5,
            SynthKind::Mst,
            1.0,
            0,
            &fitted_state(1),
        );

        let cache = DiskFitCache::open(&dir, &config).unwrap();
        let wo = Session::new(&cache);
        assert!(wo.load(5, SynthKind::Mst, 1.0, 0).is_none());
        wo.save(5, SynthKind::Mst, 1.0, 0, &fitted_state(1));
        assert!(cache.load(5, SynthKind::Mst, 1.0, 0).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn session_fits_serve_only_what_this_run_wrote() {
        let dir = tmp_dir("session");
        let config = BenchmarkConfig::quick();
        // A previous process left a fit behind.
        DiskFitCache::open(&dir, &config).unwrap().save(
            5,
            SynthKind::Mst,
            1.0,
            0,
            &fitted_state(1),
        );

        let cache = DiskFitCache::open(&dir, &config).unwrap();
        let session = SessionFits::new(&cache);
        // Stale disk state is invisible to a fresh run...
        assert!(session.load(5, SynthKind::Mst, 1.0, 0).is_none());
        // ...but the run's own saves are served back (shared-dataset
        // papers within one sweep), write-through to disk included.
        session.save(6, SynthKind::Mst, 1.0, 0, &fitted_state(2));
        assert!(session.load(6, SynthKind::Mst, 1.0, 0).is_some());
        assert!(session.load(6, SynthKind::Mst, 2.0, 0).is_none());
        assert!(cache.load(6, SynthKind::Mst, 1.0, 0).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merging_copies_missing_fits_and_tolerates_fitless_shards() {
        let shard_a = tmp_dir("merge-a");
        let shard_b = tmp_dir("merge-b");
        let dest = tmp_dir("merge-dest");
        let config = BenchmarkConfig::quick();
        let a = DiskFitCache::open(&shard_a, &config).unwrap();
        let b = DiskFitCache::open(&shard_b, &config).unwrap();
        a.save(1, SynthKind::Mst, 1.0, 0, &fitted_state(1));
        b.save(1, SynthKind::Mst, 1.0, 0, &fitted_state(1)); // duplicate
        b.save(2, SynthKind::Mst, 1.0, 0, &fitted_state(2));

        let merged = DiskFitCache::open(&dest, &config).unwrap();
        assert_eq!(merged.merge_from(&shard_a).unwrap(), 1);
        assert_eq!(merged.merge_from(&shard_b).unwrap(), 1); // dup skipped
        assert!(merged.load(1, SynthKind::Mst, 1.0, 0).is_some());
        assert!(merged.load(2, SynthKind::Mst, 1.0, 0).is_some());

        // A store from before fit caching has no fits/ directory.
        let empty = tmp_dir("merge-empty");
        fs::create_dir_all(&empty).unwrap();
        assert_eq!(merged.merge_from(&empty).unwrap(), 0);
        for dir in [&shard_a, &shard_b, &dest, &empty] {
            fs::remove_dir_all(dir).unwrap();
        }
    }
}
