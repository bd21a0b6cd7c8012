//! The trained-context cache: train once per fingerprint, reuse forever.
//!
//! Every accuracy-under-uncertainty figure in the paper is a Monte-Carlo
//! sweep over a *fixed trained network* — training is pure overhead
//! repeated per sweep campaign. Scenarios that share the training-relevant
//! part of their [`ScenarioSpec`] (dataset, architecture, optimizer
//! hyper-parameters, master seed) retrain *identically*: the trained
//! weights are a pure function of those fields. This module exploits that:
//!
//! - [`Fingerprint`] — a stable 128-bit key over exactly the
//!   training-relevant spec fields. Sweep axes, effects grids, topology
//!   lists, iteration budgets and the test-set size do **not** enter the
//!   key, so e.g. `fig4` and `fig5` (same dataset/architecture/seed,
//!   different sweeps) share one trained context.
//! - [`TrainedContext`] — the trained [`ComplexNetwork`] plus memoized
//!   photonic mesh mappings per `(topology, shuffle seed)`.
//! - [`ContextCache`] — in-memory memoization within a run and an optional
//!   on-disk store across runs. Files are `ctx-<key>.spnnctx` records in
//!   the [`crate::store`] framing (versioned, endian-stable, trailing
//!   checksum); this module owns only the record codec. Loads are
//!   corruption-safe: any malformed, truncated or stale file silently
//!   falls back to retraining.
//!
//! Reuse is **bit-exact**: weights and mesh phases are stored as raw IEEE
//! 754 bits, and the mapping is reconstructed through
//! [`PhotonicLayer::from_parts`], so a warm-cache scenario run produces a
//! report bit-identical to a cold one (pinned by the engine's tests).
//!
//! # Example
//!
//! ```
//! use spnn_engine::cache::{ContextCache, Fingerprint};
//! use spnn_engine::prelude::*;
//!
//! let mut spec = presets::fig4(&RunScale::tiny());
//! let cache = ContextCache::in_memory();
//! let ctx = cache.get_or_train(&spec, false);
//!
//! // A second request — even from a spec with different sweep axes —
//! // reuses the trained context instead of retraining.
//! spec.sweep.sigmas = vec![0.0, 0.1];
//! assert_eq!(Fingerprint::of_spec(&spec), *ctx.fingerprint());
//! let again = cache.get_or_train(&spec, false);
//! assert_eq!(cache.stats().trains, 1);
//! assert_eq!(cache.stats().mem_hits, 1);
//! # let _ = again;
//! ```

use crate::metrics::{Counter, MetricsRegistry};
use crate::spec::ScenarioSpec;
use crate::store::{self, Framing, LoadError, Reader, Store, Writer};
use crate::tevent;
use crate::trace::Level;
use spnn_core::network::{PhotonicLayer, SpnnError};
use spnn_core::{MeshTopology, PhotonicNetwork};
use spnn_dataset::{DatasetConfig, SpnnDataset};
use spnn_linalg::{CMatrix, C64};
use spnn_mesh::{DiagonalLine, UnitaryMesh};
use spnn_neural::{train, ComplexNetwork, TrainConfig};
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Record header of every context file. Files with another version are
/// ignored (load-or-retrain), never misread.
const FRAMING: Framing = Framing {
    magic: b"SPNNCTX\x01",
    version: 1,
};

/// File-name prefix of context entries.
const PREFIX: &str = "ctx-";

/// The trained-context store: `ctx-<key>.spnnctx` files under
/// `$SPNN_CACHE_DIR`, else `<user cache root>/spnn`.
pub const STORE: Store = Store {
    name: "cache",
    extension: "spnnctx",
    kinds: &[(PREFIX, "context")],
    env_var: "SPNN_CACHE_DIR",
    subdir: "spnn",
    summarize: summarize_entry,
};

// ---------------------------------------------------------------------------
// Fingerprint
// ---------------------------------------------------------------------------

/// The training fingerprint of a scenario: a stable 128-bit key over the
/// spec fields that influence the trained network, plus the human-readable
/// canonical string it hashes (stored in cache files and compared on load,
/// which also makes hash collisions harmless).
///
/// Included: dataset size/crop, master seed, layer widths, epochs, batch
/// size, learning rate, and the (constant) activation/loss/optimizer/init
/// identities. Excluded: everything that only affects *evaluation* — sweep
/// axes, effects grids, topologies, singular-value shuffling, test-set
/// size, iteration budgets, stopping rules, and the scenario name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    key: [u8; 16],
    canonical: String,
}

impl Fingerprint {
    /// Computes the fingerprint of a spec's training-relevant fields.
    pub fn of_spec(spec: &ScenarioSpec) -> Self {
        let layers = spec
            .train
            .layers
            .iter()
            .map(|l| l.to_string())
            .collect::<Vec<_>>()
            .join("-");
        // `{}` on f64 prints the shortest representation that round-trips,
        // so distinct learning-rate bit patterns get distinct strings
        // (learning rates are validated finite and positive).
        let canonical = format!(
            "spnn-ctx-v1;dataset=n_train:{},crop:{},seed:{};arch={};\
             activation=softplus;loss=cross-entropy;optimizer=adam;init=glorot;\
             train=epochs:{},batch:{},lr:{}",
            spec.dataset.n_train,
            spec.dataset.crop,
            spec.seed,
            layers,
            spec.train.epochs,
            spec.train.batch_size,
            spec.train.learning_rate,
        );
        Self::of_canonical(canonical)
    }

    fn of_canonical(canonical: String) -> Self {
        Self {
            key: store::content_key(&canonical),
            canonical,
        }
    }

    /// The 32-character lowercase hex key (the cache file stem).
    pub fn hex(&self) -> String {
        store::hex(&self.key)
    }

    /// A 12-character abbreviation of [`Fingerprint::hex`] for logs and
    /// `spnn cache ls` output.
    pub fn short(&self) -> String {
        self.hex()[..12].to_string()
    }

    /// The canonical string the key hashes — a readable summary of every
    /// field that entered the fingerprint.
    pub fn canonical(&self) -> &str {
        &self.canonical
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.hex())
    }
}

// ---------------------------------------------------------------------------
// Trained context
// ---------------------------------------------------------------------------

/// Key of one photonic mapping inside a context: mesh topology plus the
/// optional singular-value shuffle seed.
type MappingKey = (u8, Option<u64>);

fn topology_code(t: MeshTopology) -> u8 {
    match t {
        MeshTopology::Clements => 0,
        MeshTopology::Reck => 1,
    }
}

fn topology_from_code(c: u8) -> Option<MeshTopology> {
    match c {
        0 => Some(MeshTopology::Clements),
        1 => Some(MeshTopology::Reck),
        _ => None,
    }
}

/// A trained software network plus its photonic mesh mappings, shared via
/// `Arc` between scenarios that hit the same [`Fingerprint`].
///
/// Mappings are memoized per `(topology, shuffle seed)`: the first request
/// runs SVD + mesh synthesis, later requests (and requests satisfied from a
/// cache file) reuse the stored meshes bit for bit.
#[derive(Debug)]
pub struct TrainedContext {
    fingerprint: Fingerprint,
    software: ComplexNetwork,
    train_accuracy: f64,
    mappings: Mutex<HashMap<MappingKey, Arc<PhotonicNetwork>>>,
    /// Mapping count at the last successful persist (or disk load);
    /// `usize::MAX` means "never written". Lets [`ContextCache::persist`]
    /// skip rewriting an entry whose on-disk state is already current.
    persisted_mappings: AtomicUsize,
}

impl TrainedContext {
    /// The fingerprint this context was trained under.
    pub fn fingerprint(&self) -> &Fingerprint {
        &self.fingerprint
    }

    /// The trained software network.
    pub fn software(&self) -> &ComplexNetwork {
        &self.software
    }

    /// Final training-set accuracy recorded at training time.
    pub fn train_accuracy(&self) -> f64 {
        self.train_accuracy
    }

    /// Number of photonic mappings currently materialized.
    pub fn n_mappings(&self) -> usize {
        self.mappings.lock().expect("mappings lock").len()
    }

    /// The photonic mapping for `(topology, shuffle_seed)`, synthesizing
    /// and memoizing it on first request.
    ///
    /// # Errors
    ///
    /// Returns [`SpnnError`] if SVD or mesh synthesis fails (not expected
    /// for finite trained weights).
    pub fn mapping(
        &self,
        topology: MeshTopology,
        shuffle_seed: Option<u64>,
    ) -> Result<Arc<PhotonicNetwork>, SpnnError> {
        let key = (topology_code(topology), shuffle_seed);
        let mut map = self.mappings.lock().expect("mappings lock");
        if let Some(hw) = map.get(&key) {
            return Ok(Arc::clone(hw));
        }
        let hw = Arc::new(PhotonicNetwork::from_network(
            &self.software,
            topology,
            shuffle_seed,
        )?);
        map.insert(key, Arc::clone(&hw));
        Ok(hw)
    }
}

// ---------------------------------------------------------------------------
// Cache front-end
// ---------------------------------------------------------------------------

/// Counters describing what a [`ContextCache`] did so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests satisfied from the in-memory map.
    pub mem_hits: usize,
    /// Requests satisfied by loading a cache file.
    pub disk_hits: usize,
    /// Requests that had to train from scratch.
    pub trains: usize,
    /// Unusable (corrupt/truncated/stale) cache files healed by
    /// retraining.
    pub corrupt_healed: usize,
    /// Times this cache blocked on another process's advisory training
    /// lock.
    pub flock_waits: usize,
}

/// The trained-context store: in-memory memoization within a run, optional
/// on-disk persistence across runs.
///
/// All methods take `&self`; the cache is internally synchronized and safe
/// to share between scenario runs.
#[derive(Debug)]
pub struct ContextCache {
    dir: Option<PathBuf>,
    mem: Mutex<HashMap<[u8; 16], Arc<TrainedContext>>>,
    /// Per-fingerprint in-flight gates: concurrent [`Self::get_or_train`]
    /// calls for the *same* fingerprint serialize, so the second caller
    /// finds the first one's context in memory instead of training it
    /// again. Different fingerprints stay fully concurrent. (One gate per
    /// distinct fingerprint ever requested — a handful of small Arcs.)
    pending: Mutex<HashMap<[u8; 16], Arc<Mutex<()>>>>,
    /// Per-cache [`Counter`] handles (not process globals, so unit tests
    /// running many caches in one process stay exact). A server adopts
    /// these same handles into its registry via [`Self::register_metrics`],
    /// making `/cache/stats` and `/metrics` two views of one set of
    /// atomics.
    mem_hits: Counter,
    disk_hits: Counter,
    trains: Counter,
    corrupt_healed: Counter,
    flock_waits: Counter,
}

impl ContextCache {
    /// A cache with optional on-disk persistence under `dir`.
    pub fn new(dir: Option<PathBuf>) -> Self {
        Self {
            dir,
            mem: Mutex::new(HashMap::new()),
            pending: Mutex::new(HashMap::new()),
            mem_hits: Counter::new(),
            disk_hits: Counter::new(),
            trains: Counter::new(),
            corrupt_healed: Counter::new(),
            flock_waits: Counter::new(),
        }
    }

    /// A purely in-memory cache (no files touched) — what [`crate::run_scenario`]
    /// uses by default.
    pub fn in_memory() -> Self {
        Self::new(None)
    }

    /// A cache persisting to `dir` (created on first store).
    pub fn on_disk(dir: impl Into<PathBuf>) -> Self {
        Self::new(Some(dir.into()))
    }

    /// The persistence directory, if any.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Activity counters (memory hits / disk hits / trainings / heals /
    /// lock waits).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            mem_hits: self.mem_hits.get() as usize,
            disk_hits: self.disk_hits.get() as usize,
            trains: self.trains.get() as usize,
            corrupt_healed: self.corrupt_healed.get() as usize,
            flock_waits: self.flock_waits.get() as usize,
        }
    }

    /// Adopts this cache's counters into `registry` under the
    /// `spnn_cache_*` metric names, so a scrape reads the very atomics
    /// the cache increments — derived, not parallel. Safe to call once
    /// per registry; re-registering replaces the previous handles.
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        registry.register_counter(
            "spnn_cache_hits_total",
            "Trained-context cache hits by tier.",
            &[("tier", "memory")],
            &self.mem_hits,
        );
        registry.register_counter(
            "spnn_cache_hits_total",
            "Trained-context cache hits by tier.",
            &[("tier", "disk")],
            &self.disk_hits,
        );
        registry.register_counter(
            "spnn_cache_trains_total",
            "Contexts trained from scratch.",
            &[],
            &self.trains,
        );
        registry.register_counter(
            "spnn_cache_corrupt_healed_total",
            "Unusable cache files healed by retraining.",
            &[],
            &self.corrupt_healed,
        );
        registry.register_counter(
            "spnn_cache_flock_waits_total",
            "Waits on another process's advisory training lock.",
            &[],
            &self.flock_waits,
        );
    }

    /// The trained context for `spec`'s training fingerprint: from memory,
    /// else from disk, else trained from scratch (and then persisted when a
    /// directory is configured).
    ///
    /// The warm paths skip training *and* training-set generation entirely;
    /// only the spec fields covered by [`Fingerprint`] influence the
    /// result, which is bit-identical across all three paths.
    ///
    /// In-flight training is deduplicated per fingerprint: when several
    /// threads request the same context concurrently (e.g. identical
    /// `spnn serve` requests), exactly one trains while the others wait
    /// and then take the memory hit — `stats().trains` rises by one, not
    /// by the number of callers. Requests for *different* fingerprints
    /// train concurrently.
    ///
    /// With a persistence directory, the same holds **across
    /// processes**: a cold cache miss takes an advisory file lock
    /// (`flock`, Unix) on `ctx-<key>.lock` before training, so many
    /// cold workers pointed at one shared cache directory train once
    /// while the rest wait and then load the winner's entry — instead
    /// of all training and racing last-writer-wins. On platforms (or
    /// filesystems) without advisory locking the cache degrades to the
    /// old concurrent-but-correct behavior: entries are deterministic,
    /// so a lost race only wastes work, never changes bits.
    pub fn get_or_train(&self, spec: &ScenarioSpec, verbose: bool) -> Arc<TrainedContext> {
        let fp = Fingerprint::of_spec(spec);
        // Fast path: no gate needed when the context is already in memory.
        if let Some(ctx) = self.mem.lock().expect("cache lock").get(&fp.key) {
            self.mem_hits.inc();
            return Arc::clone(ctx);
        }

        let gate = Arc::clone(
            self.pending
                .lock()
                .expect("pending lock")
                .entry(fp.key)
                .or_default(),
        );
        let _in_flight = gate.lock().expect("in-flight training gate");
        // Re-check under the gate: a concurrent caller may have finished
        // training while this one waited.
        if let Some(ctx) = self.mem.lock().expect("cache lock").get(&fp.key) {
            self.mem_hits.inc();
            return Arc::clone(ctx);
        }

        // Held (when acquirable) from just before training until the
        // trained entry is persisted, releasing on every return path.
        let mut _file_lock: Option<std::fs::File> = None;
        if let Some(dir) = &self.dir {
            let path = entry_path(dir, &fp);
            match load_entry(&path, &fp) {
                Ok(ctx) => {
                    self.disk_hits.inc();
                    if verbose {
                        eprintln!(
                            "[cache] {}: loaded trained context {} ({} mapping(s))",
                            spec.name,
                            fp.short(),
                            ctx.n_mappings()
                        );
                    }
                    return self.adopt(ctx);
                }
                Err(LoadError::NotFound) => {}
                Err(e) => {
                    self.corrupt_healed.inc();
                    tevent!(
                        Level::Warn,
                        "cache",
                        "unusable cache file, retraining",
                        scenario = &spec.name,
                        error = &format!("{e}"),
                    );
                    if verbose {
                        eprintln!(
                            "[cache] {}: ignoring unusable cache file {} ({e}); retraining",
                            spec.name,
                            path.display()
                        );
                    }
                }
            }
            // Cold miss: serialize cross-process training on an advisory
            // file lock, then re-check — another process may have trained
            // and persisted the entry while this one waited.
            _file_lock = advisory_lock(dir, &fp, verbose, Some(&self.flock_waits));
            if _file_lock.is_some() {
                if let Ok(ctx) = load_entry(&path, &fp) {
                    self.disk_hits.inc();
                    if verbose {
                        eprintln!(
                            "[cache] {}: loaded trained context {} (trained by a \
                             concurrent process)",
                            spec.name,
                            fp.short()
                        );
                    }
                    return self.adopt(ctx);
                }
            }
        }

        self.trains.inc();
        if verbose {
            eprintln!(
                "[cache] {}: training context {} from scratch",
                spec.name,
                fp.short()
            );
        }
        let ctx = train_context(spec, fp, verbose);
        let ctx = self.adopt(ctx);
        if let Err(e) = self.persist(&ctx) {
            if verbose {
                eprintln!("[cache] warning: could not persist context: {e}");
            }
        }
        ctx
    }

    /// Writes (or rewrites) the cache file for `ctx`, including every
    /// mapping materialized so far. A no-op without a persistence
    /// directory — and when the entry was already written (or loaded)
    /// with the same mapping count, so repeated warm runs do not rewrite
    /// an identical file. The write is an atomic [`crate::store`] publish,
    /// so readers never observe a torn entry.
    ///
    /// The runner calls this again after a scenario completes so that
    /// mappings synthesized during the run are persisted alongside the
    /// weights — a warm load then skips SVD + mesh synthesis too.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory cannot be created
    /// or the file cannot be written.
    pub fn persist(&self, ctx: &TrainedContext) -> std::io::Result<()> {
        let Some(dir) = &self.dir else {
            return Ok(());
        };
        if ctx.persisted_mappings.load(Ordering::Relaxed) == ctx.n_mappings() {
            return Ok(());
        }
        let (bytes, n_serialized) = serialize_context(ctx);
        store::publish(
            dir,
            &STORE.file_name(PREFIX, &ctx.fingerprint.hex()),
            &bytes,
        )?;
        ctx.persisted_mappings
            .store(n_serialized, Ordering::Relaxed);
        Ok(())
    }

    /// Inserts `ctx` into the in-memory map, returning the canonical copy
    /// (an identical context may already be present).
    fn adopt(&self, ctx: TrainedContext) -> Arc<TrainedContext> {
        let key = ctx.fingerprint.key;
        Arc::clone(
            self.mem
                .lock()
                .expect("cache lock")
                .entry(key)
                .or_insert_with(|| Arc::new(ctx)),
        )
    }
}

/// Trains a context from scratch. Only the training split of the dataset
/// is generated (`n_test = 0`), in same-bits parts on every available core
/// ([`SpnnDataset::generate`]): the train and test streams are seeded
/// independently, so the test set is unaffected. The test split is not
/// cached: `runner::prepare` regenerates it on every call — once per run,
/// per served request and per shard process, warm context or cold — split
/// over the run's thread budget.
fn train_context(spec: &ScenarioSpec, fingerprint: Fingerprint, verbose: bool) -> TrainedContext {
    let data = SpnnDataset::generate(&DatasetConfig {
        n_train: spec.dataset.n_train,
        n_test: 0,
        crop: spec.dataset.crop,
        seed: spec.seed,
    });
    let mut software = ComplexNetwork::new(&spec.train.layers, spec.seed ^ 0x11);
    let report = train(
        &mut software,
        &data.train_features,
        &data.train_labels,
        &TrainConfig {
            epochs: spec.train.epochs,
            batch_size: spec.train.batch_size,
            learning_rate: spec.train.learning_rate,
            seed: spec.seed ^ 0x22,
            verbose: false,
        },
    );
    if verbose {
        eprintln!(
            "[cache] {}: trained {} epochs (train acc {:.2}%)",
            spec.name,
            spec.train.epochs,
            report.train_accuracy * 100.0
        );
    }
    TrainedContext {
        fingerprint,
        software,
        train_accuracy: report.train_accuracy,
        mappings: Mutex::new(HashMap::new()),
        persisted_mappings: AtomicUsize::new(usize::MAX),
    }
}

/// The canonical cache-file path of a fingerprint under `dir`.
pub fn entry_path(dir: &Path, fp: &Fingerprint) -> PathBuf {
    dir.join(STORE.file_name(PREFIX, &fp.hex()))
}

/// Takes the per-fingerprint advisory file lock under `dir`, blocking
/// while another process holds it (a non-blocking probe first, so the
/// wait can be logged). Returns `None` when locking is unavailable —
/// non-Unix platform, unwritable directory, or a filesystem without
/// `flock` — in which case callers proceed unlocked (correct, just
/// possibly redundant work). The lock releases when the returned file
/// handle drops; the tiny `ctx-<key>.lock` files are left in place for
/// the next contender.
#[cfg(unix)]
fn advisory_lock(
    dir: &Path,
    fp: &Fingerprint,
    verbose: bool,
    waits: Option<&Counter>,
) -> Option<std::fs::File> {
    use std::os::unix::io::AsRawFd;
    extern "C" {
        fn flock(fd: i32, operation: i32) -> i32;
    }
    const LOCK_EX: i32 = 2;
    const LOCK_NB: i32 = 4;

    std::fs::create_dir_all(dir).ok()?;
    let path = dir.join(format!("{PREFIX}{}.lock", fp.hex()));
    let file = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(false)
        .open(&path)
        .ok()?;
    let fd = file.as_raw_fd();
    // SAFETY: flock(2) on a file descriptor this function owns.
    if unsafe { flock(fd, LOCK_EX | LOCK_NB) } == 0 {
        return Some(file);
    }
    if let Some(c) = waits {
        c.inc();
    }
    tevent!(
        Level::Info,
        "cache",
        "waiting on advisory training lock",
        fingerprint = &fp.short(),
    );
    if verbose {
        eprintln!(
            "[cache] waiting for a concurrent process to finish training {}",
            fp.short()
        );
    }
    (unsafe { flock(fd, LOCK_EX) } == 0).then_some(file)
}

#[cfg(not(unix))]
fn advisory_lock(
    _dir: &Path,
    _fp: &Fingerprint,
    _verbose: bool,
    _waits: Option<&Counter>,
) -> Option<std::fs::File> {
    None
}

// ---------------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------------

fn write_mesh(w: &mut Writer, mesh: &UnitaryMesh) {
    w.u32(mesh.n() as u32);
    w.u32(mesh.n_mzis() as u32);
    for m in mesh.mzis() {
        w.u32(m.top as u32);
        w.f64(m.theta);
        w.f64(m.phi);
    }
    w.f64s(mesh.output_phases());
}

fn read_mesh(r: &mut Reader<'_>) -> Result<UnitaryMesh, LoadError> {
    let n = r.u32()? as usize;
    let n_mzis = r.count(20, "truncated mesh")?;
    if n == 0 {
        return Err(LoadError::Malformed("zero-size mesh"));
    }
    let mut ts = Vec::with_capacity(n_mzis);
    for _ in 0..n_mzis {
        let top = r.u32()? as usize;
        let theta = r.f64()?;
        let phi = r.f64()?;
        if top + 1 >= n {
            return Err(LoadError::Malformed("MZI mode out of range"));
        }
        if !theta.is_finite() || !phi.is_finite() {
            return Err(LoadError::Malformed("non-finite mesh phase"));
        }
        ts.push((top, theta, phi));
    }
    let output_phases = r.f64s()?;
    if output_phases.len() != n {
        return Err(LoadError::Malformed("output phase screen length"));
    }
    if !output_phases.iter().all(|p| p.is_finite()) {
        return Err(LoadError::Malformed("non-finite output phase"));
    }
    Ok(UnitaryMesh::from_physical_order(n, &ts, output_phases))
}

fn write_matrix(w: &mut Writer, m: &CMatrix) {
    w.u32(m.rows() as u32);
    w.u32(m.cols() as u32);
    for r in 0..m.rows() {
        for c in 0..m.cols() {
            w.f64(m[(r, c)].re);
            w.f64(m[(r, c)].im);
        }
    }
}

fn read_matrix(r: &mut Reader<'_>) -> Result<CMatrix, LoadError> {
    let rows = r.u32()? as usize;
    let cols = r.u32()? as usize;
    if rows == 0 || cols == 0 {
        return Err(LoadError::Malformed("zero-size matrix"));
    }
    let n = rows
        .checked_mul(cols)
        .ok_or(LoadError::Malformed("implausible matrix dimensions"))?;
    r.ensure(n, 16, "truncated matrix")?;
    let mut data = Vec::with_capacity(n);
    for _ in 0..n {
        let re = r.f64()?;
        let im = r.f64()?;
        data.push(C64::new(re, im));
    }
    CMatrix::from_vec(rows, cols, data).map_err(|_| LoadError::Malformed("matrix shape"))
}

/// Serializes a context (weights + all materialized mappings) into the
/// versioned on-disk format, returning the bytes and the number of
/// mappings serialized. Endian-stable: every integer is little-endian,
/// every float is raw IEEE 754 bits.
fn serialize_context(ctx: &TrainedContext) -> (Vec<u8>, usize) {
    let mut w = FRAMING.writer();
    w.raw(&ctx.fingerprint.key);
    w.str(&ctx.fingerprint.canonical);
    w.f64(ctx.train_accuracy);

    let weights = ctx.software.weights();
    w.u32(weights.len() as u32);
    for weight in &weights {
        write_matrix(&mut w, weight);
    }

    let mappings = ctx.mappings.lock().expect("mappings lock");
    let n_mappings = mappings.len();
    // Deterministic file bytes: sort mappings by key.
    let mut keys: Vec<&MappingKey> = mappings.keys().collect();
    keys.sort();
    w.u32(keys.len() as u32);
    for key in keys {
        let hw = &mappings[key];
        w.u8(key.0);
        match key.1 {
            Some(seed) => {
                w.u8(1);
                w.u64(seed);
            }
            None => {
                w.u8(0);
                w.u64(0);
            }
        }
        w.u32(hw.n_layers() as u32);
        for layer in hw.layers() {
            write_mesh(&mut w, layer.v_mesh());
            let sigma = layer.sigma();
            w.u32(sigma.out_dim() as u32);
            w.u32(sigma.in_dim() as u32);
            w.f64(sigma.beta());
            let (thetas, phis): (Vec<f64>, Vec<f64>) =
                (0..sigma.n_mzis()).map(|i| sigma.phases(i)).unzip();
            w.f64s(&thetas);
            w.f64s(&phis);
            write_mesh(&mut w, layer.u_mesh());
        }
    }
    drop(mappings);
    (w.seal(), n_mappings)
}

/// The `spnn cache ls` summary of a context file: mapping count and the
/// canonical fingerprint string.
fn summarize_entry(_kind: &str, bytes: &[u8]) -> Result<String, LoadError> {
    let ctx = deserialize_context(bytes, None)?;
    Ok(format!(
        "{} mappings; {}",
        ctx.n_mappings(),
        ctx.fingerprint.canonical
    ))
}

/// Decodes and validates a cache file. When `expect` is given, the stored
/// fingerprint (key *and* canonical string) must match it.
fn deserialize_context(
    bytes: &[u8],
    expect: Option<&Fingerprint>,
) -> Result<TrainedContext, LoadError> {
    let mut r = FRAMING.open(bytes)?;
    let mut key = [0u8; 16];
    key.copy_from_slice(r.take(16)?);
    let canonical = r.str()?;
    let stored_fp = Fingerprint::of_canonical(canonical);
    if stored_fp.key != key {
        // The stored key must be the hash of the stored canonical string.
        return Err(LoadError::Malformed(
            "key does not hash the canonical string",
        ));
    }
    if let Some(expect) = expect {
        if *expect != stored_fp {
            return Err(LoadError::FingerprintMismatch);
        }
    }
    let train_accuracy = r.f64()?;

    // Bound every count before pre-allocating from it: the checksum is
    // not cryptographic, so a crafted file must hit load-or-retrain, not
    // an allocation abort. Real networks have a handful of layers and a
    // handful of (topology, shuffle) mappings.
    let n_layers = r.u32()? as usize;
    if n_layers == 0 || n_layers > 64 {
        return Err(LoadError::Malformed("implausible layer count"));
    }
    let mut weights = Vec::with_capacity(n_layers);
    for _ in 0..n_layers {
        weights.push(read_matrix(&mut r)?);
    }
    for pair in weights.windows(2) {
        if pair[1].cols() != pair[0].rows() {
            return Err(LoadError::Malformed("layer shapes do not chain"));
        }
    }
    let software = ComplexNetwork::from_weights(weights);

    let n_mappings = r.u32()? as usize;
    if n_mappings > 256 {
        return Err(LoadError::Malformed("implausible mapping count"));
    }
    let mut mappings = HashMap::with_capacity(n_mappings);
    for _ in 0..n_mappings {
        let topo_code = r.u8()?;
        let Some(topology) = topology_from_code(topo_code) else {
            return Err(LoadError::Malformed("unknown topology code"));
        };
        let has_shuffle = r.u8()?;
        let seed_raw = r.u64()?;
        let shuffle_seed = match has_shuffle {
            0 => None,
            1 => Some(seed_raw),
            _ => return Err(LoadError::Malformed("bad shuffle flag")),
        };
        let hw_layers = r.u32()? as usize;
        if hw_layers != software.n_layers() {
            return Err(LoadError::Malformed("mapping layer count mismatch"));
        }
        let mut layers = Vec::with_capacity(hw_layers);
        for (l, weight) in software.weights().iter().enumerate() {
            let v_mesh = read_mesh(&mut r)?;
            let out_dim = r.u32()? as usize;
            let in_dim = r.u32()? as usize;
            let beta = r.f64()?;
            let thetas = r.f64s()?;
            let phis = r.f64s()?;
            if out_dim != weight.rows()
                || in_dim != weight.cols()
                || thetas.len() != out_dim.min(in_dim)
                || phis.len() != thetas.len()
                || !beta.is_finite()
                || beta <= 0.0
                || !thetas.iter().chain(phis.iter()).all(|x| x.is_finite())
            {
                return Err(LoadError::Malformed("sigma line"));
            }
            let sigma = DiagonalLine::from_raw_parts(out_dim, in_dim, beta, thetas, phis);
            let u_mesh = read_mesh(&mut r)?;
            if v_mesh.n() != weight.cols() || u_mesh.n() != weight.rows() {
                return Err(LoadError::Malformed("mesh sizes"));
            }
            let _ = l;
            layers.push(PhotonicLayer::from_parts(
                v_mesh,
                sigma,
                u_mesh,
                (*weight).clone(),
            ));
        }
        mappings.insert(
            (topo_code, shuffle_seed),
            Arc::new(PhotonicNetwork::from_layers(layers, topology)),
        );
    }
    r.end()?;

    Ok(TrainedContext {
        fingerprint: stored_fp,
        software,
        train_accuracy,
        persisted_mappings: AtomicUsize::new(mappings.len()),
        mappings: Mutex::new(mappings),
    })
}

/// Loads and validates the entry at `path` for fingerprint `fp`.
fn load_entry(path: &Path, fp: &Fingerprint) -> Result<TrainedContext, LoadError> {
    deserialize_context(&store::read(path)?, Some(fp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fnv::{fnv1a64, FNV_BASIS};
    use crate::spec::RunScale;
    use crate::store::GcLimits;

    fn tiny_spec() -> ScenarioSpec {
        crate::presets::fig4(&RunScale::tiny())
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("spnn-cache-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fingerprint_ignores_evaluation_only_fields() {
        let base = Fingerprint::of_spec(&tiny_spec());
        let mut spec = tiny_spec();
        spec.name = "renamed".into();
        spec.sweep.sigmas = vec![0.0, 0.3];
        spec.sweep.modes = vec![spnn_photonics::PerturbTarget::Both];
        spec.topologies = vec![MeshTopology::Clements, MeshTopology::Reck];
        spec.dataset.n_test = 9999;
        spec.iterations = 5;
        spec.min_iterations = 2;
        spec.target_moe = 0.25;
        spec.round_size = 4;
        spec.effects.quantization_bits = vec![Some(4)];
        spec.train.shuffle_singular_values = !spec.train.shuffle_singular_values;
        assert_eq!(Fingerprint::of_spec(&spec), base);
    }

    #[test]
    fn fingerprint_tracks_every_training_relevant_field() {
        type SpecMutation = Box<dyn Fn(&mut ScenarioSpec)>;
        let base = Fingerprint::of_spec(&tiny_spec());
        let variants: Vec<SpecMutation> = vec![
            Box::new(|s| s.seed += 1),
            Box::new(|s| s.dataset.n_train += 1),
            Box::new(|s| s.dataset.crop = 5),
            Box::new(|s| s.train.layers = vec![16, 12, 10]),
            Box::new(|s| s.train.epochs += 1),
            Box::new(|s| s.train.batch_size += 1),
            Box::new(|s| s.train.learning_rate *= 2.0),
        ];
        let mut keys = vec![base.hex()];
        for (i, mutate) in variants.iter().enumerate() {
            let mut spec = tiny_spec();
            mutate(&mut spec);
            let fp = Fingerprint::of_spec(&spec);
            assert_ne!(fp, base, "variant {i} did not change the fingerprint");
            keys.push(fp.hex());
        }
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), variants.len() + 1, "fingerprint collision");
    }

    #[test]
    fn in_memory_cache_trains_once() {
        let cache = ContextCache::in_memory();
        let spec = tiny_spec();
        let a = cache.get_or_train(&spec, false);
        let b = cache.get_or_train(&spec, false);
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.trains, s.mem_hits, s.disk_hits), (1, 1, 0));
    }

    /// Concurrent requests for one fingerprint must serialize on the
    /// in-flight gate: exactly one trains, the rest take memory hits —
    /// the guarantee `spnn serve` relies on for simultaneous identical
    /// requests.
    #[test]
    fn concurrent_same_fingerprint_requests_train_once() {
        let cache = Arc::new(ContextCache::in_memory());
        let spec = tiny_spec();
        let contexts: Vec<Arc<TrainedContext>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let spec = spec.clone();
                    scope.spawn(move || cache.get_or_train(&spec, false))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for ctx in &contexts[1..] {
            assert!(Arc::ptr_eq(&contexts[0], ctx));
        }
        let s = cache.stats();
        assert_eq!(s.trains, 1, "exactly one thread may train");
        assert_eq!(s.mem_hits, 3, "the waiters take memory hits");
    }

    /// The advisory lock is exclusive across holders (flock contends per
    /// open file description, so two opens in one process model two
    /// processes): a second acquirer blocks until the first drops.
    #[cfg(unix)]
    #[test]
    fn advisory_lock_serializes_concurrent_holders() {
        let dir = tmp_dir("flock");
        let fp = Fingerprint::of_spec(&tiny_spec());
        let held = advisory_lock(&dir, &fp, false, None).expect("first lock");
        let (dir2, fp2) = (dir.clone(), fp.clone());
        let waiter = std::thread::spawn(move || {
            advisory_lock(&dir2, &fp2, false, None).expect("second lock (after release)")
        });
        std::thread::sleep(std::time::Duration::from_millis(150));
        assert!(
            !waiter.is_finished(),
            "second holder must block while the first holds the lock"
        );
        drop(held);
        let second = waiter.join().expect("waiter thread");
        drop(second);
        // Different fingerprints use different lock files: no contention.
        let mut other_spec = tiny_spec();
        other_spec.seed ^= 1;
        let other_fp = Fingerprint::of_spec(&other_spec);
        let a = advisory_lock(&dir, &fp, false, None).expect("relock");
        let b = advisory_lock(&dir, &other_fp, false, None).expect("independent lock");
        drop((a, b));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A cold cache dir contended by two caches (modeling two cold worker
    /// processes) still ends with one usable entry and bit-identical
    /// contexts; the second loads what the first trained when the lock
    /// made it wait.
    #[test]
    fn shared_dir_cold_contenders_converge() {
        let dir = tmp_dir("shared-cold");
        let spec = tiny_spec();
        let (a, b) = std::thread::scope(|scope| {
            let ta = scope.spawn(|| ContextCache::on_disk(&dir).get_or_train(&spec, false));
            let tb = scope.spawn(|| ContextCache::on_disk(&dir).get_or_train(&spec, false));
            (ta.join().unwrap(), tb.join().unwrap())
        });
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(
            a.train_accuracy().to_bits(),
            b.train_accuracy().to_bits(),
            "contenders must converge on identical contexts"
        );
        for (wa, wb) in a.software().weights().iter().zip(b.software().weights()) {
            for r in 0..wa.rows() {
                for c in 0..wa.cols() {
                    assert_eq!(wa[(r, c)].re.to_bits(), wb[(r, c)].re.to_bits());
                    assert_eq!(wa[(r, c)].im.to_bits(), wb[(r, c)].im.to_bits());
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_round_trip_is_bit_identical_and_skips_training() {
        let dir = tmp_dir("roundtrip");
        let spec = tiny_spec();

        let cold = ContextCache::on_disk(&dir);
        let ctx = cold.get_or_train(&spec, false);
        let hw = ctx
            .mapping(MeshTopology::Clements, spec.shuffle_seed())
            .unwrap();
        cold.persist(&ctx).unwrap();
        assert_eq!(cold.stats().trains, 1);

        let warm = ContextCache::on_disk(&dir);
        let loaded = warm.get_or_train(&spec, false);
        let s = warm.stats();
        assert_eq!((s.trains, s.disk_hits), (0, 1), "warm load must not train");
        assert_eq!(loaded.n_mappings(), 1, "persisted mapping restored");
        assert_eq!(
            loaded.train_accuracy().to_bits(),
            ctx.train_accuracy().to_bits()
        );

        // Weights round-trip bit for bit…
        for (a, b) in ctx
            .software()
            .weights()
            .iter()
            .zip(loaded.software().weights())
        {
            for r in 0..a.rows() {
                for c in 0..a.cols() {
                    assert_eq!(a[(r, c)].re.to_bits(), b[(r, c)].re.to_bits());
                    assert_eq!(a[(r, c)].im.to_bits(), b[(r, c)].im.to_bits());
                }
            }
        }
        // …and so does the restored mapping's ideal matrix.
        let hw2 = warm
            .get_or_train(&spec, false)
            .mapping(MeshTopology::Clements, spec.shuffle_seed())
            .unwrap();
        for (a, b) in hw.ideal_matrices().iter().zip(hw2.ideal_matrices().iter()) {
            for r in 0..a.rows() {
                for c in 0..a.cols() {
                    assert_eq!(a[(r, c)].re.to_bits(), b[(r, c)].re.to_bits());
                    assert_eq!(a[(r, c)].im.to_bits(), b[(r, c)].im.to_bits());
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persist_skips_when_the_entry_is_current() {
        let dir = tmp_dir("skip");
        let spec = tiny_spec();
        let cold = ContextCache::on_disk(&dir);
        let ctx = cold.get_or_train(&spec, false);
        let path = entry_path(&dir, ctx.fingerprint());
        assert!(path.exists(), "cold train persists");

        // Warm load: persisting with no new mappings must be a no-op —
        // remove the file and verify persist does not recreate it.
        let warm = ContextCache::on_disk(&dir);
        let loaded = warm.get_or_train(&spec, false);
        std::fs::remove_file(&path).unwrap();
        warm.persist(&loaded).unwrap();
        assert!(!path.exists(), "unchanged context must not rewrite");

        // A newly materialized mapping makes the entry stale → rewrite.
        loaded.mapping(MeshTopology::Clements, None).unwrap();
        warm.persist(&loaded).unwrap();
        assert!(path.exists(), "grown context must persist");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_files_fall_back_to_retraining() {
        let dir = tmp_dir("corrupt");
        let spec = tiny_spec();
        let cold = ContextCache::on_disk(&dir);
        let ctx = cold.get_or_train(&spec, false);
        let path = entry_path(&dir, ctx.fingerprint());

        let pristine = std::fs::read(&path).unwrap();
        let corruptions: Vec<Vec<u8>> = vec![
            Vec::new(),                              // empty file
            pristine[..pristine.len() / 2].to_vec(), // truncated
            {
                let mut b = pristine.clone();
                let mid = b.len() / 2;
                b[mid] ^= 0xFF; // flipped byte in the middle
                b
            },
            {
                let mut b = pristine.clone();
                b[0] ^= 0x01; // bad magic
                b
            },
            b"not a cache file at all".to_vec(),
        ];
        for (i, bytes) in corruptions.iter().enumerate() {
            std::fs::write(&path, bytes).unwrap();
            let warm = ContextCache::on_disk(&dir);
            let re = warm.get_or_train(&spec, false);
            assert_eq!(warm.stats().trains, 1, "corruption {i} did not retrain");
            assert_eq!(warm.stats().disk_hits, 0, "corruption {i} was accepted");
            // The retrained context matches the original bit for bit.
            assert_eq!(
                re.train_accuracy().to_bits(),
                ctx.train_accuracy().to_bits(),
                "corruption {i}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_bump_invalidates_entries() {
        let dir = tmp_dir("version");
        let spec = tiny_spec();
        let cold = ContextCache::on_disk(&dir);
        let ctx = cold.get_or_train(&spec, false);
        let path = entry_path(&dir, ctx.fingerprint());
        let mut bytes = std::fs::read(&path).unwrap();
        // Patch the version field (right after magic) and re-seal the
        // checksum so only the version check can reject it.
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        let len = bytes.len();
        let sum = fnv1a64(&bytes[..len - 8], FNV_BASIS);
        bytes[len - 8..].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();

        let warm = ContextCache::on_disk(&dir);
        let _ = warm.get_or_train(&spec, false);
        assert_eq!(warm.stats().trains, 1, "future version must not load");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn list_entries_reports_good_and_corrupt_files() {
        let dir = tmp_dir("ls");
        let spec = tiny_spec();
        let cache = ContextCache::on_disk(&dir);
        let ctx = cache.get_or_train(&spec, false);
        std::fs::write(
            dir.join("ctx-feedfacefeedfacefeedfacefeedface.spnnctx"),
            b"junk",
        )
        .unwrap();
        std::fs::write(dir.join("README"), b"ignored").unwrap();

        let entries = STORE.entries(&dir).unwrap();
        assert_eq!(entries.len(), 2);
        let (good, bad): (Vec<_>, Vec<_>) = entries.iter().partition(|e| STORE.summary(e).is_ok());
        assert_eq!(good[0].key_hex, ctx.fingerprint().hex());
        assert_eq!(
            STORE.summary(good[0]).unwrap(),
            format!("0 mappings; {}", ctx.fingerprint().canonical())
        );
        assert_eq!(bad[0].key_hex, "feedfacefeedfacefeedfacefeedface");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_lists_empty() {
        let entries = STORE
            .entries(Path::new("/nonexistent/spnn-cache-xyz"))
            .unwrap();
        assert!(entries.is_empty());
    }

    /// `gc` only looks at names, sizes and mtimes, so entries can be plain
    /// files; sleeps guarantee strictly increasing mtimes.
    fn fake_entries(dir: &Path, sizes: &[usize]) -> Vec<PathBuf> {
        std::fs::create_dir_all(dir).unwrap();
        sizes
            .iter()
            .enumerate()
            .map(|(i, &size)| {
                let path = dir.join(STORE.file_name(PREFIX, &format!("{i:032x}")));
                std::fs::write(&path, vec![0u8; size]).unwrap();
                std::thread::sleep(std::time::Duration::from_millis(12));
                path
            })
            .collect()
    }

    #[test]
    fn gc_evicts_least_recently_written_by_count() {
        let dir = tmp_dir("gc-count");
        let paths = fake_entries(&dir, &[100, 100, 100]);
        let out = STORE
            .gc(
                &dir,
                &GcLimits {
                    max_entries: Some(2),
                    max_bytes: None,
                },
            )
            .unwrap();
        assert_eq!((out.kept, out.removed), (2, 1));
        assert_eq!(out.bytes_freed, 100);
        assert!(!paths[0].exists(), "oldest entry evicted");
        assert!(
            paths[1].exists() && paths[2].exists(),
            "newest entries kept"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_evicts_by_byte_budget_and_spares_fresh_tmp_files() {
        let dir = tmp_dir("gc-bytes");
        let paths = fake_entries(&dir, &[400, 300, 200]);
        std::fs::write(dir.join(".tmp-1234-deadbeef"), b"torn write").unwrap();
        std::fs::write(dir.join("README"), b"not an entry").unwrap();
        let out = STORE
            .gc(
                &dir,
                &GcLimits {
                    max_entries: None,
                    max_bytes: Some(550),
                },
            )
            .unwrap();
        // Newest (200) + next (300) fit in 550; the oldest 400 does not.
        // The README is untouched, and the just-written tmp file is young
        // enough to belong to a live writer — it must survive.
        assert_eq!((out.kept, out.removed), (2, 1));
        assert_eq!(out.bytes_kept, 500);
        assert_eq!(out.bytes_freed, 400);
        assert!(!paths[0].exists() && paths[1].exists() && paths[2].exists());
        assert!(dir.join("README").exists());
        assert!(dir.join(".tmp-1234-deadbeef").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_keeps_a_newest_first_prefix_not_a_knapsack_fit() {
        let dir = tmp_dir("gc-prefix");
        // Oldest-to-newest: 100, 300, 300. With max_bytes = 450 the
        // retained set must be the newest prefix {300}; the old 100-byte
        // entry must NOT be backfilled past the evicted middle one.
        let paths = fake_entries(&dir, &[100, 300, 300]);
        let out = STORE
            .gc(
                &dir,
                &GcLimits {
                    max_entries: None,
                    max_bytes: Some(450),
                },
            )
            .unwrap();
        assert_eq!((out.kept, out.removed), (1, 2));
        assert_eq!(out.bytes_kept, 300);
        assert!(!paths[0].exists() && !paths[1].exists() && paths[2].exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_without_limits_is_a_no_op_on_fresh_stores() {
        let dir = tmp_dir("gc-nolimits");
        let paths = fake_entries(&dir, &[50, 60]);
        std::fs::write(dir.join(".tmp-9-feed"), b"x").unwrap();
        let out = STORE.gc(&dir, &GcLimits::default()).unwrap();
        assert_eq!((out.kept, out.removed), (2, 0));
        assert!(paths.iter().all(|p| p.exists()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_of_missing_directory_is_a_no_op() {
        let out = STORE
            .gc(
                Path::new("/nonexistent/spnn-cache-xyz"),
                &GcLimits {
                    max_entries: Some(1),
                    max_bytes: None,
                },
            )
            .unwrap();
        assert_eq!(out, crate::store::GcOutcome::default());
    }
}
