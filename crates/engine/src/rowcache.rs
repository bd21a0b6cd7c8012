//! Point-level result cache — the "scenario CDN".
//!
//! Every [`SweepRow`](crate::runner::SweepRow) is a pure function of the
//! spec (determinism items 1–9 in `docs/architecture.md`): iteration `k`
//! of a point derives its randomness from `(seed, k)` alone, and the
//! per-point seed is itself a pure function of the spec seed and the
//! point's *labels* (see [`crate::queue`]). Rows are therefore immutable,
//! content-addressable facts, and this module memoizes them:
//!
//! - [`RowKey`] — a 128-bit content address over everything that shapes a
//!   row's bytes: the training canonical, the evaluation-level spec fields
//!   (test-set size, stop rule, round size, singular-value shuffling,
//!   thermal decay, zonal sigmas), the topology, and the labels. Two specs
//!   that differ only in sweep extent share keys for their overlapping
//!   points, so a superset sweep only computes the delta.
//! - [`CachedPoint`] — the bit-lossless row payload: the point's retained
//!   raw samples plus its early-stop flag. The full adaptive-stop state
//!   round-trips by construction: a row is rebuilt from the samples with
//!   the same [`spnn_core::McResult::from_samples`] aggregation the cold
//!   path uses, so replay is bit-exact.
//! - [`RowManifest`] — the per-spec row index, keyed by the exact
//!   [`crate::shard::queue_fingerprint`]: scenario name, topology
//!   summaries, and the row keys in queue order. When a manifest and all
//!   its rows are present, a whole run replays from the store without
//!   preparing, training, or dispatching anything.
//! - [`RowCache`] — the two-tier store: an in-memory LRU always, plus an
//!   optional shared on-disk tier of `row-<key>.spnnrow` and
//!   `man-<queue fp>.spnnrow` records in the [`crate::store`] framing
//!   (versioned, checksummed, atomic tmp+rename publish), which this
//!   module heals by removing corrupt files. Invalidation is *never*:
//!   keys are content addresses, so a wrong entry can only come from
//!   corruption, which the checksum catches and heals by recompute.
//!
//! Payloads use the binary codec (every float as raw IEEE 754 bits), so
//! all 2⁶⁴ `f64` bit patterns — subnormals, infinities, NaN payloads —
//! survive the round trip exactly; the property tests at the bottom of
//! this file pin that.

use crate::cache::Fingerprint;
use crate::metrics::{Counter, MetricsRegistry};
use crate::runner::TopologySummary;
use crate::spec::ScenarioSpec;
use crate::store::{self, parse_hex, Framing, LoadError, Reader, Store};
use crate::tevent;
use crate::trace::Level;
use spnn_core::KernelProfile;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Record header of every row-cache file (rows and manifests alike).
/// Files with another version are ignored (recompute-on-load), never
/// misread.
const FRAMING: Framing = Framing {
    magic: b"SPNNROW\x01",
    version: 1,
};

/// File-name prefix of row entries.
const ROW_PREFIX: &str = "row-";
/// File-name prefix of manifest entries.
const MANIFEST_PREFIX: &str = "man-";

/// The row store: `row-<key>.spnnrow` and `man-<queue fp>.spnnrow` files
/// under `$SPNN_ROW_CACHE_DIR`, else `<user cache root>/spnn/rows`.
pub const STORE: Store = Store {
    name: "rowcache",
    extension: "spnnrow",
    kinds: &[(ROW_PREFIX, "row"), (MANIFEST_PREFIX, "manifest")],
    env_var: "SPNN_ROW_CACHE_DIR",
    subdir: "spnn/rows",
    summarize: summarize_entry,
};

/// Record kind tag: a single cached sweep point.
const KIND_ROW: u8 = 0;
/// Record kind tag: a per-spec manifest.
const KIND_MANIFEST: u8 = 1;

/// Default capacity (entries) of the in-memory row tier.
const DEFAULT_MEM_ROWS: usize = 4096;
/// Capacity (entries) of the in-memory manifest tier.
const MEM_MANIFESTS: usize = 64;

// ---------------------------------------------------------------------------
// Keys
// ---------------------------------------------------------------------------

/// The content address of one sweep point's result: a 128-bit FNV-1a key
/// over the canonical description of everything that determines the row's
/// bytes, plus that canonical string itself (stored in row files and
/// compared on load, which makes hash collisions harmless).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RowKey {
    key: [u8; 16],
    canonical: String,
}

impl RowKey {
    fn of_canonical(canonical: String) -> Self {
        Self {
            key: store::content_key(&canonical),
            canonical,
        }
    }

    /// The 32-character lowercase hex key (the row file stem).
    pub fn hex(&self) -> String {
        store::hex(&self.key)
    }

    /// The canonical string the key hashes — a readable summary of every
    /// field that entered the address.
    pub fn canonical(&self) -> &str {
        &self.canonical
    }
}

/// The spec-level half of a [`RowKey`], computed once per run: every field
/// that shapes row bytes but is shared by all points of the spec. Combine
/// with a point's topology and labels via [`RowContext::key`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowContext {
    prefix: String,
}

impl RowContext {
    /// Builds the row-key context of a spec.
    ///
    /// Included: the trained-context canonical (dataset size/crop, master
    /// seed, architecture, training hyperparameters), the test-set size,
    /// singular-value shuffling, the stop rule and round size, the thermal
    /// decay length, and the zonal sigmas. Excluded: the sweep axes and
    /// topology list (the point's labels and topology carry its semantic
    /// identity), the scenario name, and everything execution-level —
    /// exactly the fields whose variation must *not* move existing rows.
    pub fn of_spec(spec: &ScenarioSpec) -> Self {
        Self::of_spec_with(spec, KernelProfile::Reference)
    }

    /// [`RowContext::of_spec`] scoped to a [`KernelProfile`].
    ///
    /// The kernel profile changes sample bits, so rows computed under
    /// different profiles are different content and must never share an
    /// address. Reference keys are exactly the historical `of_spec` keys
    /// (existing caches stay warm); the Fma profile appends a
    /// `;kernel=fma` component, carving out a disjoint key space.
    pub fn of_spec_with(spec: &ScenarioSpec, kernel: KernelProfile) -> Self {
        // `{}` on f64 prints the shortest representation that round-trips,
        // so distinct bit patterns of validated-finite fields get distinct
        // strings — the same convention as the spec text format itself.
        let mut prefix = format!(
            "spnn-row-v1;ctx={};n_test:{};shuffle:{};\
             stop=iterations:{},min:{},moe:{},round:{};\
             thermal_decay_um:{};zonal=base:{},hot:{}",
            Fingerprint::of_spec(spec).canonical(),
            spec.dataset.n_test,
            spec.train.shuffle_singular_values,
            spec.iterations,
            spec.min_iterations,
            spec.target_moe,
            spec.round_size,
            spec.effects.thermal_decay_um,
            spec.zonal.base_sigma,
            spec.zonal.hot_sigma,
        );
        if kernel != KernelProfile::Reference {
            prefix.push_str(";kernel=");
            prefix.push_str(kernel.as_str());
        }
        Self { prefix }
    }

    /// The full content address of one point: this context plus the
    /// point's topology and labels (the `key=value;` stream — the same
    /// bytes the per-point seed derivation hashes).
    pub fn key<K: AsRef<str>, V: AsRef<str>>(&self, topology: &str, labels: &[(K, V)]) -> RowKey {
        let mut canonical =
            String::with_capacity(self.prefix.len() + topology.len() + 16 * labels.len() + 32);
        canonical.push_str(&self.prefix);
        canonical.push_str(";topology=");
        canonical.push_str(topology);
        canonical.push_str(";labels=");
        for (k, v) in labels {
            canonical.push_str(k.as_ref());
            canonical.push('=');
            canonical.push_str(v.as_ref());
            canonical.push(';');
        }
        RowKey::of_canonical(canonical)
    }
}

// ---------------------------------------------------------------------------
// Payloads
// ---------------------------------------------------------------------------

/// The bit-lossless payload of one cached sweep point.
///
/// The raw retained samples *are* the adaptive-stop state: the cold path
/// builds its row as `McResult::from_samples(samples)` and so does replay,
/// so mean/std-dev/MoE come out bit-identical. `topology` and `labels`
/// are stored for integrity (a hit is cross-checked against the request)
/// and so manifests can rebuild full rows without the work queue.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedPoint {
    /// Topology the point ran on.
    pub topology: String,
    /// The point's labels, in queue order.
    pub labels: Vec<(String, String)>,
    /// Retained per-iteration accuracies (truncated at the adaptive stop
    /// boundary, exactly as the unsharded run retains them).
    pub samples: Vec<f64>,
    /// Whether the adaptive rule stopped the point before the cap.
    pub stopped_early: bool,
}

/// The per-spec row index: which rows, in which order, a spec's report is
/// assembled from. Keyed by the exact [`crate::shard::queue_fingerprint`],
/// so replay serves precisely the specs that already ran to completion.
#[derive(Debug, Clone, PartialEq)]
pub struct RowManifest {
    /// Scenario name (reports carry it).
    pub scenario: String,
    /// Per-topology summaries, in spec order.
    pub topologies: Vec<TopologySummary>,
    /// The 32-hex [`RowKey`] of every point, in queue order.
    pub row_keys: Vec<String>,
}

// ---------------------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------------------

fn serialize_row(key: &RowKey, point: &CachedPoint) -> Vec<u8> {
    let mut w = FRAMING.writer();
    w.u8(KIND_ROW);
    w.raw(&key.key);
    w.str(&key.canonical);
    w.str(&point.topology);
    w.u32(point.labels.len() as u32);
    for (k, v) in &point.labels {
        w.str(k);
        w.str(v);
    }
    w.f64s(&point.samples);
    w.u8(point.stopped_early as u8);
    w.seal()
}

fn serialize_manifest(queue_fp: &str, manifest: &RowManifest) -> Vec<u8> {
    let mut w = FRAMING.writer();
    w.u8(KIND_MANIFEST);
    w.str(queue_fp);
    w.str(&manifest.scenario);
    w.u32(manifest.topologies.len() as u32);
    for t in &manifest.topologies {
        w.str(&t.topology);
        w.f64(t.software_accuracy);
        w.f64(t.nominal_accuracy);
    }
    w.u32(manifest.row_keys.len() as u32);
    for k in &manifest.row_keys {
        w.str(k);
    }
    w.seal()
}

/// Opens a record (see [`Framing::open`]) and checks its kind tag.
fn open_record(bytes: &[u8], kind: u8) -> Result<Reader<'_>, LoadError> {
    let mut r = FRAMING.open(bytes)?;
    if r.u8()? != kind {
        return Err(LoadError::Malformed("wrong record kind"));
    }
    Ok(r)
}

fn deserialize_row(bytes: &[u8]) -> Result<(RowKey, CachedPoint), LoadError> {
    let mut r = open_record(bytes, KIND_ROW)?;
    let mut key = [0u8; 16];
    key.copy_from_slice(r.take(16)?);
    let canonical = r.str()?;
    if RowKey::of_canonical(canonical.clone()).key != key {
        return Err(LoadError::FingerprintMismatch);
    }
    let topology = r.str()?;
    // Each label needs at least two length prefixes.
    let n_labels = r.count(8, "implausible label count")?;
    let mut labels = Vec::with_capacity(n_labels);
    for _ in 0..n_labels {
        let k = r.str()?;
        let v = r.str()?;
        labels.push((k, v));
    }
    let samples = r.f64s()?;
    let stopped_early = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(LoadError::Malformed("bad stopped_early flag")),
    };
    r.end()?;
    Ok((
        RowKey { key, canonical },
        CachedPoint {
            topology,
            labels,
            samples,
            stopped_early,
        },
    ))
}

fn deserialize_manifest(bytes: &[u8]) -> Result<(String, RowManifest), LoadError> {
    let mut r = open_record(bytes, KIND_MANIFEST)?;
    let queue_fp = r.str()?;
    if parse_hex(&queue_fp).is_none() {
        return Err(LoadError::Malformed("bad queue fingerprint"));
    }
    let scenario = r.str()?;
    let n_topologies = r.count(20, "implausible topology count")?;
    let mut topologies = Vec::with_capacity(n_topologies);
    for _ in 0..n_topologies {
        let topology = r.str()?;
        let software_accuracy = r.f64()?;
        let nominal_accuracy = r.f64()?;
        topologies.push(TopologySummary {
            topology,
            software_accuracy,
            nominal_accuracy,
        });
    }
    // Each row key is a length prefix plus 32 hex characters.
    let n_rows = r.count(36, "implausible row count")?;
    let mut row_keys = Vec::with_capacity(n_rows);
    for _ in 0..n_rows {
        let hex = r.str()?;
        if parse_hex(&hex).is_none() {
            return Err(LoadError::Malformed("bad row key"));
        }
        row_keys.push(hex);
    }
    r.end()?;
    Ok((
        queue_fp,
        RowManifest {
            scenario,
            topologies,
            row_keys,
        },
    ))
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// An in-memory LRU keyed by 128-bit row keys: a plain map plus a
/// monotonic access tick; eviction removes the smallest tick. O(n)
/// eviction is deliberate — capacities are small and hits are O(1).
#[derive(Debug)]
struct MemTier<V> {
    map: HashMap<[u8; 16], (u64, Arc<V>)>,
    tick: u64,
    capacity: usize,
}

impl<V> MemTier<V> {
    fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::new(),
            tick: 0,
            capacity,
        }
    }

    fn get(&mut self, key: &[u8; 16]) -> Option<Arc<V>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|slot| {
            slot.0 = tick;
            Arc::clone(&slot.1)
        })
    }

    /// Inserts and returns how many entries were evicted to fit.
    fn insert(&mut self, key: [u8; 16], value: Arc<V>) -> usize {
        self.tick += 1;
        self.map.insert(key, (self.tick, value));
        let mut evicted = 0;
        while self.map.len() > self.capacity.max(1) {
            let oldest = self
                .map
                .iter()
                .min_by_key(|(_, (tick, _))| *tick)
                .map(|(k, _)| *k)
                .expect("non-empty map");
            self.map.remove(&oldest);
            evicted += 1;
        }
        evicted
    }
}

/// Counter snapshot of a [`RowCache`], for tests and CLI summaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowCacheStats {
    /// Row hits served from the in-memory tier.
    pub mem_hits: u64,
    /// Row hits served from the on-disk tier.
    pub disk_hits: u64,
    /// Row lookups that found nothing usable.
    pub misses: u64,
    /// Rows evicted from the in-memory tier.
    pub evictions: u64,
    /// Bytes written to the on-disk tier.
    pub bytes_written: u64,
    /// Corrupt or foreign files healed (removed for recompute).
    pub corrupt_healed: u64,
}

/// The two-tier row store. Cheap to share (`Arc` it into
/// [`crate::runner::EngineConfig::row_cache`]); all methods take `&self`.
///
/// Concurrent writers of the same row are benign: both produce identical
/// bytes (rows are pure functions of their key) and the tmp+rename
/// publish is atomic, so the last rename wins with the same content.
#[derive(Debug)]
pub struct RowCache {
    dir: Option<PathBuf>,
    rows: Mutex<MemTier<CachedPoint>>,
    manifests: Mutex<MemTier<RowManifest>>,
    mem_hits: Counter,
    disk_hits: Counter,
    misses: Counter,
    evictions: Counter,
    bytes_written: Counter,
    corrupt_healed: Counter,
}

impl RowCache {
    /// A store with the given on-disk tier (`None` = memory only).
    pub fn new(dir: Option<PathBuf>) -> Self {
        Self {
            dir,
            rows: Mutex::new(MemTier::new(DEFAULT_MEM_ROWS)),
            manifests: Mutex::new(MemTier::new(MEM_MANIFESTS)),
            mem_hits: Counter::new(),
            disk_hits: Counter::new(),
            misses: Counter::new(),
            evictions: Counter::new(),
            bytes_written: Counter::new(),
            corrupt_healed: Counter::new(),
        }
    }

    /// A memory-only store (tests, `--no-row-cache` would rather disable
    /// the cache entirely, but serve-level dedup tests want a shared one).
    pub fn in_memory() -> Self {
        Self::new(None)
    }

    /// A store backed by `dir` (created lazily on first write).
    pub fn on_disk(dir: PathBuf) -> Self {
        Self::new(Some(dir))
    }

    /// Caps the in-memory row tier at `capacity` entries (builder style).
    pub fn with_mem_capacity(mut self, capacity: usize) -> Self {
        self.rows = Mutex::new(MemTier::new(capacity));
        self
    }

    /// The on-disk tier directory, if any.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    fn row_path(&self, hex: &str) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(STORE.file_name(ROW_PREFIX, hex)))
    }

    fn manifest_path(&self, queue_fp: &str) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(STORE.file_name(MANIFEST_PREFIX, queue_fp)))
    }

    /// Looks a row up by key: memory first, then disk. Disk hits are
    /// adopted into the memory tier. Corrupt, version-skewed, or foreign
    /// files are removed so the recomputed row can republish cleanly.
    pub fn get(&self, key: &RowKey) -> Option<Arc<CachedPoint>> {
        self.get_bytes(&key.key, &key.hex())
    }

    /// [`RowCache::get`] addressed by the 32-hex key string (manifests
    /// store keys in this form). Returns `None` for malformed hex.
    pub fn get_by_hex(&self, hex: &str) -> Option<Arc<CachedPoint>> {
        let key = parse_hex(hex)?;
        self.get_bytes(&key, hex)
    }

    fn get_bytes(&self, key: &[u8; 16], hex: &str) -> Option<Arc<CachedPoint>> {
        if let Some(hit) = self.rows.lock().unwrap().get(key) {
            self.mem_hits.inc();
            return Some(hit);
        }
        let Some(path) = self.row_path(hex) else {
            self.misses.inc();
            return None;
        };
        match store::read(&path).and_then(|bytes| {
            let (stored, point) = deserialize_row(&bytes)?;
            if stored.key != *key {
                // A renamed file: its content belongs to another address.
                return Err(LoadError::FingerprintMismatch);
            }
            Ok(point)
        }) {
            Ok(point) => {
                self.disk_hits.inc();
                let point = Arc::new(point);
                let evicted = self.rows.lock().unwrap().insert(*key, Arc::clone(&point));
                self.evictions.add(evicted as u64);
                Some(point)
            }
            Err(e) => {
                self.heal(&path, &e);
                self.misses.inc();
                None
            }
        }
    }

    /// Publishes a row under its key: into the memory tier always, and to
    /// disk unless an entry already exists there (identical content by
    /// construction, so rewriting would be wasted I/O).
    pub fn put(&self, key: &RowKey, point: CachedPoint) {
        let point = Arc::new(point);
        let evicted = self
            .rows
            .lock()
            .unwrap()
            .insert(key.key, Arc::clone(&point));
        self.evictions.add(evicted as u64);
        self.persist(ROW_PREFIX, &key.hex(), || serialize_row(key, &point));
    }

    /// Looks a manifest up by queue fingerprint: memory, then disk.
    pub fn get_manifest(&self, queue_fp: &str) -> Option<Arc<RowManifest>> {
        let key = parse_hex(queue_fp)?;
        if let Some(hit) = self.manifests.lock().unwrap().get(&key) {
            return Some(hit);
        }
        let path = self.manifest_path(queue_fp)?;
        match store::read(&path).and_then(|bytes| {
            let (stored_fp, manifest) = deserialize_manifest(&bytes)?;
            if stored_fp != queue_fp {
                return Err(LoadError::FingerprintMismatch);
            }
            Ok(manifest)
        }) {
            Ok(manifest) => {
                let manifest = Arc::new(manifest);
                self.manifests
                    .lock()
                    .unwrap()
                    .insert(key, Arc::clone(&manifest));
                Some(manifest)
            }
            Err(e) => {
                self.heal(&path, &e);
                None
            }
        }
    }

    /// Publishes a completed run's manifest under its queue fingerprint.
    /// Ignores fingerprints that are not 32 hex characters.
    pub fn put_manifest(&self, queue_fp: &str, manifest: RowManifest) {
        let Some(key) = parse_hex(queue_fp) else {
            return;
        };
        let manifest = Arc::new(manifest);
        self.manifests
            .lock()
            .unwrap()
            .insert(key, Arc::clone(&manifest));
        self.persist(MANIFEST_PREFIX, queue_fp, || {
            serialize_manifest(queue_fp, &manifest)
        });
    }

    /// Publishes a record to the disk tier (if any) through [`store`]'s
    /// atomic tmp+rename, unless the entry already exists there. A failed
    /// write only costs a future recompute.
    fn persist(&self, prefix: &str, hex: &str, serialize: impl FnOnce() -> Vec<u8>) {
        let Some(dir) = &self.dir else { return };
        let name = STORE.file_name(prefix, hex);
        if dir.join(&name).exists() {
            return;
        }
        let bytes = serialize();
        if store::publish(dir, &name, &bytes).is_ok() {
            self.bytes_written.add(bytes.len() as u64);
        }
    }

    /// Removes an unusable file so the recomputed entry republishes over
    /// it. Plain misses ([`LoadError::NotFound`]) are not corruption.
    fn heal(&self, path: &Path, e: &LoadError) {
        if matches!(e, LoadError::NotFound) {
            return;
        }
        tevent!(
            Level::Warn,
            "rowcache",
            "removing unusable row-cache file",
            path = &path.display().to_string(),
            error = &format!("{e}"),
        );
        let _ = std::fs::remove_file(path);
        self.corrupt_healed.inc();
    }

    /// A snapshot of the store's counters.
    pub fn stats(&self) -> RowCacheStats {
        RowCacheStats {
            mem_hits: self.mem_hits.get(),
            disk_hits: self.disk_hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            bytes_written: self.bytes_written.get(),
            corrupt_healed: self.corrupt_healed.get(),
        }
    }

    /// Registers the store's counters in `registry` under the
    /// `spnn_rowcache_*` names; past and future increments both show.
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        registry.register_counter(
            "spnn_rowcache_hits_total",
            "Row-cache hits by tier.",
            &[("tier", "memory")],
            &self.mem_hits,
        );
        registry.register_counter(
            "spnn_rowcache_hits_total",
            "Row-cache hits by tier.",
            &[("tier", "disk")],
            &self.disk_hits,
        );
        registry.register_counter(
            "spnn_rowcache_misses_total",
            "Row lookups that found nothing usable.",
            &[],
            &self.misses,
        );
        registry.register_counter(
            "spnn_rowcache_evictions_total",
            "Rows evicted from the in-memory tier.",
            &[],
            &self.evictions,
        );
        registry.register_counter(
            "spnn_rowcache_bytes_written_total",
            "Bytes written to the on-disk row tier.",
            &[],
            &self.bytes_written,
        );
        registry.register_counter(
            "spnn_rowcache_corrupt_healed_total",
            "Corrupt row-cache files healed by recompute.",
            &[],
            &self.corrupt_healed,
        );
    }
}

/// The `spnn rowcache ls` summary of a row or manifest file.
fn summarize_entry(kind: &str, bytes: &[u8]) -> Result<String, LoadError> {
    Ok(match kind {
        "manifest" => format!("{} points", deserialize_manifest(bytes)?.1.row_keys.len()),
        _ => format!("{} samples", deserialize_row(bytes)?.1.samples.len()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use spnn_core::McResult;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("spnn-rowcache-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn point(samples: Vec<f64>, stopped_early: bool) -> CachedPoint {
        CachedPoint {
            topology: "clements".into(),
            labels: vec![
                ("mode".into(), "both".into()),
                ("sigma".into(), "0.05".into()),
            ],
            samples,
            stopped_early,
        }
    }

    fn key_for(point: &CachedPoint) -> RowKey {
        let ctx = RowContext::of_spec(&ScenarioSpec::default());
        ctx.key(&point.topology, &point.labels)
    }

    #[test]
    fn row_keys_are_content_addresses() {
        let spec = ScenarioSpec::default();
        let ctx = RowContext::of_spec(&spec);
        let labels = [("mode", "both"), ("sigma", "0.05")];
        let a = ctx.key("clements", &labels);
        let b = ctx.key("clements", &labels);
        assert_eq!(a, b);
        assert_eq!(a.hex().len(), 32);
        assert_ne!(a, ctx.key("reck", &labels));
        assert_ne!(
            a,
            ctx.key("clements", &[("mode", "both"), ("sigma", "0.1")])
        );
    }

    #[test]
    fn superset_specs_share_row_keys() {
        // Extending a sweep axis must not move existing row addresses —
        // that is what makes delta-only computation possible.
        let base = ScenarioSpec::default();
        let mut superset = base.clone();
        superset.sweep.sigmas.push(0.2);
        superset.name = "another-name".into();
        let labels = [("mode", "both"), ("sigma", "0.05")];
        assert_eq!(
            RowContext::of_spec(&base).key("clements", &labels),
            RowContext::of_spec(&superset).key("clements", &labels),
        );
        // Evaluation-relevant fields DO move the address.
        let mut other = base.clone();
        other.dataset.n_test += 1;
        assert_ne!(
            RowContext::of_spec(&base).key("clements", &labels),
            RowContext::of_spec(&other).key("clements", &labels),
        );
    }

    #[test]
    fn row_keys_are_kernel_profile_scoped() {
        let spec = ScenarioSpec::default();
        let labels = [("mode", "both"), ("sigma", "0.05")];
        let reference = RowContext::of_spec_with(&spec, KernelProfile::Reference);
        let fma = RowContext::of_spec_with(&spec, KernelProfile::Fma);
        assert_ne!(
            reference.key("clements", &labels),
            fma.key("clements", &labels),
            "profiles must never share a row address"
        );
        // Reference keys are the historical of_spec keys.
        assert_eq!(
            reference.key("clements", &labels),
            RowContext::of_spec(&spec).key("clements", &labels),
        );
        // A row cached under one profile is invisible to the other.
        let cache = RowCache::in_memory();
        let p = point(vec![0.5, 0.625, 0.75], false);
        cache.put(&reference.key("clements", &labels), p);
        assert!(cache.get(&fma.key("clements", &labels)).is_none());
    }

    #[test]
    fn memory_tier_round_trips_and_counts() {
        let cache = RowCache::in_memory();
        let p = point(vec![0.5, 0.625, 0.75], false);
        let key = key_for(&p);
        assert!(cache.get(&key).is_none());
        cache.put(&key, p.clone());
        assert_eq!(*cache.get(&key).unwrap(), p);
        let stats = cache.stats();
        assert_eq!((stats.mem_hits, stats.misses), (1, 1));
    }

    #[test]
    fn disk_tier_round_trips_across_instances() {
        let dir = tmp_dir("disk");
        let p = point(vec![0.25, 0.5], true);
        let key = key_for(&p);
        let writer = RowCache::on_disk(dir.clone());
        writer.put(&key, p.clone());
        assert!(writer.stats().bytes_written > 0);

        let reader = RowCache::on_disk(dir.clone());
        assert_eq!(*reader.get(&key).unwrap(), p);
        assert_eq!(reader.stats().disk_hits, 1);
        // Second hit comes from the adopted memory tier.
        assert_eq!(*reader.get(&key).unwrap(), p);
        assert_eq!(reader.stats().mem_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = RowCache::in_memory().with_mem_capacity(2);
        let ctx = RowContext::of_spec(&ScenarioSpec::default());
        let keys: Vec<RowKey> = (0..3)
            .map(|i| ctx.key("clements", &[("sigma", format!("{i}"))]))
            .collect();
        cache.put(&keys[0], point(vec![0.1], false));
        cache.put(&keys[1], point(vec![0.2], false));
        // Touch key 0 so key 1 is the LRU victim.
        assert!(cache.get(&keys[0]).is_some());
        cache.put(&keys[2], point(vec![0.3], false));
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get(&keys[0]).is_some());
        assert!(cache.get(&keys[1]).is_none());
        assert!(cache.get(&keys[2]).is_some());
    }

    #[test]
    fn corrupt_files_heal_by_removal() {
        let dir = tmp_dir("heal");
        let p = point(vec![0.5, 0.75], false);
        let key = key_for(&p);
        let path = dir.join(STORE.file_name(ROW_PREFIX, &key.hex()));

        // Truncation.
        {
            let cache = RowCache::on_disk(dir.clone());
            cache.put(&key, p.clone());
            let bytes = std::fs::read(&path).unwrap();
            std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
            let fresh = RowCache::on_disk(dir.clone());
            assert!(fresh.get(&key).is_none());
            assert_eq!(fresh.stats().corrupt_healed, 1);
            assert!(!path.exists(), "truncated file must be removed");
        }
        // Bit flip.
        {
            let cache = RowCache::on_disk(dir.clone());
            cache.put(&key, p.clone());
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
            std::fs::write(&path, &bytes).unwrap();
            let fresh = RowCache::on_disk(dir.clone());
            assert!(fresh.get(&key).is_none());
            assert!(!path.exists(), "bit-flipped file must be removed");
        }
        // Version skew (checksum recomputed so only the version differs).
        {
            let mut bytes = serialize_row(&key, &p);
            bytes[8] = 0xFF; // first byte of the little-endian version
            let content_len = bytes.len() - 8;
            let sum = crate::fnv::fnv1a64(&bytes[..content_len], crate::fnv::FNV_BASIS);
            bytes[content_len..].copy_from_slice(&sum.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            let fresh = RowCache::on_disk(dir.clone());
            assert!(fresh.get(&key).is_none());
            assert!(!path.exists(), "version-skewed file must be removed");
        }
        // After healing, a republish round-trips again.
        let cache = RowCache::on_disk(dir.clone());
        cache.put(&key, p.clone());
        let fresh = RowCache::on_disk(dir.clone());
        assert_eq!(*fresh.get(&key).unwrap(), p);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn renamed_files_are_foreign_and_heal() {
        let dir = tmp_dir("rename");
        let cache = RowCache::on_disk(dir.clone());
        let p = point(vec![0.5], false);
        let key = key_for(&p);
        cache.put(&key, p);
        let ctx = RowContext::of_spec(&ScenarioSpec::default());
        let other = ctx.key("reck", &[("sigma", "0.9")]);
        let from = dir.join(STORE.file_name(ROW_PREFIX, &key.hex()));
        let to = dir.join(STORE.file_name(ROW_PREFIX, &other.hex()));
        std::fs::rename(&from, &to).unwrap();
        let fresh = RowCache::on_disk(dir.clone());
        assert!(fresh.get(&other).is_none());
        assert_eq!(fresh.stats().corrupt_healed, 1);
        assert!(!to.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifests_round_trip_and_validate() {
        let dir = tmp_dir("manifest");
        let cache = RowCache::on_disk(dir.clone());
        let fp = "0123456789abcdef0123456789abcdef";
        let manifest = RowManifest {
            scenario: "fig4".into(),
            topologies: vec![TopologySummary {
                topology: "clements".into(),
                software_accuracy: 0.9375,
                nominal_accuracy: f64::MIN_POSITIVE,
            }],
            row_keys: vec!["f".repeat(32), "0".repeat(32)],
        };
        cache.put_manifest(fp, manifest.clone());
        let fresh = RowCache::on_disk(dir.clone());
        assert_eq!(*fresh.get_manifest(fp).unwrap(), manifest);
        assert!(fresh.get_manifest("f".repeat(32).as_str()).is_none());
        assert!(fresh.get_manifest("not-hex").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_caps_entries_and_sweeps_stale_tmp_files() {
        let dir = tmp_dir("gc");
        let cache = RowCache::on_disk(dir.clone());
        let ctx = RowContext::of_spec(&ScenarioSpec::default());
        for i in 0..5 {
            let p = point(vec![0.1 * f64::from(i)], false);
            cache.put(&ctx.key("clements", &[("sigma", format!("{i}"))]), p);
        }
        // A stale crashed-writer leftover (mtime pushed past the grace
        // period) and a fresh one (must survive).
        let stale = dir.join(".tmp-999-row-stale");
        let fresh = dir.join(".tmp-999-row-fresh");
        std::fs::write(&stale, b"junk").unwrap();
        std::fs::write(&fresh, b"junk").unwrap();
        let old = std::time::SystemTime::now() - std::time::Duration::from_secs(3600);
        set_mtime(&stale, old);

        let outcome = STORE
            .gc(
                &dir,
                &crate::store::GcLimits {
                    max_entries: Some(2),
                    max_bytes: None,
                },
            )
            .unwrap();
        assert_eq!(outcome.kept, 2);
        assert!(
            outcome.removed >= 4,
            "3 rows + 1 stale tmp; got {outcome:?}"
        );
        assert!(!stale.exists());
        assert!(fresh.exists(), "in-flight tmp files must survive gc");
        assert_eq!(
            STORE.entries(&dir).unwrap().len(),
            2,
            "entry cap must hold after gc"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn set_mtime(path: &Path, t: std::time::SystemTime) {
        std::fs::File::options()
            .write(true)
            .open(path)
            .and_then(|f| f.set_modified(t))
            .expect("set mtime");
    }

    // -----------------------------------------------------------------
    // Property tests: the payload codec is bit-lossless.
    // -----------------------------------------------------------------

    /// All 2⁶⁴ bit patterns: subnormals, ±inf, every NaN payload.
    fn any_f64_bits() -> impl Strategy<Value = f64> {
        (0u64..u64::MAX).prop_map(f64::from_bits)
    }

    fn any_label() -> impl Strategy<Value = (String, String)> {
        // Non-ASCII keys and values: sweep labels are arbitrary UTF-8.
        (0u32..5, 0u32..5).prop_map(|(k, v)| {
            let alphabet = ["σ", "zoné", "混合", "ß", "norm"];
            (
                format!("k-{}", alphabet[k as usize]),
                format!("v-{}", alphabet[v as usize]),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn row_payloads_round_trip_bit_exactly(
            samples in proptest::collection::vec(any_f64_bits(), 1..40),
            labels in proptest::collection::vec(any_label(), 1..4),
            stopped_early in (0u8..2).prop_map(|b| b == 1),
            topology_pick in 0u8..2,
        ) {
            let point = CachedPoint {
                topology: if topology_pick == 0 { "clements" } else { "реck-∅" }.to_string(),
                labels,
                samples,
                stopped_early,
            };
            let key = key_for(&point);
            let bytes = serialize_row(&key, &point);
            let (key2, point2) = deserialize_row(&bytes).expect("own bytes parse");
            prop_assert_eq!(&key2, &key);
            prop_assert_eq!(point2.topology, point.topology.clone());
            prop_assert_eq!(&point2.labels, &point.labels);
            prop_assert_eq!(point2.stopped_early, point.stopped_early);
            prop_assert_eq!(point2.samples.len(), point.samples.len());
            for (a, b) in point2.samples.iter().zip(&point.samples) {
                // Bit equality, not float equality: NaN payloads and
                // signed zeros must survive.
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        #[test]
        fn rebuilt_rows_and_welford_state_match_bit_exactly(
            samples in proptest::collection::vec(0.0f64..1.0, 2..50),
        ) {
            // The round-tripped samples must reproduce the exact row
            // statistics and Welford state the cold path computed.
            let point = point(samples.clone(), false);
            let key = key_for(&point);
            let bytes = serialize_row(&key, &point);
            let (_, back) = deserialize_row(&bytes).expect("parse");

            let cold = McResult::from_samples(samples.clone());
            let warm = McResult::from_samples(back.samples.clone());
            prop_assert_eq!(warm.mean.to_bits(), cold.mean.to_bits());
            prop_assert_eq!(warm.std_dev.to_bits(), cold.std_dev.to_bits());
            prop_assert_eq!(
                warm.margin_of_error_95().to_bits(),
                cold.margin_of_error_95().to_bits()
            );

            let mut cold_w = crate::estimator::Welford::new();
            let mut warm_w = crate::estimator::Welford::new();
            for &s in &samples {
                cold_w.push(s);
            }
            for &s in &back.samples {
                warm_w.push(s);
            }
            let (cn, cm, cm2) = cold_w.parts();
            let (wn, wm, wm2) = warm_w.parts();
            prop_assert_eq!(cn, wn);
            prop_assert_eq!(cm.to_bits(), wm.to_bits());
            prop_assert_eq!(cm2.to_bits(), wm2.to_bits());
        }

        #[test]
        fn manifests_round_trip_bit_exactly(
            accuracies in proptest::collection::vec((any_f64_bits(), any_f64_bits()), 1..3),
            n_rows in 0usize..6,
        ) {
            let manifest = RowManifest {
                scenario: "propté-混合".into(),
                topologies: accuracies
                    .iter()
                    .enumerate()
                    .map(|(i, &(sw, nom))| TopologySummary {
                        topology: format!("t{i}"),
                        software_accuracy: sw,
                        nominal_accuracy: nom,
                    })
                    .collect(),
                row_keys: (0..n_rows).map(|i| format!("{i:032x}")).collect(),
            };
            let fp = "00112233445566778899aabbccddeeff";
            let bytes = serialize_manifest(fp, &manifest);
            let (fp2, back) = deserialize_manifest(&bytes).expect("parse");
            prop_assert_eq!(fp2.as_str(), fp);
            prop_assert_eq!(back.scenario, manifest.scenario.clone());
            prop_assert_eq!(back.row_keys, manifest.row_keys.clone());
            prop_assert_eq!(back.topologies.len(), manifest.topologies.len());
            for (a, b) in back.topologies.iter().zip(&manifest.topologies) {
                prop_assert_eq!(&a.topology, &b.topology);
                prop_assert_eq!(a.software_accuracy.to_bits(), b.software_accuracy.to_bits());
                prop_assert_eq!(a.nominal_accuracy.to_bits(), b.nominal_accuracy.to_bits());
            }
        }

        #[test]
        fn corrupted_bytes_never_parse(
            flip in 0usize..64,
        ) {
            let p = point(vec![0.5, 0.625, 0.75], true);
            let key = key_for(&p);
            let mut bytes = serialize_row(&key, &p);
            let idx = flip % bytes.len();
            bytes[idx] ^= 0x01;
            // Any single-bit flip must be rejected, never silently
            // misread (the checksum covers every content byte; a flip in
            // the trailer itself also mismatches).
            prop_assert!(deserialize_row(&bytes).is_err());
        }
    }
}
