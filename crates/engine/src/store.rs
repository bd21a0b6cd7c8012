//! The on-disk artifact store: the one owner of the byte discipline that
//! the trained-context cache ([`crate::cache`]) and the row cache
//! ([`crate::rowcache`]) share. Those modules keep only their record
//! codecs and their front-ends; everything about files lives here.
//!
//! - **Content addresses.** `content_key` turns a canonical string into
//!   a 16-byte key (FNV-1a under two bases); `hex` and `parse_hex`
//!   convert it to and from the 32-character form used in file names.
//!   [`crate::cache::Fingerprint`], [`crate::rowcache::RowKey`] and
//!   [`crate::shard::queue_fingerprint_with`] all derive keys this way.
//!   FNV-1a is not cryptographic, so every record also stores its
//!   canonical string and readers compare it, which makes collisions
//!   harmless.
//! - **Record framing.** A record is `magic (8 bytes) ‖ u32 version ‖
//!   body ‖ u64 checksum`, where the checksum is FNV-1a over everything
//!   before it and every integer is little-endian. `Framing::open`
//!   checks the checksum first (every later check assumes intact bytes),
//!   then the magic, then the version. The body reader bounds every count
//!   it reads against the bytes left, with checked arithmetic, before
//!   allocating for it: a forged length yields [`LoadError::Malformed`],
//!   never a huge allocation.
//! - **Publishing.** `publish` writes a temp file unique to the call and
//!   renames it into place. Readers never see a torn entry, and
//!   concurrent writers of one entry never share a temp file.
//! - **Listing.** A [`Store`] descriptor names a store's files
//!   (`<prefix><32 hex>.<extension>`), its default directory and how to
//!   summarize a record. One membership rule decides which files belong
//!   to a store; [`Store::entries`], [`Store::rm`] and [`Store::gc`] all
//!   apply it, so `spnn cache|rowcache ls`, `rm` and `gc` agree.

use crate::fnv::{fnv1a64, FNV_BASIS};
use std::fmt::{self, Write as _};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime};

// ---------------------------------------------------------------------------
// Content addresses
// ---------------------------------------------------------------------------

/// FNV-1a basis of the upper eight key bytes.
const SECOND_BASIS: u64 = 0x6c62272e07bb0142;

/// The 16-byte content address of `canonical`: FNV-1a under the standard
/// basis, then under a second basis, each stored little-endian.
pub(crate) fn content_key(canonical: &str) -> [u8; 16] {
    let mut key = [0u8; 16];
    key[..8].copy_from_slice(&fnv1a64(canonical.as_bytes(), FNV_BASIS).to_le_bytes());
    key[8..].copy_from_slice(&fnv1a64(canonical.as_bytes(), SECOND_BASIS).to_le_bytes());
    key
}

/// A key as 32 lowercase hex characters.
pub(crate) fn hex(key: &[u8; 16]) -> String {
    let mut out = String::with_capacity(32);
    for b in key {
        let _ = write!(out, "{b:02x}");
    }
    out
}

/// The key a 32-character hex string spells, or `None` if it is not one.
pub(crate) fn parse_hex(hex: &str) -> Option<[u8; 16]> {
    if hex.len() != 32 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    let mut key = [0u8; 16];
    for (byte, pair) in key.iter_mut().zip(hex.as_bytes().chunks(2)) {
        *byte = u8::from_str_radix(std::str::from_utf8(pair).ok()?, 16).ok()?;
    }
    Some(key)
}

// ---------------------------------------------------------------------------
// Record framing
// ---------------------------------------------------------------------------

/// Why a stored record could not be used. Every variant is recoverable:
/// the caller retrains or recomputes, so a bad file can slow a run down
/// but never change its result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// The file does not exist (a plain miss).
    NotFound,
    /// The file could not be read.
    Io(String),
    /// The magic bytes do not match (not a record of this kind).
    BadMagic,
    /// The format version is not the one this build reads.
    BadVersion(u32),
    /// The trailing checksum does not match the content.
    BadChecksum,
    /// The stored key does not match the requested one (a renamed file or,
    /// in theory, a hash collision).
    FingerprintMismatch,
    /// A structural invariant failed while decoding.
    Malformed(&'static str),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::NotFound => write!(f, "no cache entry"),
            LoadError::Io(e) => write!(f, "I/O error: {e}"),
            LoadError::BadMagic => write!(f, "not a spnn cache file"),
            LoadError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            LoadError::BadChecksum => write!(f, "checksum mismatch (corrupt file)"),
            LoadError::FingerprintMismatch => write!(f, "fingerprint mismatch"),
            LoadError::Malformed(what) => write!(f, "malformed entry: {what}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// The header of one record format: magic bytes and a version. Bump the
/// version on any layout change; readers reject other versions rather
/// than misread them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Framing {
    pub(crate) magic: &'static [u8; 8],
    pub(crate) version: u32,
}

impl Framing {
    /// A writer with the header already written; finish with
    /// [`Writer::seal`].
    pub(crate) fn writer(&self) -> Writer {
        let mut w = Writer {
            buf: Vec::with_capacity(32 * 1024),
        };
        w.raw(self.magic);
        w.u32(self.version);
        w
    }

    /// Validates a record's checksum, magic and version, in that order,
    /// and returns a reader over the body.
    pub(crate) fn open<'a>(&self, bytes: &'a [u8]) -> Result<Reader<'a>, LoadError> {
        if bytes.len() < self.magic.len() + 4 + 8 {
            return Err(LoadError::Malformed("file too short"));
        }
        let (content, trailer) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
        if fnv1a64(content, FNV_BASIS) != stored {
            return Err(LoadError::BadChecksum);
        }
        let mut r = Reader {
            buf: content,
            pos: 0,
        };
        if r.take(self.magic.len())? != self.magic {
            return Err(LoadError::BadMagic);
        }
        let version = r.u32()?;
        if version != self.version {
            return Err(LoadError::BadVersion(version));
        }
        Ok(r)
    }
}

/// Little-endian record body writer (floats as raw IEEE 754 bits).
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
    pub(crate) fn u8(&mut self, x: u8) {
        self.buf.push(x);
    }
    pub(crate) fn u32(&mut self, x: u32) {
        self.raw(&x.to_le_bytes());
    }
    pub(crate) fn u64(&mut self, x: u64) {
        self.raw(&x.to_le_bytes());
    }
    pub(crate) fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
    pub(crate) fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.raw(s.as_bytes());
    }
    pub(crate) fn f64s(&mut self, xs: &[f64]) {
        self.u32(xs.len() as u32);
        for &x in xs {
            self.f64(x);
        }
    }

    /// Appends the checksum and returns the finished record.
    pub(crate) fn seal(mut self) -> Vec<u8> {
        let checksum = fnv1a64(&self.buf, FNV_BASIS);
        self.u64(checksum);
        self.buf
    }
}

/// Record body reader, the inverse of [`Writer`].
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], LoadError> {
        if self.remaining() < n {
            return Err(LoadError::Malformed("truncated"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    pub(crate) fn u8(&mut self) -> Result<u8, LoadError> {
        Ok(self.take(1)?[0])
    }
    pub(crate) fn u32(&mut self) -> Result<u32, LoadError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("took 4 bytes"),
        ))
    }
    pub(crate) fn u64(&mut self) -> Result<u64, LoadError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("took 8 bytes"),
        ))
    }
    pub(crate) fn f64(&mut self) -> Result<f64, LoadError> {
        Ok(f64::from_bits(self.u64()?))
    }
    pub(crate) fn str(&mut self) -> Result<String, LoadError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| LoadError::Malformed("non-UTF-8 string"))
    }
    /// A length-prefixed f64 list, its length bounded before allocation.
    pub(crate) fn f64s(&mut self) -> Result<Vec<f64>, LoadError> {
        let n = self.count(8, "truncated f64 list")?;
        (0..n).map(|_| self.f64()).collect()
    }

    /// Fails with `Malformed(what)` unless `n` items of at least
    /// `min_bytes` each fit in the rest of the body. The product is
    /// checked, so the bound holds on 32-bit targets too.
    pub(crate) fn ensure(
        &self,
        n: usize,
        min_bytes: usize,
        what: &'static str,
    ) -> Result<(), LoadError> {
        match n.checked_mul(min_bytes) {
            Some(need) if need <= self.remaining() => Ok(()),
            _ => Err(LoadError::Malformed(what)),
        }
    }

    /// Reads a u32 item count and [`Self::ensure`]s that many items of at
    /// least `min_bytes` each can follow.
    pub(crate) fn count(
        &mut self,
        min_bytes: usize,
        what: &'static str,
    ) -> Result<usize, LoadError> {
        let n = self.u32()? as usize;
        self.ensure(n, min_bytes, what)?;
        Ok(n)
    }

    /// Fails unless the whole body has been consumed.
    pub(crate) fn end(&self) -> Result<(), LoadError> {
        if self.remaining() != 0 {
            return Err(LoadError::Malformed("trailing bytes"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Files
// ---------------------------------------------------------------------------

/// Name prefix of in-flight (or crashed) [`publish`] temp files.
const TMP_PREFIX: &str = ".tmp-";

/// Per-process sequence number that makes every temp name unique.
static PUBLISH_SEQ: AtomicU64 = AtomicU64::new(0);

/// Reads a record file; a missing file is [`LoadError::NotFound`].
pub(crate) fn read(path: &Path) -> Result<Vec<u8>, LoadError> {
    std::fs::read(path).map_err(|e| match e.kind() {
        io::ErrorKind::NotFound => LoadError::NotFound,
        _ => LoadError::Io(e.to_string()),
    })
}

/// Publishes `bytes` as `dir/name` atomically: the bytes go to a temp
/// file named `.tmp-<pid>-<seq>-<name>` (unique per call, so threads
/// publishing the same entry never write one shared inode) and are then
/// renamed into place. Concurrent publishers of identical content race
/// harmlessly: the last rename wins with the same bytes. Creates `dir`
/// if needed; on failure the temp file is removed.
pub(crate) fn publish(dir: &Path, name: &str, bytes: &[u8]) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let seq = PUBLISH_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!("{TMP_PREFIX}{}-{seq}-{name}", std::process::id()));
    let result = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, dir.join(name)));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Removes `path`, reporting `false` when it had already vanished (a
/// concurrent remover or rename in a shared directory, not an error).
fn remove(path: &Path) -> io::Result<bool> {
    match std::fs::remove_file(path) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
        Err(e) => Err(e),
    }
}

// ---------------------------------------------------------------------------
// Store descriptor: membership, listing, rm, gc
// ---------------------------------------------------------------------------

/// The file layout and command-line identity of one store. Each store
/// module declares one as a constant (`cache::STORE`, `rowcache::STORE`);
/// the `spnn cache` and `spnn rowcache` commands run one handler over it.
#[derive(Debug)]
pub struct Store {
    /// The store's CLI name (`cache`, `rowcache`), used in messages; the
    /// last-resort directory is `./.spnn-<name>`.
    pub name: &'static str,
    /// File extension of every entry.
    pub extension: &'static str,
    /// `(file-name prefix, kind label)` per record kind. An entry is named
    /// `<prefix><32 hex key>.<extension>`.
    pub kinds: &'static [(&'static str, &'static str)],
    /// Environment variable that overrides the default directory.
    pub env_var: &'static str,
    /// Directory under the user cache root (`$XDG_CACHE_HOME`, else
    /// `$HOME/.cache`).
    pub subdir: &'static str,
    /// A one-line summary of a record of the given kind label, or why the
    /// record is unusable.
    pub summarize: fn(&str, &[u8]) -> Result<String, LoadError>,
}

/// One file that belongs to a store.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Full path of the file.
    pub path: PathBuf,
    /// Kind label of the record (from the file-name prefix).
    pub kind: &'static str,
    /// The 32-hex-character key from the file name.
    pub key_hex: String,
    /// File size in bytes.
    pub size_bytes: u64,
    /// Last modification time (eviction order for [`Store::gc`]).
    pub modified: SystemTime,
}

/// Retention limits for [`Store::gc`]. Unset bounds don't constrain; with
/// both unset, gc only removes stale temp files.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcLimits {
    /// Keep at most this many entries.
    pub max_entries: Option<usize>,
    /// Keep at most this many bytes of entries.
    pub max_bytes: Option<u64>,
}

/// What [`Store::gc`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcOutcome {
    /// Entries retained.
    pub kept: usize,
    /// Entries (plus stale temp files) removed.
    pub removed: usize,
    /// Total size of the retained entries.
    pub bytes_kept: u64,
    /// Bytes reclaimed.
    pub bytes_freed: u64,
}

/// How old a `.tmp-*` file must be before [`Store::gc`] treats it as a
/// crashed writer's leftover rather than an in-flight [`publish`] (a
/// write-then-rename lasting well under a second).
const TMP_SWEEP_MIN_AGE: Duration = Duration::from_secs(15 * 60);

impl Store {
    /// The file name of the entry of kind `prefix` under key `key_hex`.
    pub fn file_name(&self, prefix: &str, key_hex: &str) -> String {
        format!("{prefix}{key_hex}.{}", self.extension)
    }

    /// The directory the CLI uses by default: `$<env_var>`, else
    /// `$XDG_CACHE_HOME/<subdir>`, else `$HOME/.cache/<subdir>`, else
    /// `./.spnn-<name>`.
    pub fn default_dir(&self) -> PathBuf {
        if let Some(dir) = std::env::var_os(self.env_var) {
            return PathBuf::from(dir);
        }
        let nonempty = |var| std::env::var_os(var).filter(|v| !v.is_empty());
        nonempty("XDG_CACHE_HOME")
            .map(PathBuf::from)
            .or_else(|| nonempty("HOME").map(|home| PathBuf::from(home).join(".cache")))
            .map_or_else(
                || PathBuf::from(format!(".spnn-{}", self.name)),
                |root| root.join(self.subdir),
            )
    }

    /// The membership rule: `(kind, key hex)` when `file_name` is
    /// `<prefix><32 hex>.<extension>` for one of the store's kinds.
    fn member<'n>(&self, file_name: &'n str) -> Option<(&'static str, &'n str)> {
        let stem = file_name.strip_suffix(self.extension)?.strip_suffix('.')?;
        self.kinds.iter().find_map(|&(prefix, kind)| {
            let key = stem.strip_prefix(prefix)?;
            parse_hex(key).map(|_| (kind, key))
        })
    }

    /// Scans `dir` once: the store's entries (sorted by path) and the temp
    /// files of any publisher. A missing directory is an empty store;
    /// files that vanish mid-scan are skipped.
    fn scan(&self, dir: &Path) -> io::Result<(Vec<Entry>, Vec<Entry>)> {
        let (mut entries, mut temps) = (Vec::new(), Vec::new());
        let rd = match std::fs::read_dir(dir) {
            Ok(rd) => rd,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((entries, temps)),
            Err(e) => return Err(e),
        };
        for dirent in rd {
            let dirent = dirent?;
            let meta = match dirent.metadata() {
                Ok(meta) if meta.is_file() => meta,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            };
            let name = dirent.file_name();
            let name = name.to_str().unwrap_or("");
            let (list, kind, key_hex) = if name.starts_with(TMP_PREFIX) {
                (&mut temps, "temp", String::new())
            } else if let Some((kind, key)) = self.member(name) {
                (&mut entries, kind, key.to_string())
            } else {
                continue;
            };
            list.push(Entry {
                path: dirent.path(),
                kind,
                key_hex,
                size_bytes: meta.len(),
                modified: meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
            });
        }
        entries.sort_by(|a, b| a.path.cmp(&b.path));
        Ok((entries, temps))
    }

    /// The store's entries under `dir`, sorted by path. A missing
    /// directory lists as empty.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory exists but cannot
    /// be read.
    pub fn entries(&self, dir: &Path) -> io::Result<Vec<Entry>> {
        Ok(self.scan(dir)?.0)
    }

    /// Reads and decodes `entry`: its one-line summary, or why it is
    /// unusable (corrupt, or from another format version — such entries
    /// are rebuilt on the next miss and safe to remove).
    pub fn summary(&self, entry: &Entry) -> Result<String, LoadError> {
        (self.summarize)(entry.kind, &read(&entry.path)?)
    }

    /// Removes every entry whose key starts with one of `keys`, or every
    /// entry with `all`. Each key must match some entry before anything is
    /// deleted, so a mistyped key leaves the store untouched. Returns the
    /// removed paths.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] naming the first key that matches
    /// nothing, or the underlying I/O error of a listing or removal.
    pub fn rm(&self, dir: &Path, keys: &[&str], all: bool) -> io::Result<Vec<PathBuf>> {
        let entries = self.entries(dir)?;
        let selected = |e: &Entry, k: &str| !k.is_empty() && e.key_hex.starts_with(k);
        if let Some(k) = keys
            .iter()
            .find(|k| !entries.iter().any(|e| selected(e, k)))
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("no {} entry matches key {k:?}", self.name),
            ));
        }
        let mut removed = Vec::new();
        for e in entries {
            if (all || keys.iter().any(|k| selected(&e, k))) && remove(&e.path)? {
                removed.push(e.path);
            }
        }
        Ok(removed)
    }

    /// Evicts entries least-recently-written first until the store fits
    /// `limits`. Entries are ordered by mtime (newest first, path as a
    /// deterministic tiebreak); the newest prefix that satisfies both
    /// bounds is kept, and the first entry to exceed a bound is removed
    /// together with everything older (no backfilling with small old
    /// entries). Entries are deterministic rebuild-on-miss artifacts, so
    /// eviction costs time, never correctness. Temp files older than a
    /// grace period are removed as crashed writers' leftovers; younger
    /// ones may belong to a live publish and are kept.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory or a file cannot
    /// be read or removed; files that vanish mid-scan are skipped.
    pub fn gc(&self, dir: &Path, limits: &GcLimits) -> io::Result<GcOutcome> {
        let (mut entries, temps) = self.scan(dir)?;
        let mut outcome = GcOutcome::default();
        let now = SystemTime::now();
        for t in temps {
            let stale = now
                .duration_since(t.modified)
                .is_ok_and(|age| age >= TMP_SWEEP_MIN_AGE);
            if stale && remove(&t.path)? {
                outcome.removed += 1;
                outcome.bytes_freed += t.size_bytes;
            }
        }
        entries.sort_by(|a, b| {
            b.modified
                .cmp(&a.modified)
                .then_with(|| a.path.cmp(&b.path))
        });
        let mut evicting = false;
        for e in entries {
            evicting = evicting
                || limits.max_entries.is_some_and(|m| outcome.kept >= m)
                || limits
                    .max_bytes
                    .is_some_and(|m| outcome.bytes_kept + e.size_bytes > m);
            if !evicting {
                outcome.kept += 1;
                outcome.bytes_kept += e.size_bytes;
            } else if remove(&e.path)? {
                outcome.removed += 1;
                outcome.bytes_freed += e.size_bytes;
            }
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    const TEST_FRAMING: Framing = Framing {
        magic: b"SPNNTST\x01",
        version: 3,
    };

    const TEST_STORE: Store = Store {
        name: "teststore",
        extension: "spnntst",
        kinds: &[("a-", "alpha"), ("b-", "beta")],
        env_var: "SPNN_TEST_STORE_DIR_UNSET",
        subdir: "spnn/test",
        summarize: |kind, bytes| {
            let mut r = TEST_FRAMING.open(bytes)?;
            let s = r.str()?;
            r.end()?;
            Ok(format!("{kind}: {s}"))
        },
    };

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("spnn-store-unit-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn record(s: &str) -> Vec<u8> {
        let mut w = TEST_FRAMING.writer();
        w.str(s);
        w.seal()
    }

    #[test]
    fn keys_round_trip_through_hex() {
        let key = content_key("spnn-queue-v1;name = x");
        let h = hex(&key);
        assert_eq!(h.len(), 32);
        assert_eq!(parse_hex(&h), Some(key));
        assert_eq!(parse_hex(&h[1..]), None);
        assert_eq!(parse_hex(&format!("{}g", &h[1..])), None);
        // The first half is plain FNV-1a 64 of the canonical string.
        assert_eq!(&content_key("a")[..8], &0xaf63dc4c8601ec8cu64.to_le_bytes());
    }

    #[test]
    fn framing_checks_checksum_then_magic_then_version() {
        let good = record("payload");
        let mut r = TEST_FRAMING.open(&good).unwrap();
        assert_eq!(r.str().unwrap(), "payload");
        r.end().unwrap();

        let mut flipped = good.clone();
        flipped[0] ^= 1;
        assert_eq!(
            TEST_FRAMING.open(&flipped).err(),
            Some(LoadError::BadChecksum)
        );

        let reseal = |mut bytes: Vec<u8>| {
            let n = bytes.len() - 8;
            let sum = fnv1a64(&bytes[..n], FNV_BASIS);
            bytes[n..].copy_from_slice(&sum.to_le_bytes());
            bytes
        };
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 1;
        bad_magic[8] = 9; // also a wrong version: magic is checked first
        assert_eq!(
            TEST_FRAMING.open(&reseal(bad_magic)).err(),
            Some(LoadError::BadMagic)
        );
        let mut bad_version = good;
        bad_version[8] = 9;
        assert_eq!(
            TEST_FRAMING.open(&reseal(bad_version)).err(),
            Some(LoadError::BadVersion(9))
        );
        assert_eq!(
            TEST_FRAMING.open(b"short").err(),
            Some(LoadError::Malformed("file too short"))
        );
    }

    #[test]
    fn forged_list_length_is_malformed_before_allocating() {
        let mut w = TEST_FRAMING.writer();
        w.u32(u32::MAX);
        w.f64(0.5);
        let bytes = w.seal();
        let mut r = TEST_FRAMING.open(&bytes).unwrap();
        assert_eq!(
            r.f64s().err(),
            Some(LoadError::Malformed("truncated f64 list"))
        );
        let r = TEST_FRAMING.open(&bytes).unwrap();
        assert!(r.ensure(usize::MAX, 2, "overflow").is_err());
        assert!(r.ensure(usize::MAX / 2 + 1, 2, "overflow").is_err());
    }

    /// Threads released together publish the same entry: every publish
    /// succeeds, the entry reads back intact, and no temp file is left.
    #[test]
    fn concurrent_publishes_of_one_entry_all_succeed() {
        let dir = tmp_dir("publish");
        let bytes = record(&"x".repeat(1 << 20));
        for round in 0..8 {
            let name = TEST_STORE.file_name("a-", &hex(&content_key(&round.to_string())));
            let barrier = Arc::new(Barrier::new(4));
            let results: Vec<io::Result<()>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..4)
                    .map(|_| {
                        let barrier = Arc::clone(&barrier);
                        let (dir, name, bytes) = (&dir, &name, &bytes);
                        s.spawn(move || {
                            barrier.wait();
                            publish(dir, name, bytes)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert!(results.iter().all(|r| r.is_ok()), "{results:?}");
            assert_eq!(read(&dir.join(&name)).unwrap(), bytes);
        }
        let (entries, temps) = TEST_STORE.scan(&dir).unwrap();
        assert_eq!(entries.len(), 8);
        assert!(temps.is_empty(), "temp files left behind: {temps:?}");
        for e in &entries {
            assert!(TEST_STORE.summary(e).is_ok());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `entries`, `rm --all` and `gc` see the same files: prefix-less,
    /// non-hex and foreign-extension names are not the store's.
    #[test]
    fn one_membership_rule_for_listing_rm_and_gc() {
        let dir = tmp_dir("members");
        let a = TEST_STORE.file_name("a-", &"0".repeat(32));
        let b = TEST_STORE.file_name("b-", &"f".repeat(32));
        publish(&dir, &a, &record("one")).unwrap();
        std::fs::write(dir.join(&b), b"junk").unwrap();
        for stranger in [
            "x.spnntst",
            "a-.spnntst",
            "a-0123.spnntst",
            "c-00000000000000000000000000000000.spnntst",
            "a-00000000000000000000000000000000.other",
            "README",
        ] {
            std::fs::write(dir.join(stranger), b"keep").unwrap();
        }

        let entries = TEST_STORE.entries(&dir).unwrap();
        let kinds: Vec<(&str, &str)> = entries
            .iter()
            .map(|e| (e.kind, e.key_hex.as_str()))
            .collect();
        let zeros = "0".repeat(32);
        let fs = "f".repeat(32);
        assert_eq!(
            kinds,
            vec![("alpha", zeros.as_str()), ("beta", fs.as_str())]
        );
        assert_eq!(TEST_STORE.summary(&entries[0]).unwrap(), "alpha: one");
        assert_eq!(
            TEST_STORE.summary(&entries[1]).err(),
            Some(LoadError::Malformed("file too short"))
        );

        let out = TEST_STORE
            .gc(
                &dir,
                &GcLimits {
                    max_entries: Some(5),
                    max_bytes: None,
                },
            )
            .unwrap();
        assert_eq!((out.kept, out.removed), (2, 0), "gc counts members only");

        // A key matching nothing fails before anything is removed.
        let err = TEST_STORE.rm(&dir, &["0000", "1234"], false).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(TEST_STORE.entries(&dir).unwrap().len(), 2);
        assert!(TEST_STORE.rm(&dir, &[""], false).is_err());

        let removed = TEST_STORE.rm(&dir, &["ff"], false).unwrap();
        assert_eq!(removed, vec![dir.join(&b)]);
        let removed = TEST_STORE.rm(&dir, &[], true).unwrap();
        assert_eq!(removed, vec![dir.join(&a)]);
        assert!(dir.join("x.spnntst").exists() && dir.join("README").exists());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn default_dir_falls_back_to_the_cache_root() {
        // `env_var` is never set, so the XDG/HOME chain or the
        // `.spnn-<name>` fallback applies.
        let dir = TEST_STORE.default_dir();
        assert!(
            dir.ends_with("spnn/test") || dir == Path::new(".spnn-teststore"),
            "{dir:?}"
        );
    }
}
