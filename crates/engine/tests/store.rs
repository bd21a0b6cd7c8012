//! On-disk artifact store: pinned file bytes and the `spnn cache` /
//! `spnn rowcache` command surface.
//!
//! The byte pins are FNV-1a digests of files the two stores write for
//! tiny, fully deterministic inputs. Round-trip tests cannot catch a
//! framing change that both writer and reader agree on; these can. A
//! digest may only change together with a deliberate format-version bump.

use spnn_core::MeshTopology;
use spnn_engine::cache::{entry_path, ContextCache, Fingerprint};
use spnn_engine::prelude::*;
use spnn_engine::RowCache;
use spnn_photonics::PerturbTarget;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// FNV-1a 64 over `bytes` (the standard offset basis).
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
    })
}

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("spnn-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `(file name, length, digest)` of every file directly under `dir`,
/// sorted by name.
fn file_digests(dir: &Path) -> Vec<(String, usize, u64)> {
    let mut out: Vec<(String, usize, u64)> = std::fs::read_dir(dir)
        .expect("store dir")
        .map(|e| {
            let path = e.expect("dir entry").path();
            let bytes = std::fs::read(&path).expect("read entry");
            let name = path.file_name().unwrap().to_str().unwrap().to_string();
            (name, bytes.len(), digest(&bytes))
        })
        .collect();
    out.sort();
    out
}

fn tiny_fig4() -> ScenarioSpec {
    let mut spec = presets::fig4(&RunScale::tiny());
    spec.sweep.modes = vec![PerturbTarget::Both];
    spec.sweep.sigmas = vec![0.0, 0.05, 0.1];
    spec.iterations = 8;
    spec.min_iterations = 2;
    spec.round_size = 4;
    spec
}

/// Length and digest of the tiny fig4 context file (Clements and Reck
/// mappings persisted).
const PIN_CTX_LEN: usize = 39891;
const PIN_CTX_DIGEST: u64 = 0x86bd30adf3c06e5d;

/// Name, length and digest of every file the tiny cached fig4 run
/// publishes: its manifest and its three rows.
const PIN_ROWS: &[(&str, usize, u64)] = &[
    (
        "man-e23e7e7fc694116ec12b8c20c24c4ca5.spnnrow",
        209,
        0x6fbf19af3e3e14da,
    ),
    (
        "row-0421305fb75019d1fbb4ce081eb78092.spnnrow",
        612,
        0xd5e4e467d55166c4,
    ),
    (
        "row-23ce931f5f17f5a2305f4561ba7385ae.spnnrow",
        616,
        0x79959ffb9bfac381,
    ),
    (
        "row-636f3e831ff6b5306a4f88ade9ae2c94.spnnrow",
        618,
        0x3514513825dda86a,
    ),
];

/// A trained-context file with both mesh mappings persisted.
#[test]
fn context_file_bytes_are_pinned() {
    let scratch = Scratch::new("pin-ctx");
    let dir = scratch.path("ctx");
    let spec = presets::fig4(&RunScale::tiny());
    let cache = ContextCache::on_disk(&dir);
    let ctx = cache.get_or_train(&spec, false);
    ctx.mapping(MeshTopology::Clements, None).expect("clements");
    ctx.mapping(MeshTopology::Reck, None).expect("reck");
    cache.persist(&ctx).expect("persist");

    let path = entry_path(&dir, &Fingerprint::of_spec(&spec));
    assert_eq!(
        path.file_name().unwrap().to_str().unwrap(),
        "ctx-dad3ece721c96466ab403ef42bb2b9b4.spnnctx"
    );
    let bytes = std::fs::read(&path).expect("context file");
    assert_eq!((bytes.len(), digest(&bytes)), (PIN_CTX_LEN, PIN_CTX_DIGEST));
}

/// The row files and the manifest a tiny cached run publishes.
#[test]
fn row_and_manifest_file_bytes_are_pinned() {
    let scratch = Scratch::new("pin-rows");
    let dir = scratch.path("rows");
    let rc = Arc::new(RowCache::on_disk(dir.clone()));
    let config = EngineConfig {
        row_cache: Some(rc),
        ..EngineConfig::default()
    };
    run_scenario_with(&tiny_fig4(), &config, &ContextCache::in_memory()).expect("cached run");

    let pinned: Vec<(String, usize, u64)> = PIN_ROWS
        .iter()
        .map(|&(name, len, d)| (name.to_string(), len, d))
        .collect();
    assert_eq!(file_digests(&dir), pinned);
}

// ---------------------------------------------------------------------------
// CLI
// ---------------------------------------------------------------------------

fn spnn(args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_spnn"))
        .args(args)
        .env_remove("SPNN_CACHE_DIR")
        .env_remove("SPNN_ROW_CACHE_DIR")
        .output()
        .expect("run spnn")
}

fn stdout_of(out: &std::process::Output, what: &str) -> String {
    assert!(
        out.status.success(),
        "{what} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn names_with_extension(dir: &Path, ext: &str) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("store dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == ext))
        .map(|p| p.file_name().unwrap().to_str().unwrap().to_string())
        .collect();
    names.sort();
    names
}

/// Trains two tiny contexts (different seeds) into `dir` and returns
/// their 32-hex keys.
fn two_contexts(dir: &Path) -> [String; 2] {
    let cache = ContextCache::on_disk(dir);
    let mut spec = presets::fig4(&RunScale::tiny());
    let a = cache.get_or_train(&spec, false).fingerprint().hex();
    spec.seed ^= 1;
    let b = cache.get_or_train(&spec, false).fingerprint().hex();
    assert_ne!(a[..6], b[..6], "test needs distinguishable key prefixes");
    [a, b]
}

/// `spnn cache {path, ls, rm <prefix>, rm --all, gc}` over one directory,
/// including the all-or-nothing rule for mistyped keys.
#[test]
fn cli_cache_commands_agree_on_one_directory() {
    let scratch = Scratch::new("cli-cache");
    let dir = scratch.path("ctx");
    let dir_s = dir.to_str().unwrap();
    let [a, b] = two_contexts(&dir);

    let out = spnn(&["cache", "path", "--cache-dir", dir_s]);
    assert_eq!(stdout_of(&out, "cache path").trim(), dir_s);

    let ls = stdout_of(&spnn(&["cache", "ls", "--cache-dir", dir_s]), "cache ls");
    for key in [&a, &b] {
        let line = ls
            .lines()
            .find(|l| l.starts_with(&key[..12]))
            .unwrap_or_else(|| panic!("ls must list {key}:\n{ls}"));
        assert!(line.contains(" ok "), "entry must list as ok: {line}");
        assert!(
            line.contains("seed:"),
            "summary carries the canonical: {line}"
        );
    }

    // A mistyped key fails the whole command and deletes nothing, even
    // next to a key that does match.
    let out = spnn(&["cache", "rm", &a[..8], "zzzz", "--cache-dir", dir_s]);
    assert!(!out.status.success(), "a key matching nothing must fail");
    assert_eq!(names_with_extension(&dir, "spnnctx").len(), 2);

    let out = spnn(&["cache", "rm", &a[..8], "--cache-dir", dir_s]);
    stdout_of(&out, "cache rm <prefix>");
    assert_eq!(
        names_with_extension(&dir, "spnnctx"),
        vec![format!("ctx-{b}.spnnctx")]
    );

    // gc keeps the newest entries within the bound.
    two_contexts(&dir);
    assert_eq!(names_with_extension(&dir, "spnnctx").len(), 2);
    let out = spnn(&["cache", "gc", "--max-entries", "1", "--cache-dir", dir_s]);
    stdout_of(&out, "cache gc");
    assert_eq!(names_with_extension(&dir, "spnnctx").len(), 1);

    let out = spnn(&["cache", "rm", "--all", "--cache-dir", dir_s]);
    stdout_of(&out, "cache rm --all");
    assert!(names_with_extension(&dir, "spnnctx").is_empty());
}

/// `spnn rowcache rm <prefix>` removes exactly the matching file.
#[test]
fn cli_rowcache_rm_by_prefix() {
    let scratch = Scratch::new("cli-rows");
    let dir = scratch.path("rows");
    let dir_s = dir.to_str().unwrap();
    let rc = Arc::new(RowCache::on_disk(dir.clone()));
    let config = EngineConfig {
        row_cache: Some(rc),
        ..EngineConfig::default()
    };
    run_scenario_with(&tiny_fig4(), &config, &ContextCache::in_memory()).expect("cached run");
    let before = names_with_extension(&dir, "spnnrow");
    assert_eq!(before.len(), 4, "three rows and one manifest");

    let victim = before
        .iter()
        .find(|n| n.starts_with("row-"))
        .expect("a row file")
        .clone();
    let prefix = &victim["row-".len().."row-".len() + 10];
    let out = spnn(&["rowcache", "rm", prefix, "--row-cache-dir", dir_s]);
    stdout_of(&out, "rowcache rm <prefix>");
    let after = names_with_extension(&dir, "spnnrow");
    let expected: Vec<String> = before.into_iter().filter(|n| *n != victim).collect();
    assert_eq!(after, expected);

    let out = spnn(&["rowcache", "rm", "0123xyz", "--row-cache-dir", dir_s]);
    assert!(!out.status.success(), "a key matching nothing must fail");
    assert_eq!(names_with_extension(&dir, "spnnrow"), expected);
}

/// `ls`, `rm --all` and `gc` agree on which files belong to a store: a
/// file without a `<prefix><32 hex>` stem is nobody's entry, so it is not
/// listed, not counted by `gc` and left alone by `rm --all`.
#[test]
fn cli_ls_rm_and_gc_share_one_membership_rule() {
    let scratch = Scratch::new("cli-members");
    let dir = scratch.path("ctx");
    let dir_s = dir.to_str().unwrap();
    let [a, _] = two_contexts(&dir);
    for stranger in ["x.spnnctx", "ctx-.spnnctx", "ctx-nothex.spnnctx", "README"] {
        std::fs::write(dir.join(stranger), b"not an entry").unwrap();
    }

    let ls = stdout_of(&spnn(&["cache", "ls", "--cache-dir", dir_s]), "cache ls");
    assert_eq!(ls.lines().count(), 3, "header plus two entries:\n{ls}");
    assert!(!ls.contains("corrupt"), "strangers are not entries:\n{ls}");

    let out = spnn(&["cache", "gc", "--max-entries", "5", "--cache-dir", dir_s]);
    stdout_of(&out, "cache gc");
    let log = String::from_utf8_lossy(&out.stderr);
    assert!(log.contains("kept 2 entries"), "{log}");

    // A key only a stranger could match is a mistyped key.
    let out = spnn(&["cache", "rm", "nothex", "--cache-dir", dir_s]);
    assert!(!out.status.success());
    let out = spnn(&["cache", "rm", &a[..4], "--all", "--cache-dir", dir_s]);
    stdout_of(&out, "cache rm --all");
    assert_eq!(
        names_with_extension(&dir, "spnnctx"),
        vec!["ctx-.spnnctx", "ctx-nothex.spnnctx", "x.spnnctx"]
    );
    assert!(dir.join("README").exists());
}
