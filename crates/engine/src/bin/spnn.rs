//! `spnn` — run declarative SPNN Monte-Carlo scenarios from the command
//! line. `spnn help` prints every command and its options.
//!
//! Each command declares its options once, in its flag table (`RUN`,
//! `SERVE`, ... below). One parse pass reads a command line against that
//! table and rejects, by name, an unknown option, an option that belongs
//! to another command, an option with no value and a repeated option;
//! the usage text renders its option sections from the same tables.
//!
//! Scenario scale knobs for presets come from the usual `SPNN_*`
//! environment variables (`SPNN_MC`, `SPNN_NTRAIN`, `SPNN_NTEST`,
//! `SPNN_EPOCHS`, `SPNN_SEED`, `SPNN_TARGET_MOE`, `SPNN_THREADS`);
//! `SPNN_CACHE_DIR` relocates the trained-context cache; `SPNN_LOG`
//! (error|warn|info|debug|trace|off) and `SPNN_LOG_FORMAT=json` shape the
//! structured stderr log. See `docs/scenario-format.md` for the spec
//! format, `docs/sharding.md` for the shard/merge workflow,
//! `docs/serving.md` for the HTTP service, `docs/observability.md` for
//! the metric catalog and `docs/architecture.md` for the engine
//! internals.

use spnn_engine::cache::{self, ContextCache};
use spnn_engine::exec::{
    install_signal_handlers, run_distributed, BreakerConfig, CancelToken, ExecContext, Executor,
    LocalExecutor, RemoteExecutor, SpawnExecutor, WeightSource, WorkerBreakers,
};
use spnn_engine::metrics::{self, Reading};
use spnn_engine::prelude::*;
use spnn_engine::rowcache::{self, RowCache};
use spnn_engine::runner::{run_scenario_shard_with, run_scenario_with, EngineError};
use spnn_engine::serve::{assemble_report, QuotaConfig, RequestBudget, Server};
use spnn_engine::store::{GcLimits, Store};
use spnn_engine::trace;
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE_HEAD: &str = "\
spnn — batched, adaptive Monte-Carlo simulation engine for silicon-photonic
neural networks (reproduces the DATE 2021 uncertainty-modeling paper).

USAGE:
    spnn run <SPEC>...       run scenario file(s) (`-` reads stdin); files
                             sharing a training fingerprint train once
    spnn run --preset NAME   run a built-in scenario (fig4, fig5, mesh,
                             quant, thermal) at SPNN_* env scale
    spnn merge <PART>...     merge shard partial reports into the final
                             report (bit-identical to an unsharded run)
    spnn serve               long-lived HTTP service: POST a spec to /run,
                             rows stream back as NDJSON as they complete;
                             one trained-context cache for the lifetime
    spnn assemble <NDJSON>   rebuild the report from a completed /run
                             stream (byte-identical to `spnn run`)
    spnn validate <SPEC>     parse a scenario and report its queue size
    spnn example [NAME]      print a built-in scenario file (default fig4)
    spnn cache ls            list cached trained contexts
    spnn cache rm <KEY>...   remove entries by (prefix of) key; --all wipes
    spnn cache gc            evict least-recently-written entries down to
                             --max-entries N and/or --max-bytes BYTES
    spnn cache path          print the resolved cache directory
    spnn rowcache ls|rm|gc|path
                             same verbs over the row-level result cache
                             (finished sweep points, shared across runs
                             and overlapping sweeps; docs/row-cache.md)
    spnn help                this text (so does --help or -h after
                             any command)
";

const USAGE_TAIL: &str = "
Sharding: `spnn run S --shards K --shard-index I` writes partial report I
of a K-way split; run all K (any machines, any order), then
`spnn merge part*.json` recombines them — bit-for-bit identical to the
unsharded `spnn run S`. `spnn run S --shards K --spawn` does all of that
on one machine in one command; `spnn run S --workers http://a:7901,...`
does it across remote workers. See docs/sharding.md.

Serving: `spnn serve` then `curl -N --data-binary @S http://HOST/run`
streams one NDJSON row per completed sweep point (`/run?format=csv`
streams CSV); `spnn assemble stream.ndjson` rebuilds the exact
`spnn run` report. `spnn serve --workers-from workers.txt` turns the
service into a coordinator over remote workers; SIGTERM drains
gracefully. GET /metrics exposes Prometheus text on every role — see
docs/serving.md and docs/observability.md.

Cached contexts are reused bit-exactly: a warm-cache run produces the very
same report as a cold one, it just skips training (and mesh synthesis).
The row cache extends that to finished sweep points: a warm re-run (or an
overlapping sweep) replays its cached rows byte-identically and computes
only the delta — `spnn rowcache ls` inspects, `--no-row-cache` opts out.

SCALE (env): SPNN_MC, SPNN_NTRAIN, SPNN_NTEST, SPNN_EPOCHS, SPNN_SEED,
SPNN_TARGET_MOE (e.g. SPNN_TARGET_MOE=0.01 enables adaptive early stop),
SPNN_THREADS, SPNN_CACHE_DIR, SPNN_ROW_CACHE_DIR.

LOGGING (env): SPNN_LOG sets the structured-log level on stderr
(error|warn|info|debug|trace|off; default info) and SPNN_LOG_FORMAT=json
switches the lines to JSON objects. Logs never touch stdout, and reports
are byte-identical at every level. See docs/observability.md.
";

/// One option a command accepts: `"--name"` for a bare flag or
/// `"--name METAVAR"` for one that takes a value, and its help text.
#[derive(PartialEq)]
struct Opt(&'static str, &'static str);

impl Opt {
    fn name(&self) -> &'static str {
        self.0.split(' ').next().unwrap_or_default()
    }

    fn metavar(&self) -> Option<&'static str> {
        self.0.split_once(' ').map(|(_, metavar)| metavar)
    }
}

const FORMAT: Opt = Opt("--format csv|json", "output format (default csv)");
const OUT: Opt = Opt("--out PATH", "write output to PATH (default stdout)");
const QUIET: Opt = Opt("--quiet", "suppress progress logging on stderr");
const LOG_JSON: Opt = Opt(
    "--log-json",
    "emit structured stderr logs as JSON objects (one per line) instead of key=value text",
);
const THREADS: Opt = Opt(
    "--threads N",
    "worker threads per run: the test split, then each sweep point (default: $SPNN_THREADS, \
     else all cores; results are identical for any thread count)",
);
const KERNEL: Opt = Opt(
    "--kernel reference|fma",
    "compute-kernel profile (default reference). reference is the paper-faithful scalar path; \
     fma fuses multiply-adds with runtime-selected SIMD (AVX-512/AVX2+FMA/scalar, identical \
     bits on every tier) — each profile is bit-exactly reproducible under its own \
     fingerprint, and partials from different profiles never merge",
);
const NO_CACHE: Opt = Opt("--no-cache", "skip the on-disk trained-context cache");
const CACHE_DIR: Opt = Opt(
    "--cache-dir DIR",
    "cache location (default: `spnn cache path`)",
);
const NO_ROW_CACHE: Opt = Opt("--no-row-cache", "skip the row-level result cache entirely");
const ROW_CACHE_DIR: Opt = Opt(
    "--row-cache-dir DIR",
    "row-cache location (default: `spnn rowcache path`)",
);
const ALL: Opt = Opt("--all", "with rm: remove every entry");
const MAX_ENTRIES: Opt = Opt(
    "--max-entries N",
    "with gc: keep at most the N most recently written entries",
);
const MAX_BYTES: Opt = Opt(
    "--max-bytes BYTES",
    "with gc: keep at most BYTES of entries (suffixes K/M/G allowed)",
);

#[rustfmt::skip]
const RUN: &[Opt] = &[
    Opt("--preset NAME", "run a built-in scenario instead of SPEC files"),
    FORMAT,
    Opt("--out PATH", "write output to PATH (default stdout); with several SPECs, PATH is a \
        directory and each scenario writes <name>.<format> inside it"),
    THREADS, KERNEL, QUIET, LOG_JSON,
    Opt("--stats", "after the run, print a phase breakdown and the engine counters \
        (training, cache, Monte-Carlo, shard dispatch) on stderr"),
    NO_CACHE, CACHE_DIR, NO_ROW_CACHE, ROW_CACHE_DIR,
    Opt("--shards K", "split the run into K deterministic shards and execute only one of \
        them (single SPEC only; the output is a JSON partial report)"),
    Opt("--shard-index I", "which shard to execute (0-based, requires --shards)"),
    Opt("--spawn", "with --shards K: launch all K shard processes locally, merge their \
        partials, and emit the final report (same as --exec spawn)"),
    Opt("--exec local|spawn", "with --shards K: run every shard through the named executor \
        (local = threads in-process, spawn = child processes) and emit the merged final report"),
    Opt("--workers URL,URL,...", "dispatch one shard per remote `spnn serve` worker (POST \
        /shard), merge partials as they arrive, and emit the final report; a failed worker's \
        shard is retried on another worker (--shards overrides the shard count, except with \
        --local-peers, --weights-from or --steal, which plan one slice per peer)"),
    Opt("--local-peers N", "with --workers: run N in-process peers next to the remote \
        workers, all in one plan"),
    Opt("--weights-from SRC", "with --workers: size each peer's round-space slice by \
        capacity. SRC is equal (default), healthz (GET /healthz core counts), metrics \
        (healthz seeded, refined by dispatch-duration histograms), or an explicit W,W,... list"),
    Opt("--steal", "with --workers: a drained peer re-dispatches the slowest outstanding \
        slice; overlapping speculative partials merge bit-identically"),
];

#[rustfmt::skip]
const SERVE: &[Opt] = &[
    Opt("--addr HOST:PORT", "listen address (default 127.0.0.1:7878)"),
    Opt("--workers N", "concurrent connection handlers (default 4)"),
    Opt("--workers-from FILE", "coordinator mode: dispatch each POST /run across the worker \
        URLs listed in FILE (one per line, # comments), streaming rows as shards complete"),
    Opt("--local-peers N", "coordinator mode: also run N in-process peers alongside the \
        remote workers"),
    Opt("--weights-from SRC", "coordinator mode: capacity-weighted slices (equal | healthz | \
        metrics | W,W,...)"),
    Opt("--steal", "coordinator mode: drained peers re-dispatch the slowest outstanding slice"),
    THREADS, KERNEL, QUIET, LOG_JSON, NO_CACHE, CACHE_DIR, NO_ROW_CACHE, ROW_CACHE_DIR,
    Opt("--queue-depth N", "admission queue slots (default 64); overflow is shed with 429 + \
        Retry-After"),
    Opt("--queue-wait SECS", "max time a connection may wait queued before it is shed with \
        429 (default 5)"),
    Opt("--read-timeout SECS", "socket read budget per request (default 30; a stalled \
        client gets 408)"),
    Opt("--write-timeout SECS", "socket write budget per response (default 60)"),
    Opt("--max-points N", "per-request budget: reject/abort runs past N sweep points (0 = \
        unlimited, the default)"),
    Opt("--max-iterations N", "... past N Monte-Carlo iterations total"),
    Opt("--max-rounds N", "... past N adaptive rounds total"),
    Opt("--quota-concurrent N", "per-client cap on in-flight /run + /shard requests (by \
        X-Client-Id, else peer IP)"),
    Opt("--quota-rate R", "per-client request rate (tokens/second; 0 = unlimited)"),
    Opt("--quota-burst B", "per-client burst size (default: R, min 1)"),
    Opt("--breaker-failures N", "coordinator: consecutive worker failures that open its \
        circuit breaker (default 3)"),
    Opt("--breaker-cooldown SECS", "how long an open breaker skips its worker before a \
        half-open /healthz probe (default 10)"),
];

type Handler = fn(&Args) -> Result<(), String>;

/// Every command: its name, its flag table and its handler.
const COMMANDS: &[(&str, &[Opt], Handler)] = &[
    ("run", RUN, cmd_run),
    ("merge", &[FORMAT, OUT, QUIET], cmd_merge),
    ("serve", SERVE, cmd_serve),
    ("assemble", &[FORMAT, OUT, QUIET], cmd_assemble),
    ("validate", &[KERNEL, QUIET], cmd_validate),
    ("example", &[QUIET], cmd_example),
    (
        "cache",
        &[CACHE_DIR, ALL, MAX_ENTRIES, MAX_BYTES, QUIET],
        |args| cmd_store(&cache::STORE, "--cache-dir", args),
    ),
    (
        "rowcache",
        &[ROW_CACHE_DIR, ALL, MAX_ENTRIES, MAX_BYTES, QUIET],
        |args| cmd_store(&rowcache::STORE, "--row-cache-dir", args),
    ),
];

/// The full usage text: the prose head, one option section per command
/// rendered from its table, and the prose tail. An option shared with an
/// earlier section reads `as for <command>`.
fn usage() -> String {
    let mut text = String::from(USAGE_HEAD);
    let mut seen: Vec<(&Opt, &str)> = Vec::new();
    for &(command, table, _) in COMMANDS {
        text += &format!("\nOPTIONS ({command}):\n");
        for opt in table {
            let help = match seen.iter().find(|(o, _)| *o == opt) {
                Some((_, first)) => vec![format!("as for {first}")],
                None => {
                    seen.push((opt, command));
                    wrap(opt.1, 49)
                }
            };
            // Help text starts at column 29 and wraps at column 78.
            text += &format!("    {:<24} {}\n", opt.0, help.join(&format!("\n{:29}", "")));
        }
    }
    text + USAGE_TAIL
}

/// Greedy word wrap to `width` characters per line.
fn wrap(text: &str, width: usize) -> Vec<String> {
    let mut lines = vec![String::new()];
    for word in text.split_whitespace() {
        let line = lines.last_mut().expect("never empty");
        if line.is_empty() {
            line.push_str(word);
        } else if line.chars().count() + 1 + word.chars().count() <= width {
            line.push(' ');
            line.push_str(word);
        } else {
            lines.push(word.to_string());
        }
    }
    lines
}

/// A command line read against one command's flag table.
struct Args<'a> {
    table: &'static [Opt],
    positionals: Vec<&'a str>,
    /// Each option given, with its value (a bare flag's value is its name).
    given: Vec<(&'static Opt, &'a str)>,
}

/// Reads the arguments after `command` against its `table`: every
/// `--option` must be in the table, appear once, and (if it takes one)
/// be followed by a value; everything else is a positional.
fn parse<'a>(command: &str, table: &'static [Opt], args: &'a [String]) -> Result<Args<'a>, String> {
    let mut parsed = Args {
        table,
        positionals: Vec::new(),
        given: Vec::new(),
    };
    let mut rest = args.iter().map(String::as_str);
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            parsed.positionals.push(arg);
            continue;
        }
        let Some(opt) = table.iter().find(|o| o.name() == arg) else {
            let owners: Vec<&str> = COMMANDS
                .iter()
                .filter(|(_, t, _)| t.iter().any(|o| o.name() == arg))
                .map(|(name, _, _)| *name)
                .collect();
            return Err(if owners.is_empty() {
                format!("unknown option {arg}")
            } else {
                format!(
                    "option {arg} is for `spnn {}`, not `spnn {command}`",
                    owners.join("|")
                )
            });
        };
        if parsed.has(opt.name()) {
            return Err(format!("option {arg} given twice"));
        }
        let value = match opt.metavar() {
            None => arg,
            Some(metavar) => match rest.next() {
                Some(v) if !v.starts_with("--") => v,
                _ => return Err(format!("option {arg} needs a value ({metavar})")),
            },
        };
        parsed.given.push((opt, value));
    }
    Ok(parsed)
}

impl<'a> Args<'a> {
    fn lookup(&self, name: &str) -> Option<(&'static Opt, &'a str)> {
        debug_assert!(
            self.table.iter().any(|o| o.name() == name),
            "{name} is not in this command's flag table"
        );
        self.given.iter().copied().find(|(o, _)| o.name() == name)
    }

    fn has(&self, name: &str) -> bool {
        self.lookup(name).is_some()
    }

    fn value(&self, name: &str) -> Option<&'a str> {
        self.lookup(name).map(|(_, v)| v)
    }

    /// The option's value through `parse`; a value it rejects is an error
    /// naming the option and its metavar.
    fn parsed<T>(
        &self,
        name: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        let Some((opt, v)) = self.lookup(name) else {
            return Ok(None);
        };
        parse(v).map(Some).ok_or_else(|| {
            let metavar = opt.metavar().unwrap_or_default();
            format!("invalid {name} value {v:?} (expected {metavar})")
        })
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.parsed(name, |v| v.parse().ok())
    }
}

fn positive(v: &str) -> Option<usize> {
    v.parse().ok().filter(|&n| n > 0)
}

/// A duration in (possibly fractional) seconds.
fn seconds(v: &str) -> Option<Duration> {
    v.parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s >= 0.0)
        .map(Duration::from_secs_f64)
}

/// Parses a byte count with an optional binary K/M/G suffix (`64M`).
fn parse_bytes(v: &str) -> Option<u64> {
    let (digits, multiplier) = match v.as_bytes().last()? {
        b'k' | b'K' => (&v[..v.len() - 1], 1u64 << 10),
        b'm' | b'M' => (&v[..v.len() - 1], 1 << 20),
        b'g' | b'G' => (&v[..v.len() - 1], 1 << 30),
        _ => (v, 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(multiplier)
}

/// The kernel profile: `--kernel reference|fma` (default reference, the
/// historical scalar path — reports are byte-identical with or without
/// the flag).
fn kernel(args: &Args) -> Result<KernelProfile, String> {
    Ok(args
        .value("--kernel")
        .map(str::parse)
        .transpose()?
        .unwrap_or_default())
}

/// `--format csv|json` (default csv).
fn format<'a>(args: &Args<'a>) -> Result<&'a str, String> {
    match args.value("--format").unwrap_or("csv") {
        f @ ("csv" | "json") => Ok(f),
        f => Err(format!("unknown format {f:?} (csv|json)")),
    }
}

/// A store's directory: its `--cache-dir`-style option, else the store's
/// default chain (environment variable → XDG → `~/.cache/spnn`).
fn store_dir(args: &Args, option: &str, store: &Store) -> PathBuf {
    args.value(option)
        .map(PathBuf::from)
        .unwrap_or_else(|| store.default_dir())
}

/// The engine configuration `run` and `serve` share. Worker threads:
/// `--threads` wins; `SPNN_THREADS` is the environment fallback the CI
/// determinism cross-check drives (results are identical for any value,
/// only wall-clock changes).
fn engine_config(args: &Args) -> Result<EngineConfig, String> {
    let threads = match args.parsed("--threads", positive)? {
        None => std::env::var("SPNN_THREADS")
            .ok()
            .and_then(|v| positive(&v)),
        t => t,
    };
    Ok(EngineConfig {
        threads,
        kernel: kernel(args)?,
        verbose: !args.has("--quiet"),
        cache_dir: (!args.has("--no-cache")).then(|| store_dir(args, "--cache-dir", &cache::STORE)),
        metrics: metrics::global().clone(),
        row_cache: (!args.has("--no-row-cache")).then(|| {
            Arc::new(RowCache::on_disk(store_dir(
                args,
                "--row-cache-dir",
                &rowcache::STORE,
            )))
        }),
    })
}

/// `--local-peers N` and `--weights-from SRC`, shared by `run --workers`
/// and a coordinator `serve`.
fn peer_options(args: &Args) -> Result<(usize, WeightSource), String> {
    let local_peers = args.number("--local-peers")?.unwrap_or(0);
    let weights = args
        .value("--weights-from")
        .map(WeightSource::parse)
        .transpose()?
        .unwrap_or(WeightSource::Equal);
    Ok((local_peers, weights))
}

/// Applies the CLI logging flags before any engine work runs: `--quiet`
/// drops the structured-log level to `warn` unless `SPNN_LOG` explicitly
/// chose one, and `--log-json` switches the stderr lines to JSON.
fn init_logging(args: &Args) {
    if args.has("--quiet") && !trace::verbosity_from_env() {
        trace::set_verbosity(Some(trace::Level::Warn));
    }
    if args.has("--log-json") {
        trace::set_format(trace::Format::Json);
    }
}

/// `--stats`: the end-of-run breakdown read from the process-global
/// metrics registry — wall-clock per engine phase, then every counter
/// the run touched. Stderr only; stdout stays reserved for reports.
fn print_run_stats() {
    let snapshot = metrics::global().snapshot();
    eprintln!("[spnn] phase breakdown (--stats):");
    eprintln!(
        "[spnn]   {:<12} {:>7} {:>10} {:>10}",
        "phase", "calls", "total s", "mean s"
    );
    for s in &snapshot {
        if s.name != "spnn_phase_duration_seconds" {
            continue;
        }
        if let Reading::Histogram { sum, count, .. } = &s.value {
            let phase = s
                .labels
                .iter()
                .find(|(k, _)| k == "phase")
                .map_or("?", |(_, v)| v.as_str());
            let mean = if *count > 0 { sum / *count as f64 } else { 0.0 };
            eprintln!("[spnn]   {phase:<12} {count:>7} {sum:>10.3} {mean:>10.3}");
        }
    }
    eprintln!("[spnn] counters:");
    for s in &snapshot {
        let Reading::Counter(v) = &s.value else {
            continue;
        };
        let labels = if s.labels.is_empty() {
            String::new()
        } else {
            format!(
                "{{{}}}",
                s.labels
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(",")
            )
        };
        eprintln!("[spnn]   {:<44} {v:>10}", format!("{}{labels}", s.name));
    }
}

fn render(format: &str, report: &EngineReport) -> String {
    match format {
        "json" => to_json(report),
        _ => to_csv(report),
    }
}

fn write_report(path: &Path, body: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    std::fs::write(path, body).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("[spnn] wrote {}", path.display());
    Ok(())
}

/// Writes `body` to `--out`, else to stdout.
fn emit(args: &Args, body: &str) -> Result<(), String> {
    match args.value("--out") {
        Some(path) => write_report(Path::new(path), body),
        None => {
            print!("{body}");
            Ok(())
        }
    }
}

/// Reduces a scenario name to a safe file stem: path separators and other
/// non-portable characters become `_`, and an empty result falls back to
/// `scenario`.
fn sanitize_file_stem(name: &str) -> String {
    let stem: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '_') {
                c
            } else {
                '_'
            }
        })
        .collect();
    if stem.chars().all(|c| c == '.' || c == '_') {
        "scenario".to_string()
    } else {
        stem
    }
}

fn human_size(bytes: u64) -> String {
    if bytes >= 1024 * 1024 {
        format!("{:.1} MiB", bytes as f64 / (1024.0 * 1024.0))
    } else if bytes >= 1024 {
        format!("{:.1} KiB", bytes as f64 / 1024.0)
    } else {
        format!("{bytes} B")
    }
}

fn read_spec_file(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("reading stdin: {e}"))?;
        Ok(buf)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
    }
}

fn preset(name: &str) -> Result<ScenarioSpec, String> {
    presets::by_name(name, &RunScale::from_env()).ok_or_else(|| {
        format!(
            "unknown preset {name:?} (have: {})",
            presets::PRESET_NAMES.join(", ")
        )
    })
}

fn load_specs(args: &Args) -> Result<Vec<ScenarioSpec>, String> {
    match (args.value("--preset"), args.positionals.as_slice()) {
        (Some(_), [path, ..]) => Err(format!(
            "--preset replaces the scenario files; drop --preset or {path}"
        )),
        (Some(name), []) => Ok(vec![preset(name)?]),
        (None, []) => Err("missing scenario file (or --preset NAME)".to_string()),
        (None, paths) => paths
            .iter()
            .map(|path| {
                let text = read_spec_file(path)?;
                ScenarioSpec::parse(&text).map_err(|e| format!("{path}: {e}"))
            })
            .collect(),
    }
}

fn cmd_run(args: &Args) -> Result<(), String> {
    init_logging(args);
    let specs = load_specs(args)?;
    let format = format(args)?;
    let mut config = engine_config(args)?;
    // The shared cache carries the directory.
    let cache = ContextCache::new(config.cache_dir.take());
    // Surface the resolved profile and the CPU dispatch tier wherever the
    // run's metrics end up (`--stats`, scrapes of a long-lived process).
    config
        .metrics
        .gauge(
            "spnn_kernel_profile",
            "Active kernel profile and the CPU dispatch tier selected for it (info gauge).",
            &[
                ("profile", config.kernel.as_str()),
                ("tier", detected_tier().as_str()),
            ],
        )
        .set(1);
    // One process, one run: the cache's counters belong in the global
    // registry so `--stats` shows hits/trains next to the phase table.
    cache.register_metrics(metrics::global());
    if let Some(rc) = &config.row_cache {
        rc.register_metrics(metrics::global());
    }

    // Distributed / sharded execution. All the fan-out spellings drive
    // the same library seam (`spnn_engine::exec`): `--workers` dispatches
    // shards to remote `spnn serve` workers, `--shards K --spawn` (or
    // `--exec spawn`) launches child processes, `--exec local` fans out
    // in-process threads — each merged as partials arrive, byte-identical
    // to the unsharded run. `--shards K --shard-index I` runs one slice
    // and emits a JSON partial report for `spnn merge`.
    let spawn = args.has("--spawn");
    let exec_kind = args.value("--exec");
    let workers = args.value("--workers");
    let shard_index = args.value("--shard-index");
    let shards = args.parsed("--shards", positive)?;
    if shards.is_none() {
        if spawn {
            return Err("--spawn requires --shards K".to_string());
        }
        if exec_kind.is_some() {
            return Err("--exec requires --shards K".to_string());
        }
        if shard_index.is_some() && workers.is_none() {
            return Err("--shard-index requires --shards".to_string());
        }
    }
    // The fleet flags plan one slice per peer of a `--workers` run, so
    // they need `--workers` and leave no shard count to set.
    let fleet_flags = ["--steal", "--weights-from", "--local-peers"];
    if let Some(flag) = fleet_flags.into_iter().find(|f| args.has(f)) {
        if workers.is_none() {
            return Err(format!(
                "{flag} only applies to distributed runs (--workers)"
            ));
        }
        if shards.is_some() {
            return Err(format!(
                "--shards conflicts with {flag}: a fleet plans one slice per peer"
            ));
        }
    }
    if (workers.is_some() || shards.is_some()) && specs.len() != 1 {
        return Err("sharded and distributed runs take exactly one scenario".to_string());
    }

    let executor: Option<(Box<dyn Executor>, usize)> = match (workers, shards) {
        (Some(workers), _) => {
            if spawn || exec_kind.is_some() || shard_index.is_some() {
                return Err(
                    "--workers picks the remote executor; drop --spawn/--exec/--shard-index"
                        .to_string(),
                );
            }
            let workers: Vec<String> = workers
                .split(',')
                .map(|w| w.trim().to_string())
                .filter(|w| !w.is_empty())
                .collect();
            if workers.is_empty() {
                return Err("--workers needs at least one URL".to_string());
            }
            let (local_peers, weights_from) = peer_options(args)?;
            let shards = shards.unwrap_or(workers.len() + local_peers);
            // Default circuit breakers: a worker that keeps failing is
            // skipped for a cooldown instead of eating a retry per shard.
            let breakers = Arc::new(WorkerBreakers::new(
                BreakerConfig::default(),
                &config.metrics,
            ));
            let executor = RemoteExecutor::new(workers)
                .with_breakers(breakers)
                .with_local_peers(local_peers)
                .with_weights(weights_from)
                .with_steal(args.has("--steal"));
            Some((Box::new(executor), shards))
        }
        (None, Some(shards)) => {
            let executor: Option<Box<dyn Executor>> = match (exec_kind, spawn) {
                (Some("local"), true) => {
                    return Err(
                        "--exec local conflicts with --spawn (--spawn is --exec spawn)".to_string(),
                    );
                }
                (Some("spawn"), _) | (None, true) => {
                    let exe = std::env::current_exe()
                        .map_err(|e| format!("locating the spnn binary: {e}"))?;
                    Some(Box::new(SpawnExecutor { exe }))
                }
                (Some("local"), false) => Some(Box::new(LocalExecutor)),
                (Some(other), _) => {
                    return Err(format!("unknown executor {other:?} (local|spawn)"));
                }
                (None, false) => None,
            };
            executor.map(|e| (e, shards))
        }
        (None, None) => None,
    };
    if let Some((executor, shards)) = executor {
        if shard_index.is_some() {
            return Err("--spawn launches every shard itself; drop --shard-index".to_string());
        }
        return run_with_executor(
            &specs[0],
            executor.as_ref(),
            shards,
            format,
            &config,
            &cache,
            args,
        );
    }

    if let Some(shards) = shards {
        let Some(index) = args.number::<usize>("--shard-index")? else {
            return Err(
                "--shards requires --shard-index (or --spawn), --exec local|spawn, or --workers"
                    .to_string(),
            );
        };
        if index >= shards {
            return Err(format!("shard index {index} out of range (0..{shards})"));
        }
        if args.value("--format").is_some_and(|f| f != "json") {
            return Err(
                "partial reports are always JSON; drop --format or use --format json".to_string(),
            );
        }
        let partial = run_scenario_shard_with(&specs[0], &config, &cache, shards, index)
            .map_err(|e| e.to_string())?;
        eprintln!(
            "[spnn] shard {index}/{shards} of {}: {} block(s), {} MC iteration(s), fingerprint {}",
            partial.scenario,
            partial.points.len(),
            partial
                .points
                .iter()
                .map(|p| p.samples.len())
                .sum::<usize>(),
            &partial.queue_fingerprint[..12],
        );
        if args.has("--stats") {
            print_run_stats();
        }
        return emit(args, &partial.to_json());
    }

    // --out names a directory when several scenarios run, when it already
    // is one, or when it is spelled like one — a single-spec run into an
    // existing directory must not fail after the campaign completes.
    let out_dir = args
        .value("--out")
        .filter(|p| specs.len() > 1 || p.ends_with('/') || Path::new(p).is_dir());
    if let Some(dir) = out_dir {
        // Fail on an unusable output directory *before* the campaign, not
        // after the first scenario's Monte-Carlo run has completed.
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("--out {dir}: not a usable directory: {e}"))?;
    }

    let started = std::time::Instant::now();
    let mut reports = Vec::with_capacity(specs.len());
    let mut used_stems = std::collections::HashSet::new();
    for spec in &specs {
        let report = run_scenario_with(spec, &config, &cache).map_err(|e| match e {
            EngineError::Invalid(m) => format!("invalid scenario: {m}"),
            e => e.to_string(),
        })?;
        if let Some(dir) = out_dir {
            // Write each report as soon as its scenario finishes: a
            // failure in a later scenario must not discard completed
            // work. Scenario names come from user-written spec files, so
            // sanitize them — a name can neither escape the output
            // directory nor silently overwrite a sibling report.
            let base = sanitize_file_stem(&report.scenario);
            let mut stem = base.clone();
            let mut i = 2;
            while !used_stems.insert(stem.clone()) {
                stem = format!("{base}-{i}");
                i += 1;
            }
            let file = Path::new(dir).join(format!("{stem}.{format}"));
            write_report(&file, &render(format, &report))?;
        }
        reports.push(report);
    }
    let elapsed = started.elapsed();
    let stats = cache.stats();
    let total_points: usize = reports.iter().map(|r| r.rows.len()).sum();
    let total_iters: usize = reports.iter().map(|r| r.total_iterations()).sum();
    eprintln!(
        "[spnn] {} scenario(s): {} points, {} MC iterations in {:.2?} ({:.0} iters/s); \
         contexts: {} trained, {} reused",
        reports.len(),
        total_points,
        total_iters,
        elapsed,
        total_iters as f64 / elapsed.as_secs_f64().max(1e-9),
        stats.trains,
        stats.mem_hits + stats.disk_hits,
    );
    for report in &reports {
        for t in &report.topologies {
            eprintln!(
                "[spnn]   {}/{}: software acc {:.2}%, nominal hardware acc {:.2}%",
                report.scenario,
                t.topology,
                t.software_accuracy * 100.0,
                t.nominal_accuracy * 100.0
            );
        }
    }
    if args.has("--stats") {
        print_run_stats();
    }
    // A directory was written incrementally above; otherwise `--out` is a
    // file (so there is one report) or every report goes to stdout.
    if out_dir.is_none() {
        for report in &reports {
            emit(args, &render(format, report))?;
        }
    }
    Ok(())
}

/// Runs one scenario as a `shards`-way split through `executor` — the
/// one driver behind `--exec local`, `--spawn`, and `--workers`. The
/// library merges partials as they arrive (`run_distributed`); rows
/// are logged in prefix order as their coverage becomes final, and the
/// emitted report is byte-identical to the unsharded `spnn run SPEC`
/// (CI-enforced for every executor).
fn run_with_executor(
    spec: &ScenarioSpec,
    executor: &dyn Executor,
    shards: usize,
    format: &str,
    config: &EngineConfig,
    cache: &ContextCache,
    args: &Args,
) -> Result<(), String> {
    let cancel = CancelToken::new();
    let ctx = ExecContext {
        config,
        cache,
        cancel: &cancel,
    };
    let started = std::time::Instant::now();
    let verbose = config.verbose;
    let mut total_points = 0usize;
    let report = run_distributed(spec, executor, shards, &ctx, &mut |event| match event {
        StreamEvent::Started {
            scenario,
            total_points: n,
        } => {
            total_points = n;
            if verbose {
                eprintln!(
                    "[spnn] {scenario}: dispatching {shards} shard(s) via the {} executor",
                    executor.name()
                );
            }
        }
        StreamEvent::Row { index, row } if verbose => {
            eprintln!(
                "[spnn] row {}/{total_points} final: {}/{} → {:.4} ({} iters)",
                index + 1,
                row.topology,
                row.labels
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(" "),
                row.mean,
                row.iterations
            );
        }
        _ => {}
    })
    .map_err(|e| e.to_string())?;
    eprintln!(
        "[spnn] {}: {} shard(s) via {} executor merged in {:.2?}: {} point(s), {} MC iteration(s)",
        report.scenario,
        shards,
        executor.name(),
        started.elapsed(),
        report.rows.len(),
        report.total_iterations(),
    );
    if args.has("--stats") {
        print_run_stats();
    }
    emit(args, &render(format, &report))
}

/// Merges shard partial reports into the final report.
fn cmd_merge(args: &Args) -> Result<(), String> {
    let paths = &args.positionals;
    if paths.is_empty() {
        return Err("merge needs at least one partial report".to_string());
    }
    let format = format(args)?;
    // Stream the files through the incremental merge one at a time, so
    // peak memory is one parsed partial plus the retained blocks — not
    // the whole set twice.
    let mut merge = MergeState::new();
    for path in paths {
        let text = read_spec_file(path)?;
        let partial = PartialReport::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        merge.push(partial).map_err(|e| format!("{path}: {e}"))?;
    }
    let report = merge.finalize().map_err(|e| e.to_string())?;
    eprintln!(
        "[spnn] merged {} partial(s) of {}: {} point(s), {} MC iteration(s)",
        paths.len(),
        report.scenario,
        report.rows.len(),
        report.total_iterations(),
    );
    emit(args, &render(format, &report))
}

/// Reads a coordinator worker list: one `http://host:port` URL per line,
/// blank lines and `#` comments skipped.
fn read_worker_list(path: &str) -> Result<Vec<String>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading worker list {path}: {e}"))?;
    let workers: Vec<String> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect();
    if workers.is_empty() {
        return Err(format!("worker list {path} names no workers"));
    }
    Ok(workers)
}

/// `spnn serve`: bind the scenario service and run until killed (or
/// gracefully drained by SIGTERM/SIGINT).
fn cmd_serve(args: &Args) -> Result<(), String> {
    init_logging(args);
    let addr = args.value("--addr").unwrap_or("127.0.0.1:7878");
    let remote_workers = args
        .value("--workers-from")
        .map(read_worker_list)
        .transpose()?
        .unwrap_or_default();
    let steal = args.has("--steal");
    let (local_peers, weights_from) = peer_options(args)?;
    if remote_workers.is_empty()
        && (steal || local_peers > 0 || weights_from != WeightSource::Equal)
    {
        return Err(
            "--steal/--weights-from/--local-peers need coordinator mode (--workers-from)"
                .to_string(),
        );
    }
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        workers: args
            .parsed("--workers", positive)?
            .unwrap_or(defaults.workers),
        // Server::bind swaps in its own metrics registry so every
        // instrument lands behind this server's GET /metrics.
        engine: engine_config(args)?,
        remote_workers: remote_workers.clone(),
        queue_depth: args
            .number("--queue-depth")?
            .unwrap_or(defaults.queue_depth),
        queue_wait: args
            .parsed("--queue-wait", seconds)?
            .unwrap_or(defaults.queue_wait),
        read_timeout: args
            .parsed("--read-timeout", seconds)?
            .unwrap_or(defaults.read_timeout),
        write_timeout: args
            .parsed("--write-timeout", seconds)?
            .unwrap_or(defaults.write_timeout),
        budget: RequestBudget {
            max_points: args.number("--max-points")?.unwrap_or_default(),
            max_iterations: args.number("--max-iterations")?.unwrap_or_default(),
            max_rounds: args.number("--max-rounds")?.unwrap_or_default(),
        },
        quota: QuotaConfig {
            max_concurrent: args.number("--quota-concurrent")?.unwrap_or_default(),
            rate: args.number("--quota-rate")?.unwrap_or_default(),
            burst: args.number("--quota-burst")?.unwrap_or_default(),
        },
        breaker: BreakerConfig {
            failure_threshold: args
                .number("--breaker-failures")?
                .unwrap_or(defaults.breaker.failure_threshold),
            cooldown: args
                .parsed("--breaker-cooldown", seconds)?
                .unwrap_or(defaults.breaker.cooldown),
        },
        steal,
        weights_from,
        local_peers,
    };
    let verbose = config.engine.verbose;
    let server = Server::bind(addr, config).map_err(|e| format!("binding {addr}: {e}"))?;
    let graceful = install_signal_handlers();
    if let Ok(local) = server.local_addr() {
        eprintln!("[spnn] serving on http://{local}");
        eprintln!("[spnn]   POST /run          stream a scenario's rows as NDJSON (?format=csv)");
        eprintln!("[spnn]   POST /shard        run one shard, return its partial report");
        eprintln!("[spnn]   GET  /healthz      liveness: role, version, uptime, run counters");
        eprintln!("[spnn]   GET  /cache/stats  trained-context cache counters");
        eprintln!("[spnn]   GET  /metrics      Prometheus text exposition (all of the above)");
        if !remote_workers.is_empty() {
            eprintln!(
                "[spnn] coordinator over {} worker(s): {}",
                remote_workers.len(),
                remote_workers.join(", ")
            );
        }
        if graceful && verbose {
            eprintln!("[spnn] SIGTERM/SIGINT drains in-flight streams, then exits");
        }
    }
    server.run().map_err(|e| format!("serving {addr}: {e}"))?;
    if verbose {
        eprintln!("[spnn] drained; bye");
    }
    Ok(())
}

/// `spnn assemble`: rebuild the final report from a saved `/run` stream.
fn cmd_assemble(args: &Args) -> Result<(), String> {
    let [path] = args.positionals.as_slice() else {
        return Err("assemble takes exactly one NDJSON stream file (`-` reads stdin)".to_string());
    };
    let format = format(args)?;
    let text = read_spec_file(path)?;
    let report = assemble_report(&text).map_err(|e| format!("{path}: {e}"))?;
    eprintln!(
        "[spnn] assembled {}: {} point(s), {} MC iteration(s)",
        report.scenario,
        report.rows.len(),
        report.total_iterations(),
    );
    emit(args, &render(format, &report))
}

fn cmd_validate(args: &Args) -> Result<(), String> {
    let [path] = args.positionals.as_slice() else {
        return Err("validate takes exactly one scenario file (`-` reads stdin)".to_string());
    };
    let kernel = kernel(args)?;
    let text = read_spec_file(path)?;
    let spec = ScenarioSpec::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    // Compiling the zonal queue needs the mapped network; report the
    // statically-known grid instead of training one here.
    let effects_points = spec.effects.quantization_bits.len()
        * spec.effects.thermal_kappa.len()
        * spec.effects.mzi_loss_db.len();
    let plan_points = match spec.plan {
        PlanKind::Global | PlanKind::GlobalNoSigma => {
            format!("{}", spec.sweep.modes.len() * spec.sweep.sigmas.len())
        }
        PlanKind::Zonal => format!(
            "{} stage(s) × layers × zones (resolved at run time)",
            spec.zonal.stages.len()
        ),
    };
    println!("scenario:    {}", spec.name);
    println!("plan:        {:?}", spec.plan);
    println!("topologies:  {}", spec.topologies.len());
    println!("effects:     {effects_points} grid point(s)");
    println!("plan axes:   {plan_points}");
    println!(
        "budget:      <= {} iterations/point (min {}, target moe {})",
        spec.iterations, spec.min_iterations, spec.target_moe
    );
    let fp = spnn_engine::Fingerprint::of_spec(&spec);
    println!("fingerprint: {} ({})", fp.short(), fp.canonical());
    println!(
        "queue fp:    {} (shard partials must match to merge)",
        spnn_engine::shard::queue_fingerprint_with(&spec, kernel)
    );
    println!(
        "kernel:      {kernel} (cpu tier: {}; partials are profile-scoped)",
        detected_tier()
    );
    println!("ok");
    Ok(())
}

fn cmd_example(args: &Args) -> Result<(), String> {
    let name = match args.positionals.as_slice() {
        [] => "fig4",
        [name] => name,
        _ => return Err("example takes at most one preset name".to_string()),
    };
    print!("{}", preset(name)?.to_text());
    Ok(())
}

/// The verbs of `spnn cache` and `spnn rowcache`, each with the options
/// it takes besides the store's directory option and `--quiet`.
const STORE_VERBS: &[(&str, &[Opt])] = &[
    ("path", &[]),
    ("ls", &[]),
    ("rm", &[ALL]),
    ("gc", &[MAX_ENTRIES, MAX_BYTES]),
];

/// `spnn cache|rowcache {ls,rm,gc,path}` over the store described by
/// `store`, rooted at its `dir_option` directory (see `docs/row-cache.md`
/// for the row store). An option of another verb is rejected by name.
fn cmd_store(store: &Store, dir_option: &str, args: &Args) -> Result<(), String> {
    let name = store.name;
    if let Some(&(verb, own)) = STORE_VERBS
        .iter()
        .find(|(verb, _)| args.positionals.first() == Some(verb))
    {
        for &(opt, _) in &args.given {
            if opt.name() == dir_option || *opt == QUIET || own.contains(opt) {
                continue;
            }
            let owner = STORE_VERBS
                .iter()
                .find(|(_, table)| table.contains(opt))
                .map_or("", |(owner, _)| owner);
            return Err(format!(
                "option {} is for `spnn {name} {owner}`, not `spnn {name} {verb}`",
                opt.name()
            ));
        }
    }
    let dir = store_dir(args, dir_option, store);
    let dir = dir.as_path();
    match args.positionals.as_slice() {
        ["path"] => println!("{}", dir.display()),
        ["ls"] => {
            let entries = store
                .entries(dir)
                .map_err(|e| format!("listing {}: {e}", dir.display()))?;
            if entries.is_empty() {
                eprintln!("[spnn] {name} at {} is empty", dir.display());
                return Ok(());
            }
            println!(
                "{:<14} {:<9} {:>9} {:<9} summary",
                "key", "kind", "size", "status"
            );
            for e in &entries {
                let (status, summary) = match store.summary(e) {
                    Ok(summary) => ("ok", summary),
                    Err(err) => ("corrupt", format!("({err})")),
                };
                println!(
                    "{:<14} {:<9} {:>9} {status:<9} {summary}",
                    &e.key_hex[..12],
                    e.kind,
                    human_size(e.size_bytes),
                );
            }
        }
        ["rm", keys @ ..] => {
            let all = args.has("--all");
            if keys.is_empty() && !all {
                return Err(format!("{name} rm needs entry key(s) or --all"));
            }
            let removed = store
                .rm(dir, keys, all)
                .map_err(|e| format!("{name} rm at {}: {e}", dir.display()))?;
            for path in &removed {
                eprintln!("[spnn] removed {}", path.display());
            }
            eprintln!(
                "[spnn] removed {} entr{}",
                removed.len(),
                if removed.len() == 1 { "y" } else { "ies" }
            );
        }
        ["gc"] => {
            let limits = GcLimits {
                max_entries: args.number("--max-entries")?,
                max_bytes: args.parsed("--max-bytes", parse_bytes)?,
            };
            if limits.max_entries.is_none() && limits.max_bytes.is_none() {
                return Err(format!("{name} gc needs --max-entries and/or --max-bytes"));
            }
            let out = store
                .gc(dir, &limits)
                .map_err(|e| format!("{name} gc at {}: {e}", dir.display()))?;
            eprintln!(
                "[spnn] {name} gc at {}: kept {} entr{} ({}), removed {} ({} freed)",
                dir.display(),
                out.kept,
                if out.kept == 1 { "y" } else { "ies" },
                human_size(out.bytes_kept),
                out.removed,
                human_size(out.bytes_freed),
            );
        }
        [] => return Err(format!("{name} needs a subcommand (ls|rm|gc|path)")),
        [verb @ ("ls" | "gc" | "path"), ..] => {
            return Err(format!("{name} {verb} takes no arguments"));
        }
        [other, ..] => return Err(format!("unknown {name} command {other:?} (ls|rm|gc|path)")),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `spnn <command> --help` asks for usage, not for an unknown option.
    let help = args.iter().any(|a| a == "--help" || a == "-h");
    let command = args.first().map(String::as_str).unwrap_or("help");
    if help || command == "help" {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let result = match COMMANDS.iter().find(|(name, _, _)| *name == command) {
        Some(&(name, table, handler)) => parse(name, table, &args[1..]).and_then(|a| handler(&a)),
        None => Err(format!("unknown command {command:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("run `spnn help` for usage");
            ExitCode::FAILURE
        }
    }
}
