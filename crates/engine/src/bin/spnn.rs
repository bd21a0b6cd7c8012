//! `spnn` — run declarative SPNN Monte-Carlo scenarios from the command
//! line.
//!
//! ```text
//! spnn run <spec.scn>... | --preset NAME  [--format csv|json] [--out PATH]
//!          [--threads N] [--kernel reference|fma] [--quiet] [--stats]
//!          [--no-cache] [--cache-dir DIR]
//!          [--shards K (--shard-index I | --spawn | --exec local|spawn)]
//!          [--workers URL,URL,... [--local-peers N] [--weights-from SRC] [--steal]]
//! spnn merge <part.json>... [--format csv|json] [--out PATH]
//! spnn serve [--addr HOST:PORT] [--workers N] [--workers-from FILE]
//!          [--local-peers N] [--weights-from SRC] [--steal]
//!          [--threads N] [--kernel reference|fma] [--quiet] [--log-json]
//!          [--no-cache] [--cache-dir DIR]
//! spnn assemble <stream.ndjson> [--format csv|json] [--out PATH]
//! spnn validate <spec.scn> [--kernel reference|fma]
//! spnn example [NAME]
//! spnn cache ls | rm <KEY>... | rm --all | gc [--max-entries N]
//!          [--max-bytes BYTES] | path
//! spnn rowcache ls | rm <KEY>... | rm --all | gc [--max-entries N]
//!          [--max-bytes BYTES] | path
//! spnn help
//! ```
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

const USAGE: &str = "\
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
                             (suffixes K/M/G allowed)
    spnn cache path          print the resolved cache directory
    spnn rowcache ls|rm|gc|path
                             same verbs over the row-level result cache
                             (finished sweep points, shared across runs
                             and overlapping sweeps; docs/row-cache.md)
    spnn help                this text (so does --help or -h after
                             any command)

OPTIONS (run, merge):
    --format csv|json        output format (default csv)
    --out PATH               write output to PATH (default stdout); with
                             several SPECs, PATH is a directory and each
                             scenario writes <name>.<format> inside it
    --threads N              worker threads per run: the test split,
                             then each sweep point
                             (default: $SPNN_THREADS, else all cores;
                             results are identical for any thread count)
    --kernel reference|fma   compute-kernel profile (default reference).
                             reference is the paper-faithful scalar path;
                             fma fuses multiply-adds with runtime-selected
                             SIMD (AVX-512/AVX2+FMA/scalar, identical bits
                             on every tier) — each profile is bit-exactly
                             reproducible under its own fingerprint, and
                             partials from different profiles never merge
    --quiet                  suppress progress logging on stderr
    --stats                  after the run, print a phase breakdown and
                             the engine counters (training, cache,
                             Monte-Carlo, shard dispatch) on stderr
    --no-cache               skip the on-disk trained-context cache
    --cache-dir DIR          cache location (default: `spnn cache path`)
    --no-row-cache           skip the row-level result cache entirely
    --row-cache-dir DIR      row-cache location (default:
                             `spnn rowcache path`)
    --shards K               split the run into K deterministic shards and
                             execute only one of them (single SPEC only;
                             the output is a JSON partial report)
    --shard-index I          which shard to execute (0-based, requires
                             --shards)
    --spawn                  with --shards K: launch all K shard processes
                             locally, merge their partials, and emit the
                             final report (same as --exec spawn)
    --exec local|spawn       with --shards K: run every shard through the
                             named executor (local = threads in-process,
                             spawn = child processes) and emit the merged
                             final report
    --workers URL,URL,...    dispatch one shard per remote `spnn serve`
                             worker (POST /shard), merge partials as they
                             arrive, and emit the final report; a failed
                             worker's shard is retried on another worker
                             (--shards overrides the shard count)
    --local-peers N          with --workers: run N in-process peers next
                             to the remote workers, all in one plan
    --weights-from SRC       with --workers: size each peer's round-space
                             slice by capacity. SRC is equal (default),
                             healthz (GET /healthz core counts), metrics
                             (healthz seeded, refined by dispatch-duration
                             histograms), or an explicit W,W,... list
    --steal                  with --workers: a drained peer re-dispatches
                             the slowest outstanding slice; overlapping
                             speculative partials merge bit-identically

OPTIONS (serve):
    --addr HOST:PORT         listen address (default 127.0.0.1:7878)
    --workers N              concurrent connection handlers (default 4)
    --workers-from FILE      coordinator mode: dispatch each POST /run
                             across the worker URLs listed in FILE (one
                             per line, # comments), streaming rows as
                             shards complete
    --local-peers N          coordinator mode: also run N in-process
                             peers alongside the remote workers
    --weights-from SRC       coordinator mode: capacity-weighted slices
                             (equal | healthz | metrics | W,W,...)
    --steal                  coordinator mode: drained peers re-dispatch
                             the slowest outstanding slice
    --log-json               emit structured stderr logs as JSON objects
                             (one per line) instead of key=value text
    --queue-depth N          admission queue slots (default 64); overflow
                             is shed with 429 + Retry-After
    --queue-wait SECS        max time a connection may wait queued before
                             it is shed with 429 (default 5)
    --read-timeout SECS      socket read budget per request (default 30;
                             a stalled client gets 408)
    --write-timeout SECS     socket write budget per response (default 60)
    --max-points N           per-request budget: reject/abort runs past N
                             sweep points (0 = unlimited, the default)
    --max-iterations N       ... past N Monte-Carlo iterations total
    --max-rounds N           ... past N adaptive rounds total
    --quota-concurrent N     per-client cap on in-flight /run + /shard
                             requests (by X-Client-Id, else peer IP)
    --quota-rate R           per-client request rate (tokens/second;
                             0 = unlimited)
    --quota-burst B          per-client burst size (default: R, min 1)
    --breaker-failures N     coordinator: consecutive worker failures
                             that open its circuit breaker (default 3)
    --breaker-cooldown SECS  how long an open breaker skips its worker
                             before a half-open /healthz probe (default 10)
    --threads, --kernel, --quiet, --no-cache, --cache-dir,
    --no-row-cache, --row-cache-dir as for run

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

/// Applies the CLI logging flags before any engine work runs: `--quiet`
/// drops the structured-log level to `warn` unless `SPNN_LOG` explicitly
/// chose one, and `--log-json` switches the stderr lines to JSON.
fn init_logging(args: &[String]) {
    if has_flag(args, "--quiet") && !trace::verbosity_from_env() {
        trace::set_verbosity(Some(trace::Level::Warn));
    }
    if has_flag(args, "--log-json") {
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

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("run `spnn help` for usage");
    ExitCode::FAILURE
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

fn load_specs(args: &[String]) -> Result<Vec<ScenarioSpec>, String> {
    if let Some(pos) = args.iter().position(|a| a == "--preset") {
        let name = args
            .get(pos + 1)
            .ok_or_else(|| "--preset needs a name".to_string())?;
        let spec = presets::by_name(name, &RunScale::from_env()).ok_or_else(|| {
            format!(
                "unknown preset {name:?} (have: {})",
                presets::PRESET_NAMES.join(", ")
            )
        })?;
        return Ok(vec![spec]);
    }
    let paths = positional_args(args)?;
    if paths.is_empty() {
        return Err("missing scenario file (or --preset NAME)".to_string());
    }
    paths
        .iter()
        .map(|path| {
            let text = read_spec_file(path)?;
            ScenarioSpec::parse(&text).map_err(|e| format!("{path}: {e}"))
        })
        .collect()
}

/// The positional arguments after the subcommand, skipping options and
/// their values *by position* (a path that merely equals some option's
/// value, e.g. `spnn run fig4.json --out fig4.json`, must still be found).
///
/// An unknown `--option` is an error: a misspelled option (`--kernal fma`)
/// must fail, not silently run with the default. `main` checks every
/// command line this way before dispatching.
fn positional_args(args: &[String]) -> Result<Vec<&str>, String> {
    let mut out = Vec::new();
    let mut i = 1; // args[0] is the subcommand
    while i < args.len() {
        match args[i].as_str() {
            "--format" | "--out" | "--threads" | "--preset" | "--cache-dir" | "--row-cache-dir"
            | "--shards" | "--shard-index" | "--max-entries" | "--max-bytes" | "--addr"
            | "--workers" | "--workers-from" | "--exec" | "--queue-depth" | "--queue-wait"
            | "--read-timeout" | "--write-timeout" | "--max-points" | "--max-iterations"
            | "--max-rounds" | "--quota-concurrent" | "--quota-rate" | "--quota-burst"
            | "--breaker-failures" | "--breaker-cooldown" | "--weights-from" | "--local-peers"
            | "--kernel" => i += 2,
            "--quiet" | "--log-json" | "--stats" | "--no-cache" | "--no-row-cache" | "--spawn"
            | "--steal" | "--all" => i += 1,
            s if s.starts_with("--") => return Err(format!("unknown option {s}")),
            s => {
                out.push(s);
                i += 1;
            }
        }
    }
    Ok(out)
}

fn option_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|p| args.get(p + 1))
        .map(|s| s.as_str())
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Worker threads per sweep point: `--threads` wins; `SPNN_THREADS` is
/// the environment fallback the CI determinism cross-check drives
/// (results are identical for any value, only wall-clock changes).
fn parse_threads(args: &[String]) -> Result<Option<usize>, String> {
    match option_value(args, "--threads") {
        None => Ok(std::env::var("SPNN_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)),
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n > 0 => Ok(Some(n)),
            _ => Err(format!("invalid thread count {v:?}")),
        },
    }
}

/// The kernel profile: `--kernel reference|fma` (default reference, the
/// historical scalar path — reports are byte-identical with or without
/// the flag).
fn parse_kernel(args: &[String]) -> Result<KernelProfile, String> {
    match option_value(args, "--kernel") {
        None => Ok(KernelProfile::default()),
        Some(v) => v.parse(),
    }
}

/// The cache directory a command resolves to: `--cache-dir`, else the
/// default chain (`SPNN_CACHE_DIR` → XDG → `~/.cache/spnn`).
fn resolve_cache_dir(args: &[String]) -> PathBuf {
    option_value(args, "--cache-dir")
        .map(PathBuf::from)
        .unwrap_or_else(|| cache::STORE.default_dir())
}

/// The row-cache directory a command resolves to: `--row-cache-dir`, else
/// the default chain (`SPNN_ROW_CACHE_DIR` → XDG → `~/.cache/spnn/rows`).
fn resolve_row_cache_dir(args: &[String]) -> PathBuf {
    option_value(args, "--row-cache-dir")
        .map(PathBuf::from)
        .unwrap_or_else(|| rowcache::STORE.default_dir())
}

/// The row-level result cache for `run`/`serve`: on-disk at the resolved
/// directory unless `--no-row-cache` opted out entirely.
fn resolve_row_cache(args: &[String]) -> Option<Arc<RowCache>> {
    (!has_flag(args, "--no-row-cache"))
        .then(|| Arc::new(RowCache::on_disk(resolve_row_cache_dir(args))))
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

fn cmd_run(args: &[String]) -> ExitCode {
    init_logging(args);
    let specs = match load_specs(args) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    let format = option_value(args, "--format").unwrap_or("csv");
    if format != "csv" && format != "json" {
        return fail(&format!("unknown format {format:?} (csv|json)"));
    }
    let threads = match parse_threads(args) {
        Ok(t) => t,
        Err(e) => return fail(&e),
    };
    let kernel = match parse_kernel(args) {
        Ok(k) => k,
        Err(e) => return fail(&e),
    };
    let cache_dir = (!has_flag(args, "--no-cache")).then(|| resolve_cache_dir(args));
    let row_cache = resolve_row_cache(args);
    let config = EngineConfig {
        threads,
        kernel,
        verbose: !has_flag(args, "--quiet"),
        cache_dir: None, // the shared cache below carries the directory
        metrics: metrics::global().clone(),
        row_cache: row_cache.clone(),
    };
    // Surface the resolved profile and the CPU dispatch tier wherever the
    // run's metrics end up (`--stats`, scrapes of a long-lived process).
    config
        .metrics
        .gauge(
            "spnn_kernel_profile",
            "Active kernel profile and the CPU dispatch tier selected for it (info gauge).",
            &[
                ("profile", kernel.as_str()),
                ("tier", detected_tier().as_str()),
            ],
        )
        .set(1);
    let cache = ContextCache::new(cache_dir);
    // One process, one run: the cache's counters belong in the global
    // registry so `--stats` shows hits/trains next to the phase table.
    cache.register_metrics(metrics::global());
    if let Some(rc) = &row_cache {
        rc.register_metrics(metrics::global());
    }
    let show_stats = has_flag(args, "--stats");

    // Distributed / sharded execution. All the fan-out spellings drive
    // the same library seam (`spnn_engine::exec`): `--workers` dispatches
    // shards to remote `spnn serve` workers, `--shards K --spawn` (or
    // `--exec spawn`) launches child processes, `--exec local` fans out
    // in-process threads — each merged as partials arrive, byte-identical
    // to the unsharded run. `--shards K --shard-index I` runs one slice
    // and emits a JSON partial report for `spnn merge`.
    let spawn = has_flag(args, "--spawn");
    let exec_kind = option_value(args, "--exec");
    let workers_csv = option_value(args, "--workers");
    let shards = match option_value(args, "--shards") {
        None if spawn => return fail("--spawn requires --shards K"),
        None if exec_kind.is_some() => return fail("--exec requires --shards K"),
        None if option_value(args, "--shard-index").is_some() && workers_csv.is_none() => {
            return fail("--shard-index requires --shards");
        }
        None => None,
        Some(k) => match k.parse::<usize>() {
            Ok(n) if n > 0 => Some(n),
            _ => return fail(&format!("invalid shard count {k:?}")),
        },
    };

    if workers_csv.is_none() {
        for flag in ["--steal", "--weights-from", "--local-peers"] {
            if has_flag(args, flag) || option_value(args, flag).is_some() {
                return fail(&format!(
                    "{flag} only applies to distributed runs (--workers)"
                ));
            }
        }
    }
    if let Some(workers) = workers_csv {
        if spawn || exec_kind.is_some() || option_value(args, "--shard-index").is_some() {
            return fail("--workers picks the remote executor; drop --spawn/--exec/--shard-index");
        }
        let workers: Vec<String> = workers
            .split(',')
            .map(|w| w.trim().to_string())
            .filter(|w| !w.is_empty())
            .collect();
        if workers.is_empty() {
            return fail("--workers needs at least one URL");
        }
        if specs.len() != 1 {
            return fail("distributed runs take exactly one scenario");
        }
        let local_peers = match option_value(args, "--local-peers") {
            None => 0,
            Some(v) => match v.parse::<usize>() {
                Ok(n) => n,
                _ => return fail(&format!("invalid --local-peers value {v:?}")),
            },
        };
        let weights_from = match option_value(args, "--weights-from") {
            None => WeightSource::Equal,
            Some(v) => match WeightSource::parse(v) {
                Ok(w) => w,
                Err(e) => return fail(&e),
            },
        };
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
            .with_steal(has_flag(args, "--steal"));
        return run_with_executor(
            &specs[0],
            &executor,
            shards,
            format,
            &config,
            &cache,
            option_value(args, "--out"),
            show_stats,
        );
    }

    if let Some(shards) = shards {
        if specs.len() != 1 {
            return fail("sharded runs take exactly one scenario");
        }
        let shard_index = option_value(args, "--shard-index");
        let executor: Option<Box<dyn Executor>> = match (exec_kind, spawn) {
            (Some("local"), true) => {
                return fail("--exec local conflicts with --spawn (--spawn is --exec spawn)");
            }
            (Some("spawn"), _) | (None, true) => match std::env::current_exe() {
                Ok(exe) => Some(Box::new(SpawnExecutor { exe })),
                Err(e) => return fail(&format!("locating the spnn binary: {e}")),
            },
            (Some("local"), false) => Some(Box::new(LocalExecutor)),
            (Some(other), _) => {
                return fail(&format!("unknown executor {other:?} (local|spawn)"));
            }
            (None, false) => None,
        };
        if let Some(executor) = executor {
            if shard_index.is_some() {
                return fail("--spawn launches every shard itself; drop --shard-index");
            }
            return run_with_executor(
                &specs[0],
                executor.as_ref(),
                shards,
                format,
                &config,
                &cache,
                option_value(args, "--out"),
                show_stats,
            );
        }
        let index = match shard_index {
            None => {
                return fail(
                    "--shards requires --shard-index (or --spawn), --exec local|spawn, \
                     or --workers",
                )
            }
            Some(i) => match i.parse::<usize>() {
                Ok(n) if n < shards => n,
                Ok(n) => {
                    return fail(&format!("shard index {n} out of range (0..{shards})"));
                }
                _ => return fail(&format!("invalid shard index {i:?}")),
            },
        };
        if option_value(args, "--format").is_some_and(|f| f != "json") {
            return fail("partial reports are always JSON; drop --format or use --format json");
        }
        let partial = match run_scenario_shard_with(&specs[0], &config, &cache, shards, index) {
            Ok(p) => p,
            Err(e) => return fail(&e.to_string()),
        };
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
        if show_stats {
            print_run_stats();
        }
        let body = partial.to_json();
        return match option_value(args, "--out") {
            Some(path) => match write_report(Path::new(path), &body) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => fail(&e),
            },
            None => {
                print!("{body}");
                ExitCode::SUCCESS
            }
        };
    }

    let render = |report: &EngineReport| match format {
        "json" => to_json(report),
        _ => to_csv(report),
    };
    // --out names a directory when several scenarios run, when it already
    // is one, or when it is spelled like one — a single-spec run into an
    // existing directory must not fail after the campaign completes.
    let out = option_value(args, "--out");
    let out_is_dir =
        out.is_some_and(|p| specs.len() > 1 || p.ends_with('/') || Path::new(p).is_dir());
    if out_is_dir {
        // Fail on an unusable output directory *before* the campaign, not
        // after the first scenario's Monte-Carlo run has completed.
        if let Err(e) = std::fs::create_dir_all(out.expect("out_is_dir")) {
            return fail(&format!(
                "--out {}: not a usable directory: {e}",
                out.unwrap_or_default()
            ));
        }
    }

    let started = std::time::Instant::now();
    let mut reports = Vec::with_capacity(specs.len());
    let mut used_stems = std::collections::HashSet::new();
    for spec in &specs {
        let report = match run_scenario_with(spec, &config, &cache) {
            Ok(r) => r,
            Err(EngineError::Invalid(m)) => return fail(&format!("invalid scenario: {m}")),
            Err(e) => return fail(&e.to_string()),
        };
        if out_is_dir {
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
            let file = Path::new(out.expect("out_is_dir")).join(format!("{stem}.{format}"));
            if let Err(e) = write_report(&file, &render(&report)) {
                return fail(&e);
            }
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
    if show_stats {
        print_run_stats();
    }

    match out {
        Some(_) if out_is_dir => {} // written incrementally above
        Some(path) => {
            if let Err(e) = write_report(Path::new(path), &render(&reports[0])) {
                return fail(&e);
            }
        }
        None => {
            for report in &reports {
                print!("{}", render(report));
            }
        }
    }
    ExitCode::SUCCESS
}

/// Merges shard partial reports into the final report.
fn cmd_merge(args: &[String]) -> ExitCode {
    let paths = positional_args(args).expect("options checked in main");
    if paths.is_empty() {
        return fail("merge needs at least one partial report");
    }
    let format = option_value(args, "--format").unwrap_or("csv");
    if format != "csv" && format != "json" {
        return fail(&format!("unknown format {format:?} (csv|json)"));
    }
    // Stream the files through the incremental merge one at a time, so
    // peak memory is one parsed partial plus the retained blocks — not
    // the whole set twice.
    let mut merge = MergeState::new();
    for path in &paths {
        let text = match read_spec_file(path) {
            Ok(t) => t,
            Err(e) => return fail(&e),
        };
        let partial = match PartialReport::parse(&text) {
            Ok(p) => p,
            Err(e) => return fail(&format!("{path}: {e}")),
        };
        if let Err(e) = merge.push(partial) {
            return fail(&format!("{path}: {e}"));
        }
    }
    let report = match merge.finalize() {
        Ok(r) => r,
        Err(e) => return fail(&e.to_string()),
    };
    eprintln!(
        "[spnn] merged {} partial(s) of {}: {} point(s), {} MC iteration(s)",
        paths.len(),
        report.scenario,
        report.rows.len(),
        report.total_iterations(),
    );
    let body = match format {
        "json" => to_json(&report),
        _ => to_csv(&report),
    };
    match option_value(args, "--out") {
        Some(path) => match write_report(Path::new(path), &body) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e),
        },
        None => {
            print!("{body}");
            ExitCode::SUCCESS
        }
    }
}

/// Runs one scenario as a `shards`-way split through `executor` — the
/// one driver behind `--exec local`, `--spawn`, and `--workers`. The
/// library merges partials as they arrive ([`run_distributed`]); rows
/// are logged in prefix order as their coverage becomes final, and the
/// emitted report is byte-identical to the unsharded `spnn run SPEC`
/// (CI-enforced for every executor).
#[allow(clippy::too_many_arguments)]
fn run_with_executor(
    spec: &ScenarioSpec,
    executor: &dyn Executor,
    shards: usize,
    format: &str,
    config: &EngineConfig,
    cache: &ContextCache,
    out: Option<&str>,
    stats: bool,
) -> ExitCode {
    let cancel = CancelToken::new();
    let ctx = ExecContext {
        config,
        cache,
        cancel: &cancel,
    };
    let started = std::time::Instant::now();
    let verbose = config.verbose;
    let mut total_points = 0usize;
    let report = match run_distributed(spec, executor, shards, &ctx, &mut |event| match event {
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
    }) {
        Ok(r) => r,
        Err(e) => return fail(&e.to_string()),
    };
    eprintln!(
        "[spnn] {}: {} shard(s) via {} executor merged in {:.2?}: {} point(s), {} MC iteration(s)",
        report.scenario,
        shards,
        executor.name(),
        started.elapsed(),
        report.rows.len(),
        report.total_iterations(),
    );
    if stats {
        print_run_stats();
    }
    let body = match format {
        "json" => to_json(&report),
        _ => to_csv(&report),
    };
    match out {
        Some(path) => match write_report(Path::new(path), &body) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e),
        },
        None => {
            print!("{body}");
            ExitCode::SUCCESS
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
/// A numeric option with a default: absent → `default`; present →
/// parsed, rejecting garbage with the flag's name.
fn numeric_option<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: T,
) -> Result<T, String> {
    match option_value(args, name) {
        None => Ok(default),
        Some(v) => v
            .parse::<T>()
            .map_err(|_| format!("invalid {name} value {v:?}")),
    }
}

/// A duration option in (possibly fractional) seconds.
fn seconds_option(args: &[String], name: &str, default: Duration) -> Result<Duration, String> {
    match option_value(args, name) {
        None => Ok(default),
        Some(v) => match v.parse::<f64>() {
            Ok(s) if s.is_finite() && s >= 0.0 => Ok(Duration::from_secs_f64(s)),
            _ => Err(format!("invalid {name} value {v:?} (seconds)")),
        },
    }
}

fn cmd_serve(args: &[String]) -> ExitCode {
    init_logging(args);
    let addr = option_value(args, "--addr").unwrap_or("127.0.0.1:7878");
    let workers = match option_value(args, "--workers") {
        None => 4,
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => return fail(&format!("invalid worker count {v:?}")),
        },
    };
    let remote_workers = match option_value(args, "--workers-from") {
        None => Vec::new(),
        Some(path) => match read_worker_list(path) {
            Ok(w) => w,
            Err(e) => return fail(&e),
        },
    };
    let steal = has_flag(args, "--steal");
    let weights_from = match option_value(args, "--weights-from") {
        None => WeightSource::Equal,
        Some(v) => match WeightSource::parse(v) {
            Ok(w) => w,
            Err(e) => return fail(&e),
        },
    };
    let local_peers = match option_value(args, "--local-peers") {
        None => 0,
        Some(v) => match v.parse::<usize>() {
            Ok(n) => n,
            _ => return fail(&format!("invalid --local-peers value {v:?}")),
        },
    };
    if remote_workers.is_empty()
        && (steal || local_peers > 0 || weights_from != WeightSource::Equal)
    {
        return fail("--steal/--weights-from/--local-peers need coordinator mode (--workers-from)");
    }
    let threads = match parse_threads(args) {
        Ok(t) => t,
        Err(e) => return fail(&e),
    };
    let kernel = match parse_kernel(args) {
        Ok(k) => k,
        Err(e) => return fail(&e),
    };
    let verbose = !has_flag(args, "--quiet");
    let defaults = ServeConfig::default();
    let traffic = (|| -> Result<ServeConfig, String> {
        Ok(ServeConfig {
            queue_depth: numeric_option(args, "--queue-depth", defaults.queue_depth)?,
            queue_wait: seconds_option(args, "--queue-wait", defaults.queue_wait)?,
            read_timeout: seconds_option(args, "--read-timeout", defaults.read_timeout)?,
            write_timeout: seconds_option(args, "--write-timeout", defaults.write_timeout)?,
            budget: RequestBudget {
                max_points: numeric_option(args, "--max-points", 0)?,
                max_iterations: numeric_option(args, "--max-iterations", 0)?,
                max_rounds: numeric_option(args, "--max-rounds", 0)?,
            },
            quota: QuotaConfig {
                max_concurrent: numeric_option(args, "--quota-concurrent", 0)?,
                rate: numeric_option(args, "--quota-rate", 0.0)?,
                burst: numeric_option(args, "--quota-burst", 0.0)?,
            },
            breaker: BreakerConfig {
                failure_threshold: numeric_option(
                    args,
                    "--breaker-failures",
                    defaults.breaker.failure_threshold,
                )?,
                cooldown: seconds_option(args, "--breaker-cooldown", defaults.breaker.cooldown)?,
            },
            ..defaults
        })
    })();
    let traffic = match traffic {
        Ok(t) => t,
        Err(e) => return fail(&e),
    };
    let config = ServeConfig {
        workers,
        engine: EngineConfig {
            threads,
            kernel,
            verbose,
            cache_dir: (!has_flag(args, "--no-cache")).then(|| resolve_cache_dir(args)),
            // Server::bind replaces this with its own registry so every
            // instrument lands behind this server's GET /metrics.
            metrics: metrics::global().clone(),
            row_cache: resolve_row_cache(args),
        },
        remote_workers: remote_workers.clone(),
        steal,
        weights_from,
        local_peers,
        ..traffic
    };
    let server = match Server::bind(addr, config) {
        Ok(s) => s,
        Err(e) => return fail(&format!("binding {addr}: {e}")),
    };
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
    match server.run() {
        Ok(()) => {
            if verbose {
                eprintln!("[spnn] drained; bye");
            }
            ExitCode::SUCCESS
        }
        Err(e) => fail(&format!("serving {addr}: {e}")),
    }
}

/// `spnn assemble`: rebuild the final report from a saved `/run` stream.
fn cmd_assemble(args: &[String]) -> ExitCode {
    let paths = positional_args(args).expect("options checked in main");
    let [path] = paths.as_slice() else {
        return fail("assemble takes exactly one NDJSON stream file (`-` reads stdin)");
    };
    let format = option_value(args, "--format").unwrap_or("csv");
    if format != "csv" && format != "json" {
        return fail(&format!("unknown format {format:?} (csv|json)"));
    }
    let text = match read_spec_file(path) {
        Ok(t) => t,
        Err(e) => return fail(&e),
    };
    let report = match assemble_report(&text) {
        Ok(r) => r,
        Err(e) => return fail(&format!("{path}: {e}")),
    };
    eprintln!(
        "[spnn] assembled {}: {} point(s), {} MC iteration(s)",
        report.scenario,
        report.rows.len(),
        report.total_iterations(),
    );
    let body = match format {
        "json" => to_json(&report),
        _ => to_csv(&report),
    };
    match option_value(args, "--out") {
        Some(path) => match write_report(Path::new(path), &body) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e),
        },
        None => {
            print!("{body}");
            ExitCode::SUCCESS
        }
    }
}

fn cmd_validate(args: &[String]) -> ExitCode {
    let Some(path) = args.get(1) else {
        return fail("missing scenario file");
    };
    let text = match read_spec_file(path) {
        Ok(t) => t,
        Err(e) => return fail(&e),
    };
    let spec = match ScenarioSpec::parse(&text) {
        Ok(s) => s,
        Err(e) => return fail(&format!("{path}: {e}")),
    };
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
    let kernel = match parse_kernel(args) {
        Ok(k) => k,
        Err(e) => return fail(&e),
    };
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
    ExitCode::SUCCESS
}

fn cmd_example(args: &[String]) -> ExitCode {
    let name = args.get(1).map(|s| s.as_str()).unwrap_or("fig4");
    match presets::by_name(name, &RunScale::from_env()) {
        Some(spec) => {
            print!("{}", spec.to_text());
            ExitCode::SUCCESS
        }
        None => fail(&format!(
            "unknown preset {name:?} (have: {})",
            presets::PRESET_NAMES.join(", ")
        )),
    }
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

fn human_size(bytes: u64) -> String {
    if bytes >= 1024 * 1024 {
        format!("{:.1} MiB", bytes as f64 / (1024.0 * 1024.0))
    } else if bytes >= 1024 {
        format!("{:.1} KiB", bytes as f64 / 1024.0)
    } else {
        format!("{bytes} B")
    }
}

/// `spnn cache|rowcache {ls,rm,gc,path}` over the store described by
/// `store`, rooted at `dir` (see `docs/row-cache.md` for the row store).
fn cmd_store(store: &Store, dir: &Path, args: &[String]) -> ExitCode {
    let name = store.name;
    match args.get(1).map(|s| s.as_str()) {
        Some("path") => {
            println!("{}", dir.display());
            ExitCode::SUCCESS
        }
        Some("ls") => {
            let entries = match store.entries(dir) {
                Ok(e) => e,
                Err(e) => return fail(&format!("listing {}: {e}", dir.display())),
            };
            if entries.is_empty() {
                eprintln!("[spnn] {name} at {} is empty", dir.display());
                return ExitCode::SUCCESS;
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
            ExitCode::SUCCESS
        }
        Some("rm") => {
            let keys = positional_args(&args[1..]).expect("options checked in main");
            let all = has_flag(args, "--all");
            if keys.is_empty() && !all {
                return fail(&format!("{name} rm needs entry key(s) or --all"));
            }
            match store.rm(dir, &keys, all) {
                Ok(removed) => {
                    for path in &removed {
                        eprintln!("[spnn] removed {}", path.display());
                    }
                    eprintln!(
                        "[spnn] removed {} entr{}",
                        removed.len(),
                        if removed.len() == 1 { "y" } else { "ies" }
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => fail(&format!("{name} rm at {}: {e}", dir.display())),
            }
        }
        Some("gc") => {
            let max_entries = match option_value(args, "--max-entries") {
                None => None,
                Some(v) => match v.parse::<usize>() {
                    Ok(n) => Some(n),
                    Err(_) => return fail(&format!("invalid --max-entries {v:?}")),
                },
            };
            let max_bytes = match option_value(args, "--max-bytes") {
                None => None,
                Some(v) => match parse_bytes(v) {
                    Some(n) => Some(n),
                    None => return fail(&format!("invalid --max-bytes {v:?} (e.g. 500000, 64M)")),
                },
            };
            if max_entries.is_none() && max_bytes.is_none() {
                return fail(&format!("{name} gc needs --max-entries and/or --max-bytes"));
            }
            let limits = GcLimits {
                max_entries,
                max_bytes,
            };
            match store.gc(dir, &limits) {
                Ok(out) => {
                    eprintln!(
                        "[spnn] {name} gc at {}: kept {} entr{} ({}), removed {} ({} freed)",
                        dir.display(),
                        out.kept,
                        if out.kept == 1 { "y" } else { "ies" },
                        human_size(out.bytes_kept),
                        out.removed,
                        human_size(out.bytes_freed),
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => fail(&format!("{name} gc at {}: {e}", dir.display())),
            }
        }
        Some(other) => fail(&format!("unknown {name} command {other:?} (ls|rm|gc|path)")),
        None => fail(&format!("{name} needs a subcommand (ls|rm|gc|path)")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `spnn <command> --help` asks for usage, not for an unknown option.
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if let Err(e) = positional_args(&args) {
        return fail(&e);
    }
    match args.first().map(|s| s.as_str()) {
        Some("run") => cmd_run(&args),
        Some("merge") => cmd_merge(&args),
        Some("serve") => cmd_serve(&args),
        Some("assemble") => cmd_assemble(&args),
        Some("validate") => cmd_validate(&args),
        Some("example") => cmd_example(&args),
        Some("cache") => cmd_store(&cache::STORE, &resolve_cache_dir(&args), &args),
        Some("rowcache") => cmd_store(&rowcache::STORE, &resolve_row_cache_dir(&args), &args),
        Some("help") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => fail(&format!("unknown command {other:?}")),
    }
}
