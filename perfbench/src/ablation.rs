//! `ablation-sharded`: `ablation_mesh` + `ablation_quant` +
//! `ablation_thermal` under the fma kernel, each through
//! `run_distributed(LocalExecutor)` at k = nproc shards with one thread
//! per shard. The trained context warm-loads from an on-disk cache
//! primed before timing; there is no row cache.
//!
//! One operation is the trio. Set-up is a fresh on-disk cache's warm
//! load, both mappings and each scenario's test batch; the report phase
//! is the three sharded runs plus rendering. Latency is per scenario.

use crate::util::{secs, timed, Rendered, Spans};
use crate::{check_pinned, engine_config, EndToEnd, Metrics, Options, Outcome, Tally};
use spnn_core::KernelProfile;
use spnn_engine::{
    merge_partials, run_distributed, run_scenario_shard_with, CancelToken, ContextCache,
    ExecContext, LocalExecutor, ScenarioSpec, StreamEvent,
};
use std::path::Path;
use std::time::Instant;

const KERNEL: KernelProfile = KernelProfile::Fma;

/// Runs the timed phase (`--trace 0`); `ctx_dir` holds the primed context.
pub fn run(opts: &Options, ctx_dir: &Path, out: &mut Outcome) {
    let specs = crate::ablation_specs(opts.scale);
    let mut e2e = EndToEnd::default();
    let start = Instant::now();
    let mut ops = 0;
    loop {
        operation(opts, &specs, ctx_dir, &mut e2e, &mut out.tally);
        ops += 1;
        if secs(start) >= opts.seconds {
            break;
        }
    }
    out.info.push(format!(
        "ablation-sharded: {ops} operation(s), {} scenario latencies, kernel fma, {} shard(s) x 1 thread",
        e2e.latency_ms.len(),
        crate::nproc()
    ));
    out.info.push(e2e.per_op());
    out.metrics = e2e.metrics(&out.tally);
}

fn operation(
    opts: &Options,
    specs: &[ScenarioSpec],
    ctx_dir: &Path,
    e2e: &mut EndToEnd,
    tally: &mut Tally,
) {
    let cache = ContextCache::on_disk(ctx_dir);
    let setup = Instant::now();
    for spec in specs {
        crate::prepare(spec, &cache, KERNEL, &mut Spans::default());
    }
    e2e.setup_s.push(secs(setup));

    let config = engine_config(Some(1), KERNEL);
    let cancel = CancelToken::new();
    let ctx = ExecContext {
        config: &config,
        cache: &cache,
        cancel: &cancel,
    };
    let timed_start = Instant::now();
    let mut first_row: Option<f64> = None;
    for spec in specs {
        let call = Instant::now();
        let result = run_distributed(spec, &LocalExecutor, crate::nproc(), &ctx, &mut |event| {
            if let StreamEvent::Row { .. } = event {
                first_row.get_or_insert(secs(timed_start) * 1e3);
            }
        });
        match result {
            Ok(report) => {
                let rendered = Rendered::of(&report);
                e2e.latency_ms.push(secs(call) * 1e3);
                e2e.units += report.rows.len();
                check_pinned(tally, opts.scale, KERNEL, &spec.name, &rendered);
            }
            Err(e) => tally.fail(format!("{}: {e}", spec.name)),
        }
    }
    e2e.report_s.push(secs(timed_start));
    e2e.first_row_ms.extend(first_row);
}

/// The traced twin (`--trace 1`): the trio through the decomposed
/// pipeline and through the batch driver, both warm and unsharded on
/// all cores.
pub fn traced(opts: &Options, ctx_dir: &Path, out: &mut Outcome) {
    let reports = crate::pipeline_metrics(
        &crate::ablation_specs(opts.scale),
        || ContextCache::on_disk(ctx_dir),
        Some(crate::nproc()),
        KERNEL,
        &mut out.tally,
        &mut out.metrics,
    );
    for (name, rendered) in &reports {
        check_pinned(&mut out.tally, opts.scale, KERNEL, name, rendered);
    }
}

/// The shard/exec layer on the trio: `run_distributed` wall, each shard
/// as its own `run_scenario_shard_with` call (concurrently, one thread
/// each), and `merge_partials` over their partials.
pub fn shard_metrics(opts: &Options, ctx_dir: &Path, tally: &mut Tally, m: &mut Metrics) {
    let k = crate::nproc();
    let config = engine_config(Some(1), KERNEL);
    let (mut distributed_s, mut shard_sum, mut shard_max_sum, mut merge_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut computed, mut kept) = (0usize, 0usize);
    for spec in crate::ablation_specs(opts.scale) {
        let cache = ContextCache::on_disk(ctx_dir);
        let cancel = CancelToken::new();
        let ctx = ExecContext {
            config: &config,
            cache: &cache,
            cancel: &cancel,
        };
        let (report, wall) = timed(|| run_distributed(&spec, &LocalExecutor, k, &ctx, &mut |_| {}));
        distributed_s += wall;
        match report {
            Ok(r) => check_pinned(tally, opts.scale, KERNEL, &spec.name, &Rendered::of(&r)),
            Err(e) => tally.fail(format!("{}: distributed: {e}", spec.name)),
        }

        let shards: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..k)
                .map(|i| {
                    let (spec, config, cache) = (&spec, &config, &cache);
                    scope
                        .spawn(move || timed(|| run_scenario_shard_with(spec, config, cache, k, i)))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard thread"))
                .collect()
        });
        let times: Vec<f64> = shards.iter().map(|(_, s)| *s).collect();
        shard_sum += times.iter().sum::<f64>();
        shard_max_sum += times.iter().copied().fold(0.0, f64::max);
        let partials: Vec<_> = match shards.into_iter().map(|(p, _)| p).collect::<Result<_, _>>() {
            Ok(p) => p,
            Err(e) => {
                tally.fail(format!("{}: shard: {e}", spec.name));
                continue;
            }
        };
        computed += partials
            .iter()
            .flat_map(|p| &p.points)
            .map(|pt| pt.samples.len())
            .sum::<usize>();
        let (merged, s) = timed(|| merge_partials(&partials));
        merge_s += s;
        match merged {
            Ok(r) => {
                kept += r.total_iterations();
                check_pinned(tally, opts.scale, KERNEL, &spec.name, &Rendered::of(&r));
            }
            Err(e) => tally.fail(format!("{}: merge: {e}", spec.name)),
        }
    }
    let mean_sum = shard_sum / k as f64;
    m.put(
        "shard.imbalance",
        shard_max_sum / mean_sum.max(1e-12),
        "ratio",
    );
    m.put(
        "shard.speculative_share",
        computed.saturating_sub(kept) as f64 / computed.max(1) as f64,
        "ratio",
    );
    m.put("shard.merge_ms", merge_s * 1e3, "ms");
    m.put(
        "exec.efficiency",
        shard_sum / (k as f64 * distributed_s.max(1e-12)),
        "ratio",
    );
}
