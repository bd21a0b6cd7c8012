//! `campaign-cold`: `fig4.scn` + `fig5.scn` as a researcher runs them
//! (`spnn run fig4.scn fig5.scn`) — one fresh in-memory context cache per
//! operation, no row cache, the reference kernel, all cores.
//!
//! One operation is the whole campaign. Set-up is the time from each
//! scenario's call to its `Started` event (training for the first,
//! test batch and mapping for both); the report phase runs from `Started`
//! until the report is rendered. Latency is per sweep point (the gap
//! between consecutive rows). The first row is timed per scenario from a
//! trained context — the benchmark trains through the shared cache first —
//! so it covers mapping, test batch and the first point, leaves training
//! to `setup_s` alone, and every operation gives two samples. (One sweep
//! point alone varies by ±25 % from point to point, too much for the few
//! samples a run holds.)

use crate::util::{secs, Rendered};
use crate::{check_pinned, engine_config, EndToEnd, Options, Outcome, Tally};
use spnn_core::KernelProfile;
use spnn_engine::{run_scenario_streaming_with, ContextCache, ScenarioSpec, StreamEvent};
use std::time::Instant;

/// Runs the timed phase (`--trace 0`).
pub fn run(opts: &Options, out: &mut Outcome) {
    let specs = crate::campaign_specs(opts.scale);
    let mut e2e = EndToEnd::default();
    let start = Instant::now();
    let mut ops = 0;
    loop {
        operation(opts, &specs, &mut e2e, &mut out.tally);
        ops += 1;
        if secs(start) >= opts.seconds {
            break;
        }
    }
    out.info.push(format!(
        "campaign-cold: {ops} operation(s), {} point latencies, kernel reference, threads {}",
        e2e.latency_ms.len(),
        crate::nproc()
    ));
    out.info.push(e2e.per_op());
    out.metrics = e2e.metrics(&out.tally);
}

fn operation(opts: &Options, specs: &[ScenarioSpec], e2e: &mut EndToEnd, tally: &mut Tally) {
    let cache = ContextCache::in_memory();
    let config = engine_config(None, KernelProfile::Reference);
    let (mut setup_s, mut report_s) = (0.0, 0.0);
    for spec in specs {
        let call = Instant::now();
        // The engine's own lookup below hits the context trained here.
        cache.get_or_train(spec, false);
        let trained = Instant::now();
        let mut started = trained;
        let mut last = trained;
        let mut gaps = Vec::new();
        let mut first_row: Option<f64> = None;
        let result = run_scenario_streaming_with(spec, &config, &cache, &mut |event| {
            let now = Instant::now();
            match event {
                StreamEvent::Started { .. } => {
                    started = now;
                    last = now;
                }
                StreamEvent::Row { .. } => {
                    gaps.push((now - last).as_secs_f64() * 1e3);
                    last = now;
                    first_row.get_or_insert((now - trained).as_secs_f64() * 1e3);
                }
                _ => {}
            }
        });
        match result {
            Ok(report) => {
                let rendered = Rendered::of(&report);
                setup_s += (started - call).as_secs_f64();
                report_s += secs(started);
                e2e.units += report.rows.len();
                e2e.latency_ms.extend(gaps);
                e2e.first_row_ms.extend(first_row);
                check_pinned(
                    tally,
                    opts.scale,
                    KernelProfile::Reference,
                    &spec.name,
                    &rendered,
                );
            }
            Err(e) => tally.fail(format!("{}: {e}", spec.name)),
        }
    }
    e2e.setup_s.push(setup_s);
    e2e.report_s.push(report_s);
}

/// The traced twin (`--trace 1`): the same scenarios through the
/// decomposed pipeline and through the batch driver, both cold.
pub fn traced(opts: &Options, out: &mut Outcome) {
    let kernel = KernelProfile::Reference;
    let reports = crate::pipeline_metrics(
        &crate::campaign_specs(opts.scale),
        ContextCache::in_memory,
        None,
        kernel,
        &mut out.tally,
        &mut out.metrics,
    );
    for (name, rendered) in &reports {
        check_pinned(&mut out.tally, opts.scale, kernel, name, rendered);
    }
}
