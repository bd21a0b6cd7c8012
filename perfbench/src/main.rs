//! Command-line entry point:
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--scale full|smoke]
//! perfbench --print-digests
//! ```
//!
//! Prints the machine descriptor, context lines and every metric with its
//! unit, then — as the last line of stdout — one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. Exits non-zero on
//! any byte mismatch.

use perfbench::{compute_digests, nproc, run, Options, Outcome, Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload campaign-cold|ablation-sharded|serve-mixed \
         --seed N --seconds S --trace 0|1 [--scale full|smoke]\n       perfbench --print-digests"
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut scale) = (1u64, 10.0f64, false, Scale::Full);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--scale" => {
                scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    v => return Err(format!("--scale takes full or smoke, not {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    // Scratch space lives under the build directory of the checkout.
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"));
    let scratch = base.join(format!("perfbench-scratch-{}", std::process::id()));
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
        scale,
        scratch,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn report(opts: &Options, out: &Outcome) -> String {
    println!(
        "machine: nproc={} kernel_tier={} kernel_profile={} rustc=\"{}\" workload={} seed={} scale={} trace={}",
        nproc(),
        spnn_core::detected_tier().as_str(),
        opts.workload.kernel().as_str(),
        env!("PERFBENCH_RUSTC"),
        opts.workload.name(),
        opts.seed,
        opts.scale.as_str(),
        u8::from(opts.trace),
    );
    for line in &out.info {
        println!("info: {line}");
    }
    for note in &out.tally.notes {
        println!("FAIL: {note}");
    }
    for (name, value, unit) in &out.metrics.0 {
        println!("metric: {name} = {value} {unit}");
    }
    let metrics: Vec<String> = out
        .metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.tally.correct(),
        out.tally.attempted.max(1),
        out.tally.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--print-digests") {
        print!("{}", compute_digests());
        return ExitCode::SUCCESS;
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };
    let out = run(&opts);
    let _ = std::fs::remove_dir_all(&opts.scratch);
    println!("{}", report(&opts, &out));
    if out.tally.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
