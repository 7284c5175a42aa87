//! One benchmark for `dls-serve` and the paper's sweep.
//!
//! `perfbench --workload NAME --seed N --seconds S --trace 0|1
//! [--serve-bin PATH]` runs one workload (`serve-hot`, `plan-cold`,
//! `simulate-cold`, `paper-sweep`) and prints, as the last line of
//! stdout, `{"correct", "attempted", "failed", "metrics"}`. Untraced
//! (`--trace 0`) it reports the end-to-end metrics; traced, it repeats
//! the untraced run and then replays its operations through each layer's
//! public functions, reporting the per-layer metrics. Every answer is
//! checked; the exit code is non-zero when a check fails.
//! See `perfbench/README.md`.

mod driver;
mod gen;
mod http;
mod layers;
mod procfs;
mod prom;
mod replay;
mod serve;
mod sweep;

use std::path::PathBuf;

/// One run's settings.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const END_TO_END: [&str; 5] = [
    "ops_per_s",
    "p50_ms",
    "cpu_ms_per_op",
    "setup_s",
    "peak_rss_mb",
];

const PER_LAYER: [&str; 23] = [
    "client.p99_ms",
    "server.ms_per_req",
    "server.outside_ms_per_req",
    "server.residual_ms_per_req",
    "server.shard_max_share",
    "json.parse_us",
    "api.decode_us",
    "api.key_us",
    "cache.get_us",
    "cache.insert_us",
    "cache.plan_hit_ratio",
    "cache.sim_hit_ratio",
    "cache.evictions_per_req",
    "fastpath.resolve_us",
    "fastpath.analytic_ratio",
    "sched.prototype_us",
    "sched.oracle_us",
    "engine.us_per_run",
    "engine.ns_per_event",
    "engine.events_per_run",
    "robustness.us_per_report",
    "sweep.overhead_us_per_cell",
    "trace.overhead_pct",
];

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload serve-hot|plan-cold|simulate-cold|paper-sweep --seed N \
         --seconds S --trace 0|1 [--serve-bin PATH]"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--sweep-child") {
        if let Err(e) = sweep::child_main() {
            eprintln!("perfbench sweep process: {e}");
            std::process::exit(1);
        }
        return;
    }
    let (mut workload, mut seed, mut seconds, mut trace, mut serve_bin) =
        (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|&s| s > 0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    let run = Run {
        workload,
        seed,
        seconds,
        trace,
    };
    let bin = || {
        serve_bin
            .clone()
            .unwrap_or_else(|| PathBuf::from(".bench_build/release/dls-serve"))
    };
    let result = match run.workload.as_str() {
        "serve-hot" => serve::run(serve::Kind::Hot, &run, &bin()),
        "plan-cold" => serve::run(serve::Kind::PlanCold, &run, &bin()),
        "simulate-cold" => serve::run(serve::Kind::SimulateCold, &run, &bin()),
        "paper-sweep" => sweep::run(&run),
        _ => usage(),
    };
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench {}: {e}", run.workload);
            std::process::exit(1);
        }
    };

    let expected: &[&str] = if run.trace { &PER_LAYER } else { &END_TO_END };
    report.metrics.sort_by_key(|m| {
        expected
            .iter()
            .position(|e| *e == m.0)
            .unwrap_or(usize::MAX)
    });
    let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
    if names != expected {
        report.fail(format!("reported metrics {names:?}, expected {expected:?}"));
    }
    for (name, value, _) in &report.metrics {
        if !value.is_finite() {
            report.failures.push(format!("metric {name} is not finite"));
        }
    }
    eprintln!(
        "perfbench {} seed {} ({} s, trace {})",
        run.workload,
        run.seed,
        run.seconds,
        u8::from(run.trace)
    );
    for note in &report.notes {
        eprintln!("  {note}");
    }
    for (name, value, unit) in &report.metrics {
        eprintln!("  {name:<28} {value:>14.6} {unit}");
    }
    eprintln!("  attempted {}, failed {}", report.attempted, report.failed);
    if let Ok(mb) = procfs::peak_rss_mb(std::process::id()) {
        eprintln!("  benchmark process peak RSS {mb:.1} MB");
    }
    for f in report.failures.iter().take(20) {
        eprintln!("  CHECK FAILED: {f}");
    }
    if report.failures.len() > 20 {
        eprintln!(
            "  ... and {} more failed checks",
            report.failures.len() - 20
        );
    }
    let correct = report.failures.is_empty() && report.failed == 0;
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
