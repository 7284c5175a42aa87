//! Per-layer numbers from the traced replay's spans.

use std::collections::BTreeMap;
use std::io::Write;

use crate::driver::Report;
use crate::replay::{Span, Tracer};
use crate::Run;

/// Total nanoseconds and call count of every layer span (root spans excluded).
fn totals(spans: &[Span]) -> BTreeMap<&'static str, (f64, f64)> {
    let mut totals = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent.is_some()) {
        let entry = totals.entry(s.name).or_insert((0.0, 0.0));
        entry.0 += s.ns() as f64;
        entry.1 += 1.0;
    }
    totals
}

/// Mean duration of the operations' root spans.
pub fn root_mean_ns(spans: &[Span]) -> f64 {
    let roots: Vec<f64> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.ns() as f64)
        .collect();
    crate::driver::mean(&roots)
}

/// Mean replayed time of one request as the service's request timer
/// sees it: the root span less the repeated parse and oracle solve the
/// service does not make (see `replay::stand_in`), and less the decoding
/// of `/simulate` bodies, which the service does before it starts that
/// endpoint's timer.
pub fn service_mean_ns(spans: &[Span]) -> f64 {
    let ops = spans.iter().filter(|s| s.parent.is_none()).count().max(1) as f64;
    let t = totals(spans);
    let stand_ins: f64 = ["json.parse", "sched.oracle"]
        .iter()
        .map(|n| t.get(n).map_or(0.0, |x| x.0))
        .sum();
    let untimed_decode: f64 = spans
        .iter()
        .filter(|s| s.name == "api.decode")
        .filter(|s| {
            s.parent
                .is_some_and(|p| spans[p as usize].name == "op.simulate")
        })
        .map(|s| s.ns() as f64)
        .sum();
    root_mean_ns(spans) - (stand_ins + untimed_decode) / ops
}

/// Total layer time of the planner and engine spans.
pub fn planner_engine_ns(spans: &[Span]) -> f64 {
    let t = totals(spans);
    ["sched.prototype", "engine.run"]
        .iter()
        .map(|n| t.get(n).map_or(0.0, |x| x.0))
        .sum()
}

fn per_call_us(ns: f64, calls: f64) -> f64 {
    if calls > 0.0 {
        ns / calls / 1000.0
    } else {
        0.0
    }
}

/// Self time per call of each layer. Where one public function calls
/// another that has its own span (`from_json_str` parses; the resolver
/// solves the oracle), the inner call's time is taken out of the outer.
pub fn layer_metrics(t: &Tracer, report: &mut Report) {
    let tot = totals(&t.spans);
    let get = |name: &str| tot.get(name).copied().unwrap_or((0.0, 0.0));
    let (parse, parses) = get("json.parse");
    let (decode, decodes) = get("api.decode");
    let (resolve, resolves) = get("fastpath.resolve");
    let (oracle, oracles) = get("sched.oracle");
    let (oracle_plan, oracles_plan) = get("sched.oracle.plan");
    let (engine, _) = get("engine.run");
    let (robust, _) = get("robustness.report");
    report.metric("json.parse_us", per_call_us(parse, parses), "us");
    report.metric("api.decode_us", per_call_us(decode - parse, decodes), "us");
    let (key, keys) = get("api.key");
    report.metric("api.key_us", per_call_us(key, keys), "us");
    let (cget, cgets) = get("cache.get");
    report.metric("cache.get_us", per_call_us(cget, cgets), "us");
    let (cins, cinss) = get("cache.insert");
    report.metric("cache.insert_us", per_call_us(cins, cinss), "us");
    report.metric(
        "fastpath.resolve_us",
        per_call_us(resolve - oracle, resolves),
        "us",
    );
    let (proto, protos) = get("sched.prototype");
    report.metric("sched.prototype_us", per_call_us(proto, protos), "us");
    report.metric(
        "sched.oracle_us",
        per_call_us(oracle + oracle_plan, oracles + oracles_plan),
        "us",
    );
    let runs = t.runs as f64;
    let events = t.events as f64;
    report.metric("engine.us_per_run", per_call_us(engine, runs), "us");
    report.metric(
        "engine.ns_per_event",
        if events > 0.0 { engine / events } else { 0.0 },
        "ns",
    );
    report.metric(
        "engine.events_per_run",
        if runs > 0.0 { events / runs } else { 0.0 },
        "count",
    );
    report.metric(
        "robustness.us_per_report",
        per_call_us(robust, t.reports as f64),
        "us",
    );
}

/// Write the spans, kept in memory during the run, as one TSV file under
/// `perfbench/out/`.
pub fn write_spans(run: &Run, spans: &[Span]) -> Result<(), String> {
    let dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.spans.tsv", run.workload, run.seed));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    writeln!(out, "op\tparent\tname\tstart_ns\tend_ns").map_err(io)?;
    for s in spans {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{}\t{parent}\t{}\t{}\t{}",
            s.op, s.name, s.start_ns, s.end_ns
        )
        .map_err(io)?;
    }
    out.flush().map_err(io)
}
