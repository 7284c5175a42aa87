//! The three `dls-serve` workloads: start the release binary, warm it
//! up, run the measured closed loop, check every answer, and (traced)
//! replay the same requests through the library.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use dls_experiments::json::{json_num, parse_json, Json};
use rumr::{RunSpec, Scenario};

use crate::driver::{
    closed_loop, mean, par_check, quantile, LoopRun, Report, ServerProc, HTTP_CALLERS, SETUPS,
};
use crate::gen::{self, work_bound, Endpoint, HttpOp, HttpWorkload};
use crate::http::{get_once, Conn, Response};
use crate::prom::Scrape;
use crate::replay::{PlanAnswer, Service, SimAnswer, Tracer};
use crate::{layers, Run};

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    Hot,
    PlanCold,
    SimulateCold,
}

impl Kind {
    /// Operations generated per second of measurement: about twice what
    /// this machine completes or more, so a cold workload never repeats a
    /// body.
    /// A program fast enough to use them all up ends the measured phase
    /// early, and its rates are taken over the time that phase took.
    fn ops_per_s_capacity(self) -> usize {
        match self {
            Kind::Hot => 80_000,
            Kind::PlanCold => 8_000,
            Kind::SimulateCold => 2_500,
        }
    }

    /// Measured operations the traced run replays (the first ones, so the
    /// same seed replays the same requests).
    fn replay_cap(self) -> usize {
        match self {
            Kind::Hot => 20_000,
            Kind::PlanCold => 3_000,
            Kind::SimulateCold => 1_000,
        }
    }

    fn workload(self, seed: u64, measured: usize) -> HttpWorkload {
        match self {
            Kind::Hot => gen::serve_hot(seed, measured),
            Kind::PlanCold => gen::plan_cold(seed, measured),
            Kind::SimulateCold => gen::simulate_cold(seed, measured),
        }
    }
}

/// A measured answer: whole for the cold workloads, reduced on the spot
/// for `serve-hot` (whose answers all repeat warm-up answers).
enum Digest {
    Full(Response),
    Plan(PlanDigest),
    Hot { status: u16, hit: bool, same: bool },
    Error(String),
}

impl Digest {
    fn ok(&self) -> bool {
        match self {
            Digest::Full(r) => r.status == 200,
            Digest::Plan(p) => p.status == 200,
            Digest::Hot { status, .. } => *status == 200,
            Digest::Error(_) => false,
        }
    }
}

/// What the checks need from a `/plan` answer, read off the body by the
/// caller after its latency is taken, so `plan-cold` keeps no bodies
/// (whole engine schedules would hold several hundred MB).
struct PlanDigest {
    status: u16,
    header_source: Option<String>,
    source: Option<String>,
    makespan: Option<f64>,
    /// Sum of the `schedule` array's chunks.
    handed_out: f64,
    /// The body's start, for messages about a failed request.
    head: String,
}

fn scan_num(text: &str, key: &str) -> Option<f64> {
    let rest = &text[text.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

impl PlanDigest {
    fn read(r: &Response) -> PlanDigest {
        let body = r.body_str();
        let source = body
            .find("\"source\":\"")
            .map(|i| &body[i + 10..])
            .and_then(|rest| rest.split('"').next())
            .map(str::to_string);
        let schedule = body
            .find("\"schedule\":[")
            .map(|i| &body[i..])
            .and_then(|rest| rest.split(']').next())
            .unwrap_or("");
        let handed_out = schedule
            .split("\"chunk\":")
            .skip(1)
            .filter_map(|part| scan_num(part, ""))
            .sum();
        PlanDigest {
            status: r.status,
            header_source: r.header("x-answer-source").map(str::to_string),
            source,
            makespan: scan_num(body, "\"makespan\":"),
            handed_out,
            head: body.chars().take(200).collect(),
        }
    }

    /// The answer as the replay gives it.
    fn answer(&self) -> Result<PlanAnswer, String> {
        let makespan = self.makespan.ok_or("plan answer without a makespan")?;
        let source = match self.source.as_deref() {
            Some("analytic") => "analytic",
            Some("engine") => "engine",
            other => return Err(format!("plan answer with source {other:?}")),
        };
        Ok(PlanAnswer {
            makespan: json_num(makespan),
            source,
        })
    }
}

fn send(
    conn: &mut Option<Conn>,
    addr: std::net::SocketAddr,
    op: &HttpOp,
) -> (u64, Result<Response, String>) {
    if conn.is_none() {
        match Conn::connect(addr) {
            Ok(c) => *conn = Some(c),
            Err(e) => return (0, Err(format!("connect: {e}"))),
        }
    }
    let c = conn.as_mut().expect("connected above");
    let start = Instant::now();
    let result = c.request("POST", op.endpoint.path(), op.body.as_bytes());
    let ns = start.elapsed().as_nanos() as u64;
    if result.is_err() {
        *conn = None;
    }
    (ns, result.map_err(|e| e.to_string()))
}

fn scrape(server: &ServerProc) -> Result<Scrape, String> {
    let r = get_once(server.addr, "/v1/metrics").map_err(|e| format!("GET /metrics: {e}"))?;
    Scrape::parse(r.body_str())
}

/// `/plan` and `/simulate` requests the service has counted.
fn counted_requests(s: &Scrape) -> f64 {
    s.family("dls_serve_requests_total")
        .iter()
        .filter(|(labels, _)| {
            [Endpoint::Plan, Endpoint::Simulate]
                .iter()
                .any(|e| labels.contains(&format!("endpoint=\"{}\"", e.label())))
        })
        .map(|(_, v)| v)
        .sum()
}

/// Scrape `/metrics` once the service has counted `served` requests. It
/// counts a request after writing its answer, so a scrape sent right
/// after the last answer can miss that request. After a second the last
/// scrape is returned as it is, and the counter checks judge it.
fn scrape_settled(server: &ServerProc, served: usize) -> Result<Scrape, String> {
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let s = scrape(server)?;
        if counted_requests(&s) >= served as f64 || Instant::now() >= deadline {
            return Ok(s);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Start the program and send the warm-up; returns the server, the
/// warm-up answers in warm-up order, and the set-up time.
fn set_up(bin: &Path, w: &HttpWorkload) -> Result<(ServerProc, Vec<Response>, f64), String> {
    let start = Instant::now();
    let server = ServerProc::start(bin)?;
    let addr = server.addr;
    let warm = closed_loop(
        HTTP_CALLERS,
        w.warmup.len(),
        None,
        || None,
        |conn, pos| send(conn, addr, &w.table[w.warmup[pos]]),
    );
    let setup_s = start.elapsed().as_secs_f64();
    let answers = warm
        .samples
        .into_iter()
        .map(|s| s.out)
        .collect::<Result<Vec<_>, _>>()?;
    Ok((server, answers, setup_s))
}

pub fn run(kind: Kind, run: &Run, bin: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let w = kind.workload(run.seed, kind.ops_per_s_capacity() * run.seconds as usize);

    let mut setups = Vec::with_capacity(SETUPS);
    let mut earlier: Vec<Vec<Response>> = Vec::new();
    let (server, warm) = loop {
        let (server, warm, setup_s) = set_up(bin, &w)?;
        setups.push(setup_s);
        if setups.len() == SETUPS {
            break (server, warm);
        }
        earlier.push(warm);
    };
    for other in &earlier {
        let differ = other
            .iter()
            .zip(&warm)
            .filter(|(a, b)| a.body != b.body)
            .count();
        report.expect(differ == 0, || {
            format!("{differ} warm-up answers differ between two starts of the program")
        });
    }

    // Reference answers of serve-hot: the first warm-up pass sends each
    // working-set body once, in table order.
    let refs: Vec<&[u8]> = if kind == Kind::Hot {
        warm[..w.table.len()]
            .iter()
            .map(|r| r.body.as_slice())
            .collect()
    } else {
        Vec::new()
    };
    let before = scrape_settled(&server, w.warmup.len())?;
    let cpu_before = crate::procfs::cpu_seconds(server.pid())?;
    let addr = server.addr;
    let measured: LoopRun<Digest> = closed_loop(
        HTTP_CALLERS,
        w.measured.len(),
        Some(Duration::from_secs(run.seconds)),
        || None,
        |conn, pos| {
            let idx = w.measured[pos];
            let (ns, result) = send(conn, addr, &w.table[idx]);
            let digest = match result {
                Err(e) => Digest::Error(e),
                Ok(r) if kind == Kind::Hot => Digest::Hot {
                    status: r.status,
                    hit: r.header("x-plan-cache") == Some("hit")
                        || r.header("x-sim-cache") == Some("hit"),
                    same: r.body == refs[idx],
                },
                Ok(r) if kind == Kind::PlanCold => Digest::Plan(PlanDigest::read(&r)),
                Ok(r) => Digest::Full(r),
            };
            (ns, digest)
        },
    );
    let cpu_s = crate::procfs::cpu_seconds(server.pid())? - cpu_before;
    let after = scrape_settled(&server, w.warmup.len() + measured.samples.len())?;
    let rss_mb = crate::procfs::peak_rss_mb(server.pid())?;
    drop(server);

    // End-to-end metrics, from the untraced loop only.
    let ok: Vec<f64> = measured
        .samples
        .iter()
        .filter(|s| s.out.ok())
        .map(|s| s.ns as f64 / 1e6)
        .collect();
    report.attempted = measured.samples.len() as u64;
    report.failed = report.attempted - ok.len() as u64;
    for s in measured.samples.iter().filter(|s| !s.out.ok()).take(3) {
        let what = match &s.out {
            Digest::Error(e) => e.clone(),
            Digest::Full(r) => format!("status {}: {}", r.status, r.body_str()),
            Digest::Plan(p) => format!("status {}: {}", p.status, p.head),
            Digest::Hot { status, .. } => format!("status {status}"),
        };
        report.fail(format!("operation {} failed: {what}", s.pos));
    }
    if measured.exhausted {
        report.notes.push(format!(
            "every generated operation was used, after {:.3} s",
            measured.elapsed_s
        ));
    }
    report.expect(!ok.is_empty(), || "no operation completed".into());
    if ok.is_empty() {
        return Ok(report);
    }
    report.metric("ops_per_s", ok.len() as f64 / measured.elapsed_s, "1/s");
    report.metric("p50_ms", quantile(&ok, 0.5), "ms");
    report.metric("cpu_ms_per_op", cpu_s * 1000.0 / ok.len() as f64, "ms");
    report.metric("setup_s", quantile(&setups, 0.5), "s");
    report.metric("peak_rss_mb", rss_mb, "MB");
    report.notes.push(format!(
        "{} callers, {} measured operations (client.p99_ms samples) in {:.3} s; set-ups {:?} s",
        HTTP_CALLERS,
        ok.len(),
        measured.elapsed_s,
        setups
    ));

    // Output checks (outside the timed region).
    check_counters(kind, &w, &measured, &before, &after, &mut report);
    match kind {
        Kind::Hot => check_hot(&w, &warm, &measured, &mut report),
        Kind::PlanCold => {
            let warm: Vec<PlanDigest> = warm.iter().map(PlanDigest::read).collect();
            let answers: Vec<(&HttpOp, &PlanDigest)> = w
                .warmup
                .iter()
                .map(|&i| &w.table[i])
                .zip(&warm)
                .chain(measured.samples.iter().filter_map(|s| match &s.out {
                    Digest::Plan(p) if p.status == 200 => Some((&w.table[w.measured[s.pos]], p)),
                    _ => None,
                }))
                .collect();
            check_all(&answers, |(op, p)| check_plan(op, p), &mut report);
        }
        Kind::SimulateCold => {
            let answers: Vec<(&HttpOp, &Response)> = w
                .warmup
                .iter()
                .map(|&i| &w.table[i])
                .zip(&warm)
                .chain(measured.samples.iter().filter_map(|s| match &s.out {
                    Digest::Full(r) if r.status == 200 => Some((&w.table[w.measured[s.pos]], r)),
                    _ => None,
                }))
                .collect();
            check_all(&answers, |(op, r)| check_simulate(op, r), &mut report);
        }
    }

    if run.trace {
        let server_ms = server_ms_per_req(&before, &after);
        let mean_ms = mean(&ok);
        report.metrics.clear();
        report.metric("client.p99_ms", quantile(&ok, 0.99), "ms");
        report.metric("server.ms_per_req", server_ms, "ms");
        report.metric("server.outside_ms_per_req", mean_ms - server_ms, "ms");
        counter_metrics(&before, &after, &mut report);
        let (tracer, replayed) = replay(kind, &w, &warm, &measured, &mut report)?;
        let per_req_ms = layers::service_mean_ns(&tracer.spans) / 1e6;
        report.metric("server.residual_ms_per_req", server_ms - per_req_ms, "ms");
        layers::layer_metrics(&tracer, &mut report);
        report.metric("sweep.overhead_us_per_cell", 0.0, "us");
        report.metric("trace.overhead_pct", 0.0, "%");
        report.notes.push(format!(
            "replayed {replayed} measured operations, {} spans",
            tracer.spans.len()
        ));
        layers::write_spans(run, &tracer.spans)?;
    }
    Ok(report)
}

/// Check every answer on all cores and record the failures.
fn check_all<T: Sync>(
    answers: &[T],
    check: impl Fn(&T) -> Vec<String> + Sync,
    report: &mut Report,
) {
    let failures = par_check(answers, check);
    report.notes.push(format!(
        "checked {} answers, {} failures",
        answers.len(),
        failures.len()
    ));
    report.failures.extend(failures);
}

fn sent_per_endpoint(w: &HttpWorkload, measured: &LoopRun<Digest>) -> BTreeMap<&'static str, f64> {
    let mut sent = BTreeMap::new();
    for s in &measured.samples {
        *sent
            .entry(w.table[w.measured[s.pos]].endpoint.label())
            .or_insert(0.0) += 1.0;
    }
    sent
}

/// The service's own counters must describe the workload: every request
/// counted once under its endpoint, no rejections or accept errors, no
/// fast-path divergence, and the cache behaviour the workload is for.
fn check_counters(
    kind: Kind,
    w: &HttpWorkload,
    measured: &LoopRun<Digest>,
    before: &Scrape,
    after: &Scrape,
    report: &mut Report,
) {
    let sent = sent_per_endpoint(w, measured);
    let counted = |endpoint: &str, statuses: bool| -> f64 {
        let family = |s: &Scrape| s.family("dls_serve_requests_total");
        let (b, a) = (family(before), family(after));
        a.iter()
            .filter(|(labels, _)| labels.contains(&format!("endpoint=\"{endpoint}\"")))
            .filter(|(labels, _)| !statuses || labels.contains("status=\"200\""))
            .map(|(labels, v)| v - b.get(labels).copied().unwrap_or(0.0))
            .sum()
    };
    for endpoint in [Endpoint::Plan, Endpoint::Simulate].map(Endpoint::label) {
        let expect = sent.get(endpoint).copied().unwrap_or(0.0);
        let (all, ok) = (counted(endpoint, false), counted(endpoint, true));
        report.expect(all == expect && ok == expect, || {
            format!("/metrics counted {all} {endpoint} requests ({ok} with status 200), the benchmark sent {expect}")
        });
    }
    let d = |series: &str| Scrape::delta(before, after, series);
    for series in [
        "dls_serve_rejected_total",
        "dls_serve_accept_errors_total",
        "dls_serve_fastpath_divergence_total",
    ] {
        report.expect(d(series) == 0.0, || {
            format!("{series} rose by {} during the measured phase", d(series))
        });
    }
    let plan_hits = d("dls_serve_plan_cache_hits_total");
    let sim_hits = d("dls_serve_sim_cache_hits_total");
    if kind == Kind::Hot {
        let plan_misses = d("dls_serve_plan_cache_misses_total");
        let sim_misses = d("dls_serve_sim_cache_misses_total");
        report.expect(plan_misses == 0.0 && sim_misses == 0.0 && plan_hits > 0.0 && sim_hits > 0.0, || {
            format!("serve-hot must hit both caches on every request: plan {plan_hits} hits / {plan_misses} misses, simulate {sim_hits} hits / {sim_misses} misses")
        });
    } else {
        report.expect(plan_hits == 0.0 && sim_hits == 0.0, || {
            format!("a cold workload hit a cache: {plan_hits} plan hits, {sim_hits} response hits")
        });
    }
}

fn server_ms_per_req(before: &Scrape, after: &Scrape) -> f64 {
    let (mut sum, mut count) = (0.0, 0.0);
    for endpoint in ["/plan", "/simulate"] {
        sum += Scrape::delta(
            before,
            after,
            &format!("dls_serve_request_seconds_sum{{endpoint=\"{endpoint}\"}}"),
        );
        count += Scrape::delta(
            before,
            after,
            &format!("dls_serve_request_seconds_count{{endpoint=\"{endpoint}\"}}"),
        );
    }
    if count > 0.0 {
        sum * 1000.0 / count
    } else {
        0.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer numbers the service counts itself, as measured-phase deltas.
fn counter_metrics(before: &Scrape, after: &Scrape, report: &mut Report) {
    let d = |series: &str| Scrape::delta(before, after, series);
    let shards: Vec<f64> = after
        .family("dls_serve_shard_requests_total")
        .iter()
        .map(|(labels, v)| {
            v - before
                .family("dls_serve_shard_requests_total")
                .get(labels)
                .copied()
                .unwrap_or(0.0)
        })
        .collect();
    let shard_total: f64 = shards.iter().sum();
    let shard_max = shards.iter().copied().fold(0.0, f64::max);
    report.metric(
        "server.shard_max_share",
        ratio(shard_max, shard_total),
        "ratio",
    );
    let (ph, pm) = (
        d("dls_serve_plan_cache_hits_total"),
        d("dls_serve_plan_cache_misses_total"),
    );
    let (sh, sm) = (
        d("dls_serve_sim_cache_hits_total"),
        d("dls_serve_sim_cache_misses_total"),
    );
    report.metric("cache.plan_hit_ratio", ratio(ph, ph + pm), "ratio");
    report.metric("cache.sim_hit_ratio", ratio(sh, sh + sm), "ratio");
    let requests = d("dls_serve_request_seconds_count{endpoint=\"/plan\"}")
        + d("dls_serve_request_seconds_count{endpoint=\"/simulate\"}");
    let evictions =
        d("dls_serve_plan_cache_evictions_total") + d("dls_serve_sim_cache_evictions_total");
    report.metric(
        "cache.evictions_per_req",
        ratio(evictions, requests),
        "count",
    );
    let (analytic, engine) = (
        d("dls_serve_fastpath_analytic_total"),
        d("dls_serve_fastpath_engine_total"),
    );
    report.metric(
        "fastpath.analytic_ratio",
        ratio(analytic, analytic + engine),
        "ratio",
    );
}

fn body_json(r: &Response) -> Result<Json, String> {
    parse_json(r.body_str()).map_err(|e| format!("answer is not JSON ({e}): {}", r.body_str()))
}

fn num(v: &Json, field: &str) -> Option<f64> {
    v.get(field).and_then(Json::num)
}

/// The per-repetition numbers of a `/simulate` answer.
fn sim_answer(r: &Response) -> Result<(SimAnswer, Json), String> {
    let v = body_json(r)?;
    let runs = v
        .get("runs")
        .and_then(Json::arr)
        .ok_or("simulate answer without runs")?;
    let mut answer = SimAnswer {
        mean: json_num(num(&v, "mean_makespan").ok_or("simulate answer without a mean")?),
        ..SimAnswer::default()
    };
    for run in runs {
        answer.makespans.push(json_num(
            num(run, "makespan").ok_or("run without a makespan")?,
        ));
        if let Some(ratio) = run.get("robustness").and_then(|rb| num(rb, "ratio")) {
            answer.ratios.push(json_num(ratio));
        }
    }
    Ok((answer, v))
}

fn same_numbers(replayed: &SimAnswer, served: &SimAnswer) -> bool {
    replayed.makespans == served.makespans
        && replayed.mean == served.mean
        && replayed.ratios == served.ratios
}

/// `serve-hot`: warm-up answers equal the library's answers, and every
/// measured answer is a cache hit, byte-identical to its warm-up answer.
fn check_hot(w: &HttpWorkload, warm: &[Response], measured: &LoopRun<Digest>, report: &mut Report) {
    let service = Service::default();
    let mut off = Tracer::new(false);
    for (i, op) in w.table.iter().enumerate() {
        let r = &warm[i];
        let verdict = match op.endpoint {
            Endpoint::Plan => service.plan(&op.body, &mut off).and_then(|lib| {
                let got = PlanDigest::read(r).answer()?;
                (got == lib)
                    .then_some(())
                    .ok_or(format!("served {got:?}, library {lib:?}"))
            }),
            Endpoint::Simulate => service.simulate(&op.body, &mut off).and_then(|lib| {
                let (got, _) = sim_answer(r)?;
                same_numbers(&lib, &got)
                    .then_some(())
                    .ok_or(format!("served {got:?}, library {lib:?}"))
            }),
        };
        if let Err(e) = verdict {
            report.fail(format!("working-set request {i} ({}): {e}", op.class));
        }
    }
    let warm_mismatch = w
        .warmup
        .iter()
        .zip(warm)
        .filter(|(&i, r)| r.status != 200 || r.body != warm[i].body)
        .count();
    report.expect(warm_mismatch == 0, || {
        format!("{warm_mismatch} warm-up answers differ from the first answer to the same request")
    });
    let (mut misses, mut changed) = (0, 0);
    for s in &measured.samples {
        if let Digest::Hot {
            status: 200,
            hit,
            same,
        } = s.out
        {
            misses += usize::from(!hit);
            changed += usize::from(!same);
        }
    }
    report.expect(misses == 0 && changed == 0, || {
        format!("{misses} measured answers were not cache hits and {changed} differed from their warm-up answer")
    });
}

fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(f64::MIN_POSITIVE)
}

/// `plan-cold`, one answer: source as the method's closed forms dictate,
/// makespan at or above W/ΣSᵢ, analytic makespans reproduced by a
/// discrete-event run, engine schedules that hand out exactly `w_total`.
fn check_plan(op: &HttpOp, p: &PlanDigest) -> Vec<String> {
    let fail = |msg: String| vec![format!("{}: {msg}; request {}", op.class, op.body)];
    if p.status != 200 {
        return fail(format!("status {}", p.status));
    }
    let Some(makespan) = p.makespan else {
        return fail(format!("no makespan in {}", p.head));
    };
    let expected = if op.expect_analytic {
        "analytic"
    } else {
        "engine"
    };
    if p.source.as_deref() != Some(expected) || p.header_source.as_deref() != Some(expected) {
        return fail(format!(
            "answered from {:?} (header {:?}), expected {expected}",
            p.source, p.header_source
        ));
    }
    let bound = work_bound(op.w_total, &op.speeds);
    if makespan < bound * (1.0 - 1e-12) {
        return fail(format!("makespan {makespan} below W/ΣS = {bound}"));
    }
    if op.expect_analytic {
        let req = match dls_serve::PlanRequest::from_json_str(&op.body) {
            Ok(req) => req,
            Err(e) => return fail(format!("library cannot decode: {}", e.0)),
        };
        let scenario = Scenario {
            platform: req.platform.clone(),
            w_total: req.w_total,
            error_model: rumr::ErrorModel::None,
            cost_profile: None,
            temporal_noise: None,
        };
        match scenario.execute(&RunSpec::new(req.kind)) {
            Ok(run) if rel_diff(makespan, run.makespan) <= 1e-6 => {}
            Ok(run) => {
                return fail(format!(
                    "analytic makespan {makespan}, discrete-event run {}",
                    run.makespan
                ))
            }
            Err(e) => return fail(format!("discrete-event run failed: {e}")),
        }
    } else if rel_diff(p.handed_out, op.w_total) > 1e-9 {
        return fail(format!(
            "schedule chunks sum to {}, w_total is {}",
            p.handed_out, op.w_total
        ));
    }
    Vec::new()
}

/// `simulate-cold`, one answer: a clean audit, conserved work, complete
/// fault-free runs, robustness ratios ≥ 1, and the library's numbers.
fn check_simulate(op: &HttpOp, r: &Response) -> Vec<String> {
    let mut failures = Vec::new();
    let mut fail = |msg: String| failures.push(format!("{}: {msg}; request {}", op.class, op.body));
    if r.status != 200 || r.header("x-answer-source") != Some("engine") {
        fail(format!(
            "status {}, source {:?}",
            r.status,
            r.header("x-answer-source")
        ));
        return failures;
    }
    let (served, v) = match sim_answer(r) {
        Ok(x) => x,
        Err(e) => {
            fail(e);
            return failures;
        }
    };
    let runs = v.get("runs").and_then(Json::arr).unwrap_or(&[]);
    if runs.len() as u64 != op.reps {
        fail(format!("{} runs for {} repetitions", runs.len(), op.reps));
    }
    let tol = 1e-9 * op.w_total;
    for (i, run) in runs.iter().enumerate() {
        if run
            .get("audit_findings")
            .and_then(Json::arr)
            .is_none_or(|f| !f.is_empty())
        {
            fail(format!("run {i} has audit findings"));
        }
        let residual = num(run, "conservation_residual");
        if !residual.is_some_and(|r| r.abs() <= tol) {
            fail(format!("run {i} conservation residual {residual:?}"));
        }
        let completed = num(run, "completed_work");
        if !op.faulty && !completed.is_some_and(|c| (c - op.w_total).abs() <= tol) {
            fail(format!(
                "fault-free run {i} completed {completed:?} of {}",
                op.w_total
            ));
        }
        if op.revealed_speeds {
            let ratio = run
                .get("robustness")
                .and_then(|rb| num(rb, "ratio"))
                .unwrap_or(f64::NAN);
            if ratio.is_nan() || ratio < 1.0 {
                fail(format!("run {i} robustness ratio {ratio}"));
            }
        }
    }
    match Service::default().simulate(&op.body, &mut Tracer::new(false)) {
        Ok(lib) => {
            if !same_numbers(&lib, &served) {
                fail(format!("served {served:?}, library {lib:?}"));
            }
            if lib
                .unaccounted
                .iter()
                .chain(&lib.outstanding)
                .any(|x| x.abs() > tol)
            {
                fail(format!(
                    "dispatched work is not completed + lost: {:?}, outstanding {:?}",
                    lib.unaccounted, lib.outstanding
                ));
            }
        }
        Err(e) => fail(format!("library run failed: {e}")),
    }
    failures
}

/// The traced run: replay the warm-up untraced (to reach the same cache
/// state), then the first measured requests with spans, and require each
/// replayed answer to equal the answer the untraced run received.
fn replay(
    kind: Kind,
    w: &HttpWorkload,
    warm: &[Response],
    measured: &LoopRun<Digest>,
    report: &mut Report,
) -> Result<(Tracer, usize), String> {
    let service = Service::default();
    let mut off = Tracer::new(false);
    for &i in &w.warmup {
        let op = &w.table[i];
        match op.endpoint {
            Endpoint::Plan => service.plan(&op.body, &mut off).map(drop)?,
            Endpoint::Simulate => service.simulate(&op.body, &mut off).map(drop)?,
        }
    }
    let count = kind.replay_cap().min(measured.samples.len());
    let mut tracer = Tracer::new(true);
    let mut stale = 0usize;
    for s in &measured.samples[..count] {
        let idx = w.measured[s.pos];
        let op = &w.table[idx];
        // serve-hot's measured answers are byte-identical to their warm-up
        // answers (checked above), so those stand in for them.
        let response = || match (&s.out, kind) {
            (Digest::Full(r), _) => Ok(r),
            (Digest::Hot { .. }, Kind::Hot) => Ok(&warm[idx]),
            _ => Err(format!(
                "operation {} has no answer to replay against",
                s.pos
            )),
        };
        let name = if op.endpoint == Endpoint::Plan {
            "op.plan"
        } else {
            "op.simulate"
        };
        tracer.begin_op(s.pos as u32, name);
        let same = match op.endpoint {
            Endpoint::Plan => {
                let replayed = service.plan(&op.body, &mut tracer)?;
                tracer.end_op();
                let served = match &s.out {
                    Digest::Plan(p) => p.answer()?,
                    _ => PlanDigest::read(response()?).answer()?,
                };
                served == replayed
            }
            Endpoint::Simulate => {
                let replayed = service.simulate(&op.body, &mut tracer)?;
                tracer.end_op();
                same_numbers(&replayed, &sim_answer(response()?)?.0)
            }
        };
        stale += usize::from(!same);
    }
    report.expect(stale == 0, || {
        format!("stale replay: {stale} replayed answers differ from the answers the service gave")
    });
    Ok((tracer, count))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(body: &str, source: &str) -> Response {
        Response {
            status: 200,
            headers: vec![("x-answer-source".into(), source.into())],
            body: body.as_bytes().to_vec(),
        }
    }

    #[test]
    fn plan_digest_reads_hand_written_answers() {
        let engine = r#"{"api_version":"v1","source":"engine","schedule":[{"worker":0,"chunk":60,"send_time":0},{"worker":1,"chunk":40.5,"send_time":1.25}],"rounds":null,"makespan":12.5,"num_chunks":2,"scheduler":"RUMR","predicted":{"kind":"lower_bound","makespan":11}}"#;
        let p = PlanDigest::read(&response(engine, "engine"));
        assert_eq!(
            (p.status, p.makespan, p.handed_out),
            (200, Some(12.5), 100.5)
        );
        assert_eq!(p.source.as_deref(), Some("engine"));
        assert_eq!(p.header_source.as_deref(), Some("engine"));
        let answer = p.answer().unwrap();
        assert_eq!(
            (answer.makespan.as_str(), answer.source),
            ("12.5", "engine")
        );

        let analytic = r#"{"api_version":"v1","source":"analytic","schedule":[],"rounds":[{"round":0,"chunk":7,"dispatch_start":0}],"makespan":1.0e2,"num_chunks":null}"#;
        let p = PlanDigest::read(&response(analytic, "analytic"));
        assert_eq!((p.makespan, p.handed_out), (Some(100.0), 0.0));
        assert_eq!(p.answer().unwrap().source, "analytic");

        let p = PlanDigest::read(&response(r#"{"code":"bad_request"}"#, ""));
        assert!(p.makespan.is_none() && p.answer().is_err());
    }
}
