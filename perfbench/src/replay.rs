//! The service's request path and the sweep's cell loop, re-enacted
//! through each layer's public functions in the order the program calls
//! them today, with a span around every call.
//!
//! The same code gives the library's answer for the output checks (with
//! the tracer off) and the per-layer split of the traced run (with it
//! on). It copies the service's path as it is, waste included: the fast
//! path's resolver solves the planner again through
//! `SchedulerKind::oracle`, so that solve shows up under `sched.oracle`.
//! Spans come from this file, around the calls; the program itself is
//! not instrumented.

use std::sync::Arc;
use std::time::Instant;

use dls_experiments::json::{json_num, parse_json};
use dls_experiments::sweep::{paper_competitors, ErrorModelKind};
use dls_numerics::rng::SeedDeriver;
use dls_serve::{CachedPlan, PlanCache, PlanRequest, ServerConfig, SimCache, SimulateRequest};
use rumr::{
    ErrorModel, FastPath, HomogeneousParams, RepColumns, RunSpec, Scenario, SimConfig, TraceMode,
};

use crate::gen::SweepOp;

/// Repetitions per sweep cell (the quick sweep's setting).
pub const SWEEP_REPS: u64 = 10;

/// One timed call. `parent` is the index of the operation's root span;
/// all spans of one operation share `op`.
pub struct Span {
    pub op: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder, kept in memory until the run ends. Disabled, it only
/// runs the closures (and still counts engine runs and events).
pub struct Tracer {
    on: bool,
    base: Instant,
    pub spans: Vec<Span>,
    op: u32,
    root: Option<u32>,
    pub runs: u64,
    pub events: u64,
    pub reports: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            base: Instant::now(),
            spans: Vec::new(),
            op: 0,
            root: None,
            runs: 0,
            events: 0,
            reports: 0,
        }
    }

    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Open the root span of operation `op`.
    pub fn begin_op(&mut self, op: u32, name: &'static str) {
        self.op = op;
        if self.on {
            let t = self.now();
            self.root = Some(self.spans.len() as u32);
            self.spans.push(Span {
                op,
                parent: None,
                name,
                start_ns: t,
                end_ns: t,
            });
        }
    }

    pub fn end_op(&mut self) {
        if let Some(root) = self.root.take() {
            let t = self.now();
            self.spans[root as usize].end_ns = t;
        }
    }

    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.spans.push(Span {
            op: self.op,
            parent: self.root,
            name,
            start_ns,
            end_ns,
        });
        out
    }
}

/// What a `/plan` answer must say.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanAnswer {
    /// The makespan as `json::json_num` renders it.
    pub makespan: String,
    pub source: &'static str,
}

/// What a `/simulate` answer must say, per repetition. The conservation
/// columns are present only when the replay ran the engine (not on a
/// response-cache hit).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimAnswer {
    pub makespans: Vec<String>,
    pub mean: String,
    pub ratios: Vec<String>,
    /// `dispatched − (completed + lost)` per repetition.
    pub unaccounted: Vec<f64>,
    pub outstanding: Vec<f64>,
}

impl SimAnswer {
    /// The response-cache value: one line per field, numbers space-separated.
    fn encode(&self) -> String {
        format!(
            "{}\n{}\n{}",
            self.makespans.join(" "),
            self.mean,
            self.ratios.join(" ")
        )
    }

    fn decode(text: &str) -> SimAnswer {
        let mut lines = text.split('\n');
        let words = |l: Option<&str>| {
            l.unwrap_or("")
                .split_whitespace()
                .map(str::to_string)
                .collect::<Vec<_>>()
        };
        let makespans = words(lines.next());
        let mean = lines.next().unwrap_or("").to_string();
        let ratios = words(lines.next());
        SimAnswer {
            makespans,
            mean,
            ratios,
            ..SimAnswer::default()
        }
    }
}

/// The service's state that shapes a request's path: its two caches at
/// their default capacities and its default settings.
pub struct Service {
    plans: PlanCache,
    sims: SimCache,
    config: ServerConfig,
}

impl Default for Service {
    fn default() -> Self {
        let config = ServerConfig::default();
        Service {
            plans: PlanCache::new(config.cache_capacity),
            sims: SimCache::new(config.sim_cache_capacity),
            config,
        }
    }
}

/// Some calls make an inner call that has a layer of its own:
/// `from_json_str` parses, and the resolver solves the planner's oracle.
/// No span reaches inside, so the inner call is repeated right after the
/// outer one (both see warm caches) and recorded under the inner layer's
/// name. Its time is taken out of the outer layer's, and out of the
/// replay's per-request total, since the service does not pay it twice.
fn stand_in<T, E: std::fmt::Display>(
    t: &mut Tracer,
    name: &'static str,
    call: impl FnOnce() -> Result<T, E>,
) -> Result<(), String> {
    if t.on {
        t.span(name, call).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn api_err(e: dls_serve::ApiError) -> String {
    format!("decode: {}", e.0)
}

impl Service {
    /// `POST /plan`: decode, cache lookup, then prototype, fast-path
    /// resolution (and its sampled audit) or the full-trace engine run.
    pub fn plan(&self, body: &str, t: &mut Tracer) -> Result<PlanAnswer, String> {
        let plan = t
            .span("api.decode", || PlanRequest::from_json_str(body))
            .map_err(api_err)?;
        stand_in(t, "json.parse", || parse_json(body))?;
        let key = t.span("api.key", || plan.cache_key());
        if let Some(hit) = t.span("cache.get", || self.plans.get(&key)) {
            return Ok(PlanAnswer {
                makespan: hit.body.clone(),
                source: hit.source,
            });
        }
        let (kind, platform, w_total) = (plan.kind, &plan.platform, plan.w_total);
        let prototype = t
            .span("sched.prototype", || kind.prototype(platform, w_total))
            .map_err(|e| e.to_string())?;
        let scenario = Scenario {
            platform: platform.clone(),
            w_total,
            error_model: ErrorModel::None,
            cost_profile: None,
            temporal_noise: None,
        };
        let probe = RunSpec::new(kind);
        let pct = self.config.fastpath_audit_pct;
        let (decision, audit) = t.span("fastpath.resolve", || {
            let decision = FastPath::resolve_kind(&scenario, &probe, kind);
            let audit = matches!(&decision, Ok(d) if d.analytic().is_some())
                && FastPath::audit_due(&key, pct);
            (decision, audit)
        });
        let decision = decision.map_err(|e| e.to_string())?;
        stand_in(t, "sched.oracle", || kind.oracle(platform, w_total))?;
        let max_events = self.config.max_events;
        let answer = if let Some(analytic) = decision.analytic() {
            if audit {
                let spec = RunSpec::new(kind)
                    .max_events(max_events)
                    .with_prototype(prototype.clone())
                    .reps(1);
                let run = t
                    .span("engine.run", || scenario.execute(&spec))
                    .map_err(|e| e.to_string())?;
                t.runs += 1;
                t.events += run.events;
            }
            PlanAnswer {
                makespan: json_num(analytic.makespan),
                source: "analytic",
            }
        } else {
            let spec = RunSpec::new(kind)
                .trace_mode(TraceMode::Full)
                .max_events(max_events)
                .with_prototype(prototype.clone());
            let run = t
                .span("engine.run", || scenario.execute(&spec))
                .map_err(|e| e.to_string())?;
            t.runs += 1;
            t.events += run.events;
            t.span("sched.oracle.plan", || kind.oracle(platform, w_total))
                .map_err(|e| e.to_string())?;
            PlanAnswer {
                makespan: json_num(run.makespan),
                source: "engine",
            }
        };
        let cached = CachedPlan {
            prototype,
            body: answer.makespan.clone(),
            source: answer.source,
        };
        t.span("cache.insert", || self.plans.insert(key, Arc::new(cached)));
        Ok(answer)
    }

    /// `POST /simulate` with a prediction error: resolution (which
    /// declines), response-cache lookup, then the shard's part: plan-cache
    /// lookup, planner, batched engine run, robustness reports.
    pub fn simulate(&self, body: &str, t: &mut Tracer) -> Result<SimAnswer, String> {
        let sim = t
            .span("api.decode", || SimulateRequest::from_json_str(body))
            .map_err(api_err)?;
        stand_in(t, "json.parse", || parse_json(body))?;
        let (kind, scenario) = (sim.spec.kind, &sim.scenario);
        let decision = t.span("fastpath.resolve", || {
            FastPath::resolve(scenario, &sim.spec)
        });
        stand_in(t, "sched.oracle", || {
            kind.oracle(&scenario.platform, scenario.w_total)
        })?;
        if matches!(&decision, Ok(d) if d.analytic().is_some()) {
            return Err("analytic /simulate answers are outside this benchmark's workloads".into());
        }
        let key = t.span("api.key", || sim.canonical());
        if let Some(hit) = t.span("cache.get", || self.sims.get(&key)) {
            return Ok(SimAnswer::decode(&hit));
        }
        let plan_key = t.span("api.key", || sim.plan_key());
        let mut spec = sim.spec.clone();
        if let Some(cached) = t.span("cache.get", || self.plans.get(&plan_key)) {
            spec = spec.with_prototype(cached.prototype.clone());
        }
        spec.config.trace_mode = TraceMode::MetricsOnly;
        spec.config.audit = true;
        spec.config.max_events = spec.config.max_events.min(self.config.max_events);
        if spec.prototype.is_none() {
            let p = t
                .span("sched.prototype", || {
                    kind.prototype(&scenario.platform, scenario.w_total)
                })
                .map_err(|e| e.to_string())?;
            spec = spec.with_prototype(p);
        }
        let cols = t
            .span("engine.run", || {
                let mut runner = scenario.runner(spec.config.clone());
                let mut cols =
                    RepColumns::with_capacity(spec.reps as usize, scenario.platform.num_workers());
                runner.execute_batch(&spec, &mut cols).map(|_| cols)
            })
            .map_err(|e| e.to_string())?;
        t.runs += cols.len() as u64;
        t.events += cols.total_events();
        let ratios: Vec<String> = if spec.config.speeds.is_active() {
            let reports: Vec<_> = t.span("robustness.report", || {
                spec.seeds()
                    .zip(cols.makespan.iter())
                    .filter_map(|(seed, &m)| scenario.robustness(&spec, seed, m))
                    .collect()
            });
            t.reports += reports.len() as u64;
            reports.iter().map(|r| json_num(r.ratio)).collect()
        } else {
            Vec::new()
        };
        let answer = SimAnswer {
            makespans: cols.makespan.iter().map(|&m| json_num(m)).collect(),
            mean: json_num(cols.mean_makespan()),
            ratios,
            unaccounted: (0..cols.len())
                .map(|i| cols.dispatched_work[i] - (cols.completed_work[i] + cols.lost_work[i]))
                .collect(),
            outstanding: cols.outstanding_work.clone(),
        };
        t.span("cache.insert", || {
            self.sims.insert(key, Arc::new(answer.encode()))
        });
        Ok(answer)
    }
}

/// One `run_sweep` cell, as `compute_cell` runs it with `TraceMode::Off`:
/// one runner, one prototype per competitor, then every repetition of
/// every competitor with `SeedDeriver` seeds. Returns the cell means.
pub fn sweep_cell(op: &SweepOp, t: &mut Tracer) -> Vec<f64> {
    let p = op.point;
    let platform = HomogeneousParams::table1(p.n, p.ratio, p.comp_latency, p.net_latency)
        .build()
        .expect("grid parameters are valid");
    let scenario = Scenario {
        platform,
        w_total: 1000.0,
        error_model: ErrorModelKind::Normal.model(op.error),
        cost_profile: None,
        temporal_noise: None,
    };
    let config = SimConfig {
        trace_mode: TraceMode::Off,
        ..SimConfig::default()
    };
    let mut runner = scenario.runner(config.clone());
    let competitors = paper_competitors();
    let mut specs: Vec<RunSpec> = competitors
        .iter()
        .map(|c| {
            let kind = c.kind_for(op.error);
            let proto = t
                .span("sched.prototype", || runner.prototype(&kind))
                .expect("planner accepts every grid point");
            RunSpec::new(kind)
                .config(config.clone())
                .with_prototype(proto)
        })
        .collect();
    // A one-cell sweep's only cell has index 0.
    let seeds = SeedDeriver::new(op.root_seed).child(0);
    let mut means = vec![0.0; competitors.len()];
    for rep in 0..SWEEP_REPS {
        let rep_seeds = seeds.child(rep);
        for (c, spec) in specs.iter_mut().enumerate() {
            spec.seed = rep_seeds.child(c as u64).seed();
            let run = t
                .span("engine.run", || runner.execute(spec))
                .expect("grid runs succeed");
            t.runs += 1;
            t.events += run.events;
            means[c] += run.makespan;
        }
    }
    for m in &mut means {
        *m /= SWEEP_REPS as f64;
    }
    means
}
