//! Test-only reference encoders: each decoded type back to its JSON
//! object, and the canonical JSON (sorted keys, compact, shortest float
//! form) of whole requests. The service keyed its caches on these strings
//! before byte keys replaced them; the tests here pin that the byte keys
//! identify requests exactly as these strings do.

use dls_experiments::json::{json_num, Json};
use rumr::sim::FaultAction;
use rumr::{
    ErrorModel, FaultModel, Platform, RecoveryConfig, RumrConfig, RunSpec, SchedulerKind,
    SimConfig, SpeedModel, TraceMode,
};

use super::{PlanRequest, SimulateRequest};

fn opt_json_num(x: Option<f64>) -> Json {
    match x {
        Some(v) => Json::Num(v),
        None => Json::Null,
    }
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn rumr_config_fields(c: &RumrConfig) -> Vec<(&'static str, Json)> {
    vec![
        ("error_estimate", opt_json_num(c.error_estimate)),
        ("phase1_fraction", opt_json_num(c.phase1_fraction)),
        ("out_of_order", Json::Bool(c.out_of_order)),
        ("factor", Json::Num(c.factor)),
        ("error_aware_bound", Json::Bool(c.error_aware_bound)),
    ]
}

/// Encode a [`SchedulerKind`] as `{"kind": "...", ...params}`. RUMR
/// variants always carry their full configuration so the encoding is
/// self-contained.
pub(crate) fn encode_scheduler(kind: &SchedulerKind) -> Json {
    let mut fields: Vec<(&str, Json)>;
    match kind {
        SchedulerKind::Rumr(c) => {
            fields = vec![("kind", Json::Str("rumr".into()))];
            fields.extend(rumr_config_fields(c));
        }
        SchedulerKind::HetRumr(c) => {
            fields = vec![("kind", Json::Str("het_rumr".into()))];
            fields.extend(rumr_config_fields(c));
        }
        SchedulerKind::Umr => fields = vec![("kind", Json::Str("umr".into()))],
        SchedulerKind::Mi { installments } => {
            fields = vec![
                ("kind", Json::Str("mi".into())),
                ("installments", Json::Num(*installments as f64)),
            ]
        }
        SchedulerKind::Factoring => fields = vec![("kind", Json::Str("factoring".into()))],
        SchedulerKind::Fsc { error } => {
            fields = vec![
                ("kind", Json::Str("fsc".into())),
                ("error", Json::Num(*error)),
            ]
        }
        SchedulerKind::EqualStatic => fields = vec![("kind", Json::Str("equal_static".into()))],
        SchedulerKind::SelfScheduling { unit } => {
            fields = vec![
                ("kind", Json::Str("self_scheduling".into())),
                ("unit", Json::Num(*unit)),
            ]
        }
        SchedulerKind::HetUmr => fields = vec![("kind", Json::Str("het_umr".into()))],
        SchedulerKind::AdaptiveRumr => fields = vec![("kind", Json::Str("adaptive_rumr".into()))],
        SchedulerKind::OneRound => fields = vec![("kind", Json::Str("one_round".into()))],
        SchedulerKind::Gss => fields = vec![("kind", Json::Str("gss".into()))],
        SchedulerKind::Tss => fields = vec![("kind", Json::Str("tss".into()))],
    }
    obj(fields)
}

/// Encode a platform as its explicit worker list (the canonical form; the
/// `homogeneous` request shorthand expands to this).
pub(crate) fn encode_platform(platform: &Platform) -> Json {
    let workers = platform
        .workers()
        .iter()
        .map(|w| {
            obj(vec![
                ("speed", Json::Num(w.speed)),
                ("bandwidth", Json::Num(w.bandwidth)),
                ("comp_latency", Json::Num(w.comp_latency)),
                ("net_latency", Json::Num(w.net_latency)),
                ("transfer_latency", Json::Num(w.transfer_latency)),
            ])
        })
        .collect();
    obj(vec![("workers", Json::Arr(workers))])
}

/// Encode an error model as `{"kind": "...", "error": x}`.
pub(crate) fn encode_error_model(model: &ErrorModel) -> Json {
    let (kind, error) = match model {
        ErrorModel::None => ("none", None),
        ErrorModel::TruncatedNormal { error } => ("normal", Some(*error)),
        ErrorModel::TruncatedNormalInverse { error } => ("inverse", Some(*error)),
        ErrorModel::Uniform { error } => ("uniform", Some(*error)),
    };
    let mut fields = vec![("kind", Json::Str(kind.into()))];
    if let Some(e) = error {
        fields.push(("error", Json::Num(e)));
    }
    obj(fields)
}

fn encode_fault_action(action: FaultAction) -> Json {
    Json::Str(
        match action {
            FaultAction::Down => "down",
            FaultAction::Up => "up",
            FaultAction::LinkDrop => "link_drop",
        }
        .into(),
    )
}

/// Encode a fault model as a tagged object (`kind`: `none` / `plan` /
/// `poisson`).
pub(crate) fn encode_fault_model(model: &FaultModel) -> Json {
    match model {
        FaultModel::None => obj(vec![("kind", Json::Str("none".into()))]),
        FaultModel::Plan(plan) => {
            let events = plan
                .events()
                .iter()
                .map(|e| {
                    obj(vec![
                        ("time", Json::Num(e.time)),
                        ("worker", Json::Num(e.worker as f64)),
                        ("action", encode_fault_action(e.action)),
                    ])
                })
                .collect();
            obj(vec![
                ("kind", Json::Str("plan".into())),
                ("events", Json::Arr(events)),
            ])
        }
        FaultModel::Poisson(p) => obj(vec![
            ("kind", Json::Str("poisson".into())),
            ("mttf", Json::Num(p.mttf)),
            ("mttr", opt_json_num(p.mttr)),
            ("link_mtbf", opt_json_num(p.link_mtbf)),
            ("horizon", Json::Num(p.horizon)),
            ("seed", Json::Num(p.seed as f64)),
        ]),
    }
}

/// Encode a recovery policy with all fields explicit.
pub(crate) fn encode_recovery(r: &RecoveryConfig) -> Json {
    obj(vec![
        ("initial_backoff", Json::Num(r.initial_backoff)),
        ("backoff_factor", Json::Num(r.backoff_factor)),
        ("factor", Json::Num(r.factor)),
        ("min_chunk", Json::Num(r.min_chunk)),
        (
            "divergence_threshold",
            r.divergence_threshold.map_or(Json::Null, Json::Num),
        ),
        (
            "divergence_min_samples",
            Json::Num(r.divergence_min_samples as f64),
        ),
    ])
}

/// Encode a speed-revelation model as a tagged object (`kind`: `declared`
/// / `stochastic` / `sandbag` / `adversarial`).
pub(crate) fn encode_speed_model(model: &SpeedModel) -> Json {
    match *model {
        SpeedModel::Declared => obj(vec![("kind", Json::Str("declared".into()))]),
        SpeedModel::Stochastic { spread, seed } => obj(vec![
            ("kind", Json::Str("stochastic".into())),
            ("spread", Json::Num(spread)),
            ("seed", Json::Num(seed as f64)),
        ]),
        SpeedModel::Sandbagged {
            fraction,
            slowdown,
            seed,
        } => obj(vec![
            ("kind", Json::Str("sandbag".into())),
            ("fraction", Json::Num(fraction)),
            ("slowdown", Json::Num(slowdown)),
            ("seed", Json::Num(seed as f64)),
        ]),
        SpeedModel::Adversarial { fraction, slowdown } => obj(vec![
            ("kind", Json::Str("adversarial".into())),
            ("fraction", Json::Num(fraction)),
            ("slowdown", Json::Num(slowdown)),
        ]),
    }
}

fn trace_mode_name(mode: TraceMode) -> &'static str {
    match mode {
        TraceMode::Off => "off",
        TraceMode::MetricsOnly => "metrics",
        TraceMode::Full => "full",
    }
}

/// Encode an engine configuration with every field explicit.
pub(crate) fn encode_sim_config(c: &SimConfig) -> Json {
    obj(vec![
        (
            "trace_mode",
            Json::Str(trace_mode_name(c.trace_mode).into()),
        ),
        ("max_events", Json::Num(c.max_events as f64)),
        (
            "max_concurrent_sends",
            Json::Num(c.max_concurrent_sends as f64),
        ),
        ("uplink_capacity", opt_json_num(c.uplink_capacity)),
        ("output_ratio", Json::Num(c.output_ratio)),
        ("faults", encode_fault_model(&c.faults)),
        ("queue", Json::Str(c.queue_backend.name().into())),
        ("audit", Json::Bool(c.audit)),
        ("speeds", encode_speed_model(&c.speeds)),
    ])
}

/// Encode a [`RunSpec`] (without any attached prototype — that is derived
/// state, not wire state).
pub(crate) fn encode_run_spec(spec: &RunSpec) -> Json {
    obj(vec![
        ("scheduler", encode_scheduler(&spec.kind)),
        ("seed", Json::Num(spec.seed as f64)),
        ("reps", Json::Num(spec.reps as f64)),
        ("config", encode_sim_config(&spec.config)),
        (
            "recovery",
            match &spec.recovery {
                Some(r) => encode_recovery(r),
                None => Json::Null,
            },
        ),
    ])
}

/// Canonical JSON of a (platform, workload, scheduler) triple: the plan
/// cache's key before byte keys.
pub(crate) fn plan_canonical(platform: &Platform, w_total: f64, kind: &SchedulerKind) -> String {
    obj(vec![
        ("platform", encode_platform(platform)),
        ("scheduler", encode_scheduler(kind)),
        ("w_total", Json::Num(w_total)),
    ])
    .canonical()
}

/// Canonical JSON of a whole `/simulate` request.
pub(crate) fn simulate_canonical(sim: &SimulateRequest) -> String {
    obj(vec![
        ("platform", encode_platform(&sim.scenario.platform)),
        ("w_total", Json::Num(sim.scenario.w_total)),
        ("error_model", encode_error_model(&sim.scenario.error_model)),
        ("run", encode_run_spec(&sim.spec)),
    ])
    .canonical()
}

/// Canonical JSON of a `/simulate` request's scenario (the shard routing
/// key before byte keys).
pub(crate) fn scenario_canonical(sim: &SimulateRequest) -> String {
    obj(vec![
        ("platform", encode_platform(&sim.scenario.platform)),
        ("w_total", Json::Num(sim.scenario.w_total)),
        ("error_model", encode_error_model(&sim.scenario.error_model)),
    ])
    .canonical()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_experiments::json::json_escape;
    use proptest::prelude::*;
    use rumr::sim::{CostProfile, TemporalNoise};
    use rumr::{FaultPlan, PoissonFaults, QueueBackend, Scenario, WorkerSpec};

    /// SplitMix64: the request generator's randomness, seeded per case.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn coin(&mut self) -> bool {
            self.next() & 1 == 1
        }
    }

    /// What a generated request means: one choice per slot, each read
    /// modulo the size of its pool. Redrawing a slot changes the few
    /// fields that read it, or nothing when the new draw lands on the same
    /// pool entry; pools hold `0.0` next to `-0.0`.
    #[derive(Clone)]
    struct Meaning([u64; SLOTS]);

    const SLOTS: usize = 26;

    impl Meaning {
        fn pick<T: Copy>(&self, slot: usize, pool: &[T]) -> T {
            pool[(self.0[slot] % pool.len() as u64) as usize]
        }
    }

    fn num(x: f64) -> Json {
        Json::Num(x)
    }

    fn s(x: &str) -> Json {
        Json::Str(x.into())
    }

    /// Fields that equal their decoder default may be spelled out or left
    /// out: the request means the same either way.
    fn push_default(
        g: &mut Gen,
        fields: &mut Vec<(&'static str, Json)>,
        key: &'static str,
        v: Json,
    ) {
        if g.coin() {
            fields.push((key, v));
        }
    }

    fn platform_json(m: &Meaning, g: &mut Gen) -> Json {
        let n = m.pick(0, &[1usize, 2, 3]);
        let ratio = m.pick(1, &[1.5, 2.0]);
        let clat = m.pick(2, &[0.0, -0.0, 0.2]);
        let nlat = m.pick(3, &[0.1, 0.0]);
        // Slot 4 makes one worker twice as fast: a heterogeneous platform.
        let hetero = m.pick(4, &[false, false, true]);
        if !hetero && g.coin() {
            return obj(vec![(
                "homogeneous",
                obj(vec![
                    ("n", num(n as f64)),
                    ("ratio", num(ratio)),
                    ("comp_latency", num(clat)),
                    ("net_latency", num(nlat)),
                ]),
            )]);
        }
        let workers = (0..n)
            .map(|i| {
                let speed = if hetero && i == 0 { 2.0 } else { 1.0 };
                let mut w = vec![
                    ("speed", num(speed)),
                    ("bandwidth", num(ratio * n as f64)),
                    ("comp_latency", num(clat)),
                    ("net_latency", num(nlat)),
                ];
                push_default(g, &mut w, "transfer_latency", num(0.0));
                obj(w)
            })
            .collect();
        obj(vec![("workers", Json::Arr(workers))])
    }

    fn scheduler_json(m: &Meaning) -> Json {
        let kinds = [
            "rumr",
            "het_rumr",
            "umr",
            "mi",
            "factoring",
            "fsc",
            "equal_static",
            "self_scheduling",
            "het_umr",
            "adaptive_rumr",
            "one_round",
            "gss",
            "tss",
        ];
        let kind = m.pick(5, &kinds);
        let mut fields = vec![("kind", s(kind))];
        let param = m.pick(6, &[0.1, 0.2, -0.0]);
        match kind {
            "rumr" | "het_rumr" => {
                let estimate = if m.pick(7, &[false, true]) {
                    num(0.2)
                } else {
                    Json::Null
                };
                fields.push(("error_estimate", estimate));
                fields.push(("factor", num(m.pick(8, &[2.0, 1.5]))));
                fields.push(("out_of_order", Json::Bool(m.pick(9, &[true, false]))));
            }
            "mi" => fields.push(("installments", num(m.pick(7, &[2.0, 3.0])))),
            "fsc" => fields.push(("error", num(param))),
            "self_scheduling" => fields.push(("unit", num(param))),
            _ => {}
        }
        obj(fields)
    }

    fn error_model_json(m: &Meaning) -> Option<Json> {
        let kind = m.pick(10, &["none", "normal", "inverse", "uniform", "absent"]);
        if kind == "absent" {
            return None;
        }
        let mut fields = vec![("kind", s(kind))];
        if let Some(e) = m.pick(11, &[Some(0.3), Some(0.0), Some(-0.0), None]) {
            fields.push(("error", num(e)));
        }
        Some(obj(fields))
    }

    fn faults_json(m: &Meaning) -> Json {
        match m.pick(12, &["none", "plan", "poisson"]) {
            "plan" => {
                let t = m.pick(13, &[10.0, 25.5]);
                obj(vec![
                    ("kind", s("plan")),
                    (
                        "events",
                        Json::Arr(vec![
                            obj(vec![
                                ("time", num(t)),
                                ("worker", num(0.0)),
                                ("action", s("down")),
                            ]),
                            obj(vec![
                                ("time", num(t + 5.0)),
                                ("worker", num(0.0)),
                                ("action", s(m.pick(14, &["up", "link_drop"]))),
                            ]),
                        ]),
                    ),
                ])
            }
            "poisson" => obj(vec![
                ("kind", s("poisson")),
                ("mttf", num(m.pick(13, &[60.0, 90.0]))),
                (
                    "mttr",
                    if m.pick(14, &[false, true]) {
                        num(15.0)
                    } else {
                        Json::Null
                    },
                ),
                ("horizon", num(2000.0)),
                ("seed", num(m.pick(15, &[0.0, 11.0]))),
            ]),
            _ => obj(vec![("kind", s("none"))]),
        }
    }

    fn speeds_json(m: &Meaning) -> Json {
        let seed = num(m.pick(15, &[0.0, 3.0]));
        match m.pick(16, &["declared", "stochastic", "sandbag", "adversarial"]) {
            "stochastic" => obj(vec![
                ("kind", s("stochastic")),
                ("spread", num(0.3)),
                ("seed", seed),
            ]),
            "sandbag" => obj(vec![
                ("kind", s("sandbag")),
                ("fraction", num(0.5)),
                ("slowdown", num(m.pick(17, &[2.0, 1.5]))),
                ("seed", seed),
            ]),
            "adversarial" => obj(vec![
                ("kind", s("adversarial")),
                ("fraction", num(0.5)),
                ("slowdown", num(m.pick(17, &[2.0, 1.5]))),
            ]),
            _ => obj(vec![("kind", s("declared"))]),
        }
    }

    fn run_json(m: &Meaning, g: &mut Gen) -> Json {
        let mut run = vec![("scheduler", scheduler_json(m))];
        match m.pick(18, &[0.0, 7.0]) {
            0.0 => push_default(g, &mut run, "seed", num(0.0)),
            seed => run.push(("seed", num(seed))),
        }
        match m.pick(19, &[1.0, 2.0]) {
            1.0 => push_default(g, &mut run, "reps", num(1.0)),
            reps => run.push(("reps", num(reps))),
        }
        if m.pick(20, &[false, true]) {
            run.push((
                "config",
                obj(vec![
                    ("trace_mode", s(m.pick(21, &["off", "metrics", "full"]))),
                    ("queue", s(m.pick(22, &["heap", "calendar"]))),
                    ("output_ratio", num(m.pick(23, &[0.0, -0.0, 0.5]))),
                    ("audit", Json::Bool(m.pick(21, &[false, true]))),
                    ("faults", faults_json(m)),
                    ("speeds", speeds_json(m)),
                ]),
            ));
        } else {
            push_default(g, &mut run, "config", Json::Null);
        }
        match m.pick(17, &["off", "defaults", "custom"]) {
            "defaults" => run.push(("recovery", Json::Bool(true))),
            "custom" => run.push((
                "recovery",
                obj(vec![
                    ("factor", num(m.pick(25, &[2.5, 3.0]))),
                    ("divergence_threshold", num(0.4)),
                ]),
            )),
            _ => push_default(g, &mut run, "recovery", Json::Bool(false)),
        }
        obj(run)
    }

    fn body(m: &Meaning, g: &mut Gen) -> String {
        let mut fields = vec![
            ("platform", platform_json(m, g)),
            ("w_total", num(m.pick(24, &[100.0, 250.5, 1000.0]))),
            ("scheduler", scheduler_json(m)),
            ("run", run_json(m, g)),
        ];
        if let Some(e) = error_model_json(m) {
            fields.push(("error_model", e));
        }
        let mut out = String::new();
        write_shuffled(&obj(fields), g, &mut out);
        out
    }

    /// Serialize with every object's fields in a random order.
    fn write_shuffled(v: &Json, g: &mut Gen, out: &mut String) {
        match v {
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_shuffled(item, g, out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                let mut order: Vec<&(String, Json)> = fields.iter().collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, g.below(i + 1));
                }
                out.push('{');
                for (i, (k, v)) in order.into_iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("\"{}\":", json_escape(k)));
                    write_shuffled(v, g, out);
                }
                out.push('}');
            }
            Json::Num(x) => out.push_str(&json_num(*x)),
            other => out.push_str(&other.canonical()),
        }
    }

    /// Every key the service builds, next to its reference string.
    fn keys(body: &str) -> Option<Vec<(Vec<u8>, String)>> {
        let sim = SimulateRequest::from_json_str(body).ok()?;
        let plan = PlanRequest::from_json_str(body).ok()?;
        Some(vec![
            (sim.canonical(), simulate_canonical(&sim)),
            (sim.scenario_key(), scenario_canonical(&sim)),
            (
                sim.plan_key(),
                plan_canonical(&sim.scenario.platform, sim.scenario.w_total, &sim.spec.kind),
            ),
            (
                plan.cache_key(),
                plan_canonical(&plan.platform, plan.w_total, &plan.kind),
            ),
        ])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Two decoded requests share a byte key exactly when their
        /// canonical JSON strings are equal. The second request is the
        /// first with one meaning slot redrawn, spelled anew: shuffled
        /// fields, shorthand or explicit workers, defaults written out or
        /// left out.
        #[test]
        fn byte_keys_agree_with_canonical_json(seed in 0u64..u64::MAX) {
            let mut g = Gen(seed);
            let a = Meaning(std::array::from_fn(|_| g.next()));
            let mut b = a.clone();
            if g.below(3) > 0 {
                b.0[g.below(SLOTS)] = g.next();
            }
            let (body_a, body_b) = (body(&a, &mut g), body(&b, &mut g));
            let (Some(ka), Some(kb)) = (keys(&body_a), keys(&body_b)) else {
                return Ok(());
            };
            for ((bytes_a, ref_a), (bytes_b, ref_b)) in ka.iter().zip(&kb) {
                prop_assert_eq!(
                    bytes_a == bytes_b,
                    ref_a == ref_b,
                    "{} vs {}",
                    ref_a,
                    ref_b
                );
            }
        }
    }

    /// The generator reaches what the property needs: both outcomes of
    /// the key comparison, the shorthand, and bodies that decode.
    #[test]
    fn generator_covers_equal_and_distinct_pairs() {
        let (mut equal, mut distinct, mut shorthand) = (0, 0, 0);
        for seed in 0..500u64 {
            let mut g = Gen(seed);
            let a = Meaning(std::array::from_fn(|_| g.next()));
            let mut b = a.clone();
            if g.below(3) > 0 {
                b.0[g.below(SLOTS)] = g.next();
            }
            let (body_a, body_b) = (body(&a, &mut g), body(&b, &mut g));
            shorthand += usize::from(body_a.contains("homogeneous"));
            if let (Some(ka), Some(kb)) = (keys(&body_a), keys(&body_b)) {
                if ka[0].0 == kb[0].0 {
                    equal += 1;
                } else {
                    distinct += 1;
                }
            }
        }
        assert!(
            equal > 100 && distinct > 100 && shorthand > 50,
            "{equal} {distinct} {shorthand}"
        );
    }

    /// A request with every optional field set to a non-default value.
    fn full_request() -> SimulateRequest {
        let worker = WorkerSpec {
            speed: 1.0,
            bandwidth: 15.0,
            comp_latency: 0.2,
            net_latency: 0.1,
            transfer_latency: 0.05,
        };
        SimulateRequest {
            scenario: Scenario {
                platform: Platform::new(vec![worker; 3]).unwrap(),
                w_total: 500.0,
                error_model: ErrorModel::TruncatedNormal { error: 0.3 },
                cost_profile: None,
                temporal_noise: None,
            },
            spec: RunSpec {
                kind: SchedulerKind::Rumr(RumrConfig {
                    error_estimate: Some(0.3),
                    phase1_fraction: Some(0.6),
                    out_of_order: true,
                    factor: 2.0,
                    error_aware_bound: true,
                }),
                seed: 9,
                reps: 2,
                config: SimConfig {
                    trace_mode: TraceMode::MetricsOnly,
                    max_events: 1_000_000,
                    max_concurrent_sends: 1,
                    uplink_capacity: None,
                    output_ratio: 0.0,
                    faults: FaultModel::Poisson(PoissonFaults {
                        mttf: 60.0,
                        mttr: Some(15.0),
                        link_mtbf: None,
                        horizon: 2000.0,
                        seed: 4,
                    }),
                    queue_backend: QueueBackend::Heap,
                    audit: true,
                    speeds: SpeedModel::Sandbagged {
                        fraction: 0.5,
                        slowdown: 2.0,
                        seed: 1,
                    },
                },
                recovery: Some(RecoveryConfig {
                    initial_backoff: 2.0,
                    backoff_factor: 3.0,
                    factor: 2.5,
                    min_chunk: 0.5,
                    divergence_threshold: None,
                    divergence_min_samples: 5,
                }),
                prototype: None,
            },
        }
    }

    type Mutation = (&'static str, fn(&mut SimulateRequest));

    /// One mutation per field of the scenario, the run spec, its engine
    /// configuration and their nested settings. `full_request` names
    /// every field without `..`, so a field added to any of these types
    /// fails to compile here until it gets a mutation of its own.
    const MUTATIONS: &[Mutation] = &[
        ("scenario.platform", |r| {
            let mut w = r.scenario.platform.workers().to_vec();
            w[2].speed = 2.0;
            r.scenario.platform = Platform::new(w).unwrap();
        }),
        ("scenario.platform.size", |r| {
            let w = r.scenario.platform.workers()[..2].to_vec();
            r.scenario.platform = Platform::new(w).unwrap();
        }),
        ("scenario.w_total", |r| r.scenario.w_total = 501.0),
        ("scenario.error_model", |r| {
            r.scenario.error_model = ErrorModel::Uniform { error: 0.3 }
        }),
        ("scenario.error_model.error", |r| {
            r.scenario.error_model = ErrorModel::TruncatedNormal { error: -0.0 }
        }),
        ("scenario.cost_profile", |r| {
            r.scenario.cost_profile = Some(CostProfile::from_unit_costs(&[1.0, 3.0]))
        }),
        ("scenario.temporal_noise", |r| {
            r.scenario.temporal_noise = Some(TemporalNoise {
                rho: 0.5,
                sigma: 0.1,
            })
        }),
        ("spec.kind", |r| r.spec.kind = SchedulerKind::Umr),
        ("spec.kind.rumr.error_estimate", |r| {
            if let SchedulerKind::Rumr(c) = &mut r.spec.kind {
                c.error_estimate = None;
            }
        }),
        ("spec.kind.rumr.phase1_fraction", |r| {
            if let SchedulerKind::Rumr(c) = &mut r.spec.kind {
                c.phase1_fraction = Some(0.7);
            }
        }),
        ("spec.kind.rumr.out_of_order", |r| {
            if let SchedulerKind::Rumr(c) = &mut r.spec.kind {
                c.out_of_order = false;
            }
        }),
        ("spec.kind.rumr.factor", |r| {
            if let SchedulerKind::Rumr(c) = &mut r.spec.kind {
                c.factor = 1.5;
            }
        }),
        ("spec.kind.rumr.error_aware_bound", |r| {
            if let SchedulerKind::Rumr(c) = &mut r.spec.kind {
                c.error_aware_bound = false;
            }
        }),
        ("spec.seed", |r| r.spec.seed = 10),
        ("spec.reps", |r| r.spec.reps = 3),
        ("config.trace_mode", |r| {
            r.spec.config.trace_mode = TraceMode::Full
        }),
        ("config.max_events", |r| r.spec.config.max_events = 999),
        ("config.max_concurrent_sends", |r| {
            r.spec.config.max_concurrent_sends = 2
        }),
        ("config.uplink_capacity", |r| {
            r.spec.config.uplink_capacity = Some(10.0)
        }),
        ("config.output_ratio", |r| r.spec.config.output_ratio = -0.0),
        ("config.faults", |r| {
            r.spec.config.faults = FaultModel::Plan(FaultPlan::new().crash(10.0, 1))
        }),
        ("config.faults.mttf", |r| {
            if let FaultModel::Poisson(p) = &mut r.spec.config.faults {
                p.mttf = 61.0;
            }
        }),
        ("config.faults.mttr", |r| {
            if let FaultModel::Poisson(p) = &mut r.spec.config.faults {
                p.mttr = None;
            }
        }),
        ("config.faults.link_mtbf", |r| {
            if let FaultModel::Poisson(p) = &mut r.spec.config.faults {
                p.link_mtbf = Some(100.0);
            }
        }),
        ("config.faults.horizon", |r| {
            if let FaultModel::Poisson(p) = &mut r.spec.config.faults {
                p.horizon = 1000.0;
            }
        }),
        ("config.faults.seed", |r| {
            if let FaultModel::Poisson(p) = &mut r.spec.config.faults {
                p.seed = 5;
            }
        }),
        ("config.queue_backend", |r| {
            r.spec.config.queue_backend = QueueBackend::Calendar
        }),
        ("config.audit", |r| r.spec.config.audit = false),
        ("config.speeds", |r| {
            r.spec.config.speeds = SpeedModel::Declared
        }),
        ("config.speeds.fraction", |r| {
            r.spec.config.speeds = SpeedModel::Sandbagged {
                fraction: 0.25,
                slowdown: 2.0,
                seed: 1,
            }
        }),
        ("config.speeds.slowdown", |r| {
            r.spec.config.speeds = SpeedModel::Sandbagged {
                fraction: 0.5,
                slowdown: 3.0,
                seed: 1,
            }
        }),
        ("config.speeds.seed", |r| {
            r.spec.config.speeds = SpeedModel::Sandbagged {
                fraction: 0.5,
                slowdown: 2.0,
                seed: 2,
            }
        }),
        ("spec.recovery", |r| r.spec.recovery = None),
        ("recovery.initial_backoff", |r| {
            r.spec.recovery.as_mut().unwrap().initial_backoff = 1.0
        }),
        ("recovery.backoff_factor", |r| {
            r.spec.recovery.as_mut().unwrap().backoff_factor = 2.0
        }),
        ("recovery.factor", |r| {
            r.spec.recovery.as_mut().unwrap().factor = 2.0
        }),
        ("recovery.min_chunk", |r| {
            r.spec.recovery.as_mut().unwrap().min_chunk = 1.0
        }),
        ("recovery.divergence_threshold", |r| {
            r.spec.recovery.as_mut().unwrap().divergence_threshold = Some(0.4)
        }),
        ("recovery.divergence_min_samples", |r| {
            r.spec.recovery.as_mut().unwrap().divergence_min_samples = 6
        }),
    ];

    /// Changing any single field changes the request key; the scenario
    /// key moves exactly with the scenario's fields and the plan key with
    /// (platform, workload, scheduler).
    #[test]
    fn every_field_moves_the_key() {
        let base = full_request();
        let prototype = base
            .spec
            .kind
            .prototype(&base.scenario.platform, base.scenario.w_total);
        for (field, mutate) in MUTATIONS {
            let mut changed = full_request();
            mutate(&mut changed);
            assert_ne!(changed.canonical(), base.canonical(), "{field}");
            let in_scenario = field.starts_with("scenario.");
            let in_plan = in_scenario
                && !field.starts_with("scenario.error_model")
                && !field.starts_with("scenario.cost_profile")
                && !field.starts_with("scenario.temporal_noise")
                || field.starts_with("spec.kind");
            assert_eq!(
                changed.scenario_key() != base.scenario_key(),
                in_scenario,
                "{field}"
            );
            assert_eq!(changed.plan_key() != base.plan_key(), in_plan, "{field}");
        }
        // The prototype is derived state, not part of the request.
        let mut planned = full_request();
        planned.spec.prototype = prototype.ok();
        assert!(planned.spec.prototype.is_some());
        assert_eq!(planned.canonical(), base.canonical());
    }
}
