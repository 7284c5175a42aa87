//! Analytic fast path vs engine: the agreement battery.
//!
//! [`FastPath::resolve`] claims that for deterministic, model-conforming
//! runs the oracle closed forms already know the engine's answer. These
//! tests pin that claim across every scheduler kind and both queue
//! backends: whenever the resolver takes a run, the engine must agree
//! within the oracle's stated tolerance; whenever it declines, the reason
//! must be the first failed eligibility condition.

use proptest::prelude::*;
use rumr::{
    FastPath, FastPathDecision, FastPathMiss, QueueBackend, RumrConfig, RunSpec, Scenario,
    SchedulerKind, SimConfig,
};

/// Every scheduler kind the service can be asked for (all 13 variants).
fn all_kinds(error: f64) -> Vec<SchedulerKind> {
    vec![
        SchedulerKind::rumr_known_error(error),
        SchedulerKind::Umr,
        SchedulerKind::Mi { installments: 2 },
        SchedulerKind::Factoring,
        SchedulerKind::Fsc { error },
        SchedulerKind::EqualStatic,
        SchedulerKind::SelfScheduling { unit: 20.0 },
        SchedulerKind::HetUmr,
        SchedulerKind::AdaptiveRumr,
        SchedulerKind::HetRumr(RumrConfig::with_known_error(error)),
        SchedulerKind::OneRound,
        SchedulerKind::Gss,
        SchedulerKind::Tss,
    ]
}

/// Random-but-sane error-free Table-1-style scenario (the fast path's
/// home turf; heterogeneous platforms get their own spot test because
/// the homogeneous-only planners reject them at build time).
fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        2usize..=8,       // workers
        1.1f64..=3.0,     // bandwidth ratio
        0.0f64..=0.8,     // cLat
        0.0f64..=0.8,     // nLat
        100.0f64..=400.0, // workload
    )
        .prop_map(|(n, ratio, clat, nlat, w)| {
            let mut s = Scenario::table1(n, ratio, clat, nlat, 0.0);
            s.w_total = w;
            s
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whenever the fast path answers, the engine agrees — for all 13
    /// scheduler kinds, on both queue backends.
    #[test]
    fn analytic_answers_agree_with_the_engine(
        scenario in scenario_strategy(),
        seed in 0u64..1000,
    ) {
        for kind in all_kinds(0.0) {
            for backend in [QueueBackend::Heap, QueueBackend::Calendar] {
                let spec = RunSpec::new(kind).seed(seed).config(SimConfig {
                    queue_backend: backend,
                    ..SimConfig::default()
                });
                let decision = FastPath::resolve(&scenario, &spec)
                    .unwrap_or_else(|e| panic!("{kind}: {e}"));
                let Some(answer) = decision.analytic() else { continue };
                let engine = scenario
                    .execute(&spec)
                    .unwrap_or_else(|e| panic!("{kind}: {e}"));
                prop_assert!(
                    answer.agrees_with(engine.makespan),
                    "{} ({:?}): analytic {} vs engine {} (residual {})",
                    kind,
                    backend,
                    answer.makespan,
                    engine.makespan,
                    answer.residual(engine.makespan)
                );
                prop_assert!(
                    (answer.planned_work - engine.completed_work()).abs()
                        <= 1e-6 * scenario.w_total,
                    "{}: planned {} vs completed {}",
                    kind,
                    answer.planned_work,
                    engine.completed_work()
                );
            }
        }
    }

    /// Every noisy scenario is declined, and with the right reason: the
    /// eligibility order pins `PredictionErrors` as the first check.
    #[test]
    fn noisy_runs_always_go_to_the_engine(
        scenario in scenario_strategy(),
        error in 0.05f64..=0.6,
    ) {
        let mut noisy = scenario;
        noisy.error_model = rumr::ErrorModel::TruncatedNormal { error };
        for kind in all_kinds(error) {
            match FastPath::resolve(&noisy, &RunSpec::new(kind))
                .unwrap_or_else(|e| panic!("{kind}: {e}"))
            {
                FastPathDecision::Engine(miss) => {
                    prop_assert_eq!(miss, FastPathMiss::PredictionErrors, "{}", kind)
                }
                FastPathDecision::Analytic(_) => {
                    return Err(TestCaseError::fail(format!("{kind} took a noisy run")))
                }
            }
        }
    }

    /// The sampling decision is a pure function of the key: across random
    /// keys it respects the 0/100 endpoints and is monotone in `pct`.
    #[test]
    fn audit_sampling_is_monotone_for_random_keys(key_seed in 0u64..u64::MAX) {
        let key = format!("{{\"w_total\":{},\"seed\":{}}}", key_seed % 10_000, key_seed);
        prop_assert!(FastPath::audit_due(&key, 100));
        prop_assert!(!FastPath::audit_due(&key, 0));
        let mut prev = false;
        for pct in [1u32, 5, 20, 50, 80, 99, 100] {
            let now = FastPath::audit_due(&key, pct);
            prop_assert!(now || !prev, "sampling not monotone at {}% for {:?}", pct, key);
            prev = now;
        }
    }
}

/// The exact-oracle schedulers must actually take the fast path on the
/// paper's Table 1 platform — the resolver is useless if it always
/// declines.
#[test]
fn exact_oracles_resolve_analytically() {
    let s = Scenario::table1(10, 1.5, 0.2, 0.1, 0.0);
    for kind in [
        SchedulerKind::Umr,
        SchedulerKind::HetUmr,
        SchedulerKind::OneRound,
    ] {
        let decision = FastPath::resolve(&s, &RunSpec::new(kind)).unwrap();
        assert!(
            decision.analytic().is_some(),
            "{kind} should resolve analytically"
        );
    }
    // MI's oracle is exact only latency-free; with latencies it claims a
    // lower bound and the resolver must decline.
    let latency_free = Scenario::table1(10, 1.5, 0.0, 0.0, 0.0);
    let mi = RunSpec::new(SchedulerKind::Mi { installments: 3 });
    assert!(FastPath::resolve(&latency_free, &mi)
        .unwrap()
        .analytic()
        .is_some());
    match FastPath::resolve(&s, &mi).unwrap() {
        FastPathDecision::Engine(miss) => assert_eq!(miss, FastPathMiss::InexactOracle),
        FastPathDecision::Analytic(_) => panic!("MI with latencies is not exact"),
    }
}

/// Heterogeneous platforms: HetUmr resolves analytically and agrees with
/// the engine; the oracle-less heterogeneous schedulers decline.
#[test]
fn heterogeneous_fastpath_agrees() {
    let s = Scenario::heterogeneous_demo(12, 0.0);
    let spec = RunSpec::new(SchedulerKind::HetUmr);
    let decision = FastPath::resolve(&s, &spec).unwrap();
    let answer = decision.analytic().expect("HetUmr is exact");
    let engine = s.execute(&spec).unwrap();
    assert!(
        answer.agrees_with(engine.makespan),
        "analytic {} vs engine {} (residual {})",
        answer.makespan,
        engine.makespan,
        answer.residual(engine.makespan)
    );
    for kind in [
        SchedulerKind::Gss,
        SchedulerKind::Tss,
        SchedulerKind::HetRumr(RumrConfig::with_known_error(0.0)),
    ] {
        match FastPath::resolve(&s, &RunSpec::new(kind)).unwrap() {
            FastPathDecision::Engine(miss) => assert_eq!(miss, FastPathMiss::NoOracle, "{kind}"),
            FastPathDecision::Analytic(_) => panic!("{kind} has no oracle"),
        }
    }
}

/// UMR on (N = 10, cLat = 0, nLat = 0.1): a workload where the solved
/// schedule itself breaks the no-idle timeline the closed form assumes.
/// Whatever the fast path answers for these runs must agree with the
/// engine within the oracle's stated contract.
#[test]
fn umr_fastpath_agrees_on_zero_comp_latency_grid_points() {
    for (ratio, w_total) in [(1.6, 1759.447), (2.0, 987.048)] {
        let mut s = Scenario::table1(10, ratio, 0.0, 0.1, 0.0);
        s.w_total = w_total;
        let spec = RunSpec::new(SchedulerKind::Umr);
        let engine = s.execute(&spec).unwrap();
        let oracle = SchedulerKind::Umr
            .oracle(&s.platform, s.w_total)
            .unwrap()
            .expect("UMR has an oracle");
        let prediction = oracle.makespan();
        assert!(
            prediction.within(engine.makespan),
            "r={ratio} W={w_total}: {prediction:?} vs engine {}",
            engine.makespan
        );
        if let Some(answer) = FastPath::resolve(&s, &spec).unwrap().analytic() {
            assert!(
                answer.agrees_with(engine.makespan),
                "r={ratio} W={w_total}: analytic {} vs engine {} (residual {})",
                answer.makespan,
                engine.makespan,
                answer.residual(engine.makespan)
            );
        }
    }
}
