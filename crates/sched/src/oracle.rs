//! Analytic oracles: each planner's closed-form predictions behind one
//! trait, for conformance auditing.
//!
//! The precalculated planners in this crate are all derived from explicit
//! timing models — UMR's Eq. 13/16 makespan, MI's linear system, the
//! one-round equal-finish solution, factoring's batch accounting, RUMR's
//! phase split. The simulator implements the *same* platform semantics
//! independently, so the analytic values double as an executable
//! specification: on an error-free reliable platform the simulated makespan
//! must reproduce an exact model to float accuracy, can never beat a
//! relaxed (lower-bound) model, and every plan must account for exactly the
//! workload it was given.
//!
//! [`Oracle`] packages those predictions uniformly:
//!
//! * [`Oracle::planned_work`] — the workload the plan accounts for
//!   (always `W`; a plan that loses or invents work is a planner bug);
//! * [`Oracle::makespan`] — the model's makespan [`Prediction`], tagged
//!   with its contract ([`Prediction::Exact`] / [`Prediction::LowerBound`] /
//!   [`Prediction::Unavailable`]) and tolerance;
//! * [`Oracle::round_timeline`] — per-round dispatch/finish instants
//!   ([`RoundTiming`]) where the model pins them (UMR's serial dispatch
//!   rounds, MI's installment finish times, the one-round common finish).
//!
//! The audit harness (`dls-experiments`, `audit` bin) compares these
//! against error-free simulation runs; see `docs/AUDIT.md`.

use dls_sim::Platform;

use crate::factoring::{min_chunk_bound, phase_min_chunk_bound, FactoringSource, DEFAULT_FACTOR};
use crate::mi::MiSchedule;
use crate::one_round::OneRoundSchedule;
use crate::plan::ChunkSource;
use crate::rumr::{PhaseSplit, Rumr};
use crate::umr::UmrSchedule;
use crate::umr_het::HetUmrSchedule;

/// Relative tolerance for models that are exact on an error-free run.
/// Matches the planner test suites: event times are sums of dozens of
/// perturbation-free durations, so only rounding noise separates the DES
/// from the closed form.
pub const EXACT_REL_TOL: f64 = 1e-6;

/// Relative slack allowed when checking a lower bound: a simulated makespan
/// may undercut the bound by at most this fraction (floating-point
/// accumulation only — any real undercut means the model or the engine is
/// wrong).
pub const LOWER_BOUND_REL_TOL: f64 = 1e-9;

/// A planner's closed-form makespan claim, tagged with its contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Prediction {
    /// The model is exact on an error-free reliable platform: the simulated
    /// makespan must match within `rel_tol` (relative).
    Exact {
        /// Predicted makespan (s).
        makespan: f64,
        /// Allowed relative deviation of an error-free simulation.
        rel_tol: f64,
    },
    /// The model relaxes some cost (e.g. MI's latency-free linear system):
    /// an error-free simulation can never finish earlier than `makespan`
    /// by more than `rel_tol` (relative), but may finish later.
    LowerBound {
        /// Model makespan (s); a floor on the simulated value.
        makespan: f64,
        /// Allowed relative undercut (floating-point slack).
        rel_tol: f64,
    },
    /// The planner has no closed-form makespan (dynamic self-scheduling
    /// families); only work accounting is checkable.
    Unavailable,
}

impl Prediction {
    /// The model's makespan value, if it makes one.
    pub fn makespan(&self) -> Option<f64> {
        match *self {
            Prediction::Exact { makespan, .. } | Prediction::LowerBound { makespan, .. } => {
                Some(makespan)
            }
            Prediction::Unavailable => None,
        }
    }

    /// Relative residual of a simulated error-free makespan against this
    /// prediction: `|sim − pred| / pred` for an exact model, the relative
    /// undercut `max(0, (pred − sim) / pred)` for a lower bound, `None`
    /// when no model exists. A residual within [`Prediction::tolerance`]
    /// is conforming.
    pub fn residual(&self, simulated: f64) -> Option<f64> {
        match *self {
            Prediction::Exact { makespan, .. } => {
                Some((simulated - makespan).abs() / makespan.abs().max(f64::MIN_POSITIVE))
            }
            Prediction::LowerBound { makespan, .. } => {
                Some(((makespan - simulated) / makespan.abs().max(f64::MIN_POSITIVE)).max(0.0))
            }
            Prediction::Unavailable => None,
        }
    }

    /// The residual tolerance stated by the model, if it makes a claim.
    pub fn tolerance(&self) -> Option<f64> {
        match *self {
            Prediction::Exact { rel_tol, .. } | Prediction::LowerBound { rel_tol, .. } => {
                Some(rel_tol)
            }
            Prediction::Unavailable => None,
        }
    }

    /// True when `simulated` conforms to the prediction (vacuously true for
    /// [`Prediction::Unavailable`]).
    pub fn within(&self, simulated: f64) -> bool {
        match (self.residual(simulated), self.tolerance()) {
            (Some(r), Some(t)) => r <= t,
            _ => true,
        }
    }
}

/// Closed-form dispatch/finish instants of one planning round, on an
/// error-free reliable platform with serial master sends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundTiming {
    /// Round (or installment) index, 0-based.
    pub round: usize,
    /// Per-worker chunk size this round (first worker's chunk where sizes
    /// differ within the round).
    pub chunk: f64,
    /// Instant the master starts sending the round's first chunk.
    pub dispatch_start: f64,
    /// Instant the master finishes pushing the round's last chunk.
    pub dispatch_end: f64,
    /// Compute-end instant of the first-served worker for this round.
    pub first_finish: f64,
    /// Compute-end instant of the last-served worker for this round. For
    /// the final round this equals the predicted makespan.
    pub last_finish: f64,
}

/// A planner's closed-form predictions, uniformly packaged for the audit
/// harness. See the module docs for the contract of each method.
pub trait Oracle {
    /// Short planner name for reports (`"UMR"`, `"MI"`, …).
    fn name(&self) -> &'static str;

    /// Total workload units the plan accounts for. Must equal the `W`
    /// the planner was given (up to float accumulation): a plan may never
    /// lose or invent work.
    fn planned_work(&self) -> f64;

    /// The model's makespan claim for an error-free reliable run.
    fn makespan(&self) -> Prediction;

    /// Per-round dispatch/finish instants where the model pins them;
    /// `None` for planners whose model fixes only the aggregate makespan.
    fn round_timeline(&self) -> Option<Vec<RoundTiming>> {
        None
    }
}

// ---------------------------------------------------------------------------
// UMR
// ---------------------------------------------------------------------------

/// Oracle over a solved [`UmrSchedule`]: the paper's Eq. 13/16 makespan and
/// the serial dispatch/finish timeline its derivation assumes.
#[derive(Debug, Clone)]
pub struct UmrOracle {
    schedule: UmrSchedule,
}

impl UmrOracle {
    /// Wrap a solved schedule.
    pub fn new(schedule: UmrSchedule) -> Self {
        UmrOracle { schedule }
    }

    /// The wrapped schedule.
    pub fn schedule(&self) -> &UmrSchedule {
        &self.schedule
    }

    /// How long the `k`-th served worker of a round (1-based) waits for
    /// its chunks in total, beyond the no-idle timeline. A worker that
    /// never waits finishes at its round-0 arrival plus all its compute;
    /// one that waits finishes at the latest of `arrival_j + Σ_{l≥j}
    /// (cLat + c_l/S)` over rounds `j`. The planner absorbs the chunk
    /// sum's rounding residual into the last round, and on degenerate
    /// optima (`cLat = 0`, `chunk_0` within 1e-12 of the recursion's fixed
    /// point) the recursion amplifies that residual to ~1e-3 units, so the
    /// final chunk reaches the last worker after it ran out of work.
    fn idle(&self, k: f64) -> f64 {
        let inputs = *self.schedule.inputs();
        let n = inputs.n as f64;
        let compute = |c: f64| inputs.comp_latency + c / inputs.speed;
        let chunks = self.schedule.round_chunks();
        let mut tail: f64 = chunks.iter().map(|&c| compute(c)).sum();
        let mut dispatch_start = 0.0;
        let mut no_idle = None;
        let mut finish = f64::NEG_INFINITY;
        for &c in chunks {
            let arrival = dispatch_start
                + k * (inputs.net_latency + c / inputs.bandwidth)
                + inputs.transfer_latency;
            no_idle.get_or_insert(arrival + tail);
            finish = finish.max(arrival + tail);
            dispatch_start += n * (inputs.net_latency + c / inputs.bandwidth);
            tail -= compute(c);
        }
        finish - no_idle.unwrap_or(finish)
    }

    /// True when the `k`-th served worker waits longer than
    /// [`LOWER_BOUND_REL_TOL`] of the makespan: far above rounding, far
    /// below the [`EXACT_REL_TOL`] an exact claim promises.
    fn waits(&self, k: f64) -> bool {
        self.idle(k) > LOWER_BOUND_REL_TOL * self.schedule.predicted_makespan()
    }
}

impl Oracle for UmrOracle {
    fn name(&self) -> &'static str {
        "UMR"
    }

    fn planned_work(&self) -> f64 {
        let inputs = self.schedule.inputs();
        inputs.n as f64 * self.schedule.round_chunks().iter().sum::<f64>()
    }

    /// Eq. 16 assumes the last-served worker never waits for a chunk.
    /// When the solved schedule breaks that (see [`UmrOracle::idle`]),
    /// the engine finishes later and Eq. 16 is only a lower bound.
    fn makespan(&self) -> Prediction {
        let makespan = self.schedule.predicted_makespan();
        if self.waits(self.schedule.inputs().n as f64) {
            Prediction::LowerBound {
                makespan,
                rel_tol: LOWER_BOUND_REL_TOL,
            }
        } else {
            Prediction::Exact {
                makespan,
                rel_tol: EXACT_REL_TOL,
            }
        }
    }

    /// UMR's no-idle timeline: the master spends `N·(nLat + c_j/B)` per
    /// round back-to-back; worker `i` receives its round-0 chunk after
    /// `(i+1)·(nLat + c_0/B) + tLat` and then computes without idling, so
    /// its round-`j` compute end is that arrival plus
    /// `Σ_{k≤j} (cLat + c_k/S)`. The last worker's final-round finish is
    /// exactly Eq. 16's makespan. `None` when the first- or last-served
    /// worker waits for a chunk, since the timeline then no longer holds.
    fn round_timeline(&self) -> Option<Vec<RoundTiming>> {
        let inputs = *self.schedule.inputs();
        if self.waits(1.0) || self.waits(inputs.n as f64) {
            return None;
        }
        let chunks = self.schedule.round_chunks();
        let n = inputs.n as f64;
        let mut timeline = Vec::with_capacity(chunks.len());
        let mut dispatch_start = 0.0;
        let first_arrival = |c0: f64| inputs.net_latency + c0 / inputs.bandwidth;
        let mut compute_done = 0.0; // Σ_{k≤j} (cLat + c_k/S)
        for (j, &c) in chunks.iter().enumerate() {
            let dispatch_end = dispatch_start + n * (inputs.net_latency + c / inputs.bandwidth);
            compute_done += inputs.comp_latency + c / inputs.speed;
            let base = first_arrival(chunks[0]) + inputs.transfer_latency + compute_done;
            timeline.push(RoundTiming {
                round: j,
                chunk: c,
                dispatch_start,
                dispatch_end,
                first_finish: base,
                last_finish: base + (n - 1.0) * first_arrival(chunks[0]),
            });
            dispatch_start = dispatch_end;
        }
        Some(timeline)
    }
}

// ---------------------------------------------------------------------------
// Heterogeneous UMR
// ---------------------------------------------------------------------------

/// Oracle over a solved [`HetUmrSchedule`]: the heterogeneous round
/// recursion's predicted makespan (exact on an error-free run) and the
/// plan's work accounting, including workers dropped by resource selection.
#[derive(Debug, Clone)]
pub struct HetUmrOracle {
    schedule: HetUmrSchedule,
}

impl HetUmrOracle {
    /// Wrap a solved schedule.
    pub fn new(schedule: HetUmrSchedule) -> Self {
        HetUmrOracle { schedule }
    }

    /// The wrapped schedule.
    pub fn schedule(&self) -> &HetUmrSchedule {
        &self.schedule
    }
}

impl Oracle for HetUmrOracle {
    fn name(&self) -> &'static str {
        "UMR-het"
    }

    fn planned_work(&self) -> f64 {
        self.schedule.w_total()
    }

    fn makespan(&self) -> Prediction {
        Prediction::Exact {
            makespan: self.schedule.predicted_makespan(),
            rel_tol: EXACT_REL_TOL,
        }
    }
}

// ---------------------------------------------------------------------------
// Multi-installment
// ---------------------------------------------------------------------------

/// Oracle over a solved [`MiSchedule`].
///
/// MI's linear system ignores all three latencies, so its makespan is
/// [`Prediction::Exact`] only on a latency-free platform; with any latency
/// it is a strict [`Prediction::LowerBound`] — the gap between the two is
/// precisely the overhead the RUMR paper's critique of MI quantifies.
#[derive(Debug, Clone)]
pub struct MiOracle {
    schedule: MiSchedule,
    bandwidth: f64,
    speed: f64,
    latency_free: bool,
}

impl MiOracle {
    /// Wrap a solved schedule together with the (homogeneous) platform
    /// rates its linear system was built from.
    pub fn new(schedule: MiSchedule, platform: &Platform) -> Self {
        let w0 = platform.worker(0);
        let latency_free =
            w0.comp_latency == 0.0 && w0.net_latency == 0.0 && w0.transfer_latency == 0.0;
        MiOracle {
            schedule,
            bandwidth: w0.bandwidth,
            speed: w0.speed,
            latency_free,
        }
    }

    /// The wrapped schedule.
    pub fn schedule(&self) -> &MiSchedule {
        &self.schedule
    }
}

impl Oracle for MiOracle {
    fn name(&self) -> &'static str {
        "MI"
    }

    fn planned_work(&self) -> f64 {
        self.schedule
            .chunks()
            .iter()
            .map(|inst| inst.iter().sum::<f64>())
            .sum()
    }

    fn makespan(&self) -> Prediction {
        let makespan = self.schedule.predicted_makespan();
        if self.latency_free {
            Prediction::Exact {
                makespan,
                rel_tol: EXACT_REL_TOL,
            }
        } else {
            Prediction::LowerBound {
                makespan,
                rel_tol: LOWER_BOUND_REL_TOL,
            }
        }
    }

    /// MI's installment finish times from the linear system: worker 0
    /// receives its installment-0 chunk after `c_{0,0}/B`, computes every
    /// installment back-to-back (the no-idle constraint), and the
    /// equal-finish constraint makes each installment's finish common to
    /// all workers. Only pinned on a latency-free platform, where the
    /// system is the true model.
    fn round_timeline(&self) -> Option<Vec<RoundTiming>> {
        if !self.latency_free {
            return None;
        }
        let chunks = self.schedule.chunks();
        let mut timeline = Vec::with_capacity(chunks.len());
        let mut dispatch_start = 0.0;
        let mut finish = chunks[0][0] / self.bandwidth;
        for (j, inst) in chunks.iter().enumerate() {
            let dispatch_end = dispatch_start + inst.iter().sum::<f64>() / self.bandwidth;
            finish += inst[0] / self.speed;
            timeline.push(RoundTiming {
                round: j,
                chunk: inst[0],
                dispatch_start,
                dispatch_end,
                first_finish: finish,
                last_finish: finish,
            });
            dispatch_start = dispatch_end;
        }
        Some(timeline)
    }
}

// ---------------------------------------------------------------------------
// One round
// ---------------------------------------------------------------------------

/// Oracle over a solved [`OneRoundSchedule`]: the latency-aware equal-finish
/// single round (exact on an error-free run).
#[derive(Debug, Clone)]
pub struct OneRoundOracle {
    schedule: OneRoundSchedule,
}

impl OneRoundOracle {
    /// Wrap a solved schedule.
    pub fn new(schedule: OneRoundSchedule) -> Self {
        OneRoundOracle { schedule }
    }

    /// The wrapped schedule.
    pub fn schedule(&self) -> &OneRoundSchedule {
        &self.schedule
    }
}

impl Oracle for OneRoundOracle {
    fn name(&self) -> &'static str {
        "OneRound"
    }

    fn planned_work(&self) -> f64 {
        self.schedule.chunks().iter().sum()
    }

    fn makespan(&self) -> Prediction {
        Prediction::Exact {
            makespan: self.schedule.predicted_makespan(),
            rel_tol: EXACT_REL_TOL,
        }
    }
}

// ---------------------------------------------------------------------------
// Factoring
// ---------------------------------------------------------------------------

/// Oracle over the factoring chunk sequence: no closed-form makespan (the
/// whole point of factoring is dynamic assignment), but the sequence's
/// accounting is fully determined — the oracle drains a fresh
/// [`FactoringSource`] at construction and records its totals.
#[derive(Debug, Clone)]
pub struct FactoringOracle {
    total: f64,
    num_chunks: usize,
    smallest: f64,
}

impl FactoringOracle {
    /// Build from explicit factoring parameters (see
    /// [`FactoringSource::new`]).
    pub fn new(w_total: f64, n: usize, factor: f64, min_chunk: f64) -> Self {
        let mut source = FactoringSource::new(w_total, n, factor, min_chunk);
        let mut total = 0.0;
        let mut num_chunks = 0usize;
        let mut smallest = f64::INFINITY;
        while let Some(c) = source.next_chunk() {
            total += c;
            num_chunks += 1;
            smallest = smallest.min(c);
        }
        FactoringOracle {
            total,
            num_chunks,
            smallest,
        }
    }

    /// Mirror [`crate::factoring::Factoring::new`]'s parameter choice:
    /// classic `f = 2` with the error-unaware minimum chunk bound.
    pub fn from_platform(platform: &Platform, w_total: f64) -> Self {
        let n = platform.num_workers();
        let w0 = platform.worker(0);
        let bound = min_chunk_bound(n, w0.comp_latency, w0.net_latency, None);
        FactoringOracle::new(w_total, n, DEFAULT_FACTOR, bound)
    }

    /// Number of chunks the sequence emits.
    pub fn num_chunks(&self) -> usize {
        self.num_chunks
    }

    /// Smallest emitted chunk (infinite for an empty sequence).
    pub fn smallest_chunk(&self) -> f64 {
        self.smallest
    }
}

impl Oracle for FactoringOracle {
    fn name(&self) -> &'static str {
        "Factoring"
    }

    fn planned_work(&self) -> f64 {
        self.total
    }

    fn makespan(&self) -> Prediction {
        Prediction::Unavailable
    }
}

// ---------------------------------------------------------------------------
// RUMR
// ---------------------------------------------------------------------------

/// Oracle over RUMR's two-phase composition: the §4.2(i) phase split
/// (`w1 + w2 = W`), phase 1's UMR oracle over `w1` (when phase 1 exists),
/// and the phase-2 factoring accounting over `w2`. No end-to-end makespan —
/// phase 2 is dynamic by design — so the prediction is
/// [`Prediction::Unavailable`] and the value of this oracle is its
/// accounting: the two phases must cover exactly `W` between them.
#[derive(Debug, Clone)]
pub struct RumrOracle {
    split: PhaseSplit,
    phase1: Option<UmrOracle>,
    phase2: Option<FactoringOracle>,
}

impl RumrOracle {
    /// Build from a planned [`Rumr`] scheduler and the factoring parameters
    /// of its phase 2 (mirroring [`Rumr::new`]).
    pub fn new(rumr: &Rumr, platform: &Platform) -> Self {
        let split = rumr.split();
        let phase1 = rumr.phase1_schedule().cloned().map(UmrOracle::new);
        let phase2 = rumr.uses_phase2().then(|| {
            let n = platform.num_workers();
            let w0 = platform.worker(0);
            let config = rumr.config();
            let bound_error = if config.error_aware_bound {
                config.error_estimate
            } else {
                None
            };
            let bound =
                phase_min_chunk_bound(split.w2, n, w0.comp_latency, w0.net_latency, bound_error);
            FactoringOracle::new(split.w2, n, config.factor, bound)
        });
        RumrOracle {
            split,
            phase1,
            phase2,
        }
    }

    /// The §4.2(i) phase split.
    pub fn split(&self) -> PhaseSplit {
        self.split
    }

    /// Phase 1's UMR oracle over `w1`, when phase 1 is non-empty.
    pub fn phase1(&self) -> Option<&UmrOracle> {
        self.phase1.as_ref()
    }

    /// Phase 2's factoring accounting over `w2`, when phase 2 is non-empty.
    pub fn phase2(&self) -> Option<&FactoringOracle> {
        self.phase2.as_ref()
    }
}

impl Oracle for RumrOracle {
    fn name(&self) -> &'static str {
        "RUMR"
    }

    /// `w1 + w2` — by the split's construction this must equal `W`, and by
    /// phase-plan construction phase 1's rounds must sum to `w1` and
    /// phase 2's chunks to `w2` (both are also checked individually by the
    /// audit harness through [`RumrOracle::phase1`] / [`RumrOracle::phase2`]).
    fn planned_work(&self) -> f64 {
        self.split.w1 + self.split.w2
    }

    fn makespan(&self) -> Prediction {
        Prediction::Unavailable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mi::MultiInstallment;
    use crate::one_round::OneRound;
    use crate::rumr::RumrConfig;
    use crate::umr::{Umr, UmrInputs};
    use dls_sim::HomogeneousParams;

    fn platform(n: usize, clat: f64, nlat: f64) -> Platform {
        HomogeneousParams::table1(n, 1.5, clat, nlat)
            .build()
            .unwrap()
    }

    #[test]
    fn umr_timeline_is_consistent_with_eq16() {
        let p = platform(8, 0.3, 0.2);
        let umr = Umr::new(&p, 1000.0).unwrap();
        let oracle = UmrOracle::new(umr.schedule().clone());
        assert!((oracle.planned_work() - 1000.0).abs() < 1e-6 * 1000.0);
        let timeline = oracle.round_timeline().unwrap();
        assert_eq!(timeline.len(), umr.schedule().num_rounds());
        // Rounds tile the master's time line.
        for pair in timeline.windows(2) {
            assert!((pair[0].dispatch_end - pair[1].dispatch_start).abs() < 1e-9);
            assert!(pair[0].first_finish < pair[1].first_finish);
        }
        // The last worker's final-round finish IS Eq. 16's makespan.
        let last = timeline.last().unwrap();
        let predicted = umr.schedule().predicted_makespan();
        assert!(
            (last.last_finish - predicted).abs() < 1e-9 * predicted,
            "timeline end {} vs Eq.16 {predicted}",
            last.last_finish
        );
        assert!(matches!(oracle.makespan(), Prediction::Exact { .. }));
    }

    /// With `cLat = 0` the optimum sits on the chunk recursion's fixed
    /// point, and the last round absorbs a rounding residual of ~1e-3
    /// units. The last worker then waits `N·δ/B` for its final chunk: the
    /// oracle must measure that wait, withdraw its exact claim and its
    /// timeline, and still bound the engine from below.
    #[test]
    fn umr_oracle_sees_the_last_worker_wait() {
        use dls_sim::{simulate, ErrorInjector, ErrorModel, SimConfig};
        for (ratio, w_total) in [(1.6, 1759.447), (2.0, 987.048)] {
            let p = HomogeneousParams::table1(10, ratio, 0.0, 0.1)
                .build()
                .unwrap();
            let mut umr = Umr::new(&p, w_total).unwrap();
            let oracle = UmrOracle::new(umr.schedule().clone());
            let engine = simulate(
                &p,
                &mut umr,
                ErrorInjector::new(ErrorModel::None, 0),
                SimConfig::default(),
            )
            .unwrap()
            .makespan;
            let eq16 = oracle.schedule().predicted_makespan();
            let waited = oracle.idle(10.0);
            assert!(waited > 1e-4, "r={ratio}: waited {waited}");
            assert!(
                (eq16 + waited - engine).abs() < 1e-9 * engine,
                "r={ratio}: Eq. 16 {eq16} + wait {waited} vs engine {engine}"
            );
            assert!(matches!(oracle.makespan(), Prediction::LowerBound { .. }));
            assert!(oracle.makespan().within(engine));
            assert!(oracle.round_timeline().is_none());
        }
        // A regular Table 1 point waits for nothing.
        let umr = Umr::new(&platform(10, 0.2, 0.1), 1000.0).unwrap();
        let oracle = UmrOracle::new(umr.schedule().clone());
        assert!(oracle.idle(1.0).abs() < 1e-9 && oracle.idle(10.0).abs() < 1e-9);
    }

    #[test]
    fn umr_timeline_matches_plan_chunks() {
        let p = platform(5, 0.2, 0.1);
        let umr = Umr::new(&p, 600.0).unwrap();
        let oracle = UmrOracle::new(umr.schedule().clone());
        let timeline = oracle.round_timeline().unwrap();
        for (t, &c) in timeline.iter().zip(umr.schedule().round_chunks()) {
            assert_eq!(t.chunk, c);
        }
    }

    #[test]
    fn mi_oracle_latency_contract() {
        // Latency-free: exact, with a pinned installment timeline.
        let free = platform(6, 0.0, 0.0);
        let mi = MultiInstallment::new(&free, 900.0, 3).unwrap();
        let oracle = MiOracle::new(mi.schedule().clone(), &free);
        assert!((oracle.planned_work() - 900.0).abs() < 1e-6 * 900.0);
        assert!(matches!(oracle.makespan(), Prediction::Exact { .. }));
        let timeline = oracle.round_timeline().unwrap();
        assert_eq!(timeline.len(), 3);
        let predicted = mi.schedule().predicted_makespan();
        assert!((timeline.last().unwrap().last_finish - predicted).abs() < 1e-9 * predicted);

        // With latencies the linear system is only a lower bound, and the
        // timeline is withdrawn.
        let laggy = platform(6, 0.3, 0.2);
        let mi = MultiInstallment::new(&laggy, 900.0, 3).unwrap();
        let oracle = MiOracle::new(mi.schedule().clone(), &laggy);
        assert!(matches!(oracle.makespan(), Prediction::LowerBound { .. }));
        assert!(oracle.round_timeline().is_none());
    }

    #[test]
    fn one_round_oracle_accounts_for_everything() {
        let p = platform(7, 0.4, 0.3);
        let one = OneRound::new(&p, 500.0).unwrap();
        let oracle = OneRoundOracle::new(one.schedule().clone());
        assert!((oracle.planned_work() - 500.0).abs() < 1e-6 * 500.0);
        let Prediction::Exact { makespan, .. } = oracle.makespan() else {
            panic!("one-round model is exact");
        };
        assert!(makespan > 0.0);
    }

    #[test]
    fn factoring_oracle_accounting() {
        let p = platform(10, 0.3, 0.2);
        let oracle = FactoringOracle::from_platform(&p, 1000.0);
        assert!((oracle.planned_work() - 1000.0).abs() < 1e-6 * 1000.0);
        assert!(oracle.num_chunks() > 10);
        assert!(oracle.smallest_chunk() > 0.0);
        assert_eq!(oracle.makespan(), Prediction::Unavailable);
    }

    #[test]
    fn rumr_oracle_phases_cover_the_workload() {
        let p = platform(12, 0.3, 0.2);
        let rumr = Rumr::new(&p, 1000.0, RumrConfig::with_known_error(0.3)).unwrap();
        let oracle = RumrOracle::new(&rumr, &p);
        assert!((oracle.planned_work() - 1000.0).abs() < 1e-6 * 1000.0);
        // Phase 1 rounds sum to w1; phase 2 chunks sum to w2.
        let split = oracle.split();
        let p1 = oracle.phase1().expect("w1 > 0 at error 0.3");
        assert!((p1.planned_work() - split.w1).abs() < 1e-6 * split.w1.max(1.0));
        let p2 = oracle.phase2().expect("w2 > 0 at error 0.3");
        assert!((p2.planned_work() - split.w2).abs() < 1e-6 * split.w2.max(1.0));
        assert_eq!(oracle.makespan(), Prediction::Unavailable);
    }

    #[test]
    fn rumr_oracle_mirrors_a_tiny_error_phase_two() {
        // Regression for the serialized-tail cliff: with a 4 % error
        // estimate and a forced 50/50 split on a latency-heavy platform,
        // the uncapped error-aware bound (215 units) would emit 2 chunks of
        // 250 for phase 2 — 18 of 20 workers idle. The capped bound spreads
        // the phase over every worker, and the oracle mirrors the
        // scheduler's actual source.
        let p = platform(20, 0.6, 0.4);
        let config = RumrConfig::with_fixed_fraction(0.5, Some(0.04));
        let rumr = Rumr::new(&p, 1000.0, config).unwrap();
        let oracle = RumrOracle::new(&rumr, &p);
        let p2 = oracle.phase2().expect("fixed split forces a phase 2");
        assert!((p2.planned_work() - 500.0).abs() < 1e-9);
        assert_eq!(p2.num_chunks(), 20, "phase 2 must reach every worker");
        assert!(p2.smallest_chunk() >= 25.0 - 1e-9);
    }

    #[test]
    fn prediction_residual_semantics() {
        let exact = Prediction::Exact {
            makespan: 100.0,
            rel_tol: 1e-6,
        };
        assert!(exact.within(100.00001));
        assert!(!exact.within(100.1));
        assert!((exact.residual(101.0).unwrap() - 0.01).abs() < 1e-12);

        let bound = Prediction::LowerBound {
            makespan: 100.0,
            rel_tol: 1e-9,
        };
        assert!(bound.within(150.0), "later than the bound is fine");
        assert!(!bound.within(99.0), "beating the bound is a violation");
        assert_eq!(bound.residual(150.0), Some(0.0));

        assert!(Prediction::Unavailable.within(42.0));
        assert_eq!(Prediction::Unavailable.residual(42.0), None);
        assert_eq!(Prediction::Unavailable.tolerance(), None);
        assert_eq!(Prediction::Unavailable.makespan(), None);
    }

    #[test]
    fn umr_error_free_simulation_lands_on_the_timeline() {
        // The oracle timeline is not just self-consistent — the DES hits
        // it. Worker 0's j-th ComputeEnd must equal first_finish[j]; the
        // last worker's must equal last_finish[j].
        use dls_sim::{simulate, ErrorInjector, ErrorModel, SimConfig, TraceEvent, TraceMode};
        let p = platform(6, 0.3, 0.2);
        let mut umr = Umr::new(&p, 800.0).unwrap();
        let oracle = UmrOracle::new(umr.schedule().clone());
        let timeline = oracle.round_timeline().unwrap();
        let r = simulate(
            &p,
            &mut umr,
            ErrorInjector::new(ErrorModel::None, 0),
            SimConfig {
                trace_mode: TraceMode::Full,
                ..Default::default()
            },
        )
        .unwrap();
        let trace = r.trace.unwrap();
        let ends = |worker: usize| -> Vec<f64> {
            trace
                .events()
                .iter()
                .filter_map(|e| match *e {
                    TraceEvent::ComputeEnd {
                        worker: w, time, ..
                    } if w == worker => Some(time),
                    _ => None,
                })
                .collect()
        };
        let first = ends(0);
        let last = ends(5);
        assert_eq!(first.len(), timeline.len());
        assert_eq!(last.len(), timeline.len());
        for (j, t) in timeline.iter().enumerate() {
            assert!(
                (first[j] - t.first_finish).abs() < 1e-6 * t.first_finish,
                "round {j}: worker 0 finished at {} vs predicted {}",
                first[j],
                t.first_finish
            );
            assert!(
                (last[j] - t.last_finish).abs() < 1e-6 * t.last_finish,
                "round {j}: last worker finished at {} vs predicted {}",
                last[j],
                t.last_finish
            );
        }
    }

    #[test]
    fn oracle_prediction_matches_solver_even_near_theta_one() {
        // The oracle inherits the expm1-stabilized chunk0; a near-θ=1
        // platform must still produce a finite, positive, exact-tagged
        // prediction.
        let inputs = UmrInputs {
            n: 4,
            speed: 1.0,
            bandwidth: 4.0 * (1.0 + 1e-9),
            comp_latency: 0.4,
            net_latency: 0.05,
            transfer_latency: 0.0,
            w_total: 1000.0,
        };
        let schedule = UmrSchedule::solve_with_selection(inputs).unwrap();
        let oracle = UmrOracle::new(schedule);
        let Prediction::Exact { makespan, .. } = oracle.makespan() else {
            panic!("UMR model is exact");
        };
        assert!(makespan.is_finite() && makespan > 0.0);
        assert!((oracle.planned_work() - 1000.0).abs() < 1e-6 * 1000.0);
    }
}
