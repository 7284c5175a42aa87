//! Seeded operation generator. Every workload's inputs are a pure
//! function of the workload seed, built before the program under test
//! starts; the program only ever sees the rendered request bodies.

use dls_experiments::grid::{error_values, GridPoint, Table1Grid};

/// SplitMix64. The benchmark owns its generator, so its inputs do not
/// move when the library's RNG changes.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_BE0C_4B15_D00D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`, rounded to `decimals` places so request
    /// bodies carry short decimal numbers that parse back exactly.
    pub fn decimal(&mut self, lo: f64, hi: f64, decimals: i32) -> f64 {
        let scale = 10f64.powi(decimals);
        ((lo + (hi - lo) * self.unit()) * scale).round() / scale
    }

    /// A seed that survives the service's f64 JSON numbers exactly.
    pub fn wire_seed(&mut self) -> u64 {
        self.next_u64() >> 34
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The service endpoint an operation calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    Plan,
    Simulate,
}

impl Endpoint {
    pub fn path(self) -> &'static str {
        match self {
            Endpoint::Plan => "/v1/plan",
            Endpoint::Simulate => "/v1/simulate",
        }
    }

    /// The endpoint label the service's `/metrics` uses.
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Plan => "/plan",
            Endpoint::Simulate => "/simulate",
        }
    }
}

/// One HTTP request plus what the generator knows about it, which the
/// output checks use instead of anything the service reports.
#[derive(Debug, Clone)]
pub struct HttpOp {
    pub endpoint: Endpoint,
    pub class: &'static str,
    pub body: String,
    pub w_total: f64,
    /// Declared worker speeds (`S_i`).
    pub speeds: Vec<f64>,
    /// The scheduler has an exact closed form on this platform, so `/plan`
    /// must answer from the analytic fast path.
    pub expect_analytic: bool,
    pub faulty: bool,
    pub revealed_speeds: bool,
    pub reps: u64,
}

/// A workload of HTTP operations: a table of distinct requests and the
/// order in which the warm-up and the measured phase send them.
pub struct HttpWorkload {
    pub table: Vec<HttpOp>,
    pub warmup: Vec<usize>,
    pub measured: Vec<usize>,
}

/// One `run_sweep` call: a single Table 1 point at one error magnitude.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepOp {
    pub point: GridPoint,
    pub error: f64,
    pub root_seed: u64,
}

/// The W/ΣSᵢ lower bound: no schedule finishes `w_total` units sooner
/// than the whole platform computing flat out from time 0.
pub fn work_bound(w_total: f64, speeds: &[f64]) -> f64 {
    w_total / speeds.iter().sum::<f64>()
}

struct Point {
    n: usize,
    ratio: f64,
    clat: f64,
    nlat: f64,
}

/// A uniformly drawn point of the paper's full Table 1 grid.
fn table1_point(rng: &mut Rng) -> Point {
    Point {
        n: 10 + 5 * rng.below(9),
        ratio: (12 + rng.below(9)) as f64 / 10.0,
        clat: rng.below(11) as f64 / 10.0,
        nlat: rng.below(11) as f64 / 10.0,
    }
}

fn homogeneous_json(p: &Point) -> String {
    format!(
        "{{\"homogeneous\":{{\"n\":{},\"ratio\":{},\"comp_latency\":{},\"net_latency\":{}}}}}",
        p.n, p.ratio, p.clat, p.nlat
    )
}

/// A seeded heterogeneous star of `n` workers; returns its JSON and speeds.
fn heterogeneous(rng: &mut Rng, n: usize) -> (String, Vec<f64>) {
    let mut speeds = Vec::with_capacity(n);
    let mut json = String::from("{\"workers\":[");
    for i in 0..n {
        let speed = rng.decimal(0.5, 2.0, 3);
        let bandwidth = rng.decimal(1.0, 2.5, 3) * n as f64;
        let clat = rng.decimal(0.0, 0.3, 3);
        let nlat = rng.decimal(0.0, 0.2, 3);
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"speed\":{speed},\"bandwidth\":{bandwidth},\"comp_latency\":{clat},\"net_latency\":{nlat}}}"
        ));
        speeds.push(speed);
    }
    json.push_str("]}");
    (json, speeds)
}

fn plan_op(
    class: &'static str,
    platform: String,
    speeds: Vec<f64>,
    w_total: f64,
    scheduler: String,
    analytic: bool,
) -> HttpOp {
    HttpOp {
        endpoint: Endpoint::Plan,
        class,
        body: format!(
            "{{\"platform\":{platform},\"w_total\":{w_total},\"scheduler\":{scheduler}}}"
        ),
        w_total,
        speeds,
        expect_analytic: analytic,
        faulty: false,
        revealed_speeds: false,
        reps: 1,
    }
}

/// A `/plan` workload size, distinct per body, at most the paper's
/// W = 1000.
fn plan_workload(rng: &mut Rng) -> f64 {
    rng.decimal(500.0, 1000.0, 3)
}

/// The Table 1 points (N = 10, cLat = 0, nLat = 0.1) where UMR's closed
/// form and the engine disagree beyond the oracle's tolerance for some
/// workload sizes (see `CHANGES.md`). A UMR `/plan` there would fail on
/// some seeds and not on others, so UMR requests are drawn elsewhere.
fn umr_oracle_disagrees(p: &Point) -> bool {
    p.n == 10 && p.clat == 0.0 && p.nlat == 0.1
}

/// A `/plan` request on a Table 1 point with one of the paper's
/// homogeneous schedulers, each with the same share (no traffic data says
/// otherwise). UMR and the one-round solver have exact closed forms
/// everywhere, MI only without latencies; RUMR and factoring have none.
/// (The one-round solver plans homogeneous platforms only.)
fn homogeneous_plan(rng: &mut Rng) -> HttpOp {
    let mut p = table1_point(rng);
    let w_total = plan_workload(rng);
    let (class, scheduler, analytic) = match rng.below(5) {
        0 => {
            while umr_oracle_disagrees(&p) {
                p = table1_point(rng);
            }
            ("plan.umr", "{\"kind\":\"umr\"}".to_string(), true)
        }
        1 => {
            let e = rng.decimal(0.1, 0.5, 2);
            (
                "plan.rumr",
                format!("{{\"kind\":\"rumr\",\"error_estimate\":{e}}}"),
                false,
            )
        }
        2 => (
            "plan.factoring",
            "{\"kind\":\"factoring\"}".to_string(),
            false,
        ),
        3 => {
            let x = 1 + rng.below(4);
            let exact = p.clat == 0.0 && p.nlat == 0.0;
            (
                "plan.mi",
                format!("{{\"kind\":\"mi\",\"installments\":{x}}}"),
                exact,
            )
        }
        _ => (
            "plan.one_round",
            "{\"kind\":\"one_round\"}".to_string(),
            true,
        ),
    };
    plan_op(
        class,
        homogeneous_json(&p),
        vec![1.0; p.n],
        w_total,
        scheduler,
        analytic,
    )
}

/// A `/plan` request on a seeded heterogeneous platform of 16–32 workers
/// (where heterogeneous UMR solves take ≈270–490 µs), heterogeneous
/// UMR or RUMR with equal shares.
fn heterogeneous_plan(rng: &mut Rng) -> HttpOp {
    let n = 16 + rng.below(17);
    let (platform, speeds) = heterogeneous(rng, n);
    let w_total = plan_workload(rng);
    let (class, scheduler, analytic) = if rng.below(2) == 0 {
        ("plan.het_umr", "{\"kind\":\"het_umr\"}".to_string(), true)
    } else {
        let e = rng.decimal(0.1, 0.5, 2);
        (
            "plan.het_rumr",
            format!("{{\"kind\":\"het_rumr\",\"error_estimate\":{e}}}"),
            false,
        )
    };
    plan_op(class, platform, speeds, w_total, scheduler, analytic)
}

/// Which optional blocks a `/simulate` request carries.
#[derive(Clone, Copy, PartialEq)]
enum Extra {
    None,
    Faults,
    Speeds,
}

/// A `/simulate` request on a Table 1 point with one of the paper's
/// schedulers, each with the same share, and a prediction error of
/// 0.1–0.5. MI is left out: on rare seeds its runs never finish and hit
/// the engine's event limit (see `CHANGES.md`), and a fresh seed per
/// request cannot be screened.
fn simulate_op(rng: &mut Rng, reps: u64, extra: Extra) -> HttpOp {
    let p = table1_point(rng);
    let e = rng.decimal(0.1, 0.5, 2);
    let (class, scheduler) = match rng.below(3) {
        0 => (
            "simulate.rumr",
            format!("{{\"kind\":\"rumr\",\"error_estimate\":{e}}}"),
        ),
        1 => ("simulate.umr", "{\"kind\":\"umr\"}".to_string()),
        _ => ("simulate.factoring", "{\"kind\":\"factoring\"}".to_string()),
    };
    let seed = rng.wire_seed();
    let mut run = format!("{{\"scheduler\":{scheduler},\"seed\":{seed},\"reps\":{reps}");
    let mut tail = String::new();
    let class = match extra {
        Extra::None => class,
        Extra::Faults => {
            // One worker drops out for a while and comes back; the
            // recovery layer re-dispatches what it lost.
            let worker = rng.below(p.n);
            let down = rng.decimal(2.0, 20.0, 2);
            let up = down + rng.decimal(5.0, 15.0, 2);
            run.push_str(&format!(
                ",\"config\":{{\"faults\":{{\"kind\":\"plan\",\"events\":[\
                 {{\"time\":{down},\"worker\":{worker},\"action\":\"down\"}},\
                 {{\"time\":{up},\"worker\":{worker},\"action\":\"up\"}}]}}}},\"recovery\":true"
            ));
            "simulate.faults"
        }
        Extra::Speeds => {
            let slowdown = rng.decimal(1.2, 2.0, 2);
            let speed_seed = rng.wire_seed();
            tail = format!(
                ",\"speeds\":{{\"kind\":\"sandbag\",\"fraction\":0.25,\"slowdown\":{slowdown},\"seed\":{speed_seed}}}"
            );
            "simulate.speeds"
        }
    };
    run.push('}');
    let w_total = 1000.0;
    HttpOp {
        endpoint: Endpoint::Simulate,
        class,
        body: format!(
            "{{\"platform\":{},\"w_total\":{w_total},\"error_model\":{{\"kind\":\"normal\",\"error\":{e}}},\"run\":{run}{tail}}}",
            homogeneous_json(&p)
        ),
        w_total,
        speeds: vec![1.0; p.n],
        expect_analytic: false,
        faulty: extra == Extra::Faults,
        revealed_speeds: extra == Extra::Speeds,
        reps,
    }
}

/// Working-set sizes of `serve-hot`, below the service's default plan
/// cache (128) and response cache (256) capacities.
pub const HOT_PLANS: usize = 48;
pub const HOT_SIMS: usize = 24;
/// Requests of the `serve-hot` warm-up after the first pass over the
/// working set.
const HOT_WARM_HITS: usize = 3000;

/// Share of `/plan` requests in `serve-hot` and of Table 1 bodies in
/// `plan-cold`. No traffic data fixes either share; 70 % keeps the
/// median inside the cheaper, larger class, 20 points from the boundary
/// with the costlier one.
const MAJORITY: f64 = 0.7;

/// `serve-hot`: a fixed working set of Table 1 `/plan` bodies and
/// error-carrying `/simulate` bodies, replayed [`MAJORITY`] `/plan` so
/// every measured answer is a cache hit. A hit does not depend on the
/// platform's family, so heterogeneous platforms are left to `plan-cold`.
pub fn serve_hot(seed: u64, measured: usize) -> HttpWorkload {
    let mut rng = Rng::new(seed);
    let mut table = Vec::with_capacity(HOT_PLANS + HOT_SIMS);
    for _ in 0..HOT_PLANS {
        table.push(homogeneous_plan(&mut rng));
    }
    for _ in 0..HOT_SIMS {
        table.push(simulate_op(&mut rng, 4, Extra::None));
    }
    let draw = |rng: &mut Rng| {
        if rng.unit() < MAJORITY {
            rng.below(HOT_PLANS)
        } else {
            HOT_PLANS + rng.below(HOT_SIMS)
        }
    };
    let mut warmup: Vec<usize> = (0..table.len()).collect();
    warmup.extend((0..HOT_WARM_HITS).map(|_| draw(&mut rng)));
    let measured = (0..measured).map(|_| draw(&mut rng)).collect();
    HttpWorkload {
        table,
        warmup,
        measured,
    }
}

/// Requests in the warm-up of the cold workloads: more than the plan
/// cache holds, so the measured phase starts with a full cache.
const COLD_WARMUP: usize = 400;

fn cold(table: Vec<HttpOp>, warm: usize) -> HttpWorkload {
    let warmup = (0..warm).collect();
    let measured = (warm..table.len()).collect();
    HttpWorkload {
        table,
        warmup,
        measured,
    }
}

/// `plan-cold`: every body new, [`MAJORITY`] on Table 1 points (UMR,
/// RUMR, factoring, MI, one-round), the rest on heterogeneous platforms
/// (heterogeneous UMR and RUMR), whose solves cost more: ≈270–490 µs for
/// heterogeneous UMR against ≈17–170 µs on Table 1 points.
pub fn plan_cold(seed: u64, measured: usize) -> HttpWorkload {
    let mut rng = Rng::new(seed ^ 0x504C_414E);
    cold(
        (0..COLD_WARMUP + measured)
            .map(|_| {
                if rng.unit() < MAJORITY {
                    homogeneous_plan(&mut rng)
                } else {
                    heterogeneous_plan(&mut rng)
                }
            })
            .collect(),
        COLD_WARMUP,
    )
}

/// Repetitions per `/simulate` request of `simulate-cold`.
pub const SIM_REPS: u64 = 8;

/// `simulate-cold`: every body new, eight repetitions each. One in ten
/// adds a fault plan with recovery and one in ten revealed speeds: the
/// workload defines them as minority shares, and these leave the median
/// among plain requests.
pub fn simulate_cold(seed: u64, measured: usize) -> HttpWorkload {
    let mut rng = Rng::new(seed ^ 0x5349_4D55);
    cold(
        (0..COLD_WARMUP / 2 + measured)
            .map(|_| {
                let u = rng.unit();
                let extra = if u < 0.1 {
                    Extra::Faults
                } else if u < 0.2 {
                    Extra::Speeds
                } else {
                    Extra::None
                };
                simulate_op(&mut rng, SIM_REPS, extra)
            })
            .collect(),
        COLD_WARMUP / 2,
    )
}

/// Root seeds of the `paper-sweep` calls. Each was run on every cell of
/// the quick grid without a run exceeding the engine's event limit; some
/// other seeds make an MI-3 run never finish (see `CHANGES.md`).
const SWEEP_ROOTS: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// Cells in the `paper-sweep` warm-up.
pub const SWEEP_WARMUP: usize = 48;

/// `paper-sweep`: the quick grid's points at each of the sweep's error
/// values, shuffled, each with a root seed drawn from [`SWEEP_ROOTS`]; `count` measured cells
/// after [`SWEEP_WARMUP`] warm-up cells.
pub fn paper_sweep(seed: u64, count: usize) -> Vec<SweepOp> {
    let mut rng = Rng::new(seed ^ 0x5357_4545);
    let cells: Vec<(GridPoint, f64)> = Table1Grid::quick()
        .points()
        .into_iter()
        .flat_map(|p| error_values(0.05).into_iter().map(move |e| (p, e)))
        .collect();
    let mut ops = Vec::with_capacity(SWEEP_WARMUP + count);
    while ops.len() < SWEEP_WARMUP + count {
        let mut pass = cells.clone();
        rng.shuffle(&mut pass);
        ops.extend(pass.into_iter().map(|(point, error)| SweepOp {
            point,
            error,
            root_seed: SWEEP_ROOTS[rng.below(SWEEP_ROOTS.len())],
        }));
    }
    ops.truncate(SWEEP_WARMUP + count);
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bodies(w: &HttpWorkload) -> Vec<&str> {
        w.measured
            .iter()
            .map(|&i| w.table[i].body.as_str())
            .collect()
    }

    #[test]
    fn generators_are_deterministic_in_the_seed() {
        for f in [serve_hot, plan_cold, simulate_cold] {
            assert_eq!(bodies(&f(7, 300)), bodies(&f(7, 300)));
            assert_ne!(bodies(&f(7, 300)), bodies(&f(8, 300)));
        }
        assert_eq!(paper_sweep(7, 300), paper_sweep(7, 300));
        assert_ne!(paper_sweep(7, 300), paper_sweep(8, 300));
    }

    #[test]
    fn cold_bodies_are_all_distinct_and_hot_ones_fit_the_caches() {
        for w in [plan_cold(3, 2000), simulate_cold(3, 2000)] {
            let mut seen: Vec<&str> = w.table.iter().map(|op| op.body.as_str()).collect();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), w.table.len());
            assert!(w.warmup.iter().all(|i| !w.measured.contains(i)));
        }
        let hot = serve_hot(3, 1000);
        assert_eq!(hot.table.len(), HOT_PLANS + HOT_SIMS);
        let service = dls_serve::ServerConfig::default();
        assert!(HOT_PLANS < service.cache_capacity && HOT_SIMS < service.sim_cache_capacity);
        assert!(hot.measured.iter().all(|&i| i < hot.table.len()));
    }

    #[test]
    fn bodies_decode_with_the_service_decoders() {
        let w = plan_cold(11, 300);
        for op in &w.table {
            let req = dls_serve::PlanRequest::from_json_str(&op.body).expect(&op.body);
            let declared: Vec<f64> = req.platform.workers().iter().map(|w| w.speed).collect();
            assert_eq!(declared, op.speeds);
            assert_eq!(req.w_total, op.w_total);
        }
        let w = simulate_cold(11, 300);
        for op in &w.table {
            let req = dls_serve::SimulateRequest::from_json_str(&op.body).expect(&op.body);
            assert_eq!(req.spec.reps, op.reps);
            assert_eq!(req.spec.config.faults.is_active(), op.faulty);
            assert_eq!(req.spec.config.speeds.is_active(), op.revealed_speeds);
        }
    }

    #[test]
    fn sweep_ops_cover_the_quick_grid_before_repeating_a_cell() {
        let ops = paper_sweep(5, 1584 - SWEEP_WARMUP);
        let mut cells: Vec<String> = ops
            .iter()
            .map(|o| format!("{:?}{}", o.point, o.error))
            .collect();
        cells.sort();
        cells.dedup();
        assert_eq!(cells.len(), 1584);
    }

    #[test]
    fn work_bound_matches_hand_computed_platforms() {
        // Ten unit-speed workers: 1000 / 10.
        assert_eq!(work_bound(1000.0, &[1.0; 10]), 100.0);
        // Speeds 0.5 + 1.5 + 2 = 4: 600 / 4.
        assert_eq!(work_bound(600.0, &[0.5, 1.5, 2.0]), 150.0);
        // One worker: W / S.
        assert_eq!(work_bound(7.5, &[2.5]), 3.0);
    }

    #[test]
    fn decimals_parse_back_exactly() {
        let mut rng = Rng::new(1);
        for _ in 0..1000 {
            let x = rng.decimal(0.0, 2.0, 3);
            assert_eq!(x.to_string().parse::<f64>().unwrap(), x);
        }
    }
}
