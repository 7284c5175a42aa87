//! The closed loop, the program's processes, and the report every
//! workload fills in.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Closed-loop callers of the HTTP workloads: `nproc` on the 2-vCPU
/// machine the bounds were set on. Each waits for its answer before
/// sending the next request, over one keep-alive connection.
pub const HTTP_CALLERS: usize = 2;
/// Closed-loop callers of `paper-sweep`: one, so the untraced and the
/// traced per-call times compare like with like.
pub const SWEEP_CALLERS: usize = 1;
/// Program start-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// The `q` quantile (in `[0, 1]`) of non-empty `samples`.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    dls_numerics::stats::quantile(samples, q).expect("quantile of no samples")
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// One completed call of the closed loop.
pub struct Sample<R> {
    /// Position in the workload's operation order.
    pub pos: usize,
    /// Caller-side latency.
    pub ns: u64,
    pub out: R,
}

pub struct LoopRun<R> {
    /// Samples in operation order.
    pub samples: Vec<Sample<R>>,
    pub elapsed_s: f64,
    /// Every operation was used before the time was up.
    pub exhausted: bool,
}

/// Run `n` operations with `callers` threads, each sending its next
/// operation only after its previous one returned, until the operations
/// or `limit` run out. `call` times its own operation (so it can digest
/// the answer outside the timed part) and returns `(latency_ns, digest)`.
pub fn closed_loop<S, R, I, F>(
    callers: usize,
    n: usize,
    limit: Option<Duration>,
    init: I,
    call: F,
) -> LoopRun<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> (u64, R) + Sync,
{
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let per_caller: Vec<Vec<Sample<R>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..callers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut samples = Vec::new();
                    while limit.is_none_or(|l| start.elapsed() < l) {
                        let pos = next.fetch_add(1, Ordering::Relaxed);
                        if pos >= n {
                            break;
                        }
                        let (ns, out) = call(&mut state, pos);
                        samples.push(Sample { pos, ns, out });
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let mut samples: Vec<Sample<R>> = per_caller.into_iter().flatten().collect();
    samples.sort_by_key(|s| s.pos);
    let exhausted = samples.len() >= n;
    LoopRun {
        samples,
        elapsed_s,
        exhausted,
    }
}

/// Split `items` over `nproc` threads and gather every check failure.
pub fn par_check<T: Sync>(items: &[T], check: impl Fn(&T) -> Vec<String> + Sync) -> Vec<String> {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4);
    let chunk = items.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| scope.spawn(|| part.iter().flat_map(&check).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("check thread panicked"))
            .collect()
    })
}

/// A running `dls-serve`, killed and reaped when dropped.
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
    _stdout: BufReader<ChildStdout>,
}

impl ServerProc {
    /// Start the release binary with its shipped defaults on an ephemeral
    /// port, and wait until it listens.
    pub fn start(bin: &Path) -> Result<ServerProc, String> {
        let mut child = Command::new(bin)
            .args(["--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .rsplit_once("http://")
            .and_then(|(_, a)| a.parse().ok());
        let proc_ = ServerProc {
            child,
            addr: addr.unwrap_or_else(|| ([127, 0, 0, 1], 0).into()),
            _stdout: stdout,
        };
        match (read, addr) {
            (Ok(_), Some(_)) => Ok(proc_),
            _ => Err(format!(
                "dls-serve did not report its address (got {line:?})"
            )),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// What one run of a workload found.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; any makes the run incorrect.
    pub failures: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failures.push(msg.into());
    }

    /// Fail with `what` unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}
