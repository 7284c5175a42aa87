//! `paper-sweep`: `run_sweep` on one Table 1 cell per call, in a sweep
//! process of its own (this binary started with `--sweep-child`), so its
//! CPU time and peak memory are measured like the service's.
//!
//! Parent → child, on stdin: `warm N` and `measure M`, each followed by
//! one `n ratio clat nlat error root_seed` line per cell, later `go S C`
//! (measure for S seconds with C callers). Child → parent, on stdout:
//! `w pos means…` per warm-up cell, `ready`, then `m pos ns means…` per
//! measured cell and `done elapsed_s exhausted`. Means travel as the hex
//! bits of each f64, so they compare bit for bit.

use std::io::{BufRead, BufReader, BufWriter, Lines, StdinLock, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use dls_experiments::grid::{GridPoint, Table1Grid};
use dls_experiments::sweep::{paper_competitors, run_sweep, SweepConfig};
use rumr::{HomogeneousParams, Prediction, SchedulerKind};

use crate::driver::{closed_loop, quantile, Report, SETUPS, SWEEP_CALLERS};
use crate::gen::{self, SweepOp, SWEEP_WARMUP};
use crate::replay::{sweep_cell, Tracer, SWEEP_REPS};
use crate::{layers, Run};

/// Cells generated per second of measurement: about three times what one
/// caller completes here. A faster sweep that uses them all up ends the
/// measured phase early; rates are taken over the time it took.
const CELLS_PER_S_CAPACITY: usize = 600;
/// Measured cells the traced run replays.
const REPLAY_CAP: usize = 240;

/// The operation: a one-cell, one-thread, makespan-only paper sweep.
pub fn sweep_call(op: &SweepOp) -> Vec<f64> {
    let config = SweepConfig {
        grid: Table1Grid::single(op.point),
        errors: vec![op.error],
        reps: SWEEP_REPS,
        root_seed: op.root_seed,
        threads: 1,
        ..SweepConfig::quick()
    };
    let mut result = run_sweep(&config, &paper_competitors());
    result.cells.swap_remove(0).means
}

fn bits(means: &[f64]) -> String {
    means
        .iter()
        .map(|m| format!("{:016x}", m.to_bits()))
        .collect::<Vec<_>>()
        .join(" ")
}

fn unbits(words: &[&str]) -> Result<Vec<f64>, String> {
    words
        .iter()
        .map(|w| {
            u64::from_str_radix(w, 16)
                .map(f64::from_bits)
                .map_err(|e| format!("bad mean {w:?}: {e}"))
        })
        .collect()
}

fn op_line(op: &SweepOp) -> String {
    let p = op.point;
    format!(
        "{} {} {} {} {} {}\n",
        p.n, p.ratio, p.comp_latency, p.net_latency, op.error, op.root_seed
    )
}

fn parse_op(line: &str) -> Result<SweepOp, String> {
    let w: Vec<&str> = line.split_whitespace().collect();
    let bad = || format!("bad cell line {line:?}");
    if w.len() != 6 {
        return Err(bad());
    }
    let f = |i: usize| w[i].parse::<f64>().map_err(|_| bad());
    Ok(SweepOp {
        point: GridPoint {
            n: w[0].parse().map_err(|_| bad())?,
            ratio: f(1)?,
            comp_latency: f(2)?,
            net_latency: f(3)?,
        },
        error: f(4)?,
        root_seed: w[5].parse().map_err(|_| bad())?,
    })
}

fn read_section(lines: &mut Lines<StdinLock<'_>>, tag: &str) -> Result<Vec<SweepOp>, String> {
    let head = lines
        .next()
        .ok_or("stdin closed")?
        .map_err(|e| e.to_string())?;
    let count: usize = head
        .strip_prefix(tag)
        .and_then(|n| n.trim().parse().ok())
        .ok_or(format!("expected `{tag} N`, got {head:?}"))?;
    (0..count)
        .map(|_| {
            parse_op(
                &lines
                    .next()
                    .ok_or("stdin closed")?
                    .map_err(|e| e.to_string())?,
            )
        })
        .collect()
}

/// The sweep process.
pub fn child_main() -> Result<(), String> {
    let mut lines = std::io::stdin().lock().lines();
    let warm = read_section(&mut lines, "warm")?;
    let measured = read_section(&mut lines, "measure")?;
    let mut out = BufWriter::new(std::io::stdout().lock());
    let io = |e: std::io::Error| e.to_string();
    for (pos, op) in warm.iter().enumerate() {
        writeln!(out, "w {pos} {}", bits(&sweep_call(op))).map_err(io)?;
    }
    writeln!(out, "ready").map_err(io)?;
    out.flush().map_err(io)?;
    let Some(go) = lines.next() else {
        return Ok(());
    };
    let go = go.map_err(io)?;
    let mut words = go.split_whitespace().skip(1).map(str::parse::<u64>);
    let (Some(Ok(seconds)), Some(Ok(callers))) = (words.next(), words.next()) else {
        return Err(format!("expected `go S C`, got {go:?}"));
    };
    let run = closed_loop(
        callers as usize,
        measured.len(),
        Some(Duration::from_secs(seconds)),
        || (),
        |_, pos| {
            let start = Instant::now();
            let means = sweep_call(&measured[pos]);
            (start.elapsed().as_nanos() as u64, means)
        },
    );
    for s in &run.samples {
        writeln!(out, "m {} {} {}", s.pos, s.ns, bits(&s.out)).map_err(io)?;
    }
    writeln!(out, "done {} {}", run.elapsed_s, run.exhausted).map_err(io)?;
    out.flush().map_err(io)?;
    // Stay alive until the parent has read this process's counters.
    for line in lines {
        line.map_err(io)?;
    }
    Ok(())
}

/// A started sweep process; killed and reaped when dropped.
struct SweepProc {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: Lines<BufReader<ChildStdout>>,
}

impl SweepProc {
    fn start(warm: &[SweepOp], measured: &[SweepOp]) -> Result<SweepProc, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        // One malloc arena: the sweep starts a worker thread per call, and
        // glibc's per-thread arenas otherwise move this process's peak RSS
        // by ~15 % between runs of one seed.
        let mut child = Command::new(exe)
            .arg("--sweep-child")
            .env("MALLOC_ARENA_MAX", "1")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start the sweep process: {e}"))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped")).lines();
        let mut sweep = SweepProc {
            stdin: child.stdin.take(),
            child,
            stdout,
        };
        let mut input = String::new();
        input.push_str(&format!("warm {}\n", warm.len()));
        warm.iter().for_each(|op| input.push_str(&op_line(op)));
        input.push_str(&format!("measure {}\n", measured.len()));
        measured.iter().for_each(|op| input.push_str(&op_line(op)));
        sweep.send(&input)?;
        Ok(sweep)
    }

    fn send(&mut self, text: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("sweep process input closed")?;
        stdin
            .write_all(text.as_bytes())
            .and_then(|_| stdin.flush())
            .map_err(|e| format!("sweep process input: {e}"))
    }

    fn line(&mut self) -> Result<String, String> {
        self.stdout
            .next()
            .ok_or("sweep process exited early")?
            .map_err(|e| e.to_string())
    }

    /// Lines up to (not including) the first that starts with `end`,
    /// which is returned separately.
    fn until(&mut self, end: &str) -> Result<(Vec<String>, String), String> {
        let mut lines = Vec::new();
        loop {
            let line = self.line()?;
            if line.starts_with(end) {
                return Ok((lines, line));
            }
            lines.push(line);
        }
    }

    fn finish(mut self) -> Result<(), String> {
        self.stdin = None;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        status
            .success()
            .then_some(())
            .ok_or(format!("sweep process exited with {status}"))
    }
}

impl Drop for SweepProc {
    fn drop(&mut self) {
        self.stdin = None;
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `w pos means…` / `m pos ns means…` lines → (pos, ns, means).
fn parse_results(lines: &[String], tag: &str) -> Result<Vec<(usize, u64, Vec<f64>)>, String> {
    lines
        .iter()
        .map(|l| {
            let w: Vec<&str> = l.split_whitespace().collect();
            let bad = || format!("bad result line {l:?}");
            match (tag, w.as_slice()) {
                ("w", ["w", pos, means @ ..]) => {
                    Ok((pos.parse().map_err(|_| bad())?, 0, unbits(means)?))
                }
                ("m", ["m", pos, ns, means @ ..]) => Ok((
                    pos.parse().map_err(|_| bad())?,
                    ns.parse().map_err(|_| bad())?,
                    unbits(means)?,
                )),
                _ => Err(bad()),
            }
        })
        .collect()
}

pub fn run(run: &Run) -> Result<Report, String> {
    let mut report = Report::default();
    let ops = gen::paper_sweep(run.seed, CELLS_PER_S_CAPACITY * run.seconds as usize);
    let (warm, measured) = ops.split_at(SWEEP_WARMUP);

    let mut setups = Vec::with_capacity(SETUPS);
    let mut warm_results: Vec<Vec<(usize, u64, Vec<f64>)>> = Vec::new();
    let mut sweep = loop {
        let start = Instant::now();
        let mut p = SweepProc::start(warm, measured)?;
        let (lines, _) = p.until("ready")?;
        setups.push(start.elapsed().as_secs_f64());
        warm_results.push(parse_results(&lines, "w")?);
        if setups.len() == SETUPS {
            break p;
        }
        p.finish()?;
    };
    let last_warm = warm_results.last().expect("at least one set-up");
    for other in &warm_results[..SETUPS - 1] {
        report.expect(other == last_warm, || {
            "warm-up cell means differ between two starts of the sweep process".into()
        });
    }

    let pid = sweep.child.id();
    let cpu_before = crate::procfs::cpu_seconds(pid)?;
    sweep.send(&format!("go {} {}\n", run.seconds, SWEEP_CALLERS))?;
    let (lines, done) = sweep.until("done")?;
    let cpu_s = crate::procfs::cpu_seconds(pid)? - cpu_before;
    let rss_mb = crate::procfs::peak_rss_mb(pid)?;
    sweep.finish()?;
    let samples = parse_results(&lines, "m")?;
    let mut done_words = done.split_whitespace().skip(1);
    let elapsed_s: f64 = done_words
        .next()
        .and_then(|w| w.parse().ok())
        .ok_or(format!("bad line {done:?}"))?;
    if done_words.next() == Some("true") {
        report.notes.push(format!(
            "every generated cell was used, after {elapsed_s:.3} s"
        ));
    }

    report.attempted = samples.len() as u64;
    report.expect(!samples.is_empty(), || "no cell completed".into());
    if samples.is_empty() {
        return Ok(report);
    }
    let latencies_ms: Vec<f64> = samples.iter().map(|s| s.1 as f64 / 1e6).collect();
    report.metric("ops_per_s", samples.len() as f64 / elapsed_s, "1/s");
    report.metric("p50_ms", quantile(&latencies_ms, 0.5), "ms");
    report.metric("cpu_ms_per_op", cpu_s * 1000.0 / samples.len() as f64, "ms");
    report.metric("setup_s", quantile(&setups, 0.5), "s");
    report.metric("peak_rss_mb", rss_mb, "MB");
    report.notes.push(format!(
        "{SWEEP_CALLERS} caller, {} cells (client.p99_ms samples) in {elapsed_s:.3} s; set-ups {setups:?} s",
        samples.len()
    ));

    let cells: Vec<(&SweepOp, &Vec<f64>)> = last_warm
        .iter()
        .map(|(pos, _, means)| (&warm[*pos], means))
        .chain(
            samples
                .iter()
                .map(|(pos, _, means)| (&measured[*pos], means)),
        )
        .collect();
    check_cells(&cells, &mut report);

    if run.trace {
        // Each cell runs three ways in this process, in rotating order:
        // `run_sweep` itself, the replay untraced and the replay traced.
        // The first against the traced replay's layers gives the sweep's
        // own overhead; the last two give the cost of tracing.
        let count = REPLAY_CAP.min(samples.len());
        let mut tracer = Tracer::new(true);
        let (mut stale, mut sweep_ns, mut plain_ns) = (0, 0.0, 0.0);
        for (i, (pos, _, means)) in samples[..count].iter().enumerate() {
            let op = &measured[*pos];
            for way in (0..3).map(|k| (i + k) % 3) {
                let start = Instant::now();
                let replayed = match way {
                    0 => {
                        sweep_call(op);
                        sweep_ns += start.elapsed().as_nanos() as f64;
                        continue;
                    }
                    1 => {
                        sweep_cell(op, &mut Tracer::new(false));
                        plain_ns += start.elapsed().as_nanos() as f64;
                        continue;
                    }
                    _ => {
                        tracer.begin_op(*pos as u32, "op.cell");
                        let replayed = sweep_cell(op, &mut tracer);
                        tracer.end_op();
                        replayed
                    }
                };
                stale += usize::from(
                    replayed
                        .iter()
                        .map(|m| m.to_bits())
                        .ne(means.iter().map(|m| m.to_bits())),
                );
            }
        }
        report.expect(stale == 0, || {
            format!("stale replay: {stale} replayed cells differ bit for bit from run_sweep's")
        });
        let (sweep_ns, plain_ns) = (sweep_ns / count as f64, plain_ns / count as f64);
        let traced_ns = layers::root_mean_ns(&tracer.spans);
        report.metrics.clear();
        report.metric("client.p99_ms", quantile(&latencies_ms, 0.99), "ms");
        for name in [
            "server.ms_per_req",
            "server.outside_ms_per_req",
            "server.residual_ms_per_req",
        ] {
            report.metric(name, 0.0, "ms");
        }
        for name in [
            "server.shard_max_share",
            "cache.plan_hit_ratio",
            "cache.sim_hit_ratio",
        ] {
            report.metric(name, 0.0, "ratio");
        }
        report.metric("cache.evictions_per_req", 0.0, "count");
        report.metric("fastpath.analytic_ratio", 0.0, "ratio");
        layers::layer_metrics(&tracer, &mut report);
        let layer_ns = layers::planner_engine_ns(&tracer.spans) / count as f64;
        report.metric(
            "sweep.overhead_us_per_cell",
            (sweep_ns - layer_ns) / 1000.0,
            "us",
        );
        report.metric(
            "trace.overhead_pct",
            (traced_ns - plain_ns) / plain_ns * 100.0,
            "%",
        );
        report.notes.push(format!(
            "replayed {count} measured cells, {} spans",
            tracer.spans.len()
        ));
        layers::write_spans(run, &tracer.spans)?;
    }
    Ok(report)
}

/// Properties the paper's method must have: error-free cell means at or
/// above W/(N·S), error-free UMR on its closed form, and RUMR ahead of
/// the other competitors in most (cell, competitor) pairs.
fn check_cells(cells: &[(&SweepOp, &Vec<f64>)], report: &mut Report) {
    let competitors = paper_competitors();
    let umr = competitors
        .iter()
        .position(|c| c.kind_for(0.0) == SchedulerKind::Umr)
        .expect("UMR is a paper competitor");
    let (mut wins, mut pairs) = (0usize, 0usize);
    for (op, means) in cells {
        let p = op.point;
        if means.len() != competitors.len() {
            report.fail(format!("cell {p:?} has {} means", means.len()));
            continue;
        }
        wins += means[1..].iter().filter(|&&m| means[0] < m).count();
        pairs += means.len() - 1;
        if op.error != 0.0 {
            continue;
        }
        let floor = 1000.0 / p.n as f64;
        for (c, &m) in means.iter().enumerate() {
            report.expect(m >= floor * (1.0 - 1e-12), || {
                format!(
                    "cell {p:?}: {} mean {m} below W/(N·S) = {floor}",
                    competitors[c].label()
                )
            });
        }
        let platform = HomogeneousParams::table1(p.n, p.ratio, p.comp_latency, p.net_latency)
            .build()
            .expect("grid point is valid");
        match SchedulerKind::Umr
            .oracle(&platform, 1000.0)
            .map(|o| o.map(|o| o.makespan()))
        {
            Ok(Some(Prediction::Exact { makespan, .. })) => {
                let rel = (means[umr] - makespan).abs() / makespan;
                report.expect(rel <= 1e-6, || {
                    format!(
                        "cell {p:?}: UMR mean {} vs closed form {makespan}",
                        means[umr]
                    )
                });
            }
            other => report.fail(format!("cell {p:?}: no exact UMR closed form ({other:?})")),
        }
    }
    let share = wins as f64 / pairs.max(1) as f64;
    report.notes.push(format!(
        "RUMR beats the other competitor in {wins} of {pairs} (cell, competitor) pairs ({:.1} %)",
        share * 100.0
    ));
    report.expect(2 * wins > pairs, || {
        format!("RUMR wins only {wins} of {pairs} (cell, competitor) pairs")
    });
}
