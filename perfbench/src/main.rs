//! The OSIRIS simulator benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rx_stream|pingpong|incast96 [--seed 42] [--seconds 10] [--trace 0|1]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --describe
//! ```
//!
//! Each run launches the workload's scenario through the public API
//! (`Scenario::launch`) and drives it with its own `EventQueue::pop` →
//! `Model::handle` loop, one simulation after another, until `--seconds`
//! of wall time are spent (at least one simulation). `--trace 0` prints
//! the end-to-end metrics; `--trace 1` spends half the time untraced and
//! half traced and prints the per-layer metrics. The last line of
//! standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, where `attempted`
//! counts simulations; tables for people go to standard error.
//!
//! Every simulation passes the correctness gate or the run exits 1:
//! no panic, no payload-verification failure, a balanced message ledger,
//! every repetition identical to the first, a traced run identical to
//! the untraced one, and distinct VCIs on a shared switch.

mod layers;
mod metrics;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use osiris::config::TestbedConfig;
use osiris::sim::Json;
use osiris::sim::{Model, SimTime, Simulation};
use osiris::Testbed;

use layers::Spans;
use workload::{GapProbe, Outcome, Workload};

/// Set-up is timed at least this many times per run (its median is
/// `setup_s`); simulations that fit the time budget count toward it.
const MIN_SETUP_SAMPLES: usize = 15;

/// Events per timed stretch of the run phase (see [`Untraced::stretches`]).
const STRETCH_EVENTS: u64 = 1 << 12;

/// A correctness failure the smoke test injects to prove the gate fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Inject {
    /// One payload-verification failure in the first simulation.
    Verify,
    /// One message more attempted than the senders sent.
    Ledger,
    /// A traced snapshot that differs from the untraced one.
    Trace,
    /// The VCI check run on an incast built past 100 senders.
    Vci,
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    budget: Duration,
    trace: bool,
    inject: Option<Inject>,
}

enum Command {
    Run(Args),
    Describe,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = metrics::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut inject = None;
    while let Some(flag) = it.next() {
        if flag == "--describe" {
            return Ok(Command::Describe);
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                seconds = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(bad("0 to 3600 seconds"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--inject" => {
                inject = Some(match value.as_str() {
                    "verify" => Inject::Verify,
                    "ledger" => Inject::Ledger,
                    "trace" => Inject::Trace,
                    "vci" => Inject::Vci,
                    _ => return Err(bad("verify, ledger, trace or vci")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required (rx_stream, pingpong, incast96)")?,
        seed,
        budget: Duration::from_secs_f64(seconds),
        trace,
        inject,
    }))
}

/// Median of a non-empty sample.
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A correctness failure, after `attempted` simulations.
struct Failure {
    attempted: u64,
    reason: String,
}

/// What the untraced simulations of one run measured.
struct Untraced {
    /// Wall seconds of every `Scenario::launch`.
    setups: Vec<f64>,
    /// The fastest wall seconds seen for each stretch of
    /// `STRETCH_EVENTS` events of the run phase, over every simulation.
    /// Simulations repeat exactly, so stretch `i` is the same work in
    /// each; other tenants of the shared host only ever slow a stretch
    /// down, in phases of seconds, so the fastest time of each stretch
    /// is the steadiest estimate of the simulator's own cost.
    stretches: Vec<f64>,
    /// Wall seconds of each whole simulation, launch to outcome.
    walls: Vec<f64>,
    /// The outcome every simulation reproduced.
    outcome: Outcome,
}

/// The workload's context for one run: config, the incast's host-model
/// paper check, and the injected failure if any.
struct Ctx {
    w: Workload,
    cfg: TestbedConfig,
    host_err: f64,
    inject: Option<Inject>,
}

impl Ctx {
    fn new(args: &Args) -> Ctx {
        let w = args.workload;
        Ctx {
            w,
            cfg: w.config(args.seed),
            host_err: if w == Workload::Incast96 {
                workload::table1_host_err_pct()
            } else {
                f64::NAN
            },
            inject: args.inject,
        }
    }

    /// Reads a finished simulation's outcome, applying any injected
    /// failure first.
    fn outcome(
        &self,
        sim: &mut Simulation<Testbed>,
        gaps: GapProbe,
        events: u64,
        end: SimTime,
    ) -> Result<Outcome, String> {
        let mut cfg = self.cfg.clone();
        match self.inject {
            Some(Inject::Verify) => sim.model.verify_failures += 1,
            Some(Inject::Ledger) => cfg.messages += 1,
            _ => {}
        }
        workload::outcome(self.w, &cfg, sim, gaps, events, end, self.host_err)
    }

    /// One untraced simulation: set-up seconds, the run phase's
    /// wall seconds per stretch, whole seconds, and the outcome.
    fn simulate(&self) -> Result<(f64, Vec<f64>, f64, Outcome), String> {
        let start = Instant::now();
        let mut sim = workload::launch(self.w, &self.cfg);
        let built = Instant::now();
        let mut gaps = GapProbe::new(self.w == Workload::RxStream);
        let mut now = SimTime::ZERO;
        let mut events = 0u64;
        let mut stretches = Vec::new();
        let mut mark = built;
        while workload::keep_going(&sim.model, now) {
            let Some((t, ev)) = sim.queue.pop() else {
                break;
            };
            if t < now {
                return Err(format!("causality violation: event at {t} after {now}"));
            }
            now = t;
            events += 1;
            sim.model.handle(t, ev, &mut sim.queue);
            gaps.after_event(&sim.model);
            if events.is_multiple_of(STRETCH_EVENTS) {
                let t = Instant::now();
                stretches.push(t.duration_since(mark).as_secs_f64());
                mark = t;
            }
        }
        stretches.push(mark.elapsed().as_secs_f64());
        let out = self.outcome(&mut sim, gaps, events, now)?;
        Ok((
            built.duration_since(start).as_secs_f64(),
            stretches,
            start.elapsed().as_secs_f64(),
            out,
        ))
    }

    /// Untraced simulations until `budget` is spent (at least one), then
    /// extra launches until set-up has `MIN_SETUP_SAMPLES` timings.
    fn untraced(&self, budget: Duration, attempted: &mut u64) -> Result<Untraced, Failure> {
        let fail = |attempted: u64, reason: String| Failure { attempted, reason };
        let check = workload::launch(self.w, &self.cfg);
        let vcis = match self.inject {
            Some(Inject::Vci) => workload::check_vcis(&workload::misbuilt_incast()),
            _ => workload::check_vcis(&check.model),
        };
        drop(check);
        vcis.map_err(|e| fail(*attempted, format!("VCI check: {e}")))?;
        let start = Instant::now();
        let (mut setups, mut walls) = (Vec::new(), Vec::new());
        let mut stretches: Vec<f64> = Vec::new();
        let mut first: Option<Outcome> = None;
        loop {
            *attempted += 1;
            let (setup, run, whole, out) = self.simulate().map_err(|e| fail(*attempted, e))?;
            setups.push(setup);
            walls.push(whole);
            if stretches.is_empty() {
                stretches = run;
            } else {
                for (best, t) in stretches.iter_mut().zip(run) {
                    *best = best.min(t);
                }
            }
            match &first {
                None => first = Some(out),
                Some(f) if *f != out => {
                    return Err(fail(
                        *attempted,
                        "a repeated simulation differs from the first".into(),
                    ))
                }
                Some(_) => {}
            }
            if start.elapsed() >= budget {
                break;
            }
        }
        while setups.len() < MIN_SETUP_SAMPLES {
            let t = Instant::now();
            let sim = workload::launch(self.w, &self.cfg);
            setups.push(t.elapsed().as_secs_f64());
            drop(sim);
        }
        Ok(Untraced {
            setups,
            stretches,
            walls,
            outcome: first.expect("at least one simulation ran"),
        })
    }

    /// Traced simulations until `budget` is spent (at least one), each
    /// compared against the untraced outcome `base`.
    fn traced(
        &self,
        budget: Duration,
        base: &Outcome,
        attempted: &mut u64,
    ) -> Result<(Spans, Vec<f64>), Failure> {
        let mut spans = Spans::default();
        let mut walls = Vec::new();
        let start = Instant::now();
        loop {
            *attempted += 1;
            let before = spans.wall_ns;
            let mut out = layers::traced_run(self.w, &self.cfg, &mut spans, self.host_err)
                .map_err(|reason| Failure {
                    attempted: *attempted,
                    reason,
                })?;
            walls.push((spans.wall_ns - before) as f64 * 1e-9);
            if self.inject == Some(Inject::Trace) {
                out.snapshot.counters.insert("perfbench.injected".into(), 1);
            }
            if out != *base {
                return Err(Failure {
                    attempted: *attempted,
                    reason: "the traced simulation differs from the untraced one".into(),
                });
            }
            if start.elapsed() >= budget {
                break;
            }
        }
        Ok((spans, walls))
    }
}

/// The process's peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// A finished run: metric values in catalogue order.
struct Report {
    attempted: u64,
    metrics: Vec<(String, f64)>,
    ledger: String,
}

fn run(args: &Args) -> Result<Report, Failure> {
    let ctx = Ctx::new(args);
    let mut attempted = 0;
    let ledger = |o: &Outcome| {
        let failed = o.attempted - o.delivered;
        format!(
            "messages: {} attempted, {} delivered intact, {} failed (failed_frac {}); \
             {} per-message samples",
            o.attempted,
            o.delivered,
            failed,
            failed as f64 / o.attempted as f64,
            o.sim.msg_samples
        )
    };
    if !args.trace {
        let u = ctx.untraced(args.budget, &mut attempted)?;
        let rss = peak_rss_mb().map_err(|reason| Failure { attempted, reason })?;
        let s = &u.outcome.sim;
        return Ok(Report {
            attempted,
            ledger: ledger(&u.outcome),
            metrics: vec![
                ("setup_s".into(), median(&u.setups)),
                (
                    "cells_per_s".into(),
                    u.outcome.cells as f64 / u.stretches.iter().sum::<f64>(),
                ),
                ("peak_rss_mb".into(), rss),
                ("sim_goodput_mbps".into(), s.goodput_mbps),
                ("sim_msg_p50_us".into(), s.msg_p50_us),
                ("sim_msg_p99_us".into(), s.msg_p99_us),
                ("delivered_frac".into(), s.delivered_frac),
                ("paper_err_pct".into(), s.paper_err_pct),
            ],
        });
    }
    let half = args.budget / 2;
    let u = ctx.untraced(half, &mut attempted)?;
    let (spans, traced_walls) = ctx.traced(half, &u.outcome, &mut attempted)?;
    // Fastest against fastest, for the reason `Untraced::stretches` gives.
    let fastest = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let overhead = fastest(&traced_walls) / fastest(&u.walls) - 1.0;
    let pending = (spans.pending_sum as f64 / spans.pops.max(1) as f64).round() as usize;
    let kernels = layers::kernels(pending, ctx.cfg.sim.queue);
    let clock = layers::clock_ns();
    Ok(Report {
        attempted,
        ledger: ledger(&u.outcome),
        metrics: layers::per_layer(&spans, &u.outcome, &kernels, overhead, clock),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Command::Run(a)) => a,
        Ok(Command::Describe) => {
            println!("{}", metrics::describe().render_pretty());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let catalogue = if args.trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    let result = std::panic::catch_unwind(|| run(&args)).unwrap_or_else(|_| {
        Err(Failure {
            attempted: 1,
            reason: "a simulation panicked".into(),
        })
    });
    let line = Json::obj().with("correct", result.is_ok());
    match result {
        Ok(report) => {
            let names: Vec<&str> = report.metrics.iter().map(|(n, _)| n.as_str()).collect();
            let expected: Vec<&str> = catalogue.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(names, expected, "the run must emit exactly the catalogue");
            if let Some((name, _)) = report.metrics.iter().find(|(_, v)| !v.is_finite()) {
                eprintln!("perfbench: {name} is not a finite number");
                return ExitCode::FAILURE;
            }
            eprintln!(
                "{} seed {}: {}",
                args.workload.name(),
                args.seed,
                report.ledger
            );
            let mut metrics = Json::obj();
            for (m, (_, v)) in catalogue.iter().zip(&report.metrics) {
                eprintln!("  {:<36} {:>20.6} {:<8} {}", m.name, v, m.unit, m.layer);
                metrics = metrics.with(&m.name, Json::obj().with("value", *v).with("unit", m.unit));
            }
            let line = line
                .with("attempted", report.attempted)
                .with("failed", 0u64)
                .with("metrics", metrics);
            println!("{}", line.render_compact());
            ExitCode::SUCCESS
        }
        Err(f) => {
            eprintln!("perfbench: correctness gate failed: {}", f.reason);
            let line = line
                .with("attempted", f.attempted.max(1))
                .with("failed", 1u64)
                .with("metrics", Json::obj());
            println!("{}", line.render_compact());
            ExitCode::FAILURE
        }
    }
}
