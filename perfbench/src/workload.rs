//! The three workloads, their configurations, and the deterministic
//! outcome of one simulation: every `sim_*` value, the message ledger and
//! the registry snapshot the correctness gate compares.

use osiris::atm::sar::ReassemblyMode;
use osiris::atm::Cell;
use osiris::board::dma::DmaMode;
use osiris::config::{TestbedConfig, TouchMode};
use osiris::proto::graph::PathId;
use osiris::proto::stack::{CcScheme, TransportMode};
use osiris::sim::obs::Snapshot;
use osiris::sim::stats::{DurationHistogram, ThroughputMeter};
use osiris::sim::{SimDuration, SimTime, Simulation};
use osiris::{Scenario, Testbed};

/// The virtual-time wall every library experiment runner stops at.
pub const DEADLINE: SimTime = SimTime::from_secs(30);

/// Figure 3, DEC 3000/600 double-cell DMA with UDP checksumming (Mbps).
const PAPER_FIG3_DOUBLE_CS_MBPS: f64 = 438.0;
/// Table 1, DS 5000/200 UDP/IP, 1024-byte messages (mean round trip, µs).
const PAPER_TABLE1_UDP_1K_US: f64 = 659.0;

/// Senders in the incast workload (past the 80–88-sender cliff, below
/// the 100-sender point where forward and ack VCIs overlap).
pub const INCAST_SENDERS: usize = 96;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 3's "double + UDP-CS" receive stream on the DEC 3000/600.
    RxStream,
    /// Table 1's DS 5000/200 UDP/IP 1 KB round trips.
    PingPong,
    /// 96-to-1 reliable incast through the bounded, ECN-marking switch.
    Incast96,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::RxStream, Workload::PingPong, Workload::Incast96];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RxStream => "rx_stream",
            Workload::PingPong => "pingpong",
            Workload::Incast96 => "incast96",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scenario the workload launches.
    pub fn scenario(self) -> Scenario {
        match self {
            Workload::RxStream => Scenario::RxBench,
            Workload::PingPong => Scenario::Pair,
            Workload::Incast96 => Scenario::Incast {
                senders: INCAST_SENDERS,
            },
        }
    }

    /// The workload's configuration; `seed` is the only input that varies.
    pub fn config(self, seed: u64) -> TestbedConfig {
        let mut cfg = match self {
            Workload::RxStream => {
                let mut c = TestbedConfig::dec3000_600_udp();
                c.msg_size = 256 * 1024;
                c.messages = 64;
                c.warmup = 2;
                c.rx_dma = DmaMode::DoubleCell;
                c.udp_checksum = true;
                c
            }
            Workload::PingPong => pingpong_config(),
            Workload::Incast96 => {
                // The congestion-control matrix's `sr+ecn` cell, loss-free.
                let mut c = TestbedConfig::ds5000_200_udp();
                c.msg_size = 1024;
                c.messages = 16;
                c.warmup = 0;
                c.window = 8;
                c.reliable = true;
                c.transport = TransportMode::SelectiveRepeat;
                c.cc = CcScheme::Ecn;
                c.reassembly = ReassemblyMode::FourWay { lanes: 4 };
                c.reassembly_timeout = Some(SimDuration::from_us(1000));
                c.sim.faults.switch_max_queue_cells = Some(512);
                c.ecn_threshold_cells = Some(128);
                c
            }
        };
        cfg.seed = seed;
        cfg
    }

    /// Messages the workload's senders attempt.
    pub fn attempted(self, cfg: &TestbedConfig) -> u64 {
        match self {
            Workload::RxStream | Workload::PingPong => cfg.messages,
            Workload::Incast96 => INCAST_SENDERS as u64 * cfg.messages,
        }
    }
}

/// Table 1's measurement point: 1000 round trips so the p99 has ten
/// samples above it.
fn pingpong_config() -> TestbedConfig {
    let mut c = TestbedConfig::ds5000_200_udp();
    c.msg_size = 1024;
    c.messages = 1000;
    c.touch = TouchMode::WritePerMessage;
    c
}

/// Builds the workload's simulation the way the library's experiment
/// runners do: `Scenario::launch`, then a fresh throughput meter.
pub fn launch(w: Workload, cfg: &TestbedConfig) -> Simulation<Testbed> {
    let mut sim = w.scenario().launch(cfg.clone());
    sim.model.meter = ThroughputMeter::new(cfg.warmup);
    sim
}

/// Whether the run loop dispatches another event: the experiment
/// runners' rule (stop once done, or once virtual time passed the
/// deadline).
pub fn keep_going(tb: &Testbed, now: SimTime) -> bool {
    !tb.done && now <= DEADLINE
}

/// Per-message service gaps of the receive stream, read off the
/// throughput meter from outside: each event that completes a counted
/// delivery moves the meter's window end by exactly the gap since the
/// previous delivery.
#[derive(Debug, Default)]
pub struct GapProbe {
    deliveries: u64,
    window: SimDuration,
    hist: Option<DurationHistogram>,
}

impl GapProbe {
    /// A probe that records gaps only when `on` (the receive stream; the
    /// other workloads' testbeds keep their own latency histogram).
    pub fn new(on: bool) -> GapProbe {
        GapProbe {
            hist: on.then(DurationHistogram::new),
            ..GapProbe::default()
        }
    }

    /// Call after every dispatched event.
    #[inline]
    pub fn after_event(&mut self, tb: &Testbed) {
        if let Some(h) = &mut self.hist {
            let d = tb.meter.deliveries();
            if d != self.deliveries {
                let w = tb.meter.window();
                h.record(SimDuration::from_ps(w.as_ps() - self.window.as_ps()));
                self.deliveries = d;
                self.window = w;
            }
        }
    }
}

/// The simulated adaptor's results (virtual time; deterministic for a
/// given seed).
#[derive(Debug, Clone, PartialEq)]
pub struct SimResults {
    /// Application goodput in Mbps.
    pub goodput_mbps: f64,
    /// Median per-message virtual time in µs (round trip, or gap).
    pub msg_p50_us: f64,
    /// 99th-percentile per-message virtual time in µs.
    pub msg_p99_us: f64,
    /// Samples behind the two percentiles.
    pub msg_samples: u64,
    /// Messages delivered intact ÷ messages attempted.
    pub delivered_frac: f64,
    /// |sim − paper| ÷ paper, in percent.
    pub paper_err_pct: f64,
}

/// Everything one simulation produced that must repeat exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The registry read-out after the run.
    pub snapshot: Snapshot,
    /// The `sim_*` metrics.
    pub sim: SimResults,
    /// Messages the senders attempted.
    pub attempted: u64,
    /// Messages delivered intact at the receivers.
    pub delivered: u64,
    /// Events dispatched.
    pub events: u64,
    /// Cells received by every board (Σ `*.board.rx.cells`).
    pub cells: u64,
    /// Virtual time of the last dispatched event.
    pub end: SimTime,
}

/// Sum of a per-node counter over every node.
pub fn node_sum(snap: &Snapshot, suffix: &str) -> u64 {
    snap.counters_with_suffix(suffix)
        .filter(|(k, _)| k.starts_with("node"))
        .map(|(_, v)| v)
        .sum()
}

/// Reads the outcome of a finished simulation; `host_err_pct` is the
/// incast's paper error ([`table1_host_err_pct`]). Fails when the
/// payload verifier saw corruption or the message ledger does not
/// balance.
pub fn outcome(
    w: Workload,
    cfg: &TestbedConfig,
    sim: &Simulation<Testbed>,
    gaps: GapProbe,
    events: u64,
    end: SimTime,
    host_err_pct: f64,
) -> Result<Outcome, String> {
    let tb = &sim.model;
    let snap = tb.snapshot();
    if tb.verify_failures > 0 {
        return Err(format!(
            "{} payload verification failures",
            tb.verify_failures
        ));
    }
    let attempted = w.attempted(cfg);
    let (delivered, goodput_mbps, hist) = match w {
        Workload::RxStream => (
            snap.counter("node0.stack.delivered"),
            tb.meter.mbps(),
            gaps.hist.expect("the receive stream records gaps"),
        ),
        Workload::PingPong => {
            let trips = tb.latency.count();
            let window_us = end.saturating_since(SimTime::ZERO).as_us_f64();
            let bits = 2.0 * 8.0 * cfg.msg_size as f64 * trips as f64;
            (trips, bits / window_us, tb.latency_hist.clone())
        }
        Workload::Incast96 => {
            let elapsed = if tb.done {
                tb.meter.window()
            } else {
                DEADLINE.saturating_since(SimTime::ZERO)
            };
            (
                snap.counter(&format!("node{INCAST_SENDERS}.stack.delivered")),
                elapsed.mbps_for_bytes(tb.meter.bytes()),
                tb.latency_hist.clone(),
            )
        }
    };
    // The ledger: attempted (sender side) = delivered (receiver side) +
    // failed, with failed ≥ 0, and a run that reports completion has
    // failed nothing.
    if delivered > attempted {
        return Err(format!(
            "ledger: {delivered} delivered exceeds {attempted} attempted"
        ));
    }
    if tb.done && delivered != attempted {
        return Err(format!(
            "ledger: run completed with {delivered} of {attempted} delivered"
        ));
    }
    let paper_err_pct = match w {
        Workload::RxStream => err_pct(goodput_mbps, PAPER_FIG3_DOUBLE_CS_MBPS),
        Workload::PingPong => err_pct(tb.latency.mean_us(), PAPER_TABLE1_UDP_1K_US),
        Workload::Incast96 => host_err_pct,
    };
    Ok(Outcome {
        sim: SimResults {
            goodput_mbps,
            msg_p50_us: hist.percentile_us(0.50),
            msg_p99_us: hist.percentile_us(0.99),
            msg_samples: hist.count(),
            delivered_frac: delivered as f64 / attempted as f64,
            paper_err_pct,
        },
        cells: node_sum(&snap, "board.rx.cells"),
        snapshot: snap,
        attempted,
        delivered,
        events,
        end,
    })
}

fn err_pct(sim: f64, paper: f64) -> f64 {
    (sim - paper).abs() / paper * 100.0
}

/// Table 1's check of the DS 5000/200 UDP/IP host model that every
/// incast node runs (the incast itself has no paper reference): the
/// pingpong workload's round trip, through the library's Table 1
/// runner, against the paper's 659 µs.
pub fn table1_host_err_pct() -> f64 {
    let rtt = osiris::experiments::round_trip_latency(&pingpong_config());
    err_pct(rtt.mean_us(), PAPER_TABLE1_UDP_1K_US)
}

/// Checks, from outside, that a built testbed's connections do not
/// share VCIs: on a switched fabric (one VCI space for every node) no
/// VCI may be bound for receive by two nodes, and each bound VCI must
/// route to the node that binds it. Back-to-back links give each
/// direction its own VCI space, so only per-node uniqueness applies.
pub fn check_vcis(tb: &Testbed) -> Result<(), String> {
    let switched = tb.fabric.is_switched();
    let mut owner: std::collections::BTreeMap<u16, usize> = Default::default();
    for node in &tb.nodes {
        let mut mine = std::collections::BTreeSet::new();
        // Every live path, whatever ids the table handed out.
        let paths = (0..).filter_map(|id| node.paths.get(PathId(id)));
        for path in paths.take(node.paths.len()) {
            let v = path.vci;
            if !mine.insert(v.0) {
                return Err(format!("node{} binds VCI {} twice", node.id.0, v.0));
            }
            if !switched {
                continue;
            }
            if let Some(prev) = owner.insert(v.0, node.id.0) {
                return Err(format!(
                    "VCI {} is bound by node{prev} and node{}",
                    v.0, node.id.0
                ));
            }
            let probe = Cell::data(v, 0, &[0]);
            let to = tb.fabric.peek_dest(node.id, &probe);
            if to != Some(node.id) {
                return Err(format!(
                    "VCI {} bound by node{} routes to {to:?}",
                    v.0, node.id.0
                ));
            }
        }
    }
    Ok(())
}

/// A deliberately mis-built scenario for the gate's own test: past 100
/// senders the incast's forward VCIs (100+s) run into its ack VCIs
/// (200+s).
pub fn misbuilt_incast() -> Testbed {
    Scenario::Incast { senders: 101 }.build(Workload::Incast96.config(42))
}
