//! Golden determinism pins for the per-cell data-path kernels (CRC-32,
//! segmentation, receive DMA planning, per-cell maps, the Internet
//! checksum). Each run's counts were captured before those kernels were
//! rewritten for speed; a kernel change that moves what is simulated
//! moves at least one of them. A change the sender and receiver share
//! (the same wrong CRC or checksum on both ends) is invisible here and
//! is caught by the kernels' oracle unit tests instead.

use osiris::atm::sar::ReassemblyMode;
use osiris::board::dma::DmaMode;
use osiris::config::{TestbedConfig, TouchMode};
use osiris::sim::stats::ThroughputMeter;
use osiris::sim::SimTime;
use osiris::Scenario;

/// What one small run must reproduce exactly.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    events: u64,
    end_ps: u64,
    rx_cells: u64,
    delivered: u64,
    pdus_crc_failed: u64,
    verify_failures: u64,
}

fn node_sum(snap: &osiris::sim::Snapshot, suffix: &str) -> u64 {
    snap.counters_with_suffix(suffix)
        .filter(|(k, _)| k.starts_with("node"))
        .map(|(_, v)| v)
        .sum()
}

fn run(scenario: Scenario, cfg: TestbedConfig) -> Golden {
    let warmup = cfg.warmup;
    let mut sim = scenario.launch(cfg);
    sim.model.meter = ThroughputMeter::new(warmup);
    while !sim.model.done && sim.now() <= SimTime::from_secs(30) && sim.step() {}
    assert!(sim.model.done, "{scenario:?} did not complete");
    let snap = sim.model.snapshot();
    Golden {
        events: sim.steps(),
        end_ps: sim.now().as_ps(),
        rx_cells: node_sum(&snap, "board.rx.cells"),
        delivered: node_sum(&snap, "stack.delivered"),
        pdus_crc_failed: node_sum(&snap, "board.rx.pdus_crc_failed"),
        verify_failures: sim.model.verify_failures,
    }
}

#[test]
fn rx_bench_double_cell_with_udp_checksum() {
    let mut cfg = TestbedConfig::dec3000_600_udp();
    cfg.msg_size = 64 * 1024;
    cfg.messages = 8;
    cfg.warmup = 1;
    cfg.rx_dma = DmaMode::DoubleCell;
    cfg.udp_checksum = true;
    assert_eq!(
        run(Scenario::RxBench, cfg),
        Golden {
            events: 6438,
            end_ps: 14132919994,
            rx_cells: 11944,
            delivered: 8,
            pdus_crc_failed: 0,
            verify_failures: 0,
        }
    );
}

#[test]
fn ds5000_one_kilobyte_ping_pong() {
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 1024;
    cfg.messages = 50;
    cfg.touch = TouchMode::WritePerMessage;
    assert_eq!(
        run(Scenario::Pair, cfg),
        Golden {
            events: 2850,
            end_ps: 36766432600,
            rx_cells: 2500,
            delivered: 100,
            pdus_crc_failed: 0,
            verify_failures: 0,
        }
    );
}

#[test]
fn eight_sender_incast() {
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 4 * 1024;
    cfg.messages = 4;
    cfg.reassembly = ReassemblyMode::FourWay { lanes: 4 };
    assert_eq!(
        run(Scenario::Incast { senders: 8 }, cfg),
        Golden {
            events: 6084,
            end_ps: 4615955953,
            rx_cells: 3008,
            delivered: 32,
            pdus_crc_failed: 0,
            verify_failures: 0,
        }
    );
}
