//! Golden determinism pins for the per-cell data-path kernels (CRC-32,
//! segmentation, receive DMA planning, per-cell maps, the Internet
//! checksum). Each run's counts were captured before those kernels were
//! rewritten for speed; a kernel change that moves what is simulated
//! moves at least one of them. A change the sender and receiver share
//! (the same wrong CRC or checksum on both ends) is invisible here and
//! is caught by the kernels' oracle unit tests instead.
//!
//! The reliable incast case also pins the retransmit timer: its
//! simulated results were captured before duplicate `RetransTick`s
//! were suppressed, so they must not move, while the tick and event
//! counts pin the suppression itself.
//!
//! The build-layout pins cover node construction: each built node's
//! receive-buffer pool and the frames its allocator hands out next were
//! captured before the frame allocator gained its per-frame index, so a
//! build change that moves any simulated address moves a digest.

use osiris::atm::sar::ReassemblyMode;
use osiris::board::dma::DmaMode;
use osiris::config::{TestbedConfig, TouchMode};
use osiris::proto::stack::{CcScheme, TransportMode};
use osiris::sim::stats::ThroughputMeter;
use osiris::sim::{SimDuration, SimTime};
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

/// What a reliable run must also reproduce: the transport's recovery
/// work and the timer events behind it.
#[derive(Debug, PartialEq, Eq)]
struct Reliable {
    retransmits: u64,
    gave_up: u64,
    retrans_ticks: u64,
}

fn run(scenario: Scenario, cfg: TestbedConfig) -> Golden {
    run_reliable(scenario, cfg).0
}

fn run_reliable(scenario: Scenario, cfg: TestbedConfig) -> (Golden, Reliable) {
    let warmup = cfg.warmup;
    let mut sim = scenario.launch(cfg);
    sim.model.meter = ThroughputMeter::new(warmup);
    while !sim.model.done && sim.now() <= SimTime::from_secs(30) && sim.step() {}
    assert!(sim.model.done, "{scenario:?} did not complete");
    let snap = sim.model.snapshot();
    let reliable = Reliable {
        retransmits: node_sum(&snap, "stack.retransmits"),
        gave_up: node_sum(&snap, "stack.gave_up"),
        retrans_ticks: snap.counter("engine.dispatch.retrans_tick"),
    };
    let golden = Golden {
        events: sim.steps(),
        end_ps: sim.now().as_ps(),
        rx_cells: node_sum(&snap, "board.rx.cells"),
        delivered: node_sum(&snap, "stack.delivered"),
        pdus_crc_failed: node_sum(&snap, "board.rx.pdus_crc_failed"),
        verify_failures: sim.model.verify_failures,
    };
    (golden, reliable)
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

#[test]
fn sixteen_sender_reliable_ecn_incast() {
    // The congestion-control matrix's `sr+ecn` cell, loss-free.
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 1024;
    cfg.messages = 8;
    cfg.warmup = 0;
    cfg.window = 8;
    cfg.reliable = true;
    cfg.transport = TransportMode::SelectiveRepeat;
    cfg.cc = CcScheme::Ecn;
    cfg.reassembly = ReassemblyMode::FourWay { lanes: 4 };
    cfg.reassembly_timeout = Some(SimDuration::from_us(1000));
    cfg.sim.faults.switch_max_queue_cells = Some(512);
    cfg.ecn_threshold_cells = Some(128);
    let (golden, reliable) = run_reliable(Scenario::Incast { senders: 16 }, cfg);
    assert_eq!(
        golden,
        Golden {
            events: 17374,
            end_ps: 74260208099,
            rx_cells: 8051,
            delivered: 128,
            pdus_crc_failed: 0,
            verify_failures: 0,
        }
    );
    assert_eq!(
        reliable,
        Reliable {
            retransmits: 193,
            gave_up: 0,
            retrans_ticks: 256,
        }
    );
}

/// FNV-1a over a stream of words: a compact, order-sensitive digest.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
    })
}

/// One digest per built node: every free-ring descriptor (page, address,
/// length) in ring order, then the next 16 frames a clone of the node's
/// frame allocator hands out. The receive-buffer pool carving, the
/// message region and the allocator's free-list order all feed it.
fn build_layout(scenario: Scenario, cfg: TestbedConfig) -> Vec<u64> {
    let tb = scenario.build(cfg);
    tb.nodes
        .iter()
        .map(|node| {
            let ring = (0..osiris::board::QUEUE_PAGES).flat_map(|page| {
                node.rx
                    .free_ring(page)
                    .iter_live()
                    .flat_map(move |d| [page as u64, d.addr.0, d.len as u64])
            });
            let mut alloc = node.host.alloc.clone();
            let next = alloc.alloc(16).expect("16 free frames");
            fnv(ring.chain(next.into_iter().map(|f| f as u64)))
        })
        .collect()
}

#[test]
fn incast96_build_layout() {
    // The incast96 benchmark workload's configuration at seed 42.
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 1024;
    cfg.messages = 16;
    cfg.warmup = 0;
    cfg.window = 8;
    cfg.reliable = true;
    cfg.transport = TransportMode::SelectiveRepeat;
    cfg.cc = CcScheme::Ecn;
    cfg.reassembly = ReassemblyMode::FourWay { lanes: 4 };
    cfg.reassembly_timeout = Some(SimDuration::from_us(1000));
    cfg.sim.faults.switch_max_queue_cells = Some(512);
    cfg.ecn_threshold_cells = Some(128);
    cfg.seed = 42;
    let nodes = build_layout(Scenario::Incast { senders: 96 }, cfg);
    assert_eq!(nodes.len(), 97);
    assert_eq!(
        fnv(nodes.iter().copied()),
        0x6b53_7379_0600_b1d3,
        "per-node digests: {nodes:#x?}"
    );
}

#[test]
fn rx_stream_build_layout() {
    // The rx_stream benchmark workload's configuration at seed 42.
    let mut cfg = TestbedConfig::dec3000_600_udp();
    cfg.msg_size = 256 * 1024;
    cfg.messages = 64;
    cfg.warmup = 2;
    cfg.rx_dma = DmaMode::DoubleCell;
    cfg.udp_checksum = true;
    cfg.seed = 42;
    assert_eq!(
        build_layout(Scenario::RxBench, cfg),
        vec![0xefba_0cdb_1801_a3f7]
    );
}
