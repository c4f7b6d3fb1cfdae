//! The benchmark's metric catalogue: for every metric its unit, better
//! direction and layer; for every per-layer metric the end-to-end metric
//! it should move and the workloads where its layer does the most and
//! the least work. `--describe` prints it; the smoke test holds
//! `BENCHMARK.json` to it.

use osiris::sim::Json;

/// One metric of the catalogue.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Crate/module (or harness part) the metric measures.
    pub layer: &'static str,
    /// End-to-end metric a change here should move (per-layer only).
    pub moves: &'static str,
    /// Workload where the layer does the most work.
    pub most: &'static str,
    /// Workload where the layer does the least (or no) work.
    pub least: &'static str,
}

/// The default seed (`TestbedConfig::seed`).
pub const DEFAULT_SEED: u64 = 42;
/// A seed never used while the benchmark was written.
pub const HELD_OUT_SEED: u64 = 7;

/// name, unit, better, layer, moves, most, least (`""`: not applicable).
type Row = [&'static str; 7];

const C: &str = "cells_per_s";

/// End-to-end metrics, printed by every untraced run.
#[rustfmt::skip]
const END_TO_END: [Row; 8] = [
    ["setup_s", "s", "lower", "core::scenario (Scenario::launch)", "", "", ""],
    ["cells_per_s", "cells/s", "higher", "whole simulator, run phase", "", "", ""],
    ["peak_rss_mb", "MB", "lower", "whole simulator process", "", "", ""],
    ["sim_goodput_mbps", "Mbps", "higher", "simulated adaptor", "", "", ""],
    ["sim_msg_p50_us", "sim_us", "lower", "simulated adaptor", "", "", ""],
    ["sim_msg_p99_us", "sim_us", "lower", "simulated adaptor", "", "", ""],
    ["delivered_frac", "ratio", "higher", "simulated adaptor", "", "", ""],
    ["paper_err_pct", "%", "lower", "simulated adaptor vs paper", "", "", ""],
];

/// Event variants the testbed dispatches: name, the layers its handler
/// runs, and the workloads where it works most and least.
#[rustfmt::skip]
pub const VARIANTS: [[&str; 4]; 11] = [
    ["gen_kick", "board rx generator, atm SAR/CRC", "rx_stream", "pingpong"],
    ["cell_arrival", "board rx, atm reassembly", "pingpong", "rx_stream"],
    ["tx_kick", "board tx, atm SAR", "pingpong", "rx_stream"],
    ["fabric_transit", "atm switch", "incast96", "rx_stream"],
    ["rx_flush", "board rx double-cell DMA, mem", "rx_stream", "pingpong"],
    ["rx_interrupt", "host interrupt", "pingpong", "rx_stream"],
    ["rx_drain", "host driver, proto input, host checksum via mem cache", "rx_stream", "incast96"],
    ["tx_wake", "host transmit wakeup", "incast96", "rx_stream"],
    ["app_send", "proto send", "pingpong", "rx_stream"],
    ["retrans_tick", "proto transport timers", "incast96", "rx_stream"],
    ["rx_reap_tick", "board rx reassembly timeout", "incast96", "rx_stream"],
];

/// Per-layer metrics before the per-variant `dispatch.*` ones.
#[rustfmt::skip]
const ENGINE_AND_BUILD: [Row; 7] = [
    ["engine.pop.calls", "count", "lower", "sim::event", C, "incast96", "rx_stream"],
    ["engine.pop.ns", "ns", "lower", "sim::event", C, "incast96", "rx_stream"],
    ["engine.pop.share", "ratio", "lower", "sim::event", C, "incast96", "rx_stream"],
    ["engine.events_per_cell", "ratio", "lower", "sim::event", C, "incast96", "rx_stream"],
    ["engine.pending_mean", "count", "lower", "sim::event", C, "incast96", "rx_stream"],
    ["build.ns_per_node", "ns", "lower", "core::scenario", "setup_s", "incast96", "rx_stream"],
    ["build.nodes", "count", "lower", "core::scenario", "setup_s", "incast96", "rx_stream"],
];

/// Per-layer metrics after the per-variant `dispatch.*` ones.
#[rustfmt::skip]
const MODEL_KERNELS_HARNESS: [Row; 20] = [
    ["loop.share", "ratio", "lower", "perfbench run loop", C, "incast96", "rx_stream"],
    ["mem.bus.dma_words_per_cell", "ratio", "lower", "mem::bus", "sim_goodput_mbps", "rx_stream", "pingpong"],
    ["mem.bus.cpu_words_per_cell", "ratio", "lower", "mem::bus", "sim_msg_p50_us", "pingpong", "incast96"],
    ["board.rx.dma_per_cell", "ratio", "lower", "board::rx", "sim_goodput_mbps", "incast96", "rx_stream"],
    ["board.rx.merge_ratio", "ratio", "higher", "board::rx", "sim_goodput_mbps", "rx_stream", "pingpong"],
    ["board.rx.pdus_dropped", "count", "lower", "board::rx", "delivered_frac", "incast96", "rx_stream"],
    ["host.intr_per_pdu", "ratio", "lower", "host::machine", "sim_msg_p50_us", "pingpong", "incast96"],
    ["proto.retransmits_per_delivered", "ratio", "lower", "proto::stack", "delivered_frac", "incast96", "rx_stream"],
    ["proto.gave_up", "count", "lower", "proto::stack", "delivered_frac", "incast96", "rx_stream"],
    ["atm.switch.overflow_dropped", "count", "lower", "atm::switch", "delivered_frac", "incast96", "rx_stream"],
    ["atm.switch.ecn_marked", "count", "lower", "atm::switch", "sim_goodput_mbps", "incast96", "rx_stream"],
    ["kernel.host_checksum_16k.ns", "ns", "lower", "host::machine", C, "rx_stream", "pingpong"],
    ["kernel.cache_read_16k.ns", "ns", "lower", "mem::cache", C, "rx_stream", "incast96"],
    ["kernel.crc32_cell.ns", "ns", "lower", "atm::crc", C, "rx_stream", "incast96"],
    ["kernel.segment_16k.ns", "ns", "lower", "atm::sar", C, "rx_stream", "incast96"],
    ["kernel.queue_hold.ns", "ns", "lower", "sim::event", C, "incast96", "rx_stream"],
    ["trace.overhead_frac", "ratio", "lower", "perfbench tracing", "", "incast96", "rx_stream"],
    ["trace.coverage", "ratio", "higher", "perfbench tracing", "", "", ""],
    ["trace.clock_ns", "ns", "lower", "perfbench tracing", "", "", ""],
    ["sim.msg_samples", "count", "higher", "simulated adaptor", "sim_msg_p99_us", "pingpong", "rx_stream"],
];

fn metric(&[name, unit, better, layer, moves, most, least]: &Row) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        better,
        layer,
        moves,
        most,
        least,
    }
}

/// End-to-end metrics, printed by every untraced run.
pub fn end_to_end() -> Vec<Metric> {
    END_TO_END.iter().map(metric).collect()
}

/// Per-layer metrics, printed by every traced run.
pub fn per_layer() -> Vec<Metric> {
    let mut v: Vec<Metric> = ENGINE_AND_BUILD.iter().map(metric).collect();
    for [name, layer, most, least] in VARIANTS {
        for (stat, unit) in [("calls", "count"), ("ns", "ns"), ("share", "ratio")] {
            let row = [name, unit, "lower", layer, C, most, least];
            v.push(Metric {
                name: format!("dispatch.{name}.{stat}"),
                ..metric(&row)
            });
        }
    }
    v.extend(MODEL_KERNELS_HARNESS.iter().map(metric));
    v
}

/// The catalogue as JSON (`--describe`).
pub fn describe() -> Json {
    let list = |ms: Vec<Metric>| -> Json {
        Json::Arr(
            ms.into_iter()
                .map(|x| {
                    let mut j = Json::obj()
                        .with("name", x.name)
                        .with("unit", x.unit)
                        .with("better", x.better)
                        .with("layer", x.layer);
                    if !x.moves.is_empty() {
                        j = j.with("moves", x.moves);
                    }
                    if !x.most.is_empty() {
                        j = j.with("most", x.most).with("least", x.least);
                    }
                    j
                })
                .collect(),
        )
    };
    Json::obj()
        .with("default_seed", DEFAULT_SEED)
        .with("held_out_seed", HELD_OUT_SEED)
        .with(
            "off_path",
            "osiris-fbuf and osiris-adc: every workload runs DataPath::Kernel, \
             and no open ROADMAP item targets them",
        )
        .with("end_to_end", list(end_to_end()))
        .with("per_layer", list(per_layer()))
}
