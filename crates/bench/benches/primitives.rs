//! Microbenches for the hot data structures and algorithms of the
//! reproduction: the things a production driver would care about.
//! Runs on the in-tree harness (`osiris_bench::micro`) so the whole
//! suite works with zero external dependencies.

use osiris::atm::sar::{FramingMode, Reassembler, ReassemblyMode, SegmentUnit, Segmenter};
use osiris::atm::{crc32, Vci};
use osiris::board::descriptor::{DescRing, Descriptor};
use osiris::board::dma::{plan_dma, DmaMode};
use osiris::board::spsc::SpscRing;
use osiris::host::machine::internet_checksum;
use osiris::mem::VirtAddr;
use osiris::mem::{CacheSpec, DataCache, PhysAddr, PhysMemory};
use osiris::proto::msg::Message;
use osiris_bench::micro::bench;

fn bench_crc32() {
    for size in [44usize, 4096, 65536] {
        let data = vec![0xA5u8; size];
        bench(&format!("crc32/{size}"), Some(size as u64), || {
            crc32(std::hint::black_box(&data))
        });
    }
}

fn bench_checksum() {
    for size in [44usize, 16384] {
        let data = vec![0x5Au8; size];
        bench(
            &format!("internet_checksum/{size}"),
            Some(size as u64),
            || internet_checksum(std::hint::black_box(&data)),
        );
    }
}

fn bench_desc_ring() {
    let d = Descriptor::tx(PhysAddr(0x1000), 4096, Vci(1), true);
    let mut ring = DescRing::new(64);
    bench("desc_ring_push_pop", None, || {
        ring.push(std::hint::black_box(d)).unwrap();
        ring.pop()
    });
}

fn bench_spsc() {
    let ring = SpscRing::new(64);
    bench("spsc_push_pop", None, || {
        ring.push(std::hint::black_box(7u64)).unwrap();
        ring.pop()
    });
}

fn bench_segmentation() {
    let data = vec![0x3Cu8; 16 * 1024];
    for framing in [FramingMode::EndOfPdu, FramingMode::FourWay { lanes: 4 }] {
        let seg = Segmenter {
            framing,
            unit: SegmentUnit::Pdu,
        };
        bench(
            &format!("segment_16KB/{framing:?}"),
            Some(data.len() as u64),
            || seg.segment(Vci(1), &[std::hint::black_box(&data)]),
        );
    }
}

fn bench_reassembly() {
    let data = vec![0x3Cu8; 16 * 1024];
    for (name, framing, mode) in [
        ("in_order", FramingMode::EndOfPdu, ReassemblyMode::InOrder),
        (
            "four_way",
            FramingMode::FourWay { lanes: 4 },
            ReassemblyMode::FourWay { lanes: 4 },
        ),
    ] {
        let cells = Segmenter {
            framing,
            unit: SegmentUnit::Pdu,
        }
        .segment(Vci(1), &[&data]);
        bench(
            &format!("reassemble_16KB/{name}"),
            Some(data.len() as u64),
            || {
                let mut r = Reassembler::new(mode, 1 << 20, true);
                let mut out = None;
                for (i, cell) in cells.iter().enumerate() {
                    let lane = match mode {
                        ReassemblyMode::FourWay { lanes } => i % lanes as usize,
                        _ => 0,
                    };
                    out = r.receive(lane, cell).unwrap().completed.or(out);
                }
                out
            },
        );
    }
}

fn bench_dma_planning() {
    bench("plan_dma_double_cell_page_edge", None, || {
        plan_dma(
            DmaMode::DoubleCell,
            std::hint::black_box(PhysAddr(4096 - 20)),
            88,
            4096,
        )
        .count()
    });
}

fn bench_cache_model() {
    let mut cache = DataCache::new(CacheSpec::dec_3000_600());
    let mem = PhysMemory::new(1 << 20, 4096);
    let mut buf = vec![0u8; 16 * 1024];
    cache.read(&mem, PhysAddr(0), &mut buf); // warm it
    bench("cache_read_16KB/warm", Some(16 * 1024), || {
        cache.read(&mem, PhysAddr(0), &mut buf)
    });
}

fn bench_message_tool() {
    bench("msg_push_pop_split", None, || {
        let mut m = Message::single(VirtAddr(0x1000), 16 * 1024);
        m.push_header(VirtAddr(0x9000), 24);
        let front = m.split_off_front(4096);
        let mut whole = front;
        whole.join(m);
        whole.pop_header(24)
    });
}

fn bench_wire_codec() {
    use osiris::atm::wire::{decode, encode};
    let mut cell = osiris::atm::Cell::data(Vci(9), 3, &[0x5A; 44]);
    cell.header.last_cell = true;
    bench("cell_wire_roundtrip", None, || {
        let bytes = encode(std::hint::black_box(&cell));
        decode(&bytes).unwrap()
    });
}

fn bench_switch_forward() {
    use osiris::atm::switch::{Switch, SwitchSpec};
    use osiris::sim::SimTime;
    let mut sw = Switch::new(SwitchSpec::sts3c_16port());
    sw.route(Vci(1), 3);
    let cell = osiris::atm::Cell::data(Vci(1), 0, &[1; 44]);
    let mut t = 0u64;
    bench("switch_forward", None, || {
        t += 2727;
        sw.forward(SimTime::from_ns(t), &cell)
    });
}

fn bench_sgmap() {
    use osiris::mem::PhysBuffer;
    use osiris::mem::SgMap;
    let mut m = SgMap::new(64, 4096);
    bench("sgmap_map_translate_invalidate", None, || {
        let bus = m
            .map_buffer(PhysBuffer::new(PhysAddr(7 * 4096), 16 * 1024))
            .unwrap();
        std::hint::black_box(m.translate(bus).unwrap());
        m.invalidate_all();
    });
}

fn bench_traffic_source() {
    use osiris::atm::traffic::{TrafficModel, TrafficSource};
    use osiris::sim::SimTime;
    let mut s = TrafficSource::new(
        TrafficModel::OnOff {
            mean_burst: 10,
            mean_gap: 20,
        },
        155_520_000,
        SimTime::ZERO,
        5,
    );
    bench("onoff_arrivals", None, || s.next_arrival());
}

fn main() {
    bench_crc32();
    bench_checksum();
    bench_desc_ring();
    bench_spsc();
    bench_segmentation();
    bench_reassembly();
    bench_dma_planning();
    bench_cache_model();
    bench_message_tool();
    bench_wire_codec();
    bench_switch_forward();
    bench_sgmap();
    bench_traffic_source();
}
