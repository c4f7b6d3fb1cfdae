//! The traced run: spans taken from outside around every call into the
//! engine (`EventQueue::pop`), the testbed's dispatcher
//! (`Model::handle`, per `Event` variant) and the scenario builder
//! (`Scenario::launch`), plus direct timings of the layer kernels at the
//! workloads' input sizes. Nothing inside the simulator is instrumented.

use std::hint::black_box;
use std::time::Instant;

use osiris::atm::sar::{FramingMode, SegmentUnit, Segmenter};
use osiris::atm::{crc32, Vci, CELL_PAYLOAD};
use osiris::config::TestbedConfig;
use osiris::host::machine::{HostMachine, MachineSpec};
use osiris::mem::PhysAddr;
use osiris::sim::obs::Snapshot;
use osiris::sim::{EventQueue, Model, QueueKind, SimDuration, SimRng, SimTime};
use osiris::testbed::Event;

use crate::metrics::VARIANTS;
use crate::workload::{self, node_sum, GapProbe, Outcome, Workload};

/// Index of an event's variant in [`VARIANTS`].
fn variant(ev: &Event) -> usize {
    match ev {
        Event::GenKick => 0,
        Event::CellArrival { .. } => 1,
        Event::TxKick { .. } => 2,
        Event::FabricTransit { .. } => 3,
        Event::RxFlush { .. } => 4,
        Event::RxInterrupt { .. } => 5,
        Event::RxDrain { .. } => 6,
        Event::TxWake { .. } => 7,
        Event::AppSend { .. } => 8,
        Event::RetransTick { .. } => 9,
        Event::RxReapTick { .. } => 10,
    }
}

/// Wall-clock nanoseconds between two instants.
fn ns(a: Instant, b: Instant) -> u64 {
    b.duration_since(a).as_nanos() as u64
}

/// Per-layer time summed over every traced simulation of a run.
#[derive(Debug, Default)]
pub struct Spans {
    /// Traced simulations.
    pub runs: u64,
    /// Wall time of the traced simulations, launch to outcome.
    pub wall_ns: u64,
    /// `Scenario::launch`.
    pub build_ns: u64,
    /// Nodes built.
    pub nodes: u64,
    /// Successful `EventQueue::pop` calls and their time.
    pub pops: u64,
    /// Time in `EventQueue::pop`.
    pub pop_ns: u64,
    /// Per-variant `Model::handle` calls.
    pub calls: [u64; VARIANTS.len()],
    /// Per-variant `Model::handle` time.
    pub handle_ns: [u64; VARIANTS.len()],
    /// The run loop's own bookkeeping between calls.
    pub loop_ns: u64,
    /// Σ pending-set size seen after each pop.
    pub pending_sum: u64,
}

/// One traced simulation: the same launch and loop as the untraced run,
/// with three clock reads per event.
pub fn traced_run(
    w: Workload,
    cfg: &TestbedConfig,
    spans: &mut Spans,
    host_err_pct: f64,
) -> Result<Outcome, String> {
    let start = Instant::now();
    let mut sim = workload::launch(w, cfg);
    let built = Instant::now();
    spans.build_ns += ns(start, built);
    spans.nodes += sim.model.nodes.len() as u64;
    let mut gaps = GapProbe::new(w == Workload::RxStream);
    let mut now = SimTime::ZERO;
    let mut events = 0u64;
    let mut last = built;
    while workload::keep_going(&sim.model, now) {
        let t0 = Instant::now();
        spans.loop_ns += ns(last, t0);
        let popped = sim.queue.pop();
        let t1 = Instant::now();
        spans.pop_ns += ns(t0, t1);
        let Some((t, ev)) = popped else {
            last = t1;
            break;
        };
        if t < now {
            return Err(format!("causality violation: event at {t} after {now}"));
        }
        now = t;
        events += 1;
        // The dispatch span opens at `t1`, so it also holds these two
        // constant-time reads.
        spans.pending_sum += sim.queue.len() as u64;
        let k = variant(&ev);
        sim.model.handle(t, ev, &mut sim.queue);
        let t2 = Instant::now();
        spans.calls[k] += 1;
        spans.handle_ns[k] += ns(t1, t2);
        gaps.after_event(&sim.model);
        last = t2;
    }
    spans.loop_ns += ns(last, Instant::now());
    spans.pops += events;
    let out = workload::outcome(w, cfg, &sim, gaps, events, now, host_err_pct);
    spans.wall_ns += ns(start, Instant::now());
    spans.runs += 1;
    out
}

/// Cost of one `Instant::now` in ns (median of 21 batches).
pub fn clock_ns() -> f64 {
    median_batch(Instant::now, 10_000)
}

/// Median ns per call of `f` over 21 batches of `iters` calls.
fn median_batch<R>(mut f: impl FnMut() -> R, iters: u64) -> f64 {
    for _ in 0..iters {
        black_box(f());
    }
    let mut per: Vec<f64> = (0..21)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    per.sort_by(f64::total_cmp);
    per[per.len() / 2]
}

/// Direct timings of the layer kernels, at the workloads' sizes:
/// 16 KB IP fragments, 44-byte cell payloads, and `pending` events in
/// the queue.
pub fn kernels(pending: usize, queue: QueueKind) -> Vec<(&'static str, f64)> {
    const FRAG: usize = 16 * 1024;
    // The receive stream's host: checksum and cache reads of one
    // fragment's worth of DMA-written memory, cache warm.
    let mut host = HostMachine::boot(MachineSpec::dec3000_600(), 42);
    let frames = FRAG.div_ceil(host.spec.page_size);
    let first = host
        .alloc
        .alloc_contiguous(frames)
        .expect("a fresh machine has free frames")[0];
    let addr: PhysAddr = host.phys.frame_addr(first);
    let data: Vec<u8> = (0..FRAG).map(|i| (i * 7) as u8).collect();
    host.cache.dma_write(&mut host.phys, addr, &data);
    let checksum = median_batch(|| host.checksum(SimTime::ZERO, addr, FRAG).1, 20);
    let mut buf = vec![0u8; FRAG];
    let cache_read = median_batch(|| host.cache.read(&host.phys, addr, &mut buf).hit_bytes, 20);
    let cell = [0x5au8; CELL_PAYLOAD];
    let crc = median_batch(|| crc32(black_box(&cell)), 2_000);
    let seg = Segmenter {
        framing: FramingMode::EndOfPdu,
        unit: SegmentUnit::Pdu,
    };
    let segment = median_batch(|| seg.segment(Vci(100), &[&data]).len(), 5);
    vec![
        ("kernel.host_checksum_16k.ns", checksum),
        ("kernel.cache_read_16k.ns", cache_read),
        ("kernel.crc32_cell.ns", crc),
        ("kernel.segment_16k.ns", segment),
        ("kernel.queue_hold.ns", queue_hold(pending.max(1), queue)),
    ]
}

/// The classic hold model: a queue of `n` pending events; each hold pops
/// the earliest and pushes one a random (seeded) delay later.
fn queue_hold(n: usize, kind: QueueKind) -> f64 {
    let mut rng = SimRng::new(7);
    let mut q: EventQueue<u64> = EventQueue::with_kind(kind);
    let mut delay = || SimDuration::from_ns(1 + rng.gen_range(20_000));
    for i in 0..n as u64 {
        q.push(SimTime::ZERO + delay(), i);
    }
    median_batch(
        || {
            let (t, e) = q.pop().expect("the hold model keeps n events");
            q.push(t + delay(), e);
        },
        2_000,
    )
}

/// The per-layer metrics of a traced run (every name in
/// [`crate::metrics::per_layer`]).
pub fn per_layer(
    spans: &Spans,
    out: &Outcome,
    kernels: &[(&'static str, f64)],
    overhead_frac: f64,
    clock_ns: f64,
) -> Vec<(String, f64)> {
    let wall = spans.wall_ns as f64;
    let per = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    let snap: &Snapshot = &out.snapshot;
    let cells = out.cells;
    let mut v: Vec<(String, f64)> = vec![
        (
            "engine.pop.calls".into(),
            spans.pops as f64 / spans.runs as f64,
        ),
        ("engine.pop.ns".into(), per(spans.pop_ns, spans.pops)),
        ("engine.pop.share".into(), spans.pop_ns as f64 / wall),
        ("engine.events_per_cell".into(), per(out.events, cells)),
        (
            "engine.pending_mean".into(),
            per(spans.pending_sum, spans.pops),
        ),
        ("build.ns_per_node".into(), per(spans.build_ns, spans.nodes)),
        ("build.nodes".into(), spans.nodes as f64 / spans.runs as f64),
    ];
    for (k, [name, ..]) in VARIANTS.iter().enumerate() {
        let calls = spans.calls[k];
        v.push((
            format!("dispatch.{name}.calls"),
            calls as f64 / spans.runs as f64,
        ));
        v.push((
            format!("dispatch.{name}.ns"),
            per(spans.handle_ns[k], calls),
        ));
        v.push((
            format!("dispatch.{name}.share"),
            spans.handle_ns[k] as f64 / wall,
        ));
    }
    let covered =
        spans.build_ns + spans.pop_ns + spans.loop_ns + spans.handle_ns.iter().sum::<u64>();
    let switch = |k: &str| snap.counter(&format!("fabric.switch.{k}")) as f64;
    v.extend([
        ("loop.share".into(), spans.loop_ns as f64 / wall),
        (
            "mem.bus.dma_words_per_cell".into(),
            per(node_sum(snap, "bus.dma_words"), cells),
        ),
        (
            "mem.bus.cpu_words_per_cell".into(),
            per(node_sum(snap, "bus.cpu_words"), cells),
        ),
        (
            "board.rx.dma_per_cell".into(),
            per(node_sum(snap, "board.rx.dma_transactions"), cells),
        ),
        (
            "board.rx.merge_ratio".into(),
            per(node_sum(snap, "board.rx.double_cell_merges"), cells),
        ),
        (
            "board.rx.pdus_dropped".into(),
            (node_sum(snap, "board.rx.pdus_dropped_no_buffer")
                + node_sum(snap, "board.rx.pdus_dropped_timeout")) as f64,
        ),
        (
            "host.intr_per_pdu".into(),
            per(
                node_sum(snap, "host.interrupts_taken"),
                node_sum(snap, "board.rx.pdus_delivered"),
            ),
        ),
        (
            "proto.retransmits_per_delivered".into(),
            per(
                node_sum(snap, "stack.retransmits"),
                node_sum(snap, "stack.delivered"),
            ),
        ),
        (
            "proto.gave_up".into(),
            node_sum(snap, "stack.gave_up") as f64,
        ),
        (
            "atm.switch.overflow_dropped".into(),
            switch("overflow_dropped"),
        ),
        ("atm.switch.ecn_marked".into(), switch("ecn_marked")),
    ]);
    v.extend(kernels.iter().map(|&(k, x)| (k.to_string(), x)));
    v.extend([
        ("trace.overhead_frac".into(), overhead_frac),
        ("trace.coverage".into(), covered as f64 / wall),
        ("trace.clock_ns".into(), clock_ns),
        ("sim.msg_samples".into(), out.sim.msg_samples as f64),
    ]);
    v
}
