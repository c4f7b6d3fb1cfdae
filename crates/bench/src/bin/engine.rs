//! Regenerates the **event-engine** snapshot: how many events per second
//! the simulator's event queue sustains, and how fast a real receive
//! bench runs end to end.
//!
//! Two workloads:
//!
//! * A classic *hold model* — prefill a large pending set, then pop one
//!   event and push its successor, over and over. This is the steady
//!   state of a saturated simulation and isolates the queue: the binary
//!   heap pays an `O(log n)` sift per operation against the pending-set
//!   size.
//! * The quick Figure-2 receive bench — real events through the real
//!   dispatcher, with the slab cell arena and interned timeline keys on
//!   the path. Its events/sec headline guards the end-to-end hot path,
//!   not just the queue in isolation; its wall time is also split into
//!   the build (`Scenario::launch`) and the run.
//!
//! It also times building a 256-node `ManyPairs { pairs: 128 }` fabric,
//! which guards the per-node build cost (boot, board set-up and the
//! receive-buffer carving) against a return of per-frame scans.
//!
//! Timing is wall-clock and therefore noisy; CI compares with a
//! generous threshold.

use std::time::Instant;

use osiris::config::TestbedConfig;
use osiris::sim::{EventQueue, SimRng, SimTime};
use osiris_bench::{
    bench_out_path, json_requested, quick_requested, BenchSnapshot, Better, ExperimentResult,
};

/// One hold-model pass: `ops` pop+push cycles against a pending set of
/// `pending` events, times drawn from a deterministic RNG. Returns
/// events per second (one op = one event dispatched).
fn hold_model(pending: usize, ops: u64) -> f64 {
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut rng = SimRng::new(0x0517_1994);
    // Mean inter-event gap of ~1 µs in picoseconds (the testbed's
    // cell-time cadence); the pending set then spans `pending` µs, and
    // drawing successor deltas over that same spread keeps the process
    // stationary — the spread neither compresses nor drifts, which is
    // the regime a long saturated simulation sits in.
    let spread = pending as u64 * 1_000_000;
    for i in 0..pending {
        q.push(SimTime(rng.next_u64() % spread), i as u32);
    }
    let t0 = Instant::now();
    for _ in 0..ops {
        let (now, ev) = q.pop().expect("hold model never drains");
        q.push(
            now + osiris::sim::SimDuration::from_ps(1 + rng.next_u64() % spread),
            ev,
        );
    }
    let secs = t0.elapsed().as_secs_f64();
    ops as f64 / secs
}

/// The receive bench's wall-clock times, each the best of three runs
/// (least scheduler noise).
struct RxBenchWall {
    events: u64,
    wall_ms: f64,
    build_ms: f64,
    run_ms: f64,
}

fn rx_bench_wall(messages: u64) -> RxBenchWall {
    let mut best = RxBenchWall {
        events: 0,
        wall_ms: f64::MAX,
        build_ms: f64::MAX,
        run_ms: f64::MAX,
    };
    for _ in 0..3 {
        let mut cfg = TestbedConfig::ds5000_200_udp();
        cfg.msg_size = 16 * 1024;
        cfg.messages = messages;
        cfg.warmup = 2;
        let t0 = Instant::now();
        let (built, events) = {
            let mut sim = osiris::Scenario::RxBench.launch(cfg);
            let built = t0.elapsed().as_secs_f64();
            sim.model.meter = osiris::sim::stats::ThroughputMeter::new(2);
            while !sim.model.done && sim.step() {}
            assert!(sim.model.done, "rx bench did not complete");
            assert_eq!(sim.model.verify_failures, 0);
            (built, sim.queue.total_pushed())
        };
        let secs = t0.elapsed().as_secs_f64();
        best.events = events;
        best.wall_ms = best.wall_ms.min(secs * 1e3);
        best.build_ms = best.build_ms.min(built * 1e3);
        best.run_ms = best.run_ms.min((secs - built) * 1e3);
    }
    best
}

/// Wall-clock milliseconds to build `ManyPairs { pairs }` with the
/// default DECstation configuration, best of three.
fn many_pairs_build_ms(pairs: usize) -> f64 {
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let _tb = osiris::Scenario::ManyPairs { pairs }.build(TestbedConfig::ds5000_200_udp());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::MAX, f64::min)
}

fn main() {
    let quick = quick_requested();
    let (pending, ops) = if quick {
        (1 << 20, 400_000)
    } else {
        (1 << 22, 2_000_000)
    };
    let messages = if quick { 24 } else { 96 };

    // The receive bench runs first: after the hold passes free their
    // ~24 MB heaps, the allocator's state roughly doubles its wall time.
    let rx = rx_bench_wall(messages);
    let (rx_ms, rx_events) = (rx.wall_ms, rx.events);
    let rx_eps = rx_events as f64 / (rx_ms / 1e3);
    let build_128_ms = many_pairs_build_ms(128);

    // Best of two passes — same noise treatment as the micro harness
    // (report the least-disturbed measurement).
    let heap = (0..2).map(|_| hold_model(pending, ops)).fold(0.0, f64::max);

    let mut r = ExperimentResult::new(
        "engine",
        "Event-engine throughput (hold model + quick rx bench)",
        "events/s",
    );
    let x = [pending as u64];
    r.push_series("heap", &x, &[heap], None);
    r.push_series("rx_bench", &[rx_events], &[rx_eps], None);

    if let Some(path) = bench_out_path() {
        let mut snap = BenchSnapshot::new("engine");
        snap.headline("hold_heap_events_per_sec", heap, "events/s", Better::Higher);
        snap.headline(
            "rx_bench_events_per_sec",
            rx_eps,
            "events/s",
            Better::Higher,
        );
        snap.headline("rx_bench_wall_ms", rx_ms, "ms", Better::Lower);
        snap.headline("rx_bench_build_ms", rx.build_ms, "ms", Better::Lower);
        snap.headline("rx_bench_run_ms", rx.run_ms, "ms", Better::Lower);
        snap.headline("many_pairs_128_build_ms", build_128_ms, "ms", Better::Lower);
        snap.push_result(&r);
        std::fs::write(&path, snap.to_json()).expect("write bench snapshot");
        eprintln!("wrote {path}");
    }
    if json_requested() {
        println!("{}", r.to_json());
        return;
    }
    println!("event engine, hold model ({pending} pending, {ops} ops):");
    println!("  heap      {heap:>12.0} events/s");
    println!("quick rx bench: {rx_events} events in {rx_ms:.1} ms = {rx_eps:.0} events/s");
    println!(
        "  build {:.2} ms, run {:.2} ms (each best of 3)",
        rx.build_ms, rx.run_ms
    );
    println!("ManyPairs{{128}} build: {build_128_ms:.1} ms (best of 3)");
}
