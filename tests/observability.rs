//! Cross-layer observability invariants: the registry's counters must
//! agree with each other across crate boundaries, because every layer
//! now publishes into the same `osiris-sim::obs` registry.

use osiris::config::{TestbedConfig, TouchMode};
use osiris::sim::{Json, SimTime, Simulation};
use osiris::testbed::{Event, NodeId, Testbed};

/// Runs the Table 1 ping-pong (1 KB UDP/IP on a 5000/200 pair) and
/// returns the finished testbed.
fn run_ping_pong() -> Testbed {
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 1024;
    cfg.messages = 8;
    cfg.touch = TouchMode::WritePerMessage;
    let tb = Testbed::new_pair(cfg);
    let mut sim = Simulation::new(tb);
    sim.queue
        .push(SimTime::ZERO, Event::AppSend { host: NodeId(0) });
    assert!(sim.run_while(|m| !m.done), "ping-pong did not complete");
    assert_eq!(sim.model.verify_failures, 0);
    sim.model
}

#[test]
fn interrupts_taken_equal_raised_minus_suppressed() {
    let tb = run_ping_pong();
    let snap = tb.snapshot();
    for node in ["node0", "node1"] {
        let taken = snap.counter(&format!("{node}.host.interrupts_taken"));
        let raised = snap.counter(&format!("{node}.board.rx.intr_raised"));
        let suppressed = snap.counter(&format!("{node}.board.rx.intr_suppressed"));
        let wakeups = snap.counter(&format!("{node}.board.tx.wakeups"));
        assert!(raised > 0, "{node}: the board must have pushed descriptors");
        assert_eq!(
            wakeups, 0,
            "{node}: a short ping-pong must never fill the transmit ring"
        );
        assert_eq!(
            taken,
            raised - suppressed,
            "{node}: every interrupt the board asserts (raised - suppressed) \
             must be taken by the host, and no others"
        );
    }
}

#[test]
fn bus_words_split_exhaustively_into_dma_and_cpu() {
    let tb = run_ping_pong();
    let snap = tb.snapshot();
    for node in ["node0", "node1"] {
        let words = snap.counter(&format!("{node}.bus.words"));
        let dma = snap.counter(&format!("{node}.bus.dma_words"));
        let cpu = snap.counter(&format!("{node}.bus.cpu_words"));
        assert!(dma > 0, "{node}: cells must have moved by DMA");
        assert!(cpu > 0, "{node}: software must have touched memory");
        assert_eq!(
            words,
            dma + cpu,
            "{node}: every bus word is either a DMA word or a CPU word"
        );
    }
}

#[test]
fn snapshot_json_round_trips() {
    let tb = run_ping_pong();
    let text = tb.snapshot().to_json().render_pretty();
    let doc = Json::parse(&text).expect("snapshot JSON must parse back");
    let cells = doc
        .get("counters")
        .and_then(|c| c.get("node1.board.rx.cells"))
        .and_then(|v| v.as_u64())
        .expect("counter present in JSON");
    assert_eq!(cells, tb.snapshot().counter("node1.board.rx.cells"));
}

#[test]
fn timeline_chrome_export_round_trips() {
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 1024;
    cfg.messages = 1;
    let tb = Testbed::new_pair(cfg);
    tb.timeline.set_enabled(true);
    let mut sim = Simulation::new(tb);
    sim.queue
        .push(SimTime::ZERO, Event::AppSend { host: NodeId(0) });
    assert!(sim.run_while(|m| !m.done));
    let tl = &sim.model.timeline;
    assert!(tl.events().len() > 10, "a traced ping must record events");
    assert_eq!(tl.dropped(), 0, "default capacity must hold one ping");
    // The §4 anatomy spans are present.
    assert!(!tl.spans_named("node1.host", "intr service").is_empty());
    assert!(!tl.spans_named("node1.host", "drain").is_empty());
    // The export parses back and contains one entry per event plus one
    // thread-name metadata record per track.
    let doc = tl.to_chrome_json();
    let text = doc.render_pretty();
    let parsed = Json::parse(&text).expect("chrome trace JSON must parse back");
    assert_eq!(parsed, doc);
    let events = parsed.get("traceEvents").unwrap().items();
    assert!(events.len() > tl.events().len());
}

#[test]
fn timeline_capacity_follows_sim_config() {
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.sim.timeline_capacity = 8;
    cfg.msg_size = 1024;
    cfg.messages = 2;
    let tb = Testbed::new_pair(cfg);
    tb.timeline.set_enabled(true);
    let mut sim = Simulation::new(tb);
    sim.queue
        .push(SimTime::ZERO, Event::AppSend { host: NodeId(0) });
    assert!(sim.run_while(|m| !m.done));
    let m = &sim.model;
    assert_eq!(
        m.timeline.events().len(),
        8,
        "ring must be capacity-bounded"
    );
    assert!(m.timeline.dropped() > 0);
    // Evictions are registry-visible, never silent.
    assert_eq!(
        m.snapshot().counter("sim.timeline.dropped"),
        m.timeline.dropped()
    );
}

#[test]
fn event_queue_scheduling_is_registry_visible() {
    // Satellite: the simulation engine itself publishes into the same
    // registry as the hardware models. `Scenario::launch` attaches the
    // queue's probe, so `engine.events.scheduled` must track
    // `EventQueue::total_pushed` exactly — including the seed event.
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 1024;
    cfg.messages = 8;
    cfg.touch = TouchMode::WritePerMessage;
    let mut sim = osiris::Scenario::Pair.launch(cfg);
    assert!(sim.run_while(|m| !m.done), "ping-pong did not complete");
    let scheduled = sim.model.snapshot().counter("engine.events.scheduled");
    assert!(scheduled > 0, "the run must have scheduled events");
    assert_eq!(
        scheduled,
        sim.queue.total_pushed(),
        "engine.events.scheduled must mirror EventQueue::total_pushed"
    );

    // The quick receive bench: events are scheduled, and the cell slab
    // arena is live on this path — cells were recycled through the free
    // list, not leaked and reallocated.
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 16 * 1024;
    cfg.messages = 8;
    cfg.warmup = 2;
    let mut sim = osiris::Scenario::RxBench.launch(cfg);
    while !sim.model.done && sim.step() {}
    assert!(sim.model.done, "rx bench did not complete");
    assert_eq!(sim.model.verify_failures, 0);
    let snap = sim.model.snapshot();
    assert!(snap.counter("engine.events.scheduled") > 0);
    assert!(
        snap.counter("cells.slab_recycled") > 0,
        "expected slab recycling on the receive path"
    );
}

#[test]
fn every_layer_publishes_into_one_registry() {
    let tb = run_ping_pong();
    let snap = tb.snapshot();
    // One representative path per crate layer, all in the same snapshot.
    for path in [
        "node0.board.rx.cells",        // board receive half
        "node0.board.tx.cells_sent",   // board transmit half
        "node0.bus.words",             // memory system
        "node0.host.interrupts_taken", // host machine
        "node0.driver.pdus_sent",      // driver
        "node0.stack.delivered",       // protocol stack
        "node0.link.lane0.cells_sent", // striped link
    ] {
        assert!(
            snap.counter(path) > 0,
            "expected activity on {path}; counters: {:?}",
            snap.counters.keys().collect::<Vec<_>>()
        );
    }
}
