//! Property-style oracle test: the event queue must pop exactly the
//! sequence a sort-by-`(time, seq)` reference model predicts, under
//! arbitrary seeded push/pop schedules. Offline builds cannot fetch
//! proptest, so the schedules are generated by the in-tree
//! deterministic [`SimRng`] — many seeds, several shapes, thousands of
//! operations each.

use osiris_sim::{EventQueue, Model, SimRng, SimTime, Simulation};

/// The reference model: every pending `(time, seq)` pair in a plain
/// vector; pop takes the smallest. `seq` is the push index, so the
/// payload the queue carries is the seq itself.
#[derive(Default)]
struct Oracle {
    pending: Vec<(SimTime, u64)>,
    next_seq: u64,
}

impl Oracle {
    fn push(&mut self, at: SimTime) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push((at, seq));
        seq
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let (i, _) = self.pending.iter().enumerate().min_by_key(|(_, k)| **k)?;
        Some(self.pending.swap_remove(i))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.pending.iter().min().map(|&(t, _)| t)
    }
}

/// A queue and its oracle driven in lock step.
#[derive(Default)]
struct Checked {
    queue: EventQueue<u64>,
    oracle: Oracle,
}

impl Checked {
    fn push(&mut self, at: SimTime) {
        let seq = self.oracle.push(at);
        self.queue.push(at, seq);
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let want = self.oracle.pop();
        assert_eq!(self.queue.pop(), want, "queue diverged from the oracle");
        want
    }

    fn check_pending(&self) {
        assert_eq!(self.queue.len(), self.oracle.pending.len());
        assert_eq!(self.queue.peek_time(), self.oracle.peek_time());
    }

    /// Pops everything, asserting each pop against the oracle and that
    /// the pop order is strictly increasing in `(time, seq)`.
    fn drain(&mut self) {
        self.check_pending();
        let mut last: Option<(SimTime, u64)> = None;
        while let Some(k) = self.pop() {
            assert!(last < Some(k), "pop order must be strictly (time, seq)");
            last = Some(k);
        }
        assert!(self.queue.is_empty());
    }
}

#[test]
fn random_schedules_match_the_oracle() {
    for seed in 0..32u64 {
        let mut rng = SimRng::new(0xE5E4 + seed);
        let mut q = Checked::default();
        // Scale and time spread vary per seed: same-instant bursts
        // (1 ps), nanosecond clusters, microsecond spreads and sparse
        // millisecond tails.
        let ops = 500 + (rng.gen_range(3000) as usize);
        let spread = [1u64, 1_000, 1_000_000, 1_000_000_000][(seed % 4) as usize];
        let mut now = 0u64;
        for _ in 0..ops {
            q.push(SimTime(now + rng.gen_range(spread)));
            // Interleave pops so the queue is checked mid-schedule, not
            // just at the end.
            if rng.gen_bool(0.3) {
                if let Some((t, _)) = q.pop() {
                    now = now.max(t.as_ps());
                }
            }
        }
        q.drain();
    }
}

#[test]
fn same_instant_bursts_stay_fifo() {
    let mut rng = SimRng::new(7);
    let mut q = Checked::default();
    // A handful of instants, each receiving many events: FIFO within an
    // instant is the contract every model in the workspace leans on.
    let instants: Vec<u64> = (0..8).map(|_| rng.gen_range(1_000_000)).collect();
    for _ in 0..4000 {
        q.push(SimTime(instants[rng.gen_range(8) as usize]));
    }
    q.drain();
}

#[test]
fn grow_and_shrink_cycles_keep_order() {
    // Push well past any small capacity, drain most of it, refill, and
    // drain again; times are scattered widely (7919 is coprime to 4093).
    let mut q = Checked::default();
    for round in 0..3u64 {
        for i in 0..500u64 {
            q.push(SimTime::from_us((i * 7919 + round) % 4093));
        }
        for _ in 0..450 {
            q.pop();
        }
        q.check_pending();
    }
    q.drain();
}

#[test]
fn lone_far_future_event_is_found() {
    let mut q = Checked::default();
    q.push(SimTime::from_ns(1));
    q.push(SimTime::from_secs(20));
    assert_eq!(q.pop().map(|(t, _)| t), Some(SimTime::from_ns(1)));
    q.check_pending();
    assert_eq!(q.queue.peek_time(), Some(SimTime::from_secs(20)));
    q.drain();
}

#[test]
fn incast_like_schedule_matches_the_oracle() {
    // The congested-incast shape: bursts of cells at a few shared
    // instants a cell time apart, beside retransmit timers ~1 ms out,
    // with the clock advancing as events pop.
    const CELL_PS: u64 = 680_000;
    const RTO_PS: u64 = 1_000_000_000;
    for seed in 0..8u64 {
        let mut rng = SimRng::new(0x1ca5 + seed);
        let mut q = Checked::default();
        let mut now = 0u64;
        for _ in 0..300 {
            let slot = now + CELL_PS * (1 + rng.gen_range(4));
            for _ in 0..1 + rng.gen_range(24) {
                q.push(SimTime(slot));
            }
            if rng.gen_bool(0.3) {
                q.push(SimTime(now + RTO_PS + rng.gen_range(RTO_PS / 10)));
            }
            for _ in 0..rng.gen_range(24) {
                match q.pop() {
                    Some((t, _)) => now = now.max(t.as_ps()),
                    None => break,
                }
            }
        }
        q.drain();
    }
}

/// What the model saw and did, in order.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    Dispatched(SimTime, u64),
    Pushed(SimTime),
}

struct Recorder {
    steps: Vec<Step>,
    rng: SimRng,
    budget: u32,
}

impl Model for Recorder {
    type Event = u64;
    fn handle(&mut self, now: SimTime, ev: u64, q: &mut EventQueue<u64>) {
        self.steps.push(Step::Dispatched(now, ev));
        // Reschedule a follow-up occasionally so the schedule is shaped
        // by dispatch, like a real model. Its payload is its push index,
        // the `seq` the oracle will give it.
        if self.budget > 0 && self.rng.gen_bool(0.5) {
            self.budget -= 1;
            let at = SimTime(now.as_ps() + self.rng.gen_range(500_000));
            q.push(at, q.total_pushed());
            self.steps.push(Step::Pushed(at));
        }
    }
}

/// Whole-simulation form: replaying the model's pushes into the oracle,
/// every event `Simulation` dispatches is the oracle's next pop.
#[test]
fn simulation_dispatches_in_oracle_order() {
    let mut sim = Simulation::new(Recorder {
        steps: Vec::new(),
        rng: SimRng::new(99),
        budget: 2000,
    });
    let mut rng = SimRng::new(1234);
    let mut oracle = Oracle::default();
    for _ in 0..1500 {
        let at = SimTime(rng.gen_range(5_000_000));
        sim.queue.push(at, oracle.push(at));
    }
    sim.run_to_completion();
    for &step in &sim.model.steps {
        match step {
            Step::Dispatched(t, ev) => {
                assert_eq!(oracle.pop(), Some((t, ev)), "dispatch left oracle order")
            }
            Step::Pushed(at) => {
                oracle.push(at);
            }
        }
    }
    assert!(oracle.pending.is_empty());
    assert_eq!(sim.queue.total_pushed(), oracle.next_seq);
}
