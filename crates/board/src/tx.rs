//! The transmit processor — segmentation firmware on the send-side i80960.
//!
//! "The general paradigm is that the host passes buffer descriptors to the
//! microprocessor through the dual-port RAM, and the microprocessor
//! executes a segmentation algorithm to determine the order in which cells
//! are sent." (§1)
//!
//! One descriptor chain (ending in an end-of-PDU flag) describes one PDU as
//! a list of discontiguous physical buffers (§2.5.2). Servicing a PDU:
//!
//! 1. pop the chain from the highest-priority non-empty transmit queue
//!    (ADC queues carry priorities, §3.2);
//! 2. plan the DMA fetch of the PDU's bytes under the configured
//!    [`DmaMode`] and the page-boundary-stop rule;
//! 3. issue the fetch transactions on the host bus (each pays the 13-cycle
//!    TURBOchannel read overhead);
//! 4. segment into cells, each costing a firmware budget on the 80960, and
//!    hand them to the striped link as their bytes land on board;
//! 5. advance the tail pointer — *that*, not an interrupt, is how the host
//!    learns the buffers are reusable (§2.1.2); the only transmit
//!    interrupt is the full → half-empty wakeup for a blocked host.

use std::collections::{HashMap, HashSet};

use osiris_atm::sar::{FramingMode, SegmentUnit, Segmenter};
use osiris_atm::{CellRef, CellSlab, StripedLink, Vci};
use osiris_mem::{MemorySystem, PhysBuffer, PhysMemory};
use osiris_sim::obs::{Counter, Probe};
use osiris_sim::{Clock, FifoResource, FxHashMap, SimTime, SymId, Timeline};

use crate::descriptor::{DescRing, Descriptor};
use crate::dma::{plan_dma, DmaMode};
use crate::dpram::{DpramLayout, QUEUE_PAGES};

/// Cycle budgets for the on-board microprocessors.
#[derive(Debug, Clone, Copy)]
pub struct FirmwareSpec {
    /// The i80960's clock.
    pub clock: Clock,
    /// Cycles to process one outgoing cell (build header, command DMA,
    /// command the cell generator).
    pub tx_cell_cycles: u64,
    /// Cycles of per-PDU work (descriptor chain pop, queue scan, tail
    /// update).
    pub tx_pdu_cycles: u64,
    /// Cycles to process one incoming cell in the common, in-order case
    /// (read VCI/AAL FIFO, table lookup, command DMA).
    pub rx_cell_cycles: u64,
    /// Extra per-cell cycles when a skew-tolerant reassembly strategy is
    /// active — the "tight instruction budget" cost of §2.6.
    pub rx_reorder_extra_cycles: u64,
    /// Cycles of per-PDU completion work (queue append, interrupt check).
    pub rx_pdu_cycles: u64,
}

impl FirmwareSpec {
    /// Calibrated so that in-order reassembly sustains roughly OC-12 cell
    /// rate in firmware, matching §5: "we were still able to reassemble ATM
    /// cells ... at approximately OC-12 speeds in software".
    pub fn paper_default() -> Self {
        FirmwareSpec {
            clock: Clock::from_mhz(33),
            tx_cell_cycles: 22,
            tx_pdu_cycles: 120,
            rx_cell_cycles: 20,
            rx_reorder_extra_cycles: 14,
            rx_pdu_cycles: 100,
        }
    }
}

/// Transmit-half configuration.
#[derive(Debug, Clone, Copy)]
pub struct TxConfig {
    /// DMA transfer-length rule for fetching PDU bytes from host memory.
    /// The paper's hardware was still single-cell on the transmit side
    /// ("a hardware change to allow longer DMA transfers in this direction
    /// is underway", §4).
    pub dma_mode: DmaMode,
    /// End-of-PDU framing written into the cells.
    pub framing: FramingMode,
    /// Whether cells may span buffer boundaries (§2.5.2).
    pub unit: SegmentUnit,
    /// Host page size (page-boundary-stop rule).
    pub page_size: u64,
    /// Firmware budgets.
    pub fw: FirmwareSpec,
}

impl TxConfig {
    /// The configuration the paper measured (Figure 4).
    pub fn paper_default() -> Self {
        TxConfig {
            dma_mode: DmaMode::SingleCell,
            framing: FramingMode::EndOfPdu,
            unit: SegmentUnit::Pdu,
            page_size: 4096,
            fw: FirmwareSpec::paper_default(),
        }
    }
}

/// The result of servicing one PDU.
#[derive(Debug)]
pub struct TxOutcome {
    /// Which transmit queue the PDU came from.
    pub queue: usize,
    /// The PDU's VCI.
    pub vci: Vci,
    /// Data bytes transmitted.
    pub pdu_bytes: u64,
    /// Cells that arrive at the peer: `(arrival_at_peer, lane, cell)`,
    /// where the cell is a slab handle into the [`CellSlab`] passed to
    /// [`TxProcessor::service`] — cells move by reference, not by clone.
    /// Cells the link dropped have no entry here (their slots are freed
    /// back to the slab) — they are counted in
    /// [`TxOutcome::cells_dropped`] instead.
    pub arrivals: Vec<(SimTime, usize, CellRef)>,
    /// Cells the link dropped in flight. The PDU still completes on the
    /// transmit side — the tail pointer advances and the host reuses the
    /// buffers (completed-with-error, never leaked); recovering the data
    /// is the protocol stack's job.
    pub cells_dropped: u32,
    /// When the transmit engine finished the PDU (tail visible to host).
    pub finished_at: SimTime,
    /// If the host was blocked on a full queue that has now drained to
    /// half: the time to deliver the wakeup interrupt.
    pub wake_host_at: Option<SimTime>,
    /// True if at least one more complete PDU chain is queued.
    pub more_work: bool,
    /// §3.2 protection: the chain referenced memory outside the queue's
    /// authorized page list. Nothing was transmitted; the board asserts a
    /// violation interrupt and the OS raises an exception in the
    /// offending application.
    pub violation: bool,
}

/// The transmit half of the board.
#[derive(Debug)]
pub struct TxProcessor {
    cfg: TxConfig,
    queues: Vec<DescRing>,
    priorities: Vec<u8>,
    host_waiting: Vec<bool>,
    authorized: Vec<Option<HashSet<u64>>>,
    violations: Counter,
    engine: FifoResource,
    pdus_sent: Counter,
    cells_sent: Counter,
    cells_dropped: Counter,
    bytes_sent: Counter,
    wakeups: Counter,
    /// Per-PDU tracing sink (disabled until the harness installs one).
    timeline: Timeline,
    /// Track prefix for this processor's spans (`<scope>.tx`).
    track: String,
    /// Interned span keys, re-interned whenever a timeline is installed,
    /// so hot-path span emission is an array-index push — no `String`
    /// allocation or hashing per cell.
    syms: TxSyms,
    /// Per-lane track symbols (`<track>.lane<i>`), grown on demand.
    lane_tracks: Vec<SymId>,
    /// End of the last DMA grant issued — bus-wait spans are clamped
    /// behind it so same-track spans never overlap.
    last_dma_end: SimTime,
    /// Per-VCI PDU sequence counters (wrapping). FourWay framing tags
    /// every cell with its PDU's number so the peer's reassembler can
    /// detect a lane slipping onto the next PDU after cell loss.
    pdu_seq: FxHashMap<Vci, u16>,
}

/// The transmit processor's interned track/name symbols.
#[derive(Debug, Clone, Copy)]
struct TxSyms {
    track: SymId,
    dma_track: SymId,
    bus_wait: SymId,
    dma_tx: SymId,
    fw_tx: SymId,
    lane_tx: SymId,
}

impl TxSyms {
    fn intern(timeline: &Timeline, track: &str) -> TxSyms {
        TxSyms {
            track: timeline.intern(track),
            dma_track: timeline.intern(&format!("{track}.dma")),
            bus_wait: timeline.intern("bus.wait"),
            dma_tx: timeline.intern("dma.tx"),
            fw_tx: timeline.intern("fw.tx"),
            lane_tx: timeline.intern("lane.tx"),
        }
    }
}

impl TxProcessor {
    /// A transmit processor with one ring per dual-port page and detached
    /// counters (standalone use).
    pub fn new(cfg: TxConfig, layout: DpramLayout) -> Self {
        TxProcessor::with_probe(cfg, layout, &Probe::detached())
    }

    /// A transmit processor publishing its counters under `<scope>.tx`.
    pub fn with_probe(cfg: TxConfig, layout: DpramLayout, probe: &Probe) -> Self {
        let p = probe.scoped("tx");
        let timeline = Timeline::default();
        let track = p.scope().to_string();
        let syms = TxSyms::intern(&timeline, &track);
        TxProcessor {
            cfg,
            queues: (0..QUEUE_PAGES)
                .map(|_| DescRing::new(layout.tx_ring_slots))
                .collect(),
            priorities: vec![0; QUEUE_PAGES],
            host_waiting: vec![false; QUEUE_PAGES],
            authorized: vec![None; QUEUE_PAGES],
            violations: p.counter("violations"),
            engine: FifoResource::new("tx-80960"),
            pdus_sent: p.counter("pdus_sent"),
            cells_sent: p.counter("cells_sent"),
            cells_dropped: p.counter("cells_dropped"),
            bytes_sent: p.counter("bytes_sent"),
            wakeups: p.counter("wakeups"),
            timeline,
            track,
            syms,
            lane_tracks: Vec::new(),
            last_dma_end: SimTime::ZERO,
            pdu_seq: FxHashMap::default(),
        }
    }

    /// Installs the shared timeline this processor opens its per-PDU
    /// spans on (`fw.tx` on `<scope>.tx`, `bus.wait`/`dma.tx` on
    /// `<scope>.tx.dma`, per-lane wire spans on `<scope>.tx.lane<i>`).
    pub fn set_timeline(&mut self, timeline: &Timeline) {
        self.timeline = timeline.clone();
        self.syms = TxSyms::intern(&self.timeline, &self.track);
        self.lane_tracks.clear();
    }

    /// The interned track symbol for `<track>.lane<lane>`, grown lazily
    /// (lane count is a link property the processor doesn't know).
    fn lane_track(&mut self, lane: usize) -> SymId {
        while self.lane_tracks.len() <= lane {
            let l = self.lane_tracks.len();
            self.lane_tracks
                .push(self.timeline.intern(&format!("{}.lane{l}", self.track)));
        }
        self.lane_tracks[lane]
    }

    /// The configuration in force.
    pub fn config(&self) -> &TxConfig {
        &self.cfg
    }

    /// Host-side access to transmit queue `q` (the driver pays the
    /// TURBOchannel costs reported by the ring operations).
    pub fn queue_mut(&mut self, q: usize) -> &mut DescRing {
        &mut self.queues[q]
    }

    /// Read-only queue access.
    pub fn queue(&self, q: usize) -> &DescRing {
        &self.queues[q]
    }

    /// Sets the transmit priority of queue `q` (higher wins; §3.2).
    pub fn set_priority(&mut self, q: usize, prio: u8) {
        self.priorities[q] = prio;
    }

    /// Marks the host as blocked on queue `q` being full; the processor
    /// will raise a wakeup when the queue drains to half empty (§2.1.2).
    pub fn set_host_waiting(&mut self, q: usize) {
        self.host_waiting[q] = true;
    }

    /// Restricts queue `q` to DMA within the given page frames (§3.2's
    /// "list of physical pages … determines which pages the application
    /// can legally use"). `None` removes the restriction (kernel queues).
    pub fn set_authorized_frames(&mut self, q: usize, frames: Option<HashSet<u64>>) {
        self.authorized[q] = frames;
    }

    /// Protection violations detected on transmit queues.
    pub fn violations(&self) -> u64 {
        self.violations.get()
    }

    /// PDUs transmitted over the processor's lifetime.
    pub fn pdus_sent(&self) -> u64 {
        self.pdus_sent.get()
    }

    /// Cells transmitted.
    pub fn cells_sent(&self) -> u64 {
        self.cells_sent.get()
    }

    /// Cells the link dropped in flight (lifetime total).
    pub fn cells_dropped(&self) -> u64 {
        self.cells_dropped.get()
    }

    /// Data bytes transmitted.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.get()
    }

    /// Full → half-empty wakeup interrupts raised (§2.1.2).
    pub fn wakeups(&self) -> u64 {
        self.wakeups.get()
    }

    /// When the transmit engine next goes idle.
    pub fn engine_free_at(&self) -> SimTime {
        self.engine.free_at()
    }

    /// True if some queue holds a complete descriptor chain.
    pub fn has_work(&self) -> bool {
        self.queues.iter().any(has_complete_chain)
    }

    /// Services one PDU: pops the highest-priority complete chain, fetches
    /// its bytes over the host bus, segments, and hands cells to `link`.
    /// Outgoing cells are parked in `slab` and travel as [`CellRef`]
    /// handles (see [`TxOutcome::arrivals`]). Returns `None` when no
    /// complete chain is queued.
    pub fn service(
        &mut self,
        now: SimTime,
        mem: &mut MemorySystem,
        phys: &PhysMemory,
        link: &mut StripedLink,
        slab: &mut CellSlab,
    ) -> Option<TxOutcome> {
        let q = self.pick_queue()?;

        // Pop the descriptor chain (board-local accesses, folded into the
        // per-PDU firmware budget).
        let mut chain: Vec<Descriptor> = Vec::new();
        loop {
            let (d, _cost) = self.queues[q].pop().expect("chain verified complete");
            let eop = d.eop;
            chain.push(d);
            if eop {
                break;
            }
        }
        let vci = chain[0].vci;
        let pdu_bytes: u64 = chain.iter().map(|d| d.len as u64).sum();

        // §3.2: enforce the authorized page list before touching memory.
        if let Some(frames) = &self.authorized[q] {
            let ps = self.cfg.page_size;
            let bad = chain.iter().any(|d| {
                let first = d.addr.0 / ps;
                let last = (d.addr.0 + d.len.max(1) as u64 - 1) / ps;
                (first..=last).any(|f| !frames.contains(&f))
            });
            if bad {
                self.violations.incr();
                let g = self
                    .engine
                    .acquire(now, self.cfg.fw.clock.cycles(self.cfg.fw.tx_pdu_cycles));
                return Some(TxOutcome {
                    queue: q,
                    vci,
                    pdu_bytes: 0,
                    arrivals: Vec::new(),
                    cells_dropped: 0,
                    finished_at: g.finish,
                    wake_host_at: None,
                    more_work: self.has_work(),
                    violation: true,
                });
            }
        }

        // Per-PDU firmware work.
        let pdu_grant = self
            .engine
            .acquire(now, self.cfg.fw.clock.cycles(self.cfg.fw.tx_pdu_cycles));
        let mut fw_cursor = pdu_grant.finish;
        let ctx = chain.iter().find_map(|d| d.ctx);
        let traced = ctx.filter(|_| self.timeline.is_enabled());

        // Fetch plan: every physically contiguous piece, split by DMA mode
        // and the page-boundary-stop rule.
        let pieces: Vec<PhysBuffer> = chain
            .iter()
            .map(|d| PhysBuffer::new(d.addr, d.len))
            .collect();
        let mut fetch_done_at: Vec<(u64, SimTime)> = Vec::new(); // (cumulative bytes, time)
        let mut fetched = 0u64;
        for piece in &pieces {
            for xfer in plan_dma(self.cfg.dma_mode, piece.addr, piece.len, self.cfg.page_size) {
                let g = mem.dma_read(fw_cursor, xfer.len as u64);
                if let Some(c) = traced {
                    // Bus arbitration (clamped behind the previous grant
                    // so spans on the DMA track never overlap), then the
                    // fetch itself.
                    let wait_from = fw_cursor.max(self.last_dma_end);
                    if g.start > wait_from {
                        self.timeline.span_ctx_sym(
                            self.syms.dma_track,
                            self.syms.bus_wait,
                            c,
                            wait_from,
                            g.start,
                        );
                    }
                    self.timeline.span_ctx_sym(
                        self.syms.dma_track,
                        self.syms.dma_tx,
                        c,
                        g.start,
                        g.finish,
                    );
                }
                self.last_dma_end = self.last_dma_end.max(g.finish);
                fetched += xfer.len as u64;
                fetch_done_at.push((fetched, g.finish));
            }
        }

        // Gather the actual bytes (contents; timing handled above).
        let buffers: Vec<Vec<u8>> = chain
            .iter()
            .map(|d| phys.read(d.addr, d.len as usize).to_vec())
            .collect();
        let slices: Vec<&[u8]> = buffers.iter().map(|b| b.as_slice()).collect();
        let segmenter = Segmenter {
            framing: self.cfg.framing,
            unit: self.cfg.unit,
        };
        let seq = self.pdu_seq.entry(vci).or_insert(0);
        let cells = segmenter.segment_numbered(vci, *seq, &slices);
        *seq = seq.wrapping_add(1);

        // Launch cells: each needs its firmware slot and its bytes fetched.
        let mut arrivals = Vec::with_capacity(cells.len());
        let mut dropped = 0u32;
        let mut data_cursor = 0u64;
        let mut fetch_idx = 0usize;
        let mut last_finish = fw_cursor;
        // Per-lane wire window for this PDU: first cell handed to the
        // lane → last arrival at the peer.
        let mut lane_win: HashMap<usize, (SimTime, SimTime)> = HashMap::new();
        for (i, mut cell) in cells.into_iter().enumerate() {
            let fw_grant = self.engine.acquire(
                fw_cursor,
                self.cfg.fw.clock.cycles(self.cfg.fw.tx_cell_cycles),
            );
            fw_cursor = fw_grant.finish;
            data_cursor += cell.aal.fill as u64;
            while fetch_idx < fetch_done_at.len() && fetch_done_at[fetch_idx].0 < data_cursor {
                fetch_idx += 1;
            }
            let data_ready = fetch_done_at
                .get(fetch_idx)
                .map(|&(_, t)| t)
                .unwrap_or_else(|| fetch_done_at.last().map(|&(_, t)| t).unwrap_or(fw_cursor));
            let ready = fw_grant.finish.max(data_ready);
            last_finish = last_finish.max(ready);
            self.cells_sent.incr();
            cell.ctx = ctx;
            let r = slab.insert(cell);
            if let Some((lane, arrival)) = link.send_cell_ref(ready, i as u32, r, slab) {
                lane_win
                    .entry(lane)
                    .and_modify(|w| {
                        w.0 = w.0.min(ready);
                        w.1 = w.1.max(arrival);
                    })
                    .or_insert((ready, arrival));
                arrivals.push((arrival, lane, r));
            } else {
                dropped += 1;
                self.cells_dropped.incr();
            }
        }

        self.pdus_sent.incr();
        self.bytes_sent.add(pdu_bytes);

        if let Some(c) = traced {
            // The segmentation umbrella: per-PDU firmware work up to the
            // last cell launched. DMA and wire spans nest inside; the
            // residue is firmware cycles and fetch pipelining.
            self.timeline.span_ctx_sym(
                self.syms.track,
                self.syms.fw_tx,
                c,
                pdu_grant.start,
                last_finish,
            );
            let mut lanes: Vec<_> = lane_win.into_iter().collect();
            lanes.sort_unstable_by_key(|&(l, _)| l);
            for (lane, (from, to)) in lanes {
                let lane_track = self.lane_track(lane);
                self.timeline
                    .span_ctx_sym(lane_track, self.syms.lane_tx, c, from, to);
            }
        }

        // Full → half-empty wakeup.
        let wake_host_at = if self.host_waiting[q] && self.queues[q].at_most_half_full() {
            self.host_waiting[q] = false;
            self.wakeups.incr();
            Some(last_finish)
        } else {
            None
        };

        Some(TxOutcome {
            queue: q,
            vci,
            pdu_bytes,
            arrivals,
            cells_dropped: dropped,
            finished_at: last_finish,
            wake_host_at,
            more_work: self.has_work(),
            violation: false,
        })
    }

    /// Highest-priority queue holding a complete chain (ties → lowest
    /// index; the kernel queue is index 0).
    fn pick_queue(&self) -> Option<usize> {
        (0..self.queues.len())
            .filter(|&q| has_complete_chain(&self.queues[q]))
            .max_by_key(|&q| (self.priorities[q], std::cmp::Reverse(q)))
    }
}

/// Does the ring hold at least one full chain (an EOP descriptor)?
fn has_complete_chain(ring: &DescRing) -> bool {
    // Scan from tail to head. DescRing has no iterator over live slots;
    // emulate with peeks via a cheap clone of indices.
    ring.iter_live().any(|d| d.eop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use osiris_atm::stripe::SkewConfig;
    use osiris_atm::LinkSpec;
    use osiris_mem::{BusSpec, PhysAddr};

    fn setup() -> (TxProcessor, MemorySystem, PhysMemory, StripedLink, CellSlab) {
        let tx = TxProcessor::new(TxConfig::paper_default(), DpramLayout::paper_default());
        let mem = MemorySystem::new(BusSpec::ds5000_200());
        let mut phys = PhysMemory::new(1 << 20, 4096);
        // A recognisable pattern at 0x4000.
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        phys.write(PhysAddr(0x4000), &data);
        let link = StripedLink::new(LinkSpec::sts3c_back_to_back(), &SkewConfig::none());
        (tx, mem, phys, link, CellSlab::new())
    }

    fn queue_pdu(tx: &mut TxProcessor, q: usize, bufs: &[(u64, u32)], vci: Vci) {
        let n = bufs.len();
        for (i, &(addr, len)) in bufs.iter().enumerate() {
            tx.queue_mut(q)
                .push(Descriptor::tx(PhysAddr(addr), len, vci, i == n - 1))
                .unwrap();
        }
    }

    #[test]
    fn no_work_returns_none() {
        let (mut tx, mut mem, phys, mut link, mut slab) = setup();
        assert!(tx
            .service(SimTime::ZERO, &mut mem, &phys, &mut link, &mut slab)
            .is_none());
        assert!(!tx.has_work());
    }

    #[test]
    fn incomplete_chain_is_not_serviced() {
        let (mut tx, mut mem, phys, mut link, mut slab) = setup();
        tx.queue_mut(0)
            .push(Descriptor::tx(PhysAddr(0x4000), 100, Vci(7), false))
            .unwrap();
        assert!(tx
            .service(SimTime::ZERO, &mut mem, &phys, &mut link, &mut slab)
            .is_none());
    }

    #[test]
    fn single_buffer_pdu_transmits_all_cells() {
        let (mut tx, mut mem, phys, mut link, mut slab) = setup();
        queue_pdu(&mut tx, 0, &[(0x4000, 1000)], Vci(7));
        let out = tx
            .service(SimTime::ZERO, &mut mem, &phys, &mut link, &mut slab)
            .unwrap();
        assert_eq!(out.pdu_bytes, 1000);
        assert_eq!(out.arrivals.len(), 1000usize.div_ceil(44));
        assert_eq!(out.vci, Vci(7));
        assert!(!out.more_work);
        assert_eq!(tx.pdus_sent(), 1);
        // Data integrity: cells carry the memory contents in order.
        let mut rebuilt = Vec::new();
        for &(_, _, r) in &out.arrivals {
            rebuilt.extend_from_slice(slab.get(r).data_bytes());
        }
        assert_eq!(rebuilt.len(), 1000);
        assert_eq!(&rebuilt[..], phys.read(PhysAddr(0x4000), 1000));
    }

    #[test]
    fn chain_of_buffers_is_one_pdu() {
        let (mut tx, mut mem, phys, mut link, mut slab) = setup();
        queue_pdu(&mut tx, 0, &[(0x4000, 100), (0x5000, 60)], Vci(3));
        let out = tx
            .service(SimTime::ZERO, &mut mem, &phys, &mut link, &mut slab)
            .unwrap();
        assert_eq!(out.pdu_bytes, 160);
        // Pdu unit: 160 bytes → 4 cells (44+44+44+28), spanning buffers.
        assert_eq!(out.arrivals.len(), 4);
        let last = slab.get(out.arrivals[3].2);
        assert!(last.header.last_cell);
        assert!(last.aal.eom);
    }

    #[test]
    fn arrivals_are_time_ordered_per_lane_and_paced_by_bus() {
        let (mut tx, mut mem, phys, mut link, mut slab) = setup();
        queue_pdu(&mut tx, 0, &[(0x4000, 16 * 1024)], Vci(1));
        let t0 = SimTime::from_us(10);
        let out = tx
            .service(t0, &mut mem, &phys, &mut link, &mut slab)
            .unwrap();
        let n = out.arrivals.len() as u64;
        assert_eq!(n, (16 * 1024u64).div_ceil(44));
        // Sustained rate can't beat the single-cell DMA ceiling (367 Mbps).
        let span = out.finished_at.since(t0);
        let mbps = span.mbps_for_bytes(16 * 1024);
        assert!(mbps < 370.0, "tx rate {mbps} exceeds single-cell ceiling");
        assert!(mbps > 250.0, "tx rate {mbps} implausibly slow");
    }

    #[test]
    fn priority_queue_wins() {
        let (mut tx, mut mem, phys, mut link, mut slab) = setup();
        queue_pdu(&mut tx, 0, &[(0x4000, 44)], Vci(1));
        queue_pdu(&mut tx, 3, &[(0x5000, 44)], Vci(2));
        tx.set_priority(3, 9);
        let out = tx
            .service(SimTime::ZERO, &mut mem, &phys, &mut link, &mut slab)
            .unwrap();
        assert_eq!(out.queue, 3);
        assert_eq!(out.vci, Vci(2));
        assert!(out.more_work, "queue 0 still has a PDU");
        let out2 = tx
            .service(out.finished_at, &mut mem, &phys, &mut link, &mut slab)
            .unwrap();
        assert_eq!(out2.queue, 0);
    }

    #[test]
    fn half_empty_wakeup_fires_once() {
        let (mut tx, mut mem, phys, mut link, mut slab) = setup();
        // Fill queue 0 with several one-buffer PDUs, then mark host blocked.
        for _ in 0..8 {
            queue_pdu(&mut tx, 0, &[(0x4000, 44)], Vci(1));
        }
        tx.set_host_waiting(0);
        let mut woke = 0;
        let mut t = SimTime::ZERO;
        while let Some(out) = tx.service(t, &mut mem, &phys, &mut link, &mut slab) {
            if out.wake_host_at.is_some() {
                woke += 1;
            }
            t = out.finished_at;
        }
        assert_eq!(woke, 1, "exactly one wakeup for a blocked host");
    }

    #[test]
    fn dropped_cells_complete_with_error_instead_of_leaking() {
        let (mut tx, mut mem, phys, _, mut slab) = setup();
        // A link that drops every cell.
        let skew = SkewConfig {
            drop_prob: 1.0,
            ..SkewConfig::none()
        };
        let mut link = StripedLink::new(LinkSpec::sts3c_back_to_back(), &skew);
        queue_pdu(&mut tx, 0, &[(0x4000, 1000)], Vci(7));
        let out = tx
            .service(SimTime::ZERO, &mut mem, &phys, &mut link, &mut slab)
            .unwrap();
        // Nothing arrives, but the PDU is still completed: the drop is
        // surfaced, the tail advances, and the queue slot is reusable.
        assert!(out.arrivals.is_empty());
        assert_eq!(out.cells_dropped, 1000u32.div_ceil(44));
        assert_eq!(tx.cells_dropped(), out.cells_dropped as u64);
        assert!(out.finished_at > SimTime::ZERO);
        assert!(!out.more_work);
        assert!(!tx.has_work(), "chain must be consumed, not stuck");
        // The queue accepts and services the next PDU normally.
        queue_pdu(&mut tx, 0, &[(0x4000, 44)], Vci(7));
        let out2 = tx
            .service(out.finished_at, &mut mem, &phys, &mut link, &mut slab)
            .unwrap();
        assert_eq!(out2.cells_dropped, 1);
    }

    #[test]
    fn double_cell_mode_speeds_up_fetch() {
        let (_, mut mem_a, phys, mut link_a, mut slab) = setup();
        let mut tx_a = TxProcessor::new(TxConfig::paper_default(), DpramLayout::paper_default());
        queue_pdu(&mut tx_a, 0, &[(0x4000, 16 * 1024)], Vci(1));
        let single = tx_a
            .service(SimTime::ZERO, &mut mem_a, &phys, &mut link_a, &mut slab)
            .unwrap();

        let mut cfg = TxConfig::paper_default();
        cfg.dma_mode = DmaMode::DoubleCell;
        let mut tx_b = TxProcessor::new(cfg, DpramLayout::paper_default());
        let mut mem_b = MemorySystem::new(BusSpec::ds5000_200());
        let mut link_b = StripedLink::new(LinkSpec::sts3c_back_to_back(), &SkewConfig::none());
        queue_pdu(&mut tx_b, 0, &[(0x4000, 16 * 1024)], Vci(1));
        let double = tx_b
            .service(SimTime::ZERO, &mut mem_b, &phys, &mut link_b, &mut slab)
            .unwrap();

        assert!(
            double.finished_at < single.finished_at,
            "double-cell DMA must finish sooner: {} vs {}",
            double.finished_at,
            single.finished_at
        );
    }
}
