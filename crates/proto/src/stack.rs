//! The cost-charging UDP/IP engine.
//!
//! Output builds real packets: headers are written into a kernel slab
//! (each contributing its own physical buffer, exactly the §2.2 "header
//! portion usually contributes one physical buffer" effect), data is
//! fragmented by the message tool without copying, and the optional UDP
//! checksum reads every data byte through the cache model.
//!
//! Input parses and verifies real headers out of the receive buffers,
//! reassembles fragments, and — the §2.3 centrepiece — when a UDP
//! checksum mismatch coincides with stale cache lines, performs the lazy
//! recovery: "the corresponding cache locations are invalidated, and the
//! message is re-evaluated before it is considered in error".

use std::collections::{BTreeMap, HashMap, VecDeque};

use osiris_board::descriptor::Descriptor;
use osiris_host::driver::DeliveredPdu;
use osiris_host::machine::{internet_checksum, HostMachine};
use osiris_mem::{AddressSpace, MapError, PhysAddr, PhysBuffer, VirtAddr};
use osiris_sim::obs::{Counter, Probe};
use osiris_sim::{SimDuration, SimTime, Timeline, TraceCtx};

use std::collections::HashSet;

use crate::frag::fragment_layout;
use crate::msg::Message;
use crate::wire::{IpHeader, UdpHeader, IPPROTO_UDP, IP_HEADER_BYTES, UDP_HEADER_BYTES};

/// The UDP port reserved for acknowledgements in reliable mode. Data
/// traffic must not use it.
pub const ACK_PORT: u16 = 1;

/// Selective repeat mints acknowledgement datagram ids in their own range
/// so ack traffic never punches holes into the receiver's contiguous
/// *data*-id window (ids below this are data, at/above are acks).
pub const ACK_ID_BASE: u32 = 0x8000_0000;

/// Wire size of a selective-repeat block acknowledgement payload:
/// `[base u32][bitmap u64][credits u16][pace_ns u32][flags u8]`. A legacy
/// stop-and-wait ack is 4 bytes; the receiver dispatches on length.
pub const BLOCK_ACK_BYTES: usize = 19;

/// Block-ack flag bit: at least one cell of this flow crossed a switch
/// output queue above the ECN mark threshold since the last ack.
pub const ACK_FLAG_ECN: u8 = 0x01;

/// A decoded selective-repeat block acknowledgement (see
/// [`BLOCK_ACK_BYTES`] for the wire layout).
#[derive(Debug, Clone, Copy)]
struct BlockAck {
    /// Cumulative ack: every datagram id below this has been delivered.
    base: u32,
    /// Selective bits for ids `base..base + 64`.
    bitmap: u64,
    /// Receiver's free reassembly slots (credit-based flow control).
    credits: u16,
    /// Receiver's smoothed inter-delivery gap (receiver-driven pacing).
    pace_ns: u32,
    /// [`ACK_FLAG_ECN`] and future flag bits.
    flags: u8,
}

impl BlockAck {
    /// Decodes the big-endian wire payload.
    fn parse(payload: &[u8; BLOCK_ACK_BYTES]) -> Self {
        Self {
            base: u32::from_be_bytes(payload[0..4].try_into().expect("4 bytes")),
            bitmap: u64::from_be_bytes(payload[4..12].try_into().expect("8 bytes")),
            credits: u16::from_be_bytes(payload[12..14].try_into().expect("2 bytes")),
            pace_ns: u32::from_be_bytes(payload[14..18].try_into().expect("4 bytes")),
            flags: payload[18],
        }
    }
}

/// Reliable-mode transport discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportMode {
    /// One ack per datagram, exponential RTO (the PR 4 baseline, kept
    /// selectable for comparison — it collapses at incast scale).
    StopAndWait,
    /// A windowed selective repeat: a configurable number of datagrams in
    /// flight per (src, dst) pair, the receive state summarized as a
    /// `base + bitmap` block ack, SACK-driven retransmits with the
    /// exponential RTO as the fallback timer.
    SelectiveRepeat,
}

/// Congestion control layered on the selective-repeat window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcScheme {
    /// Window-limited only.
    None,
    /// ATM-era credit-based flow control: every block ack advertises how
    /// many reassembly slots the receiver has free; the sender never has
    /// more datagrams in flight than the latest grant.
    Credit,
    /// ECN-style: the switch marks cells that cross an output-queue
    /// threshold, the receiver echoes the mark on its next block ack, and
    /// the sender halves its congestion window (at most once per window
    /// of data), growing it additively on clean acks.
    Ecn,
    /// Receiver-driven pacing: the receiver advertises its smoothed
    /// inter-delivery gap and the sender spaces datagram admissions by it.
    Pacing,
}

/// Stack configuration.
#[derive(Debug, Clone, Copy)]
pub struct ProtoConfig {
    /// Largest PDU handed to the driver, including the IP header (§4 uses
    /// 16 KB plus headers so data stays page-aligned).
    pub mtu: u32,
    /// Whether UDP checksums the data (off in the latency experiments).
    pub udp_checksum: bool,
    /// Opt-in reliable mode: every outgoing datagram is held for
    /// acknowledgement and retransmitted with exponential backoff until
    /// acked or [`ProtoConfig::max_retries`] is exhausted; the receiver
    /// acks each delivered datagram on [`ACK_PORT`] and suppresses (but
    /// re-acks) duplicates. The paper's stack is unreliable UDP — this
    /// exists for the loss-sweep experiments.
    pub reliable: bool,
    /// Initial retransmission timeout (doubles per retry).
    pub rto_initial: SimDuration,
    /// Backoff ceiling.
    pub rto_max: SimDuration,
    /// Retries before a datagram is abandoned (bounds every run).
    pub max_retries: u32,
    /// Reliable-mode transport discipline.
    pub transport: TransportMode,
    /// Congestion control (selective repeat only).
    pub cc: CcScheme,
    /// Selective repeat: max datagrams in flight per destination (clamped
    /// to 64, the block-ack bitmap width).
    pub window: u32,
    /// Selective repeat: deliveries coalesced per block ack (1 = ack every
    /// datagram; duplicates always force an immediate ack).
    pub ack_every: u32,
    /// Selective repeat: block acks showing a hole below newer acked data
    /// before the hole is retransmitted without waiting for its RTO.
    pub sack_thresh: u32,
}

impl ProtoConfig {
    /// The paper's configuration: 16 KB of data per fragment (page-aligned
    /// MTU), checksumming off, no reliability.
    pub fn paper_default() -> Self {
        ProtoConfig {
            mtu: 16 * 1024 + IP_HEADER_BYTES as u32,
            udp_checksum: false,
            reliable: false,
            rto_initial: SimDuration::from_ms(2),
            rto_max: SimDuration::from_ms(64),
            max_retries: 16,
            transport: TransportMode::StopAndWait,
            cc: CcScheme::None,
            window: 16,
            ack_every: 1,
            sack_thresh: 2,
        }
    }

    /// Effective selective-repeat window (the bitmap caps it at 64).
    pub fn window_cap(&self) -> u32 {
        self.window.clamp(1, 64)
    }
}

/// One PDU ready for the driver.
#[derive(Debug, Clone)]
pub struct TxPacket {
    /// Header + data segments, in order.
    pub msg: Message<VirtAddr>,
    /// Causal identity of the datagram this packet fragments — every
    /// fragment of one `output` call shares it, and it matches the IP
    /// reassembly key `(src, id)` the receiver re-mints.
    pub ctx: TraceCtx,
}

/// The outcome of feeding one received PDU into the stack.
#[derive(Debug)]
pub enum RxVerdict {
    /// A fragment was absorbed; the datagram is still incomplete.
    Incomplete,
    /// A whole datagram was delivered to the application.
    Deliver {
        /// Source host (the IP header's model-level address), so the
        /// application can tell senders apart on a fan-in path.
        src: u16,
        /// Causal identity of the datagram (the sender's `TxPacket::ctx`,
        /// re-minted from the IP header when the carrier lost it).
        ctx: TraceCtx,
        /// Destination (local) port.
        dst_port: u16,
        /// The data, in receive buffers (headers stripped).
        data: Message<PhysAddr>,
        /// Every receive-buffer descriptor consumed by the datagram, for
        /// recycling once the application is done.
        descs: Vec<Descriptor>,
        /// Data length.
        len: u64,
    },
    /// The datagram was discarded.
    Drop {
        /// Why.
        reason: &'static str,
        /// Descriptors to recycle immediately.
        descs: Vec<Descriptor>,
    },
    /// Reliable mode: an acknowledgement arrived and the matching pending
    /// datagram (if any) was released.
    Ack {
        /// The acknowledged datagram id.
        acked: u32,
        /// Descriptors to recycle immediately.
        descs: Vec<Descriptor>,
    },
    /// Reliable mode: a datagram that was already delivered arrived again
    /// (its ack was lost, or a retransmission crossed the ack in flight).
    /// The caller must re-ack it — the sender is still waiting — and
    /// recycle the buffers without re-delivering to the application.
    Duplicate {
        /// Source host to re-ack.
        src: u16,
        /// The duplicate datagram's id.
        id: u32,
        /// Descriptors to recycle immediately.
        descs: Vec<Descriptor>,
    },
}

/// Stack counters — a point-in-time copy of the stack's registry
/// counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct StackStats {
    /// Datagrams delivered.
    pub delivered: u64,
    /// Datagrams dropped (bad header, bad checksum, …).
    pub dropped: u64,
    /// Checksum failures that lazy invalidation repaired (§2.3).
    pub lazy_recoveries: u64,
    /// Fragments emitted.
    pub frags_out: u64,
    /// Fragments absorbed.
    pub frags_in: u64,
    /// Reliable mode: datagrams retransmitted after an RTO expiry.
    pub retransmits: u64,
    /// Reliable mode: acknowledgements received.
    pub acks_received: u64,
    /// Reliable mode: duplicate datagrams suppressed at the receiver.
    pub dup_datagrams: u64,
    /// Duplicate fragments discarded during IP reassembly (retransmission
    /// overlapping a partially received datagram).
    pub dup_frags: u64,
    /// Reliable mode: datagrams abandoned after `max_retries`.
    pub gave_up: u64,
    /// Selective repeat: datagrams built but deferred by the window.
    pub window_deferred: u64,
    /// Selective repeat: holes retransmitted on SACK evidence (before RTO).
    pub sack_retransmits: u64,
    /// Selective repeat: block acks sent.
    pub block_acks: u64,
    /// ECN scheme: congestion-window halvings on echoed marks.
    pub ecn_halvings: u64,
    /// Selective repeat: window slots abandoned when a gave-up sender's
    /// data forced the receive window past an undelivered hole.
    pub holes_abandoned: u64,
    /// Orphaned partial reassemblies reaped (their buffers recycled).
    pub reasm_reaped: u64,
}

#[derive(Debug, Default)]
struct IpReassembly {
    total: Option<u64>,
    have: u64,
    /// (offset, data-message, descriptors), in arrival order.
    parts: Vec<(u64, Message<PhysAddr>, Vec<Descriptor>)>,
    /// Last fragment arrival — stale entries (a gave-up sender's orphaned
    /// fragments) are reaped so their receive buffers recycle.
    last_at: SimTime,
}

/// A datagram awaiting acknowledgement (reliable mode).
#[derive(Debug)]
struct PendingMsg {
    /// The driver-ready packets, kept for retransmission. They reference
    /// the application's (still-mapped) virtual buffers plus the header
    /// slab slots written at `output` time. Dropped the moment the
    /// datagram is acked or abandoned — a gave-up datagram must not keep
    /// its fragment buffers pinned.
    packets: Vec<TxPacket>,
    /// When the RTO next expires.
    next_at: SimTime,
    retries: u32,
    /// Block acks that showed newer data acked while this id was still a
    /// hole (selective repeat's fast-retransmit evidence).
    sack_miss: u32,
}

/// Per-destination sender state (reliable mode). The pending map is a
/// `BTreeMap` on purpose: every scan (RTO expiry, SACK walk) iterates in
/// id order, so retransmit ordering is identical across runs — a
/// `HashMap` here would break the bit-identity contract.
#[derive(Debug)]
struct SendWindow {
    /// In-flight datagrams by id.
    pending: BTreeMap<u32, PendingMsg>,
    /// Built-but-unadmitted datagrams, FIFO (selective repeat only).
    deferred: VecDeque<(u32, Vec<TxPacket>)>,
    /// The backoff ladder is carried *per destination*, not per datagram:
    /// new datagrams inherit it and a retransmission whose ack crossed it
    /// in flight (retries > 0, an ambiguous sample) cannot reset it. Only
    /// an ack for a never-retransmitted datagram snaps it back.
    rto_cur: SimDuration,
    /// Congestion window in datagrams (ECN halves, clean acks grow).
    cwnd: u32,
    /// Latest advertised credit grant (credit scheme).
    credits: u32,
    /// Receiver-advertised admission gap (pacing scheme).
    pace_gap: SimDuration,
    /// Earliest time pacing admits the next datagram.
    pace_ok_at: SimTime,
    /// Highest data id handed to this destination so far.
    last_sent_id: u32,
    /// Ids at-or-below this were in flight at the last ECN halving; the
    /// window halves at most once until the ack base passes it.
    ecn_guard: u32,
}

impl SendWindow {
    fn new(cfg: &ProtoConfig) -> Self {
        SendWindow {
            pending: BTreeMap::new(),
            deferred: VecDeque::new(),
            rto_cur: cfg.rto_initial,
            cwnd: cfg.window_cap(),
            credits: cfg.window_cap(),
            pace_gap: SimDuration::ZERO,
            pace_ok_at: SimTime::ZERO,
            last_sent_id: 0,
            ecn_guard: 0,
        }
    }

    /// Datagrams the schemes currently allow in flight.
    fn effective_window(&self, cfg: &ProtoConfig) -> u32 {
        let mut w = cfg.window_cap();
        match cfg.cc {
            CcScheme::Ecn => w = w.min(self.cwnd),
            CcScheme::Credit => w = w.min(self.credits),
            CcScheme::None | CcScheme::Pacing => {}
        }
        w.max(1)
    }
}

/// Per-source receiver state (selective repeat): the delivery record is
/// the window itself — `base` plus a 64-bit bitmap — instead of PR 4's
/// unbounded seen-set.
#[derive(Debug)]
struct RecvWindow {
    /// Every data id below this is resolved (delivered, or abandoned by a
    /// gave-up sender that moved on).
    base: u32,
    /// Bit `k` set ⇔ id `base + k` delivered.
    bitmap: u64,
    /// Deliveries since the last block ack (ack_every coalescing).
    since_ack: u32,
    /// A cell of this flow was ECN-marked at the switch; echoed (and
    /// cleared) by the next block ack.
    ecn_pending: bool,
    /// Smoothed inter-delivery gap (the pacing advertisement).
    gap_ewma: SimDuration,
    last_deliver: Option<SimTime>,
}

impl RecvWindow {
    fn new() -> Self {
        RecvWindow {
            base: 1, // data ids start at 1
            bitmap: 0,
            since_ack: 0,
            ecn_pending: false,
            gap_ewma: SimDuration::ZERO,
            last_deliver: None,
        }
    }
}

/// The UDP/IP protocol engine for one host.
#[derive(Debug)]
pub struct ProtoStack {
    /// Configuration.
    pub cfg: ProtoConfig,
    slab_region: osiris_mem::VirtRegion,
    slab_base: VirtAddr,
    slab_slots: u32,
    slab_next: u32,
    ip_id: u32,
    /// This host's model-level IP address, stamped into outgoing headers.
    src_host: u16,
    /// In-flight reassemblies, keyed by `(source host, datagram id)` —
    /// ids are per-sender counters, so on a fan-in path (incast) two
    /// senders' datagrams may carry the same id concurrently.
    reasm: HashMap<(u16, u32), IpReassembly>,
    /// Reliable mode: per-destination send windows (BTreeMap so dst scans
    /// are ordered — see [`SendWindow`]).
    send: BTreeMap<u16, SendWindow>,
    /// Selective repeat: per-source receive windows.
    recv: BTreeMap<u16, RecvWindow>,
    /// Stop-and-wait only: `(src, id)` pairs already handed to the
    /// application, so retransmissions are re-acked but not re-delivered.
    /// (Selective repeat keys duplicate suppression by the window.)
    delivered_ids: HashSet<(u16, u32)>,
    /// Selective repeat: ack datagram id counter (its own range — see
    /// [`ACK_ID_BASE`]).
    ack_ip_id: u32,
    /// Packets admitted by ack processing (window slid, SACK retransmit,
    /// pacing release) for the caller to hand to the driver.
    released: Vec<TxPacket>,
    stats: StackCounters,
    timeline: Timeline,
    /// Timeline track for this stack's CPU spans (`<scope>.stack`).
    track: String,
    /// Protocol CPU is one resource: successive per-PDU spans on this
    /// track are clamped so they never overlap even when a call's nominal
    /// start predates the previous call's finish.
    tx_span_floor: SimTime,
    rx_span_floor: SimTime,
    /// Causal identity of the PDU currently in `input` (the carrier's, or
    /// re-minted from the parsed IP header).
    cur_rx_ctx: Option<TraceCtx>,
}

/// The stack's registry-visible counters (scope `<probe>.stack`).
#[derive(Debug, Clone)]
struct StackCounters {
    delivered: Counter,
    dropped: Counter,
    lazy_recoveries: Counter,
    frags_out: Counter,
    frags_in: Counter,
    retransmits: Counter,
    acks_received: Counter,
    dup_datagrams: Counter,
    dup_frags: Counter,
    gave_up: Counter,
    reasm_reaped: Counter,
    /// The `stack.window.*` family (selective-repeat machinery).
    w_deferred: Counter,
    w_sack_retransmits: Counter,
    w_block_acks: Counter,
    w_ecn_halvings: Counter,
    w_holes_abandoned: Counter,
}

impl StackCounters {
    fn with_probe(probe: &Probe) -> Self {
        let p = probe.scoped("stack");
        let w = p.scoped("window");
        StackCounters {
            delivered: p.counter("delivered"),
            dropped: p.counter("dropped"),
            lazy_recoveries: p.counter("lazy_recoveries"),
            frags_out: p.counter("frags_out"),
            frags_in: p.counter("frags_in"),
            retransmits: p.counter("retransmits"),
            acks_received: p.counter("acks_received"),
            dup_datagrams: p.counter("dup_datagrams"),
            dup_frags: p.counter("dup_frags"),
            gave_up: p.counter("gave_up"),
            reasm_reaped: p.counter("reasm_reaped"),
            w_deferred: w.counter("deferred"),
            w_sack_retransmits: w.counter("sack_retransmits"),
            w_block_acks: w.counter("block_acks"),
            w_ecn_halvings: w.counter("ecn_halvings"),
            w_holes_abandoned: w.counter("holes_abandoned"),
        }
    }
}

/// Bytes per header-slab slot (fits either header comfortably).
const SLAB_SLOT: u32 = 64;

impl ProtoStack {
    /// Builds a stack with detached counters, allocating its header slab
    /// in `asp` (standalone use).
    pub fn new(cfg: ProtoConfig, host: &mut HostMachine, asp: &mut AddressSpace) -> Self {
        ProtoStack::with_probe(cfg, host, asp, &Probe::detached())
    }

    /// Builds a stack publishing its counters under `<scope>.stack`.
    pub fn with_probe(
        cfg: ProtoConfig,
        host: &mut HostMachine,
        asp: &mut AddressSpace,
        probe: &Probe,
    ) -> Self {
        let slots = 1024u32;
        let region = asp
            .alloc_and_map((slots * SLAB_SLOT) as u64, &mut host.alloc)
            .expect("header slab allocation");
        // The slab is wired for its lifetime (boot cost, uncharged).
        asp.wire(region.base, region.len).expect("slab wiring");
        ProtoStack {
            cfg,
            slab_region: region,
            slab_base: region.base,
            slab_slots: slots,
            slab_next: 0,
            ip_id: 1,
            src_host: 0,
            reasm: HashMap::new(),
            send: BTreeMap::new(),
            recv: BTreeMap::new(),
            delivered_ids: HashSet::new(),
            ack_ip_id: ACK_ID_BASE,
            released: Vec::new(),
            stats: StackCounters::with_probe(probe),
            timeline: Timeline::default(),
            track: probe.scoped("stack").scope().to_string(),
            tx_span_floor: SimTime::ZERO,
            rx_span_floor: SimTime::ZERO,
            cur_rx_ctx: None,
        }
    }

    /// Attaches the timeline this stack records its per-PDU protocol
    /// spans on (disabled/detached by default).
    pub fn set_timeline(&mut self, timeline: &Timeline) {
        self.timeline = timeline.clone();
    }

    /// Sets the source-host address stamped into outgoing IP headers.
    pub fn set_src_host(&mut self, src: u16) {
        self.src_host = src;
    }

    /// Stack counters (a copy of the current values).
    pub fn stats(&self) -> StackStats {
        StackStats {
            delivered: self.stats.delivered.get(),
            dropped: self.stats.dropped.get(),
            lazy_recoveries: self.stats.lazy_recoveries.get(),
            frags_out: self.stats.frags_out.get(),
            frags_in: self.stats.frags_in.get(),
            retransmits: self.stats.retransmits.get(),
            acks_received: self.stats.acks_received.get(),
            dup_datagrams: self.stats.dup_datagrams.get(),
            dup_frags: self.stats.dup_frags.get(),
            gave_up: self.stats.gave_up.get(),
            window_deferred: self.stats.w_deferred.get(),
            sack_retransmits: self.stats.w_sack_retransmits.get(),
            block_acks: self.stats.w_block_acks.get(),
            ecn_halvings: self.stats.w_ecn_halvings.get(),
            holes_abandoned: self.stats.w_holes_abandoned.get(),
            reasm_reaped: self.stats.reasm_reaped.get(),
        }
    }

    /// The header slab's virtual region (ADC setup authorizes its frames).
    pub fn slab_region(&self) -> osiris_mem::VirtRegion {
        self.slab_region
    }

    fn slab_slot(&mut self) -> VirtAddr {
        let slot = self.slab_next % self.slab_slots;
        self.slab_next += 1;
        self.slab_base.offset((slot * SLAB_SLOT) as u64)
    }

    /// UDP + IP output: turns application `data` into driver-ready PDUs.
    /// Returns the packets and the time protocol processing finished.
    #[allow(clippy::too_many_arguments)]
    pub fn output(
        &mut self,
        now: SimTime,
        host: &mut HostMachine,
        asp: &AddressSpace,
        data: Message<VirtAddr>,
        src_port: u16,
        dst_port: u16,
        dst_host: u16,
    ) -> Result<(Vec<TxPacket>, SimTime), MapError> {
        let data_len = data.len();
        let mut t = now;

        // ── UDP ────────────────────────────────────────────────────────
        let cksum = if self.cfg.udp_checksum {
            let (finish, ck) = self.checksum_virt(t, host, asp, &data)?;
            t = finish;
            ck
        } else {
            0
        };
        let udp = UdpHeader {
            src_port,
            dst_port,
            len: data_len as u32,
            cksum,
        };
        let udp_va = self.slab_slot();
        let udp_pa = asp.translate_addr(udp_va)?;
        t = host.cpu_write(t, udp_pa, &udp.encode()).finish;
        t = host.run_software(t, host.spec.costs.udp_fixed).finish;
        let mut datagram = data;
        datagram.push_header(udp_va, UDP_HEADER_BYTES as u32);

        // ── IP ─────────────────────────────────────────────────────────
        // Selective repeat minting: acks draw from their own id range so
        // the receiver's contiguous data-id window never sees gaps where
        // an ack consumed an id.
        let sr = self.cfg.reliable && self.cfg.transport == TransportMode::SelectiveRepeat;
        let id = if sr && dst_port == ACK_PORT {
            let id = self.ack_ip_id;
            self.ack_ip_id += 1;
            id
        } else {
            let id = self.ip_id;
            self.ip_id += 1;
            id
        };
        // Mint the causal identity here: it equals the receiver's IP
        // reassembly key, so both ends agree without extra wire bytes.
        let ctx = TraceCtx {
            host: self.src_host,
            pdu: id,
        };
        let total = datagram.len();
        let plan = fragment_layout(total, self.cfg.mtu);
        let mut packets = Vec::with_capacity(plan.count());
        let mut rest = datagram;
        let mut offset = 0u64;
        for (i, &size) in plan.sizes.iter().enumerate() {
            let mut frag = rest.split_off_front(size as u64);
            let hdr = IpHeader {
                id,
                total_len: total as u32,
                frag_off: offset as u32,
                more_frags: i + 1 < plan.count(),
                proto: IPPROTO_UDP,
                src: self.src_host,
                dst: dst_host,
            };
            let ip_va = self.slab_slot();
            let ip_pa = asp.translate_addr(ip_va)?;
            t = host.cpu_write(t, ip_pa, &hdr.encode()).finish;
            t = host.run_software(t, host.spec.costs.ip_fixed).finish;
            frag.push_header(ip_va, IP_HEADER_BYTES as u32);
            packets.push(TxPacket { msg: frag, ctx });
            offset += size as u64;
            self.stats.frags_out.incr();
        }
        if self.timeline.is_enabled() {
            let from = now.max(self.tx_span_floor);
            if t > from {
                self.timeline
                    .span_ctx(&self.track, "proto.tx", ctx, from, t);
            }
            self.tx_span_floor = self.tx_span_floor.max(t);
        }
        // Reliable mode: hold the datagram for acknowledgement. ACKs
        // themselves are fire-and-forget (retransmitting the data covers
        // a lost ack). Selective repeat admits up to the effective window
        // and defers the rest; deferred datagrams are released by ack
        // processing or the timer (returned via `take_released`).
        if self.cfg.reliable && dst_port != ACK_PORT {
            let cfg = self.cfg;
            let win = self
                .send
                .entry(dst_host)
                .or_insert_with(|| SendWindow::new(&cfg));
            win.last_sent_id = win.last_sent_id.max(id);
            let admit = !sr
                || (win.pending.len() < win.effective_window(&cfg) as usize
                    && (cfg.cc != CcScheme::Pacing || t >= win.pace_ok_at));
            if admit {
                if sr && cfg.cc == CcScheme::Pacing {
                    win.pace_ok_at = win.pace_ok_at.max(t) + win.pace_gap;
                }
                let rto = win.rto_cur;
                win.pending.insert(
                    id,
                    PendingMsg {
                        packets: packets.clone(),
                        next_at: t + rto,
                        retries: 0,
                        sack_miss: 0,
                    },
                );
            } else {
                self.stats.w_deferred.incr();
                win.deferred.push_back((id, packets));
                return Ok((Vec::new(), t));
            }
        }
        Ok((packets, t))
    }

    /// Builds the acknowledgement datagram for `acked_id` (stop-and-wait):
    /// a normal 4-byte UDP/IP datagram addressed to [`ACK_PORT`] on the
    /// sender, paying the usual header-build costs.
    pub fn output_ack(
        &mut self,
        now: SimTime,
        host: &mut HostMachine,
        asp: &AddressSpace,
        acked_id: u32,
        dst_host: u16,
    ) -> Result<(Vec<TxPacket>, SimTime), MapError> {
        let va = self.slab_slot();
        let pa = asp.translate_addr(va)?;
        let t = host.cpu_write(now, pa, &acked_id.to_be_bytes()).finish;
        let msg = Message::single(va, 4);
        self.output(t, host, asp, msg, ACK_PORT, ACK_PORT, dst_host)
    }

    /// Whether a block ack for `peer` is due: every `ack_every`
    /// deliveries, or immediately when `force` (a duplicate arrived — the
    /// sender is resending state we already have).
    pub fn should_block_ack(&mut self, peer: u16, force: bool) -> bool {
        let win = self.recv.entry(peer).or_insert_with(RecvWindow::new);
        force || win.since_ack >= self.cfg.ack_every
    }

    /// Builds the selective-repeat block acknowledgement for `peer`:
    /// `[base][bitmap][credits][pace_ns][flags]` ([`BLOCK_ACK_BYTES`]) on
    /// [`ACK_PORT`], paying the usual header-build costs. Credits count
    /// the receiver's free reassembly slots (window minus partial
    /// datagrams pinned for this peer); the pace field advertises the
    /// smoothed inter-delivery gap; the ECN flag echoes switch marks.
    pub fn output_block_ack(
        &mut self,
        now: SimTime,
        host: &mut HostMachine,
        asp: &AddressSpace,
        peer: u16,
    ) -> Result<(Vec<TxPacket>, SimTime), MapError> {
        let pinned = self.reasm.keys().filter(|(src, _)| *src == peer).count() as u32;
        let window = self.cfg.window_cap();
        let win = self.recv.entry(peer).or_insert_with(RecvWindow::new);
        let credits = window.saturating_sub(pinned).max(1).min(u16::MAX as u32) as u16;
        let pace_ns = (win.gap_ewma.as_ps() / 1_000).min(u32::MAX as u64) as u32;
        let flags = if win.ecn_pending { ACK_FLAG_ECN } else { 0 };
        win.ecn_pending = false;
        win.since_ack = 0;
        let mut payload = [0u8; BLOCK_ACK_BYTES];
        payload[0..4].copy_from_slice(&win.base.to_be_bytes());
        payload[4..12].copy_from_slice(&win.bitmap.to_be_bytes());
        payload[12..14].copy_from_slice(&credits.to_be_bytes());
        payload[14..18].copy_from_slice(&pace_ns.to_be_bytes());
        payload[18] = flags;
        self.stats.w_block_acks.incr();
        let va = self.slab_slot();
        let pa = asp.translate_addr(va)?;
        let t = host.cpu_write(now, pa, &payload).finish;
        let msg = Message::single(va, BLOCK_ACK_BYTES as u32);
        self.output(t, host, asp, msg, ACK_PORT, ACK_PORT, peer)
    }

    /// Marks `peer`'s flow as having crossed the switch ECN threshold;
    /// the next block ack echoes it.
    pub fn note_ecn(&mut self, peer: u16) {
        self.recv
            .entry(peer)
            .or_insert_with(RecvWindow::new)
            .ecn_pending = true;
    }

    /// The receive window for `peer`, as `(base, bitmap)` — what the next
    /// block ack would carry. `None` until the first datagram from `peer`.
    pub fn recv_window(&self, peer: u16) -> Option<(u32, u64)> {
        self.recv.get(&peer).map(|w| (w.base, w.bitmap))
    }

    /// The sender's current RTO toward `peer` — `rto_initial` until loss
    /// backs it off, and carried (not reset) across acks of retransmitted
    /// datagrams so a crossed ack can't collapse the backoff. `None`
    /// until the first reliable send to `peer`.
    pub fn current_rto(&self, peer: u16) -> Option<SimDuration> {
        self.send.get(&peer).map(|w| w.rto_cur)
    }

    /// True while any datagram awaits acknowledgement or admission.
    pub fn has_unacked(&self) -> bool {
        self.send
            .values()
            .any(|w| !w.pending.is_empty() || !w.deferred.is_empty())
    }

    /// Packets admitted as a side effect of ack processing (window slid,
    /// SACK retransmit, pacing release) — the caller hands them to the
    /// driver exactly once.
    pub fn take_released(&mut self) -> Vec<TxPacket> {
        std::mem::take(&mut self.released)
    }

    /// The earliest pending timer: an RTO expiry, or — when pacing holds
    /// deferred datagrams back from an open window — the pacing release.
    pub fn next_retransmit_at(&self) -> Option<SimTime> {
        let mut at: Option<SimTime> = None;
        let mut fold = |t: SimTime| at = Some(at.map_or(t, |a: SimTime| a.min(t)));
        for win in self.send.values() {
            for p in win.pending.values() {
                fold(p.next_at);
            }
            if self.cfg.cc == CcScheme::Pacing
                && !win.deferred.is_empty()
                && win.pending.len() < win.effective_window(&self.cfg) as usize
            {
                fold(win.pace_ok_at);
            }
        }
        at
    }

    /// Admits deferred datagrams into `dst`'s window as far as the
    /// effective window (and pacing) allow, returning their packets.
    fn admit_deferred(&mut self, dst: u16, now: SimTime) -> Vec<TxPacket> {
        let cfg = self.cfg;
        let mut out = Vec::new();
        if cfg.transport != TransportMode::SelectiveRepeat {
            return out;
        }
        let Some(win) = self.send.get_mut(&dst) else {
            return out;
        };
        while win.pending.len() < win.effective_window(&cfg) as usize {
            if cfg.cc == CcScheme::Pacing && now < win.pace_ok_at {
                break;
            }
            let Some((id, pkts)) = win.deferred.pop_front() else {
                break;
            };
            if cfg.cc == CcScheme::Pacing {
                win.pace_ok_at = win.pace_ok_at.max(now) + win.pace_gap;
            }
            let rto = win.rto_cur;
            win.pending.insert(
                id,
                PendingMsg {
                    packets: pkts.clone(),
                    next_at: now + rto,
                    retries: 0,
                    sack_miss: 0,
                },
            );
            out.extend(pkts);
        }
        out
    }

    /// Collects every datagram whose RTO expired by `now` for
    /// retransmission, doubling the destination's carried backoff once
    /// per expiry round. Datagrams out of retries are abandoned (counted
    /// as `gave_up`) and their packets freed, which both bounds every run
    /// and unpins the fragment buffers; the freed window slots refill
    /// from the deferred queue. Returns the packets to re-enqueue, in
    /// (destination, datagram-id) order for determinism.
    pub fn poll_retransmit(&mut self, now: SimTime) -> Vec<TxPacket> {
        let mut out = Vec::new();
        let dsts: Vec<u16> = self.send.keys().copied().collect();
        for dst in dsts {
            let win = self.send.get_mut(&dst).expect("listed above");
            // BTreeMap iteration: due ids come out sorted.
            let due: Vec<u32> = win
                .pending
                .iter()
                .filter(|(_, p)| p.next_at <= now)
                .map(|(&id, _)| id)
                .collect();
            if !due.is_empty() {
                // One backoff escalation per expiry round, not per
                // datagram — a burst of simultaneous losses is one
                // congestion signal.
                win.rto_cur = (win.rto_cur + win.rto_cur).min(self.cfg.rto_max);
            }
            for id in due {
                let p = win.pending.get_mut(&id).expect("listed above");
                if p.retries >= self.cfg.max_retries {
                    // Free the packets now: a gave-up datagram must not
                    // keep fragment buffers pinned until some later reap.
                    win.pending.remove(&id);
                    self.stats.gave_up.incr();
                    continue;
                }
                p.retries += 1;
                p.next_at = now + win.rto_cur;
                p.sack_miss = 0;
                self.stats.retransmits.incr();
                if self.timeline.is_enabled() {
                    if let Some(pkt) = p.packets.first() {
                        self.timeline
                            .instant_ctx(&self.track, "proto.retransmit", pkt.ctx, now);
                    }
                }
                out.extend(p.packets.iter().cloned());
            }
            // Give-ups (and pacing release) may have opened the window.
            out.extend(self.admit_deferred(dst, now));
        }
        out
    }

    /// Applies a legacy 4-byte stop-and-wait ack: releases the pending
    /// datagram wherever it is held (ids are per-sender unique). A clean
    /// sample — the datagram was never retransmitted — snaps the carried
    /// backoff back to the initial RTO; an ack that crossed a
    /// retransmission in flight is ambiguous and leaves it alone.
    fn process_legacy_ack(&mut self, acked: u32) {
        let rto_initial = self.cfg.rto_initial;
        for win in self.send.values_mut() {
            if let Some(p) = win.pending.remove(&acked) {
                if p.retries == 0 {
                    win.rto_cur = rto_initial;
                }
                break;
            }
        }
    }

    /// Applies a selective-repeat block ack from `from`: releases
    /// everything at/below `ack.base` or set in `ack.bitmap`,
    /// fast-retransmits holes with enough SACK evidence, runs the
    /// congestion-control update for the configured scheme, and refills
    /// the window from the deferred queue (released packets go to
    /// [`ProtoStack::take_released`]).
    fn process_block_ack(&mut self, now: SimTime, from: u16, ack: BlockAck) {
        let BlockAck {
            base,
            bitmap,
            credits,
            pace_ns,
            flags,
        } = ack;
        let cfg = self.cfg;
        let Some(win) = self.send.get_mut(&from) else {
            return;
        };
        let acked_by =
            |id: u32| id < base || (id.wrapping_sub(base) < 64 && (bitmap >> (id - base)) & 1 == 1);
        let ids: Vec<u32> = win.pending.keys().copied().collect();
        let mut any_acked = false;
        let mut clean_sample = false;
        for id in &ids {
            if acked_by(*id) {
                let p = win.pending.remove(id).expect("listed above");
                any_acked = true;
                if p.retries == 0 {
                    clean_sample = true;
                }
            }
        }
        if clean_sample {
            win.rto_cur = cfg.rto_initial;
        }
        // SACK: a hole below data this ack shows as received gains one
        // count of evidence; at the threshold it retransmits immediately
        // (no backoff escalation — loss already proven, not congestion
        // silence) and pushes its RTO out one period.
        let highest_acked = if bitmap != 0 {
            Some(base + 63 - bitmap.leading_zeros())
        } else {
            base.checked_sub(1)
        };
        if let Some(hi) = highest_acked {
            let holes: Vec<u32> = win.pending.range(..hi).map(|(&id, _)| id).collect();
            for id in holes {
                let rto = win.rto_cur;
                let p = win.pending.get_mut(&id).expect("listed above");
                p.sack_miss += 1;
                if p.sack_miss >= cfg.sack_thresh {
                    p.sack_miss = 0;
                    p.retries += 1;
                    p.next_at = now + rto;
                    self.stats.retransmits.incr();
                    self.stats.w_sack_retransmits.incr();
                    if self.timeline.is_enabled() {
                        if let Some(pkt) = p.packets.first() {
                            self.timeline.instant_ctx(
                                &self.track,
                                "proto.retransmit",
                                pkt.ctx,
                                now,
                            );
                        }
                    }
                    self.released.extend(p.packets.iter().cloned());
                }
            }
        }
        match cfg.cc {
            CcScheme::Ecn => {
                if flags & ACK_FLAG_ECN != 0 {
                    if base > win.ecn_guard {
                        win.cwnd = (win.cwnd / 2).max(1);
                        win.ecn_guard = win.last_sent_id;
                        self.stats.w_ecn_halvings.incr();
                    }
                } else if any_acked {
                    win.cwnd = (win.cwnd + 1).min(cfg.window_cap());
                }
            }
            CcScheme::Credit => {
                win.credits = (credits as u32).max(1);
            }
            CcScheme::Pacing => {
                win.pace_gap = SimDuration::from_ps(pace_ns as u64 * 1_000);
            }
            CcScheme::None => {}
        }
        let released = self.admit_deferred(from, now);
        self.released.extend(released);
    }

    /// Translates a driver-ready packet into its physical buffer chain.
    pub fn to_phys(&self, asp: &AddressSpace, pkt: &TxPacket) -> Result<Vec<PhysBuffer>, MapError> {
        let mut bufs = Vec::new();
        for seg in pkt.msg.segs() {
            bufs.extend(asp.translate(seg.addr, seg.len as u64)?);
        }
        Ok(osiris_mem::buffer::coalesce(&bufs))
    }

    /// IP + UDP input: absorbs one PDU from the driver.
    pub fn input(
        &mut self,
        now: SimTime,
        host: &mut HostMachine,
        pdu: &DeliveredPdu,
    ) -> (RxVerdict, SimTime) {
        self.cur_rx_ctx = pdu.ctx;
        let (verdict, t) = self.input_parse(now, host, pdu);
        if self.timeline.is_enabled() {
            if let Some(ctx) = self.cur_rx_ctx {
                let from = now.max(self.rx_span_floor);
                if t > from {
                    self.timeline
                        .span_ctx(&self.track, "proto.rx", ctx, from, t);
                }
            }
            self.rx_span_floor = self.rx_span_floor.max(t);
        }
        (verdict, t)
    }

    fn input_parse(
        &mut self,
        now: SimTime,
        host: &mut HostMachine,
        pdu: &DeliveredPdu,
    ) -> (RxVerdict, SimTime) {
        let mut t = now;
        let descs: Vec<Descriptor> = pdu.bufs.clone();

        // Parse the IP header out of the first buffer (through the cache).
        let mut hdr_bytes = [0u8; IP_HEADER_BYTES];
        let rr = host.cpu_read(t, descs[0].addr, &mut hdr_bytes);
        t = rr.grant.finish;
        t = host.run_software(t, host.spec.costs.ip_fixed).finish;
        let Some(ip) = IpHeader::decode(&hdr_bytes) else {
            // A stale-cache hit can corrupt the header itself; §2.3 says
            // invalidate and re-evaluate before declaring an error.
            t = host
                .invalidate_cache(t, descs[0].addr, IP_HEADER_BYTES)
                .finish;
            let rr2 = host.cpu_read(t, descs[0].addr, &mut hdr_bytes);
            t = rr2.grant.finish;
            match IpHeader::decode(&hdr_bytes) {
                Some(h) if rr.stale_bytes > 0 => {
                    self.stats.lazy_recoveries.incr();
                    return self.input_ip(t, host, h, descs, pdu.len);
                }
                _ => {
                    self.stats.dropped.incr();
                    return (
                        RxVerdict::Drop {
                            reason: "bad IP header",
                            descs,
                        },
                        t,
                    );
                }
            }
        };
        self.input_ip(t, host, ip, descs, pdu.len)
    }

    fn input_ip(
        &mut self,
        now: SimTime,
        host: &mut HostMachine,
        ip: IpHeader,
        descs: Vec<Descriptor>,
        pdu_len: u32,
    ) -> (RxVerdict, SimTime) {
        let mut t = now;
        self.stats.frags_in.incr();
        // Re-mint the identity from the header if the carrier lost it
        // (raw wire-image PDUs, generator traffic): same (src, id) key.
        if self.cur_rx_ctx.is_none() {
            self.cur_rx_ctx = Some(TraceCtx {
                host: ip.src,
                pdu: ip.id,
            });
        }

        // Strip the IP header from the buffer chain.
        let mut data = Message::<PhysAddr>::empty();
        for d in &descs {
            data.join(Message::single(d.addr, d.len));
        }
        let _ = data.pop_header(IP_HEADER_BYTES as u32);
        let frag_data_len = pdu_len as u64 - IP_HEADER_BYTES as u64;

        // Reassemble. The key includes the source host: datagram ids are
        // per-sender counters, so concurrent senders (incast) collide on
        // the id alone.
        let key = (ip.src, ip.id);

        // Reliable mode: a datagram we already delivered is arriving again
        // (lost ack or crossing retransmission). Re-ack, don't re-deliver.
        // Stop-and-wait keys this off the unbounded seen-set; selective
        // repeat keys it off the receive window itself (ids below base are
        // resolved, ids inside the window check their bitmap bit). Ack
        // datagrams (ids at/above ACK_ID_BASE) bypass the window.
        if self.cfg.reliable {
            let dup = match self.cfg.transport {
                TransportMode::StopAndWait => self.delivered_ids.contains(&key),
                TransportMode::SelectiveRepeat => {
                    if ip.id >= ACK_ID_BASE {
                        false
                    } else {
                        let win = self.recv.entry(ip.src).or_insert_with(RecvWindow::new);
                        ip.id < win.base
                            || (ip.id - win.base < 64
                                && (win.bitmap >> (ip.id - win.base)) & 1 == 1)
                    }
                }
            };
            if dup {
                self.stats.dup_datagrams.incr();
                return (
                    RxVerdict::Duplicate {
                        src: ip.src,
                        id: ip.id,
                        descs,
                    },
                    t,
                );
            }
        }

        let entry = self.reasm.entry(key).or_default();
        entry.last_at = t;
        // A retransmission can overlap a partially received datagram;
        // absorbing the same offset twice would inflate `have` past the
        // real byte count and wedge the UDP length check. Discard exact
        // duplicates.
        if entry
            .parts
            .iter()
            .any(|(off, _, _)| *off == ip.frag_off as u64)
        {
            self.stats.dup_frags.incr();
            return (
                RxVerdict::Drop {
                    reason: "duplicate fragment",
                    descs,
                },
                t,
            );
        }
        entry.have += frag_data_len;
        entry.parts.push((ip.frag_off as u64, data, descs));
        if !ip.more_frags {
            entry.total = Some(ip.frag_off as u64 + frag_data_len);
        }
        let complete = matches!(entry.total, Some(total) if entry.have >= total);
        if !complete {
            return (RxVerdict::Incomplete, t);
        }

        // Datagram complete: stitch fragments in offset order.
        let mut entry = self.reasm.remove(&key).expect("present");
        entry.parts.sort_by_key(|&(off, _, _)| off);
        let mut datagram = Message::<PhysAddr>::empty();
        let mut all_descs = Vec::new();
        for (_, m, d) in entry.parts {
            datagram.join(m);
            all_descs.extend(d);
        }

        // ── UDP input ──────────────────────────────────────────────────
        let udp_at = datagram.segs()[0].addr;
        let mut udp_bytes = [0u8; UDP_HEADER_BYTES];
        let rr = host.cpu_read(t, udp_at, &mut udp_bytes);
        t = rr.grant.finish;
        let udp_stale = rr.stale_bytes > 0;
        t = host.run_software(t, host.spec.costs.udp_fixed).finish;
        let mut udp = UdpHeader::decode(&udp_bytes).expect("12 bytes always decode");
        let _ = datagram.pop_header(UDP_HEADER_BYTES as u32);
        let len = datagram.len();
        if udp.len as u64 != len {
            // §2.3 again: a stale header is invalidated and re-evaluated
            // before the message is considered in error.
            if udp_stale {
                t = host.invalidate_cache(t, udp_at, UDP_HEADER_BYTES).finish;
                let rr2 = host.cpu_read(t, udp_at, &mut udp_bytes);
                t = rr2.grant.finish;
                udp = UdpHeader::decode(&udp_bytes).expect("12 bytes always decode");
            }
            if udp.len as u64 == len {
                self.stats.lazy_recoveries.incr();
            } else {
                self.stats.dropped.incr();
                return (
                    RxVerdict::Drop {
                        reason: "UDP length mismatch",
                        descs: all_descs,
                    },
                    t,
                );
            }
        }

        // Reliable mode: a datagram on the ACK port is either a legacy
        // 4-byte stop-and-wait ack (the acknowledged id) or a
        // BLOCK_ACK_BYTES selective-repeat block ack — dispatched on
        // length so either side tolerates the other's format.
        if self.cfg.reliable && udp.dst_port == ACK_PORT {
            let want = (len as usize).min(BLOCK_ACK_BYTES);
            let mut payload = [0u8; BLOCK_ACK_BYTES];
            let mut got = 0usize;
            for seg in datagram.segs() {
                if got >= want {
                    break;
                }
                let take = (seg.len as usize).min(want - got);
                let rr = host.cpu_read(t, seg.addr, &mut payload[got..got + take]);
                t = rr.grant.finish;
                got += take;
            }
            self.stats.acks_received.incr();
            let acked = if want >= BLOCK_ACK_BYTES {
                let ack = BlockAck::parse(&payload);
                let base = ack.base;
                self.process_block_ack(t, ip.src, ack);
                base
            } else {
                let acked = u32::from_be_bytes(payload[0..4].try_into().expect("4 bytes"));
                self.process_legacy_ack(acked);
                acked
            };
            return (
                RxVerdict::Ack {
                    acked,
                    descs: all_descs,
                },
                t,
            );
        }

        if self.cfg.udp_checksum && udp.cksum != 0 {
            let (t2, ck, stale) = self.checksum_phys(t, host, &datagram);
            t = t2;
            if ck != udp.cksum {
                if stale > 0 {
                    // §2.3 lazy recovery: invalidate the stale range and
                    // re-evaluate before declaring the message in error.
                    for seg in datagram.segs() {
                        t = host.invalidate_cache(t, seg.addr, seg.len as usize).finish;
                    }
                    let (t3, ck2, _) = self.checksum_phys(t, host, &datagram);
                    t = t3;
                    if ck2 == udp.cksum {
                        self.stats.lazy_recoveries.incr();
                    } else {
                        self.stats.dropped.incr();
                        return (
                            RxVerdict::Drop {
                                reason: "UDP checksum",
                                descs: all_descs,
                            },
                            t,
                        );
                    }
                } else {
                    self.stats.dropped.incr();
                    return (
                        RxVerdict::Drop {
                            reason: "UDP checksum",
                            descs: all_descs,
                        },
                        t,
                    );
                }
            }
        }

        self.stats.delivered.incr();
        if self.cfg.reliable {
            match self.cfg.transport {
                TransportMode::StopAndWait => {
                    self.delivered_ids.insert(key);
                }
                TransportMode::SelectiveRepeat => {
                    if ip.id < ACK_ID_BASE {
                        self.record_delivery(t, ip.src, ip.id);
                    }
                }
            }
        }
        (
            RxVerdict::Deliver {
                src: ip.src,
                ctx: self.cur_rx_ctx.unwrap_or(TraceCtx {
                    host: ip.src,
                    pdu: ip.id,
                }),
                dst_port: udp.dst_port,
                data: datagram,
                descs: all_descs,
                len,
            },
            t,
        )
    }

    /// Records a selective-repeat delivery in `src`'s receive window:
    /// slides the base over the contiguous prefix, force-advances past
    /// abandoned holes when a gave-up sender's data arrives beyond the
    /// bitmap, and updates the pacing EWMA.
    fn record_delivery(&mut self, now: SimTime, src: u16, id: u32) {
        let win = self.recv.entry(src).or_insert_with(RecvWindow::new);
        if id >= win.base + 64 {
            // The sender moved its window past holes it gave up on; the
            // unset bits shifted out are datagrams that will never arrive.
            let shift = id - 63 - win.base;
            let delivered_in_shift = if shift >= 64 {
                win.bitmap.count_ones()
            } else {
                (win.bitmap & ((1u64 << shift) - 1)).count_ones()
            };
            self.stats
                .w_holes_abandoned
                .add(shift as u64 - delivered_in_shift as u64);
            win.bitmap = if shift >= 64 { 0 } else { win.bitmap >> shift };
            win.base += shift;
        }
        win.bitmap |= 1u64 << (id - win.base);
        while win.bitmap & 1 == 1 {
            win.bitmap >>= 1;
            win.base += 1;
        }
        win.since_ack += 1;
        if let Some(last) = win.last_deliver {
            let gap = now.saturating_since(last);
            win.gap_ewma = SimDuration::from_ps((win.gap_ewma.as_ps() * 7 + gap.as_ps()) / 8);
        }
        win.last_deliver = Some(now);
    }

    /// Number of partial reassemblies currently pinning receive buffers.
    pub fn pending_reassemblies(&self) -> usize {
        self.reasm.len()
    }

    /// Reaps orphaned partial reassemblies, returning their descriptors
    /// for recycling: entries idle past `older_than` (their sender gave
    /// up, or the missing fragment is gone for good) and — in selective
    /// repeat — entries whose id the receive window has already resolved
    /// past (they can never complete; retransmissions of those ids are
    /// rejected as duplicates before reaching reassembly). Keys are
    /// processed in sorted order so the recycle order, and therefore the
    /// free-ring layout, is identical across runs.
    pub fn reap_reassembly(&mut self, now: SimTime, older_than: SimDuration) -> Vec<Descriptor> {
        let sr = self.cfg.reliable && self.cfg.transport == TransportMode::SelectiveRepeat;
        let mut stale: Vec<(u16, u32)> = self
            .reasm
            .iter()
            .filter(|(&(src, id), e)| {
                if e.last_at + older_than <= now {
                    return true;
                }
                sr && id < ACK_ID_BASE && self.recv.get(&src).is_some_and(|w| id < w.base)
            })
            .map(|(&k, _)| k)
            .collect();
        stale.sort_unstable();
        let mut descs = Vec::new();
        for key in stale {
            let entry = self.reasm.remove(&key).expect("listed above");
            for (_, _, d) in entry.parts {
                descs.extend(d);
            }
            self.stats.reasm_reaped.incr();
        }
        descs
    }

    /// Checksum of a virtual-memory message through the cache.
    fn checksum_virt(
        &self,
        now: SimTime,
        host: &mut HostMachine,
        asp: &AddressSpace,
        msg: &Message<VirtAddr>,
    ) -> Result<(SimTime, u16), MapError> {
        // Each piece is read straight into its place in one buffer.
        let mut bytes = vec![0u8; msg.len() as usize];
        let mut off = 0;
        let mut t = now;
        for seg in msg.segs() {
            for pb in asp.translate(seg.addr, seg.len as u64)? {
                let end = off + pb.len as usize;
                let rr = host.cpu_read(t, pb.addr, &mut bytes[off..end]);
                t = rr.grant.finish;
                off = end;
            }
        }
        let words = (bytes.len() as u64).div_ceil(4);
        t = host
            .run_cycles(t, words * host.spec.costs.checksum_cycles_per_word)
            .finish;
        Ok((t, internet_checksum(&bytes)))
    }

    /// Checksum of a physical-memory message through the cache, reporting
    /// stale bytes (the §2.3 signal).
    fn checksum_phys(
        &self,
        now: SimTime,
        host: &mut HostMachine,
        msg: &Message<PhysAddr>,
    ) -> (SimTime, u16, u64) {
        // Each segment is read straight into its place in one buffer.
        let mut bytes = vec![0u8; msg.len() as usize];
        let mut off = 0;
        let mut t = now;
        let mut stale = 0;
        for seg in msg.segs() {
            let end = off + seg.len as usize;
            let rr = host.cpu_read(t, seg.addr, &mut bytes[off..end]);
            t = rr.grant.finish;
            stale += rr.stale_bytes;
            off = end;
        }
        let words = (bytes.len() as u64).div_ceil(4);
        t = host
            .run_cycles(t, words * host.spec.costs.checksum_cycles_per_word)
            .finish;
        (t, internet_checksum(&bytes), stale)
    }

    /// Builds the raw PDU byte images of one datagram — what the wire
    /// would carry. Used by the §4 receive-side experiments, where "the
    /// receiver processor of the OSIRIS board was programmed to generate
    /// fictitious PDUs as fast as the receiving host could absorb them".
    pub fn build_wire_pdus(
        cfg: ProtoConfig,
        id: u32,
        src_port: u16,
        dst_port: u16,
        payload: &[u8],
    ) -> Vec<Vec<u8>> {
        let cksum = if cfg.udp_checksum {
            internet_checksum(payload)
        } else {
            0
        };
        let udp = UdpHeader {
            src_port,
            dst_port,
            len: payload.len() as u32,
            cksum,
        };
        let mut datagram = udp.encode().to_vec();
        datagram.extend_from_slice(payload);
        let plan = fragment_layout(datagram.len() as u64, cfg.mtu);
        let mut pdus = Vec::with_capacity(plan.count());
        let mut off = 0usize;
        for (i, &size) in plan.sizes.iter().enumerate() {
            let hdr = IpHeader {
                id,
                total_len: datagram.len() as u32,
                frag_off: off as u32,
                more_frags: i + 1 < plan.count(),
                proto: IPPROTO_UDP,
                src: 1,
                dst: 0,
            };
            let mut pdu = hdr.encode().to_vec();
            pdu.extend_from_slice(&datagram[off..off + size as usize]);
            pdus.push(pdu);
            off += size as usize;
        }
        pdus
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osiris_host::machine::MachineSpec;

    fn setup(checksum: bool) -> (HostMachine, AddressSpace, ProtoStack) {
        let mut host = HostMachine::boot(MachineSpec::ds5000_200(), 11);
        let mut asp = AddressSpace::new(host.spec.page_size);
        let stack = ProtoStack::new(
            ProtoConfig {
                udp_checksum: checksum,
                ..ProtoConfig::paper_default()
            },
            &mut host,
            &mut asp,
        );
        (host, asp, stack)
    }

    /// Writes a payload into a fresh VM region and returns its message.
    fn payload(host: &mut HostMachine, asp: &mut AddressSpace, bytes: &[u8]) -> Message<VirtAddr> {
        let r = asp
            .alloc_and_map(bytes.len() as u64, &mut host.alloc)
            .unwrap();
        let mut off = 0u64;
        for pb in asp.translate(r.base, bytes.len() as u64).unwrap() {
            host.phys.write(
                pb.addr,
                &bytes[off as usize..(off + pb.len as u64) as usize],
            );
            off += pb.len as u64;
        }
        Message::single(r.base, bytes.len() as u32)
    }

    #[test]
    fn small_message_is_one_packet() {
        let (mut host, mut asp, mut stack) = setup(false);
        let data = payload(&mut host, &mut asp, &[7u8; 1000]);
        let (pkts, t) = stack
            .output(SimTime::ZERO, &mut host, &asp, data, 5, 7, 2)
            .unwrap();
        assert_eq!(pkts.len(), 1);
        assert!(t > SimTime::ZERO);
        // IP header + UDP header + data.
        assert_eq!(pkts[0].msg.len(), 24 + 12 + 1000);
        // First two segments are the slab headers.
        assert!(pkts[0].msg.seg_count() >= 3);
    }

    #[test]
    fn large_message_fragments_at_mtu() {
        let (mut host, mut asp, mut stack) = setup(false);
        let data = payload(&mut host, &mut asp, &vec![1u8; 40_000]);
        let (pkts, _) = stack
            .output(SimTime::ZERO, &mut host, &asp, data, 5, 7, 2)
            .unwrap();
        // 40_012 bytes of datagram at 16 KB per fragment = 3 fragments.
        assert_eq!(pkts.len(), 3);
        for p in &pkts {
            assert!(p.msg.len() <= stack.cfg.mtu as u64);
        }
        assert_eq!(stack.stats().frags_out, 3);
    }

    #[test]
    fn wire_pdus_parse_back() {
        let cfg = ProtoConfig::paper_default();
        let payload: Vec<u8> = (0..40_000u32).map(|i| (i % 241) as u8).collect();
        let pdus = ProtoStack::build_wire_pdus(cfg, 42, 9, 10, &payload);
        assert_eq!(pdus.len(), 3);
        let h0 = IpHeader::decode(&pdus[0]).unwrap();
        assert!(h0.more_frags);
        assert_eq!(h0.id, 42);
        let hl = IpHeader::decode(pdus.last().unwrap()).unwrap();
        assert!(!hl.more_frags);
        let udp = UdpHeader::decode(&pdus[0][IP_HEADER_BYTES..]).unwrap();
        assert_eq!(udp.len as usize, payload.len());
        assert_eq!(udp.dst_port, 10);
        // Data survives: concatenate fragment payloads and compare.
        let mut joined = Vec::new();
        for p in &pdus {
            joined.extend_from_slice(&p[IP_HEADER_BYTES..]);
        }
        assert_eq!(&joined[UDP_HEADER_BYTES..], &payload[..]);
    }

    /// Full loop: wire PDUs written into "receive buffers", fed through
    /// input, delivered intact.
    fn feed_pdus(
        host: &mut HostMachine,
        stack: &mut ProtoStack,
        pdus: &[Vec<u8>],
        base: u64,
    ) -> Option<(u16, Vec<u8>)> {
        let mut verdict = None;
        let mut t = SimTime::ZERO;
        for (i, p) in pdus.iter().enumerate() {
            let addr = PhysAddr(base + (i as u64) * 0x8000);
            host.phys.write(addr, p);
            let pdu = DeliveredPdu {
                vci: osiris_atm::Vci(33),
                bufs: vec![Descriptor::tx(
                    addr,
                    p.len() as u32,
                    osiris_atm::Vci(33),
                    true,
                )],
                len: p.len() as u32,
                ready_at: t,
                ctx: None,
            };
            let (v, t2) = stack.input(t, host, &pdu);
            t = t2;
            if let RxVerdict::Deliver {
                dst_port,
                data,
                len,
                ..
            } = v
            {
                let mut bytes = Vec::new();
                for seg in data.segs() {
                    bytes.extend_from_slice(host.phys.read(seg.addr, seg.len as usize));
                }
                assert_eq!(bytes.len() as u64, len);
                verdict = Some((dst_port, bytes));
            }
        }
        verdict
    }

    #[test]
    fn input_reassembles_and_delivers() {
        let (mut host, _asp, mut stack) = setup(false);
        let data: Vec<u8> = (0..50_000u32).map(|i| (i % 239) as u8).collect();
        let pdus = ProtoStack::build_wire_pdus(stack.cfg, 7, 1, 99, &data);
        let (port, bytes) = feed_pdus(&mut host, &mut stack, &pdus, 0x10_0000).unwrap();
        assert_eq!(port, 99);
        assert_eq!(bytes, data);
        assert_eq!(stack.stats().delivered, 1);
        assert_eq!(stack.stats().frags_in, pdus.len() as u64);
    }

    #[test]
    fn checksum_validates_good_data() {
        let (mut host, _asp, mut stack) = setup(true);
        let data = vec![0x5Au8; 9000];
        let pdus = ProtoStack::build_wire_pdus(stack.cfg, 8, 1, 50, &data);
        let out = feed_pdus(&mut host, &mut stack, &pdus, 0x20_0000);
        assert!(out.is_some());
        assert_eq!(stack.stats().dropped, 0);
    }

    #[test]
    fn checksum_drops_corrupt_data() {
        let (mut host, _asp, mut stack) = setup(true);
        let data = vec![0x5Au8; 9000];
        let mut pdus = ProtoStack::build_wire_pdus(stack.cfg, 9, 1, 50, &data);
        let n = pdus[0].len();
        pdus[0][n - 10] ^= 0xFF; // corrupt payload, not headers
        let out = feed_pdus(&mut host, &mut stack, &pdus, 0x30_0000);
        assert!(out.is_none());
        assert_eq!(stack.stats().dropped, 1);
        assert_eq!(stack.stats().lazy_recoveries, 0);
    }

    #[test]
    fn lazy_recovery_repairs_stale_cache_reads() {
        let (mut host, _asp, mut stack) = setup(true);
        let addr = PhysAddr(0x40_0000);
        // Step 1: put OLD bytes at the buffer address and read them so the
        // (incoherent) cache holds them.
        let old = vec![0u8; 2000];
        host.phys.write(addr, &old);
        let mut scratch = vec![0u8; 2000];
        host.cpu_read(SimTime::ZERO, addr, &mut scratch);
        // Step 2: the "board" DMAs a real PDU over the same buffer.
        let data = vec![0xC3u8; 1500];
        let pdus = ProtoStack::build_wire_pdus(stack.cfg, 10, 1, 60, &data);
        assert_eq!(pdus.len(), 1);
        let pdu_bytes = &pdus[0];
        let mut phys = std::mem::replace(&mut host.phys, osiris_mem::PhysMemory::new(4096, 4096));
        host.cache.dma_write(&mut phys, addr, pdu_bytes);
        host.phys = phys;
        // Step 3: feed it through input. The checksum first sees stale
        // bytes, recovers via invalidation, and delivers.
        let pdu = DeliveredPdu {
            vci: osiris_atm::Vci(1),
            bufs: vec![Descriptor::tx(
                addr,
                pdu_bytes.len() as u32,
                osiris_atm::Vci(1),
                true,
            )],
            len: pdu_bytes.len() as u32,
            ready_at: SimTime::ZERO,
            ctx: None,
        };
        let (v, _) = stack.input(SimTime::from_us(100), &mut host, &pdu);
        match v {
            RxVerdict::Deliver { len, .. } => assert_eq!(len, 1500),
            other => panic!("expected delivery after lazy recovery, got {other:?}"),
        }
        assert!(
            stack.stats().lazy_recoveries >= 1,
            "recovery must be counted"
        );
        assert_eq!(stack.stats().dropped, 0);
    }

    fn setup_reliable() -> (HostMachine, AddressSpace, ProtoStack) {
        let mut host = HostMachine::boot(MachineSpec::ds5000_200(), 23);
        let mut asp = AddressSpace::new(host.spec.page_size);
        let stack = ProtoStack::new(
            ProtoConfig {
                reliable: true,
                ..ProtoConfig::paper_default()
            },
            &mut host,
            &mut asp,
        );
        (host, asp, stack)
    }

    /// Wraps raw wire bytes as one delivered PDU at `addr`.
    fn pdu_at(host: &mut HostMachine, bytes: &[u8], addr: u64) -> DeliveredPdu {
        host.phys.write(PhysAddr(addr), bytes);
        DeliveredPdu {
            vci: osiris_atm::Vci(33),
            bufs: vec![Descriptor::tx(
                PhysAddr(addr),
                bytes.len() as u32,
                osiris_atm::Vci(33),
                true,
            )],
            len: bytes.len() as u32,
            ready_at: SimTime::ZERO,
            ctx: None,
        }
    }

    #[test]
    fn reliable_output_retransmits_until_acked() {
        let (mut host, mut asp, mut stack) = setup_reliable();
        let data = payload(&mut host, &mut asp, &[9u8; 500]);
        let (pkts, t) = stack
            .output(SimTime::ZERO, &mut host, &asp, data, 5, 7, 2)
            .unwrap();
        assert_eq!(pkts.len(), 1);
        let id = pkts[0].ctx.pdu;
        assert!(stack.has_unacked());

        // Before the RTO nothing is due.
        assert!(stack.poll_retransmit(t).is_empty());
        // After it, the same packets come back and the backoff doubles.
        let due1 = stack.next_retransmit_at().unwrap();
        let again = stack.poll_retransmit(due1);
        assert_eq!(again.len(), 1);
        assert_eq!(again[0].ctx.pdu, id);
        assert_eq!(stack.stats().retransmits, 1);
        let due2 = stack.next_retransmit_at().unwrap();
        assert!(due2.since(due1) > stack.cfg.rto_initial);

        // An arriving ack releases the datagram.
        let ack_wire =
            ProtoStack::build_wire_pdus(stack.cfg, 77, ACK_PORT, ACK_PORT, &id.to_be_bytes());
        assert_eq!(ack_wire.len(), 1);
        let pdu = pdu_at(&mut host, &ack_wire[0], 0x50_0000);
        let (v, _) = stack.input(due2, &mut host, &pdu);
        match v {
            RxVerdict::Ack { acked, .. } => assert_eq!(acked, id),
            other => panic!("expected Ack, got {other:?}"),
        }
        assert!(!stack.has_unacked());
        assert_eq!(stack.stats().acks_received, 1);
    }

    #[test]
    fn reliable_gives_up_after_max_retries() {
        let (mut host, mut asp, mut stack) = setup_reliable();
        stack.cfg.max_retries = 2;
        let data = payload(&mut host, &mut asp, &[4u8; 100]);
        stack
            .output(SimTime::ZERO, &mut host, &asp, data, 5, 7, 2)
            .unwrap();
        let mut polls = 0;
        while let Some(at) = stack.next_retransmit_at() {
            stack.poll_retransmit(at);
            polls += 1;
            assert!(polls < 10, "must terminate");
        }
        assert!(!stack.has_unacked());
        assert_eq!(stack.stats().retransmits, 2);
        assert_eq!(stack.stats().gave_up, 1);
    }

    #[test]
    fn duplicate_datagram_is_suppressed_and_reackable() {
        let (mut host, _asp, mut stack) = setup_reliable();
        let data = vec![0xA1u8; 800];
        let wire = ProtoStack::build_wire_pdus(stack.cfg, 5, 9, 40, &data);
        assert_eq!(wire.len(), 1);
        let pdu = pdu_at(&mut host, &wire[0], 0x60_0000);
        let (v1, t1) = stack.input(SimTime::ZERO, &mut host, &pdu);
        assert!(matches!(v1, RxVerdict::Deliver { .. }));
        // The retransmission of the same datagram is not re-delivered.
        let (v2, _) = stack.input(t1, &mut host, &pdu);
        match v2 {
            RxVerdict::Duplicate { src, id, .. } => {
                assert_eq!((src, id), (1, 5));
            }
            other => panic!("expected Duplicate, got {other:?}"),
        }
        assert_eq!(stack.stats().delivered, 1);
        assert_eq!(stack.stats().dup_datagrams, 1);
    }

    #[test]
    fn duplicate_fragment_does_not_wedge_reassembly() {
        let (mut host, _asp, mut stack) = setup_reliable();
        let data: Vec<u8> = (0..40_000u32).map(|i| (i % 233) as u8).collect();
        let wire = ProtoStack::build_wire_pdus(stack.cfg, 6, 9, 41, &data);
        assert_eq!(wire.len(), 3);
        // Fragment 0 arrives twice (a retransmission overlapping the
        // original), then the rest.
        let order = [0usize, 0, 1, 2];
        let mut t = SimTime::ZERO;
        let mut delivered = None;
        for (i, &fi) in order.iter().enumerate() {
            let pdu = pdu_at(&mut host, &wire[fi], 0x70_0000 + (i as u64) * 0x10000);
            let (v, t2) = stack.input(t, &mut host, &pdu);
            t = t2;
            if let RxVerdict::Deliver { data: msg, len, .. } = v {
                let mut bytes = Vec::new();
                for seg in msg.segs() {
                    bytes.extend_from_slice(host.phys.read(seg.addr, seg.len as usize));
                }
                assert_eq!(bytes.len() as u64, len);
                delivered = Some(bytes);
            }
        }
        assert_eq!(delivered.expect("datagram completes"), data);
        assert_eq!(stack.stats().dup_frags, 1);
    }

    fn setup_sr(cc: CcScheme, window: u32) -> (HostMachine, AddressSpace, ProtoStack) {
        let mut host = HostMachine::boot(MachineSpec::ds5000_200(), 29);
        let mut asp = AddressSpace::new(host.spec.page_size);
        let stack = ProtoStack::new(
            ProtoConfig {
                reliable: true,
                transport: TransportMode::SelectiveRepeat,
                cc,
                window,
                ..ProtoConfig::paper_default()
            },
            &mut host,
            &mut asp,
        );
        (host, asp, stack)
    }

    /// Hand-built block-ack wire image (as node 1 would send it).
    fn block_ack_wire(cfg: ProtoConfig, seq: u32, base: u32, bitmap: u64, flags: u8) -> Vec<u8> {
        block_ack_wire_cc(cfg, seq, base, bitmap, u16::MAX, 0, flags)
    }

    fn block_ack_wire_cc(
        cfg: ProtoConfig,
        seq: u32,
        base: u32,
        bitmap: u64,
        credits: u16,
        pace_ns: u32,
        flags: u8,
    ) -> Vec<u8> {
        let mut payload = [0u8; BLOCK_ACK_BYTES];
        payload[0..4].copy_from_slice(&base.to_be_bytes());
        payload[4..12].copy_from_slice(&bitmap.to_be_bytes());
        payload[12..14].copy_from_slice(&credits.to_be_bytes());
        payload[14..18].copy_from_slice(&pace_ns.to_be_bytes());
        payload[18] = flags;
        let pdus =
            ProtoStack::build_wire_pdus(cfg, ACK_ID_BASE + seq, ACK_PORT, ACK_PORT, &payload);
        assert_eq!(pdus.len(), 1);
        pdus.into_iter().next().unwrap()
    }

    /// Sends one small datagram to host 1 and returns its id.
    fn send_one(
        host: &mut HostMachine,
        asp: &mut AddressSpace,
        stack: &mut ProtoStack,
        t: SimTime,
    ) -> (u32, bool, SimTime) {
        let data = payload(host, asp, &[6u8; 200]);
        let (pkts, t2) = stack.output(t, host, asp, data, 5, 7, 1).unwrap();
        let admitted = !pkts.is_empty();
        let id = pkts.first().map(|p| p.ctx.pdu).unwrap_or(0);
        (id, admitted, t2)
    }

    #[test]
    fn sr_window_defers_beyond_cap_and_block_ack_slides() {
        let (mut host, mut asp, mut stack) = setup_sr(CcScheme::None, 2);
        let (id1, a1, t1) = send_one(&mut host, &mut asp, &mut stack, SimTime::ZERO);
        let (id2, a2, t2) = send_one(&mut host, &mut asp, &mut stack, t1);
        let (_, a3, t3) = send_one(&mut host, &mut asp, &mut stack, t2);
        assert_eq!((id1, id2), (1, 2));
        assert!(a1 && a2, "the first two fit the window");
        assert!(!a3, "the third defers");
        assert_eq!(stack.stats().window_deferred, 1);

        // A block ack with base 3 releases 1 and 2; the deferred third
        // datagram is admitted and comes back via take_released.
        let ack = block_ack_wire(stack.cfg, 0, 3, 0, 0);
        let pdu = pdu_at(&mut host, &ack, 0x90_0000);
        let (v, _) = stack.input(t3, &mut host, &pdu);
        assert!(matches!(v, RxVerdict::Ack { acked: 3, .. }));
        let released = stack.take_released();
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].ctx.pdu, 3);
        assert!(stack.has_unacked(), "the admitted datagram now awaits ack");
        let ack2 = block_ack_wire(stack.cfg, 1, 4, 0, 0);
        let pdu2 = pdu_at(&mut host, &ack2, 0x91_0000);
        stack.input(t3, &mut host, &pdu2);
        assert!(!stack.has_unacked());
    }

    #[test]
    fn sr_sack_retransmits_hole_at_threshold() {
        let (mut host, mut asp, mut stack) = setup_sr(CcScheme::None, 16);
        let mut t = SimTime::ZERO;
        for _ in 0..3 {
            let (_, _, t2) = send_one(&mut host, &mut asp, &mut stack, t);
            t = t2;
        }
        // Ids 2 and 3 acked, id 1 is a hole (bits 1 and 2 above base 1).
        for seq in 0..2u32 {
            let ack = block_ack_wire(stack.cfg, seq, 1, 0b110, 0);
            let pdu = pdu_at(&mut host, &ack, 0xA0_0000 + (seq as u64) * 0x10000);
            let (_, t2) = stack.input(t, &mut host, &pdu);
            t = t2;
            if seq == 0 {
                assert!(
                    stack.take_released().is_empty(),
                    "one SACK miss is below the threshold"
                );
            }
        }
        let released = stack.take_released();
        assert_eq!(released.len(), 1, "second miss fast-retransmits the hole");
        assert_eq!(released[0].ctx.pdu, 1);
        assert_eq!(stack.stats().sack_retransmits, 1);
        assert_eq!(stack.stats().retransmits, 1);
    }

    #[test]
    fn sr_receive_window_suppresses_duplicates_and_abandons_holes() {
        let (mut host, _asp, mut stack) = setup_sr(CcScheme::None, 16);
        let data = vec![0x11u8; 300];
        let w1 = ProtoStack::build_wire_pdus(stack.cfg, 1, 9, 40, &data);
        let pdu = pdu_at(&mut host, &w1[0], 0xB0_0000);
        let (v, t) = stack.input(SimTime::ZERO, &mut host, &pdu);
        assert!(matches!(v, RxVerdict::Deliver { .. }));
        // The same id again: resolved below the advanced base.
        let (v2, t2) = stack.input(t, &mut host, &pdu);
        assert!(matches!(v2, RxVerdict::Duplicate { .. }));

        // Id 70 forces the window past ids 2..=6 (sender gave them up).
        let w70 = ProtoStack::build_wire_pdus(stack.cfg, 70, 9, 40, &data);
        let pdu70 = pdu_at(&mut host, &w70[0], 0xB1_0000);
        let (v3, t3) = stack.input(t2, &mut host, &pdu70);
        assert!(matches!(v3, RxVerdict::Deliver { .. }));
        assert_eq!(stack.stats().holes_abandoned, 5);

        // An abandoned id is now a duplicate, not a re-delivery.
        let w3 = ProtoStack::build_wire_pdus(stack.cfg, 3, 9, 40, &data);
        let pdu3 = pdu_at(&mut host, &w3[0], 0xB2_0000);
        let (v4, _) = stack.input(t3, &mut host, &pdu3);
        assert!(matches!(v4, RxVerdict::Duplicate { .. }));
        assert_eq!(stack.stats().delivered, 2);
    }

    /// Satellite: a retransmission that crosses its ack in flight must
    /// not reset the carried backoff — only a clean (never-retransmitted)
    /// ack does.
    #[test]
    fn crossed_ack_does_not_reset_backoff() {
        let (mut host, mut asp, mut stack) = setup_sr(CcScheme::None, 16);
        let rto = stack.cfg.rto_initial;
        let (_, _, t1) = send_one(&mut host, &mut asp, &mut stack, SimTime::ZERO);
        // RTO expires: backoff doubles, the datagram is retransmitted.
        let due = stack.next_retransmit_at().unwrap();
        assert_eq!(due, t1 + rto);
        assert_eq!(stack.poll_retransmit(due).len(), 1);
        // The ack that was crossing in flight arrives now.
        let ack = block_ack_wire(stack.cfg, 0, 2, 0, 0);
        let pdu = pdu_at(&mut host, &ack, 0xC0_0000);
        let (_, t2) = stack.input(due, &mut host, &pdu);
        assert!(!stack.has_unacked());
        // The next datagram's timer runs at the carried (doubled) RTO.
        let (_, _, t3) = send_one(&mut host, &mut asp, &mut stack, t2);
        assert_eq!(stack.next_retransmit_at().unwrap(), t3 + rto + rto);
        // A clean ack for it snaps the backoff home again.
        let ack2 = block_ack_wire(stack.cfg, 1, 3, 0, 0);
        let pdu2 = pdu_at(&mut host, &ack2, 0xC1_0000);
        let (_, t4) = stack.input(t3, &mut host, &pdu2);
        let (_, _, t5) = send_one(&mut host, &mut asp, &mut stack, t4);
        assert_eq!(stack.next_retransmit_at().unwrap(), t5 + rto);
    }

    /// Satellite: the RTO scan iterates a BTreeMap, so the retransmit
    /// order is (destination, id)-sorted and identical across runs.
    #[test]
    fn retransmit_order_is_sorted_and_reproducible() {
        let run = || {
            let (mut host, mut asp, mut stack) = setup_sr(CcScheme::None, 16);
            let mut t = SimTime::ZERO;
            // Interleave two destinations; ids are minted globally.
            for dst in [1u16, 2, 1, 2, 1, 2] {
                let data = payload(&mut host, &mut asp, &[8u8; 150]);
                let (_, t2) = stack.output(t, &mut host, &asp, data, 5, 7, dst).unwrap();
                t = t2;
            }
            // Poll once past every datagram's first expiry so the whole
            // backlog comes due in a single scan.
            let due = t + stack.cfg.rto_initial + stack.cfg.rto_initial;
            stack
                .poll_retransmit(due)
                .iter()
                .map(|p| p.ctx.pdu)
                .collect::<Vec<u32>>()
        };
        let a = run();
        assert_eq!(a, vec![1, 3, 5, 2, 4, 6], "destination-major, id-sorted");
        assert_eq!(a, run(), "identical across runs");
    }

    #[test]
    fn ecn_ack_halves_the_window() {
        let (mut host, mut asp, mut stack) = setup_sr(CcScheme::Ecn, 2);
        let (_, _, t1) = send_one(&mut host, &mut asp, &mut stack, SimTime::ZERO);
        let ack = block_ack_wire(stack.cfg, 0, 2, 0, ACK_FLAG_ECN);
        let pdu = pdu_at(&mut host, &ack, 0xD0_0000);
        let (_, t2) = stack.input(t1, &mut host, &pdu);
        assert_eq!(stack.stats().ecn_halvings, 1);
        // cwnd halved to 1: the second concurrent datagram defers.
        let (_, a2, t3) = send_one(&mut host, &mut asp, &mut stack, t2);
        let (_, a3, _) = send_one(&mut host, &mut asp, &mut stack, t3);
        assert!(a2);
        assert!(!a3, "halved window admits one datagram at a time");
    }

    #[test]
    fn credit_ack_clamps_the_window() {
        let (mut host, mut asp, mut stack) = setup_sr(CcScheme::Credit, 8);
        let (_, _, t1) = send_one(&mut host, &mut asp, &mut stack, SimTime::ZERO);
        let ack = block_ack_wire_cc(stack.cfg, 0, 2, 0, 1, 0, 0);
        let pdu = pdu_at(&mut host, &ack, 0xE0_0000);
        let (_, t2) = stack.input(t1, &mut host, &pdu);
        let (_, a2, t3) = send_one(&mut host, &mut asp, &mut stack, t2);
        let (_, a3, _) = send_one(&mut host, &mut asp, &mut stack, t3);
        assert!(a2);
        assert!(!a3, "one granted credit admits one datagram");
    }

    #[test]
    fn pacing_ack_spaces_admissions() {
        let (mut host, mut asp, mut stack) = setup_sr(CcScheme::Pacing, 8);
        let (_, _, t1) = send_one(&mut host, &mut asp, &mut stack, SimTime::ZERO);
        // The receiver advertises a 1 ms inter-delivery gap.
        let ack = block_ack_wire_cc(stack.cfg, 0, 2, 0, u16::MAX, 1_000_000, 0);
        let pdu = pdu_at(&mut host, &ack, 0xF0_0000);
        let (_, t2) = stack.input(t1, &mut host, &pdu);
        let (_, a2, t3) = send_one(&mut host, &mut asp, &mut stack, t2);
        let (_, a3, _) = send_one(&mut host, &mut asp, &mut stack, t3);
        assert!(a2, "the first admission starts the pacing clock");
        assert!(!a3, "the second must wait out the advertised gap");
        // The pacing release is a timer: polling at it admits the
        // deferred datagram.
        let release = stack.next_retransmit_at().unwrap();
        assert!(release <= t3 + SimDuration::from_ms(1));
        let out = stack.poll_retransmit(release);
        assert!(
            out.iter().any(|p| p.ctx.pdu == 3),
            "pacing release admits the deferred datagram"
        );
        assert_eq!(
            stack.stats().retransmits,
            0,
            "admission, not retransmission"
        );
    }

    /// End-to-end: two stacks, data one way, the receiver's real block
    /// ack fed back — the sender's window empties.
    #[test]
    fn block_ack_round_trip_between_stacks() {
        let (mut shost, mut sasp, mut sender) = setup_sr(CcScheme::None, 16);
        let (mut rhost, rasp, mut receiver) = setup_sr(CcScheme::None, 16);
        receiver.set_src_host(1);
        let mut t = SimTime::ZERO;
        let mut ids = Vec::new();
        for i in 0..2u64 {
            let data = payload(&mut shost, &mut sasp, &[3u8; 400]);
            let (pkts, t2) = sender.output(t, &mut shost, &sasp, data, 5, 7, 1).unwrap();
            t = t2;
            ids.push(pkts[0].ctx.pdu);
            // Serialize the packet into wire bytes via the sender's VM.
            let mut wire = Vec::new();
            for seg in pkts[0].msg.segs() {
                for pb in sasp.translate(seg.addr, seg.len as u64).unwrap() {
                    wire.extend_from_slice(shost.phys.read(pb.addr, pb.len as usize));
                }
            }
            let pdu = pdu_at(&mut rhost, &wire, 0x150_0000 + i * 0x10000);
            let (v, _) = receiver.input(t, &mut rhost, &pdu);
            assert!(matches!(v, RxVerdict::Deliver { .. }));
        }
        assert!(sender.has_unacked());
        assert!(receiver.should_block_ack(0, false));
        let (apkts, t3) = receiver.output_block_ack(t, &mut rhost, &rasp, 0).unwrap();
        assert_eq!(apkts.len(), 1);
        assert_eq!(receiver.stats().block_acks, 1);
        let mut wire = Vec::new();
        for seg in apkts[0].msg.segs() {
            for pb in rasp.translate(seg.addr, seg.len as u64).unwrap() {
                wire.extend_from_slice(rhost.phys.read(pb.addr, pb.len as usize));
            }
        }
        let pdu = pdu_at(&mut shost, &wire, 0x160_0000);
        let (v, _) = sender.input(t3, &mut shost, &pdu);
        match v {
            RxVerdict::Ack { acked, .. } => {
                assert_eq!(acked, ids[1] + 1, "base sits past both deliveries")
            }
            other => panic!("expected Ack, got {other:?}"),
        }
        assert!(!sender.has_unacked(), "one block ack released the window");
        assert_eq!(sender.stats().acks_received, 1);
    }

    /// Satellite: gave-up datagrams free their packets immediately, and
    /// the receiver-side reap unpins reassemblies the window passed by.
    #[test]
    fn give_up_frees_packets_and_reap_unpins_reassembly() {
        let (mut host, mut asp, mut stack) = setup_sr(CcScheme::None, 16);
        stack.cfg.max_retries = 1;
        let (_, _, _) = send_one(&mut host, &mut asp, &mut stack, SimTime::ZERO);
        while let Some(at) = stack.next_retransmit_at() {
            stack.poll_retransmit(at);
        }
        assert_eq!(stack.stats().gave_up, 1);
        assert!(!stack.has_unacked(), "abandoned packets are freed");

        // Receiver side: fragment 1 of datagram 1 arrives, datagram 2
        // completes and advances the window past it — the reap reclaims
        // the stranded fragment's buffers without waiting for idleness.
        let (mut rhost, _rasp, mut rstack) = setup_sr(CcScheme::None, 16);
        let big: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
        let frags = ProtoStack::build_wire_pdus(rstack.cfg, 1, 9, 40, &big);
        assert!(frags.len() > 1);
        let pdu = pdu_at(&mut rhost, &frags[0], 0x170_0000);
        let (v, t) = rstack.input(SimTime::ZERO, &mut rhost, &pdu);
        assert!(matches!(v, RxVerdict::Incomplete));
        assert_eq!(rstack.pending_reassemblies(), 1);
        // Ids 2..=65 deliver, forcing the base past the stranded id 1.
        let mut t = t;
        for id in 2..=65u32 {
            let w = ProtoStack::build_wire_pdus(rstack.cfg, id, 9, 40, &[0x22u8; 100]);
            let pdu = pdu_at(&mut rhost, &w[0], 0x180_0000 + (id as u64) * 0x8000);
            let (v, t2) = rstack.input(t, &mut rhost, &pdu);
            assert!(matches!(v, RxVerdict::Deliver { .. }), "id {id}");
            t = t2;
        }
        let descs = rstack.reap_reassembly(t, SimDuration::from_secs(100));
        assert!(
            !descs.is_empty(),
            "the stranded fragment's buffers come back"
        );
        assert_eq!(rstack.pending_reassemblies(), 0);
        assert_eq!(rstack.stats().reasm_reaped, 1);
    }

    #[test]
    fn tx_checksum_charges_time() {
        let (mut host, mut asp, mut stack) = setup(true);
        let data = payload(&mut host, &mut asp, &vec![3u8; 16 * 1024]);
        let t0 = SimTime::ZERO;
        let (_, t_cksum) = stack.output(t0, &mut host, &asp, data, 1, 2, 3).unwrap();

        let (mut host2, mut asp2, mut stack2) = setup(false);
        let data2 = payload(&mut host2, &mut asp2, &vec![3u8; 16 * 1024]);
        let (_, t_plain) = stack2
            .output(t0, &mut host2, &asp2, data2, 1, 2, 3)
            .unwrap();
        assert!(
            t_cksum.since(t0).as_ps() > t_plain.since(t0).as_ps() * 2,
            "checksumming 16 KB on a 5000/200 must dominate: {} vs {}",
            t_cksum.since(t0),
            t_plain.since(t0)
        );
    }
}
