//! Segmentation and reassembly — the algorithms running on the two i80960s.
//!
//! Transmit side: [`Segmenter`] turns a PDU (a chain of physical buffers)
//! into cells. Two unit disciplines are modelled (§2.5.2):
//!
//! * [`SegmentUnit::Pdu`] — cells are filled across buffer boundaries, so
//!   only the final cell of the PDU is partial. This is what the modified
//!   page-boundary-splitting DMA controller enables.
//! * [`SegmentUnit::Buffer`] — each buffer is flushed independently,
//!   producing partially filled cells mid-PDU: "not only is this inelegant,
//!   but it also makes interoperating with other systems impossible".
//!
//! Receive side: [`Reassembler`] supports the three strategies of §2.6:
//!
//! * [`ReassemblyMode::InOrder`] — classic AAL5; assumes no misordering.
//!   Under skew it produces corrupted PDUs that the (real) CRC-32 catches.
//! * [`ReassemblyMode::SeqNum`] — strategy 1: an AAL-header sequence number
//!   places each cell. Sequence space is finite ("we can never guarantee
//!   that the sequence number space is large enough") and partial fills
//!   mid-stream are unsupported — both failure modes are surfaced as
//!   typed errors.
//! * [`ReassemblyMode::FourWay`] — strategy 2: one AAL5-style reassembly
//!   per stripe lane, with a per-lane CRC trailer; the PDU completes when
//!   every contributing lane has completed, and the extra ATM-header
//!   `last_cell` bit resolves PDUs shorter than the stripe width.
//!
//! # Example
//!
//! ```
//! use osiris_atm::sar::{FramingMode, ReassemblyMode, Reassembler, SegmentUnit, Segmenter};
//! use osiris_atm::Vci;
//!
//! let data = vec![7u8; 1000];
//! let seg = Segmenter { framing: FramingMode::EndOfPdu, unit: SegmentUnit::Pdu };
//! let cells = seg.segment(Vci(5), &[&data]);
//! assert_eq!(cells.len(), 23); // ceil(1000 / 44)
//!
//! let mut r = Reassembler::new(ReassemblyMode::InOrder, 1 << 20, true);
//! let mut done = None;
//! for cell in &cells {
//!     done = r.receive(0, cell).unwrap().completed.or(done);
//! }
//! let pdu = done.unwrap();
//! assert!(pdu.crc_ok);
//! assert_eq!(pdu.data.unwrap(), data);
//! ```

use crate::cell::{Cell, Trailer, CELL_PAYLOAD};
use crate::crc::Crc32;
use crate::vci::Vci;
use osiris_sim::FxHashMap;

/// How end-of-PDU framing is encoded at segmentation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FramingMode {
    /// One end-of-message bit + trailer on the final cell of the PDU.
    EndOfPdu,
    /// Per-lane framing for an `n`-lane striped link: the last cell on
    /// *each lane* carries an EOM bit and a trailer over that lane's bytes.
    FourWay {
        /// Stripe width (the paper's hardware: 4).
        lanes: u8,
    },
}

/// Whether cells may span physical-buffer boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentUnit {
    /// Fill cells across buffers; only the last cell of the PDU is partial.
    Pdu,
    /// Flush a (possibly partial) cell at every buffer boundary — the
    /// problematic original hardware model of §2.5.2.
    Buffer,
}

/// The transmit-side segmentation algorithm.
#[derive(Debug, Clone, Copy)]
pub struct Segmenter {
    /// Framing discipline.
    pub framing: FramingMode,
    /// Buffer-boundary discipline.
    pub unit: SegmentUnit,
}

impl Segmenter {
    /// Segments a PDU presented as a chain of buffers into cells, as the
    /// first PDU of its VCI (`pdu_seq` 0). Senders emitting more than one
    /// PDU per VCI under [`FramingMode::FourWay`] must use
    /// [`Segmenter::segment_numbered`] so the reassembler can detect
    /// cross-PDU lane slips after cell loss.
    ///
    /// # Panics
    /// Panics if the PDU is empty.
    pub fn segment(&self, vci: Vci, buffers: &[&[u8]]) -> Vec<Cell> {
        self.segment_numbered(vci, 0, buffers)
    }

    /// Segments PDU number `pdu_seq` (per-VCI, wrapping) into cells.
    ///
    /// Under [`FramingMode::EndOfPdu`], AAL sequence numbers are assigned
    /// in global cell order (strategy 1 places cells by them) and `pdu_seq`
    /// is unused. Under [`FramingMode::FourWay`], per-lane framing makes a
    /// within-PDU sequence number redundant — so every cell instead carries
    /// `pdu_seq` in its AAL header, giving the reassembler PDU *identity*:
    /// without it, a lane that lost a cell silently attributes the next
    /// PDU's cell to the old record, and the per-lane CRCs (each computed
    /// over an individually intact lane contribution) cannot catch the
    /// stitch. The final cell carries the ATM-header `last_cell` bit;
    /// trailers are attached per the framing mode.
    ///
    /// # Panics
    /// Panics if the PDU is empty.
    pub fn segment_numbered(&self, vci: Vci, pdu_seq: u16, buffers: &[&[u8]]) -> Vec<Cell> {
        let total: usize = buffers.iter().map(|b| b.len()).sum();
        assert!(total > 0, "cannot segment an empty PDU");

        let seq_of = |i: usize| match self.framing {
            FramingMode::EndOfPdu => (i % (u16::MAX as usize + 1)) as u16,
            FramingMode::FourWay { .. } => pdu_seq,
        };
        // Chop into cell payloads according to the unit discipline,
        // copying each byte once, straight into its cell.
        let mut cells: Vec<Cell> = Vec::with_capacity(total / CELL_PAYLOAD + buffers.len());
        for buf in buffers {
            let mut rest: &[u8] = buf;
            if self.unit == SegmentUnit::Pdu {
                // Top up the partial cell the previous buffer ended in.
                if let Some(cell) = cells.last_mut() {
                    let fill = cell.aal.fill as usize;
                    let take = (CELL_PAYLOAD - fill).min(rest.len());
                    cell.payload[fill..fill + take].copy_from_slice(&rest[..take]);
                    cell.aal.fill += take as u8;
                    rest = &rest[take..];
                }
            }
            for piece in rest.chunks(CELL_PAYLOAD) {
                cells.push(Cell::data(vci, seq_of(cells.len()), piece));
            }
        }

        let n = cells.len();
        cells[n - 1].header.last_cell = true;

        match self.framing {
            FramingMode::EndOfPdu => {
                // The cells carry the buffers' bytes in order, so the
                // PDU's CRC runs over the buffers directly.
                let mut crc = Crc32::new();
                for buf in buffers {
                    crc.update(buf);
                }
                let last = &mut cells[n - 1];
                last.aal.eom = true;
                last.trailer = Some(Trailer {
                    len: total as u32,
                    crc: crc.finish(),
                });
            }
            FramingMode::FourWay { lanes } => {
                let lanes = lanes as usize;
                assert!(lanes >= 1, "need at least one lane");
                for lane in 0..lanes.min(n) {
                    // This lane's cells are i ≡ lane (mod lanes).
                    let mut crc = Crc32::new();
                    let mut lane_len = 0u32;
                    let mut last_idx = lane;
                    let mut i = lane;
                    while i < n {
                        crc.update(cells[i].data_bytes());
                        lane_len += cells[i].aal.fill as u32;
                        last_idx = i;
                        i += lanes;
                    }
                    let c = &mut cells[last_idx];
                    c.aal.eom = true;
                    c.trailer = Some(Trailer {
                        len: lane_len,
                        crc: crc.finish(),
                    });
                }
            }
        }
        cells
    }
}

/// Receive-side reassembly strategy (§2.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReassemblyMode {
    /// Assume cells arrive in order (no striping skew).
    InOrder,
    /// Place cells by AAL sequence number; `max_cells` is the sequence
    /// window (bounded sequence space — the strategy's Achilles heel).
    SeqNum {
        /// Largest per-PDU cell count representable.
        max_cells: u32,
    },
    /// One concurrent AAL5 reassembly per stripe lane.
    FourWay {
        /// Stripe width.
        lanes: u8,
    },
}

/// Typed reassembly failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxError {
    /// A sequence number outside the configured window arrived.
    SeqOutOfRange,
    /// Too many cells for a future PDU arrived while one was incomplete.
    StashOverflow,
    /// A cell arrived on a lane index ≥ the configured stripe width.
    LaneOutOfRange,
    /// An EOM cell carried no trailer (malformed framing).
    NoTrailer,
    /// A partially filled cell mid-stream, unsupported by this strategy
    /// (SeqNum/FourWay place cells at `index × 44`).
    PartialFillUnsupported,
    /// The assembled PDU would exceed the configured maximum size.
    PduTooLarge,
    /// A FourWay cell tagged with a PDU number the lane has already moved
    /// past (a straggler delayed behind an abort). Attributing it
    /// positionally would stitch two PDUs together, so it is dropped.
    StaleSeq,
}

impl std::fmt::Display for RxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RxError::SeqOutOfRange => "sequence number out of window",
            RxError::StashOverflow => "next-PDU stash overflow",
            RxError::LaneOutOfRange => "lane index out of range",
            RxError::NoTrailer => "EOM cell without trailer",
            RxError::PartialFillUnsupported => "partial fill mid-stream unsupported",
            RxError::PduTooLarge => "PDU exceeds configured maximum",
            RxError::StaleSeq => "straggler cell of an abandoned PDU",
        };
        f.write_str(s)
    }
}

impl std::error::Error for RxError {}

/// A completed PDU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PduComplete {
    /// Monotonic PDU number on this reassembler (0-based arrival order of
    /// *starts*, i.e. segmentation order).
    pub pdu: u64,
    /// Data length in bytes.
    pub len: u32,
    /// True if every framing CRC over the assembled data matched.
    pub crc_ok: bool,
    /// The assembled bytes (present when the reassembler keeps data).
    pub data: Option<Vec<u8>>,
}

/// Where an accepted cell's payload belongs, and whether it completed a PDU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellDisposition {
    /// PDU number the cell belongs to.
    pub pdu: u64,
    /// Byte offset of the cell's data within the PDU.
    pub offset: u32,
    /// Set when this cell completed the PDU.
    pub completed: Option<PduComplete>,
}

#[derive(Debug, Default)]
struct PduRecord {
    received_cells: u32,
    received_bytes: u32,
    expected_total_cells: Option<u32>,
    /// Per-lane CRC accumulators and completion flags (FourWay).
    lane_crc: Vec<Crc32>,
    lane_ok: Vec<Option<bool>>,
    lane_len: u32,
    /// Whole-PDU trailer (EndOfPdu framing), checked at completion.
    pdu_trailer: Option<Trailer>,
    /// Seen-sequence bitmap (SeqNum mode duplicate detection).
    seen: Vec<bool>,
    data: Vec<u8>,
    high_water: u32,
}

/// The receive-side reassembly state machine for one VCI.
#[derive(Debug)]
pub struct Reassembler {
    mode: ReassemblyMode,
    keep_data: bool,
    max_pdu_bytes: u32,
    records: FxHashMap<u64, PduRecord>,
    /// InOrder/SeqNum: the PDU currently being assembled.
    current_pdu: u64,
    /// InOrder: running byte offset.
    inorder_offset: u32,
    /// InOrder: running CRC.
    inorder_crc: Crc32,
    /// SeqNum: stash of cells that belong to the next PDU.
    stash: Vec<Cell>,
    stash_limit: usize,
    /// FourWay: per-lane (pdu number, within-lane cell index).
    lane_pos: Vec<(u64, u32)>,
    /// FourWay: total cell counts of completed PDUs, kept until every
    /// lane has advanced past them. A lane finishing PDU p must skip any
    /// already-completed PDUs that carried no cells on its lane — the
    /// short-PDU / skew interaction §2.6 calls "significant complexity".
    completed_totals: FxHashMap<u64, u32>,
    completed_count: u64,
}

impl Reassembler {
    /// A reassembler for `mode`, assembling PDUs of at most `max_pdu_bytes`
    /// bytes. When `keep_data` is set, completed PDUs carry their bytes
    /// (standalone use and tests); the board integration can disable it and
    /// rely on placement offsets alone.
    pub fn new(mode: ReassemblyMode, max_pdu_bytes: u32, keep_data: bool) -> Self {
        let lanes = match mode {
            ReassemblyMode::FourWay { lanes } => lanes as usize,
            _ => 0,
        };
        Reassembler {
            mode,
            keep_data,
            max_pdu_bytes,
            records: FxHashMap::default(),
            current_pdu: 0,
            inorder_offset: 0,
            inorder_crc: Crc32::new(),
            stash: Vec::new(),
            stash_limit: 4096,
            lane_pos: vec![(0, 0); lanes],
            completed_totals: FxHashMap::default(),
            completed_count: 0,
        }
    }

    /// The configured mode.
    pub fn mode(&self) -> ReassemblyMode {
        self.mode
    }

    /// Number of PDUs completed so far.
    pub fn completed(&self) -> u64 {
        self.completed_count
    }

    /// Number of PDUs currently in flight (diagnostics).
    pub fn in_flight(&self) -> usize {
        self.records.len()
    }

    /// Processes one received cell. `lane` is the physical link the cell
    /// arrived on (ignored by [`ReassemblyMode::InOrder`] and
    /// [`ReassemblyMode::SeqNum`]).
    pub fn receive(&mut self, lane: usize, cell: &Cell) -> Result<CellDisposition, RxError> {
        match self.mode {
            ReassemblyMode::InOrder => self.receive_inorder(cell),
            ReassemblyMode::SeqNum { max_cells } => self.receive_seqnum(cell, max_cells),
            ReassemblyMode::FourWay { lanes } => self.receive_fourway(lane, lanes as usize, cell),
        }
    }

    fn record(&mut self, pdu: u64, lanes: usize) -> &mut PduRecord {
        self.records.entry(pdu).or_insert_with(|| PduRecord {
            lane_crc: vec![Crc32::new(); lanes],
            lane_ok: vec![None; lanes],
            ..Default::default()
        })
    }

    fn store(
        keep: bool,
        max: u32,
        rec: &mut PduRecord,
        offset: u32,
        data: &[u8],
    ) -> Result<(), RxError> {
        let end = offset + data.len() as u32;
        if end > max {
            return Err(RxError::PduTooLarge);
        }
        rec.received_cells += 1;
        rec.received_bytes += data.len() as u32;
        rec.high_water = rec.high_water.max(end);
        if keep {
            if rec.data.len() < end as usize {
                rec.data.resize(end as usize, 0);
            }
            rec.data[offset as usize..end as usize].copy_from_slice(data);
        }
        Ok(())
    }

    fn receive_inorder(&mut self, cell: &Cell) -> Result<CellDisposition, RxError> {
        let pdu = self.current_pdu;
        let offset = self.inorder_offset;
        let keep = self.keep_data;
        let max = self.max_pdu_bytes;
        let rec = self.record(pdu, 0);
        Self::store(keep, max, rec, offset, cell.data_bytes())?;
        self.inorder_offset += cell.aal.fill as u32;
        self.inorder_crc.update(cell.data_bytes());

        let mut completed = None;
        if cell.aal.eom || cell.header.last_cell {
            let trailer = cell.trailer.ok_or(RxError::NoTrailer)?;
            let crc_ok = std::mem::take(&mut self.inorder_crc).finish() == trailer.crc
                && trailer.len == self.inorder_offset;
            let rec = self.records.remove(&pdu).expect("record exists");
            completed = Some(PduComplete {
                pdu,
                len: rec.received_bytes,
                crc_ok,
                data: self.keep_data.then_some(rec.data),
            });
            self.completed_count += 1;
            self.current_pdu += 1;
            self.inorder_offset = 0;
        }
        Ok(CellDisposition {
            pdu,
            offset,
            completed,
        })
    }

    fn receive_seqnum(&mut self, cell: &Cell, max_cells: u32) -> Result<CellDisposition, RxError> {
        let seq = cell.aal.seq as u32;
        if seq >= max_cells {
            return Err(RxError::SeqOutOfRange);
        }
        // Partial fills are only placeable for the final cell.
        if (cell.aal.fill as usize) < CELL_PAYLOAD && !cell.header.last_cell {
            return Err(RxError::PartialFillUnsupported);
        }
        let pdu = self.current_pdu;
        {
            let keep = self.keep_data;
            let max = self.max_pdu_bytes;
            let rec = self.record(pdu, 0);
            // A duplicate sequence number means this cell belongs to the
            // *next* PDU (per-lane FIFO guarantees intra-PDU uniqueness);
            // stash it until the current PDU completes. This is exactly the
            // "significant complexity" §2.6 attributes to strategy 1.
            if Self::seq_seen(rec, seq) {
                if self.stash.len() >= self.stash_limit {
                    return Err(RxError::StashOverflow);
                }
                self.stash.push(cell.clone());
                // Disposition points at the next PDU; offset as usual.
                return Ok(CellDisposition {
                    pdu: pdu + 1,
                    offset: seq * CELL_PAYLOAD as u32,
                    completed: None,
                });
            }
            let offset = seq * CELL_PAYLOAD as u32;
            Self::store(keep, max, rec, offset, cell.data_bytes())?;
            rec.note_seen(seq);
            if cell.header.last_cell {
                rec.expected_total_cells = Some(seq + 1);
            }
            if cell.trailer.is_some() && cell.aal.eom {
                rec.pdu_trailer = cell.trailer;
            }
        }
        let offset = seq * CELL_PAYLOAD as u32;
        let completed = self.try_complete_seqnum(pdu)?;
        Ok(CellDisposition {
            pdu,
            offset,
            completed,
        })
    }

    /// Has a cell with this sequence number already been stored for the
    /// current PDU? (Duplicates signal the start of the next PDU.)
    fn seq_seen(rec: &PduRecord, seq: u32) -> bool {
        rec.seen_bitmap_get(seq)
    }

    fn try_complete_seqnum(&mut self, pdu: u64) -> Result<Option<PduComplete>, RxError> {
        let done = {
            let rec = self.records.get(&pdu).expect("record exists");
            matches!(rec.expected_total_cells, Some(t) if rec.received_cells == t)
        };
        if !done {
            return Ok(None);
        }
        let rec = self.records.remove(&pdu).expect("record exists");
        let crc_ok = match rec.pdu_trailer {
            Some(tr) => {
                tr.len == rec.received_bytes
                    && (!self.keep_data || {
                        let mut c = Crc32::new();
                        c.update(&rec.data[..rec.received_bytes as usize]);
                        c.finish() == tr.crc
                    })
            }
            None => false,
        };
        self.completed_count += 1;
        self.current_pdu += 1;
        let complete = PduComplete {
            pdu,
            len: rec.received_bytes,
            crc_ok,
            data: self.keep_data.then(|| {
                let mut d = rec.data;
                d.truncate(rec.received_bytes as usize);
                d
            }),
        };
        // Replay stashed next-PDU cells.
        let stash = std::mem::take(&mut self.stash);
        let max_cells = match self.mode {
            ReassemblyMode::SeqNum { max_cells } => max_cells,
            _ => unreachable!(),
        };
        let mut nested_complete = None;
        for c in stash {
            let d = self.receive_seqnum(&c, max_cells)?;
            if d.completed.is_some() {
                nested_complete = d.completed;
            }
        }
        // A PDU completing purely out of the stash is pathological at the
        // skews we model; surface it to the caller if it ever happens by
        // preferring the outer completion and asserting in debug builds.
        debug_assert!(
            nested_complete.is_none(),
            "stash replay completed a whole PDU"
        );
        Ok(Some(complete))
    }

    fn receive_fourway(
        &mut self,
        lane: usize,
        lanes: usize,
        cell: &Cell,
    ) -> Result<CellDisposition, RxError> {
        if lane >= lanes {
            return Err(RxError::LaneOutOfRange);
        }
        if (cell.aal.fill as usize) < CELL_PAYLOAD && !cell.aal.eom && !cell.header.last_cell {
            return Err(RxError::PartialFillUnsupported);
        }
        // FourWay cells carry their PDU's per-VCI (wrapping) sequence
        // number in the AAL header. Check it against the PDU this lane is
        // positioned on *before* attributing the cell: positional framing
        // alone cannot tell "next cell of the current PDU" from "first cell
        // of a later PDU after this lane's tail was lost", and the per-lane
        // CRCs — each over an individually intact lane contribution — pass
        // on such a stitch, delivering a torn PDU as good.
        let (pdu, within) = {
            let (pdu, within) = self.lane_pos[lane];
            let delta = cell.aal.seq.wrapping_sub((pdu & 0xffff) as u16);
            if delta == 0 {
                (pdu, within)
            } else if delta < 0x8000 {
                // The lane lost the tail of its current PDU (and possibly
                // whole later PDUs): this cell starts the lane's
                // contribution to a later PDU. Resynchronise forward; the
                // abandoned record can never complete and is reclaimed by
                // the reassembly timeout. If the new PDU's earlier cells on
                // this lane were *also* lost, `within` is wrong — the lane
                // CRC then fails at EOM, so that costs a drop, never a
                // corrupted delivery.
                let next = pdu + delta as u64;
                self.lane_pos[lane] = (next, 0);
                (next, 0)
            } else {
                return Err(RxError::StaleSeq);
            }
        };
        let global_index = within * lanes as u32 + lane as u32;
        let offset = global_index * CELL_PAYLOAD as u32;
        let keep = self.keep_data;
        let max = self.max_pdu_bytes;
        {
            let rec = self.record(pdu, lanes);
            Self::store(keep, max, rec, offset, cell.data_bytes())?;
            rec.lane_crc[lane].update(cell.data_bytes());
            rec.lane_len += cell.aal.fill as u32;
            if cell.header.last_cell {
                rec.expected_total_cells = Some(global_index + 1);
            }
            if cell.aal.eom {
                let trailer = cell.trailer.ok_or(RxError::NoTrailer)?;
                let lane_crc = std::mem::take(&mut rec.lane_crc[lane]);
                rec.lane_ok[lane] = Some(lane_crc.finish() == trailer.crc);
            }
        }
        // Advance this lane: next cell on the lane belongs to the next PDU
        // if we just saw this lane's EOM — skipping any already-completed
        // PDUs that had no cells on this lane (short PDUs under skew).
        if cell.aal.eom {
            let next = self.skip_empty_completed(pdu + 1, lane, lanes);
            self.lane_pos[lane] = (next, 0);
        } else {
            self.lane_pos[lane] = (pdu, within + 1);
        }

        let completed = self.try_complete_fourway(pdu, lanes);
        Ok(CellDisposition {
            pdu,
            offset,
            completed,
        })
    }

    /// Abandons an in-flight PDU, discarding its partial state. Used by the
    /// receive path's reassembly timeout to reclaim physical buffers when a
    /// dropped cell (or a dropped per-lane EOM) would otherwise wedge the
    /// reassembly forever.
    ///
    /// Late or straggling cells of the aborted PDU are rejected as
    /// [`RxError::StaleSeq`] under FourWay (their PDU tag is behind the
    /// lane position) and caught by the per-PDU CRC under the other
    /// strategies, so an abort can cause extra *drops* but never causes
    /// corrupted data to be delivered.
    pub fn abort(&mut self, pdu: u64) {
        self.records.remove(&pdu);
        match self.mode {
            ReassemblyMode::InOrder => {
                if pdu == self.current_pdu {
                    self.current_pdu += 1;
                    self.inorder_offset = 0;
                    self.inorder_crc = Crc32::new();
                }
            }
            ReassemblyMode::SeqNum { .. } => {
                if pdu == self.current_pdu {
                    self.current_pdu += 1;
                }
            }
            ReassemblyMode::FourWay { lanes } => {
                let lanes = lanes as usize;
                // Lanes still parked on the aborted PDU resynchronise at the
                // next PDU (skipping completed PDUs that carried no cells for
                // them). Lanes already past it need no help; lanes still
                // *behind* it will recreate a record for `pdu` if stragglers
                // arrive — that record can never complete with a good CRC and
                // is reclaimed by the next timeout sweep.
                for l in 0..lanes {
                    if self.lane_pos[l].0 == pdu {
                        let next = self.skip_empty_completed(pdu + 1, l, lanes);
                        self.lane_pos[l] = (next, 0);
                    }
                }
            }
        }
    }

    fn try_complete_fourway(&mut self, pdu: u64, lanes: usize) -> Option<PduComplete> {
        let (done, total) = {
            let rec = self.records.get(&pdu)?;
            match rec.expected_total_cells {
                Some(t) if rec.received_cells == t => (true, t),
                _ => (false, 0),
            }
        };
        if !done {
            return None;
        }
        let rec = self.records.remove(&pdu).expect("record exists");
        // Lanes l < min(lanes, total) contributed cells and must have
        // passed their per-lane CRC.
        let contributing = (total as usize).min(lanes);
        let crc_ok = (0..contributing).all(|l| rec.lane_ok[l] == Some(true));
        self.completed_count += 1;
        self.completed_totals.insert(pdu, total);
        // Fast-forward lanes that carried no cells for this PDU (short-PDU
        // case) and are already waiting on it; lanes still busy with an
        // earlier PDU will skip it when they advance (`skip_empty_completed`).
        for l in 0..lanes {
            let (p, w) = self.lane_pos[l];
            if p == pdu && Self::lane_cells(total, l, lanes) == 0 {
                debug_assert_eq!(w, 0);
                let next = self.skip_empty_completed(pdu + 1, l, lanes);
                self.lane_pos[l] = (next, 0);
            }
        }
        // Prune totals every lane has moved past.
        let min_pdu = self.lane_pos.iter().map(|&(p, _)| p).min().unwrap_or(0);
        self.completed_totals.retain(|&p, _| p >= min_pdu);
        Some(PduComplete {
            pdu,
            len: rec.received_bytes,
            crc_ok,
            data: self.keep_data.then(|| {
                let mut d = rec.data;
                d.truncate(rec.high_water as usize);
                d
            }),
        })
    }
}

impl Reassembler {
    /// Cells PDU of `total` cells places on `lane` (round-robin stripe).
    fn lane_cells(total: u32, lane: usize, lanes: usize) -> u32 {
        let lane = lane as u32;
        let lanes = lanes as u32;
        if total > lane {
            (total - 1 - lane) / lanes + 1
        } else {
            0
        }
    }

    /// First PDU at or after `from` that is not an already-completed PDU
    /// with zero cells on `lane`.
    fn skip_empty_completed(&self, from: u64, lane: usize, lanes: usize) -> u64 {
        let mut p = from;
        while let Some(&total) = self.completed_totals.get(&p) {
            if Self::lane_cells(total, lane, lanes) == 0 {
                p += 1;
            } else {
                break;
            }
        }
        p
    }
}

impl PduRecord {
    fn seen_bitmap_get(&self, seq: u32) -> bool {
        self.seen.get(seq as usize).copied().unwrap_or(false)
    }

    fn note_seen(&mut self, seq: u32) {
        if self.seen.len() <= seq as usize {
            self.seen.resize(seq as usize + 1, false);
        }
        self.seen[seq as usize] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 % 251) as u8).collect()
    }

    fn seg(framing: FramingMode, unit: SegmentUnit) -> Segmenter {
        Segmenter { framing, unit }
    }

    #[test]
    fn segment_counts_and_fills() {
        let data = payload(100);
        let cells = seg(FramingMode::EndOfPdu, SegmentUnit::Pdu).segment(Vci(9), &[&data]);
        assert_eq!(cells.len(), 3); // 44 + 44 + 12
        assert_eq!(cells[0].aal.fill, 44);
        assert_eq!(cells[1].aal.fill, 44);
        assert_eq!(cells[2].aal.fill, 12);
        assert!(cells[2].header.last_cell);
        assert!(cells[2].aal.eom);
        assert_eq!(cells[2].trailer.unwrap().len, 100);
        assert_eq!(
            cells.iter().map(|c| c.aal.seq as usize).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn segment_pdu_unit_spans_buffers() {
        let a = payload(50);
        let b = payload(30);
        let cells = seg(FramingMode::EndOfPdu, SegmentUnit::Pdu).segment(Vci(1), &[&a, &b]);
        // 80 bytes → 44 + 36: the second cell mixes bytes of both buffers.
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[1].aal.fill, 36);
    }

    #[test]
    fn segment_buffer_unit_flushes_partials() {
        let a = payload(50);
        let b = payload(30);
        let cells = seg(FramingMode::EndOfPdu, SegmentUnit::Buffer).segment(Vci(1), &[&a, &b]);
        // 50 → 44 + 6 (partial mid-PDU!), 30 → 30.
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[1].aal.fill, 6);
        assert_eq!(cells[2].aal.fill, 30);
    }

    /// Oracle: a two-pass segmenter that chops the chain into one owned
    /// chunk per cell, builds the cells from the chunks, then frames and
    /// CRCs them cell by cell.
    fn segment_reference(s: Segmenter, vci: Vci, pdu_seq: u16, buffers: &[&[u8]]) -> Vec<Cell> {
        let total: usize = buffers.iter().map(|b| b.len()).sum();
        let mut chunks: Vec<Vec<u8>> = Vec::new();
        match s.unit {
            SegmentUnit::Pdu => {
                let mut cur: Vec<u8> = Vec::new();
                for buf in buffers {
                    for &b in buf.iter() {
                        cur.push(b);
                        if cur.len() == CELL_PAYLOAD {
                            chunks.push(std::mem::take(&mut cur));
                        }
                    }
                }
                if !cur.is_empty() {
                    chunks.push(cur);
                }
            }
            SegmentUnit::Buffer => {
                for buf in buffers {
                    chunks.extend(buf.chunks(CELL_PAYLOAD).map(<[u8]>::to_vec));
                }
            }
        }
        let n = chunks.len();
        let mut cells: Vec<Cell> = chunks
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let seq = match s.framing {
                    FramingMode::EndOfPdu => i as u16,
                    FramingMode::FourWay { .. } => pdu_seq,
                };
                Cell::data(vci, seq, c)
            })
            .collect();
        cells[n - 1].header.last_cell = true;
        let lanes = match s.framing {
            FramingMode::EndOfPdu => n,
            FramingMode::FourWay { lanes } => lanes as usize,
        };
        for lane in 0..lanes.min(n) {
            let idx: Vec<usize> = match s.framing {
                FramingMode::EndOfPdu if lane > 0 => continue,
                FramingMode::EndOfPdu => (0..n).collect(),
                FramingMode::FourWay { .. } => (lane..n).step_by(lanes).collect(),
            };
            let mut crc = Crc32::new();
            for &i in &idx {
                crc.update(cells[i].data_bytes());
            }
            let len = match s.framing {
                FramingMode::EndOfPdu => total as u32,
                FramingMode::FourWay { .. } => idx.iter().map(|&i| cells[i].aal.fill as u32).sum(),
            };
            let last = &mut cells[*idx.last().expect("lane has cells")];
            last.aal.eom = true;
            last.trailer = Some(Trailer {
                len,
                crc: crc.finish(),
            });
        }
        cells
    }

    #[test]
    fn in_place_segmentation_matches_reference_chunker() {
        let data = payload(3000);
        // Odd-length multi-buffer chains, including an empty buffer, a
        // buffer shorter than a cell and exact multiples of 44.
        let chains: [&[usize]; 6] = [
            &[1],
            &[43, 45],
            &[7, 0, 88, 131],
            &[44, 44, 1],
            &[1001, 3, 17, 999],
            &[2999],
        ];
        for unit in [SegmentUnit::Pdu, SegmentUnit::Buffer] {
            for framing in [FramingMode::EndOfPdu, FramingMode::FourWay { lanes: 4 }] {
                let s = seg(framing, unit);
                for lens in chains {
                    let mut bufs: Vec<&[u8]> = Vec::new();
                    let mut at = 0;
                    for &l in lens {
                        bufs.push(&data[at..at + l]);
                        at += l;
                    }
                    assert_eq!(
                        s.segment_numbered(Vci(9), 77, &bufs),
                        segment_reference(s, Vci(9), 77, &bufs),
                        "{unit:?} {framing:?} {lens:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn fourway_framing_marks_each_lane() {
        let data = payload(44 * 10);
        let cells =
            seg(FramingMode::FourWay { lanes: 4 }, SegmentUnit::Pdu).segment(Vci(1), &[&data]);
        assert_eq!(cells.len(), 10);
        // Lane l gets cells l, l+4, ...; the last per lane carries EOM.
        // 10 cells: lane0 {0,4,8}, lane1 {1,5,9}, lane2 {2,6}, lane3 {3,7}.
        let eoms: Vec<usize> = cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.aal.eom)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(eoms, vec![6, 7, 8, 9]);
        assert!(cells[9].header.last_cell);
        for i in eoms {
            assert!(cells[i].trailer.is_some());
        }
    }

    #[test]
    fn inorder_roundtrip() {
        let data = payload(1000);
        let cells = seg(FramingMode::EndOfPdu, SegmentUnit::Pdu).segment(Vci(1), &[&data]);
        let mut r = Reassembler::new(ReassemblyMode::InOrder, 1 << 20, true);
        let mut complete = None;
        for c in &cells {
            let d = r.receive(0, c).unwrap();
            if let Some(p) = d.completed {
                complete = Some(p);
            }
        }
        let p = complete.expect("PDU must complete");
        assert!(p.crc_ok);
        assert_eq!(p.len, 1000);
        assert_eq!(p.data.unwrap(), data);
    }

    #[test]
    fn inorder_roundtrip_buffer_unit_partials() {
        // Partial cells mid-PDU reassemble fine in order (offsets are
        // running, not computed from indices).
        let a = payload(50);
        let b = payload(51);
        let cells = seg(FramingMode::EndOfPdu, SegmentUnit::Buffer).segment(Vci(1), &[&a, &b]);
        let mut r = Reassembler::new(ReassemblyMode::InOrder, 1 << 20, true);
        let mut out = None;
        for c in &cells {
            out = r.receive(0, c).unwrap().completed.or(out);
        }
        let p = out.unwrap();
        assert!(p.crc_ok);
        let mut expect = a.clone();
        expect.extend_from_slice(&b);
        assert_eq!(p.data.unwrap(), expect);
    }

    #[test]
    fn inorder_detects_swapped_cells_via_crc() {
        let data = payload(44 * 4);
        let mut cells = seg(FramingMode::EndOfPdu, SegmentUnit::Pdu).segment(Vci(1), &[&data]);
        cells.swap(1, 2); // skew-style misordering
        let mut r = Reassembler::new(ReassemblyMode::InOrder, 1 << 20, true);
        let mut out = None;
        for c in &cells {
            out = r.receive(0, c).unwrap().completed.or(out);
        }
        let p = out.unwrap();
        assert!(!p.crc_ok, "CRC must catch misordered reassembly");
    }

    #[test]
    fn inorder_detects_corruption() {
        let data = payload(500);
        let mut cells = seg(FramingMode::EndOfPdu, SegmentUnit::Pdu).segment(Vci(1), &[&data]);
        cells[3].corrupt_bit(7, 2);
        let mut r = Reassembler::new(ReassemblyMode::InOrder, 1 << 20, true);
        let mut out = None;
        for c in &cells {
            out = r.receive(0, c).unwrap().completed.or(out);
        }
        assert!(!out.unwrap().crc_ok);
    }

    #[test]
    fn seqnum_reassembles_skewed_arrivals() {
        let data = payload(44 * 8);
        let cells = seg(FramingMode::EndOfPdu, SegmentUnit::Pdu).segment(Vci(1), &[&data]);
        // Simulate lane skew: cells 1,2,3 overtake cell 0; per-lane order
        // within each residue class is preserved.
        let order = [1usize, 2, 3, 0, 5, 6, 7, 4];
        let mut r = Reassembler::new(ReassemblyMode::SeqNum { max_cells: 1024 }, 1 << 20, true);
        let mut out = None;
        for &i in &order {
            out = r.receive(0, &cells[i]).unwrap().completed.or(out);
        }
        let p = out.expect("complete");
        assert!(p.crc_ok);
        assert_eq!(p.data.unwrap(), data);
    }

    #[test]
    fn seqnum_rejects_out_of_window() {
        let mut r = Reassembler::new(ReassemblyMode::SeqNum { max_cells: 4 }, 1 << 20, true);
        let c = Cell::data(Vci(1), 4, &[0u8; 44]);
        assert_eq!(r.receive(0, &c).unwrap_err(), RxError::SeqOutOfRange);
    }

    #[test]
    fn seqnum_rejects_partial_fill_midstream() {
        let mut r = Reassembler::new(ReassemblyMode::SeqNum { max_cells: 64 }, 1 << 20, true);
        let c = Cell::data(Vci(1), 0, &[0u8; 10]); // partial, not last
        assert_eq!(
            r.receive(0, &c).unwrap_err(),
            RxError::PartialFillUnsupported
        );
    }

    #[test]
    fn fourway_reassembles_under_lane_skew() {
        let data = payload(44 * 13 + 7);
        let cells =
            seg(FramingMode::FourWay { lanes: 4 }, SegmentUnit::Pdu).segment(Vci(1), &[&data]);
        let n = cells.len();
        // Interleave lanes with heavy skew: deliver lane 3 first, then 2,
        // then 1, then 0 — per-lane order preserved (the §2.6 skew class).
        let mut r = Reassembler::new(ReassemblyMode::FourWay { lanes: 4 }, 1 << 20, true);
        let mut out = None;
        for lane in (0..4usize).rev() {
            let mut i = lane;
            while i < n {
                let d = r.receive(lane, &cells[i]).unwrap();
                out = d.completed.or(out);
                i += 4;
            }
        }
        let p = out.expect("complete");
        assert!(p.crc_ok);
        assert_eq!(p.len as usize, data.len());
        assert_eq!(p.data.unwrap(), data);
    }

    #[test]
    fn fourway_short_pdu_completes_via_last_cell_bit() {
        // A 2-cell PDU on a 4-lane stripe: lanes 2 and 3 carry nothing.
        let data = payload(60);
        let cells =
            seg(FramingMode::FourWay { lanes: 4 }, SegmentUnit::Pdu).segment(Vci(1), &[&data]);
        assert_eq!(cells.len(), 2);
        let mut r = Reassembler::new(ReassemblyMode::FourWay { lanes: 4 }, 1 << 20, true);
        assert!(r.receive(0, &cells[0]).unwrap().completed.is_none());
        let p = r
            .receive(1, &cells[1])
            .unwrap()
            .completed
            .expect("complete");
        assert!(p.crc_ok);
        assert_eq!(p.data.unwrap(), data);
        // Lanes 2/3 skipped the PDU; a following PDU still works.
        let data2 = payload(44 * 6);
        let cells2 = seg(FramingMode::FourWay { lanes: 4 }, SegmentUnit::Pdu).segment_numbered(
            Vci(1),
            1,
            &[&data2],
        );
        let mut out = None;
        for (i, c) in cells2.iter().enumerate() {
            out = r.receive(i % 4, c).unwrap().completed.or(out);
        }
        let p2 = out.expect("second PDU completes");
        assert!(p2.crc_ok);
        assert_eq!(p2.pdu, 1);
        assert_eq!(p2.data.unwrap(), data2);
    }

    #[test]
    fn fourway_back_to_back_pdus_with_skew() {
        // Two PDUs; lane 0 lags a full PDU behind the other lanes.
        let d1 = payload(44 * 8);
        let d2 = payload(44 * 8);
        let s = seg(FramingMode::FourWay { lanes: 4 }, SegmentUnit::Pdu);
        let c1 = s.segment(Vci(1), &[&d1]);
        let c2 = s.segment_numbered(Vci(1), 1, &[&d2]);
        let mut r = Reassembler::new(ReassemblyMode::FourWay { lanes: 4 }, 1 << 20, true);
        let mut done = Vec::new();
        // Lanes 1..3 deliver both PDUs first.
        for lane in 1..4usize {
            for cells in [&c1, &c2] {
                let mut i = lane;
                while i < cells.len() {
                    if let Some(p) = r.receive(lane, &cells[i]).unwrap().completed {
                        done.push(p);
                    }
                    i += 4;
                }
            }
        }
        assert!(done.is_empty(), "nothing completes without lane 0");
        // Lane 0 catches up.
        for cells in [&c1, &c2] {
            let mut i = 0;
            while i < cells.len() {
                if let Some(p) = r.receive(0, &cells[i]).unwrap().completed {
                    done.push(p);
                }
                i += 4;
            }
        }
        assert_eq!(done.len(), 2);
        assert!(done.iter().all(|p| p.crc_ok));
        assert_eq!(done[0].data.as_ref().unwrap(), &d1);
        assert_eq!(done[1].data.as_ref().unwrap(), &d2);
    }

    #[test]
    fn fourway_lane_out_of_range() {
        let mut r = Reassembler::new(ReassemblyMode::FourWay { lanes: 4 }, 1 << 20, true);
        let c = Cell::data(Vci(1), 0, &[0u8; 44]);
        assert_eq!(r.receive(4, &c).unwrap_err(), RxError::LaneOutOfRange);
    }

    #[test]
    fn fourway_detects_lane_corruption() {
        let data = payload(44 * 9);
        let mut cells =
            seg(FramingMode::FourWay { lanes: 4 }, SegmentUnit::Pdu).segment(Vci(1), &[&data]);
        cells[5].corrupt_bit(0, 0);
        let mut r = Reassembler::new(ReassemblyMode::FourWay { lanes: 4 }, 1 << 20, true);
        let mut out = None;
        for (i, c) in cells.iter().enumerate() {
            out = r.receive(i % 4, c).unwrap().completed.or(out);
        }
        assert!(!out.unwrap().crc_ok);
    }

    #[test]
    fn fourway_abort_unwedges_a_lane_missing_its_eom() {
        // Two 8-cell PDUs on a 4-lane stripe. Drop lane 2's EOM cell of the
        // first PDU (global cell 6): without intervention lane 2 is parked on
        // PDU 0 forever and PDU 1 can never complete.
        let d1 = payload(44 * 8);
        let d2 = payload(44 * 8);
        let s = seg(FramingMode::FourWay { lanes: 4 }, SegmentUnit::Pdu);
        let c1 = s.segment(Vci(1), &[&d1]);
        let c2 = s.segment_numbered(Vci(1), 1, &[&d2]);
        let mut r = Reassembler::new(ReassemblyMode::FourWay { lanes: 4 }, 1 << 20, true);
        for (i, c) in c1.iter().enumerate() {
            if i == 6 {
                continue; // the dropped cell
            }
            assert!(r.receive(i % 4, c).unwrap().completed.is_none());
        }
        assert_eq!(r.in_flight(), 1);

        // Timeout fires: reclaim PDU 0.
        r.abort(0);
        assert_eq!(r.in_flight(), 0);

        // The next PDU now reassembles cleanly on all four lanes.
        let mut out = None;
        for (i, c) in c2.iter().enumerate() {
            out = r.receive(i % 4, c).unwrap().completed.or(out);
        }
        let p = out.expect("PDU 1 completes after the abort");
        assert_eq!(p.pdu, 1);
        assert!(p.crc_ok);
        assert_eq!(p.data.unwrap(), d2);
    }

    #[test]
    fn inorder_abort_resets_running_state() {
        let d1 = payload(44 * 3);
        let d2 = payload(100);
        let s = seg(FramingMode::EndOfPdu, SegmentUnit::Pdu);
        let c1 = s.segment(Vci(1), &[&d1]);
        let c2 = s.segment(Vci(1), &[&d2]);
        let mut r = Reassembler::new(ReassemblyMode::InOrder, 1 << 20, true);
        // Deliver the first two cells of PDU 0, then lose the tail.
        r.receive(0, &c1[0]).unwrap();
        r.receive(0, &c1[1]).unwrap();
        r.abort(0);
        assert_eq!(r.in_flight(), 0);
        let mut out = None;
        for c in &c2 {
            out = r.receive(0, c).unwrap().completed.or(out);
        }
        let p = out.expect("complete");
        assert!(p.crc_ok);
        assert_eq!(p.pdu, 1);
        assert_eq!(p.data.unwrap(), d2);
    }

    #[test]
    fn pdu_too_large_rejected() {
        let mut r = Reassembler::new(ReassemblyMode::InOrder, 40, true);
        let c = Cell::data(Vci(1), 0, &[0u8; 44]);
        assert_eq!(r.receive(0, &c).unwrap_err(), RxError::PduTooLarge);
    }

    #[test]
    fn disposition_offsets_are_placement_addresses() {
        let data = payload(44 * 5);
        let cells =
            seg(FramingMode::FourWay { lanes: 4 }, SegmentUnit::Pdu).segment(Vci(1), &[&data]);
        let mut r = Reassembler::new(ReassemblyMode::FourWay { lanes: 4 }, 1 << 20, false);
        // Deliver in a skewed but per-lane-FIFO order and check offsets
        // equal global_cell_index * 44.
        let order = [(1usize, 1usize), (2, 2), (0, 0), (3, 3), (0, 4)];
        for &(lane, idx) in &order {
            let d = r.receive(lane, &cells[idx]).unwrap();
            assert_eq!(d.offset as usize, idx * 44, "cell {idx}");
        }
    }

    #[test]
    fn fourway_lost_cell_does_not_stitch_consecutive_pdus() {
        // Regression: two consecutive 2-cell PDUs on the same VCI (the
        // shape of every block-ack), with PDU A's lane-0 cell lost. Under
        // purely positional framing, lane 0 stays parked on A's record and
        // silently attributes B's lane-0 cell to it — completing A's record
        // as a stitch of [B-cell0, A-cell1] whose per-lane CRCs BOTH pass
        // (each lane's contribution is individually intact), so a torn PDU
        // was delivered with `crc_ok`. The per-VCI PDU tag in the AAL
        // header now resynchronises lane 0 onto B instead.
        let a = payload(60);
        let b: Vec<u8> = payload(60).iter().map(|x| x ^ 0xa5).collect();
        let s = seg(FramingMode::FourWay { lanes: 4 }, SegmentUnit::Pdu);
        let ca = s.segment_numbered(Vci(1), 0, &[&a]);
        let cb = s.segment_numbered(Vci(1), 1, &[&b]);
        assert_eq!((ca.len(), cb.len()), (2, 2));

        let mut r = Reassembler::new(ReassemblyMode::FourWay { lanes: 4 }, 1 << 20, true);
        // ca[0] (lane 0) is dropped on the wire.
        assert!(r.receive(1, &ca[1]).unwrap().completed.is_none());
        let d = r.receive(0, &cb[0]).unwrap();
        assert_eq!(d.pdu, 1, "lane 0 must resync onto PDU 1, not stitch PDU 0");
        assert!(d.completed.is_none());
        let p = r
            .receive(1, &cb[1])
            .unwrap()
            .completed
            .expect("PDU 1 completes");
        assert_eq!(p.pdu, 1);
        assert!(p.crc_ok);
        assert_eq!(p.data.unwrap(), b, "B delivered intact, not torn");
        // A's partial record lingers until the reassembly timeout reaps it;
        // it can never complete (and thus never deliver torn data).
        assert_eq!(r.in_flight(), 1);
    }

    #[test]
    fn fourway_straggler_after_abort_is_rejected() {
        // A cell of an aborted PDU arriving after its lane resynchronised
        // must be dropped, not attributed to the successor PDU.
        let a = payload(60);
        let s = seg(FramingMode::FourWay { lanes: 4 }, SegmentUnit::Pdu);
        let ca = s.segment_numbered(Vci(1), 0, &[&a]);
        let mut r = Reassembler::new(ReassemblyMode::FourWay { lanes: 4 }, 1 << 20, true);
        assert!(r.receive(1, &ca[1]).unwrap().completed.is_none());
        r.abort(0);
        assert_eq!(
            r.receive(0, &ca[0]).unwrap_err(),
            RxError::StaleSeq,
            "straggler of the aborted PDU is rejected by its stale tag"
        );
    }
}
