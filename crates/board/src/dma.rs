//! DMA transaction planning (§2.5).
//!
//! The DMA controller's transfer-length rules were the most-revised part of
//! OSIRIS ("the logic for this component is by far the most complex part").
//! Four generations are modelled:
//!
//! * [`DmaMode::SingleCell`] — exactly one 44-byte cell payload per
//!   transaction (the original logic). 42 % bus overhead in the transmit
//!   direction.
//! * [`DmaMode::DoubleCell`] — the implemented modification: the receive
//!   processor looks at two cell headers and, when the payloads land
//!   contiguously, issues one 88-byte transaction (26 % → 12 % overhead;
//!   587 Mbps ceiling — "more than the payload of an OC-12 channel").
//! * [`DmaMode::Arbitrary`] — the ideal controller the programmable logic
//!   could not afford.
//!
//! Orthogonally, the **page-boundary-stop rule** (§2.5.2): "if the address
//! handed to the DMA controller is within 44 bytes of a page boundary, the
//! DMA will stop when it reaches the boundary", taking a second address to
//! fill the remainder of the cell. That is what lets the host pass PDUs as
//! chains of page-aligned buffers without partially filled cells mid-PDU.
//!
//! # Example
//!
//! ```
//! use osiris_board::dma::{plan_dma, DmaMode};
//! use osiris_mem::PhysAddr;
//!
//! // 88 bytes starting 20 bytes before a page boundary: the controller
//! // stops at the boundary and takes a second address (§2.5.2).
//! let plan: Vec<_> = plan_dma(DmaMode::DoubleCell, PhysAddr(4096 - 20), 88, 4096).collect();
//! assert_eq!(plan.len(), 2);
//! assert_eq!(plan[0].len, 20);
//! assert_eq!(plan[1].addr, PhysAddr(4096));
//! ```

use osiris_mem::PhysAddr;

/// Maximum bytes the DMA controller moves per transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaMode {
    /// One cell payload (44 B) per transaction.
    SingleCell,
    /// Up to two contiguous cell payloads (88 B) per transaction.
    DoubleCell,
    /// Any length (ideal hardware; used as an ablation baseline).
    Arbitrary,
}

impl DmaMode {
    /// Largest transfer this mode may issue, if bounded.
    pub fn max_len(self) -> Option<u32> {
        match self {
            DmaMode::SingleCell => Some(44),
            DmaMode::DoubleCell => Some(88),
            DmaMode::Arbitrary => None,
        }
    }
}

/// One planned DMA transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaXfer {
    /// Start address.
    pub addr: PhysAddr,
    /// Length in bytes.
    pub len: u32,
}

/// Plans the bus transactions needed to move `len` bytes starting at
/// `addr`, under `mode`, stopping at `page_size` boundaries (the §2.5.2
/// rule). Each yielded transaction pays the fixed per-transaction bus
/// overhead, so the plan length is the cost model's input. The plan is
/// computed lazily, one transaction per `next`, without allocating.
pub fn plan_dma(
    mode: DmaMode,
    addr: PhysAddr,
    len: u32,
    page_size: u64,
) -> impl Iterator<Item = DmaXfer> {
    assert!(page_size.is_power_of_two());
    let mut cur = addr.0;
    let mut remaining = len as u64;
    let chunk_cap = mode.max_len().map(u64::from).unwrap_or(u64::MAX);
    std::iter::from_fn(move || {
        if remaining == 0 {
            return None;
        }
        let to_page_end = page_size - (cur & (page_size - 1));
        let take = remaining.min(chunk_cap).min(to_page_end);
        let xfer = DmaXfer {
            addr: PhysAddr(cur),
            len: take as u32,
        };
        cur += take;
        remaining -= take;
        Some(xfer)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: u64 = 4096;

    fn plan_dma(mode: DmaMode, addr: PhysAddr, len: u32, page_size: u64) -> Vec<DmaXfer> {
        super::plan_dma(mode, addr, len, page_size).collect()
    }

    /// Oracle: the same rule, planned eagerly into a `Vec`.
    fn plan_dma_reference(mode: DmaMode, addr: PhysAddr, len: u32, page_size: u64) -> Vec<DmaXfer> {
        let mut out = Vec::with_capacity(2);
        let mut cur = addr.0;
        let mut remaining = len as u64;
        let chunk_cap = mode.max_len().map(u64::from).unwrap_or(u64::MAX);
        while remaining > 0 {
            let to_page_end = page_size - (cur & (page_size - 1));
            let take = remaining.min(chunk_cap).min(to_page_end);
            out.push(DmaXfer {
                addr: PhysAddr(cur),
                len: take as u32,
            });
            cur += take;
            remaining -= take;
        }
        out
    }

    #[test]
    fn lazy_plan_matches_reference_planner() {
        for mode in [DmaMode::SingleCell, DmaMode::DoubleCell, DmaMode::Arbitrary] {
            for page in [64u64, PAGE, 8192] {
                for start in (0..3 * page)
                    .step_by(7)
                    .chain([page - 1, page, 2 * page - 44])
                {
                    for len in [0u32, 1, 20, 43, 44, 45, 87, 88, 89, 4096, 10_000] {
                        assert_eq!(
                            plan_dma(mode, PhysAddr(start), len, page),
                            plan_dma_reference(mode, PhysAddr(start), len, page),
                            "{mode:?} page {page} start {start} len {len}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn single_cell_fits_one_transaction() {
        let plan = plan_dma(DmaMode::SingleCell, PhysAddr(1000), 44, PAGE);
        assert_eq!(
            plan,
            vec![DmaXfer {
                addr: PhysAddr(1000),
                len: 44
            }]
        );
    }

    #[test]
    fn single_cell_splits_at_page_boundary() {
        // 44 bytes starting 20 bytes before a page boundary: stop at the
        // boundary, second transaction fills the remainder of the cell.
        let start = PAGE - 20;
        let plan = plan_dma(DmaMode::SingleCell, PhysAddr(start), 44, PAGE);
        assert_eq!(
            plan,
            vec![
                DmaXfer {
                    addr: PhysAddr(start),
                    len: 20
                },
                DmaXfer {
                    addr: PhysAddr(PAGE),
                    len: 24
                },
            ]
        );
    }

    #[test]
    fn double_cell_is_one_transaction_when_aligned() {
        let plan = plan_dma(DmaMode::DoubleCell, PhysAddr(0), 88, PAGE);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].len, 88);
    }

    #[test]
    fn double_cell_respects_page_boundary() {
        let start = PAGE - 44;
        let plan = plan_dma(DmaMode::DoubleCell, PhysAddr(start), 88, PAGE);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[0].len, 44);
        assert_eq!(plan[1].addr, PhysAddr(PAGE));
        assert_eq!(plan[1].len, 44);
    }

    #[test]
    fn arbitrary_mode_only_splits_on_pages() {
        let plan = plan_dma(DmaMode::Arbitrary, PhysAddr(100), 16 * 1024, PAGE);
        // 100..4096, then three full pages, then the tail.
        assert_eq!(plan.len(), 5);
        assert_eq!(plan.iter().map(|x| x.len as u64).sum::<u64>(), 16 * 1024);
        for w in plan.windows(2) {
            assert_eq!(w[0].addr.0 + w[0].len as u64, w[1].addr.0);
        }
    }

    #[test]
    fn plan_conserves_bytes_and_never_crosses_pages() {
        for mode in [DmaMode::SingleCell, DmaMode::DoubleCell, DmaMode::Arbitrary] {
            for start in [
                0u64,
                1,
                43,
                44,
                PAGE - 1,
                PAGE - 44,
                PAGE - 45,
                3 * PAGE - 7,
            ] {
                for len in [1u32, 43, 44, 45, 88, 89, 4096, 10_000] {
                    let plan = plan_dma(mode, PhysAddr(start), len, PAGE);
                    assert_eq!(
                        plan.iter().map(|x| x.len as u64).sum::<u64>(),
                        len as u64,
                        "{mode:?} {start} {len}"
                    );
                    for x in &plan {
                        let first_page = x.addr.0 / PAGE;
                        let last_page = (x.addr.0 + x.len as u64 - 1) / PAGE;
                        assert_eq!(first_page, last_page, "crossed a page: {x:?}");
                        if let Some(cap) = mode.max_len() {
                            assert!(x.len <= cap);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn exactly_at_boundary_starts_fresh() {
        let plan = plan_dma(DmaMode::SingleCell, PhysAddr(PAGE), 44, PAGE);
        assert_eq!(plan.len(), 1);
    }
}
