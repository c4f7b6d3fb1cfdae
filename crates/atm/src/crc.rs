//! CRC-32 (AAL5, slice-by-8) and CRC-10 (ATM OAM) — table-driven, incremental.
//!
//! AAL5 protects each PDU with the IEEE 802.3 CRC-32 (polynomial
//! 0x04C11DB8, reflected 0xEDB88320). The reproduction computes real CRCs
//! over real payload bytes so that cell corruption, cell misordering under
//! an in-order-only reassembler, and stale-cache reads (§2.3) are all
//! *detected the way the paper relies on*: by the error check, not by
//! simulator fiat.

/// Reflected CRC-32 polynomial (IEEE 802.3 / AAL5).
const CRC32_POLY: u32 = 0xEDB8_8320;

/// CRC-10 polynomial x^10 + x^9 + x^5 + x^4 + x + 1 (ITU I.610), MSB-first.
const CRC10_POLY: u16 = 0x633;

/// Slice-by-8 lookup tables, built at compile time. `T[0]` is the
/// classic byte-at-a-time table; `T[k][b]` is the CRC contribution of
/// byte `b` followed by `k` zero bytes, so eight table lookups absorb
/// eight input bytes at once.
static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                (c >> 1) ^ CRC32_POLY
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

/// Incremental CRC-32 state. AAL5-style: initial value all-ones, final
/// complement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A fresh accumulator.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Absorbs bytes: eight at a time through the slice-by-8 tables,
    /// then the tail one byte at a time.
    pub fn update(&mut self, data: &[u8]) {
        let t = &CRC32_TABLES;
        let mut c = self.state;
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][w[4] as usize]
                ^ t[2][w[5] as usize]
                ^ t[1][w[6] as usize]
                ^ t[0][w[7] as usize];
        }
        for &b in words.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// Final CRC value.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

/// One-shot CRC-10 of a byte slice (bit-serial MSB-first; used for the
/// cell-header-style integrity check in tests and fault injection).
pub fn crc10(data: &[u8]) -> u16 {
    let mut crc: u16 = 0;
    for &b in data {
        for bit in (0..8).rev() {
            let inbit = ((b >> bit) & 1) as u16;
            let topbit = (crc >> 9) & 1;
            crc = (crc << 1) & 0x3FF;
            if topbit ^ inbit != 0 {
                crc ^= CRC10_POLY & 0x3FF;
            }
        }
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Oracle: bit-serial reflected CRC-32, independent of the tables.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    (c >> 1) ^ CRC32_POLY
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    fn pattern(n: usize) -> Vec<u8> {
        (0..n as u32)
            .map(|i| (i.wrapping_mul(167) ^ (i >> 3)) as u8)
            .collect()
    }

    #[test]
    fn slice_by_8_matches_bytewise_oracle_on_every_length() {
        let data = pattern(256);
        for len in 0..=256 {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bytewise(&data[..len]),
                "length {len}"
            );
        }
    }

    #[test]
    fn update_matches_oracle_at_every_split_point() {
        let data = pattern(97);
        let want = crc32_bytewise(&data);
        for split in 0..=data.len() {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), want, "split at {split}");
        }
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn crc32_incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut inc = Crc32::new();
        for chunk in data.chunks(44) {
            inc.update(chunk);
        }
        assert_eq!(inc.finish(), crc32(&data));
    }

    #[test]
    fn crc32_detects_single_bit_flip() {
        let mut data = vec![0u8; 1024];
        data[500] = 0x55;
        let good = crc32(&data);
        for bit in 0..8 {
            let mut bad = data.clone();
            bad[123] ^= 1 << bit;
            assert_ne!(crc32(&bad), good, "bit {bit} flip undetected");
        }
    }

    #[test]
    fn crc32_detects_cell_swap() {
        // Two swapped 44-byte cells — the §2.6 misordering failure an
        // in-order reassembler must catch via CRC.
        let data: Vec<u8> = (0..88u8).collect();
        let mut swapped = data.clone();
        swapped.rotate_left(44);
        assert_ne!(crc32(&data), crc32(&swapped));
    }

    #[test]
    fn crc10_range_and_determinism() {
        let c = crc10(b"OSIRIS");
        assert!(c < 1024);
        assert_eq!(c, crc10(b"OSIRIS"));
        assert_ne!(crc10(b"OSIRIS"), crc10(b"OSIRIX"));
    }

    #[test]
    fn crc10_self_check_property() {
        // Appending the CRC (as 2 bytes, 10 significant bits left-aligned
        // in a 16-bit field) then re-checking yields 0 for MSB-first CRCs
        // when the message is extended by exactly 10 zero bits. We verify
        // the weaker but sufficient property: distinct small messages give
        // distinct CRCs often enough to catch corruption.
        let mut seen = std::collections::HashSet::new();
        for i in 0..200u32 {
            seen.insert(crc10(&i.to_be_bytes()));
        }
        assert!(seen.len() > 150, "CRC-10 collides too much: {}", seen.len());
    }
}
