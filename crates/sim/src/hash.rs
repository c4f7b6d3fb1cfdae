//! A fixed-seed Fx hasher for the per-cell lookup maps.
//!
//! `std`'s default SipHash with a random per-process key is built to
//! resist hash flooding from untrusted input. The simulator's per-cell
//! maps are keyed by small integers it minted itself (VCIs, PDU
//! numbers), so that protection only costs time on every cell. This is
//! the multiply-rotate hash rustc uses internally (`FxHasher`): one
//! rotate, xor and multiply per word, with a fixed constant, so it is
//! also the same from run to run.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier (2^64 / φ, made odd), as in rustc's `FxHasher`.
const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// A fast, non-cryptographic, deterministic hasher for small keys.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` hashed with [`FxHasher`]; build one with
/// `FxHashMap::default()`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn hashing_is_fixed_across_instances() {
        assert_eq!(hash_of((7u16, 42u64)), hash_of((7u16, 42u64)));
        assert_eq!(hash_of(1u64), SEED);
        assert_ne!(hash_of((7u16, 42u64)), hash_of((42u16, 7u64)));
    }

    #[test]
    fn byte_writes_cover_the_tail() {
        assert_ne!(hash_of(&b"abcdefghi"[..]), hash_of(&b"abcdefghj"[..]));
    }

    #[test]
    fn map_round_trips_small_integer_keys() {
        let mut m: FxHashMap<(u16, u64), u32> = FxHashMap::default();
        for v in 0..64u16 {
            for p in 0..64u64 {
                m.insert((v, p), v as u32 * 1000 + p as u32);
            }
        }
        assert_eq!(m.len(), 64 * 64);
        assert_eq!(m[&(17, 33)], 17_033);
    }
}
