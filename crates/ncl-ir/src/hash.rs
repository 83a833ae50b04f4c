//! Deterministic hashing of what is written to disk.
//!
//! The ncmc corpus names each committed counterexample schedule after a
//! hash of its text, so the hash must be *stable* — identical across
//! runs, platforms and releases — or rediscoveries stop deduplicating
//! against committed files; `std`'s randomized `DefaultHasher` is out.
//! This module pins the function: FNV-1a, widened to 128 bits by
//! running two independent streams with different offset bases. (The
//! model checker's in-memory visited-set key is a separate, word-wise
//! hash over the state, `ncmc::System::hash`: nothing on disk carries
//! it.)

/// A 128-bit FNV-1a stream hasher with a pinned, platform-independent
/// byte order (`write_u64` feeds little-endian bytes).
#[derive(Clone, Copy, Debug)]
pub struct StableHasher {
    lo: u64,
    hi: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// Second stream starts from a different basis so the two 64-bit
/// halves are independent functions of the input.
const FNV_OFFSET_HI: u64 = 0x6c62_272e_07bb_0142;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl StableHasher {
    /// A fresh hasher at the FNV offset bases.
    pub fn new() -> Self {
        StableHasher {
            lo: FNV_OFFSET,
            hi: FNV_OFFSET_HI,
        }
    }

    /// Feeds one byte into both streams.
    #[inline]
    pub fn write_u8(&mut self, b: u8) {
        self.lo = (self.lo ^ b as u64).wrapping_mul(FNV_PRIME);
        self.hi = (self.hi ^ b as u64).wrapping_mul(FNV_PRIME.rotate_left(1));
    }

    /// Feeds a byte slice.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Feeds a `u64` as 8 little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds a length-prefixed string (prefix disambiguates
    /// concatenations: `("ab","c")` hashes differently from `("a","bc")`).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The 128-bit digest.
    pub fn finish128(&self) -> u128 {
        ((self.hi as u128) << 64) | self.lo as u128
    }

    /// The low 64 bits (schedule ids, file names).
    pub fn finish64(&self) -> u64 {
        self.lo
    }
}

/// One-shot convenience: 64-bit FNV-1a of a byte slice.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write(bytes);
    h.finish64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_values_never_drift() {
        // Golden values: if these change, every corpus schedule file
        // name and every recorded certificate hash silently rots.
        assert_eq!(fnv64(b""), FNV_OFFSET);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut h = StableHasher::new();
        h.write_u64(42);
        assert_eq!(h.finish64(), 0xff3a_dd6b_3789_daef);
    }

    #[test]
    fn streams_are_independent() {
        let mut a = StableHasher::new();
        let mut b = StableHasher::new();
        a.write(b"hello");
        b.write(b"hello");
        assert_eq!(a.finish128(), b.finish128());
        b.write_u8(0);
        assert_ne!(a.finish128(), b.finish128());
        // hi and lo must not be the same function of the input.
        assert_ne!(a.finish128() >> 64, a.finish128() & u64::MAX as u128);
    }

    #[test]
    fn length_prefix_disambiguates() {
        let mut a = StableHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = StableHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish128(), b.finish128());
    }
}
