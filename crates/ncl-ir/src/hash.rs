//! Deterministic hashing of what is written to disk.
//!
//! The ncmc corpus names each committed counterexample schedule after a
//! hash of its text, so the hash must be *stable* — identical across
//! runs, platforms and releases — or rediscoveries stop deduplicating
//! against committed files; `std`'s randomized `DefaultHasher` is out.
//! This module pins the function: 64-bit FNV-1a. (The model checker's
//! in-memory visited-set key is a separate, word-wise hash over the
//! state, `ncmc::System::hash`: nothing on disk carries it.)

/// A 64-bit FNV-1a stream hasher with a pinned, platform-independent
/// byte order (`write_u64` feeds little-endian bytes).
#[derive(Clone, Copy, Debug)]
pub struct StableHasher {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl StableHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        StableHasher { state: FNV_OFFSET }
    }

    /// Feeds one byte.
    #[inline]
    fn write_u8(&mut self, b: u8) {
        self.state = (self.state ^ b as u64).wrapping_mul(FNV_PRIME);
    }

    /// Feeds a byte slice.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Feeds a `u64` as 8 little-endian bytes.
    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds a length-prefixed string (prefix disambiguates
    /// concatenations: `("ab","c")` hashes differently from `("a","bc")`).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The digest (schedule ids, file names).
    pub fn finish64(&self) -> u64 {
        self.state
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
    fn length_prefix_disambiguates() {
        let mut a = StableHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = StableHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish64(), b.finish64());
    }
}
