//! A fixed hash for the small integer keys of the datapath.
//!
//! Every map a packet or a KVS operation touches is keyed by a kernel
//! id, a `(kernel, seq)` window key, a [`crate::NodeId`] or a `u64` key.
//! `std`'s default SipHash is built to resist chosen keys and costs tens
//! of nanoseconds per lookup for it; [`IdHasher`] is one multiply per
//! word. Its hash is the same in every run, so an [`IdMap`] iterates in
//! the same order every time. It is not HashDoS-resistant: use it for
//! keys a peer cannot choose freely, or for substrates that trust their
//! senders.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Multiply-rotate hasher: each word is added to the state and the sum
/// multiplied by an odd constant; `finish` rotates the well-mixed high
/// bits down to where `HashMap` takes its bucket index.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

/// Odd, so multiplying by it is a bijection on `u64`.
const K: u64 = 0xf135_7aea_2e62_a9c5;

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(n.into());
    }

    fn write_u16(&mut self, n: u16) {
        self.write_u64(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.wrapping_add(n).wrapping_mul(K);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HostId, NodeId, SwitchId};
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(t: &T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(t)
    }

    /// No two of `keys` hash equal, and the top 7 bits of their hashes
    /// (`HashMap`'s control byte) take all 128 values.
    fn spreads<T: Hash>(what: &str, keys: impl Iterator<Item = T>) {
        let mut hashes: Vec<u64> = keys.map(|k| hash(&k)).collect();
        let mut top = [false; 128];
        for h in &hashes {
            top[(h >> 57) as usize] = true;
        }
        let n = hashes.len();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), n, "{what}: two keys hash equal");
        let seen = top.iter().filter(|&&t| t).count();
        assert_eq!(seen, 128, "{what}: control byte takes {seen} of 128 values");
    }

    #[test]
    fn datapath_keys_hash_apart_and_fill_the_control_byte() {
        spreads("u16 kernel id", 0..=u16::MAX);
        spreads(
            "(kernel, seq) window key",
            (0..4u16).flat_map(|k| (0..=1u32 << 20).map(move |s| (k, s))),
        );
        spreads(
            "NodeId",
            (0..0x8000u16).flat_map(|i| [NodeId::Host(HostId(i)), NodeId::Switch(SwitchId(i))]),
        );
        spreads("u64 key", 1..=10_000u64);
    }

    #[test]
    fn the_hash_is_the_same_in_every_run() {
        assert_eq!(hash(&7u64), 7u64.wrapping_mul(K).rotate_left(26));
        let map: IdMap<u16, u16> = (0..64).map(|k| (k, k)).collect();
        let again: IdMap<u16, u16> = (0..64).map(|k| (k, k)).collect();
        assert!(map.keys().eq(again.keys()));
    }
}
