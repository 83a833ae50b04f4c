//! The in-band telemetry postcard: a fixed-size, big-endian **hop
//! record** each on-path switch appends to a window, and the section
//! framing that carries a run of them after the NCP v1 payload.
//!
//! Wire layout (DESIGN.md §4.9). A frame whose NCP header has
//! `FLAG_TELEMETRY` (0x40) set carries, *after* the encoded window:
//!
//! ```text
//! [count: u8] [count × 32-byte HopRecord]
//! ```
//!
//! Each `HopRecord` is 32 bytes, all fields big-endian:
//!
//! | offset | field    | meaning                                   |
//! |-------:|----------|-------------------------------------------|
//! | 0      | switch   | u16 wire id of the stamping switch        |
//! | 2      | kernel   | u16 kernel id the window addressed        |
//! | 4      | version  | u16 deployed kernel version at the switch |
//! | 6      | stages   | u16 PISA stages the kernel occupies       |
//! | 8      | uops     | u32 interpreter-equivalent kernel steps   |
//! | 12     | flags    | u16 ([`HOP_DUP_SUPPRESSED`], …)           |
//! | 14     | reserved | u16, must be zero                         |
//! | 16     | ticks_in | u64 sim-time at switch ingress (ns)       |
//! | 24     | ticks_out| u64 sim-time at switch egress (ns)        |
//!
//! Because the NCP length fields (`nchunks`/mask/`ext_len`) fully
//! determine the payload length, decoders that do not understand
//! telemetry simply never look past the payload: the section is
//! backward compatible by construction, and `version`/`stages`/`uops`
//! come from deploy-time metadata so the interpreter, fast-path, and
//! PISA executions of the same window stamp bit-identical records.

/// Size in bytes of one encoded [`HopRecord`].
pub(crate) const HOP_RECORD_LEN: usize = 32;

/// Hop-record flag: the switch suppressed this window as an NCP-R
/// replay (its `__nclr_dups_*` registers advanced while processing it).
pub const HOP_DUP_SUPPRESSED: u16 = 0x0001;

/// Hop-record flag: the switch forwarded the frame without executing a
/// kernel on it (no datapath, unknown kernel, or control traffic).
pub const HOP_FORWARDED_ONLY: u16 = 0x0002;

/// One switch's stamp on a window's telemetry section.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HopRecord {
    /// Wire id of the stamping switch.
    pub switch: u16,
    /// Kernel id the window addressed.
    pub kernel: u16,
    /// Deployed kernel version at this switch (1-based module index).
    pub version: u16,
    /// PISA stages the kernel's pipeline occupies at this switch.
    pub stages: u16,
    /// Fast-path micro-op count for the kernel at this switch.
    pub uops: u32,
    /// Flag bits ([`HOP_DUP_SUPPRESSED`], [`HOP_FORWARDED_ONLY`]).
    pub flags: u16,
    /// Sim-time ticks (ns) when the frame entered the switch.
    pub ticks_in: u64,
    /// Sim-time ticks (ns) when the frame left the switch.
    pub ticks_out: u64,
}

impl HopRecord {
    /// Encodes the record into its 32-byte big-endian wire form.
    pub fn encode(&self) -> [u8; HOP_RECORD_LEN] {
        let mut b = [0u8; HOP_RECORD_LEN];
        b[0..2].copy_from_slice(&self.switch.to_be_bytes());
        b[2..4].copy_from_slice(&self.kernel.to_be_bytes());
        b[4..6].copy_from_slice(&self.version.to_be_bytes());
        b[6..8].copy_from_slice(&self.stages.to_be_bytes());
        b[8..12].copy_from_slice(&self.uops.to_be_bytes());
        b[12..14].copy_from_slice(&self.flags.to_be_bytes());
        // b[14..16] reserved, zero.
        b[16..24].copy_from_slice(&self.ticks_in.to_be_bytes());
        b[24..32].copy_from_slice(&self.ticks_out.to_be_bytes());
        b
    }

    /// Decodes a record from `b`; `None` unless exactly
    /// `HOP_RECORD_LEN` (32) bytes with a zero reserved field.
    pub fn decode(b: &[u8]) -> Option<HopRecord> {
        if b.len() != HOP_RECORD_LEN || b[14] != 0 || b[15] != 0 {
            return None;
        }
        let be16 = |o: usize| u16::from_be_bytes([b[o], b[o + 1]]);
        Some(HopRecord {
            switch: be16(0),
            kernel: be16(2),
            version: be16(4),
            stages: be16(6),
            uops: u32::from_be_bytes([b[8], b[9], b[10], b[11]]),
            flags: be16(12),
            ticks_in: u64::from_be_bytes(b[16..24].try_into().unwrap()),
            ticks_out: u64::from_be_bytes(b[24..32].try_into().unwrap()),
        })
    }
}

/// An empty telemetry section: count byte of zero, no records. This is
/// what a sending host appends when it arms `FLAG_TELEMETRY`.
pub fn section_init() -> Vec<u8> {
    vec![0]
}

/// Whether `bytes` is a well-formed telemetry section: a count byte
/// followed by exactly `count` records.
pub fn section_valid(bytes: &[u8]) -> bool {
    !bytes.is_empty() && bytes.len() == 1 + HOP_RECORD_LEN * bytes[0] as usize
}

/// Appends `rec` to a well-formed section in place, bumping the count
/// byte. Returns `false` (leaving the section untouched) if the section
/// is malformed or already holds 255 records.
pub fn section_append(section: &mut Vec<u8>, rec: &HopRecord) -> bool {
    if !section_valid(section) || section[0] == u8::MAX {
        return false;
    }
    section[0] += 1;
    section.extend_from_slice(&rec.encode());
    true
}

/// Decodes every record of a well-formed section; `None` if malformed.
pub fn section_records(bytes: &[u8]) -> Option<Vec<HopRecord>> {
    if !section_valid(bytes) {
        return None;
    }
    let mut out = Vec::with_capacity(bytes[0] as usize);
    for i in 0..bytes[0] as usize {
        let at = 1 + i * HOP_RECORD_LEN;
        out.push(HopRecord::decode(&bytes[at..at + HOP_RECORD_LEN])?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(i: u16) -> HopRecord {
        HopRecord {
            switch: 10 + i,
            kernel: 1,
            version: 2,
            stages: 3,
            uops: 40 + i as u32,
            flags: HOP_DUP_SUPPRESSED,
            ticks_in: 1_000 + i as u64,
            ticks_out: 1_600 + i as u64,
        }
    }

    #[test]
    fn record_roundtrips_bit_identically() {
        let r = sample(0);
        let b = r.encode();
        assert_eq!(HopRecord::decode(&b), Some(r));
        assert_eq!(HopRecord::decode(&b).unwrap().encode(), b);
    }

    #[test]
    fn decode_rejects_bad_lengths_and_reserved() {
        let b = sample(0).encode();
        assert_eq!(HopRecord::decode(&b[..31]), None);
        let mut bad = b;
        bad[15] = 1;
        assert_eq!(HopRecord::decode(&bad), None);
    }

    #[test]
    fn section_grows_and_decodes() {
        let mut s = section_init();
        assert!(section_valid(&s));
        assert_eq!(section_records(&s), Some(vec![]));
        for i in 0..3 {
            assert!(section_append(&mut s, &sample(i)));
        }
        assert_eq!(s.len(), 1 + 3 * HOP_RECORD_LEN);
        let recs = section_records(&s).unwrap();
        assert_eq!(recs, vec![sample(0), sample(1), sample(2)]);
    }

    #[test]
    fn malformed_sections_are_rejected() {
        assert!(!section_valid(&[]));
        assert!(!section_valid(&[1])); // claims 1 record, has none
        let mut s = section_init();
        s.push(0); // trailing garbage
        assert!(!section_valid(&s));
        assert_eq!(section_records(&s), None);
        let mut t = vec![7]; // count lies
        t.extend_from_slice(&sample(0).encode());
        assert!(!section_append(&mut t, &sample(1)));
        assert_eq!(t.len(), 1 + HOP_RECORD_LEN);
    }
}
