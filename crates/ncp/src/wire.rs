//! The NCP packet format.
//!
//! ```text
//!  0               2       3       4               6
//! +-------+-------+-------+-------+-------+-------+-------+-------+
//! |     magic     | ver   | flags |   kernel_id   |  window_seq   :
//! +-------+-------+-------+-------+-------+-------+-------+-------+
//! :  window_seq   |    sender     |     from      |nchunk |ext_len|
//! +-------+-------+-------+-------+-------+-------+-------+-------+
//! | chunk descriptors: nchunks × (offset u32, len u16)            |
//! +---------------------------------------------------------------+
//! | ext bytes (ext_len)                                           |
//! +---------------------------------------------------------------+
//! | payload: chunk bytes, concatenated                            |
//! +---------------------------------------------------------------+
//! ```
//!
//! All fields big-endian. [`NcpPacket`] wraps a buffer after a single
//! `check_len` validation (the smoltcp pattern); [`NcpRepr`] is the
//! parsed high-level representation.

use c3::wire::{get_u16, get_u32, put_u16, put_u32};

/// NCP magic, "NC".
pub const MAGIC: u16 = 0x4E43;
/// Protocol version implemented by this crate.
pub const VERSION: u8 = 1;
/// Fixed header length (before chunk descriptors).
pub const HEADER_LEN: usize = 16;
/// Bytes per chunk descriptor.
pub(crate) const CHUNK_DESC_LEN: usize = 6;

/// Flags bit: this is the final window of the invocation.
pub const FLAG_LAST: u8 = 0x01;
/// Flags bit: more fragments of this window follow (multi-packet
/// windows).
pub const FLAG_MORE_FRAGS: u8 = 0x02;
/// Flags bit: this packet is a fragment of a multi-packet window (set
/// on every fragment including the last — distinguishes a final
/// fragment arriving first from an unfragmented window).
pub const FLAG_FRAGMENT: u8 = 0x04;
/// Flags bit: this is the first fragment (carries each chunk's true
/// starting offset).
pub const FLAG_FIRST_FRAG: u8 = 0x08;
/// Flags bit: NCP-R control frame acknowledging delivery of the
/// `(sender, kernel, seq)` named in the header. ACK frames carry no
/// chunks and are forwarded (never executed) by switches.
pub const FLAG_ACK: u8 = 0x10;
/// Flags bit: NCP-R control frame reporting a gap — the receiver saw
/// traffic past `seq` without delivering `seq` itself, so the sender
/// should retransmit immediately instead of waiting for its RTO.
pub const FLAG_NACK: u8 = 0x20;
/// Flags bit: the frame carries an in-band telemetry section *after*
/// the encoded window payload — a count byte plus `count` fixed-size
/// hop records (`nctel::hop`, DESIGN.md §4.9). The NCP length fields
/// fully determine the payload length, so decoders that do not
/// understand telemetry never look past the payload and skip the
/// section for free; telemetry-aware switches strip it, execute, stamp
/// a hop record, and re-append.
pub const FLAG_TELEMETRY: u8 = 0x40;

/// Errors from packet validation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WireError {
    /// Buffer shorter than the fixed header.
    Truncated,
    /// Magic mismatch — not an NCP packet.
    BadMagic,
    /// Unsupported version.
    BadVersion,
    /// Chunk descriptors or payload exceed the buffer.
    Inconsistent,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "packet shorter than the NCP header"),
            WireError::BadMagic => write!(f, "not an NCP packet (magic mismatch)"),
            WireError::BadVersion => write!(f, "unsupported NCP version"),
            WireError::Inconsistent => {
                write!(f, "chunk descriptors inconsistent with packet length")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A typed view over an NCP packet buffer.
///
/// Construct with [`NcpPacket::new_checked`]; accessors never panic on a
/// checked packet.
pub struct NcpPacket<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> NcpPacket<T> {
    /// Wraps and validates a buffer.
    pub fn new_checked(buffer: T) -> Result<Self, WireError> {
        let p = NcpPacket { buffer };
        p.check()?;
        Ok(p)
    }

    /// Wraps without validation (emission path: caller sizes the
    /// buffer).
    pub fn new_unchecked(buffer: T) -> Self {
        NcpPacket { buffer }
    }

    fn check(&self) -> Result<(), WireError> {
        let b = self.buffer.as_ref();
        if b.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        if get_u16(b, 0) != MAGIC {
            return Err(WireError::BadMagic);
        }
        if b[2] != VERSION {
            return Err(WireError::BadVersion);
        }
        let nchunks = b[14] as usize;
        let ext_len = b[15] as usize;
        let mut need = HEADER_LEN + nchunks * CHUNK_DESC_LEN + ext_len;
        if b.len() < need {
            return Err(WireError::Inconsistent);
        }
        for i in 0..nchunks {
            let off = HEADER_LEN + i * CHUNK_DESC_LEN;
            need += get_u16(b, off + 4) as usize;
        }
        if b.len() < need {
            return Err(WireError::Inconsistent);
        }
        Ok(())
    }

    /// The magic field.
    pub fn magic(&self) -> u16 {
        get_u16(self.buffer.as_ref(), 0)
    }

    /// The version field.
    pub fn version(&self) -> u8 {
        self.buffer.as_ref()[2]
    }

    /// The flags field.
    pub fn flags(&self) -> u8 {
        self.buffer.as_ref()[3]
    }

    /// The kernel id.
    pub fn kernel(&self) -> u16 {
        get_u16(self.buffer.as_ref(), 4)
    }

    /// The window sequence number.
    pub fn seq(&self) -> u32 {
        get_u32(self.buffer.as_ref(), 6)
    }

    /// The sending host id.
    pub fn sender(&self) -> u16 {
        get_u16(self.buffer.as_ref(), 10)
    }

    /// The previous-hop node id (wire encoding).
    pub fn from(&self) -> u16 {
        get_u16(self.buffer.as_ref(), 12)
    }

    /// Number of chunks.
    pub fn nchunks(&self) -> u8 {
        self.buffer.as_ref()[14]
    }

    /// Bytes of the extended window struct.
    pub fn ext_len(&self) -> u8 {
        self.buffer.as_ref()[15]
    }

    /// Chunk descriptor `i`: `(array byte offset, chunk byte length)`.
    pub(crate) fn chunk_desc(&self, i: usize) -> (u32, u16) {
        let b = self.buffer.as_ref();
        let off = HEADER_LEN + i * CHUNK_DESC_LEN;
        (get_u32(b, off), get_u16(b, off + 4))
    }

    /// The ext block.
    pub fn ext(&self) -> &[u8] {
        let b = self.buffer.as_ref();
        let start = HEADER_LEN + self.nchunks() as usize * CHUNK_DESC_LEN;
        &b[start..start + self.ext_len() as usize]
    }

    /// Payload bytes of chunk `i`.
    pub(crate) fn chunk_data(&self, i: usize) -> &[u8] {
        let b = self.buffer.as_ref();
        let mut start =
            HEADER_LEN + self.nchunks() as usize * CHUNK_DESC_LEN + self.ext_len() as usize;
        for j in 0..i {
            start += self.chunk_desc(j).1 as usize;
        }
        let len = self.chunk_desc(i).1 as usize;
        &b[start..start + len]
    }

    /// Total packet length implied by the header.
    pub fn total_len(&self) -> usize {
        let mut n = HEADER_LEN + self.nchunks() as usize * CHUNK_DESC_LEN + self.ext_len() as usize;
        for i in 0..self.nchunks() as usize {
            n += self.chunk_desc(i).1 as usize;
        }
        n
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> NcpPacket<T> {
    /// Sets the flags field.
    pub fn set_flags(&mut self, v: u8) {
        self.buffer.as_mut()[3] = v;
    }

    /// Sets the previous-hop field (rewritten at each NCP device).
    pub fn set_from(&mut self, v: u16) {
        put_u16(self.buffer.as_mut(), 12, v);
    }
}

/// High-level representation of an NCP header (without payload).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NcpRepr {
    /// Flags bits.
    pub flags: u8,
    /// Kernel id.
    pub kernel: u16,
    /// Window sequence number.
    pub seq: u32,
    /// Sender host id.
    pub sender: u16,
    /// Previous hop (wire encoding).
    pub from: u16,
    /// Chunk descriptors.
    pub chunks: Vec<(u32, u16)>,
    /// Ext block.
    pub ext: Vec<u8>,
}

impl NcpRepr {
    /// Parses from a checked packet.
    pub fn parse<T: AsRef<[u8]>>(p: &NcpPacket<T>) -> Self {
        NcpRepr {
            flags: p.flags(),
            kernel: p.kernel(),
            seq: p.seq(),
            sender: p.sender(),
            from: p.from(),
            chunks: (0..p.nchunks() as usize).map(|i| p.chunk_desc(i)).collect(),
            ext: p.ext().to_vec(),
        }
    }

    /// Bytes needed to emit this header plus `payload_len` payload
    /// bytes.
    pub fn buffer_len(&self) -> usize {
        HEADER_LEN
            + self.chunks.len() * CHUNK_DESC_LEN
            + self.ext.len()
            + self.chunks.iter().map(|&(_, l)| l as usize).sum::<usize>()
    }

    /// Emits the header into `buf` (which must be at least
    /// [`NcpRepr::buffer_len`] long); payload is written by the caller
    /// after the header, the chunk descriptors and the ext block.
    pub fn emit(&self, buf: &mut [u8]) {
        put_u16(buf, 0, MAGIC);
        buf[2] = VERSION;
        buf[3] = self.flags;
        put_u16(buf, 4, self.kernel);
        put_u32(buf, 6, self.seq);
        put_u16(buf, 10, self.sender);
        put_u16(buf, 12, self.from);
        buf[14] = self.chunks.len() as u8;
        buf[15] = self.ext.len() as u8;
        for (i, &(off, len)) in self.chunks.iter().enumerate() {
            let o = HEADER_LEN + i * CHUNK_DESC_LEN;
            put_u32(buf, o, off);
            put_u16(buf, o + 4, len);
        }
        let ext_start = HEADER_LEN + self.chunks.len() * CHUNK_DESC_LEN;
        buf[ext_start..ext_start + self.ext.len()].copy_from_slice(&self.ext);
    }
}

/// An NCP-R control frame: a bare NCP header whose flags carry
/// [`FLAG_ACK`] or [`FLAG_NACK`] and whose `(kernel, seq, sender)`
/// triple names the window being acknowledged. Control frames have no
/// chunks and no ext block, so they are a fixed [`HEADER_LEN`] bytes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AckRepr {
    /// True for a NACK (retransmit request), false for an ACK.
    pub nack: bool,
    /// Kernel id of the acknowledged window.
    pub kernel: u16,
    /// Sequence number of the acknowledged window.
    pub seq: u32,
    /// Original sender of the acknowledged window (the host the frame
    /// is addressed to, logically).
    pub sender: u16,
    /// Node emitting the frame (wire encoding).
    pub from: u16,
}

impl AckRepr {
    /// Parses a control frame from a checked packet. Returns `None` if
    /// the packet is not an ACK/NACK frame.
    pub fn parse<T: AsRef<[u8]>>(p: &NcpPacket<T>) -> Option<Self> {
        let flags = p.flags();
        if flags & (FLAG_ACK | FLAG_NACK) == 0 {
            return None;
        }
        Some(AckRepr {
            nack: flags & FLAG_NACK != 0,
            kernel: p.kernel(),
            seq: p.seq(),
            sender: p.sender(),
            from: p.from(),
        })
    }

    /// Emits the frame into (cleared) `buf` — exactly [`HEADER_LEN`]
    /// bytes. `buf` is typically recycled through a buffer pool, so
    /// steady-state ACK traffic allocates nothing.
    pub fn emit_into(&self, buf: &mut Vec<u8>) {
        buf.clear();
        buf.resize(HEADER_LEN, 0);
        put_u16(buf, 0, MAGIC);
        buf[2] = VERSION;
        buf[3] = if self.nack { FLAG_NACK } else { FLAG_ACK };
        put_u16(buf, 4, self.kernel);
        put_u32(buf, 6, self.seq);
        put_u16(buf, 10, self.sender);
        put_u16(buf, 12, self.from);
        buf[14] = 0;
        buf[15] = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Payload bytes of [`sample`]: its two chunks carry 8 + 4.
    const SAMPLE_PAYLOAD: usize = 12;

    fn sample() -> Vec<u8> {
        let repr = NcpRepr {
            flags: FLAG_LAST,
            kernel: 7,
            seq: 42,
            sender: 3,
            from: 0x8001,
            chunks: vec![(0, 8), (16, 4)],
            ext: vec![0xAA, 0xBB],
        };
        let mut buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut buf);
        let off = buf.len() - SAMPLE_PAYLOAD;
        for (i, b) in buf[off..].iter_mut().enumerate() {
            *b = i as u8;
        }
        buf
    }

    #[test]
    fn parse_emitted_packet() {
        let buf = sample();
        let p = NcpPacket::new_checked(&buf[..]).unwrap();
        assert_eq!(p.magic(), MAGIC);
        assert_eq!(p.version(), VERSION);
        assert_eq!(p.flags(), FLAG_LAST);
        assert_eq!(p.kernel(), 7);
        assert_eq!(p.seq(), 42);
        assert_eq!(p.sender(), 3);
        assert_eq!(p.from(), 0x8001);
        assert_eq!(p.nchunks(), 2);
        assert_eq!(p.ext(), &[0xAA, 0xBB]);
        assert_eq!(p.chunk_desc(0), (0, 8));
        assert_eq!(p.chunk_desc(1), (16, 4));
        assert_eq!(p.chunk_data(0), &[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(p.chunk_data(1), &[8, 9, 10, 11]);
        assert_eq!(p.total_len(), buf.len());
    }

    #[test]
    fn repr_roundtrip() {
        let buf = sample();
        let p = NcpPacket::new_checked(&buf[..]).unwrap();
        let repr = NcpRepr::parse(&p);
        let mut out = vec![0u8; repr.buffer_len()];
        repr.emit(&mut out);
        let off = out.len() - SAMPLE_PAYLOAD;
        out[off..].copy_from_slice(&buf[off..]);
        assert_eq!(out, buf);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut buf = sample();
        buf[0] = 0;
        assert_eq!(
            NcpPacket::new_checked(&buf[..]).err(),
            Some(WireError::BadMagic)
        );
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = sample();
        buf[2] = 9;
        assert_eq!(
            NcpPacket::new_checked(&buf[..]).err(),
            Some(WireError::BadVersion)
        );
    }

    #[test]
    fn rejects_truncation() {
        let buf = sample();
        assert_eq!(
            NcpPacket::new_checked(&buf[..10]).err(),
            Some(WireError::Truncated)
        );
        // Cut into the payload.
        assert_eq!(
            NcpPacket::new_checked(&buf[..buf.len() - 1]).err(),
            Some(WireError::Inconsistent)
        );
    }

    #[test]
    fn ack_frame_roundtrip() {
        let ack = AckRepr {
            nack: false,
            kernel: 3,
            seq: 99,
            sender: 2,
            from: 0x8001,
        };
        let mut buf = Vec::new();
        ack.emit_into(&mut buf);
        assert_eq!(buf.len(), HEADER_LEN);
        let p = NcpPacket::new_checked(&buf[..]).unwrap();
        assert_eq!(p.flags(), FLAG_ACK);
        assert_eq!(p.nchunks(), 0);
        assert_eq!(AckRepr::parse(&p), Some(ack));
        // A data packet is not a control frame.
        let data = sample();
        let p = NcpPacket::new_checked(&data[..]).unwrap();
        assert_eq!(AckRepr::parse(&p), None);
        // NACK flag survives the roundtrip.
        let nack = AckRepr { nack: true, ..ack };
        nack.emit_into(&mut buf);
        let p = NcpPacket::new_checked(&buf[..]).unwrap();
        assert_eq!(AckRepr::parse(&p), Some(nack));
    }

    #[test]
    fn mutators() {
        let mut buf = sample();
        let mut p = NcpPacket::new_unchecked(&mut buf[..]);
        p.set_from(0x8002);
        p.set_flags(FLAG_LAST | FLAG_MORE_FRAGS);
        let p = NcpPacket::new_checked(&buf[..]).unwrap();
        assert_eq!(p.from(), 0x8002);
        assert!(p.flags() & FLAG_MORE_FRAGS != 0);
    }
}
