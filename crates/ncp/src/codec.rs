//! Window ↔ packet conversion and multi-packet reassembly.
//!
//! In the prototype scope of the paper (§6), a window fits one packet —
//! [`encode_window`]/[`decode_window`] handle that case losslessly. For
//! windows larger than the MTU, [`fragment_window`] splits the payload
//! across several packets (each a self-describing NCP packet whose chunk
//! descriptors carry true array offsets) and hosts reassemble with a
//! [`Reassembler`]. Switches skip fragmented windows — storing multiple
//! packets "may not yet be practical due to limited switch memory"
//! (paper §6) — and simply forward them.
//!
//! # Zero-copy datapath
//!
//! The steady-state send path avoids per-window allocations:
//! [`encode_window_into`] emits header, descriptors, ext, and payload
//! directly into a caller-supplied buffer (typically recycled through a
//! [`BufferPool`]), and [`fragment_window_into`] writes each fragment
//! straight into its own pooled buffer — no intermediate fragment
//! `Window` and no encode-then-re-slice double copy. The receive path
//! bounds memory ([`Reassembler`] caps in-flight partial windows,
//! evicting the stalest on overflow) and recycles fragment piece
//! buffers internally.

use crate::wire::{
    NcpPacket, WireError, CHUNK_DESC_LEN, FLAG_FIRST_FRAG, FLAG_FRAGMENT, FLAG_LAST,
    FLAG_MORE_FRAGS, HEADER_LEN, MAGIC, VERSION,
};
use c3::{Chunk, HostId, KernelId, NodeId, Window};
use std::collections::HashMap;

/// Default cap on windows concurrently under reassembly (satellite of
/// the fast-path work: a peer spraying first fragments must not grow
/// host memory without bound).
pub const DEFAULT_MAX_PENDING: usize = 256;

/// Alignment (bytes) for window payload buffers. Matches the widest
/// vector register the ncvec SIMD tier uses (one AVX2 ymm), so payload
/// loads in the fused vector executors start on a register boundary.
/// Alignment here is a fast-path hint — the SIMD tier uses unaligned
/// loads and is correct either way — never a soundness requirement.
pub const PAYLOAD_ALIGN: usize = 32;

/// Allocates a byte buffer of at least `cap` capacity whose storage
/// starts on a [`PAYLOAD_ALIGN`] boundary.
///
/// `Vec<u8>` has no alignment parameter, so this allocates and selects:
/// draw candidates until the allocator hands back an aligned block,
/// keeping rejects alive so each retry sees a fresh address. Mainstream
/// allocators return 16-byte-aligned blocks at these sizes, so a couple
/// of draws almost always suffice; after a bounded number of tries the
/// last candidate is returned as-is (see [`PAYLOAD_ALIGN`]: alignment
/// is best-effort, and [`BufferPool::put`] refuses to pool strays).
fn aligned_vec(cap: usize) -> Vec<u8> {
    let cap = cap.max(PAYLOAD_ALIGN);
    let mut rejects = Vec::new();
    for _ in 0..8 {
        let v: Vec<u8> = Vec::with_capacity(cap);
        if (v.as_ptr() as usize).is_multiple_of(PAYLOAD_ALIGN) {
            return v;
        }
        rejects.push(v);
    }
    rejects.pop().unwrap_or_default()
}

/// Clears `dst` and refills it with `src`, guaranteeing the refilled
/// storage starts on a [`PAYLOAD_ALIGN`] boundary. Reuses `dst`'s
/// allocation when it is already aligned and large enough — the
/// steady-state decode path — and swaps in an aligned buffer otherwise.
fn fill_aligned(dst: &mut Vec<u8>, src: &[u8]) {
    if dst.capacity() < src.len() || !(dst.as_ptr() as usize).is_multiple_of(PAYLOAD_ALIGN) {
        *dst = aligned_vec(src.len());
    }
    dst.clear();
    dst.extend_from_slice(src);
}

/// A free-list of byte buffers for the packet datapath. `get` hands out
/// an empty buffer that retains its previous capacity; `put` returns a
/// buffer to the pool. Steady-state encode traffic therefore settles
/// into zero heap allocations.
///
/// Every buffer the pool hands out starts on a [`PAYLOAD_ALIGN`]
/// boundary: fresh buffers come from the aligned allocator, and `put`
/// re-homes (or drops) buffers whose mid-use regrowth moved them off it.
#[derive(Debug)]
pub struct BufferPool {
    free: Vec<Vec<u8>>,
    max_buffers: usize,
}

impl Default for BufferPool {
    fn default() -> Self {
        BufferPool {
            free: Vec::new(),
            max_buffers: 64,
        }
    }
}

impl BufferPool {
    /// An empty pool holding at most 64 recycled buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty pool that retains at most `max_buffers` buffers;
    /// `put` drops excess buffers instead of growing without bound.
    pub fn with_limit(max_buffers: usize) -> Self {
        BufferPool {
            free: Vec::new(),
            max_buffers,
        }
    }

    /// Takes a cleared buffer from the pool (or a fresh one when empty).
    /// The returned buffer's storage starts on a [`PAYLOAD_ALIGN`]
    /// boundary.
    pub fn get(&mut self) -> Vec<u8> {
        match self.free.pop() {
            Some(buf) => {
                debug_assert_eq!(
                    buf.as_ptr() as usize % PAYLOAD_ALIGN,
                    0,
                    "pooled buffer lost its payload alignment"
                );
                buf
            }
            None => aligned_vec(0),
        }
    }

    /// Returns a buffer for reuse. Its contents are cleared; capacity is
    /// kept. A buffer whose mid-use regrowth moved it off the
    /// [`PAYLOAD_ALIGN`] boundary is replaced by an equal-capacity
    /// aligned one (so the next `get` starts aligned *and* large enough
    /// to avoid regrowing), or dropped if the allocator refuses.
    pub fn put(&mut self, mut buf: Vec<u8>) {
        if self.free.len() < self.max_buffers {
            if !(buf.as_ptr() as usize).is_multiple_of(PAYLOAD_ALIGN) {
                buf = aligned_vec(buf.capacity());
                if !(buf.as_ptr() as usize).is_multiple_of(PAYLOAD_ALIGN) {
                    return;
                }
            }
            buf.clear();
            self.free.push(buf);
        }
    }

    /// Number of buffers currently pooled.
    pub fn len(&self) -> usize {
        self.free.len()
    }

    /// Whether the pool holds no recycled buffers.
    pub fn is_empty(&self) -> bool {
        self.free.is_empty()
    }
}

/// Encoded length of `w` as a single NCP packet with the given ext size.
pub fn encoded_len(w: &Window, ext_total: usize) -> usize {
    HEADER_LEN
        + w.chunks.len() * CHUNK_DESC_LEN
        + ext_total
        + w.chunks.iter().map(|c| c.data.len()).sum::<usize>()
}

/// Writes the fixed NCP header for window `w` into (cleared) `buf`.
fn emit_prelude(buf: &mut Vec<u8>, w: &Window, flags: u8, nchunks: usize, ext_total: usize) {
    buf.extend_from_slice(&MAGIC.to_be_bytes());
    buf.push(VERSION);
    buf.push(flags);
    buf.extend_from_slice(&w.kernel.0.to_be_bytes());
    buf.extend_from_slice(&w.seq.to_be_bytes());
    buf.extend_from_slice(&w.sender.0.to_be_bytes());
    buf.extend_from_slice(&w.from.to_wire().to_be_bytes());
    buf.push(nchunks as u8);
    buf.push(ext_total as u8);
}

/// Writes the ext block: `w.ext` truncated/zero-padded to `ext_total`.
fn emit_ext(buf: &mut Vec<u8>, w: &Window, ext_total: usize) {
    let n = w.ext.len().min(ext_total);
    buf.extend_from_slice(&w.ext[..n]);
    buf.resize(buf.len() + (ext_total - n), 0);
}

/// Encodes a single-packet window directly into `buf` (cleared first;
/// capacity is reused). `ext_total` pads/truncates the ext block to the
/// program's declared window-extension size so the switch parser sees a
/// fixed layout.
pub fn encode_window_into(w: &Window, ext_total: usize, buf: &mut Vec<u8>) {
    buf.clear();
    buf.reserve(encoded_len(w, ext_total));
    emit_prelude(
        buf,
        w,
        if w.last { FLAG_LAST } else { 0 },
        w.chunks.len(),
        ext_total,
    );
    for c in &w.chunks {
        buf.extend_from_slice(&c.offset.to_be_bytes());
        buf.extend_from_slice(&(c.data.len() as u16).to_be_bytes());
    }
    emit_ext(buf, w, ext_total);
    for c in &w.chunks {
        buf.extend_from_slice(&c.data);
    }
}

/// Encodes a single-packet window into a fresh buffer. Allocating
/// convenience wrapper over [`encode_window_into`].
pub fn encode_window(w: &Window, ext_total: usize) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_window_into(w, ext_total, &mut buf);
    buf
}

/// Decodes a packet into a window.
pub fn decode_window(bytes: &[u8]) -> Result<Window, WireError> {
    let mut w = Window {
        kernel: KernelId(0),
        seq: 0,
        sender: HostId(0),
        from: NodeId::Host(HostId(0)),
        last: false,
        chunks: Vec::new(),
        ext: Vec::new(),
    };
    decode_window_into(bytes, &mut w)?;
    Ok(w)
}

/// Decodes a packet into an existing window, reusing its chunk and ext
/// buffers — the receive-side counterpart of [`encode_window_into`].
/// Steady-state decodes of same-shaped windows perform no heap
/// allocations. On error `w` is left unchanged.
pub fn decode_window_into(bytes: &[u8], w: &mut Window) -> Result<(), WireError> {
    let p = NcpPacket::new_checked(bytes)?;
    w.kernel = KernelId(p.kernel());
    w.seq = p.seq();
    w.sender = HostId(p.sender());
    w.from = NodeId::from_wire(p.from());
    w.last = p.flags() & FLAG_LAST != 0;
    let n = p.nchunks() as usize;
    w.chunks.truncate(n);
    while w.chunks.len() < n {
        w.chunks.push(Chunk {
            offset: 0,
            data: Vec::new(),
        });
    }
    for (i, c) in w.chunks.iter_mut().enumerate() {
        c.offset = p.chunk_desc(i).0;
        fill_aligned(&mut c.data, p.chunk_data(i));
    }
    w.ext.clear();
    w.ext.extend_from_slice(p.ext());
    Ok(())
}

/// Splits a window into packets no larger than `mtu`, writing each
/// fragment directly into a buffer drawn from `pool` and pushing it onto
/// `out`. Single-fragment windows get one packet identical to
/// [`encode_window`]'s output.
///
/// Each fragment carries a subset of each chunk's bytes with corrected
/// array offsets, written in one pass — there is no intermediate
/// fragment `Window` and no encode-then-re-slice copy. Every fragment
/// sets [`FLAG_FRAGMENT`]; the first also sets [`FLAG_FIRST_FRAG`] and
/// all but the final set [`FLAG_MORE_FRAGS`] — so reassembly is order-
/// and loss-tolerant.
///
/// # Panics
/// Panics if `mtu` is too small to carry even one element of payload
/// next to the header.
pub fn fragment_window_into(
    w: &Window,
    ext_total: usize,
    mtu: usize,
    pool: &mut BufferPool,
    out: &mut Vec<Vec<u8>>,
) {
    if encoded_len(w, ext_total) <= mtu {
        let mut buf = pool.get();
        encode_window_into(w, ext_total, &mut buf);
        out.push(buf);
        return;
    }
    let overhead = HEADER_LEN + w.chunks.len() * CHUNK_DESC_LEN + ext_total;
    assert!(
        mtu > overhead,
        "mtu {mtu} cannot fit the NCP header overhead {overhead}"
    );
    let budget = mtu - overhead;
    let mut cursors: Vec<usize> = vec![0; w.chunks.len()];
    let mut takes: Vec<usize> = vec![0; w.chunks.len()];
    let mut first = true;
    loop {
        // Plan this fragment: how many payload bytes of each chunk fit.
        let mut used = 0usize;
        let mut any = false;
        for (i, c) in w.chunks.iter().enumerate() {
            let rest = c.data.len() - cursors[i];
            let take = rest.min(budget.saturating_sub(used));
            takes[i] = take;
            used += take;
            if take > 0 {
                any = true;
            }
        }
        if !any {
            break;
        }
        let done = cursors
            .iter()
            .zip(takes.iter())
            .zip(&w.chunks)
            .all(|((&cur, &take), c)| cur + take == c.data.len());
        let mut flags = FLAG_FRAGMENT;
        if w.last && done {
            flags |= FLAG_LAST;
        }
        if first {
            flags |= FLAG_FIRST_FRAG;
        }
        if !done {
            flags |= FLAG_MORE_FRAGS;
        }
        // Emit the fragment in one pass into a pooled buffer.
        let mut buf = pool.get();
        buf.reserve(overhead + used);
        emit_prelude(&mut buf, w, flags, w.chunks.len(), ext_total);
        for (i, c) in w.chunks.iter().enumerate() {
            buf.extend_from_slice(&(c.offset + cursors[i] as u32).to_be_bytes());
            buf.extend_from_slice(&(takes[i] as u16).to_be_bytes());
        }
        emit_ext(&mut buf, w, ext_total);
        for (i, c) in w.chunks.iter().enumerate() {
            buf.extend_from_slice(&c.data[cursors[i]..cursors[i] + takes[i]]);
            cursors[i] += takes[i];
        }
        out.push(buf);
        first = false;
        if done {
            break;
        }
    }
}

/// Splits a window into packets no larger than `mtu`. Allocating
/// convenience wrapper over [`fragment_window_into`].
pub fn fragment_window(w: &Window, ext_total: usize, mtu: usize) -> Vec<Vec<u8>> {
    let mut pool = BufferPool::with_limit(0);
    let mut out = Vec::new();
    fragment_window_into(w, ext_total, mtu, &mut pool, &mut out);
    out
}

/// Key identifying a window under reassembly.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct FragKey {
    sender: u16,
    kernel: u16,
    seq: u32,
}

/// Host-side reassembly of (possibly fragmented) windows.
///
/// Feed every received packet to [`Reassembler::push`]; complete windows
/// pop out. Fragments may arrive in any order and duplicates are
/// tolerated; a window completes once the first fragment (chunk start
/// offsets), the final fragment (chunk end offsets), and as many bytes
/// as lie in between have all been seen. A completed window whose
/// pieces overlap or stray outside its chunk bounds (or whose chunk ends
/// before it starts) is refused with [`WireError::Inconsistent`] and
/// dropped.
///
/// Memory is bounded: at most [`DEFAULT_MAX_PENDING`] windows (override
/// with [`Reassembler::with_max_pending`]) are held mid-reassembly;
/// inserting beyond the cap evicts the partial window untouched for the
/// longest. Fragment piece buffers are recycled through an internal
/// [`BufferPool`], so steady-state reassembly of same-shaped windows
/// stops allocating.
#[derive(Debug)]
pub struct Reassembler {
    partial: HashMap<FragKey, Partial>,
    max_pending: usize,
    /// Monotone push counter, for staleness ranking.
    tick: u64,
    evictions: u64,
    pool: BufferPool,
}

impl Default for Reassembler {
    fn default() -> Self {
        Reassembler {
            partial: HashMap::new(),
            max_pending: DEFAULT_MAX_PENDING,
            tick: 0,
            evictions: 0,
            pool: BufferPool::new(),
        }
    }
}

#[derive(Debug)]
struct Partial {
    meta: Window,
    /// Per chunk: disjoint received pieces `(offset, data)`.
    pieces: Vec<Vec<(u32, Vec<u8>)>>,
    /// Per chunk: start offset (from the FIRST fragment).
    starts: Vec<Option<u32>>,
    /// Per chunk: end offset (from the final fragment).
    ends: Vec<Option<u32>>,
    /// Tick of the last fragment that advanced this window.
    touched: u64,
}

impl Partial {
    /// Chunk `c`'s `(start, end)` once both fragments carrying them have
    /// arrived.
    fn bounds(&self, c: usize) -> Option<(u32, u32)> {
        Some((self.starts[c]?, self.ends[c]?))
    }

    /// Whether every chunk's bounds are known and at least as many bytes
    /// arrived as lie between them. More than that is malformed, and
    /// [`Partial::assemble`] refuses it.
    fn complete(&self) -> bool {
        (0..self.pieces.len()).all(|c| {
            self.bounds(c).is_some_and(|(start, end)| {
                let received: usize = self.pieces[c].iter().map(|(_, d)| d.len()).sum();
                received >= end.saturating_sub(start) as usize
            })
        })
    }

    /// Whether every chunk's (offset-sorted) pieces tile `[start, end)`
    /// without overlapping or straying outside it; with
    /// [`Partial::complete`], that leaves no gap either.
    fn consistent(&self) -> bool {
        self.pieces.iter().enumerate().all(|(c, pieces)| {
            let Some((start, end)) = self.bounds(c) else {
                return false;
            };
            let mut next = start as u64;
            start <= end
                && pieces.iter().all(|(off, piece)| {
                    let (lo, hi) = (*off as u64, *off as u64 + piece.len() as u64);
                    let fits = lo >= next && hi <= end as u64;
                    next = hi;
                    fits
                })
        })
    }

    /// Builds the final window, returning every piece buffer to `pool`;
    /// an inconsistent one (see [`Partial::consistent`]) is dropped.
    fn assemble(mut self, pool: &mut BufferPool) -> Result<Window, WireError> {
        for pieces in &mut self.pieces {
            pieces.sort_by_key(|(o, _)| *o);
        }
        if !self.consistent() {
            self.recycle(pool);
            return Err(WireError::Inconsistent);
        }
        let mut chunks = Vec::with_capacity(self.pieces.len());
        for (c, pieces) in std::mem::take(&mut self.pieces).into_iter().enumerate() {
            let (start, end) = self.bounds(c).expect("consistent");
            let len = (end - start) as usize;
            let mut data = aligned_vec(len);
            data.resize(len, 0);
            for (off, piece) in pieces {
                let rel = (off - start) as usize;
                data[rel..rel + piece.len()].copy_from_slice(&piece);
                pool.put(piece);
            }
            chunks.push(Chunk {
                offset: start,
                data,
            });
        }
        Ok(Window {
            chunks,
            ..self.meta
        })
    }

    /// Returns every piece buffer to `pool` without assembling.
    fn recycle(mut self, pool: &mut BufferPool) {
        for pieces in self.pieces.drain(..) {
            for (_, piece) in pieces {
                pool.put(piece);
            }
        }
    }
}

impl Reassembler {
    /// Creates a reassembler with the default pending-window cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the cap on windows concurrently under reassembly.
    ///
    /// # Panics
    /// Panics if `max` is zero.
    pub fn with_max_pending(max: usize) -> Self {
        assert!(max > 0, "max_pending must be positive");
        Reassembler {
            max_pending: max,
            ..Self::default()
        }
    }

    /// Ingests one packet. Returns a completed window if this packet
    /// finished one (or was an unfragmented window), and
    /// [`WireError::Inconsistent`] if it finished one whose fragments
    /// contradict each other (the partial window is dropped).
    pub fn push(&mut self, bytes: &[u8]) -> Result<Option<Window>, WireError> {
        let p = NcpPacket::new_checked(bytes)?;
        let flags = p.flags();
        if flags & FLAG_FRAGMENT == 0 {
            // Unfragmented window: fast path.
            return Ok(Some(decode_window(bytes)?));
        }
        self.tick += 1;
        let key = FragKey {
            sender: p.sender(),
            kernel: p.kernel(),
            seq: p.seq(),
        };
        let nchunks = p.nchunks() as usize;
        if !self.partial.contains_key(&key) && self.partial.len() >= self.max_pending {
            self.evict_stalest();
        }
        let entry = self.partial.entry(key).or_insert_with(|| Partial {
            meta: Window {
                kernel: KernelId(p.kernel()),
                seq: p.seq(),
                sender: HostId(p.sender()),
                from: NodeId::from_wire(p.from()),
                last: false,
                chunks: vec![],
                ext: p.ext().to_vec(),
            },
            pieces: vec![Vec::new(); nchunks],
            starts: vec![None; nchunks],
            ends: vec![None; nchunks],
            touched: 0,
        });
        entry.touched = self.tick;
        let first = flags & FLAG_FIRST_FRAG != 0;
        let final_frag = flags & FLAG_MORE_FRAGS == 0;
        if final_frag {
            entry.meta.last = flags & FLAG_LAST != 0;
        }
        for c in 0..nchunks.min(entry.pieces.len()) {
            let (offset, len) = p.chunk_desc(c);
            if first {
                entry.starts[c] = Some(offset);
            }
            if final_frag {
                let Some(end) = offset.checked_add(len as u32) else {
                    return Err(self.refuse(key));
                };
                entry.ends[c] = Some(end);
            }
            if len > 0 && !entry.pieces[c].iter().any(|(o, _)| *o == offset) {
                // Copy the payload straight out of the packet into a
                // recycled buffer — the only copy on this path.
                let mut piece = self.pool.get();
                piece.extend_from_slice(p.chunk_data(c));
                entry.pieces[c].push((offset, piece));
            }
        }
        if entry.complete() {
            let done = self.partial.remove(&key).expect("entry exists");
            return done.assemble(&mut self.pool).map(Some);
        }
        Ok(None)
    }

    /// Drops the partial window `key` as malformed, recycling its buffers.
    fn refuse(&mut self, key: FragKey) -> WireError {
        if let Some(p) = self.partial.remove(&key) {
            p.recycle(&mut self.pool);
        }
        WireError::Inconsistent
    }

    /// Evicts the partial window that has gone longest without progress.
    fn evict_stalest(&mut self) {
        let Some(key) = self
            .partial
            .iter()
            .min_by_key(|(_, p)| p.touched)
            .map(|(k, _)| *k)
        else {
            return;
        };
        if let Some(p) = self.partial.remove(&key) {
            p.recycle(&mut self.pool);
            self.evictions += 1;
        }
    }

    /// Number of windows currently mid-reassembly.
    pub fn pending(&self) -> usize {
        self.partial.len()
    }

    /// Number of partial windows dropped by the pending-window cap.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Drops all partial windows (loss-handling policy is the caller's),
    /// recycling their buffers.
    pub fn clear(&mut self) {
        for (_, p) in self.partial.drain() {
            p.recycle(&mut self.pool);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c3::ScalarType;

    fn window(vals: &[u32], seq: u32, last: bool) -> Window {
        Window {
            kernel: KernelId(2),
            seq,
            sender: HostId(1),
            from: NodeId::Host(HostId(1)),
            last,
            chunks: vec![Chunk {
                offset: seq * vals.len() as u32 * 4,
                data: vals.iter().flat_map(|v| v.to_be_bytes()).collect(),
            }],
            ext: vec![0xEE, 0xFF],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let w = window(&[1, 2, 3, 4], 5, true);
        let bytes = encode_window(&w, 2);
        let back = decode_window(&bytes).unwrap();
        assert_eq!(back, w);
    }

    #[test]
    fn encode_into_reuses_capacity() {
        let w = window(&[1, 2, 3, 4], 5, true);
        let mut buf = Vec::new();
        encode_window_into(&w, 2, &mut buf);
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        assert_eq!(buf.len(), encoded_len(&w, 2));
        // Re-encoding into the same buffer must not reallocate.
        encode_window_into(&w, 2, &mut buf);
        assert_eq!(buf.capacity(), cap);
        assert_eq!(buf.as_ptr(), ptr);
        assert_eq!(decode_window(&buf).unwrap(), w);
    }

    #[test]
    fn decode_into_reuses_buffers() {
        let w = window(&[1, 2, 3, 4], 5, true);
        let bytes = encode_window(&w, 2);
        let mut scratch = decode_window(&bytes).unwrap();
        let chunk_ptr = scratch.chunks[0].data.as_ptr();
        // Decoding a same-shaped window reuses chunk and ext storage.
        let w2 = window(&[9, 8, 7, 6], 6, false);
        let bytes2 = encode_window(&w2, 2);
        decode_window_into(&bytes2, &mut scratch).unwrap();
        assert_eq!(scratch.chunks[0].data.as_ptr(), chunk_ptr);
        let expect = decode_window(&bytes2).unwrap();
        assert_eq!(scratch, expect);
        // A malformed packet leaves the window untouched.
        assert!(decode_window_into(&[1, 2, 3], &mut scratch).is_err());
        assert_eq!(scratch, expect);
    }

    #[test]
    fn ext_padded_to_program_size() {
        let mut w = window(&[1], 0, false);
        w.ext = vec![0xAB];
        let bytes = encode_window(&w, 4);
        let back = decode_window(&bytes).unwrap();
        assert_eq!(back.ext, vec![0xAB, 0, 0, 0]);
    }

    #[test]
    fn single_packet_fragmentation_is_identity() {
        let w = window(&[1, 2], 0, true);
        let frags = fragment_window(&w, 2, 1500);
        assert_eq!(frags.len(), 1);
        assert_eq!(decode_window(&frags[0]).unwrap(), w);
    }

    #[test]
    fn fragmentation_splits_and_reassembles() {
        // 64 elements = 256 payload bytes; tiny MTU forces fragments.
        let vals: Vec<u32> = (0..64).collect();
        let w = window(&vals, 3, true);
        let frags = fragment_window(&w, 2, 96);
        assert!(frags.len() > 1, "expected multiple fragments");
        // All but last carry MORE_FRAGS.
        for (i, f) in frags.iter().enumerate() {
            let p = NcpPacket::new_checked(&f[..]).unwrap();
            let more = p.flags() & FLAG_MORE_FRAGS != 0;
            assert_eq!(more, i + 1 < frags.len(), "fragment {i}");
            assert!(f.len() <= 96, "fragment {i} exceeds mtu: {}", f.len());
        }
        let mut r = Reassembler::new();
        let mut out = None;
        for f in &frags {
            out = r.push(f).unwrap();
        }
        let got = out.expect("window completes on the final fragment");
        assert_eq!(got.chunks[0].data, w.chunks[0].data);
        assert_eq!(got.chunks[0].offset, w.chunks[0].offset);
        assert!(got.last);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn pooled_fragmentation_matches_allocating_path() {
        let vals: Vec<u32> = (0..64).collect();
        let w = window(&vals, 3, true);
        let reference = fragment_window(&w, 2, 96);
        let mut pool = BufferPool::new();
        let mut out = Vec::new();
        fragment_window_into(&w, 2, 96, &mut pool, &mut out);
        assert_eq!(out, reference, "pooled path must be wire-identical");
        // Recycle and refragment: still identical, buffers reused.
        for b in out.drain(..) {
            pool.put(b);
        }
        let pooled = pool.len();
        assert!(pooled >= reference.len());
        fragment_window_into(&w, 2, 96, &mut pool, &mut out);
        assert_eq!(out, reference);
        assert_eq!(pool.len(), pooled - reference.len());
    }

    #[test]
    fn out_of_order_fragments() {
        let vals: Vec<u32> = (0..32).collect();
        let w = window(&vals, 0, false);
        let mut frags = fragment_window(&w, 2, 80);
        assert!(frags.len() >= 3);
        frags.swap(0, 1);
        let mut r = Reassembler::new();
        let mut got = None;
        for f in &frags {
            got = r.push(f).unwrap();
        }
        let got = got.expect("complete");
        assert_eq!(got.chunks[0].data, w.chunks[0].data);
    }

    #[test]
    fn interleaved_windows_reassemble_independently() {
        let w0 = window(&(0..32).collect::<Vec<_>>(), 0, false);
        let w1 = window(&(100..132).collect::<Vec<_>>(), 1, true);
        let f0 = fragment_window(&w0, 2, 80);
        let f1 = fragment_window(&w1, 2, 80);
        let mut r = Reassembler::new();
        let mut done = Vec::new();
        for (a, b) in f0.iter().zip(&f1) {
            if let Some(w) = r.push(a).unwrap() {
                done.push(w);
            }
            if let Some(w) = r.push(b).unwrap() {
                done.push(w);
            }
        }
        assert_eq!(done.len(), 2);
        let seqs: Vec<u32> = done.iter().map(|w| w.seq).collect();
        assert!(seqs.contains(&0) && seqs.contains(&1));
    }

    #[test]
    fn unfragmented_fast_path() {
        let w = window(&[9, 9], 7, true);
        let mut r = Reassembler::new();
        let got = r.push(&encode_window(&w, 2)).unwrap().unwrap();
        assert_eq!(got, w);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn reassembler_rejects_garbage() {
        let mut r = Reassembler::new();
        assert!(r.push(&[0u8; 4]).is_err());
    }

    #[test]
    fn pending_cap_evicts_stalest() {
        // Two-fragment windows; feed only the first fragment of seqs
        // 0..4 into a cap-2 reassembler.
        let mut r = Reassembler::with_max_pending(2);
        let mk = |seq| fragment_window(&window(&(0..32).collect::<Vec<_>>(), seq, true), 2, 80);
        let all: Vec<_> = (0..4).map(mk).collect();
        for frags in &all {
            r.push(&frags[0]).unwrap();
        }
        assert_eq!(r.pending(), 2);
        assert_eq!(r.evictions(), 2);
        // The two stalest (seq 0 and 1) were dropped; seq 3 completes.
        let mut done = None;
        for f in &all[3][1..] {
            done = r.push(f).unwrap();
        }
        assert_eq!(done.expect("seq 3 survives").seq, 3);
        // Seq 0 was evicted: its remaining fragments no longer complete
        // (the FIRST fragment's start offsets are gone).
        let mut done = None;
        for f in &all[0][1..] {
            done = r.push(f).unwrap();
        }
        assert!(done.is_none());
    }

    #[test]
    fn pool_buffers_stay_aligned_across_reuse() {
        let mut pool = BufferPool::new();
        let mut last_ptr = None;
        for round in 0..4 {
            let mut buf = pool.get();
            assert_eq!(
                buf.as_ptr() as usize % PAYLOAD_ALIGN,
                0,
                "round {round}: pool handed out a misaligned buffer"
            );
            // Steady state: the same aligned allocation cycles through.
            if let Some(p) = last_ptr {
                assert_eq!(buf.as_ptr(), p, "round {round}: buffer not reused");
            }
            buf.extend_from_slice(&[0xAB; 24]);
            last_ptr = Some(buf.as_ptr());
            pool.put(buf);
        }
        // A buffer that regrew off the boundary mid-use is re-homed (or
        // dropped) by `put`, never handed back misaligned.
        let mut big = pool.get();
        big.resize(1 << 16, 0);
        pool.put(big);
        let back = pool.get();
        assert_eq!(back.as_ptr() as usize % PAYLOAD_ALIGN, 0);
        assert!(back.capacity() >= 1 << 16, "re-homed buffer keeps capacity");
    }

    #[test]
    fn decoded_and_reassembled_payloads_are_aligned() {
        let w = window(&(0..64).collect::<Vec<_>>(), 1, true);
        // Single-packet decode.
        let got = decode_window(&encode_window(&w, 2)).unwrap();
        assert_eq!(got.chunks[0].data.as_ptr() as usize % PAYLOAD_ALIGN, 0);
        // Decode-into with a recycled window keeps the payload aligned.
        let mut scratch = got;
        let bytes = encode_window(&window(&(64..128).collect::<Vec<_>>(), 2, true), 2);
        decode_window_into(&bytes, &mut scratch).unwrap();
        assert_eq!(scratch.chunks[0].data.as_ptr() as usize % PAYLOAD_ALIGN, 0);
        // Multi-fragment reassembly.
        let mut r = Reassembler::new();
        let mut out = None;
        for f in fragment_window(&w, 2, 96) {
            out = r.push(&f).unwrap();
        }
        let got = out.expect("window completes");
        assert_eq!(got.chunks[0].data.as_ptr() as usize % PAYLOAD_ALIGN, 0);
        assert_eq!(got.chunks[0].data, w.chunks[0].data);
    }

    #[test]
    fn multi_chunk_window_roundtrip() {
        let w = Window {
            kernel: KernelId(1),
            seq: 0,
            sender: HostId(2),
            from: NodeId::Switch(c3::SwitchId(1)),
            last: true,
            chunks: vec![
                Chunk {
                    offset: 0,
                    data: 77u64.to_be_bytes().to_vec(),
                },
                Chunk {
                    offset: 0,
                    data: vec![1; 16],
                },
                Chunk {
                    offset: 0,
                    data: vec![0], // bool chunk
                },
            ],
            ext: vec![],
        };
        let back = decode_window(&encode_window(&w, 0)).unwrap();
        assert_eq!(back, w);
        assert_eq!(back.chunks[0].get(ScalarType::U64, 0).bits(), 77);
    }
}
