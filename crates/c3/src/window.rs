//! The window abstraction — C3's basic unit of processing.
//!
//! Windows hide packet-based communication from the programmer (paper
//! §4.2): arrays are transported one window at a time, and a one-to-one
//! correspondence with packets is *not* required. A window associates a
//! user-controlled number of elements from each array of a kernel
//! invocation — the association is described by a [`Mask`], e.g. `{2,2,2}`
//! in the paper's Fig. 2.
//!
//! A [`Window`] owns one mutable byte [`Chunk`] per array (kernels may
//! rewrite window data in flight), plus the metadata carried by the
//! builtin `window` struct (`seq`, `sender`, `from`) and the bytes of the
//! programmer's extended window struct.

use crate::ids::{HostId, KernelId, NodeId};
use crate::value::{ScalarType, Value};
use std::fmt;

/// Errors produced when constructing or slicing windows.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WindowError {
    /// The mask has a different number of entries than the kernel has
    /// array parameters ("its length must always match the number of
    /// pointers in an `_out_` kernel's signature").
    MaskArity {
        /// Entries in the mask.
        mask: usize,
        /// Array parameters of the kernel.
        arrays: usize,
    },
    /// A mask entry is zero — a window must take at least one element
    /// from every array it associates.
    ZeroMaskEntry {
        /// Index of the offending entry.
        index: usize,
    },
    /// An array's byte length is not a multiple of its element size.
    Ragged {
        /// Index of the array.
        array: usize,
        /// Byte length observed.
        len: usize,
        /// Element size expected.
        elem: usize,
    },
    /// Arrays do not divide into the same number of windows. C3 sends all
    /// arrays of an invocation simultaneously, so the mask must tile every
    /// array the same number of times.
    WindowCountMismatch {
        /// Windows required by array 0.
        expected: usize,
        /// Windows required by the offending array.
        got: usize,
        /// Index of the offending array.
        array: usize,
    },
    /// A chunk in a received window does not have the length the mask and
    /// element type imply.
    BadChunkLen {
        /// Index of the chunk.
        array: usize,
        /// Bytes expected.
        expected: usize,
        /// Bytes received.
        got: usize,
    },
}

impl fmt::Display for WindowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WindowError::MaskArity { mask, arrays } => write!(
                f,
                "mask has {mask} entries but the kernel takes {arrays} arrays"
            ),
            WindowError::ZeroMaskEntry { index } => {
                write!(f, "mask entry {index} is zero")
            }
            WindowError::Ragged { array, len, elem } => write!(
                f,
                "array {array} has {len} bytes, not a multiple of element size {elem}"
            ),
            WindowError::WindowCountMismatch {
                expected,
                got,
                array,
            } => write!(
                f,
                "array {array} splits into {got} windows but array 0 splits into {expected}"
            ),
            WindowError::BadChunkLen {
                array,
                expected,
                got,
            } => write!(f, "chunk {array} carries {got} bytes, expected {expected}"),
        }
    }
}

impl std::error::Error for WindowError {}

/// A window mask: how many *elements* of each array go into one window.
///
/// `Mask::new([2, 2, 2])` is the `{2,2,2}` mask of the paper's Fig. 2.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Mask(Vec<u16>);

impl Mask {
    /// Creates a mask from per-array element counts.
    pub fn new(counts: impl Into<Vec<u16>>) -> Self {
        Mask(counts.into())
    }

    /// A uniform mask: the same element count for every one of `arrays`
    /// arrays (the "split evenly" case).
    pub fn uniform(arrays: usize, elems: u16) -> Self {
        Mask(vec![elems; arrays])
    }

    /// Number of arrays the mask associates.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Elements taken from array `i` per window.
    pub fn elems(&self, i: usize) -> u16 {
        self.0[i]
    }

    /// The per-array counts.
    pub fn counts(&self) -> &[u16] {
        &self.0
    }

    /// Validates the mask against a kernel signature.
    pub fn validate(&self, arrays: usize) -> Result<(), WindowError> {
        if self.arity() != arrays {
            return Err(WindowError::MaskArity {
                mask: self.arity(),
                arrays,
            });
        }
        for (i, &c) in self.0.iter().enumerate() {
            if c == 0 {
                return Err(WindowError::ZeroMaskEntry { index: i });
            }
        }
        Ok(())
    }
}

impl fmt::Display for Mask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "}}")
    }
}

/// Describes how a kernel invocation's arrays split into windows:
/// the element type of each array plus the [`Mask`].
///
/// This is the "window specification provided by the programmer" that
/// libncrt uses to construct windows transparently (paper §3.2).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WindowSpec {
    /// Element type of each array parameter, in signature order.
    pub elem_types: Vec<ScalarType>,
    /// Elements of each array per window.
    pub mask: Mask,
}

impl WindowSpec {
    /// Creates a spec, validating mask arity against the element types.
    pub fn new(elem_types: Vec<ScalarType>, mask: Mask) -> Result<Self, WindowError> {
        mask.validate(elem_types.len())?;
        Ok(WindowSpec { elem_types, mask })
    }

    /// Bytes of array `i` consumed per window.
    pub fn chunk_bytes(&self, i: usize) -> usize {
        self.elem_types[i].size() * self.mask.elems(i) as usize
    }

    /// Total payload bytes per window across all arrays.
    pub fn window_bytes(&self) -> usize {
        (0..self.elem_types.len())
            .map(|i| self.chunk_bytes(i))
            .sum()
    }

    /// How many windows `arrays` (the bytes of one array each, elements
    /// in big-endian wire order) split into, after checking that they
    /// match the spec's arity, hold whole elements, and all tile the
    /// same number of times.
    pub fn window_count<A: AsRef<[u8]>>(&self, arrays: &[A]) -> Result<usize, WindowError> {
        if arrays.len() != self.elem_types.len() {
            return Err(WindowError::MaskArity {
                mask: self.mask.arity(),
                arrays: arrays.len(),
            });
        }
        let mut nwindows = None;
        for (i, a) in arrays.iter().enumerate() {
            let a = a.as_ref();
            let elem = self.elem_types[i].size();
            if a.len() % elem != 0 {
                return Err(WindowError::Ragged {
                    array: i,
                    len: a.len(),
                    elem,
                });
            }
            let n = a.len().div_ceil(self.chunk_bytes(i));
            match nwindows {
                None => nwindows = Some(n),
                Some(expected) if expected != n => {
                    return Err(WindowError::WindowCountMismatch {
                        expected,
                        got: n,
                        array: i,
                    })
                }
                _ => {}
            }
        }
        Ok(nwindows.unwrap_or(0))
    }

    /// Cuts window `w` out of `arrays` without touching the rest of the
    /// invocation. `None` past the last window, or when `arrays` do not
    /// fit the spec ([`WindowSpec::window_count`] says why). Metadata
    /// fields other than `seq` and `last` are left for the runtime to
    /// fill.
    pub fn window_at<A: AsRef<[u8]>>(&self, arrays: &[A], w: usize) -> Option<Window> {
        let nwindows = self.window_count(arrays).ok()?;
        (w < nwindows).then(|| self.cut(arrays, w, nwindows))
    }

    /// Window `w < nwindows` of arrays [`WindowSpec::window_count`]
    /// accepted — the one place that knows how a window is cut.
    fn cut<A: AsRef<[u8]>>(&self, arrays: &[A], w: usize, nwindows: usize) -> Window {
        let chunks = arrays
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let a = a.as_ref();
                let chunk = self.chunk_bytes(i);
                let start = w * chunk;
                let end = (start + chunk).min(a.len());
                Chunk {
                    offset: start as u32,
                    data: a[start..end].to_vec(),
                }
            })
            .collect();
        Window {
            kernel: KernelId(0),
            seq: w as u32,
            sender: HostId(0),
            from: NodeId::Host(HostId(0)),
            last: w + 1 == nwindows,
            chunks,
            ext: Vec::new(),
        }
    }

    /// Splits `arrays` into all their windows, in sequence order.
    pub fn split<A: AsRef<[u8]>>(&self, arrays: &[A]) -> Result<Vec<Window>, WindowError> {
        let nwindows = self.window_count(arrays)?;
        Ok((0..nwindows)
            .map(|w| self.cut(arrays, w, nwindows))
            .collect())
    }

    /// Reassembles windows into full arrays (the inverse of
    /// [`WindowSpec::split`]). Windows may arrive in any order; chunk
    /// offsets place the data. `lens` gives each output array's byte
    /// length.
    pub fn reassemble(
        &self,
        windows: &[Window],
        lens: &[usize],
    ) -> Result<Vec<Vec<u8>>, WindowError> {
        let mut arrays: Vec<Vec<u8>> = lens.iter().map(|&l| vec![0; l]).collect();
        for w in windows {
            if w.chunks.len() != self.elem_types.len() {
                return Err(WindowError::MaskArity {
                    mask: self.mask.arity(),
                    arrays: w.chunks.len(),
                });
            }
            for (i, ch) in w.chunks.iter().enumerate() {
                let start = ch.offset as usize;
                let end = start + ch.data.len();
                let arr = &mut arrays[i];
                if end > arr.len() {
                    return Err(WindowError::BadChunkLen {
                        array: i,
                        expected: arr.len().saturating_sub(start),
                        got: ch.data.len(),
                    });
                }
                arr[start..end].copy_from_slice(&ch.data);
            }
        }
        Ok(arrays)
    }
}

/// One array's share of a window: a byte offset into the source array and
/// the (mutable) element bytes, big-endian per element.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Chunk {
    /// Byte offset of this chunk within its source array.
    pub offset: u32,
    /// The chunk payload.
    pub data: Vec<u8>,
}

impl Chunk {
    /// Number of elements of type `ty` in this chunk.
    pub fn elems(&self, ty: ScalarType) -> usize {
        self.data.len() / ty.size()
    }

    /// Reads element `i` as a value of type `ty`.
    pub fn get(&self, ty: ScalarType, i: usize) -> Value {
        let s = ty.size();
        Value::read_be(ty, &self.data[i * s..(i + 1) * s])
    }

    /// Overwrites element `i` with `v` (cast to `ty` first by the caller).
    pub fn set(&mut self, ty: ScalarType, i: usize, v: Value) {
        let s = ty.size();
        v.write_be(&mut self.data[i * s..(i + 1) * s]);
    }
}

/// A data window in flight: the unit a network kernel processes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Window {
    /// The kernel that processes this window.
    pub kernel: KernelId,
    /// Sequence number within the invocation (builtin `window.seq`).
    pub seq: u32,
    /// The invoking host (builtin `window.sender`).
    pub sender: HostId,
    /// Previous logical hop (builtin `window.from`); rewritten at each
    /// NCP-aware device.
    pub from: NodeId,
    /// Whether this is the final window of the invocation.
    pub last: bool,
    /// One chunk per array parameter, in kernel-signature order.
    pub chunks: Vec<Chunk>,
    /// Bytes of the programmer's extended window struct (paper §4.2),
    /// packed in field order.
    pub ext: Vec<u8>,
}

impl Window {
    /// Reads a field of the extended window struct. `offset` is the byte
    /// offset of the field within the ext block. Returns zero when the
    /// ext block is absent or too short — mirroring a switch reading an
    /// unset PHV field.
    pub fn ext_read(&self, ty: ScalarType, offset: usize) -> Value {
        let end = offset + ty.size();
        if end > self.ext.len() {
            return Value::zero(ty);
        }
        Value::read_be(ty, &self.ext[offset..end])
    }

    /// Writes a field of the extended window struct, growing the ext
    /// block if needed.
    pub fn ext_write(&mut self, offset: usize, v: Value) {
        let end = offset + v.ty().size();
        if end > self.ext.len() {
            self.ext.resize(end, 0);
        }
        v.write_be(&mut self.ext[offset..end]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn be_u32s(vals: &[u32]) -> Vec<u8> {
        vals.iter().flat_map(|v| v.to_be_bytes()).collect()
    }

    #[test]
    fn mask_validate() {
        assert!(Mask::new([2, 2]).validate(2).is_ok());
        assert_eq!(
            Mask::new([2]).validate(2),
            Err(WindowError::MaskArity { mask: 1, arrays: 2 })
        );
        assert_eq!(
            Mask::new([2, 0]).validate(2),
            Err(WindowError::ZeroMaskEntry { index: 1 })
        );
    }

    #[test]
    fn mask_display() {
        assert_eq!(Mask::new([2, 2, 2]).to_string(), "{2,2,2}");
        assert_eq!(Mask::uniform(2, 4), Mask::new([4, 4]));
    }

    #[test]
    fn split_uniform_two_arrays() {
        // Fig. 2: two arrays split evenly in windows of length two.
        let spec =
            WindowSpec::new(vec![ScalarType::U32, ScalarType::U32], Mask::new([2, 2])).unwrap();
        let h0 = be_u32s(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let h1 = be_u32s(&[10, 11, 12, 13, 14, 15, 16, 17]);
        let ws = spec.split(&[&h0, &h1]).unwrap();
        assert_eq!(ws.len(), 4);
        assert_eq!(ws[0].chunks[0].get(ScalarType::U32, 0), Value::u32(0));
        assert_eq!(ws[1].chunks[1].get(ScalarType::U32, 1), Value::u32(13));
        assert_eq!(ws[3].seq, 3);
        assert!(ws[3].last);
        assert!(!ws[0].last);
        assert_eq!(ws[2].chunks[0].offset, 16);
    }

    #[test]
    fn split_tail_window_may_be_short() {
        let spec = WindowSpec::new(vec![ScalarType::U32], Mask::new([4])).unwrap();
        let a = be_u32s(&[1, 2, 3, 4, 5, 6]);
        let ws = spec.split(&[&a]).unwrap();
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[1].chunks[0].data.len(), 8); // two trailing elements
    }

    #[test]
    fn split_rejects_ragged_arrays() {
        let spec = WindowSpec::new(vec![ScalarType::U32], Mask::new([2])).unwrap();
        let bad = [0u8; 7];
        assert!(matches!(
            spec.split(&[&bad]),
            Err(WindowError::Ragged { array: 0, .. })
        ));
    }

    #[test]
    fn split_rejects_mismatched_window_counts() {
        let spec =
            WindowSpec::new(vec![ScalarType::U32, ScalarType::U32], Mask::new([2, 2])).unwrap();
        let a = be_u32s(&[1, 2, 3, 4]);
        let b = be_u32s(&[1, 2]);
        assert!(matches!(
            spec.split(&[&a, &b]),
            Err(WindowError::WindowCountMismatch { .. })
        ));
    }

    #[test]
    fn split_then_reassemble_is_identity() {
        let spec =
            WindowSpec::new(vec![ScalarType::U32, ScalarType::U16], Mask::new([2, 3])).unwrap();
        let a = be_u32s(&[9, 8, 7, 6, 5, 4]);
        let b: Vec<u8> = (0u16..9).flat_map(|v| v.to_be_bytes()).collect();
        let ws = spec.split(&[&a, &b]).unwrap();
        let back = spec.reassemble(&ws, &[a.len(), b.len()]).unwrap();
        assert_eq!(back[0], a);
        assert_eq!(back[1], b);
    }

    #[test]
    fn reassemble_out_of_order() {
        let spec = WindowSpec::new(vec![ScalarType::U32], Mask::new([1])).unwrap();
        let a = be_u32s(&[1, 2, 3]);
        let mut ws = spec.split(&[&a]).unwrap();
        ws.reverse();
        let back = spec.reassemble(&ws, &[a.len()]).unwrap();
        assert_eq!(back[0], a);
    }

    #[test]
    fn reassemble_rejects_overflow_chunk() {
        let spec = WindowSpec::new(vec![ScalarType::U32], Mask::new([1])).unwrap();
        let w = Window {
            kernel: KernelId(0),
            seq: 0,
            sender: HostId(0),
            from: NodeId::Host(HostId(0)),
            last: true,
            chunks: vec![Chunk {
                offset: 2,
                data: vec![0; 4],
            }],
            ext: vec![],
        };
        assert!(matches!(
            spec.reassemble(&[w], &[4]),
            Err(WindowError::BadChunkLen { .. })
        ));
    }

    #[test]
    fn chunk_element_access() {
        let mut c = Chunk {
            offset: 0,
            data: be_u32s(&[5, 6]),
        };
        assert_eq!(c.elems(ScalarType::U32), 2);
        c.set(ScalarType::U32, 1, Value::u32(99));
        assert_eq!(c.get(ScalarType::U32, 1), Value::u32(99));
        assert_eq!(c.get(ScalarType::U32, 0), Value::u32(5));
    }

    #[test]
    fn ext_read_write() {
        let mut w = Window {
            kernel: KernelId(1),
            seq: 0,
            sender: HostId(1),
            from: NodeId::Host(HostId(1)),
            last: false,
            chunks: vec![],
            ext: vec![],
        };
        // Reading an unset ext field yields zero, like an unset PHV field.
        assert_eq!(w.ext_read(ScalarType::U16, 0), Value::zero(ScalarType::U16));
        w.ext_write(2, Value::new(ScalarType::U16, 0xBEEF));
        assert_eq!(w.ext.len(), 4);
        assert_eq!(
            w.ext_read(ScalarType::U16, 2),
            Value::new(ScalarType::U16, 0xBEEF)
        );
    }

    #[test]
    fn window_bytes_accounting() {
        let spec =
            WindowSpec::new(vec![ScalarType::U32, ScalarType::U8], Mask::new([2, 4])).unwrap();
        assert_eq!(spec.chunk_bytes(0), 8);
        assert_eq!(spec.chunk_bytes(1), 4);
        assert_eq!(spec.window_bytes(), 12);
    }
}
