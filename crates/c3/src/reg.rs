//! Packed register arrays: the one store every engine keeps device
//! memory in — switch state in the interpreter and the software switch,
//! the PISA pipeline's register file, host `_ext_` memory, and the model
//! checker's switch state.

use crate::value::{ScalarType, Value};

/// One lane of device memory: the unsigned integer of a scalar width.
/// Two's complement makes one wrapping add serve both signednesses, and
/// the big-endian load/store folds the wire byte swap into the access.
pub trait Lane: Copy {
    /// Lane width in bytes.
    const N: usize;
    /// Truncates canonical [`Value`] bits to the lane.
    fn from_bits(bits: u64) -> Self;
    /// Zero-extends the lane to canonical [`Value`] bits.
    fn bits(self) -> u64;
    /// Loads a big-endian lane from exactly `N` window bytes.
    fn load_be(src: &[u8]) -> Self;
    /// Stores the lane big-endian into exactly `N` window bytes.
    fn store_be(self, dst: &mut [u8]);
    /// Wrapping add at the lane width.
    fn add(self, other: Self) -> Self;
}

macro_rules! impl_lane {
    ($($t:ty),*) => {$(
        impl Lane for $t {
            const N: usize = std::mem::size_of::<$t>();
            #[inline(always)]
            fn from_bits(bits: u64) -> Self {
                bits as $t
            }
            #[inline(always)]
            fn bits(self) -> u64 {
                self as u64
            }
            #[inline(always)]
            fn load_be(src: &[u8]) -> Self {
                <$t>::from_be_bytes(src.try_into().expect("lane-sized slice"))
            }
            #[inline(always)]
            fn store_be(self, dst: &mut [u8]) {
                dst.copy_from_slice(&self.to_be_bytes())
            }
            #[inline(always)]
            fn add(self, other: Self) -> Self {
                self.wrapping_add(other)
            }
        }
    )*};
}
impl_lane!(u8, u16, u32, u64);

/// The packed storage behind a [`RegArray`], one variant per lane width.
#[derive(PartialEq, Eq, Debug)]
pub enum Lanes {
    /// `bool`, `i8`, `u8`.
    W8(Vec<u8>),
    /// `i16`, `u16`.
    W16(Vec<u16>),
    /// `i32`, `u32`.
    W32(Vec<u32>),
    /// `i64`, `u64`.
    W64(Vec<u64>),
}

/// Evaluates `$body` with `$a` bound to the typed lane vector of a
/// [`Lanes`] (or a reference to one): the single width dispatch every
/// accessor and executor loop goes through.
#[macro_export]
macro_rules! each_width {
    ($lanes:expr, $a:ident => $body:expr) => {
        match $lanes {
            $crate::reg::Lanes::W8($a) => $body,
            $crate::reg::Lanes::W16($a) => $body,
            $crate::reg::Lanes::W32($a) => $body,
            $crate::reg::Lanes::W64($a) => $body,
        }
    };
}

impl Clone for Lanes {
    fn clone(&self) -> Self {
        match self {
            Lanes::W8(a) => Lanes::W8(a.clone()),
            Lanes::W16(a) => Lanes::W16(a.clone()),
            Lanes::W32(a) => Lanes::W32(a.clone()),
            Lanes::W64(a) => Lanes::W64(a.clone()),
        }
    }

    /// Copies into `self`'s buffer when the widths match (reallocating
    /// only when `source` is longer than it holds), else clones.
    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (Lanes::W8(a), Lanes::W8(b)) => a.clone_from(b),
            (Lanes::W16(a), Lanes::W16(b)) => a.clone_from(b),
            (Lanes::W32(a), Lanes::W32(b)) => a.clone_from(b),
            (Lanes::W64(a), Lanes::W64(b)) => a.clone_from(b),
            (this, _) => *this = source.clone(),
        }
    }
}

/// One register array: device memory packed at the declared element
/// width (`bool` as one byte holding 0 or 1). A slot's type is the
/// declaration's, not a per-slot tag: every store casts to `elem` and
/// every load reads back an `elem`-typed [`Value`].
#[derive(PartialEq, Eq, Debug)]
pub struct RegArray {
    elem: ScalarType,
    lanes: Lanes,
}

impl Clone for RegArray {
    fn clone(&self) -> Self {
        RegArray {
            elem: self.elem,
            lanes: self.lanes.clone(),
        }
    }

    /// Keeps `self`'s lane buffer when the lane widths match.
    fn clone_from(&mut self, source: &Self) {
        self.elem = source.elem;
        self.lanes.clone_from(&source.lanes);
    }
}

impl RegArray {
    /// An array of `len` zeros (one zeroed allocation, no fill) with the
    /// explicit initializer prefix `init` cast to `elem` over it.
    pub fn new(elem: ScalarType, len: usize, init: &[Value]) -> Self {
        let lanes = match elem.size() {
            1 => Lanes::W8(vec![0; len]),
            2 => Lanes::W16(vec![0; len]),
            4 => Lanes::W32(vec![0; len]),
            _ => Lanes::W64(vec![0; len]),
        };
        let mut arr = RegArray { elem, lanes };
        for (i, v) in init.iter().take(len).enumerate() {
            arr.set(i, *v);
        }
        arr
    }

    /// The declared element type of every slot.
    #[inline]
    pub fn elem(&self) -> ScalarType {
        self.elem
    }

    /// Number of slots.
    #[inline]
    pub fn len(&self) -> usize {
        each_width!(&self.lanes, a => a.len())
    }

    /// True for an array not placed at this location.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads slot `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`, like slice indexing.
    #[inline]
    pub fn get(&self, i: usize) -> Value {
        Value::from_canonical(self.elem, each_width!(&self.lanes, a => a[i].bits()))
    }

    /// Writes slot `i` with `v` cast to the element type.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`, like slice indexing.
    #[inline]
    pub fn set(&mut self, i: usize, v: Value) {
        let bits = self.lane_bits(v);
        each_width!(&mut self.lanes, a => a[i] = Lane::from_bits(bits))
    }

    /// Reads slot `i`, or `None` past the end.
    #[inline]
    pub fn try_get(&self, i: usize) -> Option<Value> {
        let bits = each_width!(&self.lanes, a => a.get(i).map(|l| l.bits()))?;
        Some(Value::from_canonical(self.elem, bits))
    }

    /// Writes slot `i` like [`RegArray::set`]; `false` (and nothing
    /// written) past the end.
    #[inline]
    pub fn try_set(&mut self, i: usize, v: Value) -> bool {
        let bits = self.lane_bits(v);
        each_width!(&mut self.lanes, a => a.get_mut(i).map(|l| *l = Lane::from_bits(bits)))
            .is_some()
    }

    /// `v` cast to the element type, as lane bits.
    #[inline]
    fn lane_bits(&self, v: Value) -> u64 {
        if v.ty() == self.elem {
            v.bits()
        } else {
            v.cast(self.elem).bits()
        }
    }

    /// Every slot in order, as `elem`-typed values. The width is matched
    /// once, not per slot: three of the four chained lane slices are
    /// empty.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        fn bits<L: Lane>(lanes: &[L]) -> impl Iterator<Item = u64> + '_ {
            lanes.iter().map(|l| l.bits())
        }
        let (mut w8, mut w16, mut w32, mut w64): (&[u8], &[u16], &[u32], &[u64]) =
            (&[], &[], &[], &[]);
        match &self.lanes {
            Lanes::W8(a) => w8 = a,
            Lanes::W16(a) => w16 = a,
            Lanes::W32(a) => w32 = a,
            Lanes::W64(a) => w64 = a,
        }
        let elem = self.elem;
        bits(w8)
            .chain(bits(w16))
            .chain(bits(w32))
            .chain(bits(w64))
            .map(move |b| Value::from_canonical(elem, b))
    }

    /// Feeds the array to a word hasher: the element type, the length,
    /// then the packed lanes eight bytes per word (little-endian within
    /// a word, the last word zero-padded). Equal arrays feed equal words,
    /// and two arrays of one shape that differ in any slot feed
    /// different words.
    pub fn digest(&self, mut word: impl FnMut(u64)) {
        word(self.elem as u64);
        word(self.len() as u64);
        each_width!(&self.lanes, a => pack_words(a, &mut word))
    }

    /// The typed lanes, for the executors' monomorphic loops.
    #[inline]
    pub fn lanes(&self) -> &Lanes {
        &self.lanes
    }

    /// Mutable typed lanes, for the executors' monomorphic loops.
    /// Writers must keep `bool` slots at 0 or 1.
    #[inline]
    pub fn lanes_mut(&mut self) -> &mut Lanes {
        &mut self.lanes
    }
}

/// Packs `8 / L::N` lanes per `u64` word, the first lane lowest.
fn pack_words<L: Lane>(lanes: &[L], word: &mut impl FnMut(u64)) {
    for group in lanes.chunks(8 / L::N) {
        let packed = group
            .iter()
            .enumerate()
            .fold(0u64, |w, (i, l)| w | l.bits() << (i * 8 * L::N));
        word(packed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(arr: &RegArray) -> Vec<u64> {
        let mut out = Vec::new();
        arr.digest(|w| out.push(w));
        out
    }

    #[test]
    fn slots_cost_their_declared_width() {
        for ty in ScalarType::ALL {
            let arr = RegArray::new(ty, 3, &[Value::u64(u64::MAX)]);
            let bytes = each_width!(arr.lanes(), a => std::mem::size_of_val(&a[..]));
            assert_eq!(bytes, 3 * ty.size(), "{ty}");
            assert_eq!(arr.get(0), Value::u64(u64::MAX).cast(ty), "{ty}");
            assert_eq!(arr.get(2), Value::zero(ty), "{ty}");
        }
    }

    #[test]
    fn checked_access_stops_at_the_end() {
        let mut arr = RegArray::new(ScalarType::I32, 2, &[Value::i32(-7)]);
        assert_eq!(arr.try_get(0), Some(Value::i32(-7)));
        assert_eq!(arr.try_get(2), None);
        assert!(arr.try_set(1, Value::u64(u64::MAX)));
        assert_eq!(arr.get(1), Value::i32(-1));
        assert!(!arr.try_set(2, Value::i32(5)));
        assert_eq!(
            arr.iter().collect::<Vec<_>>(),
            [Value::i32(-7), Value::i32(-1)]
        );
    }

    /// Golden words: the digest is part of ncmc's state hash, so a change
    /// here is a change to every visited-set key.
    #[test]
    fn digest_packs_eight_bytes_per_word() {
        let bytes = RegArray::new(
            ScalarType::U8,
            9,
            &(1..=9).map(Value::u64).collect::<Vec<_>>(),
        );
        assert_eq!(words(&bytes), [1, 9, 0x0807_0605_0403_0201, 0x09]);
        let ints = RegArray::new(ScalarType::I32, 3, &[Value::i32(-1), Value::i32(2)]);
        assert_eq!(words(&ints), [7, 3, 0x0000_0002_ffff_ffff, 0]);
        let wide = RegArray::new(ScalarType::U64, 1, &[Value::u64(1 << 63)]);
        assert_eq!(words(&wide), [4, 1, 1 << 63]);
        assert_eq!(words(&RegArray::new(ScalarType::Bool, 0, &[])), [0, 0]);
    }

    #[test]
    fn clone_from_equals_clone_across_shapes() {
        let lane_ptr = |arr: &RegArray| each_width!(arr.lanes(), a => a.as_ptr() as usize);
        let shapes = [
            RegArray::new(ScalarType::U8, 3, &[Value::u64(7)]),
            RegArray::new(ScalarType::I8, 3, &[Value::i32(-1)]),
            RegArray::new(ScalarType::U32, 3, &[Value::u64(9)]),
            RegArray::new(ScalarType::U32, 5, &[Value::u64(1), Value::u64(2)]),
            RegArray::new(ScalarType::U64, 0, &[]),
        ];
        for from in &shapes {
            for to in &shapes {
                let mut out = to.clone();
                let kept = lane_ptr(&out);
                out.clone_from(from);
                assert_eq!(out, *from, "{to:?} <- {from:?}");
                let same_width = from.elem().size() == to.elem().size();
                if same_width && from.len() <= to.len() && !from.is_empty() {
                    assert_eq!(lane_ptr(&out), kept, "{to:?} <- {from:?} reallocated");
                }
            }
        }
    }

    #[test]
    fn digest_tells_shapes_and_slots_apart() {
        let base = RegArray::new(ScalarType::U16, 4, &[]);
        let mut one_slot = base.clone();
        one_slot.set(3, Value::u64(1));
        let other_type = RegArray::new(ScalarType::I16, 4, &[]);
        let longer = RegArray::new(ScalarType::U16, 5, &[]);
        let all = [&base, &one_slot, &other_type, &longer].map(words);
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
