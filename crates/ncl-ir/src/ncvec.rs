//! ncvec — the width-specialized SIMD execution tier (DESIGN §4.11).
//!
//! The third execution tier below the micro-op fast path: where the
//! lowering's `fuse_element_runs` left a fused element-wise run
//! ([`crate::exec`]'s `VecAccum` / `VecRegToWin` / `VecWinToReg`), this
//! module executes the run's lane-packable body as one
//! width-monomorphic loop between the raw big-endian window bytes and
//! the packed register lanes ([`c3::RegArray`]) — `u8x32` /
//! `u16x16` / `u32x8` / `u64x4` per ymm — instead of the per-element
//! slot/bounds machinery of the scalar loops.
//!
//! # Dispatch and fallback rules
//!
//! Every entry point returns `bool`: `true` means the run executed here
//! (bit-identically to the scalar loops), `false` means the caller must
//! run the scalar path. The tier declines — and the fast path falls
//! back with identical results, never a panic — when:
//!
//! - the run's element types do not agree with the array's (mixed-width
//!   runs take the scalar tier's `get`/`set` loop),
//! - the slots do not pack into consecutive lanes: the index-add would
//!   wrap its type width, or the register array's power-of-two mask
//!   would wrap inside the body (lane-crossing slot strides),
//! - the in-bounds body is shorter than [`MIN_BODY`] groups (dispatch
//!   overhead would dominate).
//!
//! A headless first group (which reads the base register unmasked) and
//! the ragged tail past the chunk's last full element run through the
//! scalar epilogues — the same range-based loops the scalar tier uses,
//! so the semantics cannot drift. Runs guarded by `CmpBr` need no
//! special casing: fusion is intra-block, so a guarded run is reached
//! (or skipped) by ordinary control flow and executes identically.
//!
//! # Width specialization
//!
//! The body loops operate on pre-sliced regions — `&data[a..b]` window
//! bytes and `&mut lanes[s0..s0+w]` register slots — with per-element
//! work reduced to a big-endian lane load (the byte swap folded into
//! it) and a wrapping add or a copy. On x86-64 hosts with AVX2 the
//! loops are instantiated inside `#[target_feature]` wrappers so the
//! compiler emits 256-bit loads, byte shuffles and adds; elsewhere the
//! same portable loops run at whatever width the baseline target
//! offers. The width is detected once per process, and nothing
//! overrides it. Step-budget accounting is unchanged: the caller's
//! `vec_iters` already decided how many groups `m` execute, and partial
//! (budget-exhausted) runs vectorize like any other — the tier only
//! ever executes groups `< m`.

use crate::exec::{
    lane_typed, vec_accum_scalar, vec_reg_to_win_scalar, vec_win_to_reg_scalar, VecOp,
};
use c3::{each_width, Chunk, Lane, RegArray};
use std::sync::OnceLock;

/// The lane width a fused run executes at.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SimdLevel {
    /// Portable lane loops at the build target's baseline vector width.
    Lanes,
    /// Lane loops instantiated with AVX2 (runtime-detected, x86-64).
    Avx2,
}

/// Smallest lane-packable body worth leaving the scalar loop for.
/// Shorter runs stay scalar — identical results either way; this only
/// bounds dispatch overhead.
pub(crate) const MIN_BODY: u32 = 8;

/// The host's lane width, detected once per process.
fn level() -> SimdLevel {
    static L: OnceLock<SimdLevel> = OnceLock::new();
    *L.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
        SimdLevel::Lanes
    })
}

/// The lane-packable body of a fused run: iterations `lo..hi` write the
/// consecutive register slots `s0..s0 + (hi - lo)` and read the
/// consecutive, fully in-bounds chunk elements `idx0+lo..idx0+hi`.
struct Plan {
    lo: u32,
    hi: u32,
    s0: usize,
}

impl Plan {
    /// The body's register slots.
    fn slots(&self) -> std::ops::Range<usize> {
        self.s0..self.s0 + (self.hi - self.lo) as usize
    }

    /// The body's window bytes.
    fn bytes(&self, v: &VecOp) -> std::ops::Range<usize> {
        let nsz = v.wty.size();
        (v.idx0 + self.lo) as usize * nsz..(v.idx0 + self.hi) as usize * nsz
    }
}

/// Decides whether iterations of the run pack into consecutive lanes,
/// mirroring `VecOp::slot` exactly: for `i` in `lo..hi` the slot is
/// `(base + idx0 + i) & imask & amask`, which equals `s0 + (i - lo)`
/// precisely when neither the index-type mask nor the array mask wraps
/// across the body — the two conditions checked here. A headless first
/// group (base bits used unmasked) is excluded from the body and runs
/// scalar, as does everything past the chunk's last full element.
fn plan(v: &VecOp, m: u32, base_bits: u64, arr_len: usize, data_len: usize) -> Option<Plan> {
    let nsz = v.wty.size();
    let lo: u32 = if v.head_cost < v.cost { 1 } else { 0 };
    // Elements fully inside the chunk, counted from iteration 0; later
    // iterations read zeros (or skip stores) and take the scalar tail.
    let in_bounds = (data_len / nsz).saturating_sub(v.idx0 as usize);
    let hi = (m as u64).min(in_bounds as u64) as u32;
    if hi <= lo || hi - lo < MIN_BODY {
        return None;
    }
    let span = (hi - lo - 1) as u64;
    let k0 = base_bits.wrapping_add((v.idx0 + lo) as u64) & v.imask;
    if v.imask - k0 < span {
        return None; // index add wraps its type width inside the body
    }
    let s0 = (k0 & v.amask as u64) as usize;
    if (v.amask as u64) - (s0 as u64) < span {
        return None; // slot mask wraps inside the body (stride defeat)
    }
    if s0 + (hi - lo) as usize > arr_len {
        return None;
    }
    Some(Plan { lo, hi, s0 })
}

// ---------------------------------------------------------------------
// Width-monomorphic lane loops. Each is written over pre-sliced regions
// so the optimizer sees a fixed-stride loop with no bounds checks, no
// slot arithmetic and no per-element Option dispatch; the `avx2` module
// instantiates the same bodies under `#[target_feature]` so loads, byte
// swaps and adds vectorize at 256 bits (eight `u32` lanes per ymm).
// ---------------------------------------------------------------------

#[inline(always)]
fn accum_lanes<L: Lane>(dst: &mut [L], src: &[u8]) {
    debug_assert_eq!(src.len(), dst.len() * L::N);
    for (d, s) in dst.iter_mut().zip(src.chunks_exact(L::N)) {
        *d = d.add(L::load_be(s));
    }
}

#[inline(always)]
fn win_to_reg_lanes<L: Lane>(dst: &mut [L], src: &[u8]) {
    debug_assert_eq!(src.len(), dst.len() * L::N);
    for (d, s) in dst.iter_mut().zip(src.chunks_exact(L::N)) {
        *d = L::load_be(s);
    }
}

#[inline(always)]
fn reg_to_win_lanes<L: Lane>(src: &[L], dst: &mut [u8]) {
    debug_assert_eq!(dst.len(), src.len() * L::N);
    for (s, d) in src.iter().zip(dst.chunks_exact_mut(L::N)) {
        s.store_be(d);
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! The lane loops instantiated with AVX2 enabled.
    //!
    //! # Safety
    //! Callers must have observed [`SimdLevel::Avx2`], which is only
    //! reported after `is_x86_feature_detected!("avx2")` succeeded.

    use super::*;

    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn accum<L: Lane>(dst: &mut [L], src: &[u8]) {
        accum_lanes(dst, src)
    }

    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn win_to_reg<L: Lane>(dst: &mut [L], src: &[u8]) {
        win_to_reg_lanes(dst, src)
    }

    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn reg_to_win<L: Lane>(src: &[L], dst: &mut [u8]) {
        reg_to_win_lanes(src, dst)
    }
}

#[inline(always)]
fn accum_body<L: Lane>(lv: SimdLevel, dst: &mut [L], src: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if lv == SimdLevel::Avx2 {
        // SAFETY: Avx2 is only reported when runtime detection passed.
        return unsafe { avx2::accum(dst, src) };
    }
    let _ = lv;
    accum_lanes(dst, src)
}

#[inline(always)]
fn win_to_reg_body<L: Lane>(lv: SimdLevel, dst: &mut [L], src: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if lv == SimdLevel::Avx2 {
        // SAFETY: Avx2 is only reported when runtime detection passed.
        return unsafe { avx2::win_to_reg(dst, src) };
    }
    let _ = lv;
    win_to_reg_lanes(dst, src)
}

#[inline(always)]
fn reg_to_win_body<L: Lane>(lv: SimdLevel, src: &[L], dst: &mut [u8]) {
    #[cfg(target_arch = "x86_64")]
    if lv == SimdLevel::Avx2 {
        // SAFETY: Avx2 is only reported when runtime detection passed.
        return unsafe { avx2::reg_to_win(src, dst) };
    }
    let _ = lv;
    reg_to_win_lanes(src, dst)
}

// ---------------------------------------------------------------------
// Run entry points (called from the fast path's vec dispatch).
// ---------------------------------------------------------------------

/// `arr[slot] += win[c]`: executes the run if it lane-packs, scalar
/// head/tail included. Returns `false` (caller runs the scalar loop)
/// when the types are mixed, the chunk is absent, or the slots do not
/// pack.
pub(crate) fn accum(
    v: &VecOp,
    m: u32,
    base_bits: u64,
    arr: &mut RegArray,
    chunk: Option<&Chunk>,
) -> bool {
    accum_at(level(), v, m, base_bits, arr, chunk)
}

/// `win[c] = arr[slot]` (store direction). The chunk is present (the
/// caller already dropped the run when it was missing).
pub(crate) fn reg_to_win(v: &VecOp, m: u32, base_bits: u64, arr: &RegArray, c: &mut Chunk) -> bool {
    reg_to_win_at(level(), v, m, base_bits, arr, c)
}

/// `arr[slot] = win[c]` (broadcast-read direction).
pub(crate) fn win_to_reg(
    v: &VecOp,
    m: u32,
    base_bits: u64,
    arr: &mut RegArray,
    chunk: Option<&Chunk>,
) -> bool {
    win_to_reg_at(level(), v, m, base_bits, arr, chunk)
}

/// [`accum`] at lane width `lv`; inlined into it, the fused-run hot path.
#[inline(always)]
fn accum_at(
    lv: SimdLevel,
    v: &VecOp,
    m: u32,
    base_bits: u64,
    arr: &mut RegArray,
    chunk: Option<&Chunk>,
) -> bool {
    let Some(c) = chunk.filter(|_| v.wty == v.aty && lane_typed(v.wty, arr)) else {
        return false;
    };
    let Some(p) = plan(v, m, base_bits, arr.len(), c.data.len()) else {
        return false;
    };
    vec_accum_scalar(v, 0..p.lo, base_bits, arr, chunk);
    each_width!(arr.lanes_mut(), a => accum_body(lv, &mut a[p.slots()], &c.data[p.bytes(v)]));
    vec_accum_scalar(v, p.hi..m, base_bits, arr, chunk);
    true
}

/// [`reg_to_win`] at lane width `lv`; inlined into it, the fused-run hot path.
#[inline(always)]
fn reg_to_win_at(
    lv: SimdLevel,
    v: &VecOp,
    m: u32,
    base_bits: u64,
    arr: &RegArray,
    c: &mut Chunk,
) -> bool {
    if v.wty != arr.elem() {
        return false;
    }
    let Some(p) = plan(v, m, base_bits, arr.len(), c.data.len()) else {
        return false;
    };
    vec_reg_to_win_scalar(v, 0..p.lo, base_bits, arr, c);
    each_width!(arr.lanes(), a => reg_to_win_body(lv, &a[p.slots()], &mut c.data[p.bytes(v)]));
    vec_reg_to_win_scalar(v, p.hi..m, base_bits, arr, c);
    true
}

/// [`win_to_reg`] at lane width `lv`; inlined into it, the fused-run hot path.
#[inline(always)]
fn win_to_reg_at(
    lv: SimdLevel,
    v: &VecOp,
    m: u32,
    base_bits: u64,
    arr: &mut RegArray,
    chunk: Option<&Chunk>,
) -> bool {
    let Some(c) = chunk.filter(|_| lane_typed(v.wty, arr)) else {
        return false;
    };
    let Some(p) = plan(v, m, base_bits, arr.len(), c.data.len()) else {
        return false;
    };
    vec_win_to_reg_scalar(v, 0..p.lo, base_bits, arr, chunk);
    each_width!(arr.lanes_mut(), a => win_to_reg_body(lv, &mut a[p.slots()], &c.data[p.bytes(v)]));
    vec_win_to_reg_scalar(v, p.hi..m, base_bits, arr, chunk);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use c3::{ScalarType, Value};

    fn vo(idx0: u32, n: u32, amask: u32, imask: u64, headless: bool) -> VecOp {
        VecOp {
            param: 0,
            wty: ScalarType::I32,
            idx0,
            n,
            arr: 0,
            amask,
            base: 0,
            imask,
            aty: ScalarType::I32,
            cost: 5,
            head_cost: if headless { 4 } else { 5 },
        }
    }

    #[test]
    fn plan_packs_contiguous_runs() {
        let v = vo(0, 64, 63, u32::MAX as u64, false);
        let p = plan(&v, 64, 0, 64, 64 * 4).expect("packs");
        assert_eq!((p.lo, p.hi, p.s0), (0, 64, 0));
    }

    #[test]
    fn plan_excludes_headless_group_zero() {
        let v = vo(0, 64, 63, u32::MAX as u64, true);
        let p = plan(&v, 64, 0, 64, 64 * 4).expect("packs");
        assert_eq!((p.lo, p.hi, p.s0), (1, 64, 1));
    }

    #[test]
    fn plan_declines_amask_wrap() {
        // base 60 into a 64-slot array: slots wrap at 63→0 inside the
        // body — a lane-defeating stride.
        let v = vo(0, 16, 63, u32::MAX as u64, false);
        assert!(plan(&v, 16, 60, 64, 16 * 4).is_none());
    }

    #[test]
    fn plan_declines_index_width_wrap() {
        // u8 index type: base 250 + 16 elements wraps the 8-bit index.
        let v = vo(0, 16, 1023, 0xFF, false);
        assert!(plan(&v, 16, 250, 1024, 16 * 4).is_none());
    }

    #[test]
    fn plan_trims_ragged_tail_to_full_elements() {
        // Chunk holds 13 full i32 elements; a 16-group run keeps a
        // 13-element body and leaves 3 to the scalar tail.
        let v = vo(0, 16, 63, u32::MAX as u64, false);
        let p = plan(&v, 16, 0, 64, 13 * 4).expect("packs");
        assert_eq!((p.lo, p.hi), (0, 13));
    }

    #[test]
    fn plan_declines_short_bodies() {
        let v = vo(0, 4, 63, u32::MAX as u64, false);
        assert!(plan(&v, 4, 0, 64, 4 * 4).is_none());
    }

    /// Every width, headless and headed, ragged chunk, at every lane
    /// width the host can run — the portable lanes always, AVX2 where
    /// detected: wherever the tier engages (everywhere, `bool` window
    /// reads aside), it and the scalar reference loops leave identical
    /// register lanes and window bytes.
    #[test]
    fn lane_bodies_match_the_scalar_loops_at_every_width() {
        let mut levels = vec![SimdLevel::Lanes];
        if level() == SimdLevel::Avx2 {
            levels.push(SimdLevel::Avx2);
        }
        for lv in levels {
            for ty in ScalarType::ALL {
                for headless in [false, true] {
                    let mut v = vo(1, 37, 1023, u32::MAX as u64, headless);
                    (v.wty, v.aty) = (ty, ty);
                    let init: Vec<Value> = (0..1024u64)
                        .map(|i| Value::new(ty, i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
                        .collect();
                    let arr = RegArray::new(ty, 1024, &init);
                    // 35 full elements past idx0 = 1, then a partial one.
                    let data: Vec<u8> = (0..36 * ty.size() + ty.size() / 2)
                        .map(|b| (b * 37 + 11) as u8)
                        .collect();
                    let c = Chunk { offset: 0, data };
                    let ctx = format!("{lv:?} {ty} headless={headless}");

                    let (mut simd, mut scalar) = (arr.clone(), arr.clone());
                    let ran = accum_at(lv, &v, v.n, 5, &mut simd, Some(&c));
                    assert_eq!(ran, ty != ScalarType::Bool, "accum {ctx}");
                    vec_accum_scalar(&v, 0..v.n, 5, &mut scalar, Some(&c));
                    assert!(!ran || simd == scalar, "accum {ctx}");

                    let (mut simd, mut scalar) = (arr.clone(), arr.clone());
                    let ran = win_to_reg_at(lv, &v, v.n, 5, &mut simd, Some(&c));
                    assert_eq!(ran, ty != ScalarType::Bool, "win_to_reg {ctx}");
                    vec_win_to_reg_scalar(&v, 0..v.n, 5, &mut scalar, Some(&c));
                    assert!(!ran || simd == scalar, "win_to_reg {ctx}");

                    let (mut simd_c, mut scalar_c) = (c.clone(), c.clone());
                    let ran = reg_to_win_at(lv, &v, v.n, 5, &arr, &mut simd_c);
                    assert!(ran, "reg_to_win {ctx}");
                    vec_reg_to_win_scalar(&v, 0..v.n, 5, &arr, &mut scalar_c);
                    assert_eq!(simd_c, scalar_c, "reg_to_win {ctx}");
                }
            }
        }
    }
}
