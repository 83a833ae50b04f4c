//! Lane splitting for register arrays.
//!
//! PISA register arrays admit **one access per packet pass**, from the
//! one stage the array is bound to. A kernel like the paper's AllReduce
//! touches `window.len` consecutive elements per window:
//!
//! ```c
//! unsigned base = window.seq * window.len;
//! for (unsigned i = 0; i < window.len; ++i) accum[base + i] += data[i];
//! ```
//!
//! After unrolling, the accesses are `accum[base + 0] … accum[base + L-1]`
//! with `base = seq * L`. Real in-network aggregation systems (SwitchML,
//! ATP) lay such state out as *L* independent per-lane register arrays,
//! each indexed by the slot (`seq`) — lane `k` holds elements
//! `{k, L+k, 2L+k, …}`. This pass discovers the pattern and performs the
//! same transformation; NetCache-style value reads (`Cache[*idx]` ↦
//! `idx*COLS + j`, j constant) split identically, reproducing the
//! `Read0, Read1, …` tables of the paper's Fig. 1b.
//!
//! Arrays whose accesses do not fit the affine form stay single-bank;
//! if that leaves several accesses per pass, the resource model reports
//! it honestly at load time.

use c3::{BinOp, ScalarType, Value};
use ncl_ir::ir::*;
use std::collections::HashMap;

/// How one original array was realized.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LaneDecision {
    /// Kept as a single bank.
    Single,
    /// Split into `lanes` banks of `slot_len` elements each.
    Split {
        /// Number of lanes (the affine stride).
        lanes: usize,
        /// Elements per lane.
        slot_len: usize,
    },
}

/// Result of lane splitting: per original array name, the decision, the
/// new bank names and the source length.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LaneMap {
    /// `(original array name, decision)`, in register declaration order
    /// (the order the emitted P4 documents them in).
    pub decisions: Vec<(String, LaneDecision)>,
    /// Original array name → bank names (single entry when unsplit).
    pub banks: HashMap<String, Vec<String>>,
    /// Original array name → its element count, which a split array's
    /// banks hold exactly (`lanes * slot_len` slots, no padding).
    pub lens: HashMap<String, usize>,
}

impl LaneMap {
    /// The no-op mapping (ablation: lane splitting disabled) — every
    /// array keeps its single bank.
    pub fn identity(module: &Module) -> LaneMap {
        let mut map = LaneMap::default();
        for r in &module.registers {
            map.decisions.push((r.name.clone(), LaneDecision::Single));
            map.banks.insert(r.name.clone(), vec![r.name.clone()]);
            map.lens.insert(r.name.clone(), r.len());
        }
        map
    }
}

/// An access index in affine form `base * 1 + offset`, where `base` is
/// either a register (dynamic) or absent (constant index).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Affine {
    base: Option<RegId>,
    offset: u64,
    /// The largest value each register from the index down to `base`
    /// holds without wrapping or reaching its sign bit.
    limit: u64,
    /// The one type of those registers, if they share one.
    ty: Option<ScalarType>,
}

/// Splits the module's register arrays in place and rewrites all kernel
/// accesses. Returns the mapping for diagnostics/P4 emission.
pub fn split_lanes(module: &mut Module) -> LaneMap {
    let mut map = LaneMap::default();
    // Gather accesses per array across all kernels.
    // access = (kernel idx, affine form or None)
    let mut accesses: HashMap<u32, Vec<Option<AffineAccess>>> = HashMap::new();
    for (ki, k) in module.kernels.iter().enumerate() {
        let defs = single_defs(k);
        for b in &k.blocks {
            for inst in &b.insts {
                let (arr, index) = match inst {
                    Inst::LdReg { arr, index, .. } => (*arr, *index),
                    Inst::StReg { arr, index, .. } => (*arr, *index),
                    _ => continue,
                };
                accesses
                    .entry(arr.0)
                    .or_default()
                    .push(access_of(index, &defs, k, ki));
            }
        }
    }

    // Decide per array.
    let mut decisions: HashMap<u32, LaneDecision> = HashMap::new();
    for (arr_idx, accs) in &accesses {
        let decl = &module.registers[*arr_idx as usize];
        decisions.insert(*arr_idx, decide(decl, accs));
    }

    // Build the new register list. Old ArrId → (new first bank id,
    // lanes, slot stride) for rewriting.
    let mut new_registers: Vec<RegisterDecl> = Vec::new();
    let mut remap: HashMap<u32, (u32, LaneDecision)> = HashMap::new();
    for (old_idx, decl) in module.registers.iter().enumerate() {
        let decision = decisions
            .get(&(old_idx as u32))
            .cloned()
            .unwrap_or(LaneDecision::Single);
        let first = new_registers.len() as u32;
        match &decision {
            LaneDecision::Single => {
                new_registers.push(decl.clone());
                map.banks.insert(decl.name.clone(), vec![decl.name.clone()]);
            }
            LaneDecision::Split { lanes, slot_len } => {
                let mut bank_names = Vec::new();
                for lane in 0..*lanes {
                    // Lane k holds elements {k, L+k, 2L+k, …}; its
                    // initializer is that stride of the explicit prefix.
                    let stride = decl.init.iter().skip(lane).step_by(*lanes);
                    let init: Vec<Value> = stride.copied().collect();
                    let name = format!("{}__l{}", decl.name, lane);
                    bank_names.push(name.clone());
                    new_registers.push(RegisterDecl {
                        name,
                        at: decl.at.clone(),
                        elem: decl.elem,
                        dims: vec![*slot_len],
                        init,
                        span: decl.span,
                    });
                }
                map.banks.insert(decl.name.clone(), bank_names);
            }
        }
        map.decisions.push((decl.name.clone(), decision.clone()));
        map.lens.insert(decl.name.clone(), decl.len());
        remap.insert(old_idx as u32, (first, decision));
    }

    // Rewrite kernel accesses.
    for (ki, k) in module.kernels.iter_mut().enumerate() {
        let defs = single_defs(k);
        // Collect rewrites first (borrow juggling).
        let mut rewrites: Vec<(usize, usize, ArrId, Operand)> = Vec::new();
        // Product register → (the register holding it shifted back to
        // slot units, L), for the `Slot::Shifted` accesses.
        let mut shifted: HashMap<RegId, (RegId, u64)> = HashMap::new();
        for (bi, b) in k.blocks.iter().enumerate() {
            for (ii, inst) in b.insts.iter().enumerate() {
                let (arr, index) = match inst {
                    Inst::LdReg { arr, index, .. } => (*arr, *index),
                    Inst::StReg { arr, index, .. } => (*arr, *index),
                    _ => continue,
                };
                let (first, decision) = &remap[&arr.0];
                match decision {
                    LaneDecision::Single => {
                        rewrites.push((bi, ii, ArrId(*first), index));
                    }
                    LaneDecision::Split { lanes, slot_len } => {
                        let acc = access_of(index, &defs, k, ki)
                            .expect("split arrays have affine accesses");
                        let aff = acc.affine;
                        let lane = (aff.offset as usize) % lanes;
                        // Slot index: the multiplicand (or the product
                        // shifted back) when dynamic, or offset / lanes
                        // when the index is constant.
                        let slot = match aff.base {
                            Some(base) => match acc.slot(*lanes, *slot_len).expect("checked") {
                                Slot::Multiplicand => Operand::Reg(acc.mul.expect("checked")),
                                Slot::Shifted => {
                                    let next = RegId(k.nregs + shifted.len() as u32);
                                    let l = *lanes as u64;
                                    Operand::Reg(shifted.entry(base).or_insert((next, l)).0)
                                }
                            },
                            None => {
                                Operand::Const(Value::u32((aff.offset as usize / lanes) as u32))
                            }
                        };
                        rewrites.push((bi, ii, ArrId(first + lane as u32), slot));
                    }
                }
            }
        }
        for (bi, ii, new_arr, new_index) in rewrites {
            match &mut k.blocks[bi].insts[ii] {
                Inst::LdReg { arr, index, .. } | Inst::StReg { arr, index, .. } => {
                    *arr = new_arr;
                    *index = new_index;
                }
                _ => unreachable!(),
            }
        }
        // Each shifted product is `product >> log2 L`, placed right after
        // the product's one definition, which dominates every access.
        let mut shifts: Vec<(RegId, RegId, u64)> = shifted
            .into_iter()
            .map(|(p, (dst, l))| (p, dst, l))
            .collect();
        shifts.sort_by_key(|&(_, dst, _)| dst);
        for (product, dst, l) in shifts {
            let ty = k.reg_tys[product.0 as usize];
            k.reg_tys.push(ty);
            k.nregs += 1;
            let (bi, ii) = def_site(k, product);
            let shift = Inst::Bin {
                dst,
                op: BinOp::Shr,
                a: Operand::Reg(product),
                b: Operand::Const(Value::new(ty, l.trailing_zeros() as u64)),
            };
            k.blocks[bi].insts.insert(ii + 1, shift);
        }
    }
    module.registers = new_registers;
    map
}

#[derive(Clone, Copy, Debug)]
struct AffineAccess {
    #[allow(dead_code)]
    kernel: usize,
    affine: Affine,
    /// When `affine.base` is `mul_reg * L`, the multiplicand register.
    mul: Option<RegId>,
    /// The constant L of `mul_reg * L`, when recognized.
    mul_l: Option<u64>,
    /// The largest value the multiplicand can hold.
    mul_bound: u64,
}

/// Where a split access finds its slot in its lane's bank.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Slot {
    /// The multiplicand `x` of `base = x * L`.
    Multiplicand,
    /// `base >> log2 L`: the product as it wrapped, in slot units.
    Shifted,
}

/// The access of `index` by kernel `ki`, in affine form if it has one.
fn access_of(
    index: Operand,
    defs: &HashMap<RegId, Inst>,
    k: &KernelIr,
    ki: usize,
) -> Option<AffineAccess> {
    affine_of(index, defs, k).map(|a| {
        let mul = multiplier_of(a.base, defs, k);
        AffineAccess {
            kernel: ki,
            affine: a,
            mul,
            mul_l: multiplier_value(a.base, defs),
            mul_bound: mul.map_or(u64::MAX, |x| value_bound(x, defs, k)),
        }
    })
}

/// Decides how to realize one array given all its accesses.
fn decide(decl: &RegisterDecl, accs: &[Option<AffineAccess>]) -> LaneDecision {
    // Any non-affine access → single bank.
    let Some(accs) = accs.iter().copied().collect::<Option<Vec<_>>>() else {
        return LaneDecision::Single;
    };
    if accs.is_empty() {
        return LaneDecision::Single;
    }
    // All accesses must share one dynamic base (or be constants), and
    // that base must be a multiple of L (it is `mul * L`), with offsets
    // in 0..L.
    let dynamic: Vec<&AffineAccess> = accs.iter().filter(|a| a.affine.base.is_some()).collect();
    if dynamic.is_empty() {
        // All-constant indices: splitting buys nothing over per-element
        // banks, and a single bank with one constant access is already
        // legal; leave single unless there are multiple distinct
        // elements accessed — then split fully by element.
        let offsets: std::collections::BTreeSet<u64> =
            accs.iter().map(|a| a.affine.offset).collect();
        if offsets.len() <= 1 {
            return LaneDecision::Single;
        }
        let total = decl.len();
        // Per-element banks only for small arrays (each element its own
        // lane with a single slot).
        if total <= 64 {
            return LaneDecision::Split {
                lanes: total,
                slot_len: 1,
            };
        }
        return LaneDecision::Single;
    }
    // Every dynamic base must be provably `x * L` for one common L.
    // Different lookup sites may use different multiplicand registers
    // (Fig. 5's Cache is read via one map lookup and written via
    // another) — what matters is the shared stride.
    let Some(lanes) = dynamic[0].affine_lanes() else {
        return LaneDecision::Single;
    };
    if !dynamic
        .iter()
        .all(|a| a.mul.is_some() && a.affine_lanes() == Some(lanes))
    {
        return LaneDecision::Single;
    }
    // The stride L must cover every offset.
    let max_off = accs.iter().map(|a| a.affine.offset).max().unwrap_or(0);
    if max_off as usize >= lanes || lanes < 2 {
        return LaneDecision::Single;
    }
    // A padding slot would be an element no other engine has: a window
    // past the array's end would wrap into it rather than to element 0.
    let total = decl.len();
    if !total.is_multiple_of(lanes) {
        return LaneDecision::Single;
    }
    let slot_len = total / lanes;
    if dynamic.iter().any(|a| a.slot(lanes, slot_len).is_none()) {
        return LaneDecision::Single;
    }
    LaneDecision::Split { lanes, slot_len }
}

impl AffineAccess {
    /// The lane count implied by this access's multiplier.
    fn affine_lanes(&self) -> Option<usize> {
        self.mul_l.map(|l| l as usize)
    }

    /// How this dynamic access reaches, in bank `offset % lanes` of
    /// `slot_len` slots, the element every other engine reaches:
    /// `index % (lanes * slot_len)`, the index wrapping at its type's
    /// width. `None` when no slot does.
    fn slot(&self, lanes: usize, slot_len: usize) -> Option<Slot> {
        let (l, total) = (lanes as u64, (lanes * slot_len) as u64);
        let limit = self.affine.limit;
        // The index never wraps: it is `x * L + offset` itself.
        let bounded = self
            .mul_bound
            .checked_mul(l)
            .and_then(|p| p.checked_add(l - 1))
            .is_some_and(|top| top <= limit);
        // Every wrap is by a multiple of the array's length.
        let wraps_whole = total.is_power_of_two() && total - 1 <= limit;
        if bounded || wraps_whole {
            return Some(Slot::Multiplicand);
        }
        // An L dividing the wrap keeps the wrapped product a multiple of
        // L, and one unsigned type from it to the index adds the offset
        // without a further wrap.
        let unsigned = self.affine.ty.is_some_and(|t| !t.is_signed());
        (l.is_power_of_two() && unsigned).then_some(Slot::Shifted)
    }
}

/// The largest value `r` can hold: its type's mask, or its source's
/// when it zero-extends a narrower unsigned register (a map's
/// `uint8_t` value cast for indexing).
fn value_bound(r: RegId, defs: &HashMap<RegId, Inst>, k: &KernelIr) -> u64 {
    let mask = |r: &RegId| k.reg_tys[r.0 as usize].mask();
    match defs.get(&r) {
        Some(Inst::Cast {
            a: Operand::Reg(src),
            ..
        }) if !k.reg_tys[src.0 as usize].is_signed() => mask(&r).min(mask(src)),
        _ => mask(&r),
    }
}

/// The (block, instruction) position of `r`'s definition.
fn def_site(k: &KernelIr, r: RegId) -> (usize, usize) {
    k.blocks
        .iter()
        .enumerate()
        .find_map(|(bi, b)| {
            let ii = b.insts.iter().position(|i| i.dsts().contains(&r))?;
            Some((bi, ii))
        })
        .expect("a product has a definition")
}

/// Register ids with exactly one defining instruction, mapped to it.
fn single_defs(k: &KernelIr) -> HashMap<RegId, Inst> {
    let mut count: HashMap<RegId, usize> = HashMap::new();
    let mut def: HashMap<RegId, Inst> = HashMap::new();
    for b in &k.blocks {
        for inst in &b.insts {
            for d in inst.dsts() {
                *count.entry(d).or_insert(0) += 1;
                def.insert(d, inst.clone());
            }
        }
    }
    def.retain(|r, _| count[r] == 1);
    def
}

/// Resolves an index operand to affine form by walking single-def
/// chains: `Const c`, `reg`, `reg + c`, `c + reg`, copies thereof.
fn affine_of(index: Operand, defs: &HashMap<RegId, Inst>, k: &KernelIr) -> Option<Affine> {
    match index {
        Operand::Const(v) => Some(Affine {
            base: None,
            offset: v.bits(),
            limit: u64::MAX,
            ty: None,
        }),
        Operand::Reg(r) => {
            let mut cur = r;
            let mut offset = 0u64;
            let mut limit = u64::MAX;
            let mut ty = Some(k.reg_tys[r.0 as usize]);
            for _ in 0..64 {
                let t = k.reg_tys[cur.0 as usize];
                limit = limit.min(if t.is_signed() {
                    t.mask() >> 1
                } else {
                    t.mask()
                });
                ty = ty.filter(|&u| u == t);
                match defs.get(&cur) {
                    Some(Inst::Copy {
                        a: Operand::Reg(src),
                        ..
                    }) => cur = *src,
                    Some(Inst::Copy {
                        a: Operand::Const(v),
                        ..
                    }) => {
                        return Some(Affine {
                            base: None,
                            offset: offset.wrapping_add(v.bits()),
                            limit: u64::MAX,
                            ty: None,
                        })
                    }
                    Some(Inst::Cast {
                        a: Operand::Reg(src),
                        ..
                    }) => cur = *src,
                    Some(Inst::Bin {
                        op: BinOp::Add,
                        a: Operand::Reg(src),
                        b: Operand::Const(c),
                        ..
                    }) => {
                        offset = offset.wrapping_add(c.bits());
                        cur = *src;
                    }
                    Some(Inst::Bin {
                        op: BinOp::Add,
                        a: Operand::Const(c),
                        b: Operand::Reg(src),
                        ..
                    }) => {
                        offset = offset.wrapping_add(c.bits());
                        cur = *src;
                    }
                    _ => {
                        return Some(Affine {
                            base: Some(cur),
                            offset,
                            limit,
                            ty,
                        })
                    }
                }
            }
            None
        }
    }
}

/// If `base` is defined as `x * L` (or `x << log2 L`), returns the
/// multiplicand register; the constant L is recovered by
/// [`multiplier_value`].
fn multiplier_of(base: Option<RegId>, defs: &HashMap<RegId, Inst>, _k: &KernelIr) -> Option<RegId> {
    let base = base?;
    match defs.get(&base)? {
        Inst::Bin {
            op: BinOp::Mul,
            a: Operand::Reg(x),
            b: Operand::Const(_),
            ..
        } => Some(*x),
        Inst::Bin {
            op: BinOp::Mul,
            a: Operand::Const(_),
            b: Operand::Reg(x),
            ..
        } => Some(*x),
        Inst::Bin {
            op: BinOp::Shl,
            a: Operand::Reg(x),
            b: Operand::Const(_),
            ..
        } => Some(*x),
        _ => None,
    }
}

/// The constant L in `base = x * L`.
fn multiplier_value(base: Option<RegId>, defs: &HashMap<RegId, Inst>) -> Option<u64> {
    let base = base?;
    match defs.get(&base)? {
        Inst::Bin {
            op: BinOp::Mul,
            b: Operand::Const(c),
            a: Operand::Reg(_),
            ..
        } => Some(c.bits()),
        Inst::Bin {
            op: BinOp::Mul,
            a: Operand::Const(c),
            b: Operand::Reg(_),
            ..
        } => Some(c.bits()),
        Inst::Bin {
            op: BinOp::Shl,
            b: Operand::Const(c),
            a: Operand::Reg(_),
            ..
        } => Some(1u64 << c.bits()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncl_ir::lower::{lower, LoweringConfig};
    use ncl_lang::frontend;

    fn module(src: &str, kernel: &str, mask: &[u16]) -> Module {
        let checked = frontend(src, "t.ncl").expect("frontend");
        let mut m =
            lower(&checked, &LoweringConfig::with_mask(kernel, mask.to_vec())).expect("lower");
        ncl_ir::passes::optimize(&mut m);
        m
    }

    #[test]
    fn allreduce_accum_splits_into_lanes() {
        let src = r#"
_net_ _at_("s1") int accum[16] = {0};
_net_ _out_ void k(int *data) {
    unsigned base = window.seq * window.len;
    for (unsigned i = 0; i < window.len; ++i)
        accum[base + i] += data[i];
    _drop();
}
"#;
        let mut m = module(src, "k", &[4]);
        let map = split_lanes(&mut m);
        assert_eq!(
            map.decisions,
            [(
                "accum".to_string(),
                LaneDecision::Split {
                    lanes: 4,
                    slot_len: 4
                }
            )]
        );
        assert_eq!(m.registers.len(), 4);
        assert_eq!(m.registers[0].name, "accum__l0");
        assert_eq!(m.registers[0].len(), 4);
        // Every access now targets a distinct bank with the slot index.
        let k = m.kernel("k").unwrap();
        let mut banks_touched: Vec<u32> = k
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter_map(|i| match i {
                Inst::StReg { arr, .. } => Some(arr.0),
                _ => None,
            })
            .collect();
        banks_touched.sort_unstable();
        banks_touched.dedup();
        assert_eq!(banks_touched, vec![0, 1, 2, 3]);
    }

    #[test]
    fn lane_init_distribution() {
        let src = r#"
_net_ _at_("s1") int a[4] = {10, 11, 12, 13};
_net_ _out_ void k(int *data) {
    unsigned base = window.seq * window.len;
    for (unsigned i = 0; i < window.len; ++i) a[base + i] += data[i];
}
"#;
        let mut m = module(src, "k", &[2]);
        let _ = split_lanes(&mut m);
        // lanes = 2, slot_len = 2: lane0 = {10, 12}, lane1 = {11, 13}.
        assert_eq!(m.registers[0].init[0], Value::i32(10));
        assert_eq!(m.registers[0].init[1], Value::i32(12));
        assert_eq!(m.registers[1].init[0], Value::i32(11));
        assert_eq!(m.registers[1].init[1], Value::i32(13));
    }

    /// A split that would pad a bank, or whose unbounded product wraps
    /// into another lane (`seq * 3` wraps to 2 at `seq = 0x5555_5556`),
    /// would send a window past the array's end to another element than
    /// the interpreter does: it stays single.
    #[test]
    fn inexact_strides_stay_single() {
        for (len, win) in [(10, 4), (24, 3)] {
            let src = format!(
                "_net_ _at_(\"s1\") int a[{len}] = {{0}};\n\
                 _net_ _out_ void k(int *data) {{\n\
                     unsigned base = window.seq * window.len;\n\
                     for (unsigned i = 0; i < window.len; ++i) a[base + i] += data[i];\n\
                 }}\n"
            );
            let mut m = module(&src, "k", &[win]);
            let map = split_lanes(&mut m);
            assert_eq!(map.decisions, [("a".to_string(), LaneDecision::Single)]);
        }
    }

    /// The register each bank access indexes by, and its definition.
    fn bank_indices(k: &KernelIr) -> Vec<Inst> {
        let defs = single_defs(k);
        k.blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter_map(|i| match i {
                Inst::LdReg {
                    index: Operand::Reg(r),
                    ..
                }
                | Inst::StReg {
                    index: Operand::Reg(r),
                    ..
                } => Some(defs[r].clone()),
                _ => None,
            })
            .collect()
    }

    /// An exact split of a length that does not divide the index wrap
    /// addresses its slots by the product as it wrapped, shifted back —
    /// `(seq * 8) >> 3` — since `seq` itself reaches another slot once
    /// `seq * 8` wraps.
    #[test]
    fn wrapping_products_address_slots_shifted() {
        let src = r#"
_net_ _at_("s1") int a[24] = {0};
_net_ _out_ void k(int *data) {
    unsigned base = window.seq * window.len;
    for (unsigned i = 0; i < window.len; ++i) a[base + i] += data[i];
}
"#;
        let mut m = module(src, "k", &[8]);
        let map = split_lanes(&mut m);
        let split = LaneDecision::Split {
            lanes: 8,
            slot_len: 3,
        };
        assert_eq!(map.decisions, [("a".to_string(), split)]);
        let k = m.kernel("k").unwrap();
        assert_eq!(k.reg_tys.len(), k.nregs as usize);
        let indices = bank_indices(k);
        assert_eq!(indices.len(), 16);
        for def in indices {
            let Inst::Bin {
                op: BinOp::Shr,
                a: Operand::Reg(product),
                b: Operand::Const(by),
                ..
            } = def
            else {
                panic!("slot not shifted: {def:?}")
            };
            assert_eq!(by.bits(), 3);
            let product = single_defs(k)[&product].clone();
            assert!(matches!(product, Inst::Bin { op: BinOp::Mul, .. }));
        }
    }

    /// A multiplicand bounded by its map's value type never wraps the
    /// product, so any exact length splits on it directly.
    #[test]
    fn bounded_multiplicands_split_any_exact_length() {
        let src = r#"
_net_ _at_("s1") ncl::Map<uint64_t, uint8_t, 12> Idx;
_net_ _at_("s1") uint32_t Cache[12][3];
_net_ _out_ void k(uint64_t key, uint32_t *val) {
    if (auto *i = Idx[key]) { memcpy(val, Cache[*i], 12); _reflect(); }
}
"#;
        let mut m = module(src, "k", &[1, 3]);
        let map = split_lanes(&mut m);
        let split = LaneDecision::Split {
            lanes: 3,
            slot_len: 12,
        };
        assert_eq!(map.decisions, [("Cache".to_string(), split)]);
        let indices = bank_indices(m.kernel("k").unwrap());
        assert_eq!(indices.len(), 3);
        for def in indices {
            assert!(matches!(def, Inst::Cast { .. }), "{def:?}");
        }
    }

    #[test]
    fn single_dynamic_access_stays_single() {
        let src = r#"
_net_ _at_("s1") unsigned count[8] = {0};
_net_ _out_ void k(int *data) { count[window.seq] += 1; _drop(); }
"#;
        let mut m = module(src, "k", &[1]);
        let map = split_lanes(&mut m);
        assert_eq!(map.decisions, [("count".to_string(), LaneDecision::Single)]);
        assert_eq!(m.registers.len(), 1);
    }

    #[test]
    fn constant_multi_element_splits_per_element() {
        let src = r#"
_net_ _at_("s1") int acc[4] = {0};
_net_ _out_ void k(int *data) {
    acc[0] += data[0]; acc[1] += data[1]; acc[2] += data[2]; acc[3] += data[3];
}
"#;
        let mut m = module(src, "k", &[4]);
        let map = split_lanes(&mut m);
        assert_eq!(
            map.decisions,
            [(
                "acc".to_string(),
                LaneDecision::Split {
                    lanes: 4,
                    slot_len: 1
                }
            )]
        );
        // All slot indices are the constant 0.
        let k = m.kernel("k").unwrap();
        for inst in k.blocks.iter().flat_map(|b| &b.insts) {
            if let Inst::StReg { index, .. } = inst {
                assert_eq!(index.as_const().map(|v| v.bits()), Some(0));
            }
        }
    }

    #[test]
    fn kvs_row_copy_splits_by_column() {
        let src = r#"
_net_ _at_("s1") ncl::Map<uint64_t, uint8_t, 4> Idx;
_net_ _at_("s1") uint32_t Cache[4][8];
_net_ _out_ void k(uint64_t key, uint32_t *val) {
    if (auto *i = Idx[key]) { memcpy(val, Cache[*i], 32); _reflect(); }
}
"#;
        let mut m = module(src, "k", &[1, 8]);
        let map = split_lanes(&mut m);
        assert_eq!(
            map.decisions,
            [(
                "Cache".to_string(),
                LaneDecision::Split {
                    lanes: 8,
                    slot_len: 4
                }
            )]
        );
        assert_eq!(m.registers.len(), 8);
    }

    #[test]
    fn mixed_access_patterns_stay_single() {
        // Same array indexed both by seq*len+i and by a data value:
        // bases differ → single bank.
        let src = r#"
_net_ _at_("s1") int a[8] = {0};
_net_ _out_ void k(int *data) {
    unsigned base = window.seq * window.len;
    a[base + 0] += 1;
    a[data[0]] += 1;
}
"#;
        let mut m = module(src, "k", &[2]);
        let map = split_lanes(&mut m);
        assert_eq!(map.decisions, [("a".to_string(), LaneDecision::Single)]);
    }

    #[test]
    fn interpreter_agrees_after_split() {
        // The transformation must preserve semantics: run the same
        // windows through interpreter on the original and split modules.
        use c3::{Chunk, HostId, KernelId, NodeId, Window};
        use ncl_ir::{Interpreter, SwitchState};
        let src = r#"
_net_ _at_("s1") int accum[8] = {1, 2, 3, 4, 5, 6, 7, 8};
_net_ _out_ void k(int *data) {
    unsigned base = window.seq * window.len;
    for (unsigned i = 0; i < window.len; ++i)
        accum[base + i] += data[i];
    memcpy(data, &accum[base], window.len * 4);
    _drop();
}
"#;
        let original = module(src, "k", &[4]);
        let mut split = original.clone();
        let _ = split_lanes(&mut split);

        let mk_window = |seq: u32| Window {
            kernel: KernelId(0),
            seq,
            sender: HostId(1),
            from: NodeId::Host(HostId(1)),
            last: false,
            chunks: vec![Chunk {
                offset: 0,
                data: [5u32, 6, 7, 8]
                    .iter()
                    .flat_map(|v| v.to_be_bytes())
                    .collect(),
            }],
            ext: vec![],
        };
        let it = Interpreter::default();
        let mut st_a = SwitchState::from_module(&original);
        let mut st_b = SwitchState::from_module(&split);
        for seq in [0u32, 1, 0] {
            let mut wa = mk_window(seq);
            let mut wb = mk_window(seq);
            it.run_outgoing(original.kernel("k").unwrap(), &mut wa, &mut st_a)
                .unwrap();
            it.run_outgoing(split.kernel("k").unwrap(), &mut wb, &mut st_b)
                .unwrap();
            assert_eq!(wa, wb, "window divergence at seq {seq}");
        }
        // Register contents correspond: original[slot*L + lane] ==
        // split lane bank[slot].
        for slot in 0..2 {
            for lane in 0..4 {
                assert_eq!(
                    st_a.registers[0].get(slot * 4 + lane),
                    st_b.registers[lane].get(slot),
                    "slot {slot} lane {lane}"
                );
            }
        }
    }
}
