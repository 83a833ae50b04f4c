//! IR analysis and optimization passes (paper Fig. 6, "Analysis/Opt.").
//!
//! * [`optimize`] — const folding + propagation, copy propagation, GVN-ish
//!   local simplification, dead-code elimination, branch simplification,
//!   unreachable-block removal, iterated to a fixpoint. Propagation is
//!   restricted to *single-definition* registers whose definition
//!   dominates the use — the IR is not SSA, so multi-def registers keep
//!   their loads/stores.
//! * [`conformance`] — the paper's conformance-checking stage: rejects
//!   CFG cycles (loops that failed to unroll), accesses to state not
//!   placed at the module's location, and masks inconsistent with kernel
//!   signatures, with source-free but precise messages.

use crate::ir::*;
use c3::{BinOp, Value};
use ncl_lang::ast::KernelKind;
use ncl_lang::diag::{Diagnostic, Span};
use std::collections::HashMap;

/// Statistics from an [`optimize`] run (used by the compiler bench).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct OptStats {
    /// Instructions folded to constants or copies.
    pub folded: usize,
    /// Instructions removed by DCE.
    pub dce_removed: usize,
    /// Branches turned into jumps.
    pub branches_simplified: usize,
    /// Unreachable blocks removed.
    pub blocks_removed: usize,
    /// Fixpoint iterations.
    pub iterations: usize,
}

/// Optimizes every kernel of a module in place.
pub fn optimize(module: &mut Module) -> OptStats {
    let mut stats = OptStats::default();
    for k in &mut module.kernels {
        let s = optimize_kernel(k);
        stats.folded += s.folded;
        stats.dce_removed += s.dce_removed;
        stats.branches_simplified += s.branches_simplified;
        stats.blocks_removed += s.blocks_removed;
        stats.iterations = stats.iterations.max(s.iterations);
    }
    stats
}

/// Optimizes a single kernel to a fixpoint.
fn optimize_kernel(k: &mut KernelIr) -> OptStats {
    let mut stats = OptStats::default();
    loop {
        stats.iterations += 1;
        let mut changed = false;
        changed |= propagate_and_fold(k, &mut stats);
        changed |= simplify_branches(k, &mut stats);
        changed |= merge_blocks(k, &mut stats);
        changed |= remove_unreachable(k, &mut stats);
        changed |= dce(k, &mut stats);
        if !changed || stats.iterations > 50 {
            break;
        }
    }
    stats
}

/// Computes immediate dominators over the reachable CFG (Cooper-Harvey-
/// Kennedy). Returns `idom[block] = Some(parent)` with the entry its own
/// dominator; unreachable blocks get `None`.
pub(crate) fn dominators(k: &KernelIr) -> Vec<Option<BlockId>> {
    let n = k.blocks.len();
    let rpo = k.rpo();
    let mut order = vec![usize::MAX; n];
    for (i, b) in rpo.iter().enumerate() {
        order[b.0 as usize] = i;
    }
    // Predecessors over reachable blocks.
    let mut preds: Vec<Vec<usize>> = vec![vec![]; n];
    for b in &rpo {
        for s in k.blocks[b.0 as usize].term.successors() {
            preds[s.0 as usize].push(b.0 as usize);
        }
    }
    let mut idom: Vec<Option<usize>> = vec![None; n];
    idom[0] = Some(0);
    let mut changed = true;
    while changed {
        changed = false;
        for b in rpo.iter().skip(1) {
            let bi = b.0 as usize;
            let mut new_idom: Option<usize> = None;
            for &p in &preds[bi] {
                if idom[p].is_none() {
                    continue;
                }
                new_idom = Some(match new_idom {
                    None => p,
                    Some(cur) => intersect(cur, p, &idom, &order),
                });
            }
            if let Some(ni) = new_idom {
                if idom[bi] != Some(ni) {
                    idom[bi] = Some(ni);
                    changed = true;
                }
            }
        }
    }
    idom.into_iter()
        .map(|o| o.map(|i| BlockId(i as u32)))
        .collect()
}

fn intersect(mut a: usize, mut b: usize, idom: &[Option<usize>], order: &[usize]) -> usize {
    while a != b {
        while order[a] > order[b] {
            a = idom[a].expect("dominator chain reaches entry");
        }
        while order[b] > order[a] {
            b = idom[b].expect("dominator chain reaches entry");
        }
    }
    a
}

/// Whether block `a` dominates block `b`.
fn dominates(a: BlockId, b: BlockId, idom: &[Option<BlockId>]) -> bool {
    let mut cur = b;
    loop {
        if cur == a {
            return true;
        }
        match idom[cur.0 as usize] {
            Some(parent) if parent != cur => cur = parent,
            _ => return cur == a,
        }
    }
}

/// Constant/copy propagation restricted to single-def registers with
/// dominating definitions, plus instruction folding.
fn propagate_and_fold(k: &mut KernelIr, stats: &mut OptStats) -> bool {
    let idom = dominators(k);
    // Count defs per register; record defining block and a replacement
    // operand for Copy/const-producing defs.
    let mut def_count: HashMap<RegId, usize> = HashMap::new();
    let mut def_block: HashMap<RegId, BlockId> = HashMap::new();
    let mut replacement: HashMap<RegId, Operand> = HashMap::new();
    for (bi, b) in k.blocks.iter().enumerate() {
        for inst in &b.insts {
            for d in inst.dsts() {
                *def_count.entry(d).or_insert(0) += 1;
                def_block.insert(d, BlockId(bi as u32));
            }
            if let Inst::Copy { dst, a } = inst {
                replacement.insert(*dst, *a);
            }
        }
    }
    // Only single-def regs may be propagated.
    replacement.retain(|r, _| def_count.get(r) == Some(&1));
    // Resolve chains (copy of copy).
    let resolve = |mut op: Operand, repl: &HashMap<RegId, Operand>| -> Operand {
        let mut hops = 0;
        while let Operand::Reg(r) = op {
            match repl.get(&r) {
                Some(next) => {
                    op = *next;
                    hops += 1;
                    if hops > 64 {
                        break;
                    }
                }
                None => break,
            }
        }
        op
    };

    let mut changed = false;
    let nblocks = k.blocks.len();
    for bi in 0..nblocks {
        let block_id = BlockId(bi as u32);
        let ninsts = k.blocks[bi].insts.len();
        for ii in 0..ninsts {
            let mut inst = k.blocks[bi].insts[ii].clone();
            let before = inst.clone();
            inst.map_operands(|op| {
                let new = resolve(op, &replacement);
                match new {
                    Operand::Const(_) => new,
                    Operand::Reg(r) => {
                        // A reg replacement must dominate this use.
                        let src_ok = def_block
                            .get(&r)
                            .map(|db| dominates(*db, block_id, &idom))
                            .unwrap_or(false);
                        if src_ok {
                            new
                        } else {
                            op
                        }
                    }
                }
            });
            // Fold pure ops with constant operands.
            let folded = fold_inst(&inst);
            if let Some(f) = folded {
                if f != inst {
                    stats.folded += 1;
                }
                inst = f;
            }
            if inst != before {
                changed = true;
                k.blocks[bi].insts[ii] = inst;
            }
        }
        // Terminator operands too.
        let term = k.blocks[bi].term.clone();
        if let Terminator::Br { cond, then, els } = term {
            let new_cond = resolve(cond, &replacement);
            let ok = match new_cond {
                Operand::Const(_) => true,
                Operand::Reg(r) => def_block
                    .get(&r)
                    .map(|db| dominates(*db, block_id, &idom))
                    .unwrap_or(false),
            };
            if ok && new_cond != cond {
                k.blocks[bi].term = Terminator::Br {
                    cond: new_cond,
                    then,
                    els,
                };
                changed = true;
            }
        }
    }
    changed
}

/// Folds a single instruction when its operands are constants, and
/// applies a few algebraic identities.
fn fold_inst(inst: &Inst) -> Option<Inst> {
    match inst {
        Inst::Bin { dst, op, a, b } => {
            if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
                return Some(Inst::Copy {
                    dst: *dst,
                    a: Operand::Const(Value::binop(*op, x, y)),
                });
            }
            // x + 0, x - 0, x | 0, x ^ 0 → x ; x * 1 → x ; x * 0, x & 0 → 0.
            if let Some(y) = b.as_const() {
                if y.bits() == 0 && matches!(op, BinOp::Add | BinOp::Sub | BinOp::Or | BinOp::Xor) {
                    return Some(Inst::Copy { dst: *dst, a: *a });
                }
                if y.bits() == 1 && *op == BinOp::Mul {
                    return Some(Inst::Copy { dst: *dst, a: *a });
                }
                if y.bits() == 0 && matches!(op, BinOp::Mul | BinOp::And) {
                    return Some(Inst::Copy {
                        dst: *dst,
                        a: Operand::Const(Value::zero(y.ty())),
                    });
                }
            }
            if let Some(x) = a.as_const() {
                if x.bits() == 0 && matches!(op, BinOp::Add | BinOp::Or | BinOp::Xor) {
                    return Some(Inst::Copy { dst: *dst, a: *b });
                }
            }
            None
        }
        Inst::Un { dst, op, a } => a.as_const().map(|v| Inst::Copy {
            dst: *dst,
            a: Operand::Const(Value::unop(*op, v)),
        }),
        Inst::Cast { dst, ty, a } => a.as_const().map(|v| Inst::Copy {
            dst: *dst,
            a: Operand::Const(v.cast(*ty)),
        }),
        Inst::Select { dst, cond, a, b } => cond.as_const().map(|c| Inst::Copy {
            dst: *dst,
            a: if c.is_truthy() { *a } else { *b },
        }),
        _ => None,
    }
}

/// Br on constant → Jmp.
fn simplify_branches(k: &mut KernelIr, stats: &mut OptStats) -> bool {
    let mut changed = false;
    for b in &mut k.blocks {
        if let Terminator::Br { cond, then, els } = &b.term {
            if let Some(c) = cond.as_const() {
                let target = if c.is_truthy() { *then } else { *els };
                b.term = Terminator::Jmp(target);
                stats.branches_simplified += 1;
                changed = true;
            }
        }
    }
    changed
}

/// Merges straight-line jump chains: a block ending in `Jmp(B)` absorbs
/// `B` when `B` has no other predecessor, and branches through empty
/// forwarding blocks are retargeted.
fn merge_blocks(k: &mut KernelIr, stats: &mut OptStats) -> bool {
    let mut changed = false;
    // Retarget jumps/branches through empty `Jmp`-only blocks.
    let forward_of = |blocks: &[Block], b: BlockId| -> Option<BlockId> {
        let blk = &blocks[b.0 as usize];
        if blk.insts.is_empty() {
            if let Terminator::Jmp(t) = blk.term {
                if t != b {
                    return Some(t);
                }
            }
        }
        None
    };
    for bi in 0..k.blocks.len() {
        let mut term = k.blocks[bi].term.clone();
        let mut local_change = false;
        match &mut term {
            Terminator::Jmp(t) => {
                while let Some(next) = forward_of(&k.blocks, *t) {
                    *t = next;
                    local_change = true;
                }
            }
            Terminator::Br { then, els, .. } => {
                while let Some(next) = forward_of(&k.blocks, *then) {
                    *then = next;
                    local_change = true;
                }
                while let Some(next) = forward_of(&k.blocks, *els) {
                    *els = next;
                    local_change = true;
                }
            }
            Terminator::Ret => {}
        }
        if local_change {
            k.blocks[bi].term = term;
            changed = true;
        }
    }
    // Absorb unique-successor/unique-predecessor pairs.
    let mut pred_count = vec![0usize; k.blocks.len()];
    for b in &k.blocks {
        for s in b.term.successors() {
            pred_count[s.0 as usize] += 1;
        }
    }
    #[allow(clippy::while_let_loop)] // `while let` can't pattern-match a field
    for bi in 0..k.blocks.len() {
        loop {
            let Terminator::Jmp(t) = k.blocks[bi].term else {
                break;
            };
            let ti = t.0 as usize;
            if ti == bi || pred_count[ti] != 1 {
                break;
            }
            let absorbed = std::mem::replace(
                &mut k.blocks[ti],
                Block {
                    insts: vec![],
                    term: Terminator::Ret,
                },
            );
            // `ti` is now an orphan Ret block; unreachable-removal will
            // drop it (its pred count goes to zero).
            pred_count[ti] = 0;
            k.blocks[bi].insts.extend(absorbed.insts);
            k.blocks[bi].term = absorbed.term;
            changed = true;
            stats.blocks_removed += 1;
        }
    }
    changed
}

/// Drops blocks unreachable from the entry (remapping ids).
fn remove_unreachable(k: &mut KernelIr, stats: &mut OptStats) -> bool {
    let reachable = k.rpo();
    if reachable.len() == k.blocks.len() {
        return false;
    }
    let mut keep = vec![false; k.blocks.len()];
    for b in &reachable {
        keep[b.0 as usize] = true;
    }
    let mut remap = vec![BlockId(0); k.blocks.len()];
    let mut new_blocks = Vec::with_capacity(reachable.len());
    for (old, b) in k.blocks.iter().enumerate() {
        if keep[old] {
            remap[old] = BlockId(new_blocks.len() as u32);
            new_blocks.push(b.clone());
        }
    }
    for b in &mut new_blocks {
        match &mut b.term {
            Terminator::Jmp(t) => *t = remap[t.0 as usize],
            Terminator::Br { then, els, .. } => {
                *then = remap[then.0 as usize];
                *els = remap[els.0 as usize];
            }
            Terminator::Ret => {}
        }
    }
    stats.blocks_removed += k.blocks.len() - new_blocks.len();
    k.blocks = new_blocks;
    true
}

/// Removes pure instructions whose results are never read.
fn dce(k: &mut KernelIr, stats: &mut OptStats) -> bool {
    let mut used = vec![false; k.nregs as usize];
    let mark = |op: &Operand, used: &mut Vec<bool>| {
        if let Operand::Reg(r) = op {
            if (r.0 as usize) < used.len() {
                used[r.0 as usize] = true;
            }
        }
    };
    for b in &k.blocks {
        for inst in &b.insts {
            for op in inst.operands() {
                mark(&op, &mut used);
            }
        }
        if let Terminator::Br { cond, .. } = &b.term {
            mark(cond, &mut used);
        }
    }
    let mut changed = false;
    for b in &mut k.blocks {
        let before = b.insts.len();
        b.insts.retain(|inst| {
            if inst.has_effect() {
                return true;
            }
            let dsts = inst.dsts();
            if dsts.is_empty() {
                return true;
            }
            dsts.iter().any(|d| used[d.0 as usize])
        });
        let removed = before - b.insts.len();
        if removed > 0 {
            stats.dce_removed += removed;
            changed = true;
        }
    }
    changed
}

// ---------------------------------------------------------------------
// Conformance checking
// ---------------------------------------------------------------------

/// A conformance violation: the program cannot be mapped to a PISA
/// switch (paper Fig. 6, "Conformance / Reject").
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ConformanceError {
    /// A kernel retains a CFG cycle after unrolling.
    LoopNotUnrolled {
        /// Offending kernel.
        kernel: String,
        /// Kernel definition site.
        span: Span,
    },
    /// A kernel accesses a register array placed elsewhere.
    NotPlacedHere {
        /// Offending kernel.
        kernel: String,
        /// The state's name.
        what: String,
        /// Declaration site of the misplaced state.
        span: Span,
    },
    /// A kernel's compile mask does not match its parameter count.
    MaskArity {
        /// Offending kernel.
        kernel: String,
        /// Mask entries.
        mask: usize,
        /// Window-data parameters.
        params: usize,
        /// Kernel definition site.
        span: Span,
    },
    /// An incoming kernel appears in a switch module.
    IncomingOnSwitch {
        /// Offending kernel.
        kernel: String,
        /// Kernel definition site.
        span: Span,
    },
}

impl ConformanceError {
    /// The source span the error anchors to (the kernel definition, or
    /// the misplaced declaration for [`ConformanceError::NotPlacedHere`]).
    pub fn span(&self) -> Span {
        match self {
            ConformanceError::LoopNotUnrolled { span, .. }
            | ConformanceError::NotPlacedHere { span, .. }
            | ConformanceError::MaskArity { span, .. }
            | ConformanceError::IncomingOnSwitch { span, .. } => *span,
        }
    }

    /// The offending kernel's name.
    pub fn kernel(&self) -> &str {
        match self {
            ConformanceError::LoopNotUnrolled { kernel, .. }
            | ConformanceError::NotPlacedHere { kernel, .. }
            | ConformanceError::MaskArity { kernel, .. }
            | ConformanceError::IncomingOnSwitch { kernel, .. } => kernel,
        }
    }

    /// Converts to a renderable [`Diagnostic`] anchored in `file`
    /// (normally [`Module::file`]).
    pub fn to_diagnostic(&self, file: &str) -> Diagnostic {
        Diagnostic::error(self.to_string(), self.span(), file)
    }
}

impl std::fmt::Display for ConformanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConformanceError::LoopNotUnrolled { kernel, .. } => write!(
                f,
                "kernel '{kernel}': loop has no provably constant trip count \
                 (PISA pipelines cannot loop)"
            ),
            ConformanceError::NotPlacedHere { kernel, what, .. } => write!(
                f,
                "kernel '{kernel}' accesses '{what}', which is not placed at this location"
            ),
            ConformanceError::MaskArity {
                kernel,
                mask,
                params,
                ..
            } => write!(
                f,
                "kernel '{kernel}': mask has {mask} entries but the kernel \
                 takes {params} window arrays"
            ),
            ConformanceError::IncomingOnSwitch { kernel, .. } => write!(
                f,
                "incoming kernel '{kernel}' cannot be compiled for a switch"
            ),
        }
    }
}

impl std::error::Error for ConformanceError {}

/// Checks that every *outgoing* kernel of the module can map to a PISA
/// pipeline at the module's location. Call after [`optimize`] (and after
/// versioning for placed modules).
pub fn conformance(module: &Module) -> Vec<ConformanceError> {
    let mut errors = Vec::new();
    for k in &module.kernels {
        if k.kind != KernelKind::Outgoing {
            // Versioning strips incoming kernels from switch modules;
            // seeing one here means the module was handed to the switch
            // backend without versioning.
            errors.push(ConformanceError::IncomingOnSwitch {
                kernel: k.name.clone(),
                span: k.span,
            });
            continue;
        }
        if !module.placed_here(&k.at) {
            continue; // not compiled for this switch
        }
        if k.has_loop() {
            errors.push(ConformanceError::LoopNotUnrolled {
                kernel: k.name.clone(),
                span: k.span,
            });
        }
        if !k.mask.is_empty() {
            let params = k.params.iter().filter(|p| !p.ext).count();
            if k.mask.len() != params {
                errors.push(ConformanceError::MaskArity {
                    kernel: k.name.clone(),
                    mask: k.mask.len(),
                    params,
                    span: k.span,
                });
            }
        }
        // Placement of touched state.
        for b in &k.blocks {
            for inst in &b.insts {
                match inst {
                    Inst::LdReg { arr, .. } | Inst::StReg { arr, .. } => {
                        let decl = &module.registers[arr.0 as usize];
                        if !module.placed_here(&decl.at) {
                            errors.push(ConformanceError::NotPlacedHere {
                                kernel: k.name.clone(),
                                what: decl.name.clone(),
                                span: decl.span,
                            });
                        }
                    }
                    Inst::LdCtrl { ctrl, .. } => {
                        let decl = &module.ctrls[ctrl.0 as usize];
                        if !module.placed_here(&decl.at) {
                            errors.push(ConformanceError::NotPlacedHere {
                                kernel: k.name.clone(),
                                what: decl.name.clone(),
                                span: decl.span,
                            });
                        }
                    }
                    Inst::MapGet { map, .. } => {
                        let decl = &module.maps[map.0 as usize];
                        if !module.placed_here(&decl.at) {
                            errors.push(ConformanceError::NotPlacedHere {
                                kernel: k.name.clone(),
                                what: decl.name.clone(),
                                span: decl.span,
                            });
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    errors.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    errors.dedup();
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::{lower, LoweringConfig};
    use ncl_lang::frontend;

    fn build(src: &str, kernel: &str, mask: &[u16]) -> Module {
        let checked = frontend(src, "t.ncl").expect("frontend");
        lower(&checked, &LoweringConfig::with_mask(kernel, mask.to_vec())).expect("lower")
    }

    #[test]
    fn fold_and_dce_shrink_fig4() {
        let src = r#"
_net_ _at_("s1") int accum[16] = {0};
_net_ _out_ void k(int *data) {
    unsigned base = window.seq * window.len;
    for (unsigned i = 0; i < window.len; ++i)
        accum[base + i] += data[i];
    _drop();
}
"#;
        let mut m = build(src, "k", &[4]);
        let before = m.kernel("k").unwrap().inst_count();
        let stats = optimize(&mut m);
        let after = m.kernel("k").unwrap().inst_count();
        assert!(
            after < before,
            "optimize should shrink ({before} -> {after})"
        );
        assert!(stats.folded > 0 || stats.dce_removed > 0);
        assert!(conformance(&m).is_empty());
    }

    #[test]
    fn constant_branch_collapses() {
        let src =
            "_net_ _out_ void k(int *d) { int c = 3; if (c > 1) { d[0] = 1; } else { d[0] = 2; } }";
        let mut m = build(src, "k", &[1]);
        optimize(&mut m);
        let k = m.kernel("k").unwrap();
        assert_eq!(k.blocks.len(), 1, "{k}");
        assert!(k.blocks[0].insts.iter().any(|i| matches!(
            i,
            Inst::StWin {
                val: Operand::Const(v),
                ..
            } if v.bits() == 1
        )));
    }

    #[test]
    fn copy_chains_collapse() {
        let src = "_net_ _out_ void k(int *d) { int a = 5; int b = a; int c = b; d[0] = c; }";
        let mut m = build(src, "k", &[1]);
        optimize(&mut m);
        let k = m.kernel("k").unwrap();
        // Everything folds into a single constant store.
        assert_eq!(k.inst_count(), 1, "{k}");
    }

    #[test]
    fn effects_never_removed() {
        let src = r#"
_net_ _at_("s1") int acc[4];
_net_ _out_ void k(int *d) { acc[0] = 1; _drop(); }
"#;
        let mut m = build(src, "k", &[1]);
        optimize(&mut m);
        let k = m.kernel("k").unwrap();
        assert!(k.blocks[0]
            .insts
            .iter()
            .any(|i| matches!(i, Inst::StReg { .. })));
        assert!(k.blocks[0]
            .insts
            .iter()
            .any(|i| matches!(i, Inst::Fwd { .. })));
    }

    #[test]
    fn multi_def_regs_not_propagated() {
        // `x` is assigned in both branches; its uses must not collapse to
        // either constant.
        let src = "_net_ _out_ void k(int *d) {\n\
                     int x = 0;\n\
                     if (d[0] > 0) { x = 1; } else { x = 2; }\n\
                     d[0] = x;\n\
                   }";
        let mut m = build(src, "k", &[1]);
        optimize(&mut m);
        let k = m.kernel("k").unwrap();
        // The final store must read a register, not a constant.
        let store_const = k.blocks.iter().flat_map(|b| &b.insts).any(|i| {
            matches!(
                i,
                Inst::StWin {
                    val: Operand::Const(_),
                    ..
                }
            )
        });
        assert!(!store_const, "{k}");
    }

    #[test]
    fn conformance_rejects_loops() {
        let src = "_net_ _out_ void k(int *d) { while (d[0] > 0) { d[0] -= 1; } }";
        let mut m = build(src, "k", &[1]);
        optimize(&mut m);
        let errs = conformance(&m);
        assert!(matches!(
            errs.first(),
            Some(ConformanceError::LoopNotUnrolled { .. })
        ));
    }

    #[test]
    fn conformance_rejects_misplaced_state() {
        let src = r#"
_net_ _at_("s2") int acc[4];
_net_ _out_ void k(int *d) { acc[0] += d[0]; }
"#;
        let mut m = build(src, "k", &[1]);
        optimize(&mut m);
        m.location = Some(c3::Label::new("s1"));
        let errs = conformance(&m);
        assert!(
            matches!(errs.first(), Some(ConformanceError::NotPlacedHere { what, .. }) if what == "acc"),
            "{errs:?}"
        );
    }

    #[test]
    fn conformance_passes_clean_kernel() {
        let src = r#"
_net_ _at_("s1") int acc[4];
_net_ _out_ void k(int *d) { acc[0] += d[0]; _drop(); }
"#;
        let mut m = build(src, "k", &[1]);
        optimize(&mut m);
        m.location = Some(c3::Label::new("s1"));
        assert!(conformance(&m).is_empty());
    }

    #[test]
    fn dominators_diamond() {
        let src = "_net_ _out_ void k(int *d) { if (d[0] > 0) { d[0] = 1; } else { d[0] = 2; } d[1] = 3; }";
        let m = build(src, "k", &[2]);
        let k = m.kernel("k").unwrap();
        let idom = dominators(k);
        // Entry dominates everything; join's idom is the entry.
        assert_eq!(idom[0], Some(BlockId(0)));
        let join = BlockId((k.blocks.len() - 1) as u32);
        assert_eq!(idom[join.0 as usize], Some(BlockId(0)));
    }

    #[test]
    fn optimize_is_idempotent() {
        let src = r#"
_net_ _at_("s1") int accum[16] = {0};
_net_ _out_ void k(int *data) {
    for (unsigned i = 0; i < window.len; ++i) accum[i] += data[i];
}
"#;
        let mut m = build(src, "k", &[4]);
        optimize(&mut m);
        let snapshot = m.clone();
        optimize(&mut m);
        assert_eq!(m, snapshot);
    }
}
