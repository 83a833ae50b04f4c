//! nclint — IR-level static analysis for switch-state safety.
//!
//! The paper's conformance stage (Fig. 6) rejects programs that cannot
//! be *mapped* to a PISA pipeline; this module rejects programs that
//! map fine but *misbehave* once concurrent windows, packet
//! interleaving, or NCP-R retransmissions enter the picture — the
//! semantic bug classes "Verifying In-Network Computing Systems for
//! Design Risks" found dominating real INC deployments. Three analyses
//! run over every outgoing kernel of a module:
//!
//! * **Switch-state hazards** ([`LintCode::NonAtomicRmw`],
//!   [`LintCode::CrossKernelAlias`]) — a read-modify-write chain on a
//!   `_net_` register array is atomic on RMT chips only when every
//!   access to the bank fuses into one stateful-ALU stage. A store
//!   whose value or reachability depends on a *different* array (or on
//!   a map lookup between the read and the write) spans stages, and a
//!   window arriving between the stages observes — and clobbers —
//!   intermediate state. Two kernels sharing a writable array at one
//!   location interleave the same way. The per-array update behaviour
//!   is classified on a small lattice (see [`UpdateKind`]); see
//!   DESIGN.md §4.8 for the full lattice.
//! * **Replay safety** ([`LintCode::ReplayUnsafe`],
//!   [`LintCode::ReplayUnsafeNoFilter`]) — NCP-R retransmits windows,
//!   so every `_net_` update must be *idempotent* (same window twice →
//!   same state), *replay-guarded* (control-dominated by the
//!   `window.replay == false` edge of a PR-2 replay filter), or it is
//!   unsafe under retransmission. With a replay filter configured the
//!   kernel claims exactly-once effects, so an unsafe update is a hard
//!   error; without one it is a warning (plain NCP never retransmits).
//! * **Value ranges** ([`LintCode::UnguardedOverflow`]) — 32-bit
//!   accumulators that grow monotonically with no reset guarded by
//!   their own value wrap silently at 2³².
//!
//! Findings surface as [`LintDiagnostic`]s carrying the declaration /
//! kernel spans threaded through lowering, so `nclc` renders them with
//! file:line carets like any frontend error.

use crate::ir::*;
use crate::passes::dominators;
use c3::{BinOp, ScalarType, UnOp};
use ncl_lang::ast::KernelKind;
use ncl_lang::diag::{Diagnostic, Severity, Span};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Stable identifier of a lint check (the `--lint allow=<code>` key).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum LintCode {
    /// A register-array RMW chain cannot fuse into one stateful-ALU
    /// stage (cross-array dependency, map lookup on the read→write
    /// path, or micro-op budget overflow) and is therefore non-atomic
    /// under packet interleaving.
    NonAtomicRmw,
    /// Two kernels at the same location write a shared register array
    /// with at least one non-commutative update.
    CrossKernelAlias,
    /// A state update is neither idempotent nor replay-guarded while a
    /// replay filter is configured (exactly-once is claimed but not
    /// honoured).
    ReplayUnsafe,
    /// A state update would corrupt state under retransmission, but no
    /// replay filter is configured for the kernel.
    ReplayUnsafeNoFilter,
    /// A 32-bit accumulator grows without a value-guarded reset or
    /// mask; it wraps silently at 2³².
    UnguardedOverflow,
    /// The pipeline built for the switch exceeds the chip model
    /// (stages, ops, tables, SRAM, TCAM, PHV, or stateful micro-ops).
    /// `nclc` builds before the lint verdict and reports every violation
    /// of the build's resource report under this code.
    ResourceOverrun,
}

impl LintCode {
    /// All codes, for CLI help and exhaustive tests.
    pub const ALL: &'static [LintCode] = &[
        LintCode::NonAtomicRmw,
        LintCode::CrossKernelAlias,
        LintCode::ReplayUnsafe,
        LintCode::ReplayUnsafeNoFilter,
        LintCode::UnguardedOverflow,
        LintCode::ResourceOverrun,
    ];

    /// The kebab-case name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            LintCode::NonAtomicRmw => "non-atomic-rmw",
            LintCode::CrossKernelAlias => "cross-kernel-alias",
            LintCode::ReplayUnsafe => "replay-unsafe",
            LintCode::ReplayUnsafeNoFilter => "replay-unsafe-no-filter",
            LintCode::UnguardedOverflow => "unguarded-overflow",
            LintCode::ResourceOverrun => "resource-overrun",
        }
    }

    /// Parses a kebab-case code name.
    pub fn parse(s: &str) -> Option<LintCode> {
        LintCode::ALL.iter().copied().find(|c| c.name() == s)
    }

    /// Deny-by-default severity of the code.
    pub fn default_level(self) -> LintLevel {
        match self {
            LintCode::NonAtomicRmw | LintCode::CrossKernelAlias | LintCode::ReplayUnsafe => {
                LintLevel::Deny
            }
            LintCode::ReplayUnsafeNoFilter
            | LintCode::UnguardedOverflow
            | LintCode::ResourceOverrun => LintLevel::Warn,
        }
    }

    /// Whether the hazard this code describes manifests as a packet
    /// *schedule* — a loss/dup/reorder/interleave pattern the ncmc
    /// bounded model checker can search for. Every checkable verdict
    /// gets a machine-found counterexample or a bounded-absence
    /// certificate; `resource-overrun` is a mapping-feasibility finding
    /// with no execution semantics, so there is nothing to schedule.
    pub fn schedule_checkable(self) -> bool {
        !matches!(self, LintCode::ResourceOverrun)
    }
}

impl std::fmt::Display for LintCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What happens when a lint fires.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LintLevel {
    /// Suppressed entirely.
    Allow,
    /// Reported, compilation proceeds.
    Warn,
    /// Reported, compilation fails.
    Deny,
}

/// Configuration for a lint run.
#[derive(Clone, Debug, Default)]
pub struct LintConfig {
    /// Per-code level overrides (`--lint allow=...` / `warn=` / `deny=`).
    pub levels: BTreeMap<LintCode, LintLevel>,
    /// Kernels with an NCP-R replay filter configured (exactly-once
    /// switch effects are claimed for these).
    pub replay_filtered: BTreeSet<String>,
    /// Stateful micro-ops one fused RegisterAction may issue per pass
    /// (mirror of `pisa::ResourceModel::reg_accesses_per_pass`).
    pub reg_accesses_per_pass: usize,
}

impl LintConfig {
    /// Default config against a given stateful micro-op budget.
    pub fn with_budget(reg_accesses_per_pass: usize) -> Self {
        LintConfig {
            reg_accesses_per_pass,
            ..LintConfig::default()
        }
    }

    /// The effective level for a code.
    pub fn level(&self, code: LintCode) -> LintLevel {
        self.levels
            .get(&code)
            .copied()
            .unwrap_or_else(|| code.default_level())
    }
}

/// One lint finding, with enough structure for tooling to act on it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LintDiagnostic {
    /// Which check fired.
    pub code: LintCode,
    /// Resolved level (config applied).
    pub level: LintLevel,
    /// The kernel the finding is about.
    pub kernel: String,
    /// The state (register array) involved, when there is one.
    pub state: Option<String>,
    /// Human-readable explanation.
    pub message: String,
    /// Source anchor (kernel or declaration span).
    pub span: Span,
    /// Source file ([`Module::file`]).
    pub file: String,
}

impl LintDiagnostic {
    /// Whether this finding fails compilation.
    pub fn is_deny(&self) -> bool {
        self.level == LintLevel::Deny
    }

    /// Whether the ncmc model checker can adjudicate this finding with
    /// a concrete schedule (witness or bounded-absence certificate).
    pub fn schedule_checkable(&self) -> bool {
        self.code.schedule_checkable()
    }

    /// Converts to a renderable frontend diagnostic.
    pub fn to_diagnostic(&self) -> Diagnostic {
        Diagnostic {
            severity: match self.level {
                LintLevel::Deny => Severity::Error,
                _ => Severity::Warning,
            },
            message: format!("[{}] {}", self.code, self.message),
            span: self.span,
            file: self.file.clone(),
        }
    }
}

impl std::fmt::Display for LintDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_diagnostic())
    }
}

/// How a kernel updates one register array, on the hazard lattice
/// (DESIGN.md §4.8). Order matters: later variants are more hazardous.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum UpdateKind {
    /// Loads only.
    ReadOnly,
    /// Stores whose value/index never depend on switch state: replaying
    /// or reordering windows converges (last-writer-wins per cell).
    Overwrite,
    /// `a[i] op= e` with `op` commutative-associative and `e` state-free:
    /// safe under interleaving (any order sums the same) but not under
    /// replay.
    CommutativeRmw,
    /// A conditional reset/write of the array guarded by a comparison
    /// of the array's own value (the `++c == n → c = 0` counter
    /// pattern): atomic once fused into one stateful-ALU stage.
    GuardedReset,
    /// Anything else: order- and interleaving-sensitive.
    OrderSensitive,
}

/// Per-(kernel, array) access summary, exposed for tests and tooling.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ArrayAccess {
    /// The kernel.
    pub kernel: String,
    /// The array name.
    pub array: String,
    /// Update classification.
    pub kind: UpdateKind,
    /// Whether any store is reachable on a path where the replay filter
    /// did not prove "first delivery" (i.e. not replay-guarded) and is
    /// not idempotent.
    pub replay_unsafe: bool,
    /// Stateful micro-ops (loads + stores) the kernel issues against
    /// the hottest *lane* of the array — accesses at distinct index
    /// expressions land in distinct banks after lane splitting, so only
    /// same-lane accesses compete for one RegisterAction pass.
    pub accesses: usize,
}

/// Runs every analysis over the module's outgoing kernels and returns
/// the findings (all levels; the caller filters `Allow`).
pub fn lint_module(module: &Module, cfg: &LintConfig) -> Vec<LintDiagnostic> {
    let mut out = Vec::new();
    let mut summaries: Vec<KernelSummary> = Vec::new();
    for k in &module.kernels {
        if k.kind != KernelKind::Outgoing || !module.placed_here(&k.at) {
            continue;
        }
        let s = summarize_kernel(module, k, cfg);
        hazard_findings(module, &s, cfg, &mut out);
        replay_findings(module, &s, cfg, &mut out);
        overflow_findings(module, &s, cfg, &mut out);
        summaries.push(s);
    }
    alias_findings(module, &summaries, cfg, &mut out);
    out.retain(|d| d.level != LintLevel::Allow);
    out.sort_by(|a, b| {
        (a.kernel.as_str(), a.code, &a.state).cmp(&(b.kernel.as_str(), b.code, &b.state))
    });
    out.dedup();
    out
}

/// Convenience: the per-array access summaries the hazard analysis
/// computes (used by witness tests to pin classifications).
pub fn access_summary(module: &Module, cfg: &LintConfig) -> Vec<ArrayAccess> {
    let mut out = Vec::new();
    for k in &module.kernels {
        if k.kind != KernelKind::Outgoing || !module.placed_here(&k.at) {
            continue;
        }
        let s = summarize_kernel(module, k, cfg);
        for (_arr, a) in s.arrays {
            out.push(a);
        }
    }
    out
}

// ---------------------------------------------------------------------
// Kernel summaries
// ---------------------------------------------------------------------

/// Dataflow facts about one store instruction.
#[derive(Clone, Debug)]
struct StoreFact {
    block: BlockId,
    /// Arrays the stored value / index transitively read.
    val_deps: BTreeSet<u32>,
    /// Arrays the store's *reachability* (branch conditions on the path
    /// from the entry) depends on.
    guard_deps: BTreeSet<u32>,
    /// A map lookup sits on the value/index dependency path.
    mapget_on_path: bool,
    /// Stored value is `Ld(self) ⊕ state-free` for a commutative ⊕.
    commutative: bool,
    /// Value and index are free of any register-array reads.
    state_free: bool,
    /// Guard condition reads the stored array itself.
    self_guarded: bool,
}

struct ArrayFacts {
    loads: usize,
    stores: Vec<StoreFact>,
    /// Accesses grouped by canonical index form (see [`LaneKey`]): the
    /// backend's lane splitting gives each distinct lane its own bank,
    /// so micro-op budgets apply per lane, not per array.
    lane_accesses: BTreeMap<LaneKey, usize>,
}

/// Canonical form of a register-array index for lane grouping. Mirrors
/// the affine pattern `ncl-p4::lanes` recognizes (`base + k` with a
/// shared dynamic base, or distinct constants): accesses with different
/// keys end up in different physical banks after splitting. Accesses
/// the backend cannot split share a key only when they share a base
/// register, so this under-approximates per-bank pressure — the
/// backend's resource report re-checks exactly on the built pipeline.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum LaneKey {
    /// Constant element index.
    Const(u64),
    /// `base_vreg + offset`.
    Dyn(u32, u64),
}

fn lane_key(index: &Operand, defs: &HashMap<RegId, Option<&Inst>>) -> LaneKey {
    match index {
        Operand::Const(v) => LaneKey::Const(v.bits()),
        Operand::Reg(r) => match defs.get(r).copied().flatten() {
            Some(Inst::Bin {
                op: BinOp::Add,
                a,
                b,
                ..
            }) => match (a, b) {
                (Operand::Reg(base), Operand::Const(k))
                | (Operand::Const(k), Operand::Reg(base)) => LaneKey::Dyn(base.0, k.bits()),
                _ => LaneKey::Dyn(r.0, 0),
            },
            Some(Inst::Copy {
                a: Operand::Const(v),
                ..
            }) => LaneKey::Const(v.bits()),
            _ => LaneKey::Dyn(r.0, 0),
        },
    }
}

struct KernelSummary {
    name: String,
    span: Span,
    /// ArrId → facts (synthetic `__nclr_*` arrays excluded).
    facts: BTreeMap<u32, ArrayFacts>,
    /// ArrId → public summary.
    arrays: BTreeMap<u32, ArrayAccess>,
    /// Per-block replay state (see [`ReplayState`]).
    replay: Vec<ReplayState>,
}

/// Whether a block executes only on first delivery, only on replay, or
/// either.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ReplayState {
    Unknown,
    /// Reached only when `window.replay` is true.
    Replay,
    /// Reached only when `window.replay` is false (first delivery).
    FirstDelivery,
}

fn meet(a: Option<ReplayState>, b: ReplayState) -> ReplayState {
    match a {
        None => b,
        Some(x) if x == b => b,
        Some(_) => ReplayState::Unknown,
    }
}

/// Registers holding the replay flag (or its negation). `true` in the
/// map means "register is true ⇔ window is a replay".
fn replay_flags(module: &Module, k: &KernelIr) -> HashMap<RegId, bool> {
    // Single-definition map over the whole kernel.
    let mut defs: HashMap<RegId, Option<&Inst>> = HashMap::new();
    for b in &k.blocks {
        for inst in &b.insts {
            for d in inst.dsts() {
                defs.entry(d)
                    .and_modify(|e| *e = None) // multi-def: give up
                    .or_insert(Some(inst));
            }
        }
    }
    let single = |r: RegId| defs.get(&r).copied().flatten();
    // Seed: registers loaded from a `__nclr_seen_*` array.
    let is_seen_load = |r: RegId| -> bool {
        matches!(
            single(r),
            Some(Inst::LdReg { arr, .. })
                if module.registers[arr.0 as usize]
                    .name
                    .starts_with(c3::ncpr::REPLAY_SEEN_PREFIX)
        )
    };
    let mut flags: HashMap<RegId, bool> = HashMap::new();
    // Iterate to propagate through Copy / Not chains.
    let mut changed = true;
    while changed {
        changed = false;
        for b in &k.blocks {
            for inst in &b.insts {
                let derived: Option<(RegId, bool)> = match inst {
                    Inst::Bin { dst, op, a, b } if matches!(*op, BinOp::Ne | BinOp::Eq) => {
                        // `seen != 0` (replay) / `seen == 0` (first).
                        let mut found = None;
                        for (x, y) in [(a, b), (b, a)] {
                            if let (Operand::Reg(r), Some(v)) = (x, y.as_const()) {
                                if v.bits() == 0 && is_seen_load(*r) {
                                    found = Some((*dst, *op == BinOp::Ne));
                                }
                            }
                        }
                        found
                    }
                    Inst::Copy {
                        dst,
                        a: Operand::Reg(r),
                    } => flags.get(r).map(|p| (*dst, *p)),
                    Inst::Un {
                        dst,
                        op: UnOp::Not,
                        a: Operand::Reg(r),
                    } => flags.get(r).map(|p| (*dst, !*p)),
                    _ => None,
                };
                if let Some((dst, polarity)) = derived {
                    // Only trust single-def registers as stable flags.
                    if single(dst).is_some() && flags.insert(dst, polarity) != Some(polarity) {
                        changed = true;
                    }
                }
            }
        }
    }
    flags
}

/// Forward dataflow over the CFG computing each block's replay state.
fn replay_states(k: &KernelIr, flags: &HashMap<RegId, bool>) -> Vec<ReplayState> {
    let n = k.blocks.len();
    let mut state = vec![ReplayState::Unknown; n];
    if flags.is_empty() {
        return state;
    }
    let rpo = k.rpo();
    // Edge refinements from branches on a replay flag.
    for _ in 0..n + 1 {
        let mut incoming: Vec<Option<ReplayState>> = vec![None; n];
        incoming[rpo[0].0 as usize] = Some(ReplayState::Unknown);
        for &b in &rpo {
            let cur = match incoming[b.0 as usize] {
                Some(s) => s,
                None => state[b.0 as usize],
            };
            match &k.blocks[b.0 as usize].term {
                Terminator::Br {
                    cond: Operand::Reg(c),
                    then,
                    els,
                } if flags.contains_key(c) => {
                    let replay_then = flags[c]; // true-edge means replay?
                    let (t_state, e_state) = if replay_then {
                        (ReplayState::Replay, ReplayState::FirstDelivery)
                    } else {
                        (ReplayState::FirstDelivery, ReplayState::Replay)
                    };
                    // Refine with the branch; a block already known to
                    // be on one side stays there.
                    let refine = |edge: ReplayState| {
                        if cur == ReplayState::Unknown {
                            edge
                        } else {
                            cur
                        }
                    };
                    incoming[then.0 as usize] =
                        Some(meet(incoming[then.0 as usize], refine(t_state)));
                    incoming[els.0 as usize] =
                        Some(meet(incoming[els.0 as usize], refine(e_state)));
                }
                t => {
                    for s in t.successors() {
                        incoming[s.0 as usize] = Some(meet(incoming[s.0 as usize], cur));
                    }
                }
            }
        }
        let next: Vec<ReplayState> = (0..n)
            .map(|i| incoming[i].unwrap_or(ReplayState::Unknown))
            .collect();
        if next == state {
            break;
        }
        state = next;
    }
    state
}

fn summarize_kernel(module: &Module, k: &KernelIr, _cfg: &LintConfig) -> KernelSummary {
    let flags = replay_flags(module, k);
    let replay = replay_states(k, &flags);
    let synthetic = |arr: ArrId| {
        let n = &module.registers[arr.0 as usize].name;
        n.starts_with(c3::ncpr::REPLAY_SEEN_PREFIX) || n.starts_with(c3::ncpr::REPLAY_DUPS_PREFIX)
    };

    // Transitive register-array dependencies of each vreg, plus whether
    // a map lookup contributes. Fixpoint over all defs (non-SSA).
    let nregs = k.nregs as usize;
    let mut reg_deps: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); nregs];
    let mut reg_map: Vec<bool> = vec![false; nregs];
    let mut changed = true;
    while changed {
        changed = false;
        for b in &k.blocks {
            for inst in &b.insts {
                let mut deps: BTreeSet<u32> = BTreeSet::new();
                let mut viamap = false;
                for o in inst.operands() {
                    if let Operand::Reg(r) = o {
                        deps.extend(reg_deps[r.0 as usize].iter().copied());
                        viamap |= reg_map[r.0 as usize];
                    }
                }
                if let Inst::LdReg { arr, .. } = inst {
                    if !synthetic(*arr) {
                        deps.insert(arr.0);
                    }
                }
                if matches!(inst, Inst::MapGet { .. }) {
                    viamap = true;
                }
                for d in inst.dsts() {
                    let slot = &mut reg_deps[d.0 as usize];
                    let before = slot.len();
                    slot.extend(deps.iter().copied());
                    if slot.len() != before {
                        changed = true;
                    }
                    if viamap && !reg_map[d.0 as usize] {
                        reg_map[d.0 as usize] = true;
                        changed = true;
                    }
                }
            }
        }
    }
    let operand_deps = |o: &Operand| -> (BTreeSet<u32>, bool) {
        match o {
            Operand::Reg(r) => (reg_deps[r.0 as usize].clone(), reg_map[r.0 as usize]),
            Operand::Const(_) => (BTreeSet::new(), false),
        }
    };

    // Branch conditions controlling each block: union of arrays read by
    // conditions on any entry path. Approximated via dominators — a
    // block inherits the guard deps of its immediate dominator plus the
    // dominator's branch condition if the dominator branches.
    let idom = dominators(k);
    let rpo = k.rpo();
    let mut guard_deps: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); k.blocks.len()];
    for &b in &rpo {
        if b.0 == 0 {
            continue;
        }
        if let Some(d) = idom[b.0 as usize] {
            let mut deps = guard_deps[d.0 as usize].clone();
            if let Terminator::Br {
                cond: Operand::Reg(c),
                ..
            } = &k.blocks[d.0 as usize].term
            {
                deps.extend(reg_deps[c.0 as usize].iter().copied());
            }
            guard_deps[b.0 as usize] = deps;
        }
    }

    // Single-def map for canonicalizing index expressions (non-SSA:
    // multiply-defined vregs map to None).
    let mut defs: HashMap<RegId, Option<&Inst>> = HashMap::new();
    for b in &k.blocks {
        for inst in &b.insts {
            for d in inst.dsts() {
                defs.entry(d)
                    .and_modify(|e| *e = None)
                    .or_insert(Some(inst));
            }
        }
    }

    // Collect per-array facts.
    let mut facts: BTreeMap<u32, ArrayFacts> = BTreeMap::new();
    for (bi, b) in k.blocks.iter().enumerate() {
        for inst in &b.insts {
            match inst {
                Inst::LdReg { arr, index, .. } if !synthetic(*arr) => {
                    let f = facts.entry(arr.0).or_insert_with(|| ArrayFacts {
                        loads: 0,
                        stores: Vec::new(),
                        lane_accesses: BTreeMap::new(),
                    });
                    f.loads += 1;
                    *f.lane_accesses.entry(lane_key(index, &defs)).or_default() += 1;
                }
                Inst::StReg { arr, index, val } if !synthetic(*arr) => {
                    let (vd, vm) = operand_deps(val);
                    let (id, im) = operand_deps(index);
                    let mut val_deps = vd;
                    val_deps.extend(id.iter().copied());
                    let state_free = val_deps.is_empty();
                    let commutative = is_commutative_rmw(&defs, arr.0, val, &reg_deps);
                    let gd = &guard_deps[bi];
                    let f = facts.entry(arr.0).or_insert_with(|| ArrayFacts {
                        loads: 0,
                        stores: Vec::new(),
                        lane_accesses: BTreeMap::new(),
                    });
                    *f.lane_accesses.entry(lane_key(index, &defs)).or_default() += 1;
                    f.stores.push(StoreFact {
                        block: BlockId(bi as u32),
                        val_deps,
                        guard_deps: gd.clone(),
                        mapget_on_path: vm || im,
                        commutative,
                        state_free,
                        self_guarded: gd.contains(&arr.0),
                    });
                }
                _ => {}
            }
        }
    }

    // Classify each array on the lattice.
    let mut arrays = BTreeMap::new();
    for (arr, f) in &facts {
        let name = module.registers[*arr as usize].name.clone();
        let mut kind = UpdateKind::ReadOnly;
        for s in &f.stores {
            kind = kind.max(classify_store(*arr, s));
        }
        let accesses = f.lane_accesses.values().copied().max().unwrap_or(0);
        let replay_unsafe = f.stores.iter().any(|s| {
            !store_idempotent(*arr, s) && replay[s.block.0 as usize] != ReplayState::FirstDelivery
        });
        arrays.insert(
            *arr,
            ArrayAccess {
                kernel: k.name.clone(),
                array: name,
                kind,
                replay_unsafe,
                accesses,
            },
        );
    }

    KernelSummary {
        name: k.name.clone(),
        span: k.span,
        facts,
        arrays,
        replay,
    }
}

/// `val` computes `Ld(arr) ⊕ state-free-expr` for a commutative-
/// associative ⊕ (possibly through a chain of such ops).
/// `defs` is the kernel's single-def map; the walk starts at the stored
/// value.
fn is_commutative_rmw(
    defs: &HashMap<RegId, Option<&Inst>>,
    arr: u32,
    val: &Operand,
    reg_deps: &[BTreeSet<u32>],
) -> bool {
    fn walk(
        r: RegId,
        arr: u32,
        defs: &HashMap<RegId, Option<&Inst>>,
        reg_deps: &[BTreeSet<u32>],
        depth: usize,
    ) -> bool {
        if depth > 16 {
            return false;
        }
        match defs.get(&r).copied().flatten() {
            Some(Inst::LdReg { arr: a, .. }) => a.0 == arr,
            Some(Inst::Bin {
                op: BinOp::Add | BinOp::Or | BinOp::And | BinOp::Xor,
                a,
                b,
                ..
            }) => {
                // One side reaches Ld(arr), the other is state-free.
                let side = |x: &Operand, y: &Operand| {
                    x.as_reg()
                        .map(|r| walk(r, arr, defs, reg_deps, depth + 1))
                        .unwrap_or(false)
                        && y.as_reg()
                            .map(|r| reg_deps[r.0 as usize].is_empty())
                            .unwrap_or(true)
                };
                side(a, b) || side(b, a)
            }
            _ => false,
        }
    }
    val.as_reg()
        .map(|r| walk(r, arr, defs, reg_deps, 0))
        .unwrap_or(false)
}

/// Lattice position of one store.
fn classify_store(arr: u32, s: &StoreFact) -> UpdateKind {
    let depends_on_self = s.val_deps.contains(&arr);
    let depends_on_other =
        s.val_deps.iter().any(|d| *d != arr) || s.guard_deps.iter().any(|d| *d != arr);
    if depends_on_other || (depends_on_self && s.mapget_on_path) {
        return UpdateKind::OrderSensitive;
    }
    if s.state_free && !s.self_guarded {
        return UpdateKind::Overwrite;
    }
    if s.commutative && !s.self_guarded {
        return UpdateKind::CommutativeRmw;
    }
    if s.self_guarded && (s.state_free || s.commutative) {
        // Conditional reset/write guarded by the array's own value —
        // the `++c == n → c = 0` counter pattern, atomic once fused.
        return UpdateKind::GuardedReset;
    }
    UpdateKind::OrderSensitive
}

/// Re-executing the store with identical window input yields the same
/// final state.
fn store_idempotent(arr: u32, s: &StoreFact) -> bool {
    let _ = arr;
    s.state_free && s.guard_deps.is_empty() && !s.mapget_on_path_taints_idempotence()
}

impl StoreFact {
    /// Map lookups are replay-stable (the control plane owns entries),
    /// so a MapGet-derived index does not break idempotence.
    fn mapget_on_path_taints_idempotence(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------
// Findings
// ---------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn push(
    out: &mut Vec<LintDiagnostic>,
    cfg: &LintConfig,
    module: &Module,
    code: LintCode,
    kernel: &str,
    state: Option<String>,
    span: Span,
    message: String,
) {
    out.push(LintDiagnostic {
        code,
        level: cfg.level(code),
        kernel: kernel.to_string(),
        state,
        message,
        span,
        file: module.file.clone(),
    });
}

fn hazard_findings(
    module: &Module,
    s: &KernelSummary,
    cfg: &LintConfig,
    out: &mut Vec<LintDiagnostic>,
) {
    for (arr, f) in &s.facts {
        let decl = &module.registers[*arr as usize];
        let acc = &s.arrays[arr];
        // Multi-stage RMW: store depends on a different array, or on a
        // map lookup between the array's read and write.
        for st in &f.stores {
            let cross: Vec<&str> = st
                .val_deps
                .iter()
                .chain(st.guard_deps.iter())
                .filter(|d| **d != *arr)
                .map(|d| module.registers[*d as usize].name.as_str())
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            if !cross.is_empty() {
                push(
                    out,
                    cfg,
                    module,
                    LintCode::NonAtomicRmw,
                    &s.name,
                    Some(decl.name.clone()),
                    decl.span,
                    format!(
                        "kernel '{}' writes '{}' using the value of '{}': the read and \
                         the write land in different PISA stages, so a window arriving \
                         between them observes intermediate state",
                        s.name,
                        decl.name,
                        cross.join("', '")
                    ),
                );
                break;
            }
            if st.val_deps.contains(arr) && st.mapget_on_path {
                push(
                    out,
                    cfg,
                    module,
                    LintCode::NonAtomicRmw,
                    &s.name,
                    Some(decl.name.clone()),
                    decl.span,
                    format!(
                        "kernel '{}': read-modify-write of '{}' passes through a map \
                         lookup; match tables occupy their own stage, splitting the RMW \
                         across stages (non-atomic under packet interleaving)",
                        s.name, decl.name
                    ),
                );
                break;
            }
        }
        // Micro-op budget: all accesses to one bank must fuse into one
        // stateful-ALU pass.
        if cfg.reg_accesses_per_pass > 0
            && !f.stores.is_empty()
            && acc.accesses > cfg.reg_accesses_per_pass
        {
            push(
                out,
                cfg,
                module,
                LintCode::NonAtomicRmw,
                &s.name,
                Some(decl.name.clone()),
                decl.span,
                format!(
                    "kernel '{}' issues {} stateful micro-ops against one lane of '{}' \
                     but one RegisterAction pass supports {}; the excess spills into \
                     later stages, making the update sequence non-atomic",
                    s.name, acc.accesses, decl.name, cfg.reg_accesses_per_pass
                ),
            );
        }
    }
}

fn alias_findings(
    module: &Module,
    summaries: &[KernelSummary],
    cfg: &LintConfig,
    out: &mut Vec<LintDiagnostic>,
) {
    // arr → kernels writing it (with classification).
    let mut writers: BTreeMap<u32, Vec<(&KernelSummary, UpdateKind)>> = BTreeMap::new();
    for s in summaries {
        for (arr, acc) in &s.arrays {
            if acc.kind > UpdateKind::ReadOnly {
                writers.entry(*arr).or_default().push((s, acc.kind));
            }
        }
    }
    for (arr, ws) in writers {
        if ws.len() < 2 {
            continue;
        }
        let decl = &module.registers[arr as usize];
        // Concurrent writers are fine only when every write commutes
        // (pure commutative RMW from all sides).
        let all_commute = ws.iter().all(|(_, k)| *k == UpdateKind::CommutativeRmw);
        if all_commute {
            continue;
        }
        let names: Vec<&str> = ws.iter().map(|(s, _)| s.name.as_str()).collect();
        for (s, _) in &ws {
            push(
                out,
                cfg,
                module,
                LintCode::CrossKernelAlias,
                &s.name,
                Some(decl.name.clone()),
                decl.span,
                format!(
                    "register array '{}' is written by kernels {} at the same location \
                     with at least one non-commutative update; packets of different \
                     kernels interleave arbitrarily, racing on the shared state",
                    decl.name,
                    names
                        .iter()
                        .map(|n| format!("'{n}'"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            );
        }
    }
}

fn replay_findings(
    module: &Module,
    s: &KernelSummary,
    cfg: &LintConfig,
    out: &mut Vec<LintDiagnostic>,
) {
    let filtered = cfg.replay_filtered.contains(&s.name);
    for (arr, f) in &s.facts {
        let decl = &module.registers[*arr as usize];
        // An update is fine under retransmission if idempotent or
        // dominated by the first-delivery edge of the replay filter.
        let unsafe_stores: Vec<&StoreFact> = f
            .stores
            .iter()
            .filter(|st| {
                !store_idempotent(*arr, st)
                    && s.replay[st.block.0 as usize] != ReplayState::FirstDelivery
            })
            .collect();
        if unsafe_stores.is_empty() {
            continue;
        }
        if filtered {
            push(
                out,
                cfg,
                module,
                LintCode::ReplayUnsafe,
                &s.name,
                Some(decl.name.clone()),
                s.span,
                format!(
                    "kernel '{}' has a replay filter (exactly-once claimed) but updates \
                     '{}' on a path not guarded by `window.replay`; a retransmitted \
                     window re-executes the update and corrupts the state",
                    s.name, decl.name
                ),
            );
        } else {
            push(
                out,
                cfg,
                module,
                LintCode::ReplayUnsafeNoFilter,
                &s.name,
                Some(decl.name.clone()),
                s.span,
                format!(
                    "kernel '{}' updates '{}' non-idempotently with no replay filter \
                     configured; if this kernel is ever driven over NCP-R, \
                     retransmissions will corrupt the state (configure a replay filter \
                     and guard with `window.replay`)",
                    s.name, decl.name
                ),
            );
        }
    }
}

fn overflow_findings(
    module: &Module,
    s: &KernelSummary,
    cfg: &LintConfig,
    out: &mut Vec<LintDiagnostic>,
) {
    for (arr, f) in &s.facts {
        let decl = &module.registers[*arr as usize];
        if !matches!(
            decl.elem,
            ScalarType::U32 | ScalarType::I32 | ScalarType::U64 | ScalarType::I64
        ) {
            continue;
        }
        // A commutative additive accumulator with no reset store guarded
        // by the array's own value wraps unboundedly.
        let accumulates = f.stores.iter().any(|st| st.commutative);
        if !accumulates {
            continue;
        }
        let has_guarded_reset = f.stores.iter().any(|st| st.self_guarded && st.state_free);
        if has_guarded_reset {
            continue;
        }
        push(
            out,
            cfg,
            module,
            LintCode::UnguardedOverflow,
            &s.name,
            Some(decl.name.clone()),
            decl.span,
            format!(
                "kernel '{}' accumulates into {}-bit '{}' with no value-guarded reset; \
                 the accumulator wraps silently at 2^{}",
                s.name,
                decl.elem.bits(),
                decl.name,
                decl.elem.bits(),
            ),
        );
    }
}

/// Splits findings into (denied, warnings).
pub fn partition(diags: Vec<LintDiagnostic>) -> (Vec<LintDiagnostic>, Vec<LintDiagnostic>) {
    diags.into_iter().partition(|d| d.is_deny())
}

/// Renders findings Clang-style, one per line (header only; `nclc`
/// upgrades to caret snippets when it still holds the source).
pub fn render(diags: &[LintDiagnostic]) -> String {
    let mut out = String::new();
    let mut seen = HashSet::new();
    for d in diags {
        let line = d.to_string();
        if seen.insert(line.clone()) {
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::{lower, LoweringConfig, ReplayFilter};
    use ncl_lang::frontend;

    fn module_with(src: &str, cfg: &LoweringConfig) -> Module {
        let checked = frontend(src, "t.ncl").expect("frontend");
        let mut m = lower(&checked, cfg).expect("lower");
        crate::passes::optimize(&mut m);
        m
    }

    fn module(src: &str, kernel: &str, mask: &[u16]) -> Module {
        module_with(src, &LoweringConfig::with_mask(kernel, mask.to_vec()))
    }

    const ALLREDUCE: &str = r#"
_net_ _at_("s1") int accum[8] = {0};
_net_ _at_("s1") unsigned count[2] = {0};
_net_ _ctrl_ _at_("s1") unsigned nworkers = 2;
_net_ _out_ void k(int *data) {
    unsigned base = window.seq * window.len;
    for (unsigned i = 0; i < window.len; ++i)
        accum[base + i] += data[i];
    if (++count[window.seq] == nworkers) {
        memcpy(data, &accum[base], window.len * 4);
        count[window.seq] = 0; _bcast();
    } else { _drop(); }
}
"#;

    #[test]
    fn allreduce_counter_pattern_is_hazard_free() {
        let m = module(ALLREDUCE, "k", &[4]);
        let cfg = LintConfig::default();
        let diags = lint_module(&m, &cfg);
        let (deny, _) = partition(diags);
        assert!(deny.is_empty(), "unexpected denies: {deny:?}");
    }

    #[test]
    fn allreduce_without_filter_warns_replay_unsafe() {
        let m = module(ALLREDUCE, "k", &[4]);
        let diags = lint_module(&m, &LintConfig::default());
        assert!(
            diags
                .iter()
                .any(|d| d.code == LintCode::ReplayUnsafeNoFilter && d.level == LintLevel::Warn),
            "{diags:?}"
        );
    }

    #[test]
    fn replay_guarded_updates_pass_with_filter() {
        // The PR-2 replay-aware allreduce shape: all mutations on the
        // first-delivery edge of `window.replay`.
        let src = r#"
_net_ _at_("s1") int accum[8] = {0};
_net_ _at_("s1") unsigned count[2] = {0};
_net_ _ctrl_ _at_("s1") unsigned nworkers = 2;
_net_ _out_ void k(int *data) {
    unsigned base = window.seq * window.len;
    if (window.replay) {
        _drop();
    } else {
        for (unsigned i = 0; i < window.len; ++i)
            accum[base + i] += data[i];
        if (++count[window.seq] % nworkers == 0) { _bcast(); } else { _drop(); }
    }
}
"#;
        let mut cfg = LoweringConfig::with_mask("k", vec![4]);
        cfg.replay_filters.insert(
            "k".into(),
            ReplayFilter {
                senders: 2,
                slots: 2,
            },
        );
        let m = module_with(src, &cfg);
        let mut lint_cfg = LintConfig::default();
        lint_cfg.replay_filtered.insert("k".into());
        let diags = lint_module(&m, &lint_cfg);
        assert!(
            !diags.iter().any(|d| matches!(
                d.code,
                LintCode::ReplayUnsafe | LintCode::ReplayUnsafeNoFilter
            )),
            "replay-guarded kernel flagged: {diags:?}"
        );
    }

    #[test]
    fn unguarded_update_with_filter_is_denied() {
        // Filter configured but the kernel ignores `window.replay`.
        let src = r#"
_net_ _at_("s1") unsigned count[2] = {0};
_net_ _out_ void k(int *data) { count[window.seq] += data[0]; _drop(); }
"#;
        let mut cfg = LoweringConfig::with_mask("k", vec![1]);
        cfg.replay_filters.insert(
            "k".into(),
            ReplayFilter {
                senders: 2,
                slots: 2,
            },
        );
        let m = module_with(src, &cfg);
        let mut lint_cfg = LintConfig::default();
        lint_cfg.replay_filtered.insert("k".into());
        let diags = lint_module(&m, &lint_cfg);
        assert!(
            diags
                .iter()
                .any(|d| d.code == LintCode::ReplayUnsafe && d.is_deny()),
            "{diags:?}"
        );
    }

    #[test]
    fn idempotent_overwrites_are_replay_safe() {
        let src = r#"
_net_ _at_("s1") bool Valid[4] = {false};
_net_ _out_ void k(unsigned *d) { Valid[window.seq] = true; _reflect(); }
"#;
        let m = module(src, "k", &[1]);
        let diags = lint_module(&m, &LintConfig::default());
        assert!(
            !diags.iter().any(|d| matches!(
                d.code,
                LintCode::ReplayUnsafe | LintCode::ReplayUnsafeNoFilter
            )),
            "{diags:?}"
        );
    }

    #[test]
    fn cross_array_rmw_is_non_atomic() {
        // Writes `mirror` from `counter`: Ld(counter) and St(mirror)
        // land in different stages.
        let src = r#"
_net_ _at_("s1") unsigned counter[1] = {0};
_net_ _at_("s1") unsigned mirror[1] = {0};
_net_ _out_ void k(unsigned *d) {
    counter[0] += d[0];
    mirror[0] = counter[0];
    _drop();
}
"#;
        let m = module(src, "k", &[1]);
        let diags = lint_module(&m, &LintConfig::default());
        let found: Vec<_> = diags
            .iter()
            .filter(|d| d.code == LintCode::NonAtomicRmw && d.is_deny())
            .collect();
        assert!(
            found.iter().any(|d| d.state.as_deref() == Some("mirror")),
            "{diags:?}"
        );
    }

    #[test]
    fn cross_array_guard_is_non_atomic() {
        // Test-and-set across two arrays (classic TOCTOU).
        let src = r#"
_net_ _at_("s1") unsigned lock[1] = {0};
_net_ _at_("s1") unsigned owner[1] = {0};
_net_ _out_ void k(unsigned *d) {
    if (lock[0] == 0) { owner[0] = d[0]; }
    _drop();
}
"#;
        let m = module(src, "k", &[1]);
        let diags = lint_module(&m, &LintConfig::default());
        assert!(
            diags
                .iter()
                .any(|d| d.code == LintCode::NonAtomicRmw && d.state.as_deref() == Some("owner")),
            "{diags:?}"
        );
    }

    #[test]
    fn micro_op_budget_overflow_flagged() {
        // Six micro-ops against one cell (one lane), budget four: the
        // fused RegisterAction cannot issue them in one pass.
        let src = r#"
_net_ _at_("s1") unsigned a[8] = {0};
_net_ _out_ void k(unsigned *d) {
    a[0] += d[0];
    a[0] += d[1];
    a[0] += d[2];
    _drop();
}
"#;
        let m = module(src, "k", &[3]);
        let cfg = LintConfig {
            reg_accesses_per_pass: 4,
            ..LintConfig::default()
        };
        let diags = lint_module(&m, &cfg);
        assert!(
            diags
                .iter()
                .any(|d| d.code == LintCode::NonAtomicRmw && d.message.contains("micro-ops")),
            "{diags:?}"
        );
        // Within budget: no finding.
        let cfg = LintConfig {
            reg_accesses_per_pass: 8,
            ..LintConfig::default()
        };
        let diags = lint_module(&m, &cfg);
        assert!(
            !diags.iter().any(|d| d.code == LintCode::NonAtomicRmw),
            "{diags:?}"
        );
    }

    #[test]
    fn distinct_lanes_do_not_pool_micro_ops() {
        // Accesses at distinct constant indices split into per-element
        // banks (the backend's lane pass), so they never compete for
        // one RegisterAction: no budget finding even at budget 2.
        let src = r#"
_net_ _at_("s1") unsigned a[8] = {0};
_net_ _out_ void k(unsigned *d) {
    a[0] += d[0];
    a[1] += d[0];
    a[2] += d[0];
    _drop();
}
"#;
        let m = module(src, "k", &[1]);
        let diags = lint_module(&m, &LintConfig::with_budget(2));
        assert!(
            !diags
                .iter()
                .any(|d| d.code == LintCode::NonAtomicRmw && d.message.contains("micro-ops")),
            "{diags:?}"
        );
        // The lane-split allreduce pattern stays clean under the real
        // default budget even at width 4.
        let m = module(ALLREDUCE, "k", &[4]);
        let diags = lint_module(&m, &LintConfig::with_budget(4));
        let (deny, _) = partition(diags);
        assert!(deny.is_empty(), "{deny:?}");
    }

    #[test]
    fn cross_kernel_alias_flagged() {
        let src = r#"
_net_ _at_("s1") unsigned shared[1] = {0};
_net_ _out_ void writer(unsigned *d) { shared[0] = d[0]; _drop(); }
_net_ _out_ void adder(unsigned *d) { shared[0] += d[0]; _drop(); }
"#;
        let mut cfg = LoweringConfig::with_mask("writer", vec![1]);
        cfg.masks.insert("adder".into(), vec![1]);
        let m = module_with(src, &cfg);
        let diags = lint_module(&m, &LintConfig::default());
        assert!(
            diags
                .iter()
                .any(|d| d.code == LintCode::CrossKernelAlias && d.is_deny()),
            "{diags:?}"
        );
    }

    #[test]
    fn commutative_cross_kernel_writes_allowed() {
        let src = r#"
_net_ _at_("s1") unsigned shared[1] = {0};
_net_ _out_ void a1(unsigned *d) { shared[0] += d[0]; _drop(); }
_net_ _out_ void a2(unsigned *d) { shared[0] += d[0]; _drop(); }
"#;
        let mut cfg = LoweringConfig::with_mask("a1", vec![1]);
        cfg.masks.insert("a2".into(), vec![1]);
        let m = module_with(src, &cfg);
        let diags = lint_module(&m, &LintConfig::default());
        assert!(
            !diags.iter().any(|d| d.code == LintCode::CrossKernelAlias),
            "{diags:?}"
        );
    }

    #[test]
    fn unguarded_accumulator_warns_overflow() {
        let src = r#"
_net_ _at_("s1") unsigned total[1] = {0};
_net_ _out_ void k(unsigned *d) { total[0] += d[0]; _drop(); }
"#;
        let m = module(src, "k", &[1]);
        let diags = lint_module(&m, &LintConfig::default());
        assert!(
            diags
                .iter()
                .any(|d| d.code == LintCode::UnguardedOverflow && !d.is_deny()),
            "{diags:?}"
        );
    }

    #[test]
    fn guarded_reset_suppresses_overflow_warning() {
        let m = module(ALLREDUCE, "k", &[4]);
        let diags = lint_module(&m, &LintConfig::default());
        // `count` resets under its own guard — no overflow warning for
        // it (accum still warns: it grows unboundedly).
        assert!(
            !diags
                .iter()
                .any(|d| d.code == LintCode::UnguardedOverflow
                    && d.state.as_deref() == Some("count")),
            "{diags:?}"
        );
    }

    #[test]
    fn allow_level_suppresses() {
        let src = r#"
_net_ _at_("s1") unsigned counter[1] = {0};
_net_ _at_("s1") unsigned mirror[1] = {0};
_net_ _out_ void k(unsigned *d) {
    counter[0] += d[0];
    mirror[0] = counter[0];
    _drop();
}
"#;
        let m = module(src, "k", &[1]);
        let mut cfg = LintConfig::default();
        cfg.levels.insert(LintCode::NonAtomicRmw, LintLevel::Allow);
        let diags = lint_module(&m, &cfg);
        assert!(
            !diags.iter().any(|d| d.code == LintCode::NonAtomicRmw),
            "{diags:?}"
        );
    }

    #[test]
    fn code_names_roundtrip() {
        for c in LintCode::ALL {
            assert_eq!(LintCode::parse(c.name()), Some(*c));
        }
        assert_eq!(LintCode::parse("nope"), None);
    }

    #[test]
    fn diagnostics_carry_spans_and_file() {
        let src = r#"
_net_ _at_("s1") unsigned counter[1] = {0};
_net_ _at_("s1") unsigned mirror[1] = {0};
_net_ _out_ void k(unsigned *d) {
    counter[0] += d[0];
    mirror[0] = counter[0];
    _drop();
}
"#;
        let m = module(src, "k", &[1]);
        let diags = lint_module(&m, &LintConfig::default());
        let d = diags
            .iter()
            .find(|d| d.code == LintCode::NonAtomicRmw)
            .expect("finding");
        assert_eq!(d.file, "t.ncl");
        assert!(d.span.line > 1, "span not threaded: {:?}", d.span);
        let rendered = d.to_diagnostic().render_snippet(src);
        assert!(rendered.contains("t.ncl:"), "{rendered}");
        assert!(rendered.contains('^'), "{rendered}");
    }

    #[test]
    fn summary_classifies_lattice() {
        let m = module(ALLREDUCE, "k", &[4]);
        let summary = access_summary(&m, &LintConfig::default());
        let count = summary
            .iter()
            .find(|a| a.array == "count")
            .expect("count summarized");
        assert_eq!(count.kind, UpdateKind::GuardedReset);
        let accum = summary
            .iter()
            .find(|a| a.array == "accum")
            .expect("accum summarized");
        assert_eq!(accum.kind, UpdateKind::CommutativeRmw);
    }
}
