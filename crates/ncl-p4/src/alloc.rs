//! Stage allocation: predicated linear ops → match-action stages.
//!
//! Constraints honored (matching both real RMT and our [`pisa`] resource
//! model):
//!
//! * **RAW**: an op reading a register written by another op executes in
//!   a strictly later stage (stage ALUs read the PHV at stage input and
//!   write at stage output) — *except* within a fused register action
//!   (below);
//! * **WAR** (anti): a write may share the reader's stage — stage-input
//!   reads see the old value — but never precede it;
//! * **WAW**: ordered into distinct stages (same-group excepted);
//! * **register banks**: all accesses to one register bank fuse into a
//!   single stage, together with the ALU ops on def-use paths between
//!   the bank's reads and its writes. This models the **stateful ALU /
//!   RegisterAction** of RMT chips: "increment, compare against the
//!   threshold, conditionally reset, and hand back the value" is one
//!   atomic register access — exactly what SwitchML-style aggregation
//!   (and the paper's Fig. 4 `++count[seq] == nworkers` pattern)
//!   requires;
//! * **budgets**: stages overflowing the per-stage op/table budget are
//!   split, preserving op order and keeping fused groups intact.
//!
//! Map lookups are table applications: the key (and guard) must be
//! ready before the stage, and the outputs (`found`, `val`) become
//! available to later stages.

use crate::flatten::{LinearKernel, PredInst};
use ncl_ir::ir::{Inst, Operand, RegId};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};

/// Per-stage budgets the allocator packs against.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct AllocBudget {
    /// VLIW ops per stage.
    pub ops_per_stage: usize,
    /// Tables per stage. Each map lookup is one table; each run of
    /// plain ops adds one.
    pub tables_per_stage: usize,
    /// Maximum predicate-chain depth the stage gateway evaluates
    /// (0 disables gateway chaining — the ablation knob).
    pub gateway_depth: usize,
}

impl AllocBudget {
    /// Budgets from a resource model (default gateway depth).
    pub(crate) fn from_model(m: &pisa::ResourceModel) -> Self {
        AllocBudget {
            ops_per_stage: m.ops_per_stage,
            tables_per_stage: m.tables_per_stage,
            gateway_depth: GATEWAY_DEPTH,
        }
    }
}

/// The staged program: `stages[s]` lists the ops executing in stage `s`,
/// in order.
#[derive(Clone, PartialEq, Debug, Default)]
pub(crate) struct StagedKernel {
    /// Ops per stage.
    pub stages: Vec<Vec<PredInst>>,
}

/// Ragged lists of indices in one allocation: `of(i)` is list `i`.
/// Built front to back, one list at a time.
struct Lists {
    /// `off[i]..off[i + 1]` is list `i`'s range of `items`.
    off: Vec<u32>,
    items: Vec<u32>,
}

impl Lists {
    fn with_capacity(lists: usize) -> Self {
        let mut off = Vec::with_capacity(lists + 1);
        off.push(0);
        Lists {
            off,
            items: Vec::new(),
        }
    }

    /// Appends to the list under construction.
    fn push(&mut self, x: usize) {
        self.items.push(x as u32);
    }

    /// Closes the list under construction and opens the next one.
    fn end_list(&mut self) {
        self.off.push(self.items.len() as u32);
    }

    fn of(&self, i: usize) -> &[u32] {
        &self.items[self.off[i] as usize..self.off[i + 1] as usize]
    }

    /// The reversed relation over `n` lists: `x ∈ out.of(y)` iff
    /// `y ∈ self.of(x)`.
    fn transposed(&self, n: usize) -> Lists {
        let mut off = vec![0u32; n + 1];
        for &y in &self.items {
            off[y as usize + 1] += 1;
        }
        for y in 0..n {
            off[y + 1] += off[y];
        }
        let mut next = off.clone();
        let mut items = vec![0u32; self.items.len()];
        for x in 0..self.off.len() - 1 {
            for &y in self.of(x) {
                items[next[y as usize] as usize] = x as u32;
                next[y as usize] += 1;
            }
        }
        Lists { off, items }
    }
}

/// A dependency location beyond virtual registers: PHV-resident window
/// state and the forwarding decision. Two accesses of the same location
/// are ordered by the same RAW/WAR/WAW rules as register accesses —
/// without this, two stores to `data[0]` could land in swapped stages
/// (`tests::window_*` and `tests::ext_and_fwd_*` pin the rules).
///
/// Two locations alias when they are equal, or when they are elements
/// of the same window parameter and either index is dynamic.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Loc {
    /// A window payload element; `None` index = dynamic (conflicts with
    /// every element of that parameter).
    Win(u16, Option<u64>),
    /// An extended window-struct field.
    Ext(u16),
    /// The forwarding-decision intrinsic.
    Fwd,
}

/// The location an op accesses and whether it writes it. No op accesses
/// more than one.
fn loc_access(p: &PredInst) -> Option<(Loc, bool)> {
    let element = |o: &Operand| o.as_const().map(|v| v.bits());
    Some(match &p.inst {
        Inst::LdWin { param, index, .. } => (Loc::Win(*param, element(index)), false),
        Inst::LdMeta {
            field: ncl_ir::ir::MetaField::Ext(off, _),
            ..
        } => (Loc::Ext(*off), false),
        Inst::StWin { param, index, .. } => (Loc::Win(*param, element(index)), true),
        Inst::StExt { offset, .. } => (Loc::Ext(*offset), true),
        Inst::Fwd { .. } => (Loc::Fwd, true),
        _ => return None,
    })
}

/// The stage floors earlier accesses of one kind impose on a later
/// aliasing access, kept as running maxima while a round walks the ops
/// in order (an op's stage is final for the round once it is passed, so
/// the maximum over "every earlier access" needs no list).
#[derive(Clone, Copy, Default)]
struct Floor {
    /// One past the latest stage of a write so far (0: none). Reads and
    /// writes alike must be at or above it.
    after_write: usize,
    /// The latest stage of a read so far; a write may share it but
    /// never precede it.
    with_read: usize,
}

/// A floor slot per kind of earlier access that can alias a location:
/// the exact element, its parameter's dynamic-index accesses, and all
/// of its parameter's accesses (what a dynamic index aliases).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Slot {
    Exact(Loc),
    Dynamic(u16),
    Any(u16),
}

/// One op's location access against the floor slots.
#[derive(Clone, Copy)]
struct LocUse {
    write: bool,
    /// Slots whose floors bound this op: together they hold exactly the
    /// earlier accesses that alias it.
    bounded_by: [usize; 2],
    /// Slots this op's own stage is recorded in.
    recorded_in: [usize; 2],
}

/// What the fixpoint reads of each op, resolved once per kernel.
struct Accesses {
    /// Registers read: operands, then the guard.
    reads: Lists,
    /// Registers written.
    writes: Lists,
    /// Location access, if any.
    locs: Vec<Option<LocUse>>,
    /// Number of floor slots `locs` indexes.
    slots: usize,
}

impl Accesses {
    fn of(lin: &LinearKernel) -> Accesses {
        let n = lin.ops.len();
        let mut reads = Lists::with_capacity(n);
        let mut writes = Lists::with_capacity(n);
        let mut slot_ids: HashMap<Slot, usize> = HashMap::new();
        let mut slot = |s: Slot| {
            let next = slot_ids.len();
            *slot_ids.entry(s).or_insert(next)
        };
        let mut locs = Vec::with_capacity(n);
        for p in &lin.ops {
            for o in p.inst.operands() {
                if let Operand::Reg(r) = o {
                    reads.push(r.0 as usize);
                }
            }
            if let Some(g) = p.guard {
                reads.push(g.0 as usize);
            }
            reads.end_list();
            for d in p.inst.dsts() {
                writes.push(d.0 as usize);
            }
            writes.end_list();
            locs.push(loc_access(p).map(|(loc, write)| {
                let (bounded_by, recorded_in) = match loc {
                    Loc::Win(param, Some(_)) => {
                        let exact = slot(Slot::Exact(loc));
                        (
                            [exact, slot(Slot::Dynamic(param))],
                            [exact, slot(Slot::Any(param))],
                        )
                    }
                    Loc::Win(param, None) => {
                        let any = slot(Slot::Any(param));
                        ([any; 2], [slot(Slot::Dynamic(param)), any])
                    }
                    Loc::Ext(_) | Loc::Fwd => {
                        let exact = slot(Slot::Exact(loc));
                        ([exact; 2], [exact; 2])
                    }
                };
                LocUse {
                    write,
                    bounded_by,
                    recorded_in,
                }
            }));
        }
        Accesses {
            reads,
            writes,
            locs,
            slots: slot_ids.len(),
        }
    }
}

/// Whether an op is a table application (map lookup).
fn is_table(p: &PredInst) -> bool {
    matches!(p.inst, Inst::MapGet { .. })
}

/// Whether an op belongs to the predicate class: cheap boolean logic an
/// RMT stage's *gateway* evaluates at stage input (comparisons,
/// and/or/not over predicate bits). Bounded chains of these may share a
/// stage with the actions they gate.
fn is_pred_class(p: &PredInst, reg_tys: &[c3::ScalarType]) -> bool {
    let bool_dst = p
        .inst
        .dst()
        .map(|d| reg_tys[d.0 as usize] == c3::ScalarType::Bool)
        .unwrap_or(false);
    if !bool_dst {
        return false;
    }
    matches!(
        p.inst,
        Inst::Bin { .. } | Inst::Un { .. } | Inst::Copy { .. } | Inst::Cast { .. }
    )
}

/// Default predicate-chain depth evaluable within one stage's gateway.
pub(crate) const GATEWAY_DEPTH: usize = 8;

/// Allocation failure: the fixpoint diverged.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct AllocDiverged;

/// "No op" / "no group" in the dense op-indexed tables.
const NONE: usize = usize::MAX;

/// Union-find over op indices.
struct Uf(Vec<usize>);

impl Uf {
    fn new(n: usize) -> Self {
        Uf((0..n).collect())
    }
    fn find(&mut self, x: usize) -> usize {
        if self.0[x] != x {
            let root = self.find(self.0[x]);
            self.0[x] = root;
        }
        self.0[x]
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.0[ra] = rb;
        }
    }
}

/// Marks everything reachable from `seeds` along `adj` with `epoch` and
/// appends it to `reached`, visiting only what it reaches: a stale mark
/// is any other value, so the mark table is never cleared.
fn reach(adj: &Lists, seeds: &[usize], mark: &mut [u32], epoch: u32, reached: &mut Vec<usize>) {
    let mut next = reached.len();
    for &s in seeds {
        if mark[s] != epoch {
            mark[s] = epoch;
            reached.push(s);
        }
    }
    while next < reached.len() {
        for &y in adj.of(reached[next]) {
            let y = y as usize;
            if mark[y] != epoch {
                mark[y] = epoch;
                reached.push(y);
            }
        }
        next += 1;
    }
}

/// Computes fused register-action groups: for every bank, its accesses
/// plus the ops on def-use paths from the bank's reads to its writes.
/// Returns `group[i]` = representative op index, or [`NONE`] when
/// ungrouped. Costs the def-use edges plus, per bank, the ops its two
/// reach sets actually visit.
fn fuse_groups(lin: &LinearKernel, acc: &Accesses) -> Vec<usize> {
    let n = lin.ops.len();
    // Def-use edges via last writer.
    let mut pred = Lists::with_capacity(n);
    let mut last_writer = vec![NONE; lin.reg_tys.len()];
    for j in 0..n {
        for &r in acc.reads.of(j) {
            if last_writer[r as usize] != NONE {
                pred.push(last_writer[r as usize]);
            }
        }
        pred.end_list();
        for &r in acc.writes.of(j) {
            last_writer[r as usize] = j;
        }
    }
    let succ = pred.transposed(n);
    // Per bank: forward reach from reads ∩ backward reach from writes.
    let mut banks: BTreeMap<u32, (Vec<usize>, Vec<usize>)> = BTreeMap::new();
    for (i, p) in lin.ops.iter().enumerate() {
        match &p.inst {
            Inst::LdReg { arr, .. } => banks.entry(arr.0).or_default().0.push(i),
            Inst::StReg { arr, .. } => banks.entry(arr.0).or_default().1.push(i),
            _ => {}
        }
    }
    let mut uf = Uf::new(n);
    let mut fwd_mark = vec![0u32; n];
    let mut bwd_mark = vec![0u32; n];
    let mut reached: Vec<usize> = Vec::new();
    for (epoch, (lds, sts)) in (1u32..).zip(banks.values()) {
        reached.clear();
        reach(&succ, lds, &mut fwd_mark, epoch, &mut reached);
        let fwd_len = reached.len();
        reach(&pred, sts, &mut bwd_mark, epoch, &mut reached);
        let anchor = *lds.iter().chain(sts).next().expect("bank has an access");
        let on_path = reached[fwd_len..].iter().filter(|&&i| fwd_mark[i] == epoch);
        for &m in on_path.chain(lds).chain(sts) {
            uf.union(m, anchor);
        }
    }
    // Only ops unioned with a bank op get a group.
    let mut bank_root = vec![false; n];
    for &i in banks.values().flat_map(|(lds, sts)| lds.iter().chain(sts)) {
        bank_root[uf.find(i)] = true;
    }
    (0..n)
        .map(|i| {
            let r = uf.find(i);
            if bank_root[r] {
                r
            } else {
                NONE
            }
        })
        .collect()
}

/// Assigns a stage to every op and splits overflowing stages.
///
/// A fixpoint of in-order rounds; one round costs O(ops): every table
/// it consults is indexed by register, location slot or op, allocated
/// once and cleared between rounds, and "the latest stage among earlier
/// aliasing accesses" is a running maximum rather than a search.
///
/// A bank whose write depends on its own read through a window element
/// (`data[i] = acc[j]; acc[j] = data[i]`) cannot be one RegisterAction,
/// and the grouped fixpoint never settles. Staged without fused groups,
/// such a bank lands in two stages, which the pipeline's resource
/// report rejects (`RegisterMultiStage`) like any other overrun.
pub(crate) fn allocate(
    lin: &LinearKernel,
    budget: &AllocBudget,
) -> Result<StagedKernel, AllocDiverged> {
    let n = lin.ops.len();
    if n == 0 {
        return Ok(StagedKernel::default());
    }
    let acc = Accesses::of(lin);
    let group = fuse_groups(lin, &acc);
    fixpoint(lin, budget, &acc, &group).or_else(|_| fixpoint(lin, budget, &acc, &vec![NONE; n]))
}

/// [`allocate`]'s in-order rounds under the given fused groups.
fn fixpoint(
    lin: &LinearKernel,
    budget: &AllocBudget,
    acc: &Accesses,
    group: &[usize],
) -> Result<StagedKernel, AllocDiverged> {
    let n = lin.ops.len();
    let same_group = |i: usize, j: usize| group[i] != NONE && group[i] == group[j];
    let pred_class: Vec<bool> = lin
        .ops
        .iter()
        .map(|p| is_pred_class(p, &lin.reg_tys))
        .collect();
    let mut stage = vec![0usize; n];
    let mut depth = vec![0usize; n];
    // Latest stage of each group's members, indexed by representative.
    // Stages only grow, so it carries over from round to round.
    let mut group_stage = vec![0usize; n];
    // Per register, within a round: the last op to write it, and the
    // latest stage among its readers since.
    let mut last_writer = vec![NONE; lin.reg_tys.len()];
    let mut read_since = vec![0usize; lin.reg_tys.len()];
    let mut floors = vec![Floor::default(); acc.slots];
    let mut gateway_preds: Vec<usize> = Vec::new();
    for _round in 0..10_000 {
        let mut changed = false;
        last_writer.fill(NONE);
        read_since.fill(0);
        floors.fill(Floor::default());
        for j in 0..n {
            let p = &lin.ops[j];
            let strict_reads = is_table(p); // match keys need stage input
            let mut s = stage[j];
            gateway_preds.clear();
            for &r in acc.reads.of(j) {
                let i = last_writer[r as usize];
                if i == NONE {
                    continue;
                }
                if same_group(i, j) {
                    s = s.max(stage[i]); // intra-action chaining
                } else if !strict_reads
                    && budget.gateway_depth > 0
                    && pred_class[i]
                    && (pred_class[j] || p.guard == Some(RegId(r)))
                {
                    // Gateway chaining: predicate logic (and the
                    // guard it gates) may share the writer's stage,
                    // depth permitting.
                    s = s.max(stage[i]);
                    gateway_preds.push(i);
                } else {
                    s = s.max(stage[i] + 1);
                }
            }
            for &r in acc.writes.of(j) {
                let i = last_writer[r as usize];
                if i != NONE {
                    s = s.max(if same_group(i, j) {
                        stage[i]
                    } else {
                        stage[i] + 1
                    });
                }
                s = s.max(read_since[r as usize]);
            }
            // Location dependencies (window elements, ext fields, fwd):
            // read-after-write → later stage; write-after-read → same or
            // later; write-after-write → later.
            if let Some(l) = &acc.locs[j] {
                for &slot in &l.bounded_by {
                    s = s.max(floors[slot].after_write);
                    if l.write {
                        s = s.max(floors[slot].with_read);
                    }
                }
            }
            if group[j] != NONE {
                s = s.max(group_stage[group[j]]);
            }
            // Gateway depth: a chain longer than the hardware evaluates
            // in one stage spills into the next.
            let mut d = 0usize;
            for &i in &gateway_preds {
                if stage[i] == s {
                    d = d.max(depth[i] + 1);
                }
            }
            if d > budget.gateway_depth {
                s += 1;
                d = 0;
            }
            depth[j] = d;
            if s > n {
                // Past the longest chain any allocation needs: a
                // group constraint is pulling against a dependency.
                return Err(AllocDiverged);
            }
            if s != stage[j] {
                stage[j] = s;
                changed = true;
            }
            if group[j] != NONE {
                group_stage[group[j]] = group_stage[group[j]].max(s);
            }
            for &r in acc.reads.of(j) {
                read_since[r as usize] = read_since[r as usize].max(s);
            }
            for &r in acc.writes.of(j) {
                last_writer[r as usize] = j;
                read_since[r as usize] = 0;
            }
            if let Some(l) = &acc.locs[j] {
                for &slot in &l.recorded_in {
                    let f = &mut floors[slot];
                    if l.write {
                        f.after_write = f.after_write.max(s + 1);
                    } else {
                        f.with_read = f.with_read.max(s);
                    }
                }
            }
        }
        if !changed {
            // Final coherence: every grouped op at its group's max stage.
            let mut coherent = true;
            for i in 0..n {
                if group[i] != NONE && stage[i] != group_stage[group[i]] {
                    stage[i] = group_stage[group[i]];
                    coherent = false;
                }
            }
            if coherent {
                return Ok(split_for_capacity(lin, acc, &stage, group, budget));
            }
        }
    }
    Err(AllocDiverged)
}

/// Groups ops into their dependency stages, then splits stages whose op
/// or table counts overflow the budget. Fused groups stay together, and
/// a split never runs an op before one its stage let it depend on (see
/// [`unit_order`]).
fn split_for_capacity(
    lin: &LinearKernel,
    acc: &Accesses,
    stage: &[usize],
    group: &[usize],
    budget: &AllocBudget,
) -> StagedKernel {
    let max_stage = stage.iter().copied().max().unwrap_or(0);
    let mut logical: Vec<Vec<usize>> = vec![vec![]; max_stage + 1];
    for (i, &s) in stage.iter().enumerate() {
        logical[s].push(i);
    }
    let mut out: Vec<Vec<PredInst>> = Vec::new();
    // A group sits in one logical stage, so its unit index within that
    // stage needs no reset between stages.
    let mut group_unit = vec![NONE; stage.len()];
    for ops in logical {
        if ops.is_empty() {
            continue;
        }
        // Units: fused groups move as one; other ops are singletons.
        let mut units: Vec<Vec<usize>> = Vec::new();
        for &i in &ops {
            if group[i] != NONE {
                if group_unit[group[i]] != NONE {
                    units[group_unit[group[i]]].push(i);
                } else {
                    group_unit[group[i]] = units.len();
                    units.push(vec![i]);
                }
            } else {
                units.push(vec![i]);
            }
        }
        let tables = ops.iter().filter(|&&i| is_table(&lin.ops[i])).count();
        if ops.len() - tables > budget.ops_per_stage || tables + 1 > budget.tables_per_stage {
            units = unit_order(&ops, units, acc);
        }
        let mut cur: Vec<usize> = Vec::new();
        let mut cur_ops = 0usize;
        let mut cur_tables = 0usize;
        let mut flushes: Vec<Vec<usize>> = Vec::new();
        for unit in units {
            let unit_ops = unit.iter().filter(|&&i| !is_table(&lin.ops[i])).count();
            let unit_tables = unit.iter().filter(|&&i| is_table(&lin.ops[i])).count();
            let would_tables = cur_tables + unit_tables;
            let would_ops = cur_ops + unit_ops;
            let plain_table = 1; // the always-table of the sub-stage
            if !cur.is_empty()
                && (would_ops > budget.ops_per_stage
                    || would_tables + plain_table > budget.tables_per_stage)
            {
                flushes.push(std::mem::take(&mut cur));
                cur_ops = 0;
                cur_tables = 0;
            }
            cur_ops += unit_ops;
            cur_tables += unit_tables;
            cur.extend(unit);
        }
        if !cur.is_empty() {
            flushes.push(cur);
        }
        for mut chunk in flushes {
            chunk.sort_unstable(); // preserve original op order
            out.push(chunk.into_iter().map(|i| lin.ops[i].clone()).collect());
        }
    }
    StagedKernel { stages: out }
}

/// Orders one logical stage's units so that every dependency the
/// allocator let share that stage runs forward: a write after an
/// earlier read of the same register or location, and a read of a
/// register an earlier op of the stage wrote (gateway chaining). Filling
/// sub-stages in this order never moves a reader ahead of the value it
/// reads, nor a write ahead of a read of the old value. Ties keep the
/// units' own order; units caught in a cycle are merged into one.
fn unit_order(ops: &[usize], units: Vec<Vec<usize>>, acc: &Accesses) -> Vec<Vec<usize>> {
    let unit_of: HashMap<usize, usize> = (units.iter().enumerate())
        .flat_map(|(u, unit)| unit.iter().map(move |&i| (i, u)))
        .collect();
    let mut succ = vec![Vec::new(); units.len()];
    let mut indegree = vec![0usize; units.len()];
    let mut edge = |i: usize, j: usize| {
        let (a, b) = (unit_of[&i], unit_of[&j]);
        if a != b {
            succ[a].push(b);
            indegree[b] += 1;
        }
    };
    // Per register its writer and later readers, per location slot its
    // readers, all within this stage.
    let mut writer: HashMap<u32, usize> = HashMap::new();
    let mut readers: HashMap<u32, Vec<usize>> = HashMap::new();
    let mut loc_readers: HashMap<usize, Vec<usize>> = HashMap::new();
    for &j in ops {
        for &r in acc.reads.of(j) {
            if let Some(&i) = writer.get(&r) {
                edge(i, j);
            }
            readers.entry(r).or_default().push(j);
        }
        for &r in acc.writes.of(j) {
            for i in readers.remove(&r).unwrap_or_default() {
                edge(i, j);
            }
            writer.insert(r, j);
        }
        let Some(l) = &acc.locs[j] else { continue };
        if l.write {
            for &i in l
                .bounded_by
                .iter()
                .filter_map(|s| loc_readers.get(s))
                .flatten()
            {
                edge(i, j);
            }
        } else {
            for s in l.recorded_in {
                loc_readers.entry(s).or_default().push(j);
            }
        }
    }
    // Kahn's algorithm, the lowest-numbered ready unit first.
    let mut ready: BinaryHeap<Reverse<usize>> = (0..units.len())
        .filter(|&u| indegree[u] == 0)
        .map(Reverse)
        .collect();
    let mut units: Vec<Option<Vec<usize>>> = units.into_iter().map(Some).collect();
    let mut order = Vec::with_capacity(units.len());
    while let Some(Reverse(u)) = ready.pop() {
        order.push(units[u].take().expect("each unit is ready once"));
        for &v in &succ[u] {
            indegree[v] -= 1;
            if indegree[v] == 0 {
                ready.push(Reverse(v));
            }
        }
    }
    let mut cycle: Vec<usize> = units.into_iter().flatten().flatten().collect();
    if !cycle.is_empty() {
        cycle.sort_unstable();
        order.push(cycle);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flatten::flatten;
    use ncl_ir::lower::{lower, LoweringConfig};
    use ncl_lang::frontend;

    fn linear(src: &str, kernel: &str, mask: &[u16]) -> (LinearKernel, ncl_ir::ir::Module) {
        let checked = frontend(src, "t.ncl").expect("frontend");
        let mut m =
            lower(&checked, &LoweringConfig::with_mask(kernel, mask.to_vec())).expect("lower");
        ncl_ir::passes::optimize(&mut m);
        crate::lanes::split_lanes(&mut m);
        let lin = flatten(m.kernel(kernel).unwrap(), None).expect("flatten");
        (lin, m)
    }

    fn budget() -> AllocBudget {
        AllocBudget {
            ops_per_stage: 64,
            tables_per_stage: 8,
            gateway_depth: GATEWAY_DEPTH,
        }
    }

    /// Stage of the op satisfying `f`, if unique.
    fn stage_of(staged: &StagedKernel, f: impl Fn(&PredInst) -> bool) -> Option<usize> {
        let mut found = None;
        for (s, ops) in staged.stages.iter().enumerate() {
            for op in ops {
                if f(op) {
                    if found.is_some() {
                        return None;
                    }
                    found = Some(s);
                }
            }
        }
        found
    }

    /// A bank written back from its own read through the window cannot
    /// be one RegisterAction: the build is a resource rejection naming
    /// the bank's two stages, not a diverged allocation.
    #[test]
    fn write_back_of_a_read_is_rejected_for_resources() {
        let src = r#"
_net_ _at_("s1") int acc[8] = {0};
_net_ _out_ void k(int *d) {
    unsigned base = window.seq * window.len;
    for (unsigned i = 0; i < window.len; ++i) d[i] = acc[base + i];
    memcpy(&acc[base], d, window.len * 4);
}
"#;
        let (lin, _) = linear(src, "k", &[8]);
        assert!(allocate(&lin, &budget()).is_ok());
        let checked = frontend(src, "t.ncl").expect("frontend");
        let mut m = lower(&checked, &LoweringConfig::with_mask("k", vec![8])).expect("lower");
        ncl_ir::passes::optimize(&mut m);
        let model = pisa::ResourceModel::default();
        match crate::compile_module(&m, &model, &crate::CompileOptions::default()) {
            Err(crate::CompileError::Resources(report)) => assert!(
                report
                    .violations
                    .iter()
                    .all(|v| matches!(v, pisa::ResourceViolation::RegisterMultiStage { .. })),
                "{:?}",
                report.violations
            ),
            other => panic!("expected a resource rejection, got {other:?}"),
        }
    }

    #[test]
    fn raw_deps_separate_stages() {
        let (lin, _) = linear(
            "_net_ _out_ void k(int *d) { int a = d[0] + 1; d[1] = a * 2; }",
            "k",
            &[2],
        );
        let staged = allocate(&lin, &budget()).unwrap();
        let ld = stage_of(&staged, |p| matches!(p.inst, Inst::LdWin { .. })).unwrap();
        let st = stage_of(&staged, |p| matches!(p.inst, Inst::StWin { .. })).unwrap();
        assert!(st > ld, "store stage {st} must follow load stage {ld}");
    }

    #[test]
    fn independent_ops_share_a_stage() {
        let (lin, _) = linear(
            "_net_ _out_ void k(int *d) { d[0] = 1; d[1] = 2; d[2] = 3; }",
            "k",
            &[3],
        );
        let staged = allocate(&lin, &budget()).unwrap();
        assert_eq!(staged.stages.len(), 1, "{staged:?}");
    }

    #[test]
    fn bank_rmw_fuses_in_one_stage() {
        let (lin, m) = linear(
            r#"
_net_ _at_("s1") unsigned count[4];
_net_ _out_ void k(int *d) { count[window.seq] += 1; }
"#,
            "k",
            &[1],
        );
        assert_eq!(m.registers.len(), 1);
        let staged = allocate(&lin, &budget()).unwrap();
        let ld = stage_of(&staged, |p| matches!(p.inst, Inst::LdReg { .. })).unwrap();
        let st = stage_of(&staged, |p| matches!(p.inst, Inst::StReg { .. })).unwrap();
        assert_eq!(ld, st, "RMW must fuse into one stage");
    }

    #[test]
    fn conditional_reset_fuses_like_a_register_action() {
        // The Fig. 4 pattern: increment, compare, conditional reset —
        // one stateful action on one bank, so one stage.
        let (lin, _) = linear(
            r#"
_net_ _at_("s1") unsigned count[4];
_net_ _ctrl_ _at_("s1") unsigned n;
_net_ _out_ void k(int *d) {
    if (++count[window.seq] == n) { count[window.seq] = 0; _bcast(); }
    else { _drop(); }
}
"#,
            "k",
            &[1],
        );
        let staged = allocate(&lin, &budget()).unwrap();
        let mut reg_stages: Vec<usize> = staged
            .stages
            .iter()
            .enumerate()
            .filter(|(_, ops)| {
                ops.iter()
                    .any(|p| matches!(p.inst, Inst::LdReg { .. } | Inst::StReg { .. }))
            })
            .map(|(s, _)| s)
            .collect();
        reg_stages.dedup();
        assert_eq!(reg_stages.len(), 1, "{staged:#?}");
    }

    #[test]
    fn lanes_parallelize_aggregation() {
        let (lin, m) = linear(
            r#"
_net_ _at_("s1") int accum[16] = {0};
_net_ _out_ void k(int *data) {
    unsigned base = window.seq * window.len;
    for (unsigned i = 0; i < window.len; ++i)
        accum[base + i] += data[i];
    _drop();
}
"#,
            "k",
            &[4],
        );
        assert_eq!(m.registers.len(), 4, "lane split expected");
        let staged = allocate(&lin, &budget()).unwrap();
        let reg_stages: Vec<usize> = staged
            .stages
            .iter()
            .enumerate()
            .filter(|(_, ops)| ops.iter().any(|p| matches!(p.inst, Inst::StReg { .. })))
            .map(|(s, _)| s)
            .collect();
        assert_eq!(reg_stages.len(), 1, "{staged:?}");
    }

    /// A hand-built kernel (the optimizer would fold the redundant
    /// window accesses these tests are about) and the stage each of its
    /// ops lands in. Ops must be pairwise distinct.
    fn stages(ops: Vec<Inst>, reg_tys: Vec<c3::ScalarType>) -> Vec<usize> {
        let lin = LinearKernel {
            name: "k".into(),
            ops: ops
                .into_iter()
                .map(|inst| PredInst { guard: None, inst })
                .collect(),
            reg_tys,
        };
        let staged = allocate(&lin, &budget()).unwrap();
        assert_eq!(
            staged.stages.iter().map(Vec::len).sum::<usize>(),
            lin.ops.len()
        );
        let stage = |p: &PredInst| stage_of(&staged, |q| q == p).expect("distinct ops");
        lin.ops.iter().map(stage).collect()
    }

    fn konst(v: u32) -> Operand {
        Operand::Const(c3::Value::u32(v))
    }

    fn st_win(param: u16, index: Operand, v: u32) -> Inst {
        let val = konst(v);
        Inst::StWin { param, index, val }
    }

    fn ld_win(dst: u32, param: u16, index: Operand) -> Inst {
        let dst = RegId(dst);
        Inst::LdWin { dst, param, index }
    }

    const U32: c3::ScalarType = c3::ScalarType::U32;

    #[test]
    fn window_stores_to_one_element_keep_their_order() {
        let s = stages(vec![st_win(0, konst(0), 1), st_win(0, konst(0), 2)], vec![]);
        assert!(s[0] < s[1], "{s:?}");
    }

    #[test]
    fn window_load_follows_a_store_to_its_element() {
        let s = stages(
            vec![st_win(0, konst(3), 1), ld_win(0, 0, konst(3))],
            vec![U32],
        );
        assert!(s[0] < s[1], "{s:?}");
    }

    #[test]
    fn window_store_may_share_a_stage_with_an_earlier_load_but_not_precede_it() {
        // r0 = d[1]; g = r0 != 0; r1 = d[0] if g; d[0] = 7. The guarded
        // load waits for g (stage 1); the store depends on no register
        // and would sit in stage 0 but for the load before it.
        let g = RegId(1);
        let lin = LinearKernel {
            name: "k".into(),
            ops: vec![
                PredInst {
                    guard: None,
                    inst: ld_win(0, 0, konst(1)),
                },
                PredInst {
                    guard: None,
                    inst: Inst::Bin {
                        dst: g,
                        op: c3::BinOp::Ne,
                        a: Operand::Reg(RegId(0)),
                        b: konst(0),
                    },
                },
                PredInst {
                    guard: Some(g),
                    inst: ld_win(2, 0, konst(0)),
                },
                PredInst {
                    guard: None,
                    inst: st_win(0, konst(0), 7),
                },
            ],
            reg_tys: vec![U32, c3::ScalarType::Bool, U32],
        };
        let staged = allocate(&lin, &budget()).unwrap();
        let load = stage_of(&staged, |p| *p == lin.ops[2]).unwrap();
        let store = stage_of(&staged, |p| *p == lin.ops[3]).unwrap();
        assert_eq!((load, store), (1, 1));
    }

    #[test]
    fn dynamic_window_index_aliases_its_own_parameter_only() {
        let idx = Operand::Reg(RegId(0));
        let s = stages(
            vec![
                Inst::LdMeta {
                    dst: RegId(0),
                    field: ncl_ir::ir::MetaField::Seq,
                },
                st_win(0, idx, 1),      // waits for idx
                ld_win(1, 0, konst(5)), // any element of p0 may be the one written
                ld_win(2, 1, konst(5)), // p1 is another chunk
                st_win(0, konst(7), 2), // WAW with the dynamic store
                st_win(0, idx, 3),      // after every access of p0 so far
            ],
            vec![U32; 3],
        );
        assert_eq!(s, [0, 1, 2, 0, 2, 3]);
    }

    #[test]
    fn ext_and_fwd_accesses_are_ordered() {
        use ncl_ir::ir::{FwdKind, MetaField};
        let fwd = |kind| Inst::Fwd { kind, label: None };
        let s = stages(
            vec![
                Inst::StExt {
                    offset: 4,
                    ty: U32,
                    val: konst(1),
                },
                Inst::LdMeta {
                    dst: RegId(0),
                    field: MetaField::Ext(4, U32),
                },
                Inst::LdMeta {
                    dst: RegId(1),
                    field: MetaField::Ext(0, U32),
                },
                fwd(FwdKind::Drop),
                fwd(FwdKind::Bcast),
            ],
            vec![U32; 2],
        );
        assert_eq!(s, [0, 1, 0, 0, 1]);
    }

    /// The shipped NCP-R allreduce (`ncl_core::apps::allreduce_source`,
    /// replay filter on) at `win` elements per window, flattened.
    fn allreduce_linear(win: usize) -> LinearKernel {
        let src = format!(
            r#"
_net_ _at_("s1") int accum[{win}] = {{0}};
_net_ _at_("s1") unsigned count[1] = {{0}};
_net_ _at_("s1") _ctrl_ unsigned nworkers;
_net_ _out_ void allreduce(int *data) {{
    unsigned base = window.seq * window.len;
    if (window.replay) {{
        if (count[window.seq] != 0 && count[window.seq] % nworkers == 0) {{
            memcpy(data, &accum[base], window.len * 4);
            _reflect();
        }} else {{ _drop(); }}
    }} else {{
        for (unsigned i = 0; i < window.len; ++i)
            accum[base + i] += data[i];
        if (++count[window.seq] % nworkers == 0) {{
            memcpy(data, &accum[base], window.len * 4);
            _bcast();
        }} else {{ _drop(); }}
    }}
}}
"#
        );
        let checked = frontend(&src, "t.ncl").expect("frontend");
        let mut cfg = LoweringConfig::with_mask("allreduce", [win as u16]);
        let filter = ncl_ir::lower::ReplayFilter {
            senders: 4,
            slots: 1,
        };
        cfg.replay_filters.insert("allreduce".into(), filter);
        let mut m = lower(&checked, &cfg).expect("lower");
        ncl_ir::passes::optimize(&mut m);
        crate::lanes::split_lanes(&mut m);
        flatten(m.kernel("allreduce").unwrap(), None).expect("flatten")
    }

    /// Stage allocation costs O(ops): a window eight times wider (eight
    /// times the ops and the register banks) takes eight to ten times
    /// as long, and may take at most sixteen. With a scan of all ops
    /// per bank and of all earlier accesses per window access it took
    /// 23 to 30 times as long.
    #[test]
    fn allocation_cost_follows_the_op_count() {
        let best_of_three = |lin: &LinearKernel| {
            let runs = (0..3).map(|_| {
                let started = std::time::Instant::now();
                let staged = allocate(lin, &budget()).unwrap();
                assert_eq!(
                    staged.stages.iter().map(Vec::len).sum::<usize>(),
                    lin.ops.len()
                );
                started.elapsed()
            });
            runs.min().unwrap()
        };
        let (narrow, wide) = (allreduce_linear(256), allreduce_linear(2_048));
        assert!(wide.ops.len() > 7 * narrow.ops.len());
        let (t_narrow, t_wide) = (best_of_three(&narrow), best_of_three(&wide));
        let ratio = t_wide.as_secs_f64() / t_narrow.as_secs_f64();
        assert!(
            ratio < 16.0,
            "{} ops in {t_narrow:?}, {} ops in {t_wide:?}: {ratio:.1}x",
            narrow.ops.len(),
            wide.ops.len()
        );
    }

    #[test]
    fn capacity_splits_preserve_order() {
        let (lin, _) = linear(
            "_net_ _out_ void k(int *d) {\n\
               d[0] = 1; d[1] = 2; d[2] = 3; d[3] = 4; d[4] = 5; d[5] = 6;\n\
             }",
            "k",
            &[6],
        );
        let tight = AllocBudget {
            ops_per_stage: 2,
            tables_per_stage: 8,
            gateway_depth: GATEWAY_DEPTH,
        };
        let staged = allocate(&lin, &tight).unwrap();
        assert!(staged.stages.len() >= 3, "{staged:?}");
        for s in &staged.stages {
            assert!(s.len() <= 2);
        }
        let mut indices = Vec::new();
        for s in &staged.stages {
            for op in s {
                if let Inst::StWin { index, .. } = &op.inst {
                    indices.push(index.as_const().unwrap().bits());
                }
            }
        }
        let mut sorted = indices.clone();
        sorted.sort_unstable();
        assert_eq!(indices, sorted);
    }

    #[test]
    fn map_lookup_key_before_value_use() {
        let (lin, _) = linear(
            r#"
_net_ _at_("s1") ncl::Map<uint64_t, uint8_t, 4> Idx;
_net_ _at_("s1") bool Valid[4];
_net_ _out_ void k(uint64_t key) {
    if (auto *i = Idx[key]) { Valid[*i] = true; }
}
"#,
            "k",
            &[1],
        );
        let staged = allocate(&lin, &budget()).unwrap();
        let lookup = stage_of(&staged, |p| matches!(p.inst, Inst::MapGet { .. })).unwrap();
        let key_load = stage_of(&staged, |p| matches!(p.inst, Inst::LdWin { .. })).unwrap();
        let valid_write = stage_of(&staged, |p| matches!(p.inst, Inst::StReg { .. })).unwrap();
        assert!(key_load < lookup);
        assert!(lookup < valid_write);
    }

    #[test]
    fn fig4_fits_default_budget() {
        let (lin, _) = linear(
            r#"
_net_ _at_("s1") int accum[64] = {0};
_net_ _at_("s1") unsigned count[8] = {0};
_net_ _ctrl_ _at_("s1") unsigned nworkers;
_net_ _out_ void allreduce(int *data) {
    unsigned base = window.seq * window.len;
    for (unsigned i = 0; i < window.len; ++i)
        accum[base + i] += data[i];
    if (++count[window.seq] == nworkers) {
        memcpy(data, &accum[base], window.len * 4);
        count[window.seq] = 0; _bcast();
    } else { _drop(); }
}
"#,
            "allreduce",
            &[8],
        );
        let staged = allocate(&lin, &budget()).unwrap();
        assert!(
            staged.stages.len() <= 12,
            "{} stages: {staged:#?}",
            staged.stages.len()
        );
    }
}
