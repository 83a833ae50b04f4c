//! IR type definitions.

use c3::{BinOp, Label, ScalarType, UnOp, Value};
use ncl_lang::ast::KernelKind;
use ncl_lang::diag::Span;
use ncl_lang::sema::{ParamInfo, WindowExtLayout};
use std::fmt;

/// A virtual register. Registers are mutable scratch slots local to one
/// kernel execution (they become PHV metadata fields after codegen).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegId(pub u32);

/// A basic block index within a kernel.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// Index of a register-array global within [`Module::registers`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrId(pub u32);

/// Index of a control variable within [`Module::ctrls`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CtrlId(pub u32);

/// Index of a map within [`Module::maps`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MapId(pub u32);

macro_rules! fmt_delegate {
    ($ty:ident, $prefix:literal) => {
        impl fmt::Debug for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

fmt_delegate!(RegId, "%");
fmt_delegate!(BlockId, "bb");
fmt_delegate!(ArrId, "arr");
fmt_delegate!(CtrlId, "ctrl");
fmt_delegate!(MapId, "map");

/// An instruction operand: a virtual register or an immediate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Operand {
    /// Register value.
    Reg(RegId),
    /// Immediate constant.
    Const(Value),
}

impl Operand {
    /// The constant, if this operand is immediate.
    pub fn as_const(&self) -> Option<Value> {
        match self {
            Operand::Const(v) => Some(*v),
            Operand::Reg(_) => None,
        }
    }

    /// The register, if this operand is one.
    pub(crate) fn as_reg(&self) -> Option<RegId> {
        match self {
            Operand::Reg(r) => Some(*r),
            Operand::Const(_) => None,
        }
    }
}

impl From<Value> for Operand {
    fn from(v: Value) -> Self {
        Operand::Const(v)
    }
}

impl From<RegId> for Operand {
    fn from(r: RegId) -> Self {
        Operand::Reg(r)
    }
}

/// Builtin window/device metadata readable by kernels.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MetaField {
    /// `window.seq` (u32).
    Seq,
    /// `window.sender` (u16).
    Sender,
    /// `window.from` (u16).
    From,
    /// `window.len` — elements in chunk 0 (u16).
    Len,
    /// `window.nchunks` (u8).
    NChunks,
    /// `window.last` (bool).
    Last,
    /// An extended window-struct field at the given ext-block byte
    /// offset.
    Ext(u16, ScalarType),
    /// `location.id` — the executing device's id (u16).
    LocationId,
}

impl MetaField {
    /// The scalar type the field reads as.
    pub fn ty(self) -> ScalarType {
        match self {
            MetaField::Seq => ScalarType::U32,
            MetaField::Sender | MetaField::From | MetaField::Len | MetaField::LocationId => {
                ScalarType::U16
            }
            MetaField::NChunks => ScalarType::U8,
            MetaField::Last => ScalarType::Bool,
            MetaField::Ext(_, ty) => ty,
        }
    }
}

/// Forwarding decision kinds (mirrors [`c3::Forward`] without the label
/// payload, which lives on the instruction).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FwdKind {
    /// `_pass()` / `_pass(label)`.
    Pass,
    /// `_reflect()`.
    Reflect,
    /// `_bcast()`.
    Bcast,
    /// `_drop()`.
    Drop,
}

/// An IR instruction.
#[derive(Clone, PartialEq, Debug)]
pub enum Inst {
    /// `dst = a <op> b` (operands share a type; comparisons yield bool).
    Bin {
        /// Destination register.
        dst: RegId,
        /// Operator.
        op: BinOp,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `dst = <op> a`.
    Un {
        /// Destination register.
        dst: RegId,
        /// Operator.
        op: UnOp,
        /// Operand.
        a: Operand,
    },
    /// `dst = (ty) a`.
    Cast {
        /// Destination register.
        dst: RegId,
        /// Target type.
        ty: ScalarType,
        /// Operand.
        a: Operand,
    },
    /// `dst = cond ? a : b` (eager select; arms are pure).
    Select {
        /// Destination register.
        dst: RegId,
        /// Condition operand (bool).
        cond: Operand,
        /// Value when true.
        a: Operand,
        /// Value when false.
        b: Operand,
    },
    /// `dst = copy a` — materializes an operand (used by predication).
    Copy {
        /// Destination register.
        dst: RegId,
        /// Source operand.
        a: Operand,
    },
    /// Read element `index` of window-data parameter `param`.
    LdWin {
        /// Destination register.
        dst: RegId,
        /// Window parameter index (over non-`_ext_` params).
        param: u16,
        /// Element index within the chunk.
        index: Operand,
    },
    /// Write element `index` of window-data parameter `param`.
    StWin {
        /// Window parameter index.
        param: u16,
        /// Element index within the chunk.
        index: Operand,
        /// Value to store (already the element type).
        val: Operand,
    },
    /// Read builtin metadata.
    LdMeta {
        /// Destination register.
        dst: RegId,
        /// Which field.
        field: MetaField,
    },
    /// Write an extended window-struct field (travels with the window).
    StExt {
        /// Byte offset in the ext block.
        offset: u16,
        /// Field type.
        ty: ScalarType,
        /// Value to store.
        val: Operand,
    },
    /// Read switch register array element (outgoing kernels only).
    LdReg {
        /// Destination register.
        dst: RegId,
        /// Which array.
        arr: ArrId,
        /// Flattened element index.
        index: Operand,
    },
    /// Write switch register array element.
    StReg {
        /// Which array.
        arr: ArrId,
        /// Flattened element index.
        index: Operand,
        /// Value to store.
        val: Operand,
    },
    /// Read a control variable.
    LdCtrl {
        /// Destination register.
        dst: RegId,
        /// Which control variable.
        ctrl: CtrlId,
    },
    /// Map lookup: `found = key present`, `val = value or 0`.
    MapGet {
        /// Receives `true` on hit (bool).
        found: RegId,
        /// Receives the mapped value (or 0 on miss).
        val: RegId,
        /// Which map.
        map: MapId,
        /// Key operand.
        key: Operand,
    },
    /// Read element `index` of `_ext_` host parameter `param`
    /// (incoming kernels only).
    LdHost {
        /// Destination register.
        dst: RegId,
        /// Index over the kernel's `_ext_` parameters.
        param: u16,
        /// Element index.
        index: Operand,
    },
    /// Write element `index` of `_ext_` host parameter `param`.
    StHost {
        /// Index over the kernel's `_ext_` parameters.
        param: u16,
        /// Element index.
        index: Operand,
        /// Value to store.
        val: Operand,
    },
    /// Record a forwarding decision (last writer wins; default `_pass()`).
    Fwd {
        /// Decision kind.
        kind: FwdKind,
        /// Target label for `_pass("label")`.
        label: Option<Label>,
    },
    /// `dst = (current location == label)`; the versioning pass folds
    /// this to a constant per location module.
    Here {
        /// Destination register (bool).
        dst: RegId,
        /// The queried AND label.
        label: Label,
    },
}

impl Inst {
    /// The destination register, if the instruction defines one.
    pub fn dst(&self) -> Option<RegId> {
        match self {
            Inst::Bin { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Cast { dst, .. }
            | Inst::Select { dst, .. }
            | Inst::Copy { dst, .. }
            | Inst::LdWin { dst, .. }
            | Inst::LdMeta { dst, .. }
            | Inst::LdReg { dst, .. }
            | Inst::LdCtrl { dst, .. }
            | Inst::LdHost { dst, .. }
            | Inst::Here { dst, .. } => Some(*dst),
            Inst::MapGet { .. } => None, // defines two; see `dsts`
            _ => None,
        }
    }

    /// All destination registers.
    pub fn dsts(&self) -> Vec<RegId> {
        self.writes().collect()
    }

    /// [`Inst::dsts`] without allocating.
    pub(crate) fn writes(&self) -> impl Iterator<Item = RegId> {
        let regs = match self {
            Inst::MapGet { found, val, .. } => [Some(*found), Some(*val)],
            other => [other.dst(), None],
        };
        regs.into_iter().flatten()
    }

    /// All operands read by the instruction.
    pub fn operands(&self) -> Vec<Operand> {
        self.reads().collect()
    }

    /// [`Inst::operands`] without allocating.
    pub(crate) fn reads(&self) -> impl Iterator<Item = Operand> {
        let ops = match self {
            Inst::Bin { a, b, .. } => [Some(*a), Some(*b), None],
            Inst::Un { a, .. } | Inst::Cast { a, .. } | Inst::Copy { a, .. } => {
                [Some(*a), None, None]
            }
            Inst::Select { cond, a, b, .. } => [Some(*cond), Some(*a), Some(*b)],
            Inst::LdWin { index, .. } => [Some(*index), None, None],
            Inst::StWin { index, val, .. } => [Some(*index), Some(*val), None],
            Inst::LdMeta { .. } | Inst::LdCtrl { .. } | Inst::Here { .. } => [None; 3],
            Inst::StExt { val, .. } => [Some(*val), None, None],
            Inst::LdReg { index, .. } => [Some(*index), None, None],
            Inst::StReg { index, val, .. } => [Some(*index), Some(*val), None],
            Inst::MapGet { key, .. } => [Some(*key), None, None],
            Inst::LdHost { index, .. } => [Some(*index), None, None],
            Inst::StHost { index, val, .. } => [Some(*index), Some(*val), None],
            Inst::Fwd { .. } => [None; 3],
        };
        ops.into_iter().flatten()
    }

    /// Rewrites every read operand through `f` (used by const/copy
    /// propagation).
    pub(crate) fn map_operands(&mut self, mut f: impl FnMut(Operand) -> Operand) {
        match self {
            Inst::Bin { a, b, .. } => {
                *a = f(*a);
                *b = f(*b);
            }
            Inst::Un { a, .. } | Inst::Cast { a, .. } | Inst::Copy { a, .. } => *a = f(*a),
            Inst::Select { cond, a, b, .. } => {
                *cond = f(*cond);
                *a = f(*a);
                *b = f(*b);
            }
            Inst::LdWin { index, .. } => *index = f(*index),
            Inst::StWin { index, val, .. } => {
                *index = f(*index);
                *val = f(*val);
            }
            Inst::StExt { val, .. } => *val = f(*val),
            Inst::LdReg { index, .. } => *index = f(*index),
            Inst::StReg { index, val, .. } => {
                *index = f(*index);
                *val = f(*val);
            }
            Inst::MapGet { key, .. } => *key = f(*key),
            Inst::LdHost { index, .. } => *index = f(*index),
            Inst::StHost { index, val, .. } => {
                *index = f(*index);
                *val = f(*val);
            }
            Inst::LdMeta { .. } | Inst::LdCtrl { .. } | Inst::Here { .. } | Inst::Fwd { .. } => {}
        }
    }

    /// Whether the instruction has effects beyond defining registers
    /// (stores, forwarding). Pure instructions are eligible for DCE.
    pub(crate) fn has_effect(&self) -> bool {
        matches!(
            self,
            Inst::StWin { .. }
                | Inst::StExt { .. }
                | Inst::StReg { .. }
                | Inst::StHost { .. }
                | Inst::Fwd { .. }
        )
    }
}

/// A basic block: straight-line instructions plus a terminator.
#[derive(Clone, PartialEq, Debug)]
pub struct Block {
    /// Instructions in order.
    pub insts: Vec<Inst>,
    /// Control transfer out of the block.
    pub term: Terminator,
}

/// Block terminators.
#[derive(Clone, PartialEq, Debug)]
pub enum Terminator {
    /// Unconditional jump.
    Jmp(BlockId),
    /// Two-way branch on a boolean operand.
    Br {
        /// Condition.
        cond: Operand,
        /// Target when true.
        then: BlockId,
        /// Target when false.
        els: BlockId,
    },
    /// Kernel exit.
    Ret,
}

impl Terminator {
    /// Successor block ids.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jmp(b) => vec![*b],
            Terminator::Br { then, els, .. } => vec![*then, *els],
            Terminator::Ret => vec![],
        }
    }
}

/// A kernel in IR form.
#[derive(Clone, PartialEq, Debug)]
pub struct KernelIr {
    /// Kernel name.
    pub name: String,
    /// Outgoing (switch) or incoming (host).
    pub kind: KernelKind,
    /// `_at_` restriction.
    pub at: Option<Label>,
    /// Parameters (window data + `_ext_`), from sema.
    pub params: Vec<ParamInfo>,
    /// Elements per window for each window parameter (the mask used for
    /// compilation; `window.len` folds to `mask[0]`).
    pub mask: Vec<u16>,
    /// Basic blocks; entry is block 0.
    pub blocks: Vec<Block>,
    /// Number of virtual registers.
    pub nregs: u32,
    /// Register types (index = register id).
    pub reg_tys: Vec<ScalarType>,
    /// Declaration site in the source file ([`Module::file`]); default
    /// (all-zero) for hand-built IR.
    pub span: Span,
}

impl KernelIr {
    /// The block with the given id.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0 as usize]
    }

    /// Total instruction count (a code-size metric for E3/E4).
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Whether the CFG contains a cycle (loops that failed to unroll).
    pub fn has_loop(&self) -> bool {
        // Iterative DFS with colors.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Grey,
            Black,
        }
        let n = self.blocks.len();
        let mut color = vec![Color::White; n];
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        color[0] = Color::Grey;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let succs = self.blocks[node].term.successors();
            if *next < succs.len() {
                let s = succs[*next].0 as usize;
                *next += 1;
                match color[s] {
                    Color::Grey => return true,
                    Color::White => {
                        color[s] = Color::Grey;
                        stack.push((s, 0));
                    }
                    Color::Black => {}
                }
            } else {
                color[node] = Color::Black;
                stack.pop();
            }
        }
        false
    }

    /// Blocks in reverse post-order from the entry (unreachable blocks
    /// excluded).
    pub fn rpo(&self) -> Vec<BlockId> {
        let n = self.blocks.len();
        let mut visited = vec![false; n];
        let mut post = Vec::with_capacity(n);
        // Iterative post-order DFS.
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        visited[0] = true;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let succs = self.blocks[node].term.successors();
            if *next < succs.len() {
                let s = succs[*next].0 as usize;
                *next += 1;
                if !visited[s] {
                    visited[s] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(BlockId(node as u32));
                stack.pop();
            }
        }
        post.reverse();
        post
    }
}

/// A switch register-array declaration.
#[derive(Clone, PartialEq, Debug)]
pub struct RegisterDecl {
    /// Source name.
    pub name: String,
    /// Placement, if `_at_` was given.
    pub at: Option<Label>,
    /// Element type.
    pub elem: ScalarType,
    /// Dimensions (empty = scalar; stored flattened).
    pub dims: Vec<usize>,
    /// Explicit prefix of the flattened initial contents. Slots past
    /// `init.len()` start as zeros of `elem`; sema never stores trailing
    /// zeros, so an initializer costs what the source wrote, not
    /// [`RegisterDecl::len`]. Every consumer pads on read.
    pub init: Vec<Value>,
    /// Declaration site in the source file ([`Module::file`]).
    pub span: Span,
}

impl RegisterDecl {
    /// Flattened element count.
    pub fn len(&self) -> usize {
        self.dims.iter().product::<usize>().max(1)
    }

    /// True for zero-dimensional (scalar) registers.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// A control-variable declaration.
#[derive(Clone, PartialEq, Debug)]
pub struct CtrlDecl {
    /// Source name.
    pub name: String,
    /// Placement (required by sema).
    pub at: Option<Label>,
    /// Type.
    pub ty: ScalarType,
    /// Initial value.
    pub init: Value,
    /// Declaration site in the source file ([`Module::file`]).
    pub span: Span,
}

/// A map declaration.
#[derive(Clone, PartialEq, Debug)]
pub struct MapDecl {
    /// Source name.
    pub name: String,
    /// Placement (required by sema).
    pub at: Option<Label>,
    /// Key type.
    pub key: ScalarType,
    /// Value type.
    pub value: ScalarType,
    /// Capacity.
    pub capacity: usize,
    /// Declaration site in the source file ([`Module::file`]).
    pub span: Span,
}

/// An IR module: all kernels and device state of one program, optionally
/// specialized to a single AND location by the versioning pass.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Module {
    /// Program name (diagnostics, emitted P4 preamble).
    pub name: String,
    /// Source file the module was lowered from (anchors the spans on
    /// kernels and declarations; empty for hand-built IR).
    pub file: String,
    /// `Some(label)` after versioning; `None` for the generic module.
    pub location: Option<Label>,
    /// Register arrays (stable indices across versions).
    pub registers: Vec<RegisterDecl>,
    /// Control variables.
    pub ctrls: Vec<CtrlDecl>,
    /// Maps.
    pub maps: Vec<MapDecl>,
    /// Kernels.
    pub kernels: Vec<KernelIr>,
    /// Window extension layout (shared with the runtime).
    pub window_ext: WindowExtLayout,
}

impl Module {
    /// Finds a kernel by name.
    pub fn kernel(&self, name: &str) -> Option<&KernelIr> {
        self.kernels.iter().find(|k| k.name == name)
    }

    /// Whether a placed declaration is present at this module's location.
    pub fn placed_here(&self, at: &Option<Label>) -> bool {
        match (at, &self.location) {
            (None, _) => true,
            (Some(_), None) => true, // generic module sees everything
            (Some(a), Some(l)) => a == l,
        }
    }
}

// ---------------------------------------------------------------------
// Pretty printing (IR dumps for debugging and the compiler bench)
// ---------------------------------------------------------------------

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "module {} @ {}",
            self.name,
            self.location
                .as_ref()
                .map(|l| l.to_string())
                .unwrap_or_else(|| "<generic>".into())
        )?;
        for r in &self.registers {
            writeln!(f, "  register {} : {}x{}", r.name, r.elem, r.len())?;
        }
        for c in &self.ctrls {
            writeln!(f, "  ctrl {} : {}", c.name, c.ty)?;
        }
        for m in &self.maps {
            writeln!(
                f,
                "  map {} : {} -> {} [{}]",
                m.name, m.key, m.value, m.capacity
            )?;
        }
        for k in &self.kernels {
            write!(f, "{k}")?;
        }
        Ok(())
    }
}

impl fmt::Display for KernelIr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "  kernel {} ({:?})", self.name, self.kind)?;
        for (i, b) in self.blocks.iter().enumerate() {
            writeln!(f, "    bb{i}:")?;
            for inst in &b.insts {
                writeln!(f, "      {inst:?}")?;
            }
            writeln!(f, "      {:?}", b.term)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_kernel(blocks: Vec<Block>) -> KernelIr {
        KernelIr {
            name: "k".into(),
            kind: KernelKind::Outgoing,
            at: None,
            params: vec![],
            mask: vec![],
            blocks,
            nregs: 0,
            reg_tys: vec![],
            span: Span::default(),
        }
    }

    #[test]
    fn loop_detection() {
        let looping = empty_kernel(vec![
            Block {
                insts: vec![],
                term: Terminator::Jmp(BlockId(1)),
            },
            Block {
                insts: vec![],
                term: Terminator::Br {
                    cond: Operand::Const(Value::bool(true)),
                    then: BlockId(0),
                    els: BlockId(2),
                },
            },
            Block {
                insts: vec![],
                term: Terminator::Ret,
            },
        ]);
        assert!(looping.has_loop());

        let acyclic = empty_kernel(vec![
            Block {
                insts: vec![],
                term: Terminator::Br {
                    cond: Operand::Const(Value::bool(true)),
                    then: BlockId(1),
                    els: BlockId(2),
                },
            },
            Block {
                insts: vec![],
                term: Terminator::Jmp(BlockId(2)),
            },
            Block {
                insts: vec![],
                term: Terminator::Ret,
            },
        ]);
        assert!(!acyclic.has_loop());
    }

    #[test]
    fn rpo_orders_entry_first() {
        let k = empty_kernel(vec![
            Block {
                insts: vec![],
                term: Terminator::Br {
                    cond: Operand::Const(Value::bool(true)),
                    then: BlockId(2),
                    els: BlockId(1),
                },
            },
            Block {
                insts: vec![],
                term: Terminator::Jmp(BlockId(3)),
            },
            Block {
                insts: vec![],
                term: Terminator::Jmp(BlockId(3)),
            },
            Block {
                insts: vec![],
                term: Terminator::Ret,
            },
        ]);
        let rpo = k.rpo();
        assert_eq!(rpo[0], BlockId(0));
        assert_eq!(*rpo.last().unwrap(), BlockId(3));
        assert_eq!(rpo.len(), 4);
    }

    #[test]
    fn rpo_skips_unreachable() {
        let k = empty_kernel(vec![
            Block {
                insts: vec![],
                term: Terminator::Ret,
            },
            Block {
                insts: vec![],
                term: Terminator::Ret,
            },
        ]);
        assert_eq!(k.rpo(), vec![BlockId(0)]);
    }

    #[test]
    fn inst_operand_mapping() {
        let mut i = Inst::Bin {
            dst: RegId(0),
            op: BinOp::Add,
            a: Operand::Reg(RegId(1)),
            b: Operand::Const(Value::u32(2)),
        };
        i.map_operands(|o| match o {
            Operand::Reg(RegId(1)) => Operand::Const(Value::u32(7)),
            other => other,
        });
        assert_eq!(
            i.operands(),
            vec![Operand::Const(Value::u32(7)), Operand::Const(Value::u32(2))]
        );
    }

    #[test]
    fn effects_classification() {
        assert!(Inst::Fwd {
            kind: FwdKind::Drop,
            label: None
        }
        .has_effect());
        assert!(!Inst::Copy {
            dst: RegId(0),
            a: Operand::Const(Value::u32(1))
        }
        .has_effect());
        assert!(Inst::StReg {
            arr: ArrId(0),
            index: Operand::Const(Value::u32(0)),
            val: Operand::Const(Value::u32(0)),
        }
        .has_effect());
    }

    #[test]
    fn mapget_defines_two() {
        let i = Inst::MapGet {
            found: RegId(1),
            val: RegId(2),
            map: MapId(0),
            key: Operand::Const(Value::u64(5)),
        };
        assert_eq!(i.dsts(), vec![RegId(1), RegId(2)]);
        assert_eq!(i.dst(), None);
    }

    #[test]
    fn placed_here_semantics() {
        let mut m = Module::default();
        assert!(m.placed_here(&None));
        assert!(m.placed_here(&Some(Label::new("s1"))));
        m.location = Some(Label::new("s1"));
        assert!(m.placed_here(&Some(Label::new("s1"))));
        assert!(!m.placed_here(&Some(Label::new("s2"))));
        assert!(m.placed_here(&None));
    }
}
