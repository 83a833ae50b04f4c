//! The compiled fast-path executor for NCL kernels.
//!
//! [`CompiledKernel::compile`] flattens the block-structured [`KernelIr`]
//! into a linear micro-op program: jump targets become instruction
//! offsets, window/host parameter types and register/ctrl/map ids are
//! resolved to dense indices at compile time, and a forward type
//! dataflow over the virtual register file proves operand types so the
//! hot loop can run width-specialized ALU ops without the dynamic type
//! dispatch the tree interpreter pays per instruction.
//!
//! The program executes against a reusable [`ExecScratch`] — register
//! file plus the empty host-memory/switch-state views the interpreter
//! allocates fresh on every call — so steady-state window processing
//! performs **zero heap allocations**.
//!
//! The tree interpreter ([`crate::interp::Interpreter`]) stays the
//! semantic oracle: for every kernel, window, and device state,
//! `CompiledKernel` must produce bit-identical windows, switch state,
//! forwarding decisions, and errors. The edge cases this implies are
//! inherited wholesale:
//!
//! * window-data reads out of chunk bounds yield 0; writes are dropped;
//! * register-array indices wrap modulo the array length, and accessing
//!   an array not placed at this location errors *only if the access
//!   executes*;
//! * map misses read as 0 with the hit bit clear, and the value register
//!   keeps its current dynamic type;
//! * the forwarding decision defaults to `_pass()`; the last executed
//!   `Fwd` wins;
//! * `_here()` consults the device state at run time (state location can
//!   change between runs);
//! * the step budget counts instructions plus terminators. Kernels whose
//!   CFG is acyclic and shorter than the budget provably cannot exhaust
//!   it, and for those the counter is elided from the loop entirely.

use crate::interp::{HostMemory, InterpError, SwitchState};
use crate::ir::*;
use c3::{
    each_width, BinOp, Chunk, Forward, Label, Lane, RegArray, ScalarType, UnOp, Value, Window,
};

/// Default step budget, matching [`crate::interp::Interpreter`].
const DEFAULT_STEP_LIMIT: usize = 1_000_000;

/// A micro-op operand: a dense register index or an immediate.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Opnd {
    Reg(u32),
    Const(Value),
}

impl Opnd {
    #[inline(always)]
    fn read(self, regs: &[Value]) -> Value {
        match self {
            Opnd::Reg(r) => regs[r as usize],
            Opnd::Const(v) => v,
        }
    }
}

/// Signedness-resolved comparison predicates (width handled by the
/// canonical bit representation: `Value` never carries stale high bits).
#[derive(Clone, Copy, PartialEq, Debug)]
enum CmpOp {
    Eq,
    Ne,
    LtU,
    LeU,
    GtU,
    GeU,
    LtS,
    LeS,
    GtS,
    GeS,
}

/// One linear micro-op. Jump targets are instruction offsets.
#[derive(Clone, Debug)]
enum Op {
    // -------- type-specialized ALU (emitted when the dataflow proves
    // both operand types; bit-identical to `Value::binop` on same-typed
    // operands because `Value::new` re-masks and bool-normalizes) -------
    Add {
        dst: u32,
        ty: ScalarType,
        a: Opnd,
        b: Opnd,
    },
    Sub {
        dst: u32,
        ty: ScalarType,
        a: Opnd,
        b: Opnd,
    },
    Mul {
        dst: u32,
        ty: ScalarType,
        a: Opnd,
        b: Opnd,
    },
    BitAnd {
        dst: u32,
        ty: ScalarType,
        a: Opnd,
        b: Opnd,
    },
    BitOr {
        dst: u32,
        ty: ScalarType,
        a: Opnd,
        b: Opnd,
    },
    BitXor {
        dst: u32,
        ty: ScalarType,
        a: Opnd,
        b: Opnd,
    },
    Shl {
        dst: u32,
        ty: ScalarType,
        width: u32,
        a: Opnd,
        b: Opnd,
    },
    ShrU {
        dst: u32,
        ty: ScalarType,
        width: u32,
        a: Opnd,
        b: Opnd,
    },
    ShrS {
        dst: u32,
        ty: ScalarType,
        width: u32,
        a: Opnd,
        b: Opnd,
    },
    Cmp {
        dst: u32,
        op: CmpOp,
        ext: u32,
        a: Opnd,
        b: Opnd,
    },
    // -------- generic ALU fallback (dynamic types) --------
    Bin {
        dst: u32,
        op: BinOp,
        a: Opnd,
        b: Opnd,
    },
    Un {
        dst: u32,
        op: UnOp,
        a: Opnd,
    },
    Cast {
        dst: u32,
        ty: ScalarType,
        a: Opnd,
    },
    Select {
        dst: u32,
        cond: Opnd,
        a: Opnd,
        b: Opnd,
    },
    Copy {
        dst: u32,
        a: Opnd,
    },
    // -------- window data (parameter element type pre-resolved) --------
    LdWin {
        dst: u32,
        param: u32,
        ty: ScalarType,
        index: Opnd,
    },
    StWin {
        param: u32,
        ty: ScalarType,
        index: Opnd,
        val: Opnd,
    },
    /// Constant-index chunk read: element index and the exclusive byte
    /// bound pre-multiplied, so the bounds check is a single compare
    /// (no division) and the load needs no index arithmetic.
    LdWinC {
        dst: u32,
        param: u32,
        ty: ScalarType,
        idx: u32,
        end: u32,
    },
    /// Constant-index chunk write, same precomputation.
    StWinC {
        param: u32,
        ty: ScalarType,
        idx: u32,
        end: u32,
        val: Opnd,
    },
    // -------- metadata (one op per field: no field dispatch in the loop)
    LdSeq {
        dst: u32,
    },
    LdSender {
        dst: u32,
    },
    LdFrom {
        dst: u32,
    },
    LdLen {
        dst: u32,
        ty: ScalarType,
    },
    LdNChunks {
        dst: u32,
    },
    LdLast {
        dst: u32,
    },
    LdExt {
        dst: u32,
        offset: u32,
        ty: ScalarType,
    },
    LdLocationId {
        dst: u32,
    },
    StExt {
        offset: u32,
        ty: ScalarType,
        val: Opnd,
    },
    // -------- switch state --------
    LdReg {
        dst: u32,
        arr: u32,
        index: Opnd,
    },
    StReg {
        arr: u32,
        index: Opnd,
        val: Opnd,
    },
    // Module-resolved register access: the placement check and the
    // array length are compile-time facts (`compile_for` only), so the
    // hot loop skips the emptiness check and the modulo (pre-wrapped
    // constant index, or a mask for power-of-two lengths). Stores cast
    // to the array's declared element type, as every store does.
    /// Constant index, pre-wrapped modulo the array length.
    LdRegC {
        dst: u32,
        arr: u32,
        idx: u32,
    },
    /// Constant index store.
    StRegC {
        arr: u32,
        idx: u32,
        val: Opnd,
    },
    /// Dynamic index, power-of-two length: wrap with a mask.
    LdRegM {
        dst: u32,
        arr: u32,
        mask: u32,
        index: Opnd,
    },
    /// Dynamic masked store.
    StRegM {
        arr: u32,
        mask: u32,
        index: Opnd,
        val: Opnd,
    },
    /// Dynamic index, arbitrary known length: wrap with `%`.
    LdRegL {
        dst: u32,
        arr: u32,
        len: u32,
        index: Opnd,
    },
    /// Dynamic store with known length.
    StRegL {
        arr: u32,
        len: u32,
        index: Opnd,
        val: Opnd,
    },
    LdCtrl {
        dst: u32,
        ctrl: u32,
    },
    MapGet {
        found: u32,
        val: u32,
        map: u32,
        key: Opnd,
    },
    /// Access to state the module provably does not place here: the
    /// placement check hoisted to compile time (fires only if executed).
    NotPlaced {
        what: &'static str,
    },
    // -------- host memory (incoming kernels) --------
    LdHost {
        dst: u32,
        param: u32,
        ty: ScalarType,
        index: Opnd,
    },
    StHost {
        param: u32,
        index: Opnd,
        val: Opnd,
    },
    // -------- forwarding --------
    FwdPass,
    FwdPassTo {
        label: Label,
    },
    FwdReflect,
    FwdBcast,
    FwdDrop,
    Here {
        dst: u32,
        label: Label,
    },
    // -------- fused element-wise runs (see [`VecOp`]) --------
    /// `arr[(base+c) & amask] += win[param][c]` for a run of `n` groups.
    VecAccum(Box<VecOp>),
    /// `win[param][c] = arr[(base+c) & amask]` for a run of `n` groups.
    VecRegToWin(Box<VecOp>),
    /// `arr[(base+c) & amask] = win[param][c]` for a run of `n` groups.
    VecWinToReg(Box<VecOp>),
    // -------- control flow (targets are instruction offsets) --------
    Jmp {
        target: u32,
    },
    Br {
        cond: Opnd,
        then: u32,
        els: u32,
    },
    /// Fused compare-and-branch (one dispatch instead of two). Still
    /// writes `dst`: later blocks may read the compare result.
    CmpBr {
        dst: u32,
        op: CmpOp,
        ext: u32,
        a: Opnd,
        b: Opnd,
        then: u32,
        els: u32,
    },
    Ret,
}

/// A fused run of unrolled element-wise groups, the shape the loop
/// unroller leaves behind for `accum[base+i] += data[i]`-style bodies:
/// repeated `index-add / LdReg / LdWin / Add / StReg` (or the two copy
/// directions) with consecutive constant chunk indices. One dispatch
/// executes the whole run as a tight native loop; the intermediate
/// virtual registers are elided entirely (fusion proves nothing outside
/// the run reads them).
///
/// Iteration `i` touches chunk element `c = idx0 + i` and register slot
/// `((base + c) & imask) & amask`, mirroring the scalar ops bit for
/// bit. When `head_cost < cost`, the first group has no leading index
/// add (the unroller uses the base register directly), so iteration 0
/// uses the base bits unmasked, exactly as the scalar `LdReg`/`StReg`
/// would.
///
/// Step accounting stays exact under `counted`: the run charges the
/// same per-instruction budget the interpreter would, and on exhaustion
/// performs exactly the stores whose scalar counterparts would have
/// executed before the limit hit (each group's store is its last
/// micro-op, and loads/ALU sub-ops only write elided registers).
#[derive(Clone, Debug)]
pub(crate) struct VecOp {
    pub(crate) param: u32,
    /// Chunk element type.
    pub(crate) wty: ScalarType,
    /// First chunk element index.
    pub(crate) idx0: u32,
    /// Number of groups in the run.
    pub(crate) n: u32,
    pub(crate) arr: u32,
    /// Register slot mask (power-of-two array length minus one).
    pub(crate) amask: u32,
    /// Virtual register holding the base index.
    pub(crate) base: u32,
    /// Width mask of the index-add type.
    pub(crate) imask: u64,
    /// Accumulate type (`VecAccum` only; both operands proven).
    pub(crate) aty: ScalarType,
    /// Interpreter steps per full group.
    pub(crate) cost: u32,
    /// Steps of the first group (one less than `cost` when headless).
    pub(crate) head_cost: u32,
}

impl VecOp {
    /// Register slot for iteration `i` (chunk element `idx0 + i`),
    /// mirroring the scalar index add: iteration 0 of a headless run
    /// uses the base bits without the index-type mask, exactly as the
    /// scalar `LdReg`/`StReg` reads the base register directly.
    #[inline(always)]
    pub(crate) fn slot(&self, base_bits: u64, i: u32) -> usize {
        let k = if i == 0 && self.head_cost < self.cost {
            base_bits
        } else {
            base_bits.wrapping_add((self.idx0 + i) as u64) & self.imask
        };
        k as usize & self.amask as usize
    }
}

/// Reads chunk element `cc` as a `ty` value; out of bounds (or no chunk)
/// reads zero — the `LdWin` rule, shared with the fused runs.
#[inline(always)]
fn chunk_elem(chunk: Option<&Chunk>, ty: ScalarType, cc: usize) -> Value {
    chunk
        .filter(|c| cc < c.elems(ty))
        .map_or(Value::zero(ty), |c| c.get(ty, cc))
}

/// Loads chunk element `cc` as a big-endian lane; out of bounds (or no
/// chunk, passed as empty `data`) reads zero.
#[inline(always)]
fn lane_elem<L: Lane>(data: &[u8], cc: usize) -> L {
    data.get(cc * L::N..(cc + 1) * L::N)
        .map_or(L::from_bits(0), L::load_be)
}

/// Whether a window-side type and a register array agree, so a run over
/// them is one width-monomorphic lane loop. `bool` lanes stay out of the
/// loops that take window bytes in (their stores normalise to 0/1).
pub(crate) fn lane_typed(wty: ScalarType, arr: &RegArray) -> bool {
    wty == arr.elem() && wty != ScalarType::Bool
}

/// `arr[slot] += win[c]` over a fused run. With `simd`, the ncvec tier
/// executes the lane-packable body (see [`crate::ncvec`]); otherwise —
/// and for the run's head and ragged tail — the scalar loops do.
fn vec_accum(
    v: &VecOp,
    m: u32,
    base_bits: u64,
    arr: &mut RegArray,
    chunk: Option<&Chunk>,
    simd: bool,
) {
    if simd && crate::ncvec::accum(v, m, base_bits, arr, chunk) {
        return;
    }
    vec_accum_scalar(v, 0..m, base_bits, arr, chunk);
}

/// The scalar accumulate loop over iterations `r` of a fused run; the
/// semantic reference the ncvec tier's head/tail epilogues reuse. When
/// chunk, accumulate and slot types agree it adds big-endian lanes
/// straight from the window payload; mixed types take `get`/`set`.
pub(crate) fn vec_accum_scalar(
    v: &VecOp,
    r: std::ops::Range<u32>,
    base_bits: u64,
    arr: &mut RegArray,
    chunk: Option<&Chunk>,
) {
    if v.wty == v.aty && lane_typed(v.wty, arr) {
        let data = chunk.map_or(&[][..], |c| &c.data);
        return each_width!(arr.lanes_mut(), a => for i in r {
            let slot = v.slot(base_bits, i);
            a[slot] = a[slot].add(lane_elem(data, (v.idx0 + i) as usize));
        });
    }
    for i in r {
        let w = chunk_elem(chunk, v.wty, (v.idx0 + i) as usize);
        let slot = v.slot(base_bits, i);
        let bits = arr.get(slot).bits().wrapping_add(w.bits());
        arr.set(slot, Value::new(v.aty, bits));
    }
}

/// `win[c] = arr[slot]` over a fused run. A missing chunk drops every
/// store, exactly like the scalar `StWin`.
fn vec_reg_to_win(
    v: &VecOp,
    m: u32,
    base_bits: u64,
    arr: &RegArray,
    chunk: Option<&mut Chunk>,
    simd: bool,
) {
    let Some(c) = chunk else { return };
    if simd && crate::ncvec::reg_to_win(v, m, base_bits, arr, c) {
        return;
    }
    vec_reg_to_win_scalar(v, 0..m, base_bits, arr, c);
}

/// The scalar store loop over iterations `r` of a fused run: a lane
/// copy when the slot type is the window's (`bool` included — stored
/// lanes are already 0/1), a cast per element otherwise.
pub(crate) fn vec_reg_to_win_scalar(
    v: &VecOp,
    r: std::ops::Range<u32>,
    base_bits: u64,
    arr: &RegArray,
    c: &mut Chunk,
) {
    if v.wty == arr.elem() {
        let n = v.wty.size();
        return each_width!(arr.lanes(), a => for i in r {
            let cc = (v.idx0 + i) as usize;
            if let Some(dst) = c.data.get_mut(cc * n..(cc + 1) * n) {
                a[v.slot(base_bits, i)].store_be(dst);
            }
        });
    }
    for i in r {
        let cc = (v.idx0 + i) as usize;
        if cc < c.elems(v.wty) {
            c.set(v.wty, cc, arr.get(v.slot(base_bits, i)).cast(v.wty));
        }
    }
}

/// `arr[slot] = win[c]` over a fused run.
fn vec_win_to_reg(
    v: &VecOp,
    m: u32,
    base_bits: u64,
    arr: &mut RegArray,
    chunk: Option<&Chunk>,
    simd: bool,
) {
    if simd && crate::ncvec::win_to_reg(v, m, base_bits, arr, chunk) {
        return;
    }
    vec_win_to_reg_scalar(v, 0..m, base_bits, arr, chunk);
}

/// The scalar broadcast-read loop over iterations `r` of a fused run.
pub(crate) fn vec_win_to_reg_scalar(
    v: &VecOp,
    r: std::ops::Range<u32>,
    base_bits: u64,
    arr: &mut RegArray,
    chunk: Option<&Chunk>,
) {
    if lane_typed(v.wty, arr) {
        let data = chunk.map_or(&[][..], |c| &c.data);
        return each_width!(arr.lanes_mut(), a => for i in r {
            a[v.slot(base_bits, i)] = lane_elem(data, (v.idx0 + i) as usize);
        });
    }
    for i in r {
        let w = chunk_elem(chunk, v.wty, (v.idx0 + i) as usize);
        arr.set(v.slot(base_bits, i), w);
    }
}

/// Reusable execution scratch: the per-run state the tree interpreter
/// allocates fresh on every call. Steady-state reuse performs no heap
/// allocation (the register file retains its capacity; the spare
/// state/host views stay empty by construction).
#[derive(Debug, Default)]
pub struct ExecScratch {
    regs: Vec<Value>,
    spare_state: SwitchState,
    spare_host: HostMemory,
}

impl ExecScratch {
    /// A fresh scratch. One per execution site; reuse across runs.
    pub fn new() -> Self {
        ExecScratch::default()
    }
}

/// What the type dataflow knows about a virtual register at a point.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Ty {
    Known(ScalarType),
    Any,
}

impl Ty {
    fn join(self, other: Ty) -> Ty {
        match (self, other) {
            (Ty::Known(a), Ty::Known(b)) if a == b => self,
            _ => Ty::Any,
        }
    }
}

/// A [`KernelIr`] lowered to a linear, slot-resolved micro-op program.
#[derive(Clone, Debug)]
pub struct CompiledKernel {
    /// Kernel name (diagnostics).
    pub name: String,
    ops: Vec<Op>,
    /// Typed-zero image of the register file: the per-run reset is one
    /// memcpy instead of a per-register constructor loop.
    zero_regs: Vec<Value>,
    step_limit: usize,
    has_loop: bool,
    /// Interpreter-visible step count of a full straight-line execution
    /// (fused ops cover several interpreter steps each).
    interp_len: usize,
    /// Elide the step counter when the CFG is acyclic and shorter than
    /// the budget (it provably cannot exhaust it).
    counted: bool,
    /// Offer fused runs to the ncvec SIMD tier (default). The tier still
    /// falls back per run — and bit-identically — when the run's types
    /// are mixed or its slots do not pack (see [`crate::ncvec`]).
    simd: bool,
}

/// Compile-time context resolving state types/placement from a module.
/// Per-array facts are resolved once per compile, so lowering costs
/// O(kernel) however large the register file and its initializers are.
struct ModuleCtx<'a> {
    module: &'a Module,
    /// Indexed by [`ArrId`].
    arrays: Vec<ArrayFacts>,
}

/// What lowering needs to know about one register array.
struct ArrayFacts {
    /// Whether the module places the array at its location.
    placed: bool,
    /// Flattened slot count.
    len: usize,
}

impl<'a> ModuleCtx<'a> {
    fn new(module: &'a Module) -> Self {
        let arrays = module
            .registers
            .iter()
            .map(|decl| ArrayFacts {
                placed: module.placed_here(&decl.at),
                len: decl.len(),
            })
            .collect();
        ModuleCtx { module, arrays }
    }

    fn array(&self, arr: &ArrId) -> &ArrayFacts {
        &self.arrays[arr.0 as usize]
    }
}

impl CompiledKernel {
    /// Lowers a kernel without module context. State accesses keep
    /// their dynamic placement checks and map/ctrl/array element types
    /// are treated as unknown (the generic ALU ops handle them).
    pub fn compile(kernel: &KernelIr) -> Self {
        Self::build(kernel, None)
    }

    /// Lowers a kernel with its module: array/ctrl element types feed
    /// the type dataflow, and accesses to state the module does not
    /// place at its location compile to a hoisted placement error.
    /// Costs O(kernel): nothing here reads a register initializer.
    ///
    /// The caller must run the result against switch state built by
    /// [`SwitchState::from_module`] on the *same* module, which is what
    /// the `(kernel, location)` caches in the runtime do.
    pub fn compile_for(kernel: &KernelIr, module: &Module) -> Self {
        Self::build(kernel, Some(ModuleCtx::new(module)))
    }

    /// Overrides the step budget (default one million, matching the
    /// interpreter) and recomputes whether the loop needs a counter.
    pub fn with_step_limit(mut self, limit: usize) -> Self {
        self.step_limit = limit;
        self.counted = self.has_loop || self.interp_len > limit;
        self
    }

    /// Enables or disables the ncvec SIMD tier for this kernel's fused
    /// runs (enabled by default). Disabling pins the scalar micro-op
    /// loops — the reference the differential harness compares against
    /// and the baseline E13 measures.
    pub fn with_simd(mut self, simd: bool) -> Self {
        self.simd = simd;
        self
    }

    /// Whether this kernel offers fused runs to the ncvec SIMD tier.
    pub fn simd(&self) -> bool {
        self.simd
    }

    /// Number of fused element-wise runs (`VecAccum`/`VecRegToWin`/
    /// `VecWinToReg`) in the program — the ops the ncvec tier can
    /// accelerate. Zero means the SIMD tier degenerates to the plain
    /// micro-op fast path for this kernel.
    pub fn vec_runs(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| {
                matches!(
                    op,
                    Op::VecAccum(_) | Op::VecRegToWin(_) | Op::VecWinToReg(_)
                )
            })
            .count()
    }

    /// Number of micro-ops in the program.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Interpreter-equivalent step count of a full straight-line
    /// execution: fused runs count every interpreter step they replace,
    /// so this is the number the tree-walking oracle would charge — and
    /// the number every execution tier reports in telemetry (`uops` in
    /// nctel hop records), independent of how many micro-ops the run
    /// fused into or which tier executed it.
    pub fn interp_steps(&self) -> usize {
        self.interp_len
    }

    /// True when the program is empty (never: `Ret` is always present).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Runs an outgoing kernel on a window at a switch; mirrors
    /// [`crate::interp::Interpreter::run_outgoing`].
    pub fn run_outgoing(
        &self,
        window: &mut Window,
        state: &mut SwitchState,
        scratch: &mut ExecScratch,
    ) -> Result<Forward, InterpError> {
        let mut host = std::mem::take(&mut scratch.spare_host);
        let result = self.run(window, state, &mut host, &mut scratch.regs);
        scratch.spare_host = host;
        result
    }

    /// Runs an incoming kernel on a window at a host; mirrors
    /// [`crate::interp::Interpreter::run_incoming`].
    pub fn run_incoming(
        &self,
        window: &mut Window,
        host: &mut HostMemory,
        scratch: &mut ExecScratch,
    ) -> Result<(), InterpError> {
        let mut state = std::mem::take(&mut scratch.spare_state);
        let result = self.run(window, &mut state, host, &mut scratch.regs);
        scratch.spare_state = state;
        result.map(|_| ())
    }

    fn run(
        &self,
        window: &mut Window,
        state: &mut SwitchState,
        host: &mut HostMemory,
        regs: &mut Vec<Value>,
    ) -> Result<Forward, InterpError> {
        // Reset the register file to typed zeros without reallocating.
        regs.clear();
        regs.extend_from_slice(&self.zero_regs);
        let regs = &mut regs[..];

        let mut decision = Forward::Pass;
        let mut pc = 0usize;
        let mut steps = 0usize;
        loop {
            if self.counted {
                steps += 1;
                if steps > self.step_limit {
                    return Err(InterpError::StepLimit);
                }
            }
            match &self.ops[pc] {
                Op::Add { dst, ty, a, b } => {
                    let bits = a.read(regs).bits().wrapping_add(b.read(regs).bits());
                    regs[*dst as usize] = Value::new(*ty, bits);
                }
                Op::Sub { dst, ty, a, b } => {
                    let bits = a.read(regs).bits().wrapping_sub(b.read(regs).bits());
                    regs[*dst as usize] = Value::new(*ty, bits);
                }
                Op::Mul { dst, ty, a, b } => {
                    let bits = a.read(regs).bits().wrapping_mul(b.read(regs).bits());
                    regs[*dst as usize] = Value::new(*ty, bits);
                }
                Op::BitAnd { dst, ty, a, b } => {
                    let bits = a.read(regs).bits() & b.read(regs).bits();
                    regs[*dst as usize] = Value::new(*ty, bits);
                }
                Op::BitOr { dst, ty, a, b } => {
                    let bits = a.read(regs).bits() | b.read(regs).bits();
                    regs[*dst as usize] = Value::new(*ty, bits);
                }
                Op::BitXor { dst, ty, a, b } => {
                    let bits = a.read(regs).bits() ^ b.read(regs).bits();
                    regs[*dst as usize] = Value::new(*ty, bits);
                }
                Op::Shl {
                    dst,
                    ty,
                    width,
                    a,
                    b,
                } => {
                    let sh = b.read(regs).bits() as u32 % width;
                    regs[*dst as usize] = Value::new(*ty, a.read(regs).bits().wrapping_shl(sh));
                }
                Op::ShrU {
                    dst,
                    ty,
                    width,
                    a,
                    b,
                } => {
                    let sh = b.read(regs).bits() as u32 % width;
                    regs[*dst as usize] = Value::new(*ty, a.read(regs).bits() >> sh);
                }
                Op::ShrS {
                    dst,
                    ty,
                    width,
                    a,
                    b,
                } => {
                    let sh = b.read(regs).bits() as u32 % width;
                    let ext = 64 - width;
                    let x = ((a.read(regs).bits() << ext) as i64) >> ext; // sign-extend
                    regs[*dst as usize] = Value::new(*ty, (x >> sh) as u64);
                }
                Op::Cmp { dst, op, ext, a, b } => {
                    let r = cmp_eval(*op, *ext, a.read(regs).bits(), b.read(regs).bits());
                    regs[*dst as usize] = Value::bool(r);
                }
                Op::Bin { dst, op, a, b } => {
                    regs[*dst as usize] = Value::binop(*op, a.read(regs), b.read(regs));
                }
                Op::Un { dst, op, a } => {
                    regs[*dst as usize] = Value::unop(*op, a.read(regs));
                }
                Op::Cast { dst, ty, a } => {
                    regs[*dst as usize] = a.read(regs).cast(*ty);
                }
                Op::Select { dst, cond, a, b } => {
                    regs[*dst as usize] = if cond.read(regs).is_truthy() {
                        a.read(regs)
                    } else {
                        b.read(regs)
                    };
                }
                Op::Copy { dst, a } => {
                    regs[*dst as usize] = a.read(regs);
                }
                Op::LdWin {
                    dst,
                    param,
                    ty,
                    index,
                } => {
                    let idx = index.read(regs).bits() as usize;
                    regs[*dst as usize] = chunk_elem(window.chunks.get(*param as usize), *ty, idx);
                }
                Op::StWin {
                    param,
                    ty,
                    index,
                    val,
                } => {
                    let idx = index.read(regs).bits() as usize;
                    let v = val.read(regs).cast(*ty);
                    if let Some(c) = window.chunks.get_mut(*param as usize) {
                        if idx < c.elems(*ty) {
                            c.set(*ty, idx, v);
                        }
                    }
                }
                Op::LdWinC {
                    dst,
                    param,
                    ty,
                    idx,
                    end,
                } => {
                    let v = window
                        .chunks
                        .get(*param as usize)
                        .filter(|c| *end as usize <= c.data.len())
                        .map(|c| c.get(*ty, *idx as usize))
                        .unwrap_or_else(|| Value::zero(*ty));
                    regs[*dst as usize] = v;
                }
                Op::StWinC {
                    param,
                    ty,
                    idx,
                    end,
                    val,
                } => {
                    let v = val.read(regs).cast(*ty);
                    if let Some(c) = window.chunks.get_mut(*param as usize) {
                        if *end as usize <= c.data.len() {
                            c.set(*ty, *idx as usize, v);
                        }
                    }
                }
                Op::LdSeq { dst } => regs[*dst as usize] = Value::u32(window.seq),
                Op::LdSender { dst } => {
                    regs[*dst as usize] = Value::new(ScalarType::U16, window.sender.0 as u64);
                }
                Op::LdFrom { dst } => {
                    regs[*dst as usize] = Value::new(ScalarType::U16, window.from.to_wire() as u64);
                }
                Op::LdLen { dst, ty } => {
                    let n = window.chunks.first().map(|c| c.elems(*ty)).unwrap_or(0);
                    regs[*dst as usize] = Value::new(ScalarType::U16, n as u64);
                }
                Op::LdNChunks { dst } => {
                    regs[*dst as usize] = Value::new(ScalarType::U8, window.chunks.len() as u64);
                }
                Op::LdLast { dst } => regs[*dst as usize] = Value::bool(window.last),
                Op::LdExt { dst, offset, ty } => {
                    regs[*dst as usize] = window.ext_read(*ty, *offset as usize);
                }
                Op::LdLocationId { dst } => {
                    regs[*dst as usize] = Value::new(ScalarType::U16, state.location_id as u64);
                }
                Op::StExt { offset, ty, val } => {
                    let v = val.read(regs).cast(*ty);
                    window.ext_write(*offset as usize, v);
                }
                Op::LdReg { dst, arr, index } => {
                    let a = &state.registers[*arr as usize];
                    if a.is_empty() {
                        return Err(InterpError::NotPlacedHere("register array"));
                    }
                    let idx = index.read(regs).bits() as usize % a.len();
                    regs[*dst as usize] = a.get(idx);
                }
                Op::StReg { arr, index, val } => {
                    let v = val.read(regs);
                    let idx = index.read(regs).bits() as usize;
                    let a = &mut state.registers[*arr as usize];
                    if a.is_empty() {
                        return Err(InterpError::NotPlacedHere("register array"));
                    }
                    a.set(idx % a.len(), v);
                }
                Op::LdRegC { dst, arr, idx } => {
                    regs[*dst as usize] = state.registers[*arr as usize].get(*idx as usize);
                }
                Op::StRegC { arr, idx, val } => {
                    state.registers[*arr as usize].set(*idx as usize, val.read(regs));
                }
                Op::LdRegM {
                    dst,
                    arr,
                    mask,
                    index,
                } => {
                    let idx = index.read(regs).bits() as usize & *mask as usize;
                    regs[*dst as usize] = state.registers[*arr as usize].get(idx);
                }
                Op::StRegM {
                    arr,
                    mask,
                    index,
                    val,
                } => {
                    let idx = index.read(regs).bits() as usize & *mask as usize;
                    state.registers[*arr as usize].set(idx, val.read(regs));
                }
                Op::LdRegL {
                    dst,
                    arr,
                    len,
                    index,
                } => {
                    let idx = index.read(regs).bits() as usize % *len as usize;
                    regs[*dst as usize] = state.registers[*arr as usize].get(idx);
                }
                Op::StRegL {
                    arr,
                    len,
                    index,
                    val,
                } => {
                    let idx = index.read(regs).bits() as usize % *len as usize;
                    state.registers[*arr as usize].set(idx, val.read(regs));
                }
                Op::LdCtrl { dst, ctrl } => {
                    regs[*dst as usize] = state.ctrls[*ctrl as usize];
                }
                Op::MapGet {
                    found,
                    val,
                    map,
                    key,
                } => {
                    let k = key.read(regs).bits();
                    let ty = regs[*val as usize].ty();
                    match state.maps[*map as usize].get(&k) {
                        Some(v) => {
                            regs[*found as usize] = Value::bool(true);
                            regs[*val as usize] = v.cast(ty);
                        }
                        None => {
                            regs[*found as usize] = Value::bool(false);
                            regs[*val as usize] = Value::zero(ty);
                        }
                    }
                }
                Op::NotPlaced { what } => {
                    return Err(InterpError::NotPlacedHere(what));
                }
                Op::LdHost {
                    dst,
                    param,
                    ty,
                    index,
                } => {
                    let idx = index.read(regs).bits() as usize;
                    regs[*dst as usize] = host.load(*param as usize, idx, *ty);
                }
                Op::StHost { param, index, val } => {
                    let v = val.read(regs);
                    let idx = index.read(regs).bits() as usize;
                    host.store(*param as usize, idx, v);
                }
                Op::FwdPass => decision = Forward::Pass,
                Op::FwdPassTo { label } => decision = Forward::PassTo(label.clone()),
                Op::FwdReflect => decision = Forward::Reflect,
                Op::FwdBcast => decision = Forward::Bcast,
                Op::FwdDrop => decision = Forward::Drop,
                Op::Here { dst, label } => {
                    let here = state.location.as_ref().map(|l| l == label).unwrap_or(false);
                    regs[*dst as usize] = Value::bool(here);
                }
                Op::VecAccum(v) => {
                    let (m, exhausted) = self.vec_iters(v, &mut steps);
                    let base_bits = regs[v.base as usize].bits();
                    vec_accum(
                        v,
                        m,
                        base_bits,
                        &mut state.registers[v.arr as usize],
                        window.chunks.get(v.param as usize),
                        self.simd,
                    );
                    if exhausted {
                        return Err(InterpError::StepLimit);
                    }
                }
                Op::VecRegToWin(v) => {
                    let (m, exhausted) = self.vec_iters(v, &mut steps);
                    let base_bits = regs[v.base as usize].bits();
                    vec_reg_to_win(
                        v,
                        m,
                        base_bits,
                        &state.registers[v.arr as usize],
                        window.chunks.get_mut(v.param as usize),
                        self.simd,
                    );
                    if exhausted {
                        return Err(InterpError::StepLimit);
                    }
                }
                Op::VecWinToReg(v) => {
                    let (m, exhausted) = self.vec_iters(v, &mut steps);
                    let base_bits = regs[v.base as usize].bits();
                    vec_win_to_reg(
                        v,
                        m,
                        base_bits,
                        &mut state.registers[v.arr as usize],
                        window.chunks.get(v.param as usize),
                        self.simd,
                    );
                    if exhausted {
                        return Err(InterpError::StepLimit);
                    }
                }
                Op::Jmp { target } => {
                    pc = *target as usize;
                    continue;
                }
                Op::Br { cond, then, els } => {
                    pc = if cond.read(regs).is_truthy() {
                        *then as usize
                    } else {
                        *els as usize
                    };
                    continue;
                }
                Op::CmpBr {
                    dst,
                    op,
                    ext,
                    a,
                    b,
                    then,
                    els,
                } => {
                    let r = cmp_eval(*op, *ext, a.read(regs).bits(), b.read(regs).bits());
                    regs[*dst as usize] = Value::bool(r);
                    // The fusion covers an instruction plus a terminator:
                    // charge the second step so budget exhaustion stays
                    // bit-identical to the interpreter.
                    if self.counted {
                        steps += 1;
                        if steps > self.step_limit {
                            return Err(InterpError::StepLimit);
                        }
                    }
                    pc = if r { *then as usize } else { *els as usize };
                    continue;
                }
                Op::Ret => return Ok(decision),
            }
            pc += 1;
        }
    }

    /// How many groups of a fused run execute, and whether the step
    /// budget dies inside it. The main loop pre-charged one step for
    /// this op; group `j`'s store (its last micro-op) executes exactly
    /// when the interpreter's budget would have reached it.
    #[inline(always)]
    fn vec_iters(&self, v: &VecOp, steps: &mut usize) -> (u32, bool) {
        if !self.counted {
            return (v.n, false);
        }
        let before = *steps - 1; // loop top pre-charged one step
        let budget = self.step_limit - before;
        let (head, cost, n) = (v.head_cost as usize, v.cost as usize, v.n as usize);
        let total = head + (n - 1) * cost;
        if total <= budget {
            *steps = before + total;
            (v.n, false)
        } else {
            let m = if budget < head {
                0
            } else {
                ((budget - head) / cost + 1).min(n)
            };
            (m as u32, true)
        }
    }

    // -----------------------------------------------------------------
    // Lowering
    // -----------------------------------------------------------------

    fn build(kernel: &KernelIr, ctx: Option<ModuleCtx<'_>>) -> Self {
        // Parameter element types, resolved once (the interpreter
        // rebuilds these Vecs on every run).
        let win_params: Vec<ScalarType> = kernel
            .params
            .iter()
            .filter(|p| !p.ext)
            .map(|p| p.elem)
            .collect();
        let ext_params: Vec<ScalarType> = kernel
            .params
            .iter()
            .filter(|p| p.ext)
            .map(|p| p.elem)
            .collect();

        let entry_tys: Vec<Ty> = kernel.reg_tys.iter().map(|&t| Ty::Known(t)).collect();
        let block_tys = type_dataflow(kernel, &entry_tys, &win_params, ctx.as_ref());

        // Lower per block first (compare+branch fusion changes op
        // counts, so offsets are only known afterwards); jump targets
        // hold block ids until the final patch pass.
        let mut block_ops: Vec<Vec<Op>> = Vec::with_capacity(kernel.blocks.len());
        for (bi, b) in kernel.blocks.iter().enumerate() {
            let mut v: Vec<Op> = Vec::with_capacity(b.insts.len() + 1);
            let mut tys = block_tys[bi].clone();
            for inst in &b.insts {
                v.push(lower_inst(
                    inst,
                    &tys,
                    &win_params,
                    &ext_params,
                    ctx.as_ref(),
                ));
                transfer(inst, &mut tys, &win_params, ctx.as_ref());
            }
            match &b.term {
                Terminator::Ret => v.push(Op::Ret),
                Terminator::Jmp(next) => v.push(Op::Jmp { target: next.0 }),
                Terminator::Br { cond, then, els } => {
                    // Fuse when the branch consumes the compare computed
                    // immediately before it.
                    let fusable = matches!(
                        (cond, v.last()),
                        (Operand::Reg(r), Some(Op::Cmp { dst, .. })) if *dst == r.0
                    );
                    if fusable {
                        let Some(Op::Cmp { dst, op, ext, a, b }) = v.pop() else {
                            unreachable!("just matched")
                        };
                        v.push(Op::CmpBr {
                            dst,
                            op,
                            ext,
                            a,
                            b,
                            then: then.0,
                            els: els.0,
                        });
                    } else {
                        v.push(Op::Br {
                            cond: lower_opnd(cond),
                            then: then.0,
                            els: els.0,
                        });
                    }
                }
            }
            block_ops.push(v);
        }

        // Fuse runs of unrolled element-wise groups into vector ops
        // (within blocks only: jump targets land on block starts).
        fuse_element_runs(&mut block_ops, kernel.reg_tys.len());

        let mut block_start = Vec::with_capacity(block_ops.len());
        let mut off = 0u32;
        for v in &block_ops {
            block_start.push(off);
            off += v.len() as u32;
        }
        let mut ops = Vec::with_capacity(off as usize);
        for v in block_ops {
            for mut op in v {
                match &mut op {
                    Op::Jmp { target } => *target = block_start[*target as usize],
                    Op::Br { then, els, .. } | Op::CmpBr { then, els, .. } => {
                        *then = block_start[*then as usize];
                        *els = block_start[*els as usize];
                    }
                    _ => {}
                }
                ops.push(op);
            }
        }

        // Compact the register file to the registers the program still
        // references: unrolling allocates thousands of virtual registers
        // and fusion elides most of their uses, but the per-run reset
        // memcpys the whole zero image — renumbering to the live set
        // keeps that reset proportional to the fused program, not the
        // unrolled one.
        let mut remap: Vec<u32> = vec![u32::MAX; kernel.reg_tys.len()];
        let mut nlive = 0u32;
        for op in &mut ops {
            op_regs_mut(op, &mut |r: &mut u32| {
                let slot = &mut remap[*r as usize];
                if *slot == u32::MAX {
                    *slot = nlive;
                    nlive += 1;
                }
                *r = *slot;
            });
        }
        let mut zero_regs = vec![Value::zero(ScalarType::U32); nlive as usize];
        for (orig, &new) in remap.iter().enumerate() {
            if new != u32::MAX {
                zero_regs[new as usize] = Value::zero(kernel.reg_tys[orig]);
            }
        }

        let has_loop = kernel.has_loop();
        let interp_len: usize = ops.iter().map(op_cost).sum();
        CompiledKernel {
            name: kernel.name.clone(),
            counted: has_loop || interp_len > DEFAULT_STEP_LIMIT,
            ops,
            zero_regs,
            step_limit: DEFAULT_STEP_LIMIT,
            interp_len,
            has_loop,
            simd: true,
        }
    }
}

/// Evaluates a signedness-resolved comparison over canonical bits.
#[inline(always)]
fn cmp_eval(op: CmpOp, ext: u32, x: u64, y: u64) -> bool {
    match op {
        CmpOp::Eq => x == y,
        CmpOp::Ne => x != y,
        CmpOp::LtU => x < y,
        CmpOp::LeU => x <= y,
        CmpOp::GtU => x > y,
        CmpOp::GeU => x >= y,
        CmpOp::LtS => ((x << ext) as i64) < ((y << ext) as i64),
        CmpOp::LeS => ((x << ext) as i64) <= ((y << ext) as i64),
        CmpOp::GtS => ((x << ext) as i64) > ((y << ext) as i64),
        CmpOp::GeS => ((x << ext) as i64) >= ((y << ext) as i64),
    }
}

fn lower_opnd(o: &Operand) -> Opnd {
    match o {
        Operand::Reg(r) => Opnd::Reg(r.0),
        Operand::Const(v) => Opnd::Const(*v),
    }
}

/// Interpreter steps one micro-op accounts for.
fn op_cost(op: &Op) -> usize {
    match op {
        Op::CmpBr { .. } => 2,
        Op::VecAccum(v) | Op::VecRegToWin(v) | Op::VecWinToReg(v) => {
            (v.head_cost + (v.n - 1) * v.cost) as usize
        }
        _ => 1,
    }
}

/// Visits every virtual register a micro-op reads. Exhaustive on
/// purpose: a missed read would let run fusion elide a live register.
/// Visits every virtual-register reference in an op — destinations and
/// reads — mutably, for the post-fusion register-file compaction.
fn op_regs_mut(op: &mut Op, f: &mut impl FnMut(&mut u32)) {
    let o = |x: &mut Opnd, f: &mut dyn FnMut(&mut u32)| {
        if let Opnd::Reg(r) = x {
            f(r)
        }
    };
    match op {
        Op::Add { dst, a, b, .. }
        | Op::Sub { dst, a, b, .. }
        | Op::Mul { dst, a, b, .. }
        | Op::BitAnd { dst, a, b, .. }
        | Op::BitOr { dst, a, b, .. }
        | Op::BitXor { dst, a, b, .. }
        | Op::Shl { dst, a, b, .. }
        | Op::ShrU { dst, a, b, .. }
        | Op::ShrS { dst, a, b, .. }
        | Op::Cmp { dst, a, b, .. }
        | Op::Bin { dst, a, b, .. }
        | Op::CmpBr { dst, a, b, .. } => {
            f(dst);
            o(a, f);
            o(b, f);
        }
        Op::Un { dst, a, .. } | Op::Cast { dst, a, .. } | Op::Copy { dst, a } => {
            f(dst);
            o(a, f);
        }
        Op::Select { dst, cond, a, b } => {
            f(dst);
            o(cond, f);
            o(a, f);
            o(b, f);
        }
        Op::LdWin { dst, index, .. }
        | Op::LdReg { dst, index, .. }
        | Op::LdRegM { dst, index, .. }
        | Op::LdRegL { dst, index, .. }
        | Op::LdHost { dst, index, .. } => {
            f(dst);
            o(index, f);
        }
        Op::StWin { index, val, .. }
        | Op::StReg { index, val, .. }
        | Op::StRegM { index, val, .. }
        | Op::StRegL { index, val, .. }
        | Op::StHost { index, val, .. } => {
            o(index, f);
            o(val, f);
        }
        Op::StWinC { val, .. } | Op::StRegC { val, .. } | Op::StExt { val, .. } => o(val, f),
        Op::LdWinC { dst, .. }
        | Op::LdSeq { dst }
        | Op::LdSender { dst }
        | Op::LdFrom { dst }
        | Op::LdLen { dst, .. }
        | Op::LdNChunks { dst }
        | Op::LdLast { dst }
        | Op::LdExt { dst, .. }
        | Op::LdLocationId { dst }
        | Op::LdRegC { dst, .. }
        | Op::LdCtrl { dst, .. }
        | Op::Here { dst, .. } => f(dst),
        Op::MapGet {
            found, val, key, ..
        } => {
            f(found);
            f(val);
            o(key, f);
        }
        Op::Br { cond, .. } => o(cond, f),
        Op::VecAccum(v) | Op::VecRegToWin(v) | Op::VecWinToReg(v) => f(&mut v.base),
        Op::NotPlaced { .. }
        | Op::FwdPass
        | Op::FwdPassTo { .. }
        | Op::FwdReflect
        | Op::FwdBcast
        | Op::FwdDrop
        | Op::Jmp { .. }
        | Op::Ret => {}
    }
}

fn op_reads(op: &Op, f: &mut impl FnMut(u32)) {
    let mut o = |x: &Opnd| {
        if let Opnd::Reg(r) = x {
            f(*r)
        }
    };
    match op {
        Op::Add { a, b, .. }
        | Op::Sub { a, b, .. }
        | Op::Mul { a, b, .. }
        | Op::BitAnd { a, b, .. }
        | Op::BitOr { a, b, .. }
        | Op::BitXor { a, b, .. }
        | Op::Shl { a, b, .. }
        | Op::ShrU { a, b, .. }
        | Op::ShrS { a, b, .. }
        | Op::Cmp { a, b, .. }
        | Op::Bin { a, b, .. }
        | Op::CmpBr { a, b, .. } => {
            o(a);
            o(b);
        }
        Op::Un { a, .. } | Op::Cast { a, .. } | Op::Copy { a, .. } => o(a),
        Op::Select { cond, a, b, .. } => {
            o(cond);
            o(a);
            o(b);
        }
        Op::LdWin { index, .. }
        | Op::LdReg { index, .. }
        | Op::LdRegM { index, .. }
        | Op::LdRegL { index, .. }
        | Op::LdHost { index, .. } => o(index),
        Op::StWin { index, val, .. }
        | Op::StReg { index, val, .. }
        | Op::StRegM { index, val, .. }
        | Op::StRegL { index, val, .. }
        | Op::StHost { index, val, .. } => {
            o(index);
            o(val);
        }
        Op::StWinC { val, .. } | Op::StRegC { val, .. } | Op::StExt { val, .. } => o(val),
        // MapGet reads the value register's current dynamic type.
        Op::MapGet { key, val, .. } => {
            o(key);
            f(*val);
        }
        Op::Br { cond, .. } => o(cond),
        Op::VecAccum(v) | Op::VecRegToWin(v) | Op::VecWinToReg(v) => f(v.base),
        Op::LdWinC { .. }
        | Op::LdSeq { .. }
        | Op::LdSender { .. }
        | Op::LdFrom { .. }
        | Op::LdLen { .. }
        | Op::LdNChunks { .. }
        | Op::LdLast { .. }
        | Op::LdExt { .. }
        | Op::LdLocationId { .. }
        | Op::LdRegC { .. }
        | Op::LdCtrl { .. }
        | Op::NotPlaced { .. }
        | Op::FwdPass
        | Op::FwdPassTo { .. }
        | Op::FwdReflect
        | Op::FwdBcast
        | Op::FwdDrop
        | Op::Here { .. }
        | Op::Jmp { .. }
        | Op::Ret => {}
    }
}

// ---------------------------------------------------------------------
// Element-wise run fusion
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Debug)]
enum VecKind {
    Accum,
    RegToWin,
    WinToReg,
}

/// One matched unrolled group: the micro-ops for a single element of an
/// `arr[base+c] (op)= win[c]` body.
struct Group {
    len: usize,
    kind: VecKind,
    /// Has a leading index add (all but the first group of a run do).
    headed: bool,
    /// Chunk element index.
    cc: u32,
    base: u32,
    /// Index-add type (meaningful when `headed`).
    ity: ScalarType,
    param: u32,
    wty: ScalarType,
    arr: u32,
    amask: u32,
    /// Accumulate type (`Accum` only).
    aty: ScalarType,
    /// Intermediate registers the fused run elides.
    elided: [u32; 4],
    nelided: usize,
}

/// Matches one unrolled group at the head of `ops`. The shapes are the
/// three orders the lowering pipeline actually produces; anything else
/// simply stays scalar.
fn match_group(ops: &[Op]) -> Option<Group> {
    // Optional leading index add: `k = base + c` at an integer type.
    let head = match ops.first()? {
        Op::Add {
            dst,
            ty,
            a: Opnd::Reg(base),
            b: Opnd::Const(v),
        } if *ty != ScalarType::Bool => Some((*dst, *base, *ty, v.bits())),
        _ => None,
    };

    // Accum / RegToWin: [add], LdRegM, ...
    if let Some(&Op::LdRegM {
        dst: d,
        arr,
        mask: amask,
        index: Opnd::Reg(ix),
    }) = ops.get(head.is_some() as usize)
    {
        let at = head.is_some() as usize + 1;
        let (k, base, ity, off) = match head {
            Some((k, base, ity, off)) => (k, base, ity, off),
            None => (ix, ix, ScalarType::U32, 0),
        };
        if ix != k || d == base || head.map(|h| h.0 == base) == Some(true) {
            return None;
        }
        match (ops.get(at), ops.get(at + 1)) {
            // ... LdWinC, Add, StRegM  (accumulate)
            (
                Some(&Op::LdWinC {
                    dst: w,
                    param,
                    ty: wty,
                    idx: cc,
                    ..
                }),
                Some(&Op::Add {
                    dst: s,
                    ty: aty,
                    a: Opnd::Reg(x),
                    b: Opnd::Reg(y),
                }),
            ) if (x == d && y == w) || (x == w && y == d) => {
                if head.is_some() && off != cc as u64 {
                    return None;
                }
                match ops.get(at + 2) {
                    Some(&Op::StRegM {
                        arr: arr2,
                        mask: m2,
                        index: Opnd::Reg(ix2),
                        val: Opnd::Reg(v2),
                    }) if arr2 == arr && m2 == amask && ix2 == k && v2 == s => {
                        let elided = [d, w, s, if head.is_some() { k } else { d }];
                        if distinct(&[d, w, s], k, base, head.is_some()) {
                            Some(Group {
                                len: at + 3,
                                kind: VecKind::Accum,
                                headed: head.is_some(),
                                cc,
                                base,
                                ity,
                                param,
                                wty,
                                arr,
                                amask,
                                aty,
                                elided,
                                nelided: if head.is_some() { 4 } else { 3 },
                            })
                        } else {
                            None
                        }
                    }
                    _ => None,
                }
            }
            // ... StWinC  (register → window copy)
            (
                Some(&Op::StWinC {
                    param,
                    ty: wty,
                    idx: cc,
                    val: Opnd::Reg(v2),
                    ..
                }),
                _,
            ) if v2 == d => {
                if head.is_some() && off != cc as u64 {
                    return None;
                }
                let elided = [d, if head.is_some() { k } else { d }, 0, 0];
                if distinct(&[d], k, base, head.is_some()) {
                    Some(Group {
                        len: at + 1,
                        kind: VecKind::RegToWin,
                        headed: head.is_some(),
                        cc,
                        base,
                        ity,
                        param,
                        wty,
                        arr,
                        amask,
                        aty: wty,
                        elided,
                        nelided: if head.is_some() { 2 } else { 1 },
                    })
                } else {
                    None
                }
            }
            _ => None,
        }
    }
    // WinToReg: LdWinC, [add], StRegM  (window → register copy)
    else if let Some(&Op::LdWinC {
        dst: w,
        param,
        ty: wty,
        idx: cc,
        ..
    }) = ops.first()
    {
        let head = match ops.get(1) {
            Some(Op::Add {
                dst,
                ty,
                a: Opnd::Reg(base),
                b: Opnd::Const(v),
            }) if *ty != ScalarType::Bool => Some((*dst, *base, *ty, v.bits())),
            _ => None,
        };
        let at = 1 + head.is_some() as usize;
        let (k, base, ity, off) = match head {
            Some((k, base, ity, off)) => (k, base, ity, off),
            None => (u32::MAX, u32::MAX, ScalarType::U32, 0),
        };
        if head.is_some() && (off != cc as u64 || k == base || w == base || w == k) {
            return None;
        }
        match ops.get(at) {
            Some(&Op::StRegM {
                arr,
                mask: amask,
                index: Opnd::Reg(ix),
                val: Opnd::Reg(v2),
            }) if v2 == w => {
                let (base, ix_ok) = if head.is_some() {
                    (base, ix == k)
                } else {
                    (ix, ix != w)
                };
                if !ix_ok {
                    return None;
                }
                let elided = [w, if head.is_some() { k } else { w }, 0, 0];
                Some(Group {
                    len: at + 1,
                    kind: VecKind::WinToReg,
                    headed: head.is_some(),
                    cc,
                    base,
                    ity,
                    param,
                    wty,
                    arr,
                    amask,
                    aty: wty,
                    elided,
                    nelided: if head.is_some() { 2 } else { 1 },
                })
            }
            _ => None,
        }
    } else {
        None
    }
}

/// Intermediate registers must be pairwise distinct and distinct from
/// the base/index registers, or the scalar dataflow the vector loop
/// models would be wrong.
fn distinct(dsts: &[u32], k: u32, base: u32, headed: bool) -> bool {
    for (i, &a) in dsts.iter().enumerate() {
        if a == base || (headed && a == k) {
            return false;
        }
        for &b in &dsts[i + 1..] {
            if a == b {
                return false;
            }
        }
    }
    true
}

/// Replaces runs of matched groups with one vector op per run. Sound
/// only when nothing outside the run reads the elided registers, which
/// is checked against whole-kernel read counts.
fn fuse_element_runs(block_ops: &mut [Vec<Op>], nregs: usize) {
    let mut global_reads = vec![0u32; nregs];
    for block in block_ops.iter() {
        for op in block {
            op_reads(op, &mut |r| global_reads[r as usize] += 1);
        }
    }

    for block in block_ops.iter_mut() {
        let mut out: Vec<Op> = Vec::with_capacity(block.len());
        let mut i = 0;
        while i < block.len() {
            match try_fuse_run(&block[i..], &global_reads) {
                Some((op, len)) => {
                    out.push(op);
                    i += len;
                }
                None => {
                    out.push(block[i].clone());
                    i += 1;
                }
            }
        }
        *block = out;
    }
}

/// Attempts to fuse a run starting at `ops[0]`; returns the vector op
/// and how many scalar ops it replaces.
fn try_fuse_run(ops: &[Op], global_reads: &[u32]) -> Option<(Op, usize)> {
    let first = match_group(ops)?;
    let mut groups = vec![first];
    loop {
        let prev = groups.last().expect("non-empty");
        let at: usize = groups.iter().map(|g| g.len).sum();
        match match_group(&ops[at..]) {
            Some(g)
                if g.headed
                    && g.kind == prev.kind
                    && g.cc == prev.cc + 1
                    && g.base == prev.base
                    && g.param == prev.param
                    && g.wty == prev.wty
                    && g.arr == prev.arr
                    && g.amask == prev.amask
                    && g.aty == prev.aty
                    && (!prev.headed || g.ity == prev.ity) =>
            {
                groups.push(g)
            }
            _ => break,
        }
    }
    if groups.len() < 2 {
        return None;
    }

    // Trim the run until every elided register is read only inside it.
    loop {
        if groups.len() < 2 {
            return None;
        }
        let len: usize = groups.iter().map(|g| g.len).sum();
        let mut region_reads = std::collections::HashMap::new();
        for op in &ops[..len] {
            op_reads(op, &mut |r| *region_reads.entry(r).or_insert(0u32) += 1);
        }
        let live_outside = groups.iter().any(|g| {
            g.elided[..g.nelided]
                .iter()
                .any(|&r| global_reads[r as usize] != region_reads.get(&r).copied().unwrap_or(0))
        });
        if !live_outside {
            break;
        }
        // The common offender is the final group's destination feeding a
        // later use; dropping tail groups converges quickly.
        groups.pop();
    }

    let first = &groups[0];
    let ity = if first.headed {
        first.ity
    } else {
        groups[1].ity
    };
    let width = ity.bits();
    let imask = if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    let cost = match first.kind {
        VecKind::Accum => 5u32,
        VecKind::RegToWin | VecKind::WinToReg => 3,
    };
    let v = Box::new(VecOp {
        param: first.param,
        wty: first.wty,
        idx0: first.cc,
        n: groups.len() as u32,
        arr: first.arr,
        amask: first.amask,
        base: first.base,
        imask,
        aty: first.aty,
        cost,
        head_cost: if first.headed { cost } else { cost - 1 },
    });
    let len = groups.iter().map(|g| g.len).sum();
    let op = match first.kind {
        VecKind::Accum => Op::VecAccum(v),
        VecKind::RegToWin => Op::VecRegToWin(v),
        VecKind::WinToReg => Op::VecWinToReg(v),
    };
    Some((op, len))
}

/// The type of an operand under the current dataflow facts.
fn opnd_ty(o: &Operand, tys: &[Ty]) -> Ty {
    match o {
        Operand::Const(v) => Ty::Known(v.ty()),
        Operand::Reg(r) => tys[r.0 as usize],
    }
}

/// The type an instruction writes to its destination, or `Ty::Any` when
/// it cannot be proven. Mirrors the dynamic typing of the interpreter.
fn result_ty(
    inst: &Inst,
    tys: &[Ty],
    win_params: &[ScalarType],
    ctx: Option<&ModuleCtx<'_>>,
) -> Ty {
    match inst {
        Inst::Bin { op, a, b, .. } => {
            if op.is_comparison() {
                return Ty::Known(ScalarType::Bool);
            }
            match (opnd_ty(a, tys), opnd_ty(b, tys)) {
                (Ty::Known(x), Ty::Known(y)) if x == y => Ty::Known(x),
                _ => Ty::Any,
            }
        }
        Inst::Un { op, a, .. } => match op {
            UnOp::Not => Ty::Known(ScalarType::Bool),
            UnOp::Neg | UnOp::BitNot => opnd_ty(a, tys),
        },
        Inst::Cast { ty, .. } => Ty::Known(*ty),
        Inst::Select { a, b, .. } => opnd_ty(a, tys).join(opnd_ty(b, tys)),
        Inst::Copy { a, .. } => opnd_ty(a, tys),
        // Chunk reads always produce the parameter element type (the
        // out-of-bounds fallback is a zero of that same type).
        Inst::LdWin { param, .. } => Ty::Known(win_params[*param as usize]),
        Inst::LdMeta { field, .. } => Ty::Known(field.ty()),
        Inst::LdReg { arr, .. } => match ctx {
            Some(c) => Ty::Known(c.module.registers[arr.0 as usize].elem),
            None => Ty::Any,
        },
        Inst::LdCtrl { ctrl, .. } => match ctx {
            Some(c) => Ty::Known(c.module.ctrls[ctrl.0 as usize].ty),
            None => Ty::Any,
        },
        Inst::LdHost { .. } => Ty::Any, // host array element types are dynamic
        Inst::Here { .. } => Ty::Known(ScalarType::Bool),
        _ => Ty::Any,
    }
}

/// Applies an instruction's type effects to the dataflow state.
fn transfer(inst: &Inst, tys: &mut [Ty], win_params: &[ScalarType], ctx: Option<&ModuleCtx<'_>>) {
    match inst {
        Inst::MapGet { found, .. } => {
            tys[found.0 as usize] = Ty::Known(ScalarType::Bool);
            // The value register keeps its current dynamic type.
        }
        _ => {
            let r = result_ty(inst, tys, win_params, ctx);
            for dst in inst.dsts() {
                tys[dst.0 as usize] = r;
            }
        }
    }
}

/// Forward type dataflow: per-block register types at entry, as a
/// fixpoint over the CFG (join = type equality, else `Any`).
fn type_dataflow(
    kernel: &KernelIr,
    entry: &[Ty],
    win_params: &[ScalarType],
    ctx: Option<&ModuleCtx<'_>>,
) -> Vec<Vec<Ty>> {
    let n = kernel.blocks.len();
    let mut states: Vec<Option<Vec<Ty>>> = vec![None; n];
    states[0] = Some(entry.to_vec());
    let mut work = vec![BlockId(0)];
    while let Some(b) = work.pop() {
        let mut tys = states[b.0 as usize].clone().expect("reachable block");
        for inst in &kernel.blocks[b.0 as usize].insts {
            transfer(inst, &mut tys, win_params, ctx);
        }
        for succ in kernel.blocks[b.0 as usize].term.successors() {
            let slot = &mut states[succ.0 as usize];
            match slot {
                None => {
                    *slot = Some(tys.clone());
                    work.push(succ);
                }
                Some(existing) => {
                    let mut changed = false;
                    for (e, t) in existing.iter_mut().zip(&tys) {
                        let joined = e.join(*t);
                        if joined != *e {
                            *e = joined;
                            changed = true;
                        }
                    }
                    if changed {
                        work.push(succ);
                    }
                }
            }
        }
    }
    // Unreachable blocks still get lowered; give them fully-unknown
    // types so lowering falls back to the generic (always-correct) ops.
    states
        .into_iter()
        .map(|s| s.unwrap_or_else(|| vec![Ty::Any; entry.len()]))
        .collect()
}

/// Lowers one IR instruction to a micro-op under the dataflow facts
/// `tys` (register types at this program point).
fn lower_inst(
    inst: &Inst,
    tys: &[Ty],
    win_params: &[ScalarType],
    ext_params: &[ScalarType],
    ctx: Option<&ModuleCtx<'_>>,
) -> Op {
    match inst {
        Inst::Bin { dst, op, a, b } => {
            let (ta, tb) = (opnd_ty(a, tys), opnd_ty(b, tys));
            let (la, lb) = (lower_opnd(a), lower_opnd(b));
            if let (Ty::Known(x), Ty::Known(y)) = (ta, tb) {
                if x == y {
                    return lower_typed_bin(dst.0, *op, x, la, lb);
                }
            }
            Op::Bin {
                dst: dst.0,
                op: *op,
                a: la,
                b: lb,
            }
        }
        Inst::Un { dst, op, a } => Op::Un {
            dst: dst.0,
            op: *op,
            a: lower_opnd(a),
        },
        Inst::Cast { dst, ty, a } => Op::Cast {
            dst: dst.0,
            ty: *ty,
            a: lower_opnd(a),
        },
        Inst::Select { dst, cond, a, b } => Op::Select {
            dst: dst.0,
            cond: lower_opnd(cond),
            a: lower_opnd(a),
            b: lower_opnd(b),
        },
        Inst::Copy { dst, a } => Op::Copy {
            dst: dst.0,
            a: lower_opnd(a),
        },
        Inst::LdWin { dst, param, index } => {
            let ty = win_params[*param as usize];
            match const_chunk_bounds(index, ty) {
                Some((idx, end)) => Op::LdWinC {
                    dst: dst.0,
                    param: *param as u32,
                    ty,
                    idx,
                    end,
                },
                None => Op::LdWin {
                    dst: dst.0,
                    param: *param as u32,
                    ty,
                    index: lower_opnd(index),
                },
            }
        }
        Inst::StWin { param, index, val } => {
            let ty = win_params[*param as usize];
            match const_chunk_bounds(index, ty) {
                Some((idx, end)) => Op::StWinC {
                    param: *param as u32,
                    ty,
                    idx,
                    end,
                    val: lower_opnd(val),
                },
                None => Op::StWin {
                    param: *param as u32,
                    ty,
                    index: lower_opnd(index),
                    val: lower_opnd(val),
                },
            }
        }
        Inst::LdMeta { dst, field } => match field {
            MetaField::Seq => Op::LdSeq { dst: dst.0 },
            MetaField::Sender => Op::LdSender { dst: dst.0 },
            MetaField::From => Op::LdFrom { dst: dst.0 },
            MetaField::Len => Op::LdLen {
                dst: dst.0,
                ty: win_params.first().copied().unwrap_or(ScalarType::U8),
            },
            MetaField::NChunks => Op::LdNChunks { dst: dst.0 },
            MetaField::Last => Op::LdLast { dst: dst.0 },
            MetaField::Ext(off, ty) => Op::LdExt {
                dst: dst.0,
                offset: *off as u32,
                ty: *ty,
            },
            MetaField::LocationId => Op::LdLocationId { dst: dst.0 },
        },
        Inst::StExt { offset, ty, val } => Op::StExt {
            offset: *offset as u32,
            ty: *ty,
            val: lower_opnd(val),
        },
        Inst::LdReg { dst, arr, index } => match ctx.map(|c| c.array(arr)) {
            // The interpreter reports an empty placed array as
            // not-placed; preserve that exactly.
            Some(f) if !f.placed || f.len == 0 => Op::NotPlaced {
                what: "register array",
            },
            // Placed here: the array's length is a compile-time fact, so
            // resolve the wrap-around and skip the emptiness check.
            Some(f) => match (lower_opnd(index), f.len) {
                (Opnd::Const(v), len) => Op::LdRegC {
                    dst: dst.0,
                    arr: arr.0,
                    idx: (v.bits() as usize % len) as u32,
                },
                (index, l) if l.is_power_of_two() && l - 1 <= u32::MAX as usize => Op::LdRegM {
                    dst: dst.0,
                    arr: arr.0,
                    mask: (l - 1) as u32,
                    index,
                },
                (index, l) if l <= u32::MAX as usize => Op::LdRegL {
                    dst: dst.0,
                    arr: arr.0,
                    len: l as u32,
                    index,
                },
                (index, _) => Op::LdReg {
                    dst: dst.0,
                    arr: arr.0,
                    index,
                },
            },
            None => Op::LdReg {
                dst: dst.0,
                arr: arr.0,
                index: lower_opnd(index),
            },
        },
        Inst::StReg { arr, index, val } => match ctx.map(|c| c.array(arr)) {
            Some(f) if !f.placed || f.len == 0 => Op::NotPlaced {
                what: "register array",
            },
            Some(f) => match (lower_opnd(index), lower_opnd(val), f.len) {
                (Opnd::Const(v), val, len) => Op::StRegC {
                    arr: arr.0,
                    idx: (v.bits() as usize % len) as u32,
                    val,
                },
                (index, val, l) if l.is_power_of_two() && l - 1 <= u32::MAX as usize => {
                    Op::StRegM {
                        arr: arr.0,
                        mask: (l - 1) as u32,
                        index,
                        val,
                    }
                }
                (index, val, l) if l <= u32::MAX as usize => Op::StRegL {
                    arr: arr.0,
                    len: l as u32,
                    index,
                    val,
                },
                (index, val, _) => Op::StReg {
                    arr: arr.0,
                    index,
                    val,
                },
            },
            None => Op::StReg {
                arr: arr.0,
                index: lower_opnd(index),
                val: lower_opnd(val),
            },
        },
        Inst::LdCtrl { dst, ctrl } => Op::LdCtrl {
            dst: dst.0,
            ctrl: ctrl.0,
        },
        Inst::MapGet {
            found,
            val,
            map,
            key,
        } => Op::MapGet {
            found: found.0,
            val: val.0,
            map: map.0,
            key: lower_opnd(key),
        },
        Inst::LdHost { dst, param, index } => Op::LdHost {
            dst: dst.0,
            param: *param as u32,
            ty: ext_params
                .get(*param as usize)
                .copied()
                .unwrap_or(ScalarType::I32),
            index: lower_opnd(index),
        },
        Inst::StHost { param, index, val } => Op::StHost {
            param: *param as u32,
            index: lower_opnd(index),
            val: lower_opnd(val),
        },
        Inst::Fwd { kind, label } => match (kind, label) {
            (FwdKind::Pass, Some(l)) => Op::FwdPassTo { label: l.clone() },
            (FwdKind::Pass, None) => Op::FwdPass,
            (FwdKind::Reflect, _) => Op::FwdReflect,
            (FwdKind::Bcast, _) => Op::FwdBcast,
            (FwdKind::Drop, _) => Op::FwdDrop,
        },
        Inst::Here { dst, label } => Op::Here {
            dst: dst.0,
            label: label.clone(),
        },
    }
}

/// For a constant chunk index, the pre-multiplied byte bounds used by
/// the division-free window ops: `idx < data.len() / size` is exactly
/// `(idx + 1) * size <= data.len()` (integer arithmetic), so the in-range
/// check reduces to one comparison against the precomputed `end`.
/// Returns None when the bounds overflow `u32` — those indices are out
/// of range of any real chunk, and the generic op handles them.
fn const_chunk_bounds(index: &Operand, ty: ScalarType) -> Option<(u32, u32)> {
    let Operand::Const(v) = index else {
        return None;
    };
    let idx = v.bits();
    let end = idx.checked_add(1)?.checked_mul(ty.size() as u64)?;
    if idx <= u32::MAX as u64 && end <= u32::MAX as u64 {
        Some((idx as u32, end as u32))
    } else {
        None
    }
}

/// Emits the width/signedness-specialized form of a binary op whose
/// operand types are statically proven equal to `ty`.
fn lower_typed_bin(dst: u32, op: BinOp, ty: ScalarType, a: Opnd, b: Opnd) -> Op {
    let width = ty.bits();
    let ext = 64 - width;
    let signed = ty.is_signed();
    match op {
        BinOp::Add => Op::Add { dst, ty, a, b },
        BinOp::Sub => Op::Sub { dst, ty, a, b },
        BinOp::Mul => Op::Mul { dst, ty, a, b },
        BinOp::And => Op::BitAnd { dst, ty, a, b },
        BinOp::Or => Op::BitOr { dst, ty, a, b },
        BinOp::Xor => Op::BitXor { dst, ty, a, b },
        BinOp::Shl => Op::Shl {
            dst,
            ty,
            width,
            a,
            b,
        },
        BinOp::Shr if signed => Op::ShrS {
            dst,
            ty,
            width,
            a,
            b,
        },
        BinOp::Shr => Op::ShrU {
            dst,
            ty,
            width,
            a,
            b,
        },
        BinOp::Eq => Op::Cmp {
            dst,
            op: CmpOp::Eq,
            ext,
            a,
            b,
        },
        BinOp::Ne => Op::Cmp {
            dst,
            op: CmpOp::Ne,
            ext,
            a,
            b,
        },
        BinOp::Lt if signed => Op::Cmp {
            dst,
            op: CmpOp::LtS,
            ext,
            a,
            b,
        },
        BinOp::Le if signed => Op::Cmp {
            dst,
            op: CmpOp::LeS,
            ext,
            a,
            b,
        },
        BinOp::Gt if signed => Op::Cmp {
            dst,
            op: CmpOp::GtS,
            ext,
            a,
            b,
        },
        BinOp::Ge if signed => Op::Cmp {
            dst,
            op: CmpOp::GeS,
            ext,
            a,
            b,
        },
        BinOp::Lt => Op::Cmp {
            dst,
            op: CmpOp::LtU,
            ext,
            a,
            b,
        },
        BinOp::Le => Op::Cmp {
            dst,
            op: CmpOp::LeU,
            ext,
            a,
            b,
        },
        BinOp::Gt => Op::Cmp {
            dst,
            op: CmpOp::GtU,
            ext,
            a,
            b,
        },
        BinOp::Ge => Op::Cmp {
            dst,
            op: CmpOp::GeU,
            ext,
            a,
            b,
        },
        // Division keeps the (rare) generic path: its zero/sign handling
        // is intricate and not hot in any workload we model.
        BinOp::Div | BinOp::Rem => Op::Bin { dst, op, a, b },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interpreter;
    use crate::lower::{lower, LoweringConfig};
    use c3::{Chunk, HostId, KernelId, NodeId};
    use ncl_lang::frontend;

    fn build(src: &str, kernel: &str, mask: &[u16]) -> (Module, SwitchState) {
        let checked = frontend(src, "t.ncl").expect("frontend");
        let cfg = LoweringConfig::with_mask(kernel, mask.to_vec());
        let module = lower(&checked, &cfg).expect("lower");
        let state = SwitchState::from_module(&module);
        (module, state)
    }

    fn window_u32(vals: &[u32]) -> Window {
        Window {
            kernel: KernelId(0),
            seq: 0,
            sender: HostId(1),
            from: NodeId::Host(HostId(1)),
            last: false,
            chunks: vec![Chunk {
                offset: 0,
                data: vals.iter().flat_map(|v| v.to_be_bytes()).collect(),
            }],
            ext: vec![],
        }
    }

    /// Runs the interpreter and the fast path on identical inputs and
    /// asserts bit-identical windows, switch state, and outcome. Returns
    /// the fast-path outcome and its mutated window/state.
    fn differential(
        kernel: &KernelIr,
        window: &Window,
        state: &SwitchState,
    ) -> (Result<Forward, InterpError>, Window, SwitchState) {
        let (mut wi, mut si) = (window.clone(), state.clone());
        let ri = Interpreter::default().run_outgoing(kernel, &mut wi, &mut si);

        let compiled = CompiledKernel::compile(kernel);
        let mut scratch = ExecScratch::new();
        let (mut wf, mut sf) = (window.clone(), state.clone());
        let rf = compiled.run_outgoing(&mut wf, &mut sf, &mut scratch);

        assert_eq!(ri, rf, "forward decision diverged");
        assert_eq!(wi.chunks, wf.chunks, "window chunks diverged");
        assert_eq!(wi.ext, wf.ext, "window ext diverged");
        assert_eq!(si.registers, sf.registers, "switch registers diverged");
        assert_eq!(si.ctrls, sf.ctrls, "switch ctrls diverged");
        assert_eq!(si.maps, sf.maps, "switch maps diverged");
        (rf, wf, sf)
    }

    #[test]
    fn increment_matches_interpreter() {
        let (m, st) = build(
            "_net_ _out_ void inc(int *data) { data[0] += 1; }",
            "inc",
            &[1],
        );
        let w = window_u32(&[41]);
        let (fwd, wf, _) = differential(m.kernel("inc").unwrap(), &w, &st);
        assert_eq!(fwd.unwrap(), Forward::Pass);
        assert_eq!(wf.chunks[0].get(ScalarType::I32, 0), Value::i32(42));
    }

    #[test]
    fn allreduce_matches_interpreter_across_rounds() {
        let src = r#"
#define DATA_LEN 8
#define WIN_LEN 4
_net_ _at_("s1") int accum[DATA_LEN] = {0};
_net_ _at_("s1") unsigned count[DATA_LEN/WIN_LEN] = {0};
_net_ _at_("s1") _ctrl_ unsigned nworkers;
_net_ _out_ void allreduce(int *data) {
    unsigned base = window.seq * window.len;
    for (unsigned i = 0; i < window.len; ++i)
        accum[base + i] += data[i];
    if (++count[window.seq] == nworkers) {
        memcpy(data, &accum[base], window.len * 4);
        count[window.seq] = 0; _bcast();
    } else { _drop(); }
}
"#;
        let (m, mut st) = build(src, "allreduce", &[4]);
        st.ctrl_write(CtrlId(0), Value::u32(3));
        let k = m.kernel("allreduce").unwrap();
        let compiled = CompiledKernel::compile(k);
        let it = Interpreter::default();
        let mut scratch = ExecScratch::new();
        // Run both executors through three aggregation rounds, diffing
        // the evolving switch state after every window.
        let mut st_f = st.clone();
        for worker in 1..=3u32 {
            let mut wi = window_u32(&[worker; 4]);
            let mut wf = wi.clone();
            let ri = it.run_outgoing(k, &mut wi, &mut st).unwrap();
            let rf = compiled
                .run_outgoing(&mut wf, &mut st_f, &mut scratch)
                .unwrap();
            assert_eq!(ri, rf);
            assert_eq!(wi.chunks, wf.chunks);
            assert_eq!(st.registers, st_f.registers);
        }
        assert_eq!(st_f.registers[0].get(0), Value::i32(6));
        assert_eq!(st_f.registers[1].get(0), Value::u32(0));
    }

    #[test]
    fn map_hit_and_miss_match() {
        let src = r#"
_net_ _at_("s1") ncl::Map<uint64_t, uint8_t, 4> Idx;
_net_ _at_("s1") bool Valid[4] = {false};
_net_ _out_ void k(uint64_t key) {
    if (auto *i = Idx[key]) { Valid[*i] = true; _reflect(); }
}
"#;
        let (m, mut st) = build(src, "k", &[1]);
        let k = m.kernel("k").unwrap();
        let mut w = window_u32(&[]);
        w.chunks[0].data = 99u64.to_be_bytes().to_vec();
        let (fwd, _, _) = differential(k, &w, &st);
        assert_eq!(fwd.unwrap(), Forward::Pass); // miss
        assert!(st.map_insert(MapId(0), 99, Value::new(ScalarType::U8, 2)));
        let (fwd, _, sf) = differential(k, &w, &st);
        assert_eq!(fwd.unwrap(), Forward::Reflect); // hit
        assert_eq!(sf.registers[0].get(2), Value::bool(true));
    }

    #[test]
    fn incoming_kernel_matches_on_host_memory() {
        let src = r#"
_net_ _out_ void k(int *data) { _drop(); }
_net_ _in_ void recv(int *data, _ext_ int *hdata, _ext_ bool *done) {
    for (unsigned i = 0; i < window.len; ++i)
        hdata[window.seq * window.len + i] = data[i];
    if (window.last) *done = true;
}
"#;
        let checked = frontend(src, "t.ncl").unwrap();
        let mut cfg = LoweringConfig::with_mask("recv", vec![4]);
        cfg.masks.insert("k".into(), vec![4]);
        let m = lower(&checked, &cfg).unwrap();
        let k = m.kernel("recv").unwrap();
        let sizes = [(ScalarType::I32, 8), (ScalarType::Bool, 1)];
        let mut hi = HostMemory::new(&sizes);
        let mut hf = HostMemory::new(&sizes);
        let mut w = window_u32(&[9, 8, 7, 6]);
        w.seq = 1;
        w.last = true;
        let mut wf = w.clone();
        Interpreter::default()
            .run_incoming(k, &mut w, &mut hi)
            .unwrap();
        let compiled = CompiledKernel::compile(k);
        let mut scratch = ExecScratch::new();
        compiled
            .run_incoming(&mut wf, &mut hf, &mut scratch)
            .unwrap();
        assert_eq!(hi.arrays, hf.arrays);
        assert_eq!(hf.arrays[0].get(4), Value::i32(9));
        assert_eq!(hf.arrays[1].get(0), Value::bool(true));
    }

    #[test]
    fn register_wrap_and_oob_window_match() {
        let (m, st) = build(
            "_net_ _at_(\"s1\") int acc[4] = {0};\n\
             _net_ _out_ void k(int *data) { acc[data[0]] = 7; data[9] = 5; data[0] = data[8] + 1; _drop(); }",
            "k",
            &[2],
        );
        let k = m.kernel("k").unwrap();
        let w = window_u32(&[6, 4]);
        let (_, wf, sf) = differential(k, &w, &st);
        assert_eq!(sf.registers[0].get(2), Value::i32(7)); // 6 % 4 == 2
        assert_eq!(wf.chunks[0].get(ScalarType::I32, 0), Value::i32(1));
    }

    #[test]
    fn dynamic_loop_and_step_limit_match() {
        let (m, st) = build(
            "_net_ _out_ void k(int *data) {\n\
               int x = data[0];\n\
               while (x > 0) { x = x - 2; }\n\
               data[0] = x;\n\
             }",
            "k",
            &[1],
        );
        let k = m.kernel("k").unwrap();
        let (_, wf, _) = differential(k, &w7(), &st);
        assert_eq!(wf.chunks[0].get(ScalarType::I32, 0), Value::i32(-1));

        // Runaway loops exhaust the budget at the same instruction count.
        let (m, mut st) = build(
            "_net_ _out_ void k(int *data) { while (true) { data[0] += 1; } }",
            "k",
            &[1],
        );
        let k = m.kernel("k").unwrap();
        let it = Interpreter { step_limit: 10_000 };
        let compiled = CompiledKernel::compile(k).with_step_limit(10_000);
        let mut wi = window_u32(&[0]);
        let mut wf = wi.clone();
        let mut st_f = st.clone();
        let mut scratch = ExecScratch::new();
        assert_eq!(
            it.run_outgoing(k, &mut wi, &mut st),
            Err(InterpError::StepLimit)
        );
        assert_eq!(
            compiled.run_outgoing(&mut wf, &mut st_f, &mut scratch),
            Err(InterpError::StepLimit)
        );
        // Both stop with identical partial effects on the window.
        assert_eq!(wi.chunks, wf.chunks);
    }

    fn w7() -> Window {
        window_u32(&[7])
    }

    #[test]
    fn here_reads_location_dynamically() {
        let (m, mut st) = build(
            r#"_net_ _out_ void k(int *d) { if (_here("s1")) { _drop(); } else { _reflect(); } }"#,
            "k",
            &[1],
        );
        let k = m.kernel("k").unwrap();
        st.location = Some(Label::new("s1"));
        let (fwd, _, _) = differential(k, &w7(), &st);
        assert_eq!(fwd.unwrap(), Forward::Drop);
        st.location = Some(Label::new("s2"));
        let (fwd, _, _) = differential(k, &w7(), &st);
        assert_eq!(fwd.unwrap(), Forward::Reflect);
    }

    #[test]
    fn ext_fields_match() {
        let src = r#"
_wnd_ struct W { uint16_t tag; };
_net_ _out_ void k(int *d) { window.tag = window.tag + 1; }
"#;
        let (m, st) = build(src, "k", &[1]);
        let k = m.kernel("k").unwrap();
        let mut w = window_u32(&[0]);
        w.ext_write(0, Value::new(ScalarType::U16, 41));
        let (_, wf, _) = differential(k, &w, &st);
        assert_eq!(
            wf.ext_read(ScalarType::U16, 0),
            Value::new(ScalarType::U16, 42)
        );
    }

    #[test]
    fn compile_for_hoists_placement_checks() {
        let (mut m, _) = build(
            "_net_ _at_(\"s1\") int acc[4] = {0};\n\
             _net_ _out_ void k(int *data) { if (data[0] > 100) { acc[0] += 1; } }",
            "k",
            &[1],
        );
        // Pretend this module was versioned to a location that does not
        // host `acc`: the access compiles to a hoisted placement error...
        m.location = Some(Label::new("s2"));
        let st = SwitchState::from_module(&m);
        let k = m.kernel("k").unwrap();
        let compiled = CompiledKernel::compile_for(k, &m);
        let mut scratch = ExecScratch::new();
        // ...which fires only if the guarded access actually executes,
        // exactly like the interpreter's dynamic check.
        let mut w = window_u32(&[1]);
        let mut s = st.clone();
        assert_eq!(
            compiled.run_outgoing(&mut w, &mut s, &mut scratch).unwrap(),
            Forward::Pass
        );
        let mut w = window_u32(&[200]);
        let mut s = st.clone();
        assert_eq!(
            compiled.run_outgoing(&mut w, &mut s, &mut scratch),
            Err(InterpError::NotPlacedHere("register array"))
        );
        // The interpreter agrees on both.
        let it = Interpreter::default();
        let mut w = window_u32(&[1]);
        let mut s = st.clone();
        assert_eq!(it.run_outgoing(k, &mut w, &mut s).unwrap(), Forward::Pass);
        let mut w = window_u32(&[200]);
        let mut s = st;
        assert_eq!(
            it.run_outgoing(k, &mut w, &mut s),
            Err(InterpError::NotPlacedHere("register array"))
        );
    }

    /// Scaling guard: lowering reads two facts per array (placed here,
    /// slot count), so its cost follows the kernel, not the register
    /// file — a scan of the initializer per store (268M element reads
    /// here, 1.4 s in a debug build) overshoots the budget by more than
    /// ten times. An off-type initializer changes nothing: the array
    /// holds it cast to `elem`, and every store lowers the same way.
    #[test]
    fn lowering_cost_follows_the_kernel_not_the_initializer() {
        const SLOTS: usize = 65_536;
        const STORES: usize = 4_096;
        let mut init = vec![Value::i32(0); SLOTS];
        init[SLOTS - 1] = Value::u32(u32::MAX);
        let index = Operand::Reg(RegId(0));
        let val = Operand::Const(Value::i32(1));
        let mut insts = vec![Inst::LdMeta {
            dst: RegId(0),
            field: MetaField::Seq,
        }];
        let arr = ArrId(0);
        insts.extend((0..STORES).map(|_| Inst::StReg { arr, index, val }));
        insts.push(Inst::StReg {
            arr,
            index: Operand::Const(Value::u32(SLOTS as u32 - 2)),
            val,
        });
        let module = Module {
            registers: vec![RegisterDecl {
                name: "a".into(),
                at: None,
                elem: ScalarType::I32,
                dims: vec![SLOTS],
                init,
                span: Default::default(),
            }],
            kernels: vec![KernelIr {
                name: "k".into(),
                kind: ncl_lang::ast::KernelKind::Outgoing,
                at: None,
                params: vec![],
                mask: vec![],
                blocks: vec![Block {
                    insts,
                    term: Terminator::Ret,
                }],
                nregs: 1,
                reg_tys: vec![ScalarType::U32],
                span: Default::default(),
            }],
            ..Module::default()
        };
        let started = std::time::Instant::now();
        let compiled = CompiledKernel::compile_for(&module.kernels[0], &module);
        let took = started.elapsed();
        let masked = |op: &&Op| matches!(op, Op::StRegM { mask: 0xFFFF, .. });
        assert_eq!(compiled.ops.iter().filter(masked).count(), STORES);
        assert!(matches!(compiled.ops[STORES + 1], Op::StRegC { .. }));
        assert!(took.as_millis() < 100, "lowering took {took:?}");

        let mut st = SwitchState::from_module(&module);
        assert_eq!(st.registers[0].get(SLOTS - 1), Value::i32(-1));
        let mut w = window_u32(&[]);
        compiled
            .run_outgoing(&mut w, &mut st, &mut ExecScratch::new())
            .unwrap();
        assert_eq!(st.registers[0].get(0), Value::i32(1));
        assert_eq!(st.registers[0].get(SLOTS - 2), Value::i32(1));
    }

    /// Hand-built copies between a 16-bit chunk and 32-bit slots — no
    /// cast instruction in between, so they fuse with mixed types and
    /// the runs take the `get`/`set` loop: sign extension into the
    /// slots, truncation back into the window, in every engine.
    #[test]
    fn mixed_width_fused_copies_cast_per_element() {
        const N: u32 = 12;
        // Registers: seq, then one index per group, then the values.
        let (seq, k, arr) = (RegId(0), |g: u32| RegId(1 + g), ArrId(0));
        let mut insts = vec![Inst::LdMeta {
            dst: seq,
            field: MetaField::Seq,
        }];
        // win → reg over chunk elements 0..N, then reg → win shifted
        // by one slot, so the window reads back its neighbours.
        for c in 0..N {
            let (w, k, index) = (RegId(1 + 2 * N + c), k(c), Operand::Const(Value::u32(c)));
            insts.push(Inst::LdWin {
                dst: w,
                param: 0,
                index,
            });
            insts.push(Inst::Bin {
                dst: k,
                op: BinOp::Add,
                a: Operand::Reg(seq),
                b: index,
            });
            insts.push(Inst::StReg {
                arr,
                index: Operand::Reg(k),
                val: Operand::Reg(w),
            });
        }
        for c in 0..N {
            let (d, k, index) = (
                RegId(1 + 3 * N + c),
                k(N + c),
                Operand::Const(Value::u32(c + 1)),
            );
            insts.push(Inst::Bin {
                dst: k,
                op: BinOp::Add,
                a: Operand::Reg(seq),
                b: index,
            });
            insts.push(Inst::LdReg {
                dst: d,
                arr,
                index: Operand::Reg(k),
            });
            insts.push(Inst::StWin {
                param: 0,
                index,
                val: Operand::Reg(d),
            });
        }
        let mut reg_tys = vec![ScalarType::U32; 1 + 2 * N as usize];
        reg_tys.extend((0..N).map(|_| ScalarType::I16));
        reg_tys.extend((0..N).map(|_| ScalarType::I32));
        let module = Module {
            registers: vec![RegisterDecl {
                name: "a".into(),
                at: None,
                elem: ScalarType::I32,
                dims: vec![16],
                init: vec![],
                span: Default::default(),
            }],
            kernels: vec![KernelIr {
                name: "k".into(),
                kind: ncl_lang::ast::KernelKind::Outgoing,
                at: None,
                params: vec![ncl_lang::sema::ParamInfo {
                    name: "d".into(),
                    elem: ScalarType::I16,
                    is_ptr: true,
                    ext: false,
                }],
                mask: vec![N as u16 + 1],
                blocks: vec![Block {
                    insts,
                    term: Terminator::Ret,
                }],
                nregs: reg_tys.len() as u32,
                reg_tys,
                span: Default::default(),
            }],
            ..Module::default()
        };
        let kir = &module.kernels[0];
        let simd = CompiledKernel::compile_for(kir, &module);
        assert_eq!(simd.vec_runs(), 2, "both copies fuse");
        let scalar = simd.clone().with_simd(false);
        let mut w = window_u32(&[]);
        w.seq = 9; // slots 9..21 wrap the 16-slot array
        w.chunks[0].data = (0..=N as i32)
            .flat_map(|i| ((i * 0x0BCD - 0x4000) as i16).to_be_bytes())
            .collect();
        let (mut wi, mut si) = (w.clone(), SwitchState::from_module(&module));
        Interpreter::default()
            .run_outgoing(kir, &mut wi, &mut si)
            .unwrap();
        assert_eq!(si.registers[0].get(9), Value::i32(-0x4000), "sign-extended");
        for engine in [&scalar, &simd] {
            let (mut wf, mut sf) = (w.clone(), SwitchState::from_module(&module));
            engine
                .run_outgoing(&mut wf, &mut sf, &mut ExecScratch::new())
                .unwrap();
            assert_eq!(wi, wf);
            assert_eq!(si, sf);
        }
    }

    #[test]
    fn scratch_reuse_is_clean_across_kernels() {
        // One scratch serving two kernels of different register counts
        // must not leak state between runs.
        let (m1, st1) = build("_net_ _out_ void a(int *data) { data[0] += 1; }", "a", &[1]);
        let (m2, st2) = build(
            "_net_ _out_ void b(int *data) { for (unsigned i = 0; i < window.len; ++i) data[i] = data[i] * 2; }",
            "b",
            &[4],
        );
        let ka = CompiledKernel::compile(m1.kernel("a").unwrap());
        let kb = CompiledKernel::compile(m2.kernel("b").unwrap());
        let mut scratch = ExecScratch::new();
        let (mut sa, mut sb) = (st1.clone(), st2.clone());
        for round in 0..3 {
            let mut w = window_u32(&[round]);
            ka.run_outgoing(&mut w, &mut sa, &mut scratch).unwrap();
            assert_eq!(
                w.chunks[0].get(ScalarType::I32, 0),
                Value::i32(round as i32 + 1)
            );
            let mut w = window_u32(&[1, 2, 3, 4]);
            kb.run_outgoing(&mut w, &mut sb, &mut scratch).unwrap();
            assert_eq!(w.chunks[0].get(ScalarType::I32, 3), Value::i32(8));
        }
    }
}
