//! The reference interpreter for NCL kernels in IR form.
//!
//! Executes a kernel directly on a [`Window`] plus device state, giving
//! the *semantic ground truth* the PISA-compiled pipeline must match.
//! Deliberate edge-case definitions (shared with the pipeline):
//!
//! * window-data reads out of chunk bounds yield 0; writes are dropped
//!   (a switch reading an unset PHV container sees zeros);
//! * register-array indices wrap modulo the array length (hardware
//!   index registers wrap);
//! * map misses read as value 0 with the hit bit clear;
//! * the forwarding decision defaults to `_pass()`; the last executed
//!   `Fwd` wins.

use crate::ir::*;
use c3::{Forward, Label, RegArray, ScalarType, Value, Window};
use std::collections::HashMap;

/// Runtime switch state for one device: register arrays, control
/// variables, map contents, and the device's identity. The `Default`
/// state is the empty host-side state `run_incoming` executes against.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SwitchState {
    /// Register contents, indexed by [`ArrId`].
    pub registers: Vec<RegArray>,
    /// Control variable values, indexed by [`CtrlId`].
    pub ctrls: Vec<Value>,
    /// Map contents (key bits → value), indexed by [`MapId`].
    pub maps: Vec<HashMap<u64, Value>>,
    /// Map capacities (inserts beyond capacity are rejected).
    pub map_caps: Vec<usize>,
    /// The device's numeric id (`location.id`).
    pub location_id: u16,
    /// The device's AND label, resolved against `_here()`/`_at_`.
    pub location: Option<Label>,
}

impl SwitchState {
    /// Initializes state for a module: registers get their initializers,
    /// ctrls their initial values, maps start empty. Declarations not
    /// placed at this module's location still get slots (so `ArrId`s
    /// stay stable) but are zero-sized.
    pub fn from_module(module: &Module) -> Self {
        let registers = module
            .registers
            .iter()
            .map(|r| {
                if module.placed_here(&r.at) {
                    RegArray::new(r.elem, r.len(), &r.init)
                } else {
                    RegArray::new(r.elem, 0, &[])
                }
            })
            .collect();
        let ctrls = module.ctrls.iter().map(|c| c.init).collect();
        let maps = module.maps.iter().map(|_| HashMap::new()).collect();
        let map_caps = module.maps.iter().map(|m| m.capacity).collect();
        SwitchState {
            registers,
            ctrls,
            maps,
            map_caps,
            location_id: 0,
            location: module.location.clone(),
        }
    }

    /// Control-plane write of a control variable (host-side
    /// `ncl::ctrl_wr`).
    pub fn ctrl_write(&mut self, ctrl: CtrlId, v: Value) {
        let slot = &mut self.ctrls[ctrl.0 as usize];
        *slot = v.cast(slot.ty());
    }

    /// Control-plane map insert. Returns `false` when the map is full.
    pub fn map_insert(&mut self, map: MapId, key: u64, value: Value) -> bool {
        let m = &mut self.maps[map.0 as usize];
        if !m.contains_key(&key) && m.len() >= self.map_caps[map.0 as usize] {
            return false;
        }
        m.insert(key, value);
        true
    }

    /// Control-plane map removal (cache eviction, paper §4.3).
    pub fn map_remove(&mut self, map: MapId, key: u64) -> bool {
        self.maps[map.0 as usize].remove(&key).is_some()
    }
}

/// Host-side memory backing the `_ext_` parameters of an incoming
/// kernel: one packed array per `_ext_` parameter.
#[derive(Clone, Debug, Default)]
pub struct HostMemory {
    /// One array per `_ext_` parameter, in parameter order.
    pub arrays: Vec<RegArray>,
}

impl HostMemory {
    /// Allocates zeroed arrays sized per `_ext_` parameter.
    pub fn new(sizes: &[(ScalarType, usize)]) -> Self {
        HostMemory {
            arrays: sizes
                .iter()
                .map(|&(ty, n)| RegArray::new(ty, n, &[]))
                .collect(),
        }
    }

    /// Reads element `idx` of `_ext_` array `param`; out of range (or no
    /// such array) reads a zero of `ty`.
    #[inline]
    pub fn load(&self, param: usize, idx: usize, ty: ScalarType) -> Value {
        self.arrays
            .get(param)
            .and_then(|a| a.try_get(idx))
            .unwrap_or_else(|| Value::zero(ty))
    }

    /// Writes element `idx` of `_ext_` array `param` at the array's type;
    /// out of range the write is dropped.
    #[inline]
    pub fn store(&mut self, param: usize, idx: usize, v: Value) {
        if let Some(a) = self.arrays.get_mut(param) {
            a.try_set(idx, v);
        }
    }
}

/// Errors during interpretation (all indicate compiler bugs or resource
/// exhaustion, not user errors).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum InterpError {
    /// The step budget was exhausted (runaway loop).
    StepLimit,
    /// An instruction referenced device state the module does not place
    /// at this location.
    NotPlacedHere(&'static str),
}

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpError::StepLimit => write!(f, "interpreter step limit exceeded"),
            InterpError::NotPlacedHere(what) => {
                write!(f, "access to {what} that is not placed at this location")
            }
        }
    }
}

impl std::error::Error for InterpError {}

/// The kernel interpreter. Stateless; construct once and reuse.
#[derive(Clone, Copy, Debug)]
pub struct Interpreter {
    /// Maximum executed instructions per kernel run.
    pub step_limit: usize,
}

impl Default for Interpreter {
    fn default() -> Self {
        Interpreter {
            step_limit: 1_000_000,
        }
    }
}

impl Interpreter {
    /// Runs an outgoing kernel on a window at a switch. Mutates the
    /// window's chunks/ext and the switch state; returns the forwarding
    /// decision.
    pub fn run_outgoing(
        &self,
        kernel: &KernelIr,
        window: &mut Window,
        state: &mut SwitchState,
    ) -> Result<Forward, InterpError> {
        let mut host = HostMemory::default();
        self.run(kernel, window, state, &mut host)
    }

    /// Runs an incoming kernel on a window at a host; `_ext_` parameter
    /// arrays live in `host`.
    pub fn run_incoming(
        &self,
        kernel: &KernelIr,
        window: &mut Window,
        host: &mut HostMemory,
    ) -> Result<(), InterpError> {
        // Hosts have no switch state; feed an empty one.
        self.run(kernel, window, &mut SwitchState::default(), host)
            .map(|_| ())
    }

    fn run(
        &self,
        kernel: &KernelIr,
        window: &mut Window,
        state: &mut SwitchState,
        host: &mut HostMemory,
    ) -> Result<Forward, InterpError> {
        let mut regs: Vec<Value> = kernel.reg_tys.iter().map(|&ty| Value::zero(ty)).collect();
        let mut decision = Forward::Pass;
        let mut steps = 0usize;
        let mut block = BlockId(0);
        // Map window parameter index -> element type, from the kernel
        // signature (window params only).
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
        'outer: loop {
            let b = kernel.block(block);
            for inst in &b.insts {
                steps += 1;
                if steps > self.step_limit {
                    return Err(InterpError::StepLimit);
                }
                self.step(
                    inst,
                    &mut regs,
                    window,
                    state,
                    host,
                    &win_params,
                    &ext_params,
                    &mut decision,
                )?;
            }
            steps += 1;
            if steps > self.step_limit {
                return Err(InterpError::StepLimit);
            }
            match &b.term {
                Terminator::Ret => break 'outer,
                Terminator::Jmp(next) => block = *next,
                Terminator::Br { cond, then, els } => {
                    let c = operand(cond, &regs);
                    block = if c.is_truthy() { *then } else { *els };
                }
            }
        }
        Ok(decision)
    }

    #[allow(clippy::too_many_arguments)]
    fn step(
        &self,
        inst: &Inst,
        regs: &mut [Value],
        window: &mut Window,
        state: &mut SwitchState,
        host: &mut HostMemory,
        win_params: &[ScalarType],
        ext_params: &[ScalarType],
        decision: &mut Forward,
    ) -> Result<(), InterpError> {
        match inst {
            Inst::Bin { dst, op, a, b } => {
                let va = operand(a, regs);
                let vb = operand(b, regs);
                regs[dst.0 as usize] = Value::binop(*op, va, vb);
            }
            Inst::Un { dst, op, a } => {
                regs[dst.0 as usize] = Value::unop(*op, operand(a, regs));
            }
            Inst::Cast { dst, ty, a } => {
                regs[dst.0 as usize] = operand(a, regs).cast(*ty);
            }
            Inst::Select { dst, cond, a, b } => {
                let c = operand(cond, regs);
                regs[dst.0 as usize] = if c.is_truthy() {
                    operand(a, regs)
                } else {
                    operand(b, regs)
                };
            }
            Inst::Copy { dst, a } => {
                regs[dst.0 as usize] = operand(a, regs);
            }
            Inst::LdWin { dst, param, index } => {
                let ty = win_params[*param as usize];
                let idx = operand(index, regs).bits() as usize;
                let v = window
                    .chunks
                    .get(*param as usize)
                    .filter(|c| idx < c.elems(ty))
                    .map(|c| c.get(ty, idx))
                    .unwrap_or_else(|| Value::zero(ty));
                regs[dst.0 as usize] = v;
            }
            Inst::StWin { param, index, val } => {
                let ty = win_params[*param as usize];
                let idx = operand(index, regs).bits() as usize;
                let v = operand(val, regs).cast(ty);
                if let Some(c) = window.chunks.get_mut(*param as usize) {
                    if idx < c.elems(ty) {
                        c.set(ty, idx, v);
                    }
                }
            }
            Inst::LdMeta { dst, field } => {
                let v = match field {
                    MetaField::Seq => Value::u32(window.seq),
                    MetaField::Sender => Value::new(ScalarType::U16, window.sender.0 as u64),
                    MetaField::From => Value::new(ScalarType::U16, window.from.to_wire() as u64),
                    MetaField::Len => {
                        let ty = win_params.first().copied().unwrap_or(ScalarType::U8);
                        let n = window.chunks.first().map(|c| c.elems(ty)).unwrap_or(0);
                        Value::new(ScalarType::U16, n as u64)
                    }
                    MetaField::NChunks => Value::new(ScalarType::U8, window.chunks.len() as u64),
                    MetaField::Last => Value::bool(window.last),
                    MetaField::Ext(off, ty) => window.ext_read(*ty, *off as usize),
                    MetaField::LocationId => Value::new(ScalarType::U16, state.location_id as u64),
                };
                regs[dst.0 as usize] = v;
            }
            Inst::StExt { offset, ty, val } => {
                let v = operand(val, regs).cast(*ty);
                window.ext_write(*offset as usize, v);
            }
            Inst::LdReg { dst, arr, index } => {
                let a = &state.registers[arr.0 as usize];
                if a.is_empty() {
                    return Err(InterpError::NotPlacedHere("register array"));
                }
                let idx = operand(index, regs).bits() as usize % a.len();
                regs[dst.0 as usize] = a.get(idx);
            }
            Inst::StReg { arr, index, val } => {
                let v = operand(val, regs);
                let a = &mut state.registers[arr.0 as usize];
                if a.is_empty() {
                    return Err(InterpError::NotPlacedHere("register array"));
                }
                let idx = operand(index, regs).bits() as usize % a.len();
                a.set(idx, v);
            }
            Inst::LdCtrl { dst, ctrl } => {
                regs[dst.0 as usize] = state.ctrls[ctrl.0 as usize];
            }
            Inst::MapGet {
                found,
                val,
                map,
                key,
            } => {
                let k = operand(key, regs).bits();
                let ty = regs[val.0 as usize].ty();
                match state.maps[map.0 as usize].get(&k) {
                    Some(v) => {
                        regs[found.0 as usize] = Value::bool(true);
                        regs[val.0 as usize] = v.cast(ty);
                    }
                    None => {
                        regs[found.0 as usize] = Value::bool(false);
                        regs[val.0 as usize] = Value::zero(ty);
                    }
                }
            }
            Inst::LdHost { dst, param, index } => {
                let ty = ext_params
                    .get(*param as usize)
                    .copied()
                    .unwrap_or(ScalarType::I32);
                let idx = operand(index, regs).bits() as usize;
                regs[dst.0 as usize] = host.load(*param as usize, idx, ty);
            }
            Inst::StHost { param, index, val } => {
                let v = operand(val, regs);
                let idx = operand(index, regs).bits() as usize;
                host.store(*param as usize, idx, v);
            }
            Inst::Fwd { kind, label } => {
                *decision = match kind {
                    FwdKind::Pass => match label {
                        Some(l) => Forward::PassTo(l.clone()),
                        None => Forward::Pass,
                    },
                    FwdKind::Reflect => Forward::Reflect,
                    FwdKind::Bcast => Forward::Bcast,
                    FwdKind::Drop => Forward::Drop,
                };
            }
            Inst::Here { dst, label } => {
                let here = state.location.as_ref().map(|l| l == label).unwrap_or(false);
                regs[dst.0 as usize] = Value::bool(here);
            }
        }
        Ok(())
    }
}

fn operand(o: &Operand, regs: &[Value]) -> Value {
    match o {
        Operand::Const(v) => *v,
        Operand::Reg(r) => regs[r.0 as usize],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn increment_kernel() {
        let (m, mut st) = build(
            "_net_ _out_ void inc(int *data) { data[0] += 1; }",
            "inc",
            &[1],
        );
        let mut w = window_u32(&[41]);
        let fwd = Interpreter::default()
            .run_outgoing(m.kernel("inc").unwrap(), &mut w, &mut st)
            .unwrap();
        assert_eq!(fwd, Forward::Pass);
        assert_eq!(w.chunks[0].get(ScalarType::I32, 0), Value::i32(42));
    }

    #[test]
    fn accumulate_into_registers() {
        let (m, mut st) = build(
            "_net_ _at_(\"s1\") int acc[8] = {0};\n\
             _net_ _out_ void k(int *data) {\n\
               for (unsigned i = 0; i < window.len; ++i) acc[i] += data[i];\n\
               _drop();\n\
             }",
            "k",
            &[4],
        );
        let k = m.kernel("k").unwrap();
        let it = Interpreter::default();
        let mut w = window_u32(&[1, 2, 3, 4]);
        assert_eq!(it.run_outgoing(k, &mut w, &mut st).unwrap(), Forward::Drop);
        let mut w2 = window_u32(&[10, 20, 30, 40]);
        it.run_outgoing(k, &mut w2, &mut st).unwrap();
        assert_eq!(st.registers[0].get(0), Value::i32(11));
        assert_eq!(st.registers[0].get(3), Value::i32(44));
        assert_eq!(st.registers[0].get(4), Value::i32(0));
    }

    #[test]
    fn allreduce_semantics() {
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
        st.ctrl_write(CtrlId(0), Value::u32(3)); // 3 workers
        let k = m.kernel("allreduce").unwrap();
        let it = Interpreter::default();
        // Worker contributions 1,1,1,1 / 2,2,2,2 / 3,3,3,3 at seq 0.
        for worker in 1..=3u32 {
            let mut w = window_u32(&[worker; 4]);
            let fwd = it.run_outgoing(k, &mut w, &mut st).unwrap();
            if worker < 3 {
                assert_eq!(fwd, Forward::Drop);
            } else {
                assert_eq!(fwd, Forward::Bcast);
                for i in 0..4 {
                    assert_eq!(w.chunks[0].get(ScalarType::I32, i), Value::i32(6));
                }
            }
        }
        // Slot counter reset: a fourth window restarts aggregation.
        assert_eq!(st.registers[1].get(0), Value::u32(0));
        // accum keeps the sum (it is rewritten next round).
        assert_eq!(st.registers[0].get(0), Value::i32(6));
    }

    #[test]
    fn window_seq_addresses_slots() {
        let src = r#"
_net_ _at_("s1") int accum[8] = {0};
_net_ _out_ void k(int *data) {
    unsigned base = window.seq * window.len;
    for (unsigned i = 0; i < window.len; ++i)
        accum[base + i] += data[i];
    _drop();
}
"#;
        let (m, mut st) = build(src, "k", &[4]);
        let k = m.kernel("k").unwrap();
        let it = Interpreter::default();
        let mut w = window_u32(&[5, 6, 7, 8]);
        w.seq = 1;
        it.run_outgoing(k, &mut w, &mut st).unwrap();
        assert_eq!(st.registers[0].get(0), Value::i32(0));
        assert_eq!(st.registers[0].get(4), Value::i32(5));
        assert_eq!(st.registers[0].get(7), Value::i32(8));
    }

    #[test]
    fn map_hit_and_miss() {
        let src = r#"
_net_ _at_("s1") ncl::Map<uint64_t, uint8_t, 4> Idx;
_net_ _at_("s1") bool Valid[4] = {false};
_net_ _out_ void k(uint64_t key) {
    if (auto *i = Idx[key]) { Valid[*i] = true; _reflect(); }
}
"#;
        let (m, mut st) = build(src, "k", &[1]);
        let k = m.kernel("k").unwrap();
        let it = Interpreter::default();
        // Miss: default pass, no Valid write.
        let mut w = Window {
            kernel: KernelId(0),
            seq: 0,
            sender: HostId(1),
            from: NodeId::Host(HostId(1)),
            last: false,
            chunks: vec![Chunk {
                offset: 0,
                data: 99u64.to_be_bytes().to_vec(),
            }],
            ext: vec![],
        };
        assert_eq!(it.run_outgoing(k, &mut w, &mut st).unwrap(), Forward::Pass);
        assert_eq!(st.registers[0].get(2), Value::bool(false));
        // Hit: reflect and set Valid[2].
        assert!(st.map_insert(MapId(0), 99, Value::new(ScalarType::U8, 2)));
        assert_eq!(
            it.run_outgoing(k, &mut w, &mut st).unwrap(),
            Forward::Reflect
        );
        assert_eq!(st.registers[0].get(2), Value::bool(true));
    }

    #[test]
    fn map_capacity_enforced() {
        let src = r#"
_net_ _at_("s1") ncl::Map<uint64_t, uint8_t, 2> Idx;
_net_ _out_ void k(uint64_t key) { if (auto *i = Idx[key]) { _drop(); } }
"#;
        let (_, mut st) = build(src, "k", &[1]);
        assert!(st.map_insert(MapId(0), 1, Value::new(ScalarType::U8, 0)));
        assert!(st.map_insert(MapId(0), 2, Value::new(ScalarType::U8, 1)));
        assert!(!st.map_insert(MapId(0), 3, Value::new(ScalarType::U8, 2)));
        // Overwrite of an existing key is allowed.
        assert!(st.map_insert(MapId(0), 2, Value::new(ScalarType::U8, 7)));
        assert!(st.map_remove(MapId(0), 1));
        assert!(st.map_insert(MapId(0), 3, Value::new(ScalarType::U8, 2)));
    }

    #[test]
    fn incoming_kernel_writes_host_memory() {
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
        let mut host = HostMemory::new(&[(ScalarType::I32, 8), (ScalarType::Bool, 1)]);
        let it = Interpreter::default();
        let mut w = window_u32(&[9, 8, 7, 6]);
        w.seq = 1;
        w.last = true;
        it.run_incoming(k, &mut w, &mut host).unwrap();
        assert_eq!(host.arrays[0].get(4), Value::i32(9));
        assert_eq!(host.arrays[0].get(7), Value::i32(6));
        assert_eq!(host.arrays[1].get(0), Value::bool(true));
        assert_eq!(host.arrays[0].get(0), Value::i32(0));
    }

    /// Switch memory costs the declared width, not a tagged `Value`, and
    /// loading it is one zeroed allocation plus the explicit prefix:
    /// 4 B per `int` slot, and `from_module` of a 1 Mi-element array
    /// well inside 50 ms even unoptimised (a per-slot fill of 16-byte
    /// values took longer than that at this size).
    #[test]
    fn register_arrays_cost_their_declared_width() {
        const SLOTS: usize = 1 << 20;
        let module = Module {
            registers: vec![RegisterDecl {
                name: "accum".into(),
                at: None,
                elem: ScalarType::I32,
                dims: vec![SLOTS],
                init: vec![Value::i32(7)],
                span: Default::default(),
            }],
            ..Module::default()
        };
        let started = std::time::Instant::now();
        let st = SwitchState::from_module(&module);
        let took = started.elapsed();
        let c3::Lanes::W32(lanes) = st.registers[0].lanes() else {
            panic!("int slots are u32 lanes")
        };
        assert_eq!(std::mem::size_of_val(&lanes[..]), 4 * SLOTS);
        assert_eq!(lanes.capacity(), SLOTS);
        assert_eq!(st.registers[0].get(0), Value::i32(7));
        assert_eq!(st.registers[0].get(SLOTS - 1), Value::i32(0));
        assert!(took.as_millis() < 50, "from_module took {took:?}");
    }

    #[test]
    fn register_index_wraps() {
        let (m, mut st) = build(
            "_net_ _at_(\"s1\") int acc[4] = {0};\n\
             _net_ _out_ void k(int *data) { acc[data[0]] = 7; _drop(); }",
            "k",
            &[1],
        );
        let k = m.kernel("k").unwrap();
        let mut w = window_u32(&[6]); // 6 % 4 == 2
        Interpreter::default()
            .run_outgoing(k, &mut w, &mut st)
            .unwrap();
        assert_eq!(st.registers[0].get(2), Value::i32(7));
    }

    #[test]
    fn oob_window_read_is_zero_write_dropped() {
        let (m, mut st) = build(
            "_net_ _out_ void k(int *data) { data[9] = 5; data[0] = data[8] + 1; }",
            "k",
            &[2],
        );
        let k = m.kernel("k").unwrap();
        let mut w = window_u32(&[3, 4]);
        Interpreter::default()
            .run_outgoing(k, &mut w, &mut st)
            .unwrap();
        assert_eq!(w.chunks[0].get(ScalarType::I32, 0), Value::i32(1));
        assert_eq!(w.chunks[0].get(ScalarType::I32, 1), Value::i32(4));
    }

    #[test]
    fn dynamic_while_loop_runs_in_interpreter() {
        // Host-style kernel with a data-dependent loop: fine for the
        // interpreter (conformance will reject it for switches).
        let (m, mut st) = build(
            "_net_ _out_ void k(int *data) {\n\
               int x = data[0];\n\
               while (x > 0) { x = x - 2; }\n\
               data[0] = x;\n\
             }",
            "k",
            &[1],
        );
        let k = m.kernel("k").unwrap();
        let mut w = window_u32(&[7]);
        Interpreter::default()
            .run_outgoing(k, &mut w, &mut st)
            .unwrap();
        assert_eq!(w.chunks[0].get(ScalarType::I32, 0), Value::i32(-1));
    }

    #[test]
    fn infinite_loop_hits_step_limit() {
        let (m, mut st) = build(
            "_net_ _out_ void k(int *data) { while (true) { data[0] += 1; } }",
            "k",
            &[1],
        );
        let k = m.kernel("k").unwrap();
        let it = Interpreter { step_limit: 10_000 };
        let mut w = window_u32(&[0]);
        assert_eq!(
            it.run_outgoing(k, &mut w, &mut st),
            Err(InterpError::StepLimit)
        );
    }

    #[test]
    fn here_depends_on_location() {
        let (m, mut st) = build(
            r#"_net_ _out_ void k(int *d) { if (_here("s1")) { _drop(); } else { _reflect(); } }"#,
            "k",
            &[1],
        );
        let k = m.kernel("k").unwrap();
        let it = Interpreter::default();
        let mut w = window_u32(&[0]);
        st.location = Some(Label::new("s1"));
        assert_eq!(it.run_outgoing(k, &mut w, &mut st).unwrap(), Forward::Drop);
        st.location = Some(Label::new("s2"));
        assert_eq!(
            it.run_outgoing(k, &mut w, &mut st).unwrap(),
            Forward::Reflect
        );
    }

    #[test]
    fn ext_field_roundtrip() {
        let src = r#"
_wnd_ struct W { uint16_t tag; };
_net_ _out_ void k(int *d) { window.tag = window.tag + 1; }
"#;
        let (m, mut st) = build(src, "k", &[1]);
        let k = m.kernel("k").unwrap();
        let it = Interpreter::default();
        let mut w = window_u32(&[0]);
        w.ext_write(0, Value::new(ScalarType::U16, 41));
        it.run_outgoing(k, &mut w, &mut st).unwrap();
        assert_eq!(
            w.ext_read(ScalarType::U16, 0),
            Value::new(ScalarType::U16, 42)
        );
    }
}
