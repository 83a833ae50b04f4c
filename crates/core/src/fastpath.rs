//! The compiled fast-path switch datapath.
//!
//! A [`FastPathSwitch`] is the lean per-packet executor for one switch
//! location. It loads the kernels nclc lowered for the location
//! ([`CompiledProgram::switch_kernels`]) by NCP kernel id and lowers
//! nothing itself: every switch built from one program shares them.
//! Building one costs a reference per kernel plus one zeroed allocation
//! per register array, packed at its declared width; register
//! initializers are explicit prefixes, so the time to the first window
//! grows with neither the kernel nor switch memory × instructions.
//! Window processing then runs the linear micro-op program against the
//! location's persistent [`SwitchState`] with a reusable [`ExecScratch`]
//! and the zero-copy NCP codec ([`decode_window_into`] /
//! [`encode_window_into`]), so the steady state allocates only the
//! outgoing packet buffer.
//!
//! It plugs into the simulator as a [`netsim::FastDatapath`]
//! (see [`crate::deploy::SwitchBackend::FastPath`]) and serves as the
//! software-switch engine for the Sockets/UDP backend. The modeled PISA
//! pipeline remains the resource-checked hardware model; the
//! differential tests below hold the two to identical verdicts, output
//! windows, and register state.

use crate::nclc::CompiledProgram;
use c3::{Forward, Label, Value, Window};
use ncl_ir::ir::{CtrlId, MapId};
use ncl_ir::{CompiledKernel, ExecScratch, SwitchState};
use ncp::codec::{decode_window_into, encode_window_into};
use ncp::{NcpPacket, FLAG_ACK, FLAG_FRAGMENT, FLAG_NACK};
use nctel::{Counter, Registry};
use netsim::{CtrlOp, FastDatapath, FastVerdict};
use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

/// A compiled fast-path datapath for one switch location.
pub struct FastPathSwitch {
    /// NCP kernel id → the program's lowered kernel (placement checks
    /// hoisted for this location), shared with every other switch built
    /// from the program on the same tier.
    kernels: HashMap<u16, Arc<CompiledKernel>>,
    /// The location's persistent device state.
    pub state: SwitchState,
    scratch: ExecScratch,
    /// Decoded-window scratch, reused across packets.
    win: Window,
    ext_total: usize,
    ctrl_by_name: HashMap<String, CtrlId>,
    /// Compiled register-copy name → ctrl (deferred control ops arrive
    /// under the names the backend assigned).
    ctrl_by_copy: HashMap<String, CtrlId>,
    map_by_name: HashMap<String, MapId>,
    /// Compiled lookup-table name → map.
    map_by_table: HashMap<String, MapId>,
    reg_by_name: HashMap<String, usize>,
    /// Compiled lane-bank name → (register, lane, lanes): slot `s` of
    /// the bank is source element `s * lanes + lane`.
    reg_by_bank: HashMap<String, (usize, usize, usize)>,
    label_wires: HashMap<Label, u16>,
    /// Windows executed (nctel counter; cache hits of the compiled-
    /// kernel cache).
    windows: Counter,
    /// NCP windows this datapath declined (fragments, unknown kernels
    /// — cache misses, plainly forwarded).
    misses: Counter,
    /// Kernel executions that errored (window forwarded unmodified).
    errors: Counter,
}

impl FastPathSwitch {
    /// Builds the datapath for one switch label of a compiled program
    /// on the default tier (ncvec SIMD offered); `None` when the label
    /// has no module.
    pub fn from_program(program: &CompiledProgram, label: &str) -> Option<Self> {
        Self::from_program_with(program, label, true)
    }

    /// [`FastPathSwitch::from_program`] with explicit tier selection:
    /// `simd` offers fused element-wise runs to the ncvec SIMD tier
    /// (kernels with no fusible runs execute identically either way),
    /// `false` pins the scalar micro-op fast path, the A/B baseline
    /// [`crate::deploy::SwitchBackend::FastPath`] uses. Nothing is
    /// lowered here: the SIMD tier shares the program's lowered kernels
    /// ([`CompiledProgram::switch_kernels`]) and the scalar tier runs a
    /// copy of each with the SIMD offer withdrawn. The backend's compiled
    /// control-register, lookup-table and lane-bank names are aliased so
    /// deferred [`CtrlOp`]s emitted by [`crate::control::ControlPlane`]
    /// resolve unchanged.
    pub fn from_program_with(program: &CompiledProgram, label: &str, simd: bool) -> Option<Self> {
        let module = program.module(label)?;
        let mut state = SwitchState::from_module(module);
        state.location_id = program.overlay.node(label)?.id;
        let kernels = program
            .kernels_at(label)?
            .iter()
            .map(|(&id, k)| {
                let k = if k.simd() == simd {
                    Arc::clone(k)
                } else {
                    Arc::new(CompiledKernel::clone(k).with_simd(simd))
                };
                (id, k)
            })
            .collect();
        let ctrl_by_name: HashMap<String, CtrlId> = module
            .ctrls
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name.clone(), CtrlId(i as u32)))
            .collect();
        let map_by_name: HashMap<String, MapId> = module
            .maps
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name.clone(), MapId(i as u32)))
            .collect();
        let reg_by_name: HashMap<String, usize> = module
            .registers
            .iter()
            .enumerate()
            .map(|(i, r)| (r.name.clone(), i))
            .collect();
        let mut ctrl_by_copy = HashMap::new();
        let mut map_by_table = HashMap::new();
        let mut reg_by_bank = HashMap::new();
        if let Some(compiled) = program.switch(label) {
            for (src, banks) in &compiled.lane_banks {
                if let Some(&r) = reg_by_name.get(src) {
                    let lanes = banks.iter().enumerate();
                    reg_by_bank.extend(lanes.map(|(l, b)| (b.clone(), (r, l, banks.len()))));
                }
            }
            for (src, copies) in &compiled.ctrl_regs {
                if let Some(&c) = ctrl_by_name.get(src) {
                    ctrl_by_copy.extend(copies.iter().map(|copy| (copy.clone(), c)));
                }
            }
            for (src, tables) in &compiled.map_tables {
                if let Some(&m) = map_by_name.get(src) {
                    map_by_table.extend(tables.iter().map(|t| (t.clone(), m)));
                }
            }
        }
        Some(FastPathSwitch {
            kernels,
            state,
            scratch: ExecScratch::new(),
            win: Window {
                kernel: c3::KernelId(0),
                seq: 0,
                sender: c3::HostId(0),
                from: c3::NodeId::Host(c3::HostId(0)),
                last: false,
                chunks: Vec::new(),
                ext: Vec::new(),
            },
            ext_total: program.checked.window_ext.size(),
            ctrl_by_name,
            ctrl_by_copy,
            map_by_name,
            map_by_table,
            reg_by_name,
            reg_by_bank,
            label_wires: program.label_ids.clone(),
            windows: Counter::new(),
            misses: Counter::new(),
            errors: Counter::new(),
        })
    }

    /// Processes one payload: decode (buffer-reusing), execute the
    /// cached compiled kernel, re-encode. `None` for non-NCP traffic,
    /// fragments (switches compute only on single-packet windows, paper
    /// §6), unknown kernels, and execution errors — the switch then
    /// plainly forwards the original packet.
    pub fn process_window(&mut self, payload: &[u8]) -> Option<FastVerdict> {
        let (kid, flags) = match NcpPacket::new_checked(payload) {
            Ok(p) => (p.kernel(), p.flags()),
            Err(_) => return None,
        };
        if flags & (FLAG_FRAGMENT | FLAG_ACK | FLAG_NACK) != 0 || !self.kernels.contains_key(&kid) {
            self.misses.inc();
            return None;
        }
        if decode_window_into(payload, &mut self.win).is_err() {
            self.misses.inc();
            return None;
        }
        self.windows.inc();
        let kernel = &self.kernels[&kid];
        let fwd = match kernel.run_outgoing(&mut self.win, &mut self.state, &mut self.scratch) {
            Ok(f) => f,
            Err(_) => {
                self.errors.inc();
                return None;
            }
        };
        let (fwd_code, fwd_label) = match &fwd {
            Forward::Pass => (0, 0),
            Forward::Reflect => (1, 0),
            Forward::Bcast => (2, 0),
            Forward::Drop => (3, 0),
            Forward::PassTo(l) => (4, self.label_wires.get(l).copied().unwrap_or(0)),
        };
        let mut out = Vec::new();
        if fwd_code != 3 {
            encode_window_into(&self.win, self.ext_total, &mut out);
        }
        Some(FastVerdict {
            payload: out,
            fwd_code,
            fwd_label,
            version: 0,
        })
    }

    /// Windows executed by the compiled cache (executor hits).
    pub fn windows(&self) -> u64 {
        self.windows.get()
    }

    /// NCP windows declined by the executor (cache misses: fragments,
    /// unknown kernels, undecodable payloads).
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Kernel executions that errored (window forwarded unmodified).
    pub fn errors(&self) -> u64 {
        self.errors.get()
    }

    /// Registers this executor's counters on `reg` under
    /// `{prefix}.windows`, `{prefix}.misses` and `{prefix}.errors`.
    pub fn attach_metrics(&self, reg: &Registry, prefix: &str) {
        reg.register_counter(&format!("{prefix}.windows"), &self.windows);
        reg.register_counter(&format!("{prefix}.misses"), &self.misses);
        reg.register_counter(&format!("{prefix}.errors"), &self.errors);
    }

    /// Resolves a `_pass(label)` target to its wire id.
    pub fn label_wire(&self, label: &Label) -> Option<u16> {
        self.label_wires.get(label).copied()
    }

    /// `ncl::ctrl_wr` against this location's state.
    pub fn ctrl_wr(&mut self, var: &str, value: Value) -> bool {
        match self.ctrl_by_name.get(var) {
            Some(&c) => {
                self.state.ctrl_write(c, value);
                true
            }
            None => false,
        }
    }

    /// Reads element `idx` of a source-level register array; `None` for
    /// an unknown array or an index past its end.
    pub fn register_read(&self, array: &str, idx: usize) -> Option<Value> {
        self.state.registers[*self.reg_by_name.get(array)?].try_get(idx)
    }

    /// Control-plane map insert (source-level name). `false` when the
    /// map is unknown or full.
    pub fn map_insert(&mut self, map: &str, key: u64, value: Value) -> bool {
        match self.map_by_name.get(map) {
            Some(&m) => self.state.map_insert(m, key, value),
            None => false,
        }
    }

    /// Control-plane map removal (source-level name).
    pub fn map_remove(&mut self, map: &str, key: u64) -> bool {
        match self.map_by_name.get(map) {
            Some(&m) => self.state.map_remove(m, key),
            None => false,
        }
    }
}

impl FastDatapath for FastPathSwitch {
    fn process(&mut self, payload: &[u8]) -> Option<FastVerdict> {
        self.process_window(payload)
    }

    fn ctrl(&mut self, op: &CtrlOp) -> bool {
        match op {
            CtrlOp::RegWrite { name, index, value } => {
                // Control variables first (by source or compiled-copy
                // name), then plain register arrays by source name or
                // by the backend's lane bank.
                if let Some(&c) = self
                    .ctrl_by_name
                    .get(name)
                    .or_else(|| self.ctrl_by_copy.get(name))
                {
                    self.state.ctrl_write(c, *value);
                    return true;
                }
                let (r, index) = match self.reg_by_name.get(name) {
                    Some(&r) => (r, Some(*index)),
                    None => match self.reg_by_bank.get(name) {
                        Some(&(r, lane, lanes)) => (
                            r,
                            index.checked_mul(lanes).and_then(|i| i.checked_add(lane)),
                        ),
                        None => return false,
                    },
                };
                index.is_some_and(|i| self.state.registers[r].try_set(i, *value))
            }
            CtrlOp::TableInsert { table, entry } => {
                let Some(&m) = self
                    .map_by_table
                    .get(table)
                    .or_else(|| self.map_by_name.get(table))
                else {
                    return false;
                };
                // Map-table entries key on (guard, key); see
                // `ControlPlane::entry`.
                let key = entry.patterns.last().map(|p| p.value).unwrap_or(0);
                let Some(&value) = entry.args.first() else {
                    return false;
                };
                self.state.map_insert(m, key, value)
            }
            CtrlOp::TableRemove { table, patterns } => {
                let Some(&m) = self
                    .map_by_table
                    .get(table)
                    .or_else(|| self.map_by_name.get(table))
                else {
                    return false;
                };
                let key = patterns.last().map(|p| p.value).unwrap_or(0);
                self.state.map_remove(m, key)
            }
        }
    }

    fn register_prefix_sum(&self, prefix: &str) -> u64 {
        self.reg_by_name
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, &r)| &self.state.registers[r])
            .filter(|arr| !arr.is_empty())
            .map(|arr| arr.get(0).bits())
            .sum()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::allreduce_source;
    use crate::control::ControlPlane;
    use crate::nclc::{compile, CompileConfig, CompiledProgram};
    use c3::{Chunk, HostId, KernelId, NodeId};
    use ncp::codec::{decode_window, encode_window, fragment_window};
    use pisa::{Pipeline, ResourceModel};

    const AND: &str = "hosts worker 3\nswitch s1\nlink worker* s1\n";

    fn allreduce_program() -> CompiledProgram {
        let src = allreduce_source(16, 4);
        let mut cfg = CompileConfig::default();
        cfg.masks.insert("allreduce".into(), vec![4]);
        cfg.masks.insert("result".into(), vec![4]);
        compile(&src, AND, &cfg).expect("compiles")
    }

    fn window(kid: u16, worker: u16, seq: u32, vals: &[i32]) -> Window {
        Window {
            kernel: KernelId(kid),
            seq,
            sender: HostId(worker),
            from: NodeId::Host(HostId(worker)),
            last: seq == 3,
            chunks: vec![Chunk {
                offset: seq * 16,
                data: vals.iter().flat_map(|v| v.to_be_bytes()).collect(),
            }],
            ext: vec![],
        }
    }

    /// A switch loads what nclc lowered: every switch built from one
    /// program holds the program's kernels, and the scalar tier runs a
    /// copy with the SIMD offer withdrawn.
    #[test]
    fn switches_hold_the_programs_lowered_kernels() {
        let p = allreduce_program();
        let kid = p.kernel_ids["allreduce"];
        let lowered = &p.kernels_at("s1").expect("s1 is lowered")[&kid];
        let a = FastPathSwitch::from_program(&p, "s1").unwrap();
        let b = FastPathSwitch::from_program(&p, "s1").unwrap();
        assert!(Arc::ptr_eq(&a.kernels[&kid], lowered));
        assert!(Arc::ptr_eq(&b.kernels[&kid], lowered));
        let scalar = FastPathSwitch::from_program_with(&p, "s1", false).unwrap();
        assert!(lowered.simd() && !scalar.kernels[&kid].simd());
        assert_eq!(scalar.kernels[&kid].interp_steps(), lowered.interp_steps());
    }

    /// Packet-level differential: the compiled fast path and the PISA
    /// pipeline see the same byte stream and must agree on every
    /// verdict, every emitted window, and the final register state.
    #[test]
    fn verdicts_and_state_match_the_pisa_pipeline() {
        let p = allreduce_program();
        let kid = p.kernel_ids["allreduce"];
        let compiled = p.switch("s1").unwrap();
        let mut pipe = Pipeline::load(compiled.pipeline.clone(), ResourceModel::default()).unwrap();
        let cp = ControlPlane::new(compiled);
        assert!(cp.ctrl_wr(&mut pipe, "nworkers", Value::u32(3)));
        let mut fp = FastPathSwitch::from_program(&p, "s1").expect("fastpath builds");
        assert!(fp.ctrl_wr("nworkers", Value::u32(3)));

        let ext = p.checked.window_ext.size();
        for seq in 0..4u32 {
            for worker in 1..=3u16 {
                let vals: Vec<i32> = (0..4).map(|i| worker as i32 * 10 + i).collect();
                let bytes = encode_window(&window(kid, worker, seq, &vals), ext);
                let pi = pipe.process(&bytes).expect("pisa processes");
                let fv = fp.process_window(&bytes).expect("fastpath processes");
                assert_eq!(fv.fwd_code, pi.fwd_code, "worker {worker} seq {seq}");
                if fv.fwd_code != 3 {
                    assert_eq!(
                        decode_window(&fv.payload).unwrap(),
                        decode_window(&pi.packet).unwrap(),
                        "worker {worker} seq {seq}"
                    );
                }
            }
        }
        // Only the third window of each slot broadcast the sums; the
        // final device state agrees element-wise.
        for i in 0..16 {
            assert_eq!(
                fp.register_read("accum", i),
                cp.read_register(&pipe, "accum", i),
                "accum[{i}]"
            );
        }
        for i in 0..4 {
            assert_eq!(
                fp.register_read("count", i),
                cp.read_register(&pipe, "count", i),
                "count[{i}]"
            );
        }
        assert_eq!(fp.windows(), 12);
        assert_eq!(fp.errors(), 0);
    }

    /// A deferred source-level register write lands on the same element
    /// in both tiers, through the backend's lane banks.
    #[test]
    fn reg_write_ops_resolve_lane_banks_in_both_tiers() {
        let p = allreduce_program();
        let compiled = p.switch("s1").unwrap();
        assert!(
            compiled.lane_banks["accum"].len() > 1,
            "accum is lane-split"
        );
        let mut pipe = Pipeline::load(compiled.pipeline.clone(), ResourceModel::default()).unwrap();
        let cp = ControlPlane::new(compiled);
        let mut fp = FastPathSwitch::from_program(&p, "s1").expect("fastpath builds");
        for array in ["accum", "count"] {
            for idx in 0..compiled.lane_banks[array].len() + 2 {
                for op in cp.reg_write_ops(array, idx, Value::i32(100 + idx as i32)) {
                    assert!(fp.ctrl(&op), "{array}[{idx}]: {op:?}");
                    let CtrlOp::RegWrite { name, index, value } = op else {
                        panic!("register writes only")
                    };
                    assert!(pipe.register_write(&name, index, value));
                }
                let want = fp.register_read(array, idx);
                assert_eq!(want.map(|v| v.bits()), Some(100 + idx as u64));
                assert_eq!(cp.read_register(&pipe, array, idx), want, "{array}[{idx}]");
            }
        }
    }

    /// A 10-element array split into 4 lanes has 12 bank slots; the two
    /// past its end are padding no element owns. Both backends refuse
    /// them, direct and deferred, and agree on every element.
    #[test]
    fn lane_padding_is_not_an_element_on_either_backend() {
        let mut cfg = CompileConfig::default();
        cfg.masks.insert("allreduce".into(), vec![4]);
        cfg.masks.insert("result".into(), vec![4]);
        let p = compile(&allreduce_source(10, 4), AND, &cfg).expect("compiles");
        let compiled = p.switch("s1").unwrap();
        assert_eq!(compiled.lane_banks["accum"].len(), 4, "accum is lane-split");
        let mut pipe = Pipeline::load(compiled.pipeline.clone(), ResourceModel::default()).unwrap();
        let cp = ControlPlane::new(compiled);
        let mut fp = FastPathSwitch::from_program(&p, "s1").expect("fastpath builds");
        assert!(fp.kernels.values().all(|k| k.simd()), "the Simd tier");
        for idx in 0..12 {
            let inside = idx < 10;
            let direct = Value::i32(100 + idx as i32);
            assert_eq!(cp.write_register(&mut pipe, "accum", idx, direct), inside);
            assert_eq!(
                cp.read_register(&pipe, "accum", idx),
                inside.then_some(direct)
            );
            let deferred = Value::i32(200 + idx as i32);
            let ops = cp.reg_write_ops("accum", idx, deferred);
            assert_eq!(ops.len(), inside as usize, "accum[{idx}]: {ops:?}");
            for op in ops {
                assert!(fp.ctrl(&op), "{op:?}");
                let CtrlOp::RegWrite { name, index, value } = op else {
                    panic!("register writes only")
                };
                assert!(pipe.register_write(&name, index, value));
            }
            let read = fp.register_read("accum", idx);
            assert_eq!(read, inside.then_some(deferred), "accum[{idx}]");
            assert_eq!(cp.read_register(&pipe, "accum", idx), read, "accum[{idx}]");
        }
    }

    /// The compiler-lowered replay filter, exercised identically in
    /// both tiers: duplicates never re-accumulate, an incomplete slot
    /// drops the replay, a completed slot reflects the stored sums, and
    /// the duplicate counter is observable through both interfaces.
    #[test]
    fn replay_filter_suppresses_duplicates_in_both_tiers() {
        use crate::nclc::ReplayFilter;
        let src = allreduce_source(16, 4);
        let mut cfg = CompileConfig::default();
        cfg.masks.insert("allreduce".into(), vec![4]);
        cfg.masks.insert("result".into(), vec![4]);
        cfg.replay_filters.insert(
            "allreduce".into(),
            ReplayFilter {
                senders: 4,
                slots: 8,
            },
        );
        let p = compile(&src, AND, &cfg).expect("compiles");
        let kid = p.kernel_ids["allreduce"];
        let compiled = p.switch("s1").unwrap();
        let mut pipe = Pipeline::load(compiled.pipeline.clone(), ResourceModel::default()).unwrap();
        let cp = ControlPlane::new(compiled);
        assert!(cp.ctrl_wr(&mut pipe, "nworkers", Value::u32(3)));
        let mut fp = FastPathSwitch::from_program(&p, "s1").expect("fastpath builds");
        assert!(fp.ctrl_wr("nworkers", Value::u32(3)));
        let ext = p.checked.window_ext.size();

        let send = |fp: &mut FastPathSwitch, pipe: &mut Pipeline, worker: u16, seq: u32| {
            let vals: Vec<i32> = (0..4).map(|i| worker as i32 * 10 + i).collect();
            let bytes = encode_window(&window(kid, worker, seq, &vals), ext);
            let pi = pipe.process(&bytes).expect("pisa processes");
            let fv = fp.process_window(&bytes).expect("fastpath processes");
            assert_eq!(fv.fwd_code, pi.fwd_code, "worker {worker} seq {seq}");
            fv
        };
        // Worker 1 contributes to slot 0 and then retransmits: the
        // replay is dropped pre-completion and never re-accumulates.
        assert_eq!(send(&mut fp, &mut pipe, 1, 0).fwd_code, 3);
        assert_eq!(send(&mut fp, &mut pipe, 1, 0).fwd_code, 3);
        assert_eq!(fp.register_read("count", 0), Some(Value::u32(1)));
        assert_eq!(fp.register_read("accum", 0), Some(Value::i32(10)));
        // Workers 2 and 3 complete the slot; the third broadcasts.
        assert_eq!(send(&mut fp, &mut pipe, 2, 0).fwd_code, 3);
        assert_eq!(send(&mut fp, &mut pipe, 3, 0).fwd_code, 2);
        // A post-completion replay reflects the stored sums — this is
        // how a worker recovers a lost broadcast leg.
        let v = send(&mut fp, &mut pipe, 1, 0);
        assert_eq!(v.fwd_code, 1, "post-completion replay reflects");
        let w = decode_window(&v.payload).unwrap();
        assert_eq!(w.chunks[0].get(c3::ScalarType::I32, 0), Value::i32(60));
        // Both duplicate-count interfaces agree.
        assert_eq!(fp.register_prefix_sum(c3::ncpr::REPLAY_DUPS_PREFIX), 2);
        assert_eq!(
            cp.read_register(&pipe, "__nclr_dups_allreduce", 0)
                .map(|v| v.bits()),
            Some(2)
        );
        // And the full device state still matches across tiers.
        for i in 0..16 {
            assert_eq!(
                fp.register_read("accum", i),
                cp.read_register(&pipe, "accum", i),
                "accum[{i}]"
            );
        }
    }

    #[test]
    fn non_ncp_fragments_and_unknown_kernels_pass_through() {
        let p = allreduce_program();
        let kid = p.kernel_ids["allreduce"];
        let mut fp = FastPathSwitch::from_program(&p, "s1").unwrap();
        // Garbage is not NCP.
        assert!(fp.process_window(b"hello not ncp").is_none());
        // Fragments are forwarded for host-side reassembly.
        let big = window(kid, 1, 0, &(0..64).collect::<Vec<_>>());
        for frag in fragment_window(&big, 0, 80) {
            assert!(fp.process_window(&frag).is_none());
        }
        // Unknown kernel ids are forwarded, not executed.
        let alien = encode_window(&window(999, 1, 0, &[1, 2, 3, 4]), 0);
        assert!(fp.process_window(&alien).is_none());
        assert_eq!(fp.windows(), 0);
        assert!(fp.misses() >= 2, "declined traffic counts as misses");
    }

    /// Deferred control-plane operations emitted by [`ControlPlane`]
    /// (compiled register-copy and lookup-table names) resolve against
    /// the fast path unchanged.
    #[test]
    fn deferred_ctrl_ops_resolve_compiled_names() {
        let src = r#"
_net_ _at_("s1") ncl::Map<uint64_t, uint8_t, 8> Idx;
_net_ _at_("s1") bool Valid[8] = {false};
_net_ _ctrl_ _at_("s1") unsigned thresh = 3;
_net_ _out_ void k(uint64_t key) {
    if (auto *i = Idx[key]) {
        if (Valid[*i]) { _reflect(); }
    }
    if (window.seq > thresh) { _drop(); }
}
"#;
        let and = "host h1\nhost h2\nswitch s1\nlink h1 s1\nlink h2 s1\n";
        let mut cfg = CompileConfig::default();
        cfg.masks.insert("k".into(), vec![1]);
        let p = compile(src, and, &cfg).expect("compiles");
        let cp = ControlPlane::new(p.switch("s1").unwrap());
        let mut fp = FastPathSwitch::from_program(&p, "s1").unwrap();

        for op in cp.ctrl_wr_ops("thresh", Value::u32(7)) {
            assert!(fp.ctrl(&op));
        }
        for op in cp.map_insert_ops("Idx", 42, Value::new(c3::ScalarType::U8, 3)) {
            fp.ctrl(&op);
        }
        assert_eq!(
            fp.state.maps[0].get(&42).copied().map(|v| v.bits()),
            Some(3)
        );
        // Direct source-level writes work too: mark slot 3 valid.
        assert!(fp.ctrl(&CtrlOp::RegWrite {
            name: "Valid".into(),
            index: 3,
            value: Value::bool(true),
        }));

        let kid = p.kernel_ids["k"];
        let get = |seq: u32, key: u64| Window {
            kernel: KernelId(kid),
            seq,
            sender: HostId(1),
            from: NodeId::Host(HostId(1)),
            last: false,
            chunks: vec![Chunk {
                offset: 0,
                data: key.to_be_bytes().to_vec(),
            }],
            ext: vec![],
        };
        // Cached key reflects; uncached passes; seq beyond the written
        // threshold drops.
        let v = fp.process_window(&encode_window(&get(0, 42), 0)).unwrap();
        assert_eq!(v.fwd_code, 1);
        let v = fp.process_window(&encode_window(&get(0, 7), 0)).unwrap();
        assert_eq!(v.fwd_code, 0);
        let v = fp.process_window(&encode_window(&get(8, 7), 0)).unwrap();
        assert_eq!(v.fwd_code, 3);
        assert!(v.payload.is_empty(), "dropped windows are not re-encoded");
        // Removal restores the pass behaviour for key 42.
        for op in cp.map_remove_ops("Idx", 42) {
            fp.ctrl(&op);
        }
        let v = fp.process_window(&encode_window(&get(0, 42), 0)).unwrap();
        assert_eq!(v.fwd_code, 0);
    }
}
