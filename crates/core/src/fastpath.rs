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
//! [`encode_window_into`]). Inside a network the verdict is encoded
//! into the frame received before it
//! ([`FastDatapath::process_frame`]), so the steady state allocates
//! nothing; [`FastPathSwitch::process_window`] returns a fresh buffer.
//!
//! It plugs into the simulator as a [`netsim::FastDatapath`]
//! (see [`crate::deploy::SwitchBackend::Simd`]) and serves as the
//! software-switch engine for the Sockets/UDP backend. The modeled PISA
//! pipeline remains the resource-checked hardware model; the
//! differential tests below hold the two to identical verdicts, output
//! windows, and register state.

use crate::nclc::CompiledProgram;
use c3::{Forward, IdMap, Label, Value, Window};
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
    kernels: IdMap<u16, Arc<CompiledKernel>>,
    /// The location's persistent device state.
    pub state: SwitchState,
    scratch: ExecScratch,
    /// Decoded-window scratch, reused across packets.
    win: Window,
    /// The buffer the next verdict is encoded into: the frame received
    /// before it (see [`FastDatapath::process_frame`]).
    spare: Vec<u8>,
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
    /// Builds the datapath for one switch label of a compiled program,
    /// fused runs offered to the ncvec SIMD tier; `None` when the label
    /// has no module.
    pub fn from_program(program: &CompiledProgram, label: &str) -> Option<Self> {
        Self::from_program_with(program, label, true)
    }

    /// [`FastPathSwitch::from_program`] with the SIMD offer explicit:
    /// `simd` offers fused element-wise runs to the ncvec SIMD tier
    /// (kernels with no fusible runs execute identically either way),
    /// `false` pins the scalar micro-op loops, the reference the
    /// differential tests and the E13 baseline run. Nothing is lowered
    /// here: with `simd` the switch shares the program's lowered kernels
    /// ([`CompiledProgram::switch_kernels`]); without it, it runs a copy
    /// of each with the SIMD offer withdrawn. Deferred [`CtrlOp`]s address
    /// the backend's compiled control-register, lookup-table and lane-bank
    /// names, as [`crate::control::ControlPlane`] emits them; the
    /// source-level names go through [`FastPathSwitch::ctrl_wr`],
    /// [`FastPathSwitch::map_insert`] and [`FastPathSwitch::register_read`].
    /// A location without a compiled switch (a server) has no backend
    /// names, so its ops address the source-level ones.
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
        } else {
            ctrl_by_copy = ctrl_by_name.clone();
            map_by_table = map_by_name.clone();
            let whole = |(name, &r): (&String, &usize)| (name.clone(), (r, 0, 1));
            reg_by_bank = reg_by_name.iter().map(whole).collect();
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
            spare: Vec::new(),
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
    /// cached compiled kernel, re-encode with the incoming flags byte,
    /// and append the bytes that trail the window unchanged, as the
    /// PISA engine's verdict does.
    /// `None` for non-NCP traffic, fragments (switches compute only on
    /// single-packet windows, paper §6), unknown kernels, and execution
    /// errors — the switch then plainly forwards the original packet.
    /// The verdict's frame is a fresh buffer; inside a network,
    /// [`FastDatapath::process_frame`] recycles the received ones.
    pub fn process_window(&mut self, payload: &[u8]) -> Option<FastVerdict> {
        let mut out = Vec::new();
        let (fwd_code, fwd_label) = self.execute(payload, &mut out)?;
        Some(verdict(out, fwd_code, fwd_label))
    }

    /// [`FastPathSwitch::process_window`]'s work, the frame written into
    /// `out` (cleared first; left empty on `_drop()`). Returns the
    /// forwarding code and label.
    fn execute(&mut self, payload: &[u8], out: &mut Vec<u8>) -> Option<(u8, u16)> {
        let (kid, flags, total) = match NcpPacket::new_checked(payload) {
            Ok(p) => (p.kernel(), p.flags(), p.total_len()),
            Err(_) => return None,
        };
        let kernel = match self.kernels.get(&kid) {
            Some(k) if flags & (FLAG_FRAGMENT | FLAG_ACK | FLAG_NACK) == 0 => k,
            _ => {
                self.misses.inc();
                return None;
            }
        };
        if decode_window_into(payload, &mut self.win).is_err() {
            self.misses.inc();
            return None;
        }
        self.windows.inc();
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
        out.clear();
        if fwd_code != 3 {
            encode_window_into(&self.win, self.ext_total, out);
            NcpPacket::new_unchecked(&mut out[..]).set_flags(flags);
            out.extend_from_slice(payload.get(total..).unwrap_or_default());
        }
        Some((fwd_code, fwd_label))
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

    /// `ncl::ctrl_wr` against this location's state, by source-level
    /// name.
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

/// A one-pass verdict carrying `payload`.
fn verdict(payload: Vec<u8>, fwd_code: u8, fwd_label: u16) -> FastVerdict {
    FastVerdict {
        payload,
        fwd_code,
        fwd_label,
        version: 0,
        passes: 1,
    }
}

impl FastDatapath for FastPathSwitch {
    fn process(&mut self, payload: &[u8]) -> Option<FastVerdict> {
        self.process_window(payload)
    }

    /// Encodes the verdict into the frame received before this one and
    /// keeps this frame for the next verdict, so a forwarded window
    /// allocates nothing once the buffers are large enough.
    fn process_frame(&mut self, frame: Vec<u8>) -> Result<FastVerdict, Vec<u8>> {
        let mut out = std::mem::take(&mut self.spare);
        match self.execute(&frame, &mut out) {
            Some((fwd_code, fwd_label)) => {
                self.spare = frame;
                Ok(verdict(out, fwd_code, fwd_label))
            }
            None => {
                self.spare = out;
                Err(frame)
            }
        }
    }

    /// Resolves only the names the compiled switch uses, the ones
    /// [`crate::control::ControlPlane`] emits, so an op lands here exactly
    /// when it lands on the PISA pipeline built from the same program.
    fn ctrl(&mut self, op: &CtrlOp) -> bool {
        match op {
            CtrlOp::RegWrite { name, index, value } => {
                // A control variable's copy is a one-slot register.
                if let Some(&c) = self.ctrl_by_copy.get(name) {
                    if *index == 0 {
                        self.state.ctrl_write(c, *value);
                    }
                    return *index == 0;
                }
                // A lane bank (an array the backend kept whole is its
                // own single bank).
                let Some(&(r, lane, lanes)) = self.reg_by_bank.get(name) else {
                    return false;
                };
                let index = index.checked_mul(lanes).and_then(|i| i.checked_add(lane));
                index.is_some_and(|i| self.state.registers[r].try_set(i, *value))
            }
            CtrlOp::TableInsert { table, entry } => {
                let Some(&m) = self.map_by_table.get(table) else {
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
                let Some(&m) = self.map_by_table.get(table) else {
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

    /// An engine's verdict is the whole rewritten frame: the rewritten
    /// window, then the bytes that trail it (the PISA parser never
    /// consumes them; the software switch decodes only the window),
    /// which a switch forwards unchanged. Both engines emit the same
    /// bytes.
    #[test]
    fn pisa_verdict_keeps_the_bytes_its_parser_never_consumed() {
        let p = allreduce_program();
        let kid = p.kernel_ids["allreduce"];
        let compiled = p.switch("s1").unwrap();
        let mut pipe = Pipeline::load(compiled.pipeline.clone(), ResourceModel::default()).unwrap();
        let mut soft = FastPathSwitch::from_program(&p, "s1").unwrap();
        // One worker completes every slot, so the window is broadcast.
        let cp = ControlPlane::new(compiled);
        assert!(cp.ctrl_wr(&mut pipe, "nworkers", Value::u32(1)));
        assert!(soft.ctrl_wr("nworkers", Value::u32(1)));
        let ext = p.checked.window_ext.size();
        let mut bytes = encode_window(&window(kid, 1, 0, &[1, 2, 3, 4]), ext);
        let window_len = bytes.len();
        bytes.extend_from_slice(b"trailer");
        let v = FastDatapath::process(&mut pipe, &bytes).expect("pisa executes");
        assert_eq!(v.fwd_code, 2);
        assert_eq!(v.passes, pipe.passes());
        assert_eq!(&v.payload[window_len..], b"trailer");
        let sv = soft.process(&bytes).expect("the software switch executes");
        assert_eq!(sv.fwd_code, 2);
        assert_eq!(sv.payload, v.payload, "both engines emit the same frame");
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

        assert!(cp.ctrl_wr(&mut fp, "thresh", Value::u32(7)));
        assert!(cp.map_insert(&mut fp, "Idx", 42, Value::new(c3::ScalarType::U8, 3)));
        assert_eq!(
            fp.state.maps[0].get(&42).copied().map(|v| v.bits()),
            Some(3)
        );
        // An array the backend kept whole is its own bank: mark slot 3
        // valid under its name.
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
        assert!(cp.map_remove(&mut fp, "Idx", 42) > 0);
        let v = fp.process_window(&encode_window(&get(0, 42), 0)).unwrap();
        assert_eq!(v.fwd_code, 0);
    }
}
