//! The differential harness: one program, every engine, one window
//! stream.
//!
//! [`check_engines`] lowers an NCL program the way `nclc::compile`
//! does and runs it on five engines:
//! - the reference interpreter on the raw lowered IR — the oracle;
//! - the interpreter on the optimized, versioned IR;
//! - the scalar micro-op programs (`CompiledKernel::with_simd(false)`);
//! - the SIMD micro-op programs (the ncvec tier);
//! - the loaded PISA pipeline, fed NCP packets.
//!
//! After every window, each engine's verdict, chunks and ext bytes and
//! its full register, ctrl and map state must equal the oracle's. PISA
//! registers and ctrl copies are read back through the control plane's
//! lane-bank and ctrl-copy names; its map tables only change through
//! the control plane, so maps are compared across the software engines.
//! A window the switch forwards then reaches every `_in_` kernel on the
//! four software engines, lowered as nclc lowers
//! `CompiledProgram::incoming`, and the `_ext_` host memory must agree
//! too. A program whose pipeline overruns the chip
//! (`CompileError::Resources`) does not reach PISA; any other compile
//! error is a failure. The optimizer may never grow a kernel.

// Each test target includes this module via `#[path]` and uses only
// the entry points its own cases need.
#![allow(dead_code)]

use c3::{Chunk, Forward, HostId, KernelId, Label, NodeId, ScalarType, Value, Window};
use ncl::core::nclc::{compile, CompileConfig};
use ncl::core::ControlPlane;
use ncl_ir::interp::InterpError;
use ncl_ir::ir::Module;
use ncl_ir::lower::{lower, LoweringConfig};
use ncl_ir::version::{version_modules, LocationInfo};
use ncl_ir::{CompiledKernel, CtrlId, ExecScratch, HostMemory, Interpreter, MapId, SwitchState};
use ncl_lang::ast::KernelKind;
use ncl_p4::codegen::{decode_window_for_test, encode_window_for_test};
use ncl_p4::{compile_module, CompileError, CompileOptions, CompiledSwitch};
use pisa::{Pipeline, ResourceModel};
use std::collections::HashMap;

/// How a program is compiled, set up and run.
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// Window masks and replay filters, as nclc hands them to lowering.
    pub lowering: LoweringConfig,
    /// Control variables the control plane writes before the first
    /// window.
    pub ctrls: Vec<(String, Value)>,
    /// Map entries the control plane installs before the first window.
    pub map_entries: Vec<(String, u64, Value)>,
    /// The host arrays bound to every `_in_` kernel's `_ext_`
    /// parameters (`ncl::in`'s pointers), in parameter order.
    pub host_arrays: Vec<(ScalarType, usize)>,
    /// A step budget for every run. PISA has none, so a budgeted check
    /// runs the optimized-IR interpreter (the raw IR takes more steps)
    /// and the two micro-op tiers, and compares their errors and the
    /// partial effects left behind as well.
    pub step_limit: Option<usize>,
}

impl Config {
    /// Lowers each kernel at its mask; nothing else is set.
    pub fn masks(masks: &[(&str, &[u16])]) -> Self {
        let mut lowering = LoweringConfig::default();
        for (kernel, mask) in masks {
            lowering.masks.insert(kernel.to_string(), mask.to_vec());
        }
        Config {
            lowering,
            ..Config::default()
        }
    }
}

/// A window of kernel 1 from host `sender`, one chunk per array, every
/// chunk at offset 0.
pub fn window(seq: u32, sender: u16, chunks: Vec<Vec<u8>>) -> Window {
    Window {
        kernel: KernelId(1),
        seq,
        sender: HostId(sender),
        from: NodeId::Host(HostId(sender)),
        last: false,
        chunks: chunks
            .into_iter()
            .map(|data| Chunk { offset: 0, data })
            .collect(),
        ext: vec![],
    }
}

/// Big-endian `int` elements, as a chunk carries them.
pub fn ints(vals: &[i32]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_be_bytes()).collect()
}

/// What the oracle saw; every other engine saw the same.
#[derive(Debug)]
pub struct Outcome {
    /// Whether the program reached PISA (it fit the chip and no step
    /// budget was set).
    pub pisa: bool,
    /// Switch state after load and control-plane setup.
    pub loaded: SwitchState,
    /// Switch state after the last window.
    pub state: SwitchState,
    /// Verdict and output window of every window.
    pub outputs: Vec<(RunResult, Window)>,
    /// Host memory after the last window.
    pub host: HostMemory,
}

/// A kernel run's verdict; a host kernel's unit result reads `Pass`.
pub type RunResult = Result<Forward, InterpError>;

/// Frontend, lowering and [`Program::check`] in one call.
pub fn check_engines(src: &str, cfg: &Config, windows: &[Window]) -> Outcome {
    Program::lower(src, &cfg.lowering).check(cfg, windows)
}

/// [`Program::check`] on a raw lowered module, possibly edited by
/// hand; `cfg.lowering` is not consulted.
pub fn check_module(raw: &Module, cfg: &Config, windows: &[Window]) -> Outcome {
    Program::from_module(raw.clone(), format!("module {}", raw.name)).check(cfg, windows)
}

/// One program lowered once, the way nclc lowers it: the raw module,
/// the optimized generic module (host kernels) and the module versioned
/// for switch `s1`.
pub struct Program {
    raw: Module,
    generic: Module,
    switch: Module,
    /// nclc's kernel ids: declaration order, from 1.
    ids: HashMap<String, u16>,
    incoming: Vec<String>,
    /// Every kernel as the micro-op tiers run it: switch kernels
    /// lowered against the versioned module, host kernels without one.
    lowered: HashMap<String, CompiledKernel>,
    /// nclc's PISA build, when the program came from `nclc::compile`;
    /// otherwise [`Program::check`] builds `switch` itself.
    build: Option<CompiledSwitch>,
    /// The source, or the module name, for failure messages.
    ctx: String,
}

impl Program {
    /// Frontend and lowering under `lowering`.
    pub fn lower(src: &str, lowering: &LoweringConfig) -> Self {
        let render = ncl_lang::diag::render;
        let checked = ncl_lang::frontend(src, "gen.ncl")
            .unwrap_or_else(|d| panic!("frontend: {}\n{src}", render(&d)));
        let raw =
            lower(&checked, lowering).unwrap_or_else(|d| panic!("lower: {}\n{src}", render(&d)));
        Program::from_module(raw, src.to_string())
    }

    /// The program exactly as `nclc::compile` builds it for switch `s1`
    /// of a one-switch overlay: the versioned module, the micro-op
    /// kernels and the PISA build are the ones deploy loads. The oracle
    /// is `src` lowered under the same masks and filters.
    pub fn compiled(src: &str, lowering: &LoweringConfig) -> Self {
        let cfg = CompileConfig {
            masks: lowering.masks.clone(),
            unroll_limit: lowering.unroll_limit,
            replay_filters: lowering.replay_filters.clone(),
            ..CompileConfig::default()
        };
        let and = "hosts h 4\nswitch s1\nlink h* s1\n";
        let p = compile(src, and, &cfg).unwrap_or_else(|e| panic!("nclc: {e}\n{src}"));
        let mut prog = Program::lower(src, lowering);
        let name = |id: &u16| {
            let (n, _) = p.kernel_ids.iter().find(|(_, i)| *i == id).unwrap();
            n.clone()
        };
        let switch_side = p.kernels_at("s1").unwrap().iter();
        let switch_side = switch_side.map(|(id, k)| (name(id), CompiledKernel::clone(k)));
        let host_side = p.incoming.iter().map(|(n, k)| (n.clone(), (**k).clone()));
        prog.lowered = switch_side.chain(host_side).collect();
        prog.switch = p.module("s1").unwrap().clone();
        prog.build = p.switch("s1").cloned();
        prog.generic = p.generic;
        prog.ids = p.kernel_ids;
        prog
    }

    fn from_module(raw: Module, ctx: String) -> Self {
        let mut generic = raw.clone();
        ncl_ir::passes::optimize(&mut generic);
        for k in &generic.kernels {
            let before = raw.kernel(&k.name).unwrap().inst_count();
            assert!(
                k.inst_count() <= before,
                "optimizer grew {} {before} -> {}: {ctx}",
                k.name,
                k.inst_count()
            );
        }
        let location = LocationInfo {
            label: Label::from("s1"),
            id: 1,
        };
        let switch = version_modules(&generic, &[location]).remove(0);
        let ids = raw
            .kernels
            .iter()
            .enumerate()
            .map(|(i, k)| (k.name.clone(), i as u16 + 1))
            .collect();
        let incoming: Vec<String> = generic
            .kernels
            .iter()
            .filter(|k| k.kind == KernelKind::Incoming)
            .map(|k| k.name.clone())
            .collect();
        let switch_side = switch
            .kernels
            .iter()
            .map(|k| (k.name.clone(), CompiledKernel::compile_for(k, &switch)));
        let host_side = generic
            .kernels
            .iter()
            .filter(|k| incoming.contains(&k.name))
            .map(|k| (k.name.clone(), CompiledKernel::compile(k)));
        let lowered = switch_side.chain(host_side).collect();
        Program {
            raw,
            generic,
            switch,
            ids,
            incoming,
            lowered,
            build: None,
            ctx,
        }
    }

    /// A kernel as the SIMD tier runs it.
    pub fn simd(&self, kernel: &str) -> &CompiledKernel {
        &self.lowered[kernel]
    }

    /// One micro-op tier under a step budget.
    fn micro(&self, simd: bool, limit: usize) -> Code<'_> {
        let tier = |k: &CompiledKernel| k.clone().with_simd(simd).with_step_limit(limit);
        Code::Micro(
            self.lowered
                .iter()
                .map(|(n, k)| (n.clone(), tier(k)))
                .collect(),
        )
    }

    /// Runs `windows` through every engine, comparing after each.
    pub fn check(&self, cfg: &Config, windows: &[Window]) -> Outcome {
        let ctx = &self.ctx;
        let limit = cfg.step_limit.unwrap_or(Interpreter::default().step_limit);
        let it = Interpreter { step_limit: limit };
        let engine = |name, code, module: &Module| Engine {
            name,
            code,
            state: setup_state(module, cfg),
            host: HostMemory::new(&cfg.host_arrays),
            scratch: ExecScratch::new(),
        };
        let raw = Code::Ir {
            switch: &self.raw,
            host: &self.raw,
        };
        let opt = Code::Ir {
            switch: &self.switch,
            host: &self.generic,
        };
        let mut engines = vec![
            engine("interp-raw", raw, &self.raw),
            engine("interp-opt", opt, &self.switch),
            engine("scalar", self.micro(false, limit), &self.switch),
            engine("simd", self.micro(true, limit), &self.switch),
        ];
        if cfg.step_limit.is_some() {
            engines.remove(0);
        }
        let mut pisa = match cfg.step_limit {
            None => self.build_pisa(),
            Some(_) => None,
        };
        if let Some(p) = &mut pisa {
            for (name, v) in &cfg.ctrls {
                p.cp.ctrl_wr(&mut p.pipe, name, *v);
            }
            for (map, key, v) in &cfg.map_entries {
                p.cp.map_insert(&mut p.pipe, map, *key, *v);
            }
        }
        let loaded = engines[0].state.clone();
        compare_states(
            &engines,
            pisa.as_ref(),
            &self.switch,
            &format!("at load: {ctx}"),
        );

        let ext_total = self.raw.window_ext.size();
        let mut outputs = Vec::new();
        for (wi, w) in windows.iter().enumerate() {
            let at = format!("window {wi} ({w:?}): {ctx}");
            let kernel = self
                .ids
                .iter()
                .find(|(n, &id)| id == w.kernel.0 && !self.incoming.contains(n))
                .map(|(n, _)| n.as_str())
                .unwrap_or_else(|| panic!("no outgoing kernel has the id of {at}"));
            let runs: Vec<(RunResult, Window)> = engines
                .iter_mut()
                .map(|e| {
                    let mut out = w.clone();
                    (e.outgoing(&it, kernel, &mut out), out)
                })
                .collect();
            for (e, r) in engines.iter().zip(&runs).skip(1) {
                assert_eq!(r.0, runs[0].0, "{} verdict, {at}", e.name);
                assert_eq!(r.1, runs[0].1, "{} window, {at}", e.name);
            }
            let (verdict, out) = runs.into_iter().next().unwrap();
            if let Some(p) = &mut pisa {
                let packet = p
                    .pipe
                    .process(&encode_window_for_test(w, ext_total))
                    .unwrap_or_else(|| panic!("pisa parses {at}"));
                let got = decode_window_for_test(&packet.packet, w.chunks.len(), ext_total);
                let fwd = verdict.as_ref().expect("an unbudgeted run completes");
                assert_eq!(packet.fwd_code, fwd.code(), "pisa verdict, {at}");
                assert_eq!(got.chunks, out.chunks, "pisa chunks, {at}");
                let mut ext = out.ext.clone();
                ext.resize(ext_total, 0);
                assert_eq!(got.ext, ext, "pisa ext, {at}");
            }
            compare_states(&engines, pisa.as_ref(), &self.switch, &at);

            if matches!(verdict, Ok(ref f) if *f != Forward::Drop) {
                for kernel in &self.incoming {
                    let runs: Vec<(RunResult, Window)> = engines
                        .iter_mut()
                        .map(|e| {
                            let mut arrived = out.clone();
                            (e.incoming(&it, kernel, &mut arrived), arrived)
                        })
                        .collect();
                    for (e, r) in engines.iter().zip(&runs).skip(1) {
                        assert_eq!(r, &runs[0], "{} {kernel} run, {at}", e.name);
                        assert_eq!(
                            e.host.arrays, engines[0].host.arrays,
                            "{} {kernel} host memory, {at}",
                            e.name
                        );
                    }
                }
            }
            outputs.push((verdict, out));
        }
        let oracle = engines.swap_remove(0);
        Outcome {
            pisa: pisa.is_some(),
            loaded,
            state: oracle.state,
            outputs,
            host: oracle.host,
        }
    }

    /// The switch program nclc would load, or `None` when it overruns
    /// the chip.
    fn build_pisa(&self) -> Option<Pisa> {
        let opts = CompileOptions {
            kernel_ids: self.ids.clone(),
            ..CompileOptions::default()
        };
        let built = match &self.build {
            Some(b) => Ok(b.clone()),
            None => compile_module(&self.switch, &ResourceModel::default(), &opts),
        };
        let compiled = match built {
            Ok(c) => c,
            Err(CompileError::Resources(_)) => return None,
            Err(e) => panic!("compile: {e}\n{}", self.ctx),
        };
        let pipe = Pipeline::load(compiled.pipeline.clone(), ResourceModel::default())
            .unwrap_or_else(|e| panic!("load: {e:?}\n{}", self.ctx));
        Some(Pisa {
            pipe,
            cp: ControlPlane::new(&compiled),
            compiled,
        })
    }
}

/// What one software engine executes.
enum Code<'m> {
    /// IR kernels, tree-walked by the interpreter.
    Ir {
        switch: &'m Module,
        host: &'m Module,
    },
    /// Micro-op programs by kernel name.
    Micro(HashMap<String, CompiledKernel>),
}

struct Engine<'m> {
    name: &'static str,
    code: Code<'m>,
    state: SwitchState,
    host: HostMemory,
    scratch: ExecScratch,
}

impl Engine<'_> {
    fn outgoing(&mut self, it: &Interpreter, kernel: &str, w: &mut Window) -> RunResult {
        match &self.code {
            Code::Ir { switch, .. } => {
                it.run_outgoing(switch.kernel(kernel).unwrap(), w, &mut self.state)
            }
            Code::Micro(k) => k[kernel].run_outgoing(w, &mut self.state, &mut self.scratch),
        }
    }

    fn incoming(&mut self, it: &Interpreter, kernel: &str, w: &mut Window) -> RunResult {
        match &self.code {
            Code::Ir { host, .. } => {
                it.run_incoming(host.kernel(kernel).unwrap(), w, &mut self.host)
            }
            Code::Micro(k) => k[kernel].run_incoming(w, &mut self.host, &mut self.scratch),
        }
        .map(|()| Forward::Pass)
    }
}

/// The PISA engine: the loaded pipeline and its control plane.
struct Pisa {
    pipe: Pipeline,
    cp: ControlPlane,
    compiled: CompiledSwitch,
}

/// Switch state after load plus the control-plane setup.
fn setup_state(module: &Module, cfg: &Config) -> SwitchState {
    let mut state = SwitchState::from_module(module);
    for (name, v) in &cfg.ctrls {
        let c = module.ctrls.iter().position(|c| &c.name == name);
        state.ctrl_write(CtrlId(c.expect("a declared ctrl") as u32), *v);
    }
    for (name, key, v) in &cfg.map_entries {
        let m = module.maps.iter().position(|m| &m.name == name);
        state.map_insert(MapId(m.expect("a declared map") as u32), *key, *v);
    }
    state
}

/// Every engine's device state against the oracle's: the software
/// engines field by field, PISA through its source-level names.
fn compare_states(engines: &[Engine], pisa: Option<&Pisa>, switch: &Module, at: &str) {
    let want = &engines[0].state;
    for e in &engines[1..] {
        assert_eq!(
            e.state.registers, want.registers,
            "{} registers, {at}",
            e.name
        );
        assert_eq!(e.state.ctrls, want.ctrls, "{} ctrls, {at}", e.name);
        assert_eq!(e.state.maps, want.maps, "{} maps, {at}", e.name);
    }
    let Some(p) = pisa else { return };
    for (decl, regs) in switch.registers.iter().zip(&want.registers) {
        let got: Vec<_> = (0..regs.len())
            .map(|i| p.cp.read_register(&p.pipe, &decl.name, i))
            .collect();
        let expect: Vec<_> = (0..regs.len()).map(|i| Some(regs.get(i))).collect();
        assert_eq!(got, expect, "pisa register {}, {at}", decl.name);
    }
    for (decl, v) in switch.ctrls.iter().zip(&want.ctrls) {
        for copy in p.compiled.ctrl_regs.get(&decl.name).into_iter().flatten() {
            assert_eq!(
                p.pipe.register_read(copy, 0),
                Some(*v),
                "pisa ctrl copy {copy} of {}, {at}",
                decl.name
            );
        }
    }
}
