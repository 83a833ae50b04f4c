//! Translation of staged kernels into a loadable [`PipelineConfig`].
//!
//! A module (all kernels placed at one switch) becomes **one** pipeline:
//!
//! * PHV header fields for the NCP header and, per kernel, the window's
//!   chunk descriptors, the shared extended window struct, and one field
//!   per window payload element (the prototype's windows fit a packet,
//!   paper §6);
//! * PHV metadata fields for each kernel's virtual registers, the
//!   per-kernel dispatch bit, and the intrinsic forwarding fields;
//! * stage 0 computes the dispatch bits (`disp_k = (ncp.kernel == k)`);
//!   each kernel's staged ops follow, shifted by one, with unguarded ops
//!   guarded by the kernel's dispatch bit — several kernels share the
//!   pipeline exactly like several applications share a switch program;
//! * map lookups become exact-match tables keyed on `(guard, key)`;
//!   every lookup site gets its own table and the control plane installs
//!   entries into all of them;
//! * control variables become one single-slot register copy per read
//!   site (reads from different stages may not share one array), all
//!   written by `ncl::ctrl_wr`;
//! * each kernel's share of the pipeline — stages, VLIW ops, SRAM, PHV
//!   bytes, register accesses — is recorded as the kernel is emitted:
//!   the per-kernel rows of [`crate::estimate::ModuleEstimate`].
//!
//! The wire layout parsed here must match `ncp`'s codec; the shared
//! contract is DESIGN.md §4.4 and is pinned by cross-crate tests in
//! `ncl-core`.

use crate::alloc::StagedKernel;
use crate::estimate::KernelEstimate;
use crate::flatten::PredInst;
use crate::stage::StagedModule;
use crate::CompileOptions;
use c3::{BinOp, ScalarType, Value};
use ncl_ir::ir::{CtrlId, FwdKind, Inst, MetaField, Module, Operand, RegId};
use pisa::{
    ActionDef, ActionRef, Arg, DeparserSpec, Extract, FieldClass, FieldId, MatchKind, ParserSpec,
    PhvLayout, PipelineConfig, PrimOp, RegisterArrayDef, StageConfig, TableDef,
};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};

/// Pipeline plus the bookkeeping the runtime needs.
#[derive(Clone, Debug)]
pub struct BuiltPipeline {
    /// The loadable configuration.
    pub pipeline: PipelineConfig,
    /// Kernel name → NCP kernel id.
    pub kernel_ids: HashMap<String, u16>,
    /// Map name → table names (one per lookup site).
    pub map_tables: HashMap<String, Vec<String>>,
    /// Control variable → register-copy names.
    pub ctrl_regs: HashMap<String, Vec<String>>,
}

/// Codegen failure for one kernel.
#[derive(Clone, Debug)]
pub struct BuildError {
    /// The kernel.
    pub kernel: String,
    /// Human-readable reason.
    pub reason: String,
}

/// NCP header field names in wire order (types below must match
/// DESIGN.md §4.4).
pub const NCP_FIELDS: &[(&str, ScalarType)] = &[
    ("ncp.magic", ScalarType::U16),
    ("ncp.version", ScalarType::U8),
    ("ncp.flags", ScalarType::U8),
    ("ncp.kernel", ScalarType::U16),
    ("ncp.seq", ScalarType::U32),
    ("ncp.sender", ScalarType::U16),
    ("ncp.from", ScalarType::U16),
    ("ncp.nchunks", ScalarType::U8),
    ("ncp.ext_len", ScalarType::U8),
];

/// Builds the pipeline for a staged module, and records what each
/// kernel put into it as the kernel is emitted.
pub(crate) fn build_pipeline(
    staged: &StagedModule,
    opts: &CompileOptions,
) -> Result<(BuiltPipeline, Vec<KernelEstimate>), BuildError> {
    let module = &staged.module;
    let mut layout = PhvLayout::default();
    // --- NCP header ---
    let mut ncp: HashMap<&str, FieldId> = HashMap::new();
    for (name, ty) in NCP_FIELDS {
        ncp.insert(name, layout.add(*name, *ty, FieldClass::Header));
    }
    // --- intrinsic metadata ---
    let fwd_code = layout.add("meta.fwd_code", ScalarType::U8, FieldClass::Metadata);
    let fwd_label = layout.add("meta.fwd_label", ScalarType::U16, FieldClass::Metadata);

    // --- ext fields (shared across kernels) ---
    let mut ext_fields: Vec<(usize, FieldId)> = Vec::new(); // (offset, field)
    for (fname, ty, off) in &module.window_ext.fields {
        let f = layout.add(format!("ext.{fname}"), *ty, FieldClass::Header);
        ext_fields.push((*off, f));
    }

    // --- kernel ids ---
    let mut kernel_ids: HashMap<String, u16> = opts.kernel_ids.clone();
    let mut next_id = kernel_ids.values().copied().max().unwrap_or(0) + 1;
    for k in &module.kernels {
        kernel_ids.entry(k.name.clone()).or_insert_with(|| {
            let id = next_id;
            next_id += 1;
            id
        });
    }

    // --- registers: module arrays first (stable ArrId indices), ctrl
    //     copies appended per read site during translation ---
    let mut registers: Vec<RegisterArrayDef> = module
        .registers
        .iter()
        .map(|r| RegisterArrayDef {
            name: r.name.clone(),
            elem: r.elem,
            len: if module.placed_here(&r.at) {
                r.len()
            } else {
                0
            },
            init: r.init.clone(),
        })
        .collect();

    let mut parser = ParserSpec {
        common: NCP_FIELDS
            .iter()
            .map(|(n, _)| Extract { field: ncp[n] })
            .collect(),
        // Protocol recognition (Fig. 3b): magic "NC" and version 1.
        verify: vec![(ncp["ncp.magic"], 0x4E43), (ncp["ncp.version"], 1)],
        select: Some(ncp["ncp.kernel"]),
        branches: HashMap::new(),
    };
    let mut deparser = DeparserSpec {
        common: NCP_FIELDS.iter().map(|(n, _)| ncp[n]).collect(),
        select: Some(ncp["ncp.kernel"]),
        branches: HashMap::new(),
    };

    // Global stages: stage 0 = dispatch; kernels merge from stage 1.
    let mut pool = FieldPool::default();
    let mut dispatch_ops: Vec<PrimOp> = Vec::new();
    let mut stages: Vec<StageConfig> = Vec::new();
    let mut map_tables: HashMap<String, Vec<String>> = HashMap::new();
    let mut ctrl_regs: HashMap<String, Vec<String>> = HashMap::new();
    let mut kernels: Vec<KernelEstimate> = Vec::new();

    for (kernel, ks) in staged.placed() {
        let kid = kernel_ids[&kernel.name];
        let (hdr_before, meta_before) = (layout.header_bytes(), layout.metadata_bytes());
        // Window payload + chunk descriptor header fields for this
        // kernel's parser/deparser branch (staging checked the mask
        // covers every window parameter).
        let win_params: Vec<&ncl_lang::sema::ParamInfo> =
            kernel.params.iter().filter(|p| !p.ext).collect();
        let mut branch_extracts: Vec<Extract> = Vec::new();
        let mut branch_fields: Vec<FieldId> = Vec::new();
        let mut payload: Vec<Vec<FieldId>> = Vec::new(); // [param][elem]
        for pi in 0..win_params.len() {
            let off = layout.add(
                format!("k{kid}.c{pi}_off"),
                ScalarType::U32,
                FieldClass::Header,
            );
            let len = layout.add(
                format!("k{kid}.c{pi}_len"),
                ScalarType::U16,
                FieldClass::Header,
            );
            branch_extracts.push(Extract { field: off });
            branch_extracts.push(Extract { field: len });
            branch_fields.push(off);
            branch_fields.push(len);
        }
        for &(_, f) in &ext_fields {
            branch_extracts.push(Extract { field: f });
            branch_fields.push(f);
        }
        for (pi, p) in win_params.iter().enumerate() {
            let mut elems = Vec::new();
            for e in 0..kernel.mask[pi] as usize {
                let f = layout.add(format!("k{kid}.p{pi}_e{e}"), p.elem, FieldClass::Header);
                branch_extracts.push(Extract { field: f });
                branch_fields.push(f);
                elems.push(f);
            }
            payload.push(elems);
        }
        parser.branches.insert(kid as u64, branch_extracts);
        deparser.branches.insert(kid as u64, branch_fields);

        // Dispatch bit.
        let disp = layout.add(
            format!("meta.disp_k{kid}"),
            ScalarType::Bool,
            FieldClass::Metadata,
        );
        dispatch_ops.push(PrimOp::Alu {
            guard: None,
            dst: disp,
            op: BinOp::Eq,
            a: Arg::Field(ncp["ncp.kernel"]),
            b: Arg::Const(Value::new(ScalarType::U16, kid as u64)),
        });

        // Liveness-based metadata allocation: registers with disjoint
        // live ranges share PHV containers, across kernels too.
        let reg_map = assign_fields(&ks.staged, &ks.reg_tys, &mut layout, &mut pool);

        // Translate.
        let mut tr = Translator {
            module,
            layout: &mut layout,
            registers: &mut registers,
            opts,
            kid,
            disp,
            fwd_code,
            fwd_label,
            ncp: &ncp,
            ext_fields: &ext_fields,
            payload: &payload,
            reg_fields: reg_map,
            map_tables: &mut map_tables,
            ctrl_regs: &mut ctrl_regs,
            kernel_name: kernel.name.clone(),
            reg_tys: &ks.reg_tys,
        };
        let kernel_stage_cfgs = tr.translate(&ks.staged)?;

        // The kernel's share, by `PipelineConfig::report`'s rules: every
        // register access charges its whole array.
        let mut sram_bytes = 0;
        let mut reg_accesses: BTreeMap<String, usize> = BTreeMap::new();
        let ops = kernel_stage_cfgs
            .iter()
            .flat_map(|s| &s.tables)
            .flat_map(|t| &t.actions)
            .flat_map(|a| &a.ops);
        for def in ops.filter_map(|op| registers.get(op.register()? as usize)) {
            sram_bytes += def.len * def.elem.size();
            *reg_accesses.entry(def.name.clone()).or_default() += 1;
        }
        kernels.push(KernelEstimate {
            kernel: kernel.name.clone(),
            stages: kernel_stage_cfgs.len(),
            alu_ops: kernel_stage_cfgs.iter().map(StageConfig::op_count).sum(),
            sram_bytes,
            phv_header_bytes: layout.header_bytes() - hdr_before,
            phv_metadata_bytes: layout.metadata_bytes() - meta_before,
            reg_accesses,
        });

        // Merge into the global stage list starting at stage 1.
        for (i, cfg) in kernel_stage_cfgs.into_iter().enumerate() {
            while stages.len() <= i {
                stages.push(StageConfig::default());
            }
            stages[i].tables.extend(cfg.tables);
        }
    }

    let mut all_stages = vec![StageConfig {
        tables: vec![TableDef::always(
            "ncl_dispatch",
            ActionDef {
                name: "set_dispatch".into(),
                ops: dispatch_ops,
            },
        )],
    }];
    all_stages.extend(stages);

    let built = BuiltPipeline {
        pipeline: PipelineConfig {
            name: module
                .location
                .as_ref()
                .map(|l| format!("{}_{}", module.name, l))
                .unwrap_or_else(|| module.name.clone()),
            layout,
            parser,
            deparser,
            stages: all_stages,
            registers,
            fwd_code: Some(fwd_code),
            fwd_label: Some(fwd_label),
        },
        kernel_ids,
        map_tables,
        ctrl_regs,
    };
    Ok((built, kernels))
}

struct Translator<'a> {
    module: &'a Module,
    layout: &'a mut PhvLayout,
    registers: &'a mut Vec<RegisterArrayDef>,
    opts: &'a CompileOptions,
    kid: u16,
    disp: FieldId,
    fwd_code: FieldId,
    fwd_label: FieldId,
    ncp: &'a HashMap<&'static str, FieldId>,
    ext_fields: &'a [(usize, FieldId)],
    payload: &'a [Vec<FieldId>],
    reg_fields: HashMap<RegId, FieldId>,
    map_tables: &'a mut HashMap<String, Vec<String>>,
    ctrl_regs: &'a mut HashMap<String, Vec<String>>,
    kernel_name: String,
    reg_tys: &'a [ScalarType],
}

impl Translator<'_> {
    fn err(&self, reason: impl Into<String>) -> BuildError {
        BuildError {
            kernel: self.kernel_name.clone(),
            reason: reason.into(),
        }
    }

    fn reg_field(&mut self, r: RegId) -> FieldId {
        if let Some(&f) = self.reg_fields.get(&r) {
            return f;
        }
        let ty = self.reg_tys[r.0 as usize];
        let f = self.layout.add(
            format!("meta.k{}_r{}", self.kid, r.0),
            ty,
            FieldClass::Metadata,
        );
        self.reg_fields.insert(r, f);
        f
    }

    fn arg(&mut self, o: &Operand) -> Arg {
        match o {
            Operand::Const(v) => Arg::Const(*v),
            Operand::Reg(r) => Arg::Field(self.reg_field(*r)),
        }
    }

    fn guard(&mut self, p: &PredInst) -> Option<FieldId> {
        Some(match p.guard {
            Some(g) => self.reg_field(g),
            None => self.disp,
        })
    }

    /// Constant element index of a window access, or an error (window
    /// data lives in fixed PHV fields; dynamic indices cannot map).
    fn const_index(&self, o: &Operand) -> Result<usize, BuildError> {
        o.as_const().map(|v| v.bits() as usize).ok_or_else(|| {
            self.err(
                "dynamic window index survived optimization; PHV fields \
                 are statically addressed",
            )
        })
    }

    fn translate(&mut self, staged: &StagedKernel) -> Result<Vec<StageConfig>, BuildError> {
        let mut out = Vec::new();
        for (si, ops) in staged.stages.iter().enumerate() {
            let mut cfg = StageConfig::default();
            let mut run: Vec<PrimOp> = Vec::new();
            let mut run_idx = 0usize;
            for p in ops {
                if let Inst::MapGet {
                    found,
                    val,
                    map,
                    key,
                } = &p.inst
                {
                    // Close the current plain-op run.
                    if !run.is_empty() {
                        cfg.tables.push(TableDef::always(
                            format!("k{}_s{}_{}", self.kid, si, run_idx),
                            ActionDef {
                                name: format!("k{}_s{}_{}_act", self.kid, si, run_idx),
                                ops: std::mem::take(&mut run),
                            },
                        ));
                        run_idx += 1;
                    }
                    cfg.tables
                        .push(self.map_table(p, *found, *val, *map, key, si)?);
                } else {
                    let prim = self.translate_plain(p)?;
                    run.extend(prim);
                }
            }
            if !run.is_empty() {
                cfg.tables.push(TableDef::always(
                    format!("k{}_s{}_{}", self.kid, si, run_idx),
                    ActionDef {
                        name: format!("k{}_s{}_{}_act", self.kid, si, run_idx),
                        ops: run,
                    },
                ));
            }
            out.push(cfg);
        }
        Ok(out)
    }

    fn map_table(
        &mut self,
        p: &PredInst,
        found: RegId,
        val: RegId,
        map: ncl_ir::ir::MapId,
        key: &Operand,
        stage: usize,
    ) -> Result<TableDef, BuildError> {
        let decl = &self.module.maps[map.0 as usize];
        let guard_field = self
            .guard(p)
            .ok_or_else(|| self.err("map-table guard did not resolve to a PHV field"))?;
        let key_field = match key {
            Operand::Reg(r) => self.reg_field(*r),
            Operand::Const(_) => {
                return Err(self.err("constant map key not materialized (flatten bug)"))
            }
        };
        let found_field = self.reg_field(found);
        let val_field = self.reg_field(val);
        let site = self
            .map_tables
            .get(&decl.name)
            .map(|v| v.len())
            .unwrap_or(0);
        let tname = format!("{}__k{}_s{}_{}", decl.name, self.kid, stage, site);
        self.map_tables
            .entry(decl.name.clone())
            .or_default()
            .push(tname.clone());
        Ok(TableDef {
            name: tname.clone(),
            keys: vec![
                (guard_field, MatchKind::Exact),
                (key_field, MatchKind::Exact),
            ],
            actions: vec![
                // 0: miss
                ActionDef {
                    name: format!("{tname}_miss"),
                    ops: vec![
                        PrimOp::Mov {
                            guard: None,
                            dst: found_field,
                            src: Arg::Const(Value::bool(false)),
                        },
                        PrimOp::Mov {
                            guard: None,
                            dst: val_field,
                            src: Arg::Const(Value::zero(decl.value)),
                        },
                    ],
                },
                // 1: hit — value arrives as action data.
                ActionDef {
                    name: format!("{tname}_hit"),
                    ops: vec![
                        PrimOp::Mov {
                            guard: None,
                            dst: found_field,
                            src: Arg::Const(Value::bool(true)),
                        },
                        PrimOp::Mov {
                            guard: None,
                            dst: val_field,
                            src: Arg::Param(0),
                        },
                    ],
                },
            ],
            entries: vec![],
            default_action: Some(ActionRef(0)),
            size: decl.capacity,
        })
    }

    fn translate_plain(&mut self, p: &PredInst) -> Result<Vec<PrimOp>, BuildError> {
        let guard = self.guard(p);
        Ok(match &p.inst {
            Inst::Bin { dst, op, a, b } => vec![PrimOp::Alu {
                guard,
                dst: self.reg_field(*dst),
                op: *op,
                a: self.arg(a),
                b: self.arg(b),
            }],
            Inst::Un { dst, op, a } => vec![PrimOp::UnAlu {
                guard,
                dst: self.reg_field(*dst),
                op: *op,
                a: self.arg(a),
            }],
            Inst::Cast { dst, ty, a } => vec![PrimOp::Cast {
                guard,
                dst: self.reg_field(*dst),
                ty: *ty,
                a: self.arg(a),
            }],
            Inst::Select { dst, cond, a, b } => vec![PrimOp::Select {
                guard,
                dst: self.reg_field(*dst),
                cond: self.arg(cond),
                a: self.arg(a),
                b: self.arg(b),
            }],
            Inst::Copy { dst, a } => vec![PrimOp::Mov {
                guard,
                dst: self.reg_field(*dst),
                src: self.arg(a),
            }],
            Inst::LdWin { dst, param, index } => {
                let idx = self.const_index(index)?;
                let dst_f = self.reg_field(*dst);
                match self.payload.get(*param as usize).and_then(|p| p.get(idx)) {
                    Some(&f) => vec![PrimOp::Mov {
                        guard,
                        dst: dst_f,
                        src: Arg::Field(f),
                    }],
                    // Out-of-mask read yields zero (interpreter rule).
                    None => {
                        let ty = self.reg_tys[dst.0 as usize];
                        vec![PrimOp::Mov {
                            guard,
                            dst: dst_f,
                            src: Arg::Const(Value::zero(ty)),
                        }]
                    }
                }
            }
            Inst::StWin { param, index, val } => {
                let idx = self.const_index(index)?;
                let src = self.arg(val);
                match self.payload.get(*param as usize).and_then(|p| p.get(idx)) {
                    Some(&f) => vec![PrimOp::Mov { guard, dst: f, src }],
                    // Out-of-mask writes drop.
                    None => vec![],
                }
            }
            Inst::LdMeta { dst, field } => {
                let dst_f = self.reg_field(*dst);
                match field {
                    MetaField::Seq => vec![PrimOp::Mov {
                        guard,
                        dst: dst_f,
                        src: Arg::Field(self.ncp["ncp.seq"]),
                    }],
                    MetaField::Sender => vec![PrimOp::Mov {
                        guard,
                        dst: dst_f,
                        src: Arg::Field(self.ncp["ncp.sender"]),
                    }],
                    MetaField::From => vec![PrimOp::Mov {
                        guard,
                        dst: dst_f,
                        src: Arg::Field(self.ncp["ncp.from"]),
                    }],
                    MetaField::NChunks => vec![PrimOp::Mov {
                        guard,
                        dst: dst_f,
                        src: Arg::Field(self.ncp["ncp.nchunks"]),
                    }],
                    MetaField::Len => {
                        return Err(self.err(
                            "window.len is dynamic without a compile mask; \
                             switch kernels require one",
                        ))
                    }
                    MetaField::Last => vec![PrimOp::Alu {
                        guard,
                        dst: dst_f,
                        op: BinOp::And,
                        a: Arg::Field(self.ncp["ncp.flags"]),
                        b: Arg::Const(Value::new(ScalarType::U8, 1)),
                    }],
                    MetaField::Ext(off, _) => {
                        let f = self
                            .ext_fields
                            .iter()
                            .find(|(o, _)| *o == *off as usize)
                            .map(|(_, f)| *f)
                            .ok_or_else(|| self.err("unknown ext field offset"))?;
                        vec![PrimOp::Mov {
                            guard,
                            dst: dst_f,
                            src: Arg::Field(f),
                        }]
                    }
                    MetaField::LocationId => vec![PrimOp::Mov {
                        guard,
                        dst: dst_f,
                        // Versioning folds this; a generic-module compile
                        // reads id 0.
                        src: Arg::Const(Value::new(ScalarType::U16, 0)),
                    }],
                }
            }
            Inst::StExt { offset, val, .. } => {
                let f = self
                    .ext_fields
                    .iter()
                    .find(|(o, _)| *o == *offset as usize)
                    .map(|(_, f)| *f)
                    .ok_or_else(|| self.err("unknown ext field offset"))?;
                let src = self.arg(val);
                vec![PrimOp::Mov { guard, dst: f, src }]
            }
            Inst::LdReg { dst, arr, index } => vec![PrimOp::RegRead {
                guard,
                dst: self.reg_field(*dst),
                reg: arr.0 as u16,
                idx: self.arg(index),
            }],
            Inst::StReg { arr, index, val } => vec![PrimOp::RegWrite {
                guard,
                reg: arr.0 as u16,
                idx: self.arg(index),
                src: self.arg(val),
            }],
            Inst::LdCtrl { dst, ctrl } => {
                let reg = self.ctrl_copy(*ctrl);
                vec![PrimOp::RegRead {
                    guard,
                    dst: self.reg_field(*dst),
                    reg,
                    idx: Arg::Const(Value::u32(0)),
                }]
            }
            Inst::MapGet { .. } => unreachable!("handled as a table"),
            Inst::LdHost { .. } | Inst::StHost { .. } => {
                return Err(self.err("host memory access in a switch kernel"))
            }
            Inst::Fwd { kind, label } => {
                let code = match kind {
                    FwdKind::Pass => match label {
                        Some(_) => 4u8,
                        None => 0,
                    },
                    FwdKind::Reflect => 1,
                    FwdKind::Bcast => 2,
                    FwdKind::Drop => 3,
                };
                let mut ops = vec![PrimOp::Mov {
                    guard,
                    dst: self.fwd_code,
                    src: Arg::Const(Value::new(ScalarType::U8, code as u64)),
                }];
                if let Some(l) = label {
                    let id = self.opts.label_ids.get(l).copied().unwrap_or(0);
                    ops.push(PrimOp::Mov {
                        guard,
                        dst: self.fwd_label,
                        src: Arg::Const(Value::new(ScalarType::U16, id as u64)),
                    });
                }
                ops
            }
            Inst::Here { dst, .. } => vec![PrimOp::Mov {
                guard,
                dst: self.reg_field(*dst),
                // Folded by versioning; generic modules read false.
                src: Arg::Const(Value::bool(false)),
            }],
        })
    }

    /// A fresh single-slot register copy for a control-variable read
    /// site.
    fn ctrl_copy(&mut self, ctrl: CtrlId) -> u16 {
        let decl = &self.module.ctrls[ctrl.0 as usize];
        let copies = self.ctrl_regs.entry(decl.name.clone()).or_default();
        let name = format!("{}__c{}", decl.name, copies.len());
        copies.push(name.clone());
        let reg = self.registers.len() as u16;
        self.registers.push(RegisterArrayDef {
            name,
            elem: decl.ty,
            len: 1,
            init: vec![decl.init],
        });
        reg
    }
}

/// A pool of reusable metadata PHV fields, shared across the kernels of
/// one pipeline (only one kernel executes per packet, so their scratch
/// containers can overlap — the paper's "reverse SROA" of SSA registers
/// onto a bounded metadata struct).
#[derive(Default)]
struct FieldPool {
    /// Every pool-managed field, by type.
    all: HashMap<ScalarType, Vec<FieldId>>,
}

/// Assigns every virtual register of a staged kernel to a metadata
/// field using linear-scan liveness: registers with disjoint live
/// ranges share a container. Registers whose first occurrence is a
/// *read* rely on zero-initialization and therefore never take a field
/// this kernel has already dirtied (fields dirtied by other kernels are
/// fine — their writers are dispatch-guarded off).
fn assign_fields(
    staged: &StagedKernel,
    reg_tys: &[ScalarType],
    layout: &mut PhvLayout,
    pool: &mut FieldPool,
) -> HashMap<RegId, FieldId> {
    // Linearize and compute ranges.
    #[derive(Clone, Copy)]
    struct Range {
        start: usize,
        end: usize,
        read_first: bool,
    }
    let mut ranges: Vec<Option<Range>> = vec![None; reg_tys.len()];
    let mut idx = 0usize;
    for stage in &staged.stages {
        for op in stage {
            let mut touch = |r: RegId, is_read: bool| match &mut ranges[r.0 as usize] {
                Some(rg) => rg.end = idx,
                none => {
                    *none = Some(Range {
                        start: idx,
                        end: idx,
                        read_first: is_read,
                    })
                }
            };
            for o in op.inst.operands() {
                if let Operand::Reg(r) = o {
                    touch(r, true);
                }
            }
            if let Some(g) = op.guard {
                touch(g, true);
            }
            for d in op.inst.dsts() {
                touch(d, false);
            }
            idx += 1;
        }
    }
    // Linear scan in order of range start.
    let mut order: Vec<(RegId, Range)> = ranges
        .iter()
        .enumerate()
        .filter_map(|(r, rg)| rg.map(|rg| (RegId(r as u32), rg)))
        .collect();
    order.sort_by_key(|(r, rg)| (rg.start, r.0));
    let mut free: HashMap<ScalarType, Vec<FieldId>> = pool.all.clone();
    // Tenants by range end, then by the order they moved in.
    let mut active: BinaryHeap<Reverse<(usize, usize)>> = BinaryHeap::new();
    let mut tenants: Vec<(ScalarType, FieldId)> = Vec::with_capacity(order.len());
    let mut expired: Vec<usize> = Vec::new();
    let mut dirty: HashSet<FieldId> = HashSet::new();
    let mut map: HashMap<RegId, FieldId> = HashMap::new();
    for (r, rg) in order {
        let ty = reg_tys[r.0 as usize];
        // Expire finished tenants; their fields return to the free
        // lists in move-in order, whatever order their ranges ended in.
        expired.clear();
        while let Some(&Reverse((end, tenant))) = active.peek() {
            if end >= rg.start {
                break;
            }
            active.pop();
            expired.push(tenant);
        }
        expired.sort_unstable();
        for &tenant in &expired {
            let (aty, f) = tenants[tenant];
            free.entry(aty).or_default().push(f);
        }
        let field = {
            let candidates = free.entry(ty).or_default();
            let pick = if rg.read_first {
                candidates.iter().position(|f| !dirty.contains(f))
            } else {
                candidates.len().checked_sub(1)
            };
            match pick {
                Some(i) => candidates.remove(i),
                None => {
                    let f = layout.add(
                        format!("meta.m{}_{}", ty.bits(), pool_count(pool, ty)),
                        ty,
                        FieldClass::Metadata,
                    );
                    pool.all.entry(ty).or_default().push(f);
                    f
                }
            }
        };
        dirty.insert(field);
        active.push(Reverse((rg.end, tenants.len())));
        tenants.push((ty, field));
        map.insert(r, field);
    }
    map
}

fn pool_count(pool: &FieldPool, ty: ScalarType) -> usize {
    pool.all.get(&ty).map(|v| v.len()).unwrap_or(0)
}

/// Encodes a window into NCP packet bytes exactly as the parser above
/// expects (test/bench helper; the real runtime lives in `ncp`).
pub fn encode_window_for_test(w: &c3::Window, ext_total: usize) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&0x4E43u16.to_be_bytes()); // magic
    out.push(1); // version
    out.push(if w.last { 1 } else { 0 }); // flags
    out.extend_from_slice(&w.kernel.0.to_be_bytes());
    out.extend_from_slice(&w.seq.to_be_bytes());
    out.extend_from_slice(&w.sender.0.to_be_bytes());
    out.extend_from_slice(&w.from.to_wire().to_be_bytes());
    out.push(w.chunks.len() as u8);
    out.push(ext_total as u8);
    for c in &w.chunks {
        out.extend_from_slice(&c.offset.to_be_bytes());
        out.extend_from_slice(&(c.data.len() as u16).to_be_bytes());
    }
    let mut ext = w.ext.clone();
    ext.resize(ext_total, 0);
    out.extend_from_slice(&ext);
    for c in &w.chunks {
        out.extend_from_slice(&c.data);
    }
    out
}

/// Decodes an NCP packet produced by the deparser back into a window
/// (test/bench helper).
pub fn decode_window_for_test(bytes: &[u8], arity: usize, ext_total: usize) -> c3::Window {
    use c3::wire::{get_u16, get_u32};
    let kernel = c3::KernelId(get_u16(bytes, 4));
    let seq = get_u32(bytes, 6);
    let sender = c3::HostId(get_u16(bytes, 10));
    let from = c3::NodeId::from_wire(get_u16(bytes, 12));
    let last = bytes[3] & 1 != 0;
    let mut off = 16;
    let mut descs = Vec::new();
    for _ in 0..arity {
        let o = get_u32(bytes, off);
        let l = get_u16(bytes, off + 4);
        descs.push((o, l as usize));
        off += 6;
    }
    let ext = bytes[off..off + ext_total].to_vec();
    off += ext_total;
    let mut chunks = Vec::new();
    for (o, l) in descs {
        chunks.push(c3::Chunk {
            offset: o,
            data: bytes[off..off + l].to_vec(),
        });
        off += l;
    }
    c3::Window {
        kernel,
        seq,
        sender,
        from,
        last,
        chunks,
        ext,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c3::{Chunk, Forward, HostId, KernelId, NodeId, Window};
    use ncl_ir::lower::{lower, LoweringConfig};
    use ncl_ir::{Interpreter, SwitchState};
    use pisa::{Pipeline, ResourceModel};

    fn compile(src: &str, masks: &[(&str, Vec<u16>)]) -> (Module, crate::CompiledSwitch) {
        let checked = ncl_lang::frontend(src, "t.ncl").expect("frontend");
        let mut cfg = LoweringConfig::default();
        for (k, m) in masks {
            cfg.masks.insert(k.to_string(), m.clone());
        }
        let mut module = lower(&checked, &cfg).expect("lower");
        ncl_ir::passes::optimize(&mut module);
        let compiled = crate::compile_module(
            &module,
            &ResourceModel::default(),
            &CompileOptions::default(),
        )
        .unwrap_or_else(|e| panic!("compile failed: {e}"));
        (module, compiled)
    }

    fn window_u32(kid: u16, vals: &[u32], seq: u32) -> Window {
        Window {
            kernel: KernelId(kid),
            seq,
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

    fn fwd_of(code: u8) -> Forward {
        match code {
            0 => Forward::Pass,
            1 => Forward::Reflect,
            2 => Forward::Bcast,
            3 => Forward::Drop,
            _ => Forward::Pass,
        }
    }

    /// Full differential run: window → NCP bytes → pipeline → window,
    /// compared against the IR interpreter.
    fn differential(
        src: &str,
        kernel: &str,
        mask: Vec<u16>,
        windows: Vec<Window>,
        setup: impl Fn(&mut SwitchState, &mut Pipeline, &crate::CompiledSwitch),
    ) {
        let (module, compiled) = compile(src, &[(kernel, mask)]);
        let kid = compiled.kernel_ids[kernel];
        let mut pipe = Pipeline::load(compiled.pipeline.clone(), ResourceModel::default()).unwrap();
        let mut state = SwitchState::from_module(&module);
        setup(&mut state, &mut pipe, &compiled);
        let it = Interpreter::default();
        let kir = module.kernel(kernel).unwrap();
        let ext_total = module.window_ext.size();
        for (i, mut w) in windows.into_iter().enumerate() {
            w.kernel = KernelId(kid);
            let mut wi = w.clone();
            let fwd_interp = it.run_outgoing(kir, &mut wi, &mut state).expect("interp");
            let pkt = encode_window_for_test(&w, ext_total);
            let out = pipe.process(&pkt).expect("pipeline parse");
            let wp = decode_window_for_test(&out.packet, w.chunks.len(), ext_total);
            let fwd_pipe = fwd_of(out.fwd_code);
            assert_eq!(fwd_interp, fwd_pipe, "fwd diverged on window {i}");
            assert_eq!(wi.chunks, wp.chunks, "chunks diverged on window {i}");
            assert_eq!(wi.ext, wp.ext, "ext diverged on window {i}");
        }
        // Registers must agree too (lane mapping checked via readback).
        // The split module's layout differs, so compare observable
        // behaviour only — chunk data above already covers reads.
    }

    #[test]
    fn increment_kernel_end_to_end() {
        differential(
            "_net_ _out_ void inc(int *d) { d[0] += 1; }",
            "inc",
            vec![1],
            vec![window_u32(0, &[41], 0)],
            |_, _, _| {},
        );
    }

    #[test]
    fn branching_kernel_end_to_end() {
        let src = "_net_ _out_ void k(int *d) {\n\
                     if (d[0] > 10) { d[1] = d[0] * 2; _reflect(); }\n\
                     else { d[1] = 0 - d[0]; _drop(); }\n\
                   }";
        differential(
            src,
            "k",
            vec![2],
            vec![window_u32(0, &[20, 0], 0), window_u32(0, &[3, 0], 0)],
            |_, _, _| {},
        );
    }

    #[test]
    fn allreduce_end_to_end() {
        let src = r#"
_net_ _at_("s1") int accum[16] = {0};
_net_ _at_("s1") unsigned count[4] = {0};
_net_ _ctrl_ _at_("s1") unsigned nworkers = 2;
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
        differential(
            src,
            "allreduce",
            vec![4],
            vec![
                window_u32(0, &[1, 2, 3, 4], 0),
                window_u32(0, &[10, 20, 30, 40], 0),
                window_u32(0, &[7, 7, 7, 7], 1),
                window_u32(0, &[1, 1, 1, 1], 1),
                window_u32(0, &[2, 2, 2, 2], 0),
            ],
            |_, _, _| {},
        );
    }

    #[test]
    fn kvs_get_end_to_end() {
        let src = r#"
_net_ _at_("s1") ncl::Map<uint64_t, uint8_t, 16> Idx;
_net_ _at_("s1") uint32_t Cache[16][4] = {{0}};
_net_ _at_("s1") bool Valid[16] = {false};
_net_ _out_ void get(uint64_t key, uint32_t *val) {
    if (auto *idx = Idx[key]) {
        if (Valid[*idx]) {
            memcpy(val, Cache[*idx], 16); _reflect();
        }
    }
}
"#;
        let (module, compiled) = compile(src, &[("get", vec![1, 4])]);
        let kid = compiled.kernel_ids["get"];
        let mut pipe = Pipeline::load(compiled.pipeline.clone(), ResourceModel::default()).unwrap();
        let mut state = SwitchState::from_module(&module);

        // Control plane: key 77 → slot 3, valid, value {9,8,7,6}.
        state.map_insert(ncl_ir::MapId(0), 77, Value::new(ScalarType::U8, 3));
        state.registers[1].set(3, Value::bool(true)); // Valid (module order)
                                                      // Interpreter-side Cache[3] = {9,8,7,6} (flattened 2-D).
        for (j, v) in [9u32, 8, 7, 6].iter().enumerate() {
            state.registers[0].set(3 * 4 + j, Value::u32(*v));
        }
        // Pipeline-side control plane: insert into every lookup table
        // and the lane banks.
        for t in &compiled.map_tables["Idx"] {
            pipe.table_insert(
                t,
                pisa::Entry {
                    patterns: vec![pisa::MatchPattern::exact(1), pisa::MatchPattern::exact(77)],
                    action: ActionRef(1),
                    args: vec![Value::new(ScalarType::U8, 3)],
                    priority: 0,
                },
            )
            .unwrap();
        }
        assert!(pipe.register_write("Valid", 3, Value::bool(true)));
        for (j, v) in [9u32, 8, 7, 6].iter().enumerate() {
            assert!(pipe.register_write(&format!("Cache__l{j}"), 3, Value::u32(*v)));
        }

        let it = Interpreter::default();
        let kir = module.kernel("get").unwrap();
        // Hit: key 77.
        let mk = |key: u64| Window {
            kernel: KernelId(kid),
            seq: 0,
            sender: HostId(1),
            from: NodeId::Host(HostId(1)),
            last: false,
            chunks: vec![
                Chunk {
                    offset: 0,
                    data: key.to_be_bytes().to_vec(),
                },
                Chunk {
                    offset: 0,
                    data: vec![0; 16],
                },
            ],
            ext: vec![],
        };
        for key in [77u64, 5] {
            let mut wi = mk(key);
            let fwd_i = it.run_outgoing(kir, &mut wi, &mut state).unwrap();
            let pkt = encode_window_for_test(&mk(key), 0);
            let out = pipe.process(&pkt).unwrap();
            let wp = decode_window_for_test(&out.packet, 2, 0);
            assert_eq!(fwd_of(out.fwd_code), fwd_i, "key {key}");
            assert_eq!(wp.chunks, wi.chunks, "key {key}");
        }
    }

    #[test]
    fn ext_fields_travel() {
        let src = r#"
_wnd_ struct W { uint16_t tag; };
_net_ _out_ void k(int *d) { window.tag = window.tag + 1; }
"#;
        let (module, compiled) = compile(src, &[("k", vec![1])]);
        let kid = compiled.kernel_ids["k"];
        let mut pipe = Pipeline::load(compiled.pipeline, ResourceModel::default()).unwrap();
        let mut w = window_u32(kid, &[0], 0);
        w.ext_write(0, Value::new(ScalarType::U16, 41));
        let pkt = encode_window_for_test(&w, module.window_ext.size());
        let out = pipe.process(&pkt).unwrap();
        let wp = decode_window_for_test(&out.packet, 1, module.window_ext.size());
        assert_eq!(
            wp.ext_read(ScalarType::U16, 0),
            Value::new(ScalarType::U16, 42)
        );
    }

    #[test]
    fn foreign_packets_pass_through_unparsed() {
        let (_, compiled) = compile(
            "_net_ _out_ void k(int *d) { d[0] += 1; }",
            &[("k", vec![1])],
        );
        let mut pipe = Pipeline::load(compiled.pipeline, ResourceModel::default()).unwrap();
        // Not an NCP packet for kernel 1 (unknown kernel id 999).
        let mut w = window_u32(999, &[1], 0);
        w.kernel = KernelId(999);
        let pkt = encode_window_for_test(&w, 0);
        assert!(pipe.process(&pkt).is_none());
        assert_eq!(pipe.stats.parse_errors, 1);
    }

    #[test]
    fn two_kernels_dispatch_independently() {
        let src = "_net_ _out_ void ka(int *d) { d[0] += 1; }\n\
                   _net_ _out_ void kb(int *d) { d[0] *= 2; }";
        let checked = ncl_lang::frontend(src, "t.ncl").unwrap();
        let mut cfg = LoweringConfig::default();
        cfg.masks.insert("ka".into(), vec![1]);
        cfg.masks.insert("kb".into(), vec![1]);
        let mut module = lower(&checked, &cfg).unwrap();
        ncl_ir::passes::optimize(&mut module);
        let compiled = crate::compile_module(
            &module,
            &ResourceModel::default(),
            &CompileOptions::default(),
        )
        .unwrap();
        let mut pipe = Pipeline::load(compiled.pipeline, ResourceModel::default()).unwrap();
        let ka = compiled.kernel_ids["ka"];
        let kb = compiled.kernel_ids["kb"];
        let run = |pipe: &mut Pipeline, kid: u16, v: u32| -> u32 {
            let w = window_u32(kid, &[v], 0);
            let pkt = encode_window_for_test(&w, 0);
            let out = pipe.process(&pkt).unwrap();
            let wp = decode_window_for_test(&out.packet, 1, 0);
            wp.chunks[0].get(ScalarType::U32, 0).bits() as u32
        };
        assert_eq!(run(&mut pipe, ka, 10), 11);
        assert_eq!(run(&mut pipe, kb, 10), 20);
    }

    #[test]
    fn ctrl_variable_updates_apply() {
        let src = r#"
_net_ _ctrl_ _at_("s1") unsigned thresh = 5;
_net_ _out_ void k(int *d) { if ((unsigned)d[0] > thresh) { _drop(); } }
"#;
        let (_, compiled) = compile(src, &[("k", vec![1])]);
        let kid = compiled.kernel_ids["k"];
        let mut pipe = Pipeline::load(compiled.pipeline, ResourceModel::default()).unwrap();
        let run = |pipe: &mut Pipeline, v: u32| -> u8 {
            let w = window_u32(kid, &[v], 0);
            let out = pipe.process(&encode_window_for_test(&w, 0)).unwrap();
            out.fwd_code
        };
        assert_eq!(run(&mut pipe, 9), 3); // drop: 9 > 5
        assert_eq!(run(&mut pipe, 3), 0); // pass
                                          // ncl::ctrl_wr equivalent: update every copy.
        for copy in &compiled.ctrl_regs["thresh"] {
            assert!(pipe.register_write(copy, 0, Value::u32(100)));
        }
        assert_eq!(run(&mut pipe, 9), 0); // now passes
    }
}
