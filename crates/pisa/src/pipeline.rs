//! The pipeline: configuration, load-time validation, and per-packet
//! execution.
//!
//! A [`PipelineConfig`] is the simulator's analogue of `switch.bin` +
//! `switch.p4info`: PHV layout, parser/deparser programs, the logical
//! stage sequence with its tables, register-array definitions, and the
//! intrinsic metadata fields the embedding reads (forwarding decision,
//! `_pass(label)` target). [`Pipeline::load`] validates the configuration
//! against a [`ResourceModel`] — the accept/reject step the paper
//! delegates to the proprietary P4 backend — and instantiates register
//! state.

use crate::parser::{DeparserSpec, ParserSpec};
use crate::phv::{FieldId, Phv, PhvLayout};
use crate::resources::{ResourceModel, ResourceReport, ResourceViolation};
use crate::table::{ActionRef, Arg, Entry, MatchPattern, PrimOp, TableDef, TableFull};
use c3::{RegArray, ScalarType, Value};
use std::collections::BTreeMap;

/// A persistent register array of the pipeline.
#[derive(Clone, PartialEq, Debug)]
pub struct RegisterArrayDef {
    /// Name (control-plane handle and P4 symbol).
    pub name: String,
    /// Element type.
    pub elem: ScalarType,
    /// Element count.
    pub len: usize,
    /// Explicit prefix of the initial contents: [`Pipeline::load`] pads
    /// it to `len` with zeros of `elem`, so a config costs what the
    /// program initialised, not the size of switch memory.
    pub init: Vec<Value>,
}

/// One logical match-action stage.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct StageConfig {
    /// Tables applied in order within the stage.
    pub tables: Vec<TableDef>,
}

impl StageConfig {
    /// Total VLIW ops across the stage's tables.
    pub fn op_count(&self) -> usize {
        self.tables.iter().map(|t| t.op_count()).sum()
    }
}

/// A loadable pipeline configuration.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct PipelineConfig {
    /// Program name.
    pub name: String,
    /// PHV layout.
    pub layout: PhvLayout,
    /// Parser program.
    pub parser: ParserSpec,
    /// Deparser program.
    pub deparser: DeparserSpec,
    /// Logical stages (may exceed the physical count; execution
    /// recirculates).
    pub stages: Vec<StageConfig>,
    /// Register arrays.
    pub registers: Vec<RegisterArrayDef>,
    /// Metadata field holding the forwarding decision code
    /// ([`c3::Forward::code`]).
    pub fwd_code: Option<FieldId>,
    /// Metadata field holding the `_pass(label)` target id.
    pub fwd_label: Option<FieldId>,
}

impl PipelineConfig {
    /// Validates against a resource model, producing a full report.
    pub fn report(&self, model: &ResourceModel) -> ResourceReport {
        let mut report = ResourceReport {
            stages_used: self.stages.len(),
            recirc_passes: self.stages.len().div_ceil(model.stages).saturating_sub(1),
            ops_by_stage: self.stages.iter().map(|s| s.op_count()).collect(),
            tables_by_stage: self.stages.iter().map(|s| s.tables.len()).collect(),
            phv_header_bytes: self.layout.header_bytes(),
            phv_metadata_bytes: self.layout.metadata_bytes(),
            sram_by_stage: vec![0; model.stages.max(1)],
            violations: Vec::new(),
        };
        if self.stages.len() > model.logical_stages() {
            report.violations.push(ResourceViolation::TooManyStages {
                required: self.stages.len(),
                available: model.logical_stages(),
            });
        }
        for (i, s) in self.stages.iter().enumerate() {
            let ops = s.op_count();
            if ops > model.ops_per_stage {
                report.violations.push(ResourceViolation::OpsPerStage {
                    stage: i,
                    found: ops,
                    budget: model.ops_per_stage,
                });
            }
            if s.tables.len() > model.tables_per_stage {
                report.violations.push(ResourceViolation::TablesPerStage {
                    stage: i,
                    found: s.tables.len(),
                    budget: model.tables_per_stage,
                });
            }
            let tcam: usize = s
                .tables
                .iter()
                .filter(|t| {
                    t.keys
                        .iter()
                        .any(|(_, k)| !matches!(k, crate::table::MatchKind::Exact))
                })
                .map(|t| t.size.max(t.entries.len()))
                .sum();
            if tcam > model.tcam_entries_per_stage {
                report.violations.push(ResourceViolation::TcamPerStage {
                    stage: i,
                    used: tcam,
                    budget: model.tcam_entries_per_stage,
                });
            }
        }
        if report.phv_header_bytes > model.phv_header_bytes {
            report.violations.push(ResourceViolation::PhvHeader {
                used: report.phv_header_bytes,
                budget: model.phv_header_bytes,
            });
        }
        if report.phv_metadata_bytes > model.phv_metadata_bytes {
            report.violations.push(ResourceViolation::PhvMetadata {
                used: report.phv_metadata_bytes,
                budget: model.phv_metadata_bytes,
            });
        }
        // Register arrays: all accesses to one array must sit in a single
        // logical stage (they fuse into one RegisterAction); the number
        // of reads (and writes) there is bounded per pass. Arrays are
        // checked in register order, so the violations come out in a
        // fixed order.
        let mut touched: BTreeMap<u16, Vec<usize>> = BTreeMap::new();
        let mut access_counts: BTreeMap<u16, (usize, usize)> = BTreeMap::new();
        for (i, s) in self.stages.iter().enumerate() {
            for t in &s.tables {
                for a in &t.actions {
                    for op in &a.ops {
                        if let Some(r) = op.register() {
                            touched.entry(r).or_default().push(i);
                            let counts = access_counts.entry(r).or_default();
                            match op {
                                PrimOp::RegRead { .. } => counts.0 += 1,
                                PrimOp::RegWrite { .. } => counts.1 += 1,
                                _ => {}
                            }
                        }
                    }
                }
            }
        }
        for (reg, mut stages) in touched {
            stages.sort_unstable();
            stages.dedup();
            let name = self
                .registers
                .get(reg as usize)
                .map(|r| r.name.clone())
                .unwrap_or_else(|| format!("reg{reg}"));
            if stages.len() > 1 {
                report
                    .violations
                    .push(ResourceViolation::RegisterMultiStage {
                        array: name.clone(),
                        stages,
                    });
            }
            let (reads, writes) = access_counts[&reg];
            let accesses = reads + writes;
            if accesses > model.reg_accesses_per_pass {
                report.violations.push(ResourceViolation::RegisterAccesses {
                    array: name,
                    found: accesses,
                    budget: model.reg_accesses_per_pass,
                });
            }
        }
        // SRAM per physical stage: every register read or write charges
        // its whole array to the stage it runs in. Tables are not
        // counted.
        let sram = &mut report.sram_by_stage;
        for (i, s) in self.stages.iter().enumerate() {
            let phys = i % sram.len();
            for t in &s.tables {
                for a in &t.actions {
                    for op in &a.ops {
                        if let Some(r) = op.register() {
                            if let Some(def) = self.registers.get(r as usize) {
                                sram[phys] += def.len * def.elem.size();
                            }
                        }
                    }
                }
            }
        }
        for (stage, used) in report.sram_by_stage.iter().enumerate() {
            if *used > model.sram_bytes_per_stage {
                report.violations.push(ResourceViolation::SramPerStage {
                    stage,
                    used: *used,
                    budget: model.sram_bytes_per_stage,
                });
            }
        }
        report
    }
}

/// Execution statistics.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ExecStats {
    /// Packets processed.
    pub packets: u64,
    /// Total recirculation passes beyond the first.
    pub recirculations: u64,
    /// Parse errors (packet dropped before the pipeline).
    pub parse_errors: u64,
    /// Flat per-table hit counters in `(stage, table)` order; resolve
    /// names through [`Pipeline::table_hits_for`].
    pub hit_counts: Vec<u64>,
}

/// Output of processing one packet.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PipelineOutput {
    /// The deparsed packet bytes (headers; the embedding re-appends any
    /// opaque payload it withheld).
    pub packet: Vec<u8>,
    /// Forwarding decision code ([`c3::Forward::code`]), 0 when the
    /// config declares no intrinsic field.
    pub fwd_code: u8,
    /// `_pass(label)` target id (meaningful when `fwd_code == 4`).
    pub fwd_label: u16,
    /// Passes the packet took through the pipeline (1 = no
    /// recirculation).
    pub passes: usize,
    /// Bytes of the original packet the parser consumed.
    pub parsed_bytes: usize,
}

/// A loaded pipeline: configuration + register state + statistics.
#[derive(Clone, Debug)]
pub struct Pipeline {
    config: PipelineConfig,
    model: ResourceModel,
    registers: Vec<RegArray>,
    /// Flat table index: names in `(stage, table)` order, parallel to
    /// [`ExecStats::hit_counts`].
    table_names: Vec<String>,
    /// Each stage's first flat table index.
    stage_base: Vec<usize>,
    /// Exec statistics.
    pub stats: ExecStats,
}

/// Load-time rejection: the configuration violates the resource model.
#[derive(Clone, PartialEq, Debug)]
pub struct LoadError {
    /// The full report, including all violations.
    pub report: Box<ResourceReport>,
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "pipeline rejected by the resource model:")?;
        for v in &self.report.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

impl std::error::Error for LoadError {}

impl Pipeline {
    /// Validates and loads a configuration.
    pub fn load(config: PipelineConfig, model: ResourceModel) -> Result<Self, LoadError> {
        let report = config.report(&model);
        if !report.accepted() {
            return Err(LoadError {
                report: Box::new(report),
            });
        }
        // A slot's type is the declaration's, whatever a hand-built
        // config put in the initializer prefix.
        let registers = config
            .registers
            .iter()
            .map(|r| RegArray::new(r.elem, r.len, &r.init))
            .collect();
        let table_names: Vec<String> = config
            .stages
            .iter()
            .flat_map(|s| s.tables.iter().map(|t| t.name.clone()))
            .collect();
        let stage_base = (config.stages.iter())
            .scan(0, |flat, s| {
                let base = *flat;
                *flat += s.tables.len();
                Some(base)
            })
            .collect();
        let stats = ExecStats {
            hit_counts: vec![0; table_names.len()],
            ..ExecStats::default()
        };
        Ok(Pipeline {
            config,
            model,
            registers,
            table_names,
            stage_base,
            stats,
        })
    }

    /// The loaded configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Passes required per packet.
    pub fn passes(&self) -> usize {
        self.config.stages.len().div_ceil(self.model.stages).max(1)
    }

    /// Processes one packet. Returns `None` on a parse error (packet is
    /// not for us — the embedding forwards it unmodified, Fig. 3b).
    pub fn process(&mut self, packet: &[u8]) -> Option<PipelineOutput> {
        let p = self.begin(packet)?;
        Some(self.finish(p))
    }

    /// Parses a packet into a [`PartialPacket`] positioned before stage
    /// 0, without running any stages. Returns `None` on a parse error
    /// (counted, exactly like [`Pipeline::process`]).
    ///
    /// Together with [`Pipeline::advance`] and [`Pipeline::finish`]
    /// this exposes the pipeline as a resumable state machine: a packet
    /// can be left suspended between stages while other packets run to
    /// completion — the interleaving a recirculating packet experiences
    /// on a real RMT chip, and the step granularity the ncmc model
    /// checker schedules.
    pub fn begin(&mut self, packet: &[u8]) -> Option<PartialPacket> {
        match self.config.parser.parse(&self.config.layout, packet) {
            Ok((phv, parsed_bytes)) => Some(PartialPacket {
                phv,
                next_stage: 0,
                parsed_bytes,
            }),
            Err(_) => {
                self.stats.parse_errors += 1;
                None
            }
        }
    }

    /// Runs the suspended packet's stages up to (but excluding) logical
    /// stage `upto`, clamped to the stage count. Already-executed
    /// stages are never re-run.
    pub fn advance(&mut self, p: &mut PartialPacket, upto: usize) {
        let upto = upto.min(self.config.stages.len());
        while p.next_stage < upto {
            let s = p.next_stage;
            self.run_stage(&mut p.phv, s);
            p.next_stage += 1;
        }
    }

    /// Runs any remaining stages and deparses, producing the same
    /// output (and the same statistics) as [`Pipeline::process`] would
    /// have for this packet.
    pub fn finish(&mut self, mut p: PartialPacket) -> PipelineOutput {
        self.advance(&mut p, self.config.stages.len());
        let passes = self.passes();
        self.stats.packets += 1;
        self.stats.recirculations += (passes - 1) as u64;
        let out_packet = self.config.deparser.deparse(&self.config.layout, &p.phv);
        let fwd_code = self
            .config
            .fwd_code
            .map(|f| p.phv.get(f).bits() as u8)
            .unwrap_or(0);
        let fwd_label = self
            .config
            .fwd_label
            .map(|f| p.phv.get(f).bits() as u16)
            .unwrap_or(0);
        PipelineOutput {
            packet: out_packet,
            fwd_code,
            fwd_label,
            passes,
            parsed_bytes: p.parsed_bytes,
        }
    }

    /// The persistent register state, in configuration order (the
    /// pipeline's only cross-packet state; tables are control-plane-owned
    /// and stats are observability, not semantics).
    pub fn registers(&self) -> &[RegArray] {
        &self.registers
    }

    /// Exchanges the register file with `regs` in O(1), when `regs` has
    /// this pipeline's shape: as many arrays, each of the same length
    /// and element type. Returns `false`, and swaps nothing, otherwise.
    /// This is the checkpoint unit of the ncmc model checker: swap a
    /// state's registers in, run packets, and swap them back out.
    #[must_use]
    pub fn swap_registers(&mut self, regs: &mut Vec<RegArray>) -> bool {
        let shape = |a: &RegArray| (a.elem(), a.len());
        let same = regs.iter().map(shape).eq(self.registers.iter().map(shape));
        if same {
            std::mem::swap(&mut self.registers, regs);
        }
        same
    }

    /// Logical stage count of the loaded configuration.
    pub fn stage_count(&self) -> usize {
        self.config.stages.len()
    }

    /// Runs a single logical stage over a parsed PHV.
    ///
    /// [`Pipeline::process`] runs every packet to completion, which
    /// over-serializes relative to a real RMT chip: there, a packet
    /// recirculating for its second pass interleaves with fresh
    /// arrivals, and in-flight packets occupy different stages at the
    /// same instant. Stepping stages one at a time lets tests replay
    /// exactly the interleaved schedules the `non-atomic-rmw` lint
    /// reasons about, with each stage remaining atomic (one
    /// RegisterAction pass) as on hardware.
    pub fn run_stage(&mut self, phv: &mut Phv, stage: usize) {
        self.step_stage(phv, stage, |_, _| {});
    }

    /// The one stage step both passes take: every table of `stage` in
    /// order, counting hits and reporting each hit table and the action
    /// it runs to `on_hit`.
    fn step_stage(
        &mut self,
        phv: &mut Phv,
        stage: usize,
        mut on_hit: impl FnMut(&TableDef, ActionRef),
    ) {
        let base = self.stage_base[stage];
        for (i, table) in self.config.stages[stage].tables.iter().enumerate() {
            let Some((action, args)) = table.lookup(phv) else {
                continue;
            };
            self.stats.hit_counts[base + i] += 1;
            on_hit(table, action);
            for op in &table.actions[action.0 as usize].ops {
                exec_op(&self.config.layout, &mut self.registers, op, phv, args);
            }
        }
    }

    /// Processes one packet with a per-stage execution trace — the
    /// debugging aid the paper lists as missing tooling (§6: "NCL would
    /// greatly benefit from external tools for … debugging"). Each
    /// [`StageTrace`] records the tables that hit and every PHV field
    /// the stage changed, by name. The pass is [`Pipeline::process`]'s:
    /// the same parse, stage step, deparse and statistics.
    pub fn process_traced(&mut self, packet: &[u8]) -> Option<(PipelineOutput, Vec<StageTrace>)> {
        let mut p = self.begin(packet)?;
        let mut traces = Vec::with_capacity(self.config.stages.len());
        for stage in 0..self.config.stages.len() {
            let before = p.phv.clone();
            let mut hits = Vec::new();
            self.step_stage(&mut p.phv, stage, |table, action| {
                let name = &table.actions[action.0 as usize].name;
                hits.push((table.name.clone(), name.clone()));
            });
            p.next_stage += 1;
            let layout = &self.config.layout;
            let changed = (0..layout.fields.len())
                .filter_map(|i| {
                    let f = FieldId(i as u16);
                    let (old, new) = (before.get(f), p.phv.get(f));
                    (old != new).then(|| (layout.decl(f).name.clone(), old, new))
                })
                .collect();
            traces.push(StageTrace {
                stage,
                hits,
                changed,
            });
        }
        Some((self.finish(p), traces))
    }

    /// Hit count of a named table (resolves the flat counters).
    pub fn table_hits_for(&self, name: &str) -> u64 {
        self.table_names
            .iter()
            .zip(&self.stats.hit_counts)
            .filter(|(n, _)| n.as_str() == name)
            .map(|(_, &c)| c)
            .sum()
    }
}

/// A packet suspended between logical stages (see [`Pipeline::begin`]).
#[derive(PartialEq, Eq, Debug)]
pub struct PartialPacket {
    phv: Phv,
    next_stage: usize,
    parsed_bytes: usize,
}

impl Clone for PartialPacket {
    fn clone(&self) -> Self {
        PartialPacket {
            phv: self.phv.clone(),
            next_stage: self.next_stage,
            parsed_bytes: self.parsed_bytes,
        }
    }

    /// Keeps `self`'s PHV buffer (see [`Phv`]'s `clone_from`).
    fn clone_from(&mut self, source: &Self) {
        self.phv.clone_from(&source.phv);
        self.next_stage = source.next_stage;
        self.parsed_bytes = source.parsed_bytes;
    }
}

impl PartialPacket {
    /// The packet's current PHV (for state hashing / inspection).
    pub fn phv(&self) -> &Phv {
        &self.phv
    }

    /// The next logical stage this packet will execute.
    pub fn next_stage(&self) -> usize {
        self.next_stage
    }
}

/// One stage's contribution to a traced packet execution.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StageTrace {
    /// Logical stage index.
    pub stage: usize,
    /// `(table, action)` pairs that fired, in order.
    pub hits: Vec<(String, String)>,
    /// `(field name, before, after)` for every PHV field the stage
    /// changed.
    pub changed: Vec<(String, Value, Value)>,
}

impl std::fmt::Display for StageTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stage {}:", self.stage)?;
        for (t, a) in &self.hits {
            write!(f, " {t}→{a}")?;
        }
        for (name, old, new) in &self.changed {
            write!(f, "  {name}: {old} ⇒ {new}")?;
        }
        Ok(())
    }
}

fn arg_value(a: &Arg, phv: &Phv, args: &[Value]) -> Value {
    match a {
        Arg::Field(f) => phv.get(*f),
        Arg::Const(v) => *v,
        Arg::Param(i) => args.get(*i as usize).copied().unwrap_or(Value::u64(0)),
    }
}

fn exec_op(
    layout: &PhvLayout,
    registers: &mut [RegArray],
    op: &PrimOp,
    phv: &mut Phv,
    args: &[Value],
) {
    if let Some(g) = op.guard() {
        if !phv.get(g).is_truthy() {
            return;
        }
    }
    match op {
        PrimOp::Mov { dst, src, .. } => {
            let v = arg_value(src, phv, args);
            phv.set(*dst, v);
        }
        PrimOp::Alu { dst, op, a, b, .. } => {
            let dty = layout.decl(*dst).ty;
            let x = arg_value(a, phv, args);
            let y = arg_value(b, phv, args);
            // Operands are normalized to a common type by the
            // compiler; the ALU computes in the wider operand type
            // and the destination container truncates.
            let common = if x.ty().size() >= y.ty().size() {
                x.ty()
            } else {
                y.ty()
            };
            let r = Value::binop(*op, x.cast(common), y.cast(common));
            phv.set(*dst, r.cast(dty));
        }
        PrimOp::UnAlu { dst, op, a, .. } => {
            let v = arg_value(a, phv, args);
            phv.set(*dst, Value::unop(*op, v));
        }
        PrimOp::Cast { dst, ty, a, .. } => {
            let v = arg_value(a, phv, args);
            phv.set(*dst, v.cast(*ty));
        }
        PrimOp::Select {
            dst, cond, a, b, ..
        } => {
            let c = arg_value(cond, phv, args);
            let v = if c.is_truthy() {
                arg_value(a, phv, args)
            } else {
                arg_value(b, phv, args)
            };
            phv.set(*dst, v);
        }
        // Indices wrap modulo the array length; an empty array is not
        // accessed at all.
        PrimOp::RegRead { dst, reg, idx, .. } => {
            let arr = &registers[*reg as usize];
            let raw = arg_value(idx, phv, args).bits() as usize;
            if let Some(i) = raw.checked_rem(arr.len()) {
                phv.set(*dst, arr.get(i));
            }
        }
        PrimOp::RegWrite { reg, idx, src, .. } => {
            let v = arg_value(src, phv, args);
            let raw = arg_value(idx, phv, args).bits() as usize;
            let arr = &mut registers[*reg as usize];
            if let Some(i) = raw.checked_rem(arr.len()) {
                arr.set(i, v);
            }
        }
    }
}

// ----------------------------------------------------------------------
// Control-plane API (what libncrt's transparent control-plane
// interaction calls into)
// ----------------------------------------------------------------------

impl Pipeline {
    /// Reads a register element (debug/verification).
    pub fn register_read(&self, name: &str, idx: usize) -> Option<Value> {
        let r = self.config.registers.iter().position(|r| r.name == name)?;
        self.registers[r].try_get(idx)
    }

    /// Writes a register element (control variables use this).
    pub fn register_write(&mut self, name: &str, idx: usize, v: Value) -> bool {
        let Some(r) = self.config.registers.iter().position(|r| r.name == name) else {
            return false;
        };
        self.registers[r].try_set(idx, v)
    }

    /// Inserts an entry into a named table (map inserts, routing rules).
    pub fn table_insert(&mut self, table: &str, entry: Entry) -> Result<(), TableInsertError> {
        for s in &mut self.config.stages {
            for t in &mut s.tables {
                if t.name == table {
                    return t.insert(entry).map_err(TableInsertError::Full);
                }
            }
        }
        Err(TableInsertError::NoSuchTable(table.to_string()))
    }

    /// Removes entries matching `patterns` from a named table.
    pub fn table_remove(&mut self, table: &str, patterns: &[MatchPattern]) -> usize {
        for s in &mut self.config.stages {
            for t in &mut s.tables {
                if t.name == table {
                    return t.remove(patterns);
                }
            }
        }
        0
    }

    /// Number of entries currently installed in a table.
    pub fn table_len(&self, table: &str) -> Option<usize> {
        for s in &self.config.stages {
            for t in &s.tables {
                if t.name == table {
                    return Some(t.entries.len());
                }
            }
        }
        None
    }
}

/// Control-plane insert failure.
#[derive(Clone, PartialEq, Debug)]
pub enum TableInsertError {
    /// The table rejected the entry.
    Full(TableFull),
    /// No table of that name exists in the pipeline.
    NoSuchTable(String),
}

impl std::fmt::Display for TableInsertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableInsertError::Full(e) => write!(f, "{e}"),
            TableInsertError::NoSuchTable(t) => write!(f, "no table named '{t}'"),
        }
    }
}

impl std::error::Error for TableInsertError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::Extract;
    use crate::phv::FieldClass;
    use crate::table::{ActionDef, ActionRef, MatchKind};
    use c3::BinOp;
    use std::collections::HashMap;

    /// A pipeline that parses one u32, adds a register value, counts the
    /// packet, and deparses.
    fn counter_pipeline() -> PipelineConfig {
        let mut layout = PhvLayout::default();
        let x = layout.add("x", ScalarType::U32, FieldClass::Header);
        let fwd = layout.add("meta.fwd", ScalarType::U8, FieldClass::Metadata);
        let tmp = layout.add("meta.tmp", ScalarType::U32, FieldClass::Metadata);
        let action = ActionDef {
            name: "bump".into(),
            ops: vec![
                PrimOp::RegRead {
                    guard: None,
                    dst: tmp,
                    reg: 0,
                    idx: Arg::Const(Value::u32(0)),
                },
                PrimOp::Alu {
                    guard: None,
                    dst: tmp,
                    op: BinOp::Add,
                    a: Arg::Field(tmp),
                    b: Arg::Field(x),
                },
                PrimOp::RegWrite {
                    guard: None,
                    reg: 0,
                    idx: Arg::Const(Value::u32(0)),
                    src: Arg::Field(tmp),
                },
                PrimOp::Mov {
                    guard: None,
                    dst: x,
                    src: Arg::Field(tmp),
                },
            ],
        };
        PipelineConfig {
            name: "counter".into(),
            parser: ParserSpec {
                common: vec![Extract { field: x }],
                verify: vec![],
                select: None,
                branches: HashMap::new(),
            },
            deparser: DeparserSpec {
                common: vec![x],
                select: None,
                branches: HashMap::new(),
            },
            stages: vec![StageConfig {
                tables: vec![TableDef::always("bump", action)],
            }],
            registers: vec![RegisterArrayDef {
                name: "total".into(),
                elem: ScalarType::U32,
                len: 1,
                init: vec![],
            }],
            fwd_code: Some(fwd),
            fwd_label: None,
            layout,
        }
    }

    #[test]
    fn packet_flows_and_registers_persist() {
        let mut p = Pipeline::load(counter_pipeline(), ResourceModel::default()).unwrap();
        let out1 = p.process(&5u32.to_be_bytes()).unwrap();
        assert_eq!(out1.packet, 5u32.to_be_bytes());
        let out2 = p.process(&7u32.to_be_bytes()).unwrap();
        assert_eq!(out2.packet, 12u32.to_be_bytes());
        assert_eq!(p.register_read("total", 0), Some(Value::u32(12)));
        assert_eq!(p.stats.packets, 2);
        assert_eq!(p.table_hits_for("bump"), 2);
    }

    #[test]
    fn parse_error_counted_not_processed() {
        let mut p = Pipeline::load(counter_pipeline(), ResourceModel::default()).unwrap();
        assert!(p.process(&[1, 2]).is_none());
        assert_eq!(p.stats.parse_errors, 1);
        assert_eq!(p.stats.packets, 0);
    }

    #[test]
    fn guarded_op_skipped() {
        let mut layout = PhvLayout::default();
        let x = layout.add("x", ScalarType::U32, FieldClass::Header);
        let g = layout.add("g", ScalarType::Bool, FieldClass::Metadata);
        let action = ActionDef {
            name: "maybe".into(),
            ops: vec![PrimOp::Mov {
                guard: Some(g),
                dst: x,
                src: Arg::Const(Value::u32(99)),
            }],
        };
        let cfg = PipelineConfig {
            name: "t".into(),
            parser: ParserSpec {
                common: vec![Extract { field: x }],
                verify: vec![],
                select: None,
                branches: HashMap::new(),
            },
            deparser: DeparserSpec {
                common: vec![x],
                select: None,
                branches: HashMap::new(),
            },
            stages: vec![StageConfig {
                tables: vec![TableDef::always("maybe", action)],
            }],
            registers: vec![],
            fwd_code: None,
            fwd_label: None,
            layout,
        };
        let mut p = Pipeline::load(cfg, ResourceModel::default()).unwrap();
        // Guard is false (metadata zero-initialized) — x unchanged.
        let out = p.process(&3u32.to_be_bytes()).unwrap();
        assert_eq!(out.packet, 3u32.to_be_bytes());
    }

    #[test]
    fn load_rejects_oversized_program() {
        let mut cfg = counter_pipeline();
        // Blow the stage budget.
        let model = ResourceModel::tiny();
        for _ in 0..(model.logical_stages() + 1) {
            cfg.stages.push(StageConfig::default());
        }
        let err = Pipeline::load(cfg, model).unwrap_err();
        assert!(matches!(
            err.report.violations.first(),
            Some(ResourceViolation::TooManyStages { .. })
        ));
    }

    #[test]
    fn register_multi_stage_rejected() {
        let mut cfg = counter_pipeline();
        // Duplicate the stage: the same register now accessed in two
        // stages.
        let dup = cfg.stages[0].clone();
        cfg.stages.push(dup);
        let err = Pipeline::load(cfg, ResourceModel::default()).unwrap_err();
        assert!(err
            .report
            .violations
            .iter()
            .any(|v| matches!(v, ResourceViolation::RegisterMultiStage { .. })));
    }

    #[test]
    fn control_plane_table_ops() {
        let mut layout = PhvLayout::default();
        let k = layout.add("k", ScalarType::U16, FieldClass::Header);
        let cfg = PipelineConfig {
            name: "t".into(),
            parser: ParserSpec {
                common: vec![Extract { field: k }],
                verify: vec![],
                select: None,
                branches: HashMap::new(),
            },
            deparser: DeparserSpec {
                common: vec![k],
                select: None,
                branches: HashMap::new(),
            },
            stages: vec![StageConfig {
                tables: vec![TableDef {
                    name: "lookup".into(),
                    keys: vec![(k, MatchKind::Exact)],
                    actions: vec![ActionDef::default()],
                    entries: vec![],
                    default_action: Some(ActionRef(0)),
                    size: 2,
                }],
            }],
            registers: vec![],
            fwd_code: None,
            fwd_label: None,
            layout,
        };
        let mut p = Pipeline::load(cfg, ResourceModel::default()).unwrap();
        assert_eq!(p.table_len("lookup"), Some(0));
        p.table_insert(
            "lookup",
            Entry {
                patterns: vec![MatchPattern::exact(5)],
                action: ActionRef(0),
                args: vec![],
                priority: 0,
            },
        )
        .unwrap();
        assert_eq!(p.table_len("lookup"), Some(1));
        assert!(matches!(
            p.table_insert(
                "nope",
                Entry {
                    patterns: vec![],
                    action: ActionRef(0),
                    args: vec![],
                    priority: 0
                }
            ),
            Err(TableInsertError::NoSuchTable(_))
        ));
        assert_eq!(p.table_remove("lookup", &[MatchPattern::exact(5)]), 1);
        assert_eq!(p.table_len("lookup"), Some(0));
    }

    #[test]
    fn traced_execution_reports_hits_and_changes() {
        let mut p = Pipeline::load(counter_pipeline(), ResourceModel::default()).unwrap();
        let (out, traces) = p.process_traced(&5u32.to_be_bytes()).unwrap();
        assert_eq!(out.packet, 5u32.to_be_bytes());
        assert_eq!(traces.len(), 1);
        assert_eq!(
            traces[0].hits,
            vec![("bump".to_string(), "bump".to_string())]
        );
        // meta.tmp went 0 → 5; x stayed 5 (0 + 5).
        assert!(traces[0]
            .changed
            .iter()
            .any(|(n, old, new)| n == "meta.tmp" && old.bits() == 0 && new.bits() == 5));
        let rendered = traces[0].to_string();
        assert!(rendered.contains("stage 0") && rendered.contains("bump"));
        // Stats behave identically to the untraced path.
        assert_eq!(p.stats.packets, 1);
        assert_eq!(p.table_hits_for("bump"), 1);
    }

    #[test]
    fn swap_roundtrips_register_state() {
        let mut p = Pipeline::load(counter_pipeline(), ResourceModel::default()).unwrap();
        p.process(&5u32.to_be_bytes()).unwrap();
        let mut saved = p.registers().to_vec();
        assert_eq!(saved[0].get(0), Value::u32(5));
        p.process(&7u32.to_be_bytes()).unwrap();
        assert_eq!(p.register_read("total", 0), Some(Value::u32(12)));
        assert!(p.swap_registers(&mut saved));
        assert_eq!(p.register_read("total", 0), Some(Value::u32(5)));
        assert_eq!(saved[0].get(0), Value::u32(12), "the live file came out");
        // Replay from the checkpoint is bit-identical, and swapping back
        // restores what ran meanwhile.
        p.process(&7u32.to_be_bytes()).unwrap();
        assert_eq!(p.registers(), &saved[..]);
        assert!(p.swap_registers(&mut saved));
        assert_eq!(saved[0].get(0), Value::u32(12));
    }

    #[test]
    fn swap_rejects_a_register_file_of_another_shape() {
        let mut p = Pipeline::load(counter_pipeline(), ResourceModel::default()).unwrap();
        p.process(&5u32.to_be_bytes()).unwrap();
        let own = p.registers().to_vec();
        let extra_array = [own.clone(), vec![RegArray::new(ScalarType::U32, 1, &[])]].concat();
        let wrong_shapes = [
            vec![],
            extra_array,
            vec![RegArray::new(ScalarType::U32, 2, &[])],
            vec![RegArray::new(ScalarType::I32, 1, &[])],
        ];
        for mut foreign in wrong_shapes {
            let before = foreign.clone();
            assert!(!p.swap_registers(&mut foreign), "{before:?}");
            assert_eq!(foreign, before, "a refused file is left alone");
            assert_eq!(p.registers(), &own[..]);
        }
    }

    #[test]
    fn partial_execution_matches_process() {
        // Reference: two straight process() calls.
        let mut reference = Pipeline::load(counter_pipeline(), ResourceModel::default()).unwrap();
        let r1 = reference.process(&5u32.to_be_bytes()).unwrap();
        let r2 = reference.process(&7u32.to_be_bytes()).unwrap();

        // Same packets via begin/advance/finish, suspended mid-way.
        let mut p = Pipeline::load(counter_pipeline(), ResourceModel::default()).unwrap();
        let mut partial = p.begin(&5u32.to_be_bytes()).unwrap();
        assert_eq!(partial.next_stage(), 0);
        p.advance(&mut partial, 1);
        assert_eq!(partial.next_stage(), 1);
        let o1 = p.finish(partial);
        let o2 = p.process(&7u32.to_be_bytes()).unwrap();
        assert_eq!((o1, o2), (r1, r2));
        assert_eq!(p.stats, reference.stats);
        assert_eq!(p.registers(), reference.registers());

        // Parse errors count identically too.
        assert!(p.begin(&[1, 2]).is_none());
        assert_eq!(p.stats.parse_errors, 1);
    }

    #[test]
    fn partial_packet_clone_from_equals_clone() {
        let mut p = Pipeline::load(counter_pipeline(), ResourceModel::default()).unwrap();
        let fresh = p.begin(&5u32.to_be_bytes()).unwrap();
        let mut advanced = p.begin(&7u32.to_be_bytes()).unwrap();
        p.advance(&mut advanced, 1);
        for (from, to) in [(&fresh, &advanced), (&advanced, &fresh)] {
            let mut out = to.clone();
            out.clone_from(from);
            assert_eq!(out, *from);
        }
    }

    #[test]
    fn recirculation_counted() {
        let mut cfg = counter_pipeline();
        // Empty filler stages force a second pass on the tiny chip.
        let model = ResourceModel::tiny();
        while cfg.stages.len() <= model.stages {
            cfg.stages.push(StageConfig::default());
        }
        let mut p = Pipeline::load(cfg, model).unwrap();
        let out = p.process(&1u32.to_be_bytes()).unwrap();
        assert_eq!(out.passes, 2);
        assert_eq!(p.stats.recirculations, 1);
    }
}
