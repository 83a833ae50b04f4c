#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! # ncl-p4 — code generation from NCL IR to PISA pipelines and P4
//!
//! The back half of the nclc trajectory (paper Fig. 6): after the IR is
//! optimized and versioned per location, this crate turns each module
//! into something a switch can run:
//!
//! 1. `lanes` — **lane splitting**: register arrays accessed at
//!    `dyn*L + k` (the AllReduce `accum[seq*len + i]` pattern, NetCache's
//!    multi-table value reads) split into `L` independent banks so each
//!    bank is touched once per window in one stage — the transformation
//!    that makes in-network aggregation fit real RMT chips.
//! 2. `flatten` — **if-conversion**: the acyclic CFG becomes
//!    straight-line predicated code (PISA pipelines have no branches;
//!    control flow becomes per-op guards).
//! 3. `alloc` — **stage allocation**: predicated ops are packed into
//!    match-action stages respecting read-after-write dependencies
//!    (writers before readers, stage-wise), the one-stage-per-register-
//!    bank rule, and per-stage op/table budgets; programs longer than the
//!    chip recirculate.
//! 4. [`codegen`] — builds the loadable [`pisa::PipelineConfig`]: PHV
//!    layout (NCP headers + per-kernel window fields + metadata), parser
//!    and deparser branching on `kernel_id`, map tables, and the staged
//!    actions — and records each kernel's share of it as it goes.
//! 5. [`p4emit`] — renders the same artifacts as P4-16 source merged
//!    with a template switch config (Ethernet/IPv4/UDP plumbing), for
//!    inspection and the paper's code-size comparisons.
//!
//! [`ModuleBuild::new`] runs steps 1–4 once per module and measures the
//! pipeline: its [`ResourceReport`] and, per kernel, the
//! [`estimate::ModuleEstimate`] that `nclc`'s lint gate, `--emit cost`
//! and ncsched's admission read. [`ModuleBuild::finish`] then rejects
//! what does not fit (the backend "reject" arrow of Fig. 6) or runs
//! step 5.
//!
//! Entry point: [`compile_module`].

mod alloc;
pub mod codegen;
pub mod estimate;
mod flatten;
mod lanes;
pub mod p4emit;
mod stage;

use c3::Label;
use estimate::ModuleEstimate;
use ncl_ir::ir::Module;
use pisa::{PipelineConfig, ResourceModel, ResourceReport};
use stage::{stage_module, StagedModule};
use std::collections::HashMap;

/// Everything produced for one switch.
#[derive(Clone, Debug)]
pub struct CompiledSwitch {
    /// The loadable pipeline configuration (our `switch.bin`).
    pub pipeline: PipelineConfig,
    /// Emitted P4-16 source (our `switch.p4`).
    pub p4_source: String,
    /// Resource usage against the target model.
    pub report: ResourceReport,
    /// Kernel-name → NCP kernel id, as compiled.
    pub kernel_ids: HashMap<String, u16>,
    /// Map-name → table names (one per lookup site), for the control
    /// plane.
    pub map_tables: HashMap<String, Vec<String>>,
    /// Control-variable name → register-copy names the control plane
    /// writes.
    pub ctrl_regs: HashMap<String, Vec<String>>,
    /// Source array name → physical lane-bank names (single entry when
    /// the array was not lane-split).
    pub lane_banks: HashMap<String, Vec<String>>,
    /// Source array name → element count of the source array, the bound
    /// on a control-plane index before the lane decomposition.
    pub array_lens: HashMap<String, usize>,
}

/// Compile-time failure.
#[derive(Clone, Debug)]
pub enum CompileError {
    /// Conformance violations (loops, misplaced state).
    Conformance(Vec<ncl_ir::passes::ConformanceError>),
    /// The program exceeds the chip's resources even with maximal
    /// recirculation (the backend "reject" arrow of Fig. 6).
    Resources(Box<ResourceReport>),
    /// Stage allocation or translation failed for a kernel.
    Codegen {
        /// The kernel at fault.
        kernel: String,
        /// What went wrong.
        reason: String,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Conformance(errs) => {
                writeln!(f, "conformance check failed:")?;
                for e in errs {
                    writeln!(f, "  - {e}")?;
                }
                Ok(())
            }
            CompileError::Resources(report) => {
                writeln!(f, "program rejected by the resource model:")?;
                for v in &report.violations {
                    writeln!(f, "  - {v}")?;
                }
                Ok(())
            }
            CompileError::Codegen { kernel, reason } => {
                write!(f, "code generation failed for kernel '{kernel}': {reason}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Options for a compilation.
#[derive(Clone, Debug)]
pub struct CompileOptions {
    /// Pre-assigned kernel ids (program-wide, shared with hosts). Any
    /// kernel missing here gets the next free id.
    pub kernel_ids: HashMap<String, u16>,
    /// AND label → numeric id, for `_pass(label)` targets.
    pub label_ids: HashMap<Label, u16>,
    /// Ablation: disable register lane splitting.
    pub disable_lane_split: bool,
    /// Gateway predicate-chain depth per stage (0 disables chaining).
    pub gateway_depth: usize,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            kernel_ids: HashMap::new(),
            label_ids: HashMap::new(),
            disable_lane_split: false,
            gateway_depth: alloc::GATEWAY_DEPTH,
        }
    }
}

impl From<codegen::BuildError> for CompileError {
    fn from(e: codegen::BuildError) -> Self {
        CompileError::Codegen {
            kernel: e.kernel,
            reason: e.reason,
        }
    }
}

/// Compiles an optimized, versioned module for a switch with the given
/// resource model. The module must already have passed
/// [`ncl_ir::passes::conformance`] (this re-checks and errors if not).
pub fn compile_module(
    module: &Module,
    model: &ResourceModel,
    opts: &CompileOptions,
) -> Result<CompiledSwitch, CompileError> {
    ModuleBuild::new(module, model, opts)?.finish()
}

/// A module built for one switch and measured, before its verdict: a
/// caller reads the figures (`nclc` turns the violations into lint
/// findings) and only then asks for the switch program.
#[derive(Debug)]
pub struct ModuleBuild {
    staged: StagedModule,
    built: codegen::BuiltPipeline,
    /// The pipeline's usage against the resource model.
    pub report: ResourceReport,
    /// The same usage with each kernel's share.
    pub estimate: ModuleEstimate,
}

impl ModuleBuild {
    /// Conformance, then lane splitting, per-kernel flatten + allocate,
    /// the pipeline, and its report. A module that fails conformance
    /// reports that, not the staging failure it may cause.
    pub fn new(
        module: &Module,
        model: &ResourceModel,
        opts: &CompileOptions,
    ) -> Result<ModuleBuild, CompileError> {
        let conf = ncl_ir::passes::conformance(module);
        if !conf.is_empty() {
            return Err(CompileError::Conformance(conf));
        }
        let staged = stage_module(module, model, opts)?;
        let (built, kernels) = codegen::build_pipeline(&staged, opts)?;
        let report = built.pipeline.report(model);
        Ok(ModuleBuild {
            estimate: ModuleEstimate::view(kernels, &report),
            staged,
            built,
            report,
        })
    }

    /// The switch program: a pipeline over the resource model is
    /// rejected, one that fits is rendered as P4.
    pub fn finish(self) -> Result<CompiledSwitch, CompileError> {
        if !self.report.accepted() {
            return Err(CompileError::Resources(Box::new(self.report)));
        }
        let (staged, built) = (self.staged, self.built);
        let p4_source = p4emit::emit(&staged.module, &built, &staged.lane_map);
        Ok(CompiledSwitch {
            pipeline: built.pipeline,
            p4_source,
            report: self.report,
            kernel_ids: built.kernel_ids,
            map_tables: built.map_tables,
            ctrl_regs: built.ctrl_regs,
            lane_banks: staged.lane_map.banks,
            array_lens: staged.lane_map.lens,
        })
    }
}
