#![warn(missing_docs)]

//! # ncl-p4 — code generation from NCL IR to PISA pipelines and P4
//!
//! The back half of the nclc trajectory (paper Fig. 6): after the IR is
//! optimized and versioned per location, this crate turns each module
//! into something a switch can run:
//!
//! 1. [`lanes`] — **lane splitting**: register arrays accessed at
//!    `dyn*L + k` (the AllReduce `accum[seq*len + i]` pattern, NetCache's
//!    multi-table value reads) split into `L` independent banks so each
//!    bank is touched once per window in one stage — the transformation
//!    that makes in-network aggregation fit real RMT chips.
//! 2. [`flatten`] — **if-conversion**: the acyclic CFG becomes
//!    straight-line predicated code (PISA pipelines have no branches;
//!    control flow becomes per-op guards).
//! 3. [`alloc`] — **stage allocation**: predicated ops are packed into
//!    match-action stages respecting read-after-write dependencies
//!    (writers before readers, stage-wise), the one-stage-per-register-
//!    bank rule, and per-stage op/table budgets; programs longer than the
//!    chip recirculate.
//! 4. [`codegen`] — builds the loadable [`pisa::PipelineConfig`]: PHV
//!    layout (NCP headers + per-kernel window fields + metadata), parser
//!    and deparser branching on `kernel_id`, map tables, and the staged
//!    actions.
//! 5. [`p4emit`] — renders the same artifacts as P4-16 source merged
//!    with a template switch config (Ethernet/IPv4/UDP plumbing), for
//!    inspection and the paper's code-size comparisons.
//!
//! Steps 1–3 run once per module as [`stage::stage_module`]; the early
//! estimator ([`estimate`]) and step 4 read its result.
//!
//! Entry point: [`compile_module`].

pub mod alloc;
pub mod codegen;
pub mod estimate;
pub mod flatten;
pub mod lanes;
pub mod p4emit;
pub mod stage;

pub use stage::{stage_module, StagedModule};

use c3::Label;
use ncl_ir::ir::Module;
use pisa::{PipelineConfig, ResourceModel, ResourceReport};
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
    Resources(ResourceReport),
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
    compile_staged(module, stage_module(module, model, opts), model, opts)
}

/// The rest of [`compile_module`] for a caller that staged `module`
/// itself (to estimate it first): `staged` is [`stage_module`]'s
/// verdict under the same `model` and `opts`. A module that fails
/// conformance reports that, not the staging failure it may have
/// caused.
pub fn compile_staged(
    module: &Module,
    staged: Result<StagedModule, codegen::BuildError>,
    model: &ResourceModel,
    opts: &CompileOptions,
) -> Result<CompiledSwitch, CompileError> {
    let conf = ncl_ir::passes::conformance(module);
    if !conf.is_empty() {
        return Err(CompileError::Conformance(conf));
    }
    // 1-3. Lane splitting, per-kernel flatten + allocate.
    let staged = staged?;
    // 4. One pipeline out of the staged kernels.
    let compiled = codegen::build_pipeline(&staged, opts)?;

    let report = compiled.pipeline.report(model);
    if !report.accepted() {
        return Err(CompileError::Resources(report));
    }
    // 5. P4 emission from the same staged artifacts.
    let p4_source = p4emit::emit(&staged.module, &compiled, &staged.lane_map);
    Ok(CompiledSwitch {
        pipeline: compiled.pipeline,
        p4_source,
        report,
        kernel_ids: compiled.kernel_ids,
        map_tables: compiled.map_tables,
        ctrl_regs: compiled.ctrl_regs,
        lane_banks: staged.lane_map.banks,
        array_lens: staged.lane_map.lens,
    })
}
