//! The staged module: the backend's front half, run once.
//!
//! Lane splitting, if-conversion and stage allocation decide everything
//! codegen translates. [`stage_module`] runs them once per module, under
//! the budget and options of the compilation at hand; codegen and P4
//! emission both read the resulting [`StagedModule`].

use crate::alloc::{allocate, AllocBudget, StagedKernel};
use crate::codegen::BuildError;
use crate::flatten::flatten;
use crate::lanes::{split_lanes, LaneMap};
use crate::CompileOptions;
use c3::ScalarType;
use ncl_ir::ir::{KernelIr, Module};
use ncl_lang::ast::KernelKind;
use pisa::ResourceModel;

/// One outgoing kernel placed at the module's switch, staged.
#[derive(Clone, Debug)]
pub struct KernelStaging {
    /// Index of the kernel in [`StagedModule::module`]'s kernel list.
    pub kernel: usize,
    /// Types of the kernel's virtual registers, the predicate registers
    /// if-conversion added included.
    pub reg_tys: Vec<ScalarType>,
    /// The predicated ops, by stage.
    pub staged: StagedKernel,
}

/// A module lane-split and staged for one switch.
#[derive(Clone, Debug)]
pub struct StagedModule {
    /// The module after lane splitting.
    pub module: Module,
    /// How each register array was realized.
    pub lane_map: LaneMap,
    /// The kernels compiled for this switch, in module order.
    pub kernels: Vec<KernelStaging>,
}

impl StagedModule {
    /// The staged kernels with their IR.
    pub fn placed(&self) -> impl Iterator<Item = (&KernelIr, &KernelStaging)> {
        self.kernels
            .iter()
            .map(|ks| (&self.module.kernels[ks.kernel], ks))
    }
}

/// Lane-splits `module` (module-wide, so kernels agree on banks), then
/// flattens and stage-allocates every outgoing kernel placed here.
pub fn stage_module(
    module: &Module,
    model: &ResourceModel,
    opts: &CompileOptions,
) -> Result<StagedModule, BuildError> {
    let mut split = module.clone();
    let lane_map = if opts.disable_lane_split {
        LaneMap::identity(&split)
    } else {
        split_lanes(&mut split)
    };
    let budget = AllocBudget {
        gateway_depth: opts.gateway_depth,
        ..AllocBudget::from_model(model)
    };
    let mut kernels = Vec::new();
    for (index, kernel) in split.kernels.iter().enumerate() {
        if kernel.kind != KernelKind::Outgoing || !split.placed_here(&kernel.at) {
            continue;
        }
        let err = |reason: String| BuildError {
            kernel: kernel.name.clone(),
            reason,
        };
        let params = kernel.params.iter().filter(|p| !p.ext).count();
        if kernel.mask.len() != params {
            return Err(err(format!(
                "window mask arity {} does not match {params} window parameters \
                 (switch compilation requires a mask)",
                kernel.mask.len(),
            )));
        }
        let lin = flatten(kernel, None).map_err(|e| err(e.to_string()))?;
        let staged =
            allocate(&lin, &budget).map_err(|_| err("stage allocation diverged".into()))?;
        kernels.push(KernelStaging {
            kernel: index,
            reg_tys: lin.reg_tys,
            staged,
        });
    }
    Ok(StagedModule {
        module: split,
        lane_map,
        kernels,
    })
}
