//! Model-checking driver over compiled programs — the bridge between
//! `nclint`'s static verdicts and the `ncmc` bounded model checker.
//!
//! The lint pass says "this kernel *could* misbehave under duplication
//! / interleaving / splits"; this module builds a concrete scenario for
//! each such verdict out of the compiled artifacts — real encoded
//! windows against the real lowered pipeline (replay-filter stages and
//! all) — and asks the checker to adjudicate: either a machine-found,
//! shrunk counterexample schedule, or a bounded-absence certificate.
//! A whole-program *convergence* obligation rides along: under the full
//! fault domain, every complete execution must land in a loss-free
//! serial state. [`crate::deploy::deploy_opts`] can gate deployment on
//! it.
//!
//! Scenario recipes (DESIGN.md §4.13): every window gets its own
//! sending host (ids 1, 2, …) at sequence 0, so NCP-R tracking never
//! aliases and the replay filter judges genuine retransmissions only.
//!
//! * replay hazards — one window of the flagged kernel; domain
//!   quantifies duplication (RTO retransmit) and response loss.
//! * non-atomic RMW — two windows of the flagged kernel; domain
//!   quantifies mid-pipeline splits.
//! * cross-kernel alias — one window of the flagged kernel plus one of
//!   every other kernel that writes the shared array; domain
//!   quantifies delivery order.
//! * unguarded overflow — two windows with near-wrapping payloads
//!   (`0b11` in the top bits); the flagged array's lane banks are
//!   watched for a strict decrease.

use crate::nclc::CompiledProgram;
use c3::{Chunk, HostId, KernelId, NodeId, ScalarType, Value, Window};
use ncl_ir::ir::Module;
use ncl_ir::lint::{access_summary, LintCode, LintDiagnostic, UpdateKind};
use ncl_p4::CompiledSwitch;
use ncmc::{run_check, Bounds, Check, CheckResult, Reduction, System, WindowDef};
pub use ncmc::{Outcome, Schedule};
use pisa::{Pipeline, ResourceModel};
use std::collections::BTreeSet;

/// Model-checking configuration.
#[derive(Clone, Debug)]
pub struct McConfig {
    /// Schedule-space bounds (retries, splits, drops, state cap).
    pub bounds: Bounds,
    /// Exploration reduction. [`Reduction::Dpor`] is the default;
    /// `Naive` exists for ground-truth comparison (E15).
    pub reduction: Reduction,
    /// Value written to every control register copy before exploration
    /// (e.g. `nworkers`). Scenarios inject two concurrent windows, so
    /// the default is 2 — aggregation kernels complete with both.
    pub ctrl_value: u64,
    /// Optional DFS child-order shuffle seed (determinism testing; the
    /// shrunk witness must not depend on it).
    pub order_seed: Option<u64>,
    /// Resource model for loading the compiled pipeline.
    pub model: ResourceModel,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            bounds: Bounds::default(),
            reduction: Reduction::Dpor,
            ctrl_value: 2,
            order_seed: None,
            model: ResourceModel::default(),
        }
    }
}

/// One adjudicated obligation.
#[derive(Clone, Debug)]
pub struct McItem {
    /// The lint code judged, or `None` for whole-program convergence.
    pub code: Option<LintCode>,
    /// Kernel (or `+`-joined kernel set) the scenario exercised.
    pub kernel: String,
    /// Property name (`serializable`, `order-invariant`,
    /// `no-regression`, `convergence`).
    pub property: &'static str,
    /// Scenario windows injected.
    pub windows: usize,
    /// The checker's verdict and counters.
    pub result: CheckResult,
}

impl McItem {
    /// One-line human summary.
    pub fn summary(&self) -> String {
        let code = self
            .code
            .map(|c| c.name().to_string())
            .unwrap_or_else(|| "convergence".to_string());
        format!(
            "{} on {} ({}, {} windows): {}",
            code,
            self.kernel,
            self.property,
            self.windows,
            self.result.outcome.summary()
        )
    }
}

/// All obligations for one switch location.
#[derive(Clone, Debug)]
pub struct McReport {
    /// The switch label.
    pub location: String,
    /// Per-verdict items; the convergence item is last.
    pub items: Vec<McItem>,
}

impl McReport {
    /// Items whose outcome is a counterexample.
    pub fn witnesses(&self) -> impl Iterator<Item = &McItem> {
        self.items.iter().filter(|i| i.result.outcome.is_witness())
    }

    /// Items certified absent within bounds.
    pub fn certificates(&self) -> impl Iterator<Item = &McItem> {
        self.items
            .iter()
            .filter(|i| i.result.outcome.is_certificate())
    }

    /// The whole-program convergence item, if the report includes one.
    pub fn convergence(&self) -> Option<&McItem> {
        self.items.iter().find(|i| i.code.is_none())
    }

    /// Whether every obligation resolved to a witness or a certificate
    /// (no state-cap truncation).
    pub fn conclusive(&self) -> bool {
        self.items
            .iter()
            .all(|i| i.result.outcome.is_witness() || i.result.outcome.is_certificate())
    }
}

/// Model-checking setup failure.
#[derive(Clone, Debug)]
pub enum McError {
    /// The label names no compiled switch.
    UnknownLocation(String),
    /// The compiled pipeline failed to load under the given model.
    Load {
        /// The switch label.
        location: String,
        /// Loader report.
        error: String,
    },
    /// A scenario kernel is missing from the module or the checked
    /// program (stale diagnostic).
    UnknownKernel {
        /// The switch label.
        location: String,
        /// The missing kernel.
        kernel: String,
    },
}

impl std::fmt::Display for McError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            McError::UnknownLocation(l) => write!(f, "no compiled switch at `{l}`"),
            McError::Load { location, error } => {
                write!(f, "pipeline for `{location}` failed to load: {error}")
            }
            McError::UnknownKernel { location, kernel } => {
                write!(f, "kernel `{kernel}` not found in module at `{location}`")
            }
        }
    }
}

impl std::error::Error for McError {}

/// Payload pattern for scenario windows.
#[derive(Clone, Copy)]
enum Fill {
    /// Small distinct values (base per window, offset per lane) so
    /// serial references are distinguishable.
    Distinct(u64),
    /// `0b11` in the element's top bits — two deliveries wrap a
    /// monotone accumulator.
    Wrap,
}

/// Builds scenario windows against one compiled location.
struct Scenario<'a> {
    program: &'a CompiledProgram,
    compiled: &'a CompiledSwitch,
    module: &'a Module,
    location: &'a str,
    windows: Vec<WindowDef>,
}

impl<'a> Scenario<'a> {
    fn new(program: &'a CompiledProgram, location: &'a str) -> Result<Scenario<'a>, McError> {
        let compiled = program
            .switch(location)
            .ok_or_else(|| McError::UnknownLocation(location.to_string()))?;
        let module = program
            .module(location)
            .ok_or_else(|| McError::UnknownLocation(location.to_string()))?;
        Ok(Scenario {
            program,
            compiled,
            module,
            location,
            windows: Vec::new(),
        })
    }

    /// Certificate/report program label.
    fn program_name(&self) -> String {
        format!("{}@{}", self.module.name, self.location)
    }

    /// Appends one window of `kernel` from a fresh sending host.
    fn push(&mut self, kernel: &str, fill: Fill) -> Result<(), McError> {
        let missing = || McError::UnknownKernel {
            location: self.location.to_string(),
            kernel: kernel.to_string(),
        };
        let kir = self.module.kernel(kernel).ok_or_else(missing)?;
        let info = self.program.checked.kernel(kernel).ok_or_else(missing)?;
        let id = *self
            .compiled
            .kernel_ids
            .get(kernel)
            .or_else(|| self.program.kernel_ids.get(kernel))
            .ok_or_else(missing)?;
        let sender = self.windows.len() as u16 + 1;
        let mut chunks = Vec::new();
        for (i, p) in info.window_params().enumerate() {
            let lanes = kir.mask.get(i).copied().unwrap_or(1).max(1) as usize;
            let size = p.elem.size();
            let mut data = Vec::with_capacity(lanes * size);
            for lane in 0..lanes {
                let v = payload(fill, p.elem, sender, i, lane);
                data.extend_from_slice(&v.to_be_bytes()[8 - size..]);
            }
            chunks.push(Chunk { offset: 0, data });
        }
        let w = Window {
            kernel: KernelId(id),
            seq: 0,
            sender: HostId(sender),
            from: NodeId::Host(HostId(sender)),
            last: false,
            chunks,
            ext: vec![0; self.program.checked.window_ext.size()],
        };
        let packet =
            ncl_p4::codegen::encode_window_for_test(&w, self.program.checked.window_ext.size());
        self.windows.push(WindowDef {
            name: format!("{kernel}#{sender}"),
            kernel: id,
            sender,
            seq: 0,
            packet,
        });
        Ok(())
    }

    /// Loads the pipeline, seeds control registers, and composes the
    /// model-checked system.
    fn system(&self, cfg: &McConfig) -> Result<System, McError> {
        let mut pipe = Pipeline::load(self.compiled.pipeline.clone(), cfg.model).map_err(|e| {
            McError::Load {
                location: self.location.to_string(),
                error: e.to_string(),
            }
        })?;
        // Control registers (e.g. `nworkers`) before `System::new`: the
        // initial snapshot must already carry them, or every restore
        // would erase the seeding.
        for copies in self.compiled.ctrl_regs.values() {
            for copy in copies {
                let mut idx = 0;
                while pipe.register_write(copy, idx, Value::new(ScalarType::U32, cfg.ctrl_value)) {
                    idx += 1;
                }
            }
        }
        Ok(System::new(pipe, self.windows.clone(), cfg.bounds))
    }
}

/// One scenario payload element.
fn payload(fill: Fill, ty: ScalarType, sender: u16, param: usize, lane: usize) -> u64 {
    if ty == ScalarType::Bool {
        // Flags (e.g. a KVS `update` selector) are held truthy so the
        // scenario exercises the store path the lint flagged.
        return 1;
    }
    match fill {
        Fill::Distinct(base) => base + sender as u64 * 16 + param as u64 * 4 + lane as u64,
        Fill::Wrap => 0b11u64 << (ty.bits() - 2),
    }
}

/// Adjudicates one lint verdict by code. `Ok(None)` when the code is
/// not schedule-checkable (`resource-overrun`).
///
/// This is the diagnostic-free entry point: tests hand it a
/// `(code, kernel, state)` triple directly, without materializing a
/// [`LintDiagnostic`] — the scenario depends on nothing else.
pub fn check_code(
    program: &CompiledProgram,
    location: &str,
    code: LintCode,
    kernel: &str,
    state: Option<&str>,
    cfg: &McConfig,
) -> Result<Option<McItem>, McError> {
    let Some((mut sys, check)) = scenario_for(program, location, code, kernel, state, cfg)? else {
        return Ok(None);
    };
    let windows = sys.windows().len();
    let sc = Scenario::new(program, location)?;
    let result = run_check(
        &mut sys,
        &sc.program_name(),
        &check,
        cfg.reduction,
        cfg.order_seed,
    );
    Ok(Some(McItem {
        code: Some(code),
        kernel: kernel.to_string(),
        property: check.property_name(),
        windows,
        result,
    }))
}

/// Builds the scenario system and check for a `(code, kernel, array)`
/// verdict without exploring — corpus-replay tests re-run committed
/// schedules against it via [`ncmc::replay_violates`], which answers a
/// schedule that does not fit the scenario with an
/// [`ncmc::ReplayError`]. `Ok(None)` when the code is not
/// schedule-checkable.
pub fn scenario_for(
    program: &CompiledProgram,
    location: &str,
    code: LintCode,
    kernel: &str,
    state: Option<&str>,
    cfg: &McConfig,
) -> Result<Option<(System, Check)>, McError> {
    if ncmc::plan_for(code).is_none() {
        return Ok(None);
    }
    let mut sc = Scenario::new(program, location)?;
    let mut watch = Vec::new();
    match code {
        LintCode::ReplayUnsafe | LintCode::ReplayUnsafeNoFilter => {
            sc.push(kernel, Fill::Distinct(16))?;
        }
        LintCode::NonAtomicRmw => {
            sc.push(kernel, Fill::Distinct(16))?;
            sc.push(kernel, Fill::Distinct(64))?;
        }
        LintCode::CrossKernelAlias => {
            sc.push(kernel, Fill::Distinct(16))?;
            for partner in alias_partners(sc.module, program, kernel, state) {
                sc.push(&partner, Fill::Distinct(64))?;
            }
            if sc.windows.len() == 1 {
                // No writing partner resolvable (hand-altered program):
                // interleave the kernel with itself.
                sc.push(kernel, Fill::Distinct(64))?;
            }
        }
        LintCode::UnguardedOverflow => {
            sc.push(kernel, Fill::Wrap)?;
            sc.push(kernel, Fill::Wrap)?;
            if let Some(array) = state {
                // Watch the physical lane banks the array lowered to
                // (falling back to the logical name for unsplit arrays).
                watch = sc
                    .compiled
                    .lane_banks
                    .get(array)
                    .cloned()
                    .unwrap_or_else(|| vec![array.to_string()]);
            }
        }
        LintCode::ResourceOverrun => unreachable!("filtered by plan_for"),
    }
    let check = Check::for_lint(code, kernel, watch).expect("schedule-checkable code");
    let sys = sc.system(cfg)?;
    Ok(Some((sys, check)))
}

/// Adjudicates one lint diagnostic (`Ok(None)` when not
/// schedule-checkable).
fn check_diag(
    program: &CompiledProgram,
    location: &str,
    diag: &LintDiagnostic,
    cfg: &McConfig,
) -> Result<Option<McItem>, McError> {
    check_code(
        program,
        location,
        diag.code,
        &diag.kernel,
        diag.state.as_deref(),
        cfg,
    )
}

/// The whole-program convergence obligation for a location: two
/// concurrent windows of every kernel, full fault domain.
fn convergence_check(
    program: &CompiledProgram,
    location: &str,
    cfg: &McConfig,
) -> Result<McItem, McError> {
    let mut sc = Scenario::new(program, location)?;
    let kernels: Vec<String> = sc.module.kernels.iter().map(|k| k.name.clone()).collect();
    for (i, k) in kernels.iter().enumerate() {
        sc.push(k, Fill::Distinct(16 + i as u64 * 128))?;
        sc.push(k, Fill::Distinct(64 + i as u64 * 128))?;
    }
    let check = Check::convergence(&kernels.join("+"));
    let mut sys = sc.system(cfg)?;
    let result = run_check(
        &mut sys,
        &sc.program_name(),
        &check,
        cfg.reduction,
        cfg.order_seed,
    );
    Ok(McItem {
        code: None,
        kernel: check.kernel.clone(),
        property: check.property_name(),
        windows: sc.windows.len(),
        result,
    })
}

/// Every obligation for one switch location: each surviving
/// schedule-checkable lint warning (deduplicated by code × kernel ×
/// array), then convergence.
pub fn model_check_switch(
    program: &CompiledProgram,
    location: &str,
    cfg: &McConfig,
) -> Result<McReport, McError> {
    let mut items = Vec::new();
    let mut seen = BTreeSet::new();
    for (label, diags) in &program.lints {
        if label.as_str() != location {
            continue;
        }
        for d in diags {
            if !d.schedule_checkable() {
                continue;
            }
            if !seen.insert((d.code, d.kernel.clone(), d.state.clone())) {
                continue;
            }
            if let Some(item) = check_diag(program, location, d, cfg)? {
                items.push(item);
            }
        }
    }
    items.push(convergence_check(program, location, cfg)?);
    Ok(McReport {
        location: location.to_string(),
        items,
    })
}

/// The other kernels writing the diagnosed array at this location —
/// the interleaving partners a cross-kernel-alias scenario needs.
fn alias_partners(
    module: &Module,
    program: &CompiledProgram,
    kernel: &str,
    state: Option<&str>,
) -> Vec<String> {
    let Some(array) = state else {
        return Vec::new();
    };
    let mut partners: Vec<String> = access_summary(module, &program.lint_config)
        .into_iter()
        .filter(|a| a.array == array && a.kernel != kernel && a.kind > UpdateKind::ReadOnly)
        .map(|a| a.kernel)
        .collect();
    partners.sort();
    partners.dedup();
    partners
}
