//! Early per-kernel resource estimation — the lint-time cost model.
//!
//! `nclc --lint` wants to reject infeasible kernels *before* full PISA
//! mapping (paper §6 asks how a programmer learns a kernel won't fit;
//! the answer should not be "after codegen fails"). This module reads
//! the backend's front half — the [`StagedModule`]: lane splitting, if-
//! conversion, stage allocation — and predicts what the full pipeline
//! would consume:
//!
//! * **stages** per kernel (window widths are already constants in the
//!   IR by this point — lowering folds the mask and `optimize` unrolls
//!   loops — so the staged shape is exact);
//! * **SRAM** attributed per kernel, using the same per-register-access
//!   accounting as [`pisa::PipelineConfig::report`];
//! * **PHV** header/metadata bytes, replaying codegen's field layout
//!   (chunk descriptors, payload elements, dispatch bits, liveness-
//!   shared virtual-register containers) without building any tables;
//! * per-array stateful **micro-op counts** against
//!   [`pisa::ResourceModel::reg_accesses_per_pass`].
//!
//! All limit checks produce the *same* [`pisa::ResourceViolation`] type
//! the pipeline loader emits, so the early and the late checks cannot
//! disagree about what a violation is. Agreement with the real mapping
//! is pinned by tests: stage predictions within ±1 (the dispatch
//! stage), SRAM within ±10%, on every example kernel.

use crate::codegen::{assign_fields, BuildError, FieldPool, NCP_FIELDS};
use crate::stage::{stage_module, StagedModule};
use crate::CompileOptions;
use c3::ScalarType;
use ncl_ir::ir::{Inst, Module};
use pisa::{FieldClass, PhvLayout, ResourceModel, ResourceViolation};
use std::collections::BTreeMap;

/// Predicted cost of one kernel.
#[derive(Clone, Debug)]
pub struct KernelEstimate {
    /// Kernel name.
    pub kernel: String,
    /// Match-action stages the kernel's own ops occupy (the pipeline
    /// adds one shared dispatch stage in front).
    pub stages: usize,
    /// Predicated IR micro-ops after if-conversion (a lower bound on
    /// the VLIW ops codegen emits).
    pub alu_ops: usize,
    /// SRAM bytes attributed to this kernel's register accesses
    /// (per-access accounting, matching the pipeline report).
    pub sram_bytes: usize,
    /// Header PHV bytes this kernel adds (chunk descriptors + payload
    /// elements).
    pub phv_header_bytes: usize,
    /// Metadata PHV bytes this kernel adds (dispatch bit + any virtual-
    /// register containers not shared with earlier kernels).
    pub phv_metadata_bytes: usize,
    /// Stateful micro-ops per register array (reads + writes).
    pub reg_accesses: BTreeMap<String, usize>,
    /// Per-kernel limit violations.
    pub violations: Vec<ResourceViolation>,
}

/// Predicted cost of a whole versioned module.
#[derive(Clone, Debug)]
pub struct ModuleEstimate {
    /// Per-kernel estimates, in module order.
    pub kernels: Vec<KernelEstimate>,
    /// Total pipeline stages: one dispatch stage plus the widest
    /// kernel (kernels share stages, merged side by side).
    pub pipeline_stages: usize,
    /// Total header PHV bytes (NCP header + ext struct + all kernels).
    pub phv_header_bytes: usize,
    /// Total metadata PHV bytes (intrinsics + all kernels).
    pub phv_metadata_bytes: usize,
    /// SRAM bytes per physical stage (register accounting only).
    pub sram_by_stage: Vec<usize>,
    /// Module-wide violations (PHV budgets, per-stage SRAM, arrays
    /// shared across kernels exceeding the micro-op budget).
    pub violations: Vec<ResourceViolation>,
}

impl ModuleEstimate {
    /// Whether every kernel and the module as a whole fit the model.
    pub fn accepted(&self) -> bool {
        self.violations.is_empty() && self.kernels.iter().all(|k| k.violations.is_empty())
    }

    /// All violations, each tagged with the kernel at fault (`None` for
    /// module-wide ones).
    pub fn all_violations(&self) -> Vec<(Option<&str>, &ResourceViolation)> {
        let mut out: Vec<(Option<&str>, &ResourceViolation)> =
            self.violations.iter().map(|v| (None, v)).collect();
        for k in &self.kernels {
            out.extend(k.violations.iter().map(|v| (Some(k.kernel.as_str()), v)));
        }
        out
    }

    /// Renders the per-kernel cost report (the `--lint` cost table).
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "pipeline: {} stages, PHV {}B hdr + {}B meta\n",
            self.pipeline_stages, self.phv_header_bytes, self.phv_metadata_bytes
        ));
        for k in &self.kernels {
            s.push_str(&format!(
                "  {}: {} stage{} + dispatch, {} ops, {}B SRAM, PHV +{}B hdr +{}B meta\n",
                k.kernel,
                k.stages,
                if k.stages == 1 { "" } else { "s" },
                k.alu_ops,
                k.sram_bytes,
                k.phv_header_bytes,
                k.phv_metadata_bytes,
            ));
            for (arr, n) in &k.reg_accesses {
                s.push_str(&format!("    {arr}: {n} stateful micro-op(s)\n"));
            }
        }
        for (kernel, v) in self.all_violations() {
            match kernel {
                Some(k) => s.push_str(&format!("  violation [{k}]: {v}\n")),
                None => s.push_str(&format!("  violation: {v}\n")),
            }
        }
        s
    }
}

/// Estimation failure (the module could not be staged).
#[derive(Clone, Debug)]
pub struct EstimateError {
    /// The kernel at fault.
    pub kernel: String,
    /// What went wrong.
    pub reason: String,
}

impl std::fmt::Display for EstimateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot estimate kernel '{}': {}",
            self.kernel, self.reason
        )
    }
}

impl std::error::Error for EstimateError {}

impl From<BuildError> for EstimateError {
    fn from(e: BuildError) -> Self {
        EstimateError {
            kernel: e.kernel,
            reason: e.reason,
        }
    }
}

/// Estimates resource usage of an optimized, versioned module without
/// building the pipeline: stages it under the default options and
/// accounts for the result.
pub fn estimate_module(
    module: &Module,
    model: &ResourceModel,
) -> Result<ModuleEstimate, EstimateError> {
    let staged = stage_module(module, model, &CompileOptions::default())?;
    Ok(estimate_staged(&staged, model))
}

/// Accounts for the resources the pipeline built from `staged` will
/// use. Mirrors `codegen::build_pipeline`'s layout decisions (field
/// order, liveness-shared metadata) over the same staged kernels, so
/// the prediction tracks the real mapping.
pub fn estimate_staged(staged: &StagedModule, model: &ResourceModel) -> ModuleEstimate {
    let split = &staged.module;

    // Replay codegen's PHV layout: NCP header, intrinsics, ext struct.
    let mut layout = PhvLayout::default();
    for (name, ty) in NCP_FIELDS {
        layout.add(*name, *ty, FieldClass::Header);
    }
    layout.add("meta.fwd_code", ScalarType::U8, FieldClass::Metadata);
    layout.add("meta.fwd_label", ScalarType::U16, FieldClass::Metadata);
    for (fname, ty, _) in &split.window_ext.fields {
        layout.add(format!("ext.{fname}"), *ty, FieldClass::Header);
    }
    let mut pool = FieldPool::default();

    let mut kernels = Vec::new();
    let mut max_stages = 0usize;
    let mut sram_by_stage = vec![0usize; model.stages.max(1)];
    // Arrays shared across kernels: micro-ops add up in the one stage
    // the bank fuses into.
    let mut module_accesses: BTreeMap<String, usize> = BTreeMap::new();

    for (kernel, ks) in staged.placed() {
        let kid = ks.kernel;
        let stages = &ks.staged.stages;
        let win_params: Vec<_> = kernel.params.iter().filter(|p| !p.ext).collect();

        let hdr_before = layout.header_bytes();
        let meta_before = layout.metadata_bytes();
        for (pi, _) in win_params.iter().enumerate() {
            layout.add(
                format!("k{kid}.c{pi}_off"),
                ScalarType::U32,
                FieldClass::Header,
            );
            layout.add(
                format!("k{kid}.c{pi}_len"),
                ScalarType::U16,
                FieldClass::Header,
            );
        }
        for (pi, p) in win_params.iter().enumerate() {
            for e in 0..kernel.mask[pi] as usize {
                layout.add(format!("k{kid}.p{pi}_e{e}"), p.elem, FieldClass::Header);
            }
        }
        layout.add(
            format!("meta.disp_k{kid}"),
            ScalarType::Bool,
            FieldClass::Metadata,
        );

        assign_fields(&ks.staged, &ks.reg_tys, &mut layout, &mut pool);

        // Per-access SRAM and micro-op accounting, mirroring
        // `PipelineConfig::report`: every register read/write op at
        // pipeline stage `si + 1` (dispatch shift) charges the full
        // array to that physical stage.
        let mut sram = 0usize;
        let mut accesses: BTreeMap<String, usize> = BTreeMap::new();
        let mut touched: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (si, stage) in stages.iter().enumerate() {
            let phys = (si + 1) % model.stages.max(1);
            for p in stage {
                match &p.inst {
                    Inst::LdReg { arr, .. } | Inst::StReg { arr, .. } => {
                        let decl = &split.registers[arr.0 as usize];
                        let bytes = if split.placed_here(&decl.at) {
                            decl.len() * decl.elem.size()
                        } else {
                            0
                        };
                        sram += bytes;
                        sram_by_stage[phys] += bytes;
                        *accesses.entry(decl.name.clone()).or_default() += 1;
                        touched.entry(decl.name.clone()).or_default().push(si);
                    }
                    Inst::LdCtrl { ctrl, .. } => {
                        // Each read site becomes a fresh single-slot
                        // register copy.
                        let decl = &split.ctrls[ctrl.0 as usize];
                        let bytes = decl.ty.size();
                        sram += bytes;
                        sram_by_stage[phys] += bytes;
                    }
                    _ => {}
                }
            }
        }

        let mut violations = Vec::new();
        if stages.len() + 1 > model.logical_stages() {
            violations.push(ResourceViolation::TooManyStages {
                required: stages.len() + 1,
                available: model.logical_stages(),
            });
        }
        for (arr, stages) in &touched {
            let mut ds = stages.clone();
            ds.dedup();
            if ds.len() > 1 {
                violations.push(ResourceViolation::RegisterMultiStage {
                    array: arr.clone(),
                    stages: ds,
                });
            }
        }
        for (arr, n) in &accesses {
            *module_accesses.entry(arr.clone()).or_default() += n;
            if *n > model.reg_accesses_per_pass {
                violations.push(ResourceViolation::RegisterAccesses {
                    array: arr.clone(),
                    found: *n,
                    budget: model.reg_accesses_per_pass,
                });
            }
        }

        max_stages = max_stages.max(stages.len());
        kernels.push(KernelEstimate {
            kernel: kernel.name.clone(),
            stages: stages.len(),
            alu_ops: ks.staged.op_count(),
            sram_bytes: sram,
            phv_header_bytes: layout.header_bytes() - hdr_before,
            phv_metadata_bytes: layout.metadata_bytes() - meta_before,
            reg_accesses: accesses,
            violations,
        });
    }

    let mut violations = Vec::new();
    let phv_header_bytes = layout.header_bytes();
    let phv_metadata_bytes = layout.metadata_bytes();
    if phv_header_bytes > model.phv_header_bytes {
        violations.push(ResourceViolation::PhvHeader {
            used: phv_header_bytes,
            budget: model.phv_header_bytes,
        });
    }
    if phv_metadata_bytes > model.phv_metadata_bytes {
        violations.push(ResourceViolation::PhvMetadata {
            used: phv_metadata_bytes,
            budget: model.phv_metadata_bytes,
        });
    }
    for (stage, used) in sram_by_stage.iter().enumerate() {
        if *used > model.sram_bytes_per_stage {
            violations.push(ResourceViolation::SramPerStage {
                stage,
                used: *used,
                budget: model.sram_bytes_per_stage,
            });
        }
    }
    // Arrays written from several kernels fuse into one stage; their
    // micro-ops add up even when each kernel alone fits the budget.
    for (arr, n) in &module_accesses {
        if *n > model.reg_accesses_per_pass
            && !kernels.iter().any(|k| {
                k.violations.iter().any(|v| {
                    matches!(v, ResourceViolation::RegisterAccesses { array, .. } if array == arr)
                })
            })
        {
            violations.push(ResourceViolation::RegisterAccesses {
                array: arr.clone(),
                found: *n,
                budget: model.reg_accesses_per_pass,
            });
        }
    }

    ModuleEstimate {
        pipeline_stages: if kernels.is_empty() {
            0
        } else {
            max_stages + 1
        },
        kernels,
        phv_header_bytes,
        phv_metadata_bytes,
        sram_by_stage,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CompileOptions;
    use ncl_ir::lower::{lower, LoweringConfig};

    fn build(src: &str, masks: &[(&str, Vec<u16>)]) -> Module {
        let checked = ncl_lang::frontend(src, "t.ncl").expect("frontend");
        let mut cfg = LoweringConfig::default();
        for (k, m) in masks {
            cfg.masks.insert(k.to_string(), m.clone());
        }
        let mut module = lower(&checked, &cfg).expect("lower");
        ncl_ir::passes::optimize(&mut module);
        module
    }

    const AGG: &str = r#"
_net_ unsigned accum[16] = {0};
_net_ _out_ void agg(unsigned *data) {
    for (unsigned i = 0; i < window.len; ++i) {
        accum[i] += data[i];
        data[i] = accum[i];
    }
    _reflect();
}
"#;

    /// [`AGG`] with a threshold branch, so the gateway depth decides
    /// how many stages the predicate chain takes.
    const AGG_IF: &str = r#"
_net_ unsigned accum[16] = {0};
_net_ unsigned count[4] = {0};
_net_ _out_ void agg(unsigned *data) {
    for (unsigned i = 0; i < window.len; ++i)
        accum[i] += data[i];
    if (++count[window.seq] == 3 && data[0] != 0) {
        for (unsigned i = 0; i < window.len; ++i)
            data[i] = accum[i];
        _reflect();
    } else { _drop(); }
}
"#;

    #[test]
    fn estimate_matches_actual_mapping() {
        let module = build(AGG_IF, &[("agg", vec![4])]);
        let model = ResourceModel::default();
        // The second set is E6c's ablation: the estimate is of the
        // kernel that is built, whatever the options stage it as.
        let no_gateway = CompileOptions {
            gateway_depth: 0,
            ..CompileOptions::default()
        };
        let mut depths = Vec::new();
        for opts in [CompileOptions::default(), no_gateway] {
            let staged = stage_module(&module, &model, &opts).expect("stages");
            let est = estimate_staged(&staged, &model);
            let compiled =
                crate::compile_staged(&module, Ok(staged), &model, &opts).expect("compile");

            // Stages: the estimator reads each kernel's staged depth off
            // the kernel the backend builds, and the pipeline adds
            // exactly one dispatch stage.
            let k = &est.kernels[0];
            assert_eq!(k.kernel, "agg");
            assert_eq!(est.pipeline_stages, compiled.report.stages_used);

            // PHV: layout replay is byte-exact.
            assert_eq!(est.phv_header_bytes, compiled.report.phv_header_bytes);
            assert_eq!(est.phv_metadata_bytes, compiled.report.phv_metadata_bytes);

            assert!(est.accepted());
            assert!(k.sram_bytes > 0);
            let txt = est.render();
            assert!(txt.contains("agg"), "{txt}");
            depths.push(est.pipeline_stages);
        }
        assert!(depths[0] < depths[1], "gateway chaining saves stages");
        // The wrapper stages under the default options.
        let est = estimate_module(&module, &model).expect("estimate");
        assert_eq!(est.pipeline_stages, depths[0]);
    }

    #[test]
    fn overrun_reuses_pipeline_violation_type() {
        // A 4-element aggregation cannot fit the tiny chip's budgets.
        let module = build(AGG, &[("agg", vec![8])]);
        let est = estimate_module(&module, &ResourceModel::tiny()).expect("estimate");
        assert!(!est.accepted());
        // Same violation enum the loader produces.
        let vs = est.all_violations();
        assert!(!vs.is_empty());
    }

    /// Three kernels, disjoint state, one pipeline.
    const MULTI: &str = r#"
_net_ unsigned acc_a[16] = {0};
_net_ unsigned acc_b[8] = {0};
_net_ unsigned hits[4] = {0};

_net_ _out_ void ka(unsigned *data) {
    for (unsigned i = 0; i < window.len; ++i) {
        acc_a[i] += data[i];
        data[i] = acc_a[i];
    }
    _reflect();
}

_net_ _out_ void kb(unsigned *data) {
    for (unsigned i = 0; i < window.len; ++i)
        acc_b[i] += data[i];
    _drop();
}

_net_ _out_ void kc(unsigned *data) {
    hits[0] += data[0];
    _pass();
}
"#;
    const MULTI_MASKS: &[(&str, &[u16])] = &[("ka", &[4]), ("kb", &[4]), ("kc", &[1])];

    fn multi_masks() -> Vec<(&'static str, Vec<u16>)> {
        MULTI_MASKS.iter().map(|(k, m)| (*k, m.to_vec())).collect()
    }

    /// Module totals are exactly the sum of the per-kernel estimates:
    /// PHV totals decompose into the fixed NCP base plus each kernel's
    /// contribution, the per-stage SRAM vector sums to the per-kernel
    /// attributions, and the pipeline depth is one dispatch stage plus
    /// the widest kernel (kernels merge side by side, they do not
    /// stack).
    #[test]
    fn multi_kernel_totals_equal_sum_of_per_kernel_estimates() {
        let module = build(MULTI, &multi_masks());
        let model = ResourceModel::default();
        let est = estimate_module(&module, &model).expect("estimate");
        assert_eq!(est.kernels.len(), 3);

        let ncp_base: usize = NCP_FIELDS.iter().map(|(_, ty)| ty.size()).sum();
        let hdr_sum: usize = est.kernels.iter().map(|k| k.phv_header_bytes).sum();
        assert_eq!(est.phv_header_bytes, ncp_base + hdr_sum);

        // Metadata base: fwd_code (1B) + fwd_label (2B) intrinsics.
        let meta_sum: usize = est.kernels.iter().map(|k| k.phv_metadata_bytes).sum();
        assert_eq!(est.phv_metadata_bytes, 3 + meta_sum);

        // No ctrl variables in MULTI, so every SRAM byte in the
        // per-stage vector is attributed to exactly one kernel.
        let sram_total: usize = est.sram_by_stage.iter().sum();
        let sram_sum: usize = est.kernels.iter().map(|k| k.sram_bytes).sum();
        assert_eq!(sram_total, sram_sum);

        let widest = est.kernels.iter().map(|k| k.stages).max().unwrap();
        assert_eq!(est.pipeline_stages, widest + 1);
        assert!(est.accepted());
    }

    /// Sharing one pipeline does not distort the estimates: each
    /// kernel estimated alone (its own module) agrees with its slice of
    /// the combined estimate within the documented envelope — stages
    /// within ±1 and SRAM within ±10% — and the combined module still
    /// matches the real mapping the way single-kernel modules do.
    #[test]
    fn multi_kernel_estimates_stay_within_envelope() {
        let model = ResourceModel::default();
        let combined =
            estimate_module(&build(MULTI, &multi_masks()), &model).expect("combined estimate");
        let compiled = crate::compile_module(
            &build(MULTI, &multi_masks()),
            &model,
            &CompileOptions::default(),
        )
        .expect("combined compile");

        // Combined estimate vs the real combined mapping.
        assert!(
            combined
                .pipeline_stages
                .abs_diff(compiled.report.stages_used)
                <= 1,
            "stages: estimated {} vs mapped {}",
            combined.pipeline_stages,
            compiled.report.stages_used
        );
        assert_eq!(combined.phv_header_bytes, compiled.report.phv_header_bytes);
        assert_eq!(
            combined.phv_metadata_bytes,
            compiled.report.phv_metadata_bytes
        );

        // Each kernel alone vs its slice of the combined estimate.
        let solo_srcs: &[(&str, &str)] = &[
            (
                "ka",
                r#"
_net_ unsigned acc_a[16] = {0};
_net_ _out_ void ka(unsigned *data) {
    for (unsigned i = 0; i < window.len; ++i) {
        acc_a[i] += data[i];
        data[i] = acc_a[i];
    }
    _reflect();
}
"#,
            ),
            (
                "kb",
                r#"
_net_ unsigned acc_b[8] = {0};
_net_ _out_ void kb(unsigned *data) {
    for (unsigned i = 0; i < window.len; ++i)
        acc_b[i] += data[i];
    _drop();
}
"#,
            ),
            (
                "kc",
                r#"
_net_ unsigned hits[4] = {0};
_net_ _out_ void kc(unsigned *data) {
    hits[0] += data[0];
    _pass();
}
"#,
            ),
        ];
        for (name, src) in solo_srcs {
            let mask = MULTI_MASKS
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, m)| m.to_vec())
                .unwrap();
            let solo = estimate_module(&build(src, &[(name, mask)]), &model).expect("solo");
            let solo_k = &solo.kernels[0];
            let comb_k = combined
                .kernels
                .iter()
                .find(|k| k.kernel == *name)
                .expect("kernel in combined estimate");
            assert!(
                solo_k.stages.abs_diff(comb_k.stages) <= 1,
                "{name}: solo {} stages vs combined {}",
                solo_k.stages,
                comb_k.stages
            );
            let (lo, hi) = (
                comb_k.sram_bytes as f64 * 0.9,
                comb_k.sram_bytes as f64 * 1.1,
            );
            assert!(
                (solo_k.sram_bytes as f64) >= lo && (solo_k.sram_bytes as f64) <= hi,
                "{name}: solo SRAM {} vs combined {}",
                solo_k.sram_bytes,
                comb_k.sram_bytes
            );
            assert_eq!(solo_k.alu_ops, comb_k.alu_ops, "{name}: op count drifts");
        }
    }

    #[test]
    fn skips_incoming_and_foreign_kernels() {
        let src = r#"
_net_ _at_("s1") unsigned seen[4] = {0};
_net_ _out_ _at_("s1") void touch(unsigned *data) {
    seen[0] += data[0];
    _pass();
}
"#;
        let mut module = build(src, &[("touch", vec![1])]);
        // Version for a different switch: kernel no longer placed here.
        let versioned = ncl_ir::version_modules(
            &module,
            &[ncl_ir::version::LocationInfo {
                label: c3::Label::new("s2"),
                id: 7,
            }],
        );
        let est = estimate_module(&versioned[0], &ResourceModel::default()).expect("estimate");
        assert!(est.kernels.is_empty());
        assert_eq!(est.pipeline_stages, 0);
        // The generic module (no location) estimates the kernel.
        module.location = None;
        let est = estimate_module(&module, &ResourceModel::default()).expect("estimate");
        assert_eq!(est.kernels.len(), 1);
    }
}
