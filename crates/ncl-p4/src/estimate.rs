//! Per-kernel resource figures of the pipeline that was built.
//!
//! `nclc --emit cost`, the `resource-overrun` lint and ncsched's
//! admission read a [`ModuleEstimate`]: the [`pisa::ResourceReport`] of
//! the pipeline codegen built for one switch, plus each kernel's share
//! of it, recorded while codegen emitted the kernel. Nothing is
//! predicted. Paper §6 asks how a programmer learns that a kernel won't
//! fit; the answer is the backend's own verdict, read before the lint
//! gate decides. The violations are the report's, so the cost table,
//! the lint and the pipeline loader cannot disagree.

use crate::{CompileError, CompileOptions, ModuleBuild};
use ncl_ir::ir::Module;
use pisa::{ResourceModel, ResourceReport, ResourceViolation};
use std::collections::BTreeMap;

/// One kernel's share of the built pipeline.
#[derive(Clone, Debug)]
pub struct KernelEstimate {
    /// Kernel name.
    pub kernel: String,
    /// Match-action stages the kernel's own ops occupy (the pipeline
    /// adds one shared dispatch stage in front).
    pub stages: usize,
    /// VLIW ops in the kernel's tables.
    pub alu_ops: usize,
    /// SRAM bytes the kernel's register accesses charge: each access
    /// charges its whole array, as the pipeline report counts.
    pub sram_bytes: usize,
    /// Header PHV bytes this kernel adds (chunk descriptors + payload
    /// elements).
    pub phv_header_bytes: usize,
    /// Metadata PHV bytes this kernel adds (dispatch bit + any virtual-
    /// register containers not shared with earlier kernels).
    pub phv_metadata_bytes: usize,
    /// Stateful micro-ops per register array (reads + writes).
    pub reg_accesses: BTreeMap<String, usize>,
}

/// The resource figures of a whole versioned module.
#[derive(Clone, Debug)]
pub struct ModuleEstimate {
    /// Per-kernel shares, in module order.
    pub kernels: Vec<KernelEstimate>,
    /// Pipeline stages: one dispatch stage plus the widest kernel
    /// (kernels share stages, merged side by side); 0 when no kernel is
    /// placed here, as there is nothing to reserve.
    pub pipeline_stages: usize,
    /// Total header PHV bytes (NCP header + ext struct + all kernels).
    pub phv_header_bytes: usize,
    /// Total metadata PHV bytes (intrinsics + all kernels).
    pub phv_metadata_bytes: usize,
    /// SRAM bytes per physical stage.
    pub sram_by_stage: Vec<usize>,
    /// The pipeline report's violations.
    pub violations: Vec<ResourceViolation>,
}

impl ModuleEstimate {
    /// The per-kernel view of a built pipeline's `report`.
    pub(crate) fn view(kernels: Vec<KernelEstimate>, report: &ResourceReport) -> Self {
        ModuleEstimate {
            pipeline_stages: if kernels.is_empty() {
                0
            } else {
                report.stages_used
            },
            kernels,
            phv_header_bytes: report.phv_header_bytes,
            phv_metadata_bytes: report.phv_metadata_bytes,
            sram_by_stage: report.sram_by_stage.clone(),
            violations: report.violations.clone(),
        }
    }

    /// Whether the module fits the model.
    pub fn accepted(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the per-kernel cost report (the `--emit cost` table).
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
        for v in &self.violations {
            s.push_str(&format!("  violation: {v}\n"));
        }
        s
    }
}

/// Builds an optimized, versioned module under the default options and
/// returns the figures of the pipeline it built. A module that does not
/// fit still has figures; their violations say why.
pub fn estimate_module(
    module: &Module,
    model: &ResourceModel,
) -> Result<ModuleEstimate, CompileError> {
    ModuleBuild::new(module, model, &CompileOptions::default()).map(|b| b.estimate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::NCP_FIELDS;
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
        // The second set is E6c's ablation: the figures are of the
        // kernel that is built, whatever the options stage it as.
        let no_gateway = CompileOptions {
            gateway_depth: 0,
            ..CompileOptions::default()
        };
        let mut depths = Vec::new();
        for opts in [CompileOptions::default(), no_gateway] {
            let est = ModuleBuild::new(&module, &model, &opts)
                .expect("builds")
                .estimate;
            let report = crate::compile_module(&module, &model, &opts)
                .expect("compile")
                .report;

            // The module figures are the mapped pipeline's…
            assert_eq!(est.pipeline_stages, report.stages_used);
            assert_eq!(est.phv_header_bytes, report.phv_header_bytes);
            assert_eq!(est.phv_metadata_bytes, report.phv_metadata_bytes);
            assert_eq!(est.sram_by_stage, report.sram_by_stage);

            // …and the one kernel owns all of them but the dispatch
            // stage, which holds one op per kernel.
            let k = &est.kernels[0];
            assert_eq!(k.kernel, "agg");
            assert_eq!(k.stages + 1, report.stages_used);
            assert_eq!(k.sram_bytes, report.sram_by_stage.iter().sum::<usize>());
            let ops: usize = report.ops_by_stage.iter().sum();
            assert_eq!(k.alu_ops + report.ops_by_stage[0], ops);

            assert!(est.accepted());
            assert!(k.sram_bytes > 0);
            let txt = est.render();
            assert!(txt.contains("agg"), "{txt}");
            depths.push(est.pipeline_stages);
        }
        assert!(depths[0] < depths[1], "gateway chaining saves stages");
        // The wrapper builds under the default options.
        let est = estimate_module(&module, &model).expect("estimate");
        assert_eq!(est.pipeline_stages, depths[0]);
    }

    #[test]
    fn overrun_reuses_pipeline_violation_type() {
        // A 4-element aggregation cannot fit the tiny chip's budgets.
        let module = build(AGG, &[("agg", vec![8])]);
        let model = ResourceModel::tiny();
        let est = estimate_module(&module, &model).expect("estimate");
        assert!(!est.accepted());
        // The very violations the backend rejects the module with.
        match crate::compile_module(&module, &model, &CompileOptions::default()) {
            Err(CompileError::Resources(report)) => assert_eq!(report.violations, est.violations),
            other => panic!("expected a resource rejection, got {other:?}"),
        }
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

    /// Module totals are exactly the sum of the per-kernel shares:
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

        // Every register access belongs to one kernel's tables, so every
        // SRAM byte in the per-stage vector is charged to one kernel.
        let sram_total: usize = est.sram_by_stage.iter().sum();
        let sram_sum: usize = est.kernels.iter().map(|k| k.sram_bytes).sum();
        assert_eq!(sram_total, sram_sum);

        let widest = est.kernels.iter().map(|k| k.stages).max().unwrap();
        assert_eq!(est.pipeline_stages, widest + 1);
        assert!(est.accepted());
    }

    /// Sharing one pipeline does not change a kernel's figures: each
    /// kernel built alone (its own module) has the stages, ops, SRAM and
    /// header bytes of its share of the combined build, and the combined
    /// figures are the combined mapping's. Only metadata bytes may
    /// differ, as kernels share scratch containers.
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

        // Combined figures vs the real combined mapping.
        assert_eq!(combined.pipeline_stages, compiled.report.stages_used);
        assert_eq!(combined.phv_header_bytes, compiled.report.phv_header_bytes);
        assert_eq!(
            combined.phv_metadata_bytes,
            compiled.report.phv_metadata_bytes
        );
        assert_eq!(combined.sram_by_stage, compiled.report.sram_by_stage);

        // Each kernel alone vs its share of the combined build.
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
            assert_eq!(solo_k.stages, comb_k.stages, "{name}: stages");
            assert_eq!(solo_k.sram_bytes, comb_k.sram_bytes, "{name}: SRAM");
            assert_eq!(solo_k.alu_ops, comb_k.alu_ops, "{name}: op count");
            assert_eq!(
                solo_k.phv_header_bytes, comb_k.phv_header_bytes,
                "{name}: header PHV"
            );
            assert_eq!(solo_k.reg_accesses, comb_k.reg_accesses, "{name}: accesses");
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
        // The generic module (no location) builds the kernel.
        module.location = None;
        let est = estimate_module(&module, &ResourceModel::default()).expect("estimate");
        assert_eq!(est.kernels.len(), 1);
    }
}
