//! The compile chain, stage by stage.
//!
//! [`staged`] calls the same public stage functions `nclc::compile`
//! calls, in the same order, with a timer around each, so the compiler's
//! layers are measured from outside. The program the workloads run is
//! still the one `nclc::compile` returns; a self-test holds the two
//! timings to each other through `CompiledProgram::timings`.

use ncl::core::nclc::{compile, CompileConfig, CompiledProgram};
use ncl::ir::lint::{lint_module, LintConfig};
use ncl::ir::lower::{lower, LoweringConfig};
use ncl::ir::version::{version_modules, LocationInfo};
use ncl::ir::CompiledKernel;
use ncl::p4::{compile_module, CompileOptions};
use ncl::pisa::ResourceModel;
use std::collections::HashMap;
use std::time::Instant;

/// The lifted chip model E13 uses: the workloads measure the software
/// tiers, not chip fit, so wide windows must stay compilable.
pub fn chip() -> ResourceModel {
    ResourceModel {
        stages: 64,
        ops_per_stage: 8192,
        phv_header_bytes: 1 << 14,
        phv_metadata_bytes: 1 << 14,
        sram_bytes_per_stage: 64 << 20,
        ..ResourceModel::default()
    }
}

/// Wall time per compiler stage plus two size counts. Times add up
/// over the locations of a program and, via [`StageTimes::add`], over
/// the programs of a workload.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageTimes {
    /// `ncl_lang::frontend` (parse + sema).
    pub frontend_ms: f64,
    /// `ncl_ir::lower`.
    pub lower_ms: f64,
    /// `ncl_ir::passes::optimize` plus per-location versioning.
    pub optimize_ms: f64,
    /// `ncl_ir::lint::lint_module`.
    pub lint_ms: f64,
    /// `ncl_p4::estimate::estimate_module`.
    pub estimate_ms: f64,
    /// `ncl_p4::compile_module` (lane split → allocation → P4 emit).
    pub backend_ms: f64,
    /// Fast-path micro-ops summed over the switch-resident kernels.
    pub uops: f64,
    /// Switch-resident kernels counted in `uops`.
    pub kernels: f64,
    /// Effective P4 lines over all switches.
    pub p4_lines: f64,
}

impl StageTimes {
    /// Accumulates another program's stages.
    pub fn add(&mut self, o: &StageTimes) {
        self.frontend_ms += o.frontend_ms;
        self.lower_ms += o.lower_ms;
        self.optimize_ms += o.optimize_ms;
        self.lint_ms += o.lint_ms;
        self.estimate_ms += o.estimate_ms;
        self.backend_ms += o.backend_ms;
        self.uops += o.uops;
        self.kernels += o.kernels;
        self.p4_lines += o.p4_lines;
    }

    /// Sum of the stage times.
    pub fn total_ms(&self) -> f64 {
        self.frontend_ms
            + self.lower_ms
            + self.optimize_ms
            + self.lint_ms
            + self.estimate_ms
            + self.backend_ms
    }
}

fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64() * 1e3;
    out
}

/// Compiles `src` for the workloads to run.
pub fn compile_program(src: &str, and: &str, cfg: &CompileConfig) -> CompiledProgram {
    compile(src, and, cfg).expect("benchmark programs compile")
}

/// Runs the compile chain stage by stage and times each stage.
pub fn staged(src: &str, and: &str, cfg: &CompileConfig) -> StageTimes {
    let mut st = StageTimes::default();
    let checked = timed(&mut st.frontend_ms, || {
        ncl::lang::frontend(src, "program.ncl").expect("benchmark programs parse")
    });
    let overlay = ncl::and::parse(and).expect("benchmark ANDs parse");
    let lcfg = LoweringConfig {
        masks: cfg.masks.clone(),
        unroll_limit: cfg.unroll_limit,
        replay_filters: cfg.replay_filters.clone(),
    };
    let mut generic = timed(&mut st.lower_ms, || {
        lower(&checked, &lcfg).expect("benchmark programs lower")
    });
    let locations: Vec<LocationInfo> = overlay
        .switches()
        .map(|s| LocationInfo {
            label: s.label.clone(),
            id: s.id,
        })
        .collect();
    let versions = timed(&mut st.optimize_ms, || {
        ncl::ir::passes::optimize(&mut generic);
        version_modules(&generic, &locations)
    });
    let kernel_ids: HashMap<String, u16> = checked
        .kernels
        .iter()
        .enumerate()
        .map(|(i, k)| (k.name.clone(), cfg.kernel_id_base + (i + 1) as u16))
        .collect();
    let opts = CompileOptions {
        kernel_ids: kernel_ids.clone(),
        label_ids: overlay.label_ids(),
        ..CompileOptions::default()
    };
    let lint_cfg = LintConfig {
        levels: cfg.lint_levels.clone(),
        replay_filtered: cfg.replay_filters.keys().cloned().collect(),
        reg_accesses_per_pass: cfg.model.reg_accesses_per_pass,
    };
    for module in &versions {
        timed(&mut st.lint_ms, || lint_module(module, &lint_cfg));
        timed(&mut st.estimate_ms, || {
            ncl::p4::estimate::estimate_module(module, &cfg.model)
        })
        .expect("benchmark programs estimate");
        let compiled = timed(&mut st.backend_ms, || {
            compile_module(module, &cfg.model, &opts)
        })
        .expect("benchmark programs map onto the chip model");
        st.p4_lines += ncl::p4::p4emit::effective_lines(&compiled.p4_source) as f64;
        for k in module
            .kernels
            .iter()
            .filter(|k| kernel_ids.contains_key(&k.name))
        {
            st.uops += CompiledKernel::compile_for(k, module).len() as f64;
            st.kernels += 1.0;
        }
    }
    st
}
