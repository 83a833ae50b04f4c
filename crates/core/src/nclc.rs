//! The nclc compiler driver — the paper's Fig. 6 end to end.
//!
//! Takes an NCL C/C++ program and an AND file and produces "a host
//! binary, and a program for every switch in the AND file": here, the
//! host side is every `_in_` kernel lowered once to the micro-op program
//! libncrt runs, and each switch program is a loadable PISA pipeline
//! plus its P4-16 source, and the location's kernels lowered once to the
//! micro-op programs the software switch loads.

use c3::Label;
use ncl_and::{AndError, Overlay};
use ncl_ir::ir::Module;
pub use ncl_ir::lint::{LintCode, LintConfig, LintDiagnostic, LintLevel};
pub use ncl_ir::lower::ReplayFilter;
use ncl_ir::lower::{lower, LoweringConfig};
use ncl_ir::version::{version_modules, LocationInfo};
use ncl_ir::CompiledKernel;
use ncl_lang::ast::KernelKind;
use ncl_lang::diag::Diagnostic;
use ncl_lang::sema::CheckedProgram;
pub use ncl_p4::estimate::ModuleEstimate;
use ncl_p4::{CompileError, CompileOptions, CompiledSwitch, ModuleBuild};
use nctel::Timeline;
use pisa::ResourceModel;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Compiler configuration.
#[derive(Clone, Debug)]
pub struct CompileConfig {
    /// Per-kernel window masks (elements per window parameter). The
    /// compiler specializes kernels against them (paper §4.2: "a mask
    /// is associated with kernel invocations").
    pub masks: HashMap<String, Vec<u16>>,
    /// Target chip resource model.
    pub model: ResourceModel,
    /// Loop unroll budget.
    pub unroll_limit: usize,
    /// Per-kernel NCP-R replay filters: the compiler lowers a
    /// seen-sequence bitmap stage for each listed outgoing kernel and
    /// exposes the verdict as `window.replay` (false when unfiltered).
    pub replay_filters: HashMap<String, ReplayFilter>,
    /// Lint level overrides (`--lint allow=.../warn=.../deny=...`).
    /// Codes not listed use the deny-by-default policy of
    /// [`LintCode::default_level`]. Hazards at [`LintLevel::Deny`] fail
    /// compilation with [`NclcError::Lint`].
    pub lint_levels: BTreeMap<LintCode, LintLevel>,
    /// First NCP kernel id minus one: kernel ids are assigned
    /// `base + 1, base + 2, …` in declaration order. Single-program
    /// deployments leave this at 0; multi-tenant deployments give every
    /// tenant a disjoint id range so their kernels can share a switch
    /// (`ncsched`, DESIGN.md §4.12).
    pub kernel_id_base: u16,
}

impl Default for CompileConfig {
    fn default() -> Self {
        CompileConfig {
            masks: HashMap::new(),
            model: ResourceModel::default(),
            unroll_limit: 4096,
            replay_filters: HashMap::new(),
            lint_levels: BTreeMap::new(),
            kernel_id_base: 0,
        }
    }
}

/// Everything the compiler produces for one program.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    /// The analyzed program (window layouts, kernel signatures).
    pub checked: CheckedProgram,
    /// The optimized generic IR module (pre-versioning) — the host side
    /// lowers its incoming kernels out of this.
    pub generic: Module,
    /// Every `_in_` kernel of [`CompiledProgram::generic`], lowered once
    /// to the micro-op program hosts run arriving windows through. The
    /// hosts that bind a kernel share it ([`crate::NclHost::bind_incoming`]);
    /// only their host memory is private.
    pub incoming: HashMap<String, Arc<CompiledKernel>>,
    /// The AND overlay.
    pub overlay: Overlay,
    /// Compiled artifacts per switch location.
    pub switches: Vec<(Label, CompiledSwitch)>,
    /// The versioned IR module per switch location — the same IR the
    /// backend compiled and the input of the deploy-time lint gate.
    pub modules: Vec<(Label, Module)>,
    /// Every kernel of each location's versioned module, by NCP kernel
    /// id, lowered once ([`CompiledKernel::compile_for`]) to the
    /// micro-op program the software switch runs — the switch-side
    /// counterpart of [`CompiledProgram::incoming`]. Deployment loads
    /// these and never lowers: every software switch built from this
    /// program shares them ([`crate::fastpath::FastPathSwitch`]), and
    /// every engine reads its hop-record step counts off them. Like
    /// [`CompiledProgram::switches`], they are derived from
    /// [`CompiledProgram::modules`], which is what the deploy-time lint
    /// gate re-checks.
    pub switch_kernels: Vec<(Label, BTreeMap<u16, Arc<CompiledKernel>>)>,
    /// Program-wide kernel ids (hosts and switches agree).
    pub kernel_ids: HashMap<String, u16>,
    /// AND label → wire id (for `_pass(label)` and deployment).
    pub label_ids: HashMap<Label, u16>,
    /// Lint findings that survived at `Warn` level, per switch location
    /// (denies abort compilation and never appear here).
    pub lints: Vec<(Label, Vec<LintDiagnostic>)>,
    /// Resource figures of each switch's built pipeline, per kernel
    /// (the `--emit cost` table and ncsched's admission input). They are
    /// the pipeline report's figures, not a prediction.
    pub estimates: Vec<(Label, ModuleEstimate)>,
    /// The effective lint configuration the program was compiled under.
    /// Deployment ([`crate::deploy_opts`], [`crate::deploy_tenants`])
    /// re-runs the gate with it, so a hazardous
    /// module cannot reach a simulated switch even when a
    /// `CompiledProgram` is assembled or altered by hand.
    pub lint_config: LintConfig,
    /// Wall-time spans of every compiler stage (frontend → overlay →
    /// lower → optimize → version → lint → stage → estimate → backend →
    /// kernels), the per-location stages accumulated across locations.
    /// `stage` is the whole build (staging, codegen, report), `estimate`
    /// turns its violations into lint findings, `backend` is the
    /// resource verdict and P4 emission, and `kernels` lowers the
    /// location's kernels for the software switch. Rendered by
    /// `nclc --emit timing`.
    pub timings: Timeline,
}

impl CompiledProgram {
    /// The compiled artifacts for a location.
    pub fn switch(&self, label: &str) -> Option<&CompiledSwitch> {
        self.switches
            .iter()
            .find(|(l, _)| l.as_str() == label)
            .map(|(_, c)| c)
    }

    /// The versioned IR module for a location.
    pub fn module(&self, label: &str) -> Option<&Module> {
        self.modules
            .iter()
            .find(|(l, _)| l.as_str() == label)
            .map(|(_, m)| m)
    }

    /// The lowered kernels for a location, by NCP kernel id.
    pub fn kernels_at(&self, label: &str) -> Option<&BTreeMap<u16, Arc<CompiledKernel>>> {
        self.switch_kernels
            .iter()
            .find(|(l, _)| l.as_str() == label)
            .map(|(_, k)| k)
    }

    /// The resource figures for a location.
    pub fn estimate(&self, label: &str) -> Option<&ModuleEstimate> {
        self.estimates
            .iter()
            .find(|(l, _)| l.as_str() == label)
            .map(|(_, e)| e)
    }

    /// All surviving lint warnings across locations.
    pub fn lint_warnings(&self) -> impl Iterator<Item = &LintDiagnostic> {
        self.lints.iter().flat_map(|(_, d)| d.iter())
    }

    /// Total effective P4 lines across all switches (E3 metric).
    pub fn p4_lines(&self) -> usize {
        self.switches
            .iter()
            .map(|(_, c)| ncl_p4::p4emit::effective_lines(&c.p4_source))
            .sum()
    }
}

/// Compiler failure, by stage.
#[derive(Debug)]
pub enum NclcError {
    /// Lexing/parsing/sema diagnostics.
    Frontend(Vec<Diagnostic>),
    /// AND file problems.
    And(AndError),
    /// Lowering diagnostics (unroll limits, unsupported constructs).
    Lowering(Vec<Diagnostic>),
    /// A kernel or memory `_at_` label that the AND does not define.
    UnknownLocation {
        /// What referenced the label.
        what: String,
        /// The missing label.
        label: String,
    },
    /// Backend rejection for one switch.
    Backend {
        /// The location.
        location: Label,
        /// The error.
        error: CompileError,
    },
    /// Denied lint findings for one switch: state hazards or replay-
    /// unsafe updates that must not reach hardware. Downgrade a code
    /// with [`CompileConfig::lint_levels`] only after understanding the
    /// interleaving it describes.
    Lint {
        /// The location.
        location: Label,
        /// The denied findings.
        diagnostics: Vec<LintDiagnostic>,
    },
}

impl std::fmt::Display for NclcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NclcError::Frontend(d) | NclcError::Lowering(d) => {
                write!(f, "{}", ncl_lang::diag::render(d))
            }
            NclcError::And(e) => write!(f, "AND file: {e}"),
            NclcError::UnknownLocation { what, label } => {
                write!(
                    f,
                    "{what} is placed at \"{label}\", which the AND file does not define"
                )
            }
            NclcError::Backend { location, error } => {
                write!(f, "backend rejected program for \"{location}\": {error}")
            }
            NclcError::Lint {
                location,
                diagnostics,
            } => {
                writeln!(f, "lint denied program for \"{location}\":")?;
                write!(f, "{}", ncl_ir::lint::render(diagnostics))
            }
        }
    }
}

impl std::error::Error for NclcError {}

/// Compiles an NCL program against an AND file.
pub fn compile(
    ncl_source: &str,
    and_source: &str,
    cfg: &CompileConfig,
) -> Result<CompiledProgram, NclcError> {
    let mut timings = Timeline::new();

    // Frontend (Fig. 6: clang.fe + nclc.fe).
    let checked = timings
        .time("frontend", || ncl_lang::frontend(ncl_source, "program.ncl"))
        .map_err(NclcError::Frontend)?;
    let overlay = timings
        .time("overlay", || ncl_and::parse(and_source))
        .map_err(NclcError::And)?;

    // Validate `_at_` labels against the AND.
    for k in &checked.kernels {
        if let Some(at) = &k.at {
            if overlay.node(at.as_str()).is_none() {
                return Err(NclcError::UnknownLocation {
                    what: format!("kernel '{}'", k.name),
                    label: at.to_string(),
                });
            }
        }
    }
    for g in &checked.globals {
        if let Some(at) = &g.at {
            if overlay.node(at.as_str()).is_none() {
                return Err(NclcError::UnknownLocation {
                    what: format!("switch memory '{}'", g.name),
                    label: at.to_string(),
                });
            }
        }
    }

    // Lowering + generic optimization.
    let lcfg = LoweringConfig {
        masks: cfg.masks.clone(),
        unroll_limit: cfg.unroll_limit,
        replay_filters: cfg.replay_filters.clone(),
    };
    let mut generic = timings
        .time("lower", || lower(&checked, &lcfg))
        .map_err(NclcError::Lowering)?;
    timings.time("optimize", || ncl_ir::passes::optimize(&mut generic));
    let incoming = generic
        .kernels
        .iter()
        .filter(|k| k.kind == KernelKind::Incoming)
        .map(|k| (k.name.clone(), Arc::new(CompiledKernel::compile(k))))
        .collect();

    // Program-wide kernel ids, in declaration order, from
    // `kernel_id_base + 1` (the base is 0 outside multi-tenant deploys).
    let kernel_ids: HashMap<String, u16> = checked
        .kernels
        .iter()
        .enumerate()
        .map(|(i, k)| (k.name.clone(), cfg.kernel_id_base + (i + 1) as u16))
        .collect();
    let label_ids = overlay.label_ids();

    // Versioning per AND switch + backend per location.
    let locations: Vec<LocationInfo> = overlay
        .switches()
        .map(|s| LocationInfo {
            label: s.label.clone(),
            id: s.id,
        })
        .collect();
    let versions = timings.time("version", || version_modules(&generic, &locations));
    let opts = CompileOptions {
        kernel_ids: kernel_ids.clone(),
        label_ids: label_ids.clone(),
        ..CompileOptions::default()
    };
    let lint_cfg = LintConfig {
        levels: cfg.lint_levels.clone(),
        replay_filtered: cfg.replay_filters.keys().cloned().collect(),
        reg_accesses_per_pass: cfg.model.reg_accesses_per_pass,
    };
    let mut switches = Vec::new();
    let mut modules = Vec::new();
    let mut switch_kernels = Vec::new();
    let mut lints = Vec::new();
    let mut estimates = Vec::new();
    for (loc, module) in locations.iter().zip(versions) {
        // Static analysis gate: hazard/replay findings plus the resource
        // violations of the pipeline built for this switch. A denied
        // finding means the kernel must not reach a switch.
        let mut diags = timings.time("lint", || ncl_ir::lint::lint_module(&module, &lint_cfg));
        // Conformance, staging, codegen and the resource report, run
        // once. A failed build leaves no figures; its error waits until
        // the lint gate has spoken.
        let build = timings.time("stage", || ModuleBuild::new(&module, &cfg.model, &opts));
        if let Ok(build) = &build {
            timings.time("estimate", || {
                let level = lint_cfg.level(LintCode::ResourceOverrun);
                if level == LintLevel::Allow {
                    return;
                }
                diags.extend(build.report.violations.iter().map(|v| LintDiagnostic {
                    code: LintCode::ResourceOverrun,
                    level,
                    kernel: "<module>".to_string(),
                    state: None,
                    message: format!("resource overrun: {v}"),
                    span: Default::default(),
                    file: module.file.clone(),
                }));
            });
        }
        let (deny, warns) = ncl_ir::lint::partition(diags);
        if !deny.is_empty() {
            return Err(NclcError::Lint {
                location: loc.label.clone(),
                diagnostics: deny,
            });
        }
        let backend_error = |error| NclcError::Backend {
            location: loc.label.clone(),
            error,
        };
        let build = build.map_err(backend_error)?;
        let estimate = build.estimate.clone();
        let compiled = timings
            .time("backend", || build.finish())
            .map_err(backend_error)?;
        let kernels = timings.time("kernels", || {
            module
                .kernels
                .iter()
                .filter_map(|k| {
                    let id = *kernel_ids.get(&k.name)?;
                    Some((id, Arc::new(CompiledKernel::compile_for(k, &module))))
                })
                .collect()
        });
        switches.push((loc.label.clone(), compiled));
        switch_kernels.push((loc.label.clone(), kernels));
        modules.push((loc.label.clone(), module));
        lints.push((loc.label.clone(), warns));
        estimates.push((loc.label.clone(), estimate));
    }

    Ok(CompiledProgram {
        checked,
        generic,
        incoming,
        overlay,
        switches,
        modules,
        switch_kernels,
        kernel_ids,
        label_ids,
        lints,
        estimates,
        lint_config: lint_cfg,
        timings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) const ALLREDUCE_NCL: &str = r#"
#define DATA_LEN 64
#define WIN_LEN 8
_net_ _at_("s1") int accum[DATA_LEN] = {0};
_net_ _at_("s1") unsigned count[DATA_LEN/WIN_LEN] = {0};
_net_ _at_("s1") _ctrl_ unsigned nworkers;

_net_ _out_ void allreduce(int *data) {
    unsigned base = window.seq * window.len;
    for (unsigned i = 0; i < window.len; ++i)
        accum[base + i] += data[i];
    if (++count[window.seq] == nworkers) {
        memcpy(data, &accum[base], window.len * 4);
        count[window.seq] = 0; _bcast();
    } else { _drop(); }
}

_net_ _in_ void result(int *data, _ext_ int *hdata, _ext_ bool *done) {
    for (unsigned i = 0; i < window.len; ++i)
        hdata[window.seq * window.len + i] = data[i];
    if (window.last) *done = true;
}
"#;

    pub(crate) const ALLREDUCE_AND: &str = "
hosts  worker 4
switch s1
link   worker* s1
";

    fn cfg() -> CompileConfig {
        let mut c = CompileConfig::default();
        c.masks.insert("allreduce".into(), vec![8]);
        c.masks.insert("result".into(), vec![8]);
        c
    }

    #[test]
    fn allreduce_compiles_end_to_end() {
        let p = compile(ALLREDUCE_NCL, ALLREDUCE_AND, &cfg()).expect("compiles");
        assert_eq!(p.switches.len(), 1);
        let s1 = p.switch("s1").unwrap();
        assert!(s1.report.accepted());
        assert!(s1.p4_source.contains("allreduce") || s1.p4_source.contains("k1"));
        assert_eq!(p.kernel_ids["allreduce"], 1);
        assert_eq!(p.kernel_ids["result"], 2);
        // The host side keeps the incoming kernel.
        assert!(p.generic.kernel("result").is_some());
    }

    #[test]
    fn unknown_kernel_location_rejected() {
        let src = r#"_net_ _out_ _at_("nowhere") void k(int *d) { _drop(); }"#;
        let mut c = CompileConfig::default();
        c.masks.insert("k".into(), vec![1]);
        let err = compile(src, ALLREDUCE_AND, &c).unwrap_err();
        assert!(matches!(err, NclcError::UnknownLocation { .. }), "{err}");
    }

    #[test]
    fn unknown_memory_location_rejected() {
        let src = r#"
            _net_ _at_("sX") int m[4];
            _net_ _out_ void k(int *d) { m[0] += d[0]; }
        "#;
        let mut c = CompileConfig::default();
        c.masks.insert("k".into(), vec![1]);
        let err = compile(src, ALLREDUCE_AND, &c).unwrap_err();
        assert!(matches!(err, NclcError::UnknownLocation { .. }));
    }

    #[test]
    fn frontend_errors_propagate() {
        let err = compile(
            "_net_ _out_ void k(int *d) { goto x; }",
            ALLREDUCE_AND,
            &cfg(),
        )
        .unwrap_err();
        assert!(matches!(err, NclcError::Frontend(_)));
    }

    #[test]
    fn and_errors_propagate() {
        let err = compile("_net_ _out_ void k(int *d) {}", "host a\nhost a", &cfg()).unwrap_err();
        assert!(matches!(err, NclcError::And(_)));
    }

    #[test]
    fn backend_rejection_propagates() {
        // A kernel too large for a tiny chip.
        let src = r#"
_net_ _at_("s1") int a[256] = {0};
_net_ _out_ void k(int *data) {
    for (unsigned i = 0; i < 64; ++i) a[i] += data[i];
}
"#;
        let mut c = CompileConfig::default();
        c.masks.insert("k".into(), vec![64]);
        c.model = ResourceModel::tiny();
        let err = compile(src, ALLREDUCE_AND, &c).unwrap_err();
        assert!(matches!(err, NclcError::Backend { .. }), "{err}");
    }

    #[test]
    fn replay_filter_lowers_synthetic_registers() {
        let mut c = cfg();
        c.replay_filters.insert(
            "allreduce".into(),
            ReplayFilter {
                senders: 8,
                slots: 16,
            },
        );
        // The replay-aware kernel: the filter-oblivious ALLREDUCE_NCL
        // is (correctly) denied by the replay-safety lint when a filter
        // is configured, see `filter_oblivious_kernel_denied`.
        let src = crate::apps::allreduce_source(64, 8);
        let p = compile(&src, ALLREDUCE_AND, &c).expect("compiles");
        let m = p.module("s1").expect("s1 module");
        let seen = m
            .registers
            .iter()
            .find(|r| r.name == "__nclr_seen_allreduce")
            .expect("seen bitmap register");
        assert_eq!(seen.dims, vec![8 * 16]);
        let dups = m
            .registers
            .iter()
            .find(|r| r.name == "__nclr_dups_allreduce")
            .expect("dups counter register");
        assert_eq!(dups.dims, vec![1]);
        let s1 = p.switch("s1").unwrap();
        assert!(
            s1.report.accepted(),
            "the filter stage must fit the PISA budget: {:?}",
            s1.report
        );
        // The stateful filter stage survives into the generated P4.
        assert!(s1.p4_source.contains("nclr_seen"), "P4 lacks filter stage");
    }

    #[test]
    fn filter_oblivious_kernel_denied() {
        // Configuring a replay filter claims exactly-once effects; a
        // kernel that mutates state without consulting `window.replay`
        // breaks that claim and is denied.
        let mut c = cfg();
        c.replay_filters.insert(
            "allreduce".into(),
            ReplayFilter {
                senders: 8,
                slots: 16,
            },
        );
        let err = compile(ALLREDUCE_NCL, ALLREDUCE_AND, &c).unwrap_err();
        match err {
            NclcError::Lint { diagnostics, .. } => {
                assert!(
                    diagnostics.iter().any(|d| d.code == LintCode::ReplayUnsafe),
                    "{diagnostics:?}"
                );
            }
            other => panic!("expected lint denial, got: {other}"),
        }
    }

    #[test]
    fn staging_failure_waits_for_the_lint_gate() {
        // No mask: the backend cannot stage `k`, so there is no
        // estimate — and the verdicts keep their order.
        let src = r#"
_net_ _at_("s1") int a[4] = {0};
_net_ _out_ void k(int *d) { a[0] += d[0]; }
"#;
        let mut c = CompileConfig::default();
        match compile(src, ALLREDUCE_AND, &c).unwrap_err() {
            NclcError::Backend {
                error: CompileError::Codegen { kernel, reason },
                ..
            } => {
                assert_eq!(kernel, "k");
                assert!(reason.contains("requires a mask"), "{reason}");
            }
            other => panic!("expected the backend's staging error, got: {other}"),
        }
        // With a denied finding as well, the lint gate speaks first.
        let filter = ReplayFilter {
            senders: 4,
            slots: 4,
        };
        c.replay_filters.insert("k".into(), filter);
        let err = compile(src, ALLREDUCE_AND, &c).unwrap_err();
        assert!(matches!(err, NclcError::Lint { .. }), "{err}");
    }

    #[test]
    fn apps_kernels_pass_lint_with_zero_allows() {
        // Acceptance: the flagship kernels are replay-safe and hazard-
        // free under the deny-by-default policy, no `allow` knobs.
        let mut c = CompileConfig::default();
        c.masks.insert("allreduce".into(), vec![8]);
        c.masks.insert("result".into(), vec![8]);
        c.replay_filters.insert(
            "allreduce".into(),
            ReplayFilter {
                senders: 4,
                slots: 8,
            },
        );
        assert!(c.lint_levels.is_empty());
        let p = compile(&crate::apps::allreduce_source(64, 8), ALLREDUCE_AND, &c)
            .expect("allreduce passes deny-by-default lint");
        assert!(
            !p.lint_warnings().any(|d| matches!(
                d.code,
                LintCode::ReplayUnsafe | LintCode::ReplayUnsafeNoFilter
            )),
            "replay findings on the replay-aware allreduce"
        );

        let mut c = CompileConfig::default();
        c.masks.insert("query".into(), vec![1, 8, 1]);
        assert!(c.lint_levels.is_empty());
        compile(&crate::apps::kvs_source(2, 16, 8), ALLREDUCE_AND, &c)
            .expect("kvs passes deny-by-default lint");
    }

    #[test]
    fn estimates_are_populated() {
        let p = compile(ALLREDUCE_NCL, ALLREDUCE_AND, &cfg()).expect("compiles");
        let est = p.estimate("s1").expect("estimate for s1");
        assert_eq!(est.kernels.len(), 1);
        assert_eq!(est.kernels[0].kernel, "allreduce");
        // The figures are the actual mapping's.
        let actual = p.switch("s1").unwrap();
        assert_eq!(est.pipeline_stages, actual.report.stages_used);
        assert_eq!(est.sram_by_stage, actual.report.sram_by_stage);
        // The kernel's share includes the register copy of the control
        // variable `nworkers` it reads.
        assert!(est.kernels[0].reg_accesses.contains_key("nworkers__c0"));
        let sram: usize = est.sram_by_stage.iter().sum();
        assert_eq!(est.kernels[0].sram_bytes, sram);
    }

    #[test]
    fn window_replay_is_false_without_filter() {
        // The NCP-R-aware allreduce kernel reads `window.replay`; with
        // no filter configured it compiles to the same single-delivery
        // semantics and no synthetic registers appear.
        let src = crate::apps::allreduce_source(64, 8);
        let p = compile(&src, ALLREDUCE_AND, &cfg()).expect("compiles");
        let m = p.module("s1").expect("s1 module");
        assert!(
            !m.registers.iter().any(|r| r.name.starts_with("__nclr_")),
            "no filter configured, no synthetic registers"
        );
        assert!(p.switch("s1").unwrap().report.accepted());
    }

    #[test]
    fn multi_switch_versions() {
        let src = r#"
_net_ _at_("agg") int total[1] = {0};
_net_ _out_ _at_("agg") void k(int *d) { total[0] += d[0]; _drop(); }
_net_ _out_ _at_("edge") void k(int *d) { d[0] *= 2; }
"#;
        let and = "host a\nhost b\nswitch edge\nswitch agg\nlink a edge\nlink edge agg\nlink agg b";
        let mut c = CompileConfig::default();
        c.masks.insert("k".into(), vec![1]);
        let p = compile(src, and, &c).expect("compiles");
        assert_eq!(p.switches.len(), 2);
        // Each location got its own version of `k`.
        let edge = p.switch("edge").unwrap();
        let agg = p.switch("agg").unwrap();
        assert!(edge.p4_source != agg.p4_source);
    }
}
