//! Additional frontend coverage through the public API: `_hash` typing,
//! diagnostics quality, and grammar corners the unit tests don't reach.

use ncl_lang::frontend;

fn ok(src: &str) {
    frontend(src, "t.ncl")
        .unwrap_or_else(|d| panic!("should compile: {}", ncl_lang::diag::render(&d)));
}

fn err_containing(src: &str, needle: &str) {
    let diags = frontend(src, "t.ncl").expect_err("should be rejected");
    assert!(
        diags.iter().any(|d| d.message.contains(needle)),
        "no diagnostic containing '{needle}' in: {}",
        ncl_lang::diag::render(&diags)
    );
}

#[test]
fn hash_builtin_types() {
    ok("_net_ _out_ void k(uint32_t *d) { d[0] = _hash(d[0], 7); }");
    // Result is uint32_t; assigning into narrower places needs no cast
    // (C truncation), wider is fine too.
    ok("_net_ _out_ void k(uint64_t *d) { d[0] = _hash((uint32_t)d[0], 1); }");
    err_containing(
        "_net_ _out_ void k(uint32_t *d) { d[0] = _hash(d[0]); }",
        "_hash() takes (value, salt)",
    );
    err_containing(
        "_net_ _out_ void k(uint32_t *d) { d[0] = _hash(d, 1); }",
        "_hash value must be a scalar",
    );
}

#[test]
fn chained_else_if_ladder() {
    ok(r#"
_net_ _out_ void k(int *d) {
    if (d[0] > 10) { d[1] = 1; }
    else if (d[0] > 5) { d[1] = 2; }
    else if (d[0] > 0) { d[1] = 3; }
    else { d[1] = 4; }
}
"#);
}

#[test]
fn hex_binary_char_literals_in_kernels() {
    ok(r#"
_net_ _out_ void k(uint32_t *d) {
    d[0] = (d[0] & 0xFF00FF00) | (d[1] & 0b1010);
    d[2] = (uint32_t)'A';
}
"#);
}

#[test]
fn deeply_nested_expression_parses() {
    let mut e = String::from("d[0]");
    for _ in 0..40 {
        e = format!("({e} + 1)");
    }
    ok(&format!("_net_ _out_ void k(int *d) {{ d[0] = {e}; }}"));
}

#[test]
fn shadowing_in_nested_blocks() {
    ok(r#"
_net_ _out_ void k(int *d) {
    int x = 1;
    { int y = x + 1; d[0] = y; }
    { int y = x + 2; d[1] = y; }
}
"#);
    err_containing(
        "_net_ _out_ void k(int *d) { int x = 1; int x = 2; }",
        "redeclaration",
    );
}

#[test]
fn sizeof_in_const_contexts() {
    ok(r#"
const unsigned WORDS = 32 / sizeof(uint32_t);
_net_ _at_("s1") int a[WORDS];
_net_ _out_ void k(int *d) { a[0] += d[0]; }
"#);
}

#[test]
fn comparison_chain_is_rejected_sanely() {
    // `a < b < c` parses as `(a < b) < c` (bool < int) — C would allow
    // it after promotion; we do too via promotion to int.
    ok("_net_ _out_ void k(int *d) { if ((d[0] < d[1]) != (d[1] < d[2])) { _drop(); } }");
}

#[test]
fn ext_specifier_position_enforced() {
    err_containing(
        "_net_ _out_ void a(int *d) { _drop(); }\n\
         _net_ _in_ void r(_ext_ int *h, int *d) {}",
        "extend the list at the end",
    );
}

#[test]
fn window_ext_shadowing_builtin_rejected() {
    err_containing(
        "_wnd_ struct W { uint32_t seq; };\n_net_ _out_ void k(int *d) {}",
        "shadows a builtin",
    );
}

#[test]
fn diagnostics_carry_positions() {
    let diags = frontend(
        "_net_ _out_ void k(int *d) {\n    d[0] = unknown_name;\n}",
        "pos.ncl",
    )
    .unwrap_err();
    let d = &diags[0];
    assert_eq!(d.span.line, 2);
    assert!(d.to_string().starts_with("pos.ncl:2:"));
}

#[test]
fn division_and_modulo_by_parameter() {
    ok("_net_ _out_ void k(int *d) { d[0] = d[1] / d[2] + d[1] % d[2]; }");
}

#[test]
fn empty_kernel_is_fine() {
    ok("_net_ _out_ void noop(int *d) { }");
}

#[test]
fn keywords_cannot_name_kernels() {
    let diags = frontend("_net_ _out_ void for(int *d) {}", "t.ncl").unwrap_err();
    assert!(!diags.is_empty());
}

#[test]
fn unsigned_long_and_short_types() {
    ok(r#"
_net_ _out_ void k(int *d) {
    unsigned long big = 5000000000ul;
    short small = (short)d[0];
    d[1] = (int)(big % 1000) + small;
}
"#);
}

// ---------------------------------------------------------------------
// Exhaustive conformance coverage: every `ConformanceError` variant,
// triggered from NCL source, rendered with file:line and a caret
// snippet into that source.
// ---------------------------------------------------------------------

mod conformance_coverage {
    use ncl_ir::ir::Module;
    use ncl_ir::lower::{lower, LoweringConfig};
    use ncl_ir::passes::{conformance, optimize, ConformanceError};
    use ncl_ir::version::{version_modules, LocationInfo};
    use ncl_lang::frontend;

    fn lowered(src: &str, cfg: &LoweringConfig) -> Module {
        let checked = frontend(src, "t.ncl")
            .unwrap_or_else(|d| panic!("frontend: {}", ncl_lang::diag::render(&d)));
        let mut m = lower(&checked, cfg)
            .unwrap_or_else(|d| panic!("lower: {}", ncl_lang::diag::render(&d)));
        optimize(&mut m);
        m
    }

    fn s1_version(src: &str, cfg: &LoweringConfig) -> Module {
        let locs = [LocationInfo {
            label: c3::Label::new("s1"),
            id: 1,
        }];
        version_modules(&lowered(src, cfg), &locs)
            .into_iter()
            .next()
            .expect("s1 module")
    }

    /// Asserts one error of the expected shape whose rendered
    /// diagnostic carries position and caret into `src`.
    fn expect_error(
        errs: &[ConformanceError],
        src: &str,
        want: impl Fn(&ConformanceError) -> bool,
        message: &str,
    ) {
        let e = errs
            .iter()
            .find(|e| want(e))
            .unwrap_or_else(|| panic!("no matching error in {errs:?}"));
        assert!(
            e.to_string().contains(message),
            "'{e}' does not contain '{message}'"
        );
        let rendered = e.to_diagnostic("t.ncl").render_snippet(src);
        assert!(rendered.starts_with("t.ncl:"), "no position: {rendered}");
        assert!(rendered.contains('^'), "no caret snippet: {rendered}");
    }

    #[test]
    fn loop_not_unrolled() {
        // No mask for `k`: `window.len` stays dynamic, the loop keeps
        // its back edge, and the switch version cannot map.
        let src = r#"
_net_ _at_("s1") int a[8] = {0};
_net_ _out_ void k(int *d) {
    for (unsigned i = 0; i < window.len; ++i) a[i] += d[i];
}
"#;
        let m = s1_version(src, &LoweringConfig::default());
        expect_error(
            &conformance(&m),
            src,
            |e| matches!(e, ConformanceError::LoopNotUnrolled { kernel, .. } if kernel == "k"),
            "loop has no provably constant trip count",
        );
    }

    #[test]
    fn not_placed_here() {
        // `k` carries no `_at_` (the frontend rejects an explicit
        // mismatch outright), so every switch version includes it —
        // and the s1 version touches state living at s2. The caret
        // lands on the misplaced declaration, not the kernel.
        let src = r#"
_net_ _at_("s2") int remote[4] = {0};
_net_ _out_ void k(int *d) { remote[0] += d[0]; }
"#;
        let m = s1_version(src, &LoweringConfig::with_mask("k", vec![1]));
        expect_error(
            &conformance(&m),
            src,
            |e| {
                matches!(e, ConformanceError::NotPlacedHere { kernel, what, .. }
                         if kernel == "k" && what == "remote")
            },
            "accesses 'remote', which is not placed at this location",
        );
    }

    #[test]
    fn mask_arity() {
        let src = r#"
_net_ _at_("s1") int a[4] = {0};
_net_ _out_ void k(int *d) { a[0] += d[0]; }
"#;
        let m = s1_version(src, &LoweringConfig::with_mask("k", vec![1, 1]));
        expect_error(
            &conformance(&m),
            src,
            |e| {
                matches!(
                    e,
                    ConformanceError::MaskArity {
                        mask: 2,
                        params: 1,
                        ..
                    }
                )
            },
            "mask has 2 entries but the kernel takes 1 window arrays",
        );
    }

    #[test]
    fn incoming_on_switch() {
        // Handing an un-versioned module (incoming kernels intact) to
        // the switch checker is a pipeline-misuse bug; conformance
        // reports rather than silently compiling the host kernel.
        let src = r#"
_net_ _out_ void k(int *d) { _drop(); }
_net_ _in_ void recv(int *d, _ext_ int *h) { h[0] = d[0]; }
"#;
        let m = lowered(src, &LoweringConfig::with_mask("k", vec![1]));
        expect_error(
            &conformance(&m),
            src,
            |e| matches!(e, ConformanceError::IncomingOnSwitch { kernel, .. } if kernel == "recv"),
            "incoming kernel 'recv' cannot be compiled for a switch",
        );
    }
}

// ---------------------------------------------------------------------
// Exhaustive lint coverage: every `LintCode` variant, triggered from
// NCL source through the full `nclc` driver, with the rendered
// diagnostic matched snapshot-style.
// ---------------------------------------------------------------------

mod lint_coverage {
    use ncl::core::nclc::{compile, CompileConfig, LintCode, LintLevel, NclcError};
    use ncl_ir::lower::ReplayFilter;

    const AND: &str = "hosts worker 2\nswitch s1\nlink worker* s1\n";

    fn cfg_with(masks: &[(&str, Vec<u16>)]) -> CompileConfig {
        let mut cfg = CompileConfig::default();
        for (k, m) in masks {
            cfg.masks.insert((*k).to_string(), m.clone());
        }
        cfg
    }

    /// Compiles expecting a lint denial; returns the rendered report.
    fn denied(src: &str, cfg: &CompileConfig, code: LintCode) -> String {
        match compile(src, AND, cfg) {
            Err(e @ NclcError::Lint { .. }) => {
                let rendered = e.to_string();
                let NclcError::Lint { diagnostics, .. } = e else {
                    unreachable!()
                };
                assert!(
                    diagnostics.iter().any(|d| d.code == code),
                    "no {code} in: {rendered}"
                );
                rendered
            }
            Err(other) => panic!("expected lint denial, got: {other}"),
            Ok(_) => panic!("expected lint denial, program compiled"),
        }
    }

    /// Compiles expecting success; returns the rendered warnings.
    fn warned(src: &str, cfg: &CompileConfig, code: LintCode) -> String {
        let program = compile(src, AND, cfg).expect("should compile with warnings");
        let warns: Vec<_> = program.lint_warnings().cloned().collect();
        assert!(
            warns.iter().any(|d| d.code == code),
            "no {code} warning in: {}",
            ncl_ir::lint::render(&warns)
        );
        ncl_ir::lint::render(&warns)
    }

    #[test]
    fn non_atomic_rmw_cross_array() {
        let src = r#"
_net_ _at_("s1") unsigned a[4] = {0};
_net_ _at_("s1") unsigned b[4] = {0};
_net_ _out_ void k(unsigned *d) { a[0] = a[0] + b[0]; b[0] = d[0]; _reflect(); }
"#;
        let r = denied(src, &cfg_with(&[("k", vec![1])]), LintCode::NonAtomicRmw);
        assert!(r.contains("[non-atomic-rmw]"), "{r}");
        assert!(
            r.contains("writes 'a' using the value of 'b'"),
            "unexpected wording: {r}"
        );
        assert!(r.contains("different PISA stages"), "{r}");
    }

    #[test]
    fn non_atomic_rmw_micro_op_budget() {
        // Six micro-ops against one lane of `a`; a RegisterAction pass
        // supports four (default model).
        let src = r#"
_net_ _at_("s1") unsigned a[4] = {0};
_net_ _out_ void k(unsigned *d) {
    a[0] += d[0]; a[0] += d[1]; a[0] += d[2];
    _reflect();
}
"#;
        let r = denied(src, &cfg_with(&[("k", vec![3])]), LintCode::NonAtomicRmw);
        assert!(
            r.contains("issues 6 stateful micro-ops against one lane of 'a'"),
            "unexpected wording: {r}"
        );
        assert!(r.contains("the excess spills into later stages"), "{r}");
    }

    #[test]
    fn cross_kernel_alias() {
        let src = r#"
_net_ _at_("s1") unsigned shared[4] = {0};
_net_ _out_ void add(unsigned *d) { shared[0] += d[0]; _reflect(); }
_net_ _out_ void put(unsigned *d) { shared[0] = d[0]; _reflect(); }
"#;
        let r = denied(
            src,
            &cfg_with(&[("add", vec![1]), ("put", vec![1])]),
            LintCode::CrossKernelAlias,
        );
        assert!(r.contains("[cross-kernel-alias]"), "{r}");
        assert!(
            r.contains("'shared' is written by kernels 'add', 'put'"),
            "unexpected wording: {r}"
        );
        assert!(r.contains("at least one non-commutative update"), "{r}");
    }

    #[test]
    fn replay_unsafe_with_filter() {
        let src = r#"
_net_ _at_("s1") unsigned total[4] = {0};
_net_ _out_ void k(unsigned *d) { total[0] += d[0]; _reflect(); }
"#;
        let mut cfg = cfg_with(&[("k", vec![1])]);
        cfg.replay_filters.insert(
            "k".into(),
            ReplayFilter {
                senders: 2,
                slots: 2,
            },
        );
        let r = denied(src, &cfg, LintCode::ReplayUnsafe);
        assert!(r.contains("[replay-unsafe]"), "{r}");
        assert!(
            r.contains("has a replay filter (exactly-once claimed) but updates 'total'"),
            "unexpected wording: {r}"
        );
        assert!(r.contains("not guarded by `window.replay`"), "{r}");
    }

    #[test]
    fn replay_unsafe_no_filter() {
        let src = r#"
_net_ _at_("s1") unsigned long total[4] = {0};
_net_ _out_ void k(unsigned *d) { total[0] += d[0]; _reflect(); }
"#;
        let r = warned(
            src,
            &cfg_with(&[("k", vec![1])]),
            LintCode::ReplayUnsafeNoFilter,
        );
        assert!(r.contains("[replay-unsafe-no-filter]"), "{r}");
        assert!(
            r.contains("updates 'total' non-idempotently with no replay filter"),
            "unexpected wording: {r}"
        );
        assert!(r.contains("retransmissions will corrupt the state"), "{r}");
    }

    #[test]
    fn unguarded_overflow() {
        let src = r#"
_net_ _at_("s1") unsigned total[1] = {0};
_net_ _out_ void k(unsigned *d) { total[0] += d[0]; _reflect(); }
"#;
        let r = warned(
            src,
            &cfg_with(&[("k", vec![1])]),
            LintCode::UnguardedOverflow,
        );
        assert!(r.contains("[unguarded-overflow]"), "{r}");
        assert!(
            r.contains("accumulates into 32-bit 'total' with no value-guarded reset"),
            "unexpected wording: {r}"
        );
        assert!(r.contains("wraps silently at 2^32"), "{r}");
    }

    #[test]
    fn resource_overrun() {
        // Deny the built pipeline's resource verdict on a tiny chip
        // model: the lint gate fires before the backend's own error.
        let src = r#"
_net_ _at_("s1") unsigned acc[32] = {0};
_net_ _out_ void k(unsigned *d) {
    for (unsigned i = 0; i < window.len; ++i) { acc[i] += d[i]; d[i] = acc[i]; }
    _reflect();
}
"#;
        let mut cfg = cfg_with(&[("k", vec![8])]);
        cfg.model = pisa::ResourceModel::tiny();
        cfg.lint_levels
            .insert(LintCode::ResourceOverrun, LintLevel::Deny);
        // Keep the hazard lints out of the way; this test is about the
        // resource path.
        for &c in LintCode::ALL {
            if c != LintCode::ResourceOverrun {
                cfg.lint_levels.insert(c, LintLevel::Allow);
            }
        }
        let r = denied(src, &cfg, LintCode::ResourceOverrun);
        assert!(r.contains("[resource-overrun]"), "{r}");
        assert!(r.contains("resource overrun:"), "{r}");
    }
}
