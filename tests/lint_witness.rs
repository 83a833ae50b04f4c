//! Differential witnesses for every `ncl-lint` verdict.
//!
//! A static analyzer earns trust by showing its work: for each hazard
//! class this file compiles a *flagged* kernel (downgrading the lint so
//! the backend accepts it), drives the compiled pipeline through a
//! schedule that NCP-R retransmission or RMT packet interleaving can
//! produce, and demonstrates the state corruption the lint predicted —
//! then runs the *accepted* twin kernel under the identical schedule
//! and shows it stays consistent. The resource figures behind
//! `resource-overrun` are checked the other way around: on every
//! example kernel, the per-kernel shares add up to the mapped
//! pipeline's report.
//!
//! The hand-written schedules double as regression seeds for the ncmc
//! bounded model checker (§ncmc rediscovery below): for every flagged
//! kernel the checker must *rediscover* a counterexample at most as
//! long as the hand-written one (2 pipeline deliveries), and for every
//! accepted twin it must produce a bounded-absence certificate — the
//! static verdict, the hand-picked witness, and the exhaustive search
//! all agree.

use c3::{Chunk, HostId, KernelId, NodeId, Window};
use ncl::core::apps::{allreduce_source, kvs_source};
use ncl::core::mc::McConfig;
use ncl::core::nclc::{compile, CompileConfig, CompiledProgram, LintCode, LintLevel, NclcError};
use ncl::ncmc::Outcome;
use ncl_ir::lower::ReplayFilter;
use ncl_p4::codegen::encode_window_for_test;
use pisa::{Phv, Pipeline, ResourceModel};

const AND: &str = "hosts worker 2\nswitch s1\nlink worker* s1\n";

/// Compiles with the given masks, downgrading `allows` to `allow`.
fn compile_allowing(src: &str, masks: &[(&str, Vec<u16>)], allows: &[LintCode]) -> CompiledProgram {
    let mut cfg = CompileConfig::default();
    for (k, m) in masks {
        cfg.masks.insert((*k).to_string(), m.clone());
    }
    for &c in allows {
        cfg.lint_levels.insert(c, LintLevel::Allow);
    }
    compile(src, AND, &cfg).expect("compiles once the lint is allowed")
}

fn pipeline(program: &CompiledProgram) -> Pipeline {
    let compiled = program.switch("s1").expect("s1 compiled");
    Pipeline::load(compiled.pipeline.clone(), ResourceModel::default()).expect("loads")
}

/// Encodes a one-chunk window of u32 values for `kernel`.
fn window_u32(program: &CompiledProgram, kernel: &str, seq: u32, vals: &[u32]) -> Vec<u8> {
    let w = Window {
        kernel: KernelId(program.kernel_ids[kernel]),
        seq,
        sender: HostId(1),
        from: NodeId::Host(HostId(1)),
        last: false,
        chunks: vec![Chunk {
            offset: 0,
            data: vals.iter().flat_map(|v| v.to_be_bytes()).collect(),
        }],
        ext: vec![],
    };
    encode_window_for_test(&w, program.checked.window_ext.size())
}

/// Sums every cell of every lane bank compiled from `array`.
fn state_sum(program: &CompiledProgram, pipe: &Pipeline, array: &str) -> u64 {
    let compiled = program.switch("s1").expect("s1");
    let mut sum = 0u64;
    for bank in &compiled.lane_banks[array] {
        let mut idx = 0;
        while let Some(v) = pipe.register_read(bank, idx) {
            sum = sum.wrapping_add(v.bits());
            idx += 1;
        }
    }
    sum
}

fn has_warning(program: &CompiledProgram, code: LintCode) -> bool {
    program.lint_warnings().any(|d| d.code == code)
}

fn denied_with(src: &str, masks: &[(&str, Vec<u16>)], code: LintCode) -> bool {
    let mut cfg = CompileConfig::default();
    for (k, m) in masks {
        cfg.masks.insert((*k).to_string(), m.clone());
    }
    match compile(src, AND, &cfg) {
        Err(NclcError::Lint { diagnostics, .. }) => diagnostics.iter().any(|d| d.code == code),
        _ => false,
    }
}

// ---------------------------------------------------------------------
// Replay safety: retransmission corrupts unfiltered accumulators and
// leaves replay-guarded ones exactly-once.
// ---------------------------------------------------------------------

const UNSAFE_ACCUM: &str = r#"
_net_ _at_("s1") unsigned total[4] = {0};
_net_ _out_ void tally(unsigned *data) {
    for (unsigned i = 0; i < window.len; ++i)
        total[i] += data[i];
    _reflect();
}
"#;

/// NCP-R replay trace: the same window delivered twice double-counts on
/// the lint-flagged kernel...
#[test]
fn replay_witness_unfiltered_kernel_double_counts() {
    let program = compile_allowing(
        UNSAFE_ACCUM,
        &[("tally", vec![4])],
        &[LintCode::UnguardedOverflow],
    );
    assert!(has_warning(&program, LintCode::ReplayUnsafeNoFilter));

    let mut pipe = pipeline(&program);
    let pkt = window_u32(&program, "tally", 0, &[1, 2, 3, 4]);
    pipe.process(&pkt).expect("first delivery");
    let once = state_sum(&program, &pipe, "total");
    pipe.process(&pkt).expect("retransmission");
    let twice = state_sum(&program, &pipe, "total");
    assert_eq!(once, 10);
    // The witness: a retransmitted window re-executes the update.
    assert_eq!(twice, 20, "retransmission corrupted the accumulator");
}

/// ...and claiming exactly-once (configuring a replay filter) for that
/// same kernel is a hard error, not a warning.
#[test]
fn replay_witness_filter_on_oblivious_kernel_denied() {
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("tally".into(), vec![4]);
    cfg.replay_filters.insert(
        "tally".into(),
        ReplayFilter {
            senders: 4,
            slots: 4,
        },
    );
    match compile(UNSAFE_ACCUM, AND, &cfg) {
        Err(NclcError::Lint { diagnostics, .. }) => {
            assert!(diagnostics.iter().any(|d| d.code == LintCode::ReplayUnsafe));
        }
        other => panic!("expected replay-unsafe denial, got {:?}", other.is_ok()),
    }
}

/// The replay-guarded AllReduce under the identical retransmission
/// trace: the filter detects the duplicate and the guarded kernel does
/// not re-accumulate. Zero `allow` annotations.
#[test]
fn replay_witness_guarded_allreduce_is_exactly_once() {
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("allreduce".into(), vec![4]);
    cfg.masks.insert("result".into(), vec![4]);
    cfg.replay_filters.insert(
        "allreduce".into(),
        ReplayFilter {
            senders: 4,
            slots: 4,
        },
    );
    let src = allreduce_source(16, 4);
    let program = compile(&src, AND, &cfg).expect("replay-aware kernel passes deny-by-default");
    // Replay-safe with zero allows (the unbounded `accum`/`count`
    // growth warning is real and orthogonal — §overflow below).
    assert!(!has_warning(&program, LintCode::ReplayUnsafe));
    assert!(!has_warning(&program, LintCode::ReplayUnsafeNoFilter));

    let compiled = program.switch("s1").expect("s1");
    let mut pipe = pipeline(&program);
    // Control plane: nworkers = 2, on every compiled copy.
    for copy in &compiled.ctrl_regs["nworkers"] {
        assert!(pipe.register_write(copy, 0, c3::Value::new(c3::ScalarType::U32, 2)));
    }
    let pkt = window_u32(&program, "allreduce", 0, &[1, 2, 3, 4]);
    pipe.process(&pkt).expect("first delivery");
    let once = state_sum(&program, &pipe, "accum");
    assert_eq!(once, 10);
    pipe.process(&pkt).expect("retransmission");
    let twice = state_sum(&program, &pipe, "accum");
    // The witness twin: same trace, no double-count.
    assert_eq!(twice, once, "replay filter let a duplicate re-accumulate");
}

// ---------------------------------------------------------------------
// Cross-kernel aliasing: packets of different kernels interleave
// arbitrarily; a shared array with one non-commutative writer races.
// ---------------------------------------------------------------------

const ALIASED: &str = r#"
_net_ _at_("s1") unsigned shared[4] = {0};
_net_ _out_ void bump(unsigned *data) {
    shared[0] += data[0];
    _reflect();
}
_net_ _out_ void setv(unsigned *data) {
    shared[0] = data[0];
    _reflect();
}
"#;

const COMMUTING: &str = r#"
_net_ _at_("s1") unsigned shared[4] = {0};
_net_ _out_ void bump(unsigned *data) {
    shared[0] += data[0];
    _reflect();
}
_net_ _out_ void bump2(unsigned *data) {
    shared[0] += data[0];
    _reflect();
}
"#;

/// Netsim schedule divergence: delivery order of two kernels' packets
/// decides the final state of the flagged pair, while the all-
/// commutative twin converges under both orders.
#[test]
fn alias_witness_delivery_order_diverges() {
    let masks: &[(&str, Vec<u16>)] = &[("bump", vec![1]), ("setv", vec![1])];
    assert!(denied_with(ALIASED, masks, LintCode::CrossKernelAlias));
    let program = compile_allowing(
        ALIASED,
        masks,
        &[
            LintCode::CrossKernelAlias,
            LintCode::ReplayUnsafeNoFilter,
            LintCode::UnguardedOverflow,
        ],
    );
    let run = |first: &str, second: &str| {
        let mut pipe = pipeline(&program);
        pipe.process(&window_u32(&program, first, 0, &[10]))
            .unwrap();
        pipe.process(&window_u32(&program, second, 0, &[100]))
            .unwrap();
        state_sum(&program, &pipe, "shared")
    };
    let ab = run("bump", "setv");
    let ba = run("setv", "bump");
    // The witness: 10 then =100 leaves 100; =10... here setv(100) first
    // then bump(10)?  Orders carry different payloads; recompute both
    // ways with symmetric payloads to isolate ordering.
    assert_eq!(ab, 100);
    assert_eq!(ba, 110);
    assert_ne!(ab, ba, "delivery order decided the shared state");

    // The accepted twin: both updates commute, both orders agree.
    let masks2: &[(&str, Vec<u16>)] = &[("bump", vec![1]), ("bump2", vec![1])];
    let clean = compile_allowing(
        COMMUTING,
        masks2,
        &[LintCode::ReplayUnsafeNoFilter, LintCode::UnguardedOverflow],
    );
    assert!(!has_warning(&clean, LintCode::CrossKernelAlias));
    let run2 = |first: &str, second: &str| {
        let mut pipe = pipeline(&clean);
        pipe.process(&window_u32(&clean, first, 0, &[10])).unwrap();
        pipe.process(&window_u32(&clean, second, 0, &[100]))
            .unwrap();
        state_sum(&clean, &pipe, "shared")
    };
    assert_eq!(run2("bump", "bump2"), run2("bump2", "bump"));
}

// ---------------------------------------------------------------------
// Non-atomic RMW: a store whose value crosses register banks spans
// PISA stages; a window slipping between the stages (recirculation on
// real chips) observes — and propagates — stale state.
// ---------------------------------------------------------------------

const STALE_MIRROR: &str = r#"
_net_ _at_("s1") unsigned a[4] = {0};
_net_ _at_("s1") unsigned b[4] = {0};
_net_ _out_ void mirror(unsigned *data) {
    a[0] = b[0];
    b[0] = data[0];
    _reflect();
}
"#;

const SELF_CONTAINED: &str = r#"
_net_ _at_("s1") unsigned a[4] = {0};
_net_ _out_ void bump(unsigned *data) {
    a[0] += data[0];
    _reflect();
}
"#;

/// Runs P2 to completion between stage `k-1` and stage `k` of P1 —
/// the interleaving a recirculating packet experiences on real RMT —
/// and returns the final per-array sums.
fn interleave_at(
    program: &CompiledProgram,
    kernel: &str,
    split: usize,
    arrays: &[&str],
) -> Vec<u64> {
    let mut pipe = pipeline(program);
    let cfg = pipe.config().clone();
    let p1 = window_u32(program, kernel, 0, &[10]);
    let p2 = window_u32(program, kernel, 0, &[100]);
    let (mut phv1, _): (Phv, usize) = cfg.parser.parse(&cfg.layout, &p1).expect("parses");
    for s in 0..split {
        pipe.run_stage(&mut phv1, s);
    }
    pipe.process(&p2).expect("interloper");
    for s in split..pipe.stage_count() {
        pipe.run_stage(&mut phv1, s);
    }
    arrays
        .iter()
        .map(|a| state_sum(program, &pipe, a))
        .collect()
}

/// Stage-interleaved schedule divergence: for the flagged kernel some
/// split point yields a state no serial delivery order can produce;
/// the single-bank twin is schedule-invariant.
#[test]
fn rmw_witness_stage_interleaving_observes_stale_state() {
    let masks: &[(&str, Vec<u16>)] = &[("mirror", vec![1])];
    assert!(denied_with(STALE_MIRROR, masks, LintCode::NonAtomicRmw));
    let program = compile_allowing(
        STALE_MIRROR,
        masks,
        &[LintCode::NonAtomicRmw, LintCode::ReplayUnsafeNoFilter],
    );
    // Serial outcomes, both orders (split at 0 = P2 first, split at end
    // = P2 after P1 — both fully serial).
    let serial12 = interleave_at(
        &program,
        "mirror",
        pipeline(&program).stage_count(),
        &["a", "b"],
    );
    let serial21 = interleave_at(&program, "mirror", 0, &["a", "b"]);
    assert_eq!(serial12, vec![10, 100]);
    assert_eq!(serial21, vec![100, 10]);

    // The witness: some mid-pipeline split produces a third state —
    // P1 wrote `a` from the value of `b` it read before P2 ran.
    let diverged = (1..pipeline(&program).stage_count()).any(|k| {
        let s = interleave_at(&program, "mirror", k, &["a", "b"]);
        s != serial12 && s != serial21
    });
    assert!(
        diverged,
        "no interleaving diverged; the RMW did not span stages"
    );

    // The accepted twin: one bank, one stage, every schedule serializes.
    let clean = compile_allowing(
        SELF_CONTAINED,
        &[("bump", vec![1])],
        &[LintCode::ReplayUnsafeNoFilter, LintCode::UnguardedOverflow],
    );
    assert!(!has_warning(&clean, LintCode::NonAtomicRmw));
    let total = pipeline(&clean).stage_count();
    for k in 0..=total {
        assert_eq!(
            interleave_at(&clean, "bump", k, &["a"]),
            vec![110],
            "commutative single-bank update must be schedule-invariant"
        );
    }
}

// ---------------------------------------------------------------------
// Unguarded overflow: monotonic 32-bit accumulators wrap silently; a
// value-guarded reset keeps them bounded.
// ---------------------------------------------------------------------

const WRAPPING: &str = r#"
_net_ _at_("s1") unsigned total[1] = {0};
_net_ _out_ void tally(unsigned *data) {
    total[0] += data[0];
    _reflect();
}
"#;

const GUARDED: &str = r#"
_net_ _at_("s1") unsigned total[1] = {0};
_net_ _out_ void tally(unsigned *data) {
    if (total[0] > 1000) total[0] = 0;
    total[0] += data[0];
    _reflect();
}
"#;

#[test]
fn overflow_witness_accumulator_wraps_backwards() {
    let masks: &[(&str, Vec<u16>)] = &[("tally", vec![1])];
    let program = compile_allowing(WRAPPING, masks, &[]);
    assert!(has_warning(&program, LintCode::UnguardedOverflow));
    let mut pipe = pipeline(&program);
    let big = window_u32(&program, "tally", 0, &[0xC000_0000]);
    pipe.process(&big).unwrap();
    let once = state_sum(&program, &pipe, "total");
    pipe.process(&big).unwrap();
    let twice = state_sum(&program, &pipe, "total");
    assert_eq!(once, 0xC000_0000);
    // The witness: the monotonic counter went *backwards*.
    assert_eq!(twice, 0x8000_0000);
    assert!(twice < once, "wrap must be observable as regression");

    let guarded = compile_allowing(GUARDED, masks, &[]);
    assert!(!has_warning(&guarded, LintCode::UnguardedOverflow));
    let mut pipe = pipeline(&guarded);
    let step = window_u32(&guarded, "tally", 0, &[600]);
    let mut prev = 0u64;
    for _ in 0..5 {
        pipe.process(&step).unwrap();
        let now = state_sum(&guarded, &pipe, "total");
        assert!(now <= 1600, "guarded accumulator stays bounded");
        // Bounded, and any decrease is the guard firing, not a wrap.
        if now < prev {
            assert_eq!(now, 600);
        }
        prev = now;
    }
}

// ---------------------------------------------------------------------
// ncmc rediscovery: the bounded model checker re-finds every
// hand-written witness above (no longer than 2 deliveries, the length
// of the hand-picked schedules) and certifies every accepted twin.
// The kernels compile with the lint allowed, so the checker is driven
// by `(code, kernel, array)` directly via `mc::check_code`.
// ---------------------------------------------------------------------

fn adjudicate(
    program: &CompiledProgram,
    code: LintCode,
    kernel: &str,
    state: Option<&str>,
) -> ncl::core::mc::McItem {
    ncl::core::mc::check_code(program, "s1", code, kernel, state, &McConfig::default())
        .expect("scenario builds")
        .expect("code is schedule-checkable")
}

fn expect_witness(item: &ncl::core::mc::McItem) -> ncl::ncmc::WitnessReport {
    match &item.result.outcome {
        Outcome::Witness(w) => w.clone(),
        _ => panic!("expected a counterexample, got: {}", item.summary()),
    }
}

fn expect_certificate(item: &ncl::core::mc::McItem) -> ncl::ncmc::Certificate {
    match &item.result.outcome {
        Outcome::Certificate(c) => c.clone(),
        _ => panic!("expected a certificate, got: {}", item.summary()),
    }
}

/// Replay hazard: ncmc re-finds the retransmission double-count on the
/// unfiltered accumulator with a schedule no longer than the
/// hand-written one (deliver, retransmit, deliver again).
#[test]
fn ncmc_rediscovers_replay_witness() {
    let program = compile_allowing(
        UNSAFE_ACCUM,
        &[("tally", vec![4])],
        &[LintCode::UnguardedOverflow],
    );
    let item = adjudicate(
        &program,
        LintCode::ReplayUnsafeNoFilter,
        "tally",
        Some("total"),
    );
    let w = expect_witness(&item);
    assert!(
        w.deliveries <= 2,
        "machine witness ({} deliveries) must not exceed the hand-written schedule (2)",
        w.deliveries
    );
    assert!(
        !w.expected.contains(&w.got),
        "witness terminal state must lie outside every serial reference"
    );
}

/// Cross-kernel alias: ncmc re-finds the order divergence between
/// `bump` and `setv`, and certifies the all-commutative twin.
#[test]
fn ncmc_rediscovers_alias_witness_and_certifies_commuting_twin() {
    let masks: &[(&str, Vec<u16>)] = &[("bump", vec![1]), ("setv", vec![1])];
    let program = compile_allowing(
        ALIASED,
        masks,
        &[
            LintCode::CrossKernelAlias,
            LintCode::ReplayUnsafeNoFilter,
            LintCode::UnguardedOverflow,
        ],
    );
    let item = adjudicate(&program, LintCode::CrossKernelAlias, "bump", Some("shared"));
    let w = expect_witness(&item);
    assert_eq!(
        w.deliveries, 2,
        "order divergence needs exactly the two hand-written deliveries"
    );

    let masks2: &[(&str, Vec<u16>)] = &[("bump", vec![1]), ("bump2", vec![1])];
    let clean = compile_allowing(
        COMMUTING,
        masks2,
        &[LintCode::ReplayUnsafeNoFilter, LintCode::UnguardedOverflow],
    );
    let item = adjudicate(&clean, LintCode::CrossKernelAlias, "bump", Some("shared"));
    let cert = expect_certificate(&item);
    assert_eq!(cert.property, "order-invariant");
    assert!(cert.stats.schedules > 0);
}

/// Non-atomic RMW: ncmc re-finds the stage-interleaving on the
/// two-bank `mirror` kernel — the witness must contain a `split` step —
/// and certifies the single-bank twin schedule-invariant.
#[test]
fn ncmc_rediscovers_rmw_witness_and_certifies_single_bank_twin() {
    let masks: &[(&str, Vec<u16>)] = &[("mirror", vec![1])];
    let program = compile_allowing(
        STALE_MIRROR,
        masks,
        &[LintCode::NonAtomicRmw, LintCode::ReplayUnsafeNoFilter],
    );
    let item = adjudicate(&program, LintCode::NonAtomicRmw, "mirror", Some("a"));
    let w = expect_witness(&item);
    assert!(w.deliveries <= 2, "hand-written witness uses 2 deliveries");
    assert!(
        w.schedule.render().contains("split"),
        "a non-atomic RMW witness must tear a delivery mid-pipeline:\n{}",
        w.schedule.render()
    );

    let clean = compile_allowing(
        SELF_CONTAINED,
        &[("bump", vec![1])],
        &[LintCode::ReplayUnsafeNoFilter, LintCode::UnguardedOverflow],
    );
    let item = adjudicate(&clean, LintCode::NonAtomicRmw, "bump", Some("a"));
    expect_certificate(&item);
}

/// Unguarded overflow: ncmc re-finds the backwards wrap with two
/// near-max deliveries and certifies the value-guarded twin.
#[test]
fn ncmc_rediscovers_overflow_witness_and_certifies_guarded_twin() {
    let masks: &[(&str, Vec<u16>)] = &[("tally", vec![1])];
    let program = compile_allowing(WRAPPING, masks, &[]);
    let item = adjudicate(
        &program,
        LintCode::UnguardedOverflow,
        "tally",
        Some("total"),
    );
    let w = expect_witness(&item);
    assert_eq!(
        w.deliveries, 2,
        "wrap needs the two hand-written deliveries"
    );

    let guarded = compile_allowing(GUARDED, masks, &[]);
    let item = adjudicate(
        &guarded,
        LintCode::UnguardedOverflow,
        "tally",
        Some("total"),
    );
    let cert = expect_certificate(&item);
    assert_eq!(cert.property, "no-regression");
}

/// The replay-guarded AllReduce is certified exactly-once under the
/// same duplication domain that breaks the unfiltered accumulator.
#[test]
fn ncmc_certifies_filtered_allreduce_replay_safe() {
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("allreduce".into(), vec![4]);
    cfg.masks.insert("result".into(), vec![4]);
    cfg.replay_filters.insert(
        "allreduce".into(),
        ReplayFilter {
            senders: 4,
            slots: 4,
        },
    );
    let src = allreduce_source(16, 4);
    let program = compile(&src, AND, &cfg).expect("compiles");
    let item = adjudicate(&program, LintCode::ReplayUnsafe, "allreduce", Some("accum"));
    let cert = expect_certificate(&item);
    assert_eq!(cert.property, "serializable");
    assert!(
        cert.stats.schedules > 1,
        "duplication domain must cover retransmission schedules"
    );
}

// ---------------------------------------------------------------------
// Resource figures: the per-kernel view of the pipeline that was built,
// on every example kernel.
// ---------------------------------------------------------------------

#[test]
fn estimator_agrees_with_actual_mapping_on_example_kernels() {
    type Masks = Vec<(&'static str, Vec<u16>)>;
    let allreduce_masks: Masks = vec![("allreduce", vec![8]), ("result", vec![8])];
    let kvs_masks: Masks = vec![("query", vec![1, 8, 1])];
    let cases: Vec<(String, Masks, Option<ReplayFilter>)> = vec![
        (
            allreduce_source(64, 8),
            allreduce_masks,
            Some(ReplayFilter {
                senders: 4,
                slots: 8,
            }),
        ),
        (kvs_source(2, 8, 1), kvs_masks, None),
        (UNSAFE_ACCUM.to_string(), vec![("tally", vec![4])], None),
        (GUARDED.to_string(), vec![("tally", vec![1])], None),
    ];
    for (src, masks, filter) in cases {
        let mut cfg = CompileConfig::default();
        let first = masks[0].0;
        for (k, m) in &masks {
            cfg.masks.insert((*k).to_string(), m.clone());
        }
        if let Some(f) = filter {
            cfg.replay_filters.insert(first.to_string(), f);
        }
        // Witness tests above cover the hazards; here only feasibility.
        for &c in LintCode::ALL {
            cfg.lint_levels.insert(c, LintLevel::Allow);
        }
        let program = compile(&src, AND, &cfg).expect("compiles");
        let est = program.estimate("s1").expect("estimate for s1");
        let actual = program.switch("s1").expect("s1");

        // The module figures are the mapped pipeline's, exactly.
        let report = &actual.report;
        assert_eq!(est.pipeline_stages, report.stages_used, "'{first}'");
        assert_eq!(est.phv_header_bytes, report.phv_header_bytes, "'{first}'");
        assert_eq!(
            est.phv_metadata_bytes, report.phv_metadata_bytes,
            "'{first}'"
        );
        assert_eq!(est.sram_by_stage, report.sram_by_stage, "'{first}'");
        // The per-kernel shares add up to them, control-variable copies
        // included.
        let kernel_sram: usize = est.kernels.iter().map(|k| k.sram_bytes).sum();
        let sram: usize = report.sram_by_stage.iter().sum();
        assert_eq!(kernel_sram, sram, "kernel set '{first}'");
        let widest = est.kernels.iter().map(|k| k.stages).max().unwrap_or(0);
        assert_eq!(widest + 1, report.stages_used, "kernel set '{first}'");
    }
}
