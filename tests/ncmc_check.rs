//! Integration tests for `ncmc` via the `core::mc` driver: scenario
//! construction from compiled programs, witness/certificate
//! adjudication for the shipped apps, shrink determinism under random
//! exploration orders, byte-stable corpus entries, corpus replay
//! against a deliberately broken kernel, and the deploy-time
//! model-check gate.
//!
//! Corpus files live in `tests/corpus/ncmc/*.schedule` (see the
//! retention policy in `tests/corpus/shared.proptest-regressions`).
//! Regenerate them after an intentional checker change with:
//!
//! ```text
//! cargo test --test ncmc_check mint_corpus -- --ignored
//! ```

use ncl::core::apps::{allreduce_source, kvs_source};
use ncl::core::deploy::{deploy_opts, DeployError, DeployOptions};
use ncl::core::mc::{self, McConfig, McItem};
use ncl::core::nclc::{compile, CompileConfig, CompiledProgram, LintCode, LintLevel, ReplayFilter};
use ncl::core::runtime::NclHost;
use ncl::ncmc::{
    corpus_entry, corpus_file_name, replay_violates, Outcome, Reduction, ReplayError, Schedule,
    Stats, Step, WitnessReport,
};
use ncl::netsim::HostApp;
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;

const AND: &str = "hosts worker 2\nswitch s1\nlink worker* s1\n";

// The flagged kernels the hand-written lint witnesses use
// (tests/lint_witness.rs) — the corpus schedules are minted on these.

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

const UNSAFE_ACCUM: &str = r#"
_net_ _at_("s1") unsigned total[4] = {0};
_net_ _out_ void tally(unsigned *data) {
    for (unsigned i = 0; i < window.len; ++i)
        total[i] += data[i];
    _reflect();
}
"#;

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

const STALE_MIRROR: &str = r#"
_net_ _at_("s1") unsigned a[4] = {0};
_net_ _at_("s1") unsigned b[4] = {0};
_net_ _out_ void mirror(unsigned *data) {
    a[0] = b[0];
    b[0] = data[0];
    _reflect();
}
"#;

fn compile_allowing(src: &str, masks: &[(&str, Vec<u16>)]) -> CompiledProgram {
    compile_allowing_on(src, masks, ncl::pisa::ResourceModel::default())
}

fn compile_allowing_on(
    src: &str,
    masks: &[(&str, Vec<u16>)],
    model: ncl::pisa::ResourceModel,
) -> CompiledProgram {
    let mut cfg = CompileConfig {
        model,
        ..CompileConfig::default()
    };
    for (k, m) in masks {
        cfg.masks.insert((*k).to_string(), m.clone());
    }
    for &c in LintCode::ALL {
        cfg.lint_levels.insert(c, LintLevel::Allow);
    }
    compile(src, AND, &cfg).expect("compiles with lints allowed")
}

/// The shipped AllReduce (Fig. 4), replay-filtered as deployed.
fn allreduce_program(filtered: bool) -> CompiledProgram {
    let src = allreduce_source(8, 4);
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("allreduce".into(), vec![4]);
    cfg.masks.insert("result".into(), vec![4]);
    if filtered {
        cfg.replay_filters.insert(
            "allreduce".into(),
            ReplayFilter {
                senders: 4,
                slots: 4,
            },
        );
    } else {
        // Unfiltered accumulation is replay-hazardous by design: keep
        // compiling (the deploy gate is what must refuse it).
        cfg.lint_levels
            .insert(LintCode::ReplayUnsafeNoFilter, LintLevel::Warn);
    }
    compile(&src, AND, &cfg).expect("allreduce compiles")
}

/// The shipped KVS (Fig. 5).
fn kvs_program() -> CompiledProgram {
    let src = kvs_source(3, 4, 2);
    let and = "hosts client 2\nswitch s1\nhost server\nlink client* s1\nlink server s1\n";
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("query".into(), vec![1, 2, 1]);
    compile(&src, and, &cfg).expect("kvs compiles")
}

/// The four corpus scenarios: (file-kernel source, masks, code, kernel,
/// array).
type Scenario = (
    &'static str,
    Vec<(&'static str, Vec<u16>)>,
    LintCode,
    &'static str,
    &'static str,
);

fn corpus_scenarios() -> Vec<Scenario> {
    vec![
        (
            WRAPPING,
            vec![("tally", vec![1])],
            LintCode::UnguardedOverflow,
            "tally",
            "total",
        ),
        (
            UNSAFE_ACCUM,
            vec![("tally", vec![4])],
            LintCode::ReplayUnsafeNoFilter,
            "tally",
            "total",
        ),
        (
            ALIASED,
            vec![("bump", vec![1]), ("setv", vec![1])],
            LintCode::CrossKernelAlias,
            "bump",
            "shared",
        ),
        (
            STALE_MIRROR,
            vec![("mirror", vec![1])],
            LintCode::NonAtomicRmw,
            "mirror",
            "a",
        ),
    ]
}

fn adjudicate(program: &CompiledProgram, code: LintCode, kernel: &str, state: &str) -> McItem {
    mc::check_code(
        program,
        "s1",
        code,
        kernel,
        Some(state),
        &McConfig::default(),
    )
    .expect("scenario builds")
    .expect("schedule-checkable")
}

fn expect_witness(item: &McItem) -> WitnessReport {
    match &item.result.outcome {
        Outcome::Witness(w) => w.clone(),
        _ => panic!("expected a counterexample, got: {}", item.summary()),
    }
}

/// What an exploration walked, apart from `probe_execs` (the steps DPOR
/// executed to decide commutation are a cost, not part of the search).
fn search(s: &Stats) -> [u64; 6] {
    [
        s.states,
        s.edges,
        s.terminals,
        s.schedules,
        s.dedup_hits,
        s.sleep_skips,
    ]
}

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/ncmc")
}

// ---------------------------------------------------------------------
// Shipped apps: both get bounded-absence convergence certificates.
// ---------------------------------------------------------------------

#[test]
fn allreduce_filtered_is_certified_convergent() {
    let program = allreduce_program(true);
    let report = mc::model_check_switch(&program, "s1", &McConfig::default()).expect("runs");
    let conv = report.convergence().expect("convergence item");
    assert!(
        conv.result.outcome.is_certificate(),
        "filtered allreduce must converge: {}",
        conv.summary()
    );
    assert_eq!(
        search(&conv.result.stats),
        [49_275, 57_233, 253, 253, 7_959, 137_478],
        "the certificate must rest on the same search"
    );
    // What deciding commutation cost: 685,713 steps when every pair was
    // probed by execution, 99,367 once the step kinds decided most of
    // them, and fewer again now that a probe reuses the successors the
    // search already built.
    assert_eq!(
        conv.result.stats.probe_execs, 62_190,
        "DPOR probes only the pairs the step kinds leave open, reusing successors"
    );
    assert!(report.conclusive(), "no check may hit the state cap");
    // The surviving unguarded-overflow warning on `accum` is real: the
    // checker finds the wrap schedule the lint predicted.
    let wrap = report
        .items
        .iter()
        .find(|i| i.code == Some(LintCode::UnguardedOverflow) && i.result.outcome.is_witness())
        .expect("overflow warning gets a machine witness");
    assert_eq!(expect_witness(wrap).deliveries, 2);
}

#[test]
fn kvs_is_certified_convergent() {
    let program = kvs_program();
    let report = mc::model_check_switch(&program, "s1", &McConfig::default()).expect("runs");
    let conv = report.convergence().expect("convergence item");
    assert!(
        conv.result.outcome.is_certificate(),
        "kvs must converge: {}",
        conv.summary()
    );
    assert_eq!(
        search(&conv.result.stats),
        [24_026, 32_020, 58, 58, 7_995, 81_590],
        "the certificate must rest on the same search"
    );
    // 454,012 when every pair was probed, 66,036 before probes reused
    // the search's successors.
    assert_eq!(
        conv.result.stats.probe_execs, 42_373,
        "DPOR probes only the pairs the step kinds leave open, reusing successors"
    );
    assert!(report.conclusive(), "no check may hit the state cap");
}

/// Four kernels all commutatively bumping one shared cell: the
/// cross-kernel-alias lint flags the sharing, and the checker's alias
/// scenario interleaves the flagged kernel with every writing partner
/// — four windows, pure reorderings. Rich enough interleaving space
/// for the reduction ablation, small enough for naive ground truth.
const COMMUTING4: &str = r#"
_net_ _at_("s1") unsigned shared[4] = {0};
_net_ _out_ void bump(unsigned *data) {
    shared[0] += data[0];
    _reflect();
}
_net_ _out_ void bump2(unsigned *data) {
    shared[0] += data[0];
    _reflect();
}
_net_ _out_ void bump3(unsigned *data) {
    shared[0] += data[0];
    _reflect();
}
_net_ _out_ void bump4(unsigned *data) {
    shared[0] += data[0];
    _reflect();
}
"#;

/// DPOR earns its keep (E15 gate 3): on the compiled four-kernel
/// commuting-alias program every reduction reaches the *identical
/// certificate* at identical bounds, and sleep-set DPOR completes at
/// least 5x fewer maximal schedules than the naive ground-truth
/// enumeration — (2·4)!/2⁴ = 2,520 interleavings of four
/// deliver→respond pairs against one.
#[test]
fn dpor_reaches_the_naive_verdict_with_5x_fewer_schedules() {
    // A roomier stateful-ALU budget: eight accesses to `shared` across
    // the four fused RegisterActions (the scenario needs the kernels
    // co-resident, not a placement stress test).
    let model = ncl::pisa::ResourceModel {
        reg_accesses_per_pass: 16,
        ..Default::default()
    };
    let masks: Vec<(&str, Vec<u16>)> = ["bump", "bump2", "bump3", "bump4"]
        .map(|k| (k, vec![1]))
        .to_vec();
    let program = compile_allowing_on(COMMUTING4, &masks, model);
    let runs = [Reduction::Naive, Reduction::Dedup, Reduction::Dpor].map(|reduction| {
        let cfg = McConfig {
            reduction,
            model,
            ..McConfig::default()
        };
        let code = LintCode::CrossKernelAlias;
        let item = mc::check_code(&program, "s1", code, "bump", Some("shared"), &cfg)
            .expect("check runs")
            .expect("alias is schedule-checkable");
        let Outcome::Certificate(mut cert) = item.result.outcome else {
            panic!(
                "{}: commuting kernels must certify order-invariant: {}",
                reduction.name(),
                item.summary()
            );
        };
        // What was proven, apart from how the search got there.
        let stats = std::mem::take(&mut cert.stats);
        cert.reduction = "";
        (cert, stats)
    });
    let [(proven, naive), (dedup_proven, dedup), (dpor_proven, dpor)] = runs;
    assert_eq!(
        (proven.property.as_str(), proven.windows),
        ("order-invariant", 4)
    );
    assert_eq!(dedup_proven, proven, "dedup certifies the same obligation");
    assert_eq!(dpor_proven, proven, "dpor certifies the same obligation");
    assert_eq!(
        naive.schedules, 2_520,
        "naive enumerates every interleaving"
    );
    assert!(
        naive.schedules >= 5 * dpor.schedules,
        "DPOR must prune >= 5x the naive schedule count ({} vs {})",
        naive.schedules,
        dpor.schedules
    );
    // E15's ablation table: what each reduction walks is pinned, not
    // only what it concludes.
    assert_eq!((dedup.states, dpor.states), (396, 396));
    assert_eq!(dpor.sleep_skips, 544);
    // 3,096 when every pair was probed, 120 before probes reused the
    // search's successors.
    assert_eq!(dpor.probe_execs, 60);
}

// ---------------------------------------------------------------------
// Shrink determinism: the canonical minimal witness is independent of
// the exploration order that discovered the (non-minimal) first one.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn shrunk_witness_independent_of_exploration_order(seed in any::<u64>()) {
        let program = compile_allowing(WRAPPING, &[("tally", vec![1])]);
        let base = adjudicate(&program, LintCode::UnguardedOverflow, "tally", "total");
        let canonical = expect_witness(&base).schedule.render();
        let cfg = McConfig {
            order_seed: Some(seed),
            ..McConfig::default()
        };
        let seeded = mc::check_code(
            &program, "s1", LintCode::UnguardedOverflow, "tally", Some("total"), &cfg,
        )
        .expect("scenario builds")
        .expect("checkable");
        let shuffled = expect_witness(&seeded).schedule.render();
        prop_assert_eq!(canonical, shuffled);
    }
}

// ---------------------------------------------------------------------
// Corpus: byte-stable entries, hash-deduped names, replay semantics.
// ---------------------------------------------------------------------

/// Every committed corpus entry is regenerated bit-for-bit from a fresh
/// model-checking run — file name (schedule-hash-keyed) and contents.
#[test]
fn corpus_entries_are_byte_stable() {
    let mut names = Vec::new();
    for (src, masks, code, kernel, state) in corpus_scenarios() {
        let program = compile_allowing(src, &masks);
        let item = adjudicate(&program, code, kernel, state);
        let w = expect_witness(&item);
        let name = corpus_file_name(Some(code), kernel, &w.schedule);
        let entry = corpus_entry("program@s1", Some(code), kernel, item.property, &w);
        let path = corpus_dir().join(&name);
        let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "corpus entry {} missing ({e}); regenerate with \
                 `cargo test --test ncmc_check mint_corpus -- --ignored`",
                path.display()
            )
        });
        assert_eq!(
            committed, entry,
            "corpus entry {name} drifted from the checker's output"
        );
        names.push(name);
    }
    names.sort();
    names.dedup();
    assert_eq!(names.len(), 4, "scenario witnesses must not collide");
    // ...and the directory holds nothing else: no stale entry survives
    // a checker change unnoticed.
    let mut committed: Vec<String> = std::fs::read_dir(corpus_dir())
        .expect("corpus directory")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    committed.sort();
    assert_eq!(committed, names, "tests/corpus/ncmc holds exactly these");
}

/// Re-discovery under a shuffled exploration order mints the *same*
/// file name: corpus dedup is by schedule hash, not by discovery path.
#[test]
fn corpus_names_dedup_by_schedule_hash() {
    let program = compile_allowing(UNSAFE_ACCUM, &[("tally", vec![4])]);
    let code = LintCode::ReplayUnsafeNoFilter;
    let base = adjudicate(&program, code, "tally", "total");
    let cfg = McConfig {
        order_seed: Some(0xDEAD_BEEF),
        ..McConfig::default()
    };
    let seeded = mc::check_code(&program, "s1", code, "tally", Some("total"), &cfg)
        .expect("scenario builds")
        .expect("checkable");
    let a = corpus_file_name(Some(code), "tally", &expect_witness(&base).schedule);
    let b = corpus_file_name(Some(code), "tally", &expect_witness(&seeded).schedule);
    assert_eq!(a, b, "same minimal schedule must dedup to one file");
}

/// A committed schedule keeps failing on the kernel it was minted
/// against and does *not* fail on the fixed twin: the corpus is a
/// regression suite, not a souvenir.
#[test]
fn corpus_schedule_fails_on_broken_kernel_and_passes_on_fixed() {
    let broken = compile_allowing(WRAPPING, &[("tally", vec![1])]);
    let code = LintCode::UnguardedOverflow;
    let item = adjudicate(&broken, code, "tally", "total");
    let name = corpus_file_name(Some(code), "tally", &expect_witness(&item).schedule);
    let text = std::fs::read_to_string(corpus_dir().join(&name)).expect("committed entry");
    let schedule = Schedule::parse(&text).expect("parses");

    let cfg = McConfig::default();
    let (mut sys, check) = mc::scenario_for(&broken, "s1", code, "tally", Some("total"), &cfg)
        .expect("builds")
        .expect("checkable");
    assert_eq!(
        replay_violates(&mut sys, &check, &schedule),
        Ok(true),
        "corpus schedule no longer breaks the flagged kernel"
    );

    // The value-guarded twin under the *identical* schedule: bounded.
    let fixed = compile_allowing(GUARDED, &[("tally", vec![1])]);
    let (mut sys, check) = mc::scenario_for(&fixed, "s1", code, "tally", Some("total"), &cfg)
        .expect("builds")
        .expect("checkable");
    assert_eq!(
        replay_violates(&mut sys, &check, &schedule),
        Ok(false),
        "guarded kernel must survive the broken kernel's schedule"
    );
}

/// A hand-edited corpus file is answered with the line that does not
/// fit, never with a panic inside the checker: every committed schedule
/// is replayed with each line deleted, duplicated, and its id bumped,
/// with a split at a stage the pipeline does not have, and with a drop
/// the budget does not cover.
#[test]
fn hand_edited_corpus_schedules_are_errors_not_panics() {
    let cfg = McConfig::default();
    for (src, masks, code, kernel, state) in corpus_scenarios() {
        let program = compile_allowing(src, &masks);
        let item = adjudicate(&program, code, kernel, state);
        let name = corpus_file_name(Some(code), kernel, &expect_witness(&item).schedule);
        let text = std::fs::read_to_string(corpus_dir().join(&name)).expect("committed entry");
        let (mut sys, check) = mc::scenario_for(&program, "s1", code, kernel, Some(state), &cfg)
            .expect("builds")
            .expect("checkable");
        let mut replay = |lines: &[String]| {
            let schedule = Schedule::parse(&lines.join("\n")).expect("still in the grammar");
            replay_violates(&mut sys, &check, &schedule)
        };
        let lines: Vec<String> = text.lines().map(str::to_string).collect();
        let body = lines.iter().position(|l| !l.starts_with('#')).unwrap();
        assert_eq!(replay(&lines), Ok(true), "{name} as committed");
        for i in body..lines.len() {
            // A deleted line may leave a shorter schedule that still
            // fits (its last line always does); it must only not panic.
            let mut deleted = lines.clone();
            deleted.remove(i);
            let _ = replay(&deleted);

            // No step can be taken twice except a clock tick.
            let mut doubled = lines.clone();
            doubled.insert(i, lines[i].clone());
            let twice = replay(&doubled);
            if lines[i] != "tick" {
                let step = Step::parse(&lines[i]).unwrap();
                let line = i - body + 2;
                assert_eq!(
                    twice,
                    Err(ReplayError { line, step }),
                    "{name}: {doubled:?}"
                );
            }

            // The next id up is a copy that is not in flight there, or
            // takes the place of one a later line then asks for.
            let up = match Step::parse(&lines[i]).unwrap() {
                Step::Deliver(c) => Step::Deliver(c + 1),
                Step::Split(c, k) => Step::Split(c + 1, k),
                Step::DeliverResp(r) => Step::DeliverResp(r + 1),
                Step::DropData(c) => Step::DropData(c + 1),
                Step::DropResp(r) => Step::DropResp(r + 1),
                Step::Resume | Step::Tick => continue,
            };
            let mut bumped = lines.clone();
            bumped[i] = up.render();
            let err = replay(&bumped).expect_err(&format!("{name}: {bumped:?}"));
            assert!(err.line > i - body, "{name}: {err}");
        }
        // c0 is in flight at the start of every scenario; stage 999 is
        // not a split point of any pipeline (nor a split in every
        // domain).
        let mut split = lines.clone();
        split.insert(body, "split c0@999".into());
        let err = replay(&split).expect_err("no such stage");
        assert_eq!((err.line, err.step), (1, Step::Split(0, 999)));
        assert_eq!(
            err.to_string(),
            "schedule line 1: `split c0@999` is not enabled"
        );
        // A drop the budget does not cover. Where the domain has loss
        // the committed schedule spends the one drop and r1 is in flight
        // at its last line, so only the budget refuses a second; where
        // it has none, the first is refused.
        let mut dropped = lines.clone();
        let line = if lines.iter().any(|l| l.starts_with("drop")) {
            *dropped.last_mut().unwrap() = "drop r1".into();
            lines.len() - body
        } else {
            dropped.insert(body, "drop c0".into());
            1
        };
        let err = replay(&dropped).expect_err("over the drop budget");
        assert_eq!(err.line, line, "{name}: {err}");
        assert!(
            matches!(err.step, Step::DropData(0) | Step::DropResp(1)),
            "{name}: {err}"
        );
        // Text outside the grammar never reaches the replay.
        assert!(Schedule::parse(&format!("{text}deliver c0 twice\n")).is_err());
    }
}

/// Regenerates every committed corpus entry (run explicitly after an
/// intentional checker change; CI asserts byte-stability against the
/// committed files).
#[test]
#[ignore = "corpus minting tool, not a test: writes tests/corpus/ncmc"]
fn mint_corpus() {
    std::fs::create_dir_all(corpus_dir()).expect("corpus dir");
    for (src, masks, code, kernel, state) in corpus_scenarios() {
        let program = compile_allowing(src, &masks);
        let item = adjudicate(&program, code, kernel, state);
        let w = expect_witness(&item);
        let name = corpus_file_name(Some(code), kernel, &w.schedule);
        let entry = corpus_entry("program@s1", Some(code), kernel, item.property, &w);
        std::fs::write(corpus_dir().join(&name), entry).expect("write entry");
        println!("minted {name}");
    }
}

// ---------------------------------------------------------------------
// Deploy gate: a convergence witness refuses deployment; a certified
// program deploys with the reports on record.
// ---------------------------------------------------------------------

fn worker_apps(program: &CompiledProgram) -> HashMap<String, Box<dyn HostApp>> {
    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    for w in 1..=2 {
        apps.insert(format!("worker{w}"), Box::new(NclHost::new(program)));
    }
    apps
}

#[test]
fn deploy_gate_refuses_divergent_program() {
    let program = allreduce_program(false);
    let opts = DeployOptions {
        model_check: Some(McConfig::default()),
        ..DeployOptions::default()
    };
    match deploy_opts(&program, worker_apps(&program), opts) {
        Err(DeployError::ModelCheck {
            label, schedule, ..
        }) => {
            assert_eq!(label, "s1");
            assert!(
                schedule.lines().count() >= 2,
                "refusal must carry the counterexample schedule:\n{schedule}"
            );
        }
        Err(other) => panic!("expected ModelCheck refusal, got: {other}"),
        Ok(_) => panic!("unfiltered allreduce must not pass the model-check gate"),
    }
}

#[test]
fn deploy_gate_passes_certified_program_and_records_reports() {
    let program = allreduce_program(true);
    let opts = DeployOptions {
        model_check: Some(McConfig::default()),
        ..DeployOptions::default()
    };
    let dep = deploy_opts(&program, worker_apps(&program), opts).expect("certified deploys");
    assert_eq!(dep.mc_reports.len(), 1);
    let report = &dep.mc_reports[0];
    assert_eq!(report.location, "s1");
    assert!(report
        .convergence()
        .expect("convergence item")
        .result
        .outcome
        .is_certificate());
}
