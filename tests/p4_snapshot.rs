//! The switch backend's output, pinned for the three programs the
//! benchmark compiles at workload size. The allocator and the staging
//! around it may get faster; the P4 they produce may not change, and
//! this is where that is checked rather than asserted.
//!
//! The values were taken at the commit before the allocator was made
//! linear, whose only run-to-run difference — the order of the
//! `// lane split:` header comments, then a `HashMap` walk — was put in
//! register declaration order first.

use ncl::core::apps::{allreduce_source, kvs_source};
use ncl::core::nclc::{compile, CompileConfig, ReplayFilter};
use ncl::ir::hash::fnv64;
use ncl::p4::p4emit::effective_lines;
use ncl::pisa::ResourceModel;

/// ncbench's chip (`benchmark/src/compile.rs`): wide windows must stay
/// compilable.
fn chip() -> ResourceModel {
    ResourceModel {
        stages: 64,
        ops_per_stage: 8192,
        phv_header_bytes: 1 << 14,
        phv_metadata_bytes: 1 << 14,
        sram_bytes_per_stage: 64 << 20,
        ..ResourceModel::default()
    }
}

/// `(effective lines, FNV-1a of the source, stages)` of the one switch.
fn snapshot(src: &str, and: &str, cfg: &CompileConfig) -> (usize, u64, usize) {
    let program = compile(src, and, cfg).expect("compiles");
    let s1 = program.switch("s1").expect("one switch");
    let estimate = program.estimate("s1").expect("estimated");
    assert_eq!(estimate.pipeline_stages, s1.report.stages_used);
    (
        effective_lines(&s1.p4_source),
        fnv64(s1.p4_source.as_bytes()),
        s1.report.stages_used,
    )
}

/// The NCP-R allreduce of `ar_w64` / `ar_w1024`.
fn allreduce(elements: usize, win: usize) -> (usize, u64, usize) {
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("allreduce".into(), vec![win as u16]);
    cfg.masks.insert("result".into(), vec![win as u16]);
    cfg.model = chip();
    cfg.replay_filters.insert(
        "allreduce".into(),
        ReplayFilter {
            senders: 4,
            slots: (elements / win) as u16,
        },
    );
    snapshot(
        &allreduce_source(elements, win),
        "hosts worker 4\nswitch s1\nlink worker* s1\n",
        &cfg,
    )
}

#[test]
fn ar_w64_p4_is_the_parents() {
    assert_eq!(allreduce(16_384, 64), (1_283, 12872970009239827264, 14));
}

#[test]
fn ar_w1024_p4_is_the_parents() {
    assert_eq!(allreduce(65_536, 1_024), (15_683, 10796738790641630724, 14));
}

#[test]
fn kvs_zipf_p4_is_the_parents() {
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("query".into(), vec![1, 8, 1]);
    cfg.model = chip();
    let and = "hosts client 4\nswitch s1\nhost server\nlink client* s1\nlink server s1\n";
    assert_eq!(
        snapshot(&kvs_source(5, 64, 8), and, &cfg),
        (464, 17779799756095325481, 14)
    );
}

/// The two backend transformations DESIGN §8 documents are each
/// load-bearing (EXPERIMENTS §E6c): restaged without lane splitting,
/// either example app collapses its per-element register accesses onto
/// one bank and is rejected on the stateful micro-op budget; restaged
/// without gateway predicate chaining it still fits, but deeper.
#[test]
fn example_apps_need_lane_splitting_and_gateway_chaining() {
    use ncl::p4::{compile_module, CompileOptions};
    let mut ar = CompileConfig::default();
    ar.masks.insert("allreduce".into(), vec![8]);
    ar.masks.insert("result".into(), vec![8]);
    let mut kvs = CompileConfig::default();
    kvs.masks.insert("query".into(), vec![1, 8, 1]);
    let kvs_and = "hosts client 2\nswitch s1\nhost server\nlink client* s1\nlink server s1\n";
    for (src, and, cfg) in [
        (
            allreduce_source(256, 8),
            "hosts worker 2\nswitch s1\nlink worker* s1\n",
            ar,
        ),
        (kvs_source(3, 32, 8), kvs_and, kvs),
    ] {
        let program = compile(&src, and, &cfg).expect("compiles with the full backend");
        let restage = |opts: CompileOptions| {
            compile_module(&program.modules[0].1, &ResourceModel::default(), &opts)
        };
        let full = restage(CompileOptions::default()).expect("the full backend fits");
        let unchained = restage(CompileOptions {
            gateway_depth: 0,
            ..CompileOptions::default()
        })
        .expect("fits without gateway chaining");
        assert!(unchained.report.stages_used > full.report.stages_used);
        let unsplit = restage(CompileOptions {
            disable_lane_split: true,
            ..CompileOptions::default()
        });
        let Err(e) = unsplit else {
            panic!("must not fit without lane splitting");
        };
        assert!(e.to_string().contains("stateful micro-ops"), "{e}");
    }
}
