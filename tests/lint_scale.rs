//! The linter's output at the unrolled scale ncbench compiles.
//!
//! The witness and coverage suites lint kernels of a few elements. The
//! benchmark workloads unroll an allreduce window of 64 or 1,024
//! elements (thousands of IR instructions per kernel) and lint a 64-slot
//! KVS cache, under the lifted chip model the benchmark compiles
//! against. This file pins, for each of those programs, every
//! `lint_module` finding and every `access_summary` row, so a change to
//! how the linter computes its facts cannot change what it says.

use ncl::core::apps::{allreduce_source, kvs_source};
use ncl::core::nclc::{compile, CompileConfig, CompiledProgram, ReplayFilter};
use ncl::ir::lint::{access_summary, lint_module};
use ncl::pisa::ResourceModel;

/// The lifted chip model of the benchmark workloads: wide windows stay
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

fn allreduce(elements: usize, win: usize, filtered: bool) -> CompiledProgram {
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("allreduce".into(), vec![win as u16]);
    cfg.masks.insert("result".into(), vec![win as u16]);
    cfg.model = chip();
    if filtered {
        let filter = ReplayFilter {
            senders: 4,
            slots: (elements / win) as u16,
        };
        cfg.replay_filters.insert("allreduce".into(), filter);
    }
    let and = "hosts worker 4\nswitch s1\nlink worker* s1\n";
    compile(&allreduce_source(elements, win), and, &cfg).expect("compiles")
}

fn kvs() -> CompiledProgram {
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("query".into(), vec![1, 8, 1]);
    cfg.model = chip();
    let and = "hosts client 4\nswitch s1\nhost server\nlink client* s1\nlink server s1\n";
    compile(&kvs_source(5, 64, 8), and, &cfg).expect("compiles")
}

/// One line per finding, then one per access-summary row, in the order
/// the linter returns them.
fn lint_report(program: &CompiledProgram) -> Vec<String> {
    let module = program.module("s1").expect("s1 has a module");
    let cfg = &program.lint_config;
    let mut out = Vec::new();
    for d in lint_module(module, cfg) {
        out.push(format!(
            "{:?} {} {}/{} @{}:{} {}",
            d.level,
            d.code,
            d.kernel,
            d.state.as_deref().unwrap_or("-"),
            d.span.line,
            d.span.col,
            d.message
        ));
    }
    for a in access_summary(module, cfg) {
        out.push(format!(
            "row {}/{} {:?} replay_unsafe={} accesses={}",
            a.kernel, a.array, a.kind, a.replay_unsafe, a.accesses
        ));
    }
    out
}

const NO_FILTER: &str = "configured; if this kernel is ever driven over NCP-R, retransmissions \
                         will corrupt the state (configure a replay filter and guard with \
                         `window.replay`)";
const WRAPS: &str = "with no value-guarded reset; the accumulator wraps silently at 2^32";

/// The allreduce kernel's report at any unrolled width: without a
/// replay filter its two updates are replay-unsafe warnings.
fn allreduce_expected(filtered: bool) -> Vec<String> {
    let mut out = Vec::new();
    if !filtered {
        for array in ["accum", "count"] {
            out.push(format!(
                "Warn replay-unsafe-no-filter allreduce/{array} @8:18 kernel 'allreduce' \
                 updates '{array}' non-idempotently with no replay filter {NO_FILTER}"
            ));
        }
    }
    for (array, at) in [("accum", "4:22"), ("count", "5:27")] {
        out.push(format!(
            "Warn unguarded-overflow allreduce/{array} @{at} kernel 'allreduce' accumulates \
             into 32-bit '{array}' {WRAPS}"
        ));
    }
    // The filter guards every update and puts a fourth access on one
    // lane of `accum` (the replay-path read of the stored sums).
    let (unsafe_, accum_accesses) = if filtered { (false, 4) } else { (true, 3) };
    out.push(format!(
        "row allreduce/accum CommutativeRmw replay_unsafe={unsafe_} accesses={accum_accesses}"
    ));
    out.push(format!(
        "row allreduce/count CommutativeRmw replay_unsafe={unsafe_} accesses=2"
    ));
    out
}

#[test]
fn allreduce_w64_lint_is_pinned() {
    assert_eq!(
        lint_report(&allreduce(16_384, 64, false)),
        allreduce_expected(false)
    );
}

#[test]
fn allreduce_w64_filtered_lint_is_pinned() {
    assert_eq!(
        lint_report(&allreduce(16_384, 64, true)),
        allreduce_expected(true)
    );
}

#[test]
fn allreduce_w1024_lint_is_pinned() {
    assert_eq!(
        lint_report(&allreduce(65_536, 1_024, false)),
        allreduce_expected(false)
    );
}

#[test]
fn allreduce_w1024_filtered_lint_is_pinned() {
    assert_eq!(
        lint_report(&allreduce(65_536, 1_024, true)),
        allreduce_expected(true)
    );
}

#[test]
fn kvs_lint_is_pinned() {
    assert_eq!(
        lint_report(&kvs()),
        [
            "row query/Cache Overwrite replay_unsafe=false accesses=1",
            "row query/Valid Overwrite replay_unsafe=false accesses=1",
        ]
    );
}
