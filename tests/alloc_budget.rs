//! Allocation budgets of the two control-path hot loops: the PISA
//! packet pass and one state of an ncmc search.
//!
//! This file is its own test binary so that its counting
//! `#[global_allocator]` sees nothing but these tests. The counters are
//! per thread (like ncbench's), so tests running side by side do not
//! disturb each other's counts, and a deterministic pass counts the
//! same every time.

use ncl::core::apps::{allreduce_source, kvs_source};
use ncl::core::mc::{model_check_switch, scenario_for, McConfig};
use ncl::core::nclc::{compile, CompileConfig, CompiledProgram, LintCode, ReplayFilter};
use ncl::pisa::{Pipeline, ResourceModel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator and counts the calling thread's
/// allocations.
struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor: reading it never
    // allocates, which is what makes it usable inside `GlobalAlloc`.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout the caller gave us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout the caller gave us.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// `f`'s result and the allocations the calling thread made in it.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (r, ALLOCS.with(Cell::get) - before)
}

const MC_AR_AND: &str = "hosts worker 2\nswitch s1\nlink worker* s1\n";
const MC_KVS_AND: &str =
    "hosts client 2\nswitch s1\nhost server\nlink client* s1\nlink server s1\n";

/// ncbench `ctl_gate`'s filtered AllReduce model-check shape.
fn filtered_allreduce() -> CompiledProgram {
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("allreduce".into(), vec![4]);
    cfg.masks.insert("result".into(), vec![4]);
    cfg.replay_filters.insert(
        "allreduce".into(),
        ReplayFilter {
            senders: 4,
            slots: 2,
        },
    );
    compile(&allreduce_source(8, 4), MC_AR_AND, &cfg).expect("allreduce compiles")
}

/// ncbench `ctl_gate`'s KVS model-check shape.
fn kvs() -> CompiledProgram {
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("query".into(), vec![1, 2, 1]);
    compile(&kvs_source(3, 4, 2), MC_KVS_AND, &cfg).expect("kvs compiles")
}

/// The packets a two-window model-check scenario of `kernel` sends.
fn scenario_packets(program: &CompiledProgram, kernel: &str) -> Vec<Vec<u8>> {
    let cfg = McConfig::default();
    let (sys, _) = scenario_for(program, "s1", LintCode::NonAtomicRmw, kernel, None, &cfg)
        .expect("the scenario builds")
        .expect("non-atomic-rmw is schedule-checkable");
    sys.windows().iter().map(|w| w.packet.clone()).collect()
}

/// After a warm-up packet, a pass allocates the PHV it parses into and
/// the bytes it deparses, nothing else: no key per table lookup and no
/// buffer per deparsed field (20 and 27 allocations a packet before).
#[test]
fn a_pisa_pass_allocates_its_phv_and_its_output_only() {
    for (program, kernel) in [(filtered_allreduce(), "allreduce"), (kvs(), "query")] {
        let packets = scenario_packets(&program, kernel);
        let config = program
            .switch("s1")
            .expect("a switch module")
            .pipeline
            .clone();
        let mut pipe = Pipeline::load(config, ResourceModel::default()).expect("loads");
        pipe.process(&packets[0]).expect("parses");
        for packet in packets.iter().cycle().take(8) {
            let (out, allocs) = counted(|| pipe.process(packet));
            assert!(out.is_some(), "{kernel}: a scenario packet parses");
            assert!(allocs <= 2, "{kernel}: {allocs} allocations in one pass");
        }
    }
}

/// A model-check step writes its successor into a spent state's
/// buffers: the filtered AllReduce check costs at most 24 allocations
/// per explored state (61 when every step cloned a fresh state). Debug
/// builds re-probe every commutation rule and re-execute every reused
/// successor, so only an optimised build counts what the search costs.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds add cross-check executions; run with --release"
)]
fn a_model_check_state_costs_a_bounded_number_of_allocations() {
    let program = filtered_allreduce();
    let (report, allocs) = counted(|| {
        model_check_switch(&program, "s1", &McConfig::default()).expect("the check runs")
    });
    let states: u64 = report.items.iter().map(|i| i.result.stats.states).sum();
    assert!(
        states > 40_000,
        "the convergence search ran: {states} states"
    );
    let per_state = allocs as f64 / states as f64;
    assert!(
        per_state <= 24.0,
        "{per_state:.1} allocations per state ({allocs} over {states} states)"
    );
}
