//! Allocation budgets of three hot loops: the PISA packet pass, one
//! state of an ncmc search, and one operation of the Fig. 5 KVS.
//!
//! This file is its own test binary so that its counting
//! `#[global_allocator]` sees nothing but these tests. The counters are
//! per thread (like ncbench's), so tests running side by side do not
//! disturb each other's counts, and a deterministic pass counts the
//! same every time.

use ncl::core::apps::{allreduce_source, kvs_source, KvsClient, KvsOp, KvsServer};
use ncl::core::control::ControlPlane;
use ncl::core::deploy::{deploy_opts, DeployOptions, SwitchBackend};
use ncl::core::mc::{model_check_switch, scenario_for, McConfig};
use ncl::core::nclc::{compile, CompileConfig, CompiledProgram, LintCode, ReplayFilter};
use ncl::model::{HostId, NodeId};
use ncl::ncp::ReliableConfig;
use ncl::netsim::HostApp;
use ncl::pisa::{Pipeline, ResourceModel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;

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

const KVS_WORDS: usize = 8;
const KVS_SERVER: u16 = 2;
/// Operations before the counted run: they make the key hot and let
/// its cache fill land.
const KVS_WARM_OPS: u64 = 50;
/// Operations in the counted run.
const KVS_OPS: u64 = 2_000;

/// Allocations per operation of `KVS_OPS` GETs of one stored key,
/// counted inside `net.run()` after `KVS_WARM_OPS` uncounted ones: one
/// client with NCP-R on, the server and a software switch, as ncbench's
/// `kvs_zipf` runs them. `cached` leaves the key to become hot and be
/// served by the switch; otherwise every GET misses there and the
/// server answers it.
fn kvs_allocs_per_op(cached: bool) -> f64 {
    let and = "hosts client 1\nswitch s1\nhost server\nlink client* s1\nlink server s1\n";
    let mut cfg = CompileConfig::default();
    cfg.masks
        .insert("query".into(), vec![1, KVS_WORDS as u16, 1]);
    let program = compile(&kvs_source(KVS_SERVER, 16, KVS_WORDS), and, &cfg).expect("kvs compiles");
    let kernel = program.kernel_ids["query"];
    let gap = 20_000;
    let schedule = (0..KVS_WARM_OPS + KVS_OPS)
        .map(|i| KvsOp {
            at: i * gap,
            key: 7,
            put: false,
        })
        .collect();
    let server_node = NodeId::Host(HostId(KVS_SERVER));
    let mut client = KvsClient::new(server_node, HostId(KVS_SERVER), kernel, KVS_WORDS, schedule);
    client.enable_retransmit(ReliableConfig::default());
    let control = ControlPlane::new(program.switch("s1").expect("s1 is compiled"));
    let mut server = KvsServer::new(kernel, KVS_WORDS, None, Some(control), 16);
    server.hot_threshold = if cached { 2 } else { u32::MAX };
    server.store.insert(7, KvsClient::value_for(7, KVS_WORDS));
    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    apps.insert("client1".into(), Box::new(client));
    apps.insert("server".into(), Box::new(server));
    let opts = DeployOptions {
        backend: SwitchBackend::Simd,
        ..DeployOptions::default()
    };
    let mut dep = deploy_opts(&program, apps, opts).expect("deploys");
    let s1 = dep.switch("s1");
    let server = dep.net.host_app_mut::<KvsServer>(HostId(KVS_SERVER));
    server.expect("server app").cache_switch = Some(s1);

    dep.net.run_until(KVS_WARM_OPS * gap - 1);
    let ((), allocs) = counted(|| {
        dep.net.run();
    });
    let client = dep.net.host_app::<KvsClient>(HostId(1)).expect("client");
    let hits = client.samples.iter().filter(|s| s.from_cache).count() as u64;
    assert_eq!(client.samples.len() as u64, KVS_WARM_OPS + KVS_OPS);
    assert_eq!(client.corrupt, 0);
    if cached {
        assert!(hits >= KVS_OPS, "the counted GETs hit: {hits}");
    } else {
        assert_eq!(hits, 0, "no GET hits");
    }
    allocs as f64 / KVS_OPS as f64
}

/// The KVS hosts reuse their frames' buffers, read incoming frames in
/// place and keep one timer pending per client: a GET served by the
/// switch costs at most 4.5 allocations and one the server answers at
/// most 7.5, netsim's per-callback buffers included (4 and 7 counted).
/// With a fresh window per frame, decoded values, a map of outstanding
/// ops and every op's timer armed at the start they cost 14–21 and
/// 26–58, varying with where the allocator placed the decode buffers.
#[test]
fn a_kvs_op_costs_a_bounded_number_of_allocations() {
    for (cached, budget) in [(true, 4.5), (false, 7.5)] {
        let per_op = kvs_allocs_per_op(cached);
        let what = if cached { "hit" } else { "miss" };
        println!("kvs {what}: {per_op:.2} allocations per op");
        assert!(
            per_op <= budget,
            "{per_op:.2} allocations per {what} (budget {budget})"
        );
    }
}
