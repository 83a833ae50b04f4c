//! Allocation budgets of the hot loops: the PISA packet pass, one
//! state of an ncmc search, one operation of the Fig. 5 KVS, a window
//! the software switch forwards inside a run, and a decode into a
//! scratch window.
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
use ncl::core::runtime::{NclHost, OutInvocation, TypedArray};
use ncl::core::FastPathSwitch;
use ncl::model::{Chunk, HostId, KernelId, NodeId, ScalarType, Value, Window};
use ncl::ncp::codec::{decode_window_into, encode_window};
use ncl::ncp::ReliableConfig;
use ncl::netsim::{
    CtrlOp, FastDatapath, FastVerdict, HostApp, LinkSpec, NetworkBuilder, SwitchCfg,
};
use ncl::pisa::{Pipeline, ResourceModel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::cell::Cell;
use std::collections::HashMap;
use std::rc::Rc;

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
/// place and keep one timer pending per client; netsim keeps its
/// per-callback buffers and the software switch encodes into a
/// recycled frame. What is left is the one frame each host sends: a
/// GET served by the switch costs at most 1.5 allocations and one the
/// server answers at most 2.5 (1 and 2 counted). With fresh callback
/// buffers and a fresh switch output per window they cost 4 and 7;
/// with a fresh window per frame, decoded values, a map of outstanding
/// ops and every op's timer armed at the start, 14–21 and 26–58.
#[test]
fn a_kvs_op_costs_a_bounded_number_of_allocations() {
    for (cached, budget) in [(true, 1.5), (false, 2.5)] {
        let per_op = kvs_allocs_per_op(cached);
        let what = if cached { "hit" } else { "miss" };
        println!("kvs {what}: {per_op:.2} allocations per op");
        assert!(
            per_op <= budget,
            "{per_op:.2} allocations per {what} (budget {budget})"
        );
    }
}

/// A software switch whose `process_frame` calls are counted: the
/// windows it forwarded, and the allocations made by the calls after
/// the first `skip`.
struct CountedSwitch {
    fp: FastPathSwitch,
    skip: u64,
    calls: u64,
    /// (allocations, windows forwarded), shared with the test.
    seen: Rc<Cell<(u64, u64)>>,
}

impl FastDatapath for CountedSwitch {
    fn process(&mut self, payload: &[u8]) -> Option<FastVerdict> {
        self.fp.process(payload)
    }

    fn process_frame(&mut self, frame: Vec<u8>) -> Result<FastVerdict, Vec<u8>> {
        let (verdict, allocs) = counted(|| self.fp.process_frame(frame));
        self.calls += 1;
        let allocs = if self.calls > self.skip { allocs } else { 0 };
        let forwarded = verdict.as_ref().is_ok_and(|v| v.fwd_code != 3);
        let (a, w) = self.seen.get();
        self.seen.set((a + allocs, w + u64::from(forwarded)));
        verdict
    }

    fn ctrl(&mut self, op: &CtrlOp) -> bool {
        self.fp.ctrl(op)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Inside `net.run()` the software switch encodes each verdict into
/// the frame it received before, so once the first windows have sized
/// its buffers, an AllReduce window it aggregates, drops or broadcasts
/// allocates nothing (one fresh output buffer per forwarded window
/// before).
#[test]
fn a_window_the_software_switch_forwards_in_a_run_allocates_nothing() {
    const WORKERS: u16 = 4;
    const DATA: usize = 1024;
    const WIN: usize = 16;
    let and = format!("hosts worker {WORKERS}\nswitch s1\nlink worker* s1\n");
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("allreduce".into(), vec![WIN as u16]);
    cfg.masks.insert("result".into(), vec![WIN as u16]);
    let program = compile(&allreduce_source(DATA, WIN), &and, &cfg).expect("allreduce compiles");
    let kid = program.kernel_ids["allreduce"];
    let mut fp = FastPathSwitch::from_program(&program, "s1").expect("s1 has a module");
    assert!(fp.ctrl_wr("nworkers", Value::new(ScalarType::U32, WORKERS.into())));

    let mut b = NetworkBuilder::new();
    let workers: Vec<NodeId> = (1..=WORKERS)
        .map(|w| {
            let mut host = NclHost::new(&program);
            host.out(OutInvocation {
                kernel: "allreduce".into(),
                arrays: vec![TypedArray::from_i32(&vec![w.into(); DATA])],
                dest: NodeId::Host(HostId(w % WORKERS + 1)),
                start: 0,
                gap: 0,
            })
            .expect("the arrays fit the window spec");
            host.bind_incoming(
                &program,
                "allreduce",
                "result",
                &[(ScalarType::I32, DATA), (ScalarType::Bool, 1)],
            )
            .expect("result binds");
            host.done_on_flag(kid, 1);
            NodeId::Host(b.add_host(Box::new(host)))
        })
        .collect();
    let seen = Rc::new(Cell::new((0, 0)));
    let s1 = b.add_switch(SwitchCfg {
        engine: Some(Box::new(CountedSwitch {
            fp,
            skip: u64::from(WORKERS),
            calls: 0,
            seen: Rc::clone(&seen),
        })),
        bcast: workers.clone(),
        ..SwitchCfg::default()
    });
    for &w in &workers {
        b.link(w, s1, LinkSpec::default());
    }
    let mut net = b.build();
    net.run();

    for w in 1..=WORKERS {
        let host = net.host_app::<NclHost>(HostId(w)).expect("worker");
        assert!(host.done_at.is_some(), "worker {w} has the sums");
    }
    let (allocs, forwarded) = seen.get();
    let windows = (DATA / WIN) as u64;
    assert_eq!(forwarded, windows, "one broadcast per window");
    assert_eq!(
        allocs,
        0,
        "{allocs} allocations over {} counted windows",
        windows * u64::from(WORKERS) - u64::from(WORKERS)
    );
}

/// A buffer of `cap` bytes whose storage starts off the 32-byte
/// boundary the codec prefers for payloads.
fn off_boundary(cap: usize) -> Vec<u8> {
    let mut draws = Vec::new();
    loop {
        let v: Vec<u8> = Vec::with_capacity(cap);
        if (v.as_ptr() as usize) % 32 != 0 {
            return v;
        }
        assert!(
            draws.len() < 64,
            "the allocator only returns 32-byte-aligned blocks"
        );
        draws.push(v);
    }
}

/// Payload alignment is a hint: a decode into a scratch window whose
/// chunk buffers are large enough but off the boundary reuses them
/// (it drew about ten fresh buffers per chunk, every frame, before).
#[test]
fn a_decode_into_large_enough_unaligned_buffers_allocates_nothing() {
    let window = |seq: u32| Window {
        kernel: KernelId(3),
        seq,
        sender: HostId(1),
        from: NodeId::Host(HostId(1)),
        last: false,
        chunks: (0..3)
            .map(|c| Chunk {
                offset: c * 64,
                data: vec![seq as u8 ^ c as u8; 64],
            })
            .collect(),
        ext: Vec::new(),
    };
    let mut scratch = window(0);
    for chunk in &mut scratch.chunks {
        chunk.data = off_boundary(64);
    }
    let before: Vec<*const u8> = scratch.chunks.iter().map(|c| c.data.as_ptr()).collect();
    for seq in 1..=8 {
        let bytes = encode_window(&window(seq), 0);
        let (decoded, allocs) = counted(|| decode_window_into(&bytes, &mut scratch));
        decoded.expect("the frame decodes");
        assert_eq!(allocs, 0, "window {seq}: {allocs} allocations");
        assert_eq!(scratch, window(seq));
    }
    let after: Vec<*const u8> = scratch.chunks.iter().map(|c| c.data.as_ptr()).collect();
    assert_eq!(before, after, "the chunk buffers were kept");
}
