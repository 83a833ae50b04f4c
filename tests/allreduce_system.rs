//! Full-system integration test of the paper's Fig. 4 AllReduce:
//! N workers around a ToR switch, in-network aggregation with the
//! compiled kernel, result broadcast, compared against the same program
//! placed on a parameter server behind the ToR.

use ncl::core::apps::allreduce_source;
use ncl::core::control::ControlPlane;
use ncl::core::deploy::{deploy_opts, DeployOptions, Deployment};
use ncl::core::nclc::{compile, CompileConfig, CompiledProgram};
use ncl::core::runtime::{NclHost, OutInvocation, TypedArray};
use ncl::model::{HostId, NodeId, ScalarType, Value};
use ncl::netsim::HostApp;
use std::collections::HashMap;

/// `s1` in the workers' switch: in-network aggregation.
const IN_SWITCH: &str = "switch s1\nlink worker* s1";
/// `s1` on a server hung off a plain ToR: the parameter server.
const ON_SERVER: &str = "switch tor\nserver s1\nlink worker* tor\nlink s1 tor";

fn worker_and(n: usize, placement: &str) -> String {
    format!("hosts worker {n}\n{placement}\n")
}

fn program(and: &str, data_len: usize, win: usize) -> CompiledProgram {
    let src = allreduce_source(data_len, win);
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("allreduce".into(), vec![win as u16]);
    cfg.masks.insert("result".into(), vec![win as u16]);
    compile(&src, and, &cfg).expect("compiles")
}

/// Runs the AllReduce in the switch; returns (deployment, kernel id).
fn run_inc(nworkers: usize, data_len: usize, win: usize) -> (Deployment, u16) {
    run(nworkers, data_len, win, IN_SWITCH)
}

/// Runs the AllReduce with `s1` placed as `placement` declares; the
/// workers address `s1`, switch or server.
fn run(nworkers: usize, data_len: usize, win: usize, placement: &str) -> (Deployment, u16) {
    let program = program(&worker_and(nworkers, placement), data_len, win);
    let kid = program.kernel_ids["allreduce"];
    let s1_node = program.overlay.node("s1").unwrap().node_id();
    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    for w in 1..=nworkers as u16 {
        let mut host = NclHost::new(&program);
        let data: Vec<i32> = (0..data_len as i32).map(|i| i + w as i32).collect();
        host.out(OutInvocation {
            kernel: "allreduce".into(),
            arrays: vec![TypedArray::from_i32(&data)],
            dest: s1_node,
            start: 0,
            gap: 0,
        })
        .unwrap();
        host.bind_incoming(
            &program,
            "allreduce",
            "result",
            &[(ScalarType::I32, data_len), (ScalarType::Bool, 1)],
        )
        .unwrap();
        host.done_on_flag(kid, 1);
        apps.insert(format!("worker{w}"), Box::new(host));
    }
    let mut dep = deploy_opts(&program, apps, DeployOptions::default()).expect("deploys");
    let cp = ControlPlane::at(&program, "s1").unwrap();
    let s1 = dep.switch("s1");
    cp.ctrl_wr(
        dep.net.switch_fastpath_mut(s1).unwrap(),
        "nworkers",
        Value::u32(nworkers as u32),
    );
    dep.net.run();
    (dep, kid)
}

/// Asserts every worker holds the exact element-wise sum of `run`'s
/// data pattern; returns the last completion time.
fn assert_exact(dep: &Deployment, kid: u16, nworkers: usize, data_len: usize) -> u64 {
    let mut done = 0;
    for w in 1..=nworkers as u16 {
        let host = dep.net.host_app::<NclHost>(HostId(w)).unwrap();
        done = done.max(
            host.done_at
                .unwrap_or_else(|| panic!("worker {w} incomplete")),
        );
        let mem = host.memory(kid).unwrap();
        for i in 0..data_len {
            let want: i64 = (1..=nworkers as i64).map(|w| i as i64 + w).sum();
            let got = mem.arrays[0].get(i).as_i128() as i64;
            assert_eq!(got, want, "worker {w} element {i}");
        }
    }
    done
}

#[test]
fn four_workers_reduce_correctly() {
    let (dep, kid) = run_inc(4, 64, 8);
    assert_exact(&dep, kid, 4, 64);
}

#[test]
fn switch_drops_all_but_the_last_contribution() {
    let n = 8;
    let (dep, _) = run_inc(n, 32, 8);
    let stats = dep.net.switch_stats(dep.switch("s1")).unwrap();
    let windows_per_worker = 32 / 8;
    assert_eq!(stats.ncp_processed, (n * windows_per_worker) as u64);
    assert_eq!(stats.broadcast, windows_per_worker as u64);
    assert_eq!(stats.kernel_drops, ((n - 1) * windows_per_worker) as u64);
}

#[test]
fn ingress_to_egress_asymmetry_shows_the_aggregation_win() {
    // N workers each send the full array up; only one aggregated copy
    // per worker comes down. A parameter server would receive N arrays
    // AND send N arrays — the switch halves its egress side entirely.
    let n = 8;
    let (dep, _) = run_inc(n, 128, 8);
    let s1 = NodeId::Switch(dep.switch("s1"));
    let ingress = dep.net.node_ingress_bytes(s1);
    assert!(ingress > 0);
    // Workers received exactly one result stream each: delivered =
    // n × windows.
    assert_eq!(dep.net.stats().delivered, (n * (128 / 8)) as u64);
}

#[test]
fn inc_beats_parameter_server_latency() {
    // The E1 headline shape as a hard assertion: one program, the same
    // workers and windows; aggregating in the switch completes before
    // aggregating on a server behind it, and both sums are exact.
    let (n, data_len, win) = (8, 256, 8);
    let done = |placement| {
        let (dep, kid) = run(n, data_len, win, placement);
        assert_exact(&dep, kid, n, data_len)
    };
    let (inc_done, ps_done) = (done(IN_SWITCH), done(ON_SERVER));
    assert!(
        inc_done < ps_done,
        "INC {inc_done} ns should beat PS {ps_done} ns"
    );
}

#[test]
fn multiple_rounds_reuse_switch_state() {
    // The count[] reset (Fig. 4 line 11) makes slots reusable: run two
    // back-to-back reductions through the same switch.
    let n = 3;
    let data_len = 32;
    let win = 8;
    let program = program(&worker_and(n, IN_SWITCH), data_len, win);
    let kid = program.kernel_ids["allreduce"];
    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    for w in 1..=n as u16 {
        let mut host = NclHost::new(&program);
        for round in 0..2u64 {
            let data: Vec<i32> = vec![(w as i32) * (round as i32 + 1); data_len];
            host.out(OutInvocation {
                kernel: "allreduce".into(),
                arrays: vec![TypedArray::from_i32(&data)],
                dest: NodeId::Host(HostId(w % n as u16 + 1)),
                start: round * 10_000_000, // 10 ms apart
                gap: 0,
            })
            .unwrap();
        }
        host.bind_incoming(
            &program,
            "allreduce",
            "result",
            &[(ScalarType::I32, data_len), (ScalarType::Bool, 1)],
        )
        .unwrap();
        apps.insert(format!("worker{w}"), Box::new(host));
    }
    let mut dep = deploy_opts(&program, apps, DeployOptions::default()).unwrap();
    let cp = ControlPlane::new(program.switch("s1").unwrap());
    let s1 = dep.switch("s1");
    cp.ctrl_wr(
        dep.net.switch_pipeline_mut(s1).unwrap(),
        "nworkers",
        Value::u32(n as u32),
    );
    dep.net.run();
    // Fig. 4 as sketched resets `count` but NOT `accum`, so round 2's
    // broadcast carries round 1's sum plus round 2's: 6 + 12 = 18. We
    // reproduce the sketch faithfully; the corrected kernel below shows
    // the production fix.
    let host = dep.net.host_app::<NclHost>(HostId(1)).unwrap();
    let mem = host.memory(kid).unwrap();
    assert_eq!(mem.arrays[0].get(0), Value::i32(6 + 12));
    let stats = dep.net.switch_stats(s1).unwrap();
    assert_eq!(stats.broadcast, 2 * (data_len / win) as u64);
}

/// Fig. 4 with the multi-round fix real aggregation systems use: the
/// slot's first contribution *overwrites* instead of accumulating
/// (selected on the slot counter), making rounds independent.
#[test]
fn corrected_kernel_supports_repeated_rounds() {
    let n = 3;
    let data_len = 32;
    let win = 8;
    let src = format!(
        r#"
#define DATA_LEN {data_len}
#define WIN_LEN {win}
_net_ _at_("s1") int accum[DATA_LEN] = {{0}};
_net_ _at_("s1") unsigned count[DATA_LEN/WIN_LEN] = {{0}};
_net_ _at_("s1") _ctrl_ unsigned nworkers;

_net_ _out_ void allreduce(int *data) {{
    unsigned base = window.seq * window.len;
    bool first = count[window.seq] == 0;
    for (unsigned i = 0; i < window.len; ++i)
        accum[base + i] = first ? data[i] : (accum[base + i] + data[i]);
    if (++count[window.seq] == nworkers) {{
        memcpy(data, &accum[base], window.len * 4);
        count[window.seq] = 0; _bcast();
    }} else {{ _drop(); }}
}}

_net_ _in_ void result(int *data, _ext_ int *hdata, _ext_ bool *done) {{
    for (unsigned i = 0; i < window.len; ++i)
        hdata[window.seq * window.len + i] = data[i];
    if (window.last) *done = true;
}}
"#
    );
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("allreduce".into(), vec![win as u16]);
    cfg.masks.insert("result".into(), vec![win as u16]);
    // The round-reset trick reads `count` to decide whether to
    // overwrite or accumulate `accum` — a cross-array read→write chain
    // nclint rightly calls non-atomic on a real pipelined chip. This
    // test exercises the simulator's serial-per-switch window
    // semantics (paper §6), where the chain is safe; downgrade the
    // finding with eyes open.
    use ncl::core::nclc::{LintCode, LintLevel};
    cfg.lint_levels
        .insert(LintCode::NonAtomicRmw, LintLevel::Warn);
    let program = compile(&src, &worker_and(n, IN_SWITCH), &cfg)
        .unwrap_or_else(|e| panic!("corrected kernel: {e}"));
    let kid = program.kernel_ids["allreduce"];
    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    for w in 1..=n as u16 {
        let mut host = NclHost::new(&program);
        for round in 0..2u64 {
            let data: Vec<i32> = vec![(w as i32) * (round as i32 + 1); data_len];
            host.out(OutInvocation {
                kernel: "allreduce".into(),
                arrays: vec![TypedArray::from_i32(&data)],
                dest: NodeId::Host(HostId(w % n as u16 + 1)),
                start: round * 10_000_000,
                gap: 0,
            })
            .unwrap();
        }
        host.bind_incoming(
            &program,
            "allreduce",
            "result",
            &[(ScalarType::I32, data_len), (ScalarType::Bool, 1)],
        )
        .unwrap();
        apps.insert(format!("worker{w}"), Box::new(host));
    }
    let mut dep = deploy_opts(&program, apps, DeployOptions::default()).unwrap();
    let cp = ControlPlane::new(program.switch("s1").unwrap());
    let s1 = dep.switch("s1");
    cp.ctrl_wr(
        dep.net.switch_pipeline_mut(s1).unwrap(),
        "nworkers",
        Value::u32(n as u32),
    );
    dep.net.run();
    // Round 2's clean result: (1+2+3)×2 = 12 per element.
    let host = dep.net.host_app::<NclHost>(HostId(1)).unwrap();
    let mem = host.memory(kid).unwrap();
    assert_eq!(mem.arrays[0].get(0), Value::i32(12));
}

#[test]
fn scaling_workers_scales_aggregation_not_result_traffic() {
    // Broadcast count is independent of N — the crossover driver in E1.
    for n in [2usize, 4, 8] {
        let (dep, _) = run_inc(n, 64, 8);
        let stats = dep.net.switch_stats(dep.switch("s1")).unwrap();
        assert_eq!(stats.broadcast, 8, "n={n}");
        assert_eq!(stats.ncp_processed, (n * 8) as u64, "n={n}");
    }
}
