//! Paced invocations: `ncl::out` with a per-window gap spreads the
//! transmission in time (the knob that avoids incast at the aggregation
//! switch); results stay identical to blasting — with NCP-R on and a
//! hostile link too.

use ncl::core::apps::allreduce_source;
use ncl::core::control::ControlPlane;
use ncl::core::deploy::{deploy_opts, DeployOptions};
use ncl::core::nclc::{compile, CompileConfig, ReplayFilter};
use ncl::core::runtime::{NclHost, OutInvocation, TypedArray};
use ncl::model::{HostId, NodeId, ScalarType, Value};
use ncl::ncp::ReliableConfig;
use ncl::netsim::{HostApp, LinkSpec};
use std::collections::HashMap;

const DATA_LEN: usize = 64;
const WIN: usize = 8;

fn run(gap: u64) -> (u64, Vec<i64>) {
    let (done, result, _, _) = run_on(gap, LinkSpec::default(), None);
    (done, result)
}

/// One three-worker allreduce with `gap` between windows over `link`,
/// with NCP-R (and the switch replay filter it relies on) when
/// `reliable` is given. Returns worker 1's completion time and result,
/// the switch's `accum` registers, and the network for transport
/// accounting.
fn run_on(
    gap: u64,
    link_spec: LinkSpec,
    reliable: Option<ReliableConfig>,
) -> (u64, Vec<i64>, Vec<u64>, ncl::netsim::Network) {
    let n = 3usize;
    let data_len = DATA_LEN;
    let win = WIN;
    let src = allreduce_source(data_len, win);
    let and = format!("hosts worker {n}\nswitch s1\nlink worker* s1\n");
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("allreduce".into(), vec![win as u16]);
    cfg.masks.insert("result".into(), vec![win as u16]);
    if reliable.is_some() {
        cfg.replay_filters.insert(
            "allreduce".into(),
            ReplayFilter {
                senders: 8,
                slots: (data_len / win) as u16,
            },
        );
    }
    let program = compile(&src, &and, &cfg).expect("compiles");
    let kid = program.kernel_ids["allreduce"];
    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    for w in 1..=n as u16 {
        let mut host = NclHost::new(&program);
        if let Some(rcfg) = reliable {
            host.enable_reliability(rcfg);
        }
        let data: Vec<i32> = vec![w as i32; data_len];
        host.out(OutInvocation {
            kernel: "allreduce".into(),
            arrays: vec![TypedArray::from_i32(&data)],
            dest: NodeId::Host(HostId(w % n as u16 + 1)),
            start: 0,
            gap,
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
    let opts = DeployOptions {
        link_spec,
        ..Default::default()
    };
    let mut dep = deploy_opts(&program, apps, opts).expect("deploys");
    let cp = ControlPlane::new(program.switch("s1").unwrap());
    let s1 = dep.switch("s1");
    cp.ctrl_wr(
        dep.net.switch_pipeline_mut(s1).unwrap(),
        "nworkers",
        Value::u32(n as u32),
    );
    dep.net.run();
    let host = dep.net.host_app::<NclHost>(HostId(1)).unwrap();
    let done = host.done_at.expect("completes");
    let result: Vec<i64> = (0..data_len)
        .map(|i| host.memory(kid).unwrap().arrays[0].get(i).as_i128() as i64)
        .collect();
    let pipe = dep.net.switch_pipeline_mut(s1).unwrap();
    let accum = (0..data_len)
        .map(|i| cp.read_register(pipe, "accum", i).unwrap().bits())
        .collect();
    (done, result, accum, dep.net)
}

#[test]
fn paced_and_blast_agree_on_results() {
    let (t_blast, r_blast) = run(0);
    let (t_paced, r_paced) = run(50_000); // 50 µs between windows
    assert_eq!(r_blast, r_paced, "pacing must not change the reduction");
    assert_eq!(r_blast, vec![1 + 2 + 3; 64]);
    // Pacing stretches completion by roughly (windows-1) × gap.
    assert!(
        t_paced > t_blast + 3 * 50_000,
        "pacing should stretch completion: {t_blast} → {t_paced}"
    );
}

/// Paced × NCP-R: per-window timers feed the reliable sender one
/// window at a time, so first sends, congestion-window releases and
/// RTO retransmits all interleave. Under loss and duplication every
/// worker still completes with every window acked, the switch
/// aggregates each window exactly once, and the reduction is the blast
/// run's.
#[test]
fn paced_reliable_allreduce_survives_loss_and_duplication() {
    let (_, r_blast, accum_blast, _) = run_on(0, LinkSpec::default(), None);
    let hostile = LinkSpec {
        loss: 0.10,
        burst_len: 2,
        dup_every: 6,
        ..LinkSpec::default()
    };
    // A congestion window smaller than the pacing burst, so paced
    // windows queue behind it.
    let rcfg = ReliableConfig {
        cwnd: 2,
        filter_slots: DATA_LEN / WIN,
        ..ReliableConfig::default()
    };
    let (_, r_paced, accum_paced, net) = run_on(5_000, hostile, Some(rcfg));
    assert_eq!(r_paced, r_blast, "same reduction as the clean blast run");
    assert_eq!(accum_paced, accum_blast, "each window aggregated once");
    let stats = net.stats();
    assert!(
        stats.link_drops > 0 && stats.link_dups > 0,
        "link was clean"
    );
    let windows = (DATA_LEN / WIN) as u64;
    let mut retransmits = 0;
    for w in 1..=3u16 {
        let host = net.host_app::<NclHost>(HostId(w)).unwrap();
        assert!(host.done_at.is_some(), "worker {w} completes");
        let tx = host.sender_stats().expect("reliability enabled");
        assert_eq!((tx.tracked, tx.acked, tx.abandoned), (windows, windows, 0));
        retransmits += tx.retransmits;
        assert_eq!(host.windows_sent, windows + tx.retransmits);
    }
    assert!(retransmits > 0, "loss never forced a retransmission");
}

#[test]
fn delayed_start_defers_first_packet() {
    let n = 2usize;
    let src = allreduce_source(16, 8);
    let and = format!("hosts worker {n}\nswitch s1\nlink worker* s1\n");
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("allreduce".into(), vec![8]);
    cfg.masks.insert("result".into(), vec![8]);
    let program = compile(&src, &and, &cfg).expect("compiles");
    let kid = program.kernel_ids["allreduce"];
    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    for w in 1..=n as u16 {
        let mut host = NclHost::new(&program);
        host.out(OutInvocation {
            kernel: "allreduce".into(),
            arrays: vec![TypedArray::from_i32(&[1; 16])],
            dest: NodeId::Host(HostId(w % n as u16 + 1)),
            start: 2_000_000, // 2 ms in
            gap: 0,
        })
        .unwrap();
        host.bind_incoming(
            &program,
            "allreduce",
            "result",
            &[(ScalarType::I32, 16), (ScalarType::Bool, 1)],
        )
        .unwrap();
        host.done_on_flag(kid, 1);
        apps.insert(format!("worker{w}"), Box::new(host));
    }
    let mut dep = deploy_opts(&program, apps, DeployOptions::default()).expect("deploys");
    let cp = ControlPlane::new(program.switch("s1").unwrap());
    let s1 = dep.switch("s1");
    cp.ctrl_wr(
        dep.net.switch_pipeline_mut(s1).unwrap(),
        "nworkers",
        Value::u32(n as u32),
    );
    dep.net.run();
    let done = dep
        .net
        .host_app::<NclHost>(HostId(1))
        .unwrap()
        .done_at
        .expect("completes");
    assert!(
        done >= 2_000_000,
        "completion {done} precedes the start time"
    );
}
