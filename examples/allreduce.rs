//! The paper's Fig. 4: synchronous in-network AllReduce, compared
//! against a host-based parameter server on the same topology.
//!
//! ```text
//! cargo run -p ncl-examples --bin allreduce -- [workers] [elements]
//! ```

use c3::{HostId, NodeId, ScalarType, Value};
use ncl_core::apps::{allreduce_source, PsServer, PsWorker};
use ncl_core::control::ControlPlane;
use ncl_core::deploy::{deploy_opts, DeployOptions};
use ncl_core::nclc::{compile, CompileConfig};
use ncl_core::runtime::{NclHost, OutInvocation, TypedArray};
use netsim::{HostApp, LinkSpec, NetworkBuilder, SwitchCfg};
use std::collections::HashMap;

const WIN: usize = 8;

fn main() {
    let mut args = std::env::args().skip(1);
    let nworkers: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);
    let elements: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1024);
    let elements = elements.div_ceil(WIN) * WIN; // whole windows
    println!("AllReduce: {nworkers} workers × {elements} int32 elements, windows of {WIN}");

    // ---- in-network (Fig. 4) ----
    let src = allreduce_source(elements, WIN);
    let and = format!("hosts worker {nworkers}\nswitch s1\nlink worker* s1\n");
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("allreduce".into(), vec![WIN as u16]);
    cfg.masks.insert("result".into(), vec![WIN as u16]);
    let program = compile(&src, &and, &cfg).expect("compiles");
    let kid = program.kernel_ids["allreduce"];
    let s1c = program.switch("s1").unwrap();
    println!(
        "  compiled: {} stages, {} lane banks, {} effective P4 lines",
        s1c.report.stages_used,
        s1c.pipeline.registers.len(),
        ncl_p4::p4emit::effective_lines(&s1c.p4_source)
    );

    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    for w in 1..=nworkers as u16 {
        let mut host = NclHost::new(&program);
        let data: Vec<i32> = (0..elements as i32).map(|i| i + w as i32).collect();
        host.out(OutInvocation {
            kernel: "allreduce".into(),
            arrays: vec![TypedArray::from_i32(&data)],
            dest: NodeId::Host(HostId(w % nworkers as u16 + 1)),
            start: 0,
            gap: 0,
        })
        .unwrap();
        host.bind_incoming(
            &program,
            "allreduce",
            "result",
            &[(ScalarType::I32, elements), (ScalarType::Bool, 1)],
        )
        .unwrap();
        host.done_on_flag(kid, 1);
        apps.insert(format!("worker{w}"), Box::new(host));
    }
    let mut dep = deploy_opts(&program, apps, DeployOptions::default()).expect("deploys");
    let cp = ControlPlane::new(s1c);
    let s1 = dep.switch("s1");
    cp.ctrl_wr(
        dep.net.switch_pipeline_mut(s1).unwrap(),
        "nworkers",
        Value::u32(nworkers as u32),
    );
    dep.net.run();
    let inc_done = (1..=nworkers as u16)
        .map(|w| {
            dep.net
                .host_app::<NclHost>(HostId(w))
                .unwrap()
                .done_at
                .expect("completed")
        })
        .max()
        .unwrap();
    let stats = dep.net.switch_stats(s1).unwrap();
    // Verify one element on worker 1.
    let w1 = dep.net.host_app::<NclHost>(HostId(1)).unwrap();
    let got = w1.memory(kid).unwrap().arrays[0].get(0).as_i128() as i64;
    let want: i64 = (1..=nworkers as i64).sum();
    assert_eq!(got, want, "element 0 must be the sum of worker offsets");

    println!("== in-network ==");
    println!(
        "  completion: {:.1} µs   windows in: {}   broadcast: {}   dropped in-switch: {}",
        inc_done as f64 / 1000.0,
        stats.ncp_processed,
        stats.broadcast,
        stats.kernel_drops
    );

    // ---- parameter-server baseline ----
    let mut b = NetworkBuilder::new();
    let ps_node = NodeId::Host(HostId(nworkers as u16 + 1));
    let mut worker_ids = Vec::new();
    for w in 1..=nworkers as u16 {
        let data: Vec<i32> = (0..elements as i32).map(|i| i + w as i32).collect();
        let id = b.add_host(Box::new(PsWorker::new(ps_node, data, WIN)));
        worker_ids.push(NodeId::Host(id));
    }
    b.add_host(Box::new(PsServer::new(worker_ids)));
    let sw = b.add_switch(SwitchCfg::default());
    for w in 1..=nworkers as u16 + 1 {
        b.link(HostId(w), sw, LinkSpec::default());
    }
    let mut net = b.build();
    net.run();
    let ps_done = (1..=nworkers as u16)
        .map(|w| {
            net.host_app::<PsWorker>(HostId(w))
                .unwrap()
                .done_at
                .unwrap()
        })
        .max()
        .unwrap();
    println!("== parameter server ==");
    println!("  completion: {:.1} µs", ps_done as f64 / 1000.0);
    println!("== speedup: {:.2}× ==", ps_done as f64 / inc_done as f64);
}
