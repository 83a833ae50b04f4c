//! The paper's Fig. 4: synchronous in-network AllReduce, compared
//! against the same program placed on a parameter server.
//!
//! ```text
//! cargo run -p ncl-examples --bin allreduce -- [workers] [elements]
//! ```

use c3::{HostId, ScalarType, Value};
use ncl_core::apps::allreduce_source;
use ncl_core::control::ControlPlane;
use ncl_core::deploy::{deploy_opts, DeployOptions};
use ncl_core::nclc::{compile, CompileConfig};
use ncl_core::runtime::{NclHost, OutInvocation, TypedArray};
use netsim::HostApp;
use std::collections::HashMap;

const WIN: usize = 8;

fn main() {
    let mut args = std::env::args().skip(1);
    let nworkers: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);
    let elements: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1024);
    let elements = elements.div_ceil(WIN) * WIN; // whole windows
    println!("AllReduce: {nworkers} workers × {elements} int32 elements, windows of {WIN}");

    // One program, two placements of `s1`: the ToR switch (Fig. 4), or
    // a server hung off a plain ToR.
    let inc = run(nworkers, elements, "switch s1\nlink worker* s1");
    let ps = run(
        nworkers,
        elements,
        "switch tor\nserver s1\nlink worker* tor\nlink s1 tor",
    );
    println!("== speedup: {:.2}× ==", ps as f64 / inc as f64);
}

/// Runs the AllReduce with `s1` placed as `placement` declares, prints
/// its report and returns its completion time (ns).
fn run(nworkers: usize, elements: usize, placement: &str) -> u64 {
    let src = allreduce_source(elements, WIN);
    let and = format!("hosts worker {nworkers}\n{placement}\n");
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("allreduce".into(), vec![WIN as u16]);
    cfg.masks.insert("result".into(), vec![WIN as u16]);
    let program = compile(&src, &and, &cfg).expect("compiles");
    let kid = program.kernel_ids["allreduce"];
    if let Some(s1c) = program.switch("s1") {
        println!(
            "  compiled: {} stages, {} lane banks, {} effective P4 lines",
            s1c.report.stages_used,
            s1c.pipeline.registers.len(),
            ncl_p4::p4emit::effective_lines(&s1c.p4_source)
        );
    }
    // Workers address `s1`, switch or server.
    let s1_node = program.overlay.node("s1").unwrap().node_id();

    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    for w in 1..=nworkers as u16 {
        let mut host = NclHost::new(&program);
        let data: Vec<i32> = (0..elements as i32).map(|i| i + w as i32).collect();
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
            &[(ScalarType::I32, elements), (ScalarType::Bool, 1)],
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
    let done = (1..=nworkers as u16)
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

    let (arm, at) = match program.switch("s1") {
        Some(_) => ("in-network", "switch"),
        None => ("parameter server", "server"),
    };
    println!("== {arm} ==");
    println!(
        "  completion: {:.1} µs   windows in: {}   broadcast: {}   dropped in-{at}: {}",
        done as f64 / 1000.0,
        stats.ncp_processed,
        stats.broadcast,
        stats.kernel_drops
    );
    done
}
