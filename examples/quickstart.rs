//! Quickstart: compile a one-line NCL kernel, inspect the artifacts,
//! and push a window through the deployed switch.
//!
//! ```text
//! cargo run -p ncl-examples --bin quickstart
//! ```

use c3::{HostId, NodeId, ScalarType};
use ncl_core::control::ControlPlane;
use ncl_core::deploy::{deploy_opts, DeployOptions};
use ncl_core::nclc::{compile, CompileConfig};
use ncl_core::runtime::{NclHost, OutInvocation, TypedArray};
use netsim::HostApp;
use std::collections::HashMap;

/// The whole NCL program: a kernel that counts packets and doubles the
/// payload on its way through the switch.
const PROGRAM: &str = r#"
_net_ _at_("s1") unsigned packets[1] = {0};

_net_ _out_ void double_it(int *data) {
    packets[0] += 1;
    for (unsigned i = 0; i < window.len; ++i)
        data[i] = data[i] * 2;
}

_net_ _in_ void receive(int *data, _ext_ int *out) {
    for (unsigned i = 0; i < window.len; ++i)
        out[window.seq * window.len + i] = data[i];
}
"#;

/// Two hosts around one switch.
const AND: &str = "
host alice
host bob
switch s1
link alice s1
link bob s1
";

fn main() {
    // 1. Compile: NCL + AND → per-switch pipeline + P4 + host kernels.
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("double_it".into(), vec![4]); // 4 ints per window
    cfg.masks.insert("receive".into(), vec![4]);
    let program = compile(PROGRAM, AND, &cfg).expect("compiles");

    let s1 = program.switch("s1").expect("one switch");
    println!("== compiled for s1 ==");
    println!(
        "  stages: {}   PHV: {}B hdr + {}B meta   recirculation: {}",
        s1.report.stages_used,
        s1.report.phv_header_bytes,
        s1.report.phv_metadata_bytes,
        s1.report.recirc_passes
    );
    println!(
        "  generated P4: {} effective lines (vs {} lines of NCL)",
        ncl_p4::p4emit::effective_lines(&s1.p4_source),
        ncl_p4::p4emit::effective_lines(PROGRAM),
    );

    // 2. Deploy on the simulated network and invoke the kernel.
    let kid = program.kernel_ids["double_it"];
    let data: Vec<i32> = (1..=16).collect();
    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    let mut alice = NclHost::new(&program);
    alice
        .out(OutInvocation {
            kernel: "double_it".into(),
            arrays: vec![TypedArray::from_i32(&data)],
            dest: NodeId::Host(HostId(2)), // bob
            start: 0,
            gap: 0,
        })
        .expect("valid invocation");
    apps.insert("alice".into(), Box::new(alice));
    let mut bob = NclHost::new(&program);
    bob.bind_incoming(&program, "double_it", "receive", &[(ScalarType::I32, 16)])
        .expect("paired kernel");
    apps.insert("bob".into(), Box::new(bob));

    let mut dep = deploy_opts(&program, apps, DeployOptions::default()).expect("deploys");
    let end = dep.net.run();

    // 3. Inspect the results.
    let bob = dep.net.host_app::<NclHost>(HostId(2)).unwrap();
    let received: Vec<i64> = (0..16)
        .map(|i| bob.memory(kid).unwrap().arrays[0].get(i).as_i128() as i64)
        .collect();
    println!("== run ==");
    println!("  alice sent:   {data:?}");
    println!("  bob received: {received:?}");
    assert_eq!(received, (1..=16).map(|v| v * 2).collect::<Vec<i64>>());
    let packets = dep
        .net
        .switch_pipeline_mut(dep.switch("s1"))
        .unwrap()
        .register_read("packets", 0)
        .unwrap();
    println!(
        "  switch saw {} windows, finished in {:.1} µs of simulated time",
        packets,
        end as f64 / 1000.0
    );
    let _ = ControlPlane::new(s1);
    println!("ok");
}
