//! Assorted cross-crate edge cases: window metadata visible to kernels,
//! wire-id round trips, reflected windows carrying rewritten hops, and
//! zero-work deployments.

use ncl::core::deploy::{deploy_opts, DeployOptions};
use ncl::core::nclc::{compile, CompileConfig};
use ncl::core::runtime::{NclHost, OutInvocation, TypedArray};
use ncl::model::{HostId, Label, NodeId, ScalarType, SwitchId};
use ncl::netsim::HostApp;
use std::collections::HashMap;

const AND: &str = "host a\nhost b\nswitch s1\nlink a s1\nlink b s1\n";

/// `window.sender` and `window.seq` are usable switch-side: the kernel
/// tags each window with both.
#[test]
fn kernels_observe_window_metadata() {
    let src = r#"
_net_ _out_ void tag(uint32_t *d) {
    d[0] = (uint32_t)window.sender;
    d[1] = window.seq;
}
_net_ _in_ void recv(uint32_t *d, _ext_ uint32_t *log, _ext_ uint32_t *n) {
    log[(n[0] * 2) & 63] = d[0];
    log[(n[0] * 2 + 1) & 63] = d[1];
    n[0] = n[0] + 1;
}
"#;
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("tag".into(), vec![2]);
    cfg.masks.insert("recv".into(), vec![2]);
    let program = compile(src, AND, &cfg).expect("compiles");
    let kid = program.kernel_ids["tag"];
    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    let mut sender = NclHost::new(&program);
    sender
        .out(OutInvocation {
            kernel: "tag".into(),
            arrays: vec![TypedArray::from_u32(&[0, 0, 0, 0, 0, 0])], // 3 windows
            dest: NodeId::Host(HostId(2)),
            start: 0,
            gap: 0,
        })
        .unwrap();
    apps.insert("a".into(), Box::new(sender));
    let mut recv = NclHost::new(&program);
    recv.bind_incoming(
        &program,
        "tag",
        "recv",
        &[(ScalarType::U32, 64), (ScalarType::U32, 1)],
    )
    .unwrap();
    apps.insert("b".into(), Box::new(recv));
    let mut dep = deploy_opts(&program, apps, DeployOptions::default()).unwrap();
    dep.net.run();
    let recv = dep.net.host_app::<NclHost>(HostId(2)).unwrap();
    let mem = recv.memory(kid).unwrap();
    assert_eq!(mem.arrays[1][0].bits(), 3, "three windows delivered");
    // Window 0: sender=1, seq=0; window 2: sender=1, seq=2.
    assert_eq!(mem.arrays[0][0].bits(), 1);
    assert_eq!(mem.arrays[0][1].bits(), 0);
    assert_eq!(mem.arrays[0][5].bits(), 2);
}

/// Wire ids: host/switch ranges survive AND → deployment → NCP.
#[test]
fn label_wire_ids_roundtrip() {
    let overlay = ncl::and::parse("hosts h 3\nswitch sw\nlink h* sw\n").unwrap();
    let ids = overlay.label_ids();
    for (label, &wire) in &ids {
        let node = NodeId::from_wire(wire);
        match node {
            NodeId::Host(HostId(i)) => {
                assert_eq!(label, &Label::new(format!("h{i}")));
            }
            NodeId::Switch(SwitchId(1)) => assert_eq!(label.as_str(), "sw"),
            other => panic!("unexpected node {other}"),
        }
        assert_eq!(node.to_wire(), wire);
    }
}

/// A reflected window arrives with `from` rewritten to the switch —
/// what the KVS client keys its hit detection on.
#[test]
fn reflection_rewrites_previous_hop() {
    let src = r#"_net_ _out_ void bounce(uint32_t *d) { d[0] += 1; _reflect(); }"#;
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("bounce".into(), vec![1]);
    let program = compile(src, AND, &cfg).expect("compiles");
    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    let mut sender = NclHost::new(&program);
    sender
        .out(OutInvocation {
            kernel: "bounce".into(),
            arrays: vec![TypedArray::from_u32(&[41])],
            dest: NodeId::Host(HostId(2)),
            start: 0,
            gap: 0,
        })
        .unwrap();
    sender.log_windows = true;
    apps.insert("a".into(), Box::new(sender));
    apps.insert("b".into(), Box::new(NclHost::new(&program)));
    let mut dep = deploy_opts(&program, apps, DeployOptions::default()).unwrap();
    dep.net.run();
    // The reflection went back to the sender, not the destination.
    let a = dep.net.host_app::<NclHost>(HostId(1)).unwrap();
    let b = dep.net.host_app::<NclHost>(HostId(2)).unwrap();
    assert_eq!(a.windows_received, 1);
    assert_eq!(b.windows_received, 0);
    let w = &a.window_log[0];
    assert_eq!(w.from, NodeId::Switch(dep.switch("s1")));
    assert_eq!(w.chunks[0].get(ScalarType::U32, 0).bits(), 42);
}

/// Deploying a program with no invocations runs to quiescence
/// immediately — no stray events.
#[test]
fn idle_deployment_terminates() {
    let src = "_net_ _out_ void k(int *d) { d[0] += 1; }";
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("k".into(), vec![1]);
    let program = compile(src, AND, &cfg).unwrap();
    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    apps.insert("a".into(), Box::new(NclHost::new(&program)));
    apps.insert("b".into(), Box::new(NclHost::new(&program)));
    let mut dep = deploy_opts(&program, apps, DeployOptions::default()).unwrap();
    let end = dep.net.run();
    assert_eq!(end, 0, "nothing to simulate");
    assert_eq!(dep.net.stats().delivered, 0);
}

/// The kernel-id namespace is shared program-wide: a host binding an
/// incoming handler for kernel A never sees kernel B's windows.
#[test]
fn kernel_dispatch_isolates_handlers() {
    let src = r#"
_net_ _out_ void ka(uint32_t *d) { d[0] += 1; }
_net_ _out_ void kb(uint32_t *d) { d[0] += 100; }
_net_ _in_ void ra(uint32_t *d, _ext_ uint32_t *n) { n[0] = n[0] + 1; }
"#;
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("ka".into(), vec![1]);
    cfg.masks.insert("kb".into(), vec![1]);
    cfg.masks.insert("ra".into(), vec![1]);
    let program = compile(src, AND, &cfg).expect("compiles");
    let ka = program.kernel_ids["ka"];
    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    let mut sender = NclHost::new(&program);
    for k in ["ka", "kb"] {
        sender
            .out(OutInvocation {
                kernel: k.into(),
                arrays: vec![TypedArray::from_u32(&[0])],
                dest: NodeId::Host(HostId(2)),
                start: 0,
                gap: 0,
            })
            .unwrap();
    }
    apps.insert("a".into(), Box::new(sender));
    let mut recv = NclHost::new(&program);
    recv.bind_incoming(&program, "ka", "ra", &[(ScalarType::U32, 1)])
        .unwrap();
    apps.insert("b".into(), Box::new(recv));
    let mut dep = deploy_opts(&program, apps, DeployOptions::default()).unwrap();
    dep.net.run();
    let recv = dep.net.host_app::<NclHost>(HostId(2)).unwrap();
    assert_eq!(recv.windows_received, 2, "both windows arrive");
    // But only ka's ran the handler.
    assert_eq!(recv.memory(ka).unwrap().arrays[0][0].bits(), 1);
}
