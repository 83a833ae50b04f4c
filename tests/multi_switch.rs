//! Multi-switch deployments: per-location kernel versions (`_at_`),
//! SPMD splitting on `_here()`, and `_pass(label)` routed forwarding —
//! the paper's Fig. 3c scenario where "different switches or hosts have
//! different roles".

use ncl::core::control::ControlPlane;
use ncl::core::deploy::{deploy_opts, DeployOptions};
use ncl::core::nclc::{compile, CompileConfig};
use ncl::core::runtime::{NclHost, OutInvocation, TypedArray};
use ncl::model::{HostId, NodeId, ScalarType, Value};
use ncl::netsim::HostApp;
use std::collections::HashMap;

/// h1 — edge — agg — h2: the edge switch doubles values, the aggregate
/// switch accumulates a running total; both versions of the *same*
/// location-less kernel diverge via `_here()`.
#[test]
fn spmd_kernel_diverges_by_location() {
    let src = r#"
_net_ _at_("agg") int total[1] = {0};
_net_ _out_ void k(int *d) {
    if (_here("edge")) {
        d[0] = d[0] * 2;
    } else {
        total[0] += d[0];
    }
}
_net_ _in_ void recv(int *d, _ext_ int *out) { out[0] = d[0]; }
"#;
    let and = "host h1\nhost h2\nswitch edge\nswitch agg\n\
               link h1 edge\nlink edge agg\nlink agg h2\n";
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("k".into(), vec![1]);
    cfg.masks.insert("recv".into(), vec![1]);
    let program = compile(src, and, &cfg).expect("compiles");
    let kid = program.kernel_ids["k"];

    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    let mut sender = NclHost::new(&program);
    sender
        .out(OutInvocation {
            kernel: "k".into(),
            arrays: vec![TypedArray::from_i32(&[21])],
            dest: NodeId::Host(HostId(2)),
            start: 0,
            gap: 0,
        })
        .unwrap();
    apps.insert("h1".into(), Box::new(sender));
    let mut receiver = NclHost::new(&program);
    receiver
        .bind_incoming(&program, "k", "recv", &[(ScalarType::I32, 1)])
        .unwrap();
    apps.insert("h2".into(), Box::new(receiver));

    let mut dep = deploy_opts(&program, apps, DeployOptions::default()).expect("deploys");
    dep.net.run();

    // The edge doubled 21 → 42; the aggregate added it to its total and
    // passed it on.
    let h2 = dep.net.host_app::<NclHost>(HostId(2)).unwrap();
    assert_eq!(h2.windows_received, 1);
    assert_eq!(h2.memory(kid).unwrap().arrays[0].get(0), Value::i32(42));
    let agg = dep.switch("agg");
    let total = dep
        .net
        .switch_pipeline_mut(agg)
        .unwrap()
        .register_read("total", 0)
        .expect("total register");
    assert_eq!(total, Value::i32(42));
}

/// Two explicitly versioned kernels with the same name, one per switch
/// (`_at_`-restricted definitions, paper §4.1).
#[test]
fn versioned_kernels_with_same_name() {
    let src = r#"
_net_ _out_ _at_("edge") void k(int *d) { d[0] = d[0] + 100; }
_net_ _out_ _at_("agg") void k(int *d) { d[0] = d[0] + 1; }
_net_ _in_ void recv(int *d, _ext_ int *out) { out[0] = d[0]; }
"#;
    let and = "host h1\nhost h2\nswitch edge\nswitch agg\n\
               link h1 edge\nlink edge agg\nlink agg h2\n";
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("k".into(), vec![1]);
    cfg.masks.insert("recv".into(), vec![1]);
    let program = compile(src, and, &cfg).expect("compiles");
    let kid = program.kernel_ids["k"];

    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    let mut sender = NclHost::new(&program);
    sender
        .out(OutInvocation {
            kernel: "k".into(),
            arrays: vec![TypedArray::from_i32(&[0])],
            dest: NodeId::Host(HostId(2)),
            start: 0,
            gap: 0,
        })
        .unwrap();
    apps.insert("h1".into(), Box::new(sender));
    let mut receiver = NclHost::new(&program);
    receiver
        .bind_incoming(&program, "k", "recv", &[(ScalarType::I32, 1)])
        .unwrap();
    apps.insert("h2".into(), Box::new(receiver));
    let mut dep = deploy_opts(&program, apps, DeployOptions::default()).expect("deploys");
    dep.net.run();
    let h2 = dep.net.host_app::<NclHost>(HostId(2)).unwrap();
    // 0 + 100 at the edge, then + 1 at the aggregate.
    assert_eq!(h2.memory(kid).unwrap().arrays[0].get(0), Value::i32(101));
}

/// `_pass(label)` redirects a window to a labelled component, away from
/// its nominal destination (the key-partitioned-cluster case of §4.3).
#[test]
fn pass_label_redirects() {
    let src = r#"
_net_ _out_ _at_("s1") void k(uint32_t *d) {
    if (d[0] > 100) { _pass("big"); }
}
_net_ _in_ void recv(uint32_t *d, _ext_ uint32_t *out, _ext_ uint32_t *n) {
    out[n[0]] = d[0];
    n[0] = n[0] + 1;
}
"#;
    let and = "host src\nhost small\nhost big\nswitch s1\n\
               link src s1\nlink small s1\nlink big s1\n";
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("k".into(), vec![1]);
    cfg.masks.insert("recv".into(), vec![1]);
    let program = compile(src, and, &cfg).expect("compiles");

    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    let mut sender = NclHost::new(&program);
    for v in [5u32, 500, 7, 700] {
        sender
            .out(OutInvocation {
                kernel: "k".into(),
                arrays: vec![TypedArray::from_u32(&[v])],
                dest: NodeId::Host(HostId(2)), // nominal: "small"
                start: 0,
                gap: 0,
            })
            .unwrap();
    }
    apps.insert("src".into(), Box::new(sender));
    for label in ["small", "big"] {
        let mut r = NclHost::new(&program);
        r.bind_incoming(
            &program,
            "k",
            "recv",
            &[(ScalarType::U32, 8), (ScalarType::U32, 1)],
        )
        .unwrap();
        apps.insert(label.into(), Box::new(r));
    }
    let mut dep = deploy_opts(&program, apps, DeployOptions::default()).expect("deploys");
    dep.net.run();

    let kid = program.kernel_ids["k"];
    let small = dep.net.host_app::<NclHost>(dep.host("small")).unwrap();
    let big = dep.net.host_app::<NclHost>(dep.host("big")).unwrap();
    assert_eq!(small.windows_received, 2, "values ≤100 stay on course");
    assert_eq!(big.windows_received, 2, "values >100 diverted");
    let big_vals: Vec<u64> = (0..2)
        .map(|i| big.memory(kid).unwrap().arrays[0].get(i).bits())
        .collect();
    assert!(big_vals.contains(&500) && big_vals.contains(&700));
}

/// Per-location control variables: the same program deployed on two
/// switches keeps independent switch state.
#[test]
fn per_switch_state_is_independent() {
    let src = r#"
_net_ int seen[1] = {0};
_net_ _out_ void k(int *d) { seen[0] += 1; }
"#;
    let and = "host h1\nhost h2\nswitch sa\nswitch sb\n\
               link h1 sa\nlink sa sb\nlink sb h2\n";
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("k".into(), vec![1]);
    let program = compile(src, and, &cfg).expect("compiles");
    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    let mut sender = NclHost::new(&program);
    for _ in 0..3 {
        sender
            .out(OutInvocation {
                kernel: "k".into(),
                arrays: vec![TypedArray::from_i32(&[1])],
                dest: NodeId::Host(HostId(2)),
                start: 0,
                gap: 0,
            })
            .unwrap();
    }
    apps.insert("h1".into(), Box::new(sender));
    apps.insert("h2".into(), Box::new(NclHost::new(&program)));
    let mut dep = deploy_opts(&program, apps, DeployOptions::default()).expect("deploys");
    dep.net.run();
    // Location-less memory exists on all switches; modifications are
    // local (paper §4.1: "NCL makes no consistency guarantees").
    for label in ["sa", "sb"] {
        let sw = dep.switch(label);
        let seen = dep
            .net
            .switch_pipeline_mut(sw)
            .unwrap()
            .register_read("seen", 0)
            .unwrap();
        assert_eq!(seen, Value::i32(3), "{label}");
    }
    let _ = ControlPlane::new(program.switch("sa").unwrap());
}
