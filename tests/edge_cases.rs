//! Assorted cross-crate edge cases: window metadata visible to kernels,
//! wire-id round trips, reflected windows carrying rewritten hops, and
//! zero-work deployments.

use ncl::core::deploy::{deploy_opts, DeployOptions};
use ncl::core::nclc::{compile, CompileConfig};
use ncl::core::runtime::{NclHost, OutInvocation, TypedArray};
use ncl::model::{HostId, Label, NodeId, ScalarType, SwitchId, Window};
use ncl::ncp::codec::decode_window;
use ncl::netsim::{HostApp, HostCtx, Packet};
use std::any::Any;
use std::collections::HashMap;

#[path = "common/engines.rs"]
mod engines;

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
    assert_eq!(mem.arrays[1].get(0).bits(), 3, "three windows delivered");
    // Window 0: sender=1, seq=0; window 2: sender=1, seq=2.
    assert_eq!(mem.arrays[0].get(0).bits(), 1);
    assert_eq!(mem.arrays[0].get(1).bits(), 0);
    assert_eq!(mem.arrays[0].get(5).bits(), 2);
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

/// An [`NclHost`] that also keeps every window delivered to it.
struct Logged {
    host: NclHost,
    windows: Vec<Window>,
}

impl HostApp for Logged {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        self.host.on_start(ctx);
    }
    fn on_packet(&mut self, ctx: &mut HostCtx, pkt: &Packet) {
        self.windows.extend(decode_window(&pkt.payload));
        self.host.on_packet(ctx, pkt);
    }
    fn on_timer(&mut self, ctx: &mut HostCtx, token: u64) {
        self.host.on_timer(ctx, token);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
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
    let sender = Logged {
        host: sender,
        windows: vec![],
    };
    apps.insert("a".into(), Box::new(sender));
    apps.insert("b".into(), Box::new(NclHost::new(&program)));
    let mut dep = deploy_opts(&program, apps, DeployOptions::default()).unwrap();
    dep.net.run();
    // The reflection went back to the sender, not the destination.
    let a = dep.net.host_app::<Logged>(HostId(1)).unwrap();
    let b = dep.net.host_app::<NclHost>(HostId(2)).unwrap();
    assert_eq!(a.host.windows_received, 1);
    assert_eq!(b.windows_received, 0);
    assert_eq!(a.windows.len(), 1);
    let w = &a.windows[0];
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
    assert_eq!(recv.memory(ka).unwrap().arrays[0].get(0).bits(), 1);
}

/// `RegisterDecl::init` holds the explicit initializer prefix only, yet
/// every execution tier starts from exactly the state the fully
/// materialised initializer describes — including a lane-split array,
/// whose banks each take a stride of the prefix.
#[test]
fn initializer_prefix_pads_to_the_same_state_in_every_tier() {
    use ncl::core::{ControlPlane, FastPathSwitch};
    use ncl::ir::interp::SwitchState;
    use ncl::model::Value;
    use ncl::pisa::{Pipeline, ResourceModel};

    let src = r#"
_net_ _at_("s1") int a[8] = {1, 2};
_net_ _at_("s1") int z[8] = {0, 0, 3};
_net_ _at_("s1") bool v[4] = {true};
_net_ _at_("s1") uint32_t c[2][4] = {{1}, {2}};
_net_ _at_("s1") int accum[1 << 20] = {0};
_net_ _at_("s1") int split[8] = {5, 6, 7, 0, 0, 9};
_net_ _out_ void k(int *d) {
    unsigned base = window.seq * window.len;
    for (unsigned i = 0; i < window.len; ++i) split[base + i] += d[i];
    a[0] += 1; z[2] += 1; c[1][0] += 1; accum[window.seq] += 1;
    if (v[0]) _drop();
}
"#;
    let model = ResourceModel {
        sram_bytes_per_stage: 64 << 20,
        ..ResourceModel::default()
    };
    let mut cfg = CompileConfig {
        model,
        ..CompileConfig::default()
    };
    cfg.masks.insert("k".into(), vec![4]);
    let program = compile(src, AND, &cfg).expect("compiles");
    let module = program.module("s1").expect("s1 module");

    let i = Value::i32;
    let u = Value::u32;
    let prefixes: [(&str, usize, Vec<Value>); 6] = [
        ("a", 8, vec![i(1), i(2)]),
        ("z", 8, vec![i(0), i(0), i(3)]),
        ("v", 4, vec![Value::bool(true)]),
        ("c", 8, vec![u(1), u(0), u(0), u(0), u(2)]),
        ("accum", 1 << 20, vec![]),
        ("split", 8, vec![i(5), i(6), i(7), i(0), i(0), i(9)]),
    ];
    let compiled = program.switch("s1").expect("s1 compiled");
    assert!(
        compiled.lane_banks["split"].len() > 1,
        "split is lane-split"
    );
    let pipe = Pipeline::load(compiled.pipeline.clone(), model).expect("loads");
    let cp = ControlPlane::new(compiled);
    let fp = FastPathSwitch::from_program(&program, "s1").expect("fast path builds");
    let interp = SwitchState::from_module(module);
    for (name, len, prefix) in prefixes {
        let (r, decl) = module
            .registers
            .iter()
            .enumerate()
            .find(|(_, d)| d.name == name)
            .expect("declared");
        assert_eq!(decl.init, prefix, "{name}: init is the explicit prefix");
        assert_eq!(decl.len(), len, "{name}");
        // The fully materialised initializer, as sema used to store it.
        let zero = Value::zero(decl.elem);
        let full = |idx: usize| prefix.get(idx).copied().unwrap_or(zero);
        assert_eq!(interp.registers[r].len(), len, "{name}");
        // Every element of the small arrays; both ends of the big one.
        for idx in (0..len.min(64)).chain(len.saturating_sub(2)..len) {
            assert_eq!(
                interp.registers[r].get(idx),
                full(idx),
                "interp {name}[{idx}]"
            );
            assert_eq!(
                fp.register_read(name, idx),
                Some(full(idx)),
                "fast path {name}[{idx}]"
            );
            assert_eq!(
                cp.read_register(&pipe, name, idx),
                Some(full(idx)),
                "pisa {name}[{idx}]"
            );
        }
        assert_eq!(fp.register_read(name, len), None, "{name} ends at {len}");
    }
}

/// A slot's type is the declaration's. A hand-built module (nothing
/// sema cast) may carry off-type values in a `RegisterDecl::init`
/// prefix; every engine of the differential harness normalises them to
/// `elem` at load, reads back `elem`-typed values, and keeps agreeing
/// once the kernel stores.
#[test]
fn off_type_initializers_read_back_elem_typed_in_every_engine() {
    use engines::{check_module, ints, window, Config};
    use ncl::ir::interp::SwitchState;
    use ncl::ir::lower::{lower, LoweringConfig};
    use ncl::model::Value;

    let src = r#"
_net_ _at_("s1") int8_t m[4] = {1, 2};
_net_ _out_ void k(int *d) {
    d[1] = (int)m[1];
    m[2] = (int8_t)d[0];
    d[2] = (int)m[2];
}
"#;
    let checked = ncl::lang::frontend(src, "t.ncl").expect("frontend");
    let mut module = lower(&checked, &LoweringConfig::with_mask("k", vec![4])).expect("lowers");
    // What sema would never emit: wider, differently-signed values.
    module.registers[0].init = vec![Value::i32(1), Value::u32(0x1FF)];
    let i8v = |b: u64| Value::new(ScalarType::I8, b);
    let before = [i8v(1), i8v(0xFF), i8v(0), i8v(0)];
    let after = [i8v(1), i8v(0xFF), i8v(0x34), i8v(0)];

    let windows = [window(0, 1, vec![ints(&[0x1234, 7, 7, 7])])];
    let out = check_module(&module, &Config::default(), &windows);
    assert!(out.pisa, "the kernel fits the chip");
    let read =
        |st: &SwitchState| -> Vec<Value> { (0..4).map(|i| st.registers[0].get(i)).collect() };
    assert_eq!(read(&out.loaded), before, "at load");
    assert_eq!(
        out.outputs[0].1.chunks[0].data,
        ints(&[0x1234, -1, 0x34, 7])
    );
    assert_eq!(read(&out.state), after, "after the store");
}
