//! The Sockets/UDP backend (the paper's first prototype target) over
//! real loopback sockets: a program deployed with `deploy_udp` runs the
//! network's own host and switch code, each node on its own socket, on
//! both switch engines — the modeled PISA pipeline and the software
//! switch — reproducing Fig. 3b outside the simulator.

use ncl::core::deploy::{deploy_udp, DeployOptions, Deployment, SwitchBackend};
use ncl::core::nclc::{compile, CompileConfig, CompiledProgram};
use ncl::model::{Chunk, HostId, KernelId, NodeId, ScalarType, SwitchId, Value, Window};
use ncl::ncp::codec::{decode_window, encode_window};
use ncl::netsim::event::SECONDS;
use ncl::netsim::{HostApp, HostCtx, Packet};
use std::any::Any;
use std::collections::HashMap;

const AND: &str = "host h1\nhost h2\nswitch s1\nlink h1 s1\nlink h2 s1\n";

const ENGINES: [SwitchBackend; 2] = [SwitchBackend::Pisa, SwitchBackend::Simd];

/// h1: sends its payloads to h2 at start.
struct Burst(Vec<Vec<u8>>);

/// h2: keeps every payload that arrives.
#[derive(Default)]
struct Sink(Vec<Vec<u8>>);

impl HostApp for Burst {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        for payload in self.0.drain(..) {
            ctx.send(NodeId::Host(HostId(2)), payload);
        }
    }
    fn on_packet(&mut self, _: &mut HostCtx, _: &Packet) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl HostApp for Sink {
    fn on_packet(&mut self, _: &mut HostCtx, pkt: &Packet) {
        self.0.push(pkt.payload.clone());
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// One single-element window of kernel `kid` carrying `v`.
fn window(kid: u16, seq: u32, v: i32) -> Vec<u8> {
    let w = Window {
        kernel: KernelId(kid),
        seq,
        sender: HostId(1),
        from: NodeId::Host(HostId(1)),
        last: false,
        chunks: vec![Chunk {
            offset: 0,
            data: v.to_be_bytes().to_vec(),
        }],
        ext: vec![],
    };
    encode_window(&w, 0)
}

/// Deploys `program` over loopback sockets on `backend`, h1 sending
/// `payloads` to h2, and runs it to quiescence.
fn run(program: &CompiledProgram, backend: SwitchBackend, payloads: Vec<Vec<u8>>) -> Deployment {
    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    apps.insert("h1".into(), Box::new(Burst(payloads)));
    apps.insert("h2".into(), Box::new(Sink::default()));
    let opts = DeployOptions {
        backend,
        ..Default::default()
    };
    let mut dep = deploy_udp(program, apps, opts).expect("binds");
    dep.net.run_until(5 * SECONDS);
    dep
}

fn received(dep: &Deployment) -> &[Vec<u8>] {
    &dep.net.host_app::<Sink>(dep.host("h2")).unwrap().0
}

#[test]
fn compiled_kernel_runs_over_real_udp() {
    let src = r#"
_net_ _at_("s1") int total[1] = {0};
_net_ _out_ void bump(int *d) { d[0] += 1; total[0] += d[0]; }
"#;
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("bump".into(), vec![1]);
    let program = compile(src, AND, &cfg).expect("compiles");
    let kid = program.kernel_ids["bump"];
    for backend in ENGINES {
        // h1 sends three windows to h2 through the switch.
        let payloads = [10, 20, 30].iter().map(|&v| window(kid, 0, v)).collect();
        let mut dep = run(&program, backend, payloads);
        // h2 receives the incremented values, from the switch.
        let mut got = Vec::new();
        for bytes in received(&dep) {
            let w = decode_window(bytes).expect("a window");
            assert_eq!(w.from, NodeId::Switch(SwitchId(1)), "{backend:?}");
            got.push(w.chunks[0].get(ScalarType::I32, 0).as_i128() as i32);
        }
        got.sort_unstable();
        assert_eq!(got, vec![11, 21, 31], "{backend:?}");
        // The switch's persistent state: 11+21+31 = 63 in element 0 of
        // `total`, the one register so named.
        let s1 = dep.switch("s1");
        let engine = dep.net.switch_fastpath_mut(s1).unwrap();
        assert_eq!(engine.register_prefix_sum("total"), 63, "{backend:?}");
    }
}

#[test]
fn non_ncp_traffic_coexists() {
    // Garbage datagrams pass the switch untouched (Fig. 3b "NCP? no →
    // forwarding"), NCP windows still execute.
    let src = r#"_net_ _out_ void k(int *d) { d[0] = d[0] * 2; }"#;
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("k".into(), vec![1]);
    let program = compile(src, AND, &cfg).expect("compiles");
    let kid = program.kernel_ids["k"];
    for backend in ENGINES {
        let payloads = vec![b"hello not ncp".to_vec(), window(kid, 0, 7)];
        let dep = run(&program, backend, payloads);
        let got = received(&dep);
        assert!(
            got.iter().any(|b| b == b"hello not ncp"),
            "{backend:?}: plain datagram should pass through"
        );
        let doubled = got.iter().filter_map(|b| decode_window(b).ok());
        let doubled: Vec<Value> = doubled
            .map(|w| w.chunks[0].get(ScalarType::I32, 0))
            .collect();
        assert_eq!(
            doubled,
            vec![Value::i32(14)],
            "{backend:?}: NCP window should be processed"
        );
    }
}
