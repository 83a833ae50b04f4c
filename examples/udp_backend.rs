//! NCP over real UDP sockets (the paper's Sockets/UDP prototype
//! backend): the program deployed with `deploy_udp` runs on the same
//! network code as the simulator — hosts, NCP-R, the switch's Fig. 3b
//! handling — with every node on its own loopback socket instead of a
//! simulated link. h1 streams windows to h2 through the switch under
//! NCP-R (the reliable sender, wall-clocked); h2 acknowledges each with
//! an explicit ACK frame, which the switch forwards without executing.
//!
//! ```text
//! cargo run -p ncl-examples --bin udp_backend
//! ```

use c3::{HostId, NodeId, ScalarType, Window};
use ncl_core::control::ControlPlane;
use ncl_core::deploy::{deploy_udp, DeployOptions};
use ncl_core::nclc::{compile, CompileConfig};
use ncl_core::runtime::{NclHost, OutInvocation, TypedArray};
use ncp::codec::decode_window;
use ncp::reliable::ReliableConfig;
use ncp::AckRepr;
use netsim::event::SECONDS;
use netsim::{HostApp, HostCtx, Packet};
use std::any::Any;
use std::collections::{BTreeMap, HashMap};

const PROGRAM: &str = r#"
_net_ _at_("s1") int seen[1] = {0};
_net_ _out_ void stamp(int *data) {
    seen[0] += 1;
    data[0] = data[0] + 1000;     // switch's mark
    data[1] = seen[0];            // running packet count
}
"#;

const AND: &str = "host h1\nhost h2\nswitch s1\nlink h1 s1\nlink h2 s1\n";

/// h2: keeps every window by sequence number and acknowledges each
/// arrival with an NCP-R ACK frame.
#[derive(Default)]
struct Acker {
    got: BTreeMap<u32, Window>,
}

impl HostApp for Acker {
    fn on_packet(&mut self, ctx: &mut HostCtx, pkt: &Packet) {
        let Ok(w) = decode_window(&pkt.payload) else {
            return;
        };
        let mut ack = Vec::new();
        AckRepr {
            nack: false,
            kernel: w.kernel.0,
            seq: w.seq,
            sender: w.sender.0,
            from: NodeId::Host(ctx.host).to_wire(),
        }
        .emit_into(&mut ack);
        ctx.send(NodeId::Host(w.sender), ack);
        self.got.insert(w.seq, w);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn main() {
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("stamp".into(), vec![2]);
    let program = compile(PROGRAM, AND, &cfg).expect("compiles");

    // h1 streams 5 windows of [v, 0] to h2, each tracked by NCP-R.
    let mut h1 = NclHost::new(&program);
    let data: Vec<i32> = (0..5).flat_map(|v| [v, 0]).collect();
    h1.out(OutInvocation {
        kernel: "stamp".into(),
        arrays: vec![TypedArray::from_i32(&data)],
        dest: NodeId::Host(HostId(2)),
        start: 0,
        gap: 0,
    })
    .unwrap();
    h1.enable_reliability(ReliableConfig {
        rto: 50_000_000, // 50 ms: generous for loopback
        cwnd: 8,         // all five windows fit the first flight
        ..ReliableConfig::default()
    });
    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    apps.insert("h1".into(), Box::new(h1));
    apps.insert("h2".into(), Box::new(Acker::default()));
    let mut dep = deploy_udp(&program, apps, DeployOptions::default()).expect("binds");
    let addr = |label: &str| dep.net.udp_addr(dep.node(label)).unwrap();
    println!(
        "switch s1 on {}, h1 on {}, h2 on {}",
        addr("s1"),
        addr("h1"),
        addr("h2")
    );
    dep.net.run_until(5 * SECONDS);

    let h2 = dep.net.host_app::<Acker>(dep.host("h2")).unwrap();
    for w in h2.got.values() {
        let marked = w.chunks[0].get(ScalarType::I32, 0).as_i128();
        let count = w.chunks[0].get(ScalarType::I32, 1).as_i128();
        println!(
            "h2 ← window seq={} value={marked} (switch count {count})",
            w.seq
        );
        assert_eq!(marked, 1000 + w.seq as i128, "switch mark missing");
    }
    assert_eq!(h2.got.len(), 5);
    let h1 = dep.net.host_app::<NclHost>(dep.host("h1")).unwrap();
    let stats = h1.sender_stats().unwrap();
    assert!(h1.done_at.is_some(), "every window must be acknowledged");
    assert_eq!((stats.acked, stats.abandoned), (5, 0));
    println!(
        "h1: all 5 windows delivered exactly once ({} retransmits)",
        stats.retransmits
    );

    let s1 = dep.switch("s1");
    let acks = dep.net.switch_stats(s1).unwrap().acks_forwarded;
    assert!(acks >= 5, "the switch forwards every ACK frame");
    let cp = ControlPlane::new(program.switch("s1").unwrap());
    let seen = cp.read_register(dep.net.switch_pipeline_mut(s1).unwrap(), "seen", 0);
    println!(
        "switch register 'seen' = {} (persistent across datagrams), {acks} ACK frames forwarded",
        seen.unwrap()
    );
    println!("ok");
}
