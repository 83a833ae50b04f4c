//! Tests of libncrt's two invocation APIs (paper §4.1): the
//! data-centric `ncl::out` (whole arrays) driven by [`NclHost`], and the
//! finer-grained per-window API ([`invocation_packets`]) that custom
//! applications build richer interfaces on — here, a custom app that
//! sends the windows of one invocation in *reverse* order and
//! rate-limited, which the data-centric API cannot express.

use ncl::core::control::ControlPlane;
use ncl::core::deploy::{deploy_opts, DeployOptions};
use ncl::core::nclc::{compile, CompileConfig};
use ncl::core::runtime::{invocation_packets, NclHost, OutInvocation, TypedArray};
use ncl::model::{HostId, NodeId, ScalarType, Value};
use ncl::ncp::{AckRepr, NcpPacket, ReliableConfig};
use ncl::netsim::{HostApp, HostCtx, LinkSpec, NetworkBuilder, Packet};
use std::any::Any;
use std::collections::HashMap;

const AND: &str = "hosts worker 2\nswitch s1\nlink worker* s1\n";

fn allreduce_program() -> ncl::core::nclc::CompiledProgram {
    let src = ncl::core::apps::allreduce_source(32, 8);
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("allreduce".into(), vec![8]);
    cfg.masks.insert("result".into(), vec![8]);
    compile(&src, AND, &cfg).expect("compiles")
}

/// A custom host using the per-window API: reversed order, one window
/// per 100 µs.
struct ReversedSender {
    packets: Vec<Vec<u8>>, // reversed at construction
    dest: NodeId,
}

impl HostApp for ReversedSender {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        for (i, _) in self.packets.iter().enumerate() {
            ctx.set_timer(i as u64 * 100_000, i as u64);
        }
    }
    fn on_packet(&mut self, _ctx: &mut HostCtx, _pkt: &Packet) {}
    fn on_timer(&mut self, ctx: &mut HostCtx, token: u64) {
        ctx.send(self.dest, self.packets[token as usize].clone());
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn per_window_api_interoperates_with_data_centric_api() {
    let program = allreduce_program();
    let kid = program.kernel_ids["allreduce"];

    // Worker 1: custom per-window sender, reversed + paced.
    let data1: Vec<i32> = (0..32).collect();
    let mut packets = invocation_packets(
        &program,
        HostId(1),
        "allreduce",
        &[TypedArray::from_i32(&data1)],
    )
    .expect("splits");
    assert_eq!(packets.len(), 4, "32 elems / windows of 8");
    packets.reverse();
    let w1 = ReversedSender {
        packets,
        dest: NodeId::Host(HostId(2)),
    };

    // Worker 2: the standard data-centric API.
    let mut w2 = NclHost::new(&program);
    let data2: Vec<i32> = (0..32).map(|i| i * 10).collect();
    w2.out(OutInvocation {
        kernel: "allreduce".into(),
        arrays: vec![TypedArray::from_i32(&data2)],
        dest: NodeId::Host(HostId(1)),
        start: 0,
        gap: 0,
    })
    .unwrap();
    w2.bind_incoming(
        &program,
        "allreduce",
        "result",
        &[(ScalarType::I32, 32), (ScalarType::Bool, 1)],
    )
    .unwrap();

    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    apps.insert("worker1".into(), Box::new(w1));
    apps.insert("worker2".into(), Box::new(w2));
    let mut dep = deploy_opts(&program, apps, DeployOptions::default()).expect("deploys");
    let cp = ControlPlane::new(program.switch("s1").unwrap());
    let s1 = dep.switch("s1");
    cp.ctrl_wr(
        dep.net.switch_pipeline_mut(s1).unwrap(),
        "nworkers",
        Value::u32(2),
    );
    dep.net.run();

    // Window-seq addressing makes order irrelevant: every slot still
    // aggregates the right elements.
    let w2app = dep.net.host_app::<NclHost>(HostId(2)).unwrap();
    let mem = w2app.memory(kid).unwrap();
    for i in 0..32 {
        assert_eq!(
            mem.arrays[0].get(i).as_i128() as i64,
            (i + i * 10) as i64,
            "element {i}"
        );
    }
}

#[test]
fn per_window_api_validates_like_out() {
    let program = allreduce_program();
    // Wrong element type.
    assert!(invocation_packets(
        &program,
        HostId(1),
        "allreduce",
        &[TypedArray::from_u64(&[1, 2, 3, 4, 5, 6, 7, 8])],
    )
    .is_err());
    // Partial window.
    assert!(invocation_packets(
        &program,
        HostId(1),
        "allreduce",
        &[TypedArray::from_i32(&[1, 2, 3])],
    )
    .is_err());
    // Unknown kernel.
    assert!(invocation_packets(&program, HostId(1), "nope", &[]).is_err());
}

#[test]
fn packets_decode_to_well_formed_windows() {
    let program = allreduce_program();
    let data: Vec<i32> = (0..32).collect();
    let packets = invocation_packets(
        &program,
        HostId(7),
        "allreduce",
        &[TypedArray::from_i32(&data)],
    )
    .unwrap();
    for (i, p) in packets.iter().enumerate() {
        let w = ncl::ncp::codec::decode_window(p).expect("well-formed");
        assert_eq!(w.seq, i as u32);
        assert_eq!(w.sender, HostId(7));
        assert_eq!(w.last, i == packets.len() - 1);
        assert_eq!(w.chunks[0].offset as usize, i * 8 * 4);
        assert_eq!(w.chunks[0].data.len(), 32);
    }
}

/// Records every frame it receives and acknowledges a window only on
/// its second arrival, so each window of a reliable sender is seen as a
/// first transmission (straight from the launch or released by the
/// congestion window) and again as an RTO retransmit.
struct AckSecondCopy {
    frames: Vec<Vec<u8>>,
}

impl HostApp for AckSecondCopy {
    fn on_packet(&mut self, ctx: &mut HostCtx, pkt: &Packet) {
        let p = NcpPacket::new_checked(&pkt.payload[..]).expect("NCP frame");
        let copies = self.frames.iter().filter(|f| **f == pkt.payload).count();
        self.frames.push(pkt.payload.clone());
        if copies == 1 {
            let mut ack = Vec::new();
            AckRepr {
                nack: false,
                kernel: p.kernel(),
                seq: p.seq(),
                sender: p.sender(),
                from: NodeId::Host(ctx.host).to_wire(),
            }
            .emit_into(&mut ack);
            ctx.send(NodeId::Host(HostId(p.sender())), ack);
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The two invocation APIs cut and encode windows in one place: with
/// telemetry off, whatever `NclHost` puts on the wire for window `i` —
/// on first send, on congestion-window release, on RTO retransmit — is
/// byte-identical to `invocation_packets(..)[i]`.
#[test]
fn nclhost_frames_match_invocation_packets() {
    let program = allreduce_program();
    let data: Vec<i32> = (0..32).collect();
    let arrays = vec![TypedArray::from_i32(&data)];
    let expected = invocation_packets(&program, HostId(1), "allreduce", &arrays).unwrap();

    let mut sender = NclHost::new(&program);
    // Two of the four windows launch; the rest wait for the window to
    // open. Unacknowledged first copies time out and are re-sent.
    sender.enable_reliability(ReliableConfig {
        cwnd: 2,
        max_cwnd: 2,
        ..ReliableConfig::default()
    });
    sender
        .out(OutInvocation {
            kernel: "allreduce".into(),
            arrays,
            dest: NodeId::Host(HostId(2)),
            start: 0,
            gap: 0,
        })
        .unwrap();
    let mut b = NetworkBuilder::new();
    let h1 = b.add_host(Box::new(sender));
    let h2 = b.add_host(Box::new(AckSecondCopy { frames: Vec::new() }));
    b.link(h1, h2, LinkSpec::default());
    let mut net = b.build();
    net.run();

    let tx = net.host_app::<NclHost>(HostId(1)).unwrap();
    let stats = tx.sender_stats().unwrap();
    assert_eq!((stats.acked, stats.retransmits, stats.abandoned), (4, 4, 0));
    let frames = &net.host_app::<AckSecondCopy>(HostId(2)).unwrap().frames;
    assert_eq!(frames.len(), 8, "every window arrives twice");
    // The launch put exactly the first two windows on the wire.
    assert_eq!(frames[..2], expected[..2]);
    for (i, want) in expected.iter().enumerate() {
        let copies = frames.iter().filter(|f| *f == want).count();
        assert_eq!(copies, 2, "window {i}: first send + retransmit");
    }
}
