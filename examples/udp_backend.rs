//! NCP over real UDP sockets (the paper's Sockets/UDP prototype
//! backend): a switch thread runs the compiled pipeline, through the
//! same engine interface a simulated switch uses, against loopback
//! datagrams while two host threads exchange windows through
//! it — with NCP-R enabled end to end: h1 tracks every window in the
//! reliable sender (wall-clocked by the endpoint), h2 acknowledges with
//! explicit ACK frames, and the switch routes control frames without
//! executing them.
//!
//! ```text
//! cargo run -p ncl-examples --bin udp_backend
//! ```

use c3::{Chunk, HostId, KernelId, NodeId, ScalarType, Window};
use ncl_core::nclc::{compile, CompileConfig};
use ncp::reliable::{ReliableConfig, Sender};
use ncp::udp::{RecvEvent, UdpEndpoint};
use ncp::{AckRepr, NcpPacket, FLAG_ACK, FLAG_NACK};
use netsim::FastDatapath;
use pisa::{Pipeline, ResourceModel};
use std::net::SocketAddr;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

const PROGRAM: &str = r#"
_net_ _at_("s1") int seen[1] = {0};
_net_ _out_ void stamp(int *data) {
    seen[0] += 1;
    data[0] = data[0] + 1000;     // switch's mark
    data[1] = seen[0];            // running packet count
}
"#;

const AND: &str = "host h1\nhost h2\nswitch s1\nlink h1 s1\nlink h2 s1\n";

fn main() {
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("stamp".into(), vec![2]);
    let program = compile(PROGRAM, AND, &cfg).expect("compiles");
    let kid = program.kernel_ids["stamp"];
    let pipeline = Pipeline::load(
        program.switch("s1").unwrap().pipeline.clone(),
        ResourceModel::default(),
    )
    .expect("loads");
    let mut engine: Box<dyn FastDatapath + Send> = Box::new(pipeline);

    // Real sockets on loopback.
    let mut h1 = UdpEndpoint::bind("127.0.0.1:0").unwrap();
    let mut h2 = UdpEndpoint::bind("127.0.0.1:0").unwrap();
    let mut sw = UdpEndpoint::bind("127.0.0.1:0").unwrap();
    let sw_addr = sw.local_addr().unwrap();
    let h1_addr = h1.local_addr().unwrap();
    let h2_addr = h2.local_addr().unwrap();
    println!("software switch on {sw_addr}, h1 on {h1_addr}, h2 on {h2_addr}");

    // The switch: engine + forwarding (Fig. 3b). Data flows h1 → h2;
    // NCP-R control frames are routed by source without touching
    // switch state.
    let (stop_tx, stop_rx) = mpsc::channel::<()>();
    let switch = thread::spawn(move || {
        loop {
            if stop_rx.try_recv().is_ok() {
                return engine;
            }
            let Ok(Some((bytes, src))) = sw.recv_raw() else {
                continue;
            };
            let is_ctrl = NcpPacket::new_checked(&bytes[..])
                .map(|p| p.flags() & (FLAG_ACK | FLAG_NACK) != 0)
                .unwrap_or(false);
            let towards: SocketAddr = if src == h2_addr { h1_addr } else { h2_addr };
            if is_ctrl {
                // ACK/NACK frames are forwarded, never executed.
                let _ = sw.send_raw(towards, &bytes);
                continue;
            }
            match engine.process(&bytes) {
                Some(out) if out.fwd_code != 3 => {
                    let _ = sw.send_raw(towards, &out.payload);
                }
                Some(_) => {} // dropped by the kernel
                None => {
                    // Not NCP: plain forward.
                    let _ = sw.send_raw(towards, &bytes);
                }
            }
        }
    });

    // h1 streams 5 windows, each tracked by the NCP-R sender and
    // wall-clocked by the endpoint.
    let mut sender = Sender::new(ReliableConfig {
        rto: 50_000_000, // 50 ms: generous for loopback
        cwnd: 8,         // all five windows fit the first flight
        ..ReliableConfig::default()
    });
    let mut windows = Vec::new();
    for v in 0..5i32 {
        let w = Window {
            kernel: KernelId(kid),
            seq: v as u32,
            sender: HostId(1),
            from: NodeId::Host(HostId(1)),
            last: v == 4,
            chunks: vec![Chunk {
                offset: 0,
                data: [v, 0].iter().flat_map(|x| x.to_be_bytes()).collect(),
            }],
            ext: vec![],
        };
        assert!(sender.track(w.kernel.0, w.seq, h1.now()));
        h1.send_window(sw_addr, &w).unwrap();
        windows.push(w);
    }

    // h2 collects them and acknowledges each with an explicit frame.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut got = 0;
    h2.set_timeout(Some(Duration::from_millis(20))).unwrap();
    while got < 5 && Instant::now() < deadline {
        if let Some((w, src)) = h2.recv_window().unwrap() {
            let marked = w.chunks[0].get(ScalarType::I32, 0).as_i128();
            let count = w.chunks[0].get(ScalarType::I32, 1).as_i128();
            println!(
                "h2 ← window seq={} value={marked} (switch count {count})",
                w.seq
            );
            assert!(marked >= 1000, "switch mark missing");
            h2.send_ack(
                src,
                AckRepr {
                    nack: false,
                    kernel: w.kernel.0,
                    seq: w.seq,
                    sender: w.sender.0,
                    from: 2,
                },
            )
            .unwrap();
            got += 1;
        }
    }

    // h1 drains ACKs (retransmitting on RTO if loopback drops — it
    // rarely does) until every window is retired.
    h1.set_timeout(Some(Duration::from_millis(20))).unwrap();
    while !sender.idle() && Instant::now() < deadline {
        match h1.poll_event().unwrap() {
            RecvEvent::Ack(ack, _) => {
                assert!(!ack.nack);
                sender.on_ack(ack.kernel, ack.seq);
            }
            RecvEvent::Timeout => {
                let (due, _) = sender.poll(h1.now());
                for (k, seq) in due {
                    let w = &windows[seq as usize];
                    assert_eq!(w.kernel.0, k);
                    println!("h1 retransmits seq={seq}");
                    h1.send_window(sw_addr, w).unwrap();
                }
            }
            _ => {}
        }
    }
    assert!(sender.idle(), "every window must be acknowledged");
    println!(
        "h1: all {} windows delivered exactly once ({} retransmits)",
        got,
        sender.stats().retransmits
    );

    stop_tx.send(()).unwrap();
    let engine = switch.join().unwrap();
    let pipeline: &Pipeline = engine.as_any().downcast_ref().expect("a PISA pipeline");
    println!(
        "switch register 'seen' = {} (persistent across datagrams)",
        pipeline.register_read("seen", 0).unwrap()
    );
    assert_eq!(got, 5);
    println!("ok");
}
