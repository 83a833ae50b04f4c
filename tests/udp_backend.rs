//! The Sockets/UDP backend (the paper's first prototype target) over
//! real loopback sockets: two hosts and a switch thread running a
//! compiled engine against real UDP datagrams — the modeled PISA
//! pipeline and the software switch, each through the one engine
//! interface — reproducing Fig. 3b outside the simulator.

use ncl::core::nclc::{compile, CompileConfig, CompiledProgram};
use ncl::core::FastPathSwitch;
use ncl::model::{Chunk, HostId, KernelId, NodeId, ScalarType, Value, Window};
use ncl::ncp::udp::UdpEndpoint;
use ncl::netsim::FastDatapath;
use ncl::pisa::{Pipeline, ResourceModel};
use std::net::SocketAddr;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

const AND: &str = "host h1\nhost h2\nswitch s1\nlink h1 s1\nlink h2 s1\n";

/// Both engines a switch can hold, built from one program's `s1`.
fn engines(program: &CompiledProgram) -> [(&'static str, Box<dyn FastDatapath + Send>); 2] {
    let compiled = program.switch("s1").expect("s1 compiled");
    let pipe = Pipeline::load(compiled.pipeline.clone(), ResourceModel::default()).unwrap();
    let soft = FastPathSwitch::from_program(program, "s1").expect("s1 has a module");
    [("pisa", Box::new(pipe)), ("software", Box::new(soft))]
}

/// A switch on a socket: receives NCP-over-UDP packets, runs its
/// engine, and forwards per the kernel's decision. Registered host
/// addresses play the routing table.
struct SoftSwitch {
    endpoint: UdpEndpoint,
    engine: Box<dyn FastDatapath + Send>,
    hosts: Vec<(HostId, SocketAddr)>,
    my_wire: u16,
}

impl SoftSwitch {
    fn addr_of(&self, wire: u16) -> Option<SocketAddr> {
        let node = NodeId::from_wire(wire);
        self.hosts
            .iter()
            .find(|(h, _)| NodeId::Host(*h) == node)
            .map(|(_, a)| *a)
    }

    /// Processes packets until `stop` fires.
    fn run(mut self, stop: mpsc::Receiver<()>) -> Box<dyn FastDatapath + Send> {
        loop {
            if stop.try_recv().is_ok() {
                return self.engine;
            }
            let Ok(Some((bytes, src))) = self.endpoint.recv_raw() else {
                continue;
            };
            let Some(out) = self.engine.process(&bytes) else {
                // Not NCP for us: flood to the other host (L2 fallback).
                for (_, a) in &self.hosts {
                    if *a != src {
                        let _ = self.endpoint.send_raw(*a, &bytes);
                    }
                }
                continue;
            };
            if out.fwd_code == 3 {
                continue; // dropped by the kernel
            }
            let mut payload = out.payload;
            let incoming_from = ncl::ncp::NcpPacket::new_checked(&bytes[..])
                .ok()
                .map(|p| p.from());
            {
                let mut p = ncl::ncp::NcpPacket::new_unchecked(&mut payload[..]);
                p.set_from(self.my_wire);
            }
            match out.fwd_code {
                1 => {
                    // reflect: back to the previous hop.
                    if let Some(a) = incoming_from.and_then(|f| self.addr_of(f)) {
                        let _ = self.endpoint.send_raw(a, &payload);
                    }
                }
                2 => {
                    for (_, a) in &self.hosts {
                        let _ = self.endpoint.send_raw(*a, &payload);
                    }
                }
                _ => {
                    // pass: to every host except the sender (star
                    // topology; the real dst is the IP header we don't
                    // model here).
                    for (_, a) in &self.hosts {
                        if *a != src {
                            let _ = self.endpoint.send_raw(*a, &payload);
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn compiled_kernel_runs_over_real_udp() {
    // Compile the increment kernel.
    let src = r#"
_net_ _at_("s1") int total[1] = {0};
_net_ _out_ void bump(int *d) { d[0] += 1; total[0] += d[0]; }
"#;
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("bump".into(), vec![1]);
    let program = compile(src, AND, &cfg).expect("compiles");
    let kid = program.kernel_ids["bump"];
    for (name, engine) in engines(&program) {
        // Endpoints on loopback.
        let mut h1 = UdpEndpoint::bind("127.0.0.1:0").unwrap();
        let mut h2 = UdpEndpoint::bind("127.0.0.1:0").unwrap();
        let sw_ep = UdpEndpoint::bind("127.0.0.1:0").unwrap();
        let sw_addr = sw_ep.local_addr().unwrap();
        let soft = SoftSwitch {
            endpoint: sw_ep,
            engine,
            hosts: vec![
                (HostId(1), h1.local_addr().unwrap()),
                (HostId(2), h2.local_addr().unwrap()),
            ],
            my_wire: NodeId::Switch(c3::SwitchId(1)).to_wire(),
        };
        let (stop_tx, stop_rx) = mpsc::channel();
        let handle = thread::spawn(move || soft.run(stop_rx));

        // h1 sends three windows "to h2" through the switch.
        for v in [10i32, 20, 30] {
            let w = Window {
                kernel: KernelId(kid),
                seq: 0,
                sender: HostId(1),
                from: NodeId::Host(HostId(1)),
                last: false,
                chunks: vec![Chunk {
                    offset: 0,
                    data: v.to_be_bytes().to_vec(),
                }],
                ext: vec![],
            };
            h1.send_window(sw_addr, &w).unwrap();
        }
        // h2 receives the incremented values, from the switch.
        let mut got = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while got.len() < 3 && std::time::Instant::now() < deadline {
            if let Some((w, _)) = h2.recv_window().unwrap() {
                got.push(w.chunks[0].get(ScalarType::I32, 0).as_i128() as i32);
                assert_eq!(w.from, NodeId::Switch(c3::SwitchId(1)), "{name}");
            }
        }
        got.sort_unstable();
        assert_eq!(got, vec![11, 21, 31], "{name}");

        // Stop the switch and check its persistent state: 11+21+31 =
        // 63 in element 0 of `total`, the one register so named.
        stop_tx.send(()).unwrap();
        let engine = handle.join().unwrap();
        assert_eq!(engine.register_prefix_sum("total"), 63, "{name}");
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
    for (name, engine) in engines(&program) {
        let mut h1 = UdpEndpoint::bind("127.0.0.1:0").unwrap();
        let mut h2 = UdpEndpoint::bind("127.0.0.1:0").unwrap();
        let sw_ep = UdpEndpoint::bind("127.0.0.1:0").unwrap();
        let sw_addr = sw_ep.local_addr().unwrap();
        let soft = SoftSwitch {
            endpoint: sw_ep,
            engine,
            hosts: vec![
                (HostId(1), h1.local_addr().unwrap()),
                (HostId(2), h2.local_addr().unwrap()),
            ],
            my_wire: 0x8001,
        };
        let (stop_tx, stop_rx) = mpsc::channel();
        let handle = thread::spawn(move || soft.run(stop_rx));

        h1.send_raw(sw_addr, b"hello not ncp").unwrap();
        let w = Window {
            kernel: KernelId(kid),
            seq: 0,
            sender: HostId(1),
            from: NodeId::Host(HostId(1)),
            last: false,
            chunks: vec![Chunk {
                offset: 0,
                data: 7i32.to_be_bytes().to_vec(),
            }],
            ext: vec![],
        };
        h1.send_window(sw_addr, &w).unwrap();

        let mut saw_raw = false;
        let mut saw_window = false;
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while (!saw_raw || !saw_window) && std::time::Instant::now() < deadline {
            if let Some((bytes, _)) = h2.recv_raw().unwrap() {
                if bytes == b"hello not ncp" {
                    saw_raw = true;
                } else if let Ok(w) = ncl::ncp::codec::decode_window(&bytes) {
                    let doubled = w.chunks[0].get(ScalarType::I32, 0);
                    assert_eq!(doubled, Value::i32(14), "{name}");
                    saw_window = true;
                }
            }
        }
        stop_tx.send(()).unwrap();
        handle.join().unwrap();
        assert!(saw_raw, "{name}: plain datagram should pass through");
        assert!(saw_window, "{name}: NCP window should be processed");
    }
}
