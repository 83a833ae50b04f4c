//! Robustness: the frontend must never panic, whatever bytes it is
//! fed; the simulator must model congestion honestly under incast;
//! machine-readable reports stay well-formed whatever names they carry.

use ncl::model::{HostId, NodeId};
use ncl::netsim::{HostApp, HostCtx, LinkSpec, NetworkBuilder, Packet, SwitchCfg};
use proptest::prelude::*;
use std::any::Any;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary printable garbage: parse + sema return diagnostics,
    /// never panic.
    #[test]
    fn frontend_never_panics_on_garbage(src in "[ -~\\n]{0,300}") {
        let _ = ncl_lang::frontend(&src, "fuzz.ncl");
    }

    /// Structured-looking garbage built from NCL token fragments.
    #[test]
    fn frontend_never_panics_on_token_soup(
        parts in proptest::collection::vec(
            prop::sample::select(vec![
                "_net_", "_out_", "_in_", "_ctrl_", "_at_(\"s1\")", "_ext_",
                "int", "void", "unsigned", "bool", "uint64_t", "*", "d",
                "(", ")", "{", "}", "[", "]", ";", ",", "=", "+=", "++",
                "if", "else", "for", "while", "return", "window", ".",
                "seq", "len", "memcpy", "_drop", "_pass", "_hash", "0",
                "1", "255", "ncl", "::", "Map", "<", ">", "auto", "#define X 1",
            ]),
            0..60,
        )
    ) {
        let src = parts.join(" ");
        let _ = ncl_lang::frontend(&src, "fuzz.ncl");
    }

    /// The NCP packet parser never panics on arbitrary bytes.
    #[test]
    fn ncp_parser_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = ncl::ncp::codec::decode_window(&bytes);
        let mut r = ncl::ncp::codec::Reassembler::new();
        let _ = r.push(&bytes);
    }

    /// The AND parser never panics on arbitrary text.
    #[test]
    fn and_parser_never_panics(src in "[ -~\\n]{0,200}") {
        let _ = ncl::and::parse(&src);
    }
}

/// A sender that blasts `n` fixed-size packets at t=0.
struct Blaster {
    dst: NodeId,
    n: usize,
    size: usize,
}

impl HostApp for Blaster {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        for _ in 0..self.n {
            ctx.send(self.dst, vec![0u8; self.size]);
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

/// Records the arrival time of the last packet.
struct Sink {
    received: usize,
    last_at: u64,
}

impl HostApp for Sink {
    fn on_packet(&mut self, ctx: &mut HostCtx, _: &Packet) {
        self.received += 1;
        self.last_at = ctx.now;
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Incast: N senders × M packets into one receiver link. The bottleneck
/// is the switch→receiver link; completion must scale with the total
/// byte count over that link's bandwidth (store-and-forward queueing),
/// not with the per-sender time.
#[test]
fn incast_congestion_scales_with_fan_in() {
    let run = |senders: usize| -> (u64, usize) {
        let pkts_per_sender = 64usize;
        let size = 1024usize;
        let mut b = NetworkBuilder::new();
        let sink_id = HostId((senders + 1) as u16);
        for _ in 0..senders {
            b.add_host(Box::new(Blaster {
                dst: NodeId::Host(sink_id),
                n: pkts_per_sender,
                size,
            }));
        }
        b.add_host(Box::new(Sink {
            received: 0,
            last_at: 0,
        }));
        let sw = b.add_switch(SwitchCfg::default());
        let spec = LinkSpec {
            bandwidth_bps: 1_000_000_000, // 1 Gb/s bottleneck
            latency: 1_000,
            ..LinkSpec::default()
        };
        for h in 1..=senders as u16 + 1 {
            b.link(HostId(h), sw, spec);
        }
        let mut net = b.build();
        net.run();
        let sink = net.host_app::<Sink>(sink_id).unwrap();
        (sink.last_at, sink.received)
    };
    let (t2, r2) = run(2);
    let (t8, r8) = run(8);
    assert_eq!(r2, 2 * 64);
    assert_eq!(r8, 8 * 64);
    // 4× the bytes through the same bottleneck ≈ 4× the finish time.
    let ratio = t8 as f64 / t2 as f64;
    assert!(
        (3.0..5.0).contains(&ratio),
        "expected ~4× completion scaling, got {ratio:.2} ({t2} → {t8})"
    );
}

/// Equal-cost paths: BFS routing is deterministic, so repeated builds
/// route identically (no flapping between runs).
#[test]
fn routing_is_deterministic_across_builds() {
    let build_trace = || {
        let mut b = NetworkBuilder::new();
        let h1 = b.add_host(Box::new(Blaster {
            dst: NodeId::Host(HostId(2)),
            n: 4,
            size: 64,
        }));
        let h2 = b.add_host(Box::new(Sink {
            received: 0,
            last_at: 0,
        }));
        // Diamond: two equal-cost paths h1-sa-h2 / h1-sb-h2.
        let sa = b.add_switch(SwitchCfg::default());
        let sb = b.add_switch(SwitchCfg::default());
        b.link(h1, sa, LinkSpec::default());
        b.link(h1, sb, LinkSpec::default());
        b.link(sa, h2, LinkSpec::default());
        b.link(sb, h2, LinkSpec::default());
        let mut net = b.build();
        net.run();
        (
            net.switch_stats(sa).unwrap().forwarded,
            net.switch_stats(sb).unwrap().forwarded,
            net.host_app::<Sink>(h2).unwrap().received,
        )
    };
    let a = build_trace();
    let b = build_trace();
    assert_eq!(a, b);
    assert_eq!(a.2, 4);
    // All packets took one deterministic path.
    assert!(a.0 == 4 && a.1 == 0 || a.0 == 0 && a.1 == 4);
}

/// A cost report stays valid JSON whatever bytes a tenant or kernel
/// name carries: RFC 8259 §7 forbids raw control characters inside
/// strings, and the name must survive the round trip.
#[test]
fn cost_report_json_escapes_control_characters() {
    use ncl::ncsched::{BudgetKind, CostReport, ResourceKind};
    let name = "ten\tant\r\u{1}\u{8}\u{c}\u{1f}\n\"\\";
    let report = CostReport {
        tenant: name.into(),
        version: 1,
        switch: "s1".into(),
        kernel: Some(name.into()),
        budget: BudgetKind::TenantQuota,
        resource: ResourceKind::Stages,
        requested: 2,
        limit: 1,
        available: 1,
        detail: name.into(),
    };
    let json = report.render_json();
    assert!(
        json.bytes().all(|b| b >= 0x20),
        "raw control byte: {json:?}"
    );
    let back = ncl::nctel::scope::json::parse(&json).expect("cost report parses");
    for field in ["tenant", "kernel", "detail"] {
        assert_eq!(back.get(field).and_then(|v| v.as_str()), Some(name));
    }
}
