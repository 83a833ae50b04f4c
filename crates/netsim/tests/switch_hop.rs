//! Pins every branch of a switch hop (paper Fig. 3b) end to end: one
//! frame per case through a scripted engine, then the exact scope
//! events, hop records, switch and sim counters, and egress packets.

use c3::{HostId, NodeId};
use ncp::{NcpPacket, NcpRepr, FLAG_ACK, FLAG_FRAGMENT, FLAG_TELEMETRY};
use nctel::hop::{section_append, section_init, HopRecord, HOP_DUP_SUPPRESSED, HOP_FORWARDED_ONLY};
use nctel::scope::DecodedEvent;
use nctel::{Scope, ScopeEvent, WindowKey};
use netsim::{
    CtrlOp, FastDatapath, FastVerdict, HostApp, HostCtx, KernelTelemetry, LinkSpec, NetworkBuilder,
    Packet, SimStats, SwitchCfg, SwitchStats, SwitchTelemetry, Time,
};
use std::any::Any;
use std::collections::HashMap;

/// The kernel the scripted engine executes; kernel 8 is not deployed.
const KERNEL: u16 = 7;
const UNDEPLOYED: u16 = 8;
const TEL_SWITCH: u16 = 40;
const GAP: Time = 100_000;
const LINK: Time = 1_000;

/// Executes [`KERNEL`]; the window's seq picks the verdict.
#[derive(Default)]
struct Script {
    dups: u64,
}

impl FastDatapath for Script {
    fn process(&mut self, payload: &[u8]) -> Option<FastVerdict> {
        let p = NcpPacket::new_checked(payload).ok()?;
        let seq = p.seq();
        if p.kernel() != KERNEL || seq == 8 {
            return None;
        }
        if seq == 7 {
            self.dups += 1;
        }
        let (fwd_code, fwd_label) = match seq {
            0..=3 => (seq as u8, 0),
            4 => (4, 5),
            5 => (4, 6),
            6 | 7 => (0, 0),
            _ => (9, 0),
        };
        Some(FastVerdict {
            payload: if fwd_code == 3 {
                Vec::new()
            } else {
                payload.to_vec()
            },
            fwd_code,
            fwd_label,
            version: if seq == 6 { 9 } else { 0 },
            passes: if seq == 6 { 2 } else { 1 },
        })
    }

    fn ctrl(&mut self, _op: &CtrlOp) -> bool {
        false
    }

    fn register_prefix_sum(&self, prefix: &str) -> u64 {
        if prefix == c3::ncpr::REPLAY_DUPS_PREFIX {
            self.dups
        } else {
            0
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Sends its scripted frames to h2, one every [`GAP`], and records
/// every arrival.
#[derive(Default)]
struct Host {
    sends: Vec<Vec<u8>>,
    got: Vec<(Time, Packet)>,
}

impl HostApp for Host {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        for i in 0..self.sends.len() {
            ctx.set_timer(send_time(i), i as u64);
        }
    }

    fn on_packet(&mut self, ctx: &mut HostCtx, pkt: &Packet) {
        self.got.push((ctx.now, pkt.clone()));
    }

    fn on_timer(&mut self, ctx: &mut HostCtx, token: u64) {
        let payload = self.sends[token as usize].clone();
        ctx.send(NodeId::Host(HostId(2)), payload);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn send_time(i: usize) -> Time {
    (i as Time + 1) * GAP
}

fn h(n: u16) -> NodeId {
    NodeId::Host(HostId(n))
}

/// A window from h1 with one 4-byte chunk, and a telemetry section
/// when `FLAG_TELEMETRY` is set.
fn frame(flags: u8, kernel: u16, seq: u32) -> Vec<u8> {
    let chunks = if flags & FLAG_ACK != 0 {
        vec![]
    } else {
        vec![(0, 4)]
    };
    let repr = NcpRepr {
        flags,
        kernel,
        seq,
        sender: 1,
        from: h(1).to_wire(),
        chunks,
        ext: vec![],
    };
    let mut buf = vec![0u8; repr.buffer_len()];
    repr.emit(&mut buf);
    if flags & FLAG_TELEMETRY != 0 {
        buf.extend(section_init());
    }
    buf
}

/// The frames h1 sends, in order.
fn sends() -> Vec<Vec<u8>> {
    let mut v: Vec<Vec<u8>> = (0..10)
        .map(|seq| frame(FLAG_TELEMETRY, KERNEL, seq))
        .collect();
    v.push(frame(FLAG_TELEMETRY, UNDEPLOYED, 0));
    v.push(frame(FLAG_TELEMETRY | FLAG_FRAGMENT, UNDEPLOYED, 1));
    v.push(frame(FLAG_TELEMETRY | FLAG_ACK, KERNEL, 2));
    v.push(b"junk".to_vec());
    v
}

/// `sent` as the switch emits it: `from` rewritten to the switch when
/// it executed, and `rec` appended to the telemetry section when the
/// switch has a telemetry identity.
fn egress(sent: &[u8], executed: bool, rec: Option<HopRecord>, tel: bool) -> Vec<u8> {
    let mut out = sent.to_vec();
    if executed {
        NcpPacket::new_unchecked(&mut out[..]).set_from(switch_wire());
    }
    if let (Some(rec), true) = (rec, tel) {
        let total = NcpPacket::new_checked(&out[..]).unwrap().total_len();
        let mut section = out.split_off(total);
        assert!(section_append(&mut section, &rec));
        out.extend(section);
    }
    out
}

fn switch_wire() -> u16 {
    NodeId::Switch(c3::SwitchId(1)).to_wire()
}

struct Run {
    events: Vec<DecodedEvent>,
    switch: SwitchStats,
    sim: SimStats,
    got: [Vec<(Time, Packet)>; 3],
}

fn run(tel: bool) -> Run {
    let scope = Scope::new(1024);
    let mut b = NetworkBuilder::new();
    b.with_scope(&scope);
    let h1 = b.add_host(Box::new(Host {
        sends: sends(),
        got: vec![],
    }));
    let h2 = b.add_host(Box::<Host>::default());
    let h3 = b.add_host(Box::<Host>::default());
    let telemetry = tel.then(|| SwitchTelemetry {
        switch_id: TEL_SWITCH,
        kernels: [(
            KERNEL,
            KernelTelemetry {
                version: 3,
                stages: 2,
                uops: 11,
            },
        )]
        .into_iter()
        .collect(),
    });
    let s1 = b.add_switch(SwitchCfg {
        engine: Some(Box::<Script>::default()),
        labels: HashMap::from([(5, h(3))]),
        bcast: vec![h(2), h(3)],
        telemetry,
    });
    let spec = LinkSpec {
        bandwidth_bps: u64::MAX,
        latency: LINK,
        ..LinkSpec::default()
    };
    for host in [h1, h2, h3] {
        b.link(host, s1, spec);
    }
    let mut net = b.build();
    net.run();
    let got = [h1, h2, h3].map(|id| net.host_app::<Host>(id).unwrap().got.clone());
    Run {
        events: scope.decoded(),
        switch: net.switch_stats(s1).unwrap(),
        sim: net.stats(),
        got,
    }
}

#[test]
fn every_branch_of_a_switch_hop_is_pinned() {
    for tel in [true, false] {
        check(tel);
    }
}

fn check(tel: bool) {
    let sends = sends();
    let sw = switch_wire();
    let mut events = Vec::new();
    let mut got: [Vec<(Time, Packet)>; 3] = Default::default();
    let mut ev = |t: Time, kernel: u16, seq: u32, event: ScopeEvent| {
        events.push(DecodedEvent {
            t,
            node: sw,
            key: WindowKey::new(1, kernel, seq),
            event,
        });
    };
    let rec = |kernel: u16, version: u16, flags: u16, t_in: Time, t_out: Time| {
        let (stages, uops) = if flags & HOP_FORWARDED_ONLY != 0 {
            (0, 0)
        } else {
            (2, 11)
        };
        HopRecord {
            switch: TEL_SWITCH,
            kernel,
            version,
            stages,
            uops,
            flags,
            ticks_in: t_in,
            ticks_out: t_out,
        }
    };
    let exec = |version: u16, fwd: u8| ScopeEvent::SwitchExecuted {
        switch: sw,
        version,
        fwd,
    };
    let forwarded = ScopeEvent::SwitchForwarded { switch: sw };
    // The static version comes from the telemetry identity.
    let stat = if tel { 3 } else { 0 };
    let mut deliver = |host: u16, t: Time, dst: NodeId, payload: Vec<u8>| {
        got[host as usize - 1].push((
            t,
            Packet {
                src: h(1),
                dst,
                payload,
            },
        ));
    };
    let t_in = |i: usize| send_time(i) + LINK;

    // seq 0..=5 and 9: one pass, version from the static telemetry.
    for (seq, fwd, to) in [
        (0u32, 0u8, vec![(2u16, h(2))]),
        (1, 1, vec![(1, h(1))]),
        (2, 2, vec![(2, h(2)), (3, h(3))]),
        (3, 3, vec![]),
        (4, 4, vec![(3, h(3))]),
        (5, 4, vec![]),
        (9, 9, vec![(2, h(2))]),
    ] {
        let i = seq as usize;
        let out = t_in(i) + 600;
        ev(out, KERNEL, seq, exec(stat, fwd));
        let r = rec(KERNEL, 3, 0, t_in(i), out);
        for (host, dst) in to {
            deliver(host, out + LINK, dst, egress(&sends[i], true, Some(r), tel));
        }
    }
    // seq 6: two passes, the verdict's own version.
    let out = t_in(6) + 1_200;
    ev(out, KERNEL, 6, exec(9, 0));
    let r = rec(KERNEL, 9, 0, t_in(6), out);
    deliver(2, out + LINK, h(2), egress(&sends[6], true, Some(r), tel));
    // seq 7: a replay the engine suppressed.
    let out = t_in(7) + 600;
    ev(out, KERNEL, 7, exec(stat, 0));
    ev(out, KERNEL, 7, ScopeEvent::DupSuppressed { at: sw });
    let r = rec(KERNEL, 3, HOP_DUP_SUPPRESSED, t_in(7), out);
    deliver(2, out + LINK, h(2), egress(&sends[7], true, Some(r), tel));
    // seq 8: the deployed kernel declines; forwarded unharmed.
    let out = t_in(8) + 400;
    ev(out, KERNEL, 8, forwarded);
    let r = rec(KERNEL, 0, HOP_FORWARDED_ONLY, t_in(8), out);
    deliver(2, out + LINK, h(2), egress(&sends[8], false, Some(r), tel));
    // An undeployed kernel: counted once the switch knows its kernels.
    let out = t_in(10) + 400;
    if tel {
        ev(out, UNDEPLOYED, 0, ScopeEvent::UnknownKernel { switch: sw });
    }
    ev(out, UNDEPLOYED, 0, forwarded);
    let r = rec(UNDEPLOYED, 0, HOP_FORWARDED_ONLY, t_in(10), out);
    deliver(2, out + LINK, h(2), egress(&sends[10], false, Some(r), tel));
    // A fragment of it: declined, but not an unknown kernel.
    let out = t_in(11) + 400;
    ev(out, UNDEPLOYED, 1, forwarded);
    let r = rec(UNDEPLOYED, 0, HOP_FORWARDED_ONLY, t_in(11), out);
    deliver(2, out + LINK, h(2), egress(&sends[11], false, Some(r), tel));
    // An ACK frame: forwarded, never executed nor stamped.
    let out = t_in(12) + 400;
    ev(out, KERNEL, 2, forwarded);
    deliver(2, out + LINK, h(2), sends[12].clone());
    // Not NCP: forwarded, invisible to the scope.
    deliver(2, t_in(13) + 400 + LINK, h(2), sends[13].clone());
    events.sort_by_key(|e| e.t);
    for g in &mut got {
        g.sort_by_key(|(t, _)| *t);
    }

    let r = run(tel);
    assert_eq!(r.events, events, "scope events (telemetry {tel})");
    assert_eq!(r.got, got, "egress packets (telemetry {tel})");
    let expected = SwitchStats {
        ncp_processed: 9,
        forwarded: 5,
        kernel_drops: 1,
        reflected: 1,
        broadcast: 1,
        recirculations: 1,
        acks_forwarded: 1,
        unknown_kernel: u64::from(tel),
    };
    assert_eq!(r.switch, expected, "switch stats (telemetry {tel})");
    let sent: usize = sends.iter().map(Vec::len).sum();
    let delivered: usize = got.iter().flatten().map(|(_, p)| p.payload.len()).sum();
    let sim = SimStats {
        delivered: 13,
        link_drops: 0,
        link_dups: 0,
        unroutable: 1,
        events: 1 + 14 + 14 + 13,
        bytes_sent: (sent + delivered) as u64,
        unknown_kernel: u64::from(tel),
    };
    assert_eq!(r.sim, sim, "sim counters (telemetry {tel})");
}
