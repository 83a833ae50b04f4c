//! Topology building, routing, and the simulation run loop.
//!
//! A switch node runs the NCP handling of the paper's Fig. 3b around the
//! one engine its [`SwitchCfg`] holds, as one path per frame: parse the
//! header, ask the engine for a verdict (ACK/NACK frames get none),
//! work out the outcome — latency, counters, scope events, hop record
//! and egress targets — and emit, stamp and route once. A frame without
//! a verdict is forwarded; a verdict is routed by its forwarding code
//! (pass / reflect / bcast / drop / labelled pass). Control operations
//! go to [`crate::FastDatapath::ctrl`]. Nothing here depends on which
//! engine that is: both emit the same frame, flags byte included.
//!
//! One network, two substrates: [`NetworkBuilder::build`] runs the links
//! on simulated time, [`NetworkBuilder::bind_udp`] over real UDP sockets.
//! One loop runs both, and only the private `Substrate` looks at which
//! it is: it picks the next event and carries a packet across a link.
//! A datagram starts with a 4-byte header, the src and dst wire ids
//! (big-endian), standing in for the IPv4 header that loopback ports
//! cannot carry.

use crate::event::{EventQueue, Time};
use crate::link::{LinkDir, LinkSpec};
use crate::node::{
    ncp_scope_key, CtrlOp, FastDatapath, HostApp, HostCtx, SwitchCfg, SwitchStats, CTRL_LATENCY,
    FWD_LATENCY, PIPELINE_LATENCY,
};
use c3::{HostId, IdMap, NodeId, SwitchId};
use ncp::{NcpPacket, UdpEndpoint};
use nctel::hop::{
    section_append, section_valid, HopRecord, HOP_DUP_SUPPRESSED, HOP_FORWARDED_ONLY,
};
use nctel::{Counter, Registry, Scope, ScopeEvent, WindowKey};
use std::collections::VecDeque;
use std::io;
use std::net::{IpAddr, SocketAddr};
use std::sync::Arc;
use std::time::Duration;

/// A packet in flight: explicit src/dst (the IP encapsulation) plus the
/// payload bytes (NCP or anything else).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Packet {
    /// Originating node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

enum NodeKind {
    Host {
        id: HostId,
        app: Box<dyn HostApp>,
    },
    Switch {
        id: SwitchId,
        cfg: Box<SwitchCfg>,
        stats: SwitchStats,
    },
}

/// Builds a topology, then [`NetworkBuilder::build`]s the runnable
/// [`Network`] on simulated links, or [`NetworkBuilder::bind_udp`]s it
/// to real sockets.
#[derive(Default)]
pub struct NetworkBuilder {
    nodes: Vec<NodeKind>,
    links: Vec<(usize, usize, LinkSpec)>,
    next_host: u16,
    next_switch: u16,
    registry: Option<Arc<Registry>>,
    scope: Option<Scope>,
}

impl NetworkBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Uses `reg` as the network's metrics registry instead of a fresh
    /// one, so the simulator's counters land next to the caller's
    /// (e.g. `ncl-core`'s deploy gate) in one exporter.
    pub fn with_metrics(&mut self, reg: Arc<Registry>) -> &mut Self {
        self.registry = Some(reg);
        self
    }

    /// Attaches an ncscope event sink: link-level drops and switch
    /// executions/forwards/dup-suppressions are emitted with simulated
    /// timestamps, keyed by the NCP window identity parsed from each
    /// packet. Non-NCP packets emit nothing.
    pub fn with_scope(&mut self, scope: &Scope) -> &mut Self {
        self.scope = Some(scope.clone());
        self
    }

    /// Adds a host running `app`; ids are assigned sequentially from 1.
    pub fn add_host(&mut self, app: Box<dyn HostApp>) -> HostId {
        self.next_host += 1;
        let id = HostId(self.next_host);
        self.nodes.push(NodeKind::Host { id, app });
        id
    }

    /// Adds a switch.
    pub fn add_switch(&mut self, cfg: SwitchCfg) -> SwitchId {
        self.next_switch += 1;
        let id = SwitchId(self.next_switch);
        self.nodes.push(NodeKind::Switch {
            id,
            cfg: Box::new(cfg),
            stats: SwitchStats::default(),
        });
        id
    }

    /// Connects two nodes with a bidirectional link.
    pub fn link(&mut self, a: impl Into<NodeId>, b: impl Into<NodeId>, spec: LinkSpec) {
        let [a, b] = [a.into(), b.into()]
            .map(|n| index(&self.nodes, n).unwrap_or_else(|| panic!("unknown node {n}")));
        self.links.push((a, b, spec));
    }

    /// Finalizes the topology: computes BFS shortest-path routing and
    /// returns the runnable network.
    pub fn build(self) -> Network {
        let n = self.nodes.len();
        let mut adj: Vec<Vec<(usize, bool, usize)>> = vec![vec![]; n]; // (link, a->b?, peer)
        let mut links = Vec::new();
        for (li, (a, b, spec)) in self.links.iter().enumerate() {
            adj[*a].push((li, true, *b));
            adj[*b].push((li, false, *a));
            links.push(RuntimeLink {
                a: *a,
                b: *b,
                ab: LinkDir::new(*spec, (li as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                ba: LinkDir::new(*spec, (li as u64 + 1).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)),
            });
        }
        // All-pairs next hop by BFS from every destination.
        let mut next_hop: Vec<IdMap<NodeId, (usize, bool)>> = vec![IdMap::default(); n];
        for dst in 0..n {
            let dst_id = node_id(&self.nodes[dst]);
            let mut dist = vec![usize::MAX; n];
            let mut q = VecDeque::new();
            dist[dst] = 0;
            q.push_back(dst);
            while let Some(x) = q.pop_front() {
                for &(li, a_to_b, peer) in &adj[x] {
                    if dist[peer] == usize::MAX {
                        dist[peer] = dist[x] + 1;
                        // peer reaches dst through x via link li; the
                        // direction peer→x is the reverse of x's view.
                        next_hop[peer].insert(dst_id, (li, !a_to_b));
                        q.push_back(peer);
                    }
                }
            }
        }
        let registry = self.registry.unwrap_or_else(|| Arc::new(Registry::new()));
        let counters = SimCounters::new(&registry);
        Network {
            nodes: self.nodes,
            links,
            next_hop,
            queue: EventQueue::new(),
            outbox: Outbox::default(),
            now: 0,
            started: false,
            registry,
            counters,
            scope: self.scope,
            substrate: Substrate::Simulated,
        }
    }

    /// Like [`NetworkBuilder::build`], but over real UDP: every node gets
    /// a non-blocking [`UdpEndpoint`] on an ephemeral port of `ip`, and
    /// [`Network::run_until`] runs on the wall clock. Datagrams that
    /// arrive shorter than the 4-byte header, or naming a node the
    /// fabric lacks, are dropped, counted in `sim.udp_malformed` and
    /// reported to the scope as `MalformedFrame`.
    pub fn bind_udp(self, ip: IpAddr) -> io::Result<Network> {
        let bind = |_| {
            let ep = UdpEndpoint::bind((ip, 0))?;
            ep.set_nonblocking(true)?;
            Ok(ep)
        };
        let endpoints: Vec<_> = self.nodes.iter().map(bind).collect::<io::Result<_>>()?;
        let addrs = endpoints.iter().map(UdpEndpoint::local_addr);
        let addrs = addrs.collect::<io::Result<_>>()?;
        let wires = self.nodes.iter().map(|n| node_id(n).to_wire()).collect();
        let mut net = self.build();
        net.substrate = Substrate::Sockets(UdpFabric {
            endpoints,
            addrs,
            wires,
            in_flight: 0,
            arrived: VecDeque::new(),
            malformed: net.registry.counter("sim.udp_malformed"),
            scope: net.scope.clone(),
        });
        Ok(net)
    }
}

/// Where the next event comes from and where a packet that crossed a
/// link goes: the one place the substrate is looked at.
enum Substrate {
    /// Simulated links: the event queue in time order.
    Simulated,
    /// Real sockets on the wall clock.
    Sockets(UdpFabric),
}

impl Substrate {
    /// The next event due by `deadline` and the time it fires at; `None`
    /// ends the run.
    fn next(&mut self, queue: &mut EventQueue<Event>, deadline: Time) -> Option<(Time, Event)> {
        match self {
            Substrate::Simulated if queue.peek_time()? <= deadline => queue.pop(),
            Substrate::Simulated => None,
            Substrate::Sockets(udp) => udp.next(queue, deadline),
        }
    }

    /// Carries `pkt` from node `from` to node `to`, arriving at
    /// `arrival` and, when the link duplicated it, once more at `dup`.
    /// Over sockets only the copy count is used: a datagram arrives
    /// when the kernel delivers it.
    fn carry(
        &mut self,
        queue: &mut EventQueue<Event>,
        from: usize,
        to: usize,
        pkt: Packet,
        arrival: Time,
        dup: Option<Time>,
    ) {
        match self {
            Substrate::Simulated => {
                let arrive = |pkt| Event::Arrive { node: to, pkt };
                if let Some(dup) = dup {
                    queue.push(dup, arrive(pkt.clone()));
                }
                queue.push(arrival, arrive(pkt));
            }
            Substrate::Sockets(udp) => udp.send(from, to, &pkt, 1 + usize::from(dup.is_some())),
        }
    }

    /// Node `node`'s socket address, over sockets.
    fn addr(&self, node: usize) -> Option<SocketAddr> {
        match self {
            Substrate::Simulated => None,
            Substrate::Sockets(udp) => Some(udp.addrs[node]),
        }
    }
}

/// The real-socket substrate: one endpoint per node, indexed like the
/// network's nodes.
struct UdpFabric {
    endpoints: Vec<UdpEndpoint>,
    addrs: Vec<SocketAddr>,
    /// Each node's wire id, to check a received header against.
    wires: Vec<u16>,
    /// Datagrams sent and not yet received.
    in_flight: u64,
    /// Datagrams received and not yet dispatched, as `(node, packet)`
    /// arrivals in the order they were taken off the sockets.
    arrived: VecDeque<(usize, Packet)>,
    /// Received datagrams dropped for a short or unknown header.
    malformed: Counter,
    scope: Option<Scope>,
}

/// Length of the src/dst header every datagram of a [`UdpFabric`]
/// starts with.
const UDP_HEADER: usize = 4;

impl UdpFabric {
    /// Wall-clock nanoseconds since the sockets were bound.
    fn now(&self) -> Time {
        self.endpoints.first().map_or(0, UdpEndpoint::now)
    }

    /// Sends `pkt` from node `from` to node `to`'s socket, `copies` times.
    /// Each datagram is taken off `to`'s socket right after its send, so
    /// the socket never holds more than the datagrams loopback has not
    /// delivered yet, however many one callback sends.
    fn send(&mut self, from: usize, to: usize, pkt: &Packet, copies: usize) {
        let [src, dst] = [pkt.src, pkt.dst].map(|n| n.to_wire().to_be_bytes());
        let datagram = [&src[..], &dst, &pkt.payload].concat();
        for _ in 0..copies {
            let sent = self.endpoints[from].send_raw(self.addrs[to], &datagram);
            if sent.is_ok() {
                self.in_flight += 1;
                self.take(to);
            }
        }
    }

    /// The next event by the wall clock: a received datagram, else a
    /// timer or control op that is due. Idles while datagrams are in
    /// flight or an event is pending; `None` once neither holds, or past
    /// `deadline`.
    fn next(&mut self, queue: &mut EventQueue<Event>, deadline: Time) -> Option<(Time, Event)> {
        loop {
            let now = self.now();
            if now > deadline {
                return None;
            }
            if self.arrived.is_empty() {
                for node in 0..self.endpoints.len() {
                    while self.take(node) {}
                }
            }
            if let Some((node, pkt)) = self.arrived.pop_front() {
                return Some((now, Event::Arrive { node, pkt }));
            }
            if queue.peek_time().is_some_and(|t| t <= now) {
                return queue.pop().map(|(_, ev)| (now, ev));
            }
            if self.in_flight > 0 {
                std::thread::yield_now();
            } else if let Some(t) = queue.peek_time() {
                let wake = t.min(deadline).saturating_sub(now);
                std::thread::sleep(Duration::from_nanos(wake));
            } else {
                return None;
            }
        }
    }

    /// Takes one datagram waiting at `node`'s socket into `arrived`;
    /// `false` when none waits. A malformed datagram is counted and
    /// dropped.
    fn take(&mut self, node: usize) -> bool {
        let Ok(Some((mut bytes, _))) = self.endpoints[node].recv_raw() else {
            return false;
        };
        let ids = bytes
            .get(..UDP_HEADER)
            .map(|h| [[h[0], h[1]], [h[2], h[3]]].map(u16::from_be_bytes));
        let known = |ids: &[u16; 2]| ids.iter().all(|w| self.wires.contains(w));
        let Some([src, dst]) = ids.filter(known) else {
            self.malformed.inc();
            if let Some(scope) = &self.scope {
                let at = self.wires[node];
                let key = WindowKey::new(at, 0, 0);
                scope.emit(self.now(), at, key, ScopeEvent::MalformedFrame);
            }
            return true;
        };
        self.in_flight = self.in_flight.saturating_sub(1);
        bytes.drain(..UDP_HEADER);
        let pkt = Packet {
            src: NodeId::from_wire(src),
            dst: NodeId::from_wire(dst),
            payload: bytes,
        };
        self.arrived.push_back((node, pkt));
        true
    }
}

struct RuntimeLink {
    a: usize,
    b: usize,
    ab: LinkDir,
    ba: LinkDir,
}

fn node_id(n: &NodeKind) -> NodeId {
    match n {
        NodeKind::Host { id, .. } => NodeId::Host(*id),
        NodeKind::Switch { id, .. } => NodeId::Switch(*id),
    }
}

/// The index of node `id` among `nodes`.
fn index(nodes: &[NodeKind], id: NodeId) -> Option<usize> {
    nodes.iter().position(|n| node_id(n) == id)
}

/// Point-in-time snapshot of the aggregate simulation counters (which
/// live on the network's `nctel` [`Registry`]; see
/// [`Network::metrics`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SimStats {
    /// Packets delivered to host applications.
    pub delivered: u64,
    /// Packets lost on links.
    pub link_drops: u64,
    /// Extra deliveries injected by link duplication
    /// ([`LinkSpec::dup_every`]).
    pub link_dups: u64,
    /// Packets with no route to their destination.
    pub unroutable: u64,
    /// Events processed.
    pub events: u64,
    /// Total bytes offered to links.
    pub bytes_sent: u64,
    /// NCP windows that reached a computing switch naming a kernel id
    /// it has no deployed kernel for (forwarded unharmed, never
    /// silently dropped — see `SwitchStats::unknown_kernel`).
    pub unknown_kernel: u64,
}

/// The registry-backed cells behind [`SimStats`].
struct SimCounters {
    delivered: Counter,
    link_drops: Counter,
    link_dups: Counter,
    unroutable: Counter,
    events: Counter,
    bytes_sent: Counter,
    unknown_kernel: Counter,
}

impl SimCounters {
    fn new(reg: &Registry) -> Self {
        SimCounters {
            delivered: reg.counter("sim.delivered"),
            link_drops: reg.counter("sim.link_drops"),
            link_dups: reg.counter("sim.link_dups"),
            unroutable: reg.counter("sim.unroutable"),
            events: reg.counter("sim.events"),
            bytes_sent: reg.counter("sim.bytes_sent"),
            unknown_kernel: reg.counter("sim.unknown_kernel"),
        }
    }
}

/// The buffers a [`HostCtx`] fills during one host callback.
#[derive(Default)]
struct Outbox {
    out: Vec<Packet>,
    timers: Vec<(Time, u64)>,
    ctrl: Vec<(SwitchId, CtrlOp)>,
}

enum Event {
    Start,
    Arrive { node: usize, pkt: Packet },
    Timer { node: usize, token: u64 },
    Ctrl { switch: SwitchId, op: CtrlOp },
}

/// The runnable network: simulated links, or real UDP sockets (see the
/// module docs).
pub struct Network {
    nodes: Vec<NodeKind>,
    links: Vec<RuntimeLink>,
    next_hop: Vec<IdMap<NodeId, (usize, bool)>>,
    queue: EventQueue<Event>,
    /// What a host callback sent, armed and requested, drained after
    /// it returns; kept across callbacks so they allocate nothing.
    outbox: Outbox,
    now: Time,
    started: bool,
    registry: Arc<Registry>,
    counters: SimCounters,
    scope: Option<Scope>,
    substrate: Substrate,
}

impl Network {
    /// Current time: simulated, or wall-clock since the sockets were
    /// bound.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Snapshot of the aggregate counters (compat shim over the nctel
    /// cells).
    pub fn stats(&self) -> SimStats {
        SimStats {
            delivered: self.counters.delivered.get(),
            link_drops: self.counters.link_drops.get(),
            link_dups: self.counters.link_dups.get(),
            unroutable: self.counters.unroutable.get(),
            events: self.counters.events.get(),
            bytes_sent: self.counters.bytes_sent.get(),
            unknown_kernel: self.counters.unknown_kernel.get(),
        }
    }

    /// The metrics registry every simulator counter lives on.
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Replaces both directions' [`LinkSpec`] of the `a`↔`b` link
    /// mid-run: bandwidth, latency, and the deterministic loss / dup /
    /// jitter processes all switch to the new parameters for subsequent
    /// transmissions (packets already in flight keep the timings they
    /// were emitted under, and the per-direction drop/dup phase
    /// counters are preserved so the change is purely a parameter
    /// swap). This is the fault-injection hook ncwatch's degrading-link
    /// campaigns use. Returns `false` when no such link exists.
    pub fn set_link_spec(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> bool {
        let (Some(ai), Some(bi)) = (index(&self.nodes, a), index(&self.nodes, b)) else {
            return false;
        };
        for l in &mut self.links {
            if (l.a == ai && l.b == bi) || (l.a == bi && l.b == ai) {
                l.ab.spec = spec;
                l.ba.spec = spec;
                return true;
            }
        }
        false
    }

    /// Runs until no event is left or `deadline` passes; returns the
    /// final time. Over UDP the deadline and every timer are wall-clock
    /// time since the sockets were bound, and the run also waits for
    /// every datagram sent to arrive (or be dropped by the link model).
    pub fn run_until(&mut self, deadline: Time) -> Time {
        if !self.started {
            self.started = true;
            self.queue.push(0, Event::Start);
        }
        while let Some((t, ev)) = self.substrate.next(&mut self.queue, deadline) {
            self.now = self.now.max(t);
            self.counters.events.inc();
            self.dispatch(ev);
        }
        self.now
    }

    /// Runs to quiescence.
    pub fn run(&mut self) -> Time {
        self.run_until(Time::MAX)
    }

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::Start => {
                for i in 0..self.nodes.len() {
                    if matches!(self.nodes[i], NodeKind::Host { .. }) {
                        self.with_host(i, |app, ctx| app.on_start(ctx));
                    }
                }
            }
            Event::Arrive { node, pkt } => match &self.nodes[node] {
                NodeKind::Host { .. } => {
                    self.counters.delivered.inc();
                    self.with_host(node, |app, ctx| app.on_packet(ctx, &pkt));
                }
                NodeKind::Switch { .. } => self.switch_process(node, pkt),
            },
            Event::Timer { node, token } => {
                self.with_host(node, |app, ctx| app.on_timer(ctx, token));
            }
            Event::Ctrl { switch, op } => {
                if let Some(engine) = self.switch_fastpath_mut(switch) {
                    engine.ctrl(&op);
                }
            }
        }
    }

    /// Runs a host callback and flushes its sends/timers.
    fn with_host(&mut self, node: usize, f: impl FnOnce(&mut dyn HostApp, &mut HostCtx)) {
        let now = self.now;
        let NodeKind::Host { id, app } = &mut self.nodes[node] else {
            return; // timers for removed/foreign nodes are ignored
        };
        let Outbox { out, timers, ctrl } = &mut self.outbox;
        let mut ctx = HostCtx {
            now,
            host: *id,
            out,
            timers,
            ctrl,
        };
        f(app.as_mut(), &mut ctx);
        for (delay, token) in timers.drain(..) {
            self.queue.push(now + delay, Event::Timer { node, token });
        }
        for (switch, op) in ctrl.drain(..) {
            self.queue
                .push(now + CTRL_LATENCY, Event::Ctrl { switch, op });
        }
        let mut out = std::mem::take(&mut self.outbox.out);
        for pkt in out.drain(..) {
            self.route_out(node, pkt, now);
        }
        self.outbox.out = out;
    }

    /// Sends a packet out of `node` towards `pkt.dst`, leaving at
    /// `depart` (after the node's processing latency).
    fn route_out(&mut self, node: usize, pkt: Packet, depart: Time) {
        if node_id(&self.nodes[node]) == pkt.dst {
            // Loopback: deliver on departure.
            self.queue.push(depart, Event::Arrive { node, pkt });
            return;
        }
        let Some(&(li, a_to_b)) = self.next_hop[node].get(&pkt.dst) else {
            self.counters.unroutable.inc();
            return;
        };
        let link = &mut self.links[li];
        let (dir, peer) = if a_to_b {
            (&mut link.ab, link.b)
        } else {
            (&mut link.ba, link.a)
        };
        self.counters.bytes_sent.add(pkt.payload.len() as u64);
        // +42: Ethernet+IP+UDP encapsulation overhead.
        let outcome = dir.transmit_outcome(depart, pkt.payload.len() + 42);
        let Some(arrival) = outcome.arrival else {
            self.counters.link_drops.inc();
            // Ground truth for the diagnosis engine: the sim *knows*
            // which link ate the frame, so say so.
            if let Some(scope) = &self.scope {
                if let Some((key, ctrl)) = ncp_scope_key(&pkt.payload) {
                    let from = node_id(&self.nodes[node]).to_wire();
                    let to = node_id(&self.nodes[peer]).to_wire();
                    scope.emit(
                        depart,
                        from,
                        key,
                        ScopeEvent::FragmentDropped {
                            from,
                            to,
                            ctrl,
                            burst: outcome.burst,
                        },
                    );
                }
            }
            return;
        };
        if outcome.dup.is_some() {
            self.counters.link_dups.inc();
        }
        let queue = &mut self.queue;
        self.substrate
            .carry(queue, node, peer, pkt, arrival, outcome.dup);
    }

    /// NCP-aware switch processing (paper Fig. 3b), one straight line:
    /// parse the header once, get the engine's verdict, work out the
    /// outcome (latency, counters, scope events, hop record, egress
    /// targets), then stamp and route the frame once.
    fn switch_process(&mut self, node: usize, mut pkt: Packet) {
        let NodeKind::Switch { id, cfg, stats } = &mut self.nodes[node] else {
            unreachable!("switch_process on a host");
        };
        let my_wire = NodeId::Switch(*id).to_wire();
        let ticks_in = self.now;

        // 1. The header: the previous hop (for `_reflect()`), the flags,
        // the window length and the window identity. Not NCP: none.
        let hdr = NcpPacket::new_checked(&pkt.payload[..]).ok().map(|p| {
            let key = WindowKey::new(p.sender(), p.kernel(), p.seq());
            (p.from(), p.flags(), p.total_len(), key)
        });
        let (flags, kernel) = hdr.map_or((0, 0), |(_, flags, _, key)| (flags, key.kernel));
        let key = hdr.map(|(.., key)| key).filter(|_| self.scope.is_some());
        // NCP-R ACK/NACK frames are host-to-host control traffic: they
        // name a kernel but never execute it (an ACK has no data
        // chunks), and pass through unstamped.
        let control = flags & (ncp::FLAG_ACK | ncp::FLAG_NACK) != 0;
        // In-band telemetry (DESIGN.md §4.9): a frame flagged with
        // FLAG_TELEMETRY carries a hop-record section after the window.
        // No engine knows about it: strip it now, re-append it stamped.
        let section = match hdr {
            Some((_, _, total, _))
                if !control
                    && flags & ncp::FLAG_TELEMETRY != 0
                    && total <= pkt.payload.len()
                    && section_valid(&pkt.payload[total..]) =>
            {
                Some(pkt.payload.split_off(total))
            }
            _ => None,
        };
        // The replay filters' duplicate count before the engine runs: a
        // rise after it tells that *this* window was suppressed as an
        // NCP-R replay (bit-identical on every engine).
        let track_dups =
            !control && ((section.is_some() && cfg.telemetry.is_some()) || key.is_some());
        let dups_before = if track_dups { cfg_dup_sum(cfg) } else { 0 };

        // 2. The verdict. `None`: not NCP, a control frame, no engine, or
        // declined by it — the frame is plainly forwarded. The engine
        // takes the frame, so its verdict can reuse the buffer.
        let verdict = match &mut cfg.engine {
            Some(engine) if !control => {
                match engine.process_frame(std::mem::take(&mut pkt.payload)) {
                    Ok(v) => Some(v),
                    Err(frame) => {
                        pkt.payload = frame;
                        None
                    }
                }
            }
            _ => None,
        };

        // 3. The outcome.
        let tel = cfg.telemetry.as_ref();
        let kt = tel.and_then(|tel| tel.kernels.get(&kernel)).copied();
        let emit = |t: Time, event: ScopeEvent| {
            if let (Some(scope), Some(key)) = (&self.scope, key) {
                scope.emit(t, my_wire, key, event);
            }
        };
        // Egress: one target, or (`None`) the `copies` overlay
        // neighbours of `_bcast()`, read in place.
        let (rec, mut payload, dst, copies) = match verdict {
            Some(v) => {
                let ticks_out = ticks_in + PIPELINE_LATENCY * v.passes as Time;
                stats.ncp_processed += 1;
                stats.recirculations += (v.passes - 1) as u64;
                // A datapath that knows which version ran (a tenant mux
                // dual-running an upgrade) overrides the static
                // deploy-time identity.
                let version = if v.version != 0 {
                    v.version
                } else {
                    kt.map_or(0, |kt| kt.version)
                };
                let dup = track_dups && cfg_dup_sum(cfg) > dups_before;
                let fwd = v.fwd_code;
                emit(
                    ticks_out,
                    ScopeEvent::SwitchExecuted {
                        switch: my_wire,
                        version,
                        fwd,
                    },
                );
                if dup {
                    emit(ticks_out, ScopeEvent::DupSuppressed { at: my_wire });
                }
                let kt = kt.unwrap_or_default();
                let rec = HopRecord {
                    version,
                    stages: kt.stages,
                    uops: kt.uops,
                    flags: if dup { HOP_DUP_SUPPRESSED } else { 0 },
                    ticks_out,
                    ..HopRecord::default()
                };
                let (dst, copies) = match fwd {
                    1 => {
                        stats.reflected += 1;
                        let back = hdr.map_or(pkt.src, |(from, ..)| NodeId::from_wire(from));
                        (Some(back), 1)
                    }
                    2 => {
                        stats.broadcast += 1;
                        (None, cfg.bcast.len())
                    }
                    3 => {
                        stats.kernel_drops += 1;
                        return;
                    }
                    4 => match cfg.labels.get(&v.fwd_label) {
                        Some(&dst) => (Some(dst), 1),
                        None => {
                            self.counters.unroutable.inc();
                            return;
                        }
                    },
                    // `_pass()`, or an unknown code: forward conservatively.
                    _ => (Some(pkt.dst), 1),
                };
                let mut payload = v.payload;
                NcpPacket::new_unchecked(&mut payload[..]).set_from(my_wire);
                (rec, payload, dst, copies)
            }
            None => {
                let ticks_out = ticks_in + FWD_LATENCY;
                stats.forwarded += 1;
                stats.acks_forwarded += u64::from(control);
                // A computing switch declining a well-formed data window
                // that is no fragment means the named kernel is not
                // deployed here — the failure mode upgrades and
                // multi-tenant routing expose. Count it; the window is
                // forwarded unharmed.
                let unknown = hdr.is_some() && !control && flags & ncp::FLAG_FRAGMENT == 0;
                if unknown && cfg.engine.is_some() && tel.is_some() && kt.is_none() {
                    stats.unknown_kernel += 1;
                    self.counters.unknown_kernel.inc();
                    emit(ticks_out, ScopeEvent::UnknownKernel { switch: my_wire });
                }
                emit(ticks_out, ScopeEvent::SwitchForwarded { switch: my_wire });
                let rec = HopRecord {
                    flags: HOP_FORWARDED_ONLY,
                    ticks_out,
                    ..HopRecord::default()
                };
                (rec, pkt.payload, Some(pkt.dst), 1)
            }
        };

        // 4. Stamp our hop record into the stripped section (a switch
        // without a telemetry identity passes it through untouched),
        // re-append it, and route every copy once.
        if let Some(mut section) = section {
            if let Some(tel) = tel {
                let rec = HopRecord {
                    switch: tel.switch_id,
                    kernel,
                    ticks_in,
                    ..rec
                };
                section_append(&mut section, &rec);
            }
            payload.extend_from_slice(&section);
        }
        let src = pkt.src;
        for i in 0..copies {
            let NodeKind::Switch { cfg, .. } = &self.nodes[node] else {
                unreachable!("switch_process on a host");
            };
            let dst = dst.unwrap_or_else(|| cfg.bcast[i]);
            // The last copy takes the payload, the others clone it.
            let payload = if i + 1 < copies {
                payload.clone()
            } else {
                std::mem::take(&mut payload)
            };
            self.route_out(node, Packet { src, dst, payload }, rec.ticks_out);
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Borrows a host application, downcast to its concrete type.
    pub fn host_app<T: 'static>(&self, id: HostId) -> Option<&T> {
        self.nodes.iter().find_map(|n| match n {
            NodeKind::Host { id: hid, app } if *hid == id => app.as_any().downcast_ref(),
            _ => None,
        })
    }

    /// Mutably borrows a host application.
    pub fn host_app_mut<T: 'static>(&mut self, id: HostId) -> Option<&mut T> {
        self.nodes.iter_mut().find_map(|n| match n {
            NodeKind::Host { id: hid, app } if *hid == id => app.as_any_mut().downcast_mut(),
            _ => None,
        })
    }

    /// A switch's counters.
    pub fn switch_stats(&self, id: SwitchId) -> Option<SwitchStats> {
        self.nodes.iter().find_map(|n| match n {
            NodeKind::Switch { id: sid, stats, .. } if *sid == id => Some(*stats),
            _ => None,
        })
    }

    /// The configuration of switch `id`.
    fn switch_cfg_mut(&mut self, id: SwitchId) -> Option<&mut SwitchCfg> {
        self.nodes.iter_mut().find_map(|n| match n {
            NodeKind::Switch { id: sid, cfg, .. } if *sid == id => Some(&mut **cfg),
            _ => None,
        })
    }

    /// Mutable access to a switch's engine when it is the modeled PISA
    /// pipeline (control-plane operations mid-simulation, post-run
    /// register reads).
    pub fn switch_pipeline_mut(&mut self, id: SwitchId) -> Option<&mut pisa::Pipeline> {
        self.switch_fastpath_mut(id)?.as_any_mut().downcast_mut()
    }

    /// Mutable access to a switch's engine, whichever it is
    /// (configuration and post-run inspection).
    pub fn switch_fastpath_mut(
        &mut self,
        id: SwitchId,
    ) -> Option<&mut (dyn FastDatapath + 'static)> {
        self.switch_cfg_mut(id)?.engine.as_deref_mut()
    }

    /// Mutable access to a switch's telemetry identity (the control
    /// plane updates per-kernel version facts when a hitless upgrade
    /// finishes and the old version's identity is reclaimed).
    pub fn switch_telemetry_mut(
        &mut self,
        id: SwitchId,
    ) -> Option<&mut crate::node::SwitchTelemetry> {
        self.switch_cfg_mut(id)?.telemetry.as_mut()
    }

    /// Duplicate windows suppressed by a switch's compiler-lowered
    /// NCP-R replay filters: the sum of its `__nclr_dups_*` registers,
    /// read from its engine. A gauge over live switch state, not a sim
    /// counter.
    pub fn switch_dup_suppressed(&mut self, id: SwitchId) -> u64 {
        self.switch_cfg_mut(id).map_or(0, |cfg| cfg_dup_sum(cfg))
    }

    /// The UDP socket address of `node`, when the network runs over real
    /// sockets ([`NetworkBuilder::bind_udp`]).
    pub fn udp_addr(&self, node: NodeId) -> Option<SocketAddr> {
        self.substrate.addr(index(&self.nodes, node)?)
    }

    /// Total bytes carried over a node's links, per direction, summed.
    pub fn node_ingress_bytes(&self, id: NodeId) -> u64 {
        let idx = index(&self.nodes, id).expect("known node");
        self.links
            .iter()
            .map(|l| {
                if l.b == idx {
                    l.ab.bytes
                } else if l.a == idx {
                    l.ba.bytes
                } else {
                    0
                }
            })
            .sum()
    }
}

/// Sum of a switch's `__nclr_dups_*` replay-filter registers (slot 0 of
/// each), read from its engine; [`SwitchCfg`] alone, so `switch_process`
/// can take the reading mid-flight.
fn cfg_dup_sum(cfg: &SwitchCfg) -> u64 {
    cfg.engine.as_ref().map_or(0, |engine| {
        engine.register_prefix_sum(c3::ncpr::REPLAY_DUPS_PREFIX)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;

    const MICROS: Time = 1_000;

    /// Echoes every payload back to the sender, once.
    struct Echo {
        seen: Vec<Vec<u8>>,
    }

    impl HostApp for Echo {
        fn on_packet(&mut self, ctx: &mut HostCtx, pkt: &Packet) {
            self.seen.push(pkt.payload.clone());
            if pkt.payload != b"echo" {
                ctx.send(pkt.src, b"echo".to_vec());
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Sends one message to a destination at start.
    struct Pinger {
        dst: NodeId,
        replies: u32,
    }

    impl HostApp for Pinger {
        fn on_start(&mut self, ctx: &mut HostCtx) {
            ctx.send(self.dst, b"ping".to_vec());
        }
        fn on_packet(&mut self, _ctx: &mut HostCtx, _pkt: &Packet) {
            self.replies += 1;
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// The same hosts and switch on simulated links and over real
    /// sockets: the same deliveries and counters.
    #[test]
    fn ping_through_a_switch() {
        for udp in [false, true] {
            let mut b = NetworkBuilder::new();
            let h1 = b.add_host(Box::new(Pinger {
                dst: NodeId::Host(HostId(2)),
                replies: 0,
            }));
            let h2 = b.add_host(Box::new(Echo { seen: vec![] }));
            let s1 = b.add_switch(SwitchCfg::default());
            b.link(h1, s1, LinkSpec::default());
            b.link(h2, s1, LinkSpec::default());
            let mut net = if udp {
                b.bind_udp([127, 0, 0, 1].into()).unwrap()
            } else {
                b.build()
            };
            assert_eq!(net.udp_addr(NodeId::Switch(s1)).is_some(), udp);
            net.run_until(5 * crate::event::SECONDS);
            let echo = net.host_app::<Echo>(h2).unwrap();
            assert_eq!(echo.seen, vec![b"ping".to_vec()]);
            let pinger = net.host_app::<Pinger>(h1).unwrap();
            assert_eq!(pinger.replies, 1);
            assert_eq!(net.stats().delivered, 2);
            let st = net.switch_stats(s1).unwrap();
            assert_eq!(st.forwarded, 2);
        }
    }

    #[test]
    fn multi_hop_routing() {
        // h1 - s1 - s2 - h2
        let mut b = NetworkBuilder::new();
        let h1 = b.add_host(Box::new(Pinger {
            dst: NodeId::Host(HostId(2)),
            replies: 0,
        }));
        let h2 = b.add_host(Box::new(Echo { seen: vec![] }));
        let s1 = b.add_switch(SwitchCfg::default());
        let s2 = b.add_switch(SwitchCfg::default());
        b.link(h1, s1, LinkSpec::default());
        b.link(s1, s2, LinkSpec::default());
        b.link(s2, h2, LinkSpec::default());
        let mut net = b.build();
        net.run();
        assert_eq!(net.host_app::<Pinger>(h1).unwrap().replies, 1);
    }

    #[test]
    fn latency_accumulates() {
        let mut b = NetworkBuilder::new();
        let h1 = b.add_host(Box::new(Pinger {
            dst: NodeId::Host(HostId(2)),
            replies: 0,
        }));
        let h2 = b.add_host(Box::new(Echo { seen: vec![] }));
        let s1 = b.add_switch(SwitchCfg::default());
        let slow = LinkSpec {
            latency: 100 * MICROS,
            ..Default::default()
        };
        b.link(h1, s1, slow);
        b.link(h2, s1, slow);
        let mut net = b.build();
        let end = net.run();
        // Four link traversals at 100 µs each, minimum.
        assert!(end >= 400 * MICROS, "end {end}");
    }

    #[test]
    fn unroutable_counted() {
        let mut b = NetworkBuilder::new();
        let _h1 = b.add_host(Box::new(Pinger {
            dst: NodeId::Host(HostId(99)),
            replies: 0,
        }));
        let mut net = b.build();
        net.run();
        assert_eq!(net.stats().unroutable, 1);
    }

    #[test]
    fn timers_fire_in_order() {
        struct Timers {
            fired: Vec<u64>,
        }
        impl HostApp for Timers {
            fn on_start(&mut self, ctx: &mut HostCtx) {
                ctx.set_timer(300, 3);
                ctx.set_timer(100, 1);
                ctx.set_timer(200, 2);
            }
            fn on_packet(&mut self, _: &mut HostCtx, _: &Packet) {}
            fn on_timer(&mut self, _: &mut HostCtx, token: u64) {
                self.fired.push(token);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut b = NetworkBuilder::new();
        let h = b.add_host(Box::new(Timers { fired: vec![] }));
        let mut net = b.build();
        net.run();
        assert_eq!(net.host_app::<Timers>(h).unwrap().fired, vec![1, 2, 3]);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut b = NetworkBuilder::new();
            let h1 = b.add_host(Box::new(Pinger {
                dst: NodeId::Host(HostId(2)),
                replies: 0,
            }));
            let h2 = b.add_host(Box::new(Echo { seen: vec![] }));
            let s1 = b.add_switch(SwitchCfg::default());
            b.link(h1, s1, LinkSpec::default());
            b.link(h2, s1, LinkSpec::default());
            let mut net = b.build();
            let end = net.run();
            (end, net.stats())
        };
        assert_eq!(run(), run());
    }

    /// Sends `n` datagrams of 300 bytes to `dst` from `on_start`, and
    /// counts the replies.
    struct Burst {
        dst: NodeId,
        n: usize,
        replies: usize,
    }

    impl HostApp for Burst {
        fn on_start(&mut self, ctx: &mut HostCtx) {
            for _ in 0..self.n {
                ctx.send(self.dst, vec![7; 300]);
            }
        }
        fn on_packet(&mut self, _ctx: &mut HostCtx, _pkt: &Packet) {
            self.replies += 1;
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// A burst sent from one callback, larger than a socket's receive
    /// buffer holds, crosses a switch over sockets whole, and `run()`
    /// returns once every datagram has arrived.
    #[test]
    fn a_socket_burst_arrives_whole_and_the_run_returns() {
        const N: usize = 1_000;
        let (tx, rx) = std::sync::mpsc::channel();
        // The run has its own thread, so a run that never returns fails
        // at the timeout below instead of hanging the test.
        std::thread::spawn(move || {
            let mut b = NetworkBuilder::new();
            let dst = NodeId::Host(HostId(2));
            let h1 = b.add_host(Box::new(Burst {
                dst,
                n: N,
                replies: 0,
            }));
            let h2 = b.add_host(Box::new(Echo { seen: vec![] }));
            let s1 = b.add_switch(SwitchCfg::default());
            b.link(h1, s1, LinkSpec::default());
            b.link(h2, s1, LinkSpec::default());
            let mut net = b.bind_udp([127, 0, 0, 1].into()).unwrap();
            net.run();
            let seen = net.host_app::<Echo>(h2).unwrap().seen.len();
            let replies = net.host_app::<Burst>(h1).unwrap().replies;
            tx.send((seen, replies, net.stats().delivered)).unwrap();
        });
        let (seen, replies, delivered) = rx
            .recv_timeout(Duration::from_secs(20))
            .expect("run() returns");
        assert_eq!((seen, replies), (N, N));
        assert_eq!(delivered, 2 * N as u64);
    }

    /// A datagram shorter than the header, or naming a node the fabric
    /// lacks, is dropped and counted; the run goes on.
    #[test]
    fn malformed_datagrams_are_counted_not_delivered() {
        let mut b = NetworkBuilder::new();
        let h1 = b.add_host(Box::new(Echo { seen: vec![] }));
        let s1 = b.add_switch(SwitchCfg::default());
        b.link(h1, s1, LinkSpec::default());
        let scope = Scope::new(64);
        b.with_scope(&scope);
        let mut net = b.bind_udp([127, 0, 0, 1].into()).unwrap();
        let outside = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        let to = net.udp_addr(NodeId::Switch(s1)).unwrap();
        outside.send_to(&[0xde, 0xad], to).unwrap();
        outside
            .send_to(&[0x00, 0x01, 0x00, 0x63, 0xff], to)
            .unwrap();
        // Header checked, not payload: host 1 to host 1 is delivered.
        let h1_addr = net.udp_addr(NodeId::Host(h1)).unwrap();
        outside
            .send_to(&[0x00, 0x01, 0x00, 0x01, 0xff], h1_addr)
            .unwrap();
        let started = std::time::Instant::now();
        let malformed = |net: &Network| net.metrics().counter_value("sim.udp_malformed");
        while (malformed(&net) != Some(2) || net.stats().delivered == 0)
            && started.elapsed().as_secs() < 5
        {
            net.run();
        }
        assert_eq!(malformed(&net), Some(2));
        assert_eq!(net.host_app::<Echo>(h1).unwrap().seen[0], vec![0xff]);
        let at_s1 = |e: &nctel::scope::DecodedEvent| {
            e.event == ScopeEvent::MalformedFrame && e.node == NodeId::Switch(s1).to_wire()
        };
        assert_eq!(scope.decoded().iter().filter(|e| at_s1(e)).count(), 2);
    }

    #[test]
    fn link_loss_drops_packets() {
        let mut b = NetworkBuilder::new();
        let h1 = b.add_host(Box::new(Pinger {
            dst: NodeId::Host(HostId(2)),
            replies: 0,
        }));
        let h2 = b.add_host(Box::new(Echo { seen: vec![] }));
        b.link(
            h1,
            h2,
            LinkSpec {
                drop_every: 1, // drop everything
                ..Default::default()
            },
        );
        let mut net = b.build();
        net.run();
        assert_eq!(net.stats().delivered, 0);
        assert_eq!(net.stats().link_drops, 1);
    }
}
