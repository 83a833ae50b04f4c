//! The Sockets/UDP backend (the paper's first prototype target, §6).
//!
//! [`UdpEndpoint`] wraps a `std::net::UdpSocket` with NCP window
//! send/receive: windows are encoded with [`crate::codec`], fragmented
//! to the MTU, and reassembled on receipt; raw datagrams pass through
//! [`UdpEndpoint::send_raw`] / [`UdpEndpoint::recv_raw`]. The endpoint
//! is synchronous, blocking with a configurable read timeout or
//! non-blocking — NCP imposes no async runtime on its hosts. netsim's
//! `NetworkBuilder::bind_udp` gives every node of a network one
//! non-blocking endpoint and polls them all from one thread.

use crate::codec::{fragment_window_into, BufferPool, Reassembler};
use crate::reliable::Time;
use crate::wire::{AckRepr, NcpPacket};
use c3::Window;
use nctel::MonotonicClock;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::time::Duration;

/// The NCP well-known UDP port (also baked into the generated P4
/// parser's `parse_udp` state).
pub const NCP_UDP_PORT: u16 = 9047;

/// One receive attempt's outcome, classified. [`UdpEndpoint::poll_event`]
/// returns exactly one of these per datagram (or [`RecvEvent::Timeout`]
/// when the socket had nothing), so callers driving the NCP-R engine can
/// react to ACK frames and distinguish an idle link from a noisy one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvEvent {
    /// A complete window (possibly reassembled from fragments).
    Window(Window, SocketAddr),
    /// An NCP-R ACK/NACK frame (a bare header, never fragmented).
    Ack(AckRepr, SocketAddr),
    /// A valid NCP fragment consumed mid-reassembly; no window yet.
    Partial(SocketAddr),
    /// A datagram that is not NCP (bad magic/version/length). Counted
    /// in [`UdpEndpoint::malformed`].
    Malformed(SocketAddr),
    /// The socket produced nothing within its timeout (or immediately,
    /// in non-blocking mode). The link is idle, not noisy.
    Timeout,
}

/// A synchronous NCP-over-UDP endpoint.
#[derive(Debug)]
pub struct UdpEndpoint {
    socket: UdpSocket,
    reassembler: Reassembler,
    /// Maximum UDP payload per packet.
    pub mtu: usize,
    /// Ext-block size of the deployed program (fixed parser layout).
    pub ext_total: usize,
    /// Datagrams rejected as non-NCP since bind.
    malformed: u64,
    buf: Vec<u8>,
    /// Recycled packet buffers for the zero-copy send path.
    pool: BufferPool,
    /// Scratch fragment list reused across `send_window` calls.
    frags: Vec<Vec<u8>>,
    /// Monotonic origin for [`UdpEndpoint::now`]: RTO and trace math
    /// must never observe time running backwards, even if the system
    /// wall clock steps (the pre-nctel implementation read an
    /// `Instant` epoch without a latch).
    clock: MonotonicClock,
}

impl UdpEndpoint {
    /// Binds to `addr` with a default 100 ms read timeout.
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let socket = UdpSocket::bind(addr)?;
        socket.set_read_timeout(Some(Duration::from_millis(100)))?;
        Ok(UdpEndpoint {
            socket,
            reassembler: Reassembler::new(),
            mtu: 1472, // Ethernet MTU minus IP/UDP headers
            ext_total: 0,
            malformed: 0,
            buf: vec![0u8; 65536],
            pool: BufferPool::new(),
            frags: Vec::new(),
            clock: MonotonicClock::new(),
        })
    }

    /// The bound local address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Adjusts the read timeout.
    pub fn set_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.socket.set_read_timeout(timeout)
    }

    /// Switches the socket between blocking (with timeout) and
    /// non-blocking mode. Non-blocking endpoints return
    /// [`RecvEvent::Timeout`] immediately when no datagram is queued —
    /// the mode to use when interleaving receives with NCP-R
    /// retransmission polls.
    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        self.socket.set_nonblocking(nonblocking)
    }

    /// Nanoseconds since this endpoint was bound, from a monotonic,
    /// never-decreasing clock: the wall-clock counterpart of netsim's
    /// simulated `Time`, suitable for driving
    /// [`crate::reliable::Sender::poll`] RTO math.
    pub fn now(&self) -> Time {
        self.clock.now()
    }

    /// Datagrams rejected as non-NCP since bind.
    pub fn malformed(&self) -> u64 {
        self.malformed
    }

    /// Sends a window to `dst`, fragmenting to the MTU if necessary.
    /// Packet buffers are drawn from (and returned to) an internal pool,
    /// so steady-state sends allocate nothing. Returns the number of
    /// packets sent.
    pub fn send_window(&mut self, dst: SocketAddr, w: &Window) -> io::Result<usize> {
        fragment_window_into(w, self.ext_total, self.mtu, &mut self.pool, &mut self.frags);
        let n = self.frags.len();
        let mut result = Ok(());
        for f in self.frags.drain(..) {
            if result.is_ok() {
                result = self.socket.send_to(&f, dst).map(|_| ());
            }
            self.pool.put(f);
        }
        result.map(|()| n)
    }

    /// Sends raw datagram bytes (a switch forwarding, an NCP-R ACK
    /// frame, a network's own header plus payload).
    pub fn send_raw(&self, dst: SocketAddr, bytes: &[u8]) -> io::Result<()> {
        self.socket.send_to(bytes, dst).map(|_| ())
    }

    /// One receive attempt, classified. Unlike [`Self::recv_window`],
    /// this never loops: each call consumes at most one datagram, so a
    /// caller multiplexing receives with retransmission timers is never
    /// starved by a stream of noise, and ACK frames surface instead of
    /// being swallowed.
    pub fn poll_event(&mut self) -> io::Result<RecvEvent> {
        let (n, src) = match self.socket.recv_from(&mut self.buf) {
            Ok(r) => r,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Ok(RecvEvent::Timeout)
            }
            Err(e) => return Err(e),
        };
        if let Ok(p) = NcpPacket::new_checked(&self.buf[..n]) {
            if let Some(ack) = AckRepr::parse(&p) {
                return Ok(RecvEvent::Ack(ack, src));
            }
        }
        match self.reassembler.push(&self.buf[..n]) {
            Ok(Some(w)) => Ok(RecvEvent::Window(w, src)),
            Ok(None) => Ok(RecvEvent::Partial(src)),
            Err(_) => {
                self.malformed += 1;
                Ok(RecvEvent::Malformed(src))
            }
        }
    }

    /// Receives the next complete window (reassembling fragments).
    /// `Ok(None)` means the read timed out with the link idle —
    /// malformed datagrams are skipped (and counted in
    /// [`Self::malformed`]) rather than ending the wait, so a timeout
    /// is a genuine absence of traffic, not a parse failure in
    /// disguise. ACK frames are also skipped; use [`Self::poll_event`]
    /// to observe them.
    pub fn recv_window(&mut self) -> io::Result<Option<(Window, SocketAddr)>> {
        loop {
            match self.poll_event()? {
                RecvEvent::Window(w, src) => return Ok(Some((w, src))),
                RecvEvent::Timeout => return Ok(None),
                RecvEvent::Ack(..) | RecvEvent::Partial(_) | RecvEvent::Malformed(_) => continue,
            }
        }
    }

    /// Receives raw packet bytes (software-switch data path).
    pub fn recv_raw(&mut self) -> io::Result<Option<(Vec<u8>, SocketAddr)>> {
        match self.socket.recv_from(&mut self.buf) {
            Ok((n, src)) => Ok(Some((self.buf[..n].to_vec(), src))),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c3::{Chunk, HostId, KernelId, NodeId};

    fn loopback_pair() -> (UdpEndpoint, UdpEndpoint) {
        let a = UdpEndpoint::bind("127.0.0.1:0").unwrap();
        let b = UdpEndpoint::bind("127.0.0.1:0").unwrap();
        (a, b)
    }

    fn window(vals: &[u32]) -> Window {
        Window {
            kernel: KernelId(1),
            seq: 0,
            sender: HostId(1),
            from: NodeId::Host(HostId(1)),
            last: true,
            chunks: vec![Chunk {
                offset: 0,
                data: vals.iter().flat_map(|v| v.to_be_bytes()).collect(),
            }],
            ext: vec![],
        }
    }

    #[test]
    fn loopback_window_roundtrip() {
        let (mut a, mut b) = loopback_pair();
        let w = window(&[1, 2, 3, 4]);
        let sent = a.send_window(b.local_addr().unwrap(), &w).unwrap();
        assert_eq!(sent, 1);
        let (got, src) = b.recv_window().unwrap().expect("window arrives");
        assert_eq!(got, w);
        assert_eq!(src, a.local_addr().unwrap());
    }

    #[test]
    fn fragmented_window_over_loopback() {
        let (mut a, mut b) = loopback_pair();
        a.mtu = 64;
        let vals: Vec<u32> = (0..64).collect();
        let w = window(&vals);
        let sent = a.send_window(b.local_addr().unwrap(), &w).unwrap();
        assert!(sent > 1, "expected fragmentation, sent {sent}");
        let (got, _) = b.recv_window().unwrap().expect("reassembled");
        assert_eq!(got.chunks[0].data, w.chunks[0].data);
    }

    #[test]
    fn timeout_returns_none() {
        let (_, mut b) = loopback_pair();
        b.set_timeout(Some(Duration::from_millis(10))).unwrap();
        assert!(b.recv_window().unwrap().is_none());
    }

    #[test]
    fn garbage_packets_skipped() {
        let (mut a, mut b) = loopback_pair();
        b.set_timeout(Some(Duration::from_millis(50))).unwrap();
        a.send_raw(b.local_addr().unwrap(), &[1, 2, 3]).unwrap();
        let w = window(&[7]);
        a.send_window(b.local_addr().unwrap(), &w).unwrap();
        let (got, _) = b.recv_window().unwrap().expect("real window after noise");
        assert_eq!(got, w);
        // The skipped datagram was counted, and the subsequent timeout
        // is reported as a timeout, not conflated with the bad packet.
        assert_eq!(b.malformed(), 1);
        b.set_timeout(Some(Duration::from_millis(10))).unwrap();
        assert!(b.recv_window().unwrap().is_none());
        assert_eq!(b.malformed(), 1);
    }

    #[test]
    fn poll_event_classifies_datagrams() {
        let (mut a, mut b) = loopback_pair();
        let b_addr = b.local_addr().unwrap();
        b.set_nonblocking(true).unwrap();
        // Idle, non-blocking: immediate Timeout.
        assert_eq!(b.poll_event().unwrap(), RecvEvent::Timeout);
        // Garbage → Malformed (one event per datagram, never a loop).
        a.send_raw(b_addr, &[0xde, 0xad]).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let src = a.local_addr().unwrap();
        assert_eq!(b.poll_event().unwrap(), RecvEvent::Malformed(src));
        assert_eq!(b.malformed(), 1);
        // A fragmented window: Partial for every leading fragment, then
        // the reassembled Window.
        a.mtu = 64;
        let vals: Vec<u32> = (0..64).collect();
        let w = window(&vals);
        let sent = a.send_window(b_addr, &w).unwrap();
        assert!(sent > 1);
        std::thread::sleep(Duration::from_millis(20));
        let mut partials = 0;
        loop {
            match b.poll_event().unwrap() {
                RecvEvent::Partial(s) => {
                    assert_eq!(s, src);
                    partials += 1;
                }
                RecvEvent::Window(got, s) => {
                    assert_eq!(got.chunks[0].data, w.chunks[0].data);
                    assert_eq!(s, src);
                    break;
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert_eq!(partials, sent - 1);
    }

    /// Fragments that complete a window with a piece outside its bounds
    /// (start 100, end 110, a piece at 50) surface as one malformed
    /// datagram, not a panic in the receive loop.
    #[test]
    fn contradictory_fragments_count_as_malformed() {
        use crate::wire::{NcpRepr, FLAG_FIRST_FRAG, FLAG_FRAGMENT, FLAG_MORE_FRAGS};
        let (a, mut b) = loopback_pair();
        let b_addr = b.local_addr().unwrap();
        b.set_timeout(Some(Duration::from_millis(200))).unwrap();
        let fragment = |flags: u8, offset: u32, len: u16| {
            let repr = NcpRepr {
                flags: FLAG_FRAGMENT | flags,
                kernel: 1,
                seq: 0,
                sender: 1,
                from: 1,
                chunks: vec![(offset, len)],
                ext: vec![],
            };
            let mut buf = vec![0; repr.buffer_len()];
            repr.emit(&mut buf);
            buf
        };
        let src = a.local_addr().unwrap();
        for (flags, offset, len) in [
            (FLAG_FIRST_FRAG | FLAG_MORE_FRAGS, 100, 0),
            (FLAG_MORE_FRAGS, 50, 5),
        ] {
            a.send_raw(b_addr, &fragment(flags, offset, len)).unwrap();
            assert_eq!(b.poll_event().unwrap(), RecvEvent::Partial(src));
        }
        a.send_raw(b_addr, &fragment(0, 105, 5)).unwrap();
        assert_eq!(b.poll_event().unwrap(), RecvEvent::Malformed(src));
        assert_eq!(b.malformed(), 1);
    }

    #[test]
    fn ack_frames_surface_and_drive_the_reliable_engine() {
        use crate::reliable::{ReliableConfig, Sender};
        let (mut a, mut b) = loopback_pair();
        b.set_timeout(Some(Duration::from_millis(100))).unwrap();
        // `a` tracks a window under NCP-R, wall-clocked by the endpoint.
        let mut sender = Sender::new(ReliableConfig::default());
        let w = window(&[1, 2, 3]);
        assert!(sender.track(w.kernel.0, w.seq, a.now()));
        a.send_window(b.local_addr().unwrap(), &w).unwrap();
        // `b` receives it and acknowledges with an explicit frame.
        let (got, src) = b.recv_window().unwrap().expect("window arrives");
        let mut ack = Vec::new();
        AckRepr {
            nack: false,
            kernel: got.kernel.0,
            seq: got.seq,
            sender: got.sender.0,
            from: 2,
        }
        .emit_into(&mut ack);
        b.send_raw(src, &ack).unwrap();
        // recv_window skips ACK frames; poll_event surfaces them.
        a.set_timeout(Some(Duration::from_millis(100))).unwrap();
        match a.poll_event().unwrap() {
            RecvEvent::Ack(ack, _) => {
                assert!(!ack.nack);
                assert!(sender.on_ack(ack.kernel, ack.seq));
            }
            other => panic!("expected an ACK frame, got {other:?}"),
        }
        assert!(sender.idle());
    }

    /// The satellite regression: timestamps on the RTO/trace path come
    /// from a monotonic latch, so a time source that steps backwards
    /// (NTP adjustment under the old wall-clock epoch) cannot produce a
    /// decreasing `now()`. We drive the latch directly with a
    /// backwards-stepping raw sequence.
    #[test]
    fn rto_clock_survives_backwards_time_steps() {
        use crate::reliable::{ReliableConfig, Sender};
        let clock = nctel::MonotonicClock::new();
        // A raw source that jumps forward, steps back, then recovers.
        let raw = [100u64, 250, 80, 90, 260];
        let seen: Vec<u64> = raw.iter().map(|&r| clock.clamp(r)).collect();
        assert_eq!(seen, vec![100, 250, 250, 250, 260]);
        assert!(seen.windows(2).all(|w| w[0] <= w[1]), "never decreases");
        // And the endpoint's own clock is non-decreasing too.
        let (a, _) = loopback_pair();
        let (t1, t2) = (a.now(), a.now());
        assert!(t2 >= t1);
        // An RTO armed before the backwards step still fires at its
        // original deadline rather than being pushed into the past.
        let mut s = Sender::new(ReliableConfig {
            rto: 1_000,
            ..ReliableConfig::default()
        });
        s.track(1, 0, clock.clamp(300));
        let (due, _) = s.poll(clock.clamp(10)); // source stepped back
        assert!(due.is_empty(), "clamped clock cannot rewind the RTO");
        let (due, _) = s.poll(clock.clamp(1_400));
        assert_eq!(due, vec![(1, 0)]);
    }
}
