//! Typed scope events and the bounded, lock-free event ring.
//!
//! Every event is keyed by `(sender, kernel, window seq)` — the same key
//! the NCP header and the in-band hop records carry — so host-side,
//! transport-side and switch-side observations of one window all join
//! the same causal chain. Events are stored flattened (one fixed-size
//! record of five 64-bit words) so the ring can be written from any
//! thread without locks: each slot is a seqlock of plain atomics, a
//! single `fetch_add` cursor hands out sequence numbers, and a writer
//! claims its slot with one `compare_exchange` on the seqlock version.

use std::sync::atomic::{fence, AtomicU64, Ordering};

/// The causal key every event carries: the NCP window identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct WindowKey {
    /// Originating sender id (NCP header `sender`).
    pub sender: u16,
    /// Kernel id the window addressed.
    pub kernel: u16,
    /// Window sequence number.
    pub seq: u32,
}

impl WindowKey {
    /// Builds a key from its three parts.
    pub fn new(sender: u16, kernel: u16, seq: u32) -> Self {
        WindowKey {
            sender,
            kernel,
            seq,
        }
    }
}

/// A typed observation about one window (or, for transport/control
/// events, about the stream it belongs to).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScopeEvent {
    /// A window frame was put on the wire by a host (first transmission
    /// or retransmission; `attempt` is 0 for the first send).
    WindowSent {
        /// Retransmission count at send time.
        attempt: u32,
    },
    /// The link `from → to` (node wire ids) dropped a frame of this
    /// window.
    FragmentDropped {
        /// Transmitting node, wire id.
        from: u16,
        /// Receiving node, wire id.
        to: u16,
        /// True when the dropped frame was an ACK/NACK control frame.
        ctrl: bool,
        /// True when the drop was part of a burst-loss episode.
        burst: bool,
    },
    /// The reliable sender's retransmission timer fired for this window.
    RtoFired {
        /// Which retry this is (1 = first retransmission).
        attempt: u32,
    },
    /// A NACK for this window reached the sender.
    NackReceived,
    /// A switch executed the window's kernel.
    SwitchExecuted {
        /// Switch wire id.
        switch: u16,
        /// Deployed kernel version that ran.
        version: u16,
        /// Forwarding verdict (0 pass, 1 reflect, 2 bcast, 3 drop,
        /// 4 labelled pass).
        fwd: u8,
    },
    /// A switch forwarded the frame without executing a kernel.
    SwitchForwarded {
        /// Switch wire id.
        switch: u16,
    },
    /// A replay filter (on-switch or host-edge) suppressed a duplicate
    /// of this window.
    DupSuppressed {
        /// Wire id of the node that suppressed it.
        at: u16,
    },
    /// The receiving host delivered the window to the application.
    WindowCompleted,
    /// The reliable sender retired the window after an ACK.
    WindowAcked,
    /// The reliable sender gave up on the window (delivery timeout).
    WindowAbandoned {
        /// Retries spent before abandoning.
        retries: u32,
    },
    /// The reliable sender's congestion window changed.
    CwndChanged {
        /// New congestion window, in windows.
        cwnd: u32,
    },
    /// A frame failed NCP validation at a host edge.
    MalformedFrame,
    /// The reassembler evicted a stale partial window.
    ReassemblyEvicted {
        /// Total evictions so far at this host.
        evictions: u64,
    },
    /// The deploy-time lint gate denied a switch module.
    LintDenied {
        /// Wire id of the denied switch.
        switch: u16,
    },
    /// A switch received a well-formed NCP window addressing a kernel id
    /// it has no deployed kernel for — the failure mode a botched
    /// multi-tenant deploy or a racing upgrade exposes. The window is
    /// plainly forwarded (hitless), not silently dropped; this event and
    /// the `sim.unknown_kernel` counter make the mismatch visible.
    UnknownKernel {
        /// Wire id of the switch that lacked the kernel.
        switch: u16,
    },
}

impl ScopeEvent {
    /// Flattens the event into `(kind, a, b)` words.
    pub fn pack(self) -> (u8, u64, u64) {
        match self {
            ScopeEvent::WindowSent { attempt } => (1, attempt as u64, 0),
            ScopeEvent::FragmentDropped {
                from,
                to,
                ctrl,
                burst,
            } => (
                2,
                ((from as u64) << 16) | to as u64,
                (ctrl as u64) | ((burst as u64) << 1),
            ),
            ScopeEvent::RtoFired { attempt } => (3, attempt as u64, 0),
            ScopeEvent::NackReceived => (4, 0, 0),
            ScopeEvent::SwitchExecuted {
                switch,
                version,
                fwd,
            } => (
                5,
                ((switch as u64) << 24) | ((version as u64) << 8) | fwd as u64,
                0,
            ),
            ScopeEvent::SwitchForwarded { switch } => (6, switch as u64, 0),
            ScopeEvent::DupSuppressed { at } => (7, at as u64, 0),
            ScopeEvent::WindowCompleted => (8, 0, 0),
            ScopeEvent::WindowAcked => (9, 0, 0),
            ScopeEvent::WindowAbandoned { retries } => (10, retries as u64, 0),
            ScopeEvent::CwndChanged { cwnd } => (11, cwnd as u64, 0),
            ScopeEvent::MalformedFrame => (12, 0, 0),
            ScopeEvent::ReassemblyEvicted { evictions } => (13, evictions, 0),
            ScopeEvent::LintDenied { switch } => (14, switch as u64, 0),
            ScopeEvent::UnknownKernel { switch } => (15, switch as u64, 0),
        }
    }

    /// Rebuilds the event from flattened words; `None` for unknown
    /// kinds (e.g. an artifact written by a newer stack).
    pub(crate) fn unpack(kind: u8, a: u64, b: u64) -> Option<ScopeEvent> {
        Some(match kind {
            1 => ScopeEvent::WindowSent { attempt: a as u32 },
            2 => ScopeEvent::FragmentDropped {
                from: (a >> 16) as u16,
                to: a as u16,
                ctrl: b & 1 != 0,
                burst: b & 2 != 0,
            },
            3 => ScopeEvent::RtoFired { attempt: a as u32 },
            4 => ScopeEvent::NackReceived,
            5 => ScopeEvent::SwitchExecuted {
                switch: (a >> 24) as u16,
                version: (a >> 8) as u16,
                fwd: a as u8,
            },
            6 => ScopeEvent::SwitchForwarded { switch: a as u16 },
            7 => ScopeEvent::DupSuppressed { at: a as u16 },
            8 => ScopeEvent::WindowCompleted,
            9 => ScopeEvent::WindowAcked,
            10 => ScopeEvent::WindowAbandoned { retries: a as u32 },
            11 => ScopeEvent::CwndChanged { cwnd: a as u32 },
            12 => ScopeEvent::MalformedFrame,
            13 => ScopeEvent::ReassemblyEvicted { evictions: a },
            14 => ScopeEvent::LintDenied { switch: a as u16 },
            15 => ScopeEvent::UnknownKernel { switch: a as u16 },
            _ => return None,
        })
    }

    /// Stable snake_case name for the flattened `kind` code, used in
    /// JSON artifacts.
    pub(crate) fn kind_name(kind: u8) -> &'static str {
        match kind {
            1 => "window_sent",
            2 => "fragment_dropped",
            3 => "rto_fired",
            4 => "nack_received",
            5 => "switch_executed",
            6 => "switch_forwarded",
            7 => "dup_suppressed",
            8 => "window_completed",
            9 => "window_acked",
            10 => "window_abandoned",
            11 => "cwnd_changed",
            12 => "malformed_frame",
            13 => "reassembly_evicted",
            14 => "lint_denied",
            15 => "unknown_kernel",
            _ => "unknown",
        }
    }

    /// Inverse of [`ScopeEvent::kind_name`]; 0 for unknown names.
    pub(crate) fn kind_code(name: &str) -> u8 {
        match name {
            "window_sent" => 1,
            "fragment_dropped" => 2,
            "rto_fired" => 3,
            "nack_received" => 4,
            "switch_executed" => 5,
            "switch_forwarded" => 6,
            "dup_suppressed" => 7,
            "window_completed" => 8,
            "window_acked" => 9,
            "window_abandoned" => 10,
            "cwnd_changed" => 11,
            "malformed_frame" => 12,
            "reassembly_evicted" => 13,
            "lint_denied" => 14,
            "unknown_kernel" => 15,
            _ => 0,
        }
    }
}

/// One flattened ring entry: timestamp, emitting node, causal key and
/// the packed event words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScopeEventRecord {
    /// Event time in nanoseconds (sim ticks or wall clock).
    pub t: u64,
    /// Wire id of the emitting node (0 when unknown).
    pub node: u16,
    /// Causal key: originating sender id.
    pub sender: u16,
    /// Causal key: kernel id.
    pub kernel: u16,
    /// Causal key: window sequence number.
    pub seq: u32,
    /// Packed event kind code.
    pub kind: u8,
    /// First kind-specific word.
    pub a: u64,
    /// Second kind-specific word.
    pub b: u64,
}

impl ScopeEventRecord {
    /// The causal key of this record.
    pub fn key(&self) -> WindowKey {
        WindowKey::new(self.sender, self.kernel, self.seq)
    }

    /// Decodes the packed words back into the typed event, if the kind
    /// is known.
    pub fn event(&self) -> Option<ScopeEvent> {
        ScopeEvent::unpack(self.kind, self.a, self.b)
    }
}

/// A record paired with its decoded event — the unit the analysis
/// engine consumes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecodedEvent {
    /// Event time in nanoseconds.
    pub t: u64,
    /// Wire id of the emitting node.
    pub node: u16,
    /// The window this event belongs to.
    pub key: WindowKey,
    /// The typed event.
    pub event: ScopeEvent,
}

const WORDS: usize = 5;

struct Slot {
    /// Seqlock version: `2 * n + 1` while event `n` is being written
    /// into this slot, `2 * n + 2` once it is complete. It only ever
    /// grows.
    version: AtomicU64,
    words: [AtomicU64; WORDS],
}

/// A bounded, lock-free multi-producer event ring.
///
/// Writers claim a global sequence number with one `fetch_add`, then
/// claim the slot `n % capacity` with a `compare_exchange` on its
/// seqlock version, fill it and publish it; when the ring wraps, old
/// events are overwritten (lossy by design — this is a flight recorder,
/// not a log shipper). The slot claim succeeds only from a complete,
/// older version, so two writers a lap apart are never inside one slot
/// together and a slot's version never goes back: a writer that finds
/// the slot still being written, or already holding a newer event,
/// writes nothing and its event counts as dropped.
/// [`EventRing::snapshot`] collects every slot whose seqlock is stable,
/// oldest first, without blocking writers.
pub struct EventRing {
    slots: Box<[Slot]>,
    head: AtomicU64,
    /// Events whose writer lost its slot claim.
    lost: AtomicU64,
}

impl std::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRing")
            .field("capacity", &self.slots.len())
            .field("logged", &self.logged())
            .finish()
    }
}

impl EventRing {
    /// Creates a ring holding at most `cap` events (minimum 1).
    pub fn new(cap: usize) -> EventRing {
        let cap = cap.max(1);
        let slots = (0..cap)
            .map(|_| Slot {
                version: AtomicU64::new(0),
                words: std::array::from_fn(|_| AtomicU64::new(0)),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        EventRing {
            slots,
            head: AtomicU64::new(0),
            lost: AtomicU64::new(0),
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever pushed.
    pub fn logged(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Events lost to ring wrap-around, plus events whose writer lost its
    /// slot claim. A single producer never loses a claim; under
    /// concurrent writers, a lost event that has since fallen behind the
    /// ring's window is counted twice, so the figure is an upper bound.
    pub fn dropped(&self) -> u64 {
        self.logged().saturating_sub(self.slots.len() as u64) + self.lost.load(Ordering::Relaxed)
    }

    /// Appends a record. Lock-free: one `fetch_add`, one slot claim by
    /// `compare_exchange`, a release fence and six stores; never blocks
    /// or allocates.
    pub fn push(&self, r: ScopeEventRecord) {
        let n = self.head.fetch_add(1, Ordering::Relaxed);
        match self.claim(n) {
            Some(slot) => {
                Self::fill(slot, &r);
                Self::publish(slot, n);
            }
            None => {
                self.lost.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Claims event `n`'s slot: moves its version from a complete,
    /// older `2m + 2` to `2n + 1`. `None` when the slot is being written
    /// (odd) or already holds a newer event.
    fn claim(&self, n: u64) -> Option<&Slot> {
        let slot = &self.slots[(n % self.slots.len() as u64) as usize];
        let mut v = slot.version.load(Ordering::Relaxed);
        while v & 1 == 0 && v < 2 * n + 1 {
            // Acquire, pairing with the previous owner's `publish`
            // (Release): its word stores happen before ours, so they
            // cannot land on top of them.
            match slot.version.compare_exchange_weak(
                v,
                2 * n + 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    // The standard seqlock writer: the fence keeps the
                    // word stores of `fill` from becoming visible ahead
                    // of the odd version (pairing with the reader's
                    // acquire fence).
                    fence(Ordering::Release);
                    return Some(slot);
                }
                Err(now) => v = now,
            }
        }
        None
    }

    /// Writes a record's words into a claimed slot.
    fn fill(slot: &Slot, r: &ScopeEventRecord) {
        let w1 = ((r.node as u64) << 48)
            | ((r.sender as u64) << 32)
            | ((r.kernel as u64) << 16)
            | r.kind as u64;
        slot.words[0].store(r.t, Ordering::Relaxed);
        slot.words[1].store(w1, Ordering::Relaxed);
        slot.words[2].store(r.seq as u64, Ordering::Relaxed);
        slot.words[3].store(r.a, Ordering::Relaxed);
        slot.words[4].store(r.b, Ordering::Relaxed);
    }

    /// Marks event `n`'s claimed slot complete.
    fn publish(slot: &Slot, n: u64) {
        slot.version.store(2 * n + 2, Ordering::Release);
    }

    /// Collects the currently buffered events, oldest first. Slots being
    /// overwritten concurrently are skipped rather than returned torn.
    pub fn snapshot(&self) -> Vec<ScopeEventRecord> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let start = head.saturating_sub(cap);
        let mut out = Vec::with_capacity((head - start) as usize);
        for n in start..head {
            let slot = &self.slots[(n % cap) as usize];
            let v1 = slot.version.load(Ordering::Acquire);
            if v1 != 2 * n + 2 {
                continue; // still writing, or already overwritten
            }
            let t = slot.words[0].load(Ordering::Relaxed);
            let w1 = slot.words[1].load(Ordering::Relaxed);
            let seq = slot.words[2].load(Ordering::Relaxed);
            let a = slot.words[3].load(Ordering::Relaxed);
            let b = slot.words[4].load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            if slot.version.load(Ordering::Relaxed) != v1 {
                continue; // overwritten mid-read
            }
            out.push(ScopeEventRecord {
                t,
                node: (w1 >> 48) as u16,
                sender: (w1 >> 32) as u16,
                kernel: (w1 >> 16) as u16,
                seq: seq as u32,
                kind: w1 as u8,
                a,
                b,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn rec(seq: u32, kind: u8) -> ScopeEventRecord {
        ScopeEventRecord {
            t: seq as u64 * 10,
            node: 1,
            sender: 1,
            kernel: 7,
            seq,
            kind,
            a: seq as u64,
            b: 0,
        }
    }

    #[test]
    fn events_round_trip_through_packing() {
        let all = [
            ScopeEvent::WindowSent { attempt: 3 },
            ScopeEvent::FragmentDropped {
                from: 1,
                to: 0x8000,
                ctrl: true,
                burst: false,
            },
            ScopeEvent::RtoFired { attempt: 2 },
            ScopeEvent::NackReceived,
            ScopeEvent::SwitchExecuted {
                switch: 0x8000,
                version: 2,
                fwd: 3,
            },
            ScopeEvent::SwitchForwarded { switch: 0x8001 },
            ScopeEvent::DupSuppressed { at: 2 },
            ScopeEvent::WindowCompleted,
            ScopeEvent::WindowAcked,
            ScopeEvent::WindowAbandoned { retries: 16 },
            ScopeEvent::CwndChanged { cwnd: 32 },
            ScopeEvent::MalformedFrame,
            ScopeEvent::ReassemblyEvicted { evictions: 9 },
            ScopeEvent::LintDenied { switch: 0x8000 },
            ScopeEvent::UnknownKernel { switch: 0x8002 },
        ];
        for ev in all {
            let (k, a, b) = ev.pack();
            assert_eq!(ScopeEvent::unpack(k, a, b), Some(ev));
            assert_eq!(
                ScopeEvent::kind_code(ScopeEvent::kind_name(k)),
                k,
                "name round trip for {ev:?}"
            );
        }
        assert_eq!(ScopeEvent::unpack(99, 0, 0), None);
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let ring = EventRing::new(4);
        for seq in 0..10 {
            ring.push(rec(seq, 1));
        }
        assert_eq!(ring.logged(), 10);
        assert_eq!(ring.dropped(), 6);
        let snap = ring.snapshot();
        assert_eq!(
            snap.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
    }

    #[test]
    fn concurrent_pushes_are_never_torn() {
        let ring = Arc::new(EventRing::new(256));
        let writers: Vec<_> = (0..4u16)
            .map(|w| {
                let r = ring.clone();
                std::thread::spawn(move || {
                    for seq in 0..2000u32 {
                        r.push(ScopeEventRecord {
                            t: seq as u64,
                            node: w,
                            sender: w,
                            kernel: w,
                            seq,
                            kind: 1,
                            a: (w as u64) << 32 | seq as u64,
                            b: 0,
                        });
                    }
                })
            })
            .collect();
        // Snapshot concurrently with the writers.
        for _ in 0..50 {
            for r in ring.snapshot() {
                // Consistency invariant: every field derived from the
                // same (writer, seq) pair.
                assert_eq!(r.node, r.sender);
                assert_eq!(r.a, (r.node as u64) << 32 | r.seq as u64);
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(ring.logged(), 8000);
        // A writer that lost its slot to one a lap behind left that
        // slot's older event in place; its own event counts as dropped.
        let kept = ring.snapshot().len() as u64;
        assert!(kept <= 256 && kept + ring.dropped() >= 8000, "{kept} kept");
    }

    /// Two writers a lap apart, interleaved by hand on a one-slot ring:
    /// the later one finds the slot still being written, writes nothing
    /// and is counted; the slot never keeps a stale version; and no
    /// snapshot ever returns a record assembled from two writers.
    #[test]
    fn a_writer_a_lap_ahead_never_tears_a_slot() {
        let ring = EventRing::new(1);
        let whole = |ring: &EventRing| {
            for r in ring.snapshot() {
                assert_eq!(r, rec(r.seq, 1), "a record from two writers");
            }
        };
        let n0 = ring.head.fetch_add(1, Ordering::Relaxed);
        let slot = ring.claim(n0).expect("the first claim wins");
        ring.slots[0].words[0].store(rec(0, 1).t, Ordering::Relaxed);
        whole(&ring);
        // Event 1 claims the slot event 0 is still inside.
        let n1 = ring.head.fetch_add(1, Ordering::Relaxed);
        assert!(
            ring.claim(n1).is_none(),
            "a slot being written is not claimable"
        );
        ring.lost.fetch_add(1, Ordering::Relaxed);
        whole(&ring);
        EventRing::fill(slot, &rec(0, 1));
        EventRing::publish(slot, n0);
        whole(&ring);
        assert_eq!(ring.dropped(), 2, "event 0 wrapped, event 1 lost its claim");
        assert!(ring.snapshot().is_empty(), "the window holds only event 1");
        // The slot is not stuck: event 2 claims it from event 0.
        ring.push(rec(2, 1));
        assert_eq!(ring.snapshot(), vec![rec(2, 1)]);
        // A writer that is behind the slot never moves it back.
        assert!(
            ring.claim(n1).is_none(),
            "an older event never overwrites a newer one"
        );
        assert_eq!(ring.snapshot(), vec![rec(2, 1)]);
        assert_eq!(ring.logged(), 3);
        assert_eq!(ring.dropped(), 3, "event 1 is now both lost and wrapped");
    }
}
