//! NCP-R: the reliability layer over NCP windows.
//!
//! The paper leaves transport reliability open (§6); NCP-R closes it
//! with a classic sender/receiver split that stays transport-agnostic:
//!
//! * **Sender** ([`Sender`]) — tracks every launched window under its
//!   `(kernel, seq)` key, bounds the in-flight set with an AIMD
//!   congestion window, retransmits on RTO with exponential backoff,
//!   and retires windows on explicit ACK frames *or* on any response
//!   window carrying the same `(kernel, seq)` (ack-by-response: in both
//!   paper applications every request produces a same-keyed reply).
//! * **Receiver** ([`Receiver`]) — per-`(sender, kernel)` duplicate
//!   suppression with a delivery floor plus a bitmap above it, so
//!   retransmissions of already-delivered windows are dropped at the
//!   host edge and counted.
//!
//! Switch-side exactly-once execution is NOT handled here — that is the
//! compiler-lowered replay filter (`window.replay`, see
//! `ncl_ir::lower::ReplayFilter`). This module only makes windows
//! *arrive*; the filter makes re-arrivals *harmless*.
//!
//! The engine is poll-driven and clock-agnostic: time is a `u64` in
//! nanoseconds, fed by the caller (netsim's simulated clock or a
//! wall-clock via `std::time::Instant`). Nothing here does I/O.
//!
//! **Logical-clock audit (ncmc):** this module performs *no* wall-clock
//! reads — every timestamp enters through a `now: Time` parameter and
//! the only internal time state is `last_now` (event stamping) and the
//! per-window RTO deadlines derived from caller-fed `now`. The sole
//! wall-clock site in the crate is `udp::MonotonicClock`, outside the
//! state machines. That property makes runs bit-deterministic under a
//! purely logical clock, which the ncmc model checker relies on: it
//! forks sender/receiver state mid-schedule via [`Sender::save`]/
//! [`Sender::restore`] (and the [`Receiver`] pair) and replays shrunk
//! counterexamples exactly.

use c3::IdMap;
use nctel::{Counter, Registry, Scope, ScopeEvent, WindowKey};
use std::collections::VecDeque;

/// Nanosecond timestamps, matching netsim's `Time`.
pub type Time = u64;

/// Tuning knobs for a [`Sender`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ReliableConfig {
    /// Initial retransmission timeout.
    pub rto: Time,
    /// RTO ceiling for the exponential backoff.
    pub max_rto: Time,
    /// Give up on a window after this many retransmissions.
    pub max_retries: u32,
    /// Initial congestion window (windows in flight).
    pub cwnd: usize,
    /// Congestion-window ceiling.
    pub max_cwnd: usize,
    /// Sequence slots per sender in the switch replay filter; the
    /// in-flight set is additionally capped at this value so sequence
    /// numbers never alias live filter cells. Zero disables the cap.
    pub filter_slots: usize,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        ReliableConfig {
            rto: 2_000_000, // 2 ms: several sim RTTs, tiny for wall-clock
            max_rto: 64_000_000,
            max_retries: 16,
            cwnd: 4,
            max_cwnd: 64,
            filter_slots: 0,
        }
    }
}

/// Point-in-time snapshot of a [`Sender`]'s counters (which live on
/// the unified `nctel` registry; see [`Sender::attach_metrics`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SenderStats {
    /// Windows handed to [`Sender::track`].
    pub tracked: u64,
    /// Retransmissions requested by RTO expiry or NACK.
    pub retransmits: u64,
    /// Windows retired by ACK or response.
    pub acked: u64,
    /// Windows dropped after `max_retries`.
    pub abandoned: u64,
    /// Congestion-window cuts (loss signals).
    pub cwnd_cuts: u64,
}

/// Key of an in-flight window.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Key {
    kernel: u16,
    seq: u32,
}

#[derive(Clone, Debug)]
struct InFlight {
    deadline: Time,
    rto: Time,
    retries: u32,
}

/// Sender half of NCP-R: in-flight tracking, AIMD window, RTO backoff.
///
/// The caller owns the actual packet bytes (retransmission re-encodes
/// from the application's window storage); the sender only decides
/// *which* `(kernel, seq)` to (re)send and *when*.
#[derive(Debug)]
pub struct Sender {
    cfg: ReliableConfig,
    flight: IdMap<Key, InFlight>,
    /// Launch-ready windows the cwnd has not admitted yet, FIFO.
    queue: VecDeque<Key>,
    /// Current congestion window.
    cwnd: usize,
    /// Additive-increase accumulator (acks since last growth).
    acks_since_grow: usize,
    /// nctel counters (detached until [`Sender::attach_metrics`]).
    tracked: Counter,
    retransmits: Counter,
    acked: Counter,
    abandoned: Counter,
    cwnd_cuts: Counter,
    /// ncscope event sink plus this host's id (used as both the
    /// emitting node and the causal `sender` key).
    scope: Option<(Scope, u16)>,
    /// Timestamp of the most recent clocked call, so clock-less entry
    /// points (`on_ack`) can stamp events monotonically enough.
    last_now: Time,
}

impl Sender {
    /// A sender with the given knobs.
    pub fn new(cfg: ReliableConfig) -> Self {
        Sender {
            cwnd: cfg.cwnd.max(1),
            cfg,
            flight: IdMap::default(),
            queue: VecDeque::new(),
            acks_since_grow: 0,
            tracked: Counter::new(),
            retransmits: Counter::new(),
            acked: Counter::new(),
            abandoned: Counter::new(),
            cwnd_cuts: Counter::new(),
            scope: None,
            last_now: 0,
        }
    }

    /// Attaches an ncscope event sink: RTO firings, cwnd changes,
    /// NACKs, retirements and abandonments are emitted keyed by
    /// `(host, kernel, seq)`.
    pub fn attach_scope(&mut self, scope: &Scope, host: u16) {
        self.scope = Some((scope.clone(), host));
    }

    fn emit(&self, t: Time, kernel: u16, seq: u32, ev: ScopeEvent) {
        if let Some((scope, host)) = &self.scope {
            scope.emit(t, *host, WindowKey::new(*host, kernel, seq), ev);
        }
    }

    /// Registers this sender's counters on `reg` under
    /// `{prefix}.tracked`, `{prefix}.retransmits`, `{prefix}.acked`,
    /// `{prefix}.abandoned` and `{prefix}.cwnd_cuts`.
    pub fn attach_metrics(&self, reg: &Registry, prefix: &str) {
        self.attach_metrics_named(reg, |n| format!("{prefix}.{n}"));
    }

    /// Like [`Sender::attach_metrics`] but with caller-controlled
    /// naming: `name` maps each counter's short name (`tracked`,
    /// `retransmits`, `acked`, `abandoned`, `cwnd_cuts`) to the full
    /// registry name. Multi-tenant exports use this to place Prometheus
    /// labels *after* the full metric name.
    pub fn attach_metrics_named(&self, reg: &Registry, mut name: impl FnMut(&str) -> String) {
        reg.register_counter(&name("tracked"), &self.tracked);
        reg.register_counter(&name("retransmits"), &self.retransmits);
        reg.register_counter(&name("acked"), &self.acked);
        reg.register_counter(&name("abandoned"), &self.abandoned);
        reg.register_counter(&name("cwnd_cuts"), &self.cwnd_cuts);
    }

    /// Snapshot of the counters (compat shim over the nctel cells).
    pub fn stats(&self) -> SenderStats {
        SenderStats {
            tracked: self.tracked.get(),
            retransmits: self.retransmits.get(),
            acked: self.acked.get(),
            abandoned: self.abandoned.get(),
            cwnd_cuts: self.cwnd_cuts.get(),
        }
    }

    /// Effective in-flight cap right now.
    fn cap(&self) -> usize {
        if self.cfg.filter_slots > 0 {
            self.cwnd.min(self.cfg.filter_slots)
        } else {
            self.cwnd
        }
    }

    /// Registers a window the application wants delivered. Returns
    /// `true` if the window may be transmitted immediately; `false`
    /// means it is queued until the congestion window opens (the caller
    /// must not send it yet — [`Sender::poll`] will release it).
    pub fn track(&mut self, kernel: u16, seq: u32, now: Time) -> bool {
        self.tracked.inc();
        self.last_now = now;
        let key = Key { kernel, seq };
        if self.flight.len() < self.cap() {
            self.flight.insert(
                key,
                InFlight {
                    deadline: now + self.cfg.rto,
                    rto: self.cfg.rto,
                    retries: 0,
                },
            );
            true
        } else {
            self.queue.push_back(key);
            false
        }
    }

    /// Number of windows currently in flight.
    pub fn in_flight(&self) -> usize {
        self.flight.len()
    }

    /// Number of windows waiting for the congestion window to open.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// The `(kernel, seq)` keys of every window currently in flight,
    /// sorted. This is the drain-set snapshot a hitless upgrade takes
    /// at switchover: windows listed here keep executing on the old
    /// kernel version until acked, everything else routes to the new
    /// one (the drain set of ncsched's `Upgrade`).
    pub fn in_flight_keys(&self) -> Vec<(u16, u32)> {
        let mut keys: Vec<(u16, u32)> = self.flight.keys().map(|k| (k.kernel, k.seq)).collect();
        keys.sort_unstable();
        keys
    }

    /// Whether every tracked window has been retired.
    pub fn idle(&self) -> bool {
        self.flight.is_empty() && self.queue.is_empty()
    }

    /// Current congestion window, for observability.
    pub fn cwnd(&self) -> usize {
        self.cwnd
    }

    /// Retransmissions already spent on an in-flight window (`None`
    /// when `(kernel, seq)` is not in flight). Lets the transmitting
    /// host stamp `WindowSent` events with the true attempt number.
    pub fn retries(&self, kernel: u16, seq: u32) -> Option<u32> {
        self.flight.get(&Key { kernel, seq }).map(|f| f.retries)
    }

    /// An ACK frame (or any response window) for `(kernel, seq)`
    /// arrived. Returns `true` if it retired an in-flight window.
    pub fn on_ack(&mut self, kernel: u16, seq: u32) -> bool {
        let retired = self.flight.remove(&Key { kernel, seq }).is_some();
        if retired {
            self.acked.inc();
            self.emit(self.last_now, kernel, seq, ScopeEvent::WindowAcked);
            // Additive increase: one extra window per cwnd of acks.
            self.acks_since_grow += 1;
            if self.acks_since_grow >= self.cwnd && self.cwnd < self.cfg.max_cwnd {
                self.cwnd += 1;
                self.acks_since_grow = 0;
                self.emit(
                    self.last_now,
                    kernel,
                    seq,
                    ScopeEvent::CwndChanged {
                        cwnd: self.cwnd as u32,
                    },
                );
            }
        }
        retired
    }

    /// A NACK for `(kernel, seq)` arrived: the next [`Sender::poll`]
    /// retransmits it immediately (and applies the usual loss cut).
    pub fn on_nack(&mut self, kernel: u16, seq: u32, now: Time) {
        self.last_now = now;
        if let Some(f) = self.flight.get_mut(&Key { kernel, seq }) {
            f.deadline = now; // due immediately
            self.emit(now, kernel, seq, ScopeEvent::NackReceived);
        }
    }

    /// Multiplicative decrease, attributed to the window that signalled
    /// the loss.
    fn cut(&mut self, key: Key) {
        self.cwnd = (self.cwnd / 2).max(1);
        self.acks_since_grow = 0;
        self.cwnd_cuts.inc();
        self.emit(
            self.last_now,
            key.kernel,
            key.seq,
            ScopeEvent::CwndChanged {
                cwnd: self.cwnd as u32,
            },
        );
    }

    /// Captures the sender's protocol state — everything that decides
    /// future behavior, in canonical (sorted) order so equal states
    /// compare and hash equal. Counters, scope sinks and config are
    /// deliberately excluded: they are observability, not semantics.
    pub fn save(&self) -> SenderState {
        let mut st = SenderState::default();
        self.save_into(&mut st);
        st
    }

    /// [`Sender::save`] into `st`'s buffers, which are reallocated only
    /// when they are too small.
    pub fn save_into(&self, st: &mut SenderState) {
        st.cwnd = self.cwnd;
        st.acks_since_grow = self.acks_since_grow;
        st.last_now = self.last_now;
        st.flight.clear();
        st.flight.extend(
            (self.flight.iter()).map(|(k, f)| (k.kernel, k.seq, f.deadline, f.rto, f.retries)),
        );
        st.flight.sort_unstable();
        st.queue.clear();
        st.queue
            .extend(self.queue.iter().map(|k| (k.kernel, k.seq)));
    }

    /// Restores protocol state captured by [`Sender::save`], leaving
    /// counters and attached sinks untouched (metrics stay monotonic
    /// even when the ncmc checker rewinds a schedule branch). The map
    /// and the queue keep their capacity.
    pub fn restore(&mut self, st: &SenderState) {
        self.cwnd = st.cwnd;
        self.acks_since_grow = st.acks_since_grow;
        self.last_now = st.last_now;
        self.flight.clear();
        self.flight.extend(
            (st.flight.iter()).map(|&(kernel, seq, deadline, rto, retries)| {
                let f = InFlight {
                    deadline,
                    rto,
                    retries,
                };
                (Key { kernel, seq }, f)
            }),
        );
        self.queue.clear();
        (self.queue).extend(st.queue.iter().map(|&(kernel, seq)| Key { kernel, seq }));
    }

    /// Advances the clock: expires RTOs (scheduling retransmits with
    /// doubled timeouts and an AIMD cut), abandons windows past
    /// `max_retries`, and admits queued windows into the freed capacity.
    ///
    /// Returns the `(kernel, seq)` pairs the caller must (re)transmit
    /// now, and the earliest next deadline to poll at (if any windows
    /// remain in flight).
    pub fn poll(&mut self, now: Time) -> (Vec<(u16, u32)>, Option<Time>) {
        self.last_now = now;
        let mut send = Vec::new();
        let mut expired: Vec<Key> = self
            .flight
            .iter()
            .filter(|(_, f)| f.deadline <= now)
            .map(|(k, _)| *k)
            .collect();
        expired.sort_by_key(|k| (k.kernel, k.seq));
        for key in expired {
            let f = self.flight.get_mut(&key).expect("still in flight");
            if f.retries >= self.cfg.max_retries {
                let retries = f.retries;
                self.flight.remove(&key);
                self.abandoned.inc();
                self.emit(
                    now,
                    key.kernel,
                    key.seq,
                    ScopeEvent::WindowAbandoned { retries },
                );
                continue;
            }
            f.retries += 1;
            f.rto = (f.rto * 2).min(self.cfg.max_rto);
            f.deadline = now + f.rto;
            let attempt = f.retries;
            self.retransmits.inc();
            self.emit(now, key.kernel, key.seq, ScopeEvent::RtoFired { attempt });
            self.cut(key);
            send.push((key.kernel, key.seq));
        }
        // Admit queued windows, oldest first, into whatever capacity is
        // open.
        while self.flight.len() < self.cap() {
            let Some(key) = self.queue.pop_front() else {
                break;
            };
            self.flight.insert(
                key,
                InFlight {
                    deadline: now + self.cfg.rto,
                    rto: self.cfg.rto,
                    retries: 0,
                },
            );
            send.push((key.kernel, key.seq));
        }
        let next = self.flight.values().map(|f| f.deadline).min();
        (send, next)
    }
}

/// A [`Sender`]'s protocol state, detached from its counters and sinks
/// (see [`Sender::save`]). `Clone + Ord`-friendly plain data so the
/// ncmc model checker can fork, hash and compare schedule branches.
#[derive(PartialEq, Eq, Debug, Default)]
pub struct SenderState {
    /// Congestion window.
    pub cwnd: usize,
    /// Additive-increase accumulator.
    pub acks_since_grow: usize,
    /// Timestamp of the most recent clocked call.
    pub last_now: Time,
    /// In-flight windows as `(kernel, seq, deadline, rto, retries)`,
    /// sorted.
    pub flight: Vec<(u16, u32, Time, Time, u32)>,
    /// cwnd-queued `(kernel, seq)` keys, FIFO order.
    pub queue: Vec<(u16, u32)>,
}

impl Clone for SenderState {
    fn clone(&self) -> Self {
        SenderState {
            cwnd: self.cwnd,
            acks_since_grow: self.acks_since_grow,
            last_now: self.last_now,
            flight: self.flight.clone(),
            queue: self.queue.clone(),
        }
    }

    /// Copies into `self`'s buffers, which are reallocated only when
    /// `source` holds more than they do.
    fn clone_from(&mut self, source: &Self) {
        self.cwnd = source.cwnd;
        self.acks_since_grow = source.acks_since_grow;
        self.last_now = source.last_now;
        self.flight.clone_from(&source.flight);
        self.queue.clone_from(&source.queue);
    }
}

/// A [`Receiver`]'s protocol state (see [`Receiver::save`]).
#[derive(PartialEq, Eq, Debug, Default)]
pub struct ReceiverState {
    /// Per-`(sender, kernel)` dedup state as
    /// `(sender, kernel, floor, sorted offsets above the floor)`,
    /// sorted by key.
    pub entries: Vec<(u16, u16, u32, Vec<u32>)>,
}

impl Clone for ReceiverState {
    fn clone(&self) -> Self {
        ReceiverState {
            entries: self.entries.clone(),
        }
    }

    /// Copies into `self`'s entries and their offset lists, cloning
    /// only the entries `self` has no slot for.
    fn clone_from(&mut self, source: &Self) {
        self.entries.truncate(source.entries.len());
        let (common, rest) = source.entries.split_at(self.entries.len());
        for (dst, src) in self.entries.iter_mut().zip(common) {
            (dst.0, dst.1, dst.2) = (src.0, src.1, src.2);
            dst.3.clone_from(&src.3);
        }
        self.entries.extend_from_slice(rest);
    }
}

/// Per-`(sender, kernel)` delivery state: a floor below which every
/// sequence number has been delivered, plus a bitmap for the out-of-
/// order region above it.
#[derive(Clone, Debug, Default)]
struct DeliveryState {
    /// All `seq < floor` are delivered.
    floor: u32,
    /// Delivered sequence numbers `>= floor`, as offsets from `floor`.
    above: Vec<u32>,
}

impl DeliveryState {
    fn seen(&self, seq: u32) -> bool {
        seq < self.floor || self.above.contains(&(seq - self.floor))
    }

    fn mark(&mut self, seq: u32) {
        if seq < self.floor {
            return;
        }
        let off = seq - self.floor;
        if !self.above.contains(&off) {
            self.above.push(off);
        }
        // Advance the floor over any now-contiguous prefix.
        while self.above.contains(&0) {
            self.above.retain(|&o| o != 0);
            for o in &mut self.above {
                *o -= 1;
            }
            self.floor += 1;
        }
    }
}

/// Point-in-time snapshot of a [`Receiver`]'s counters (which live on
/// the unified `nctel` registry; see [`Receiver::attach_metrics`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ReceiverStats {
    /// Windows admitted (first delivery).
    pub delivered: u64,
    /// Windows suppressed as duplicates.
    pub duplicates: u64,
}

/// Receiver half of NCP-R: duplicate suppression at the host edge.
#[derive(Debug, Default)]
pub struct Receiver {
    state: IdMap<(u16, u16), DeliveryState>,
    /// nctel counters (detached until [`Receiver::attach_metrics`]).
    delivered: Counter,
    duplicates: Counter,
    /// ncscope event sink plus this host's id (the suppressing node).
    scope: Option<(Scope, u16)>,
}

impl Receiver {
    /// A fresh receiver.
    pub fn new() -> Self {
        Receiver::default()
    }

    /// Attaches an ncscope event sink: host-edge duplicate suppressions
    /// are emitted as `DupSuppressed { at: node }`.
    pub fn attach_scope(&mut self, scope: &Scope, node: u16) {
        self.scope = Some((scope.clone(), node));
    }

    /// Registers this receiver's counters on `reg` under
    /// `{prefix}.delivered` and `{prefix}.duplicates`.
    pub fn attach_metrics(&self, reg: &Registry, prefix: &str) {
        self.attach_metrics_named(reg, |n| format!("{prefix}.{n}"));
    }

    /// Like [`Receiver::attach_metrics`] but with caller-controlled
    /// naming (see [`Sender::attach_metrics_named`]).
    pub fn attach_metrics_named(&self, reg: &Registry, mut name: impl FnMut(&str) -> String) {
        reg.register_counter(&name("delivered"), &self.delivered);
        reg.register_counter(&name("duplicates"), &self.duplicates);
    }

    /// Snapshot of the counters (compat shim over the nctel cells).
    pub fn stats(&self) -> ReceiverStats {
        ReceiverStats {
            delivered: self.delivered.get(),
            duplicates: self.duplicates.get(),
        }
    }

    /// Captures the receiver's dedup state in canonical (sorted) order;
    /// the counterpart of [`Sender::save`].
    pub fn save(&self) -> ReceiverState {
        let mut st = ReceiverState::default();
        self.save_into(&mut st);
        st
    }

    /// [`Receiver::save`] into `st`'s entries and their offset lists,
    /// which are reallocated only when they are too small.
    pub fn save_into(&self, st: &mut ReceiverState) {
        let entries = &mut st.entries;
        entries.resize_with(self.state.len(), Default::default);
        for (dst, (&(sender, kernel), d)) in entries.iter_mut().zip(&self.state) {
            (dst.0, dst.1, dst.2) = (sender, kernel, d.floor);
            dst.3.clone_from(&d.above);
            dst.3.sort_unstable();
        }
        entries.sort_unstable();
    }

    /// Restores dedup state captured by [`Receiver::save`]; counters
    /// and sinks are untouched, and the map keeps its capacity.
    pub fn restore(&mut self, st: &ReceiverState) {
        self.state.clear();
        self.state
            .extend(st.entries.iter().map(|(sender, kernel, floor, above)| {
                let d = DeliveryState {
                    floor: *floor,
                    above: above.clone(),
                };
                ((*sender, *kernel), d)
            }));
    }

    /// Records an arriving window. Returns `true` exactly once per
    /// `(sender, kernel, seq)` — the caller delivers on `true` and
    /// (re-)acknowledges but drops on `false`.
    pub fn admit(&mut self, sender: u16, kernel: u16, seq: u32) -> bool {
        self.admit_at(sender, kernel, seq, 0)
    }

    /// [`Receiver::admit`] with a timestamp for the duplicate-
    /// suppression event (clocked callers should prefer this so the
    /// ncscope timeline stays ordered).
    pub fn admit_at(&mut self, sender: u16, kernel: u16, seq: u32, now: Time) -> bool {
        let st = self.state.entry((sender, kernel)).or_default();
        if st.seen(seq) {
            self.duplicates.inc();
            if let Some((scope, node)) = &self.scope {
                scope.emit(
                    now,
                    *node,
                    WindowKey::new(sender, kernel, seq),
                    ScopeEvent::DupSuppressed { at: *node },
                );
            }
            false
        } else {
            st.mark(seq);
            self.delivered.inc();
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ReliableConfig {
        ReliableConfig {
            rto: 100,
            max_rto: 800,
            max_retries: 3,
            cwnd: 2,
            max_cwnd: 8,
            filter_slots: 0,
        }
    }

    #[test]
    fn ack_retires_and_grows_window() {
        let mut s = Sender::new(cfg());
        assert!(s.track(1, 0, 0));
        assert!(s.track(1, 1, 0));
        assert!(!s.track(1, 2, 0), "cwnd=2 queues the third");
        assert!(s.on_ack(1, 0));
        assert!(!s.on_ack(1, 0), "double ack is idempotent");
        let (send, _) = s.poll(10);
        assert_eq!(send, vec![(1, 2)], "freed capacity admits the queue");
        // Acking a full cwnd grows it by one.
        assert!(s.on_ack(1, 1));
        assert_eq!(s.cwnd(), 3);
    }

    #[test]
    fn rto_backoff_doubles_and_cuts() {
        let mut s = Sender::new(cfg());
        s.track(1, 0, 0);
        let (send, next) = s.poll(100);
        assert_eq!(send, vec![(1, 0)], "RTO fires at deadline");
        assert_eq!(next, Some(300), "backoff doubled: 100 + 200");
        assert_eq!(s.cwnd(), 1, "loss cut the window");
        assert_eq!(s.stats().retransmits, 1);
        let (send, next) = s.poll(300);
        assert_eq!(send, vec![(1, 0)]);
        assert_eq!(next, Some(700), "100*2*2 = 400 past now");
    }

    #[test]
    fn abandons_after_max_retries() {
        let mut s = Sender::new(cfg());
        s.track(1, 0, 0);
        let mut now = 0;
        for _ in 0..3 {
            now += 10_000; // past any deadline
            let (send, _) = s.poll(now);
            assert_eq!(send.len(), 1);
        }
        now += 10_000;
        let (send, next) = s.poll(now);
        assert!(send.is_empty(), "fourth expiry abandons");
        assert_eq!(next, None);
        assert_eq!(s.stats().abandoned, 1);
        assert!(s.idle());
    }

    #[test]
    fn nack_forces_immediate_retransmit() {
        let mut s = Sender::new(cfg());
        s.track(1, 7, 0);
        s.on_nack(1, 7, 50);
        let (send, _) = s.poll(50);
        assert_eq!(send, vec![(1, 7)]);
        assert_eq!(s.stats().cwnd_cuts, 1);
    }

    #[test]
    fn filter_slots_cap_in_flight() {
        let mut s = Sender::new(ReliableConfig {
            cwnd: 8,
            filter_slots: 2,
            ..cfg()
        });
        assert!(s.track(1, 0, 0));
        assert!(s.track(1, 1, 0));
        assert!(
            !s.track(1, 2, 0),
            "filter slots bound the flight below cwnd"
        );
        s.on_ack(1, 0);
        let (send, _) = s.poll(1);
        assert_eq!(send, vec![(1, 2)]);
    }

    #[test]
    fn sender_save_restore_replays_identical_timeline() {
        let mut s = Sender::new(cfg());
        s.track(1, 0, 0);
        s.track(1, 1, 5);
        s.track(2, 0, 7); // queued (cwnd = 2)
        let (_, next) = s.poll(100); // first RTO fires, backoff doubles
        let saved = s.save();
        assert_eq!(next, Some(105));

        // Timeline A, straight through.
        let mut a = Vec::new();
        let mut now = 100;
        for _ in 0..6 {
            now += 100;
            a.push(s.poll(now));
        }

        // Rewind and replay: bit-identical retransmit schedule.
        s.restore(&saved);
        assert_eq!(s.save(), saved, "restore/save must round-trip");
        let mut b = Vec::new();
        let mut now = 100;
        for _ in 0..6 {
            now += 100;
            b.push(s.poll(now));
        }
        assert_eq!(a, b);
    }

    #[test]
    fn queued_windows_are_released_in_track_order() {
        let mut s = Sender::new(ReliableConfig {
            rto: 1_000_000,
            cwnd: 4,
            max_cwnd: 4,
            ..cfg()
        });
        let mut released: Vec<(u16, u32)> = (0..1_000)
            .filter(|&seq| s.track(1, seq, 0))
            .map(|seq| (1, seq))
            .collect();
        assert_eq!((released.len(), s.queued()), (4, 996));
        let mut acked = 0;
        while acked < released.len() {
            let (kernel, seq) = released[acked];
            assert!(s.on_ack(kernel, seq));
            acked += 1;
            let saved = s.save();
            s.restore(&saved);
            let (send, _) = s.poll(acked as Time);
            released.extend(send);
        }
        assert!(s.idle());
        assert_eq!(released, (0..1_000).map(|seq| (1, seq)).collect::<Vec<_>>());
    }

    #[test]
    fn state_clone_from_equals_clone_across_lengths() {
        let mut s = Sender::new(cfg());
        let mut r = Receiver::new();
        let (mut senders, mut receivers) = (vec![s.save()], vec![r.save()]);
        for seq in [0, 1, 2, 5, 3] {
            s.track(1, seq, seq as Time);
            senders.push(s.save());
            r.admit(2, 1, seq);
            r.admit(seq as u16, 2, 0);
            receivers.push(r.save());
        }
        assert!(senders.iter().any(|st| !st.queue.is_empty()));
        assert!(receivers
            .iter()
            .any(|st| st.entries.iter().any(|e| !e.3.is_empty())));
        for from in &senders {
            for to in &senders {
                let mut out = to.clone();
                out.clone_from(from);
                assert_eq!(out, *from);
                let mut saved = to.clone();
                s.restore(from);
                s.save_into(&mut saved);
                assert_eq!(saved, *from, "save_into over another state");
            }
        }
        for from in &receivers {
            for to in &receivers {
                let mut out = to.clone();
                out.clone_from(from);
                assert_eq!(out, *from);
                let mut saved = to.clone();
                r.restore(from);
                r.save_into(&mut saved);
                assert_eq!(saved, *from, "save_into over another state");
            }
        }
    }

    #[test]
    fn receiver_save_restore_roundtrips() {
        let mut r = Receiver::new();
        for seq in [3, 0, 7] {
            r.admit(1, 1, seq);
        }
        r.admit(2, 5, 0);
        let saved = r.save();
        assert!(!r.admit(1, 1, 3));
        r.admit(1, 1, 1);
        assert_ne!(r.save(), saved);
        r.restore(&saved);
        assert_eq!(r.save(), saved);
        assert!(!r.admit(1, 1, 0), "restored floor still dedups");
        assert!(r.admit(1, 1, 1), "undelivered seq admitted after rewind");
    }

    #[test]
    fn receiver_suppresses_duplicates_in_any_order() {
        let mut r = Receiver::new();
        assert!(r.admit(1, 1, 1));
        assert!(r.admit(1, 1, 0));
        assert!(!r.admit(1, 1, 0), "below-floor duplicate");
        assert!(!r.admit(1, 1, 1), "bitmap duplicate");
        assert!(r.admit(1, 1, 2));
        assert!(r.admit(2, 1, 0), "other sender is independent");
        assert!(r.admit(1, 2, 0), "other kernel is independent");
        assert_eq!(r.stats().delivered, 5);
        assert_eq!(r.stats().duplicates, 2);
    }

    #[test]
    fn receiver_floor_advances_over_reordered_prefix() {
        let mut r = Receiver::new();
        for seq in [3, 0, 2, 1] {
            assert!(r.admit(1, 1, seq));
        }
        let st = &r.state[&(1, 1)];
        assert_eq!(st.floor, 4, "floor swallowed the whole prefix");
        assert!(st.above.is_empty());
    }
}
