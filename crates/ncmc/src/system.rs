//! The composed system under check: one switch pipeline + per-host
//! NCP-R senders + per-host receivers + an unordered lossy network.
//!
//! The checker explores *schedules* — sequences of [`Step`]s — over this
//! system. All nondeterminism of the real deployment (loss, duplication,
//! reordering, stage-level interleaving, timer firings) is reified as
//! explicit steps, and everything else is deterministic: executing the
//! same schedule from the same initial state always produces the same
//! [`SysState`], bit for bit. That determinism is what makes visited-set
//! dedup, DPOR commutation probing, and corpus replay sound.
//!
//! ## State model
//!
//! * **Switch**: a [`pisa::Pipeline`]; each state holds its own
//!   register file, swapped into the pipeline for the length of a
//!   pipeline step ([`pisa::Pipeline::swap_registers`]). At most one packet
//!   may be suspended mid-pipeline ([`Step::Split`]) at a time — stages
//!   stay atomic, matching the RMT guarantee.
//! * **Hosts**: one [`ncp::Sender`] per distinct sending host and one
//!   [`ncp::Receiver`] per host (receiver-side duplicate suppression of
//!   responses). Sender/receiver state is captured with their
//!   `save`/`restore` pairs, so the checker never reimplements protocol
//!   logic — it steps the production code.
//! * **Network**: a multiset of data copies and response copies with
//!   deterministically assigned ids. Delivery order is the scheduler's
//!   choice (reordering), copies can be dropped (loss), and RTO ticks
//!   mint new copies (duplication).
//!
//! Responses are modeled abstractly: delivering a window whose kernel
//! emits (`_pass`/`_reflect`/`_pass-to`) produces one response copy for
//! the origin host; `_bcast` fans out one per host; `_drop` produces
//! none (the sender eventually retransmits or abandons). Delivering a
//! response acks the corresponding `(kernel, seq)` at the host's sender
//! and runs the receiver's admit (dedup) path.

use crate::schedule::{Schedule, Step};
use c3::RegArray;
use ncp::reliable::Time;
use ncp::{Receiver, ReceiverState, ReliableConfig, Sender, SenderState};
use pisa::{PartialPacket, Pipeline};

/// One application window the scenario injects: the packet bytes plus
/// the transport identity NCP-R tracks it under.
#[derive(Clone, Debug)]
pub struct WindowDef {
    /// Kernel name, for diagnostics.
    pub name: String,
    /// Kernel id (the `(kernel, seq)` ack key).
    pub kernel: u16,
    /// Sending host id.
    pub sender: u16,
    /// Window sequence number.
    pub seq: u32,
    /// Fully encoded packet bytes (what the wire would carry).
    pub packet: Vec<u8>,
}

/// Exploration bounds. Every bound is part of any certificate the
/// checker emits: absence is only proven *within* these.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Bounds {
    /// RTO retransmissions per window (total copies per window is
    /// `1 + max_retries`).
    pub max_retries: u32,
    /// Stage-split suspensions across the whole schedule.
    pub max_splits: u32,
    /// Dropped copies (data + response) across the whole schedule.
    pub max_drops: u32,
    /// Visited-state ceiling; exceeding it makes the run inconclusive
    /// rather than silently incomplete.
    pub max_states: usize,
}

impl Default for Bounds {
    fn default() -> Self {
        Bounds {
            max_retries: 1,
            max_splits: 1,
            max_drops: 1,
            max_states: 200_000,
        }
    }
}

/// Which fault classes a property's schedule domain enables. Properties
/// differ: replay safety quantifies over duplication + loss, RMW
/// atomicity over stage splits, aliasing over pure reorderings.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Domain {
    /// Enable RTO ticks (duplication source) and response-loss-induced
    /// retransmission.
    pub dups: bool,
    /// Enable stage-split suspensions.
    pub splits: bool,
    /// Enable copy drops.
    pub drops: bool,
}

impl Domain {
    /// Pure reorderings only.
    pub const ORDER_ONLY: Domain = Domain {
        dups: false,
        splits: false,
        drops: false,
    };
    /// Duplication + loss (replay-safety domain).
    pub const DUP_DROP: Domain = Domain {
        dups: true,
        splits: false,
        drops: true,
    };
    /// Stage splits only (RMW-atomicity domain).
    pub const SPLIT_ONLY: Domain = Domain {
        dups: false,
        splits: true,
        drops: false,
    };
    /// Everything (whole-program convergence domain).
    pub const FULL: Domain = Domain {
        dups: true,
        splits: true,
        drops: true,
    };
}

/// A data copy in flight towards the switch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DataCopy {
    /// Deterministic copy id (`c<id>` in schedules).
    pub id: u32,
    /// Index into the scenario's window list.
    pub win: usize,
}

/// A response copy in flight towards a host.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RespCopy {
    /// Deterministic response id (`r<id>` in schedules).
    pub id: u32,
    /// The delivered window this response answers (acks its
    /// `(kernel, seq)`).
    pub win: usize,
    /// Destination host.
    pub host: u16,
}

/// A packet suspended mid-pipeline by [`Step::Split`].
#[derive(PartialEq, Eq, Debug)]
pub struct Suspended {
    /// The copy being delivered.
    pub copy: DataCopy,
    /// Its pipeline position (PHV + next stage).
    pub packet: PartialPacket,
}

impl Clone for Suspended {
    fn clone(&self) -> Self {
        Suspended {
            copy: self.copy,
            packet: self.packet.clone(),
        }
    }

    /// Keeps `self`'s PHV buffer.
    fn clone_from(&mut self, source: &Self) {
        self.copy = source.copy;
        self.packet.clone_from(&source.packet);
    }
}

/// The full state of the composed system at one point of a schedule.
///
/// Plain data; the checker forks it freely at every branch point. Its
/// `clone_from` copies into the target's buffers (registers, protocol
/// machines, network, suspended PHV), reallocating only a buffer too
/// small for what it receives: that is how [`System::exec_into`]
/// recycles a spent state.
#[derive(PartialEq, Eq, Debug)]
pub struct SysState {
    /// Switch register state, one array per pipeline register array.
    pub regs: Vec<RegArray>,
    /// Per-host sender protocol state (one slot per scenario host).
    pub senders: Vec<SenderState>,
    /// Per-host receiver dedup state (one slot per scenario host).
    pub receivers: Vec<ReceiverState>,
    /// The logical clock.
    pub clock: Time,
    /// Data copies in flight, ordered by id.
    pub net: Vec<DataCopy>,
    /// Response copies in flight, ordered by id.
    pub resps: Vec<RespCopy>,
    /// At most one packet suspended mid-pipeline.
    pub suspended: Option<Suspended>,
    /// Next data-copy id to mint.
    pub next_copy: u32,
    /// Next response id to mint.
    pub next_resp: u32,
    /// Pipeline executions per window (completeness: every window must
    /// reach the switch at least once for a terminal state to count).
    pub execs: Vec<u32>,
    /// Splits spent.
    pub splits_used: u32,
    /// Drops spent.
    pub drops_used: u32,
    /// Set as soon as any watched register cell strictly decreases
    /// across a pipeline execution (the `unguarded-overflow` property).
    pub regressed: bool,
}

impl Clone for SysState {
    fn clone(&self) -> Self {
        SysState {
            regs: self.regs.clone(),
            senders: self.senders.clone(),
            receivers: self.receivers.clone(),
            clock: self.clock,
            net: self.net.clone(),
            resps: self.resps.clone(),
            suspended: self.suspended.clone(),
            next_copy: self.next_copy,
            next_resp: self.next_resp,
            execs: self.execs.clone(),
            splits_used: self.splits_used,
            drops_used: self.drops_used,
            regressed: self.regressed,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        // Destructured, so a new field cannot be left out.
        let SysState {
            regs,
            senders,
            receivers,
            clock,
            net,
            resps,
            suspended,
            next_copy,
            next_resp,
            execs,
            splits_used,
            drops_used,
            regressed,
        } = source;
        self.regs.clone_from(regs);
        self.senders.clone_from(senders);
        self.receivers.clone_from(receivers);
        self.clock = *clock;
        self.net.clone_from(net);
        self.resps.clone_from(resps);
        self.suspended.clone_from(suspended);
        self.next_copy = *next_copy;
        self.next_resp = *next_resp;
        self.execs.clone_from(execs);
        self.splits_used = *splits_used;
        self.drops_used = *drops_used;
        self.regressed = *regressed;
    }
}

/// The composed system: pipeline + scenario + scratch protocol
/// machines. The pipeline and the scratch sender/receivers are working
/// storage — all semantic state lives in [`SysState`] and is swapped or
/// restored into whichever of them a step runs on.
pub struct System {
    pipeline: Pipeline,
    windows: Vec<WindowDef>,
    /// Distinct sending hosts, sorted; indexes `SysState::senders`.
    hosts: Vec<u16>,
    sender_cfg: ReliableConfig,
    scratch_senders: Vec<Sender>,
    scratch_receivers: Vec<Receiver>,
    bounds: Bounds,
    init_regs: Vec<RegArray>,
    /// Register arrays included in the observable state (application
    /// arrays; synthetic `__nclr_*` replay-filter arrays excluded).
    obs_regs: Vec<usize>,
    /// Register arrays watched for monotonic regression.
    watch_regs: Vec<usize>,
    stage_count: usize,
}

impl System {
    /// Builds a system over a loaded pipeline and a window scenario.
    ///
    /// The pipeline's *current* register contents become the initial
    /// state — write control variables (e.g. `nworkers`) before calling
    /// this. Observable state is every register array whose name does
    /// not start with `__nclr_` (the compiler's synthetic replay-filter
    /// arrays are protocol bookkeeping, not application state — they
    /// legitimately differ between a duplicated and a clean schedule).
    pub fn new(pipeline: Pipeline, windows: Vec<WindowDef>, bounds: Bounds) -> System {
        let mut hosts: Vec<u16> = windows.iter().map(|w| w.sender).collect();
        hosts.sort_unstable();
        hosts.dedup();
        let cfg = ReliableConfig {
            rto: 1_000,
            max_rto: 64_000,
            max_retries: bounds.max_retries,
            // Large enough that no scenario window ever queues: cwnd
            // dynamics are real code but not what these properties
            // quantify over.
            cwnd: 64,
            max_cwnd: 64,
            filter_slots: 0,
        };
        let scratch_senders = hosts.iter().map(|_| Sender::new(cfg)).collect();
        let scratch_receivers = hosts.iter().map(|_| Receiver::new()).collect();
        let obs_regs = pipeline
            .config()
            .registers
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.name.starts_with("__nclr_"))
            .map(|(i, _)| i)
            .collect();
        let init_regs = pipeline.registers().to_vec();
        let stage_count = pipeline.stage_count();
        System {
            pipeline,
            windows,
            hosts,
            sender_cfg: cfg,
            scratch_senders,
            scratch_receivers,
            bounds,
            init_regs,
            obs_regs,
            watch_regs: Vec::new(),
            stage_count,
        }
    }

    /// Restricts the regression watch to the register arrays with
    /// exactly the given names. These are the pipeline's physical
    /// names: a source array the compiler split into lane banks is
    /// watched by naming its banks.
    pub fn watch(&mut self, arrays: &[String]) {
        self.watch_regs = self
            .pipeline
            .config()
            .registers
            .iter()
            .enumerate()
            .filter(|(_, r)| arrays.contains(&r.name))
            .map(|(i, _)| i)
            .collect();
    }

    /// The scenario's windows.
    pub fn windows(&self) -> &[WindowDef] {
        &self.windows
    }

    /// The exploration bounds.
    pub fn bounds(&self) -> Bounds {
        self.bounds
    }

    /// Number of register arrays currently under regression watch.
    pub fn watched(&self) -> usize {
        self.watch_regs.len()
    }

    /// The initial state: every window tracked at its sender (at
    /// distinct logical times, so RTO deadlines — and therefore
    /// retransmission schedules — are distinct) and one data copy per
    /// window in the network. Copy `c<i>` is window `i`'s first
    /// transmission.
    pub fn initial(&mut self) -> SysState {
        for s in &mut self.scratch_senders {
            *s = Sender::new(self.sender_cfg);
        }
        for r in &mut self.scratch_receivers {
            *r = Receiver::new();
        }
        let mut net = Vec::new();
        for (i, w) in self.windows.iter().enumerate() {
            let h = self.host_index(w.sender);
            let admitted = self.scratch_senders[h].track(w.kernel, w.seq, i as Time);
            debug_assert!(admitted, "scenario window queued (cwnd too small)");
            net.push(DataCopy {
                id: i as u32,
                win: i,
            });
        }
        SysState {
            regs: self.init_regs.clone(),
            senders: self.scratch_senders.iter().map(|s| s.save()).collect(),
            receivers: self.scratch_receivers.iter().map(|r| r.save()).collect(),
            clock: self.windows.len() as Time,
            next_copy: self.windows.len() as u32,
            next_resp: 0,
            execs: vec![0; self.windows.len()],
            net,
            resps: Vec::new(),
            suspended: None,
            splits_used: 0,
            drops_used: 0,
            regressed: false,
        }
    }

    fn host_index(&self, host: u16) -> usize {
        self.hosts
            .binary_search(&host)
            .expect("window sender not in host set")
    }

    /// The steps enabled in `st` under `domain`, in canonical order
    /// (sorted by [`Step`]'s derived `Ord`).
    pub fn enabled(&self, st: &SysState, domain: Domain) -> Vec<Step> {
        // Sized up front (an upper bound): one allocation, not a growth
        // chain.
        let per_copy = 2 + if domain.splits { self.stage_count } else { 0 };
        let mut steps = Vec::with_capacity(per_copy * st.net.len() + 2 * st.resps.len() + 2);
        for c in &st.net {
            steps.push(Step::Deliver(c.id));
        }
        if domain.splits && st.suspended.is_none() && st.splits_used < self.bounds.max_splits {
            for c in &st.net {
                for k in 1..self.stage_count {
                    steps.push(Step::Split(c.id, k as u32));
                }
            }
        }
        if st.suspended.is_some() {
            steps.push(Step::Resume);
        }
        for r in &st.resps {
            steps.push(Step::DeliverResp(r.id));
        }
        if domain.drops && st.drops_used < self.bounds.max_drops {
            for c in &st.net {
                steps.push(Step::DropData(c.id));
            }
            for r in &st.resps {
                steps.push(Step::DropResp(r.id));
            }
        }
        if domain.dups && st.senders.iter().any(|s| !s.flight.is_empty()) {
            steps.push(Step::Tick);
        }
        steps.sort_unstable();
        steps
    }

    /// Whether two steps, both enabled in `st`, commute there, when
    /// their kinds decide it; `None` means "probe it". Symmetric.
    ///
    /// Pipeline steps touch the registers, `net`, `execs`, `suspended`,
    /// `splits_used` and append responses; a response delivery touches
    /// one host's sender and receiver; a drop removes one copy and
    /// spends the shared drop budget; `Tick` reads sender flights and
    /// appends data copies. Steps whose footprints are disjoint commute,
    /// unless one removes the copy the other needs or spends the budget
    /// the other needs. Two pipeline steps, a response delivery against
    /// `Tick` (an ack moves the next deadline), and two responses to one
    /// host are left to the probe.
    pub(crate) fn commutes(&self, st: &SysState, x: Step, y: Step) -> Option<bool> {
        use Step::*;
        let (x, y) = if x < y { (x, y) } else { (y, x) };
        let host = |r: u32| st.resps.iter().find(|c| c.id == r).map(|c| c.host);
        match (x, y) {
            (DropData(_) | DropResp(_), DropData(_) | DropResp(_)) => {
                Some(st.drops_used + 2 <= self.bounds.max_drops)
            }
            (Split(..), Split(..)) => Some(false),
            (Deliver(_) | Split(..) | Resume, DeliverResp(_) | DropResp(_) | Tick) => Some(true),
            (Deliver(c) | Split(c, _), DropData(d)) => Some(c != d),
            (Resume | DeliverResp(_), DropData(_)) | (DropData(_) | DropResp(_), Tick) => {
                Some(true)
            }
            (DeliverResp(a), DropResp(b)) => Some(a != b),
            (DeliverResp(a), DeliverResp(b)) => (host(a) != host(b)).then_some(true),
            _ => None,
        }
    }

    /// Whether `st` is terminal under `domain` (no step enabled).
    pub fn terminal(&self, st: &SysState, domain: Domain) -> bool {
        self.enabled(st, domain).is_empty()
    }

    /// Whether every scenario window executed at the switch at least
    /// once (incomplete terminals — e.g. a window dropped and then
    /// abandoned — are vacuous for convergence properties).
    pub fn complete(&self, st: &SysState) -> bool {
        st.execs.iter().all(|&e| e > 0)
    }

    /// Executes one step, returning the successor state.
    ///
    /// # Panics
    ///
    /// If the step is not enabled in `st`: steps must come from
    /// [`System::enabled`]. A schedule read from a file is checked step
    /// by step in [`crate::replay_violates`] instead.
    pub fn exec(&mut self, before: &SysState, step: Step) -> SysState {
        let mut st = before.clone();
        self.step(before, step, &mut st);
        st
    }

    /// [`System::exec`], writing the successor into `out`: it starts
    /// as `out.clone_from(before)`, so a spent state's buffers hold the
    /// new one and the step allocates only what it adds. The result is
    /// a whole, independent state, equal to what `exec` returns.
    ///
    /// # Panics
    ///
    /// As [`System::exec`].
    pub fn exec_into(&mut self, before: &SysState, step: Step, out: &mut SysState) {
        out.clone_from(before);
        self.step(before, step, out);
    }

    /// Applies `step` to `st`, a copy of `before`.
    fn step(&mut self, before: &SysState, step: Step, st: &mut SysState) {
        // Only the three pipeline steps swap the copied registers into
        // the pipeline and back out; the rest leave them alone.
        match step {
            Step::Deliver(id) => {
                let copy = self.take_copy(st, id);
                let packet = &self.windows[copy.win].packet;
                let fwd = on_pipeline(&mut self.pipeline, &mut st.regs, |pipe| {
                    pipe.begin(packet).map(|p| pipe.finish(p))
                });
                st.execs[copy.win] += 1;
                self.note_regression(before, st);
                if let Some(out) = fwd {
                    self.route(st, copy.win, out.fwd_code);
                }
            }
            Step::Split(id, stage) => {
                let copy = self.take_copy(st, id);
                assert!(st.suspended.is_none(), "split while a packet is suspended");
                let packet = &self.windows[copy.win].packet;
                let begun = on_pipeline(&mut self.pipeline, &mut st.regs, |pipe| {
                    let mut p = pipe.begin(packet)?;
                    pipe.advance(&mut p, stage as usize);
                    Some(p)
                });
                st.suspended = begun.map(|packet| Suspended { copy, packet });
                st.execs[copy.win] += 1;
                st.splits_used += 1;
                self.note_regression(before, st);
            }
            Step::Resume => {
                let s = st
                    .suspended
                    .take()
                    .expect("resume without suspended packet");
                let out = on_pipeline(&mut self.pipeline, &mut st.regs, |pipe| {
                    pipe.finish(s.packet)
                });
                self.note_regression(before, st);
                self.route(st, s.copy.win, out.fwd_code);
            }
            Step::DeliverResp(id) => {
                let pos = st
                    .resps
                    .iter()
                    .position(|r| r.id == id)
                    .expect("response not in flight");
                let resp = st.resps.remove(pos);
                let w = &self.windows[resp.win];
                let h = self.host_index(resp.host);
                self.scratch_receivers[h].restore(&st.receivers[h]);
                self.scratch_receivers[h].admit(w.sender, w.kernel, w.seq);
                self.scratch_receivers[h].save_into(&mut st.receivers[h]);
                self.scratch_senders[h].restore(&st.senders[h]);
                self.scratch_senders[h].on_ack(w.kernel, w.seq);
                self.scratch_senders[h].save_into(&mut st.senders[h]);
            }
            Step::DropData(id) => {
                self.take_copy(st, id);
                st.drops_used += 1;
            }
            Step::DropResp(id) => {
                let pos = st
                    .resps
                    .iter()
                    .position(|r| r.id == id)
                    .expect("response not in flight");
                st.resps.remove(pos);
                st.drops_used += 1;
            }
            Step::Tick => {
                let now = st
                    .senders
                    .iter()
                    .filter_map(|s| s.flight.iter().map(|f| f.2).min())
                    .min()
                    .expect("tick with no window in flight")
                    .max(st.clock);
                for h in 0..self.hosts.len() {
                    self.scratch_senders[h].restore(&st.senders[h]);
                    let (send, _) = self.scratch_senders[h].poll(now);
                    self.scratch_senders[h].save_into(&mut st.senders[h]);
                    for (kernel, seq) in send {
                        let win = self
                            .windows
                            .iter()
                            .position(|w| {
                                w.sender == self.hosts[h] && w.kernel == kernel && w.seq == seq
                            })
                            .expect("retransmission of unknown window");
                        st.net.push(DataCopy {
                            id: st.next_copy,
                            win,
                        });
                        st.next_copy += 1;
                    }
                }
                st.clock = now;
            }
        }
    }

    /// Executes a whole schedule from a state.
    pub fn exec_all(&mut self, st: &SysState, schedule: &Schedule) -> SysState {
        let mut cur = st.clone();
        for &step in &schedule.steps {
            cur = self.exec(&cur, step);
        }
        cur
    }

    fn take_copy(&self, st: &mut SysState, id: u32) -> DataCopy {
        let pos = st
            .net
            .iter()
            .position(|c| c.id == id)
            .expect("data copy not in flight");
        st.net.remove(pos)
    }

    fn route(&self, st: &mut SysState, win: usize, fwd_code: u8) {
        // Forward::code(): 0 Pass, 1 Reflect, 2 Bcast, 3 Drop, 4 PassTo.
        let hosts: &[u16] = match fwd_code {
            3 => &[],
            2 => self.hosts.as_slice(),
            _ => std::slice::from_ref(&self.windows[win].sender),
        };
        for &host in hosts {
            st.resps.push(RespCopy {
                id: st.next_resp,
                win,
                host,
            });
            st.next_resp += 1;
        }
    }

    /// Ends a pipeline step: `after` is flagged if the step strictly
    /// decreased a watched cell of the registers `before` held.
    fn note_regression(&self, before: &SysState, after: &mut SysState) {
        let fell = |&i: &usize| {
            let (was, now) = (&before.regs[i], &after.regs[i]);
            was.iter().zip(now.iter()).any(|(b, a)| a.bits() < b.bits())
        };
        after.regressed = after.regressed || self.watch_regs.iter().any(fell);
    }

    /// The observable (application-visible) switch state: every cell of
    /// every non-synthetic register array, in configuration order.
    /// Convergence properties compare exactly this.
    pub fn observe(&self, st: &SysState) -> Vec<u64> {
        self.obs_regs
            .iter()
            .flat_map(|&i| st.regs[i].iter().map(|v| v.bits()))
            .collect()
    }

    /// Stable 128-bit hash of the *full* system state (switch registers
    /// including synthetic arrays, protocol machines, network contents,
    /// clock, budgets), one `WordHasher` word per field and eight
    /// register bytes per word. Two states with equal hashes are treated
    /// as identical by the explorer's visited set (the DPOR commutation
    /// probe compares states with `==`).
    pub fn hash(&self, st: &SysState) -> u128 {
        let mut h = WordHasher::new();
        for arr in &st.regs {
            arr.digest(|w| h.word(w));
        }
        for s in &st.senders {
            h.word(s.cwnd as u64);
            h.word(s.acks_since_grow as u64);
            h.word(s.last_now);
            h.word(s.flight.len() as u64);
            for &(k, q, d, r, n) in &s.flight {
                h.words([k as u64, q as u64, d, r, n as u64]);
            }
            h.word(s.queue.len() as u64);
            for &(k, q) in &s.queue {
                h.words([k as u64, q as u64]);
            }
        }
        for r in &st.receivers {
            h.word(r.entries.len() as u64);
            for (s, k, floor, above) in &r.entries {
                h.words([*s as u64, *k as u64, *floor as u64, above.len() as u64]);
                for &o in above {
                    h.word(o as u64);
                }
            }
        }
        h.word(st.clock);
        h.word(st.net.len() as u64);
        for c in &st.net {
            h.words([c.id as u64, c.win as u64]);
        }
        h.word(st.resps.len() as u64);
        for r in &st.resps {
            h.words([r.id as u64, r.win as u64, r.host as u64]);
        }
        match &st.suspended {
            None => h.word(0),
            Some(s) => {
                let (id, win) = (s.copy.id as u64, s.copy.win as u64);
                h.words([1, id, win, s.packet.next_stage() as u64]);
                let phv = s.packet.phv();
                for i in 0..phv.len() {
                    h.word(phv.get(pisa::FieldId(i as u16)).bits());
                }
            }
        }
        h.words([st.next_copy as u64, st.next_resp as u64]);
        for &e in &st.execs {
            h.word(e as u64);
        }
        h.words([
            st.splits_used as u64,
            st.drops_used as u64,
            st.regressed as u64,
        ]);
        h.finish()
    }

    /// The observable states reachable by loss-free, duplication-free,
    /// atomic serial executions — one per permutation of the scenario
    /// windows. This is the reference set convergence properties check
    /// membership in. The first element corresponds to the canonical
    /// (scenario) order.
    pub fn serial_references(&mut self) -> Vec<Vec<u64>> {
        let n = self.windows.len();
        let mut order: Vec<usize> = (0..n).collect();
        let mut refs = Vec::new();
        permute(&mut order, 0, &mut |perm| {
            let mut st = self.initial();
            for &w in perm {
                st = self.exec(&st, Step::Deliver(w as u32));
            }
            refs.push(self.observe(&st));
        });
        refs
    }
}

/// Runs `f` on `pipe` with `regs` swapped in as its register file, and
/// swaps the file back out into `regs` afterwards.
fn on_pipeline<R>(
    pipe: &mut Pipeline,
    regs: &mut Vec<RegArray>,
    f: impl FnOnce(&mut Pipeline) -> R,
) -> R {
    assert!(
        pipe.swap_registers(regs),
        "register state from another pipeline"
    );
    let out = f(pipe);
    assert!(
        pipe.swap_registers(regs),
        "the pipeline's register shape is fixed"
    );
    out
}

/// The visited-set key's hasher: two 64-bit streams, each fed one word
/// per state field. A word is xored in, then multiplied by an odd
/// constant and rotated, so the rotate brings the high bits a multiply
/// produces back down for the next one to spread. Every step is a
/// bijection of a stream's state, so two inputs of one shape that
/// differ in a single word never collide. `ncl_ir::hash::StableHasher`
/// (byte-wise FNV) stays the hash of what is written to disk.
struct WordHasher {
    lo: u64,
    hi: u64,
}

impl WordHasher {
    fn new() -> Self {
        // Digits of pi: any fixed, unequal bases would do.
        WordHasher {
            lo: 0x243f_6a88_85a3_08d3,
            hi: 0x1319_8a2e_0370_7344,
        }
    }

    #[inline]
    fn word(&mut self, w: u64) {
        self.lo = (self.lo ^ w)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(29);
        self.hi = (self.hi ^ w)
            .wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
            .rotate_left(37);
    }

    #[inline]
    fn words<const N: usize>(&mut self, ws: [u64; N]) {
        for w in ws {
            self.word(w);
        }
    }

    fn finish(&self) -> u128 {
        (self.hi as u128) << 64 | self.lo as u128
    }
}

fn permute(xs: &mut [usize], k: usize, visit: &mut impl FnMut(&[usize])) {
    if k == xs.len() {
        visit(xs);
        return;
    }
    for i in k..xs.len() {
        xs.swap(k, i);
        permute(xs, k + 1, visit);
        xs.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{system, KernelShape};
    use c3::Value;

    /// Golden values: the visited set and the shrinking BFS key on this
    /// function, so a change here must be deliberate.
    #[test]
    fn word_hasher_is_pinned() {
        let hash = |ws: &[u64]| {
            let mut h = WordHasher::new();
            ws.iter().for_each(|&w| h.word(w));
            h.finish()
        };
        assert_eq!(hash(&[]), 0x1319_8a2e_0370_7344_243f_6a88_85a3_08d3);
        assert_eq!(hash(&[0]), 0x3a5f_bf96_98d1_67c3_4514_7da9_fefc_4f7d);
        assert_eq!(
            hash(&[1, 1 << 63]),
            0xf783_231b_4a93_e71b_b287_d9b7_ce75_d64d
        );
    }

    /// `clone_from` and `exec_into` over every pair of states the full
    /// domain reaches from a two-sender scenario: registers, sender and
    /// receiver lengths, network contents and `suspended` going
    /// `Some` ↔ `None` all change between them.
    #[test]
    fn recycled_states_equal_fresh_ones() {
        let windows = crate::testutil::two_sender_windows(&[10, 20]);
        let pipe = crate::testutil::rmw_pipeline(KernelShape::Accumulate);
        let mut sys = System::new(pipe, windows, Bounds::default());
        let mut states = vec![sys.initial()];
        let mut i = 0;
        while i < states.len() && states.len() < 60 {
            for step in sys.enabled(&states[i].clone(), Domain::FULL) {
                let next = sys.exec(&states[i].clone(), step);
                states.push(next);
            }
            i += 1;
        }
        assert!(states.iter().any(|s| s.suspended.is_some()));
        assert!(states.iter().any(|s| !s.resps.is_empty()));
        for from in &states {
            for to in &states {
                let mut out = to.clone();
                out.clone_from(from);
                assert_eq!(out, *from);
            }
        }
        for (k, st) in states.iter().enumerate().take(12) {
            for step in sys.enabled(st, Domain::FULL) {
                let fresh = sys.exec(st, step);
                let mut out = states[(k * 7 + 3) % states.len()].clone();
                sys.exec_into(st, step, &mut out);
                assert_eq!(out, fresh, "{step:?}");
            }
        }
    }

    /// States one field apart hash apart, whichever field it is and
    /// wherever the difference sits in the field's word.
    #[test]
    fn states_one_word_apart_hash_apart() {
        let mut sys = system(KernelShape::Accumulate, &[10, 20]);
        let base = sys.initial();
        assert!(!base.senders[0].flight.is_empty());
        let variants: [fn(&mut SysState); 6] = [
            |st| st.regs[1].set(0, Value::u32(1)),
            |st| st.senders[0].flight[0].2 += 1,
            |st| st.net[1].id += 1,
            |st| st.clock ^= 1,
            |st| st.clock ^= 1 << 63,
            |st| st.clock ^= 1 << 32,
        ];
        let mut hashes = vec![sys.hash(&base)];
        for change in variants {
            let mut st = base.clone();
            change(&mut st);
            hashes.push(sys.hash(&st));
        }
        for (i, h) in hashes.iter().enumerate() {
            for (j, other) in hashes.iter().enumerate().skip(i + 1) {
                assert_ne!(h, other, "variants {i} and {j} collide");
            }
        }
    }
}
