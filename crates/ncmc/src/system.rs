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
//! * **Switch**: a [`pisa::Pipeline`]; its persistent registers are
//!   checkpointed with [`pisa::Pipeline::snapshot`]. At most one packet
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
use ncl_ir::hash::StableHasher;
use ncp::reliable::Time;
use ncp::{Receiver, ReceiverState, ReliableConfig, Sender, SenderState};
use pisa::{PartialPacket, Pipeline, PipelineSnapshot};

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
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Suspended {
    /// The copy being delivered.
    pub copy: DataCopy,
    /// Its pipeline position (PHV + next stage).
    pub packet: PartialPacket,
}

/// The full state of the composed system at one point of a schedule.
///
/// Plain data, cheap to clone; the checker forks it freely at every
/// branch point.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SysState {
    /// Switch register state.
    pub regs: PipelineSnapshot,
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

/// The composed system: pipeline + scenario + scratch protocol
/// machines. The pipeline and the scratch sender/receivers are working
/// storage — all semantic state lives in [`SysState`] and is restored
/// into whichever of them a step runs on.
pub struct System {
    pipeline: Pipeline,
    windows: Vec<WindowDef>,
    /// Distinct sending hosts, sorted; indexes `SysState::senders`.
    hosts: Vec<u16>,
    sender_cfg: ReliableConfig,
    scratch_senders: Vec<Sender>,
    scratch_receivers: Vec<Receiver>,
    bounds: Bounds,
    init_regs: PipelineSnapshot,
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
        let init_regs = pipeline.snapshot();
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
        let mut steps = Vec::new();
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
    pub fn exec(&mut self, st: &SysState, step: Step) -> SysState {
        let mut st = st.clone();
        // Only the three pipeline steps load the registers into the
        // pipeline and store them back; the rest keep the cloned ones.
        match step {
            Step::Deliver(id) => {
                let copy = self.take_copy(&mut st, id);
                self.pipeline.restore(&st.regs);
                let fwd = {
                    let begun = self.pipeline.begin(&self.windows[copy.win].packet);
                    begun.map(|p| self.pipeline.finish(p))
                };
                st.execs[copy.win] += 1;
                self.store_regs(&mut st);
                if let Some(out) = fwd {
                    self.route(&mut st, copy.win, out.fwd_code);
                }
            }
            Step::Split(id, stage) => {
                let copy = self.take_copy(&mut st, id);
                assert!(st.suspended.is_none(), "split while a packet is suspended");
                self.pipeline.restore(&st.regs);
                if let Some(mut p) = self.pipeline.begin(&self.windows[copy.win].packet) {
                    self.pipeline.advance(&mut p, stage as usize);
                    st.suspended = Some(Suspended { copy, packet: p });
                }
                st.execs[copy.win] += 1;
                st.splits_used += 1;
                self.store_regs(&mut st);
            }
            Step::Resume => {
                let s = st
                    .suspended
                    .take()
                    .expect("resume without suspended packet");
                self.pipeline.restore(&st.regs);
                let out = self.pipeline.finish(s.packet);
                self.store_regs(&mut st);
                self.route(&mut st, s.copy.win, out.fwd_code);
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
                st.receivers[h] = self.scratch_receivers[h].save();
                self.scratch_senders[h].restore(&st.senders[h]);
                self.scratch_senders[h].on_ack(w.kernel, w.seq);
                st.senders[h] = self.scratch_senders[h].save();
            }
            Step::DropData(id) => {
                self.take_copy(&mut st, id);
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
                    st.senders[h] = self.scratch_senders[h].save();
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
        st
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

    /// Ends a pipeline step: `st` takes the pipeline's registers, and
    /// is flagged if the step strictly decreased a watched cell (read
    /// in place from the registers `st` held going in).
    fn store_regs(&self, st: &mut SysState) {
        let after = self.pipeline.snapshot();
        let fell = |&i: &usize| {
            let (was, now) = (&st.regs.registers()[i], &after.registers()[i]);
            was.iter().zip(now).any(|(b, a)| a.bits() < b.bits())
        };
        st.regressed = st.regressed || self.watch_regs.iter().any(fell);
        st.regs = after;
    }

    /// The observable (application-visible) switch state: every cell of
    /// every non-synthetic register array, in configuration order.
    /// Convergence properties compare exactly this.
    pub fn observe(&self, st: &SysState) -> Vec<u64> {
        self.obs_regs
            .iter()
            .flat_map(|&i| st.regs.registers()[i].iter().map(|v| v.bits()))
            .collect()
    }

    /// Stable 128-bit hash of the *full* system state (switch registers
    /// including synthetic arrays, protocol machines, network contents,
    /// clock, budgets). Two states with equal hashes are treated as
    /// identical by the explorer's visited set (the DPOR commutation
    /// probe compares states with `==`).
    pub fn hash(&self, st: &SysState) -> u128 {
        let mut h = StableHasher::new();
        for arr in st.regs.registers() {
            h.write_u64(arr.len() as u64);
            for v in arr {
                h.write_u8(v.ty() as u8);
                h.write_u64(v.bits());
            }
        }
        for s in &st.senders {
            h.write_u64(s.cwnd as u64);
            h.write_u64(s.acks_since_grow as u64);
            h.write_u64(s.last_now);
            h.write_u64(s.flight.len() as u64);
            for &(k, q, d, r, n) in &s.flight {
                h.write_u32(k as u32);
                h.write_u32(q);
                h.write_u64(d);
                h.write_u64(r);
                h.write_u32(n);
            }
            h.write_u64(s.queue.len() as u64);
            for &(k, q) in &s.queue {
                h.write_u32(k as u32);
                h.write_u32(q);
            }
        }
        for r in &st.receivers {
            h.write_u64(r.entries.len() as u64);
            for (s, k, floor, above) in &r.entries {
                h.write_u32(*s as u32);
                h.write_u32(*k as u32);
                h.write_u32(*floor);
                h.write_u64(above.len() as u64);
                for &o in above {
                    h.write_u32(o);
                }
            }
        }
        h.write_u64(st.clock);
        h.write_u64(st.net.len() as u64);
        for c in &st.net {
            h.write_u32(c.id);
            h.write_u64(c.win as u64);
        }
        h.write_u64(st.resps.len() as u64);
        for r in &st.resps {
            h.write_u32(r.id);
            h.write_u64(r.win as u64);
            h.write_u32(r.host as u32);
        }
        match &st.suspended {
            None => h.write_u8(0),
            Some(s) => {
                h.write_u8(1);
                h.write_u32(s.copy.id);
                h.write_u64(s.copy.win as u64);
                h.write_u64(s.packet.next_stage() as u64);
                let phv = s.packet.phv();
                for i in 0..phv.len() {
                    h.write_u64(phv.get(pisa::FieldId(i as u16)).bits());
                }
            }
        }
        h.write_u32(st.next_copy);
        h.write_u32(st.next_resp);
        for &e in &st.execs {
            h.write_u32(e);
        }
        h.write_u32(st.splits_used);
        h.write_u32(st.drops_used);
        h.write_u8(st.regressed as u8);
        h.finish128()
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
