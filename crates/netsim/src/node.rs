//! Node types: the host-application trait, the switch engine contract
//! ([`FastDatapath`]) and the switch configuration.
//!
//! A computing switch holds exactly one engine in [`SwitchCfg::engine`]:
//! the modeled PISA pipeline (`pisa::Pipeline` implements
//! [`FastDatapath`] here), a compiled software switch, or a tenant mux
//! over either kind. The simulator's NCP handling (Fig. 3b) sees only the
//! trait, so it never asks which engine runs.

use crate::event::Time;
use crate::sim::Packet;
use c3::{HostId, IdMap, NodeId, SwitchId, Value};
use std::any::Any;
use std::collections::HashMap;

/// An out-of-band control-plane operation a host can request against a
/// switch pipeline (the paper's "transparent control-plane interaction",
/// §3.2 — e.g. `ncl::ctrl_wr` or NetCache-style map management).
#[derive(Clone, Debug)]
pub enum CtrlOp {
    /// Install a table entry.
    TableInsert {
        /// Target table.
        table: String,
        /// The entry.
        entry: pisa::Entry,
    },
    /// Remove entries matching the patterns.
    TableRemove {
        /// Target table.
        table: String,
        /// Patterns to remove.
        patterns: Vec<pisa::MatchPattern>,
    },
    /// Write a register element (control variables).
    RegWrite {
        /// Register name.
        name: String,
        /// Element index.
        index: usize,
        /// New value.
        value: Value,
    },
}

/// Context handed to host applications: send packets, arm timers, read
/// the clock. Sends are routed by the network's shortest-path tables,
/// on simulated links or over UDP sockets alike.
pub struct HostCtx<'a> {
    /// Current time: simulated, or wall-clock over UDP sockets.
    pub now: Time,
    /// This host's id.
    pub host: HostId,
    pub(crate) out: &'a mut Vec<Packet>,
    pub(crate) timers: &'a mut Vec<(Time, u64)>,
    pub(crate) ctrl: &'a mut Vec<(SwitchId, CtrlOp)>,
}

impl HostCtx<'_> {
    /// Sends `payload` towards `dst`.
    pub fn send(&mut self, dst: NodeId, payload: Vec<u8>) {
        self.out.push(Packet {
            src: NodeId::Host(self.host),
            dst,
            payload,
        });
    }

    /// Arms a timer to fire `delay` from now with the given token.
    pub fn set_timer(&mut self, delay: Time, token: u64) {
        self.timers.push((delay, token));
    }

    /// Requests an out-of-band control-plane operation against a switch.
    /// Applied after the 50 µs control-plane latency (out-of-band: it
    /// does not consume data-plane bandwidth).
    pub fn ctrl(&mut self, switch: SwitchId, op: CtrlOp) {
        self.ctrl.push((switch, op));
    }
}

/// A host application driving one simulated host.
///
/// Implementations live in `ncl-core` (the libncrt worker/server apps)
/// and in the examples; the simulator only calls these hooks.
pub trait HostApp {
    /// Called once at simulation start.
    fn on_start(&mut self, _ctx: &mut HostCtx) {}
    /// Called for every packet delivered to this host.
    fn on_packet(&mut self, ctx: &mut HostCtx, pkt: &Packet);
    /// Called when a timer armed with [`HostCtx::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut HostCtx, _token: u64) {}
    /// Downcast support (inspect application state after a run).
    fn as_any(&self) -> &dyn Any;
    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Parses the ncscope identity of a raw payload: the window key
/// `(sender, kernel, seq)` plus whether the frame is NCP-R control
/// traffic (ACK/NACK). `None` when the payload is not NCP — such
/// packets carry no window identity and are invisible to ncscope.
pub(crate) fn ncp_scope_key(payload: &[u8]) -> Option<(nctel::WindowKey, bool)> {
    let p = ncp::NcpPacket::new_checked(payload).ok()?;
    let ctrl = p.flags() & (ncp::FLAG_ACK | ncp::FLAG_NACK) != 0;
    Some((nctel::WindowKey::new(p.sender(), p.kernel(), p.seq()), ctrl))
}

/// The outcome of one [`FastDatapath`] pass over an NCP payload.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FastVerdict {
    /// The (possibly rewritten) packet payload, carrying the incoming
    /// header flags unchanged: the switch re-appends a telemetry section
    /// to it and fixes up no flag. May be empty when the forwarding code
    /// is 3 (`_drop()`) — dropped windows are never re-encoded.
    pub payload: Vec<u8>,
    /// Forwarding decision, PISA convention: 0 `_pass()`, 1
    /// `_reflect()`, 2 `_bcast()`, 3 `_drop()`, 4 `_pass(label)`.
    pub fwd_code: u8,
    /// `_pass(label)` target id (meaningful when `fwd_code == 4`).
    pub fwd_label: u16,
    /// Version of the kernel that executed this window, when the
    /// datapath knows it (multi-tenant muxes running two versions of a
    /// kernel side by side during a hitless upgrade). `0` means "use
    /// the switch's static deploy-time telemetry".
    pub version: u16,
    /// Passes the window took through the engine (1 = no
    /// recirculation); the switch charges `PIPELINE_LATENCY` (600 ns)
    /// per pass.
    pub passes: usize,
}

/// A switch engine: what executes NCP windows at a computing switch —
/// the modeled PISA pipeline, the compiled software switch, or a tenant
/// mux over them. A switch holds one in [`SwitchCfg::engine`] and sends
/// every packet and control-plane operation through this interface.
pub trait FastDatapath {
    /// Processes one payload. `None` means "not NCP traffic I compute
    /// on" — the switch plainly forwards the original packet.
    fn process(&mut self, payload: &[u8]) -> Option<FastVerdict>;
    /// [`FastDatapath::process`] on a frame the caller gives up, so the
    /// verdict's payload can reuse its buffer (or one the engine kept
    /// from an earlier frame). A declined frame comes back unchanged.
    fn process_frame(&mut self, frame: Vec<u8>) -> Result<FastVerdict, Vec<u8>> {
        self.process(&frame).ok_or(frame)
    }
    /// Applies a control-plane operation addressed by the names the
    /// compiled switch uses (register copies, lane banks, lookup
    /// tables); `false` when the target is unknown to this engine or
    /// the operation is refused.
    fn ctrl(&mut self, op: &CtrlOp) -> bool;
    /// Sums element 0 of every register array whose source name starts
    /// with `prefix` (NCP-R observability: the compiler-lowered replay
    /// filters keep their duplicate counts in `__nclr_dups_*`
    /// registers).
    fn register_prefix_sum(&self, _prefix: &str) -> u64 {
        0
    }
    /// Downcast support (inspect datapath state after a run).
    fn as_any(&self) -> &dyn Any;
    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl FastDatapath for pisa::Pipeline {
    /// One pipeline run (all passes). The deparser emits the headers it
    /// parsed; the bytes the parser never consumed follow them, so the
    /// verdict carries the whole rewritten window.
    fn process(&mut self, payload: &[u8]) -> Option<FastVerdict> {
        let out = pisa::Pipeline::process(self, payload)?;
        let mut packet = out.packet;
        if out.fwd_code != 3 && out.parsed_bytes < payload.len() {
            packet.extend_from_slice(&payload[out.parsed_bytes..]);
        }
        Some(FastVerdict {
            payload: packet,
            fwd_code: out.fwd_code,
            fwd_label: out.fwd_label,
            version: 0,
            passes: out.passes,
        })
    }

    fn ctrl(&mut self, op: &CtrlOp) -> bool {
        match op {
            CtrlOp::TableInsert { table, entry } => self.table_insert(table, entry.clone()).is_ok(),
            CtrlOp::TableRemove { table, patterns } => self.table_remove(table, patterns) > 0,
            CtrlOp::RegWrite { name, index, value } => self.register_write(name, *index, *value),
        }
    }

    fn register_prefix_sum(&self, prefix: &str) -> u64 {
        let defs = self.config().registers.iter();
        defs.zip(self.registers())
            .filter(|(def, _)| def.name.starts_with(prefix))
            .filter_map(|(_, arr)| arr.try_get(0))
            .map(|v| v.bits())
            .sum()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Deploy-time telemetry metadata for one kernel at one switch: the
/// static fields a hop record carries (`nctel::hop`). Kept static so
/// the interpreter, fast-path, and PISA executions of the same window
/// stamp bit-identical records.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelTelemetry {
    /// Deployed kernel version at this switch (1-based module index).
    pub version: u16,
    /// PISA stages the kernel's program occupies at this switch.
    pub stages: u16,
    /// Fast-path micro-op count for the kernel at this switch.
    pub uops: u32,
}

/// Telemetry identity of a switch: enables in-band hop-record stamping
/// on frames carrying `FLAG_TELEMETRY`. Switches without one pass
/// telemetry sections through untouched (version negotiation: only
/// telemetry-aware deployments stamp).
#[derive(Clone, Debug, Default)]
pub struct SwitchTelemetry {
    /// The switch id stamped into hop records.
    pub switch_id: u16,
    /// Per-kernel static record fields.
    pub kernels: IdMap<u16, KernelTelemetry>,
}

/// Latency of one engine pass (~600 ns, Tofino-ish); a window that
/// recirculates pays it once per [`FastVerdict::passes`].
pub(crate) const PIPELINE_LATENCY: Time = 600;

/// Latency of plain (non-NCP or declined) forwarding.
pub(crate) const FWD_LATENCY: Time = 400;

/// Latency of a control-plane operation (host → controller → switch).
pub(crate) const CTRL_LATENCY: Time = 50_000;

/// Configuration of a simulated switch.
#[derive(Default)]
pub struct SwitchCfg {
    /// The switch engine; `None` makes a plain forwarder (the baseline
    /// switches of E1/E2).
    pub engine: Option<Box<dyn FastDatapath>>,
    /// `_pass(label)` target resolution: label id → node.
    pub labels: HashMap<u16, NodeId>,
    /// `_bcast()` targets — the AND fan-out set of this location
    /// (paper §4.1): a switch's overlay neighbours, or the hosts of a
    /// server's rack. Each copy is routed, so a target may be several
    /// hops away.
    pub bcast: Vec<NodeId>,
    /// In-band telemetry identity; `None` disables hop stamping.
    pub telemetry: Option<SwitchTelemetry>,
}

/// Per-switch runtime counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SwitchStats {
    /// Packets that executed a kernel.
    pub ncp_processed: u64,
    /// Packets plainly forwarded (not NCP / no pipeline).
    pub forwarded: u64,
    /// Windows dropped by `_drop()`.
    pub kernel_drops: u64,
    /// Windows reflected.
    pub reflected: u64,
    /// Windows broadcast (counted once per ingress window).
    pub broadcast: u64,
    /// Recirculation passes beyond the first.
    pub recirculations: u64,
    /// NCP-R ACK/NACK control frames forwarded without execution.
    pub acks_forwarded: u64,
    /// Well-formed NCP windows naming a kernel id this switch has no
    /// deployed kernel for (the failure mode upgrades expose). They are
    /// forwarded, not dropped, and counted here plus in the network's
    /// `sim.unknown_kernel` counter.
    pub unknown_kernel: u64,
}
