#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! # netsim — a deterministic discrete-event network simulator
//!
//! The testbed substrate for every quantitative experiment: hosts,
//! PISA switches and links with bandwidth + propagation delay, driven by
//! a single event queue with nanosecond timestamps. Determinism is a
//! design goal (no wall-clock, no global RNG): the same inputs produce
//! the same packet trace, which the differential tests and benchmarks
//! rely on. The same network also runs over real UDP sockets on the
//! wall clock ([`NetworkBuilder::bind_udp`]): only the link substrate
//! differs, the host, switch and link-model code is shared.
//!
//! * [`event`] — the time-ordered event queue;
//! * [`link`] — store-and-forward links: serialization delay from
//!   bandwidth, propagation delay, optional deterministic loss;
//! * `node` — the [`HostApp`] trait applications
//!   implement, the [`FastDatapath`] engine contract (implemented
//!   here for [`pisa::Pipeline`]), and the switch configuration holding
//!   one engine behind NCP-aware forwarding (Fig. 3b: *"A switch
//!   executes a kernel only when the NCP protocol has been recognized"*
//!   — everything else is forwarded untouched);
//! * `sim` — topology building, BFS routing, the run loop, and the
//!   UDP socket substrate.
//!
//! Packets carry an explicit `(src, dst)` node pair modelling the
//! underlying IP encapsulation; NCP bytes are the payload. Switch
//! forwarding decisions map onto it: `_pass()` keeps the destination,
//! `_pass(label)`/`_reflect()`/`_bcast()` rewrite it, `_drop()` consumes
//! the packet.

pub mod event;
pub mod link;
mod node;
mod sim;

pub use event::Time;
pub use link::LinkSpec;
pub use node::{
    CtrlOp, FastDatapath, FastVerdict, HostApp, HostCtx, KernelTelemetry, SwitchCfg, SwitchStats,
    SwitchTelemetry,
};
pub use sim::{Network, NetworkBuilder, Packet, SimStats};
