#![warn(missing_docs)]

//! # c3 — the Compute Centric Communication model
//!
//! Foundational types for the C3 programming model from *"Don't You Worry
//! 'Bout a Packet: Unified Programming for In-Network Computing"*
//! (HotNets '21). Under C3, hosts exchange data **arrays** through
//! point-to-point primitives that also perform **computations** on the data
//! at on-path network devices. The basic unit of processing is the
//! [`window::Window`]: a user-controlled association of elements
//! across arrays, decoupled from packets.
//!
//! This crate is dependency-free and shared by every other crate in the
//! workspace: the language frontend, the IR, the PISA simulator, the NCP
//! protocol and the runtime all speak these types.
//!
//! The main exports are:
//!
//! * identifiers ([`HostId`], [`SwitchId`], [`NodeId`], [`KernelId`],
//!   [`Label`]) for hosts, switches, kernels and AND location labels;
//! * [`ScalarType`] / [`Value`] — the NCL scalar type system with
//!   C semantics (wrapping two's-complement arithmetic, explicit casts);
//! * [`Mask`] / [`WindowSpec`] / [`Window`] — the window abstraction;
//! * [`Forward`] — the forwarding decisions a kernel can take
//!   (`_pass` / `_drop` / `_reflect` / `_bcast`);
//! * [`RegArray`] — device memory packed at its declared width, the one
//!   register store of every engine;
//! * [`wire`] — byte-order helpers shared by every wire format.

pub mod fwd;
pub mod ids;
pub mod ncpr;
pub mod reg;
pub mod value;
pub mod window;
pub mod wire;

pub use fwd::Forward;
pub use ids::{HostId, KernelId, Label, NodeId, PortId, SwitchId};
pub use reg::{Lane, Lanes, RegArray};
pub use value::{BinOp, ScalarType, UnOp, Value};
pub use window::{Chunk, Mask, Window, WindowSpec};
