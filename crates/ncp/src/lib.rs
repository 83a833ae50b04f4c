#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! # ncp — the Net Compute Protocol
//!
//! NCP is the window transport of the paper's §3.2: *"Besides being a
//! transport protocol for windows, NCP also encodes kernel execution
//! context"* — which kernel to execute, the offsets of array chunks, and
//! the programmer's extended window struct. It is deliberately
//! transport-agnostic; this crate provides:
//!
//! * [`wire`] — the packet format as a typed view over byte buffers
//!   (the smoltcp idiom: check once, then panic-free field accessors);
//! * [`codec`] — [`Window`](c3::Window) ↔ packet conversion, including
//!   multi-packet windows (fragmentation + host-side reassembly — the
//!   paper's future-work §6 extension; switches compute only on
//!   single-packet windows, exactly as the paper scopes its prototype);
//! * [`reliable`] — NCP-R, the reliability layer (ACK/NACK frames,
//!   AIMD in-flight window, RTO retransmission, receiver-side duplicate
//!   suppression), clock- and transport-agnostic;
//! * [`udp`] — the Sockets/UDP backend (the paper's first prototype
//!   target), a thin endpoint over `std::net::UdpSocket`.
//!
//! The wire layout is pinned in DESIGN.md §4.4 and must match the parser
//! `ncl-p4` generates; cross-crate tests in `ncl-core` enforce the
//! agreement.

pub mod codec;
pub mod reliable;
pub mod udp;
pub mod wire;

pub use codec::{
    decode_window, decode_window_into, encode_window, encode_window_into, fragment_window,
    Reassembler,
};
pub use reliable::{Receiver, ReceiverState, ReliableConfig, Sender, SenderState};
pub use udp::UdpEndpoint;
pub use wire::{
    AckRepr, NcpPacket, NcpRepr, FLAG_ACK, FLAG_FIRST_FRAG, FLAG_FRAGMENT, FLAG_LAST,
    FLAG_MORE_FRAGS, FLAG_NACK, FLAG_TELEMETRY, HEADER_LEN, MAGIC, VERSION,
};
