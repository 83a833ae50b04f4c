#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! # nctel — observability for the NCL stack
//!
//! The rest of the workspace makes the *window* the unit of processing;
//! this crate makes it the unit of *observation*. Three layers, each
//! usable on its own (DESIGN.md §4.9):
//!
//! * [`metrics`] — a unified, lock-free metrics [`Registry`]:
//!   [`Counter`]s, [`metrics::Gauge`]s and log-bucketed latency [`Histogram`]s
//!   with p50/p99/p999 snapshots, rendered as Prometheus text or JSON.
//!   The scattered ad-hoc stats structs (`SenderStats`, `ReceiverStats`,
//!   `SimStats`, the UDP malformed counter, fast-path hit/miss counts,
//!   deploy/lint gate outcomes) are all backed by it.
//! * [`hop`] + [`trace`] — **in-band window telemetry**: an optional
//!   postcard section appended after the NCP v1 payload in which each
//!   on-path switch stamps a fixed-size [`HopRecord`] (switch id, kernel
//!   id+version, stage count, micro-ops executed, dup-suppression flag,
//!   sim-time ticks in/out). The receiving host assembles the records
//!   into [`WindowTrace`]s held in a bounded, sampled [`TraceRing`].
//! * `spans` — compile-pipeline tracing: a [`Timeline`] of timed spans
//!   around parse→sema→lower→passes→lint→PISA-map→P4-emit, surfaced by
//!   `nclc --emit timing`.
//! * [`scope`] — **ncscope**, the layer that *interprets* the above
//!   (DESIGN.md §4.10): a lock-free ring of typed window events shared
//!   by every layer via a cheap-clone [`Scope`] handle, a flight
//!   recorder that snapshots ring + registry to JSON on failure paths,
//!   a diagnosis engine producing per-window verdicts (loss locus, dup
//!   heatmaps, switch latency), and a Chrome `trace_event` exporter.
//!
//! The crate has **zero dependencies** so every other crate in the
//! workspace (transport, simulator, compiler, benches) can depend on it
//! without cycles.

mod clock;
pub mod hop;
pub mod metrics;
pub mod scope;
mod spans;
pub mod trace;

pub use clock::MonotonicClock;
pub use hop::{HopRecord, HOP_DUP_SUPPRESSED, HOP_FORWARDED_ONLY};
pub use metrics::{labeled, Counter, Histogram, Registry};
pub use scope::{Scope, ScopeEvent, SnapshotReason, WindowKey};
pub use spans::Timeline;
pub use trace::{TraceRing, WindowTrace};
