//! # ncwatch — streaming health for an in-network-computing fabric
//!
//! The stack can *record* (`nctel` metrics + in-band hop telemetry) and
//! *explain after the fact* (`ncscope` flight recorder + diagnosis),
//! but neither watches the running fabric. `ncwatch` closes that loop:
//! a zero-dependency streaming engine that consumes registry snapshots
//! and hop-telemetry streams on a fixed evaluation tick and turns them
//! into operator-grade signals.
//!
//! Three layers, bottom to top:
//!
//! - `slo` — declarative per-tenant objectives (goodput floor, p99
//!   window-latency ceiling, retransmit-rate ceiling, unknown-kernel
//!   == 0) compiled from a small spec type and evaluated over rolling
//!   windows with **multi-rate burn-rate alerting**: an alert fires
//!   only when both a fast and a slow window burn the error budget
//!   faster than a threshold — Prometheus-style SLO burn alerts, but
//!   fully deterministic (integer per-mille arithmetic, no wall
//!   clock).
//! - `anomaly` — EWMA mean + EWMA absolute-deviation (MAD-style)
//!   baselines over per-link / per-switch / per-tenant series, flagging
//!   deviations without hand-set thresholds.
//! - `incident` + `engine` — an alert crossing threshold triggers
//!   an automatic `ncscope` capture + [`nctel::scope::analysis::diagnose`]
//!   run and emits a machine-readable [`IncidentReport`]
//!   (JSON: firing SLO, burn rates, suspected component, correlated
//!   metric exemplars, deterministic incident id).
//!
//! Determinism contract: the same simulated run produces byte-identical
//! incident reports — ids are content hashes, timestamps are simulated
//! time, and every evaluation is integer or IEEE-deterministic float
//! arithmetic over the same inputs.

#![warn(unreachable_pub)]

mod anomaly;
mod engine;
mod incident;
mod slo;

pub use anomaly::AnomalyConfig;
pub use engine::{CaptureSource, SeriesSample, TenantSample, TickInput, Watch, WatchConfig};
pub use incident::{link_name, wire_name, IncidentReport};
pub use slo::{BurnRates, Objective, SloSpec, SloTracker, SloTransition};
