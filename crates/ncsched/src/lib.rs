#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! # ncsched — the multi-tenant control plane
//!
//! The rest of the workspace deploys **one** compiled NCL program onto
//! the fabric. This crate turns that single-program path into a
//! scheduled, quota-governed, versioned control plane (DESIGN.md §4.12),
//! the "INC-as-a-service" layer the paper gestures at and ClickINC /
//! NetRPC (PAPERS.md) spell out:
//!
//! * `tenant` — tenant identity and per-switch resource quotas
//!   ([`TenantSpec`], [`TenantQuota`]).
//! * `admission` — the [`AdmissionController`]: bin-packs candidate
//!   kernels across the fabric's PISA resource pools using the resource
//!   figures of each tenant's compiled pipelines (`ncl_p4::estimate`),
//!   **before** anything is loaded.
//!   Admission yields a [`PlacementPlan`]; rejection yields a
//!   machine-readable [`CostReport`] naming the violated budget, the
//!   offending kernel and the tenant's version.
//! * `upgrade` — the hitless-upgrade state machine ([`Upgrade`]):
//!   install the new kernel version alongside the old one, route new
//!   windows to the new version, drain the old version's in-flight
//!   windows via the NCP-R seq/ack state, and only then reclaim its
//!   resources.
//!
//! The crate is deliberately **mechanism-free**: it never touches the
//! simulator or the transport. It consumes `ModuleEstimate`s produced by
//! `ncl-p4` and hands back plans/tickets; `ncl-core::deploy` and
//! `netsim` enact them. That keeps the dependency graph acyclic
//! (compiler → scheduler → deploy) and makes every decision unit-testable
//! with synthetic estimates.
//!
//! ## Accounting model
//!
//! Capacity is tracked per switch against one [`pisa::ResourceModel`]:
//! logical stages (including recirculation), total SRAM
//! (`sram_bytes_per_stage × stages`), and the two PHV budgets. Each
//! tenant's footprint on a switch is what its pipeline for that switch
//! uses, as compiled. Because every pipeline includes the shared NCP base
//! header, summing footprints across tenants double-counts those bytes —
//! the controller is deliberately conservative there. During an upgrade
//! both versions are resident, so `begin_upgrade` re-runs admission with
//! the old version still committed; quotas apply to each version's
//! footprint separately while fabric capacity governs the transient sum.

mod admission;
mod tenant;
mod upgrade;

pub use admission::{
    AdmissionController, AdmissionError, BudgetKind, CostReport, KernelPlacement, PlacementPlan,
    ResourceKind, SwitchPlacement, SwitchUsage,
};
pub use tenant::{TenantQuota, TenantSpec};
pub use upgrade::Upgrade;
