#![warn(missing_docs)]

//! # ncl — unified programming for in-network computing
//!
//! A from-scratch Rust reproduction of *"Don't You Worry 'Bout a Packet:
//! Unified Programming for In-Network Computing"* (HotNets '21): the
//! **Net Compute Language** (NCL), its **nclc** compiler targeting PISA
//! switch pipelines, the **Net Compute Protocol** (NCP), the **libncrt**
//! runtime, and the simulated substrates (PISA switch, discrete-event
//! network) the system is evaluated on.
//!
//! This umbrella crate re-exports the workspace:
//!
//! | module | crate | what it is |
//! |---|---|---|
//! | [`core`] | `ncl-core` | compiler driver, runtime, deployment, apps |
//! | [`lang`] | `ncl-lang` | lexer, parser, semantic analysis |
//! | [`ir`] | `ncl-ir` | IR, passes, versioning, interpreter |
//! | [`p4`] | `ncl-p4` | lane split, if-conversion, stage allocation, P4 |
//! | [`model`] | `c3` | windows, masks, values, forwarding decisions |
//! | [`and`] | `ncl-and` | abstract network description + embedding |
//! | [`pisa`] | `pisa` | the switch-pipeline simulator |
//! | [`ncp`] | `ncp` | the window transport protocol |
//! | [`netsim`] | `netsim` | the discrete-event network simulator |
//! | [`nctel`] | `nctel` | metrics registry, hop records, traces, spans |
//! | [`ncsched`] | `ncsched` | multi-tenant admission, placement, upgrades |
//! | [`ncmc`] | `ncmc` | bounded model checker for kernel × protocol schedules |
//!
//! Start with [`core::nclc::compile`] and [`core::deploy::deploy_opts`]; the
//! `examples/` directory walks through the paper's use cases.

pub use c3 as model;
pub use ncl_and as and;
pub use ncl_core as core;
pub use ncl_ir as ir;
pub use ncl_lang as lang;
pub use ncl_p4 as p4;
pub use ncmc;
pub use ncp;
pub use ncsched;
pub use nctel;
pub use netsim;
pub use pisa;
