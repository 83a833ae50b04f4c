#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! # ncl-core — the NCL programming system
//!
//! The paper's primary contribution, assembled: *"a domain-specific
//! language for programming network kernels, its compiler and supporting
//! libraries"* (§3.2). This crate is the public API a downstream user
//! programs against:
//!
//! * [`nclc`] — the compiler driver (Fig. 6): NCL source + AND file →
//!   per-switch PISA pipelines + P4 sources + host-side kernel IR;
//! * [`runtime`] — libncrt: typed arrays, window specs, the
//!   [`runtime::NclHost`] application that implements `ncl::out` /
//!   `ncl::in` over the simulated network, and window encode/decode;
//! * [`control`] — the transparent control-plane interaction:
//!   `ncl::ctrl_wr`, map management (NetCache-style inserts/evictions);
//! * [`mod@deploy`] — maps the AND overlay onto a network (Fig. 3c),
//!   simulated or over real UDP sockets, and loads every switch with
//!   its compiled pipeline;
//! * [`fastpath`] — the compiled fast-path switch executor: versioned
//!   IR lowered to linear micro-op programs, cached per
//!   `(kernel, location)` and run against persistent switch state
//!   packed at its declared width; the kernel allocates nothing, the
//!   hop one `Vec` per forwarded window (ROADMAP item 3(ii)) — an
//!   alternative [`mod@deploy`] backend;
//! * [`baseline`] — the handwritten P4-16 of a NetCache-style cache
//!   (Fig. 1b), the comparison point of E3's code-size table;
//! * [`mc`] — the model-checking driver: every schedule-checkable lint
//!   verdict (and a whole-program convergence obligation) adjudicated
//!   by the `ncmc` bounded model checker against the compiled pipeline
//!   — a machine-found counterexample schedule or a bounded-absence
//!   certificate (DESIGN.md §4.13).
//!
//! ## Quickstart
//!
//! ```
//! use ncl_core::nclc::{compile, CompileConfig};
//!
//! let src = r#"
//!     _net_ _at_("s1") int total[1] = {0};
//!     _net_ _out_ void count(int *data) { total[0] += data[0]; }
//! "#;
//! let and = "host h1\nhost h2\nswitch s1\nlink h1 s1\nlink h2 s1\n";
//! let mut cfg = CompileConfig::default();
//! cfg.masks.insert("count".into(), vec![1]);
//! let program = compile(src, and, &cfg).expect("compiles");
//! assert_eq!(program.switches.len(), 1);
//! assert!(program.switches[0].1.p4_source.contains("V1Switch"));
//! ```

pub mod apps;
pub mod baseline;
pub mod control;
pub mod deploy;
pub mod fastpath;
pub mod mc;
mod mux;
pub mod nclc;
pub mod runtime;
mod tenants;
mod watch;

pub use control::ControlPlane;
pub use deploy::{
    and_switch_path, deploy_opts, deploy_udp, deployed_versions, DeployOptions, Deployment,
    SwitchBackend,
};
pub use fastpath::FastPathSwitch;
pub use mux::TenantMux;
pub use nclc::{compile, CompileConfig, CompiledProgram, NclcError};
pub use runtime::{NclHost, OutInvocation, TypedArray};
pub use tenants::{deploy_tenants, MultiDeployError, MultiDeployment, TenantDeploy};
pub use watch::{FabricWatch, FabricWatchParts};
