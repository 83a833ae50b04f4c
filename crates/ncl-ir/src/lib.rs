#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! # ncl-ir — intermediate representation and passes of the nclc compiler
//!
//! The middle of the compilation trajectory from the paper's Fig. 6:
//!
//! ```text
//! CheckedProgram ──lower──▶ Module ──passes──▶ Module (per location)
//!       (sema)               (IR)    │  conformance checking
//!                                    │  IR versioning (AND locations)
//!                                    │  unrolling / const-fold / DCE
//!                                    ▼
//!                              ncl-p4 codegen
//! ```
//!
//! The IR is a conventional control-flow graph of basic blocks over
//! *mutable virtual registers* (not SSA — predication-based PISA mapping
//! is simpler without φ nodes, and the paper's pipeline targets have no
//! join points anyway). Every instruction is explicit about its effect
//! class: pure ALU ops, window-data accesses, switch-memory accesses, map
//! lookups, host-memory accesses (incoming kernels), and forwarding
//! decisions.
//!
//! The crate also contains the **reference interpreter**
//! ([`interp::Interpreter`]), which executes kernels directly on windows
//! and switch state. The PISA pipeline produced by `ncl-p4` must agree
//! with the interpreter on every window — that differential property is
//! the compiler's correctness argument and is tested with proptest.
//!
//! For production window processing there is additionally the **compiled
//! fast path** ([`exec::CompiledKernel`]): the same semantics lowered to
//! a linear micro-op program executed against reusable scratch with zero
//! steady-state allocations. The interpreter stays the oracle; the fast
//! path must match it bit for bit (see `tests/fastpath_differential.rs`).

mod exec;
pub mod hash;
pub mod interp;
pub mod ir;
pub mod lint;
pub mod lower;
mod ncvec;
pub mod passes;
pub mod version;

pub use c3::RegArray;
pub use exec::{CompiledKernel, ExecScratch};
pub use interp::{HostMemory, Interpreter, SwitchState};
pub use ir::{ArrId, CtrlId, Inst, KernelIr, MapId, MetaField, Module, Operand, RegId, Terminator};
pub use lint::{LintCode, LintConfig, LintDiagnostic, LintLevel};
pub use lower::{lower, LoweringConfig};
pub use version::version_modules;
