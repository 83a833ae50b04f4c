#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! # pisa — a behavioural simulator for protocol-independent switch
//! architectures
//!
//! Models the PISA pipeline of the paper's Fig. 1a: a programmable
//! **parser** extracts packet bytes into the packet header vector
//! ([`Phv`]); a sequence of match-action **stages** processes the PHV —
//! each stage holds match-action tables whose rules (TCAM/SRAM) select
//! VLIW **actions** for the stage's ALUs; actions can modify the PHV and
//! persistent **register arrays**; finally a **deparser** reconstructs
//! the packet.
//!
//! The simulator is behavioural (per-packet, not cycle-accurate) but
//! enforces a Tofino-flavoured [resource model](resources::ResourceModel):
//! bounded stage count, per-stage ALU-op and table budgets, PHV size
//! budgets, one stage binding per register array with at most one access
//! per packet pass, and recirculation when a program needs more stages
//! than the chip has.
//!
//! `ncl-p4` compiles NCL kernels into [`PipelineConfig`]s; `netsim`
//! embeds a [`Pipeline`] into each simulated switch. The crate knows
//! nothing about NCL or NCP — it executes whatever configuration it is
//! given, exactly like a switch runs whatever `switch.bin` it is flashed
//! with.

mod parser;
mod phv;
mod pipeline;
mod resources;
mod table;

pub use parser::{DeparserSpec, Extract, ParserSpec};
pub use phv::{FieldClass, FieldDecl, FieldId, Phv, PhvLayout};
pub use pipeline::{
    ExecStats, PartialPacket, Pipeline, PipelineConfig, RegisterArrayDef, StageConfig, StageTrace,
};
pub use resources::{ResourceModel, ResourceReport, ResourceViolation};
pub use table::{ActionDef, ActionRef, Arg, Entry, MatchKind, MatchPattern, PrimOp, TableDef};
