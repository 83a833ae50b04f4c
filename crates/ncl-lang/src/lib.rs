#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! # ncl-lang — the Net Compute Language frontend
//!
//! NCL is the C/C++ extension proposed by *"Don't You Worry 'Bout a
//! Packet"* (HotNets '21) for writing **network kernels**: functions that
//! programmable switches (`_net_ _out_`) and receiving hosts (`_net_
//! _in_`) execute on data [windows](c3::Window). This crate implements the
//! frontend of the `nclc` compiler: a hand-written lexer, a
//! recursive-descent parser producing a typed AST, and a semantic analysis
//! pass that checks the paper's declaration-specifier rules (`_net_`,
//! `_out_`, `_in_`, `_ctrl_`, `_at_("label")`, `_ext_`), kernel pairing,
//! and the C-subset type rules.
//!
//! The supported surface is exactly the subset the paper's examples use
//! (Figs. 4 and 5) plus the obvious closures of it: integer scalars and
//! fixed arrays, `if`/`else` (including C++17 `if (auto *p = Map[k])`),
//! `for` loops with compile-time trip counts, compound assignment,
//! `memcpy`, the forwarding intrinsics, the builtin `window` and
//! `location` structs, `_wnd_ struct` window extensions, `ncl::Map`
//! stdlib types, `#define` object macros and `const` globals.
//!
//! Entry points: [`parse`] (source → [`ast::Program`]) and
//! [`frontend`] (source → [`sema::CheckedProgram`], parse plus
//! semantic analysis).

pub mod ast;
pub mod diag;
mod lexer;
mod parser;
pub mod sema;
mod token;

pub use ast::Program;
pub use diag::{Diagnostic, Severity, Span};
pub use sema::CheckedProgram;

/// Parses an NCL source file into an AST.
///
/// `file` is only used to label diagnostics.
pub fn parse(source: &str, file: &str) -> Result<ast::Program, Vec<Diagnostic>> {
    let tokens = lexer::lex(source, file)?;
    parser::parse_tokens(&tokens, file)
}

/// Convenience: parse + semantic analysis in one call.
pub fn frontend(source: &str, file: &str) -> Result<sema::CheckedProgram, Vec<Diagnostic>> {
    let program = parse(source, file)?;
    sema::analyze(&program, file)
}
