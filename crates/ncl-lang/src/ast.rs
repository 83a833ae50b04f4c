//! Abstract syntax tree for NCL programs.
//!
//! The AST mirrors the surface syntax closely; name resolution and typing
//! happen in [`crate::sema`]. Every node carries the [`Span`] of its
//! source text so later passes can report precise diagnostics.

use crate::diag::Span;
use c3::ScalarType;
use std::fmt;

/// A parsed NCL translation unit.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Program {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

/// A top-level item.
#[derive(Clone, PartialEq, Debug)]
pub enum Item {
    /// A global variable declaration (switch memory, control variable, or
    /// host-side `const`).
    Global(GlobalDecl),
    /// A network kernel definition.
    Kernel(KernelDef),
    /// A `_wnd_ struct { ... };` window extension.
    WindowExt(WindowExtDef),
    /// A plain (host) function; kept for completeness, not compiled to
    /// the switch. The paper's `main()` lives host-side behind libncrt.
    HostFn(HostFnDef),
}

impl Item {
    /// The span of the item's name.
    pub fn span(&self) -> Span {
        match self {
            Item::Global(g) => g.span,
            Item::Kernel(k) => k.span,
            Item::WindowExt(w) => w.span,
            Item::HostFn(f) => f.span,
        }
    }
}

/// Parsed declaration specifiers on globals and kernels.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Specifiers {
    /// `_net_` present.
    pub net: bool,
    /// `_out_` present.
    pub out: bool,
    /// `_in_` present.
    pub inn: bool,
    /// `_ctrl_` present.
    pub ctrl: bool,
    /// `const` present.
    pub konst: bool,
    /// `_at_("label")` argument, if present.
    pub at: Option<String>,
    /// Span of the specifier sequence (for diagnostics).
    pub span: Span,
}

/// A global variable: `_net_ [_at_(l)] [_ctrl_] type name[dims] [= init];`
/// or a stdlib declaration `_net_ _at_(l) ncl::Map<K, V, N> name;`.
#[derive(Clone, PartialEq, Debug)]
pub struct GlobalDecl {
    /// Declaration specifiers.
    pub spec: Specifiers,
    /// Declared type.
    pub ty: TypeExpr,
    /// Variable name.
    pub name: String,
    /// Initializer, if any.
    pub init: Option<Initializer>,
    /// Source span.
    pub span: Span,
}

/// An initializer: a scalar constant expression or a (possibly nested)
/// brace list. `{0}` and `{{0}}` replicate C's remaining-elements-are-zero
/// rule.
#[derive(Clone, PartialEq, Debug)]
pub enum Initializer {
    /// `= expr`
    Scalar(Expr),
    /// `= { i0, i1, ... }`
    List(Vec<Initializer>),
}

/// A type expression as written, before semantic resolution.
#[derive(Clone, PartialEq, Debug)]
pub enum TypeExpr {
    /// `void`
    Void,
    /// A scalar type (`int`, `uint32_t`, `bool`, …).
    Scalar(ScalarType),
    /// `T*` — only valid for kernel parameters.
    Ptr(ScalarType),
    /// `T name[d0][d1]…` — fixed array; dims are const expressions.
    Array(ScalarType, Vec<Expr>),
    /// `ncl::Map<K, V, N>` — stdlib switch map (implicitly `_ctrl_`).
    Map {
        /// Key scalar type.
        key: ScalarType,
        /// Value scalar type.
        value: ScalarType,
        /// Capacity (const expression).
        capacity: Box<Expr>,
    },
}

impl fmt::Display for TypeExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeExpr::Void => write!(f, "void"),
            TypeExpr::Scalar(s) => write!(f, "{s}"),
            TypeExpr::Ptr(s) => write!(f, "{s}*"),
            TypeExpr::Array(s, dims) => {
                write!(f, "{s}")?;
                for _ in dims {
                    write!(f, "[]")?;
                }
                Ok(())
            }
            TypeExpr::Map { key, value, .. } => {
                write!(f, "ncl::Map<{key}, {value}, N>")
            }
        }
    }
}

/// A kernel parameter.
#[derive(Clone, PartialEq, Debug)]
pub struct Param {
    /// `_ext_` present (host-memory parameters of `_in_` kernels).
    pub ext: bool,
    /// Parameter type (`T*` for arrays, scalars for per-window values).
    pub ty: TypeExpr,
    /// Parameter name.
    pub name: String,
    /// Source span.
    pub span: Span,
}

/// Which side executes a kernel.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KernelKind {
    /// `_net_ _out_` — runs on switches while windows travel.
    Outgoing,
    /// `_net_ _in_` — runs on hosts when windows arrive.
    Incoming,
}

impl fmt::Display for KernelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            KernelKind::Outgoing => "_out_",
            KernelKind::Incoming => "_in_",
        })
    }
}

/// A network kernel definition.
#[derive(Clone, PartialEq, Debug)]
pub struct KernelDef {
    /// Declaration specifiers (must include `_net_` and one of
    /// `_out_`/`_in_`).
    pub spec: Specifiers,
    /// Outgoing or incoming.
    pub kind: KernelKind,
    /// Return type (must be `void` or `int` per the examples; the value
    /// of a non-void return is ignored by the transport).
    pub ret: TypeExpr,
    /// Kernel name.
    pub name: String,
    /// Parameters.
    pub params: Vec<Param>,
    /// Body.
    pub body: Block,
    /// Source span of the signature.
    pub span: Span,
}

/// A `_wnd_ struct Name { fields };` window-struct extension (paper §4.2).
#[derive(Clone, PartialEq, Debug)]
pub struct WindowExtDef {
    /// Struct name (used by the runtime to attach instances).
    pub name: String,
    /// Fields in declaration order; packed in order into the NCP ext
    /// block.
    pub fields: Vec<(String, ScalarType, Span)>,
    /// Source span.
    pub span: Span,
}

/// A host-side function (not compiled for the switch).
#[derive(Clone, PartialEq, Debug)]
pub struct HostFnDef {
    /// Return type.
    pub ret: TypeExpr,
    /// Function name.
    pub name: String,
    /// Parameters.
    pub params: Vec<Param>,
    /// Body (parsed for syntax, not semantically checked beyond names).
    pub body: Block,
    /// Source span.
    pub span: Span,
}

/// A `{ ... }` block.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
    /// Source span.
    pub span: Span,
}

/// A statement.
#[derive(Clone, PartialEq, Debug)]
pub enum Stmt {
    /// A local declaration: `type name = init;`.
    Decl {
        /// Declared type (`auto` pointers from map lookups use
        /// [`TypeExpr::Ptr`] after sema; parser stores `None` for `auto`).
        ty: Option<TypeExpr>,
        /// Variable name.
        name: String,
        /// Initializer expression (mandatory for `auto`).
        init: Option<Expr>,
        /// Whether declared with `auto *`.
        auto_ptr: bool,
        /// Source span.
        span: Span,
    },
    /// `if (cond) then [else els]`, optionally with a C++17 init
    /// declaration: `if (auto *p = Map[k]) ...`.
    If {
        /// Optional `auto *name =` binding.
        decl: Option<(String, Span)>,
        /// Condition expression.
        cond: Expr,
        /// Then branch.
        then: Box<Stmt>,
        /// Else branch.
        els: Option<Box<Stmt>>,
        /// Source span.
        span: Span,
    },
    /// `for (init; cond; step) body` — trip count must be provably
    /// constant (checked by conformance, not the parser).
    For {
        /// Loop variable declaration or expression.
        init: Option<Box<Stmt>>,
        /// Loop condition.
        cond: Option<Expr>,
        /// Step expression.
        step: Option<Expr>,
        /// Body.
        body: Box<Stmt>,
        /// Source span.
        span: Span,
    },
    /// A `while (cond) body` loop. Parsed so conformance checking can
    /// reject it with a precise message (PISA has no unbounded loops).
    While {
        /// Condition.
        cond: Expr,
        /// Body.
        body: Box<Stmt>,
        /// Source span.
        span: Span,
    },
    /// A nested block.
    Block(Block),
    /// An expression statement.
    Expr(Expr),
    /// `return [expr];`
    Return(Option<Expr>, Span),
    /// `break;` — only meaningful inside loops; conformance restricts it.
    Break(Span),
    /// `continue;`
    Continue(Span),
    /// The empty statement `;`.
    Empty(Span),
}

impl Stmt {
    /// The statement's source span.
    pub fn span(&self) -> Span {
        match self {
            Stmt::Decl { span, .. }
            | Stmt::If { span, .. }
            | Stmt::For { span, .. }
            | Stmt::While { span, .. }
            | Stmt::Return(_, span)
            | Stmt::Break(span)
            | Stmt::Continue(span)
            | Stmt::Empty(span) => *span,
            Stmt::Block(b) => b.span,
            Stmt::Expr(e) => e.span(),
        }
    }
}

/// Assignment operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AssignOp {
    /// `=`
    Assign,
    /// `+=`
    Add,
    /// `-=`
    Sub,
    /// `*=`
    Mul,
    /// `/=`
    Div,
    /// `%=`
    Rem,
    /// `&=`
    And,
    /// `|=`
    Or,
    /// `^=`
    Xor,
    /// `<<=`
    Shl,
    /// `>>=`
    Shr,
}

/// Binary operators at the AST level (logical `&&`/`||` keep their
/// short-circuit identity until lowering).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BinaryOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    LAnd,
    /// `||`
    LOr,
}

/// Unary operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UnaryOp {
    /// `-`
    Neg,
    /// `~`
    BitNot,
    /// `!`
    Not,
    /// `*` — dereference (map-lookup pointers and kernel array params).
    Deref,
    /// `&` — address-of (only as `memcpy` operand).
    AddrOf,
}

/// An expression.
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// Integer literal (value, had unsigned suffix).
    Int(u64, bool, Span),
    /// `true` / `false`.
    Bool(bool, Span),
    /// Character literal.
    Char(u8, Span),
    /// String literal — only valid as `_at_`/`_pass`/`_here` argument.
    Str(String, Span),
    /// A name.
    Ident(String, Span),
    /// `window.field` — builtin window struct access.
    WindowField(String, Span),
    /// `location.field` — builtin location struct access.
    LocationField(String, Span),
    /// `base[index]` — array or map indexing.
    Index {
        /// Array or map expression.
        base: Box<Expr>,
        /// Index/key expression.
        index: Box<Expr>,
        /// Source span.
        span: Span,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
        /// Source span.
        span: Span,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Source span.
        span: Span,
    },
    /// Assignment (an expression in C; NCL restricts it to statement
    /// position, enforced by sema).
    Assign {
        /// Operator.
        op: AssignOp,
        /// Target place.
        lhs: Box<Expr>,
        /// Value.
        rhs: Box<Expr>,
        /// Source span.
        span: Span,
    },
    /// `++x` / `x++` / `--x` / `x--`.
    IncDec {
        /// `+1` or `-1`.
        inc: bool,
        /// Prefix (`++x`) or postfix (`x++`).
        prefix: bool,
        /// Target place.
        target: Box<Expr>,
        /// Source span.
        span: Span,
    },
    /// A function call: forwarding intrinsics, `memcpy`, `_here`, or a
    /// host-side call (rejected in kernels by sema).
    Call {
        /// Callee name.
        callee: String,
        /// Arguments.
        args: Vec<Expr>,
        /// Source span.
        span: Span,
    },
    /// `(type)expr` cast.
    Cast {
        /// Target scalar type.
        ty: ScalarType,
        /// Operand.
        expr: Box<Expr>,
        /// Source span.
        span: Span,
    },
    /// `cond ? a : b`.
    Ternary {
        /// Condition.
        cond: Box<Expr>,
        /// Value when true.
        then: Box<Expr>,
        /// Value when false.
        els: Box<Expr>,
        /// Source span.
        span: Span,
    },
    /// `sizeof(type)`.
    SizeOf(ScalarType, Span),
}

impl Expr {
    /// The expression's source span.
    pub fn span(&self) -> Span {
        match self {
            Expr::Int(_, _, s)
            | Expr::Bool(_, s)
            | Expr::Char(_, s)
            | Expr::Str(_, s)
            | Expr::Ident(_, s)
            | Expr::WindowField(_, s)
            | Expr::LocationField(_, s)
            | Expr::SizeOf(_, s) => *s,
            Expr::Index { span, .. }
            | Expr::Unary { span, .. }
            | Expr::Binary { span, .. }
            | Expr::Assign { span, .. }
            | Expr::IncDec { span, .. }
            | Expr::Call { span, .. }
            | Expr::Cast { span, .. }
            | Expr::Ternary { span, .. } => *span,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_expr_display() {
        assert_eq!(TypeExpr::Scalar(ScalarType::I32).to_string(), "int32_t");
        assert_eq!(TypeExpr::Ptr(ScalarType::U8).to_string(), "uint8_t*");
        assert_eq!(
            TypeExpr::Array(ScalarType::I32, vec![]).to_string(),
            "int32_t"
        );
    }

    #[test]
    fn kernel_kind_display() {
        assert_eq!(KernelKind::Outgoing.to_string(), "_out_");
        assert_eq!(KernelKind::Incoming.to_string(), "_in_");
    }

    #[test]
    fn expr_spans_propagate() {
        let s = Span {
            start: 3,
            end: 9,
            line: 1,
            col: 4,
        };
        assert_eq!(Expr::Int(1, false, s).span(), s);
        let e = Expr::Unary {
            op: UnaryOp::Neg,
            expr: Box::new(Expr::Int(1, false, s)),
            span: s,
        };
        assert_eq!(e.span(), s);
    }
}
