//! Semantic analysis for NCL programs.
//!
//! Performs name resolution, constant evaluation, type checking of kernel
//! bodies, and the paper's declaration-specifier rules:
//!
//! * `_ctrl_` variables require a location and are read-only in kernels
//!   (paper §4.1);
//! * `ncl::Map` is implicitly `_ctrl_` — kernels look up, the control
//!   plane inserts (paper §4.3, the NetCache-style design);
//! * `_ext_` parameters are only valid on `_in_` kernels, which "must
//!   match" their paired `_out_` kernel's parameter list;
//! * forwarding intrinsics are only valid in `_out_` kernels;
//! * `_at_` labels partition kernels and switch memory per location.
//!
//! The output, [`CheckedProgram`], is the frontend's interface to the IR
//! lowering in `ncl-ir`: resolved globals with evaluated dimensions and
//! initializers, kernels with parameter layouts, and the
//! window-extension layout.

use crate::ast::*;
use crate::diag::{Diagnostic, Span};
use c3::{Label, ScalarType, Value};
use std::collections::HashMap;

/// A semantic type (after resolution).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Ty {
    /// An integer/bool scalar.
    Scalar(ScalarType),
    /// A pointer to scalars: kernel array parameters, `&expr`, and
    /// successfully-tested map lookups.
    Ptr(ScalarType),
    /// A map lookup result before its null test (`Idx[key]`).
    OptPtr(ScalarType),
    /// Switch-memory array with evaluated dimensions.
    Array(ScalarType, Vec<usize>),
    /// A row of a 2-D switch array (e.g. `Cache[*idx]`): pointer-like,
    /// usable only with `memcpy`.
    Row(ScalarType, usize),
    /// An `ncl::Map<K, V, N>`.
    Map(ScalarType, ScalarType, usize),
    /// Statement-like expressions (intrinsic calls).
    Void,
}

impl Ty {
    /// The scalar type, if this is a plain scalar.
    fn as_scalar(&self) -> Option<ScalarType> {
        match self {
            Ty::Scalar(s) => Some(*s),
            _ => None,
        }
    }

    /// Whether the type can appear in a boolean condition.
    fn is_condition(&self) -> bool {
        matches!(self, Ty::Scalar(_) | Ty::Ptr(_) | Ty::OptPtr(_))
    }

    /// Whether this is pointer-like (a valid `memcpy` operand).
    fn is_pointerish(&self) -> bool {
        matches!(self, Ty::Ptr(_) | Ty::OptPtr(_) | Ty::Row(..))
    }
}

impl std::fmt::Display for Ty {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Ty::Scalar(s) => write!(f, "{s}"),
            Ty::Ptr(s) => write!(f, "{s}*"),
            Ty::OptPtr(s) => write!(f, "{s}* (maybe null)"),
            Ty::Array(s, dims) => {
                write!(f, "{s}")?;
                for d in dims {
                    write!(f, "[{d}]")?;
                }
                Ok(())
            }
            Ty::Row(s, n) => write!(f, "{s}[{n}] row"),
            Ty::Map(k, v, n) => write!(f, "ncl::Map<{k}, {v}, {n}>"),
            Ty::Void => write!(f, "void"),
        }
    }
}

/// How a checked global is realized on the switch.
#[derive(Clone, PartialEq, Debug)]
pub enum GlobalKind {
    /// Switch memory (paper: statically allocated, kernel-private):
    /// a register array. Scalars are 1-element arrays.
    Register {
        /// Element scalar type.
        elem: ScalarType,
        /// Evaluated dimensions (empty = scalar).
        dims: Vec<usize>,
        /// Explicit prefix of the flattened initial values: elements
        /// past `init.len()` are zeros of `elem`, and trailing zeros are
        /// never stored (`= {0}` is empty whatever the dimensions).
        init: Vec<Value>,
    },
    /// A `_ctrl_` variable: written by host code, read-only in kernels.
    Ctrl {
        /// Scalar type.
        ty: ScalarType,
        /// Initial value.
        init: Value,
    },
    /// An `ncl::Map` (a MAT managed by the control plane).
    Map {
        /// Key type.
        key: ScalarType,
        /// Value type.
        value: ScalarType,
        /// Capacity.
        capacity: usize,
    },
}

/// A checked global declaration.
#[derive(Clone, PartialEq, Debug)]
pub struct GlobalInfo {
    /// Variable name.
    pub name: String,
    /// Placement label, if `_at_` was given.
    pub at: Option<Label>,
    /// Realization.
    pub kind: GlobalKind,
    /// Declaration site.
    pub span: Span,
}

impl GlobalInfo {
    /// The semantic type of this global in expressions.
    pub fn ty(&self) -> Ty {
        match &self.kind {
            GlobalKind::Register { elem, dims, .. } => {
                if dims.is_empty() {
                    Ty::Scalar(*elem)
                } else {
                    Ty::Array(*elem, dims.clone())
                }
            }
            GlobalKind::Ctrl { ty, .. } => Ty::Scalar(*ty),
            GlobalKind::Map {
                key,
                value,
                capacity,
            } => Ty::Map(*key, *value, *capacity),
        }
    }
}

/// A checked kernel parameter.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParamInfo {
    /// Name.
    pub name: String,
    /// Element scalar type.
    pub elem: ScalarType,
    /// Whether the parameter is a pointer (array) or per-window scalar.
    pub is_ptr: bool,
    /// `_ext_` (host memory, `_in_` kernels only).
    pub ext: bool,
}

/// A checked kernel.
#[derive(Clone, PartialEq, Debug)]
pub struct KernelInfo {
    /// Kernel name.
    pub name: String,
    /// Outgoing or incoming.
    pub kind: KernelKind,
    /// Placement label, if restricted with `_at_`.
    pub at: Option<Label>,
    /// Parameters in order.
    pub params: Vec<ParamInfo>,
    /// The kernel body (still AST; lowering consumes it).
    pub body: Block,
    /// Definition site.
    pub span: Span,
}

impl KernelInfo {
    /// The window-data (non-`_ext_`) parameters.
    pub fn window_params(&self) -> impl Iterator<Item = &ParamInfo> {
        self.params.iter().filter(|p| !p.ext)
    }
}

/// Layout of the programmer's window-struct extension: name, and fields
/// with byte offsets into the NCP ext block.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct WindowExtLayout {
    /// Struct name.
    pub name: String,
    /// `(field, type, byte offset)` in declaration order.
    pub fields: Vec<(String, ScalarType, usize)>,
}

impl WindowExtLayout {
    /// Total bytes of the ext block.
    pub fn size(&self) -> usize {
        self.fields
            .iter()
            .map(|(_, ty, off)| off + ty.size())
            .max()
            .unwrap_or(0)
    }

    /// Looks up a field.
    pub fn field(&self, name: &str) -> Option<(ScalarType, usize)> {
        self.fields
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, ty, off)| (*ty, *off))
    }
}

/// The builtin fields of the `window` struct (paper §4.2).
pub(crate) const WINDOW_BUILTINS: &[(&str, ScalarType)] = &[
    ("seq", ScalarType::U32),
    ("sender", ScalarType::U16),
    ("from", ScalarType::U16),
    ("len", ScalarType::U16),
    ("nchunks", ScalarType::U8),
    ("last", ScalarType::Bool),
    // NCP-R: true when the switch replay filter has already seen this
    // (sender, seq) — i.e. the window is a retransmission. Always false
    // on hosts and on kernels compiled without a replay filter.
    ("replay", ScalarType::Bool),
];

/// The builtin fields of the `location` struct (paper §4.1).
pub(crate) const LOCATION_BUILTINS: &[(&str, ScalarType)] = &[("id", ScalarType::U16)];

/// The result of semantic analysis.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct CheckedProgram {
    /// Source file name (diagnostic anchor for later passes).
    pub file: String,
    /// Switch globals (registers, ctrl variables, maps).
    pub globals: Vec<GlobalInfo>,
    /// Host-side named constants (`const`/`#define`), pre-evaluated.
    pub consts: HashMap<String, Value>,
    /// Window-struct extension layout (empty when not declared).
    pub window_ext: WindowExtLayout,
    /// Kernels in declaration order.
    pub kernels: Vec<KernelInfo>,
    /// Host function names (not compiled to the switch).
    pub host_fns: Vec<String>,
    /// Warnings produced during analysis (errors abort instead).
    pub warnings: Vec<Diagnostic>,
}

impl CheckedProgram {
    /// Finds a global by name.
    pub fn global(&self, name: &str) -> Option<&GlobalInfo> {
        self.globals.iter().find(|g| g.name == name)
    }

    /// Finds a kernel by name.
    pub fn kernel(&self, name: &str) -> Option<&KernelInfo> {
        self.kernels.iter().find(|k| k.name == name)
    }
}

/// Runs semantic analysis over a parsed program. `file` labels the
/// diagnostics.
pub(crate) fn analyze(program: &Program, file: &str) -> Result<CheckedProgram, Vec<Diagnostic>> {
    let mut cx = Checker {
        out: CheckedProgram {
            file: file.to_string(),
            ..CheckedProgram::default()
        },
        diags: Vec::new(),
        file: file.to_string(),
    };
    cx.run(program);
    if cx.diags.is_empty() {
        Ok(cx.out)
    } else {
        Err(cx.diags)
    }
}

/// A register initializer being flattened. Only the written prefix is
/// held, so `int a[1 << 20] = {0}` costs one element, not a million.
struct InitPrefix {
    vals: Vec<Value>,
    elem: ScalarType,
    total: usize,
}

impl InitPrefix {
    fn new(elem: ScalarType, total: usize) -> Self {
        let vals = Vec::new();
        InitPrefix { vals, elem, total }
    }

    /// Stores `v`, cast to the element type, at flattened index `idx`;
    /// false when `idx` is past the end of the array.
    fn set(&mut self, idx: usize, v: Value) -> bool {
        if idx >= self.total {
            return false;
        }
        if idx >= self.vals.len() {
            self.vals.resize(idx + 1, Value::zero(self.elem));
        }
        self.vals[idx] = v.cast(self.elem);
        true
    }

    /// The explicit prefix: trailing zeros are implied, not stored.
    fn finish(mut self) -> Vec<Value> {
        let zero = Value::zero(self.elem);
        while self.vals.last() == Some(&zero) {
            self.vals.pop();
        }
        self.vals
    }
}

struct Checker {
    out: CheckedProgram,
    diags: Vec<Diagnostic>,
    file: String,
}

impl Checker {
    fn error(&mut self, msg: impl Into<String>, span: Span) {
        self.diags
            .push(Diagnostic::error(msg, span, self.file.clone()));
    }

    fn warn(&mut self, msg: impl Into<String>, span: Span) {
        self.out
            .warnings
            .push(Diagnostic::warning(msg, span, self.file.clone()));
    }

    fn run(&mut self, program: &Program) {
        // Pass 1: window extension + constants first (dims may use them).
        for item in &program.items {
            match item {
                Item::WindowExt(w) => self.window_ext(w),
                Item::Global(g) if !g.spec.net => self.host_const(g),
                _ => {}
            }
        }
        // Pass 2: switch globals.
        for item in &program.items {
            if let Item::Global(g) = item {
                if g.spec.net {
                    self.switch_global(g);
                }
            }
        }
        // Pass 3: kernels and host functions.
        for item in &program.items {
            match item {
                Item::Kernel(k) => self.kernel(k),
                Item::HostFn(f) => self.out.host_fns.push(f.name.clone()),
                _ => {}
            }
        }
        self.check_pairing(program);
    }

    fn window_ext(&mut self, w: &WindowExtDef) {
        if !self.out.window_ext.fields.is_empty() {
            self.error(
                "multiple '_wnd_ struct' extensions; only one is allowed per program",
                w.span,
            );
            return;
        }
        let mut offset = 0usize;
        let mut fields = Vec::new();
        for (name, ty, fspan) in &w.fields {
            if WINDOW_BUILTINS.iter().any(|(b, _)| b == name) {
                self.error(
                    format!("window extension field '{name}' shadows a builtin window field"),
                    *fspan,
                );
            }
            if fields.iter().any(|(n, _, _): &(String, _, _)| n == name) {
                self.error(format!("duplicate window extension field '{name}'"), *fspan);
            }
            fields.push((name.clone(), *ty, offset));
            offset += ty.size();
        }
        self.out.window_ext = WindowExtLayout {
            name: w.name.clone(),
            fields,
        };
    }

    fn host_const(&mut self, g: &GlobalDecl) {
        if !g.spec.konst {
            self.error(
                format!(
                    "global '{}' is neither '_net_' (switch memory) nor 'const' \
                     (host constant); plain host globals are not visible to kernels",
                    g.name
                ),
                g.span,
            );
            return;
        }
        let TypeExpr::Scalar(ty) = g.ty else {
            self.error(
                format!("host constant '{}' must have scalar type", g.name),
                g.span,
            );
            return;
        };
        let Some(Initializer::Scalar(e)) = &g.init else {
            self.error(
                format!("host constant '{}' requires a scalar initializer", g.name),
                g.span,
            );
            return;
        };
        match self.const_eval(e) {
            Some(v) => {
                self.out.consts.insert(g.name.clone(), v.cast(ty));
            }
            None => self.error(
                format!("initializer of '{}' is not a constant expression", g.name),
                e.span(),
            ),
        }
    }

    fn switch_global(&mut self, g: &GlobalDecl) {
        if self.out.global(&g.name).is_some() {
            self.error(format!("duplicate global '{}'", g.name), g.span);
            return;
        }
        let at = g.spec.at.as_deref().map(Label::new);
        let kind = match &g.ty {
            TypeExpr::Map {
                key,
                value,
                capacity,
            } => {
                if g.spec.ctrl {
                    self.warn(
                        "'_ctrl_' on an ncl::Map is redundant; maps are implicitly control-plane managed",
                        g.span,
                    );
                }
                if at.is_none() {
                    self.error(
                        format!(
                            "map '{}' requires a location: it is control-plane state \
                             (declare it '_at_(\"label\")')",
                            g.name
                        ),
                        g.span,
                    );
                }
                if g.init.is_some() {
                    self.error(
                        format!(
                            "map '{}' cannot have an initializer; the control plane populates it",
                            g.name
                        ),
                        g.span,
                    );
                }
                let capacity = match self.const_eval(capacity) {
                    Some(v) if v.bits() > 0 => v.bits() as usize,
                    _ => {
                        self.error(
                            format!("map '{}' capacity must be a positive constant", g.name),
                            g.span,
                        );
                        return;
                    }
                };
                GlobalKind::Map {
                    key: *key,
                    value: *value,
                    capacity,
                }
            }
            TypeExpr::Scalar(ty) if g.spec.ctrl => {
                // Paper §4.1: "_net_ _ctrl_ _at_(label) ... i.e. location
                // is required".
                if at.is_none() {
                    self.error(
                        format!(
                            "control variable '{}' requires an '_at_(\"label\")' location",
                            g.name
                        ),
                        g.span,
                    );
                }
                let init = match &g.init {
                    None => Value::zero(*ty),
                    Some(Initializer::Scalar(e)) => match self.const_eval(e) {
                        Some(v) => v.cast(*ty),
                        None => {
                            self.error("control variable initializer must be constant", e.span());
                            Value::zero(*ty)
                        }
                    },
                    Some(Initializer::List(_)) => {
                        self.error(
                            "control variables are scalars; list initializer invalid",
                            g.span,
                        );
                        Value::zero(*ty)
                    }
                };
                GlobalKind::Ctrl { ty: *ty, init }
            }
            TypeExpr::Scalar(ty) => {
                let init = match &g.init {
                    None => Value::zero(*ty),
                    Some(Initializer::Scalar(e)) => match self.const_eval(e) {
                        Some(v) => v.cast(*ty),
                        None => {
                            self.error("switch memory initializer must be constant", e.span());
                            Value::zero(*ty)
                        }
                    },
                    Some(Initializer::List(items)) if items.len() <= 1 => match items.first() {
                        Some(Initializer::Scalar(e)) => {
                            self.const_eval(e).map(|v| v.cast(*ty)).unwrap_or_else(|| {
                                self.error("switch memory initializer must be constant", e.span());
                                Value::zero(*ty)
                            })
                        }
                        _ => Value::zero(*ty),
                    },
                    Some(Initializer::List(_)) => {
                        self.error(
                            format!(
                                "scalar '{}' cannot take a multi-element initializer",
                                g.name
                            ),
                            g.span,
                        );
                        Value::zero(*ty)
                    }
                };
                let mut prefix = InitPrefix::new(*ty, 1);
                prefix.set(0, init);
                GlobalKind::Register {
                    elem: *ty,
                    dims: vec![],
                    init: prefix.finish(),
                }
            }
            TypeExpr::Array(elem, dim_exprs) => {
                if g.spec.ctrl {
                    self.error(
                        format!("control variable '{}' must be a scalar", g.name),
                        g.span,
                    );
                }
                let mut dims = Vec::new();
                for d in dim_exprs {
                    match self.const_eval(d) {
                        Some(v) if v.bits() > 0 => dims.push(v.bits() as usize),
                        _ => {
                            self.error(
                                format!(
                                    "array dimension of '{}' must be a positive constant",
                                    g.name
                                ),
                                d.span(),
                            );
                            dims.push(1);
                        }
                    }
                }
                let mut init = InitPrefix::new(*elem, dims.iter().product());
                if let Some(i) = &g.init {
                    self.fill_array_init(i, &dims, &mut init, 0, g.span);
                }
                GlobalKind::Register {
                    elem: *elem,
                    dims,
                    init: init.finish(),
                }
            }
            TypeExpr::Ptr(_) => {
                self.error(
                    format!("switch memory '{}' cannot be a pointer", g.name),
                    g.span,
                );
                return;
            }
            TypeExpr::Void => {
                self.error(format!("global '{}' cannot be void", g.name), g.span);
                return;
            }
        };
        self.out.globals.push(GlobalInfo {
            name: g.name.clone(),
            at,
            kind,
            span: g.span,
        });
    }

    /// Fills a flattened array initializer following C's brace rules
    /// (`{0}` zero-fills; `{{0}}` zero-fills rows).
    fn fill_array_init(
        &mut self,
        init: &Initializer,
        dims: &[usize],
        out: &mut InitPrefix,
        base: usize,
        span: Span,
    ) {
        match init {
            Initializer::Scalar(e) => {
                if let Some(v) = self.const_eval(e) {
                    out.set(base, v);
                } else {
                    self.error("array initializer element must be constant", e.span());
                }
            }
            Initializer::List(items) => {
                if dims.len() <= 1 {
                    for (i, item) in items.iter().enumerate() {
                        match item {
                            Initializer::Scalar(e) => {
                                if let Some(v) = self.const_eval(e) {
                                    if !out.set(base + i, v) {
                                        self.error("too many initializer elements", e.span());
                                        return;
                                    }
                                }
                            }
                            Initializer::List(_) => {
                                self.error("unexpected nested initializer", span)
                            }
                        }
                    }
                } else {
                    let row: usize = dims[1..].iter().product();
                    for (i, item) in items.iter().enumerate() {
                        if i >= dims[0] {
                            self.error("too many initializer rows", span);
                            return;
                        }
                        self.fill_array_init(item, &dims[1..], out, base + i * row, span);
                    }
                }
            }
        }
    }

    /// Evaluates a constant expression (literals, named constants,
    /// arithmetic, sizeof, casts).
    fn const_eval(&self, e: &Expr) -> Option<Value> {
        const_eval_with(e, &self.out.consts)
    }

    fn kernel(&mut self, k: &KernelDef) {
        if self.out.kernel(&k.name).is_some() && k.spec.at.is_none() {
            self.error(
                format!(
                    "duplicate kernel '{}' without a location; use '_at_' to \
                     place different versions on different switches",
                    k.name
                ),
                k.span,
            );
        }
        match &k.ret {
            TypeExpr::Void | TypeExpr::Scalar(ScalarType::I32) => {}
            other => self.error(
                format!("kernel return type must be void or int, found {other}"),
                k.span,
            ),
        }
        if k.kind == KernelKind::Incoming {
            if let Some(at) = &k.spec.at {
                // Paper: "a location is meaningless for incoming kernels".
                self.warn(
                    format!("'_at_(\"{at}\")' on incoming kernel '{}' is ignored: incoming kernels exist on all hosts", k.name),
                    k.spec.span,
                );
            }
        }
        let mut params = Vec::new();
        for p in &k.params {
            if p.ext && k.kind == KernelKind::Outgoing {
                self.error(
                    format!(
                        "'_ext_' parameter '{}' is only valid on '_in_' kernels",
                        p.name
                    ),
                    p.span,
                );
            }
            let (elem, is_ptr) = match &p.ty {
                TypeExpr::Ptr(s) => (*s, true),
                TypeExpr::Scalar(s) => (*s, false),
                other => {
                    self.error(
                        format!("parameter '{}' has unsupported type {other}", p.name),
                        p.span,
                    );
                    (ScalarType::I32, false)
                }
            };
            if params.iter().any(|q: &ParamInfo| q.name == p.name) {
                self.error(format!("duplicate parameter '{}'", p.name), p.span);
            }
            params.push(ParamInfo {
                name: p.name.clone(),
                elem,
                is_ptr,
                ext: p.ext,
            });
        }
        // `_ext_` params must trail the window-data params so the pairing
        // rule ("must match its parameter list") is positional.
        let mut seen_ext = false;
        for p in &params {
            if p.ext {
                seen_ext = true;
            } else if seen_ext {
                self.error(
                    format!(
                        "window parameter '{}' follows an '_ext_' parameter; \
                         '_ext_' parameters extend the list at the end",
                        p.name
                    ),
                    k.span,
                );
                break;
            }
        }
        let info = KernelInfo {
            name: k.name.clone(),
            kind: k.kind,
            at: k.spec.at.as_deref().map(Label::new),
            params,
            body: k.body.clone(),
            span: k.span,
        };
        self.check_body(&info);
        self.out.kernels.push(info);
    }

    /// Pairing check: each `_in_` kernel's window parameters must match
    /// some `_out_` kernel's window parameters positionally (paper §4.1).
    fn check_pairing(&mut self, _program: &Program) {
        let outs: Vec<Vec<(ScalarType, bool)>> = self
            .out
            .kernels
            .iter()
            .filter(|k| k.kind == KernelKind::Outgoing)
            .map(|k| k.window_params().map(|p| (p.elem, p.is_ptr)).collect())
            .collect();
        let unpaired: Vec<(String, Span)> = self
            .out
            .kernels
            .iter()
            .filter(|k| k.kind == KernelKind::Incoming)
            .filter(|k| {
                let sig: Vec<(ScalarType, bool)> =
                    k.window_params().map(|p| (p.elem, p.is_ptr)).collect();
                !outs.is_empty() && !outs.iter().any(|o| o == &sig)
            })
            .map(|k| (k.name.clone(), k.span))
            .collect();
        for (name, span) in unpaired {
            self.error(
                format!(
                    "incoming kernel '{name}' does not match any outgoing kernel's \
                     parameter list; window data must be accessed in the same manner"
                ),
                span,
            );
        }
    }

    // ------------------------------------------------------------------
    // Body type checking
    // ------------------------------------------------------------------

    fn check_body(&mut self, k: &KernelInfo) {
        let mut scope = Scope::new();
        for p in &k.params {
            let ty = if p.is_ptr {
                Ty::Ptr(p.elem)
            } else {
                Ty::Scalar(p.elem)
            };
            scope.declare(&p.name, ty);
        }
        let mut body_cx = BodyCx {
            checker: self,
            kernel: k,
            scope,
            loop_depth: 0,
        };
        body_cx.block(&k.body);
    }
}

struct Scope {
    frames: Vec<HashMap<String, Ty>>,
}

impl Scope {
    fn new() -> Self {
        Scope {
            frames: vec![HashMap::new()],
        }
    }

    fn push(&mut self) {
        self.frames.push(HashMap::new());
    }

    fn pop(&mut self) {
        self.frames.pop();
    }

    fn declare(&mut self, name: &str, ty: Ty) {
        self.frames
            .last_mut()
            .expect("scope stack never empty")
            .insert(name.to_string(), ty);
    }

    fn lookup(&self, name: &str) -> Option<&Ty> {
        self.frames.iter().rev().find_map(|f| f.get(name))
    }

    fn shadows(&self, name: &str) -> bool {
        self.frames
            .last()
            .map(|f| f.contains_key(name))
            .unwrap_or(false)
    }
}

struct BodyCx<'a> {
    checker: &'a mut Checker,
    kernel: &'a KernelInfo,
    scope: Scope,
    loop_depth: u32,
}

impl BodyCx<'_> {
    fn error(&mut self, msg: impl Into<String>, span: Span) {
        self.checker.error(msg, span);
    }

    fn block(&mut self, b: &Block) {
        self.scope.push();
        for s in &b.stmts {
            self.stmt(s);
        }
        self.scope.pop();
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Block(b) => self.block(b),
            Stmt::Empty(_) => {}
            Stmt::Expr(e) => {
                // Assignments, calls, and inc/dec are the only
                // expressions with effects; anything else is dead.
                match e {
                    Expr::Assign { .. } | Expr::Call { .. } | Expr::IncDec { .. } => {
                        self.expr(e);
                    }
                    other => {
                        self.expr(other);
                        self.checker
                            .warn("expression statement has no effect", other.span());
                    }
                }
            }
            Stmt::Decl {
                ty,
                name,
                init,
                auto_ptr,
                span,
            } => self.decl(ty, name, init, *auto_ptr, *span),
            Stmt::If {
                decl,
                cond,
                then,
                els,
                ..
            } => {
                self.scope.push();
                let cond_ty = self.expr(cond);
                if let Some((name, dspan)) = decl {
                    match cond_ty {
                        Some(Ty::OptPtr(v)) => self.scope.declare(name, Ty::Ptr(v)),
                        Some(other) => {
                            self.error(
                                format!(
                                    "'if (auto *{name} = ...)' requires a map lookup, found {other}"
                                ),
                                *dspan,
                            );
                            self.scope.declare(name, Ty::Ptr(ScalarType::U8));
                        }
                        None => self.scope.declare(name, Ty::Ptr(ScalarType::U8)),
                    }
                } else if let Some(t) = &cond_ty {
                    if !t.is_condition() {
                        self.error(format!("condition has non-scalar type {t}"), cond.span());
                    }
                }
                self.stmt(then);
                if let Some(e) = els {
                    self.stmt(e);
                }
                self.scope.pop();
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                self.scope.push();
                if let Some(i) = init {
                    self.stmt(i);
                }
                if let Some(c) = cond {
                    if let Some(t) = self.expr(c) {
                        if !t.is_condition() {
                            self.error(format!("loop condition has non-scalar type {t}"), c.span());
                        }
                    }
                }
                if let Some(s) = step {
                    self.expr(s);
                }
                self.loop_depth += 1;
                self.stmt(body);
                self.loop_depth -= 1;
                self.scope.pop();
            }
            Stmt::While { cond, body, .. } => {
                if let Some(t) = self.expr(cond) {
                    if !t.is_condition() {
                        self.error(
                            format!("loop condition has non-scalar type {t}"),
                            cond.span(),
                        );
                    }
                }
                self.loop_depth += 1;
                self.stmt(body);
                self.loop_depth -= 1;
            }
            Stmt::Return(value, span) => {
                if let Some(v) = value {
                    if let Some(t) = self.expr(v) {
                        if t.as_scalar().is_none() {
                            self.error(format!("cannot return value of type {t}"), *span);
                        }
                    }
                }
            }
            Stmt::Break(span) => {
                if self.loop_depth == 0 {
                    self.error("'break' outside of a loop", *span);
                }
            }
            Stmt::Continue(span) => {
                if self.loop_depth == 0 {
                    self.error("'continue' outside of a loop", *span);
                }
            }
        }
    }

    fn decl(
        &mut self,
        ty: &Option<TypeExpr>,
        name: &str,
        init: &Option<Expr>,
        auto_ptr: bool,
        span: Span,
    ) {
        if self.scope.shadows(name) {
            self.error(format!("redeclaration of '{name}' in the same scope"), span);
        }
        if self.checker.out.global(name).is_some() {
            self.error(
                format!("local '{name}' shadows a switch global of the same name"),
                span,
            );
        }
        let declared = match ty {
            Some(TypeExpr::Scalar(s)) => Some(Ty::Scalar(*s)),
            Some(TypeExpr::Ptr(_)) => {
                self.error(
                    "pointer locals are only created by 'auto *x = Map[key]'",
                    span,
                );
                None
            }
            Some(other) => {
                self.error(format!("unsupported local type {other}"), span);
                None
            }
            None => None, // auto
        };
        let init_ty = init.as_ref().and_then(|e| self.expr(e));
        let final_ty = match (declared, ty.is_none(), init_ty) {
            // `auto *x = Idx[key];` — unchecked lookup (paper Fig. 5
            // line 12); deref of a miss reads index 0.
            (None, true, Some(Ty::OptPtr(v))) if auto_ptr => Ty::Ptr(v),
            (None, true, Some(other)) => {
                if auto_ptr {
                    self.error(
                        format!("'auto *{name}' requires a map lookup initializer, found {other}"),
                        span,
                    );
                    Ty::Ptr(ScalarType::U8)
                } else if let Some(s) = other.as_scalar() {
                    Ty::Scalar(s)
                } else {
                    self.error(format!("cannot infer scalar type from {other}"), span);
                    Ty::Scalar(ScalarType::I32)
                }
            }
            (None, true, None) => {
                self.error(format!("'auto {name}' requires an initializer"), span);
                Ty::Scalar(ScalarType::I32)
            }
            (Some(d), _, Some(i)) => {
                if let (Ty::Scalar(_), Some(_)) = (&d, i.as_scalar()) {
                    // Implicit conversion on init, C-style.
                } else if d != i {
                    self.error(
                        format!("cannot initialize '{name}' of type {d} from {i}"),
                        span,
                    );
                }
                d
            }
            (Some(d), _, None) => d,
            (None, false, _) => Ty::Scalar(ScalarType::I32),
        };
        self.scope.declare(name, final_ty);
    }

    /// Type-checks an expression; `None` means an error was already
    /// reported for a sub-expression.
    fn expr(&mut self, e: &Expr) -> Option<Ty> {
        match e {
            Expr::Int(v, unsigned, _) => {
                let ty = if *unsigned || *v > i64::MAX as u64 {
                    if *v > u32::MAX as u64 {
                        ScalarType::U64
                    } else {
                        ScalarType::U32
                    }
                } else if *v > i32::MAX as u64 {
                    ScalarType::I64
                } else {
                    ScalarType::I32
                };
                Some(Ty::Scalar(ty))
            }
            Expr::Bool(..) => Some(Ty::Scalar(ScalarType::Bool)),
            Expr::Char(..) => Some(Ty::Scalar(ScalarType::I8)),
            Expr::Str(_, span) => {
                self.error(
                    "string literals are only valid as '_at_'/'_pass'/'_here' arguments",
                    *span,
                );
                None
            }
            Expr::Ident(name, span) => self.ident(name, *span),
            Expr::WindowField(field, span) => self.window_field(field, *span),
            Expr::LocationField(field, span) => {
                match LOCATION_BUILTINS.iter().find(|(n, _)| n == field) {
                    Some((_, ty)) => Some(Ty::Scalar(*ty)),
                    None => {
                        self.error(
                            format!("'location' has no field '{field}' (available: id)"),
                            *span,
                        );
                        None
                    }
                }
            }
            Expr::Index { base, index, span } => self.index(base, index, *span),
            Expr::Unary { op, expr, span } => self.unary(*op, expr, *span),
            Expr::Binary { op, lhs, rhs, span } => self.binary(*op, lhs, rhs, *span),
            Expr::Assign { op, lhs, rhs, span } => self.assign(*op, lhs, rhs, *span),
            Expr::IncDec { target, span, .. } => {
                let t = self.expr(target)?;
                self.require_place(target, *span);
                match t.as_scalar() {
                    Some(s) => Some(Ty::Scalar(s)),
                    None => {
                        self.error(format!("cannot increment value of type {t}"), *span);
                        None
                    }
                }
            }
            Expr::Call { callee, args, span } => self.call(callee, args, *span),
            Expr::Cast { ty, expr, span } => {
                let t = self.expr(expr)?;
                if t.as_scalar().is_none() {
                    self.error(format!("cannot cast {t} to {ty}"), *span);
                    return None;
                }
                Some(Ty::Scalar(*ty))
            }
            Expr::Ternary {
                cond,
                then,
                els,
                span,
            } => {
                let c = self.expr(cond)?;
                if !c.is_condition() {
                    self.error(format!("condition has non-scalar type {c}"), cond.span());
                }
                let a = self.expr(then)?;
                let b = self.expr(els)?;
                match (a.as_scalar(), b.as_scalar()) {
                    (Some(x), Some(y)) => Some(Ty::Scalar(usual_conversion(x, y))),
                    _ => {
                        self.error(
                            format!("ternary arms must be scalars, found {a} and {b}"),
                            *span,
                        );
                        None
                    }
                }
            }
            Expr::SizeOf(..) => Some(Ty::Scalar(ScalarType::U32)),
        }
    }

    fn ident(&mut self, name: &str, span: Span) -> Option<Ty> {
        if let Some(t) = self.scope.lookup(name) {
            return Some(t.clone());
        }
        if let Some(v) = self.checker.out.consts.get(name) {
            return Some(Ty::Scalar(v.ty()));
        }
        if let Some(g) = self.checker.out.global(name).cloned() {
            // Location-conflict pre-check (the IR versioning pass redoes
            // this per module; catching it here gives a source span).
            let kernel_at = self.kernel.at.clone();
            if let (Some(gat), Some(kat)) = (&g.at, &kernel_at) {
                if gat != kat && self.kernel.kind == KernelKind::Outgoing {
                    self.error(
                        format!(
                            "kernel '{}' at \"{}\" uses switch memory '{}' placed at \"{}\"",
                            self.kernel.name, kat, name, gat
                        ),
                        span,
                    );
                }
            }
            if self.kernel.kind == KernelKind::Incoming {
                self.error(
                    format!(
                        "incoming kernel '{}' cannot access switch memory '{}'; \
                         incoming kernels run on hosts",
                        self.kernel.name, name
                    ),
                    span,
                );
            }
            return Some(g.ty());
        }
        self.error(format!("unknown identifier '{name}'"), span);
        None
    }

    fn window_field(&mut self, field: &str, span: Span) -> Option<Ty> {
        if let Some((_, ty)) = WINDOW_BUILTINS.iter().find(|(n, _)| *n == field) {
            return Some(Ty::Scalar(*ty));
        }
        if let Some((ty, _)) = self.checker.out.window_ext.field(field) {
            return Some(Ty::Scalar(ty));
        }
        let mut available: Vec<&str> = WINDOW_BUILTINS.iter().map(|(n, _)| *n).collect();
        let ext_names: Vec<String> = self
            .checker
            .out
            .window_ext
            .fields
            .iter()
            .map(|(n, _, _)| n.clone())
            .collect();
        available.extend(ext_names.iter().map(|s| s.as_str()));
        self.error(
            format!(
                "'window' has no field '{field}' (available: {})",
                available.join(", ")
            ),
            span,
        );
        None
    }

    fn index(&mut self, base: &Expr, index: &Expr, span: Span) -> Option<Ty> {
        let bt = self.expr(base)?;
        let it = self.expr(index)?;
        match &bt {
            Ty::Map(k, v, _) => {
                match it.as_scalar() {
                    Some(s) if s.unsigned() == k.unsigned() || s.size() <= k.size() => {}
                    Some(s) => self.checker.warn(
                        format!("map key of type {s} narrows/widens to {k}"),
                        index.span(),
                    ),
                    None => {
                        self.error(
                            format!("map key must be a scalar, found {it}"),
                            index.span(),
                        );
                    }
                }
                Some(Ty::OptPtr(*v))
            }
            _ => {
                if it.as_scalar().is_none() {
                    self.error(format!("index must be a scalar, found {it}"), index.span());
                }
                match bt {
                    Ty::Array(elem, dims) => match dims.len() {
                        0 | 1 => Some(Ty::Scalar(elem)),
                        2 => Some(Ty::Row(elem, dims[1])),
                        _ => {
                            self.error(
                                "arrays of more than two dimensions are not supported",
                                span,
                            );
                            None
                        }
                    },
                    Ty::Ptr(elem) => Some(Ty::Scalar(elem)),
                    Ty::Row(elem, _) => Some(Ty::Scalar(elem)),
                    other => {
                        self.error(format!("cannot index into {other}"), span);
                        None
                    }
                }
            }
        }
    }

    fn unary(&mut self, op: UnaryOp, expr: &Expr, span: Span) -> Option<Ty> {
        let t = self.expr(expr)?;
        match op {
            UnaryOp::Neg | UnaryOp::BitNot => match t.as_scalar() {
                Some(s) => Some(Ty::Scalar(promote(s))),
                None => {
                    self.error(format!("cannot apply unary operator to {t}"), span);
                    None
                }
            },
            UnaryOp::Not => {
                if t.is_condition() {
                    Some(Ty::Scalar(ScalarType::Bool))
                } else {
                    self.error(format!("cannot apply '!' to {t}"), span);
                    None
                }
            }
            UnaryOp::Deref => match t {
                Ty::Ptr(v) | Ty::OptPtr(v) => Some(Ty::Scalar(v)),
                other => {
                    self.error(format!("cannot dereference {other}"), span);
                    None
                }
            },
            UnaryOp::AddrOf => match (&t, expr) {
                (Ty::Scalar(s), Expr::Index { .. }) => Some(Ty::Ptr(*s)),
                (Ty::Scalar(s), Expr::Ident(..)) => Some(Ty::Ptr(*s)),
                _ => {
                    self.error(
                        "'&' is only supported on array elements and variables \
                         (as a memcpy operand)",
                        span,
                    );
                    None
                }
            },
        }
    }

    fn binary(&mut self, op: BinaryOp, lhs: &Expr, rhs: &Expr, span: Span) -> Option<Ty> {
        let lt = self.expr(lhs)?;
        let rt = self.expr(rhs)?;
        use BinaryOp::*;
        match op {
            LAnd | LOr => {
                if !lt.is_condition() || !rt.is_condition() {
                    self.error(
                        format!("logical operator on non-scalar operands ({lt}, {rt})"),
                        span,
                    );
                    return None;
                }
                Some(Ty::Scalar(ScalarType::Bool))
            }
            Eq | Ne | Lt | Le | Gt | Ge => {
                // Pointer null tests (`Idx[k] != 0`) are not in the
                // paper's examples; comparisons require scalars.
                match (lt.as_scalar(), rt.as_scalar()) {
                    (Some(_), Some(_)) => Some(Ty::Scalar(ScalarType::Bool)),
                    _ => {
                        self.error(format!("cannot compare {lt} with {rt}"), span);
                        None
                    }
                }
            }
            _ => match (lt.as_scalar(), rt.as_scalar()) {
                (Some(a), Some(b)) => Some(Ty::Scalar(usual_conversion(a, b))),
                _ => {
                    self.error(
                        format!("arithmetic on non-scalar operands ({lt}, {rt})"),
                        span,
                    );
                    None
                }
            },
        }
    }

    fn assign(&mut self, _op: AssignOp, lhs: &Expr, rhs: &Expr, span: Span) -> Option<Ty> {
        let lt = self.expr(lhs)?;
        self.require_place(lhs, span);
        let rt = self.expr(rhs)?;
        match (lt.as_scalar(), rt.as_scalar()) {
            (Some(l), Some(_)) => Some(Ty::Scalar(l)),
            _ => {
                self.error(format!("cannot assign {rt} to place of type {lt}"), span);
                None
            }
        }
    }

    /// Verifies that `e` denotes an assignable place and that the place
    /// is writable from this kernel (control variables and maps are not).
    fn require_place(&mut self, e: &Expr, span: Span) {
        match e {
            Expr::Ident(name, _) => {
                if self.scope.lookup(name).is_some() {
                    return; // locals and params are writable
                }
                if self.checker.out.consts.contains_key(name) {
                    self.error(format!("cannot assign to constant '{name}'"), span);
                    return;
                }
                if let Some(g) = self.checker.out.global(name) {
                    match g.kind {
                        GlobalKind::Ctrl { .. } => self.error(
                            format!(
                                "control variable '{name}' is read-only in kernel code; \
                                 host code writes it via ncl::ctrl_wr"
                            ),
                            span,
                        ),
                        GlobalKind::Map { .. } => self.error(
                            format!("map '{name}' is managed by the control plane"),
                            span,
                        ),
                        GlobalKind::Register { .. } => {}
                    }
                    return;
                }
                self.error(format!("unknown identifier '{name}'"), span);
            }
            Expr::Index { base, .. } => match &**base {
                Expr::Ident(name, _) => {
                    if let Some(g) = self.checker.out.global(name) {
                        if matches!(g.kind, GlobalKind::Map { .. }) {
                            self.error(
                                format!(
                                    "cannot insert into map '{name}' from kernel code; \
                                     the control plane manages map entries"
                                ),
                                span,
                            );
                        }
                    }
                }
                Expr::Index { .. } => {} // 2-D element write
                _ => {}
            },
            Expr::Unary {
                op: UnaryOp::Deref,
                expr,
                ..
            } => {
                // `*done = true` writes through an _ext_ pointer (hosts)
                // or a map-value pointer (switch: disallowed).
                if let Expr::Ident(name, _) = &**expr {
                    if let Some(Ty::Ptr(_)) = self.scope.lookup(name) {
                        return;
                    }
                }
                self.error("cannot assign through this pointer", span);
            }
            Expr::WindowField(field, _) => {
                // Builtin fields are read-only; extension fields may be
                // rewritten by kernels (they travel with the window).
                if self.checker.out.window_ext.field(field).is_none() {
                    self.error(format!("builtin window field '{field}' is read-only"), span);
                }
            }
            other => {
                self.error("expression is not an assignable place", other.span());
            }
        }
    }

    fn call(&mut self, callee: &str, args: &[Expr], span: Span) -> Option<Ty> {
        match callee {
            "_pass" => {
                self.require_outgoing(callee, span);
                match args {
                    [] => {}
                    [Expr::Str(..)] => {}
                    _ => self.error("_pass() takes no argument or one label string", span),
                }
                Some(Ty::Void)
            }
            "_drop" | "_reflect" | "_bcast" => {
                self.require_outgoing(callee, span);
                if !args.is_empty() {
                    self.error(format!("{callee}() takes no arguments"), span);
                }
                Some(Ty::Void)
            }
            "_here" => {
                if !matches!(args, [Expr::Str(..)]) {
                    self.error("_here() takes exactly one label string", span);
                }
                Some(Ty::Scalar(ScalarType::Bool))
            }
            "_hash" => {
                // Stdlib hash (paper §3.2: "Maps or bloom-filters"):
                // `_hash(value, salt)` → uint32_t, computed by the
                // stage's hash unit (lowered to a fixed ALU sequence).
                if args.len() != 2 {
                    self.error("_hash() takes (value, salt)", span);
                    return Some(Ty::Scalar(ScalarType::U32));
                }
                if let Some(t) = self.expr(&args[0]) {
                    if t.as_scalar().is_none() {
                        self.error(
                            format!("_hash value must be a scalar, found {t}"),
                            args[0].span(),
                        );
                    }
                }
                if let Some(t) = self.expr(&args[1]) {
                    if t.as_scalar().is_none() {
                        self.error("_hash salt must be a scalar constant", args[1].span());
                    }
                }
                Some(Ty::Scalar(ScalarType::U32))
            }
            "memcpy" => {
                if args.len() != 3 {
                    self.error("memcpy takes (dst, src, nbytes)", span);
                    return Some(Ty::Void);
                }
                let dst = self.expr(&args[0])?;
                let src = self.expr(&args[1])?;
                if !dst.is_pointerish() {
                    self.error(
                        format!("memcpy destination must be pointer-like, found {dst}"),
                        args[0].span(),
                    );
                }
                if !src.is_pointerish() {
                    self.error(
                        format!("memcpy source must be pointer-like, found {src}"),
                        args[1].span(),
                    );
                }
                if let Some(t) = self.expr(&args[2]) {
                    if t.as_scalar().is_none() {
                        self.error("memcpy length must be a scalar", args[2].span());
                    }
                }
                Some(Ty::Void)
            }
            other if other.starts_with("ncl::") => {
                self.error(
                    format!(
                        "host API '{other}' cannot be called from kernel code; \
                         it belongs to libncrt"
                    ),
                    span,
                );
                None
            }
            other => {
                self.error(
                    format!(
                        "call to '{other}': kernels cannot call functions \
                         (PISA provides no call stack)"
                    ),
                    span,
                );
                None
            }
        }
    }

    fn require_outgoing(&mut self, what: &str, span: Span) {
        if self.kernel.kind != KernelKind::Outgoing {
            self.error(
                format!("{what}() is a forwarding decision; only '_out_' kernels forward windows"),
                span,
            );
        }
    }
}

/// C integer promotion: anything narrower than `int` promotes to `int`.
pub fn promote(s: ScalarType) -> ScalarType {
    match s {
        ScalarType::Bool | ScalarType::I8 | ScalarType::I16 | ScalarType::U8 | ScalarType::U16 => {
            ScalarType::I32
        }
        other => other,
    }
}

/// C's usual arithmetic conversions, restricted to our integer types.
pub fn usual_conversion(a: ScalarType, b: ScalarType) -> ScalarType {
    let a = promote(a);
    let b = promote(b);
    if a == b {
        return a;
    }
    let (wider, narrower) = if a.size() >= b.size() { (a, b) } else { (b, a) };
    if wider.size() > narrower.size() {
        // The wider type wins; if the narrower is unsigned it still fits.
        return wider;
    }
    // Same width, different signedness: unsigned wins (C).
    wider.unsigned()
}

/// Evaluates a constant expression against a table of named constants.
pub fn const_eval_with(e: &Expr, consts: &HashMap<String, Value>) -> Option<Value> {
    use c3::BinOp as VB;
    match e {
        Expr::Int(v, unsigned, _) => Some(if *unsigned {
            if *v > u32::MAX as u64 {
                Value::u64(*v)
            } else {
                Value::u32(*v as u32)
            }
        } else if *v <= i32::MAX as u64 {
            Value::i32(*v as i32)
        } else {
            Value::i64(*v as i64)
        }),
        Expr::Bool(b, _) => Some(Value::bool(*b)),
        Expr::Char(c, _) => Some(Value::new(ScalarType::I8, *c as u64)),
        Expr::Ident(name, _) => consts.get(name).copied(),
        Expr::SizeOf(ty, _) => Some(Value::u32(ty.size() as u32)),
        Expr::Cast { ty, expr, .. } => Some(const_eval_with(expr, consts)?.cast(*ty)),
        Expr::Unary { op, expr, .. } => {
            let v = const_eval_with(expr, consts)?;
            let op = match op {
                UnaryOp::Neg => c3::UnOp::Neg,
                UnaryOp::BitNot => c3::UnOp::BitNot,
                UnaryOp::Not => c3::UnOp::Not,
                _ => return None,
            };
            Some(Value::unop(op, v))
        }
        Expr::Binary { op, lhs, rhs, .. } => {
            let a = const_eval_with(lhs, consts)?;
            let b = const_eval_with(rhs, consts)?;
            let vb = match op {
                BinaryOp::Add => VB::Add,
                BinaryOp::Sub => VB::Sub,
                BinaryOp::Mul => VB::Mul,
                BinaryOp::Div => VB::Div,
                BinaryOp::Rem => VB::Rem,
                BinaryOp::And => VB::And,
                BinaryOp::Or => VB::Or,
                BinaryOp::Xor => VB::Xor,
                BinaryOp::Shl => VB::Shl,
                BinaryOp::Shr => VB::Shr,
                BinaryOp::Eq => VB::Eq,
                BinaryOp::Ne => VB::Ne,
                BinaryOp::Lt => VB::Lt,
                BinaryOp::Le => VB::Le,
                BinaryOp::Gt => VB::Gt,
                BinaryOp::Ge => VB::Ge,
                BinaryOp::LAnd => {
                    return Some(Value::bool(a.is_truthy() && b.is_truthy()));
                }
                BinaryOp::LOr => {
                    return Some(Value::bool(a.is_truthy() || b.is_truthy()));
                }
            };
            let common = usual_conversion(a.ty(), b.ty());
            Some(Value::binop(vb, a.cast(common), b.cast(common)))
        }
        Expr::Ternary {
            cond, then, els, ..
        } => {
            let c = const_eval_with(cond, consts)?;
            if c.is_truthy() {
                const_eval_with(then, consts)
            } else {
                const_eval_with(els, consts)
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn check(src: &str) -> Result<CheckedProgram, Vec<Diagnostic>> {
        analyze(&parse(src, "t.ncl").expect("parse should succeed"), "t.ncl")
    }

    fn check_ok(src: &str) -> CheckedProgram {
        check(src).unwrap_or_else(|d| panic!("sema failed: {}", crate::diag::render(&d)))
    }

    fn first_error(src: &str) -> String {
        check(src).unwrap_err()[0].message.clone()
    }

    // ------------------------------------------------------------------
    // Globals
    // ------------------------------------------------------------------

    #[test]
    fn register_global_with_dims_and_init() {
        let p = check_ok(r#"_net_ _at_("s1") int accum[4] = {1, 2};"#);
        let g = p.global("accum").unwrap();
        let GlobalKind::Register { elem, dims, init } = &g.kind else {
            panic!()
        };
        assert_eq!(*elem, ScalarType::I32);
        assert_eq!(dims, &[4]);
        // The explicit prefix only: elements 2 and 3 are implied zeros.
        assert_eq!(init, &[Value::i32(1), Value::i32(2)]);
    }

    fn register_init(decl: &str) -> Vec<Value> {
        let p = check_ok(&format!("_net_ _at_(\"s1\") {decl};"));
        let GlobalKind::Register { init, .. } = &p.globals[0].kind else {
            panic!("{decl} is not a register")
        };
        init.clone()
    }

    #[test]
    fn register_init_is_the_explicit_prefix() {
        let i = Value::i32;
        assert_eq!(register_init("int a[8] = {1, 2}"), [i(1), i(2)]);
        assert_eq!(register_init("int z[8] = {0, 0, 3}"), [i(0), i(0), i(3)]);
        assert_eq!(register_init("int t[8] = {4, 0, 0}"), [i(4)]);
        assert_eq!(register_init("bool v[4] = {true}"), [Value::bool(true)]);
        let u = Value::u32;
        assert_eq!(
            register_init("uint32_t c[2][4] = {{1}, {2}}"),
            [u(1), u(0), u(0), u(0), u(2)]
        );
        assert_eq!(register_init("int accum[1 << 20] = {0}"), []);
        assert_eq!(register_init("int big[1 << 20]"), []);
        assert_eq!(register_init("char grid[4][8] = {{0}}"), []);
        assert_eq!(register_init("int x = 0"), []);
        assert_eq!(register_init("int y = 7"), [i(7)]);
    }

    #[test]
    fn too_many_initializer_elements_needs_no_full_buffer() {
        let msg = first_error(r#"_net_ _at_("s1") int a[2] = {1, 2, 3};"#);
        assert!(msg.contains("too many initializer elements"), "{msg}");
        let msg = first_error(r#"_net_ _at_("s1") int b[2][2] = {{1, 2}, {3, 4, 5}};"#);
        assert!(msg.contains("too many initializer elements"), "{msg}");
    }

    #[test]
    fn two_dim_zero_init() {
        let p = check_ok(r#"_net_ _at_("s1") char Cache[4][8] = {{0}};"#);
        let g = p.global("Cache").unwrap();
        let GlobalKind::Register { dims, init, .. } = &g.kind else {
            panic!()
        };
        assert_eq!(dims, &[4, 8]);
        assert!(init.is_empty());
    }

    #[test]
    fn dims_from_defines_and_consts() {
        let p = check_ok(
            "#define DATA_LEN 64\nconst int WIN = 8;\n_net_ _at_(\"s1\") unsigned count[DATA_LEN/WIN];",
        );
        let g = p.global("count").unwrap();
        let GlobalKind::Register { dims, .. } = &g.kind else {
            panic!()
        };
        assert_eq!(dims, &[8]);
    }

    #[test]
    fn ctrl_requires_location() {
        let msg = first_error("_net_ _ctrl_ unsigned nworkers;");
        assert!(msg.contains("requires an '_at_"), "{msg}");
    }

    #[test]
    fn ctrl_ok_with_location() {
        let p = check_ok(r#"_net_ _ctrl_ _at_("s1") unsigned nworkers = 4;"#);
        let g = p.global("nworkers").unwrap();
        assert!(matches!(
            g.kind,
            GlobalKind::Ctrl {
                ty: ScalarType::U32,
                ..
            }
        ));
    }

    #[test]
    fn map_global() {
        let p = check_ok(r#"_net_ _at_("s1") ncl::Map<uint64_t, uint8_t, 256> Idx;"#);
        let g = p.global("Idx").unwrap();
        assert!(matches!(g.kind, GlobalKind::Map { capacity: 256, .. }));
    }

    #[test]
    fn map_requires_location() {
        let msg = first_error("_net_ ncl::Map<uint64_t, uint8_t, 16> Idx;");
        assert!(msg.contains("requires a location"), "{msg}");
    }

    #[test]
    fn plain_host_global_rejected() {
        let msg = first_error("int leftovers;");
        assert!(msg.contains("not visible to kernels"), "{msg}");
    }

    #[test]
    fn host_const_folds() {
        let p = check_ok("const unsigned N = 4 * 8;");
        assert_eq!(p.consts["N"], Value::u32(32));
    }

    // ------------------------------------------------------------------
    // Kernels: specifier rules
    // ------------------------------------------------------------------

    #[test]
    fn ext_param_on_out_kernel_rejected() {
        let msg = first_error("_net_ _out_ void k(int *d, _ext_ int *h) {}");
        assert!(msg.contains("only valid on '_in_'"), "{msg}");
    }

    #[test]
    fn forwarding_in_incoming_kernel_rejected() {
        let src = "_net_ _out_ void k(int *d) {}\n\
                   _net_ _in_ void r(int *d) { _drop(); }";
        let diags = check(src).unwrap_err();
        assert!(diags
            .iter()
            .any(|d| d.message.contains("only '_out_' kernels forward")));
    }

    #[test]
    fn incoming_pairing_enforced() {
        let src = "_net_ _out_ void k(int *d) {}\n\
                   _net_ _in_ void r(uint64_t *d) {}";
        let msg = check(src).unwrap_err()[0].message.clone();
        assert!(msg.contains("does not match any outgoing kernel"), "{msg}");
    }

    #[test]
    fn incoming_pairing_ignores_ext_params() {
        check_ok(
            "_net_ _out_ void k(int *d) { _drop(); }\n\
             _net_ _in_ void r(int *d, _ext_ int *h, _ext_ bool *done) { *done = true; }",
        );
    }

    #[test]
    fn ctrl_read_only_in_kernels() {
        let src = r#"
            _net_ _ctrl_ _at_("s1") unsigned n;
            _net_ _out_ void k(int *d) { n = 3; }
        "#;
        let diags = check(src).unwrap_err();
        assert!(diags.iter().any(|d| d.message.contains("read-only")));
    }

    #[test]
    fn map_insert_rejected() {
        let src = r#"
            _net_ _at_("s1") ncl::Map<uint64_t, uint8_t, 16> Idx;
            _net_ _out_ void k(uint64_t key) { Idx[key] = 1; }
        "#;
        let diags = check(src).unwrap_err();
        assert!(
            diags.iter().any(|d| d.message.contains("control plane")),
            "{diags:?}"
        );
    }

    #[test]
    fn location_conflict_detected() {
        let src = r#"
            _net_ _at_("s2") int mem[4];
            _net_ _out_ _at_("s1") void k(int *d) { mem[0] = 1; }
        "#;
        let diags = check(src).unwrap_err();
        assert!(
            diags.iter().any(|d| d.message.contains("placed at \"s2\"")),
            "{diags:?}"
        );
    }

    #[test]
    fn incoming_cannot_touch_switch_memory() {
        let src = r#"
            _net_ _at_("s1") int mem[4];
            _net_ _out_ void k(int *d) { mem[0] += d[0]; }
            _net_ _in_ void r(int *d) { d[0] = mem[0]; }
        "#;
        let diags = check(src).unwrap_err();
        assert!(diags
            .iter()
            .any(|d| d.message.contains("cannot access switch memory")));
    }

    #[test]
    fn at_on_incoming_kernel_warns() {
        let p = check_ok(
            "_net_ _out_ void k(int *d) { _drop(); }\n\
             _net_ _in_ _at_(\"s1\") void r(int *d) {}",
        );
        assert!(p.warnings.iter().any(|w| w.message.contains("ignored")));
    }

    // ------------------------------------------------------------------
    // Bodies: types, places, builtins
    // ------------------------------------------------------------------

    #[test]
    fn window_builtin_fields_typed() {
        check_ok(
            "_net_ _out_ void k(int *d) { unsigned b = window.seq * 4u; \
             if (window.last) { _drop(); } }",
        );
    }

    #[test]
    fn unknown_window_field_lists_available() {
        let msg = first_error("_net_ _out_ void k(int *d) { unsigned x = window.wat; }");
        assert!(
            msg.contains("no field 'wat'") && msg.contains("seq"),
            "{msg}"
        );
    }

    #[test]
    fn wnd_ext_field_usable_and_writable() {
        check_ok(
            "_wnd_ struct W { uint16_t stride; };\n\
             _net_ _out_ void k(int *d) { unsigned s = window.stride; window.stride = 3; }",
        );
    }

    #[test]
    fn builtin_window_field_not_writable() {
        let msg = first_error("_net_ _out_ void k(int *d) { window.seq = 0; }");
        assert!(msg.contains("read-only"), "{msg}");
    }

    #[test]
    fn map_lookup_in_if_decl() {
        check_ok(
            r#"
            _net_ _at_("s1") ncl::Map<uint64_t, uint8_t, 16> Idx;
            _net_ _at_("s1") bool Valid[16] = {false};
            _net_ _out_ void k(uint64_t key) {
                if (auto *idx = Idx[key]) { Valid[*idx] = false; }
            }
            "#,
        );
    }

    #[test]
    fn auto_ptr_requires_map_lookup() {
        let msg = first_error("_net_ _out_ void k(int *d) { auto *p = d[0]; }");
        assert!(msg.contains("map lookup"), "{msg}");
    }

    #[test]
    fn deref_of_scalar_rejected() {
        let msg = first_error("_net_ _out_ void k(int *d) { int x = *window.seq; }");
        assert!(msg.contains("dereference"), "{msg}");
    }

    #[test]
    fn memcpy_rows_and_pointers() {
        check_ok(
            r#"
            _net_ _at_("s1") char Cache[16][32] = {{0}};
            _net_ _at_("s1") ncl::Map<uint64_t, uint8_t, 16> Idx;
            _net_ _out_ void k(uint64_t key, char *val) {
                if (auto *i = Idx[key]) { memcpy(val, Cache[*i], 32); _reflect(); }
            }
            "#,
        );
    }

    #[test]
    fn memcpy_scalar_dst_rejected() {
        let msg = first_error("_net_ _out_ void k(int *d) { memcpy(d[0], d, 4); }");
        assert!(msg.contains("destination must be pointer-like"), "{msg}");
    }

    #[test]
    fn call_to_unknown_function_rejected() {
        let msg = first_error("_net_ _out_ void k(int *d) { helper(d); }");
        assert!(msg.contains("no call stack"), "{msg}");
    }

    #[test]
    fn host_api_in_kernel_rejected() {
        let msg = first_error("_net_ _out_ void k(int *d) { ncl::ctrl_wr(d, 1); }");
        assert!(msg.contains("libncrt"), "{msg}");
    }

    #[test]
    fn break_outside_loop() {
        let msg = first_error("_net_ _out_ void k(int *d) { break; }");
        assert!(msg.contains("outside of a loop"), "{msg}");
    }

    #[test]
    fn assign_to_constant_rejected() {
        let msg = first_error("const int N = 3;\n_net_ _out_ void k(int *d) { N = 4; }");
        assert!(msg.contains("constant"), "{msg}");
    }

    #[test]
    fn here_builtin_returns_bool() {
        check_ok(r#"_net_ _out_ void k(int *d) { if (_here("s1")) { _drop(); } }"#);
    }

    #[test]
    fn location_id_field() {
        check_ok("_net_ _out_ void k(int *d) { if (location.id == 1) { _drop(); } }");
    }

    #[test]
    fn usual_conversions() {
        assert_eq!(
            usual_conversion(ScalarType::U8, ScalarType::I32),
            ScalarType::I32
        );
        assert_eq!(
            usual_conversion(ScalarType::U32, ScalarType::I32),
            ScalarType::U32
        );
        assert_eq!(
            usual_conversion(ScalarType::I64, ScalarType::U32),
            ScalarType::I64
        );
        assert_eq!(
            usual_conversion(ScalarType::Bool, ScalarType::Bool),
            ScalarType::I32
        );
    }

    // ------------------------------------------------------------------
    // The paper's figures pass sema end-to-end
    // ------------------------------------------------------------------

    const FIG4: &str = r#"
#define DATA_LEN 1024
#define WIN_LEN 32
_wnd_ struct W { uint16_t wlen; };
_net_ _at_("s1") int accum[DATA_LEN] = {0};
_net_ _at_("s1") unsigned count[DATA_LEN/WIN_LEN] = {0};
_net_ _at_("s1") _ctrl_ unsigned nworkers;

_net_ _out_ void allreduce(int *data) {
    unsigned base = window.seq * window.len;
    for (unsigned i = 0; i < window.len; ++i)
        accum[base + i] += data[i];
    if (++count[window.seq] == nworkers) {
        memcpy(data, &accum[base], window.len * 4);
        count[window.seq] = 0; _bcast();
    } else { _drop(); }
}

_net_ _in_ void result(int *data, _ext_ int *hdata, _ext_ bool *done) {
    for (unsigned i = 0; i < window.len; ++i)
        hdata[window.seq * window.len + i] = data[i];
    if (window.last) *done = true;
}
"#;

    #[test]
    fn fig4_allreduce_checks() {
        let p = check_ok(FIG4);
        assert_eq!(p.kernels.len(), 2);
        let out = p.kernel("allreduce").unwrap();
        assert_eq!(out.window_params().count(), 1);
        let inn = p.kernel("result").unwrap();
        assert_eq!(inn.window_params().count(), 1);
        assert_eq!(inn.params.len(), 3);
    }

    const FIG5: &str = r#"
const uint16_t SERVER = 2;
_net_ _at_("s1") ncl::Map<uint64_t, uint8_t, 256> Idx;
_net_ _at_("s1") char Cache[256][128] = {{0}};
_net_ _at_("s1") bool Valid[256] = {false};

_net_ _out_ void query(uint64_t key, char *val, bool update) {
    if (window.from != SERVER && update) {
        if (auto *idx = Idx[key]) Valid[*idx] = false;
    } else if (window.from != SERVER) {
        if (auto *idx = Idx[key]) {
            if (Valid[*idx]) {
                memcpy(val, Cache[*idx], 128); _reflect(); } }
    } else if (update) {
        auto *idx = Idx[key]; memcpy(Cache[*idx], val, 128);
        Valid[*idx] = true; _drop();
    } else { }
}
"#;

    #[test]
    fn fig5_kvs_checks() {
        let p = check_ok(FIG5);
        let k = p.kernel("query").unwrap();
        assert_eq!(k.window_params().count(), 3);
        assert!(!k.params[0].is_ptr);
        assert!(k.params[1].is_ptr);
    }
}
