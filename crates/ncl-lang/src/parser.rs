//! Recursive-descent parser for NCL.
//!
//! Produces the [`crate::ast`] types. Expression parsing uses precedence
//! climbing with C's operator table. The parser is deliberately tolerant
//! about *semantic* rules (it accepts `while`, `break`, pointer
//! dereference anywhere, …) so that `sema` and the conformance pass can
//! reject them with better, domain-specific messages — exactly the split
//! the paper's Fig. 6 draws between the frontend and the conformance
//! stage.

use crate::ast::*;
use crate::diag::{Diagnostic, Span};
use crate::token::{Token, TokenKind};
use c3::ScalarType;

/// Parses a token stream (as produced by [`crate::lexer::lex`]).
pub(crate) fn parse_tokens(tokens: &[Token], file: &str) -> Result<Program, Vec<Diagnostic>> {
    let mut p = Parser {
        toks: tokens,
        pos: 0,
        file,
        diags: Vec::new(),
    };
    let program = p.program();
    if p.diags.is_empty() {
        Ok(program)
    } else {
        Err(p.diags)
    }
}

struct Parser<'t> {
    toks: &'t [Token],
    pos: usize,
    file: &'t str,
    diags: Vec<Diagnostic>,
}

/// Internal early-exit error; the message already sits in `diags`.
struct Bail;

type PResult<T> = Result<T, Bail>;

impl<'t> Parser<'t> {
    fn peek(&self) -> &TokenKind {
        &self.toks[self.pos.min(self.toks.len() - 1)].kind
    }

    fn peek_at(&self, n: usize) -> &TokenKind {
        &self.toks[(self.pos + n).min(self.toks.len() - 1)].kind
    }

    fn span(&self) -> Span {
        self.toks[self.pos.min(self.toks.len() - 1)].span
    }

    fn bump(&mut self) -> &'t Token {
        let t = &self.toks[self.pos.min(self.toks.len() - 1)];
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> PResult<Span> {
        if self.peek() == &kind {
            Ok(self.bump().span)
        } else {
            self.err_here(format!(
                "expected {} but found {}",
                kind.describe(),
                self.peek().describe()
            ));
            Err(Bail)
        }
    }

    fn err_here(&mut self, msg: impl Into<String>) {
        let span = self.span();
        self.diags.push(Diagnostic::error(msg, span, self.file));
    }

    fn err_at(&mut self, msg: impl Into<String>, span: Span) {
        self.diags.push(Diagnostic::error(msg, span, self.file));
    }

    /// Skips to the next likely item boundary after an error.
    fn synchronize_item(&mut self) {
        let mut depth = 0usize;
        loop {
            match self.peek() {
                TokenKind::Eof => return,
                TokenKind::LBrace => {
                    depth += 1;
                    self.bump();
                }
                TokenKind::RBrace => {
                    self.bump();
                    if depth <= 1 {
                        return;
                    }
                    depth -= 1;
                }
                TokenKind::Semi if depth == 0 => {
                    self.bump();
                    return;
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Items
    // ------------------------------------------------------------------

    fn program(&mut self) -> Program {
        let mut items = Vec::new();
        while self.peek() != &TokenKind::Eof {
            match self.item() {
                Ok(item) => items.push(item),
                Err(Bail) => self.synchronize_item(),
            }
        }
        Program { items }
    }

    fn item(&mut self) -> PResult<Item> {
        if self.peek() == &TokenKind::KwWnd {
            return self.window_ext().map(Item::WindowExt);
        }
        let spec = self.specifiers()?;
        let ty = self.type_expr()?;
        let name_span = self.span();
        let name = self.ident()?;
        if self.peek() == &TokenKind::LParen {
            self.function(spec, ty, name, name_span)
        } else {
            self.global(spec, ty, name, name_span).map(Item::Global)
        }
    }

    fn specifiers(&mut self) -> PResult<Specifiers> {
        let mut spec = Specifiers {
            span: self.span(),
            ..Specifiers::default()
        };
        loop {
            match self.peek() {
                TokenKind::KwNet => {
                    if spec.net {
                        self.err_here("duplicate '_net_' specifier");
                    }
                    spec.net = true;
                    self.bump();
                }
                TokenKind::KwOut => {
                    if spec.out {
                        self.err_here("duplicate '_out_' specifier");
                    }
                    spec.out = true;
                    self.bump();
                }
                TokenKind::KwIn => {
                    if spec.inn {
                        self.err_here("duplicate '_in_' specifier");
                    }
                    spec.inn = true;
                    self.bump();
                }
                TokenKind::KwCtrl => {
                    if spec.ctrl {
                        self.err_here("duplicate '_ctrl_' specifier");
                    }
                    spec.ctrl = true;
                    self.bump();
                }
                TokenKind::KwConst => {
                    spec.konst = true;
                    self.bump();
                }
                TokenKind::KwAt => {
                    self.bump();
                    self.expect(TokenKind::LParen)?;
                    let label = match self.peek().clone() {
                        TokenKind::Str(s) => {
                            self.bump();
                            s
                        }
                        other => {
                            self.err_here(format!(
                                "_at_ expects a string label, found {}",
                                other.describe()
                            ));
                            return Err(Bail);
                        }
                    };
                    self.expect(TokenKind::RParen)?;
                    if spec.at.replace(label).is_some() {
                        self.err_here("duplicate '_at_' specifier");
                    }
                }
                _ => break,
            }
        }
        Ok(spec)
    }

    fn window_ext(&mut self) -> PResult<WindowExtDef> {
        let start = self.span();
        self.expect(TokenKind::KwWnd)?;
        self.expect(TokenKind::KwStruct)?;
        let name = self.ident()?;
        self.expect(TokenKind::LBrace)?;
        let mut fields = Vec::new();
        while self.peek() != &TokenKind::RBrace {
            let fspan = self.span();
            let ty = self.scalar_type()?;
            let fname = self.ident()?;
            self.expect(TokenKind::Semi)?;
            fields.push((fname, ty, fspan));
        }
        self.expect(TokenKind::RBrace)?;
        self.expect(TokenKind::Semi)?;
        Ok(WindowExtDef {
            name,
            fields,
            span: start,
        })
    }

    fn global(
        &mut self,
        spec: Specifiers,
        mut ty: TypeExpr,
        name: String,
        span: Span,
    ) -> PResult<GlobalDecl> {
        // Array dimensions follow the name: `int accum[DATA_LEN]`.
        let mut dims = Vec::new();
        while self.eat(&TokenKind::LBracket) {
            dims.push(self.expr()?);
            self.expect(TokenKind::RBracket)?;
        }
        if !dims.is_empty() {
            match ty {
                TypeExpr::Scalar(s) => ty = TypeExpr::Array(s, dims),
                _ => {
                    self.err_at("array dimensions on a non-scalar base type", span);
                    return Err(Bail);
                }
            }
        }
        let init = if self.eat(&TokenKind::Assign) {
            Some(self.initializer()?)
        } else {
            None
        };
        self.expect(TokenKind::Semi)?;
        Ok(GlobalDecl {
            spec,
            ty,
            name,
            init,
            span,
        })
    }

    fn initializer(&mut self) -> PResult<Initializer> {
        if self.eat(&TokenKind::LBrace) {
            let mut items = Vec::new();
            if self.peek() != &TokenKind::RBrace {
                loop {
                    items.push(self.initializer()?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                    // Tolerate a trailing comma.
                    if self.peek() == &TokenKind::RBrace {
                        break;
                    }
                }
            }
            self.expect(TokenKind::RBrace)?;
            Ok(Initializer::List(items))
        } else {
            Ok(Initializer::Scalar(self.expr()?))
        }
    }

    fn function(
        &mut self,
        spec: Specifiers,
        ret: TypeExpr,
        name: String,
        span: Span,
    ) -> PResult<Item> {
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        if self.peek() != &TokenKind::RParen {
            loop {
                params.push(self.param()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen)?;
        let body = self.block()?;
        if spec.net || spec.out || spec.inn {
            let kind = match (spec.out, spec.inn) {
                (true, false) => KernelKind::Outgoing,
                (false, true) => KernelKind::Incoming,
                (true, true) => {
                    self.err_at("kernel cannot be both '_out_' and '_in_'", spec.span);
                    return Err(Bail);
                }
                (false, false) => {
                    self.err_at("'_net_' function must also be '_out_' or '_in_'", spec.span);
                    return Err(Bail);
                }
            };
            if !spec.net {
                self.err_at(
                    format!("'{}' kernel is missing the '_net_' specifier", kind),
                    spec.span,
                );
                return Err(Bail);
            }
            Ok(Item::Kernel(KernelDef {
                spec,
                kind,
                ret,
                name,
                params,
                body,
                span,
            }))
        } else {
            Ok(Item::HostFn(HostFnDef {
                ret,
                name,
                params,
                body,
                span,
            }))
        }
    }

    fn param(&mut self) -> PResult<Param> {
        let span = self.span();
        let ext = self.eat(&TokenKind::KwExt);
        let base = self.scalar_type()?;
        let ty = if self.eat(&TokenKind::Star) {
            TypeExpr::Ptr(base)
        } else {
            TypeExpr::Scalar(base)
        };
        let name = self.ident()?;
        Ok(Param {
            ext,
            ty,
            name,
            span,
        })
    }

    // ------------------------------------------------------------------
    // Types
    // ------------------------------------------------------------------

    fn is_type_start(&self) -> bool {
        match self.peek() {
            TokenKind::KwVoid
            | TokenKind::KwBool
            | TokenKind::KwChar
            | TokenKind::KwInt
            | TokenKind::KwUnsigned
            | TokenKind::KwSigned
            | TokenKind::KwShort
            | TokenKind::KwLong => true,
            TokenKind::Ident(name) => {
                scalar_by_name(name).is_some()
                    || (name == "ncl"
                        && self.peek_at(1) == &TokenKind::ColonColon
                        && matches!(self.peek_at(2), TokenKind::Ident(t) if t == "Map"))
            }
            _ => false,
        }
    }

    fn type_expr(&mut self) -> PResult<TypeExpr> {
        if self.peek() == &TokenKind::KwVoid {
            self.bump();
            // `void*` is not a thing in NCL.
            return Ok(TypeExpr::Void);
        }
        if let TokenKind::Ident(name) = self.peek() {
            if name == "ncl" && self.peek_at(1) == &TokenKind::ColonColon {
                return self.map_type();
            }
        }
        let base = self.scalar_type()?;
        if self.eat(&TokenKind::Star) {
            Ok(TypeExpr::Ptr(base))
        } else {
            Ok(TypeExpr::Scalar(base))
        }
    }

    /// Parses `ncl::Map<K, V, N>`.
    fn map_type(&mut self) -> PResult<TypeExpr> {
        self.bump(); // `ncl`
        self.expect(TokenKind::ColonColon)?;
        let which = self.ident()?;
        if which != "Map" {
            self.err_here(format!("unknown ncl:: stdlib type 'ncl::{which}'"));
            return Err(Bail);
        }
        self.expect(TokenKind::Lt)?;
        let key = self.scalar_type()?;
        self.expect(TokenKind::Comma)?;
        let value = self.scalar_type()?;
        self.expect(TokenKind::Comma)?;
        // Template arguments sit before `>` so only simple const
        // expressions (literals, named constants, parenthesized exprs)
        // are accepted here.
        let capacity = self.template_arg_expr()?;
        self.expect(TokenKind::Gt)?;
        Ok(TypeExpr::Map {
            key,
            value,
            capacity: Box::new(capacity),
        })
    }

    fn template_arg_expr(&mut self) -> PResult<Expr> {
        match self.peek().clone() {
            TokenKind::Int(v, u) => {
                let span = self.bump().span;
                Ok(Expr::Int(v, u, span))
            }
            TokenKind::Ident(name) => {
                let span = self.bump().span;
                Ok(Expr::Ident(name, span))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            other => {
                self.err_here(format!(
                    "expected a constant template argument, found {}",
                    other.describe()
                ));
                Err(Bail)
            }
        }
    }

    fn scalar_type(&mut self) -> PResult<ScalarType> {
        use TokenKind::*;
        let ty = match self.peek().clone() {
            KwBool => {
                self.bump();
                ScalarType::Bool
            }
            KwChar => {
                self.bump();
                ScalarType::I8
            }
            KwInt => {
                self.bump();
                ScalarType::I32
            }
            KwShort => {
                self.bump();
                self.eat(&KwInt);
                ScalarType::I16
            }
            KwLong => {
                self.bump();
                self.eat(&KwLong);
                self.eat(&KwInt);
                ScalarType::I64
            }
            KwSigned => {
                self.bump();
                match self.peek() {
                    KwChar => {
                        self.bump();
                        ScalarType::I8
                    }
                    KwShort => {
                        self.bump();
                        self.eat(&KwInt);
                        ScalarType::I16
                    }
                    KwLong => {
                        self.bump();
                        self.eat(&KwLong);
                        self.eat(&KwInt);
                        ScalarType::I64
                    }
                    _ => {
                        self.eat(&KwInt);
                        ScalarType::I32
                    }
                }
            }
            KwUnsigned => {
                self.bump();
                match self.peek() {
                    KwChar => {
                        self.bump();
                        ScalarType::U8
                    }
                    KwShort => {
                        self.bump();
                        self.eat(&KwInt);
                        ScalarType::U16
                    }
                    KwLong => {
                        self.bump();
                        self.eat(&KwLong);
                        self.eat(&KwInt);
                        ScalarType::U64
                    }
                    _ => {
                        self.eat(&KwInt);
                        ScalarType::U32
                    }
                }
            }
            Ident(name) => {
                if let Some(s) = scalar_by_name(&name) {
                    self.bump();
                    s
                } else {
                    self.err_here(format!("expected a type, found identifier '{name}'"));
                    return Err(Bail);
                }
            }
            other => {
                self.err_here(format!("expected a type, found {}", other.describe()));
                return Err(Bail);
            }
        };
        Ok(ty)
    }

    fn ident(&mut self) -> PResult<String> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => {
                self.err_here(format!(
                    "expected an identifier, found {}",
                    other.describe()
                ));
                Err(Bail)
            }
        }
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn block(&mut self) -> PResult<Block> {
        let start = self.expect(TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while self.peek() != &TokenKind::RBrace && self.peek() != &TokenKind::Eof {
            match self.stmt() {
                Ok(s) => stmts.push(s),
                Err(Bail) => self.synchronize_stmt(),
            }
        }
        let end = self.expect(TokenKind::RBrace)?;
        Ok(Block {
            stmts,
            span: start.to(end),
        })
    }

    fn synchronize_stmt(&mut self) {
        loop {
            match self.peek() {
                TokenKind::Eof | TokenKind::RBrace => return,
                TokenKind::Semi => {
                    self.bump();
                    return;
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    fn stmt(&mut self) -> PResult<Stmt> {
        let span = self.span();
        match self.peek() {
            TokenKind::LBrace => Ok(Stmt::Block(self.block()?)),
            TokenKind::Semi => {
                self.bump();
                Ok(Stmt::Empty(span))
            }
            TokenKind::KwIf => self.if_stmt(),
            TokenKind::KwFor => self.for_stmt(),
            TokenKind::KwWhile => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let cond = self.expr()?;
                self.expect(TokenKind::RParen)?;
                let body = Box::new(self.stmt()?);
                Ok(Stmt::While { cond, body, span })
            }
            TokenKind::KwReturn => {
                self.bump();
                let value = if self.peek() == &TokenKind::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Return(value, span))
            }
            TokenKind::KwBreak => {
                self.bump();
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Break(span))
            }
            TokenKind::KwContinue => {
                self.bump();
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Continue(span))
            }
            TokenKind::KwSwitch | TokenKind::KwGoto | TokenKind::KwDo => {
                let what = self.peek().glyph();
                self.err_here(format!("'{what}' is not part of the NCL kernel subset"));
                Err(Bail)
            }
            TokenKind::KwAuto => self.auto_decl(),
            _ if self.is_type_start() => self.local_decl(),
            _ => {
                let e = self.expr()?;
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Expr(e))
            }
        }
    }

    fn auto_decl(&mut self) -> PResult<Stmt> {
        let span = self.span();
        self.expect(TokenKind::KwAuto)?;
        let auto_ptr = self.eat(&TokenKind::Star);
        let name = self.ident()?;
        self.expect(TokenKind::Assign)?;
        let init = self.expr()?;
        self.expect(TokenKind::Semi)?;
        Ok(Stmt::Decl {
            ty: None,
            name,
            init: Some(init),
            auto_ptr,
            span,
        })
    }

    fn local_decl(&mut self) -> PResult<Stmt> {
        let span = self.span();
        let base = self.scalar_type()?;
        let ty = if self.eat(&TokenKind::Star) {
            TypeExpr::Ptr(base)
        } else {
            TypeExpr::Scalar(base)
        };
        let name = self.ident()?;
        if self.peek() == &TokenKind::LBracket {
            self.err_here(
                "local arrays are not supported in kernels; use switch memory (`_net_` globals)",
            );
            return Err(Bail);
        }
        let init = if self.eat(&TokenKind::Assign) {
            Some(self.expr()?)
        } else {
            None
        };
        self.expect(TokenKind::Semi)?;
        Ok(Stmt::Decl {
            ty: Some(ty),
            name,
            init,
            auto_ptr: false,
            span,
        })
    }

    fn if_stmt(&mut self) -> PResult<Stmt> {
        let span = self.span();
        self.expect(TokenKind::KwIf)?;
        self.expect(TokenKind::LParen)?;
        // C++17 init-condition: `if (auto *idx = Idx[key]) ...`
        let (decl, cond) = if self.peek() == &TokenKind::KwAuto {
            self.bump();
            self.expect(TokenKind::Star)?;
            let dspan = self.span();
            let name = self.ident()?;
            self.expect(TokenKind::Assign)?;
            let value = self.expr()?;
            (Some((name, dspan)), value)
        } else {
            (None, self.expr()?)
        };
        self.expect(TokenKind::RParen)?;
        let then = Box::new(self.stmt()?);
        let els = if self.eat(&TokenKind::KwElse) {
            Some(Box::new(self.stmt()?))
        } else {
            None
        };
        Ok(Stmt::If {
            decl,
            cond,
            then,
            els,
            span,
        })
    }

    fn for_stmt(&mut self) -> PResult<Stmt> {
        let span = self.span();
        self.expect(TokenKind::KwFor)?;
        self.expect(TokenKind::LParen)?;
        let init = if self.eat(&TokenKind::Semi) {
            None
        } else if self.is_type_start() {
            Some(Box::new(self.local_decl()?))
        } else {
            let e = self.expr()?;
            self.expect(TokenKind::Semi)?;
            Some(Box::new(Stmt::Expr(e)))
        };
        let cond = if self.peek() == &TokenKind::Semi {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(TokenKind::Semi)?;
        let step = if self.peek() == &TokenKind::RParen {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(TokenKind::RParen)?;
        let body = Box::new(self.stmt()?);
        Ok(Stmt::For {
            init,
            cond,
            step,
            body,
            span,
        })
    }

    // ------------------------------------------------------------------
    // Expressions (precedence climbing)
    // ------------------------------------------------------------------

    fn expr(&mut self) -> PResult<Expr> {
        self.assignment()
    }

    fn assignment(&mut self) -> PResult<Expr> {
        let lhs = self.ternary()?;
        let op = match self.peek() {
            TokenKind::Assign => AssignOp::Assign,
            TokenKind::PlusAssign => AssignOp::Add,
            TokenKind::MinusAssign => AssignOp::Sub,
            TokenKind::StarAssign => AssignOp::Mul,
            TokenKind::SlashAssign => AssignOp::Div,
            TokenKind::PercentAssign => AssignOp::Rem,
            TokenKind::AmpAssign => AssignOp::And,
            TokenKind::PipeAssign => AssignOp::Or,
            TokenKind::CaretAssign => AssignOp::Xor,
            TokenKind::ShlAssign => AssignOp::Shl,
            TokenKind::ShrAssign => AssignOp::Shr,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.assignment()?; // right-associative
        let span = lhs.span().to(rhs.span());
        Ok(Expr::Assign {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
            span,
        })
    }

    fn ternary(&mut self) -> PResult<Expr> {
        let cond = self.binary(0)?;
        if !self.eat(&TokenKind::Question) {
            return Ok(cond);
        }
        let then = self.expr()?;
        self.expect(TokenKind::Colon)?;
        let els = self.ternary()?;
        let span = cond.span().to(els.span());
        Ok(Expr::Ternary {
            cond: Box::new(cond),
            then: Box::new(then),
            els: Box::new(els),
            span,
        })
    }

    /// Binary operators by (binding) precedence level, lowest first.
    fn binary(&mut self, min_level: u8) -> PResult<Expr> {
        let mut lhs = self.unary()?;
        loop {
            let (op, level) = match self.peek() {
                TokenKind::OrOr => (BinaryOp::LOr, 1),
                TokenKind::AndAnd => (BinaryOp::LAnd, 2),
                TokenKind::Pipe => (BinaryOp::Or, 3),
                TokenKind::Caret => (BinaryOp::Xor, 4),
                TokenKind::Amp => (BinaryOp::And, 5),
                TokenKind::EqEq => (BinaryOp::Eq, 6),
                TokenKind::NotEq => (BinaryOp::Ne, 6),
                TokenKind::Lt => (BinaryOp::Lt, 7),
                TokenKind::Le => (BinaryOp::Le, 7),
                TokenKind::Gt => (BinaryOp::Gt, 7),
                TokenKind::Ge => (BinaryOp::Ge, 7),
                TokenKind::Shl => (BinaryOp::Shl, 8),
                TokenKind::Shr => (BinaryOp::Shr, 8),
                TokenKind::Plus => (BinaryOp::Add, 9),
                TokenKind::Minus => (BinaryOp::Sub, 9),
                TokenKind::Star => (BinaryOp::Mul, 10),
                TokenKind::Slash => (BinaryOp::Div, 10),
                TokenKind::Percent => (BinaryOp::Rem, 10),
                _ => break,
            };
            if level < min_level {
                break;
            }
            self.bump();
            let rhs = self.binary(level + 1)?;
            let span = lhs.span().to(rhs.span());
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> PResult<Expr> {
        let span = self.span();
        let op = match self.peek() {
            TokenKind::Minus => Some(UnaryOp::Neg),
            TokenKind::Tilde => Some(UnaryOp::BitNot),
            TokenKind::Bang => Some(UnaryOp::Not),
            TokenKind::Star => Some(UnaryOp::Deref),
            TokenKind::Amp => Some(UnaryOp::AddrOf),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let expr = self.unary()?;
            let span = span.to(expr.span());
            return Ok(Expr::Unary {
                op,
                expr: Box::new(expr),
                span,
            });
        }
        if matches!(self.peek(), TokenKind::PlusPlus | TokenKind::MinusMinus) {
            let inc = self.peek() == &TokenKind::PlusPlus;
            self.bump();
            let target = self.unary()?;
            let span = span.to(target.span());
            return Ok(Expr::IncDec {
                inc,
                prefix: true,
                target: Box::new(target),
                span,
            });
        }
        if self.peek() == &TokenKind::KwSizeof {
            self.bump();
            self.expect(TokenKind::LParen)?;
            let ty = self.scalar_type()?;
            let end = self.expect(TokenKind::RParen)?;
            return Ok(Expr::SizeOf(ty, span.to(end)));
        }
        // Cast: `(type) expr`. Distinguish from a parenthesized
        // expression by peeking for a type start after '('.
        if self.peek() == &TokenKind::LParen && self.type_starts_at(1) {
            self.bump();
            let ty = self.scalar_type()?;
            self.expect(TokenKind::RParen)?;
            let expr = self.unary()?;
            let span = span.to(expr.span());
            return Ok(Expr::Cast {
                ty,
                expr: Box::new(expr),
                span,
            });
        }
        self.postfix()
    }

    fn type_starts_at(&self, n: usize) -> bool {
        match self.peek_at(n) {
            TokenKind::KwBool
            | TokenKind::KwChar
            | TokenKind::KwInt
            | TokenKind::KwUnsigned
            | TokenKind::KwSigned
            | TokenKind::KwShort
            | TokenKind::KwLong => true,
            TokenKind::Ident(name) => scalar_by_name(name).is_some(),
            _ => false,
        }
    }

    fn postfix(&mut self) -> PResult<Expr> {
        let mut expr = self.primary()?;
        loop {
            match self.peek() {
                TokenKind::LBracket => {
                    self.bump();
                    let index = self.expr()?;
                    let end = self.expect(TokenKind::RBracket)?;
                    let span = expr.span().to(end);
                    expr = Expr::Index {
                        base: Box::new(expr),
                        index: Box::new(index),
                        span,
                    };
                }
                TokenKind::Dot => {
                    self.bump();
                    let fspan = self.span();
                    let field = self.ident()?;
                    let span = expr.span().to(fspan);
                    expr = match &expr {
                        Expr::Ident(name, _) if name == "window" => Expr::WindowField(field, span),
                        Expr::Ident(name, _) if name == "location" => {
                            Expr::LocationField(field, span)
                        }
                        _ => {
                            self.err_at(
                                "member access is only defined on the builtin \
                                 'window' and 'location' structs",
                                span,
                            );
                            return Err(Bail);
                        }
                    };
                }
                TokenKind::Arrow => {
                    let span = self.span();
                    self.err_at(
                        "'->' is not part of the NCL kernel subset; \
                         dereference with '*' instead",
                        span,
                    );
                    return Err(Bail);
                }
                TokenKind::PlusPlus | TokenKind::MinusMinus => {
                    let inc = self.peek() == &TokenKind::PlusPlus;
                    let end = self.bump().span;
                    let span = expr.span().to(end);
                    expr = Expr::IncDec {
                        inc,
                        prefix: false,
                        target: Box::new(expr),
                        span,
                    };
                }
                TokenKind::LParen => {
                    let callee = match &expr {
                        Expr::Ident(name, _) => name.clone(),
                        _ => {
                            self.err_here("only named functions can be called");
                            return Err(Bail);
                        }
                    };
                    self.bump();
                    let mut args = Vec::new();
                    if self.peek() != &TokenKind::RParen {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    let end = self.expect(TokenKind::RParen)?;
                    let span = expr.span().to(end);
                    expr = Expr::Call { callee, args, span };
                }
                _ => break,
            }
        }
        Ok(expr)
    }

    fn primary(&mut self) -> PResult<Expr> {
        let span = self.span();
        match self.peek().clone() {
            TokenKind::Int(v, u) => {
                self.bump();
                Ok(Expr::Int(v, u, span))
            }
            TokenKind::KwTrue => {
                self.bump();
                Ok(Expr::Bool(true, span))
            }
            TokenKind::KwFalse => {
                self.bump();
                Ok(Expr::Bool(false, span))
            }
            TokenKind::Char(c) => {
                self.bump();
                Ok(Expr::Char(c, span))
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(Expr::Str(s, span))
            }
            TokenKind::Ident(name) => {
                self.bump();
                // Qualified host-API names like `ncl::ctrl_wr`.
                if self.peek() == &TokenKind::ColonColon {
                    self.bump();
                    let rest = self.ident()?;
                    Ok(Expr::Ident(format!("{name}::{rest}"), span))
                } else {
                    Ok(Expr::Ident(name, span))
                }
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            other => {
                self.err_here(format!(
                    "expected an expression, found {}",
                    other.describe()
                ));
                Err(Bail)
            }
        }
    }
}

/// Resolves `uint32_t`-style typedef names.
fn scalar_by_name(name: &str) -> Option<ScalarType> {
    Some(match name {
        "uint8_t" => ScalarType::U8,
        "uint16_t" => ScalarType::U16,
        "uint32_t" => ScalarType::U32,
        "uint64_t" => ScalarType::U64,
        "int8_t" => ScalarType::I8,
        "int16_t" => ScalarType::I16,
        "int32_t" => ScalarType::I32,
        "int64_t" => ScalarType::I64,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn parse_ok(src: &str) -> Program {
        parse(src, "t.ncl").unwrap_or_else(|d| {
            panic!("parse failed: {}", crate::diag::render(&d));
        })
    }

    fn parse_err(src: &str) -> Vec<Diagnostic> {
        parse(src, "t.ncl").unwrap_err()
    }

    #[test]
    fn global_array_with_at() {
        let p = parse_ok(r#"_net_ _at_("s1") int accum[1024] = {0};"#);
        assert_eq!(p.items.len(), 1);
        let Item::Global(g) = &p.items[0] else {
            panic!("expected global")
        };
        assert!(g.spec.net);
        assert_eq!(g.spec.at.as_deref(), Some("s1"));
        assert!(matches!(&g.ty, TypeExpr::Array(ScalarType::I32, dims) if dims.len() == 1));
        assert!(matches!(g.init, Some(Initializer::List(_))));
    }

    #[test]
    fn two_dim_array() {
        let p = parse_ok(r#"_net_ _at_("s1") char Cache[256][128] = {{0}};"#);
        let Item::Global(g) = &p.items[0] else {
            panic!()
        };
        assert!(matches!(&g.ty, TypeExpr::Array(ScalarType::I8, dims) if dims.len() == 2));
    }

    #[test]
    fn ctrl_variable() {
        let p = parse_ok(r#"_net_ _at_("s1") _ctrl_ unsigned nworkers;"#);
        let Item::Global(g) = &p.items[0] else {
            panic!()
        };
        assert!(g.spec.ctrl);
        assert_eq!(g.ty, TypeExpr::Scalar(ScalarType::U32));
    }

    #[test]
    fn map_global() {
        let p = parse_ok(r#"_net_ _at_("s1") ncl::Map<uint64_t, uint8_t, 256> Idx;"#);
        let Item::Global(g) = &p.items[0] else {
            panic!()
        };
        assert!(matches!(
            &g.ty,
            TypeExpr::Map {
                key: ScalarType::U64,
                value: ScalarType::U8,
                ..
            }
        ));
    }

    #[test]
    fn outgoing_kernel() {
        let p = parse_ok("_net_ _out_ void k(int *data) { _drop(); }");
        let Item::Kernel(k) = &p.items[0] else {
            panic!()
        };
        assert_eq!(k.kind, KernelKind::Outgoing);
        assert_eq!(k.params.len(), 1);
        assert_eq!(k.params[0].ty, TypeExpr::Ptr(ScalarType::I32));
    }

    #[test]
    fn incoming_kernel_with_ext_params() {
        let p =
            parse_ok("_net_ _in_ void result(int *data, _ext_ int *hdata, _ext_ bool *done) {}");
        let Item::Kernel(k) = &p.items[0] else {
            panic!()
        };
        assert_eq!(k.kind, KernelKind::Incoming);
        assert!(!k.params[0].ext);
        assert!(k.params[1].ext);
        assert!(k.params[2].ext);
    }

    #[test]
    fn kernel_without_net_is_error() {
        let d = parse_err("_out_ void k(int *data) {}");
        assert!(d[0].message.contains("_net_"));
    }

    #[test]
    fn kernel_both_in_and_out_is_error() {
        let d = parse_err("_net_ _out_ _in_ void k(int *d) {}");
        assert!(d[0].message.contains("both"));
    }

    #[test]
    fn window_fields() {
        let p = parse_ok("_net_ _out_ void k(int *d) { unsigned b = window.seq * window.len; }");
        let Item::Kernel(k) = &p.items[0] else {
            panic!()
        };
        let Stmt::Decl { init: Some(e), .. } = &k.body.stmts[0] else {
            panic!()
        };
        let Expr::Binary { lhs, rhs, .. } = e else {
            panic!()
        };
        assert!(matches!(&**lhs, Expr::WindowField(f, _) if f == "seq"));
        assert!(matches!(&**rhs, Expr::WindowField(f, _) if f == "len"));
    }

    #[test]
    fn if_with_auto_decl() {
        let p = parse_ok(
            "_net_ _out_ void k(uint64_t key) { if (auto *idx = Idx[key]) { _reflect(); } }",
        );
        let Item::Kernel(k) = &p.items[0] else {
            panic!()
        };
        let Stmt::If {
            decl: Some((n, _)), ..
        } = &k.body.stmts[0]
        else {
            panic!("expected if-with-decl")
        };
        assert_eq!(n, "idx");
    }

    #[test]
    fn for_loop_and_compound_assign() {
        let p = parse_ok(
            "_net_ _out_ void k(int *data) {\
               for (unsigned i = 0; i < 8; ++i) accum[i] += data[i];\
             }",
        );
        let Item::Kernel(k) = &p.items[0] else {
            panic!()
        };
        assert!(matches!(&k.body.stmts[0], Stmt::For { .. }));
    }

    #[test]
    fn precedence() {
        let p = parse_ok("_net_ _out_ void k(int *d) { int x = 1 + 2 * 3 == 7 && 1 < 2; }");
        let Item::Kernel(k) = &p.items[0] else {
            panic!()
        };
        let Stmt::Decl { init: Some(e), .. } = &k.body.stmts[0] else {
            panic!()
        };
        // Top must be `&&`.
        assert!(matches!(
            e,
            Expr::Binary {
                op: BinaryOp::LAnd,
                ..
            }
        ));
    }

    #[test]
    fn casts_vs_parens() {
        let p = parse_ok("_net_ _out_ void k(int *d) { int x = (int)d[0]; int y = (x + 1); }");
        let Item::Kernel(k) = &p.items[0] else {
            panic!()
        };
        assert!(matches!(
            &k.body.stmts[0],
            Stmt::Decl {
                init: Some(Expr::Cast { .. }),
                ..
            }
        ));
        assert!(matches!(
            &k.body.stmts[1],
            Stmt::Decl {
                init: Some(Expr::Binary { .. }),
                ..
            }
        ));
    }

    #[test]
    fn memcpy_with_addr_of() {
        let p = parse_ok("_net_ _out_ void k(int *data) { memcpy(data, &accum[4], 16); }");
        let Item::Kernel(k) = &p.items[0] else {
            panic!()
        };
        let Stmt::Expr(Expr::Call { callee, args, .. }) = &k.body.stmts[0] else {
            panic!()
        };
        assert_eq!(callee, "memcpy");
        assert_eq!(args.len(), 3);
        assert!(matches!(
            &args[1],
            Expr::Unary {
                op: UnaryOp::AddrOf,
                ..
            }
        ));
    }

    #[test]
    fn wnd_struct() {
        let p = parse_ok("_wnd_ struct WExt { uint16_t len; uint32_t stride; };");
        let Item::WindowExt(w) = &p.items[0] else {
            panic!()
        };
        assert_eq!(w.name, "WExt");
        assert_eq!(w.fields.len(), 2);
        assert_eq!(w.fields[0].0, "len");
        assert_eq!(w.fields[0].1, ScalarType::U16);
    }

    #[test]
    fn host_function() {
        let p = parse_ok("int main() { ncl::ctrl_wr(nworkers, 16); return 0; }");
        let Item::HostFn(f) = &p.items[0] else {
            panic!()
        };
        assert_eq!(f.name, "main");
        let Stmt::Expr(Expr::Call { callee, .. }) = &f.body.stmts[0] else {
            panic!()
        };
        assert_eq!(callee, "ncl::ctrl_wr");
    }

    #[test]
    fn arrow_rejected_with_hint() {
        let d = parse_err("_net_ _out_ void k(int *d) { d->x = 1; }");
        assert!(d[0].message.contains("'->'"));
    }

    #[test]
    fn goto_rejected() {
        let d = parse_err("_net_ _out_ void k(int *d) { goto l; }");
        assert!(d[0].message.contains("not part of the NCL kernel subset"));
    }

    #[test]
    fn local_array_rejected() {
        let d = parse_err("_net_ _out_ void k(int *d) { int tmp[4]; }");
        assert!(d[0].message.contains("switch memory"));
    }

    #[test]
    fn ternary_expression() {
        let p = parse_ok("_net_ _out_ void k(int *d) { d[0] = d[0] > 0 ? d[0] : 0 - d[0]; }");
        let Item::Kernel(k) = &p.items[0] else {
            panic!()
        };
        let Stmt::Expr(Expr::Assign { rhs, .. }) = &k.body.stmts[0] else {
            panic!()
        };
        assert!(matches!(&**rhs, Expr::Ternary { .. }));
    }

    #[test]
    fn error_recovery_collects_multiple() {
        let d = parse_err(
            "_net_ _out_ void a(int *d) { goto x; }\n\
             _net_ _out_ void b(int *d) { d->y = 1; }",
        );
        assert!(d.len() >= 2, "expected 2+ diagnostics, got {d:?}");
    }

    #[test]
    fn fig4_parses() {
        let src = r#"
#define DATA_LEN 1024
#define WIN_LEN 32
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
    if (window.seq == DATA_LEN / WIN_LEN - 1) *done = true;
}
"#;
        let p = parse_ok(src);
        assert_eq!(p.items.len(), 5);
    }

    #[test]
    fn fig5_parses() {
        let src = r#"
_net_ _at_("s1") ncl::Map<uint64_t, uint8_t, 256> Idx;
_net_ _at_("s1") char Cache[256][128] = {{0}};
_net_ _at_("s1") bool Valid[256] = {false};

_net_ _out_ void query(uint64_t key, char *val, bool update) {
    if (window.from != 2 && update) {
        if (auto *idx = Idx[key]) Valid[*idx] = false;
    } else if (window.from != 2) {
        if (auto *idx = Idx[key]) {
            if (Valid[*idx]) {
                memcpy(val, Cache[*idx], 128); _reflect(); } }
    } else if (update) {
        auto *idx = Idx[key]; memcpy(Cache[*idx], val, 128);
        Valid[*idx] = true; _drop();
    } else { }
}
"#;
        let p = parse_ok(src);
        assert_eq!(p.items.len(), 4);
    }
}
