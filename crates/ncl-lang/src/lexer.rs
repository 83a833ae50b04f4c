//! Hand-written lexer for NCL.
//!
//! Handles C-style line and block comments, decimal/hex/octal/binary
//! integer literals with optional `u`/`U`/`l`/`L` suffixes, character and
//! string literals with the usual escapes, all operators of the supported
//! subset, and `#define NAME <integer>` object-like macros (the only
//! preprocessor feature the paper's examples need — `DATA_LEN`,
//! `WIN_LEN`). Macro definitions are expanded during lexing, so the parser
//! never sees them.

use crate::diag::{Diagnostic, Span};
use crate::token::{keyword, Token, TokenKind};
use std::collections::HashMap;

struct Lexer<'s> {
    src: &'s [u8],
    file: &'s str,
    pos: usize,
    line: u32,
    col: u32,
    /// `#define` object macros, expanded as they are referenced.
    defines: HashMap<String, (u64, bool)>,
}

/// Lexes `source` into tokens (terminated by [`TokenKind::Eof`]).
pub(crate) fn lex(source: &str, file: &str) -> Result<Vec<Token>, Vec<Diagnostic>> {
    let mut lx = Lexer {
        src: source.as_bytes(),
        file,
        pos: 0,
        line: 1,
        col: 1,
        defines: HashMap::new(),
    };
    let mut tokens = Vec::new();
    let mut errors = Vec::new();
    loop {
        match lx.next_token() {
            Ok(tok) => {
                let eof = tok.kind == TokenKind::Eof;
                tokens.push(tok);
                if eof {
                    break;
                }
            }
            Err(d) => {
                errors.push(d);
                // Skip the offending byte and continue, collecting more errors.
                lx.bump();
            }
        }
    }
    if errors.is_empty() {
        Ok(tokens)
    } else {
        Err(errors)
    }
}

impl<'s> Lexer<'s> {
    fn peek(&self) -> u8 {
        *self.src.get(self.pos).unwrap_or(&0)
    }

    fn peek2(&self) -> u8 {
        *self.src.get(self.pos + 1).unwrap_or(&0)
    }

    fn peek3(&self) -> u8 {
        *self.src.get(self.pos + 2).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let c = self.peek();
        if c != 0 {
            self.pos += 1;
            if c == b'\n' {
                self.line += 1;
                self.col = 1;
            } else {
                self.col += 1;
            }
        }
        c
    }

    fn here(&self) -> Span {
        Span::point(self.pos, self.line, self.col)
    }

    fn span_from(&self, start: Span) -> Span {
        Span {
            start: start.start,
            end: self.pos,
            line: start.line,
            col: start.col,
        }
    }

    fn error(&self, msg: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic::error(msg, span, self.file)
    }

    fn skip_trivia(&mut self) -> Result<(), Diagnostic> {
        loop {
            match self.peek() {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek2() == b'/' => {
                    while self.peek() != b'\n' && self.peek() != 0 {
                        self.bump();
                    }
                }
                b'/' if self.peek2() == b'*' => {
                    let start = self.here();
                    self.bump();
                    self.bump();
                    loop {
                        if self.peek() == 0 {
                            return Err(self.error("unterminated block comment", start));
                        }
                        if self.peek() == b'*' && self.peek2() == b'/' {
                            self.bump();
                            self.bump();
                            break;
                        }
                        self.bump();
                    }
                }
                b'#' => self.directive()?,
                _ => return Ok(()),
            }
        }
    }

    /// Handles `#define NAME <int>` and `#include` (ignored with a note in
    /// spirit — headers are meaningless for kernels).
    fn directive(&mut self) -> Result<(), Diagnostic> {
        let start = self.here();
        self.bump(); // '#'
        let word = self.read_word();
        match word.as_str() {
            "define" => {
                self.skip_inline_ws();
                let name = self.read_word();
                if name.is_empty() {
                    return Err(self.error("#define requires a name", self.span_from(start)));
                }
                self.skip_inline_ws();
                let digits = self.read_number_text();
                if digits.is_empty() {
                    return Err(self.error(
                        format!("#define {name} must expand to an integer literal"),
                        self.span_from(start),
                    ));
                }
                let (value, unsigned) = parse_int(&digits).ok_or_else(|| {
                    self.error("malformed integer literal", self.span_from(start))
                })?;
                self.defines.insert(name, (value, unsigned));
            }
            "include" => {
                // Consume to end of line; kernel sources are self-contained.
                while self.peek() != b'\n' && self.peek() != 0 {
                    self.bump();
                }
            }
            other => {
                return Err(self.error(
                    format!("unsupported preprocessor directive '#{other}'"),
                    self.span_from(start),
                ))
            }
        }
        Ok(())
    }

    fn skip_inline_ws(&mut self) {
        while matches!(self.peek(), b' ' | b'\t') {
            self.bump();
        }
    }

    fn read_word(&mut self) -> String {
        let mut s = String::new();
        while self.peek().is_ascii_alphanumeric() || self.peek() == b'_' {
            s.push(self.bump() as char);
        }
        s
    }

    fn read_number_text(&mut self) -> String {
        let mut s = String::new();
        while self.peek().is_ascii_alphanumeric() || self.peek() == b'_' {
            s.push(self.bump() as char);
        }
        s
    }

    fn next_token(&mut self) -> Result<Token, Diagnostic> {
        self.skip_trivia()?;
        let start = self.here();
        let c = self.peek();
        if c == 0 {
            return Ok(Token {
                kind: TokenKind::Eof,
                span: start,
            });
        }
        if c.is_ascii_alphabetic() || c == b'_' {
            let word = self.read_word();
            let span = self.span_from(start);
            let kind = if let Some(kw) = keyword(&word) {
                kw
            } else if let Some(&(v, u)) = self.defines.get(&word) {
                TokenKind::Int(v, u)
            } else {
                TokenKind::Ident(word)
            };
            return Ok(Token { kind, span });
        }
        if c.is_ascii_digit() {
            let text = self.read_number_text();
            let span = self.span_from(start);
            let (value, unsigned) = parse_int(&text)
                .ok_or_else(|| self.error(format!("malformed integer literal '{text}'"), span))?;
            return Ok(Token {
                kind: TokenKind::Int(value, unsigned),
                span,
            });
        }
        if c == b'\'' {
            return self.char_literal(start);
        }
        if c == b'"' {
            return self.string_literal(start);
        }
        self.operator(start)
    }

    fn char_literal(&mut self, start: Span) -> Result<Token, Diagnostic> {
        self.bump(); // opening quote
        let c = match self.bump() {
            b'\\' => self.escape(start)?,
            0 | b'\n' => return Err(self.error("unterminated character literal", start)),
            c => c,
        };
        if self.bump() != b'\'' {
            return Err(self.error("character literal must contain one character", start));
        }
        Ok(Token {
            kind: TokenKind::Char(c),
            span: self.span_from(start),
        })
    }

    fn string_literal(&mut self, start: Span) -> Result<Token, Diagnostic> {
        self.bump(); // opening quote
        let mut s = String::new();
        loop {
            match self.bump() {
                b'"' => break,
                b'\\' => s.push(self.escape(start)? as char),
                0 | b'\n' => return Err(self.error("unterminated string literal", start)),
                c => s.push(c as char),
            }
        }
        Ok(Token {
            kind: TokenKind::Str(s),
            span: self.span_from(start),
        })
    }

    fn escape(&mut self, start: Span) -> Result<u8, Diagnostic> {
        Ok(match self.bump() {
            b'n' => b'\n',
            b't' => b'\t',
            b'r' => b'\r',
            b'0' => 0,
            b'\\' => b'\\',
            b'\'' => b'\'',
            b'"' => b'"',
            other => {
                return Err(self.error(
                    format!("unsupported escape '\\{}'", other as char),
                    self.span_from(start),
                ))
            }
        })
    }

    fn operator(&mut self, start: Span) -> Result<Token, Diagnostic> {
        use TokenKind::*;
        let (kind, len) = match (self.peek(), self.peek2(), self.peek3()) {
            (b'<', b'<', b'=') => (ShlAssign, 3),
            (b'>', b'>', b'=') => (ShrAssign, 3),
            (b':', b':', _) => (ColonColon, 2),
            (b'-', b'>', _) => (Arrow, 2),
            (b'+', b'+', _) => (PlusPlus, 2),
            (b'-', b'-', _) => (MinusMinus, 2),
            (b'+', b'=', _) => (PlusAssign, 2),
            (b'-', b'=', _) => (MinusAssign, 2),
            (b'*', b'=', _) => (StarAssign, 2),
            (b'/', b'=', _) => (SlashAssign, 2),
            (b'%', b'=', _) => (PercentAssign, 2),
            (b'&', b'=', _) => (AmpAssign, 2),
            (b'|', b'=', _) => (PipeAssign, 2),
            (b'^', b'=', _) => (CaretAssign, 2),
            (b'=', b'=', _) => (EqEq, 2),
            (b'!', b'=', _) => (NotEq, 2),
            (b'<', b'=', _) => (Le, 2),
            (b'>', b'=', _) => (Ge, 2),
            (b'<', b'<', _) => (Shl, 2),
            (b'>', b'>', _) => (Shr, 2),
            (b'&', b'&', _) => (AndAnd, 2),
            (b'|', b'|', _) => (OrOr, 2),
            (b'(', ..) => (LParen, 1),
            (b')', ..) => (RParen, 1),
            (b'{', ..) => (LBrace, 1),
            (b'}', ..) => (RBrace, 1),
            (b'[', ..) => (LBracket, 1),
            (b']', ..) => (RBracket, 1),
            (b';', ..) => (Semi, 1),
            (b',', ..) => (Comma, 1),
            (b'.', ..) => (Dot, 1),
            (b'?', ..) => (Question, 1),
            (b':', ..) => (Colon, 1),
            (b'=', ..) => (Assign, 1),
            (b'+', ..) => (Plus, 1),
            (b'-', ..) => (Minus, 1),
            (b'*', ..) => (Star, 1),
            (b'/', ..) => (Slash, 1),
            (b'%', ..) => (Percent, 1),
            (b'&', ..) => (Amp, 1),
            (b'|', ..) => (Pipe, 1),
            (b'^', ..) => (Caret, 1),
            (b'~', ..) => (Tilde, 1),
            (b'!', ..) => (Bang, 1),
            (b'<', ..) => (Lt, 1),
            (b'>', ..) => (Gt, 1),
            (other, ..) => {
                return Err(self.error(format!("unexpected character '{}'", other as char), start))
            }
        };
        for _ in 0..len {
            self.bump();
        }
        Ok(Token {
            kind,
            span: self.span_from(start),
        })
    }
}

/// Parses a C integer literal (decimal, `0x`, `0b`, or octal `0…`),
/// returning the value and whether a `u`/`U` suffix was present. `l`/`L`
/// suffixes are accepted and ignored (everything is at most 64 bits).
fn parse_int(text: &str) -> Option<(u64, bool)> {
    let lower = text.to_ascii_lowercase();
    let mut body = lower.as_str();
    let mut unsigned = false;
    while let Some(stripped) = body.strip_suffix(['u', 'l']) {
        if body.ends_with('u') {
            unsigned = true;
        }
        body = stripped;
    }
    if body.is_empty() {
        return None;
    }
    let (radix, digits) = if let Some(hex) = body.strip_prefix("0x") {
        (16, hex)
    } else if let Some(bin) = body.strip_prefix("0b") {
        (2, bin)
    } else if body.len() > 1 && body.starts_with('0') {
        (8, &body[1..])
    } else {
        (10, body)
    };
    if digits.is_empty() {
        return None;
    }
    let clean: String = digits.chars().filter(|&c| c != '_').collect();
    u64::from_str_radix(&clean, radix)
        .ok()
        .map(|v| (v, unsigned))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::TokenKind::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src, "t.ncl")
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            kinds("_net_ _out_ void allreduce"),
            vec![KwNet, KwOut, KwVoid, Ident("allreduce".into()), Eof]
        );
    }

    #[test]
    fn integer_radices_and_suffixes() {
        assert_eq!(
            kinds("10 0x1F 0b101 017 42u 7UL"),
            vec![
                Int(10, false),
                Int(0x1F, false),
                Int(5, false),
                Int(15, false),
                Int(42, true),
                Int(7, true),
                Eof
            ]
        );
    }

    #[test]
    fn operators_longest_match() {
        assert_eq!(
            kinds("a <<= b >> c << d <= e < f :: g"),
            vec![
                Ident("a".into()),
                ShlAssign,
                Ident("b".into()),
                Shr,
                Ident("c".into()),
                Shl,
                Ident("d".into()),
                Le,
                Ident("e".into()),
                Lt,
                Ident("f".into()),
                ColonColon,
                Ident("g".into()),
                Eof
            ]
        );
    }

    #[test]
    fn increments_and_compound_assign() {
        assert_eq!(
            kinds("++count[i] += 1;"),
            vec![
                PlusPlus,
                Ident("count".into()),
                LBracket,
                Ident("i".into()),
                RBracket,
                PlusAssign,
                Int(1, false),
                Semi,
                Eof
            ]
        );
    }

    #[test]
    fn comments_are_trivia() {
        assert_eq!(
            kinds("a // line\n b /* block\n over lines */ c"),
            vec![Ident("a".into()), Ident("b".into()), Ident("c".into()), Eof]
        );
    }

    #[test]
    fn unterminated_block_comment_errors() {
        assert!(lex("/* nope", "t.ncl").is_err());
    }

    #[test]
    fn strings_and_chars() {
        assert_eq!(
            kinds(r#" "s1" 'a' '\n' "#),
            vec![Str("s1".into()), Char(b'a'), Char(b'\n'), Eof]
        );
    }

    #[test]
    fn defines_expand() {
        let src = "#define WIN_LEN 32\n#define DATA_LEN 0x100\nWIN_LEN DATA_LEN";
        assert_eq!(kinds(src), vec![Int(32, false), Int(256, false), Eof]);
    }

    #[test]
    fn includes_are_skipped() {
        assert_eq!(kinds("#include <ncl.h>\nx"), vec![Ident("x".into()), Eof]);
    }

    #[test]
    fn unknown_directive_errors() {
        assert!(lex("#pragma once", "t.ncl").is_err());
    }

    #[test]
    fn spans_track_lines() {
        let toks = lex("a\n  b", "t.ncl").unwrap();
        assert_eq!((toks[0].span.line, toks[0].span.col), (1, 1));
        assert_eq!((toks[1].span.line, toks[1].span.col), (2, 3));
    }

    #[test]
    fn unexpected_character() {
        let err = lex("a @ b", "t.ncl").unwrap_err();
        assert!(err[0].message.contains("unexpected character"));
    }

    #[test]
    fn fig4_snippet_lexes() {
        let src = r#"
            _net_ _at_("s1") int accum[DATA_LEN] = {0};
            _net_ _out_ void allreduce(int *data) {
                unsigned base = window.seq * window.len;
                for (unsigned i = 0; i < window.len; ++i)
                    accum[base + i] += data[i];
            }
        "#;
        let src = format!("#define DATA_LEN 1024\n{src}");
        let toks = lex(&src, "fig4.ncl").unwrap();
        assert!(toks.len() > 40);
        assert_eq!(toks.last().unwrap().kind, Eof);
    }
}
