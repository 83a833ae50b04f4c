//! Token definitions for the NCL lexer.

use crate::diag::Span;
use std::fmt;

/// A lexed token: kind plus source span.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct Token {
    /// What was lexed.
    pub kind: TokenKind,
    /// Where it was lexed.
    pub span: Span,
}

/// The kinds of NCL tokens.
///
/// The NCL declaration specifiers (`_net_`, `_out_`, …) lex as dedicated
/// keywords — they are reserved in kernel code, exactly like CUDA's
/// `__global__` is in CUDA C.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) enum TokenKind {
    /// Identifier (including type names resolved later).
    Ident(String),
    /// Integer literal (value, plus whether a `u`/`U` suffix was present).
    Int(u64, bool),
    /// Character literal, already decoded.
    Char(u8),
    /// String literal, already unescaped.
    Str(String),

    // --- C keywords of the supported subset ---
    /// `void`
    KwVoid,
    /// `bool`
    KwBool,
    /// `char`
    KwChar,
    /// `int`
    KwInt,
    /// `unsigned`
    KwUnsigned,
    /// `signed`
    KwSigned,
    /// `short`
    KwShort,
    /// `long`
    KwLong,
    /// `const`
    KwConst,
    /// `if`
    KwIf,
    /// `else`
    KwElse,
    /// `for`
    KwFor,
    /// `while`
    KwWhile,
    /// `do`
    KwDo,
    /// `return`
    KwReturn,
    /// `break`
    KwBreak,
    /// `continue`
    KwContinue,
    /// `struct`
    KwStruct,
    /// `auto`
    KwAuto,
    /// `true`
    KwTrue,
    /// `false`
    KwFalse,
    /// `sizeof`
    KwSizeof,
    /// `switch` — recognized so we can reject it with a clear message.
    KwSwitch,
    /// `goto` — recognized so we can reject it with a clear message.
    KwGoto,

    // --- NCL declaration specifiers (paper §4.1) ---
    /// `_net_`
    KwNet,
    /// `_out_`
    KwOut,
    /// `_in_`
    KwIn,
    /// `_ctrl_`
    KwCtrl,
    /// `_at_`
    KwAt,
    /// `_ext_`
    KwExt,
    /// `_wnd_` — declares a window-struct extension.
    KwWnd,

    // --- punctuation / operators ---
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `::`
    ColonColon,
    /// `?`
    Question,
    /// `:`
    Colon,
    /// `->` — recognized to produce a targeted error (no heap objects).
    Arrow,

    /// `=`
    Assign,
    /// `+=`
    PlusAssign,
    /// `-=`
    MinusAssign,
    /// `*=`
    StarAssign,
    /// `/=`
    SlashAssign,
    /// `%=`
    PercentAssign,
    /// `&=`
    AmpAssign,
    /// `|=`
    PipeAssign,
    /// `^=`
    CaretAssign,
    /// `<<=`
    ShlAssign,
    /// `>>=`
    ShrAssign,

    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `&`
    Amp,
    /// `|`
    Pipe,
    /// `^`
    Caret,
    /// `~`
    Tilde,
    /// `!`
    Bang,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `++`
    PlusPlus,
    /// `--`
    MinusMinus,

    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,

    /// End of input.
    Eof,
}

impl TokenKind {
    /// A short printable name for error messages.
    pub(crate) fn describe(&self) -> String {
        match self {
            TokenKind::Ident(s) => format!("identifier '{s}'"),
            TokenKind::Int(v, _) => format!("integer '{v}'"),
            TokenKind::Char(c) => format!("character literal '{}'", *c as char),
            TokenKind::Str(s) => format!("string \"{s}\""),
            TokenKind::Eof => "end of file".into(),
            other => format!("'{}'", other.glyph()),
        }
    }

    /// The literal spelling of fixed tokens.
    pub(crate) fn glyph(&self) -> &'static str {
        use TokenKind::*;
        match self {
            KwVoid => "void",
            KwBool => "bool",
            KwChar => "char",
            KwInt => "int",
            KwUnsigned => "unsigned",
            KwSigned => "signed",
            KwShort => "short",
            KwLong => "long",
            KwConst => "const",
            KwIf => "if",
            KwElse => "else",
            KwFor => "for",
            KwWhile => "while",
            KwDo => "do",
            KwReturn => "return",
            KwBreak => "break",
            KwContinue => "continue",
            KwStruct => "struct",
            KwAuto => "auto",
            KwTrue => "true",
            KwFalse => "false",
            KwSizeof => "sizeof",
            KwSwitch => "switch",
            KwGoto => "goto",
            KwNet => "_net_",
            KwOut => "_out_",
            KwIn => "_in_",
            KwCtrl => "_ctrl_",
            KwAt => "_at_",
            KwExt => "_ext_",
            KwWnd => "_wnd_",
            LParen => "(",
            RParen => ")",
            LBrace => "{",
            RBrace => "}",
            LBracket => "[",
            RBracket => "]",
            Semi => ";",
            Comma => ",",
            Dot => ".",
            ColonColon => "::",
            Question => "?",
            Colon => ":",
            Arrow => "->",
            Assign => "=",
            PlusAssign => "+=",
            MinusAssign => "-=",
            StarAssign => "*=",
            SlashAssign => "/=",
            PercentAssign => "%=",
            AmpAssign => "&=",
            PipeAssign => "|=",
            CaretAssign => "^=",
            ShlAssign => "<<=",
            ShrAssign => ">>=",
            Plus => "+",
            Minus => "-",
            Star => "*",
            Slash => "/",
            Percent => "%",
            Amp => "&",
            Pipe => "|",
            Caret => "^",
            Tilde => "~",
            Bang => "!",
            Shl => "<<",
            Shr => ">>",
            PlusPlus => "++",
            MinusMinus => "--",
            EqEq => "==",
            NotEq => "!=",
            Lt => "<",
            Le => "<=",
            Gt => ">",
            Ge => ">=",
            AndAnd => "&&",
            OrOr => "||",
            Ident(_) | Int(..) | Char(_) | Str(_) | Eof => "",
        }
    }
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

/// Maps an identifier spelling to its keyword, if reserved.
pub(crate) fn keyword(ident: &str) -> Option<TokenKind> {
    use TokenKind::*;
    Some(match ident {
        "void" => KwVoid,
        "bool" => KwBool,
        "char" => KwChar,
        "int" => KwInt,
        "unsigned" => KwUnsigned,
        "signed" => KwSigned,
        "short" => KwShort,
        "long" => KwLong,
        "const" => KwConst,
        "if" => KwIf,
        "else" => KwElse,
        "for" => KwFor,
        "while" => KwWhile,
        "do" => KwDo,
        "return" => KwReturn,
        "break" => KwBreak,
        "continue" => KwContinue,
        "struct" => KwStruct,
        "auto" => KwAuto,
        "true" => KwTrue,
        "false" => KwFalse,
        "sizeof" => KwSizeof,
        "switch" => KwSwitch,
        "goto" => KwGoto,
        "_net_" => KwNet,
        "_out_" => KwOut,
        "_in_" => KwIn,
        "_ctrl_" => KwCtrl,
        "_at_" => KwAt,
        "_ext_" => KwExt,
        "_wnd_" => KwWnd,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_resolve() {
        assert_eq!(keyword("_net_"), Some(TokenKind::KwNet));
        assert_eq!(keyword("unsigned"), Some(TokenKind::KwUnsigned));
        assert_eq!(keyword("window"), None);
    }

    #[test]
    fn describe_forms() {
        assert_eq!(TokenKind::Ident("x".into()).describe(), "identifier 'x'");
        assert_eq!(TokenKind::Shl.describe(), "'<<'");
        assert_eq!(TokenKind::Eof.describe(), "end of file");
    }
}
