//! A minimal, dependency-free JSON reader/writer used by the flight
//! recorder and the `ncscope` CLI.
//!
//! The stack has to *round-trip* its own artifacts (flight-recorder
//! dumps, `target/e11-metrics.json`, Chrome trace exports) without
//! pulling serde into a zero-dependency crate, so this module implements
//! just enough of RFC 8259: objects, arrays, strings with escapes,
//! numbers as `f64`, booleans and null. Object key order is preserved so
//! exports stay deterministic under a parse→render round trip.

use std::fmt::Write as _;

/// A parsed JSON value. Objects preserve key order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Num(f64),
    /// A string (escapes already decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object; `None` for missing keys or
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64` (numbers only; truncates the fraction).
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().map(|n| n as u64)
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The value as object entries, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Renders the value back to compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => out.push_str(&escape(s)),
            Json::Arr(a) => {
                out.push('[');
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(o) => {
                out.push('{');
                for (i, (k, v)) in o.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&escape(k));
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Escapes a string into a quoted JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// How deeply arrays and objects may nest. Every artifact the stack
/// writes stays within a handful of levels; the bound keeps the
/// recursive reader from overflowing its stack on hostile input.
const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document, rejecting trailing garbage and
/// arrays or objects nested more than 128 deep.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos, MAX_DEPTH)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

/// `depth` is how many more arrays or objects may open.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    let Some(&c) = b.get(*pos) else {
        return Err("unexpected end of input".into());
    };
    if matches!(c, b'{' | b'[') && depth == 0 {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos));
    }
    match c {
        b'{' => {
            *pos += 1;
            let mut kv = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(kv));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                expect(b, pos, b':')?;
                let val = parse_value(b, pos, depth - 1)?;
                kv.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(&b',') => *pos += 1,
                    Some(&b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(kv));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut arr = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(arr));
            }
            loop {
                arr.push(parse_value(b, pos, depth - 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(&b',') => *pos += 1,
                    Some(&b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(arr));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        b'"' => Ok(Json::Str(parse_string(b, pos)?)),
        b't' => parse_lit(b, pos, "true", Json::Bool(true)),
        b'f' => parse_lit(b, pos, "false", Json::Bool(false)),
        b'n' => parse_lit(b, pos, "null", Json::Null),
        _ => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number {text:?} at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let Some(&esc) = b.get(*pos) else {
                    return Err("unterminated escape".into());
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{08}'),
                    b'f' => out.push('\u{0c}'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("bad \\u escape")?;
                        let cp = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        *pos += 4;
                        // Surrogate pairs are rare in our artifacts; map
                        // lone surrogates to the replacement character.
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos - 1)),
                }
            }
            _ => {
                // Multi-byte UTF-8: copy the whole char.
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().ok_or("unterminated string")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
    Err("unterminated string".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_rerenders_nested_documents() {
        let src = r#"{"a":[1,2.5,-3],"b":{"c":"x\ny","d":true,"e":null},"f":"q\"uote"}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        // Round trip is byte-identical for documents we emit ourselves.
        let rendered = v.render();
        assert_eq!(parse(&rendered).unwrap(), v);
        assert_eq!(rendered, src);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{}x").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let objects = |n: usize| "{\"k\":".repeat(n) + "0" + &"}".repeat(n);
        // At the limit: accepted, one value per level.
        let mut v = &parse(&arrays(MAX_DEPTH)).unwrap();
        for _ in 1..MAX_DEPTH {
            v = &v.as_arr().unwrap()[0];
        }
        assert_eq!(v, &Json::Arr(vec![]));
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        // One past it, or a million deep, closed or not: refused with a
        // message, not a stack overflow.
        for n in [MAX_DEPTH + 1, 1 << 20] {
            for doc in [arrays(n), objects(n), "[".repeat(n)] {
                let err = parse(&doc).unwrap_err();
                assert!(err.starts_with("nesting deeper than 128"), "{err}");
            }
        }
    }

    #[test]
    fn a_flight_artifact_with_deep_events_is_refused() {
        let deep = format!(
            "{{\"kind\":\"ncscope-flight\",\"events\":{}}}",
            "[".repeat(1 << 16)
        );
        let err = crate::scope::parse_flight(&deep).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
    }

    #[test]
    fn escapes_control_characters() {
        assert_eq!(escape("a\"b\\c\n\u{01}"), "\"a\\\"b\\\\c\\n\\u0001\"");
        let round = parse(&escape("a\"b\\c\n\u{01}")).unwrap();
        assert_eq!(round.as_str(), Some("a\"b\\c\n\u{01}"));
    }
}
