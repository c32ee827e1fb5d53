//! Minimal JSON reader, field readers and field writer for JSONL event
//! streams, the serving protocol and the sweep store's JSON artifacts.
//!
//! The workspace is offline-buildable, and the vendored `serde` stand-in
//! only covers the derive surface GAIA's other crates need, so trace
//! parsing uses this small hand-rolled recursive-descent parser instead.
//! It accepts standard JSON (RFC 8259) with the usual `\uXXXX` escapes
//! and surrogate pairs; numbers are parsed as `f64`.
//!
//! The writer appends fields (`,"key":value`) to a `String`. Integers
//! are written digit by digit, floats in Rust's shortest round-trip
//! form (so a parse-and-reserialize cycle is byte-stable) or `null`
//! when not finite, as JSON has no literal for them. [`Quoted`] and
//! [`Number`] render the same values inside `format!` arguments.

use std::fmt::{self, Write as _};

use crate::text::push_u64_str;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Number as `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Num(n) if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 => Some(n as u64),
            _ => None,
        }
    }

    /// Number as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Num(n) => Some(n),
            _ => None,
        }
    }

    /// Borrow a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }
}

/// Parse a complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

/// The value under `key` in the object `value`, or a "missing field"
/// error naming it.
pub fn field<'v>(value: &'v Value, key: &str) -> Result<&'v Value, String> {
    value
        .get(key)
        .ok_or_else(|| format!("missing field {key:?}"))
}

/// The non-negative integer under `key`.
pub fn req_u64(value: &Value, key: &str) -> Result<u64, String> {
    field(value, key)?
        .as_u64()
        .ok_or_else(|| format!("field {key:?} is not an unsigned integer"))
}

/// The string under `key`, owned.
pub fn req_str(value: &Value, key: &str) -> Result<String, String> {
    field(value, key)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("field {key:?} is not a string"))
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("expected {lit:?} at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number slice");
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = parse_hex4(bytes, pos)?;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: require a following \uXXXX.
                            if bytes.get(*pos + 1) != Some(&b'\\')
                                || bytes.get(*pos + 2) != Some(&b'u')
                            {
                                return Err("lone high surrogate".into());
                            }
                            *pos += 2;
                            let lo = parse_hex4(bytes, pos)?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err("invalid low surrogate".into());
                            }
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            hi
                        };
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("invalid code point {code:#x}"))?,
                        );
                    }
                    other => return Err(format!("invalid escape {other:?}")),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x80 => {
                if b < 0x20 {
                    return Err(format!("unescaped control byte {b:#04x}"));
                }
                out.push(b as char);
                *pos += 1;
            }
            Some(_) => {
                // Multi-byte UTF-8: copy the whole scalar value.
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?;
                let c = rest.chars().next().expect("non-empty by construction");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    // *pos currently points at 'u'.
    let start = *pos + 1;
    let end = start + 4;
    if end > bytes.len() {
        return Err("truncated \\u escape".into());
    }
    let hex = std::str::from_utf8(&bytes[start..end]).map_err(|_| "invalid \\u escape")?;
    let v = u32::from_str_radix(hex, 16).map_err(|_| format!("invalid \\u escape {hex:?}"))?;
    *pos = end - 1; // caller advances past the final hex digit
    Ok(v)
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    debug_assert_eq!(bytes[*pos], b'{');
    *pos += 1;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    debug_assert_eq!(bytes[*pos], b'[');
    *pos += 1;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

/// Appends `,"key":`, the separator and key of a field after the first.
pub fn push_key(s: &mut String, key: &str) {
    s.push_str(",\"");
    s.push_str(key);
    s.push_str("\":");
}

/// Appends the field `,"key":v`.
pub fn push_u64(s: &mut String, key: &str, v: u64) {
    push_key(s, key);
    push_u64_str(s, v);
}

/// Appends the field `,"key":true` or `,"key":false`.
pub fn push_bool(s: &mut String, key: &str, v: bool) {
    push_key(s, key);
    s.push_str(if v { "true" } else { "false" });
}

/// Appends the field `,"key":v` as a [`Number`].
pub fn push_f64(s: &mut String, key: &str, v: f64) {
    push_key(s, key);
    let _ = write!(s, "{}", Number(v));
}

/// Appends the field `,"key":"v"` as a [`Quoted`] string.
pub fn push_str(s: &mut String, key: &str, v: &str) {
    push_key(s, key);
    let _ = write_quoted(s, v);
}

/// A JSON string literal: `v` in quotes, with `"`, `\\` and control
/// characters escaped.
pub struct Quoted<'a>(pub &'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_quoted(f, self.0)
    }
}

fn write_quoted<W: fmt::Write>(out: &mut W, v: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in v.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// A JSON number: the shortest representation that parses back to the
/// same `f64` (`1.5`, `3`), or `null` for NaN and infinities.
pub struct Number(pub f64);

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            write!(f, "{}", self.0)
        } else {
            f.write_str("null")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Num(42.0));
        assert_eq!(parse("-1.5e2").unwrap(), Value::Num(-150.0));
        assert_eq!(parse(r#""hi""#).unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":null}],"c":"x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x"));
        match v.get("a") {
            Some(Value::Arr(items)) => {
                assert_eq!(items.len(), 3);
                assert_eq!(items[2].get("b"), Some(&Value::Null));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = parse(r#""a\"b\\c\ndé😀""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndé😀"));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("1 2").is_err());
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a":}"#).is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn u64_accessor_rejects_fractions_and_negatives() {
        assert_eq!(parse("3").unwrap().as_u64(), Some(3));
        assert_eq!(parse("3.5").unwrap().as_u64(), None);
        assert_eq!(parse("-3").unwrap().as_u64(), None);
    }

    #[test]
    fn quoted_escapes_specials() {
        assert_eq!(Quoted("plain").to_string(), "\"plain\"");
        assert_eq!(Quoted("a\"b\\c\nd").to_string(), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(Quoted("\u{1}\té").to_string(), "\"\\u0001\\té\"");
        let mut s = String::from("{\"a\":1");
        push_str(&mut s, "b", "x\"y");
        assert_eq!(s, r#"{"a":1,"b":"x\"y""#);
    }

    #[test]
    fn numbers_are_shortest_or_null() {
        assert_eq!(Number(1.5).to_string(), "1.5");
        assert_eq!(Number(3.0).to_string(), "3");
        assert_eq!(Number(0.1 + 0.2).to_string(), "0.30000000000000004");
        assert_eq!(Number(f64::INFINITY).to_string(), "null");
        assert_eq!(Number(f64::NAN).to_string(), "null");
    }

    #[test]
    fn fields_parse_back() {
        let mut s = String::from("{\"ev\":\"x\"");
        push_u64(&mut s, "n", u64::MAX);
        push_bool(&mut s, "ok", true);
        push_f64(&mut s, "r", -2.25e-7);
        push_f64(&mut s, "bad", f64::NAN);
        push_str(&mut s, "k", "\u{7}q");
        s.push('}');
        assert_eq!(
            s,
            r#"{"ev":"x","n":18446744073709551615,"ok":true,"r":-0.000000225,"bad":null,"k":"\u0007q"}"#
        );
        let v = parse(&s).unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(v.get("r").and_then(Value::as_f64), Some(-2.25e-7));
        assert_eq!(v.get("bad"), Some(&Value::Null));
        assert_eq!(v.get("k").and_then(Value::as_str), Some("\u{7}q"));
    }
}
