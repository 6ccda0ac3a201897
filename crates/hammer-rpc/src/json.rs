//! A from-scratch JSON value model, parser, and serializer (RFC 8259).
//!
//! Object keys preserve insertion order (a `Vec` of pairs) so serialised
//! payloads are deterministic, which matters for signing.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// Maximum nesting depth [`Value::parse`] accepts before returning a
/// [`JsonError`]. Bounds stack use on adversarial inputs like `[[[[…]]]]`.
pub const MAX_PARSE_DEPTH: usize = 128;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integral number that fits in `i64` (kept exact).
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Value)>),
}

/// Errors produced by [`Value::parse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_owned())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        if v <= i64::MAX as u64 {
            Value::Int(v as i64)
        } else {
            Value::Float(v as f64)
        }
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::from(v as u64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map(Into::into).unwrap_or(Value::Null)
    }
}

impl Value {
    /// Builds an object from key/value pairs.
    ///
    /// ```
    /// use hammer_rpc::json::Value;
    /// let obj = Value::object([("a", Value::from(1)), ("b", Value::from(true))]);
    /// assert_eq!(obj.get("a"), Some(&Value::Int(1)));
    /// ```
    pub fn object<K: Into<String>, I: IntoIterator<Item = (K, Value)>>(pairs: I) -> Self {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Indexes into an array; `None` out of range or for non-arrays.
    pub fn at(&self, index: usize) -> Option<&Value> {
        match self {
            Value::Array(items) => items.get(index),
            _ => None,
        }
    }

    /// The value as `&str` if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `i64` if it is an integral number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Float(f) if f.fract() == 0.0 && f.abs() < 2f64.powi(53) => Some(*f as i64),
            _ => None,
        }
    }

    /// The value as `u64` if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|v| u64::try_from(v).ok())
    }

    /// The value as `f64` if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as `bool` if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a slice if it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Serialises to compact JSON text.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.to_json_into(&mut out);
        out
    }

    /// Serialises to compact JSON text, appending to a caller-supplied
    /// buffer. Hot paths call `buf.clear()` and reuse one buffer across
    /// messages, so steady-state encoding allocates nothing.
    pub fn to_json_into(&self, out: &mut String) {
        self.write_json(out);
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Int(v) => {
                // Format into a stack buffer: no transient String per number.
                let mut buf = itoa_buf();
                out.push_str(itoa(*v, &mut buf));
            }
            Value::Float(f) => {
                if f.is_finite() {
                    // Ensure floats round-trip as floats. Formatting goes
                    // straight into `out`; the suffix check looks at the
                    // bytes just written.
                    let start = out.len();
                    write!(out, "{f}").expect("writing to String cannot fail");
                    if !out[start..].contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null"); // JSON has no Inf/NaN
                }
            }
            Value::String(s) => write_json_string(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_json(out);
                }
                out.push(']');
            }
            Value::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(k, out);
                    out.push(':');
                    v.write_json(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses JSON text into a value.
    ///
    /// ```
    /// use hammer_rpc::json::Value;
    /// let v = Value::parse(r#"{"n": 42, "xs": [1, 2.5, "three"]}"#).unwrap();
    /// assert_eq!(v.get("n").unwrap().as_i64(), Some(42));
    /// assert_eq!(v.get("xs").unwrap().at(2).unwrap().as_str(), Some("three"));
    /// ```
    pub fn parse(input: &str) -> Result<Value, JsonError> {
        Value::parse_bytes(input.as_bytes())
    }

    /// Parses JSON from raw bytes (e.g. a reused transport receive buffer),
    /// avoiding an up-front UTF-8 pass over the whole input: the parser is
    /// byte-oriented and only validates UTF-8 inside string literals.
    ///
    /// Nesting deeper than [`MAX_PARSE_DEPTH`] is rejected with an error
    /// rather than overflowing the stack.
    pub fn parse_bytes(input: &[u8]) -> Result<Value, JsonError> {
        let mut p = Parser {
            bytes: input,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.parse_value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }

    /// Canonical form: object keys sorted recursively, for stable hashing.
    pub fn canonicalize(&self) -> Value {
        match self {
            Value::Array(items) => Value::Array(items.iter().map(Value::canonicalize).collect()),
            Value::Object(pairs) => {
                let map: BTreeMap<&String, &Value> = pairs.iter().map(|(k, v)| (k, v)).collect();
                Value::Object(
                    map.into_iter()
                        .map(|(k, v)| (k.clone(), v.canonicalize()))
                        .collect(),
                )
            }
            other => other.clone(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

/// Stack buffer sized for any `i64` in decimal (19 digits + sign).
fn itoa_buf() -> [u8; 20] {
    [0; 20]
}

/// Formats `v` into `buf` and returns the textual slice, with no heap
/// allocation.
fn itoa(v: i64, buf: &mut [u8; 20]) -> &str {
    let mut magnitude = v.unsigned_abs();
    let mut pos = buf.len();
    loop {
        pos -= 1;
        buf[pos] = b'0' + (magnitude % 10) as u8;
        magnitude /= 10;
        if magnitude == 0 {
            break;
        }
    }
    if v < 0 {
        pos -= 1;
        buf[pos] = b'-';
    }
    std::str::from_utf8(&buf[pos..]).expect("decimal digits are ASCII")
}

/// Appends `s` to `out` as a quoted, escaped JSON string — the writer
/// [`Value::to_json_into`] uses, for emitters that build a line by hand.
pub fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    // Copy maximal runs of bytes that need no escaping in one push_str;
    // every byte that does need escaping is ASCII, so slicing at those
    // positions always lands on char boundaries.
    let bytes = s.as_bytes();
    let mut run_start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escape: Option<&str> = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0x08 => Some("\\b"),
            0x0c => Some("\\f"),
            b if b < 0x20 => None, // rare control chars: \uXXXX below
            _ => continue,
        };
        out.push_str(&s[run_start..i]);
        match escape {
            Some(esc) => out.push_str(esc),
            None => write!(out, "\\u{:04x}", b).expect("writing to String cannot fail"),
        }
        run_start = i + 1;
    }
    out.push_str(&s[run_start..]);
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: msg.to_owned(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.parse_literal("null", Value::Null),
            Some(b't') => self.parse_literal("true", Value::Bool(true)),
            Some(b'f') => self.parse_literal("false", Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::String),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(c) => Err(self.err(&format!("unexpected character '{}'", c as char))),
        }
    }

    fn parse_literal(&mut self, lit: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("invalid literal, expected '{lit}'")))
        }
    }

    fn parse_number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit expected after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit expected in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8 in number"))?;
        if !is_float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Value::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err("number out of range"))
    }

    /// Appends `bytes[run_start..self.pos]` to `out` after one UTF-8
    /// validation pass over the run.
    fn push_run(&self, out: &mut String, run_start: usize) -> Result<(), JsonError> {
        if run_start < self.pos {
            let run = std::str::from_utf8(&self.bytes[run_start..self.pos])
                .map_err(|_| self.err("invalid UTF-8"))?;
            out.push_str(run);
        }
        Ok(())
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        // Unescaped content is copied in maximal runs (one validation +
        // one memcpy per run), not char-by-char. Every byte that ends a
        // run (quote, backslash, control) is ASCII, so run boundaries are
        // always UTF-8 sequence boundaries.
        let mut run_start = self.pos;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.push_run(&mut out, run_start)?;
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.push_run(&mut out, run_start)?;
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.parse_hex4()?;
                            let c = if (0xD800..=0xDBFF).contains(&cp) {
                                // Surrogate pair.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let low = self.parse_hex4()?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else if (0xDC00..=0xDFFF).contains(&cp) {
                                return Err(self.err("unexpected low surrogate"));
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("invalid codepoint"))?
                            };
                            out.push(c);
                            run_start = self.pos; // parse_hex4 already advanced
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                    run_start = self.pos;
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => self.pos += 1, // part of the current run
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            Err(self.err("nesting depth limit exceeded"))
        } else {
            Ok(())
        }
    }

    fn parse_array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        self.enter()?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parse_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse("true").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse("false").unwrap(), Value::Bool(false));
        assert_eq!(Value::parse("42").unwrap(), Value::Int(42));
        assert_eq!(Value::parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(Value::parse("3.5").unwrap(), Value::Float(3.5));
        assert_eq!(Value::parse("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(Value::parse("\"hi\"").unwrap(), Value::from("hi"));
    }

    #[test]
    fn parse_nested() {
        let v = Value::parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().at(0).unwrap().as_i64(), Some(1));
        assert!(v
            .get("a")
            .unwrap()
            .at(1)
            .unwrap()
            .get("b")
            .unwrap()
            .is_null());
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn parse_string_escapes() {
        let v = Value::parse(r#""a\nb\t\"q\" \\ A é""#).unwrap();
        assert_eq!(v.as_str(), Some("a\nb\t\"q\" \\ A é"));
    }

    #[test]
    fn parse_surrogate_pair() {
        let v = Value::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn reject_invalid() {
        for bad in [
            "",
            "tru",
            "nul",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "01",
            "1.",
            "1e",
            "\"unterminated",
            "[1 2]",
            "{\"a\":1,}",
            "\"\\x\"",
            "42 43",
            "\"\\ud800\"", // lone high surrogate
        ] {
            assert!(Value::parse(bad).is_err(), "should reject: {bad:?}");
        }
    }

    #[test]
    fn serialize_escapes() {
        let v = Value::from("line1\nline2\t\"q\"\\");
        let text = v.to_json();
        assert_eq!(Value::parse(&text).unwrap(), v);
    }

    #[test]
    fn serialize_float_roundtrips_as_float() {
        let v = Value::Float(2.0);
        let text = v.to_json();
        assert_eq!(text, "2.0");
        assert_eq!(Value::parse(&text).unwrap(), Value::Float(2.0));
    }

    #[test]
    fn big_integers_stay_exact() {
        let v = Value::parse("9223372036854775807").unwrap();
        assert_eq!(v, Value::Int(i64::MAX));
        // Larger than i64: becomes float.
        let v = Value::parse("92233720368547758080").unwrap();
        assert!(matches!(v, Value::Float(_)));
    }

    #[test]
    fn object_preserves_insertion_order() {
        let v = Value::object([("z", Value::from(1)), ("a", Value::from(2))]);
        assert_eq!(v.to_json(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn canonicalize_sorts_keys() {
        let v = Value::object([
            ("z", Value::from(1)),
            (
                "a",
                Value::object([("y", Value::from(2)), ("b", Value::from(3))]),
            ),
        ]);
        assert_eq!(v.canonicalize().to_json(), r#"{"a":{"b":3,"y":2},"z":1}"#);
    }

    #[test]
    fn accessors_on_wrong_types() {
        let v = Value::from(5);
        assert_eq!(v.as_str(), None);
        assert_eq!(v.get("k"), None);
        assert_eq!(v.at(0), None);
        assert_eq!(v.as_bool(), None);
        assert_eq!(Value::from("x").as_i64(), None);
    }

    #[test]
    fn deep_nesting_returns_error_not_overflow() {
        // Arrays, objects, and a mixed tower all hit the depth limit.
        let deep_array = "[".repeat(4096) + &"]".repeat(4096);
        let err = Value::parse(&deep_array).unwrap_err();
        assert!(err.message.contains("depth"), "{err}");

        let deep_object = "{\"k\":".repeat(4096) + "1" + &"}".repeat(4096);
        assert!(Value::parse(&deep_object).is_err());

        let mixed = "[{\"k\":".repeat(2048) + "1" + &"}]".repeat(2048);
        assert!(Value::parse(&mixed).is_err());
    }

    #[test]
    fn nesting_below_limit_is_accepted() {
        let depth = MAX_PARSE_DEPTH - 1;
        let ok = "[".repeat(depth) + &"]".repeat(depth);
        assert!(Value::parse(&ok).is_ok());
        let too_deep = "[".repeat(MAX_PARSE_DEPTH + 1) + &"]".repeat(MAX_PARSE_DEPTH + 1);
        assert!(Value::parse(&too_deep).is_err());
    }

    #[test]
    fn parse_bytes_matches_parse() {
        let text = r#"{"a": [1, 2.5, "é😀\n"], "b": null}"#;
        assert_eq!(
            Value::parse_bytes(text.as_bytes()).unwrap(),
            Value::parse(text).unwrap()
        );
        // Invalid UTF-8 inside a string literal is rejected.
        assert!(Value::parse_bytes(b"\"\xff\xfe\"").is_err());
        // ...and outside string literals too.
        assert!(Value::parse_bytes(b"\xff").is_err());
    }

    #[test]
    fn to_json_into_appends_to_buffer() {
        let v = Value::object([("k", Value::from(1))]);
        let mut buf = String::from("prefix:");
        v.to_json_into(&mut buf);
        assert_eq!(buf, "prefix:{\"k\":1}");
        buf.clear();
        v.to_json_into(&mut buf);
        assert_eq!(buf, v.to_json());
    }

    #[test]
    fn itoa_formats_extremes() {
        for v in [0i64, 1, -1, 42, -9, i64::MAX, i64::MIN] {
            let mut buf = itoa_buf();
            assert_eq!(itoa(v, &mut buf), v.to_string());
        }
    }

    #[test]
    fn as_u64_rejects_negative() {
        assert_eq!(Value::Int(-1).as_u64(), None);
        assert_eq!(Value::Int(5).as_u64(), Some(5));
    }

    #[test]
    fn from_conversions() {
        assert_eq!(
            Value::from(vec![1i64, 2]),
            Value::Array(vec![Value::Int(1), Value::Int(2)])
        );
        assert_eq!(Value::from(None::<i64>), Value::Null);
        assert_eq!(Value::from(Some(3i64)), Value::Int(3));
        assert_eq!(Value::from(u64::MAX), Value::Float(u64::MAX as f64));
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            (-1e15f64..1e15f64).prop_map(Value::Float),
            "[a-zA-Z0-9 _\\\\\"\n\t\u{e9}\u{1F600}]{0,12}".prop_map(Value::String),
        ];
        leaf.prop_recursive(3, 24, 6, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..6).prop_map(Value::Array),
                proptest::collection::vec(("[a-z]{1,6}", inner), 0..6).prop_map(Value::Object),
            ]
        })
    }

    proptest! {
        #[test]
        fn prop_roundtrip(v in arb_value()) {
            let text = v.to_json();
            let parsed = Value::parse(&text).unwrap();
            // Floats may not compare bit-exactly after formatting; compare
            // re-serialised text instead.
            prop_assert_eq!(parsed.to_json(), text);
        }

        #[test]
        fn prop_parse_bytes_to_json_into_roundtrip(v in arb_value()) {
            // parse_bytes ∘ to_json_into == id (modulo float reformatting,
            // so compare re-serialised text).
            let mut buf = String::new();
            v.to_json_into(&mut buf);
            let parsed = Value::parse_bytes(buf.as_bytes()).unwrap();
            let mut buf2 = String::new();
            parsed.to_json_into(&mut buf2);
            prop_assert_eq!(buf, buf2);
        }

        #[test]
        fn prop_canonicalize_idempotent(v in arb_value()) {
            let c1 = v.canonicalize();
            let c2 = c1.canonicalize();
            prop_assert_eq!(c1.to_json(), c2.to_json());
        }
    }
}
