//! A from-scratch JSON value model, parser, and serializer (RFC 8259).
//!
//! Object keys preserve insertion order (a `Vec` of pairs) so serialised
//! payloads are deterministic, which matters for signing.
//!
//! Outside input — a spec file, a workload profile, a wire message — is
//! read through [`Fields`] and the readers beside it ([`uint`], [`millis`],
//! …): one strict reader whose every refusal is a [`ReadError`] naming its
//! JSON path.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::time::Duration;

/// Maximum nesting depth [`Value::parse`] accepts before returning a
/// [`JsonError`]. Bounds stack use on adversarial inputs like `[[[[…]]]]`.
pub(crate) const MAX_PARSE_DEPTH: usize = 128;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integral number that fits in `i64` (kept exact).
    Int(i64),
    /// Integral number above `i64::MAX` that fits in `u64` (kept exact).
    /// Smaller integers are always [`Value::Int`], so equal numbers compare
    /// equal.
    UInt(u64),
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
        i64::try_from(v).map_or(Value::UInt(v), Value::Int)
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
        match self {
            Value::UInt(v) => Some(*v),
            _ => self.as_i64().and_then(|v| u64::try_from(v).ok()),
        }
    }

    /// The value as `f64` if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::UInt(v) => Some(*v as f64),
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
            Value::UInt(v) => write!(out, "{v}").expect("writing to String cannot fail"),
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
    /// assert_eq!(v.get("xs").unwrap().as_array().unwrap()[2].as_str(), Some("three"));
    /// ```
    pub fn parse(input: &str) -> Result<Value, JsonError> {
        Value::parse_bytes(input.as_bytes())
    }

    /// Parses JSON from raw bytes (e.g. a reused transport receive buffer),
    /// avoiding an up-front UTF-8 pass over the whole input: the parser is
    /// byte-oriented and only validates UTF-8 inside string literals.
    ///
    /// Nesting deeper than `MAX_PARSE_DEPTH` is rejected with an error
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

/// Why outside input was refused: what is wrong, at which JSON path
/// (`chaos.faults[0]: unknown key "nod"`). The readers that descend —
/// [`Fields`], [`list`], [`entries`] — add one step each as the error
/// travels up, so nothing is formatted unless something was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadError {
    /// Innermost step first, each as written: `.key`, `."odd key"`, `[3]`.
    path: Vec<String>,
    what: String,
}

impl ReadError {
    /// A refusal of the value at hand; the readers above it name the path.
    pub fn new(what: impl Into<String>) -> Self {
        ReadError {
            path: Vec::new(),
            what: what.into(),
        }
    }

    /// `want {what}, got {value}`.
    pub fn want(what: &str, got: &Value) -> Self {
        ReadError::new(format!("want {what}, got {}", shown(got)))
    }

    fn in_key(mut self, key: &str) -> Self {
        let bare = key.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_');
        let step = if bare && !key.is_empty() {
            format!(".{key}")
        } else {
            format!(".{key:?}")
        };
        self.path.push(step);
        self
    }

    fn in_item(mut self, index: usize) -> Self {
        self.path.push(format!("[{index}]"));
        self
    }
}

/// `v` as JSON, cut short: a refused value is quoted, not echoed whole.
fn shown(v: &Value) -> String {
    let mut text = v.to_json();
    if let Some((cut, _)) = text.char_indices().nth(48) {
        text.truncate(cut);
        text.push('…');
    }
    text
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let path: String = self.path.iter().rev().map(String::as_str).collect();
        match path.strip_prefix('.').unwrap_or(&path) {
            "" => f.write_str(&self.what),
            path => write!(f, "{path}: {}", self.what),
        }
    }
}

impl std::error::Error for ReadError {}

impl From<ReadError> for String {
    fn from(e: ReadError) -> String {
        e.to_string()
    }
}

impl From<JsonError> for ReadError {
    fn from(e: JsonError) -> Self {
        ReadError::new(e.to_string())
    }
}

/// The fields of one object of outside input, read key by key: a value a
/// reader refuses is an error at that key's path, never a default.
#[derive(Clone, Copy, Debug)]
pub struct Fields<'a>(&'a Value);

impl<'a> Fields<'a> {
    /// A wire message's fields. Keys nobody reads are ignored (the peer may
    /// be newer), and a value that is not an object has none: JSON-RPC's
    /// omitted `params` is `null`.
    pub fn of(value: &'a Value) -> Self {
        Fields(value)
    }

    /// A file format's object: `value` must be an object (`what` names it)
    /// and every key one of `keys` — a typo (`stall_budget` for
    /// `stall_budget_s`) must not run with the default and pass its gate
    /// vacuously.
    pub fn known_keys(value: &'a Value, what: &str, keys: &[&str]) -> Result<Self, ReadError> {
        let Value::Object(pairs) = value else {
            let what = format!("{what} must be an object, got {}", shown(value));
            return Err(ReadError::new(what));
        };
        match pairs.iter().find(|(k, _)| !keys.contains(&k.as_str())) {
            Some((key, _)) => Err(ReadError::new(format!("unknown key {key:?}"))),
            None => Ok(Fields(value)),
        }
    }

    /// Reads `key` if present.
    pub fn opt<T>(
        self,
        key: &str,
        read: impl FnOnce(&'a Value) -> Result<T, ReadError>,
    ) -> Result<Option<T>, ReadError> {
        let field = self.0.get(key).map(read).transpose();
        field.map_err(|e| e.in_key(key))
    }

    /// Reads `key`, which must be present.
    pub fn req<T>(
        self,
        key: &str,
        read: impl FnOnce(&'a Value) -> Result<T, ReadError>,
    ) -> Result<T, ReadError> {
        let missing = || ReadError::new("missing").in_key(key);
        self.opt(key, read)?.ok_or_else(missing)
    }

    /// Overwrites `slot` with `key`'s value if the object carries one.
    pub fn set<T>(
        self,
        slot: &mut T,
        key: &str,
        read: impl FnOnce(&'a Value) -> Result<T, ReadError>,
    ) -> Result<(), ReadError> {
        if let Some(value) = self.opt(key, read)? {
            *slot = value;
        }
        Ok(())
    }
}

/// A non-negative integer that fits `T`: never narrowed, never rounded.
pub fn uint<T: TryFrom<u64>>(v: &Value) -> Result<T, ReadError> {
    let fits = v.as_u64().and_then(|n| T::try_from(n).ok());
    let what = || format!("an integer that fits {}", std::any::type_name::<T>());
    fits.ok_or_else(|| ReadError::want(&what(), v))
}

/// Any number.
pub fn float(v: &Value) -> Result<f64, ReadError> {
    v.as_f64().ok_or_else(|| ReadError::want("a number", v))
}

/// A boolean.
pub fn boolean(v: &Value) -> Result<bool, ReadError> {
    v.as_bool().ok_or_else(|| ReadError::want("a boolean", v))
}

/// A string.
pub fn string(v: &Value) -> Result<&str, ReadError> {
    v.as_str().ok_or_else(|| ReadError::want("a string", v))
}

/// A duration in whole milliseconds.
pub fn millis(v: &Value) -> Result<Duration, ReadError> {
    let ms = v.as_u64().map(Duration::from_millis);
    ms.ok_or_else(|| ReadError::want("whole milliseconds", v))
}

/// A duration in seconds, fractions allowed.
pub fn secs(v: &Value) -> Result<Duration, ReadError> {
    let s = v.as_f64().and_then(|s| Duration::try_from_secs_f64(s).ok());
    s.ok_or_else(|| ReadError::want("non-negative seconds", v))
}

/// An array, each item read by `read` (an error names the item's index).
pub fn list<'a, T>(
    read: impl Fn(&'a Value) -> Result<T, ReadError>,
) -> impl Fn(&'a Value) -> Result<Vec<T>, ReadError> {
    move |v| {
        let items = v.as_array().ok_or_else(|| ReadError::want("an array", v))?;
        let item = |(i, item)| read(item).map_err(|e: ReadError| e.in_item(i));
        items.iter().enumerate().map(item).collect()
    }
}

/// An object of free-form keys, each value read by `read` (an error names
/// the key).
pub fn entries<'a, T>(
    read: impl Fn(&'a Value) -> Result<T, ReadError>,
) -> impl Fn(&'a Value) -> Result<Vec<(String, T)>, ReadError> {
    move |v| {
        let Value::Object(pairs) = v else {
            return Err(ReadError::want("an object", v));
        };
        let entry = |(key, value): &'a (String, Value)| match read(value) {
            Ok(t) => Ok((key.clone(), t)),
            Err(e) => Err(e.in_key(key)),
        };
        pairs.iter().map(entry).collect()
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
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::UInt(v));
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

    impl Value {
        /// Indexes into an array; `None` out of range or for non-arrays.
        fn at(&self, index: usize) -> Option<&Value> {
            match self {
                Value::Array(items) => items.get(index),
                _ => None,
            }
        }
    }

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
        // Above i64 but within u64: still exact.
        let v = Value::parse("18446744073709551615").unwrap();
        assert_eq!(v, Value::UInt(u64::MAX));
        assert_eq!(v.as_u64(), Some(u64::MAX));
        assert_eq!(v.as_i64(), None);
        // Larger than u64: becomes float.
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
        assert_eq!(Value::from(u64::MAX), Value::UInt(u64::MAX));
        assert_eq!(Value::from(i64::MAX as u64), Value::Int(i64::MAX));
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            any::<u64>().prop_map(Value::from),
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

        #[test]
        fn prop_every_u64_and_i64_is_exact_through_text(u in any::<u64>(), i in any::<i64>()) {
            let u_back = Value::parse(&Value::from(u).to_json()).unwrap();
            prop_assert_eq!(u_back.as_u64(), Some(u));
            prop_assert_eq!(u_back, Value::from(u));
            let i_back = Value::parse(&Value::from(i).to_json()).unwrap();
            prop_assert_eq!(i_back.as_i64(), Some(i));
        }

        /// Whatever arrives is read or refused at a path under the key it
        /// was read from, through every reader, and nothing panics.
        #[test]
        fn prop_reader_refuses_at_a_path(doc in arb_doc()) {
            let root = Value::object([("doc", doc)]);
            if let Err(e) = Fields::of(&root).req("doc", read_doc) {
                let text = e.to_string();
                let (path, what) = text.split_once(": ").expect("a path");
                prop_assert!(path.starts_with("doc"), "{}", text);
                prop_assert!(!what.is_empty(), "{}", text);
            }
        }
    }

    /// A document touching every reader, nested through `inner`.
    fn read_doc(v: &Value) -> Result<(), ReadError> {
        let keys = ["n", "ms", "s", "names", "map", "flag", "inner"];
        let f = Fields::known_keys(v, "a document", &keys)?;
        f.opt("n", uint::<u8>)?;
        f.opt("ms", millis)?;
        f.opt("s", secs)?;
        f.opt("names", list(list(string)))?;
        f.opt("map", entries(float))?;
        f.opt("flag", boolean)?;
        f.opt("inner", read_doc)?;
        Ok(())
    }

    /// Values shaped like [`read_doc`]'s documents, holding anything.
    fn arb_doc() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            (0i64..300).prop_map(Value::Int),
            any::<u64>().prop_map(Value::from),
            (-1e19f64..1e19f64).prop_map(Value::Float),
            "[a-z-]{0,4}".prop_map(Value::String),
        ];
        let key = "(n|ms|s|names|map|flag|inner|fabric-sim|)";
        leaf.prop_recursive(4, 32, 5, move |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
                proptest::collection::vec((key, inner), 0..5).prop_map(Value::Object),
            ]
        })
    }

    #[test]
    fn read_errors_name_their_path() {
        let table = [
            (
                r#"{"n": 256}"#,
                "doc.n: want an integer that fits u8, got 256",
            ),
            (
                r#"{"n": -1}"#,
                "doc.n: want an integer that fits u8, got -1",
            ),
            (r#"{"ms": 0.5}"#, "doc.ms: want whole milliseconds, got 0.5"),
            (r#"{"s": -1}"#, "doc.s: want non-negative seconds, got -1"),
            (r#"{"nod": 1}"#, r#"doc: unknown key "nod""#),
            ("[]", "doc: a document must be an object, got []"),
            (
                r#"{"inner": {"names": [["a"], ["b", 7]]}}"#,
                "doc.inner.names[1][1]: want a string, got 7",
            ),
            (
                r#"{"map": {"fabric-sim": "x"}}"#,
                r#"doc.map."fabric-sim": want a number, got "x""#,
            ),
            (
                r#"{"flag": "a string longer than the forty-eight characters shown"}"#,
                r#"doc.flag: want a boolean, got "a string longer than the forty-eight characters…"#,
            ),
        ];
        for (doc, want) in table {
            let root = Value::object([("doc", Value::parse(doc).unwrap())]);
            let err = Fields::of(&root).req("doc", read_doc).unwrap_err();
            assert_eq!(err.to_string(), want, "{doc}");
        }
        // At the root there is no path to name; a missing key is named.
        let root = Value::parse(r#"{"x": 1}"#).unwrap();
        let err = read_doc(&root).unwrap_err();
        assert_eq!(err.to_string(), r#"unknown key "x""#);
        let err = Fields::of(&root).req("y", boolean).unwrap_err();
        assert_eq!(err.to_string(), "y: missing");
        // A wire message ignores keys nobody reads; `null` has no fields.
        assert_eq!(Fields::of(&root).opt("y", boolean), Ok(None));
        assert_eq!(Fields::of(&Value::Null).opt("y", boolean), Ok(None));
    }
}
