//! Minimal, dependency-free JSON support for the DSM workspace.
//!
//! The build must work fully offline, so instead of `serde`/`serde_json`
//! the workspace uses this small value model: enough JSON to round-trip
//! the bench result cache, emit Chrome trace-event files and JSONL
//! metrics, and parse them back in tests.
//!
//! Numbers are kept as `i64` where possible (`Value::Int`) so counter
//! values round-trip exactly; anything with a fraction or exponent is an
//! `f64` (`Value::Float`). Object key order is insertion order, which
//! keeps output deterministic.

use std::fmt;

/// A parsed or constructed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Build an empty object (use [`Value::set`] to fill it).
    pub fn obj() -> Value {
        Value::Obj(Vec::new())
    }

    /// Insert or replace a key in an object value. Panics on non-objects:
    /// that is a programming error, not a data error.
    pub fn set(&mut self, key: &str, val: impl Into<Value>) -> &mut Value {
        let Value::Obj(fields) = self else {
            panic!("Value::set on non-object")
        };
        if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
            slot.1 = val.into();
        } else {
            fields.push((key.to_string(), val.into()));
        }
        self
    }

    /// Look up a key in an object; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience: `get` + `as_u64`.
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(Value::as_u64)
    }

    /// Parse a JSON document. The whole input must be one value (plus
    /// surrounding whitespace).
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(v)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(n: i64) -> Value {
        Value::Int(n)
    }
}
impl From<u64> for Value {
    fn from(n: u64) -> Value {
        if n <= i64::MAX as u64 {
            Value::Int(n as i64)
        } else {
            Value::Float(n as f64)
        }
    }
}
impl From<u32> for Value {
    fn from(n: u32) -> Value {
        Value::Int(n as i64)
    }
}
impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::from(n as u64)
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::Float(x)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}
impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Value {
        Value::Arr(items)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    /// `None` is `null`.
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(n) => write!(f, "{n}"),
            Value::Float(x) => {
                if x.is_finite() {
                    // `{}` on f64 always includes enough digits to round-trip
                    // but prints integers without a fraction; force one so the
                    // parser reads the value back as Float.
                    if x.fract() == 0.0 && x.abs() < 1e15 {
                        write!(f, "{x:.1}")
                    } else {
                        write!(f, "{x}")
                    }
                } else {
                    // JSON has no NaN/Inf; null is the conventional fallback.
                    f.write_str("null")
                }
            }
            Value::Str(s) => write_escaped(f, s),
            Value::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Value::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Escape a string per the JSON spec and write it with quotes.
pub fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
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

/// Parse failure: byte offset, 1-based line/column, and a short reason.
///
/// Line and column point at the offending byte (hand-written scenario files
/// are the main producer of errors, so positions must be human-usable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub line: usize,
    pub col: usize,
    pub reason: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at line {} column {} (byte {}): {}",
            self.line, self.col, self.offset, self.reason
        )
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, reason: &'static str) -> ParseError {
        // Errors are terminal, so the line/column scan happens at most once
        // per parse; a column is counted in bytes of its line.
        let mut line = 1;
        let mut col = 1;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        ParseError {
            offset: self.pos,
            line,
            col,
            reason,
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err("unexpected character"))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: read the low half if present.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                            // hex4 leaves pos just past the digits; undo the
                            // +1 below since we already consumed them.
                            self.pos -= 1;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the whole unescaped run in one chunk. The run
                    // ends at an ASCII delimiter, so it falls on a char
                    // boundary and validates in one linear pass (validating
                    // per character would make parsing quadratic).
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("bad utf-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a' + 10) as u32,
                Some(b @ b'A'..=b'F') => (b - b'A' + 10) as u32,
                _ => return Err(self.err("invalid \\u escape")),
            };
            cp = cp * 16 + d;
            self.pos += 1;
        }
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
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
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err("bad number"))
        } else {
            // Integers that overflow i64 fall back to f64.
            match text.parse::<i64>() {
                Ok(n) => Ok(Value::Int(n)),
                Err(_) => text
                    .parse::<f64>()
                    .map(Value::Float)
                    .map_err(|_| self.err("bad number")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for text in ["null", "true", "false", "0", "-17", "42"] {
            let v = Value::parse(text).unwrap();
            assert_eq!(v.to_string(), text);
        }
        assert_eq!(Value::parse("1.5").unwrap(), Value::Float(1.5));
        assert_eq!(Value::parse("2e3").unwrap(), Value::Float(2000.0));
        assert_eq!(Value::Float(3.0).to_string(), "3.0");
    }

    #[test]
    fn roundtrip_structures() {
        let text = r#"{"a":[1,2,{"b":"x\ny"}],"c":null,"d":{"e":false}}"#;
        let v = Value::parse(text).unwrap();
        assert_eq!(v.to_string(), text);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2]
                .get("b")
                .unwrap()
                .as_str(),
            Some("x\ny")
        );
    }

    #[test]
    fn escapes() {
        let v = Value::from("quote \" backslash \\ tab \t");
        let text = v.to_string();
        assert_eq!(Value::parse(&text).unwrap(), v);
        // \u escape with surrogate pair
        let v = Value::parse(r#""😀 A""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600} A"));
    }

    #[test]
    fn whitespace_and_errors() {
        assert!(Value::parse("  [ 1 , 2 ]  ").is_ok());
        for bad in ["", "[1,", "{\"a\"}", "tru", "1 2", "{1:2}", "\"abc"] {
            assert!(Value::parse(bad).is_err(), "should fail: {bad}");
        }
    }

    #[test]
    fn large_integers_roundtrip_exactly() {
        let n = (1u64 << 62) + 12345;
        let v = Value::from(n);
        let back = Value::parse(&v.to_string()).unwrap();
        assert_eq!(back.as_u64(), Some(n));
    }

    #[test]
    fn large_documents_parse_in_linear_time() {
        // Regression test for the quadratic string scan: a multi-megabyte
        // document (the size of a recorded trace) must parse quickly.
        let mut items = Vec::new();
        for i in 0..20_000 {
            let mut o = Value::obj();
            o.set("name", format!("event_{i}"));
            o.set("ts", i as u64);
            items.push(o);
        }
        let text = Value::Arr(items).to_string();
        assert!(text.len() > 500_000);
        let t0 = std::time::Instant::now();
        let back = Value::parse(&text).unwrap();
        assert_eq!(back.as_arr().unwrap().len(), 20_000);
        // Generous bound: linear parsing takes well under a second even in
        // debug builds; the quadratic version took minutes.
        assert!(t0.elapsed().as_secs() < 30, "parse took {:?}", t0.elapsed());
    }

    #[test]
    fn errors_carry_line_and_column() {
        // A malformed scenario-style fixture: the value of "block" on line 4
        // is bare garbage. The error must point at it exactly.
        let fixture = "{\n  \"name\": \"kv\",\n  \"mode\": {\n    \"block\": oops,\n  }\n}";
        let e = Value::parse(fixture).unwrap_err();
        assert_eq!(e.line, 4, "{e}");
        assert_eq!(e.col, 14, "{e}");
        assert_eq!(e.offset, fixture.find("oops").unwrap());
        let shown = e.to_string();
        assert!(shown.contains("line 4"), "{shown}");
        assert!(shown.contains("column 14"), "{shown}");

        // First-line errors are 1-based.
        let e = Value::parse("x").unwrap_err();
        assert_eq!((e.line, e.col), (1, 1));

        // Unterminated string: position is end-of-input on the last line.
        let e = Value::parse("{\"a\":\n\"abc").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn set_and_get() {
        let mut v = Value::obj();
        v.set("x", 1u64).set("y", "s").set("x", 2u64);
        assert_eq!(v.u64_field("x"), Some(2));
        assert_eq!(v.get("y").unwrap().as_str(), Some("s"));
    }
}
