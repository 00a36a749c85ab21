//! A minimal, dependency-free JSON value used for experiment configs.
//!
//! The unified experiment driver feeds every study a JSON object (the
//! study's scaled defaults merged with user overrides) and can emit a
//! JSON result envelope. No JSON crate is vendored in this offline
//! workspace, so this module provides the small subset the experiment
//! layer needs: a [`Json`] value, a strict parser, a compact writer,
//! and object helpers.
//!
//! Deliberate deviations from full JSON, documented here once:
//!
//! - numbers are `f64` (the configs carry no integers beyond 2^53);
//! - non-finite numbers serialize as `null`, and config readers that
//!   accept "unbounded" values (e.g. power caps) read `null` back as
//!   `f64::INFINITY`;
//! - object key order is preserved as written, so rendering is
//!   deterministic;
//! - arrays and objects nest at most 128 levels deep; the parser
//!   recurses once per level, so a deeper document is an error rather
//!   than a stack overflow.

use std::fmt;

/// The deepest array/object nesting [`Json::parse`] accepts.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a complete JSON document (trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        let mut p = Parser {
            text,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }

    /// Looks a key up in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite or infinite number, if it is one.
    /// `null` reads as `f64::INFINITY` (the "unbounded" encoding).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::Null => Some(f64::INFINITY),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object's key/value pairs, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Replaces or inserts a key in an object (no-op on non-objects).
    pub fn set(&mut self, key: &str, value: Json) {
        if let Json::Obj(pairs) = self {
            match pairs.iter_mut().find(|(k, _)| k == key) {
                Some((_, v)) => *v = value,
                None => pairs.push((key.to_string(), value)),
            }
        }
    }

    /// Merges `overrides` into `self`: object keys are replaced (nested
    /// objects merge recursively); any other value overwrites wholesale.
    pub fn merge(&mut self, overrides: &Json) {
        match (self, overrides) {
            (Json::Obj(base), Json::Obj(over)) => {
                for (k, v) in over {
                    match base.iter_mut().find(|(bk, _)| bk == k) {
                        Some((_, bv)) => bv.merge(v),
                        None => base.push((k.clone(), v.clone())),
                    }
                }
            }
            (slot, other) => *slot = other.clone(),
        }
    }

    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds an array of numbers.
    pub fn nums(values: impl IntoIterator<Item = f64>) -> Json {
        Json::Arr(values.into_iter().map(Json::Num).collect())
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Num(v as f64)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(v) if v.is_finite() => write!(f, "{v}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

struct Parser<'a> {
    /// The document; already valid UTF-8, so characters are decoded from
    /// it in place and never re-validated.
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn consume(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one array or object level, bounded by [`MAX_DEPTH`].
    fn nested(
        &mut self,
        level: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nested deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = level(self);
        self.depth -= 1;
        value
    }

    /// Consumes the next byte if it is one of `set`.
    fn eat(&mut self, set: &[u8]) -> bool {
        let hit = self.peek().is_some_and(|b| set.contains(&b));
        self.pos += usize::from(hit);
        hit
    }

    /// Consumes one or more ASCII digits.
    fn digits(&mut self) -> Result<(), JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a digit in a number"));
        }
        Ok(())
    }

    /// RFC 8259 numbers: an optional `-`, `0` or a digit run, then an
    /// optional fraction and exponent, each with at least one digit. A
    /// lone `0` ends the integer part, so a digit after it (`01`) is
    /// left over as trailing text the caller rejects.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        self.eat(b"-");
        if !self.eat(b"0") {
            self.digits()?;
        }
        if self.eat(b".") {
            self.digits()?;
        }
        if self.eat(b"eE") {
            self.eat(b"+-");
            self.digits()?;
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("invalid number `{text}`")))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.consume(b'"')?;
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
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            // Exactly four hex digits: `from_str_radix`
                            // alone would also take a sign.
                            let code = self
                                .text
                                .get(self.pos..self.pos + 4)
                                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("\\u takes exactly four hex digits"))?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(self.err(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                Some(_) => {
                    // Consume one full UTF-8 character.
                    let c = self
                        .text
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| self.err("invalid utf-8"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.consume(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.consume(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.consume(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    #[test]
    fn parses_the_config_shapes() {
        let v = Json::parse(r#"{"population_scale": 0.05, "class": 2, "caps_w": [null, 8e6], "maintenance_days": [34.0, 41.0], "on": true, "tag": "a\nb"}"#).unwrap();
        assert_eq!(v.get("population_scale").and_then(Json::as_f64), Some(0.05));
        assert_eq!(v.get("class").and_then(Json::as_f64), Some(2.0));
        let caps = v.get("caps_w").and_then(Json::as_arr).unwrap();
        assert_eq!(caps[0].as_f64(), Some(f64::INFINITY));
        assert_eq!(caps[1].as_f64(), Some(8e6));
        assert_eq!(v.get("on").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("tag").and_then(Json::as_str), Some("a\nb"));
    }

    #[test]
    fn roundtrips_through_display() {
        let v = Json::obj([
            ("scale", Json::Num(0.25)),
            ("caps", Json::nums([f64::INFINITY, 8e6])),
            ("name", Json::from("fig08")),
            ("none", Json::Null),
        ]);
        let text = v.to_string();
        let back = Json::parse(&text).unwrap();
        // INFINITY serializes as null and reads back as INFINITY via as_f64.
        assert_eq!(
            back.get("caps").and_then(Json::as_arr).unwrap()[0],
            Json::Null
        );
        assert_eq!(back.get("scale"), Some(&Json::Num(0.25)));
        assert_eq!(back.get("name").and_then(Json::as_str), Some("fig08"));
    }

    #[test]
    fn merge_replaces_and_recurses() {
        let mut base = Json::parse(r#"{"a": 1, "nest": {"x": 1, "y": 2}}"#).unwrap();
        let over = Json::parse(r#"{"nest": {"y": 3}, "b": 4}"#).unwrap();
        base.merge(&over);
        assert_eq!(base.get("a").and_then(Json::as_f64), Some(1.0));
        assert_eq!(base.get("b").and_then(Json::as_f64), Some(4.0));
        let nest = base.get("nest").unwrap();
        assert_eq!(nest.get("x").and_then(Json::as_f64), Some(1.0));
        assert_eq!(nest.get("y").and_then(Json::as_f64), Some(3.0));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"\\q\""] {
            assert!(Json::parse(bad).is_err(), "{bad} should fail");
        }
        // RFC 8259 numbers: no leading zero before another digit, and a
        // digit after `-`, after `.` and in the exponent; `\u` takes
        // exactly four hex digits.
        for bad in [
            "01", "-01", "0.", "1.e5", "-.5", ".5", "-", "1e", "1e+", "1E-", "+1",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad} should fail");
        }
        for bad in [r#"{"a": 01}"#, r#""k\u+041""#, r#""\u-041""#, r#""\u041""#] {
            assert!(Json::parse(bad).is_err(), "{bad} should fail");
        }
        assert_eq!(Json::parse(r#""k\u0041""#), Ok(Json::from("kA")));
        assert_eq!(Json::parse("-0.5e+1"), Ok(Json::Num(-5.0)));
        // Nesting is capped instead of overflowing the stack.
        let nest = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
        let err = Json::parse(&nest("[", "]", 100_000)).unwrap_err();
        assert!(err.message.contains("nested deeper than 128"), "{err}");
        assert!(Json::parse(&nest("{\"a\": [", "]}", 50_000)).is_err());
        assert!(Json::parse(&nest("[", "]", MAX_DEPTH)).is_ok());
    }
}
