//! Minimal JSON emission, parsing, and validation.
//!
//! The build environment has no crates.io access, so there is no
//! `serde_json`; this module provides the pieces telemetry export and
//! the service wire protocol actually need: a deterministic writer
//! ([`JsonValue`]) whose object keys stay in insertion order, a strict
//! recursive-descent [`parse`] that builds a [`JsonValue`] back from
//! text (used by `maeri-serve` to decode protocol frames), and
//! [`validate`], used by tests and the CI smoke to prove that emitted
//! traces are well-formed JSON.

/// A JSON document fragment. Objects preserve insertion order so that
/// rendered output is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A float; non-finite values render as `null` (JSON has no NaN).
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, keys in insertion order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// An empty object to push fields into.
    #[must_use]
    pub fn object() -> JsonValue {
        JsonValue::Object(Vec::new())
    }

    /// Adds a field to an object, returning `self` for chaining.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    #[must_use]
    pub fn with(mut self, key: &str, value: JsonValue) -> JsonValue {
        match &mut self {
            JsonValue::Object(fields) => fields.push((key.to_owned(), value)),
            other => panic!("cannot add field to non-object {other:?}"),
        }
        self
    }

    /// Renders the value as compact JSON text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Looks up a field of an object by key (first match; emitted
    /// documents never repeat keys). Returns `None` for non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one (or a signed /
    /// float value that is a non-negative whole number).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(n) => Some(*n),
            JsonValue::Int(n) => u64::try_from(*n).ok(),
            JsonValue::Num(f) if f.is_finite() && *f >= 0.0 && f.fract() == 0.0 => Some(*f as u64),
            _ => None,
        }
    }

    /// The value as a float, if it is numeric.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::UInt(n) => Some(*n as f64),
            JsonValue::Int(n) => Some(*n as f64),
            JsonValue::Num(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::UInt(n) => out.push_str(&n.to_string()),
            JsonValue::Int(n) => out.push_str(&n.to_string()),
            JsonValue::Num(f) => {
                if f.is_finite() {
                    // Rust's float Display never emits NaN/inf here and
                    // always includes enough digits to round-trip.
                    let text = format!("{f}");
                    out.push_str(&text);
                    // "1" is a valid JSON number, so bare integers are
                    // fine as-is.
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => {
                out.push('"');
                escape_into(s, out);
                out.push('"');
            }
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(key, out);
                    out.push_str("\":");
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn escape_into(s: &str, out: &mut String) {
    use std::fmt::Write as _;
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Validates that `text` is one well-formed JSON document.
///
/// # Errors
///
/// Returns a description (with byte offset) of the first syntax error.
pub fn validate(text: &str) -> Result<(), String> {
    parse(text).map(|_| ())
}

/// Parses one well-formed JSON document into a [`JsonValue`].
///
/// Numbers without a fraction or exponent become [`JsonValue::UInt`] /
/// [`JsonValue::Int`]; everything else numeric becomes
/// [`JsonValue::Num`]. Object keys keep document order (duplicates are
/// preserved; [`JsonValue::get`] returns the first).
///
/// # Errors
///
/// Returns a description (with byte offset) of the first syntax error.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                byte as char,
                self.pos,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        if self.depth >= MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b't') => self.literal("true").map(|()| JsonValue::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| JsonValue::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "expected a JSON value at byte {}, found {:?}",
                self.pos,
                other.map(|b| b as char)
            )),
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("malformed literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.eat(b'{')?;
        self.depth += 1;
        self.skip_ws();
        let mut fields: Vec<(String, JsonValue)> = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Object(fields));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.eat(b'[')?;
        self.depth += 1;
        self.skip_ws();
        let mut items: Vec<JsonValue> = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Array(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        while let Some(byte) = self.peek() {
            match byte {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => {
                            out.push('"');
                            self.pos += 1;
                        }
                        Some(b'\\') => {
                            out.push('\\');
                            self.pos += 1;
                        }
                        Some(b'/') => {
                            out.push('/');
                            self.pos += 1;
                        }
                        Some(b'b') => {
                            out.push('\u{0008}');
                            self.pos += 1;
                        }
                        Some(b'f') => {
                            out.push('\u{000c}');
                            self.pos += 1;
                        }
                        Some(b'n') => {
                            out.push('\n');
                            self.pos += 1;
                        }
                        Some(b'r') => {
                            out.push('\r');
                            self.pos += 1;
                        }
                        Some(b't') => {
                            out.push('\t');
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            let mut code: u32 = 0;
                            for _ in 0..4 {
                                match self.peek() {
                                    Some(c) if c.is_ascii_hexdigit() => {
                                        code = code * 16 + (c as char).to_digit(16).unwrap_or(0);
                                        self.pos += 1;
                                    }
                                    _ => {
                                        return Err(format!("bad \\u escape at byte {}", self.pos))
                                    }
                                }
                            }
                            // Surrogates (paired or lone) are not
                            // emitted by the writer; decode them as the
                            // replacement character rather than failing.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                0x00..=0x1f => return Err(format!("raw control character at byte {}", self.pos)),
                _ => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let rest = &self.bytes[self.pos..];
                    let text = std::str::from_utf8(rest).map_err(|_| "invalid UTF-8".to_owned())?;
                    let ch = text.chars().next().ok_or("unterminated string")?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
        Err("unterminated string".to_owned())
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let digits = self.digits()?;
        if digits > 1 && self.bytes[self.pos - digits] == b'0' {
            return Err(format!("leading zero at byte {}", self.pos - digits));
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid UTF-8 in number".to_owned())?;
        if integral {
            if negative {
                if let Ok(n) = text.parse::<i64>() {
                    return Ok(JsonValue::Int(n));
                }
            } else if let Ok(n) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|e| format!("malformed number at byte {start}: {e}"))
    }

    fn digits(&mut self) -> Result<usize, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected digits at byte {}", self.pos));
        }
        Ok(self.pos - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_validates_roundtrip() {
        let doc = JsonValue::object()
            .with("name", JsonValue::Str("vn \"0\"\n".to_owned()))
            .with("cycles", JsonValue::UInt(143))
            .with("delta", JsonValue::Int(-2))
            .with("busy", JsonValue::Num(0.75))
            .with("ok", JsonValue::Bool(true))
            .with("none", JsonValue::Null)
            .with(
                "levels",
                JsonValue::Array(vec![JsonValue::Num(1.0), JsonValue::Num(0.5)]),
            );
        let text = doc.render();
        validate(&text).unwrap();
        assert!(text.starts_with("{\"name\":\"vn \\\"0\\\"\\n\""));
        assert!(text.contains("\"cycles\":143"));
        assert!(text.contains("\"delta\":-2"));
        assert!(text.contains("\"none\":null"));
    }

    #[test]
    fn non_finite_floats_render_null() {
        assert_eq!(JsonValue::Num(f64::NAN).render(), "null");
        assert_eq!(JsonValue::Num(f64::INFINITY).render(), "null");
        assert_eq!(JsonValue::Num(2.5).render(), "2.5");
    }

    #[test]
    fn validator_accepts_standard_documents() {
        for ok in [
            "{}",
            "[]",
            "null",
            "true",
            "-12.5e-3",
            "\"a\\u00e9b\"",
            r#"{"a": [1, 2, {"b": null}], "c": "d"}"#,
            " { \"x\" : 0 } ",
        ] {
            assert!(validate(ok).is_ok(), "{ok} should validate");
        }
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\"}",
            "{\"a\":1,}",
            "01",
            "1 2",
            "\"unterminated",
            "{'single': 1}",
            "nul",
            "[\"\\x\"]",
        ] {
            assert!(validate(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(validate(&deep).is_err());
        let fine = "[".repeat(64) + &"]".repeat(64);
        assert!(validate(&fine).is_ok());
    }

    #[test]
    #[should_panic(expected = "non-object")]
    fn with_on_non_object_panics() {
        let _ = JsonValue::Null.with("a", JsonValue::Null);
    }

    #[test]
    fn parse_round_trips_rendered_documents() {
        let doc = JsonValue::object()
            .with("name", JsonValue::Str("vn \"0\"\n".to_owned()))
            .with("cycles", JsonValue::UInt(143))
            .with("delta", JsonValue::Int(-2))
            .with("busy", JsonValue::Num(0.75))
            .with("ok", JsonValue::Bool(true))
            .with("none", JsonValue::Null)
            .with(
                "levels",
                JsonValue::Array(vec![JsonValue::UInt(1), JsonValue::Num(0.5)]),
            );
        let parsed = parse(&doc.render()).unwrap();
        assert_eq!(parsed, doc);
        // And rendering the parse is byte-stable.
        assert_eq!(parsed.render(), doc.render());
    }

    #[test]
    fn parse_classifies_numbers() {
        assert_eq!(parse("7").unwrap(), JsonValue::UInt(7));
        assert_eq!(parse("-7").unwrap(), JsonValue::Int(-7));
        assert_eq!(parse("7.5").unwrap(), JsonValue::Num(7.5));
        assert_eq!(parse("1e3").unwrap(), JsonValue::Num(1000.0));
        // Too big for i64 still parses, as a float.
        assert!(matches!(
            parse("-99999999999999999999").unwrap(),
            JsonValue::Num(_)
        ));
    }

    #[test]
    fn parse_unescapes_strings() {
        assert_eq!(
            parse(r#""aéb\n\t\"""#).unwrap(),
            JsonValue::Str("a\u{e9}b\n\t\"".to_owned())
        );
    }

    #[test]
    fn accessors_navigate_parsed_documents() {
        let doc = parse(r#"{"op":"submit","id":42,"deep":{"x":[1,2]},"flag":false}"#).unwrap();
        assert_eq!(doc.get("op").and_then(JsonValue::as_str), Some("submit"));
        assert_eq!(doc.get("id").and_then(JsonValue::as_u64), Some(42));
        assert_eq!(doc.get("flag").and_then(JsonValue::as_bool), Some(false));
        let xs = doc
            .get("deep")
            .and_then(|d| d.get("x"))
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(xs.len(), 2);
        assert_eq!(doc.get("missing"), None);
        assert_eq!(JsonValue::UInt(3).as_f64(), Some(3.0));
    }
}
