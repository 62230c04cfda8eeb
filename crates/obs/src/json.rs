//! A minimal JSON value type with a hand-rolled parser and writer.
//!
//! The workspace is built offline with no registry access, so this module
//! stands in for `serde_json` everywhere the reproduction needs structured
//! persistence: model checkpoints (`vega-nn`, `vega-model`) and the JSONL
//! trace exporter. Numbers keep their raw spelling so `u64` seeds and `f32`
//! weights round-trip losslessly; the writer emits pure-ASCII output (every
//! non-ASCII scalar is `\u`-escaped), which keeps JSONL lines single-line and
//! terminal-safe.
//!
//! A value that is rendered many times can be rendered once and kept as
//! [`Json::Raw`] text: `render` writes it verbatim, so a tree holding it
//! renders to the same bytes as the tree it came from, and cloning it bumps a
//! reference count instead of copying the tree.

use std::fmt;
use std::sync::Arc;

/// A parsed or to-be-written JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also used for non-finite floats, which JSON cannot express).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw decimal spelling.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered key→value list.
    Obj(Vec<(String, Json)>),
    /// Already-rendered JSON text, written out verbatim by [`Json::render`].
    /// [`Json::parse`] never produces it, and the typed accessors treat it
    /// as opaque; equality compares the text.
    Raw(Arc<str>),
}

/// Error produced by [`Json::parse`] or the typed accessors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description, with a byte offset for parse errors.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.msg)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError { msg: msg.into() })
}

impl Json {
    /// A number from an `f64`; non-finite values become [`Json::Null`].
    pub fn num_f64(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(format!("{v:?}"))
        } else {
            Json::Null
        }
    }

    /// A number from an `f32`; non-finite values become [`Json::Null`].
    pub fn num_f32(v: f32) -> Json {
        if v.is_finite() {
            Json::Num(format!("{v:?}"))
        } else {
            Json::Null
        }
    }

    /// A number from a `u64`.
    pub fn num_u64(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    /// A number from a `usize`.
    pub fn num_usize(v: usize) -> Json {
        Json::Num(v.to_string())
    }

    /// A number from an `i64`.
    pub fn num_i64(v: i64) -> Json {
        Json::Num(v.to_string())
    }

    /// A string value.
    pub fn str(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// An object from `(key, value)` pairs.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Looks up a key in an object.
    ///
    /// # Errors
    /// Returns an error if `self` is not an object or the key is absent.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        match self {
            Json::Obj(fields) => match fields.iter().find(|(k, _)| k == key) {
                Some((_, v)) => Ok(v),
                None => err(format!("missing field `{key}`")),
            },
            _ => err(format!("expected object with field `{key}`")),
        }
    }

    /// The elements of an array.
    ///
    /// # Errors
    /// Returns an error if `self` is not an array.
    pub fn as_array(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(v) => Ok(v),
            _ => err("expected array"),
        }
    }

    /// The value as a string slice.
    ///
    /// # Errors
    /// Returns an error if `self` is not a string.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            _ => err("expected string"),
        }
    }

    /// The value as a bool.
    ///
    /// # Errors
    /// Returns an error if `self` is not a bool.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            _ => err("expected bool"),
        }
    }

    /// The value as an `f64`. `null` reads back as NaN (the writer maps
    /// non-finite floats to `null`).
    ///
    /// # Errors
    /// Returns an error if `self` is not a number or `null`.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Num(raw) => raw.parse::<f64>().map_err(|_| JsonError {
                msg: format!("bad number `{raw}`"),
            }),
            Json::Null => Ok(f64::NAN),
            _ => err("expected number"),
        }
    }

    /// The value as an `f32` (see [`Json::as_f64`] for the `null` rule).
    ///
    /// # Errors
    /// Returns an error if `self` is not a number or `null`.
    pub fn as_f32(&self) -> Result<f32, JsonError> {
        match self {
            Json::Num(raw) => raw.parse::<f32>().map_err(|_| JsonError {
                msg: format!("bad number `{raw}`"),
            }),
            Json::Null => Ok(f32::NAN),
            _ => err("expected number"),
        }
    }

    /// The value as a `u64` (exact; rejects fractions and negatives).
    ///
    /// # Errors
    /// Returns an error if `self` is not an unsigned integer.
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match self {
            Json::Num(raw) => raw.parse::<u64>().map_err(|_| JsonError {
                msg: format!("bad u64 `{raw}`"),
            }),
            _ => err("expected unsigned integer"),
        }
    }

    /// The value as a `usize` (exact).
    ///
    /// # Errors
    /// Returns an error if `self` is not an unsigned integer.
    pub fn as_usize(&self) -> Result<usize, JsonError> {
        match self {
            Json::Num(raw) => raw.parse::<usize>().map_err(|_| JsonError {
                msg: format!("bad usize `{raw}`"),
            }),
            _ => err("expected unsigned integer"),
        }
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(raw) => out.push_str(raw),
            Json::Raw(text) => out.push_str(text),
            Json::Str(s) => {
                out.push('"');
                escape_into(s, out);
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(k, out);
                    out.push_str("\":");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (rejecting trailing garbage).
    ///
    /// # Errors
    /// Returns an error describing the first malformed byte.
    pub fn parse(s: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }
}

/// Escapes a string's content for embedding inside JSON quotes. The output
/// is pure ASCII: quotes, backslashes and control characters use the short
/// escapes, everything non-ASCII becomes `\uXXXX` (with surrogate pairs
/// beyond the BMP).
pub fn escape_into(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c if c.is_ascii() => out.push(c),
            c => {
                let mut buf = [0u16; 2];
                for unit in c.encode_utf16(&mut buf) {
                    out.push_str(&format!("\\u{unit:04x}"));
                }
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => err(format!("unexpected byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
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
                _ => return err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| JsonError {
            msg: "non-utf8 number".into(),
        })?;
        if raw.parse::<f64>().is_err() {
            return err(format!("bad number `{raw}` at byte {start}"));
        }
        Ok(Json::Num(raw.to_string()))
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return err("truncated \\u escape");
        }
        let s =
            std::str::from_utf8(&self.bytes[self.pos..self.pos + 4]).map_err(|_| JsonError {
                msg: "non-utf8 \\u escape".into(),
            })?;
        let v = u16::from_str_radix(s, 16).map_err(|_| JsonError {
            msg: format!("bad \\u escape `{s}`"),
        })?;
        self.pos += 4;
        Ok(v)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        let mut units: Vec<u16> = Vec::new();
        let flush = |units: &mut Vec<u16>, out: &mut String| -> Result<(), JsonError> {
            if !units.is_empty() {
                match String::from_utf16(units) {
                    Ok(s) => out.push_str(&s),
                    Err(_) => return err("unpaired surrogate"),
                }
                units.clear();
            }
            Ok(())
        };
        loop {
            match self.peek() {
                None => return err("unterminated string"),
                Some(b'"') => {
                    flush(&mut units, &mut out)?;
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or(JsonError {
                        msg: "truncated escape".into(),
                    })?;
                    self.pos += 1;
                    match esc {
                        b'u' => units.push(self.hex4()?),
                        _ => {
                            flush(&mut units, &mut out)?;
                            match esc {
                                b'"' => out.push('"'),
                                b'\\' => out.push('\\'),
                                b'/' => out.push('/'),
                                b'n' => out.push('\n'),
                                b'r' => out.push('\r'),
                                b't' => out.push('\t'),
                                b'b' => out.push('\u{8}'),
                                b'f' => out.push('\u{c}'),
                                c => {
                                    return err(format!("bad escape `\\{}`", c as char));
                                }
                            }
                        }
                    }
                }
                Some(_) => {
                    flush(&mut units, &mut out)?;
                    // Consume one UTF-8 scalar (the input is a &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|_| JsonError {
                            msg: "non-utf8 input".into(),
                        })?;
                    let ch = rest.chars().next().ok_or(JsonError {
                        msg: "unterminated string".into(),
                    })?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_nested_values() {
        let v = Json::obj([
            (
                "a",
                Json::Arr(vec![Json::num_u64(1), Json::Bool(false), Json::Null]),
            ),
            ("b", Json::obj([("nested", Json::str("x"))])),
            ("n", Json::num_f32(-1.5e-3)),
        ]);
        let text = v.render();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn raw_parts_render_as_the_tree_they_came_from() {
        let part = Json::obj([
            ("s", Json::str("q\"ü")),
            ("n", Json::Arr(vec![Json::num_f64(0.25), Json::Null])),
        ]);
        let whole = |p: Json| Json::obj([("id", Json::Null), ("parts", Json::Arr(vec![p]))]);
        let raw = Json::Raw(part.render().into());
        assert_eq!(raw.render(), part.render());
        assert_eq!(whole(raw.clone()).render(), whole(part.clone()).render());
        // Clones share the text; parsing yields the tree, never `Raw`.
        match (&raw, raw.clone()) {
            (Json::Raw(a), Json::Raw(b)) => assert!(Arc::ptr_eq(a, &b)),
            other => panic!("expected raw text, got {other:?}"),
        }
        assert_eq!(Json::parse(&raw.render()).unwrap(), part);
    }

    #[test]
    fn escapes_quotes_newlines_and_non_ascii() {
        let v = Json::str("say \"hi\"\nüber → done\ttab \\ back");
        let text = v.render();
        assert!(text.is_ascii(), "writer must emit pure ASCII: {text}");
        assert!(!text.contains('\n'), "JSONL lines must stay single-line");
        assert!(text.contains("\\\"hi\\\""));
        assert!(text.contains("\\n"));
        assert!(text.contains("\\u00fc"), "ü escaped: {text}");
        assert!(text.contains("\\u2192"), "→ escaped: {text}");
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn escapes_astral_plane_as_surrogate_pair() {
        let v = Json::str("ok 🚀");
        let text = v.render();
        assert!(text.contains("\\ud83d\\ude80"), "{text}");
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn numbers_roundtrip_exactly() {
        for x in [
            0.0f32,
            1.0,
            -3.5,
            1e-9,
            std::f32::consts::PI,
            f32::MAX,
            f32::MIN_POSITIVE,
        ] {
            let back = Json::parse(&Json::num_f32(x).render())
                .unwrap()
                .as_f32()
                .unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
        let big = u64::MAX - 3;
        let back = Json::parse(&Json::num_u64(big).render())
            .unwrap()
            .as_u64()
            .unwrap();
        assert_eq!(back, big);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::num_f32(f32::NAN), Json::Null);
        assert!(Json::Null.as_f32().unwrap().is_nan());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"abc",
            "{\"a\" 1}",
            "nul",
            "1 2",
            "{\"a\":}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn field_and_accessor_errors_name_the_problem() {
        let v = Json::parse("{\"a\": 1}").unwrap();
        assert_eq!(v.field("a").unwrap().as_u64().unwrap(), 1);
        assert!(v.field("b").unwrap_err().msg.contains("`b`"));
        assert!(v.field("a").unwrap().as_str().is_err());
    }
}
