//! A minimal, dependency-free JSON document model.
//!
//! The build environment has no registry access, so the workspace's `serde`
//! is a no-op stand-in (see `compat/README.md`) and on-disk formats are
//! hand-rolled. This module provides the document model behind the result
//! cache and the sweep benchmark record: a [`Json`] tree, a writer, and a
//! recursive-descent parser.
//!
//! Two properties are load-bearing for the content-addressed result cache:
//!
//! * **Lossless numbers.** Unsigned integers are kept as `u64` (seeds and
//!   job ids exceed 2^53, the exact-integer limit of `f64`), and floats are
//!   written in Rust's shortest round-trip form, so
//!   `parse(write(x)) == x` bit-for-bit for every finite value.
//! * **Deterministic output.** Objects preserve insertion order (they are
//!   association lists, not hash maps), so the same document always
//!   serializes to the same bytes — equal reports produce equal cache
//!   files.
//!
//! Non-finite floats (never produced by a healthy run, but guarded anyway)
//! are encoded as the strings `"NaN"`, `"inf"`, and `"-inf"`; bare numeric
//! lookups never decode them, only [`Json::as_f64`] does.
//!
//! ```
//! use vr_simcore::jsonio::Json;
//!
//! let doc = Json::obj([
//!     ("seed", Json::U64(u64::MAX)),
//!     ("slowdown", Json::F64(1.25)),
//!     ("name", Json::str("SPEC-Trace-3")),
//! ]);
//! let text = doc.render();
//! assert_eq!(Json::parse(&text).unwrap(), doc);
//! ```

use std::fmt::Write as _;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, kept exact (never routed through `f64`).
    U64(u64),
    /// A floating-point number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an insertion-ordered association list.
    Obj(Vec<(String, Json)>),
}

/// Error from [`Json::parse`], with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Shorthand for a string node.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Shorthand for an object node from `(key, value)` pairs.
    pub fn obj<K: Into<String>, I: IntoIterator<Item = (K, Json)>>(fields: I) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Looks up a field of an object node.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// This node as a `u64`, if it is an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// This node as an `f64`. Integers widen; the sentinel strings `"NaN"`,
    /// `"inf"`, and `"-inf"` decode to their non-finite values.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(x) => Some(*x),
            Json::U64(n) => Some(*n as f64),
            Json::Str(s) => match s.as_str() {
                "NaN" => Some(f64::NAN),
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                _ => None,
            },
            _ => None,
        }
    }

    /// This node as a `bool`, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// This node as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This node's elements, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Builds an `F64` node, demoting non-finite values to their sentinel
    /// strings so the output stays valid JSON.
    pub fn f64(x: f64) -> Json {
        if x.is_finite() {
            Json::F64(x)
        } else if x.is_nan() {
            Json::str("NaN")
        } else if x > 0.0 {
            Json::str("inf")
        } else {
            Json::str("-inf")
        }
    }

    /// Serializes the document compactly (no insignificant whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(x) => write_f64(*x, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(err(pos, "trailing data after document"));
        }
        Ok(value)
    }
}

/// Writes a float in Rust's shortest round-trip form. The `{:?}` formatter
/// always keeps a `.0` or an exponent on whole values, so the token remains
/// lexically a float and re-parses into `Json::F64`, never `Json::U64`.
fn write_f64(x: f64, out: &mut String) {
    debug_assert!(x.is_finite(), "non-finite floats use Json::f64");
    let _ = write!(out, "{x:?}");
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
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
    out.push('"');
}

fn err(offset: usize, message: impl Into<String>) -> JsonError {
    JsonError {
        offset,
        message: message.into(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), JsonError> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, format!("expected {:?}", byte as char)))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(err(*pos, format!("expected {word}")))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    match bytes.get(*pos) {
        Some(b'-') => *pos += 1,
        Some(b'0'..=b'9') => {}
        _ => return Err(err(start, "expected a value")),
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    // vr-lint::allow(panic-in-lib, reason = "the scan loop above only accepts ASCII digit, sign, and exponent bytes")
    let token = std::str::from_utf8(&bytes[start..*pos]).expect("ASCII number token");
    if token.is_empty() || token == "-" {
        return Err(err(start, "expected a value"));
    }
    if !is_float && !token.starts_with('-') {
        return token
            .parse::<u64>()
            .map(Json::U64)
            .map_err(|e| err(start, format!("bad integer {token:?}: {e}")));
    }
    token
        .parse::<f64>()
        .map(Json::F64)
        .map_err(|e| err(start, format!("bad number {token:?}: {e}")))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
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
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| err(*pos, "non-ASCII \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, format!("bad \\u escape {hex:?}")))?;
                        // Surrogate pairs are not produced by our writer;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume a whole run of unescaped bytes at once: validating
                // per character would rescan the remaining input each time
                // and turn large documents quadratic.
                let start = *pos;
                while let Some(&b) = bytes.get(*pos) {
                    if b == b'"' || b == b'\\' {
                        break;
                    }
                    *pos += 1;
                }
                let chunk = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| err(start, "invalid UTF-8"))?;
                out.push_str(chunk);
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err(*pos, "expected ',' or ']'")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(err(*pos, "expected ',' or '}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_node_kind() {
        let doc = Json::obj([
            ("null", Json::Null),
            ("yes", Json::Bool(true)),
            ("no", Json::Bool(false)),
            ("big", Json::U64(u64::MAX)),
            ("zero", Json::U64(0)),
            ("float", Json::F64(0.1)),
            ("whole_float", Json::F64(3.0)),
            ("tiny", Json::F64(5e-324)),
            ("neg", Json::F64(-2.5)),
            ("text", Json::str("hi \"there\"\n\\ tab\t€")),
            (
                "arr",
                Json::Arr(vec![Json::U64(1), Json::F64(2.5), Json::Null]),
            ),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::obj::<String, _>([])),
        ]);
        let text = doc.render();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        // Deterministic output: render → parse → render is a fixed point.
        assert_eq!(Json::parse(&text).unwrap().render(), text);
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for bits in [
            0x3ff0_0000_0000_0001u64, // 1.0 + ulp
            0x3fb9_9999_9999_999a,    // 0.1
            0x7fef_ffff_ffff_ffff,    // f64::MAX
            0x0000_0000_0000_0001,    // min subnormal
            0x4340_0000_0000_0001,    // > 2^53, odd significand
        ] {
            let x = f64::from_bits(bits);
            let parsed = Json::parse(&Json::F64(x).render()).unwrap();
            assert_eq!(parsed.as_f64().unwrap().to_bits(), bits, "{x}");
        }
    }

    #[test]
    fn whole_floats_stay_floats_and_integers_stay_exact() {
        assert_eq!(Json::parse("3.0").unwrap(), Json::F64(3.0));
        assert_eq!(Json::parse("3").unwrap(), Json::U64(3));
        // 2^53 + 1 is not representable in f64; the u64 path keeps it.
        assert_eq!(
            Json::parse("9007199254740993").unwrap().as_u64(),
            Some(9007199254740993)
        );
    }

    #[test]
    fn non_finite_sentinels() {
        assert_eq!(Json::f64(f64::INFINITY), Json::str("inf"));
        assert_eq!(Json::f64(f64::NEG_INFINITY), Json::str("-inf"));
        assert_eq!(Json::f64(f64::NAN), Json::str("NaN"));
        assert!(Json::str("NaN").as_f64().unwrap().is_nan());
        assert_eq!(Json::str("-inf").as_f64(), Some(f64::NEG_INFINITY));
    }

    #[test]
    fn object_lookup_and_accessors() {
        let doc = Json::obj([("a", Json::U64(1)), ("b", Json::str("x"))]);
        assert_eq!(doc.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::U64(7).as_f64(), Some(7.0));
        assert_eq!(Json::Bool(true).as_bool(), Some(true));
        assert_eq!(Json::Arr(vec![]).as_arr(), Some(&[][..]));
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "1.2.3",
            "-",
            "\"unterminated",
            "[1] x",
            "nul",
            "+5",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parse_accepts_whitespace_and_escapes() {
        let doc = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : \"\\u0041\\n\" } ").unwrap();
        assert_eq!(doc.get("b").and_then(Json::as_str), Some("A\n"));
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn control_characters_escape() {
        let s = Json::str("\u{1}");
        let text = s.render();
        assert_eq!(text, "\"\\u0001\"");
        assert_eq!(Json::parse(&text).unwrap(), s);
    }
}
