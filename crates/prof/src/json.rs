//! The workspace's only JSON code: a value type, one writer and one strict
//! RFC 8259 parser, std-only.
//!
//! Every artifact the workspace emits (Perfetto traces, JSONL metrics,
//! BENCH documents, HTTP bodies) is built as [`Json`] values and written
//! by [`Json::write`]; everything it reads back (request bodies, traces
//! under validation, BENCH files being updated) goes through [`parse`].
//! Object keys are sorted, numbers are the shortest text that reads back
//! to the same `f64`, and a non-finite number is written as `null` and
//! rejected on read.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value. Object keys live in a `BTreeMap`, so rendering is
/// canonical: two structurally equal documents render identically — the
/// property the result cache's fingerprint keying depends on.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (an f64; integers survive to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with sorted keys.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric value as a non-negative integer (rejects fractional
    /// and negative numbers rather than truncating them silently).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => Some(*x as u64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Renders the value as compact JSON (sorted object keys).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Appends the compact rendering to `out`, so a streaming exporter can
    /// emit one value at a time without holding a whole-document tree.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_f64(*x, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Builds an object from key/value pairs (keys sort on render).
pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn write_f64(x: f64, out: &mut String) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() <= 2f64.powi(53) {
        let _ = write!(out, "{}", x as i64);
    } else {
        let _ = write!(out, "{x:?}");
    }
}

fn write_str(s: &str, out: &mut String) {
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

/// Parses one JSON document (rejecting trailing content).
pub fn parse(s: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing content");
    }
    Ok(v)
}

/// Parses a JSON Lines document: one value per non-blank line.
pub fn parse_lines(s: &str) -> Result<Vec<Json>, String> {
    s.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| parse(line).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn err<T>(&self, msg: &str) -> Result<T, String> {
        Err(format!("{msg} at byte {}", self.pos))
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", b as char))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            self.err("bad literal")
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return self.err("nesting too deep");
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.err("expected a JSON value"),
        }
    }

    /// After an element: `,` continues (true), `close` ends (false).
    fn more(&mut self, close: u8) -> Result<bool, String> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => self.pos += 1,
            Some(b) if b == close => {
                self.pos += 1;
                return Ok(false);
            }
            _ => return self.err(&format!("expected ',' or '{}'", close as char)),
        }
        Ok(true)
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.skip_ws();
            let at = self.pos;
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let v = self.value(depth + 1)?;
            // Last-wins would let one body mean two things to two readers.
            if m.insert(key, v).is_some() {
                self.pos = at;
                return self.err("duplicate key");
            }
            if !self.more(b'}')? {
                return Ok(Json::Obj(m));
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            if !self.more(b']')? {
                return Ok(Json::Arr(items));
            }
        }
    }

    /// Four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0;
        for _ in 0..4 {
            match self.bump().and_then(|c| (c as char).to_digit(16)) {
                Some(d) => code = code * 16 + d,
                None => return self.err("bad \\u escape"),
            }
        }
        Ok(code)
    }

    /// The scalar a `\u` escape denotes; a high surrogate must be followed
    /// by an escaped low one, and the pair decodes to one scalar.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                return self.err("lone surrogate");
            }
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return self.err("lone surrogate");
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).map_or_else(|| self.err("lone surrogate"), Ok)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return self.err("unterminated string"),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => out.push(self.unicode_escape()?),
                    _ => return self.err("bad escape"),
                },
                Some(c) if c < 0x20 => return self.err("raw control char in string"),
                Some(c) if c < 0x80 => out.push(c as char),
                Some(c) => {
                    // The input &str is valid UTF-8, so the lead byte gives
                    // the char's length (no rescan of the rest per char).
                    let start = self.pos - 1;
                    let len = match c {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let ch = std::str::from_utf8(&self.bytes[start..start + len]);
                    out.push_str(ch.expect("input was a &str"));
                    self.pos = start + len;
                }
            }
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, finite.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let leading_zero = self.peek() == Some(b'0');
        let int_digits = self.digits();
        if int_digits == 0 || (leading_zero && int_digits > 1) {
            return self.err("bad integer part");
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return self.err("expected fraction digits");
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return self.err("expected exponent digits");
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII");
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Num(x)),
            _ => Err(format!("number '{text}' out of range at byte {start}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_accessors() {
        let doc =
            r#"{"tenant":"acme","cycles":12,"tol":0.1,"nested":{"a":[1,2,null,true],"b":"x\ny"}}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("tenant").unwrap().as_str(), Some("acme"));
        assert_eq!(v.get("cycles").unwrap().as_u64(), Some(12));
        assert_eq!(v.get("tol").unwrap().as_f64(), Some(0.1));
        let rendered = v.render();
        // Parse-render is a fixed point once keys are sorted.
        assert_eq!(parse(&rendered).unwrap().render(), rendered);
    }

    #[test]
    fn canonical_render_is_key_order_independent() {
        let a = parse(r#"{"b":1,"a":2}"#).unwrap();
        let b = parse(r#"{"a":2,"b":1}"#).unwrap();
        assert_eq!(a.render(), b.render());
    }

    /// Hand-written RFC 8259 corpus, independent of the renderer.
    #[test]
    fn rfc8259_accepts() {
        for (text, want) in [
            ("0", Json::Num(0.0)),
            ("-0", Json::Num(0.0)),
            ("-0.5", Json::Num(-0.5)),
            ("10", Json::Num(10.0)),
            ("2.5", Json::Num(2.5)),
            ("-3e4", Json::Num(-3e4)),
            ("1E+2", Json::Num(100.0)),
            ("1e-2", Json::Num(0.01)),
            ("0e0", Json::Num(0.0)),
            ("1.0000", Json::Num(1.0)),
            ("1e308", Json::Num(1e308)),
            (" \t\r\n true \n", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("null", Json::Null),
            ("[]", Json::Arr(vec![])),
            ("{}", obj(vec![])),
            (
                "[ 1 , [ ] , { } ]",
                Json::Arr(vec![Json::Num(1.0), Json::Arr(vec![]), obj(vec![])]),
            ),
            (
                r#""\"\\\/\b\f\n\r\t""#,
                Json::Str("\"\\/\u{8}\u{c}\n\r\t".into()),
            ),
            (r#""caf\u00e9 ✓""#, Json::Str("café ✓".into())),
            (r#""\u0000\u001F""#, Json::Str("\u{0}\u{1f}".into())),
            (r#""\uD83D\uDE00""#, Json::Str("😀".into())),
            (r#""\ud83d\ude00 😀""#, Json::Str("😀 😀".into())),
            ("\"\u{7f}\"", Json::Str("\u{7f}".into())),
            (r#"{"":0}"#, obj(vec![("", Json::Num(0.0))])),
            (
                r#"{"a":{"a":1}}"#,
                obj(vec![("a", obj(vec![("a", Json::Num(1.0))]))]),
            ),
            (
                "  {\"nested\": {\"deep\": [{}]}} ",
                obj(vec![(
                    "nested",
                    obj(vec![("deep", Json::Arr(vec![obj(vec![])]))]),
                )]),
            ),
        ] {
            assert_eq!(parse(text), Ok(want), "{text:?}");
        }
        // A long non-ASCII string costs time linear in its length.
        let long = format!("\"{}\"", "é😀".repeat(200_000));
        assert_eq!(
            parse(&long).unwrap().as_str().map(str::len),
            Some(1_200_000)
        );
        let v = parse("{\"a\": [1, 2.5, -3e4, true, null, \"x\\n\"]}").unwrap();
        assert_eq!(
            v.get("a"),
            parse("[1,2.5,-30000,true,null,\"x\\n\"]").ok().as_ref()
        );
    }

    #[test]
    fn rfc8259_rejects() {
        for bad in [
            // Structure.
            "",
            " ",
            "{",
            "}",
            "[1,",
            "[1,]",
            "[,1]",
            "[1 2]",
            "{\"a\":}",
            "{\"a\"}",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "{,}",
            "{a:1}",
            "{1:1}",
            "{\"a\":1}x",
            "{\"a\":1} extra",
            "1 2",
            "[1]]",
            // Literals.
            "tru",
            "True",
            "nul",
            "NaN",
            "Infinity",
            "-Infinity",
            // Numbers: exactly the RFC grammar, and finite.
            "01",
            "01x",
            "-01",
            "00",
            "1.",
            "1.e3",
            ".5",
            "-.5",
            "-",
            "+1",
            "1e",
            "1e+",
            "1E-",
            "1.2.3",
            "0x10",
            "1e999",
            "-1e999",
            // Strings.
            "\"abc",
            "\"\\q\"",
            "\"bad\\escape\"",
            "\"\\u12\"",
            "\"\\u12g4\"",
            "\"a\nb\"",
            "\"a\tb\"",
            "'a'",
            "\"\\uD83D\"",
            "\"\\uD83Dx\"",
            "\"\\uD83D\\n\"",
            "\"\\uD83D\\u0041\"",
            "\"\\uD83D\\uD83D\"",
            "\"\\uDE00\"",
            "\"\\uDE00\\uD83D\"",
            // Duplicate keys, at any depth.
            r#"{"a":1,"a":2}"#,
            r#"{"a":1,"b":2,"a":1}"#,
            r#"[{"k":{"x":null,"x":null}}]"#,
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        // Deep nesting is bounded, not a stack overflow.
        assert!(parse(&"[".repeat(100_000)).is_err());
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH + 1)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 2)).is_err());
    }

    #[test]
    fn parse_lines_skips_blanks_and_names_the_bad_line() {
        assert_eq!(parse_lines("{\"a\":1}\n\n{\"b\":2}\n").unwrap().len(), 2);
        assert!(parse_lines("").unwrap().is_empty());
        let err = parse_lines("{\"a\":1}\nnot json\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn writer_escapes_and_degrades_non_finite_to_null() {
        let v = Json::Arr(vec![
            Json::Str("q\"b\\n\nc\u{1}é😀".into()),
            Json::Num(f64::NAN),
            Json::Num(f64::INFINITY),
            Json::Num(3.0),
            Json::Num(-2.5),
            Json::Num(1e-7),
            Json::Num(1e300),
        ]);
        assert_eq!(
            v.render(),
            "[\"q\\\"b\\\\n\\nc\\u0001é😀\",null,null,3,-2.5,1e-7,1e300]"
        );
        // `write` appends; it does not reset the buffer.
        let mut out = String::from("x");
        Json::Bool(true).write(&mut out);
        assert_eq!(out, "xtrue");
    }

    #[test]
    fn as_u64_rejects_fractional_and_negative() {
        assert_eq!(parse("3.5").unwrap().as_u64(), None);
        assert_eq!(parse("-2").unwrap().as_u64(), None);
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
    }
}
