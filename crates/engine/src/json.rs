//! A minimal JSON value, renderer, and parser.
//!
//! The workspace's vendored `serde` is a derive-only marker shim (no
//! serializer backend), so the engine renders its reports with this tiny
//! tree builder instead. Output is deterministic: object keys keep
//! insertion order, floats render with enough precision to round-trip.
//! [`Json::parse`] is the inverse, used by the `datavinci-serve` wire
//! protocol (newline-delimited JSON requests); it is bounds-checked,
//! depth-limited, and reports positioned errors instead of panicking.

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer (rendered without a decimal point).
    Int(i64),
    /// A float (NaN/infinities render as `null` per JSON's grammar).
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An empty object builder.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds/overwrites a field on an object (panics on non-objects:
    /// misusing the builder is a programming error).
    pub fn field(mut self, key: &str, value: Json) -> Json {
        match &mut self {
            Json::Obj(fields) => {
                fields.push((key.to_string(), value));
                self
            }
            _ => panic!("Json::field on a non-object"),
        }
    }

    /// Looks up a field on an object (None on non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer content, if this is an integer (or an integral float).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            Json::Num(n) if n.fract() == 0.0 && n.abs() <= i64::MAX as f64 => Some(*n as i64),
            _ => None,
        }
    }

    /// Parses one JSON document. Trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }

    /// Renders compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Renders with two-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(n) => {
                if n.is_finite() {
                    out.push_str(&format!("{n}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, '[', ']', items.iter(), |out, item, ind| {
                item.write(out, ind)
            }),
            Json::Obj(fields) => {
                write_seq(out, indent, '{', '}', fields.iter(), |out, (k, v), ind| {
                    write_escaped(out, k);
                    out.push(':');
                    if ind.is_some() {
                        out.push(' ');
                    }
                    v.write(out, ind);
                })
            }
        }
    }
}

fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    open: char,
    close: char,
    items: impl ExactSizeIterator<Item = T>,
    mut write_item: impl FnMut(&mut String, T, Option<usize>),
) {
    out.push(open);
    let n = items.len();
    let inner = indent.map(|i| i + 1);
    for (i, item) in items.enumerate() {
        if let Some(level) = inner {
            out.push('\n');
            out.push_str(&"  ".repeat(level));
        }
        write_item(out, item, inner);
        if i + 1 < n {
            out.push(',');
        }
    }
    if n > 0 {
        if let Some(level) = indent {
            out.push('\n');
            out.push_str(&"  ".repeat(level));
        }
    }
    out.push(close);
}

/// Where and why a [`Json::parse`] call failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the offending input.
    pub at: usize,
    /// What was expected or wrong.
    pub what: &'static str,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for JsonParseError {}

/// Nesting deeper than this is rejected (protects the daemon's stack from
/// adversarial `[[[[…` requests).
const MAX_JSON_DEPTH: u32 = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &'static str) -> JsonParseError {
        JsonParseError { at: self.pos, what }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, what: &'static str) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: u32) -> Result<Json, JsonParseError> {
        if depth > MAX_JSON_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
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
                    self.expect(b':', "expected ':' after object key")?;
                    self.skip_ws();
                    let value = self.value(depth + 1)?;
                    fields.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"', "expected '\"'")?;
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
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let first = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&first) {
                                // Surrogate pair: require a low surrogate.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u', "expected low surrogate")?;
                                } else {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let scalar = 0x10000 + ((first - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(scalar)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(first)
                                    .ok_or_else(|| self.err("unpaired surrogate"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("unescaped control character")),
                Some(_) => {
                    // Copy the whole run up to the next quote, backslash or
                    // control byte. UTF-8 continuation bytes are never
                    // ASCII, so the run ends on a char boundary of the
                    // input `&str` and each byte is validated once.
                    let start = self.pos;
                    while self
                        .peek()
                        .is_some_and(|c| c != b'"' && c != b'\\' && c >= 0x20)
                    {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos]);
                    out.push_str(run.expect("input was a str"));
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = self.peek().ok_or_else(|| self.err("unterminated \\u"))?;
            let digit = match d {
                b'0'..=b'9' => (d - b'0') as u32,
                b'a'..=b'f' => (d - b'a') as u32 + 10,
                b'A'..=b'F' => (d - b'A') as u32 + 10,
                _ => return Err(self.err("invalid hex digit")),
            };
            v = v * 16 + digit;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if integral {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonParseError {
                at: start,
                what: "invalid number",
            })
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    // Copy each run of bytes that need no escape in one `push_str`. Every
    // escaped byte is ASCII, so runs start and end on char boundaries.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => out.push_str(&format!("\\u{b:04x}")),
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Int(-3).render(), "-3");
        assert_eq!(Json::Num(2.5).render(), "2.5");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::str("a\"b\n").render(), "\"a\\\"b\\n\"");
    }

    #[test]
    fn renders_nested_structures() {
        let v = Json::obj()
            .field("name", Json::str("col"))
            .field("rows", Json::Arr(vec![Json::Int(1), Json::Int(2)]));
        assert_eq!(v.render(), r#"{"name":"col","rows":[1,2]}"#);
    }

    #[test]
    fn pretty_rendering_is_stable() {
        let v = Json::obj().field("a", Json::Arr(vec![Json::Int(1)]));
        assert_eq!(v.render_pretty(), "{\n  \"a\": [\n    1\n  ]\n}\n");
        assert_eq!(Json::obj().render_pretty(), "{}\n");
    }

    #[test]
    fn control_chars_are_escaped() {
        assert_eq!(Json::str("\u{1}").render(), "\"\\u0001\"");
        assert_eq!(
            Json::str("é\u{1f}€\"\r\t\\x").render(),
            "\"é\\u001f€\\\"\\r\\t\\\\x\""
        );
    }

    #[test]
    fn parse_roundtrips_rendered_documents() {
        let v = Json::obj()
            .field("op", Json::str("clean"))
            .field("rows", Json::Arr(vec![Json::Int(1), Json::Int(-2)]))
            .field("ratio", Json::Num(2.5))
            .field("ok", Json::Bool(true))
            .field("none", Json::Null)
            .field("text", Json::str("a\"b\\c\nd\té \u{1F600}"));
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
        assert_eq!(Json::parse(&v.render_pretty()).unwrap(), v);
    }

    #[test]
    fn parse_handles_escapes_and_unicode() {
        assert_eq!(
            Json::parse(r#""\u0041\u00e9\ud83d\ude00""#).unwrap(),
            Json::str("Aé\u{1F600}")
        );
        assert_eq!(Json::parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(Json::parse("{}").unwrap(), Json::obj());
        assert_eq!(Json::parse(" 12 ").unwrap(), Json::Int(12));
        assert_eq!(Json::parse("-0.5").unwrap(), Json::Num(-0.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"abc",
            "nul",
            "{\"a\":}",
            "{\"a\" 1}",
            "[1 2]",
            "1x",
            "\"\\q\"",
            "\"\\ud800\"",
            "\"\u{1}\"",
            "01a",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        // Deep nesting is bounded, not a stack overflow.
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn parse_is_linear_in_string_length() {
        // A 1.2 MB request line: re-validating the rest of the buffer per
        // character takes minutes at this size; one pass, milliseconds.
        let text = "Nevada_210 é漢 \u{1F600}\"q\"\\ ".repeat(40_000);
        let doc = Json::obj().field("csv", Json::str(&text)).render();
        assert!(doc.len() > 1_000_000);
        let started = std::time::Instant::now();
        let parsed = Json::parse(&doc).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(
            parsed.get("csv").and_then(Json::as_str),
            Some(text.as_str())
        );
        assert!(elapsed.as_secs_f64() < 2.0, "parse took {elapsed:?}");
    }

    #[test]
    fn accessors_navigate_objects() {
        let v = Json::parse(r#"{"op":"clean","n":3}"#).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("clean"));
        assert_eq!(v.get("n").and_then(Json::as_i64), Some(3));
        assert!(v.get("missing").is_none());
        assert!(Json::Int(1).get("x").is_none());
    }
}
