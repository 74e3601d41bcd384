//! Hand-rolled JSON: string escaping plus a small recursive-descent
//! parser (no serde in the workspace).
//!
//! The escaping side has been audited against RFC 8259: every control
//! character below `0x20` is escaped (`\n`, `\r`, `\t`, `\b`, `\f` get
//! their short forms, the rest `\u00XX`), quotes and backslashes are
//! escaped, and non-finite floats — which JSON cannot represent — are
//! emitted as `null`. The parser exists so consumers (the event-schema
//! linter, the perf-trend tool, the round-trip proptest) can read what the
//! writers produce without external dependencies; it accepts exactly RFC
//! 8259 JSON and preserves number text verbatim, so `u64` values above
//! 2^53 survive a round trip.
//!
//! One grammar serves two front ends. [`JsonValue::parse`] builds an
//! owned tree; [`visit_object`] walks a document's top-level members
//! without building anything, handing over keys and scalar values
//! borrowed from the input (copied only when they contain escapes) and
//! validating nested values in a skip mode. Both accept exactly the same
//! documents and fail with the same [`JsonError`].

use std::borrow::Cow;
use std::fmt::Write as _;

/// Appends `s` to `out` as a quoted JSON string, escaping control
/// characters, quotes and backslashes per RFC 8259.
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `value` to `out` as a JSON number. Non-finite floats, which JSON
/// cannot represent, are emitted as `null`.
pub fn push_json_f64(out: &mut String, value: f64) {
    if value.is_finite() {
        // `Display` prints the shortest string that parses back to the
        // same bits, so encode → decode is lossless.
        let _ = write!(out, "{value}");
    } else {
        out.push_str("null");
    }
}

/// A JSON number, kept as its source text so integer precision beyond
/// `f64`'s 53-bit mantissa is never silently lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonNumber(String);

impl JsonNumber {
    /// The raw number text as it appeared in the document.
    pub fn raw(&self) -> &str {
        &self.0
    }

    /// The number as `f64` (always succeeds for valid JSON numbers,
    /// possibly with rounding).
    pub fn as_f64(&self) -> f64 {
        self.0.parse().unwrap_or(f64::NAN)
    }

    /// The number as `u64`, when it is an exact non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        self.0.parse().ok()
    }
}

/// A parsed JSON value. Objects preserve member order (and duplicates, so
/// a linter can flag them); numbers preserve their source text.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as text (see [`JsonNumber`]).
    Number(JsonNumber),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object: ordered `(key, value)` members.
    Object(Vec<(String, JsonValue)>),
}

/// Why a document failed to parse: a message and the byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl JsonValue {
    /// Parses one complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        Parser::document(text, Parser::value)
    }

    /// The member named `key`, for objects (first occurrence).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Follows a path of object keys.
    pub fn pointer(&self, path: &[&str]) -> Option<&JsonValue> {
        path.iter().try_fold(self, |v, key| v.get(key))
    }

    /// The string payload, for strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as `f64`, for numbers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The numeric payload as exact `u64`, for integral numbers.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The boolean payload, for booleans.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, for arrays.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The ordered members, for objects.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(members) => Some(members),
            _ => None,
        }
    }
}

/// One value as [`visit_object`] hands it over: scalars decoded without
/// copying (a string is copied only when it contains escapes), arrays and
/// objects validated and skipped.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonRef<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number's source text (see [`JsonNumber`]).
    Number(&'a str),
    /// A string, unescaped.
    String(Cow<'a, str>),
    /// An array, validated but not decoded.
    Array,
    /// An object, validated but not decoded.
    Object,
}

impl JsonRef<'_> {
    /// The string payload, for strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonRef::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as exact `u64`, for integral numbers (the same
    /// rule as [`JsonNumber::as_u64`]).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonRef::Number(text) => text.parse().ok(),
            _ => None,
        }
    }
}

/// Validates one complete JSON document and, when it is an object, hands
/// each top-level member to `visit` in document order (duplicates
/// included). Returns `Ok(true)` for an object, `Ok(false)` for any other
/// valid document (no member visited).
///
/// Accepts exactly what [`JsonValue::parse`] accepts and fails with the
/// same [`JsonError`]: both run the same parser. Members are visited as
/// they are parsed, so on `Err` the visitor may already have seen some of
/// them; discard whatever it collected.
pub fn visit_object<'a>(
    text: &'a str,
    mut visit: impl FnMut(Cow<'a, str>, JsonRef<'a>),
) -> Result<bool, JsonError> {
    Parser::document(text, |p| {
        if p.peek() != Some(b'{') {
            return p.skip_value().map(|_| false);
        }
        p.object(|p, key| {
            let value = p.skip_value()?;
            visit(key, value);
            Ok(())
        })?;
        Ok(true)
    })
}

/// The length of the run of plain string bytes at the front of `bytes`:
/// everything before the first `"`, `\\` or control byte.
///
/// Eight bytes at a time: in `(x - 0x01..01·n) & !x & 0x80..80` the lowest
/// flagged byte is the first byte of `x` below `n` (borrows only
/// propagate upward, so any false flags sit above a true one). Bytes of
/// multi-byte UTF-8 sequences have their high bit set and never match.
#[inline]
fn plain_run(bytes: &[u8]) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    let below = |x: u64, n: u8| x.wrapping_sub(ONES * u64::from(n)) & !x & HIGHS;
    let mut i = 0;
    while let Some(chunk) = bytes.get(i..i + 8) {
        let w = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        let hits = below(w ^ (ONES * u64::from(b'"')), 1)
            | below(w ^ (ONES * u64::from(b'\\')), 1)
            | below(w, 0x20);
        if hits != 0 {
            return i + (hits.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    i + bytes[i..]
        .iter()
        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
        .unwrap_or(bytes.len() - i)
}

/// How deeply arrays and objects may nest. The parser recurses once per
/// `[` or `{`, so without a bound one hostile line of brackets overflows
/// the stack and aborts the process. RFC 8259 §9 lets a parser set this
/// limit; nothing the workspace writes nests deeper than about 4.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// How many arrays and objects enclose `pos`.
    depth: usize,
}

// The methods on every document's path are marked for inlining: the front
// ends are generic, so they are compiled into the crate that calls them
// (the alerter's `parse_line`), and without LTO only inline-marked methods
// can follow them there instead of staying cross-crate calls. The four
// that every member passes through (`skip_value`, `token`, `string` and
// `number`) are `#[inline(always)]`: under plain `#[inline]` the cost model
// leaves them out of line, and each member then pays several calls.
impl<'a> Parser<'a> {
    /// Parses one complete document with `body` (trailing whitespace
    /// allowed, trailing garbage rejected).
    #[inline]
    fn document<T>(
        text: &'a str,
        body: impl FnOnce(&mut Self) -> Result<T, JsonError>,
    ) -> Result<T, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let out = body(&mut p)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after JSON value"));
        }
        Ok(out)
    }

    /// The error at `pos`. It takes anything printable, so a formatted
    /// message is only built here, off the path of a valid document.
    #[cold]
    fn error(&self, message: impl std::fmt::Display) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format_args!("expected '{}'", b as char)))
        }
    }

    #[inline]
    fn literal(&mut self, word: &str, value: JsonRef<'a>) -> Result<JsonRef<'a>, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format_args!("expected '{word}'")))
        }
    }

    /// The first step of every value: a scalar is consumed and decoded; an
    /// array or object is reported at its opening bracket, not consumed.
    #[inline(always)]
    fn token(&mut self) -> Result<JsonRef<'a>, JsonError> {
        match self.peek() {
            Some(b'{') => Ok(JsonRef::Object),
            Some(b'[') => Ok(JsonRef::Array),
            Some(b'"') => self.string().map(JsonRef::String),
            Some(b't') => self.literal("true", JsonRef::Bool(true)),
            Some(b'f') => self.literal("false", JsonRef::Bool(false)),
            Some(b'n') => self.literal("null", JsonRef::Null),
            Some(b'-' | b'0'..=b'9') => self.number().map(JsonRef::Number),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Parses one value into an owned tree.
    fn value(&mut self) -> Result<JsonValue, JsonError> {
        Ok(match self.token()? {
            JsonRef::Null => JsonValue::Null,
            JsonRef::Bool(b) => JsonValue::Bool(b),
            JsonRef::Number(text) => JsonValue::Number(JsonNumber(text.to_string())),
            JsonRef::String(s) => JsonValue::String(s.into_owned()),
            JsonRef::Array => {
                let mut items = Vec::new();
                self.array(|p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                JsonValue::Array(items)
            }
            JsonRef::Object => {
                let mut members = Vec::new();
                self.object(|p, key| {
                    members.push((key.into_owned(), p.value()?));
                    Ok(())
                })?;
                JsonValue::Object(members)
            }
        })
    }

    /// The skip mode: validates one value without building anything.
    /// Scalars come back decoded; arrays and objects are walked and
    /// dropped.
    #[inline(always)]
    fn skip_value(&mut self) -> Result<JsonRef<'a>, JsonError> {
        let token = self.token()?;
        if matches!(token, JsonRef::Array | JsonRef::Object) {
            self.skip_nested()?;
        }
        Ok(token)
    }

    /// Walks the array or object at `pos` in the skip mode.
    fn skip_nested(&mut self) -> Result<(), JsonError> {
        if self.peek() == Some(b'[') {
            self.array(|p| p.skip_value().map(drop))
        } else {
            self.object(|p, _| p.skip_value().map(drop))
        }
    }

    /// Consumes the opening bracket of an array or object, one level
    /// deeper. The bracket that would open level `MAX_DEPTH + 1` fails at
    /// its own offset.
    #[inline]
    fn open(&mut self, bracket: u8) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format_args!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.expect(bracket)?;
        self.depth += 1;
        Ok(())
    }

    /// Consumes the closing bracket at `pos`, one level shallower.
    #[inline]
    fn close(&mut self) {
        self.pos += 1;
        self.depth -= 1;
    }

    /// Walks an object, handing each key to `member`, which must consume
    /// the member's value.
    fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.open(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.close();
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            member(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.close();
                    return Ok(());
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    /// Walks an array, calling `item` to consume each element.
    fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.open(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.close();
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.close();
                    return Ok(());
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    /// A string, borrowed from the input unless it contains escapes.
    #[inline(always)]
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        // Most strings are one plain run up to the closing quote. A run
        // breaks only at ASCII bytes (or the end of input), so its ends are
        // char boundaries of the input.
        let start = self.pos;
        let end = start + plain_run(&self.bytes[start..]);
        if self.bytes.get(end) == Some(&b'"') {
            self.pos = end + 1;
            return Ok(Cow::Borrowed(&self.text[start..end]));
        }
        self.escaped_string()
    }

    /// The rest of a string that is not one plain run, from the byte after
    /// its opening quote. Its runs end at char boundaries as in `string`.
    #[inline(never)]
    fn escaped_string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            self.pos += plain_run(&self.bytes[start..]);
            let run = &self.text[start..self.pos];
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut out) => {
                            out.push_str(run);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(run);
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'u' => {
                            let first = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&first) {
                                // High surrogate: a \uXXXX low surrogate
                                // must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let second = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&second) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                let combined =
                                    0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                                char::from_u32(combined)
                                    .ok_or_else(|| self.error("invalid surrogate pair"))?
                            } else if (0xDC00..0xE000).contains(&first) {
                                return Err(self.error("lone low surrogate"));
                            } else {
                                char::from_u32(first)
                                    .ok_or_else(|| self.error("invalid \\u escape"))?
                            };
                            out.push(ch);
                        }
                        _ => return Err(self.error("invalid escape character")),
                    }
                }
                Some(_) => return Err(self.error("unescaped control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    /// Exactly four hex digits (no sign, unlike `u32::from_str_radix`).
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let hex = &self.bytes[self.pos..end];
        if !hex.is_ascii() {
            return Err(self.error("non-ASCII in \\u escape"));
        }
        let mut value = 0;
        for &b in hex {
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.error("non-hex in \\u escape"))?;
            value = value * 16 + digit;
        }
        self.pos = end;
        Ok(value)
    }

    /// A number's source text.
    #[inline(always)]
    fn number(&mut self) -> Result<&'a str, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_from = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_from {
            return Err(self.error("expected digits in number"));
        }
        // Leading zeros are invalid JSON ("01"), a bare "0" is fine.
        if self.bytes[digits_from] == b'0' && self.pos - digits_from > 1 {
            return Err(self.error("leading zero in number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_from = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_from {
                return Err(self.error("expected digits after decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_from = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_from {
                return Err(self.error("expected digits in exponent"));
            }
        }
        Ok(&self.text[start..self.pos])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn escaped(s: &str) -> String {
        let mut out = String::new();
        push_json_string(&mut out, s);
        out
    }

    #[test]
    fn plain_strings_pass_through() {
        assert_eq!(escaped("hello"), "\"hello\"");
    }

    #[test]
    fn quotes_and_backslashes_escape() {
        assert_eq!(escaped("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }

    #[test]
    fn control_characters_escape() {
        assert_eq!(escaped("a\nb\tc\rd"), "\"a\\nb\\tc\\rd\"");
        assert_eq!(escaped("\u{08}\u{0C}"), "\"\\b\\f\"");
        assert_eq!(escaped("\u{01}"), "\"\\u0001\"");
    }

    #[test]
    fn unicode_passes_through_unescaped() {
        assert_eq!(escaped("τ′ → β"), "\"τ′ → β\"");
    }

    #[test]
    fn non_finite_floats_are_null() {
        let mut out = String::new();
        push_json_f64(&mut out, f64::NAN);
        out.push(',');
        push_json_f64(&mut out, f64::INFINITY);
        out.push(',');
        push_json_f64(&mut out, 1.5);
        assert_eq!(out, "null,null,1.5");
    }

    #[test]
    fn parser_handles_scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(
            JsonValue::parse("\"hi\"").unwrap(),
            JsonValue::String("hi".into())
        );
        assert_eq!(JsonValue::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(JsonValue::parse("-1.5e3").unwrap().as_f64(), Some(-1500.0));
    }

    #[test]
    fn parser_preserves_u64_precision() {
        let v = JsonValue::parse(&u64::MAX.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn parser_handles_nesting_and_order() {
        let v = JsonValue::parse(r#"{"a":[1,{"b":"c"}],"d":null}"#).unwrap();
        assert_eq!(v.pointer(&["a"]).unwrap().as_array().unwrap().len(), 2);
        assert_eq!(
            v.pointer(&["a"])
                .and_then(|a| a.as_array())
                .and_then(|a| a[1].get("b"))
                .and_then(|b| b.as_str()),
            Some("c")
        );
        assert_eq!(v.get("d"), Some(&JsonValue::Null));
        let members = v.as_object().unwrap();
        assert_eq!(members[0].0, "a");
        assert_eq!(members[1].0, "d");
    }

    #[test]
    fn parser_unescapes_strings() {
        let v = JsonValue::parse(r#""a\n\t\"\\\u0041\u00e9""#).unwrap();
        assert_eq!(v.as_str(), Some("a\n\t\"\\Aé"));
        // Surrogate pair: 🚀 is U+1F680.
        let v = JsonValue::parse(r#""\ud83d\ude80""#).unwrap();
        assert_eq!(v.as_str(), Some("🚀"));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "01",
            "1.",
            "1e",
            "\"\\x\"",
            "\"unterminated",
            "{\"a\":1,}",
            "[1]]",
            "nullx",
            "\"\u{01}\"",
            r#""\ud83d""#,
            r#""\u+041""#,
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    /// The error contract: one input per reachable error site, with the
    /// exact `Display` both front ends give. `invalid \u escape` and
    /// `invalid surrogate pair` have no row: every value they guard is
    /// already a valid `char` (a BMP scalar outside the surrogates, or a
    /// combined pair in U+10000..=U+10FFFF), so `char::from_u32` cannot fail
    /// there.
    #[test]
    fn every_reachable_error_site_keeps_its_message_and_offset() {
        let table = [
            ("1 x", "trailing characters after JSON value at byte 2"),
            (r#"{"a" 1}"#, "expected ':' at byte 5"),
            ("{1:2}", "expected '\"' at byte 1"),
            ("tru", "expected 'true' at byte 0"),
            ("[fals]", "expected 'false' at byte 1"),
            (r#"{"a":nul}"#, "expected 'null' at byte 5"),
            (r#"{"a":x}"#, "unexpected character at byte 5"),
            ("", "unexpected end of input at byte 0"),
            ("[", "unexpected end of input at byte 1"),
            (r#"{"a":1 x"#, "expected ',' or '}' in object at byte 7"),
            ("[1 x", "expected ',' or ']' in array at byte 3"),
            ("\"\\", "unterminated escape at byte 2"),
            (r#""\ud83d""#, "unpaired surrogate at byte 7"),
            (r#""\ud83d\n""#, "unpaired surrogate at byte 8"),
            (r#""\ud83d\u0041""#, "invalid low surrogate at byte 13"),
            (r#""\udc00""#, "lone low surrogate at byte 7"),
            (r#""\x""#, "invalid escape character at byte 3"),
            (
                "\"a\u{01}\"",
                "unescaped control character in string at byte 2",
            ),
            ("\"abc", "unterminated string at byte 4"),
            (r#""\u00"#, "truncated \\u escape at byte 3"),
            ("\"\\u00é0\"", "non-ASCII in \\u escape at byte 3"),
            (r#""\u00zz""#, "non-hex in \\u escape at byte 3"),
            ("-a", "expected digits in number at byte 1"),
            ("01", "leading zero in number at byte 2"),
            ("[1.]", "expected digits after decimal point at byte 3"),
            (r#"{"a":1e+}"#, "expected digits in exponent at byte 8"),
        ];
        for (input, want) in table {
            let parsed = JsonValue::parse(input).expect_err(input);
            assert_eq!(parsed.to_string(), want, "JsonValue::parse({input:?})");
            let visited = visit_object(input, |_, _| {}).expect_err(input);
            assert_eq!(visited, parsed, "visit_object({input:?})");
        }
    }

    /// `levels` nested arrays.
    fn nested(levels: usize) -> String {
        "[".repeat(levels) + &"]".repeat(levels)
    }

    #[test]
    fn nesting_up_to_the_limit_parses() {
        let deepest = nested(MAX_DEPTH);
        let mut v = &JsonValue::parse(&deepest).expect("128 levels parse");
        for _ in 1..MAX_DEPTH {
            v = &v.as_array().expect("an array")[0];
        }
        assert_eq!(v, &JsonValue::Array(Vec::new()));
        assert_eq!(visit_object(&deepest, |_, _| {}), Ok(false));
        // The top-level object is the first level.
        let member = format!(r#"{{"a":{}}}"#, nested(MAX_DEPTH - 1));
        assert!(JsonValue::parse(&member).is_ok());
        let mut members = 0;
        assert_eq!(visit_object(&member, |_, _| members += 1), Ok(true));
        assert_eq!(members, 1);
    }

    #[test]
    fn the_bracket_past_the_limit_fails_at_its_offset_in_both_front_ends() {
        let want = "nesting deeper than 128 levels at byte 128";
        let too_deep = nested(MAX_DEPTH + 1);
        let parsed = JsonValue::parse(&too_deep).expect_err("129 levels");
        assert_eq!(parsed.to_string(), want);
        assert_eq!(visit_object(&too_deep, |_, _| {}), Err(parsed));
        let member = format!(r#"{{"a":{}}}"#, nested(MAX_DEPTH));
        let offset = 5 + MAX_DEPTH - 1;
        let parsed = JsonValue::parse(&member).expect_err("129 levels");
        assert_eq!(parsed.offset, offset);
        assert_eq!(visit_object(&member, |_, _| {}), Err(parsed));
        // Objects count as levels too.
        let objects = r#"{"a":"#.repeat(MAX_DEPTH + 1);
        let parsed = JsonValue::parse(&objects).expect_err("129 levels");
        assert_eq!(
            (parsed.message.as_str(), parsed.offset),
            ("nesting deeper than 128 levels", 5 * MAX_DEPTH)
        );
    }

    #[test]
    fn a_hundred_thousand_levels_fail_without_overflowing_the_stack() {
        let line = format!(r#"{{"kind":"phase","x":{}}}"#, nested(100_000));
        let want = JsonError {
            message: "nesting deeper than 128 levels".to_string(),
            offset: 20 + MAX_DEPTH - 1,
        };
        assert_eq!(JsonValue::parse(&line), Err(want.clone()));
        assert_eq!(visit_object(&line, |_, _| {}), Err(want));
    }

    #[test]
    fn plain_run_matches_a_bytewise_scan() {
        let naive = |bytes: &[u8]| {
            bytes
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(bytes.len())
        };
        // Every stop byte, and the near misses around each, at every
        // offset of buffers that cover the 8-byte chunk edges.
        let probes = [
            b'"', b'\\', 0x00, 0x1f, 0x20, 0x21, 0x23, 0x5b, 0x5d, 0x7f, 0x80, 0xc3, 0xff,
        ];
        for len in 0..20 {
            for at in 0..len {
                for &b in &probes {
                    for fill in [b'a', 0xa9] {
                        let mut bytes = vec![fill; len];
                        bytes[at] = b;
                        assert_eq!(plain_run(&bytes), naive(&bytes), "{bytes:?}");
                    }
                }
            }
        }
    }

    type Members<'a> = Vec<(Cow<'a, str>, JsonRef<'a>)>;

    fn visited(text: &str) -> (Result<bool, JsonError>, Members<'_>) {
        let mut members = Vec::new();
        let result = visit_object(text, |k, v| members.push((k, v)));
        (result, members)
    }

    #[test]
    fn visit_object_borrows_plain_members_and_skips_nested() {
        let (result, members) =
            visited(r#" {"a":"x","n":-1.5e3,"l":[1,{"b":[]}],"o":{},"t":true,"z":null} "#);
        assert_eq!(result, Ok(true));
        let keys: Vec<&str> = members.iter().map(|(k, _)| &**k).collect();
        assert_eq!(keys, ["a", "n", "l", "o", "t", "z"]);
        assert!(members.iter().all(|(k, _)| matches!(k, Cow::Borrowed(_))));
        assert!(matches!(members[0].1, JsonRef::String(Cow::Borrowed("x"))));
        assert_eq!(members[1].1, JsonRef::Number("-1.5e3"));
        assert_eq!(members[2].1, JsonRef::Array);
        assert_eq!(members[3].1, JsonRef::Object);
        assert_eq!(members[4].1, JsonRef::Bool(true));
        assert_eq!(members[5].1, JsonRef::Null);
    }

    #[test]
    fn visit_object_copies_only_escaped_strings() {
        let (result, members) = visited(r#"{"c\u0065ll":"a\"b","plain":"p"}"#);
        assert_eq!(result, Ok(true));
        assert!(matches!(&members[0].0, Cow::Owned(k) if k == "cell"));
        assert!(matches!(&members[0].1, JsonRef::String(Cow::Owned(v)) if v == "a\"b"));
        assert!(matches!(members[1].1, JsonRef::String(Cow::Borrowed("p"))));
    }

    #[test]
    fn escaped_strings_round_trip_through_parser() {
        for s in [
            "",
            "plain",
            "a\"b\\c",
            "line\none\r\ttwo",
            "\u{08}\u{0C}\u{01}\u{1f}",
            "τ′ → β 🚀",
            "ends with backslash \\",
        ] {
            let doc = escaped(s);
            assert_eq!(
                JsonValue::parse(&doc).unwrap(),
                JsonValue::String(s.to_string()),
                "round-trip failed for {s:?}"
            );
        }
    }
}
