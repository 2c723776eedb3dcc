//! Recursive-descent JSON parser (RFC 8259) with positional errors and a
//! depth limit.
//!
//! Real network traces contain adversarial inputs — deeply nested payloads,
//! truncated bodies, invalid escapes — so the parser never panics and always
//! reports the byte offset and line/column of a failure.
//!
//! The grammar lives in one place, [`Cursor`], a pull reader that steps
//! through a document token by token. Three readers share it: [`parse`]
//! builds the [`Json`] tree, [`crate::visit_keys`] reports object keys and
//! steps over values, and the HAR reader picks the members it needs out of
//! each entry. Since every reader makes the same calls on the same bytes, a
//! document one of them rejects, all of them reject, with the same message
//! at the same offset.

use crate::scan::string_run;
use crate::value::{Json, Number};
use std::borrow::Cow;

/// Maximum nesting depth accepted by [`parse`].
pub const DEFAULT_DEPTH_LIMIT: usize = 128;

/// A parse failure with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error.
    pub offset: usize,
    /// 1-based line.
    pub line: usize,
    /// 1-based column (bytes, not chars — good enough for diagnostics).
    pub column: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at line {} column {}: {}",
            self.line, self.column, self.message
        )
    }
}

impl std::error::Error for JsonError {}

/// Parse a complete JSON document (leading/trailing whitespace allowed,
/// trailing garbage rejected) with the default depth limit.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    parse_with_limit(input, DEFAULT_DEPTH_LIMIT)
}

/// [`parse`] with an explicit nesting depth limit.
pub fn parse_with_limit(input: &str, depth_limit: usize) -> Result<Json, JsonError> {
    let mut cursor = Cursor::with_limit(input, depth_limit);
    let value = cursor.value()?;
    cursor.end()?;
    Ok(value)
}

/// What the next value in a document is, from its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `{`
    Object,
    /// `[`
    Array,
    /// `"`
    String,
    /// `-` or a digit.
    Number,
    /// `t`
    True,
    /// `f`
    False,
    /// `n`
    Null,
}

/// A pull reader over one JSON document.
///
/// [`Cursor::peek`] names the next value; the caller then reads it
/// ([`Cursor::string`], [`Cursor::number`]), steps into it
/// ([`Cursor::begin_object`] then [`Cursor::next_key`] until `None`;
/// [`Cursor::begin_array`] then [`Cursor::next_item`] until `false`) or steps
/// over it ([`Cursor::skip`]). [`Cursor::end`] checks that nothing but
/// whitespace follows the document.
///
/// ```
/// use diffaudit_json::{Cursor, Kind};
/// let mut c = Cursor::new(r#"{"a": [1, 2], "b": "x"}"#);
/// assert_eq!(c.peek(), Ok(Kind::Object));
/// c.begin_object().unwrap();
/// assert_eq!(c.next_key().unwrap().as_deref(), Some("a"));
/// c.skip().unwrap();
/// assert_eq!(c.next_key().unwrap().as_deref(), Some("b"));
/// assert_eq!(c.string().unwrap(), "x");
/// assert_eq!(c.next_key().unwrap(), None);
/// c.end().unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    /// The input, when it came in as a `&str` and so is known to be UTF-8.
    text: Option<&'a str>,
    bytes: &'a [u8],
    pos: usize,
    depth_limit: usize,
    /// Containers open around the cursor.
    depth: usize,
    /// The last token read was a container's opening bracket, so the next
    /// `next_key`/`next_item` reads no separator.
    opened: bool,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `input`, with the default depth limit.
    pub fn new(input: &'a str) -> Cursor<'a> {
        Cursor::with_limit(input, DEFAULT_DEPTH_LIMIT)
    }

    /// A cursor at the start of `input` that rejects values nested deeper
    /// than `depth_limit` containers.
    pub(crate) fn with_limit(input: &'a str, depth_limit: usize) -> Cursor<'a> {
        Cursor {
            text: Some(input),
            depth_limit,
            ..Cursor::from_bytes(input.as_bytes())
        }
    }

    /// A cursor over bytes not yet known to be UTF-8, with the default
    /// depth limit. Outside strings the grammar admits only ASCII, so the
    /// cursor checks just the string runs that hold other bytes, as it
    /// reaches them: on valid UTF-8 it reads exactly as [`Cursor::new`]
    /// does, and on anything else it fails somewhere in the document.
    pub(crate) fn from_bytes(input: &'a [u8]) -> Cursor<'a> {
        Cursor {
            text: None,
            bytes: input,
            pos: 0,
            depth_limit: DEFAULT_DEPTH_LIMIT,
            depth: 0,
            opened: false,
        }
    }

    /// An error at the cursor's position.
    fn error(&self, message: impl Into<String>) -> JsonError {
        let mut line = 1;
        let mut col = 1;
        for &b in self.bytes.iter().take(self.pos) {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        JsonError {
            offset: self.pos,
            line,
            column: col,
            message: message.into(),
        }
    }

    fn peek_byte(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek_byte()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek_byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), JsonError> {
        match self.peek_byte() {
            Some(got) if got == b => {
                self.pos += 1;
                Ok(())
            }
            Some(got) => {
                Err(self.error(format!("expected '{}', found '{}'", b as char, got as char)))
            }
            None => Err(self.error(format!("expected '{}', found end of input", b as char))),
        }
    }

    /// Skip whitespace and name the value that starts there. Fails on a
    /// byte that starts no value, at the end of input, and when the value
    /// would nest deeper than the depth limit.
    pub fn peek(&mut self) -> Result<Kind, JsonError> {
        self.skip_ws();
        if self.depth > self.depth_limit {
            return Err(self.error(format!("nesting depth exceeds limit {}", self.depth_limit)));
        }
        match self.peek_byte() {
            Some(b'{') => Ok(Kind::Object),
            Some(b'[') => Ok(Kind::Array),
            Some(b'"') => Ok(Kind::String),
            Some(b'-' | b'0'..=b'9') => Ok(Kind::Number),
            Some(b't') => Ok(Kind::True),
            Some(b'f') => Ok(Kind::False),
            Some(b'n') => Ok(Kind::Null),
            Some(other) => Err(self.error(format!("unexpected character '{}'", other as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Step over the whitespace after the document and fail unless the
    /// input ends there.
    pub fn end(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.error("trailing characters after JSON document"));
        }
        Ok(())
    }

    /// Step into the object at the cursor.
    pub fn begin_object(&mut self) -> Result<(), JsonError> {
        self.expect_byte(b'{')?;
        self.open();
        Ok(())
    }

    /// Step into the array at the cursor.
    pub fn begin_array(&mut self) -> Result<(), JsonError> {
        self.expect_byte(b'[')?;
        self.open();
        Ok(())
    }

    fn open(&mut self) {
        self.depth += 1;
        self.opened = true;
    }

    fn close(&mut self) {
        self.depth = self.depth.saturating_sub(1);
    }

    /// The next member's key in the object the cursor is in, with the
    /// cursor left on the member's value, or `None` after the closing `}`.
    /// The caller reads or skips each value before asking for the next key.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        self.skip_ws();
        if std::mem::take(&mut self.opened) {
            if self.peek_byte() == Some(b'}') {
                self.pos += 1;
                self.close();
                return Ok(None);
            }
        } else {
            match self.bump() {
                Some(b',') => self.skip_ws(),
                Some(b'}') => {
                    self.close();
                    return Ok(None);
                }
                Some(other) => {
                    self.pos -= 1;
                    return Err(self.error(format!(
                        "expected ',' or '}}' in object, found '{}'",
                        other as char
                    )));
                }
                None => return Err(self.error("unterminated object")),
            }
        }
        if self.peek_byte() != Some(b'"') {
            return Err(self.error("expected string key in object"));
        }
        let key = self.string()?;
        self.skip_ws();
        self.expect_byte(b':')?;
        self.skip_ws();
        Ok(Some(key))
    }

    /// Whether the array the cursor is in has another item, with the
    /// cursor left on it; `false` after the closing `]`. The caller reads
    /// or skips each item before asking for the next.
    pub fn next_item(&mut self) -> Result<bool, JsonError> {
        self.skip_ws();
        if std::mem::take(&mut self.opened) {
            if self.peek_byte() == Some(b']') {
                self.pos += 1;
                self.close();
                return Ok(false);
            }
            return Ok(true);
        }
        match self.bump() {
            Some(b',') => {
                self.skip_ws();
                Ok(true)
            }
            Some(b']') => {
                self.close();
                Ok(false)
            }
            Some(other) => {
                self.pos -= 1;
                Err(self.error(format!(
                    "expected ',' or ']' in array, found '{}'",
                    other as char
                )))
            }
            None => Err(self.error("unterminated array")),
        }
    }

    /// Step over the value at the cursor, checking it as [`parse`] would,
    /// without building it. Strings are not unescaped and numbers are
    /// converted only when they could be out of range.
    pub fn skip(&mut self) -> Result<(), JsonError> {
        match self.peek()? {
            Kind::Object => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip()?;
                }
            }
            Kind::Array => {
                self.begin_array()?;
                while self.next_item()? {
                    self.skip()?;
                }
            }
            Kind::String => {
                self.expect_byte(b'"')?;
                self.string_tail(None)?;
            }
            Kind::Number => {
                let (text, is_float) = self.number_text()?;
                // Eighteen digits fit an `i64`, and a float without an
                // exponent that short is finite: only longer numbers can
                // be out of range.
                if text.len() > 18 || text.contains(['e', 'E']) {
                    self.convert(text, is_float)?;
                }
            }
            Kind::True => self.literal("true")?,
            Kind::False => self.literal("false")?,
            Kind::Null => self.literal("null")?,
        }
        Ok(())
    }

    /// Build the value at the cursor.
    fn value(&mut self) -> Result<Json, JsonError> {
        Ok(match self.peek()? {
            Kind::Object => {
                self.begin_object()?;
                let mut entries = Vec::new();
                while let Some(key) = self.next_key()? {
                    let value = self.value()?;
                    entries.push((key.into_owned(), value));
                }
                Json::Obj(entries)
            }
            Kind::Array => {
                self.begin_array()?;
                let mut items = Vec::new();
                while self.next_item()? {
                    items.push(self.value()?);
                }
                Json::Arr(items)
            }
            Kind::String => Json::Str(self.string()?.into_owned()),
            Kind::Number => Json::Num(self.number()?),
            Kind::True => {
                self.literal("true")?;
                Json::Bool(true)
            }
            Kind::False => {
                self.literal("false")?;
                Json::Bool(false)
            }
            Kind::Null => {
                self.literal("null")?;
                Json::Null
            }
        })
    }

    fn literal(&mut self, text: &str) -> Result<(), JsonError> {
        if self
            .bytes
            .get(self.pos..)
            .is_some_and(|rest| rest.starts_with(text.as_bytes()))
        {
            self.pos += text.len();
            Ok(())
        } else {
            Err(self.error(format!("invalid literal, expected '{text}'")))
        }
    }

    /// Read the string at the cursor. A string without escapes is borrowed
    /// from the input; one with escapes is decoded into a new `String`.
    pub fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect_byte(b'"')?;
        let run = self.run()?;
        if self.peek_byte() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(run));
        }
        let mut out = String::from(run);
        self.string_tail(Some(&mut out))?;
        Ok(Cow::Owned(out))
    }

    /// Read the string at the cursor if its first char that is not
    /// whitespace (by [`char::is_whitespace`], after unescaping) passes
    /// `wanted`; otherwise step over it, decoding only that prefix, and
    /// return `None`. An empty or all-whitespace string returns `None`.
    pub(crate) fn string_if(
        &mut self,
        wanted: impl Fn(char) -> bool,
    ) -> Result<Option<Cow<'a, str>>, JsonError> {
        let start = self.pos;
        self.expect_byte(b'"')?;
        // Leading whitespace is rare and short, so the prefix is read one
        // char at a time and the rest of a long string is never decoded.
        let first = loop {
            match self.peek_byte() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(None);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.escape()?;
                    if !c.is_whitespace() {
                        break c;
                    }
                }
                Some(0..0x20) => {
                    self.pos += 1;
                    return Err(self.error("unescaped control character in string"));
                }
                Some(_) => {
                    let c = self.char_at()?;
                    if !c.is_whitespace() {
                        break c;
                    }
                    self.pos += c.len_utf8();
                }
            }
        };
        if wanted(first) {
            // The prefix is decoded twice; it is a few bytes long.
            self.pos = start;
            return self.string().map(Some);
        }
        self.string_tail(None)?;
        Ok(None)
    }

    /// The char that starts at the cursor, inside a string run.
    fn char_at(&self) -> Result<char, JsonError> {
        let rest = self.bytes.get(self.pos..).unwrap_or_default();
        let head = rest.get(..4).unwrap_or(rest);
        let valid = match std::str::from_utf8(head) {
            Ok(valid) => valid,
            // A sequence cut by the 4-byte window, or not UTF-8 at all.
            Err(e) => std::str::from_utf8(head.get(..e.valid_up_to()).unwrap_or_default())
                .unwrap_or_default(),
        };
        valid
            .chars()
            .next()
            .ok_or_else(|| self.error("invalid UTF-8 in string"))
    }

    /// Read the rest of a string up to and including its closing quote,
    /// appending the decoded text to `out` when there is one.
    fn string_tail(&mut self, mut out: Option<&mut String>) -> Result<(), JsonError> {
        loop {
            match out.as_deref_mut() {
                Some(out) => out.push_str(self.run()?),
                None => self.skip_run()?,
            }
            match self.bump() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => return Ok(()),
                Some(b'\\') => {
                    let c = self.escape()?;
                    if let Some(out) = out.as_deref_mut() {
                        out.push(c);
                    }
                }
                // A run ends only at `"`, `\`, a control byte or the end.
                Some(_) => return Err(self.error("unescaped control character in string")),
            }
        }
    }

    /// Step over the run of plain string bytes at `pos` and return it.
    fn run(&mut self) -> Result<&'a str, JsonError> {
        let start = self.pos;
        let run = self.bytes.get(start..).unwrap_or_default();
        let end = start + string_run(run).0;
        self.pos = end;
        // `start` follows an ASCII byte and `end` is an ASCII byte or the
        // end of input, so both are char boundaries and `get` succeeds.
        let text = match self.text {
            Some(text) => text.get(start..end),
            None => std::str::from_utf8(run.get(..end - start).unwrap_or_default()).ok(),
        };
        text.ok_or_else(|| self.error("invalid UTF-8 in string"))
    }

    /// [`Cursor::run`] without returning the run; UTF-8 is checked only
    /// for a run of unchecked input that is not all ASCII.
    fn skip_run(&mut self) -> Result<(), JsonError> {
        let run = self.bytes.get(self.pos..).unwrap_or_default();
        let (len, ascii) = string_run(run);
        self.pos += len;
        if !ascii && self.text.is_none() {
            let run = run.get(..len).unwrap_or_default();
            if std::str::from_utf8(run).is_err() {
                return Err(self.error("invalid UTF-8 in string"));
            }
        }
        Ok(())
    }

    /// Decode the escape after a `\`.
    fn escape(&mut self) -> Result<char, JsonError> {
        Ok(match self.bump() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000C}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let cp = self.hex4()?;
                if (0xD800..=0xDBFF).contains(&cp) {
                    // High surrogate: must be followed by \uDC00-\uDFFF.
                    if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                        return Err(self.error("unpaired surrogate in \\u escape"));
                    }
                    let lo = self.hex4()?;
                    if !(0xDC00..=0xDFFF).contains(&lo) {
                        return Err(self.error("invalid low surrogate in \\u escape"));
                    }
                    let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                    char::from_u32(c).ok_or_else(|| self.error("invalid surrogate pair"))?
                } else if (0xDC00..=0xDFFF).contains(&cp) {
                    return Err(self.error("unexpected low surrogate in \\u escape"));
                } else {
                    char::from_u32(cp).ok_or_else(|| self.error("invalid \\u escape"))?
                }
            }
            Some(other) => {
                return Err(self.error(format!("invalid escape character '{}'", other as char)))
            }
            None => return Err(self.error("unterminated escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a' + 10) as u32,
                Some(b @ b'A'..=b'F') => (b - b'A' + 10) as u32,
                _ => return Err(self.error("invalid \\u escape digits")),
            };
            cp = (cp << 4) | d;
        }
        Ok(cp)
    }

    /// Read the number at the cursor.
    pub fn number(&mut self) -> Result<Number, JsonError> {
        let (text, is_float) = self.number_text()?;
        self.convert(text, is_float)
    }

    /// Step over the number at the cursor and return its text and whether
    /// it has a fraction or an exponent.
    fn number_text(&mut self) -> Result<(&'a str, bool), JsonError> {
        let start = self.pos;
        if self.peek_byte() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: "0" or [1-9][0-9]*
        match self.peek_byte() {
            Some(b'0') => {
                self.pos += 1;
            }
            Some(b'1'..=b'9') => {
                while matches!(self.peek_byte(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.error("invalid number")),
        }
        let mut is_float = false;
        if self.peek_byte() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek_byte(), Some(b'0'..=b'9')) {
                return Err(self.error("expected digits after decimal point"));
            }
            while matches!(self.peek_byte(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek_byte(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek_byte(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek_byte(), Some(b'0'..=b'9')) {
                return Err(self.error("expected digits in exponent"));
            }
            while matches!(self.peek_byte(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = self
            .bytes
            .get(start..self.pos)
            .and_then(|digits| std::str::from_utf8(digits).ok())
            .ok_or_else(|| self.error("invalid number"))?;
        Ok((text, is_float))
    }

    /// The value of number `text`; the error, if any, is at the cursor.
    fn convert(&self, text: &str, is_float: bool) -> Result<Number, JsonError> {
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Number::Int(i));
            }
            // Integer overflow: fall through to float.
        }
        let f: f64 = text
            .parse()
            .map_err(|_| self.error(format!("invalid number '{text}'")))?;
        if !f.is_finite() {
            return Err(self.error("number out of range"));
        }
        Ok(Number::Float(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("42").unwrap(), Json::int(42));
        assert_eq!(parse("-7").unwrap(), Json::int(-7));
        assert_eq!(parse("2.5").unwrap(), Json::float(2.5));
        assert_eq!(parse("1e3").unwrap(), Json::float(1000.0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::str("hi"));
    }

    #[test]
    fn parses_structures() {
        let v = parse(r#"{"a": [1, 2, {"b": null}], "c": "d"}"#).unwrap();
        assert_eq!(v.pointer("/a/2/b"), Some(&Json::Null));
        assert_eq!(v.pointer("/c").and_then(Json::as_str), Some("d"));
    }

    #[test]
    fn preserves_key_order() {
        let v = parse(r#"{"z":1,"a":2,"m":3}"#).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a", "m"]);
    }

    #[test]
    fn string_escapes() {
        assert_eq!(parse(r#""a\n\t\"\\A""#).unwrap(), Json::str("a\n\t\"\\A"));
    }

    #[test]
    fn surrogate_pairs() {
        assert_eq!(parse(r#""😀""#).unwrap(), Json::str("😀"));
        assert!(parse(r#""\ud83d""#).is_err(), "unpaired high surrogate");
        assert!(parse(r#""\ude00""#).is_err(), "bare low surrogate");
    }

    #[test]
    fn unicode_passthrough() {
        assert_eq!(parse("\"héllo 世界\"").unwrap(), Json::str("héllo 世界"));
    }

    #[test]
    fn rejects_trailing_garbage() {
        let err = parse("{} x").unwrap_err();
        assert!(err.message.contains("trailing"));
    }

    #[test]
    fn rejects_control_chars() {
        assert!(parse("\"a\u{0001}b\"").is_err());
    }

    #[test]
    fn rejects_leading_zero_numbers() {
        assert!(parse("01").is_err());
    }

    #[test]
    fn rejects_truncated_inputs() {
        for input in ["{", "[1,", "\"abc", "{\"a\":", "tru", "-"] {
            assert!(parse(input).is_err(), "should reject {input:?}");
        }
    }

    #[test]
    fn depth_limit_enforced() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
        assert!(parse_with_limit(&deep, 300).is_ok());
    }

    #[test]
    fn error_positions() {
        let err = parse("{\n  \"a\": xyz\n}").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.column >= 8, "column={}", err.column);
    }

    #[test]
    fn big_integers_degrade_to_float() {
        let v = parse("99999999999999999999").unwrap();
        assert!(matches!(v, Json::Num(Number::Float(_))));
    }

    #[test]
    fn duplicate_keys_last_wins_on_lookup() {
        let v = parse(r#"{"k":1,"k":2}"#).unwrap();
        assert_eq!(v.get("k").and_then(Json::as_i64), Some(2));
    }
}
