//! Recursive-descent JSON parser (RFC 8259) with positional errors and a
//! depth limit.
//!
//! Real network traces contain adversarial inputs — deeply nested payloads,
//! truncated bodies, invalid escapes — so the parser never panics and always
//! reports the byte offset and line/column of a failure.

use crate::scan::string_run;
use crate::value::{Json, Number};

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
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
        depth_limit,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after JSON document"));
    }
    Ok(value)
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth_limit: usize,
}

impl<'a> Parser<'a> {
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

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), JsonError> {
        match self.peek() {
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

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self
            .bytes
            .get(self.pos..)
            .is_some_and(|rest| rest.starts_with(text.as_bytes()))
        {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(format!("invalid literal, expected '{text}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > self.depth_limit {
            return Err(self.error(format!("nesting depth exceeds limit {}", self.depth_limit)));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.error(format!("unexpected character '{}'", other as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect_byte(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.error("expected string key in object"));
            }
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            entries.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(entries)),
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
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect_byte(b'[')?;
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
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                Some(other) => {
                    self.pos -= 1;
                    return Err(self.error(format!(
                        "expected ',' or ']' in array, found '{}'",
                        other as char
                    )));
                }
                None => return Err(self.error("unterminated array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        // A string without escapes is one run, copied by one `push_str`.
        let mut out = String::new();
        loop {
            out.push_str(self.run()?);
            match self.bump() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => self.escape(&mut out)?,
                // A run ends only at `"`, `\`, a control byte or the end.
                Some(_) => return Err(self.error("unescaped control character in string")),
            }
        }
    }

    /// Step over the run of plain string bytes at `pos` and return it.
    fn run(&mut self) -> Result<&'a str, JsonError> {
        let start = self.pos;
        let end = start + string_run(self.bytes.get(start..).unwrap_or_default());
        self.pos = end;
        // `start` follows an ASCII byte and `end` is an ASCII byte or the
        // end of input, so both are char boundaries and `get` succeeds.
        self.input
            .get(start..end)
            .ok_or_else(|| self.error("string run splits a UTF-8 sequence"))
    }

    /// Decode the escape after a `\` and append it to `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        match self.bump() {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'b') => out.push('\u{0008}'),
            Some(b'f') => out.push('\u{000C}'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
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
                    out.push(
                        char::from_u32(c).ok_or_else(|| self.error("invalid surrogate pair"))?,
                    );
                } else if (0xDC00..=0xDFFF).contains(&cp) {
                    return Err(self.error("unexpected low surrogate in \\u escape"));
                } else {
                    out.push(char::from_u32(cp).ok_or_else(|| self.error("invalid \\u escape"))?);
                }
            }
            Some(other) => {
                return Err(self.error(format!("invalid escape character '{}'", other as char)))
            }
            None => return Err(self.error("unterminated escape")),
        }
        Ok(())
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

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: "0" or [1-9][0-9]*
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
            }
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.error("invalid number")),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("expected digits after decimal point"));
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
                return Err(self.error("expected digits in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = self
            .bytes
            .get(start..self.pos)
            .and_then(|digits| std::str::from_utf8(digits).ok())
            .ok_or_else(|| self.error("invalid number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Num(Number::Int(i)));
            }
            // Integer overflow: fall through to float.
        }
        let f: f64 = text
            .parse()
            .map_err(|_| self.error(format!("invalid number '{text}'")))?;
        if !f.is_finite() {
            return Err(self.error("number out of range"));
        }
        Ok(Json::Num(Number::Float(f)))
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
