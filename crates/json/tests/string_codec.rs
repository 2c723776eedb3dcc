//! Seeded, std-only coverage of the JSON string codec.
//!
//! The parser and the serializer both split strings into runs of plain
//! bytes (no `"`, no `\`, nothing below 0x20) and handle the byte that ends
//! a run on its own. These tests put every kind of run-ending byte, and
//! bytes that only look like one once their high bit is cleared, at every
//! offset across the first two 8-byte words of a string, then check that
//! serialize → parse round-trips and that the serializer's output matches a
//! naive char-by-char escaper.

use diffaudit_json::{parse, Json, JsonError};
use diffaudit_util::{prop, Rng};

/// Plain ASCII filler: `prefix(n)` puts the piece after it at byte offset
/// `n` of the string.
const FILLER: &str = "abcdefghijklmnopqrstuvwxyz";

/// Characters that end a run, that span several bytes, or whose encoding
/// holds 0xA2 (`¢` = C2 A2) or 0xDC (`ܐ` = DC 90), the bytes `"` and `\`
/// turn into when their high bit is set.
fn pieces() -> Vec<String> {
    let mut pieces: Vec<String> = [
        "\"", "\\", "/", "é", "世", "😀", "¢", "ܐ", "\u{7f}", "\u{2028}",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    pieces.extend((0u8..0x20).map(|b| char::from(b).to_string()));
    pieces
}

/// The escaping the serializer must produce, one char at a time.
fn naive_escape(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A string of `len` chars drawn from plain ASCII and every piece.
fn text(rng: &mut Rng, len: usize, pieces: &[String]) -> String {
    let mut s = String::new();
    for _ in 0..len {
        if rng.range(0, 3) == 0 {
            s.push_str(rng.choose(pieces).as_str());
        } else {
            s.push(char::from(b' ' + rng.range(0, 95) as u8));
        }
    }
    s
}

fn check_codec(s: &str) {
    let wire = Json::Str(s.to_string()).to_string();
    assert_eq!(wire, naive_escape(s), "serializer escaping of {s:?}");
    assert_eq!(
        parse(&wire),
        Ok(Json::Str(s.to_string())),
        "round trip of {s:?} via {wire:?}"
    );
}

#[test]
fn every_piece_at_every_offset_round_trips() {
    let pieces = pieces();
    let mut rng = Rng::new(7);
    for piece in &pieces {
        for offset in 0..=17 {
            let prefix = &FILLER[..offset];
            // Alone, followed by plain bytes, and followed by a seeded tail
            // that may hold further pieces.
            check_codec(&format!("{prefix}{piece}"));
            check_codec(&format!("{prefix}{piece}{FILLER}"));
            let tail_len = rng.range(0, 12);
            let tail = text(&mut rng, tail_len, &pieces);
            check_codec(&format!("{prefix}{piece}{tail}"));
            // The same piece twice, a word apart.
            check_codec(&format!("{prefix}{piece}{}{piece}", &FILLER[..8]));
        }
    }
}

#[test]
fn seeded_random_strings_round_trip() {
    let pieces = pieces();
    prop::check("seeded_random_strings_round_trip", 2000, |rng| {
        let len = rng.range(0, 40);
        check_codec(&text(rng, len, &pieces));
    });
    check_codec("");
}

#[test]
fn unescaped_multibyte_text_parses_verbatim() {
    // The serializer never escapes these, but also feed them through the
    // parser inside otherwise-escaped documents.
    for piece in ["é", "世", "😀", "¢", "ܐ", "\u{7f}"] {
        for offset in 0..=17 {
            let prefix = &FILLER[..offset];
            let doc = format!("\"{prefix}{piece}\\n{prefix}{piece}\"");
            assert_eq!(
                parse(&doc),
                Ok(Json::Str(format!("{prefix}{piece}\n{prefix}{piece}")))
            );
        }
    }
}

fn error(offset: usize, line: usize, column: usize, message: &str) -> JsonError {
    JsonError {
        offset,
        line,
        column,
        message: message.to_string(),
    }
}

#[test]
fn raw_control_bytes_fail_just_past_the_byte_at_every_offset() {
    for b in 0u8..0x20 {
        for offset in 0..=17 {
            let doc = format!("\"{}{}tail\"", &FILLER[..offset], char::from(b));
            // The control byte sits at `offset + 1`; the error points one past it.
            let expected = if b == b'\n' {
                error(offset + 2, 2, 1, "unescaped control character in string")
            } else {
                error(
                    offset + 2,
                    1,
                    offset + 3,
                    "unescaped control character in string",
                )
            };
            assert_eq!(parse(&doc), Err(expected), "byte {b:#04x} at {offset}");
        }
    }
}

#[test]
fn error_positions_after_long_runs_are_pinned() {
    // A control byte after a ten-byte run inside an object.
    assert_eq!(
        parse("{\"k\":\"abcdefghij\u{1}x\"}"),
        Err(error(17, 1, 18, "unescaped control character in string"))
    );
    // On the second line, after an eleven-byte run.
    assert_eq!(
        parse("[\n\"abcdefghijk\u{1f}\"]"),
        Err(error(15, 2, 14, "unescaped control character in string"))
    );
    // Unterminated after a sixteen-byte run, and after a multi-byte tail.
    assert_eq!(
        parse("\"abcdefghijklmnop"),
        Err(error(17, 1, 18, "unterminated string"))
    );
    assert_eq!(
        parse("\"abcdefghijklmnop世"),
        Err(error(20, 1, 21, "unterminated string"))
    );
    // Unterminated right after an escape that follows a long run.
    assert_eq!(
        parse("\"abcdefghij\\n"),
        Err(error(13, 1, 14, "unterminated string"))
    );
    assert_eq!(
        parse("\"abcdefghij\\"),
        Err(error(12, 1, 13, "unterminated escape"))
    );
}
