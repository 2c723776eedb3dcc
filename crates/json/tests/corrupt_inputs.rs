//! Adversarial-input suite for the JSON parser.
//!
//! Companion to `diffaudit-analyzer`'s `no-panic` pass: drives the parser
//! with truncated, bit-flipped, and pathological documents and asserts every
//! outcome is `Ok` or a positioned `JsonError`, never a panic.

use diffaudit_json::{parse, parse_with_limit};
use diffaudit_util::prop;

const DOC: &str = r#"{
  "log": {
    "version": "1.2",
    "entries": [
      {"request": {"url": "https://api.example.com/v1?uid=42&ts=1.5e3"},
       "response": {"status": 200, "ok": true, "body": null}},
      {"request": {"url": "https://t.example.net/collect"},
       "response": {"status": 204, "ok": false, "body": "\u00e9\ud83d\ude00"}}
    ]
  }
}"#;

#[test]
fn byte_by_byte_truncation_never_panics() {
    for cut in 0..DOC.len() {
        if let Some(prefix) = DOC.get(..cut) {
            let _ = parse(prefix);
        }
    }
    // The full document parses; every proper prefix fails.
    assert!(parse(DOC).is_ok());
    for cut in 1..DOC.len() {
        if let Some(prefix) = DOC.get(..cut) {
            assert!(parse(prefix).is_err(), "prefix of {cut} bytes accepted");
        }
    }
}

#[test]
fn byte_flips_never_panic() {
    let bytes = DOC.as_bytes();
    let mut buf = bytes.to_vec();
    for i in 0..buf.len() {
        for flip in [0x01u8, 0x20, 0x80, 0xFF] {
            buf[i] ^= flip;
            if let Ok(s) = std::str::from_utf8(&buf) {
                let _ = parse(s);
            }
            buf[i] ^= flip;
        }
    }
}

#[test]
fn pathological_escapes_are_errors_not_panics() {
    for input in [
        r#""\u""#,
        r#""\u12""#,
        r#""\uD800""#,
        r#""\uD800\u0041""#,
        r#""\uDC00""#,
        r#""\x41""#,
        r#""\"#,
        "\"\\u{FFFF}\"",
    ] {
        assert!(parse(input).is_err(), "accepted {input:?}");
    }
}

#[test]
fn lying_nesting_is_bounded() {
    // A megabyte of open brackets must hit the depth limit, not the stack.
    let deep = "[".repeat(1 << 20);
    assert!(parse(&deep).is_err());
    let deep_objs = r#"{"a":"#.repeat(10_000);
    assert!(parse(&deep_objs).is_err());
    // An explicit tiny limit applies.
    assert!(parse_with_limit("[[[[]]]]", 2).is_err());
    assert!(parse_with_limit("[[[[]]]]", 8).is_ok());
}

#[test]
fn numeric_edge_cases_never_panic() {
    for input in [
        "1e999999",
        "-1e999999",
        "9223372036854775808",  // i64::MAX + 1
        "-9223372036854775809", // i64::MIN - 1
        "0.000000000000000000001",
        "1e-999999",
        "-",
        "0x10",
        "01",
        "1.",
        "1e",
        ".5",
    ] {
        let _ = parse(input); // must return, Ok or Err
    }
    assert!(parse("1e999999").is_err(), "infinite float accepted");
    assert!(parse("1e-999999").is_ok(), "underflow rounds to zero");
}

#[test]
fn random_garbage_never_panics() {
    // Seeded garbage bytes, parsed as &str when valid UTF-8: exercises the
    // full error surface without a fuzzer.
    prop::check("random_garbage_never_panics", 2_000, |rng| {
        if let Ok(s) = std::str::from_utf8(&prop::bytes(rng, 0..=63)) {
            let _ = parse(s);
        }
    });
}
