//! Property-based tests for the JSON engine: round trips, parser
//! robustness, and flattener invariants, on the workspace's seeded runner
//! (`diffaudit_util::prop`).

use diffaudit_json::{flatten, parse, visit_keys, visit_keys_bytes, Json, Number};
use diffaudit_util::prop::{self, check};
use diffaudit_util::Rng;

const CASES: u32 = 512;

const IDENT_START: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_";
const IDENT: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_";

/// Any finite `f64`: every bit pattern, integers of every magnitude, and
/// the moderate range most payloads hold.
fn finite_f64(rng: &mut Rng) -> f64 {
    loop {
        let f = match rng.range(0, 3) {
            0 => f64::from_bits(rng.next_u64()),
            1 => rng.next_u64() as i64 as f64,
            _ => rng.f64() * 2e12 - 1e12,
        };
        if f.is_finite() {
            return f;
        }
    }
}

/// An arbitrary JSON tree, at most `depth` containers deep.
fn arb_json(rng: &mut Rng, depth: u32) -> Json {
    if depth == 0 || rng.chance(0.4) {
        return match rng.range(0, 5) {
            0 => Json::Null,
            1 => Json::Bool(rng.chance(0.5)),
            2 => Json::int(rng.next_u64() as i64),
            3 => Json::Num(Number::Float(finite_f64(rng))),
            _ => Json::Str(prop::text(rng, 0..=20)),
        };
    }
    let len = rng.range(0, 6);
    if rng.chance(0.5) {
        Json::Arr((0..len).map(|_| arb_json(rng, depth - 1)).collect())
    } else {
        // `set` keeps keys unique: the builders never produce duplicates,
        // and equality after a round trip requires uniqueness.
        let mut obj = Json::obj();
        for _ in 0..len {
            let mut key = prop::string_over(rng, IDENT_START, 1..=1);
            key.push_str(&prop::string_over(rng, IDENT, 0..=10));
            obj.set(key, arb_json(rng, depth - 1));
        }
        obj
    }
}

#[test]
fn serialize_parse_round_trip() {
    check("serialize_parse_round_trip", CASES, |rng| {
        let value = arb_json(rng, 4);
        let compact = value.to_string();
        assert_eq!(parse(&compact).unwrap(), value, "via {compact}");
        let pretty = value.to_pretty_string();
        assert_eq!(parse(&pretty).unwrap(), value, "via {pretty}");
    });
}

#[test]
fn parser_never_panics() {
    check("parser_never_panics", CASES, |rng| {
        let _ = parse(&prop::text(rng, 0..=200));
    });
}

#[test]
fn parser_never_panics_on_jsonish() {
    check("parser_never_panics_on_jsonish", CASES, |rng| {
        let input = prop::string_over(
            rng,
            "{}[],:\"0123456789abcdefghijklmnopqrstuvwxyz \\.",
            0..=100,
        );
        let _ = parse(&input);
    });
}

#[test]
fn flatten_bounded_by_node_count() {
    check("flatten_bounded_by_node_count", CASES, |rng| {
        let value = arb_json(rng, 4);
        assert!(flatten(&value).len() <= value.node_count());
    });
}

#[test]
fn flatten_keys_come_from_object_keys() {
    check("flatten_keys_come_from_object_keys", CASES, |rng| {
        // Every flattened key must appear somewhere in the serialized form
        // as a quoted key (sanity link between tree and extraction).
        let value = arb_json(rng, 4);
        let text = value.to_string();
        for entry in flatten(&value) {
            assert!(
                text.contains(&Json::Str(entry.key.clone()).to_string()),
                "key {:?} not found in {}",
                entry.key,
                text
            );
        }
    });
}

#[test]
fn number_round_trip() {
    check("number_round_trip", CASES, |rng| {
        let i = rng.next_u64() as i64;
        assert_eq!(parse(&i.to_string()).unwrap(), Json::int(i));
    });
}

#[test]
fn string_escaping_round_trip() {
    check("string_escaping_round_trip", CASES, |rng| {
        let v = Json::str(prop::text(rng, 0..=50));
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    });
}

#[test]
fn pointer_resolves_every_array_index() {
    check("pointer_resolves_every_array_index", CASES, |rng| {
        let len = rng.range(0, 10);
        let items: Vec<i64> = (0..len).map(|_| rng.next_u64() as i64).collect();
        let v = Json::Arr(items.iter().copied().map(Json::int).collect());
        for (i, expected) in items.iter().enumerate() {
            assert_eq!(
                v.pointer(&format!("/{i}")).and_then(Json::as_i64),
                Some(*expected)
            );
        }
    });
}

/// Integral floats at and above 1e15 used to serialize without a fraction
/// or exponent and reparse as `Number::Int`.
#[test]
fn integral_floats_reparse_as_floats() {
    for f in [1e15, -2e15, 8.43617409521074e17, 9.3e18, 1e300, f64::MAX] {
        let wire = Json::float(f).to_string();
        assert_eq!(parse(&wire), Ok(Json::Num(Number::Float(f))), "via {wire}");
    }
    // Below 1e15 the output is unchanged.
    assert_eq!(Json::float(2.0).to_string(), "2.0");
    assert_eq!(
        Json::float(999_999_999_999_999.0).to_string(),
        "999999999999999.0"
    );
    assert_eq!(Json::float(0.5).to_string(), "0.5");
}

/// `text` as a JSON string literal; with `escape_all`, every char is a
/// `\uXXXX` escape (a surrogate pair above the BMP).
fn quoted(text: &str, escape_all: bool) -> String {
    if !escape_all {
        return Json::str(text).to_string();
    }
    let mut out = String::from("\"");
    for unit in text.encode_utf16() {
        out.push_str(&format!("\\u{unit:04x}"));
    }
    out.push('"');
    out
}

/// Leading chars for a stringified document: JSON whitespace, whitespace
/// JSON does not allow (NBSP, EM SPACE, LINE SEPARATOR) and a BOM, which
/// is no whitespace at all.
const LEADS: [&str; 7] = [
    "", " ", "\n\t", "\u{a0}", "\u{2003}", "\u{2028}", "\u{feff}",
];

/// JSON-ish text: containers up to `depth` deep with duplicate and escaped
/// keys, stringified documents up to `layers` deep (escaped or not, with
/// odd leading whitespace, some of them broken), and edge-case scalars.
fn arb_doc(rng: &mut Rng, out: &mut String, depth: u32, layers: u32) {
    const KEYS: [&str; 6] = ["a", "id", "user_id", "", "é", "k\"q"];
    const SCALARS: [&str; 14] = [
        "1e400",
        "-0",
        "1e15",
        "-1e-400",
        "0",
        "-1.5e-3",
        "123456789012345678901",
        "true",
        "false",
        "null",
        "\"plain\"",
        "\"{not json\"",
        "\"[\"",
        "\"  \"",
    ];
    match rng.range(0, 10) {
        0..=2 if depth > 0 => {
            out.push('{');
            for i in 0..rng.range(0, 5) {
                if i > 0 {
                    out.push(',');
                }
                let key = *rng.choose(&KEYS);
                out.push_str(&quoted(key, rng.chance(0.2)));
                out.push(':');
                arb_doc(rng, out, depth - 1, layers);
            }
            out.push('}');
        }
        3 | 4 if depth > 0 => {
            out.push('[');
            for i in 0..rng.range(0, 4) {
                if i > 0 {
                    out.push_str(", ");
                }
                arb_doc(rng, out, depth - 1, layers);
            }
            out.push(']');
        }
        5 | 6 if layers > 0 => {
            let mut inner = rng.choose(&LEADS).to_string();
            arb_doc(rng, &mut inner, 3, layers - 1);
            if rng.chance(0.1) {
                inner.truncate(floor_boundary(&inner, inner.len() / 2));
            }
            out.push_str(&quoted(&inner, rng.chance(0.2)));
        }
        _ => out.push_str(*rng.choose(&SCALARS)),
    }
}

/// The largest char boundary of `s` at or below `at`.
fn floor_boundary(s: &str, at: usize) -> usize {
    (0..=at).rev().find(|&i| s.is_char_boundary(i)).unwrap_or(0)
}

/// A document for the differential property: mostly valid, sometimes
/// nested at the depth limit, cut short, garbled or arbitrary text.
fn arb_visit_input(rng: &mut Rng) -> String {
    let mut doc = String::new();
    let layers = rng.range(0, 5) as u32;
    arb_doc(rng, &mut doc, 4, layers);
    match rng.range(0, 10) {
        0 => {
            // At and just past the depth limit.
            let n = rng.range(126, 130);
            format!("{}{{\"deep\":{doc}}}{}", "[".repeat(n), "]".repeat(n))
        }
        1 => {
            let cut = floor_boundary(&doc, rng.range(0, doc.len() + 1));
            doc.truncate(cut);
            doc
        }
        2 => {
            let at = floor_boundary(&doc, rng.range(0, doc.len() + 1));
            doc.insert_str(at, &prop::text(rng, 1..=2));
            doc
        }
        3 => prop::text(rng, 0..=40),
        _ => doc,
    }
}

#[test]
fn visit_keys_matches_flatten() {
    check("visit_keys_matches_flatten", 4096, |rng| {
        let input = arb_visit_input(rng);
        let mut got = Vec::new();
        let visited = visit_keys(&input, |key| got.push(key.to_string()));
        // The byte entry point reads valid UTF-8 exactly as the `&str` one.
        let mut got_bytes = Vec::new();
        let visited_bytes = visit_keys_bytes(input.as_bytes(), |key| {
            got_bytes.push(key.to_string());
        });
        assert_eq!(
            (&visited_bytes, &got_bytes),
            (&visited, &got),
            "on {input:?}"
        );
        match parse(&input) {
            Ok(doc) => {
                let want: Vec<String> = flatten(&doc).into_iter().map(|e| e.key).collect();
                assert_eq!(visited, Ok(()), "on {input:?}");
                assert_eq!(got, want, "on {input:?}");
            }
            Err(e) => {
                assert_eq!(visited, Err(e), "on {input:?}");
                assert!(got.is_empty(), "reported {got:?} for {input:?}");
            }
        }
    });
}

/// Each shape the differential property draws from, pinned once.
#[test]
fn visit_keys_examples() {
    let keys = |input: &str| {
        let mut got = Vec::new();
        visit_keys(input, |key| got.push(key.to_string())).map(|()| got)
    };
    let stringified = r#"{"p":"{\"a\":{\"b\":\"[{\\\"c\\\":1}]\"}}","q":-0}"#;
    assert_eq!(keys(stringified).unwrap(), ["c", "q"]);
    // A stringified layer behind NBSP does not parse, so it is a value.
    assert_eq!(keys("{\"p\":\"\u{a0}{\\\"a\\\":1}\"}").unwrap(), ["p"]);
    // Escaped keys and an escaped nested document.
    assert_eq!(
        keys(r#"{"\u0069d":"\u007b\"k\":[1e15]}","id":1}"#).unwrap(),
        ["k", "id"]
    );
    // A broken layer takes back the keys it reported.
    assert_eq!(keys(r#"{"p":"{\"a\":1,\"b\":}"}"#).unwrap(), ["p"]);
    assert!(keys(r#"{"a":1e400}"#).is_err());
    // 128 containers deep is the limit; 129 is past it.
    let deep = |n: usize| format!("{}{{\"k\":1}}{}", "[".repeat(n - 1), "]".repeat(n - 1));
    assert_eq!(keys(&deep(128)).unwrap(), ["k"]);
    assert_eq!(keys(&deep(129)), Err(parse(&deep(129)).unwrap_err()));
    assert!(keys(r#"{"a":1,"b":[2"#).is_err());
}

/// Bytes that are not UTF-8 anywhere in a document (inside a string, in a
/// skipped value, in a key, or outside any string) make the byte entry
/// point fail and report nothing, as `from_utf8` then `visit_keys` would.
#[test]
fn visit_keys_bytes_rejects_what_is_not_utf8() {
    check("visit_keys_bytes_rejects_what_is_not_utf8", 2048, |rng| {
        let mut bytes = arb_visit_input(rng).into_bytes();
        for _ in 0..rng.range(0, 3) {
            let at = rng.range(0, bytes.len() + 1);
            let bad: &[u8] = match rng.range(0, 4) {
                0 => &[0xFF],
                1 => &[0xC3],
                2 => &[0xE2, 0x82],
                _ => &[0xED, 0xA0, 0x80],
            };
            bytes.splice(at..at, bad.iter().copied());
        }
        let mut got = Vec::new();
        let visited = visit_keys_bytes(&bytes, |key| got.push(key.to_string()));
        match std::str::from_utf8(&bytes) {
            Ok(text) => {
                let mut want = Vec::new();
                let expected = visit_keys(text, |key| want.push(key.to_string()));
                assert_eq!((visited, got), (expected, want));
            }
            Err(_) => {
                assert!(visited.is_err(), "accepted {bytes:?}");
                assert!(got.is_empty());
            }
        }
    });
    // A long plain run with one bad byte deep inside a skipped value.
    let mut body = format!(r#"{{"k":"{}","j":1}}"#, "x".repeat(100)).into_bytes();
    body[60] = 0xFF;
    assert!(visit_keys_bytes(&body, |_| {}).is_err());
}
