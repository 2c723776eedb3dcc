//! Property-based tests for the JSON engine: round trips, parser
//! robustness, and flattener invariants, on the workspace's seeded runner
//! (`diffaudit_util::prop`).

use diffaudit_json::{flatten, parse, Json, Number};
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
