//! JSON serialization (compact and pretty).

use crate::scan::string_run;
use crate::value::{Json, Number};

impl Json {
    /// Compact serialization (no whitespace).
    #[allow(clippy::inherent_to_string)]
    pub fn to_string(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out, None, 0);
        out
    }

    /// Pretty serialization with two-space indentation.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out, Some(2), 0);
        out
    }
}

fn write_value(v: &Json, out: &mut String, indent: Option<usize>, depth: usize) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(n) => write_number(*n, out),
        Json::Str(s) => write_string(s, out),
        Json::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(item, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Json::Obj(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(val, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
}

fn write_number(n: Number, out: &mut String) {
    match n {
        Number::Int(i) => out.push_str(&i.to_string()),
        Number::Float(f) => {
            if !f.is_finite() {
                // JSON has no NaN or infinity; `null` keeps the output
                // parseable.
                out.push_str("null");
            } else if f.fract() != 0.0 {
                out.push_str(&format!("{f}"));
            } else if f.abs() < 1e15 {
                // Keep "2.0" distinguishable from the integer 2.
                out.push_str(&format!("{f:.1}"));
            } else {
                // "1e15": plain digits would reparse as an integer.
                out.push_str(&format!("{f:e}"));
            }
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.reserve(s.len() + 2);
    out.push('"');
    let mut rest = s;
    loop {
        // A run ends on an ASCII byte, so the split is on a char boundary.
        let (plain, tail) = rest
            .split_at_checked(string_run(rest.as_bytes()).0)
            .unwrap_or((rest, ""));
        out.push_str(plain);
        let mut chars = tail.chars();
        match chars.next() {
            None => break,
            Some('"') => out.push_str("\\\""),
            Some('\\') => out.push_str("\\\\"),
            Some('\n') => out.push_str("\\n"),
            Some('\r') => out.push_str("\\r"),
            Some('\t') => out.push_str("\\t"),
            Some('\u{0008}') => out.push_str("\\b"),
            Some('\u{000C}') => out.push_str("\\f"),
            // The other control bytes.
            Some(c) => out.push_str(&format!("\\u{:04x}", c as u32)),
        }
        rest = chars.as_str();
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn compact_output() {
        let v = Json::obj()
            .with("a", Json::int(1))
            .with("b", Json::Arr(vec![Json::Bool(true), Json::Null]));
        assert_eq!(v.to_string(), r#"{"a":1,"b":[true,null]}"#);
    }

    #[test]
    fn pretty_output() {
        let v = Json::obj().with("a", Json::int(1));
        assert_eq!(v.to_pretty_string(), "{\n  \"a\": 1\n}");
    }

    #[test]
    fn escapes_in_strings() {
        let v = Json::str("a\"b\\c\nd\u{0001}");
        assert_eq!(v.to_string(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn float_formatting_keeps_type() {
        assert_eq!(Json::float(2.0).to_string(), "2.0");
        assert_eq!(Json::float(2.5).to_string(), "2.5");
        assert_eq!(Json::int(2).to_string(), "2");
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        for f in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let text = Json::obj().with("x", Json::float(f)).to_string();
            assert_eq!(text, r#"{"x":null}"#);
            assert_eq!(parse(&text).unwrap().get("x"), Some(&Json::Null));
            assert_eq!(
                parse(&Json::float(f).to_pretty_string()).unwrap(),
                Json::Null
            );
        }
    }

    #[test]
    fn round_trip_parse_serialize_parse() {
        let src = r#"{"user":{"id":123,"name":"a😀b","tags":["x","y"],"score":1.5,"ok":true,"gone":null}}"#;
        let v = parse(src).unwrap();
        let re = parse(&v.to_string()).unwrap();
        assert_eq!(v, re);
        let re_pretty = parse(&v.to_pretty_string()).unwrap();
        assert_eq!(v, re_pretty);
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::obj().to_string(), "{}");
        assert_eq!(Json::Arr(vec![]).to_string(), "[]");
        assert_eq!(Json::obj().to_pretty_string(), "{}");
    }
}
