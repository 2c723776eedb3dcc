//! Recursive key-value extraction from JSON payloads.
//!
//! This implements the paper's extraction step (§3.2.2): "We extract
//! key-value pairs from the JSON-structured data, and the keys serve as the
//! raw data types." Every object key at every depth becomes a candidate raw
//! data type for classification, paired with its (stringified) value.
//!
//! Trackers frequently embed JSON *inside* string values (e.g. a `payload`
//! field whose value is itself a serialized JSON object); with
//! [`FlattenOptions::parse_nested_json`] enabled the flattener transparently
//! recurses into those as well, which is where a large fraction of the
//! interesting keys in real traces hide.

use crate::parse::{Cursor, Kind};
use crate::value::Json;
use crate::{parse, JsonError};
use std::fmt::Write;

/// One extracted key-value pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatEntry {
    /// Dotted path from the root, e.g. `"user.device.os"`.
    pub path: String,
    /// The leaf key itself, e.g. `"os"` — this is the *raw data type*.
    pub key: String,
    /// The stringified value.
    pub value: String,
}

/// Extraction options.
#[derive(Debug, Clone)]
pub struct FlattenOptions {
    /// Attempt to parse string values that look like JSON documents and
    /// recurse into them. Default `true`.
    pub parse_nested_json: bool,
    /// Depth limit for nested-JSON recursion (how many stringified layers to
    /// peel, not structural depth). Default `3`.
    pub max_nested_json: usize,
    /// Include `[i]` markers for array elements in paths. Default `false`
    /// (array elements share the parent key, matching how the paper treats
    /// repeated fields as one data type).
    pub array_indices_in_paths: bool,
    /// Emit entries for object-valued keys too (value rendered compactly).
    /// Default `false`: only leaf scalars produce entries.
    pub include_composite_values: bool,
}

impl Default for FlattenOptions {
    fn default() -> Self {
        Self {
            parse_nested_json: true,
            max_nested_json: 3,
            array_indices_in_paths: false,
            include_composite_values: false,
        }
    }
}

/// Flatten with default options.
pub fn flatten(value: &Json) -> Vec<FlatEntry> {
    flatten_with(value, &FlattenOptions::default())
}

/// Flatten with explicit options.
pub fn flatten_with(value: &Json, options: &FlattenOptions) -> Vec<FlatEntry> {
    let mut out = Vec::new();
    walk(
        value,
        &mut String::new(),
        "",
        options,
        options.max_nested_json,
        &mut out,
    );
    out
}

fn scalar_string(value: &Json) -> String {
    match value {
        Json::Str(s) => s.clone(),
        other => other.to_string(),
    }
}

/// Heuristic: does this string look like an embedded JSON document worth
/// parsing? Cheap check before invoking the parser.
fn looks_like_json(s: &str) -> bool {
    let t = s.trim_start();
    (t.starts_with('{') || t.starts_with('[')) && s.len() >= 2
}

/// Walk `value`, whose dotted path is in `path`. Each level appends its
/// child's segment to the one buffer and truncates it back afterwards, so
/// `path` holds the same text on return as on entry.
fn walk(
    value: &Json,
    path: &mut String,
    key: &str,
    options: &FlattenOptions,
    nested_budget: usize,
    out: &mut Vec<FlatEntry>,
) {
    match value {
        Json::Obj(entries) => {
            if options.include_composite_values && !path.is_empty() {
                out.push(FlatEntry {
                    path: path.clone(),
                    key: key.to_string(),
                    value: value.to_string(),
                });
            }
            let base = path.len();
            for (k, v) in entries {
                if base > 0 {
                    path.push('.');
                }
                path.push_str(k);
                walk(v, path, k, options, nested_budget, out);
                path.truncate(base);
            }
        }
        Json::Arr(items) => {
            let base = path.len();
            for (i, item) in items.iter().enumerate() {
                if options.array_indices_in_paths {
                    // Writing to a `String` cannot fail.
                    let _ = write!(path, "[{i}]");
                }
                walk(item, path, key, options, nested_budget, out);
                path.truncate(base);
            }
        }
        Json::Str(s) if options.parse_nested_json && nested_budget > 0 && looks_like_json(s) => {
            match parse(s) {
                Ok(inner @ (Json::Obj(_) | Json::Arr(_))) => {
                    // Peel one stringified layer and keep walking.
                    walk(&inner, path, key, options, nested_budget - 1, out);
                }
                _ => {
                    if !key.is_empty() {
                        out.push(FlatEntry {
                            path: path.clone(),
                            key: key.to_string(),
                            value: s.clone(),
                        });
                    }
                }
            }
        }
        scalar => {
            if !key.is_empty() {
                out.push(FlatEntry {
                    path: path.clone(),
                    key: key.to_string(),
                    value: scalar_string(scalar),
                });
            }
        }
    }
}

/// Report each key [`flatten`] reports for `parse(input)`, in the same
/// order, under the default [`FlattenOptions`], without building the tree
/// or copying a value.
///
/// Scalars are stepped over. A string value is unescaped only when it could
/// be a stringified document, that is, when its first char that is not
/// whitespace is `{` or `[`; then it is walked like `flatten` walks it,
/// falling back to the enclosing key when it does not parse. Fails with
/// [`parse`]'s error, and reports nothing, when `input` is not one JSON
/// document.
pub fn visit_keys(input: &str, visit: impl FnMut(&str)) -> Result<(), JsonError> {
    visit_document(Cursor::new(input), visit)
}

/// [`visit_keys`] over bytes not yet known to be UTF-8, such as a request
/// body: the same keys when `input` is UTF-8, an error otherwise. The
/// UTF-8 check rides along with the walk instead of costing a pass of its
/// own.
pub fn visit_keys_bytes(input: &[u8], visit: impl FnMut(&str)) -> Result<(), JsonError> {
    visit_document(Cursor::from_bytes(input), visit)
}

fn visit_document(cursor: Cursor<'_>, visit: impl FnMut(&str)) -> Result<(), JsonError> {
    let mut keys = Keys::default();
    walk_document(
        cursor,
        "",
        FlattenOptions::default().max_nested_json,
        &mut keys,
    )?;
    keys.iter().for_each(visit);
    Ok(())
}

/// The keys a walk has reported so far, packed into one buffer so that a
/// stringified layer that fails to parse can take its keys back.
#[derive(Default)]
struct Keys {
    text: String,
    ends: Vec<usize>,
}

impl Keys {
    fn push(&mut self, key: &str) {
        if !key.is_empty() {
            self.text.push_str(key);
            self.ends.push(self.text.len());
        }
    }

    fn mark(&self) -> usize {
        self.ends.len()
    }

    fn truncate(&mut self, mark: usize) {
        self.ends.truncate(mark);
        self.text.truncate(self.ends.last().copied().unwrap_or(0));
    }

    fn iter(&self) -> impl Iterator<Item = &str> {
        self.ends.iter().scan(0, |start, &end| {
            let key = self.text.get(*start..end);
            *start = end;
            key
        })
    }
}

/// Walk one whole document (the input, or a peeled layer) under `key`.
fn walk_document(
    mut cursor: Cursor<'_>,
    key: &str,
    nested_budget: usize,
    keys: &mut Keys,
) -> Result<(), JsonError> {
    walk_keys(&mut cursor, key, nested_budget, keys)?;
    cursor.end()
}

/// [`walk`] for keys only, over the value at the cursor.
fn walk_keys(
    cursor: &mut Cursor<'_>,
    key: &str,
    nested_budget: usize,
    keys: &mut Keys,
) -> Result<(), JsonError> {
    match cursor.peek()? {
        Kind::Object => {
            cursor.begin_object()?;
            while let Some(k) = cursor.next_key()? {
                walk_keys(cursor, &k, nested_budget, keys)?;
            }
        }
        Kind::Array => {
            cursor.begin_array()?;
            while cursor.next_item()? {
                walk_keys(cursor, key, nested_budget, keys)?;
            }
        }
        Kind::String if nested_budget > 0 => match cursor.string_if(|c| c == '{' || c == '[')? {
            Some(layer) => {
                // Peel one stringified layer; one that does not parse is a
                // plain value of `key`.
                let mark = keys.mark();
                let layer = Cursor::new(&layer);
                if walk_document(layer, key, nested_budget - 1, keys).is_err() {
                    keys.truncate(mark);
                    keys.push(key);
                }
            }
            None => keys.push(key),
        },
        _ => {
            cursor.skip()?;
            keys.push(key);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn j(s: &str) -> Json {
        parse(s).unwrap()
    }

    #[test]
    fn flat_object() {
        let entries = flatten(&j(r#"{"email":"a@b.com","age":12}"#));
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].key, "email");
        assert_eq!(entries[0].value, "a@b.com");
        assert_eq!(entries[1].key, "age");
        assert_eq!(entries[1].value, "12");
    }

    #[test]
    fn nested_paths() {
        let entries = flatten(&j(r#"{"user":{"device":{"os":"android"}}}"#));
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].path, "user.device.os");
        assert_eq!(entries[0].key, "os");
    }

    #[test]
    fn arrays_share_parent_key() {
        let entries = flatten(&j(r#"{"events":[{"ts":1},{"ts":2}]}"#));
        assert_eq!(entries.len(), 2);
        assert!(entries
            .iter()
            .all(|e| e.key == "ts" && e.path == "events.ts"));
    }

    #[test]
    fn array_indices_option() {
        let opts = FlattenOptions {
            array_indices_in_paths: true,
            ..Default::default()
        };
        let entries = flatten_with(&j(r#"{"a":[{"b":1},{"b":2}]}"#), &opts);
        assert_eq!(entries[0].path, "a[0].b");
        assert_eq!(entries[1].path, "a[1].b");
    }

    #[test]
    fn stringified_json_is_peeled() {
        let entries = flatten(&j(r#"{"payload":"{\"device_id\":\"abc\",\"lat\":1.5}"}"#));
        let keys: Vec<&str> = entries.iter().map(|e| e.key.as_str()).collect();
        assert_eq!(keys, ["device_id", "lat"]);
        assert_eq!(entries[0].path, "payload.device_id");
    }

    #[test]
    fn nested_json_budget_limits_recursion() {
        // Four stringified layers, budget peels only three.
        let inner = r#"{"k":1}"#;
        let mut doc = inner.to_string();
        for _ in 0..4 {
            doc = Json::obj().with("p", Json::Str(doc)).to_string();
        }
        let entries = flatten(&parse(&doc).unwrap());
        // Budget exhausted: the innermost layer stays an opaque string value.
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].key, "p");
        assert_eq!(entries[0].value, inner);
    }

    #[test]
    fn non_json_braces_stay_scalar() {
        let entries = flatten(&j(r#"{"template":"{not json"}"#));
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].value, "{not json");
    }

    #[test]
    fn scalars_without_keys_produce_nothing() {
        assert!(flatten(&j("42")).is_empty());
        assert!(flatten(&j("[1,2,3]")).is_empty());
    }

    #[test]
    fn composite_values_option() {
        let opts = FlattenOptions {
            include_composite_values: true,
            parse_nested_json: false,
            ..Default::default()
        };
        let entries = flatten_with(&j(r#"{"meta":{"a":1}}"#), &opts);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].key, "meta");
        assert_eq!(entries[0].value, r#"{"a":1}"#);
    }

    fn paths(entries: &[FlatEntry]) -> Vec<&str> {
        entries.iter().map(|e| e.path.as_str()).collect()
    }

    #[test]
    fn deep_sibling_paths_do_not_leak_into_each_other() {
        let doc = j(r#"{"a":{"b":{"c":1,"dd":{"e":2}},"f":3},"g":{"h":{"i":4}},"j":5,"":{"k":6}}"#);
        let entries = flatten(&doc);
        assert_eq!(
            paths(&entries),
            ["a.b.c", "a.b.dd.e", "a.f", "g.h.i", "j", "k"]
        );
        assert_eq!(entries[1].key, "e");
    }

    #[test]
    fn indexed_array_paths_reset_between_elements() {
        let opts = FlattenOptions {
            array_indices_in_paths: true,
            ..Default::default()
        };
        let doc = j(r#"{"ev":[{"ts":1,"p":{"x":2}},[{"y":3},{"y":4}],{"ts":5}],"n":[6,7],"z":8}"#);
        let entries = flatten_with(&doc, &opts);
        assert_eq!(
            paths(&entries),
            [
                "ev[0].ts",
                "ev[0].p.x",
                "ev[1][0].y",
                "ev[1][1].y",
                "ev[2].ts",
                "n[0]",
                "n[1]",
                "z"
            ]
        );
        assert_eq!(entries[5].key, "n");
        let plain = flatten(&doc);
        assert_eq!(
            paths(&plain),
            ["ev.ts", "ev.p.x", "ev.y", "ev.y", "ev.ts", "n", "n", "z"]
        );
    }

    #[test]
    fn stringified_json_inside_arrays_keeps_its_path() {
        let doc = j(
            r#"{"batch":["{\"uid\":\"u1\",\"geo\":{\"lat\":1}}","plain","[{\"sid\":2}]"],"after":{"k":"v"}}"#,
        );
        let opts = FlattenOptions {
            array_indices_in_paths: true,
            ..Default::default()
        };
        assert_eq!(
            paths(&flatten_with(&doc, &opts)),
            [
                "batch[0].uid",
                "batch[0].geo.lat",
                "batch[1]",
                "batch[2][0].sid",
                "after.k"
            ]
        );
        let entries = flatten(&doc);
        assert_eq!(
            paths(&entries),
            [
                "batch.uid",
                "batch.geo.lat",
                "batch",
                "batch.sid",
                "after.k"
            ]
        );
        assert_eq!(entries[2].key, "batch");
        assert_eq!(entries[2].value, "plain");
    }

    #[test]
    fn null_and_bool_values_stringify() {
        let entries = flatten(&j(r#"{"consent":null,"opt_out":false}"#));
        assert_eq!(entries[0].value, "null");
        assert_eq!(entries[1].value, "false");
    }
}
