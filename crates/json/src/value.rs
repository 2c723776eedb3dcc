//! The JSON value model.

/// A JSON number: integers are kept exact, everything else is `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// An integer that fits in `i64`.
    Int(i64),
    /// Any other number. The parser only produces finite ones; a NaN or
    /// an infinity built in code serializes as `null`, since JSON has no
    /// text for it.
    Float(f64),
}

impl Number {
    /// The value as `f64` (lossy for very large integers).
    pub fn as_f64(&self) -> f64 {
        match self {
            Number::Int(i) => *i as f64,
            Number::Float(f) => *f,
        }
    }

    /// The value as `i64` if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Number::Int(i) => Some(*i),
            Number::Float(_) => None,
        }
    }
}

/// A JSON value.
///
/// Objects are stored as ordered `(key, value)` vectors: insertion order is
/// preserved through parse → mutate → serialize round trips, which keeps the
/// synthetic traces byte-stable. Lookup is linear, which is fine for the
/// small objects found in network payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number.
    Num(Number),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with preserved key order. Duplicate keys are allowed by the
    /// parser (last one wins on lookup) but never produced by our builders.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience integer constructor.
    pub fn int(i: i64) -> Json {
        Json::Num(Number::Int(i))
    }

    /// Convenience float constructor. A NaN or an infinity serializes as
    /// `null`, so the output still parses.
    pub fn float(f: f64) -> Json {
        Json::Num(Number::Float(f))
    }

    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Insert (or replace) a key on an object; panics on non-objects —
    /// builder misuse is a programming error, not a data error.
    #[allow(clippy::panic)]
    pub fn set(&mut self, key: impl Into<String>, value: Json) -> &mut Json {
        let key = key.into();
        match self {
            Json::Obj(entries) => {
                if let Some(slot) = entries.iter_mut().find(|(k, _)| *k == key) {
                    slot.1 = value;
                } else {
                    entries.push((key, value));
                }
                self
            }
            // lint:allow(no-panic): documented builder contract — set() on a
            // non-object is a programming error in our own code, never
            // reachable from parsed (untrusted) input.
            other => panic!("Json::set on non-object {other:?}"),
        }
    }

    /// Builder-style insert that consumes and returns `self`.
    pub fn with(mut self, key: impl Into<String>, value: Json) -> Json {
        self.set(key, value);
        self
    }

    /// Object field lookup (last duplicate wins).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array index lookup.
    pub fn at(&self, index: usize) -> Option<&Json> {
        match self {
            Json::Arr(items) => items.get(index),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The numeric payload as `i64`, if this is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) => n.as_i64(),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object entries, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(entries) => Some(entries),
            _ => None,
        }
    }

    /// RFC 6901 JSON-pointer lookup, e.g. `"/log/entries/0/request"`.
    /// The empty pointer returns `self`. `~0`/`~1` escapes are honored.
    pub fn pointer(&self, pointer: &str) -> Option<&Json> {
        if pointer.is_empty() {
            return Some(self);
        }
        if !pointer.starts_with('/') {
            return None;
        }
        let mut current = self;
        for raw in pointer.get(1..)?.split('/') {
            let token = raw.replace("~1", "/").replace("~0", "~");
            current = match current {
                Json::Obj(_) => current.get(&token)?,
                Json::Arr(items) => {
                    // Leading zeros are invalid per RFC 6901 (except "0").
                    if token.len() > 1 && token.starts_with('0') {
                        return None;
                    }
                    let idx: usize = token.parse().ok()?;
                    items.get(idx)?
                }
                _ => return None,
            };
        }
        Some(current)
    }

    /// Total number of values in the tree, counting `self`.
    pub fn node_count(&self) -> usize {
        match self {
            Json::Arr(items) => 1 + items.iter().map(Json::node_count).sum::<usize>(),
            Json::Obj(entries) => 1 + entries.iter().map(|(_, v)| v.node_count()).sum::<usize>(),
            _ => 1,
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::int(i)
    }
}

impl From<f64> for Json {
    fn from(f: f64) -> Json {
        Json::float(f)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::str(s)
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_lookup() {
        let v = Json::obj()
            .with("name", Json::str("alice"))
            .with("age", Json::int(12))
            .with("tags", Json::from(vec!["a", "b"]));
        assert_eq!(v.get("name").and_then(Json::as_str), Some("alice"));
        assert_eq!(v.get("age").and_then(Json::as_i64), Some(12));
        assert_eq!(
            v.get("tags").and_then(|t| t.at(1)).and_then(Json::as_str),
            Some("b")
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn set_replaces_existing_key() {
        let mut v = Json::obj().with("k", Json::int(1));
        v.set("k", Json::int(2));
        assert_eq!(v.get("k").and_then(Json::as_i64), Some(2));
        assert_eq!(v.as_obj().unwrap().len(), 1);
    }

    #[test]
    fn pointer_lookup() {
        let v = Json::obj().with(
            "log",
            Json::obj().with(
                "entries",
                Json::Arr(vec![Json::obj().with("ok", Json::Bool(true))]),
            ),
        );
        assert_eq!(
            v.pointer("/log/entries/0/ok").and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(v.pointer(""), Some(&v));
        assert_eq!(v.pointer("/log/entries/7"), None);
        assert_eq!(v.pointer("log"), None, "pointer must start with /");
    }

    #[test]
    fn pointer_escapes() {
        let v = Json::obj()
            .with("a/b", Json::int(1))
            .with("m~n", Json::int(2));
        assert_eq!(v.pointer("/a~1b").and_then(Json::as_i64), Some(1));
        assert_eq!(v.pointer("/m~0n").and_then(Json::as_i64), Some(2));
    }

    #[test]
    fn pointer_rejects_leading_zero_indices() {
        let v = Json::Arr(vec![Json::int(0), Json::int(1)]);
        assert_eq!(v.pointer("/01"), None);
        assert_eq!(v.pointer("/0").and_then(Json::as_i64), Some(0));
    }

    #[test]
    fn node_count_counts_everything() {
        let v = Json::obj().with("a", Json::Arr(vec![Json::int(1), Json::int(2)]));
        // obj + arr + 2 ints
        assert_eq!(v.node_count(), 4);
    }
}
