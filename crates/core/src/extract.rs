//! Raw data-type extraction from outgoing requests (paper §3.2.2).
//!
//! "We extract key-value pairs from the JSON-structured data, and the keys
//! serve as the raw data types." Beyond JSON bodies, real payloads also
//! carry data in URL query strings, `application/x-www-form-urlencoded`
//! bodies, and cookies — all of which the paper's HAR/PCAP post-processing
//! surfaces — so the extractor covers all four carriers and records which
//! one each pair came from.

use diffaudit_domains::url::{parse_query, query_keys};
use diffaudit_json::{flatten, parse, visit_keys_bytes};
use diffaudit_nettrace::HttpRequest;

/// Where a key/value pair was found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RawSource {
    /// JSON request body (including nested/stringified layers).
    JsonBody,
    /// Form-encoded request body.
    FormBody,
    /// URL query string.
    Query,
    /// `Cookie` header.
    Cookie,
}

impl RawSource {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            RawSource::JsonBody => "json-body",
            RawSource::FormBody => "form-body",
            RawSource::Query => "query",
            RawSource::Cookie => "cookie",
        }
    }
}

/// One extracted raw data type instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawEntry {
    /// The raw key (the data type to classify).
    pub key: String,
    /// The stringified value.
    pub value: String,
    /// Which carrier it came from.
    pub source: RawSource,
}

/// The carrier the request body holds, by `Content-Type`: JSON or form
/// encoding, or `None` for anything else.
fn body_source(request: &HttpRequest) -> Option<RawSource> {
    let content_type = request.content_type().unwrap_or("").to_ascii_lowercase();
    if content_type.contains("json") {
        Some(RawSource::JsonBody)
    } else if content_type.contains("x-www-form-urlencoded") {
        Some(RawSource::FormBody)
    } else {
        None
    }
}

/// Extract every key/value pair from one outgoing request.
///
/// Unparseable bodies are skipped silently: a binary or truncated body
/// yields no JSON entries but query/cookie extraction still proceeds (the
/// paper likewise analyzes whatever is recoverable).
pub fn extract_request(request: &HttpRequest) -> Vec<RawEntry> {
    let mut entries = Vec::new();

    // Query string.
    for (key, value) in request.url.query_pairs() {
        if !key.is_empty() {
            entries.push(RawEntry {
                key,
                value,
                source: RawSource::Query,
            });
        }
    }

    // Cookies.
    for (key, value) in request.cookies() {
        entries.push(RawEntry {
            key,
            value,
            source: RawSource::Cookie,
        });
    }

    // Body.
    let Some(source) = body_source(request) else {
        return entries;
    };
    let Ok(body) = std::str::from_utf8(&request.body) else {
        return entries;
    };
    if source == RawSource::JsonBody {
        if let Ok(doc) = parse(body) {
            for entry in flatten(&doc) {
                entries.push(RawEntry {
                    key: entry.key,
                    value: entry.value,
                    source,
                });
            }
        }
    } else {
        for (key, value) in parse_query(body) {
            if !key.is_empty() {
                entries.push(RawEntry { key, value, source });
            }
        }
    }
    entries
}

/// Visit the key of each entry [`extract_request`] returns, in the same
/// order, without copying a value: the audit keeps only keys (§3.2.2).
/// Only keys are percent-decoded, and a JSON body is walked by
/// [`visit_keys_bytes`] instead of being parsed into a tree.
pub fn visit_request_keys(request: &HttpRequest, mut visit: impl FnMut(&str)) {
    if let Some(query) = &request.url.query {
        visit_form_keys(query, &mut visit);
    }
    request.cookie_names().for_each(&mut visit);
    match body_source(request) {
        // A body that is not UTF-8 JSON has no JSON keys, and reports none.
        Some(RawSource::JsonBody) => visit_keys_bytes(&request.body, &mut visit).unwrap_or(()),
        Some(_) => {
            if let Ok(body) = std::str::from_utf8(&request.body) {
                visit_form_keys(body, &mut visit);
            }
        }
        None => {}
    }
}

/// The non-empty decoded keys of a form-encoded string.
fn visit_form_keys(text: &str, visit: &mut impl FnMut(&str)) {
    for key in query_keys(text) {
        if !key.is_empty() {
            visit(&key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffaudit_domains::Url;
    use diffaudit_nettrace::HttpRequest;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn json_body_extraction() {
        let req = HttpRequest::post(
            url("https://t.example.com/c"),
            "application/json",
            br#"{"device_id":"abc","nested":{"lat":33.6}}"#.to_vec(),
        );
        let entries = extract_request(&req);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].key, "device_id");
        assert_eq!(entries[0].source, RawSource::JsonBody);
        assert_eq!(entries[1].key, "lat");
        assert_eq!(entries[1].value, "33.6");
    }

    #[test]
    fn query_and_cookie_extraction() {
        let mut req = HttpRequest::get(url("https://t.example.com/p?uid=7&lang=en"));
        req.headers.push("Cookie", "sid=xyz; ads_opt=1");
        let entries = extract_request(&req);
        let keys: Vec<(&str, RawSource)> =
            entries.iter().map(|e| (e.key.as_str(), e.source)).collect();
        assert_eq!(
            keys,
            vec![
                ("uid", RawSource::Query),
                ("lang", RawSource::Query),
                ("sid", RawSource::Cookie),
                ("ads_opt", RawSource::Cookie),
            ]
        );
    }

    #[test]
    fn form_body_extraction() {
        let req = HttpRequest::post(
            url("https://t.example.com/f"),
            "application/x-www-form-urlencoded",
            b"email=a%40b.com&age=12".to_vec(),
        );
        let entries = extract_request(&req);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].source, RawSource::FormBody);
        assert_eq!(entries[0].value, "a@b.com");
    }

    #[test]
    fn stringified_json_inside_body() {
        let req = HttpRequest::post(
            url("https://t.example.com/c"),
            "application/json",
            br#"{"payload":"{\"idfa\":\"x-1\"}"}"#.to_vec(),
        );
        let entries = extract_request(&req);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].key, "idfa");
    }

    #[test]
    fn garbage_bodies_do_not_panic() {
        let req = HttpRequest::post(
            url("https://t.example.com/c?ok=1"),
            "application/json",
            vec![0xFF, 0xFE, 0x00],
        );
        let entries = extract_request(&req);
        assert_eq!(entries.len(), 1, "query still extracted");
        let req2 = HttpRequest::post(
            url("https://t.example.com/c"),
            "application/json",
            b"{truncated".to_vec(),
        );
        assert!(extract_request(&req2).is_empty());
    }

    fn keys_of(request: &HttpRequest) -> Vec<String> {
        let mut keys = Vec::new();
        visit_request_keys(request, |key| keys.push(key.to_string()));
        keys
    }

    #[test]
    fn keys_only_extraction_matches_entries() {
        let mut req = HttpRequest::post(
            url("https://t.example.com/c?uid=7&a%2Bb=1&=x&lang"),
            "Application/JSON; charset=utf-8",
            br#"{"device_id":"abc","p":"{\"idfa\":1}","n":{"lat":1.5},"":2}"#.to_vec(),
        );
        req.headers
            .push("Cookie", "sid=xyz; =empty; bare; ads_opt=1");
        let form = HttpRequest::post(
            url("https://t.example.com/f"),
            "application/x-www-form-urlencoded",
            b"e%6Dail=a%40b.com&&age=12&=3&flag".to_vec(),
        );
        for request in [req, form] {
            let entries: Vec<String> = extract_request(&request)
                .into_iter()
                .map(|e| e.key)
                .collect();
            assert_eq!(keys_of(&request), entries);
        }
    }

    /// Over every request of a small generated dataset (two services, HAR
    /// and pcap units), keys-only extraction yields `extract_request`'s
    /// keys.
    #[test]
    fn keys_only_extraction_matches_on_a_generated_dataset() {
        use diffaudit_nettrace::{
            decode_auto_salvage, har_to_exchanges_salvage, KeyLog, SalvageLog,
        };
        use diffaudit_services::{generate_dataset, DatasetOptions, MemoryArtifact};
        let dataset = generate_dataset(&DatasetOptions {
            seed: 5,
            volume_scale: 0.01,
            mobile_pinned_fraction: 0.1,
            services: vec!["quizlet".into(), "roblox".into()],
        });
        let mut requests = 0;
        let mut json_keys = 0;
        for artifact in dataset.services.iter().flat_map(|s| &s.artifacts) {
            let mut log = SalvageLog::new();
            let exchanges = match &*artifact.unit.artifact {
                MemoryArtifact::Har(har) => har_to_exchanges_salvage(har, &mut log).unwrap(),
                MemoryArtifact::Capture { bytes, keylog } => {
                    let keys = KeyLog::parse_salvage(keylog.as_deref().unwrap_or(""), &mut log);
                    decode_auto_salvage(bytes, &keys, &mut log)
                        .unwrap()
                        .exchanges
                }
            };
            for exchange in &exchanges {
                let entries = extract_request(&exchange.request);
                json_keys += entries
                    .iter()
                    .filter(|e| e.source == RawSource::JsonBody)
                    .count();
                let mut want: Vec<String> = entries.into_iter().map(|e| e.key).collect();
                let mut got = keys_of(&exchange.request);
                want.sort();
                want.dedup();
                got.sort();
                got.dedup();
                assert_eq!(got, want, "{}", exchange.request.url);
                requests += 1;
            }
        }
        assert!(
            requests > 1000 && json_keys > 4000,
            "{requests} requests, {json_keys} JSON keys"
        );
    }

    #[test]
    fn non_form_non_json_bodies_ignored() {
        let req = HttpRequest::post(
            url("https://t.example.com/u"),
            "application/octet-stream",
            vec![1, 2, 3],
        );
        assert!(extract_request(&req).is_empty());
    }
}
