//! HAR 1.2 (HTTP Archive) serialization and parsing.
//!
//! Chrome DevTools (the paper's website capture path) and Proxyman (the
//! desktop path) both export HAR; DiffAudit's post-processing converts those
//! files to JSON and extracts outgoing requests. This module produces and
//! consumes the same structure: `log.entries[]` with `request`, `response`,
//! `timings`, ISO-8601 `startedDateTime`, and base64 `postData`/`content`
//! encoding for non-UTF-8 bodies.

use crate::http::{Exchange, HeaderMap, HttpRequest, HttpResponse, Method};
use diffaudit_domains::Url;
use diffaudit_json::{parse, Json};
use diffaudit_util::base64;

/// HAR parsing errors.
#[derive(Debug, Clone, PartialEq)]
pub enum HarError {
    /// The document was not valid JSON.
    Json(String),
    /// A required field was missing or of the wrong type.
    Shape {
        /// JSON-pointer-ish path to the problem.
        path: String,
        /// What was expected there.
        expected: &'static str,
    },
    /// A URL failed to parse.
    BadUrl(String),
    /// An unknown HTTP method.
    BadMethod(String),
    /// A timestamp was malformed.
    BadTimestamp(String),
    /// The parse was cut short by a deadline or cancellation.
    Interrupted(diffaudit_util::cancel::Interrupt),
}

impl std::fmt::Display for HarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarError::Json(e) => write!(f, "HAR is not valid JSON: {e}"),
            HarError::Shape { path, expected } => {
                write!(f, "HAR shape error at {path}: expected {expected}")
            }
            HarError::BadUrl(u) => write!(f, "HAR contains unparseable URL {u:?}"),
            HarError::BadMethod(m) => write!(f, "HAR contains unknown method {m:?}"),
            HarError::BadTimestamp(t) => write!(f, "HAR contains bad timestamp {t:?}"),
            HarError::Interrupted(i) => write!(f, "{i}"),
        }
    }
}

impl std::error::Error for HarError {}

// --- civil-time conversion (Howard Hinnant's algorithms) ---

/// Days since 1970-01-01 for a civil date.
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = (m as i64 + 9) % 12;
    let doy = (153 * mp + 2) / 5 + d as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

/// Civil date for days since 1970-01-01.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Milliseconds since epoch → `2023-10-05T14:30:00.123Z`.
pub fn iso8601_from_ms(ms: u64) -> String {
    let secs = (ms / 1000) as i64;
    let millis = ms % 1000;
    let days = secs.div_euclid(86_400);
    let sod = secs.rem_euclid(86_400);
    let (y, mo, d) = civil_from_days(days);
    format!(
        "{y:04}-{mo:02}-{d:02}T{:02}:{:02}:{:02}.{millis:03}Z",
        sod / 3600,
        (sod % 3600) / 60,
        sod % 60
    )
}

/// The field of `s` at `range` read as a decimal number, or `None` unless
/// every byte in it is an ASCII digit (no sign, no space, no short field).
fn digit_field(s: &str, range: std::ops::Range<usize>) -> Option<u32> {
    s.as_bytes().get(range)?.iter().try_fold(0u32, |acc, &b| {
        b.is_ascii_digit().then(|| acc * 10 + u32::from(b - b'0'))
    })
}

/// `2023-10-05T14:30:00.123Z` → milliseconds since epoch. The fraction is
/// optional but, after a `.`, must hold at least one digit; digits past
/// the third are ignored.
pub fn ms_from_iso8601(s: &str) -> Option<u64> {
    let bytes = s.as_bytes();
    if bytes.len() < 20
        || bytes.get(4) != Some(&b'-')
        || bytes.get(7) != Some(&b'-')
        || bytes.get(10) != Some(&b'T')
        || bytes.get(13) != Some(&b':')
        || bytes.get(16) != Some(&b':')
    {
        return None;
    }
    let year = digit_field(s, 0..4)?;
    let month = digit_field(s, 5..7)?;
    let day = digit_field(s, 8..10)?;
    let hour = digit_field(s, 11..13)?;
    let minute = digit_field(s, 14..16)?;
    let second = digit_field(s, 17..19)?;
    if !(1..=12).contains(&month)
        || !(1..=31).contains(&day)
        || hour > 23
        || minute > 59
        || second > 59
    {
        return None;
    }
    let mut millis: u64 = 0;
    let rest = s.get(19..)?;
    let rest = if let Some(frac) = rest.strip_prefix('.') {
        let digits = frac.bytes().take_while(u8::is_ascii_digit).count();
        if digits == 0 {
            return None;
        }
        let kept = digits.min(3);
        // "5" is 500 ms and "05" is 50 ms.
        millis = u64::from(digit_field(frac, 0..kept)?) * 10u64.pow(3 - kept as u32);
        frac.get(digits..)?
    } else {
        rest
    };
    if rest != "Z" {
        return None; // only UTC produced/consumed
    }
    let days = days_from_civil(i64::from(year), month, day);
    let secs = days * 86_400 + i64::from(hour * 3600 + minute * 60 + second);
    if secs < 0 {
        return None;
    }
    Some(secs as u64 * 1000 + millis)
}

fn headers_to_json(headers: &HeaderMap) -> Json {
    Json::Arr(
        headers
            .iter()
            .map(|(n, v)| {
                Json::obj()
                    .with("name", Json::str(n))
                    .with("value", Json::str(v))
            })
            .collect(),
    )
}

fn body_to_json(kind: &str, mime: &str, body: &[u8]) -> Json {
    let mut obj = Json::obj().with("mimeType", Json::str(mime));
    if kind == "content" {
        obj.set("size", Json::int(body.len() as i64));
    }
    match std::str::from_utf8(body) {
        Ok(text) => {
            obj.set("text", Json::str(text));
        }
        Err(_) => {
            obj.set("text", Json::str(base64::encode(body)));
            obj.set("encoding", Json::str("base64"));
        }
    }
    obj
}

/// Serialize exchanges to a HAR 1.2 document.
pub fn har_from_exchanges(exchanges: &[Exchange]) -> Json {
    let entries: Vec<Json> = exchanges
        .iter()
        .map(|ex| {
            let req = &ex.request;
            let query_string = Json::Arr(
                req.url
                    .query_pairs()
                    .into_iter()
                    .map(|(n, v)| {
                        Json::obj()
                            .with("name", Json::str(n))
                            .with("value", Json::str(v))
                    })
                    .collect(),
            );
            let cookies = Json::Arr(
                req.cookies()
                    .into_iter()
                    .map(|(n, v)| {
                        Json::obj()
                            .with("name", Json::str(n))
                            .with("value", Json::str(v))
                    })
                    .collect(),
            );
            let mut request = Json::obj()
                .with("method", Json::str(req.method.as_str()))
                .with("url", Json::str(req.url.to_url_string()))
                .with("httpVersion", Json::str("HTTP/1.1"))
                .with("headers", headers_to_json(&req.headers))
                .with("queryString", query_string)
                .with("cookies", cookies)
                .with("headersSize", Json::int(-1))
                .with("bodySize", Json::int(req.body.len() as i64));
            if !req.body.is_empty() {
                let mime = req.content_type().unwrap_or("application/octet-stream");
                request.set("postData", body_to_json("postData", mime, &req.body));
            }
            let resp = &ex.response;
            let response = Json::obj()
                .with("status", Json::int(resp.status as i64))
                .with("statusText", Json::str(resp.reason()))
                .with("httpVersion", Json::str("HTTP/1.1"))
                .with("headers", headers_to_json(&resp.headers))
                .with("cookies", Json::Arr(vec![]))
                .with(
                    "content",
                    body_to_json(
                        "content",
                        resp.headers
                            .get("content-type")
                            .unwrap_or("application/octet-stream"),
                        &resp.body,
                    ),
                )
                .with("redirectURL", Json::str(""))
                .with("headersSize", Json::int(-1))
                .with("bodySize", Json::int(resp.body.len() as i64));
            Json::obj()
                .with(
                    "startedDateTime",
                    Json::str(iso8601_from_ms(ex.timestamp_ms)),
                )
                .with("time", Json::int(1))
                .with("request", request)
                .with("response", response)
                .with("cache", Json::obj())
                .with(
                    "timings",
                    Json::obj()
                        .with("send", Json::int(0))
                        .with("wait", Json::int(1))
                        .with("receive", Json::int(0)),
                )
        })
        .collect();
    Json::obj().with(
        "log",
        Json::obj()
            .with("version", Json::str("1.2"))
            .with(
                "creator",
                Json::obj()
                    .with("name", Json::str("diffaudit-nettrace"))
                    .with("version", Json::str(env!("CARGO_PKG_VERSION"))),
            )
            .with("entries", Json::Arr(entries)),
    )
}

fn shape_err(path: &str, expected: &'static str) -> HarError {
    HarError::Shape {
        path: path.to_string(),
        expected,
    }
}

fn json_headers(value: Option<&Json>, path: &str) -> Result<HeaderMap, HarError> {
    let Some(arr) = value.and_then(Json::as_arr) else {
        return Err(shape_err(path, "array of {name, value}"));
    };
    let mut headers = HeaderMap::new();
    for (i, entry) in arr.iter().enumerate() {
        let name = entry
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| shape_err(&format!("{path}/{i}/name"), "string"))?;
        let value = entry
            .get("value")
            .and_then(Json::as_str)
            .ok_or_else(|| shape_err(&format!("{path}/{i}/value"), "string"))?;
        headers.push(name, value);
    }
    Ok(headers)
}

fn json_body(obj: Option<&Json>) -> Vec<u8> {
    let Some(obj) = obj else {
        return Vec::new();
    };
    let text = obj.get("text").and_then(Json::as_str).unwrap_or("");
    if obj.get("encoding").and_then(Json::as_str) == Some("base64") {
        base64::decode(text).unwrap_or_default()
    } else {
        text.as_bytes().to_vec()
    }
}

/// Parse a HAR document (as text) back into exchanges.
pub fn har_to_exchanges(text: &str) -> Result<Vec<Exchange>, HarError> {
    let doc = parse(text).map_err(|e| HarError::Json(e.to_string()))?;
    har_json_to_exchanges(&doc)
}

/// Parse one `log.entries[]` element. `base` is the entry's JSON-pointer
/// prefix for error paths.
fn entry_to_exchange(entry: &Json, base: &str) -> Result<Exchange, HarError> {
    let started = entry
        .get("startedDateTime")
        .and_then(Json::as_str)
        .ok_or_else(|| shape_err(&format!("{base}/startedDateTime"), "string"))?;
    let timestamp_ms =
        ms_from_iso8601(started).ok_or_else(|| HarError::BadTimestamp(started.to_string()))?;
    let request = entry
        .get("request")
        .ok_or_else(|| shape_err(&format!("{base}/request"), "object"))?;
    let method_str = request
        .get("method")
        .and_then(Json::as_str)
        .ok_or_else(|| shape_err(&format!("{base}/request/method"), "string"))?;
    let method = Method::parse(method_str).ok_or_else(|| HarError::BadMethod(method_str.into()))?;
    let url_str = request
        .get("url")
        .and_then(Json::as_str)
        .ok_or_else(|| shape_err(&format!("{base}/request/url"), "string"))?;
    let url = Url::parse(url_str).map_err(|_| HarError::BadUrl(url_str.into()))?;
    let headers = json_headers(request.get("headers"), &format!("{base}/request/headers"))?;
    let body = json_body(request.get("postData"));

    let response = entry
        .get("response")
        .ok_or_else(|| shape_err(&format!("{base}/response"), "object"))?;
    let status = response
        .get("status")
        .and_then(Json::as_i64)
        .ok_or_else(|| shape_err(&format!("{base}/response/status"), "integer"))?
        as u16;
    let resp_headers = json_headers(response.get("headers"), &format!("{base}/response/headers"))?;
    let resp_body = json_body(response.get("content"));

    Ok(Exchange {
        timestamp_ms,
        request: HttpRequest {
            method,
            url,
            headers,
            body,
        },
        response: HttpResponse {
            status,
            headers: resp_headers,
            body: resp_body,
        },
    })
}

/// Parse an already-parsed HAR JSON value into exchanges.
pub fn har_json_to_exchanges(doc: &Json) -> Result<Vec<Exchange>, HarError> {
    let entries = doc
        .pointer("/log/entries")
        .and_then(Json::as_arr)
        .ok_or_else(|| shape_err("/log/entries", "array"))?;
    let mut exchanges = Vec::with_capacity(entries.len());
    for (i, entry) in entries.iter().enumerate() {
        exchanges.push(entry_to_exchange(entry, &format!("/log/entries/{i}"))?);
    }
    Ok(exchanges)
}

/// Salvage parse: document-level failures (invalid JSON, no `log.entries`
/// array) are still errors, but each malformed entry is skipped and
/// accounted for in `log` (stage `HarEntry`, offset = entry index) instead
/// of aborting the whole document.
pub fn har_to_exchanges_salvage(
    text: &str,
    log: &mut crate::salvage::SalvageLog,
) -> Result<Vec<Exchange>, HarError> {
    har_to_exchanges_salvage_ctl(text, log, &diffaudit_util::cancel::Ctl::unbounded())
}

/// [`har_to_exchanges_salvage`] with a cancellation checkpoint per entry: a
/// tripped `ctl` returns [`HarError::Interrupted`] (partial salvage log
/// kept) so a pathological document is cut off at its deadline.
pub fn har_to_exchanges_salvage_ctl(
    text: &str,
    log: &mut crate::salvage::SalvageLog,
    ctl: &diffaudit_util::cancel::Ctl,
) -> Result<Vec<Exchange>, HarError> {
    use crate::salvage::Stage;
    let _span = diffaudit_obs::span("nettrace.decode.har");
    diffaudit_obs::add("nettrace.decode.har.bytes.in", text.len() as u64);
    diffaudit_obs::observe(
        "nettrace.capture.bytes",
        &diffaudit_obs::BYTE_BOUNDS,
        text.len() as u64,
    );
    let doc = parse(text).map_err(|e| HarError::Json(e.to_string()))?;
    let entries = doc
        .pointer("/log/entries")
        .and_then(Json::as_arr)
        .ok_or_else(|| shape_err("/log/entries", "array"))?;
    let mut exchanges = Vec::with_capacity(entries.len());
    for (i, entry) in entries.iter().enumerate() {
        ctl.check().map_err(HarError::Interrupted)?;
        match entry_to_exchange(entry, &format!("/log/entries/{i}")) {
            Ok(exchange) => {
                exchanges.push(exchange);
                log.ok(Stage::HarEntry);
            }
            Err(e) => log.dropped(Stage::HarEntry, e.to_string(), Some(i as u64)),
        }
    }
    diffaudit_obs::add("nettrace.har.entries", exchanges.len() as u64);
    diffaudit_obs::add(
        "nettrace.bytes.retained",
        exchanges.iter().map(Exchange::logical_bytes).sum(),
    );
    Ok(exchanges)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_exchange() -> Exchange {
        let mut req = HttpRequest::post(
            Url::parse("https://api.quizlet.com/events?sid=9&lang=en").unwrap(),
            "application/json",
            br#"{"event":"page_view","user_id":"u-77"}"#.to_vec(),
        );
        req.headers.push("User-Agent", "Mozilla/5.0 (sim)");
        req.headers.push("Cookie", "sid=abc; ads=1");
        Exchange {
            timestamp_ms: 1_696_516_200_123, // 2023-10-05T14:30:00.123Z
            request: req,
            response: HttpResponse::ok(),
        }
    }

    #[test]
    fn iso8601_round_trip() {
        for ms in [0u64, 1_000, 1_696_516_200_123, 4_102_444_799_999] {
            let s = iso8601_from_ms(ms);
            assert_eq!(ms_from_iso8601(&s), Some(ms), "failed for {s}");
        }
        assert_eq!(iso8601_from_ms(0), "1970-01-01T00:00:00.000Z");
        assert_eq!(
            iso8601_from_ms(1_696_516_200_123),
            "2023-10-05T14:30:00.123Z"
        );
    }

    #[test]
    fn iso8601_rejects_garbage() {
        assert_eq!(ms_from_iso8601("not a date"), None);
        assert_eq!(ms_from_iso8601("2023-13-05T14:30:00Z"), None);
        assert_eq!(ms_from_iso8601("2023-10-05T14:30:00+02:00"), None);
    }

    #[test]
    fn iso8601_fractions_pad_and_truncate_to_millis() {
        let base = 1_696_516_200_000;
        for (frac, millis) in [
            ("", 0),
            (".5", 500),
            (".05", 50),
            (".123", 123),
            (".1239", 123),
        ] {
            let s = format!("2023-10-05T14:30:00{frac}Z");
            assert_eq!(ms_from_iso8601(&s), Some(base + millis), "{s}");
        }
        assert_eq!(
            ms_from_iso8601("2023-10-05T23:59:59.999Z"),
            Some(1_696_550_399_999)
        );
    }

    #[test]
    fn iso8601_rejects_malformed_fields() {
        for bad in [
            // A separator other than ':' between the time fields.
            "2023-10-05T14-30:00.123Z",
            "2023-10-05T14:30-00.123Z",
            "2023-10-05T14 30 00.123Z",
            // A sign or a space where a digit belongs.
            "+023-10-05T14:30:00.123Z",
            "2023-+1-05T14:30:00.123Z",
            "2023-10-+5T14:30:00.123Z",
            "2023-10-05T+4:30:00.123Z",
            "2023-10-05T14:+0:00.123Z",
            "2023-10-05T14:30:+0.123Z",
            "2023-10-05T 4:30:00.123Z",
            "2023-10-05T14:30:00.+12Z",
            // Out-of-range time fields.
            "2023-10-05T24:00:00.000Z",
            "2023-10-05T14:60:00.000Z",
            "2023-10-05T14:30:60.000Z",
            // An empty fraction.
            "2023-10-05T14:30:00.Z",
        ] {
            assert_eq!(ms_from_iso8601(bad), None, "{bad}");
        }
    }

    #[test]
    fn har_round_trip() {
        let exchanges = vec![sample_exchange()];
        let har = har_from_exchanges(&exchanges);
        let text = har.to_pretty_string();
        let back = har_to_exchanges(&text).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].timestamp_ms, exchanges[0].timestamp_ms);
        assert_eq!(back[0].request.method, Method::Post);
        assert_eq!(
            back[0].request.url.to_url_string(),
            "https://api.quizlet.com/events?sid=9&lang=en"
        );
        assert_eq!(back[0].request.body, exchanges[0].request.body);
        assert_eq!(
            back[0].request.headers.get("user-agent"),
            Some("Mozilla/5.0 (sim)")
        );
        assert_eq!(back[0].response.status, 200);
    }

    #[test]
    fn har_structure_fields() {
        let har = har_from_exchanges(&[sample_exchange()]);
        assert_eq!(
            har.pointer("/log/version").and_then(Json::as_str),
            Some("1.2")
        );
        let qs = har
            .pointer("/log/entries/0/request/queryString")
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(qs.len(), 2);
        assert_eq!(qs[0].get("name").and_then(Json::as_str), Some("sid"));
        let cookies = har
            .pointer("/log/entries/0/request/cookies")
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(cookies.len(), 2);
    }

    #[test]
    fn binary_bodies_base64() {
        let mut ex = sample_exchange();
        ex.request.body = vec![0xFF, 0xFE, 0x00, 0x01];
        let har = har_from_exchanges(&[ex.clone()]);
        assert_eq!(
            har.pointer("/log/entries/0/request/postData/encoding")
                .and_then(Json::as_str),
            Some("base64")
        );
        let back = har_to_exchanges(&har.to_string()).unwrap();
        assert_eq!(back[0].request.body, ex.request.body);
    }

    #[test]
    fn shape_errors_are_located() {
        let err = har_to_exchanges(r#"{"log": {}}"#).unwrap_err();
        assert!(matches!(err, HarError::Shape { ref path, .. } if path == "/log/entries"));
        let err = har_to_exchanges(
            r#"{"log":{"entries":[{"startedDateTime":"1970-01-01T00:00:00Z","request":{"method":"BREW","url":"https://x.com/"},"response":{"status":200,"headers":[]}}]}}"#,
        );
        // BREW is rejected before headers are inspected.
        assert!(matches!(err, Err(HarError::BadMethod(_))), "{err:?}");
    }

    #[test]
    fn salvage_isolates_malformed_entries() {
        let text = r#"{"log":{"entries":[
            {"startedDateTime":"1970-01-01T00:00:01.000Z",
             "request":{"method":"GET","url":"https://good.example.com/a","headers":[]},
             "response":{"status":200,"headers":[]}},
            {"startedDateTime":"1970-01-01T00:00:02.000Z",
             "request":{"method":"BREW","url":"https://bad.example.com/b","headers":[]},
             "response":{"status":200,"headers":[]}},
            {"startedDateTime":"1970-01-01T00:00:03.000Z",
             "request":{"method":"POST","url":"https://also-good.example.com/c","headers":[]},
             "response":{"status":204,"headers":[]}}
        ]}}"#;
        assert!(har_to_exchanges(text).is_err(), "strict mode must abort");
        let mut log = crate::salvage::SalvageLog::new();
        let exchanges = har_to_exchanges_salvage(text, &mut log).unwrap();
        assert_eq!(exchanges.len(), 2);
        assert_eq!(exchanges[1].response.status, 204);
        let counts = log.stage(crate::salvage::Stage::HarEntry);
        assert_eq!((counts.processed, counts.dropped), (2, 1));
        assert_eq!(log.drops()[0].offset, Some(1));
        assert!(log.conserved());
    }

    #[test]
    fn salvage_still_errors_on_document_damage() {
        let mut log = crate::salvage::SalvageLog::new();
        assert!(matches!(
            har_to_exchanges_salvage("{not json", &mut log),
            Err(HarError::Json(_))
        ));
        assert!(matches!(
            har_to_exchanges_salvage(r#"{"log":{}}"#, &mut log),
            Err(HarError::Shape { .. })
        ));
    }

    #[test]
    fn salvage_matches_strict_on_clean_document() {
        let har = har_from_exchanges(&[sample_exchange()]);
        let text = har.to_pretty_string();
        let strict = har_to_exchanges(&text).unwrap();
        let mut log = crate::salvage::SalvageLog::new();
        let salvaged = har_to_exchanges_salvage(&text, &mut log).unwrap();
        assert_eq!(strict, salvaged);
        assert!(log.is_clean());
    }

    #[test]
    fn civil_date_inverses() {
        for days in [-719_468i64, -1, 0, 1, 19_655, 100_000] {
            let (y, m, d) = civil_from_days(days);
            assert_eq!(days_from_civil(y, m, d), days);
        }
    }
}
