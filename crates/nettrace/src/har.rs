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
use diffaudit_json::{Cursor, Json, JsonError, Kind};
use diffaudit_obs::LocalRecorder;
use diffaudit_util::base64;
use std::borrow::Cow;

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

/// A `headers` member that is not an array of `{name, value}` strings: not
/// an array at all, or the first element (by index) whose `name` or `value`
/// is missing or not a string.
enum HeaderFault {
    NotArray,
    Element(usize, &'static str),
}

impl HeaderFault {
    fn at(self, path: &str) -> HarError {
        match self {
            HeaderFault::NotArray => shape_err(path, "array of {name, value}"),
            HeaderFault::Element(i, field) => shape_err(&format!("{path}/{i}/{field}"), "string"),
        }
    }
}

/// A `postData` or `content` member: its `text` when that is a string, and
/// whether its `encoding` is `"base64"`.
#[derive(Default)]
struct Body<'a> {
    text: Option<Cow<'a, str>>,
    base64: bool,
}

impl Body<'_> {
    /// The body bytes. Text the reader had to unescape is moved in, and
    /// text borrowed from the document is copied once; text that fails to
    /// decode as base64 gives an empty body.
    fn into_bytes(self) -> Vec<u8> {
        let text = self.text.unwrap_or_default();
        if self.base64 {
            base64::decode(&text).unwrap_or_default()
        } else {
            text.into_owned().into_bytes()
        }
    }
}

/// The members of a `request` or `response` an [`Exchange`] is built from.
/// A member that is missing or of the wrong type reads as `None`; a
/// non-object message has every member missing.
struct Message<'a> {
    method: Option<Cow<'a, str>>,
    url: Option<Cow<'a, str>>,
    status: Option<i64>,
    headers: Result<HeaderMap, HeaderFault>,
    /// `postData` of a request, `content` of a response.
    body: Body<'a>,
}

impl Default for Message<'_> {
    fn default() -> Self {
        Message {
            method: None,
            url: None,
            status: None,
            headers: Err(HeaderFault::NotArray),
            body: Body::default(),
        }
    }
}

/// One `log.entries[]` element reduced to what an [`Exchange`] needs. A
/// duplicated member reads as its last occurrence, as [`Json::get`] does.
#[derive(Default)]
struct EntryFields<'a> {
    started: Option<Cow<'a, str>>,
    request: Option<Message<'a>>,
    response: Option<Message<'a>>,
}

/// Which message a member belongs to, and so which member holds its body.
#[derive(Clone, Copy, PartialEq)]
enum Side {
    Request,
    Response,
}

impl Side {
    fn body_key(self) -> &'static str {
        match self {
            Side::Request => "postData",
            Side::Response => "content",
        }
    }
}

impl<'a> EntryFields<'a> {
    fn from_json(entry: &'a Json) -> EntryFields<'a> {
        EntryFields {
            started: entry
                .get("startedDateTime")
                .and_then(Json::as_str)
                .map(Cow::Borrowed),
            request: entry
                .get("request")
                .map(|m| Message::from_json(m, Side::Request)),
            response: entry
                .get("response")
                .map(|m| Message::from_json(m, Side::Response)),
        }
    }

    /// Read the entry at the cursor, stepping over every member it does
    /// not need.
    fn read(c: &mut Cursor<'a>) -> Result<EntryFields<'a>, JsonError> {
        let mut fields = EntryFields::default();
        if c.peek()? != Kind::Object {
            c.skip()?;
            return Ok(fields);
        }
        c.begin_object()?;
        while let Some(key) = c.next_key()? {
            match &*key {
                "startedDateTime" => fields.started = read_str(c)?,
                "request" => fields.request = Some(Message::read(c, Side::Request)?),
                "response" => fields.response = Some(Message::read(c, Side::Response)?),
                _ => c.skip()?,
            }
        }
        Ok(fields)
    }

    /// Check the fields in a fixed order and build the exchange; the first
    /// failed check names the problem. `index` is the entry's position in
    /// `log.entries`, for error paths.
    fn into_exchange(self, index: usize) -> Result<Exchange, HarError> {
        let base = || format!("/log/entries/{index}");
        let started = self
            .started
            .ok_or_else(|| shape_err(&format!("{}/startedDateTime", base()), "string"))?;
        let timestamp_ms = ms_from_iso8601(&started)
            .ok_or_else(|| HarError::BadTimestamp(started.into_owned()))?;
        let request = self
            .request
            .ok_or_else(|| shape_err(&format!("{}/request", base()), "object"))?;
        let method_str = request
            .method
            .ok_or_else(|| shape_err(&format!("{}/request/method", base()), "string"))?;
        let method =
            Method::parse(&method_str).ok_or_else(|| HarError::BadMethod(method_str.into()))?;
        let url_str = request
            .url
            .ok_or_else(|| shape_err(&format!("{}/request/url", base()), "string"))?;
        let url = Url::parse(&url_str).map_err(|_| HarError::BadUrl(url_str.into()))?;
        let headers = request
            .headers
            .map_err(|f| f.at(&format!("{}/request/headers", base())))?;
        let body = request.body.into_bytes();

        let response = self
            .response
            .ok_or_else(|| shape_err(&format!("{}/response", base()), "object"))?;
        let status = response
            .status
            .ok_or_else(|| shape_err(&format!("{}/response/status", base()), "integer"))?
            as u16;
        let resp_headers = response
            .headers
            .map_err(|f| f.at(&format!("{}/response/headers", base())))?;
        let resp_body = response.body.into_bytes();

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
}

impl<'a> Message<'a> {
    fn from_json(message: &'a Json, side: Side) -> Message<'a> {
        let string = |key| message.get(key).and_then(Json::as_str).map(Cow::Borrowed);
        let body = message
            .get(side.body_key())
            .map_or_else(Body::default, |b| Body {
                text: b.get("text").and_then(Json::as_str).map(Cow::Borrowed),
                base64: b.get("encoding").and_then(Json::as_str) == Some("base64"),
            });
        Message {
            method: string("method"),
            url: string("url"),
            status: message.get("status").and_then(Json::as_i64),
            headers: headers_from_json(message.get("headers")),
            body,
        }
    }

    fn read(c: &mut Cursor<'a>, side: Side) -> Result<Message<'a>, JsonError> {
        let mut message = Message::default();
        if c.peek()? != Kind::Object {
            c.skip()?;
            return Ok(message);
        }
        c.begin_object()?;
        while let Some(key) = c.next_key()? {
            match (&*key, side) {
                ("headers", _) => message.headers = read_headers(c)?,
                ("method", Side::Request) => message.method = read_str(c)?,
                ("url", Side::Request) => message.url = read_str(c)?,
                ("status", Side::Response) => message.status = read_int(c)?,
                (key, _) if key == side.body_key() => message.body = read_body(c)?,
                _ => c.skip()?,
            }
        }
        Ok(message)
    }
}

fn headers_from_json(value: Option<&Json>) -> Result<HeaderMap, HeaderFault> {
    let arr = value.and_then(Json::as_arr).ok_or(HeaderFault::NotArray)?;
    let mut headers = HeaderMap::new();
    for (i, entry) in arr.iter().enumerate() {
        let field = |key| entry.get(key).and_then(Json::as_str);
        let name = field("name").ok_or(HeaderFault::Element(i, "name"))?;
        let value = field("value").ok_or(HeaderFault::Element(i, "value"))?;
        headers.push(name, value);
    }
    Ok(headers)
}

/// The string at the cursor, or `None` after stepping over a non-string.
fn read_str<'a>(c: &mut Cursor<'a>) -> Result<Option<Cow<'a, str>>, JsonError> {
    if c.peek()? == Kind::String {
        c.string().map(Some)
    } else {
        c.skip().map(|()| None)
    }
}

/// The integer at the cursor (as [`Json::as_i64`] reads it), or `None`.
fn read_int(c: &mut Cursor<'_>) -> Result<Option<i64>, JsonError> {
    if c.peek()? == Kind::Number {
        Ok(c.number()?.as_i64())
    } else {
        c.skip().map(|()| None)
    }
}

fn read_body<'a>(c: &mut Cursor<'a>) -> Result<Body<'a>, JsonError> {
    let mut body = Body::default();
    if c.peek()? != Kind::Object {
        c.skip()?;
        return Ok(body);
    }
    c.begin_object()?;
    while let Some(key) = c.next_key()? {
        match &*key {
            "text" => body.text = read_str(c)?,
            "encoding" => body.base64 = read_str(c)?.as_deref() == Some("base64"),
            _ => c.skip()?,
        }
    }
    Ok(body)
}

/// A `headers` member; elements after the first bad one are only checked
/// for syntax.
fn read_headers(c: &mut Cursor<'_>) -> Result<Result<HeaderMap, HeaderFault>, JsonError> {
    if c.peek()? != Kind::Array {
        c.skip()?;
        return Ok(Err(HeaderFault::NotArray));
    }
    c.begin_array()?;
    let mut headers = Ok(HeaderMap::new());
    let mut index = 0;
    while c.next_item()? {
        let (mut name, mut value) = (None, None);
        if c.peek()? == Kind::Object {
            c.begin_object()?;
            while let Some(key) = c.next_key()? {
                match &*key {
                    "name" => name = read_str(c)?,
                    "value" => value = read_str(c)?,
                    _ => c.skip()?,
                }
            }
        } else {
            c.skip()?;
        }
        if let Ok(map) = &mut headers {
            match (name, value) {
                (Some(name), Some(value)) => map.push(name, value),
                (None, _) => headers = Err(HeaderFault::Element(index, "name")),
                (_, None) => headers = Err(HeaderFault::Element(index, "value")),
            }
        }
        index += 1;
    }
    Ok(headers)
}

/// What the reader made of the `log.entries` array the document keeps: how
/// many of its exchanges went to the sink and their logical bytes, each
/// dropped entry's index and reason, in order, up to the entry at which
/// `ctl` tripped, if it did.
#[derive(Default)]
struct Entries {
    kept: usize,
    retained: u64,
    drops: Vec<(usize, HarError)>,
    interrupted: Option<diffaudit_util::cancel::Interrupt>,
}

/// Read a HAR document one entry at a time, handing each entry's exchange
/// to `sink` as soon as it is read. The whole document is checked before
/// anything is returned, so a syntax error anywhere (or a missing
/// `log.entries` array) fails the document however many entries read well.
/// Duplicated `log` and `entries` members read as their last occurrence:
/// the document keeps the last array the reader met, so its exchanges are
/// the last `Entries::kept` ones `sink` received.
fn read_har(
    text: &str,
    ctl: &diffaudit_util::cancel::Ctl,
    sink: &mut dyn FnMut(Exchange),
) -> Result<Entries, HarError> {
    let json = |e: JsonError| HarError::Json(e.to_string());
    let mut c = Cursor::new(text);
    let mut entries = None;
    if c.peek().map_err(json)? == Kind::Object {
        c.begin_object().map_err(json)?;
        while let Some(key) = c.next_key().map_err(json)? {
            if key == "log" {
                entries = read_log(&mut c, ctl, sink).map_err(json)?;
            } else {
                c.skip().map_err(json)?;
            }
        }
    } else {
        c.skip().map_err(json)?;
    }
    c.end().map_err(json)?;
    entries.ok_or_else(|| shape_err("/log/entries", "array"))
}

/// The `log` object's `entries`, or `None` when `log` is not an object or
/// its last `entries` member is not an array.
fn read_log(
    c: &mut Cursor<'_>,
    ctl: &diffaudit_util::cancel::Ctl,
    sink: &mut dyn FnMut(Exchange),
) -> Result<Option<Entries>, JsonError> {
    if c.peek()? != Kind::Object {
        c.skip()?;
        return Ok(None);
    }
    c.begin_object()?;
    let mut entries = None;
    while let Some(key) = c.next_key()? {
        if key != "entries" {
            c.skip()?;
        } else if c.peek()? == Kind::Array {
            entries = Some(read_entries(c, ctl, sink)?);
        } else {
            c.skip()?;
            entries = None;
        }
    }
    Ok(entries)
}

/// Read the `entries` array into `sink`, checking `ctl` before each entry.
/// Once it trips, the rest of the array is only checked for syntax.
fn read_entries(
    c: &mut Cursor<'_>,
    ctl: &diffaudit_util::cancel::Ctl,
    sink: &mut dyn FnMut(Exchange),
) -> Result<Entries, JsonError> {
    let mut entries = Entries::default();
    c.begin_array()?;
    let mut index = 0;
    while c.next_item()? {
        if entries.interrupted.is_none() {
            entries.interrupted = ctl.check().err();
        }
        if entries.interrupted.is_some() {
            c.skip()?;
        } else {
            match EntryFields::read(c)?.into_exchange(index) {
                Ok(exchange) => {
                    entries.kept += 1;
                    entries.retained += exchange.logical_bytes();
                    sink(exchange);
                }
                Err(e) => entries.drops.push((index, e)),
            }
        }
        index += 1;
    }
    Ok(entries)
}

/// Parse a HAR document (as text) back into exchanges.
pub fn har_to_exchanges(text: &str) -> Result<Vec<Exchange>, HarError> {
    let mut exchanges = Vec::new();
    let entries = read_har(
        text,
        &diffaudit_util::cancel::Ctl::unbounded(),
        &mut |exchange| exchanges.push(exchange),
    )?;
    match entries.drops.into_iter().next() {
        Some((_, e)) => Err(e),
        None => Ok(keep_last(exchanges, entries.kept)),
    }
}

/// The last `kept` of `exchanges`: what a document that repeats its `log`
/// or `entries` member keeps of everything its reader handed over.
fn keep_last(mut exchanges: Vec<Exchange>, kept: usize) -> Vec<Exchange> {
    exchanges.drain(..exchanges.len().saturating_sub(kept));
    exchanges
}

/// Parse an already-parsed HAR JSON value into exchanges.
pub fn har_json_to_exchanges(doc: &Json) -> Result<Vec<Exchange>, HarError> {
    let entries = doc
        .pointer("/log/entries")
        .and_then(Json::as_arr)
        .ok_or_else(|| shape_err("/log/entries", "array"))?;
    entries
        .iter()
        .enumerate()
        .map(|(i, entry)| EntryFields::from_json(entry).into_exchange(i))
        .collect()
}

/// Salvage parse: document-level failures (invalid JSON, no `log.entries`
/// array) are still errors, but each malformed entry is skipped and
/// accounted for in `log` (stage `HarEntry`, offset = entry index) instead
/// of aborting the whole document. The decode's span and counters go to a
/// throwaway recorder; [`har_to_exchanges_salvage_ctl`] keeps them. The
/// exchanges are collected from [`har_to_exchanges_salvage_ctl`]'s sink.
pub fn har_to_exchanges_salvage(
    text: &str,
    log: &mut crate::salvage::SalvageLog,
) -> Result<Vec<Exchange>, HarError> {
    let mut rec = LocalRecorder::new();
    let ctl = diffaudit_util::cancel::Ctl::unbounded();
    let mut exchanges = Vec::new();
    let kept = har_to_exchanges_salvage_ctl(text, log, &mut rec, &ctl, |exchange| {
        exchanges.push(exchange)
    })?;
    Ok(keep_last(exchanges, kept))
}

/// [`har_to_exchanges_salvage`] with a cancellation checkpoint per entry: a
/// tripped `ctl` returns [`HarError::Interrupted`] (partial salvage log
/// kept) so a pathological document is cut off at its deadline.
///
/// The document is read one entry at a time and only the members an
/// [`Exchange`] needs are decoded; each entry's exchange is handed to
/// `sink` as soon as it is read, so one entry is the only decoded payload
/// alive at once. `log` is written only once the whole document has been
/// checked, so a document-level error leaves it as it was, and the caller
/// discards whatever `sink` received. Returns how many exchanges the
/// document keeps: the last that many `sink` received. That is all of
/// them unless the document repeats its `log` or `entries` member, which
/// reads as its last occurrence. The span and counters go to `rec`, the
/// caller's per-worker recorder.
pub fn har_to_exchanges_salvage_ctl(
    text: &str,
    log: &mut crate::salvage::SalvageLog,
    rec: &mut LocalRecorder,
    ctl: &diffaudit_util::cancel::Ctl,
    mut sink: impl FnMut(Exchange),
) -> Result<usize, HarError> {
    use crate::salvage::Stage;
    rec.add("nettrace.decode.har.bytes.in", text.len() as u64);
    rec.observe(
        "nettrace.capture.bytes",
        &diffaudit_obs::BYTE_BOUNDS,
        text.len() as u64,
    );
    let entries = rec.time("nettrace.decode.har", |_| read_har(text, ctl, &mut sink))?;
    if entries.kept > 0 {
        log.ok_n(Stage::HarEntry, entries.kept as u64);
    }
    for (i, e) in entries.drops {
        log.dropped(Stage::HarEntry, e.to_string(), Some(i as u64));
    }
    if let Some(interrupt) = entries.interrupted {
        return Err(HarError::Interrupted(interrupt));
    }
    rec.add("nettrace.har.entries", entries.kept as u64);
    rec.add("nettrace.bytes.retained", entries.retained);
    Ok(entries.kept)
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
