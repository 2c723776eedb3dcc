//! The HTTP request/response model shared by the HAR and PCAP paths.
//!
//! Only the HTTP/1.1 subset that appears in captured app/web traffic is
//! modeled: methods, ordered headers, cookies, bodies, and status codes.
//! Wire serialization/parsing lives here too because the PCAP path needs to
//! reconstruct requests from reassembled TCP byte streams.

use diffaudit_domains::Url;

/// HTTP request methods seen in traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Method {
    Get,
    Post,
    Put,
    Delete,
    Patch,
    Head,
    Options,
}

impl Method {
    /// Canonical uppercase name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
            Method::Patch => "PATCH",
            Method::Head => "HEAD",
            Method::Options => "OPTIONS",
        }
    }

    /// Parse from a wire token.
    pub fn parse(s: &str) -> Option<Method> {
        Some(match s {
            "GET" => Method::Get,
            "POST" => Method::Post,
            "PUT" => Method::Put,
            "DELETE" => Method::Delete,
            "PATCH" => Method::Patch,
            "HEAD" => Method::Head,
            "OPTIONS" => Method::Options,
            _ => return None,
        })
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An ordered, case-insensitive header collection. Order is preserved
/// because trace bytes must be reproducible.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeaderMap {
    entries: Vec<(String, String)>,
}

impl HeaderMap {
    /// Empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a header (duplicates allowed, as in HTTP).
    pub fn push(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.entries.push((name.into(), value.into()));
    }

    /// First value for `name`, case-insensitive.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// All values for `name`.
    pub fn get_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        self.entries
            .iter()
            .filter(move |(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Iterate all `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }

    /// Number of headers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no headers are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl FromIterator<(String, String)> for HeaderMap {
    fn from_iter<T: IntoIterator<Item = (String, String)>>(iter: T) -> Self {
        Self {
            entries: iter.into_iter().collect(),
        }
    }
}

/// An outgoing HTTP request.
#[derive(Debug, Clone, PartialEq)]
pub struct HttpRequest {
    /// Request method.
    pub method: Method,
    /// Absolute URL (scheme + host + path + query).
    pub url: Url,
    /// Request headers (never includes `Host`/`Content-Length`, which are
    /// synthesized at wire-serialization time).
    pub headers: HeaderMap,
    /// Request body bytes (empty for body-less methods).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// Construct a bodyless GET.
    pub fn get(url: Url) -> Self {
        Self {
            method: Method::Get,
            url,
            headers: HeaderMap::new(),
            body: Vec::new(),
        }
    }

    /// Construct a POST with a body and content type.
    pub fn post(url: Url, content_type: &str, body: Vec<u8>) -> Self {
        let mut headers = HeaderMap::new();
        headers.push("Content-Type", content_type);
        Self {
            method: Method::Post,
            url,
            headers,
            body,
        }
    }

    /// The declared content type, if any.
    pub fn content_type(&self) -> Option<&str> {
        self.headers.get("content-type")
    }

    /// Cookies from the `Cookie` header, parsed into pairs.
    pub fn cookies(&self) -> Vec<(String, String)> {
        self.cookie_pairs()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    /// The names of [`HttpRequest::cookies`], in order, borrowed from the
    /// header.
    pub fn cookie_names(&self) -> impl Iterator<Item = &str> {
        self.cookie_pairs().map(|(k, _)| k)
    }

    /// The `Cookie` header's `name=value` pairs, trimmed.
    fn cookie_pairs(&self) -> impl Iterator<Item = (&str, &str)> {
        self.headers
            .get("cookie")
            .into_iter()
            .flat_map(|raw| raw.split(';'))
            .filter_map(|kv| {
                let (k, v) = kv.trim().split_once('=')?;
                Some((k.trim(), v.trim()))
            })
    }

    /// Serialize to HTTP/1.1 wire format (origin-form request target).
    pub fn to_wire(&self) -> Vec<u8> {
        let mut target = self.url.path.clone();
        if let Some(q) = &self.url.query {
            target.push('?');
            target.push_str(q);
        }
        let mut out = format!("{} {} HTTP/1.1\r\n", self.method, target).into_bytes();
        out.extend_from_slice(format!("Host: {}\r\n", self.url.host).as_bytes());
        for (name, value) in self.headers.iter() {
            out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        if !self.body.is_empty() {
            out.extend_from_slice(format!("Content-Length: {}\r\n", self.body.len()).as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }

    /// Parse one request from the front of `data` (HTTP/1.1 wire format
    /// produced by [`to_wire`]). Returns the request and the number of bytes
    /// consumed, or `None` when `data` does not yet contain one complete
    /// request (the reassembler calls this incrementally).
    ///
    /// `scheme` tells the parser how to rebuild the absolute URL (`http` or
    /// `https` — known from the captured port).
    ///
    /// [`to_wire`]: HttpRequest::to_wire
    pub fn parse_wire(data: &[u8], scheme: &str) -> Option<(HttpRequest, usize)> {
        let header_end = find_subslice(data, b"\r\n\r\n")? + 4;
        let head = std::str::from_utf8(data.get(..header_end)?).ok()?;
        let mut lines = head.split("\r\n");
        let request_line = lines.next()?;
        let mut parts = request_line.split(' ');
        let method = Method::parse(parts.next()?)?;
        let target = parts.next()?;
        if parts.next()? != "HTTP/1.1" {
            return None;
        }
        let mut headers = HeaderMap::new();
        let mut host = None;
        let mut content_length = 0usize;
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (name, value) = line.split_once(':')?;
            let value = value.trim();
            if name.eq_ignore_ascii_case("host") {
                host = Some(value.to_string());
            } else if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().ok()?;
            } else {
                headers.push(name, value);
            }
        }
        let host = host?;
        let total = header_end.checked_add(content_length)?;
        if data.len() < total {
            return None; // body not fully arrived yet
        }
        let body = data.get(header_end..total)?.to_vec();
        let url = Url::parse(&format!("{scheme}://{host}{target}")).ok()?;
        Some((
            HttpRequest {
                method,
                url,
                headers,
                body,
            },
            total,
        ))
    }
}

/// An HTTP response (modeled minimally — DiffAudit analyzes *outgoing*
/// data, responses exist to complete exchanges and file formats).
#[derive(Debug, Clone, PartialEq)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Response headers.
    pub headers: HeaderMap,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// A `200 OK` with an empty JSON body.
    pub fn ok() -> Self {
        let mut headers = HeaderMap::new();
        headers.push("Content-Type", "application/json");
        Self {
            status: 200,
            headers,
            body: b"{}".to_vec(),
        }
    }

    /// Canonical reason phrase for the status code.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            201 => "Created",
            204 => "No Content",
            301 => "Moved Permanently",
            302 => "Found",
            304 => "Not Modified",
            400 => "Bad Request",
            401 => "Unauthorized",
            403 => "Forbidden",
            404 => "Not Found",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            _ => "Unknown",
        }
    }

    /// Parse one response from the front of `data`. Returns the response
    /// and bytes consumed, or `None` if incomplete. Counterpart of
    /// [`HttpRequest::parse_wire`] for the server→client stream.
    pub fn parse_wire(data: &[u8]) -> Option<(HttpResponse, usize)> {
        let header_end = find_subslice(data, b"\r\n\r\n")? + 4;
        let head = std::str::from_utf8(data.get(..header_end)?).ok()?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next()?;
        let mut parts = status_line.splitn(3, ' ');
        if parts.next()? != "HTTP/1.1" {
            return None;
        }
        let status: u16 = parts.next()?.parse().ok()?;
        let mut headers = HeaderMap::new();
        let mut content_length = 0usize;
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (name, value) = line.split_once(':')?;
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().ok()?;
            } else {
                headers.push(name, value);
            }
        }
        let total = header_end.checked_add(content_length)?;
        if data.len() < total {
            return None;
        }
        Some((
            HttpResponse {
                status,
                headers,
                body: data.get(header_end..total)?.to_vec(),
            },
            total,
        ))
    }

    /// Serialize to wire format.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut out = format!("HTTP/1.1 {} {}\r\n", self.status, self.reason()).into_bytes();
        for (name, value) in self.headers.iter() {
            out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        out.extend_from_slice(format!("Content-Length: {}\r\n\r\n", self.body.len()).as_bytes());
        out.extend_from_slice(&self.body);
        out
    }
}

/// A complete request/response exchange with a capture timestamp.
#[derive(Debug, Clone, PartialEq)]
pub struct Exchange {
    /// Milliseconds since the Unix epoch at request send time.
    pub timestamp_ms: u64,
    /// The outgoing request.
    pub request: HttpRequest,
    /// The response (always present in our captures; real HARs mark aborted
    /// entries, which we do not generate).
    pub response: HttpResponse,
}

impl Exchange {
    /// Logical payload size of the exchange: request and response bodies
    /// plus header names and values. This is the content measure the
    /// resource profiler's `*.bytes.retained` counters use — stable across
    /// wire framings (HAR vs pcap) and allocation-free to compute.
    pub fn logical_bytes(&self) -> u64 {
        let headers =
            |h: &HeaderMap| -> u64 { h.iter().map(|(n, v)| (n.len() + v.len()) as u64).sum() };
        self.request.body.len() as u64
            + self.response.body.len() as u64
            + headers(&self.request.headers)
            + headers(&self.response.headers)
    }
}

/// Find the first occurrence of `needle` in `haystack`.
pub(crate) fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() || haystack.len() < needle.len() {
        return None;
    }
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn header_map_case_insensitive() {
        let mut h = HeaderMap::new();
        h.push("Content-Type", "application/json");
        h.push("X-Multi", "a");
        h.push("x-multi", "b");
        assert_eq!(h.get("content-type"), Some("application/json"));
        assert_eq!(h.get_all("X-MULTI").collect::<Vec<_>>(), ["a", "b"]);
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn cookie_parsing() {
        let mut req = HttpRequest::get(url("https://example.com/"));
        req.headers
            .push("Cookie", "sid=abc123; theme=dark ; broken");
        assert_eq!(
            req.cookies(),
            vec![
                ("sid".to_string(), "abc123".to_string()),
                ("theme".to_string(), "dark".to_string())
            ]
        );
    }

    #[test]
    fn wire_round_trip_get() {
        let mut req = HttpRequest::get(url("https://api.example.com/v1/ping?x=1"));
        req.headers.push("User-Agent", "diffaudit/0.1");
        let wire = req.to_wire();
        let (parsed, consumed) = HttpRequest::parse_wire(&wire, "https").unwrap();
        assert_eq!(consumed, wire.len());
        assert_eq!(parsed.method, Method::Get);
        assert_eq!(
            parsed.url.to_url_string(),
            "https://api.example.com/v1/ping?x=1"
        );
        assert_eq!(parsed.headers.get("user-agent"), Some("diffaudit/0.1"));
        assert!(parsed.body.is_empty());
    }

    #[test]
    fn wire_round_trip_post_body() {
        let req = HttpRequest::post(
            url("https://t.example.com/collect"),
            "application/json",
            br#"{"device_id":"abc"}"#.to_vec(),
        );
        let wire = req.to_wire();
        let (parsed, consumed) = HttpRequest::parse_wire(&wire, "https").unwrap();
        assert_eq!(consumed, wire.len());
        assert_eq!(parsed.body, br#"{"device_id":"abc"}"#);
        assert_eq!(parsed.content_type(), Some("application/json"));
    }

    #[test]
    fn parse_wire_incomplete_returns_none() {
        let req = HttpRequest::post(
            url("https://t.example.com/c"),
            "application/json",
            vec![b'x'; 100],
        );
        let wire = req.to_wire();
        // Header not complete.
        assert!(HttpRequest::parse_wire(&wire[..20], "https").is_none());
        // Body truncated.
        assert!(HttpRequest::parse_wire(&wire[..wire.len() - 1], "https").is_none());
    }

    #[test]
    fn parse_wire_pipelined_requests() {
        let a = HttpRequest::get(url("https://example.com/a"));
        let b = HttpRequest::get(url("https://example.com/b"));
        let mut stream = a.to_wire();
        stream.extend_from_slice(&b.to_wire());
        let (first, n) = HttpRequest::parse_wire(&stream, "https").unwrap();
        assert_eq!(first.url.path, "/a");
        let (second, m) = HttpRequest::parse_wire(&stream[n..], "https").unwrap();
        assert_eq!(second.url.path, "/b");
        assert_eq!(n + m, stream.len());
    }

    #[test]
    fn response_wire_has_status_line() {
        let resp = HttpResponse::ok();
        let wire = resp.to_wire();
        assert!(wire.starts_with(b"HTTP/1.1 200 OK\r\n"));
        assert!(wire.ends_with(b"{}"));
    }

    #[test]
    fn find_subslice_edges() {
        assert_eq!(find_subslice(b"abcdef", b"cd"), Some(2));
        assert_eq!(find_subslice(b"abc", b"abcd"), None);
        assert_eq!(find_subslice(b"abc", b""), None);
    }
}
