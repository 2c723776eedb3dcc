//! A minimal, robust HTTP/1.1 server-side codec over std I/O.
//!
//! Only what the daemon needs: one request per connection
//! (`Connection: close`), `Content-Length` bodies, a bounded header
//! section, and a bounded body. Anything malformed maps to a typed error
//! the server renders as `400`/`413` — a bad client must never take the
//! accept loop down.
//!
//! The request body is treated as payload (it may be a raw capture full
//! of personal data): this module never logs or prints body bytes, only
//! lengths.

use diffaudit_domains::url::percent_decode;
use std::io::{Read, Write};

/// Cap on the request-line + header section.
const MAX_HEAD_BYTES: usize = 32 * 1024;

/// Decode errors, split by the HTTP status they map to.
#[derive(Debug)]
pub enum HttpError {
    /// Unparseable request (`400`).
    Malformed(String),
    /// Declared body exceeds the configured bound (`413`).
    TooLarge {
        /// The configured limit that was exceeded.
        limit: usize,
    },
    /// Transport failure mid-read (connection reset, timeout).
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(msg) => write!(f, "malformed request: {msg}"),
            HttpError::TooLarge { limit } => {
                write!(f, "request body exceeds {limit} bytes")
            }
            HttpError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// A parsed request: method, raw target (path + query), headers, body.
#[derive(Debug)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...).
    pub method: String,
    /// The raw request target, e.g. `/api/v1/traces?label=a.har`.
    pub target: String,
    /// Header name/value pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (may be raw capture payload — never log it).
    pub body: Vec<u8>,
}

impl Request {
    /// The target's path component (before `?`).
    pub fn path(&self) -> &str {
        match self.target.split_once('?') {
            Some((path, _)) => path,
            None => &self.target,
        }
    }

    /// First query parameter named `name`, percent-decoded.
    pub fn query_param(&self, name: &str) -> Option<String> {
        let (_, query) = self.target.split_once('?')?;
        for pair in query.split('&') {
            let (key, value) = match pair.split_once('=') {
                Some(kv) => kv,
                None => (pair, ""),
            };
            if key == name {
                return Some(percent_decode(value));
            }
        }
        None
    }

    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Read one request off `stream`. The header section is capped at
/// [`MAX_HEAD_BYTES`]; the body at `max_body`. The caller is expected to
/// have set a read timeout on the underlying socket so a stalled client
/// surfaces as [`HttpError::Io`] rather than a hung accept loop.
pub fn read_request<S: Read>(stream: &mut S, max_body: usize) -> Result<Request, HttpError> {
    let mut head = Vec::with_capacity(1024);
    let mut buf = [0u8; 4096];
    let split = loop {
        if let Some(pos) = find_header_end(&head) {
            break pos;
        }
        if head.len() > MAX_HEAD_BYTES {
            return Err(HttpError::Malformed("header section too large".into()));
        }
        let n = stream.read(&mut buf).map_err(HttpError::Io)?;
        if n == 0 {
            return Err(HttpError::Malformed(
                "connection closed before end of headers".into(),
            ));
        }
        head.extend_from_slice(buf.get(..n).unwrap_or_default());
    };

    let header_text = std::str::from_utf8(head.get(..split).unwrap_or_default())
        .map_err(|_| HttpError::Malformed("headers are not UTF-8".into()))?;
    let mut lines = header_text.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request".into()))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing method".into()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing request target".into()))?
        .to_string();
    match parts.next() {
        Some(version) if version.starts_with("HTTP/1.") => {}
        _ => return Err(HttpError::Malformed("expected HTTP/1.x version".into())),
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("header line without colon: {line:?}")))?;
        headers.push((name.trim().to_string(), value.trim().to_string()));
    }

    let content_length = match headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
    {
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed(format!("bad content-length {v:?}")))?,
        None => 0,
    };
    if content_length > max_body {
        return Err(HttpError::TooLarge { limit: max_body });
    }

    let mut body = head.get(split + 4..).unwrap_or_default().to_vec();
    if body.len() > content_length {
        return Err(HttpError::Malformed(
            "body longer than declared content-length".into(),
        ));
    }
    while body.len() < content_length {
        let n = stream.read(&mut buf).map_err(HttpError::Io)?;
        if n == 0 {
            return Err(HttpError::Malformed("connection closed mid-body".into()));
        }
        let want = content_length - body.len();
        if n > want {
            return Err(HttpError::Malformed(
                "body longer than declared content-length".into(),
            ));
        }
        body.extend_from_slice(buf.get(..n).unwrap_or_default());
    }

    Ok(Request {
        method,
        target,
        headers,
        body,
    })
}

/// Offset of the `\r\n\r\n` header terminator, if present.
fn find_header_end(head: &[u8]) -> Option<usize> {
    head.windows(4).position(|w| w == b"\r\n\r\n")
}

/// An outgoing response; always `Connection: close`.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response from a rendered document string.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into_bytes(),
        }
    }

    /// A Prometheus text-exposition response (`GET /metrics`).
    pub fn exposition(body: String) -> Response {
        Response {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            body: body.into_bytes(),
        }
    }

    /// A JSON `{"error": msg}` response.
    pub fn error(status: u16, msg: &str) -> Response {
        let doc = diffaudit_json::Json::obj().with("error", diffaudit_json::Json::str(msg));
        Response::json(status, doc.to_string())
    }

    /// Serialize onto the wire.
    pub fn write_to<W: Write>(&self, stream: &mut W) -> std::io::Result<()> {
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// Reason phrase for the status codes the daemon emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        206 => "Partial Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Content",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[u8]) -> Result<Request, HttpError> {
        let mut cursor = raw;
        read_request(&mut cursor, 1024)
    }

    #[test]
    fn parses_a_post_with_body() {
        let raw = b"POST /api/v1/traces?label=a.har HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        let req = parse(raw).expect("valid request");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path(), "/api/v1/traces");
        assert_eq!(req.query_param("label").as_deref(), Some("a.har"));
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn get_without_body_parses() {
        let req = parse(b"GET /healthz HTTP/1.1\r\n\r\n").expect("valid");
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
        assert!(req.query_param("missing").is_none());
    }

    #[test]
    fn garbage_is_malformed_not_a_panic() {
        assert!(matches!(
            parse(b"\x00\xff\xfe not http"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET / FTP/9\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_body_is_too_large() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 999999\r\n\r\n";
        assert!(matches!(
            parse(raw),
            Err(HttpError::TooLarge { limit: 1024 })
        ));
    }

    #[test]
    fn truncated_body_is_malformed() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort";
        assert!(matches!(parse(raw), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn percent_decoding_round_trips() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("plain"), "plain");
        assert_eq!(percent_decode("bad%zz"), "bad%zz");
    }

    #[test]
    fn query_params_decode_through_the_shared_url_decoder() {
        let raw = b"POST /api/v1/traces?label=%+5&kind=a%2Bb+c HTTP/1.1\r\n\r\n";
        let request = parse(raw).expect("parses");
        // `%+5` is no escape: its `%` stays, and `+` is a space as
        // everywhere else in a form-encoded value.
        assert_eq!(request.query_param("label").as_deref(), Some("% 5"));
        assert_eq!(request.query_param("kind").as_deref(), Some("a+b c"));
    }

    #[test]
    fn response_wire_format() {
        let mut out = Vec::new();
        Response::text(200, "hi".into())
            .write_to(&mut out)
            .expect("write");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.ends_with("\r\n\r\nhi"));
    }
}
