//! A minimal HTTP/1.1 client for the daemon's API: one request per
//! connection (`Connection: close`, which is all the daemon speaks) and
//! `Content-Length` framed bodies.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Socket read/write timeout; a stalled daemon fails the request.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A parsed response.
#[derive(Debug, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body bytes, exactly `Content-Length` of them when declared.
    pub body: Vec<u8>,
}

/// Send one request to `addr` (`host:port`) and read the whole response.
pub fn request(addr: &str, method: &str, path: &str, body: &[u8]) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// Parse a complete response: status line, headers, then the body framed
/// by `Content-Length` (or running to the end when none is declared).
pub fn parse_response(raw: &[u8]) -> Result<Response, String> {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("no end of headers")?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| "headers are not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let mut parts = status_line.split_whitespace();
    if !parts.next().is_some_and(|v| v.starts_with("HTTP/1.")) {
        return Err(format!("bad status line {status_line:?}"));
    }
    let status = parts
        .next()
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status code in {status_line:?}"))?;
    let mut length = None;
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("header without colon: {line:?}"))?;
        if name.trim().eq_ignore_ascii_case("content-length") {
            let n = value.trim().parse::<usize>();
            length = Some(n.map_err(|_| format!("bad content-length {value:?}"))?);
        }
    }
    let rest = &raw[split + 4..];
    let body = match length {
        Some(n) if rest.len() < n => {
            return Err(format!("body truncated: {} of {n} bytes", rest.len()))
        }
        Some(n) => rest[..n].to_vec(),
        None => rest.to_vec(),
    };
    Ok(Response { status, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_json_response() {
        let raw = b"HTTP/1.1 202 Accepted\r\nContent-Type: application/json\r\ncontent-length: 15\r\nConnection: close\r\n\r\n{\"jobId\":\"j-1\"}";
        let r = parse_response(raw).expect("valid");
        assert_eq!(r.status, 202);
        assert_eq!(r.body, b"{\"jobId\":\"j-1\"}");
    }

    #[test]
    fn body_is_framed_by_content_length() {
        let r = parse_response(b"HTTP/1.1 409 Conflict\r\nContent-Length: 2\r\n\r\n{}trailing")
            .expect("valid");
        assert_eq!((r.status, r.body.as_slice()), (409, &b"{}"[..]));
        let r = parse_response(b"HTTP/1.0 200 OK\r\n\r\nto the end").expect("valid");
        assert_eq!(r.body, b"to the end");
    }

    #[test]
    fn malformed_responses_are_errors() {
        assert!(parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nshort").is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n").is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\nno colon here\r\n\r\n").is_err());
        assert!(parse_response(b"SPDY/3 200 OK\r\n\r\n").is_err());
        assert!(parse_response(b"HTTP/1.1 abc OK\r\n\r\n").is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n").is_err());
    }
}
