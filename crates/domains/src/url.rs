//! A minimal URL parser for HTTP(S) traffic.
//!
//! Handles exactly the subset the pipeline needs — scheme, host, optional
//! port, path, query, fragment — plus percent-decoding and query-parameter
//! iteration for payload extraction. IPv6 literal hosts and userinfo are
//! intentionally rejected: neither appears in the traffic model, and a loud
//! error beats silent misparsing.

use crate::name::{DomainError, DomainName};
use std::borrow::Cow;

/// URL parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UrlError {
    /// No `://` separator found.
    MissingScheme,
    /// Scheme other than `http`/`https`/`ws`/`wss`.
    UnsupportedScheme(String),
    /// Host failed to validate as a domain name.
    BadHost(DomainError),
    /// Port was present but not a valid u16.
    BadPort(String),
    /// Userinfo (`user@host`) is unsupported.
    UserInfoUnsupported,
    /// IPv6 literal hosts are unsupported.
    Ipv6Unsupported,
}

impl std::fmt::Display for UrlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UrlError::MissingScheme => write!(f, "missing scheme"),
            UrlError::UnsupportedScheme(s) => write!(f, "unsupported scheme {s:?}"),
            UrlError::BadHost(e) => write!(f, "invalid host: {e}"),
            UrlError::BadPort(p) => write!(f, "invalid port {p:?}"),
            UrlError::UserInfoUnsupported => write!(f, "userinfo in URL unsupported"),
            UrlError::Ipv6Unsupported => write!(f, "IPv6 literal host unsupported"),
        }
    }
}

impl std::error::Error for UrlError {}

/// A parsed URL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Url {
    /// Lowercased scheme (`http`, `https`, `ws`, `wss`).
    pub scheme: String,
    /// Validated host.
    pub host: DomainName,
    /// Explicit port if present.
    pub port: Option<u16>,
    /// Path, always starting with `/` (defaults to `/`).
    pub path: String,
    /// Raw query string without the leading `?`, if present.
    pub query: Option<String>,
    /// Fragment without the leading `#`, if present.
    pub fragment: Option<String>,
}

impl Url {
    /// Parse an absolute URL.
    pub fn parse(input: &str) -> Result<Url, UrlError> {
        let (scheme, rest) = input.split_once("://").ok_or(UrlError::MissingScheme)?;
        let scheme = scheme.to_ascii_lowercase();
        if !matches!(scheme.as_str(), "http" | "https" | "ws" | "wss") {
            return Err(UrlError::UnsupportedScheme(scheme));
        }
        // Authority ends at the first '/', '?' or '#'.
        let authority_end = rest.find(['/', '?', '#']).unwrap_or(rest.len());
        let (authority, tail) = rest.split_at(authority_end);
        if authority.contains('@') {
            return Err(UrlError::UserInfoUnsupported);
        }
        if authority.starts_with('[') {
            return Err(UrlError::Ipv6Unsupported);
        }
        let (host_str, port) = match authority.rsplit_once(':') {
            Some((h, p)) => {
                let port: u16 = p.parse().map_err(|_| UrlError::BadPort(p.to_string()))?;
                (h, Some(port))
            }
            None => (authority, None),
        };
        let host = DomainName::parse(host_str).map_err(UrlError::BadHost)?;

        let (path_query, fragment) = match tail.split_once('#') {
            Some((pq, f)) => (pq, Some(f.to_string())),
            None => (tail, None),
        };
        let (path, query) = match path_query.split_once('?') {
            Some((p, q)) => (p, Some(q.to_string())),
            None => (path_query, None),
        };
        let path = if path.is_empty() {
            "/".to_string()
        } else {
            path.to_string()
        };
        Ok(Url {
            scheme,
            host,
            port,
            path,
            query,
            fragment,
        })
    }

    /// The effective port (explicit, or scheme default).
    pub fn effective_port(&self) -> u16 {
        self.port.unwrap_or(match self.scheme.as_str() {
            "https" | "wss" => 443,
            _ => 80,
        })
    }

    /// Iterate decoded `(key, value)` query parameters. Parameters without
    /// `=` yield an empty value; `+` decodes to space per
    /// `application/x-www-form-urlencoded`.
    pub fn query_pairs(&self) -> Vec<(String, String)> {
        match &self.query {
            None => Vec::new(),
            Some(q) => parse_query(q),
        }
    }

    /// Re-serialize.
    pub fn to_url_string(&self) -> String {
        let mut s = format!("{}://{}", self.scheme, self.host);
        if let Some(p) = self.port {
            s.push_str(&format!(":{p}"));
        }
        s.push_str(&self.path);
        if let Some(q) = &self.query {
            s.push('?');
            s.push_str(q);
        }
        if let Some(f) = &self.fragment {
            s.push('#');
            s.push_str(f);
        }
        s
    }
}

impl std::fmt::Display for Url {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_url_string())
    }
}

/// The `(key, value)` halves of each non-empty `&`-separated part of a
/// form-encoded string, still encoded; a part without `=` has an empty
/// value.
fn query_parts(q: &str) -> impl Iterator<Item = (&str, &str)> {
    q.split('&')
        .filter(|part| !part.is_empty())
        .map(|part| part.split_once('=').unwrap_or((part, "")))
}

/// Parse an `application/x-www-form-urlencoded` string into decoded pairs.
pub fn parse_query(q: &str) -> Vec<(String, String)> {
    query_parts(q)
        .map(|(k, v)| (percent_decode(k), percent_decode(v)))
        .collect()
}

/// The decoded keys of [`parse_query`]'s pairs, in the same order, without
/// touching the values. A key with nothing to decode is borrowed.
pub fn query_keys(q: &str) -> impl Iterator<Item = Cow<'_, str>> {
    query_parts(q).map(|(k, _)| {
        if k.contains(['+', '%']) {
            Cow::Owned(percent_decode(k))
        } else {
            Cow::Borrowed(k)
        }
    })
}

/// Percent-decode a form-encoded component (`+` → space, `%XX` → byte;
/// malformed escapes pass through verbatim; invalid UTF-8 is replaced).
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while let Some(&byte) = bytes.get(i) {
        match byte {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hex = bytes.get(i + 1..i + 3);
                match hex.and_then(|h| match *h {
                    [hi, lo] => {
                        let hi = (hi as char).to_digit(16)?;
                        let lo = (lo as char).to_digit(16)?;
                        Some((hi * 16 + lo) as u8)
                    }
                    _ => None,
                }) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Percent-encode a component for form encoding (space → `+`).
pub fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for &b in s.as_bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            b' ' => out.push('+'),
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_url() {
        let u = Url::parse("https://api.roblox.com:8443/v1/users?id=42&src=app#frag").unwrap();
        assert_eq!(u.scheme, "https");
        assert_eq!(u.host.as_str(), "api.roblox.com");
        assert_eq!(u.port, Some(8443));
        assert_eq!(u.path, "/v1/users");
        assert_eq!(u.query.as_deref(), Some("id=42&src=app"));
        assert_eq!(u.fragment.as_deref(), Some("frag"));
        assert_eq!(u.effective_port(), 8443);
    }

    #[test]
    fn defaults() {
        let u = Url::parse("http://example.com").unwrap();
        assert_eq!(u.path, "/");
        assert_eq!(u.effective_port(), 80);
        assert_eq!(
            Url::parse("https://example.com").unwrap().effective_port(),
            443
        );
    }

    #[test]
    fn query_keys_match_parse_query_keys() {
        for q in [
            "q=hello+world&e=a%40b.com&flag&x=1%2B2",
            "&&a+b=1&%41=2&=3&%zz=4",
            "",
        ] {
            let keys: Vec<String> = query_keys(q).map(Cow::into_owned).collect();
            let pairs: Vec<String> = parse_query(q).into_iter().map(|(k, _)| k).collect();
            assert_eq!(keys, pairs, "{q}");
        }
        assert!(matches!(
            query_keys("plain=1").next(),
            Some(Cow::Borrowed("plain"))
        ));
    }

    #[test]
    fn query_pairs_decode() {
        let u = Url::parse("https://t.co/p?q=hello+world&e=a%40b.com&flag&x=1%2B2").unwrap();
        assert_eq!(
            u.query_pairs(),
            vec![
                ("q".into(), "hello world".into()),
                ("e".into(), "a@b.com".into()),
                ("flag".into(), String::new()),
                ("x".into(), "1+2".into()),
            ]
        );
    }

    #[test]
    fn round_trip() {
        for s in [
            "https://example.com/",
            "https://example.com/a/b?x=1",
            "http://a.b.c:8080/path#f",
        ] {
            assert_eq!(Url::parse(s).unwrap().to_url_string(), s);
        }
    }

    #[test]
    fn rejections() {
        assert_eq!(Url::parse("example.com"), Err(UrlError::MissingScheme));
        assert!(matches!(
            Url::parse("ftp://example.com"),
            Err(UrlError::UnsupportedScheme(_))
        ));
        assert_eq!(
            Url::parse("https://user@example.com"),
            Err(UrlError::UserInfoUnsupported)
        );
        assert_eq!(
            Url::parse("https://[::1]/x"),
            Err(UrlError::Ipv6Unsupported)
        );
        assert!(matches!(
            Url::parse("https://example.com:99999/"),
            Err(UrlError::BadPort(_))
        ));
        assert!(matches!(
            Url::parse("https:///path"),
            Err(UrlError::BadHost(_))
        ));
    }

    #[test]
    fn percent_coding_round_trip() {
        let original = "a b+c@d/e?f=g&h%i";
        assert_eq!(percent_decode(&percent_encode(original)), original);
    }

    #[test]
    fn malformed_percent_passthrough() {
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
    }
}
