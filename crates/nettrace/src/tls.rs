//! Simulated TLS record layer.
//!
//! Real DiffAudit decrypts TLS with PCAPdroid's key log + Wireshark. We
//! reproduce the *structure* of that pipeline without a cryptographic
//! handshake: records use genuine TLS framing (content type, version,
//! length), the ClientHello carries a 32-byte client random and an SNI
//! extension, and application data is enciphered with a keyed
//! pseudo-random stream derived from `(client random, session secret,
//! direction, record index)`. A session whose secret is absent from the key
//! log cannot be deciphered — which is exactly how a certificate-pinned app
//! shows up in the paper's mobile captures (destination visible via SNI,
//! payload opaque).
//!
//! This is a **simulation cipher**, deliberately not secure: the point is to
//! exercise the decode path (framing, session lookup, failure handling), not
//! to protect data.

use crate::keylog::KeyLog;
use diffaudit_util::{fnv1a64, Rng};

/// TLS record content types we emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContentType {
    /// Handshake (ClientHello / ServerHello).
    Handshake,
    /// Application data (enciphered).
    ApplicationData,
}

impl ContentType {
    fn to_byte(self) -> u8 {
        match self {
            ContentType::Handshake => 22,
            ContentType::ApplicationData => 23,
        }
    }

    fn from_byte(b: u8) -> Option<ContentType> {
        match b {
            22 => Some(ContentType::Handshake),
            23 => Some(ContentType::ApplicationData),
            _ => None,
        }
    }
}

/// TLS 1.2 record version bytes.
const VERSION: [u8; 2] = [0x03, 0x03];
/// Maximum plaintext per record (RFC 5246 § 6.2.1).
const MAX_RECORD: usize = 16_384;

/// Direction of an application-data record (keys the cipher stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Client to server.
    ClientToServer,
    /// Server to client.
    ServerToClient,
}

/// A parsed TLS record, borrowed from the stream it was parsed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record<'a> {
    /// Content type.
    pub content_type: ContentType,
    /// Raw payload (handshake body or ciphertext).
    pub payload: &'a [u8],
}

/// Record-layer parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TlsError {
    /// Unknown content type byte.
    BadContentType(u8),
    /// Version bytes other than 0x0303.
    BadVersion([u8; 2]),
    /// Declared record length exceeds the maximum.
    OversizedRecord(usize),
    /// Stream ended mid-record.
    Truncated,
    /// Handshake body malformed.
    BadHandshake(&'static str),
}

impl std::fmt::Display for TlsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TlsError::BadContentType(b) => write!(f, "unknown TLS content type {b}"),
            TlsError::BadVersion(v) => write!(f, "unsupported TLS version {v:02x?}"),
            TlsError::OversizedRecord(n) => write!(f, "TLS record length {n} exceeds maximum"),
            TlsError::Truncated => write!(f, "TLS stream truncated mid-record"),
            TlsError::BadHandshake(what) => write!(f, "malformed handshake: {what}"),
        }
    }
}

impl std::error::Error for TlsError {}

/// Frame a payload into one or more records.
fn frame(content_type: ContentType, payload: &[u8], out: &mut Vec<u8>) {
    let chunks: Vec<&[u8]> = if payload.is_empty() {
        vec![b"".as_slice()]
    } else {
        payload.chunks(MAX_RECORD).collect()
    };
    for chunk in chunks {
        out.push(content_type.to_byte());
        out.extend_from_slice(&VERSION);
        out.extend_from_slice(&(chunk.len() as u16).to_be_bytes());
        out.extend_from_slice(chunk);
    }
}

/// Parse a byte stream into records. A trailing partial record yields
/// `TlsError::Truncated` (callers on live captures may choose to ignore it).
pub fn parse_records(stream: &[u8]) -> Result<Vec<Record<'_>>, TlsError> {
    use diffaudit_util::bytes::{array_at, slice_at};

    let mut records = Vec::new();
    let mut pos = 0;
    while pos < stream.len() {
        let [ct_byte, v0, v1, l0, l1] = array_at(stream, pos).ok_or(TlsError::Truncated)?;
        let ct = ContentType::from_byte(ct_byte).ok_or(TlsError::BadContentType(ct_byte))?;
        let version = [v0, v1];
        if version != VERSION {
            return Err(TlsError::BadVersion(version));
        }
        let len = u16::from_be_bytes([l0, l1]) as usize;
        if len > MAX_RECORD {
            return Err(TlsError::OversizedRecord(len));
        }
        let payload = slice_at(stream, pos + 5, len).ok_or(TlsError::Truncated)?;
        records.push(Record {
            content_type: ct,
            payload,
        });
        pos += 5 + len;
    }
    Ok(records)
}

const HS_CLIENT_HELLO: u8 = 0x01;
const HS_SERVER_HELLO: u8 = 0x02;

/// The ClientHello fields the decoder cares about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientHello {
    /// 32-byte client random, the key-log lookup key.
    pub client_random: [u8; 32],
    /// Server name indication — the destination hostname.
    pub sni: String,
}

impl ClientHello {
    /// Encode the handshake body.
    pub fn encode(&self) -> Vec<u8> {
        let sni_bytes = self.sni.as_bytes();
        let mut body = Vec::with_capacity(35 + sni_bytes.len());
        body.push(HS_CLIENT_HELLO);
        body.extend_from_slice(&self.client_random);
        body.extend_from_slice(&(sni_bytes.len() as u16).to_be_bytes());
        body.extend_from_slice(sni_bytes);
        body
    }

    /// Decode a handshake body.
    pub fn decode(body: &[u8]) -> Result<ClientHello, TlsError> {
        use diffaudit_util::bytes::{array_at, read_u16_be, slice_at, u8_at};

        let too_short = TlsError::BadHandshake("client hello too short");
        if u8_at(body, 0).ok_or(too_short.clone())? != HS_CLIENT_HELLO {
            return Err(TlsError::BadHandshake("not a client hello"));
        }
        let client_random: [u8; 32] = array_at(body, 1).ok_or(too_short.clone())?;
        let sni_len = read_u16_be(body, 33).ok_or(too_short)? as usize;
        let sni_bytes =
            slice_at(body, 35, sni_len).ok_or(TlsError::BadHandshake("sni truncated"))?;
        let sni = std::str::from_utf8(sni_bytes)
            .map_err(|_| TlsError::BadHandshake("sni not utf-8"))?
            .to_string();
        Ok(ClientHello { client_random, sni })
    }
}

/// XOR the per-record cipher stream over `data` in place (the same call
/// enciphers and deciphers). The stream is the byte sequence
/// `Rng::fill_bytes` would produce for the record's seed, generated and
/// applied one little-endian `u64` word at a time, so no keystream buffer
/// is allocated.
fn apply_keystream(
    data: &mut [u8],
    client_random: &[u8; 32],
    secret: &[u8; 32],
    direction: Direction,
    record_index: u32,
) {
    let mut rng = Rng::new(keystream_seed(
        client_random,
        secret,
        direction,
        record_index,
    ));
    let mut words = data.chunks_exact_mut(8);
    for chunk in &mut words {
        if let Ok(word) = <[u8; 8]>::try_from(&*chunk) {
            let word = u64::from_le_bytes(word) ^ rng.next_u64();
            chunk.copy_from_slice(&word.to_le_bytes());
        }
    }
    let tail = words.into_remainder();
    if !tail.is_empty() {
        for (b, k) in tail.iter_mut().zip(rng.next_u64().to_le_bytes()) {
            *b ^= k;
        }
    }
}

/// The keystream seed of one record: client random, session secret,
/// direction and record index.
fn keystream_seed(
    client_random: &[u8; 32],
    secret: &[u8; 32],
    direction: Direction,
    record_index: u32,
) -> u64 {
    let dir_tag: u64 = match direction {
        Direction::ClientToServer => 0x1111_1111,
        Direction::ServerToClient => 0x2222_2222,
    };
    fnv1a64(client_random)
        ^ fnv1a64(secret).rotate_left(21)
        ^ dir_tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (record_index as u64).rotate_left(43)
}

/// The client side of a simulated TLS session: produces the wire bytes the
/// capture layer embeds into TCP payloads.
#[derive(Debug)]
pub struct TlsSession {
    /// Client random (also the session's identity in the key log).
    pub client_random: [u8; 32],
    /// Session secret.
    pub master_secret: [u8; 32],
    /// Destination hostname placed in the SNI.
    pub sni: String,
    c2s_records: u32,
    s2c_records: u32,
}

impl TlsSession {
    /// Open a session toward `sni`. If `keylog` is `Some`, the secret is
    /// logged (decryptable later); passing `None` simulates a
    /// certificate-pinned app whose keys PCAPdroid cannot extract.
    pub fn open(rng: &mut Rng, sni: &str, keylog: Option<&mut KeyLog>) -> TlsSession {
        let mut client_random = [0u8; 32];
        let mut master_secret = [0u8; 32];
        rng.fill_bytes(&mut client_random);
        rng.fill_bytes(&mut master_secret);
        if let Some(log) = keylog {
            log.insert(client_random, master_secret);
        }
        TlsSession {
            client_random,
            master_secret,
            sni: sni.to_string(),
            c2s_records: 0,
            s2c_records: 0,
        }
    }

    /// The ClientHello record bytes (first flight, client→server).
    pub fn client_hello(&self) -> Vec<u8> {
        let hello = ClientHello {
            client_random: self.client_random,
            sni: self.sni.clone(),
        };
        let mut out = Vec::new();
        frame(ContentType::Handshake, &hello.encode(), &mut out);
        out
    }

    /// The ServerHello record bytes (server→client).
    pub fn server_hello(&self, rng: &mut Rng) -> Vec<u8> {
        let mut body = vec![HS_SERVER_HELLO];
        let mut server_random = [0u8; 32];
        rng.fill_bytes(&mut server_random);
        body.extend_from_slice(&server_random);
        let mut out = Vec::new();
        frame(ContentType::Handshake, &body, &mut out);
        out
    }

    /// Encipher one application-data flight (client→server).
    pub fn seal_client(&mut self, plaintext: &[u8]) -> Vec<u8> {
        self.seal(plaintext, Direction::ClientToServer)
    }

    /// Encipher one application-data flight (server→client).
    pub fn seal_server(&mut self, plaintext: &[u8]) -> Vec<u8> {
        self.seal(plaintext, Direction::ServerToClient)
    }

    fn seal(&mut self, plaintext: &[u8], direction: Direction) -> Vec<u8> {
        let counter = match direction {
            Direction::ClientToServer => &mut self.c2s_records,
            Direction::ServerToClient => &mut self.s2c_records,
        };
        let mut out = Vec::new();
        let chunks: Vec<&[u8]> = if plaintext.is_empty() {
            Vec::new()
        } else {
            plaintext.chunks(MAX_RECORD).collect()
        };
        for chunk in chunks {
            let mut ct = chunk.to_vec();
            apply_keystream(
                &mut ct,
                &self.client_random,
                &self.master_secret,
                direction,
                *counter,
            );
            frame(ContentType::ApplicationData, &ct, &mut out);
            *counter += 1;
        }
        out
    }
}

/// Result of decoding one direction of a TLS byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedTls {
    /// SNI from the ClientHello (present even when undecryptable).
    pub sni: Option<String>,
    /// Client random (present when a ClientHello was seen).
    pub client_random: Option<[u8; 32]>,
    /// Decrypted plaintext, concatenated across records, when the key log
    /// held the session secret.
    pub plaintext: Option<Vec<u8>>,
    /// Number of application-data records that stayed opaque.
    pub opaque_records: usize,
}

/// Decode the client→server half of a TLS stream using a key log: parse
/// records, extract the ClientHello, and decrypt application data when the
/// secret is available.
pub fn decode_client_stream(stream: &[u8], keylog: &KeyLog) -> Result<DecodedTls, TlsError> {
    decode_stream(stream, None, keylog, Direction::ClientToServer)
}

/// Decode the server→client half of a TLS stream. The client random must be
/// supplied (the decoder learned it from the client half's ClientHello).
pub fn decode_server_stream(
    stream: &[u8],
    client_random: Option<[u8; 32]>,
    keylog: &KeyLog,
) -> Result<DecodedTls, TlsError> {
    decode_stream(stream, client_random, keylog, Direction::ServerToClient)
}

/// Walk one direction's records in order. On the client side a ClientHello
/// sets the session for the application-data records after it. Each
/// decipherable record is appended to the plaintext buffer once and
/// deciphered in place there; the rest count as opaque.
fn decode_stream(
    stream: &[u8],
    mut client_random: Option<[u8; 32]>,
    keylog: &KeyLog,
    direction: Direction,
) -> Result<DecodedTls, TlsError> {
    let records = parse_records(stream)?;
    let mut sni = None;
    let mut plaintext: Option<Vec<u8>> = None;
    let mut opaque = 0usize;
    let mut record_index: u32 = 0;
    for record in &records {
        match record.content_type {
            ContentType::Handshake => {
                if direction == Direction::ClientToServer
                    && record.payload.first() == Some(&HS_CLIENT_HELLO)
                {
                    let hello = ClientHello::decode(record.payload)?;
                    sni = Some(hello.sni);
                    client_random = Some(hello.client_random);
                }
            }
            ContentType::ApplicationData => {
                let session = client_random
                    .as_ref()
                    .and_then(|cr| Some((cr, keylog.secret_for(cr)?)));
                match session {
                    Some((cr, secret)) => {
                        let buf = plaintext.get_or_insert_with(|| {
                            Vec::with_capacity(records.iter().map(|r| r.payload.len()).sum())
                        });
                        let start = buf.len();
                        buf.extend_from_slice(record.payload);
                        if let Some(tail) = buf.get_mut(start..) {
                            apply_keystream(tail, cr, secret, direction, record_index);
                        }
                    }
                    None => opaque += 1,
                }
                record_index += 1;
            }
        }
    }
    Ok(DecodedTls {
        sni,
        client_random,
        plaintext,
        opaque_records: opaque,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffaudit_util::prop::{self, check};

    /// The byte-at-a-time keystream: the reference [`apply_keystream`]'s
    /// word loop must match.
    fn apply_keystream_bytewise(
        data: &mut [u8],
        client_random: &[u8; 32],
        secret: &[u8; 32],
        direction: Direction,
        record_index: u32,
    ) {
        let seed = keystream_seed(client_random, secret, direction, record_index);
        let mut rng = Rng::new(seed);
        for chunk in data.chunks_mut(8) {
            for (b, k) in chunk.iter_mut().zip(rng.next_u64().to_le_bytes()) {
                *b ^= k;
            }
        }
    }

    #[test]
    fn word_keystream_matches_bytewise_reference() {
        check("word_keystream_matches_bytewise_reference", 32, |rng| {
            let data = prop::bytes(rng, 70..=70);
            let mut client_random = [0u8; 32];
            let mut secret = [0u8; 32];
            rng.fill_bytes(&mut client_random);
            rng.fill_bytes(&mut secret);
            let record_index = *rng.choose(&[0, 1, 2, 7, 1000, u32::MAX]);
            for len in 0..=data.len() {
                for direction in [Direction::ClientToServer, Direction::ServerToClient] {
                    let mut word = data[..len].to_vec();
                    let mut byte = word.clone();
                    apply_keystream(&mut word, &client_random, &secret, direction, record_index);
                    let (cr, key) = (&client_random, &secret);
                    apply_keystream_bytewise(&mut byte, cr, key, direction, record_index);
                    assert_eq!(word, byte, "len {len} {direction:?}");
                    // The same call deciphers.
                    apply_keystream(&mut word, &client_random, &secret, direction, record_index);
                    assert_eq!(word, &data[..len]);
                }
            }
        });
    }

    #[test]
    fn server_stream_round_trip() {
        let mut rng = Rng::new(9);
        let mut keylog = KeyLog::new();
        let mut session = TlsSession::open(&mut rng, "srv.example", Some(&mut keylog));
        let mut stream = session.server_hello(&mut rng);
        stream.extend(session.seal_server(b"HTTP/1.1 200 OK\r\n\r\n"));
        let decoded = decode_server_stream(&stream, Some(session.client_random), &keylog).unwrap();
        assert_eq!(
            decoded.plaintext.as_deref(),
            Some(&b"HTTP/1.1 200 OK\r\n\r\n"[..])
        );
    }

    #[test]
    fn seal_and_decode_round_trip() {
        let mut rng = Rng::new(1);
        let mut keylog = KeyLog::new();
        let mut session = TlsSession::open(&mut rng, "api.example.com", Some(&mut keylog));
        let mut stream = session.client_hello();
        stream.extend(session.seal_client(b"GET / HTTP/1.1\r\nHost: api.example.com\r\n\r\n"));
        stream.extend(session.seal_client(b"POST body follows"));

        let decoded = decode_client_stream(&stream, &keylog).unwrap();
        assert_eq!(decoded.sni.as_deref(), Some("api.example.com"));
        assert_eq!(
            decoded.plaintext.as_deref(),
            Some(&b"GET / HTTP/1.1\r\nHost: api.example.com\r\n\r\nPOST body follows"[..])
        );
        assert_eq!(decoded.opaque_records, 0);
    }

    #[test]
    fn pinned_session_stays_opaque_but_reveals_sni() {
        let mut rng = Rng::new(2);
        // No key log passed at open: simulates certificate pinning.
        let mut session = TlsSession::open(&mut rng, "pinned.tracker.com", None);
        let mut stream = session.client_hello();
        stream.extend(session.seal_client(b"secret payload"));

        let empty_log = KeyLog::new();
        let decoded = decode_client_stream(&stream, &empty_log).unwrap();
        assert_eq!(decoded.sni.as_deref(), Some("pinned.tracker.com"));
        assert_eq!(decoded.plaintext, None);
        assert_eq!(decoded.opaque_records, 1);
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let mut rng = Rng::new(3);
        let mut session = TlsSession::open(&mut rng, "x.com", None);
        let sealed = session.seal_client(b"hello hello hello");
        // Strip the 5-byte record header; body must not equal plaintext.
        assert_ne!(&sealed[5..], b"hello hello hello");
    }

    #[test]
    fn records_use_distinct_streams() {
        // Same plaintext in two consecutive records must produce different
        // ciphertext (record counter keys the stream).
        let mut rng = Rng::new(4);
        let mut session = TlsSession::open(&mut rng, "x.com", None);
        let a = session.seal_client(b"repeat");
        let b = session.seal_client(b"repeat");
        assert_ne!(a[5..], b[5..]);
    }

    #[test]
    fn long_payload_splits_records() {
        let mut rng = Rng::new(5);
        let mut keylog = KeyLog::new();
        let mut session = TlsSession::open(&mut rng, "big.example.com", Some(&mut keylog));
        let big = vec![0xABu8; MAX_RECORD * 2 + 100];
        let mut stream = session.client_hello();
        stream.extend(session.seal_client(&big));
        let records = parse_records(&stream).unwrap();
        let app_records = records
            .iter()
            .filter(|r| r.content_type == ContentType::ApplicationData)
            .count();
        assert_eq!(app_records, 3);
        let decoded = decode_client_stream(&stream, &keylog).unwrap();
        assert_eq!(decoded.plaintext.unwrap(), big);
    }

    #[test]
    fn parse_errors() {
        assert_eq!(
            parse_records(&[99, 3, 3, 0, 0]),
            Err(TlsError::BadContentType(99))
        );
        assert_eq!(
            parse_records(&[23, 3, 1, 0, 0]),
            Err(TlsError::BadVersion([3, 1]))
        );
        assert_eq!(parse_records(&[23, 3, 3, 0xFF]), Err(TlsError::Truncated));
        assert_eq!(
            parse_records(&[23, 3, 3, 0, 5, 1, 2]),
            Err(TlsError::Truncated)
        );
        let oversize = ((MAX_RECORD + 1) as u16).to_be_bytes();
        assert_eq!(
            parse_records(&[23, 3, 3, oversize[0], oversize[1]]),
            Err(TlsError::OversizedRecord(MAX_RECORD + 1))
        );
    }

    #[test]
    fn client_hello_decode_errors() {
        assert!(ClientHello::decode(&[HS_CLIENT_HELLO; 10]).is_err());
        let mut ok = ClientHello {
            client_random: [7u8; 32],
            sni: "abc.example".into(),
        }
        .encode();
        // Truncate the SNI.
        ok.truncate(ok.len() - 2);
        assert_eq!(
            ClientHello::decode(&ok),
            Err(TlsError::BadHandshake("sni truncated"))
        );
    }

    #[test]
    fn server_hello_parses_as_record() {
        let mut rng = Rng::new(6);
        let session = TlsSession::open(&mut rng, "s.example", None);
        let sh = session.server_hello(&mut rng);
        let records = parse_records(&sh).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].content_type, ContentType::Handshake);
        assert_eq!(records[0].payload[0], HS_SERVER_HELLO);
    }

    #[test]
    fn records_borrow_the_stream() {
        let mut rng = Rng::new(7);
        let mut session = TlsSession::open(&mut rng, "b.example", None);
        let mut stream = session.client_hello();
        stream.extend(session.seal_client(&vec![0x5Au8; MAX_RECORD + 10]));
        let range = stream.as_ptr_range();
        let records = parse_records(&stream).unwrap();
        assert_eq!(records.len(), 3);
        for record in &records {
            let view = record.payload.as_ptr_range();
            assert!(range.start <= view.start && view.end <= range.end);
        }
    }
}
