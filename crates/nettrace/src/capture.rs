//! End-to-end capture sessions and the decode pipeline.
//!
//! [`CaptureSession`] plays the role of PCAPdroid on the rooted Pixel 6:
//! every HTTP exchange becomes a full TCP flow (handshake → TLS ClientHello
//! → sealed request → sealed response → FIN) serialized into genuine pcap
//! bytes, with session secrets written to an `SSLKEYLOGFILE`-format key log.
//! [`CaptureOptions`] exposes the fault knobs the paper's setup implies:
//! a *pinned fraction* (apps whose certificate pinning defeats key
//! extraction — their payloads stay opaque), plus segment drop and
//! reordering (radio loss), in the fault-injection spirit of smoltcp's
//! examples.
//!
//! [`decode_auto_salvage`] is the Wireshark/editcap side, and the one
//! decode path the loader runs: pcap or pcapng bytes + key log →
//! reassembled flows → decrypted TLS → parsed HTTP exchanges, with opaque
//! (undecryptable) flows reported alongside — the paper includes those in
//! its analysis via their SNI — and per-record damage recorded in a
//! [`SalvageLog`] instead of aborting the decode.

use crate::http::{Exchange, HttpRequest, HttpResponse};
use crate::keylog::KeyLog;
use crate::packet::{TcpFlags, TcpSegment};
use crate::pcap::{PcapError, PcapReader, PcapWriter};
use crate::pcapng::{PcapngError, PcapngReader};
use crate::salvage::{SalvageLog, Stage};
use crate::tcp::FlowTable;
use crate::tls::{decode_client_stream, decode_server_stream, TlsError, TlsSession};
use diffaudit_obs::LocalRecorder;
use diffaudit_util::cancel::{Ctl, Interrupt};
use diffaudit_util::Rng;

/// Knobs for a capture session.
#[derive(Debug, Clone)]
pub struct CaptureOptions {
    /// RNG seed (drives TLS randoms, ports, fault injection).
    pub seed: u64,
    /// Probability that a flow's session secret is *not* logged —
    /// simulates certificate-pinned apps (mobile captures in the paper).
    pub pinned_fraction: f64,
    /// Maximum TCP payload bytes per segment.
    pub mtu: usize,
    /// Probability of swapping two adjacent data segments (reordering).
    pub reorder_prob: f64,
    /// Probability of dropping a data segment (leaves a reassembly gap).
    pub drop_prob: f64,
}

impl Default for CaptureOptions {
    fn default() -> Self {
        Self {
            seed: 0,
            pinned_fraction: 0.0,
            mtu: 1400,
            reorder_prob: 0.0,
            drop_prob: 0.0,
        }
    }
}

const CLIENT_IP: [u8; 4] = [10, 0, 0, 2];
const CLIENT_MAC: [u8; 6] = [0x02, 0, 0, 0, 0, 0x01];
const SERVER_MAC: [u8; 6] = [0x02, 0, 0, 0, 0, 0x02];

/// Derive a stable fake server IPv4 from a hostname.
fn server_ip(host: &str) -> [u8; 4] {
    let h = diffaudit_util::fnv1a64(host.as_bytes());
    // 93.x.y.z — documentation-adjacent, never multicast/private.
    [93, (h >> 16) as u8, (h >> 8) as u8, h as u8]
}

/// The fixed addressing of one captured flow: the client's source port and
/// the server's IPv4 address (the other ends are constants).
#[derive(Debug, Clone, Copy)]
struct FlowAddr {
    dst_ip: [u8; 4],
    src_port: u16,
}

impl FlowAddr {
    /// One segment of the flow, in either direction, carrying `payload`.
    fn seg<'p>(
        self,
        from_client: bool,
        seq: u32,
        ack: u32,
        flags: u8,
        payload: &'p [u8],
    ) -> TcpSegment<'p> {
        TcpSegment {
            src_mac: if from_client { CLIENT_MAC } else { SERVER_MAC },
            dst_mac: if from_client { SERVER_MAC } else { CLIENT_MAC },
            src_ip: if from_client { CLIENT_IP } else { self.dst_ip },
            dst_ip: if from_client { self.dst_ip } else { CLIENT_IP },
            src_port: if from_client { self.src_port } else { 443 },
            dst_port: if from_client { 443 } else { self.src_port },
            seq,
            ack,
            flags: TcpFlags(flags),
            payload,
        }
    }
}

/// A PCAPdroid-style capture session.
pub struct CaptureSession {
    writer: PcapWriter,
    keylog: KeyLog,
    rng: Rng,
    options: CaptureOptions,
    next_port: u16,
    flow_count: usize,
    pinned_flows: usize,
}

impl CaptureSession {
    /// Start a session.
    pub fn new(options: CaptureOptions) -> Self {
        Self {
            writer: PcapWriter::new(),
            keylog: KeyLog::new(),
            rng: Rng::new(options.seed ^ 0xCAFE_F00D_u64),
            options,
            next_port: 49_152,
            flow_count: 0,
            pinned_flows: 0,
        }
    }

    fn alloc_port(&mut self) -> u16 {
        let p = self.next_port;
        self.next_port = if self.next_port == u16::MAX {
            49_152
        } else {
            self.next_port + 1
        };
        p
    }

    /// Capture one exchange as a complete HTTPS flow.
    pub fn capture(&mut self, exchange: &Exchange) {
        let host = exchange.request.url.host.as_str().to_string();
        let dst_ip = server_ip(&host);
        let src_port = self.alloc_port();
        // Certificate pinning is a property of the app/endpoint, not of an
        // individual connection: the decision is a deterministic hash of the
        // hostname, so a pinned destination is *consistently* opaque across
        // the capture (as in the paper's mobile traces).
        let pinned = {
            let h = diffaudit_util::fnv1a64(host.as_bytes()) ^ self.options.seed.rotate_left(32);
            let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
            unit < self.options.pinned_fraction
        };
        let mut session = if pinned {
            self.pinned_flows += 1;
            TlsSession::open(&mut self.rng, &host, None)
        } else {
            TlsSession::open(&mut self.rng, &host, Some(&mut self.keylog))
        };

        let t0 = exchange.timestamp_ms;
        let mut t = t0;
        let client_isn = self.rng.next_u32();
        let server_isn = self.rng.next_u32();

        let addr = FlowAddr { dst_ip, src_port };

        // Handshake (never dropped — a lost SYN would just be retried).
        self.emit(addr.seg(true, client_isn, 0, TcpFlags::SYN, &[]), t);
        t += 1;
        self.emit(
            addr.seg(
                false,
                server_isn,
                client_isn + 1,
                TcpFlags::SYN | TcpFlags::ACK,
                &[],
            ),
            t,
        );
        t += 1;
        self.emit(
            addr.seg(true, client_isn + 1, server_isn + 1, TcpFlags::ACK, &[]),
            t,
        );
        t += 1;

        // Client flight: ClientHello + sealed request.
        let mut client_bytes = session.client_hello();
        client_bytes.extend(session.seal_client(&exchange.request.to_wire()));
        // Server flight: ServerHello + sealed response.
        let mut server_bytes = session.server_hello(&mut self.rng);
        server_bytes.extend(session.seal_server(&exchange.response.to_wire()));

        let mut client_seq = client_isn + 1;
        let mut server_seq = server_isn + 1;
        t = self.emit_data(addr, true, &client_bytes, &mut client_seq, server_seq, t);
        t = self.emit_data(addr, false, &server_bytes, &mut server_seq, client_seq, t);

        // Close.
        self.emit(
            addr.seg(
                true,
                client_seq,
                server_seq,
                TcpFlags::FIN | TcpFlags::ACK,
                &[],
            ),
            t,
        );
        t += 1;
        self.emit(
            addr.seg(
                false,
                server_seq,
                client_seq + 1,
                TcpFlags::FIN | TcpFlags::ACK,
                &[],
            ),
            t,
        );
        self.flow_count += 1;
    }

    /// Segment a byte stream at the MTU with fault injection; returns the
    /// advanced timestamp.
    fn emit_data(
        &mut self,
        addr: FlowAddr,
        from_client: bool,
        data: &[u8],
        seq: &mut u32,
        ack: u32,
        mut t: u64,
    ) -> u64 {
        let mut segments: Vec<TcpSegment<'_>> = Vec::new();
        for chunk in data.chunks(self.options.mtu.max(1)) {
            segments.push(addr.seg(from_client, *seq, ack, TcpFlags::PSH | TcpFlags::ACK, chunk));
            *seq = seq.wrapping_add(chunk.len() as u32);
        }
        // Reorder adjacent pairs.
        let mut i = 0;
        while i + 1 < segments.len() {
            if self.rng.chance(self.options.reorder_prob) {
                segments.swap(i, i + 1);
                i += 2;
            } else {
                i += 1;
            }
        }
        for s in segments {
            if self.rng.chance(self.options.drop_prob) {
                continue; // lost on the air
            }
            self.emit(s, t);
            t += 1;
        }
        t
    }

    fn emit(&mut self, segment: TcpSegment<'_>, t: u64) {
        self.writer.write_packet(t, &segment.encode());
    }

    /// Packets written so far.
    pub fn packet_count(&self) -> usize {
        self.writer.packet_count()
    }

    /// Flows captured so far.
    pub fn flow_count(&self) -> usize {
        self.flow_count
    }

    /// Flows whose secrets were withheld (certificate-pinned).
    pub fn pinned_flow_count(&self) -> usize {
        self.pinned_flows
    }

    /// Finish: returns `(pcap bytes, key log text)`.
    pub fn finish(self) -> (Vec<u8>, String) {
        (self.writer.finish(), self.keylog.to_file_string())
    }
}

/// An undecryptable flow surfaced by the decoder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpaqueFlow {
    /// Destination hostname from the SNI (present unless the ClientHello
    /// itself was lost).
    pub sni: Option<String>,
    /// Server port.
    pub server_port: u16,
    /// Segments in the flow.
    pub segment_count: usize,
}

/// Everything recovered from a pcap + key log.
#[derive(Debug)]
pub struct DecodedTrace {
    /// Fully decrypted and parsed exchanges, in flow order. Empty when they
    /// went to [`decode_auto_salvage_ctl`]'s sink instead.
    pub exchanges: Vec<Exchange>,
    /// Flows that could not be decrypted (pinned apps) — destination still
    /// known via SNI.
    pub opaque: Vec<OpaqueFlow>,
    /// Total packets in the capture.
    pub packet_count: usize,
    /// Total TCP flows (the paper's Table 1 metric).
    pub flow_count: usize,
    /// Bytes decoding copied out of the capture buffer: assembled TCP
    /// streams, TLS plaintext and the HTTP bodies the exchanges keep. Frames,
    /// segments and records are views, so they add nothing.
    pub bytes_copied: u64,
}

/// Decode-pipeline errors.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeError {
    /// The pcap container was malformed.
    Pcap(PcapError),
    /// The pcapng container was malformed.
    Pcapng(PcapngError),
    /// The decode was cut short by a deadline or cancellation; the message
    /// keeps the interrupt's reason code (`timeout`/`cancelled`) as its
    /// prefix so ledger drop reasons stay machine-matchable.
    Interrupted(Interrupt),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Pcap(e) => write!(f, "pcap error: {e}"),
            DecodeError::Pcapng(e) => write!(f, "pcapng error: {e}"),
            DecodeError::Interrupted(i) => write!(f, "{i}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<PcapError> for DecodeError {
    fn from(e: PcapError) -> Self {
        DecodeError::Pcap(e)
    }
}

/// The Wireshark/editcap step: capture bytes + key log → exchanges.
///
/// Dispatches on the container magic: legacy pcap (decrypted with the
/// external key log) or pcapng (whose embedded Decryption Secrets Blocks
/// are merged with the external key log — pass an empty one for a
/// self-contained editcap output). The container is parsed with per-record
/// resync and every downstream stage skips-and-records into `log` instead
/// of aborting; on undamaged input the log stays clean. Only an unusable
/// container header remains an error. The decode's spans and counters go
/// to a throwaway recorder; [`decode_auto_salvage_ctl`] keeps them. The
/// exchanges are collected from [`decode_auto_salvage_ctl`]'s sink.
pub fn decode_auto_salvage(
    bytes: &[u8],
    external_keylog: &KeyLog,
    log: &mut SalvageLog,
) -> Result<DecodedTrace, DecodeError> {
    let mut rec = LocalRecorder::new();
    let mut exchanges = Vec::new();
    let mut decoded = decode_auto_salvage_ctl(
        bytes,
        external_keylog,
        log,
        &mut rec,
        &Ctl::unbounded(),
        |exchange| exchanges.push(exchange),
    )?;
    decoded.exchanges = exchanges;
    Ok(decoded)
}

/// [`decode_auto_salvage`] with a cancellation checkpoint per frame and per
/// flow: a tripped `ctl` returns [`DecodeError::Interrupted`] (the partial
/// salvage log is kept, so the caller's ledger still accounts the records
/// processed before the cut-off). Spans, counters and histograms go to
/// `rec`, the caller's per-worker recorder.
///
/// Each exchange is handed to `sink` as soon as its request is parsed, in
/// flow order, so the decoder holds no exchange past that call (only the
/// current flow's parsed responses wait for their requests); the returned
/// trace's `exchanges` is empty. On an error, the exchanges already handed
/// over belong to a capture that did not decode, and the caller discards
/// them.
pub fn decode_auto_salvage_ctl(
    bytes: &[u8],
    external_keylog: &KeyLog,
    log: &mut SalvageLog,
    rec: &mut LocalRecorder,
    ctl: &Ctl,
    mut sink: impl FnMut(Exchange),
) -> Result<DecodedTrace, DecodeError> {
    rec.observe(
        "nettrace.capture.bytes",
        &diffaudit_obs::BYTE_BOUNDS,
        bytes.len() as u64,
    );
    let (mut exchanges, mut retained) = (0u64, 0u64);
    let mut counted = |exchange: Exchange| {
        exchanges += 1;
        retained += exchange.logical_bytes();
        sink(exchange);
    };
    let decoded = if PcapngReader::sniff(bytes) {
        rec.add("nettrace.decode.pcapng.bytes.in", bytes.len() as u64);
        rec.time("nettrace.decode.pcapng", |rec| {
            let reader = PcapngReader::parse_salvage(bytes, log).map_err(DecodeError::Pcapng)?;
            // External secrets win over embedded ones for a shared session.
            let mut merged = reader.keylog;
            merged.extend(external_keylog.clone());
            reassemble(&reader.packets, &merged, log, rec, ctl, &mut counted)
        })
    } else {
        rec.add("nettrace.decode.pcap.bytes.in", bytes.len() as u64);
        rec.time("nettrace.decode.pcap", |rec| {
            let reader = PcapReader::parse_salvage(bytes, log)?;
            reassemble(
                &reader.packets,
                external_keylog,
                log,
                rec,
                ctl,
                &mut counted,
            )
        })
    }?;
    rec.add("nettrace.packets", decoded.packet_count as u64);
    rec.add("nettrace.flows", decoded.flow_count as u64);
    rec.add("nettrace.exchanges", exchanges);
    rec.add("nettrace.bytes.retained", retained);
    rec.add("nettrace.flows.opaque", decoded.opaque.len() as u64);
    rec.add("nettrace.bytes.copied", decoded.bytes_copied);
    rec.observe(
        "nettrace.exchanges.per-capture",
        &diffaudit_obs::RECORD_BOUNDS,
        exchanges,
    );
    Ok(decoded)
}

/// [`decode_packets`] timed as the `nettrace.reassemble` span on `rec`.
fn reassemble(
    packets: &[crate::pcap::PcapPacket<'_>],
    keylog: &KeyLog,
    log: &mut SalvageLog,
    rec: &mut LocalRecorder,
    ctl: &Ctl,
    sink: &mut dyn FnMut(Exchange),
) -> Result<DecodedTrace, DecodeError> {
    let bytes_in = packets.iter().map(|p| p.data.len() as u64).sum();
    rec.add("nettrace.reassemble.bytes.in", bytes_in);
    rec.time("nettrace.reassemble", |_| {
        decode_packets(packets, keylog, log, ctl, sink)
    })
}

/// Frames → flows → TLS → HTTP, infallible past the container: damaged
/// frames and malformed TLS streams become drop records, reassembly gaps
/// are accounted per flow, and whatever decodes cleanly is kept. On
/// undamaged input the log stays clean (opaque pinned flows are expected,
/// not damage).
///
/// The only non-salvageable outcomes are a broken container (upstream) and
/// a tripped `ctl` — checked once per frame and once per flow so a stalled
/// record stream is cut off at its deadline instead of wedging the worker.
/// Each parsed exchange goes to `sink` before the next flow is decoded.
fn decode_packets(
    packets: &[crate::pcap::PcapPacket<'_>],
    keylog: &KeyLog,
    log: &mut SalvageLog,
    ctl: &Ctl,
    sink: &mut dyn FnMut(Exchange),
) -> Result<DecodedTrace, DecodeError> {
    let packet_count = packets.len();
    let mut table = FlowTable::new();
    for (i, packet) in packets.iter().enumerate() {
        ctl.check().map_err(DecodeError::Interrupted)?;
        match TcpSegment::decode(packet.data) {
            Ok(segment) => {
                table.push(&segment, packet.timestamp_ms());
                log.ok(Stage::Frame);
            }
            Err(e) => log.dropped(Stage::Frame, e.to_string(), Some(i as u64)),
        }
    }
    let mut opaque = Vec::new();
    // Bytes decode copies out of the capture buffer: assembled streams, TLS
    // plaintext and the HTTP bodies of the exchanges handed to `sink`.
    let mut copied = 0u64;
    for flow in table.flows() {
        ctl.check().map_err(DecodeError::Interrupted)?;
        let (client_stream, client_gap) = flow.client_stream_report();
        copied += client_stream.len() as u64;
        let gap_reason = client_gap.map(|g| {
            format!(
                "reassembly gap at offset {} ({} bytes stranded)",
                g.at_offset, g.stranded_bytes
            )
        });
        if client_stream.is_empty() {
            opaque.push(OpaqueFlow {
                sni: None,
                server_port: flow.server_port(),
                segment_count: flow.segment_count,
            });
            match gap_reason {
                Some(reason) => log.dropped(Stage::TcpFlow, reason, None),
                // An empty client stream without buffered data beyond it
                // means the capture simply has no client bytes: opaque,
                // not damage.
                None => log.ok(Stage::TcpFlow),
            }
            continue;
        }
        let decoded = match decode_client_stream(&client_stream, keylog) {
            Ok(d) => d,
            Err(e) => {
                // No TLS error aborts the run: the flow is dropped with
                // its reason and the audit continues.
                opaque.push(OpaqueFlow {
                    sni: None,
                    server_port: flow.server_port(),
                    segment_count: flow.segment_count,
                });
                let reason = match (&e, &gap_reason) {
                    (TlsError::Truncated, Some(gap)) => format!("tls stream truncated; {gap}"),
                    _ => format!("tls stream malformed: {e}"),
                };
                log.dropped(Stage::TcpFlow, reason, None);
                continue;
            }
        };
        match decoded.plaintext {
            Some(plaintext) => {
                let server_stream = flow.server_stream();
                let server_plain =
                    decode_server_stream(&server_stream, decoded.client_random, keylog)
                        .ok()
                        .and_then(|d| d.plaintext);
                copied += (server_stream.len() + plaintext.len()) as u64;
                copied += server_plain.as_ref().map_or(0, |sp| sp.len() as u64);
                let mut responses = Vec::new();
                if let Some(sp) = server_plain {
                    let mut pos = 0;
                    while let Some((resp, n)) = sp.get(pos..).and_then(HttpResponse::parse_wire) {
                        responses.push(resp);
                        pos += n;
                    }
                }
                let mut responses = responses.into_iter();
                let mut pos = 0;
                while let Some((request, n)) = plaintext
                    .get(pos..)
                    .and_then(|rest| HttpRequest::parse_wire(rest, "https"))
                {
                    let response = responses.next().unwrap_or_else(HttpResponse::ok);
                    copied += (request.body.len() + response.body.len()) as u64;
                    sink(Exchange {
                        timestamp_ms: flow.first_ts_ms,
                        request,
                        response,
                    });
                    log.ok(Stage::HttpExchange);
                    pos += n;
                }
                if pos < plaintext.len() {
                    log.dropped(
                        Stage::HttpExchange,
                        format!(
                            "{} trailing plaintext bytes did not parse as HTTP",
                            plaintext.len() - pos
                        ),
                        Some(pos as u64),
                    );
                }
                match gap_reason {
                    Some(reason) => log.dropped(Stage::TcpFlow, reason, None),
                    None => log.ok(Stage::TcpFlow),
                }
            }
            None => {
                // No logged secret: a certificate-pinned flow. That is an
                // expected property of the capture, not damage — the paper
                // analyzes such flows via SNI.
                opaque.push(OpaqueFlow {
                    sni: decoded.sni,
                    server_port: flow.server_port(),
                    segment_count: flow.segment_count,
                });
                match gap_reason {
                    Some(reason) => log.dropped(Stage::TcpFlow, reason, None),
                    None => log.ok(Stage::TcpFlow),
                }
            }
        }
    }
    Ok(DecodedTrace {
        exchanges: Vec::new(),
        opaque,
        packet_count,
        flow_count: table.flow_count(),
        bytes_copied: copied,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffaudit_domains::Url;

    fn exchange(url: &str, body: &str) -> Exchange {
        Exchange {
            timestamp_ms: 1_700_000_000_000,
            request: HttpRequest::post(
                Url::parse(url).unwrap(),
                "application/json",
                body.as_bytes().to_vec(),
            ),
            response: HttpResponse::ok(),
        }
    }

    /// Decode an undamaged capture: the salvage log must stay clean.
    fn decode_clean(bytes: &[u8], keylog: &KeyLog) -> DecodedTrace {
        let mut log = SalvageLog::new();
        let decoded = decode_auto_salvage(bytes, keylog, &mut log).unwrap();
        assert!(
            log.is_clean(),
            "undamaged capture produced drops: {:?}",
            log.drops()
        );
        assert!(log.conserved());
        decoded
    }

    #[test]
    fn capture_decode_round_trip() {
        let mut session = CaptureSession::new(CaptureOptions::default());
        let ex1 = exchange("https://api.roblox.com/v1/join", r#"{"user_id":"u-1"}"#);
        let ex2 = exchange(
            "https://metrics.roblox.com/v2/event",
            r#"{"event":"spawn"}"#,
        );
        session.capture(&ex1);
        session.capture(&ex2);
        assert_eq!(session.flow_count(), 2);
        let (pcap, keylog_text) = session.finish();
        let keylog = KeyLog::parse(&keylog_text);
        assert_eq!(keylog.len(), 2);

        let decoded = decode_clean(&pcap, &keylog);
        assert_eq!(decoded.flow_count, 2);
        assert_eq!(decoded.exchanges.len(), 2);
        assert!(decoded.opaque.is_empty());
        assert_eq!(
            decoded.exchanges[0].request.url.to_url_string(),
            "https://api.roblox.com/v1/join"
        );
        assert_eq!(decoded.exchanges[0].request.body, ex1.request.body);
        assert_eq!(decoded.exchanges[1].request.body, ex2.request.body);
        assert_eq!(decoded.exchanges[0].response.status, 200);
    }

    #[test]
    fn pinned_flows_opaque_with_sni() {
        let mut session = CaptureSession::new(CaptureOptions {
            pinned_fraction: 1.0,
            ..Default::default()
        });
        session.capture(&exchange("https://pinned.tiktok.com/api/x", r#"{"k":1}"#));
        assert_eq!(session.pinned_flow_count(), 1);
        let (pcap, keylog_text) = session.finish();
        // Pinned (opaque) flows are expected, not damage: the log is clean.
        let decoded = decode_clean(&pcap, &KeyLog::parse(&keylog_text));
        assert!(decoded.exchanges.is_empty());
        assert_eq!(decoded.opaque.len(), 1);
        assert_eq!(decoded.opaque[0].sni.as_deref(), Some("pinned.tiktok.com"));
        assert_eq!(decoded.opaque[0].server_port, 443);
    }

    #[test]
    fn survives_reordering() {
        let mut session = CaptureSession::new(CaptureOptions {
            seed: 7,
            reorder_prob: 0.5,
            mtu: 64, // force many segments
            ..Default::default()
        });
        let body =
            r#"{"device_id":"abcdef-123456","lat":33.64,"lon":-117.84,"events":["a","b","c","d"]}"#;
        let ex = exchange("https://t.example.com/batch", body);
        session.capture(&ex);
        let (pcap, keylog_text) = session.finish();
        let decoded = decode_clean(&pcap, &KeyLog::parse(&keylog_text));
        assert_eq!(decoded.exchanges.len(), 1);
        assert_eq!(decoded.exchanges[0].request.body, ex.request.body);
    }

    #[test]
    fn dropped_segments_leave_flow_opaque_not_fatal() {
        let mut session = CaptureSession::new(CaptureOptions {
            seed: 3,
            drop_prob: 0.6,
            mtu: 48,
            ..Default::default()
        });
        for i in 0..5 {
            session.capture(&exchange(
                &format!("https://d{i}.example.com/x"),
                r#"{"payload":"data that spans multiple small segments for sure"}"#,
            ));
        }
        let (pcap, keylog_text) = session.finish();
        let mut log = SalvageLog::new();
        let decoded = decode_auto_salvage(&pcap, &KeyLog::parse(&keylog_text), &mut log).unwrap();
        // Every flow is accounted for as either decoded or opaque.
        assert_eq!(decoded.flow_count, 5);
        assert_eq!(decoded.exchanges.len() + decoded.opaque.len(), 5);
        assert!(log.conserved());
    }

    #[test]
    fn deterministic_output() {
        let run = || {
            let mut s = CaptureSession::new(CaptureOptions {
                seed: 42,
                pinned_fraction: 0.3,
                ..Default::default()
            });
            s.capture(&exchange("https://a.example.com/p", r#"{"a":1}"#));
            s.capture(&exchange("https://b.example.com/q", r#"{"b":2}"#));
            s.finish()
        };
        let (p1, k1) = run();
        let (p2, k2) = run();
        assert_eq!(p1, p2);
        assert_eq!(k1, k2);
    }

    #[test]
    fn decode_auto_handles_editcap_output() {
        use crate::pcapng::inject_secrets;
        let mut session = CaptureSession::new(CaptureOptions::default());
        let ex = exchange("https://api.example.com/x", r#"{"k":"v"}"#);
        session.capture(&ex);
        let (pcap, keylog_text) = session.finish();
        let keylog = KeyLog::parse(&keylog_text);
        // editcap path: secrets embedded, no external key log needed.
        let pcapng = inject_secrets(&pcap, &keylog).unwrap();
        let decoded = decode_clean(&pcapng, &KeyLog::new());
        assert_eq!(decoded.exchanges.len(), 1);
        assert_eq!(decoded.exchanges[0].request.body, ex.request.body);
        // Legacy path through the same entry point.
        let decoded_legacy = decode_clean(&pcap, &keylog);
        assert_eq!(decoded_legacy.exchanges.len(), 1);
    }

    #[test]
    fn salvage_decode_recovers_from_mid_file_corruption() {
        let mut session = CaptureSession::new(CaptureOptions::default());
        for i in 0..6 {
            session.capture(&exchange(
                &format!("https://s{i}.example.com/x"),
                r#"{"k":"v"}"#,
            ));
        }
        let (mut pcap, keylog_text) = session.finish();
        let keylog = KeyLog::parse(&keylog_text);
        // Flip a byte mid-file: some flow's frame fails its checksum.
        let mid = pcap.len() / 2;
        pcap[mid] ^= 0xFF;
        let mut log = SalvageLog::new();
        let salvaged = decode_auto_salvage(&pcap, &keylog, &mut log).unwrap();
        // Conservation: every flow accounted, most exchanges recovered.
        assert_eq!(salvaged.flow_count, 6);
        assert!(
            salvaged.exchanges.len() >= 4,
            "{}",
            salvaged.exchanges.len()
        );
        assert!(!log.is_clean());
        assert!(log.conserved());
        // The damage is accounted either at frame or at flow level.
        assert!(log.total_dropped() >= 1);
    }

    #[test]
    fn salvage_decode_auto_handles_pcapng() {
        use crate::pcapng::inject_secrets;
        let mut session = CaptureSession::new(CaptureOptions::default());
        let ex = exchange("https://api.example.com/x", r#"{"k":"v"}"#);
        session.capture(&ex);
        let (pcap, keylog_text) = session.finish();
        let keylog = KeyLog::parse(&keylog_text);
        let pcapng = inject_secrets(&pcap, &keylog).unwrap();
        let mut log = SalvageLog::new();
        let decoded = decode_auto_salvage(&pcapng, &KeyLog::new(), &mut log).unwrap();
        assert_eq!(decoded.exchanges.len(), 1);
        assert!(log.is_clean());
    }

    #[test]
    fn expired_deadline_interrupts_salvage_decode() {
        use diffaudit_util::cancel::{CancelToken, Deadline};
        let mut session = CaptureSession::new(CaptureOptions::default());
        session.capture(&exchange("https://a.example.com/x", r#"{"k":"v"}"#));
        let (pcap, keylog_text) = session.finish();
        let keylog = KeyLog::parse(&keylog_text);
        let ctl = Ctl::new(
            CancelToken::new(),
            Deadline::within(std::time::Duration::ZERO),
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
        let mut log = SalvageLog::new();
        let mut rec = LocalRecorder::new();
        let err =
            decode_auto_salvage_ctl(&pcap, &keylog, &mut log, &mut rec, &ctl, |_| {}).unwrap_err();
        assert_eq!(err, DecodeError::Interrupted(Interrupt::TimedOut));
        assert!(err.to_string().starts_with("timeout"), "{err}");
    }

    #[test]
    fn unbounded_ctl_decode_matches_plain_salvage() {
        let mut session = CaptureSession::new(CaptureOptions::default());
        session.capture(&exchange("https://a.example.com/x", r#"{"k":"v"}"#));
        let (pcap, keylog_text) = session.finish();
        let keylog = KeyLog::parse(&keylog_text);
        let mut log_a = SalvageLog::new();
        let mut log_b = SalvageLog::new();
        let plain = decode_auto_salvage(&pcap, &keylog, &mut log_a).unwrap();
        let mut rec = LocalRecorder::new();
        let mut sunk = Vec::new();
        let ctl = decode_auto_salvage_ctl(
            &pcap,
            &keylog,
            &mut log_b,
            &mut rec,
            &Ctl::unbounded(),
            |exchange| sunk.push(exchange),
        )
        .unwrap();
        assert!(ctl.exchanges.is_empty(), "the sink took every exchange");
        assert_eq!(plain.exchanges, sunk);
        assert_eq!(log_a.total_dropped(), log_b.total_dropped());
        // The decode records into the recorder it is handed.
        let metrics = rec.metrics();
        assert_eq!(metrics.counter("nettrace.exchanges"), 1);
        assert_eq!(
            metrics.counter("nettrace.decode.pcap.bytes.in"),
            pcap.len() as u64
        );
        for span in ["nettrace.decode.pcap", "nettrace.reassemble"] {
            assert!(
                metrics.spans().any(|(n, s)| n == span && s.count == 1),
                "{span}"
            );
        }
    }

    #[test]
    fn bytes_copied_is_pinned_on_a_fixed_capture() {
        let mut session = CaptureSession::new(CaptureOptions {
            seed: 11,
            pinned_fraction: 0.4,
            mtu: 100,
            ..Default::default()
        });
        for i in 0..4 {
            session.capture(&exchange(
                &format!("https://c{i}.example.com/x"),
                &format!(r#"{{"k":"{}"}}"#, "v".repeat(50 * i)),
            ));
        }
        let (pcap, keylog_text) = session.finish();
        let decoded = decode_clean(&pcap, &KeyLog::parse(&keylog_text));
        assert_eq!(decoded.opaque.len(), 2, "two pinned flows");
        // Four client streams, plus the server stream and both plaintexts
        // of each of the two decrypted flows, plus their two request bodies.
        assert_eq!(decoded.bytes_copied, 1843);
    }

    #[test]
    fn server_ip_stable_and_distinct() {
        assert_eq!(server_ip("a.example.com"), server_ip("a.example.com"));
        assert_ne!(server_ip("a.example.com"), server_ip("b.example.com"));
    }
}
