//! Property-based tests for the capture substrate: codec round trips under
//! arbitrary payloads, reassembly under arbitrary reordering, and TLS
//! open/seal inverses, on the workspace's seeded runner
//! (`diffaudit_util::prop`).

use diffaudit_nettrace::http::{HttpRequest, HttpResponse};
use diffaudit_nettrace::packet::{TcpFlags, TcpSegment};
use diffaudit_nettrace::pcap::{PcapPacket, PcapReader, PcapWriter};
use diffaudit_nettrace::tcp::FlowTable;
use diffaudit_nettrace::tls::{decode_client_stream, parse_records, TlsSession};
use diffaudit_nettrace::{
    har_from_exchanges, har_to_exchanges_salvage, Exchange, KeyLog, SalvageLog,
};
use diffaudit_util::prop::{self, check};

const CASES: u32 = 256;

const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";

/// A data segment of the client → server flow the properties share.
fn segment(seq: u32, ack: u32, flags: u8, payload: &[u8]) -> TcpSegment<'_> {
    TcpSegment {
        src_mac: [2, 0, 0, 0, 0, 1],
        dst_mac: [2, 0, 0, 0, 0, 2],
        src_ip: [10, 0, 0, 1],
        dst_ip: [93, 1, 2, 3],
        src_port: 1000,
        dst_port: 443,
        seq,
        ack,
        flags: TcpFlags(flags),
        payload,
    }
}

#[test]
fn pcap_round_trips() {
    check("pcap_round_trips", CASES, |rng| {
        let packets: Vec<(u32, u32, Vec<u8>)> = (0..rng.range(0, 20))
            .map(|_| {
                let sec = rng.next_u32();
                let usec = rng.range(0, 1_000_000) as u32;
                (sec, usec, prop::bytes(rng, 0..=255))
            })
            .collect();
        let mut writer = PcapWriter::new();
        for (sec, usec, data) in &packets {
            writer.write_packet(*sec as u64 * 1000 + (*usec % 1000) as u64, data);
        }
        let bytes = writer.finish();
        let mut log = SalvageLog::new();
        let reader = PcapReader::parse_salvage(&bytes, &mut log).unwrap();
        assert!(log.is_clean());
        assert_eq!(reader.packets.len(), packets.len());
        for (parsed, (_, _, data)) in reader.packets.iter().zip(&packets) {
            assert_eq!(parsed.data, data.as_slice());
        }
    });
}

#[test]
fn pcap_parser_never_panics() {
    check("pcap_parser_never_panics", CASES, |rng| {
        let data = prop::bytes(rng, 0..=511);
        let mut log = SalvageLog::new();
        let _ = PcapReader::parse_salvage(&data, &mut log);
        assert!(log.conserved());
    });
}

#[test]
fn tcp_segment_round_trips() {
    check("tcp_segment_round_trips", CASES, |rng| {
        let payload = prop::bytes(rng, 0..=599);
        let seg = TcpSegment {
            src_port: rng.next_u32() as u16,
            dst_port: rng.next_u32() as u16,
            ..segment(
                rng.next_u32(),
                rng.next_u32(),
                rng.range(0, 32) as u8,
                &payload,
            )
        };
        let frame = seg.encode();
        assert_eq!(TcpSegment::decode(&frame).unwrap(), seg);
    });
}

#[test]
fn frame_decoder_never_panics() {
    check("frame_decoder_never_panics", CASES, |rng| {
        let _ = TcpSegment::decode(&prop::bytes(rng, 0..=199));
    });
}

#[test]
fn single_bit_corruption_is_detected() {
    check("single_bit_corruption_is_detected", CASES, |rng| {
        let payload = prop::bytes(rng, 1..=199);
        let seg = segment(1, 2, TcpFlags::ACK, &payload);
        let mut frame = seg.encode();
        // Flip one bit somewhere after the MACs (MAC flips are undetectable
        // by checksums and that is faithful to real TCP/IP).
        let idx = rng.range(12, frame.len());
        frame[idx] ^= 1 << rng.range(0, 8);
        assert_ne!(TcpSegment::decode(&frame).ok(), Some(seg), "flip at {idx}");
    });
}

#[test]
fn tls_seal_open_round_trips() {
    check("tls_seal_open_round_trips", CASES, |rng| {
        let sni = format!(
            "{}.{}",
            prop::string_over(rng, LOWER, 1..=10),
            prop::string_over(rng, LOWER, 2..=5)
        );
        let flights: Vec<Vec<u8>> = (0..rng.range(1, 5))
            .map(|_| prop::bytes(rng, 1..=499))
            .collect();
        let mut keylog = KeyLog::new();
        let mut session = TlsSession::open(rng, &sni, Some(&mut keylog));
        let mut stream = session.client_hello();
        let mut expected = Vec::new();
        for flight in &flights {
            stream.extend(session.seal_client(flight));
            expected.extend_from_slice(flight);
        }
        let decoded = decode_client_stream(&stream, &keylog).unwrap();
        assert_eq!(decoded.sni.as_deref(), Some(sni.as_str()));
        assert_eq!(decoded.plaintext.unwrap(), expected);
    });
}

#[test]
fn tls_record_parser_never_panics() {
    check("tls_record_parser_never_panics", CASES, |rng| {
        let _ = parse_records(&prop::bytes(rng, 0..=299));
    });
}

#[test]
fn reassembly_is_order_independent() {
    check("reassembly_is_order_independent", CASES, |rng| {
        // Build in-order data segments after a handshake, then feed them in
        // a seeded random order; the stream must reassemble identically.
        let chunks: Vec<Vec<u8>> = (0..rng.range(1, 10))
            .map(|_| prop::bytes(rng, 1..=49))
            .collect();
        let mut expected = Vec::new();
        let mut segments = Vec::new();
        let mut seq: u32 = 101;
        for chunk in &chunks {
            segments.push(segment(seq, 1, TcpFlags::ACK | TcpFlags::PSH, chunk));
            seq = seq.wrapping_add(chunk.len() as u32);
            expected.extend_from_slice(chunk);
        }
        let syn = segment(100, 1, TcpFlags::SYN, &[]);
        rng.shuffle(&mut segments);
        let mut table = FlowTable::new();
        table.push(&syn, 0);
        for (i, seg) in segments.iter().enumerate() {
            table.push(seg, i as u64 + 1);
        }
        assert_eq!(table.flows()[0].client_stream_report(), (expected, None));
    });
}

#[test]
fn har_round_trips_arbitrary_bodies() {
    check("har_round_trips_arbitrary_bodies", CASES, |rng| {
        let ts = rng.next_u64() % 4_102_444_800_000;
        let exchanges: Vec<Exchange> = (0..rng.range(1, 5))
            .map(|i| Exchange {
                timestamp_ms: ts,
                request: HttpRequest::post(
                    diffaudit_domains::Url::parse(&format!("https://h{i}.example.com/p")).unwrap(),
                    "application/octet-stream",
                    prop::bytes(rng, 0..=99),
                ),
                response: HttpResponse::ok(),
            })
            .collect();
        let har = har_from_exchanges(&exchanges).to_string();
        let mut log = SalvageLog::new();
        let back = har_to_exchanges_salvage(&har, &mut log).unwrap();
        assert!(log.is_clean());
        assert_eq!(back.len(), exchanges.len());
        for (b, e) in back.iter().zip(&exchanges) {
            assert_eq!(&b.request.body, &e.request.body);
            assert_eq!(b.timestamp_ms, e.timestamp_ms);
        }
    });
}

#[test]
fn keylog_round_trips() {
    check("keylog_round_trips", CASES, |rng| {
        let entries: Vec<([u8; 32], [u8; 32])> = (0..rng.range(0, 10))
            .map(|_| {
                let (mut cr, mut secret) = ([0; 32], [0; 32]);
                rng.fill_bytes(&mut cr);
                rng.fill_bytes(&mut secret);
                (cr, secret)
            })
            .collect();
        let mut keylog = KeyLog::new();
        for (cr, secret) in &entries {
            keylog.insert(*cr, *secret);
        }
        let mut log = SalvageLog::new();
        let parsed = KeyLog::parse_salvage(&keylog.to_file_string(), &mut log);
        assert!(log.is_clean());
        for (cr, secret) in &entries {
            assert_eq!(parsed.secret_for(cr), Some(secret));
        }
    });
}

#[test]
fn http_request_wire_round_trips() {
    check("http_request_wire_round_trips", CASES, |rng| {
        let path: String = (0..rng.range(1, 4))
            .map(|_| {
                format!(
                    "/{}",
                    prop::string_over(rng, "abcdefghijklmnopqrstuvwxyz0123456789_-", 1..=8)
                )
            })
            .collect();
        let req = HttpRequest::post(
            diffaudit_domains::Url::parse(&format!("https://api.example.com{path}")).unwrap(),
            "application/octet-stream",
            prop::bytes(rng, 0..=199),
        );
        let wire = req.to_wire();
        let (parsed, consumed) = HttpRequest::parse_wire(&wire, "https").unwrap();
        assert_eq!(consumed, wire.len());
        assert_eq!(parsed, req);
    });
}

/// pcap timestamps survive the write/parse cycle at millisecond precision.
#[test]
fn pcap_timestamp_precision() {
    let mut writer = PcapWriter::new();
    for ms in [0u64, 1, 999, 1000, 1_696_516_200_123] {
        writer.write_packet(ms, b"x");
    }
    let bytes = writer.finish();
    let mut log = SalvageLog::new();
    let reader = PcapReader::parse_salvage(&bytes, &mut log).unwrap();
    assert!(log.is_clean());
    let round: Vec<u64> = reader
        .packets
        .iter()
        .map(PcapPacket::timestamp_ms)
        .collect();
    assert_eq!(round, vec![0, 1, 999, 1000, 1_696_516_200_123]);
}
