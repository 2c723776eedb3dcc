// Property-based suites need the external `proptest` crate, which the
// offline default build cannot fetch. The whole file is compiled out unless
// the crate's `fuzz` feature is enabled (with a vendored proptest).
#![cfg(feature = "fuzz")]

//! Property-based tests for the capture substrate: codec round trips under
//! arbitrary payloads, reassembly under arbitrary reordering, and TLS
//! open/seal inverses.

use diffaudit_nettrace::http::{HttpRequest, HttpResponse};
use diffaudit_nettrace::packet::{TcpFlags, TcpSegment};
use diffaudit_nettrace::pcap::{PcapPacket, PcapReader, PcapWriter};
use diffaudit_nettrace::tcp::FlowTable;
use diffaudit_nettrace::tls::{decode_client_stream, parse_records, TlsSession};
use diffaudit_nettrace::{har_from_exchanges, har_to_exchanges, Exchange, KeyLog, SalvageLog};
use diffaudit_util::Rng;
use proptest::prelude::*;

proptest! {
    #[test]
    fn pcap_round_trips(packets in prop::collection::vec(
        (any::<u32>(), 0u32..1_000_000, prop::collection::vec(any::<u8>(), 0..256)),
        0..20
    )) {
        let mut writer = PcapWriter::new();
        for (sec, usec_ms, data) in &packets {
            writer.write_packet(*sec as u64 * 1000 + (*usec_ms % 1000) as u64, data);
        }
        let bytes = writer.finish();
        let mut log = SalvageLog::new();
        let reader = PcapReader::parse_salvage(&bytes, &mut log).unwrap();
        prop_assert!(log.is_clean());
        prop_assert_eq!(reader.packets.len(), packets.len());
        for (parsed, (_, _, data)) in reader.packets.iter().zip(&packets) {
            prop_assert_eq!(parsed.data, data.as_slice());
        }
    }

    #[test]
    fn pcap_parser_never_panics(data in prop::collection::vec(any::<u8>(), 0..512)) {
        let mut log = SalvageLog::new();
        let _ = PcapReader::parse_salvage(&data, &mut log);
        prop_assert!(log.conserved());
    }

    #[test]
    fn tcp_segment_round_trips(
        src_port: u16, dst_port: u16, seq: u32, ack: u32,
        flags in 0u8..32,
        payload in prop::collection::vec(any::<u8>(), 0..600),
    ) {
        let seg = TcpSegment {
            src_mac: [2, 0, 0, 0, 0, 1],
            dst_mac: [2, 0, 0, 0, 0, 2],
            src_ip: [10, 0, 0, 1],
            dst_ip: [93, 1, 2, 3],
            src_port, dst_port, seq, ack,
            flags: TcpFlags(flags),
            payload: &payload,
        };
        let frame = seg.encode();
        prop_assert_eq!(TcpSegment::decode(&frame).unwrap(), seg);
    }

    #[test]
    fn frame_decoder_never_panics(data in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = TcpSegment::decode(&data);
    }

    #[test]
    fn single_bit_corruption_is_detected(
        payload in prop::collection::vec(any::<u8>(), 1..200),
        flip_byte_frac in 0.0f64..1.0,
        flip_bit in 0u8..8,
    ) {
        let seg = TcpSegment {
            src_mac: [2, 0, 0, 0, 0, 1],
            dst_mac: [2, 0, 0, 0, 0, 2],
            src_ip: [10, 0, 0, 1],
            dst_ip: [93, 1, 2, 3],
            src_port: 1000, dst_port: 443, seq: 1, ack: 2,
            flags: TcpFlags(TcpFlags::ACK),
            payload: &payload,
        };
        let mut frame = seg.encode();
        // Flip one bit somewhere after the MACs (MAC flips are undetectable
        // by checksums and that is faithful to real TCP/IP).
        let idx = 12 + ((frame.len() - 12 - 1) as f64 * flip_byte_frac) as usize;
        frame[idx] ^= 1 << flip_bit;
        prop_assert_ne!(TcpSegment::decode(&frame).ok(), Some(seg));
    }

    #[test]
    fn tls_seal_open_round_trips(
        seed: u64,
        sni in "[a-z]{1,10}\\.[a-z]{2,5}",
        flights in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..500), 1..5),
    ) {
        let mut rng = Rng::new(seed);
        let mut keylog = KeyLog::new();
        let mut session = TlsSession::open(&mut rng, &sni, Some(&mut keylog));
        let mut stream = session.client_hello();
        let mut expected = Vec::new();
        for flight in &flights {
            stream.extend(session.seal_client(flight));
            expected.extend_from_slice(flight);
        }
        let decoded = decode_client_stream(&stream, &keylog).unwrap();
        prop_assert_eq!(decoded.sni.as_deref(), Some(sni.as_str()));
        prop_assert_eq!(decoded.plaintext.unwrap(), expected);
    }

    #[test]
    fn tls_record_parser_never_panics(data in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = parse_records(&data);
    }

    #[test]
    fn reassembly_is_order_independent(
        seed: u64,
        chunks in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..50), 1..10),
    ) {
        // Build in-order data segments after a handshake, then feed them in
        // a seeded random order; the stream must reassemble identically.
        let mut expected = Vec::new();
        let mut segments = Vec::new();
        let mut seq: u32 = 101;
        for chunk in &chunks {
            segments.push(TcpSegment {
                src_mac: [2, 0, 0, 0, 0, 1],
                dst_mac: [2, 0, 0, 0, 0, 2],
                src_ip: [10, 0, 0, 1],
                dst_ip: [93, 1, 2, 3],
                src_port: 5000, dst_port: 443,
                seq, ack: 1,
                flags: TcpFlags(TcpFlags::ACK | TcpFlags::PSH),
                payload: chunk,
            });
            seq = seq.wrapping_add(chunk.len() as u32);
            expected.extend_from_slice(chunk);
        }
        let syn = TcpSegment {
            seq: 100, flags: TcpFlags(TcpFlags::SYN), payload: &[],
            ..segments[0]
        };
        let mut rng = Rng::new(seed);
        rng.shuffle(&mut segments);
        let mut table = FlowTable::new();
        table.push(&syn, 0);
        for (i, seg) in segments.iter().enumerate() {
            table.push(seg, i as u64 + 1);
        }
        prop_assert_eq!(table.flows()[0].client_stream_report(), (expected, None));
    }

    #[test]
    fn har_round_trips_arbitrary_bodies(
        bodies in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..100), 1..5),
        ts in 0u64..4_102_444_800_000u64,
    ) {
        let exchanges: Vec<Exchange> = bodies
            .iter()
            .enumerate()
            .map(|(i, body)| Exchange {
                timestamp_ms: ts,
                request: HttpRequest::post(
                    diffaudit_domains::Url::parse(&format!("https://h{i}.example.com/p")).unwrap(),
                    "application/octet-stream",
                    body.clone(),
                ),
                response: HttpResponse::ok(),
            })
            .collect();
        let har = har_from_exchanges(&exchanges).to_string();
        let back = har_to_exchanges(&har).unwrap();
        prop_assert_eq!(back.len(), exchanges.len());
        for (b, e) in back.iter().zip(&exchanges) {
            prop_assert_eq!(&b.request.body, &e.request.body);
            prop_assert_eq!(b.timestamp_ms, e.timestamp_ms);
        }
    }

    #[test]
    fn keylog_round_trips(entries in prop::collection::vec((any::<[u8; 32]>(), any::<[u8; 32]>()), 0..10)) {
        let mut log = KeyLog::new();
        for (cr, secret) in &entries {
            log.insert(*cr, *secret);
        }
        let parsed = KeyLog::parse(&log.to_file_string());
        for (cr, secret) in &entries {
            prop_assert_eq!(parsed.secret_for(cr), Some(secret));
        }
    }

    #[test]
    fn http_request_wire_round_trips(
        path in "(/[a-z0-9_-]{1,8}){1,3}",
        body in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let req = HttpRequest::post(
            diffaudit_domains::Url::parse(&format!("https://api.example.com{path}")).unwrap(),
            "application/octet-stream",
            body,
        );
        let wire = req.to_wire();
        let (parsed, consumed) = HttpRequest::parse_wire(&wire, "https").unwrap();
        prop_assert_eq!(consumed, wire.len());
        prop_assert_eq!(parsed, req);
    }
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
