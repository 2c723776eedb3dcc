//! Adversarial-input suite for the capture decoders.
//!
//! Companion to `diffaudit-analyzer`'s `no-panic` pass: the static gate
//! proves the parsers *textually* avoid panicking constructs; this suite
//! drives them with truncated, bit-flipped, and length-lying buffers and
//! asserts every outcome is a value or a typed `Err`, never a panic. Any
//! panic aborts the test process, so merely running to completion is the
//! property under test. The pcap/pcapng readers and the capture decoder are
//! the salvage ones the loader runs: besides not panicking, every sweep
//! position must leave the salvage ledger conserved, and a known lie must
//! surface as a drop record at its stage and byte offset.

use diffaudit_domains::Url;
use diffaudit_nettrace::packet::{TcpFlags, TcpSegment};
use diffaudit_nettrace::pcap::{PcapReader, PcapWriter};
use diffaudit_nettrace::pcapng::{inject_secrets, PcapngReader, PcapngWriter};
use diffaudit_nettrace::tls::{parse_records, ClientHello};
use diffaudit_nettrace::{
    decode_auto_salvage, har_from_exchanges, har_to_exchanges, har_to_exchanges_salvage, Exchange,
    HttpRequest, HttpResponse, KeyLog, SalvageLog, Stage,
};

fn sample_pcap() -> Vec<u8> {
    let mut w = PcapWriter::new();
    w.write_packet(1_700_000_000_000, b"first frame bytes");
    w.write_packet(1_700_000_000_250, b"second, longer frame payload....");
    w.finish()
}

fn sample_pcapng() -> Vec<u8> {
    let mut log = KeyLog::new();
    log.insert([9u8; 32], [8u8; 32]);
    let mut w = PcapngWriter::new();
    w.write_secrets(&log);
    w.write_packet(1_700_000_000_000, b"enhanced packet block body");
    w.finish()
}

fn sample_frame() -> Vec<u8> {
    let segment = TcpSegment {
        src_mac: [2, 0, 0, 0, 0, 1],
        dst_mac: [2, 0, 0, 0, 0, 2],
        src_ip: [10, 0, 0, 2],
        dst_ip: [93, 184, 216, 34],
        src_port: 49152,
        dst_port: 443,
        seq: 1000,
        ack: 2000,
        flags: TcpFlags(TcpFlags::ACK | TcpFlags::PSH),
        payload: b"GET / HTTP/1.1\r\n\r\n",
    };
    segment.encode()
}

/// Parse every strict prefix of `data`; the decoder must return (`Ok` or
/// `Err`), never panic.
fn truncation_sweep<T, E>(data: &[u8], parse: impl Fn(&[u8]) -> Result<T, E>) {
    for cut in 0..data.len() {
        let _ = parse(&data[..cut]);
    }
}

/// Flip each byte (all 8 bits at once) one position at a time and parse.
fn bitflip_sweep<T, E>(data: &[u8], parse: impl Fn(&[u8]) -> Result<T, E>) {
    let mut buf = data.to_vec();
    for i in 0..buf.len() {
        buf[i] ^= 0xFF;
        let _ = parse(&buf);
        buf[i] ^= 0xFF;
    }
}

/// Offset of `sample_pcap`'s second record: 24-byte global header, then
/// record 0's 16-byte header and 17 data bytes.
const SECOND_RECORD: u64 = 24 + 16 + 17;

/// The salvage log of reading `data` as pcap (its header must be usable).
fn pcap_log(data: &[u8]) -> SalvageLog {
    let mut log = SalvageLog::new();
    PcapReader::parse_salvage(data, &mut log).unwrap();
    log
}

/// The salvage log of reading `data` as pcapng (its SHB must be usable).
fn pcapng_log(data: &[u8]) -> SalvageLog {
    let mut log = SalvageLog::new();
    PcapngReader::parse_salvage(data, &mut log).unwrap();
    log
}

/// Assert `log` conserves and its first drop is at `stage` and `offset`.
fn assert_first_drop(log: &SalvageLog, stage: Stage, offset: u64) {
    assert!(log.conserved());
    let first = log.drops().first().expect("a drop record");
    assert_eq!(
        (first.stage, first.offset),
        (stage, Some(offset)),
        "{:?}",
        log.drops()
    );
}

#[test]
fn pcap_truncation_never_panics() {
    let data = sample_pcap();
    salvage_truncation_sweep(&data, |d, log| PcapReader::parse_salvage(d, log).map(drop));
    // A file one byte short loses its last record, at that record's offset.
    assert_first_drop(
        &pcap_log(&data[..data.len() - 1]),
        Stage::PcapRecord,
        SECOND_RECORD,
    );
}

#[test]
fn pcap_bitflips_never_panic() {
    salvage_bitflip_sweep(&sample_pcap(), |d, log| {
        PcapReader::parse_salvage(d, log).map(drop)
    });
}

#[test]
fn pcap_lying_length_fields_are_errors() {
    let mut data = sample_pcap();
    // First record's incl_len lives at offset 24 + 8. Claim u32::MAX bytes.
    data[32..36].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_first_drop(&pcap_log(&data), Stage::PcapRecord, 24);
    // Claim slightly more than is present.
    let mut data = sample_pcap();
    let lie = (data.len() as u32) + 1;
    data[32..36].copy_from_slice(&lie.to_le_bytes());
    assert_first_drop(&pcap_log(&data), Stage::PcapRecord, 24);
}

#[test]
fn pcapng_truncation_never_panics() {
    let data = sample_pcapng();
    salvage_truncation_sweep(&data, |d, log| {
        PcapngReader::parse_salvage(d, log).map(drop)
    });
}

#[test]
fn pcapng_bitflips_never_panic() {
    salvage_bitflip_sweep(&sample_pcapng(), |d, log| {
        PcapngReader::parse_salvage(d, log).map(drop)
    });
}

#[test]
fn pcapng_lying_block_lengths_are_errors() {
    // Block total length at offset 4 (SHB). Oversized claim → drop at 0.
    let mut data = sample_pcapng();
    data[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_first_drop(&pcapng_log(&data), Stage::PcapngBlock, 0);
    // Impossible (sub-minimum, unaligned) claims → drop at 0.
    for bad in [0u32, 4, 11, 13] {
        let mut data = sample_pcapng();
        data[4..8].copy_from_slice(&bad.to_le_bytes());
        assert_first_drop(&pcapng_log(&data), Stage::PcapngBlock, 0);
    }
}

#[test]
fn ethernet_ip_tcp_truncation_never_panics() {
    let data = sample_frame();
    truncation_sweep(&data, |d| TcpSegment::decode(d).map(drop));
    assert!(TcpSegment::decode(&data[..data.len() - 1]).is_err());
}

#[test]
fn ethernet_ip_tcp_bitflips_never_panic() {
    // decode verifies checksums, so most flips are errors; all must return.
    bitflip_sweep(&sample_frame(), |d| TcpSegment::decode(d).map(drop));
}

#[test]
fn ipv4_total_length_lies_are_errors() {
    // total_len below the 20-byte IPv4 header used to underflow; it must be
    // a decode error now.
    let mut data = sample_frame();
    data[16..18].copy_from_slice(&5u16.to_be_bytes()); // IPv4 total_len field
    assert!(TcpSegment::decode(&data).is_err());
}

#[test]
fn tls_records_survive_corruption() {
    let mut stream = Vec::new();
    let hello = ClientHello {
        client_random: [3u8; 32],
        sni: "api.example.com".into(),
    };
    // One handshake record framing the hello.
    stream.push(22u8);
    stream.extend_from_slice(&[0x03, 0x03]);
    let body = hello.encode();
    stream.extend_from_slice(&(body.len() as u16).to_be_bytes());
    stream.extend_from_slice(&body);

    truncation_sweep(&stream, |s| parse_records(s).map(drop));
    bitflip_sweep(&stream, |s| parse_records(s).map(drop));
    truncation_sweep(&body, |b| ClientHello::decode(b));

    // Record length claiming more than the stream carries → Truncated.
    let mut lying = stream.clone();
    let lie = (body.len() as u16) + 100;
    lying[3..5].copy_from_slice(&lie.to_be_bytes());
    assert!(parse_records(&lying).is_err());

    // SNI length claiming more than the hello body carries → error.
    let mut hello_lie = body.clone();
    hello_lie[33..35].copy_from_slice(&u16::MAX.to_be_bytes());
    assert!(ClientHello::decode(&hello_lie).is_err());
}

fn sample_har() -> String {
    let exchanges = vec![
        Exchange {
            timestamp_ms: 1_700_000_000_000,
            request: HttpRequest::post(
                Url::parse("https://api.example.com/events?sid=9").unwrap(),
                "application/json",
                br#"{"event":"page_view"}"#.to_vec(),
            ),
            response: HttpResponse::ok(),
        },
        Exchange {
            timestamp_ms: 1_700_000_000_250,
            request: HttpRequest::get(Url::parse("https://cdn.example.com/app.js").unwrap()),
            response: HttpResponse::ok(),
        },
    ];
    har_from_exchanges(&exchanges).to_pretty_string()
}

#[test]
fn har_truncation_never_panics() {
    let text = sample_har();
    let bytes = text.as_bytes();
    for cut in 0..bytes.len() {
        let lossy = String::from_utf8_lossy(&bytes[..cut]);
        let _ = har_to_exchanges(&lossy);
        let mut log = SalvageLog::new();
        let _ = har_to_exchanges_salvage(&lossy, &mut log);
        assert!(log.conserved());
    }
    // Every strict prefix is a document-level error.
    assert!(har_to_exchanges(&text[..text.len() - 1]).is_err());
}

#[test]
fn har_bitflips_never_panic() {
    let text = sample_har();
    let mut buf = text.into_bytes();
    for i in 0..buf.len() {
        buf[i] ^= 0xFF;
        let lossy = String::from_utf8_lossy(&buf);
        let _ = har_to_exchanges(&lossy);
        let mut log = SalvageLog::new();
        let _ = har_to_exchanges_salvage(&lossy, &mut log);
        assert!(log.conserved());
        buf[i] ^= 0xFF;
    }
}

/// Salvage-mode truncation sweep: besides never panicking, every sweep
/// position must leave the ledger internally consistent.
fn salvage_truncation_sweep<T, E>(
    data: &[u8],
    parse: impl Fn(&[u8], &mut SalvageLog) -> Result<T, E>,
) {
    for cut in 0..data.len() {
        let mut log = SalvageLog::new();
        let _ = parse(&data[..cut], &mut log);
        assert!(log.conserved(), "ledger broken at cut {cut}");
    }
}

/// Salvage-mode bit-flip sweep with the same ledger invariant.
fn salvage_bitflip_sweep<T, E>(
    data: &[u8],
    parse: impl Fn(&[u8], &mut SalvageLog) -> Result<T, E>,
) {
    let mut buf = data.to_vec();
    for i in 0..buf.len() {
        buf[i] ^= 0xFF;
        let mut log = SalvageLog::new();
        let _ = parse(&buf, &mut log);
        assert!(log.conserved(), "ledger broken at flip {i}");
        buf[i] ^= 0xFF;
    }
}

/// The whole capture decoder (container, frames, flows) over `d`.
fn decode(d: &[u8], log: &mut SalvageLog) -> Result<(), diffaudit_nettrace::capture::DecodeError> {
    decode_auto_salvage(d, &KeyLog::new(), log).map(drop)
}

#[test]
fn pcap_salvage_sweeps_never_panic_and_conserve() {
    // The container sweeps above, run through the full decoder the loader
    // calls: the frame and flow stages must conserve too.
    let data = sample_pcap();
    salvage_truncation_sweep(&data, decode);
    salvage_bitflip_sweep(&data, decode);
}

#[test]
fn pcapng_salvage_sweeps_never_panic_and_conserve() {
    // sample_pcapng carries a Decryption Secrets Block, so the sweeps also
    // exercise the DSB body parser and key-log merge under damage.
    let data = sample_pcapng();
    salvage_truncation_sweep(&data, decode);
    salvage_bitflip_sweep(&data, decode);
}

#[test]
fn editcap_injection_rejects_corrupt_pcap() {
    let log = KeyLog::new();
    let data = sample_pcap();
    for cut in 0..data.len().min(64) {
        let _ = inject_secrets(&data[..cut], &log);
    }
    assert!(inject_secrets(b"not a pcap at all", &log).is_err());
}

#[test]
fn editcap_injection_refuses_damaged_records() {
    // editcap never turns a damaged capture into a shorter clean one.
    let log = KeyLog::new();
    let mut w = PcapWriter::new();
    for i in 0..3u64 {
        w.write_packet(1_700_000_000_000 + i, format!("frame {i} bytes").as_bytes());
    }
    let data = w.finish();
    // Mid-file lying length: record 1's incl_len claims u32::MAX bytes.
    let record_1 = 24 + 16 + "frame 0 bytes".len();
    let mut lying = data.clone();
    lying[record_1 + 8..record_1 + 12].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(inject_secrets(&lying, &log).is_err());
    // Truncated tail: the last record loses its final bytes.
    assert!(inject_secrets(&data[..data.len() - 4], &log).is_err());
    assert!(inject_secrets(&data, &log).is_ok());
}
