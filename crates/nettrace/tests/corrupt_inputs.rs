//! Adversarial-input suite for the capture decoders.
//!
//! Companion to `diffaudit-analyzer`'s `no-panic` pass: the static gate
//! proves the parsers *textually* avoid panicking constructs; this suite
//! drives them with truncated, bit-flipped, and length-lying buffers and
//! asserts every outcome is a typed `Err` (or a clean parse), never a panic.
//! Any panic aborts the test process, so merely running to completion is the
//! property under test.

use diffaudit_domains::Url;
use diffaudit_nettrace::packet::{TcpFlags, TcpSegment};
use diffaudit_nettrace::pcap::{PcapReader, PcapWriter};
use diffaudit_nettrace::pcapng::{inject_secrets, PcapngReader, PcapngWriter};
use diffaudit_nettrace::tls::{parse_records, ClientHello};
use diffaudit_nettrace::{
    har_from_exchanges, har_to_exchanges, har_to_exchanges_salvage, Exchange, HttpRequest,
    HttpResponse, KeyLog, SalvageLog,
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

#[test]
fn pcap_truncation_never_panics() {
    let data = sample_pcap();
    truncation_sweep(&data, |d| PcapReader::parse(d).map(drop));
    // Every strict prefix shorter than a full file must be an error.
    assert!(PcapReader::parse(&data[..data.len() - 1]).is_err());
}

#[test]
fn pcap_bitflips_never_panic() {
    bitflip_sweep(&sample_pcap(), |d| PcapReader::parse(d).map(drop));
}

#[test]
fn pcap_lying_length_fields_are_errors() {
    let mut data = sample_pcap();
    // First record's incl_len lives at offset 24 + 8. Claim u32::MAX bytes.
    data[32..36].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(PcapReader::parse(&data).is_err());
    // Claim slightly more than is present.
    let mut data = sample_pcap();
    let lie = (data.len() as u32) + 1;
    data[32..36].copy_from_slice(&lie.to_le_bytes());
    assert!(PcapReader::parse(&data).is_err());
}

#[test]
fn pcapng_truncation_never_panics() {
    let data = sample_pcapng();
    truncation_sweep(&data, |d| PcapngReader::parse(d).map(drop));
}

#[test]
fn pcapng_bitflips_never_panic() {
    bitflip_sweep(&sample_pcapng(), |d| PcapngReader::parse(d).map(drop));
}

#[test]
fn pcapng_lying_block_lengths_are_errors() {
    // Block total length at offset 4 (SHB). Oversized claim → error.
    let mut data = sample_pcapng();
    data[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(PcapngReader::parse(&data).is_err());
    // Impossible (sub-minimum, unaligned) claims → error.
    for bad in [0u32, 4, 11, 13] {
        let mut data = sample_pcapng();
        data[4..8].copy_from_slice(&bad.to_le_bytes());
        assert!(PcapngReader::parse(&data).is_err(), "total={bad}");
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

#[test]
fn pcap_salvage_sweeps_never_panic_and_conserve() {
    let data = sample_pcap();
    salvage_truncation_sweep(&data, |d, log| PcapReader::parse_salvage(d, log).map(drop));
    salvage_bitflip_sweep(&data, |d, log| PcapReader::parse_salvage(d, log).map(drop));
}

#[test]
fn pcapng_salvage_sweeps_never_panic_and_conserve() {
    // sample_pcapng carries a Decryption Secrets Block, so the sweeps also
    // exercise the DSB body parser under damage.
    let data = sample_pcapng();
    salvage_truncation_sweep(&data, |d, log| {
        PcapngReader::parse_salvage(d, log).map(drop)
    });
    salvage_bitflip_sweep(&data, |d, log| {
        PcapngReader::parse_salvage(d, log).map(drop)
    });
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
