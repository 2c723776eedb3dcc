//! Micro-benchmarks for the capture substrate codecs: JSON, HAR, pcap,
//! Ethernet/IP/TCP framing, TCP reassembly, and the simulated TLS layer.
//!
//! Timed with the std-only [`diffaudit_bench::stopwatch`] harness; run with
//! `cargo bench -p diffaudit-bench --bench codecs`.

use diffaudit_bench::stopwatch::run;
use diffaudit_domains::Url;
use diffaudit_json::{flatten, parse, visit_keys};
use diffaudit_nettrace::packet::{TcpFlags, TcpSegment};
use diffaudit_nettrace::tls::{decode_client_stream, TlsSession};
use diffaudit_nettrace::{
    decode_auto_salvage, har_from_exchanges, har_to_exchanges, har_to_exchanges_salvage,
    CaptureOptions, CaptureSession, Exchange, HttpRequest, HttpResponse, KeyLog, PcapReader,
    SalvageLog,
};
use diffaudit_services::{generate_dataset_threads, DatasetOptions, MemoryArtifact};
use diffaudit_util::Rng;
use std::hint::black_box;

fn sample_exchange(i: usize) -> Exchange {
    let mut req = HttpRequest::post(
        Url::parse(&format!("https://api{i}.example.com/v1/events?sid={i}")).unwrap(),
        "application/json",
        format!(
            r#"{{"device_id":"dev-{i}","os":"android 13","events":[{{"ts":{i},"action":"play"}},{{"ts":{},"action":"pause"}}],"lang":"en-US"}}"#,
            i + 1
        )
        .into_bytes(),
    );
    req.headers.push("User-Agent", "bench/1.0");
    req.headers.push("Cookie", "sid=abc123; theme=dark");
    Exchange {
        timestamp_ms: 1_700_000_000_000 + i as u64,
        request: req,
        response: HttpResponse::ok(),
    }
}

const JSON_DOC: &str = r#"{"user":{"id":"u-1","profile":{"age":12,"lang":"en"},"events":[{"t":1,"k":"a"},{"t":2,"k":"b"},{"t":3,"k":"c"}]},"meta":{"v":"1.2.3","payload":"{\"nested\":true}"}}"#;

fn main() {
    let parsed = parse(JSON_DOC).unwrap();
    run("json/parse", || {
        black_box(parse(black_box(JSON_DOC)).unwrap());
    });
    run("json/flatten", || {
        black_box(flatten(black_box(&parsed)));
    });
    run("json/serialize", || {
        black_box(black_box(&parsed).to_string());
    });

    // One generated web unit (minecraft, seed 2023) and the largest JSON
    // request body in it: the shape the audit extracts keys from.
    let dataset = generate_dataset_threads(
        &DatasetOptions {
            seed: 2023,
            volume_scale: 0.05,
            mobile_pinned_fraction: 0.0,
            services: vec!["minecraft".into()],
        },
        1,
    );
    let unit_har = dataset.services[0]
        .artifacts
        .iter()
        .find_map(|a| match &*a.unit.artifact {
            MemoryArtifact::Har(har) => Some(har.clone()),
            MemoryArtifact::Capture { .. } => None,
        })
        .unwrap();
    let body = har_to_exchanges(&unit_har)
        .unwrap()
        .into_iter()
        .filter(|ex| ex.request.content_type() == Some("application/json"))
        .map(|ex| String::from_utf8(ex.request.body).unwrap())
        .max_by_key(String::len)
        .unwrap();
    run("json/visit_keys", || {
        let mut n = 0usize;
        visit_keys(black_box(&body), |key| n += key.len()).unwrap();
        black_box(n);
    });
    run("json/parse_flatten", || {
        let keys: usize = flatten(&parse(black_box(&body)).unwrap())
            .iter()
            .map(|e| e.key.len())
            .sum();
        black_box(keys);
    });
    run("har/decode_salvage", || {
        let mut log = SalvageLog::new();
        black_box(har_to_exchanges_salvage(black_box(&unit_har), &mut log).unwrap());
    });

    let exchanges: Vec<Exchange> = (0..50).map(sample_exchange).collect();
    let har = har_from_exchanges(&exchanges).to_string();
    run("har/serialize_50", || {
        black_box(har_from_exchanges(black_box(&exchanges)).to_string());
    });
    run("har/parse_50", || {
        black_box(har_to_exchanges(black_box(&har)).unwrap());
    });

    let capture_inputs: Vec<Exchange> = (0..20).map(sample_exchange).collect();
    let mut session = CaptureSession::new(CaptureOptions::default());
    for ex in &capture_inputs {
        session.capture(ex);
    }
    let (pcap, keylog_text) = session.finish();
    let keylog = KeyLog::parse(&keylog_text);
    run("capture/capture_20_exchanges", || {
        let mut s = CaptureSession::new(CaptureOptions::default());
        for ex in &capture_inputs {
            s.capture(ex);
        }
        black_box(s.finish());
    });
    // The salvage reader and decoder are the ones the CLI and daemon run.
    run("capture/pcap_parse_salvage", || {
        let mut log = SalvageLog::new();
        black_box(PcapReader::parse_salvage(black_box(&pcap), &mut log).unwrap());
    });
    run("capture/decode_auto_salvage", || {
        let mut log = SalvageLog::new();
        black_box(decode_auto_salvage(black_box(&pcap), black_box(&keylog), &mut log).unwrap());
    });

    // The two word-at-a-time kernels, each on its own. Deciphering a
    // 16 KiB client stream is keystream-bound; decoding a full-MSS frame
    // verifies the IPv4 and TCP checksums, so it is checksum-bound.
    let mut rng = Rng::new(7);
    let mut tls_keylog = KeyLog::new();
    let mut tls = TlsSession::open(&mut rng, "api.example.com", Some(&mut tls_keylog));
    let mut stream = tls.client_hello();
    let mut plaintext = vec![0u8; 16 * 1024];
    rng.fill_bytes(&mut plaintext);
    stream.extend(tls.seal_client(&plaintext));
    run("tls/decipher", || {
        black_box(decode_client_stream(black_box(&stream), &tls_keylog).unwrap());
    });
    let mss = vec![0x5Au8; 1460];
    let frame = TcpSegment {
        src_mac: [2, 0, 0, 0, 0, 1],
        dst_mac: [2, 0, 0, 0, 0, 2],
        src_ip: [10, 0, 0, 1],
        dst_ip: [93, 1, 2, 3],
        src_port: 40000,
        dst_port: 443,
        seq: 1,
        ack: 1,
        flags: TcpFlags(TcpFlags::ACK),
        payload: &mss,
    }
    .encode();
    run("packet/checksum", || {
        black_box(TcpSegment::decode(black_box(&frame)).unwrap());
    });
}
