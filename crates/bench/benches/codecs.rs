//! Micro-benchmarks for the capture substrate codecs: JSON, HAR, pcap,
//! Ethernet/IP/TCP framing, TCP reassembly, and the simulated TLS layer.
//!
//! Timed with the std-only [`diffaudit_bench::stopwatch`] harness; run with
//! `cargo bench -p diffaudit-bench --bench codecs`.

use diffaudit_bench::stopwatch::run;
use diffaudit_domains::Url;
use diffaudit_json::{flatten, parse};
use diffaudit_nettrace::{
    decode_pcap, har_from_exchanges, har_to_exchanges, CaptureOptions, CaptureSession, Exchange,
    HttpRequest, HttpResponse, KeyLog, PcapReader,
};
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
    run("capture/pcap_parse", || {
        black_box(PcapReader::parse(black_box(&pcap)).unwrap());
    });
    run("capture/decode_pcap_full", || {
        black_box(decode_pcap(black_box(&pcap), black_box(&keylog)).unwrap());
    });
}
