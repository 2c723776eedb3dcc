//! Byte-identity pins for the salvage capture decoder.
//!
//! One fixed-seed capture is decoded with `decode_auto_salvage` clean, as
//! editcap-style pcapng, and under each of the ten `FaultOp` operators. Each
//! outcome (exchange wire bytes, opaque SNIs, packet/flow counts and the
//! salvage ledger rendered as JSON) is folded into one FNV-64 digest and
//! compared with a constant recorded from the copying decoder that preceded
//! the borrowed one. A change to framing, reassembly, TLS or HTTP decoding
//! that alters any decoded byte or ledger line on clean *or* damaged input
//! moves a digest.

use diffaudit_domains::Url;
use diffaudit_json::Json;
use diffaudit_nettrace::{
    decode_auto_salvage, inject_secrets, CaptureOptions, CaptureSession, Exchange, FaultOp,
    FaultSpec, HttpRequest, HttpResponse, KeyLog, SalvageLog,
};
use diffaudit_util::Fnv64;

/// A capture with pinned flows, reordering, small segments (many frames per
/// flow) and one request large enough to span several TLS records.
fn capture() -> (Vec<u8>, String) {
    let mut session = CaptureSession::new(CaptureOptions {
        seed: 2023,
        pinned_fraction: 0.3,
        mtu: 300,
        reorder_prob: 0.2,
        drop_prob: 0.0,
    });
    for i in 0..12u64 {
        let url = Url::parse(&format!(
            "https://h{}.example{}.com/v1/e?i={i}",
            i % 5,
            i % 3
        ))
        .expect("valid url");
        let request = if i % 4 == 3 {
            HttpRequest::get(url)
        } else {
            let filler = "x".repeat(if i == 5 { 40_000 } else { 40 * i as usize });
            let body = format!(r#"{{"user_id":"u-{i}","device":"d-{i}","pad":"{filler}"}}"#);
            HttpRequest::post(url, "application/json", body.into_bytes())
        };
        let mut response = HttpResponse::ok();
        response.body = format!(r#"{{"ok":{i}}}"#).into_bytes();
        session.capture(&Exchange {
            timestamp_ms: 1_700_000_000_000 + i * 1_000,
            request,
            response,
        });
    }
    session.finish()
}

fn ledger_json(log: &SalvageLog) -> String {
    let mut stages = Json::obj();
    for (stage, counts) in log.stages() {
        stages.set(
            stage.label(),
            Json::obj()
                .with("processed", Json::int(counts.processed as i64))
                .with("dropped", Json::int(counts.dropped as i64)),
        );
    }
    let drops = log
        .drops()
        .iter()
        .map(|d| {
            let mut obj = Json::obj()
                .with("stage", Json::str(d.stage.label()))
                .with("reason", Json::str(d.reason.clone()));
            if let Some(offset) = d.offset {
                obj.set("offset", Json::int(offset as i64));
            }
            obj
        })
        .collect();
    Json::obj()
        .with("stages", stages)
        .with("drops", Json::Arr(drops))
        .to_string()
}

/// Decode `bytes` with `keylog_text` and fold everything observable into one
/// digest.
fn digest(bytes: &[u8], keylog_text: &str) -> u64 {
    let mut h = Fnv64::new();
    let mut field = |data: &[u8]| {
        h.write(&(data.len() as u64).to_le_bytes());
        h.write(data);
    };
    let mut log = SalvageLog::new();
    match decode_auto_salvage(bytes, &KeyLog::parse(keylog_text), &mut log) {
        Ok(trace) => {
            field(&(trace.packet_count as u64).to_le_bytes());
            field(&(trace.flow_count as u64).to_le_bytes());
            for exchange in &trace.exchanges {
                field(&exchange.timestamp_ms.to_le_bytes());
                field(&exchange.request.to_wire());
                field(&exchange.response.to_wire());
            }
            for flow in &trace.opaque {
                field(flow.sni.as_deref().unwrap_or("<none>").as_bytes());
                field(&flow.server_port.to_le_bytes());
                field(&(flow.segment_count as u64).to_le_bytes());
            }
        }
        Err(e) => field(format!("error: {e}").as_bytes()),
    }
    field(ledger_json(&log).as_bytes());
    h.finish()
}

#[test]
fn clean_capture_decodes_byte_identically() {
    let (pcap, keylog_text) = capture();
    let pcapng = inject_secrets(&pcap, &KeyLog::parse(&keylog_text)).expect("valid pcap");
    let got = (digest(&pcap, &keylog_text), digest(&pcapng, ""));
    assert_eq!(
        got,
        (0x220a_d293_8e88_c5f6, 0xf47c_b0a8_ad7c_da6f),
        "{got:#018x?}"
    );
}

#[test]
fn damaged_captures_decode_byte_identically() {
    const EXPECTED: [(FaultOp, u64); 10] = [
        (FaultOp::TailTruncate, 0x3655_a0ba_e13c_c4e0),
        (FaultOp::BitFlip, 0x436a_0473_7a09_110e),
        (FaultOp::LyingLength, 0x1505_20e3_fa16_9fb0),
        (FaultOp::RecordDesync, 0x8a87_911e_e053_cc05),
        (FaultOp::SegmentDrop, 0xf897_e666_924a_5bf5),
        (FaultOp::SegmentReorder, 0xf4e5_fe43_b522_154d),
        (FaultOp::SegmentDuplicate, 0xecf1_8568_10aa_5998),
        (FaultOp::SegmentOverlap, 0x7ec1_f540_01ab_e44e),
        (FaultOp::KeylogDrop, 0xceed_0deb_dd11_ba40),
        (FaultOp::HarMangle, 0x220a_d293_8e88_c5f6),
    ];
    let (pcap, keylog_text) = capture();
    let mut mismatches = Vec::new();
    for (op, expected) in EXPECTED {
        let spec = FaultSpec {
            op,
            seed: 19,
            rate: if op == FaultOp::BitFlip { 0.0005 } else { 0.08 },
        };
        let got = digest(&spec.apply_pcap(&pcap), &spec.apply_keylog(&keylog_text));
        if got != expected {
            mismatches.push(format!("{op}: {got:#018x}"));
        }
    }
    assert!(mismatches.is_empty(), "{mismatches:#?}");
}
