//! Capture-substrate walkthrough: the PCAPdroid → Wireshark path in code.
//!
//! ```sh
//! cargo run -p diffaudit --example capture_decode
//! ```
//!
//! Builds a handful of HTTPS exchanges, captures them into genuine pcap
//! bytes plus an `SSLKEYLOGFILE`-format key log (with one certificate-pinned
//! destination whose keys are withheld), writes both artifacts to a temp
//! directory, reads them back, and decodes: the pinned flow stays opaque but
//! still reveals its destination via the TLS SNI — exactly the behavior the
//! paper describes for its mobile captures.

use diffaudit_domains::Url;
use diffaudit_nettrace::{
    decode_auto_salvage, CaptureOptions, CaptureSession, Exchange, HttpRequest, HttpResponse,
    KeyLog, SalvageLog,
};

fn exchange(url: &str, body: &str) -> Exchange {
    Exchange {
        timestamp_ms: 1_696_500_000_000,
        request: HttpRequest::post(
            Url::parse(url).expect("valid URL"),
            "application/json",
            body.as_bytes().to_vec(),
        ),
        response: HttpResponse::ok(),
    }
}

fn main() -> std::io::Result<()> {
    // The pinned fraction is applied per destination host: with 0.35, some
    // hosts' TLS keys never reach the key log.
    let mut session = CaptureSession::new(CaptureOptions {
        seed: 12,
        pinned_fraction: 0.35,
        ..Default::default()
    });
    let exchanges = [
        exchange(
            "https://api.roblox.com/v1/join",
            r#"{"user_id":"u-1","avatar":"x9"}"#,
        ),
        exchange(
            "https://metrics.roblox.com/v2/e",
            r#"{"event":"spawn","session":"s-2"}"#,
        ),
        exchange(
            "https://t.appsflyer.com/collect",
            r#"{"idfa":"ab-12","os":"android 13"}"#,
        ),
        exchange(
            "https://stats.g.doubleclick.net/c",
            r#"{"aid":"zz-7","lang":"en-US"}"#,
        ),
    ];
    for ex in &exchanges {
        session.capture(ex);
    }
    println!(
        "captured {} flows / {} packets ({} certificate-pinned)",
        session.flow_count(),
        session.packet_count(),
        session.pinned_flow_count()
    );
    let (pcap, keylog_text) = session.finish();

    // Write the artifacts like PCAPdroid does, then read them back.
    let dir = std::env::temp_dir().join("diffaudit-capture-demo");
    std::fs::create_dir_all(&dir)?;
    let pcap_path = dir.join("trace.pcap");
    let keylog_path = dir.join("sslkeylog.txt");
    std::fs::write(&pcap_path, &pcap)?;
    std::fs::write(&keylog_path, &keylog_text)?;
    println!("wrote {} ({} bytes)", pcap_path.display(), pcap.len());
    println!(
        "wrote {} ({} sessions)",
        keylog_path.display(),
        KeyLog::parse(&keylog_text).len()
    );

    let pcap_back = std::fs::read(&pcap_path)?;
    let keylog_back = KeyLog::parse(&std::fs::read_to_string(&keylog_path)?);
    let mut log = SalvageLog::new();
    let decoded = decode_auto_salvage(&pcap_back, &keylog_back, &mut log).expect("valid capture");
    // Pinned flows are expected, not damage: an intact capture has no drops.
    assert!(
        log.is_clean(),
        "intact capture produced drops: {:?}",
        log.drops()
    );

    println!("\ndecoded {} flows:", decoded.flow_count);
    for ex in &decoded.exchanges {
        println!(
            "  [clear ] {} {} — {} payload bytes",
            ex.request.method,
            ex.request.url,
            ex.request.body.len()
        );
    }
    for opaque in &decoded.opaque {
        println!(
            "  [opaque] SNI {} — {} segments, payload undecryptable (pinned)",
            opaque.sni.as_deref().unwrap_or("<unknown>"),
            opaque.segment_count
        );
    }
    Ok(())
}
