//! Cross-crate format interoperability: the artifacts the generator writes
//! must round-trip through the same parsers an external deployment would
//! use, and the two capture paths (HAR vs pcap) must agree on content.

use diffaudit::extract::extract_request;
use diffaudit_nettrace::{
    decode_auto_salvage, har_to_exchanges, DecodedTrace, KeyLog, PcapReader, SalvageLog,
};
use diffaudit_services::{generate_dataset, DatasetOptions, MemoryArtifact, Platform, TraceKind};

fn dataset() -> diffaudit_services::GeneratedDataset {
    generate_dataset(&DatasetOptions {
        seed: 11,
        volume_scale: 0.04,
        mobile_pinned_fraction: 0.0, // full decryption for content comparison
        services: vec!["roblox".into()],
    })
}

/// Decode a generated (undamaged) capture: the salvage log must stay clean.
fn decode_clean(pcap: &[u8], keylog: &KeyLog) -> DecodedTrace {
    let mut log = SalvageLog::new();
    let decoded = decode_auto_salvage(pcap, keylog, &mut log).unwrap();
    assert!(
        log.is_clean(),
        "generated capture has drops: {:?}",
        log.drops()
    );
    decoded
}

/// Every HAR artifact parses, and entry counts match the generator's.
#[test]
fn har_artifacts_parse_and_count() {
    let ds = dataset();
    for artifact in &ds.services[0].artifacts {
        if let MemoryArtifact::Har(har) = &*artifact.unit.artifact {
            let exchanges = har_to_exchanges(har).expect("valid HAR");
            assert_eq!(exchanges.len(), artifact.exchange_count);
            for ex in &exchanges {
                assert_eq!(ex.request.url.scheme, "https");
            }
        }
    }
}

/// Every pcap artifact parses as a valid libpcap file whose packets all
/// decode as Ethernet/IPv4/TCP with valid checksums.
#[test]
fn pcap_artifacts_are_valid_captures() {
    let ds = dataset();
    for artifact in &ds.services[0].artifacts {
        if let MemoryArtifact::Capture { bytes: pcap, .. } = &*artifact.unit.artifact {
            let mut log = SalvageLog::new();
            let reader = PcapReader::parse_salvage(pcap, &mut log).expect("valid pcap container");
            assert!(log.is_clean(), "{:?}", log.drops());
            assert!(!reader.packets.is_empty());
            for packet in &reader.packets {
                diffaudit_nettrace::packet::TcpSegment::decode(&packet.data)
                    .expect("valid TCP frame");
            }
        }
    }
}

/// With pinning disabled, the mobile (pcap) decode path recovers exactly
/// the exchanges the generator produced, matching the HAR path's view of
/// the same trace profile: identical key sets flow through both decoders.
#[test]
fn pcap_and_har_paths_agree_on_extracted_keys() {
    let ds = dataset();
    let capture = &ds.services[0];
    // Compare the logged-out trace across platforms (same trace category,
    // same destination pools; volumes equal by construction).
    let web = capture
        .artifacts
        .iter()
        .find(|a| a.unit.platform == Platform::Web && a.unit.kind == TraceKind::LoggedOut)
        .expect("web logged-out unit");
    let mobile = capture
        .artifacts
        .iter()
        .find(|a| a.unit.platform == Platform::Mobile && a.unit.kind == TraceKind::LoggedOut)
        .expect("mobile logged-out unit");

    let MemoryArtifact::Har(web_har) = &*web.unit.artifact else {
        panic!("web unit without a HAR");
    };
    let MemoryArtifact::Capture {
        bytes,
        keylog: Some(keylog),
    } = &*mobile.unit.artifact
    else {
        panic!("mobile unit without a capture and key log");
    };
    let web_exchanges = har_to_exchanges(web_har).unwrap();
    let decoded = decode_clean(bytes, &KeyLog::parse(keylog));
    assert!(decoded.opaque.is_empty(), "pinning disabled");
    assert_eq!(decoded.exchanges.len(), mobile.exchange_count);

    // Both paths must surface classifiable keys from every exchange.
    for ex in web_exchanges.iter().chain(&decoded.exchanges) {
        let entries = extract_request(&ex.request);
        assert!(
            !entries.is_empty(),
            "no extractable keys in {} {}",
            ex.request.method,
            ex.request.url
        );
    }
}

/// The key-truth map covers every key either path extracts.
#[test]
fn ground_truth_covers_extracted_keys() {
    let ds = dataset();
    let capture = &ds.services[0];
    let mut checked = 0usize;
    for artifact in &capture.artifacts {
        let exchanges = match &*artifact.unit.artifact {
            MemoryArtifact::Har(har) => har_to_exchanges(har).unwrap(),
            MemoryArtifact::Capture { bytes, keylog } => {
                let keylog = KeyLog::parse(keylog.as_deref().unwrap());
                decode_clean(bytes, &keylog).exchanges
            }
        };
        for ex in exchanges {
            for entry in extract_request(&ex.request) {
                assert!(
                    ds.key_truth.contains_key(&entry.key),
                    "extracted key {:?} missing from ground truth",
                    entry.key
                );
                checked += 1;
            }
        }
    }
    assert!(
        checked > 1000,
        "expected substantial key volume, got {checked}"
    );
}
