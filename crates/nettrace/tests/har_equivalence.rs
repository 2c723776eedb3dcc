//! Byte-identity pins for the salvage HAR reader.
//!
//! Each case runs `har_to_exchanges_salvage` and folds everything
//! observable into one FNV-64 digest: every exchange field (its `Debug`
//! rendering), or the error string, and the salvage ledger rendered as
//! JSON. The constants were recorded from the whole-document reader that
//! preceded the per-entry one, so a change that alters a decoded byte, a
//! drop reason, an error message or a ledger line moves a digest.

use diffaudit_domains::Url;
use diffaudit_json::Json;
use diffaudit_nettrace::{
    har_from_exchanges, har_to_exchanges_salvage, Exchange, FaultOp, FaultSpec, HttpRequest,
    HttpResponse, SalvageLog,
};
use diffaudit_util::Fnv64;

/// A HAR with JSON, form, binary and empty request bodies, query strings,
/// cookies and binary response bodies.
fn fixed_har() -> String {
    let mut exchanges = Vec::new();
    for i in 0..10u64 {
        let url = Url::parse(&format!(
            "https://h{}.example{}.com/v1/e?i={i}&lang=en%2Dus",
            i % 4,
            i % 3
        ))
        .expect("valid url");
        let mut request = match i % 5 {
            0 => HttpRequest::get(url),
            1 => HttpRequest::post(
                url,
                "application/x-www-form-urlencoded",
                format!("email=u{i}%40x.com&age={i}").into_bytes(),
            ),
            2 => HttpRequest::post(url, "application/octet-stream", vec![0xFF, 0x00, i as u8]),
            _ => {
                let body = format!(
                    r#"{{"user_id":"u-{i}","geo":{{"lat":{i}.5}},"payload":"{{\"idfa\":\"a-{i}\"}}","tags":["x","é\n"]}}"#
                );
                HttpRequest::post(url, "application/json", body.into_bytes())
            }
        };
        request.headers.push("User-Agent", "Mozilla/5.0 (sim)");
        request.headers.push("Cookie", format!("sid=s{i}; ads=1"));
        let mut response = HttpResponse::ok();
        response.body = if i % 3 == 0 {
            vec![0x89, b'P', b'N', b'G', i as u8]
        } else {
            format!(r#"{{"ok":{i}}}"#).into_bytes()
        };
        response.headers.push("Content-Type", "application/json");
        exchanges.push(Exchange {
            timestamp_ms: 1_700_000_000_000 + i * 1_250,
            request,
            response,
        });
    }
    har_from_exchanges(&exchanges).to_pretty_string()
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

/// Fold one salvage read of `text` into `h`.
fn fold(h: &mut Fnv64, text: &str) {
    let mut field = |data: &[u8]| {
        h.write(&(data.len() as u64).to_le_bytes());
        h.write(data);
    };
    let mut log = SalvageLog::new();
    match har_to_exchanges_salvage(text, &mut log) {
        Ok(exchanges) => {
            field(&(exchanges.len() as u64).to_le_bytes());
            for exchange in &exchanges {
                field(format!("{exchange:?}").as_bytes());
            }
        }
        Err(e) => field(format!("error: {e}").as_bytes()),
    }
    field(ledger_json(&log).as_bytes());
}

fn digest(text: &str) -> u64 {
    let mut h = Fnv64::new();
    fold(&mut h, text);
    h.finish()
}

/// One well-formed entry at `second` with the given request method, URL
/// and extra request members.
fn entry(second: u32, method: &str, url: &str, extra: &str) -> String {
    format!(
        r#"{{"startedDateTime":"2023-10-05T14:30:{second:02}.000Z",
            "request":{{"method":"{method}","url":"{url}","headers":[{{"name":"X-A","value":"1"}}]{extra}}},
            "response":{{"status":200,"headers":[],"content":{{"mimeType":"text/plain","text":"ok"}}}}}}"#
    )
}

fn doc(entries: &[String]) -> String {
    format!(
        r#"{{"log":{{"version":"1.2","entries":[{}]}}}}"#,
        entries.join(",")
    )
}

#[test]
fn clean_har_decodes_byte_identically() {
    let text = fixed_har();
    let got = digest(&text);
    assert_eq!(got, 0x7b6c_d8f3_f3e8_4b92, "{got:#018x}");
    let mut log = SalvageLog::new();
    assert_eq!(
        har_to_exchanges_salvage(&text, &mut log).map(|e| e.len()),
        Ok(10)
    );
    assert!(log.is_clean());
}

#[test]
fn damaged_hars_decode_byte_identically() {
    const EXPECTED: [(FaultOp, u64); 3] = [
        (FaultOp::TailTruncate, 0x79cb_7b72_7e2e_c0a5),
        (FaultOp::BitFlip, 0x81ca_d128_8868_a3bf),
        (FaultOp::HarMangle, 0x2b1b_dcd0_816e_72bd),
    ];
    let text = fixed_har();
    let mut mismatches = Vec::new();
    for (op, expected) in EXPECTED {
        let mut h = Fnv64::new();
        for seed in 0..8 {
            for rate in [0.00002, 0.0002, 0.3] {
                fold(&mut h, &FaultSpec { op, seed, rate }.apply_har(&text));
            }
        }
        let got = h.finish();
        if got != expected {
            mismatches.push(format!("{op}: {got:#018x}"));
        }
    }
    assert!(mismatches.is_empty(), "{mismatches:#?}");
}

/// Hand-built documents for the lookup and drop rules: duplicate members
/// (lookup is last-wins), non-object entries, base64 bodies, bad fields and
/// document-level damage.
fn edge_cases() -> Vec<(&'static str, String)> {
    let good = |s| {
        entry(
            s,
            "POST",
            "https://a.example.com/p?q=1",
            r#","postData":{"mimeType":"application/json","text":"{\"k\":1}"}"#,
        )
    };
    vec![
        (
            "duplicate log",
            format!(
                r#"{{"log":{{"entries":[{}]}},"log":{{"entries":[{},{}]}}}}"#,
                good(1),
                good(2),
                good(3)
            ),
        ),
        (
            "duplicate entries",
            format!(
                r#"{{"log":{{"entries":[{},{}],"version":"1.2","entries":[{}]}}}}"#,
                good(1),
                good(2),
                good(3)
            ),
        ),
        (
            "duplicate request",
            doc(&[format!(
                r#"{{"startedDateTime":"2023-10-05T14:30:01.000Z",
                    "request":{{"method":"BREW","url":"nope"}},
                    "request":{{"method":"GET","url":"https://b.example.com/","headers":[],"method":"PUT"}},
                    "response":{{"status":201,"headers":[]}}}}"#
            )]),
        ),
        (
            "duplicate postData",
            doc(&[entry(
                4,
                "POST",
                "https://c.example.com/",
                r#","postData":{"text":"first"},"postData":{"text":"second","text":"third"}"#,
            )]),
        ),
        (
            "non-object entries",
            doc(&[good(1), "42".into(), "[]".into(), "null".into(), good(5)]),
        ),
        (
            "base64 bodies",
            doc(&[
                entry(
                    6,
                    "POST",
                    "https://d.example.com/",
                    r#","postData":{"encoding":"base64","text":"/wAB"}"#,
                ),
                entry(
                    7,
                    "POST",
                    "https://d.example.com/",
                    r#","postData":{"encoding":"base64","text":"not base64!"}"#,
                ),
                entry(
                    8,
                    "POST",
                    "https://d.example.com/",
                    r#","postData":{"encoding":"gzip","text":"plain"}"#,
                ),
                entry(
                    9,
                    "POST",
                    "https://d.example.com/",
                    r#","postData":"scalar""#,
                ),
            ]),
        ),
        (
            "bad method, url and timestamp",
            doc(&[
                entry(1, "BREW", "https://e.example.com/", ""),
                entry(2, "GET", "ftp://e.example.com/", ""),
                entry(3, "GET", "not a url", ""),
                good(4).replace("2023-10-05T14:30:04.000Z", "2023-13-05T14:30:04.000Z"),
                good(5).replace("\"startedDateTime\"", "\"startedDate\""),
                good(6).replace("\"status\":200", "\"status\":200.0"),
                good(7).replace("\"status\":200", "\"status\":70000"),
                good(8).replace(
                    r#""headers":[{"name":"X-A","value":"1"}]"#,
                    r#""headers":[{"name":"X-A"}]"#,
                ),
                good(9).replace(r#""headers":[]"#, r#""headers":{}"#),
                good(10).replace(r#""request":{"#, r#""request":7,"r":{"#),
            ]),
        ),
        (
            "syntax error after three good entries",
            format!(
                r#"{{"log":{{"entries":[{},{},{},{{"startedDateTime": tru}}]}}}}"#,
                good(1),
                good(2),
                good(3)
            ),
        ),
        ("trailing garbage", format!("{} x", doc(&[good(1)]))),
        ("no entries", r#"{"log":{"entries":{}}}"#.into()),
        ("root array", "[1]".into()),
        (
            "escaped member names",
            doc(&[good(1)
                .replace("\"request\"", "\"\\u0072equest\"")
                .replace("\"url\"", "\"u\\u0072l\"")]),
        ),
        (
            "members out of order",
            doc(&[format!(
                r#"{{"response":{{"headers":[],"status":204}},"time":1,
                    "request":{{"headers":[],"url":"https://f.example.com/x","method":"DELETE"}},
                    "startedDateTime":"2023-10-05T14:30:11Z"}}"#
            )]),
        ),
        (
            "drops then a syntax error",
            format!(
                r#"{{"log":{{"entries":[{},{}]}},"tail":[1,]}}"#,
                entry(1, "BREW", "https://g.example.com/", ""),
                good(2)
            ),
        ),
        (
            "too deep inside an entry",
            doc(&[good(1).replace(
                r#""mimeType":"text/plain""#,
                &format!(r#""deep":{}1{}"#, "[".repeat(130), "]".repeat(130)),
            )]),
        ),
        (
            "later log is not an object",
            format!(r#"{{"log":{{"entries":[{}]}},"log":5}}"#, good(1)),
        ),
    ]
}

#[test]
fn edge_documents_decode_byte_identically() {
    const EXPECTED: [u64; 16] = [
        0x4fde_9c4d_9ca5_677a,
        0xb183_ce4f_ee7b_4372,
        0x7cb2_02fb_4e2d_e716,
        0x9a8a_dbb9_1900_22df,
        0xd8a3_f687_62ca_a8c2,
        0xb5cb_2a33_f75c_4cd6,
        0x1e80_33f1_25c8_1e9f,
        0x23ed_1ae6_dce8_c66a,
        0xec8e_6eb1_08f6_7779,
        0xe064_8a35_ca4b_ca2c,
        0xe064_8a35_ca4b_ca2c,
        0x9ea8_46d0_0d13_b7d0,
        0x3666_7e4b_2f97_4ca4,
        0x0586_6eb9_5d7a_1a7a,
        0xa935_8c0a_95d6_22e9,
        0xe064_8a35_ca4b_ca2c,
    ];
    let mut mismatches = Vec::new();
    for ((name, text), expected) in edge_cases().iter().zip(EXPECTED) {
        let got = digest(text);
        if got != expected {
            mismatches.push(format!("{name}: {got:#018x}"));
        }
    }
    assert!(mismatches.is_empty(), "{mismatches:#?}");
}

#[test]
fn document_error_leaves_the_ledger_untouched() {
    let good = entry(1, "GET", "https://a.example.com/", "");
    let text = format!(r#"{{"log":{{"entries":[{good},{good},{good},{{"x": tru}}]}}}}"#);
    let mut log = SalvageLog::new();
    let err = har_to_exchanges_salvage(&text, &mut log).unwrap_err();
    assert!(
        err.to_string().starts_with("HAR is not valid JSON"),
        "{err}"
    );
    assert!(log.stages().next().is_none() && log.drops().is_empty());
}

/// The per-entry reader and the tree path (`parse` then
/// `har_json_to_exchanges`) agree on every document above, damaged or not.
#[test]
fn cursor_reader_matches_the_tree_reader() {
    use diffaudit_json::parse;
    use diffaudit_nettrace::har::har_json_to_exchanges;
    use diffaudit_nettrace::har_to_exchanges;
    let text = fixed_har();
    let mut docs: Vec<String> = edge_cases().into_iter().map(|(_, t)| t).collect();
    for op in [FaultOp::TailTruncate, FaultOp::BitFlip, FaultOp::HarMangle] {
        for seed in 0..8 {
            docs.push(
                FaultSpec {
                    op,
                    seed,
                    rate: 0.0002,
                }
                .apply_har(&text),
            );
        }
    }
    docs.push(text);
    for doc in &docs {
        let tree = parse(doc)
            .map_err(|e| diffaudit_nettrace::HarError::Json(e.to_string()))
            .and_then(|json| har_json_to_exchanges(&json));
        assert_eq!(har_to_exchanges(doc), tree, "on {doc:.200}");
    }
}
