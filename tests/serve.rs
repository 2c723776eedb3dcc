//! End-to-end tests for the `diffaudit serve` daemon: the containment
//! properties (bounded queueing, deadlines, panic isolation, graceful
//! drain), the exit-style contract over HTTP, and byte-identity between a
//! daemon job's result document and the batch CLI on the same inputs.

use diffaudit_json::Json;
use diffaudit_serve::client;
use diffaudit_serve::{ServeConfig, Server, ServerExit};
use diffaudit_services::{
    generate_dataset, DatasetOptions, MemoryArtifact, MemoryUnit, ServiceCapture,
};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// ------------------------------------------------------------- harness

fn boot(config: ServeConfig) -> (String, JoinHandle<ServerExit>) {
    let server = Server::bind(config).expect("bind on 127.0.0.1:0");
    let addr = server.addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn shutdown_and_join(addr: &str, handle: JoinHandle<ServerExit>) -> ServerExit {
    let (status, _) =
        client::request_text(addr, "POST", "/api/v1/shutdown", &[]).expect("shutdown");
    assert_eq!(status, 202);
    handle.join().expect("daemon thread must not panic")
}

fn dataset_service(slug: &str) -> ServiceCapture {
    let dataset = generate_dataset(&DatasetOptions {
        seed: 21,
        volume_scale: 0.02,
        mobile_pinned_fraction: 0.0,
        services: vec![slug.into()],
    });
    dataset.services.into_iter().next().expect("one service")
}

/// Upload `body` as one trace with `unit`'s metadata under `label`;
/// returns the trace id.
fn upload(addr: &str, label: &str, unit: &MemoryUnit, body: &[u8]) -> String {
    let path = format!(
        "/api/v1/traces?label={label}&platform={}&kind={}&category={}",
        unit.platform.spelling(),
        unit.kind.spelling(),
        unit.category.spelling(),
    );
    upload_at(addr, &path, body)
}

/// `POST` one trace upload to `path`; returns the trace id.
fn upload_at(addr: &str, path: &str, body: &[u8]) -> String {
    let (status, text) = client::request_text(addr, "POST", path, body).expect("upload");
    assert_eq!(status, 201, "upload failed: {text}");
    diffaudit_json::parse(&text)
        .expect("upload response JSON")
        .get("traceId")
        .and_then(Json::as_str)
        .expect("traceId")
        .to_string()
}

fn attach_keylog(addr: &str, id: &str, keylog: &str) {
    let (status, text) = client::request_text(
        addr,
        "POST",
        &format!("/api/v1/traces/{id}/keylog"),
        keylog.as_bytes(),
    )
    .expect("keylog attach");
    assert_eq!(status, 200, "keylog attach failed: {text}");
}

/// Upload every artifact of `capture`; `corrupt_pcap` flips bytes in the
/// first pcap so its decode drops records (the chaos-damaged input).
fn upload_service(addr: &str, capture: &ServiceCapture, corrupt_pcap: bool) -> Vec<String> {
    let mut ids = Vec::new();
    let mut corrupted = false;
    for (i, artifact) in capture.artifacts.iter().enumerate() {
        let unit = &artifact.unit;
        let (body, keylog): (Vec<u8>, _) = match &*unit.artifact {
            MemoryArtifact::Har(har) => (har.clone().into_bytes(), None),
            MemoryArtifact::Capture {
                bytes: pcap,
                keylog,
            } => {
                let mut bytes = pcap.clone();
                if corrupt_pcap && !corrupted && bytes.len() > 100 {
                    let len = bytes.len();
                    for pos in [len / 3, len / 2, 2 * len / 3] {
                        bytes[pos] ^= 0xFF;
                    }
                    corrupted = true;
                }
                (bytes, keylog.as_ref())
            }
        };
        let id = upload(addr, &format!("unit-{i}"), unit, &body);
        if let Some(keylog) = keylog {
            attach_keylog(addr, &id, keylog);
        }
        ids.push(id);
    }
    assert!(
        !corrupt_pcap || corrupted,
        "no pcap was available to corrupt"
    );
    ids
}

fn job_body(capture: &ServiceCapture, trace_ids: &[String], extra: &[(&str, Json)]) -> String {
    let mut doc = Json::obj()
        .with(
            "service",
            Json::obj()
                .with("name", Json::str(capture.spec.name))
                .with("slug", Json::str(capture.spec.slug))
                .with(
                    "firstPartyDomains",
                    Json::Arr(
                        capture
                            .spec
                            .first_party_domains
                            .iter()
                            .map(|d| Json::str(*d))
                            .collect(),
                    ),
                ),
        )
        .with(
            "traces",
            Json::Arr(trace_ids.iter().map(Json::str).collect()),
        );
    for (key, value) in extra {
        doc.set(*key, value.clone());
    }
    doc.to_string()
}

/// Submit a job; panics on anything but `202`.
fn submit(addr: &str, body: &str) -> String {
    let (status, text) =
        client::request_text(addr, "POST", "/api/v1/jobs", body.as_bytes()).expect("submit");
    assert_eq!(status, 202, "submit failed: {text}");
    diffaudit_json::parse(&text)
        .expect("submit response JSON")
        .get("jobId")
        .and_then(Json::as_str)
        .expect("jobId")
        .to_string()
}

fn poll_to_terminal(addr: &str, job_id: &str) -> Json {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, text) =
            client::request_text(addr, "GET", &format!("/api/v1/jobs/{job_id}"), &[])
                .expect("status poll");
        assert_eq!(status, 200, "poll failed: {text}");
        let doc = diffaudit_json::parse(&text).expect("status JSON");
        let state = doc.get("state").and_then(Json::as_str).expect("state");
        if state != "queued" && state != "running" {
            return doc;
        }
        assert!(Instant::now() < deadline, "job {job_id} never finished");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn fetch_result(addr: &str, job_id: &str) -> (u16, String) {
    client::request_text(addr, "GET", &format!("/api/v1/jobs/{job_id}/result"), &[])
        .expect("result fetch")
}

// ---------------------------------------------------------------- tests

/// Two jobs on one daemon — a clean service and a chaos-damaged one —
/// finish concurrently with the CLI's exit contract mapped onto HTTP:
/// clean → 200/exit-style 0, salvaged → 206/exit-style 2 with a
/// degradation ledger, strict salvage → 422/exit-style 1.
#[test]
fn concurrent_clean_and_damaged_jobs_follow_the_exit_contract() {
    let (addr, handle) = boot(ServeConfig::default());
    let clean = dataset_service("duolingo");
    let damaged = dataset_service("tiktok");
    let clean_ids = upload_service(&addr, &clean, false);
    let damaged_ids = upload_service(&addr, &damaged, true);

    let clean_job = submit(&addr, &job_body(&clean, &clean_ids, &[]));
    let damaged_job = submit(&addr, &job_body(&damaged, &damaged_ids, &[]));
    let strict_job = submit(
        &addr,
        &job_body(&damaged, &damaged_ids, &[("strict", Json::Bool(true))]),
    );

    let clean_view = poll_to_terminal(&addr, &clean_job);
    assert_eq!(
        clean_view.get("state").and_then(Json::as_str),
        Some("clean")
    );
    assert_eq!(clean_view.get("exitStyle").and_then(Json::as_i64), Some(0));
    let (status, body) = fetch_result(&addr, &clean_job);
    assert_eq!(status, 200);
    assert!(body.contains("\"services\""));
    assert!(
        !body.contains("\"degradation\""),
        "clean result must not carry a ledger"
    );

    let damaged_view = poll_to_terminal(&addr, &damaged_job);
    assert_eq!(
        damaged_view.get("state").and_then(Json::as_str),
        Some("salvaged")
    );
    assert_eq!(
        damaged_view.get("exitStyle").and_then(Json::as_i64),
        Some(2)
    );
    let (status, body) = fetch_result(&addr, &damaged_job);
    assert_eq!(status, 206);
    let doc = diffaudit_json::parse(&body).expect("salvaged result JSON");
    let dropped = doc
        .get("degradation")
        .and_then(|d| d.get("dropped"))
        .and_then(Json::as_i64)
        .expect("ledger totals in salvaged result");
    assert!(dropped > 0, "salvaged job must report dropped records");

    let strict_view = poll_to_terminal(&addr, &strict_job);
    assert_eq!(
        strict_view.get("state").and_then(Json::as_str),
        Some("failed")
    );
    assert_eq!(strict_view.get("exitStyle").and_then(Json::as_i64), Some(1));
    let (status, _) = fetch_result(&addr, &strict_job);
    assert_eq!(status, 422);

    let exit = shutdown_and_join(&addr, handle);
    assert_eq!(exit.orphaned, 0);
    assert_eq!(exit.jobs_finished, 3);
}

/// Upload every unit of a capture directory written by `write_dataset`,
/// with the manifest's metadata and each unit labelled with its file name
/// (the label the disk loader gives it); returns the trace ids.
fn upload_dir(addr: &str, dir: &Path) -> Vec<String> {
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).expect("manifest");
    let manifest = diffaudit_json::parse(&manifest).expect("manifest JSON");
    let units = manifest.get("units").and_then(Json::as_arr).expect("units");
    let field = |unit: &Json, key: &str| unit.get(key).and_then(Json::as_str).map(str::to_string);
    let mut ids = Vec::new();
    for unit in units {
        let file = field(unit, "file").expect("unit file");
        let path = format!(
            "/api/v1/traces?label={file}&platform={}&kind={}&category={}",
            field(unit, "platform").expect("platform"),
            field(unit, "kind").expect("kind"),
            field(unit, "category").expect("category"),
        );
        let id = upload_at(
            addr,
            &path,
            &std::fs::read(dir.join(&file)).expect("artifact"),
        );
        if let Some(keylog) = field(unit, "keylog") {
            attach_keylog(
                addr,
                &id,
                &std::fs::read_to_string(dir.join(keylog)).expect("keylog"),
            );
        }
        ids.push(id);
    }
    ids
}

/// Flip a few spread-out bytes in the directory's first pcap (manifest
/// order), so decode drops records but the file header stays intact.
fn corrupt_first_pcap(dir: &Path) {
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).expect("manifest");
    let manifest = diffaudit_json::parse(&manifest).expect("manifest JSON");
    let victim = manifest
        .get("units")
        .and_then(Json::as_arr)
        .expect("units")
        .iter()
        .filter_map(|unit| unit.get("file").and_then(Json::as_str))
        .find(|file| file.ends_with(".pcap"))
        .map(|file| dir.join(file))
        .expect("a pcap artifact to corrupt");
    let mut bytes = std::fs::read(&victim).expect("pcap");
    let len = bytes.len();
    assert!(len > 100, "pcap too small to corrupt meaningfully");
    for pos in [len / 3, len / 2, 2 * len / 3] {
        bytes[pos] ^= 0xFF;
    }
    std::fs::write(&victim, bytes).expect("write corrupted pcap");
}

/// Run `diffaudit audit DIR` with `args`; returns the exit code and stdout.
fn cli_audit(dir: &Path, args: &[&str]) -> (Option<i32>, String) {
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_diffaudit"))
        .arg("audit")
        .arg(dir)
        .args(args)
        .args(["--log-level", "error"])
        .output()
        .expect("run batch CLI");
    let stdout = String::from_utf8(output.stdout).expect("CLI output UTF-8");
    (output.status.code(), stdout)
}

/// The run report a finished job serves, without the `Job metrics:`
/// document the daemon appends.
fn fetch_report_text(addr: &str, job_id: &str) -> String {
    let (status, report) =
        client::request_text(addr, "GET", &format!("/api/v1/jobs/{job_id}/report"), &[])
            .expect("report fetch");
    assert_eq!(status, 200, "{report}");
    match report.split_once("\nJob metrics:\n") {
        Some((text, _)) => text.to_string(),
        None => report,
    }
}

/// A daemon job over uploaded traces renders the same audit document and
/// the same text report, byte for byte, as `diffaudit audit --format json`
/// and `diffaudit audit` over the same artifacts written to disk — on a
/// clean service and on a salvaged one, where the daemon's state and the
/// CLI's exit code agree too.
#[test]
fn result_document_is_byte_identical_to_the_batch_cli() {
    let root = std::env::temp_dir().join(format!("diffaudit-serve-ident-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("temp dir");
    let dataset = generate_dataset(&DatasetOptions {
        seed: 21,
        volume_scale: 0.02,
        mobile_pinned_fraction: 0.0,
        services: vec!["quizlet".into(), "tiktok".into()],
    });
    let dirs: Vec<PathBuf> =
        diffaudit::loader::write_dataset(&dataset, &root).expect("write dataset");
    let damaged = dirs
        .iter()
        .position(|dir| dir.ends_with("tiktok"))
        .expect("tiktok directory");
    corrupt_first_pcap(&dirs[damaged]);

    let (addr, handle) = boot(ServeConfig::default());
    for (i, (dir, capture)) in dirs.iter().zip(&dataset.services).enumerate() {
        let (state, exit_code) = if i == damaged {
            ("salvaged", 2)
        } else {
            ("clean", 0)
        };
        let (code, cli_doc) = cli_audit(dir, &["--format", "json"]);
        assert_eq!(code, Some(exit_code), "{}", dir.display());
        let (code, cli_text) = cli_audit(dir, &[]);
        assert_eq!(code, Some(exit_code), "{}", dir.display());

        let ids = upload_dir(&addr, dir);
        let job = submit(&addr, &job_body(capture, &ids, &[]));
        let view = poll_to_terminal(&addr, &job);
        assert_eq!(view.get("state").and_then(Json::as_str), Some(state));
        assert_eq!(
            view.get("exitStyle").and_then(Json::as_i64),
            Some(i64::from(exit_code))
        );
        let (_, body) = fetch_result(&addr, &job);
        assert_eq!(
            body, cli_doc,
            "daemon result and batch CLI JSON must be byte-identical ({state})"
        );
        assert_eq!(
            fetch_report_text(&addr, &job),
            cli_text,
            "daemon report and batch CLI text must be byte-identical ({state})"
        );
    }
    let exit = shutdown_and_join(&addr, handle);
    assert_eq!(exit.orphaned, 0);
    let _ = std::fs::remove_dir_all(&root);
}

/// A burst of 8 concurrent submissions against queue capacity 4 and one
/// (busy) worker: at least 3 must be shed with `429 queue full`, and every
/// accepted job still reaches a terminal state.
#[test]
fn submission_burst_beyond_queue_capacity_sheds_with_429() {
    let (addr, handle) = boot(ServeConfig {
        queue_capacity: 4,
        workers: 1,
        enable_chaos: true,
        ..ServeConfig::default()
    });
    let capture = dataset_service("duolingo");
    let ids = upload_service(&addr, &capture, false);
    // Stalled decodes with a short deadline keep the worker pinned for the
    // whole burst, so admission is decided purely by queue capacity.
    let body = job_body(
        &capture,
        &ids,
        &[
            ("chaos", Json::str("stall-decode")),
            ("deadlineMs", Json::int(400)),
        ],
    );

    let results: Vec<u16> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let addr = addr.as_str();
                let body = body.as_str();
                scope.spawn(move || {
                    let (status, _) =
                        client::request_text(addr, "POST", "/api/v1/jobs", body.as_bytes())
                            .expect("submit");
                    status
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });
    let accepted = results.iter().filter(|&&s| s == 202).count();
    let shed = results.iter().filter(|&&s| s == 429).count();
    assert_eq!(accepted + shed, 8, "unexpected statuses: {results:?}");
    assert!(
        shed >= 3,
        "8 submissions vs capacity 4 + 1 worker must shed >=3, got {shed}"
    );
    assert!(
        accepted >= 4,
        "the queue must still admit jobs, got {accepted}"
    );

    // Server-side shed accounting must equal the client's observed 429s.
    // Asserting on the shared in-process global recorder is safe here
    // because this is the only in-process test that sheds load.
    let (status, text) =
        client::request_text(&addr, "GET", "/api/v1/metrics", &[]).expect("metrics");
    assert_eq!(status, 200);
    let counted = diffaudit_json::parse(&text)
        .expect("metrics JSON")
        .get("counters")
        .and_then(|c| c.get("serve.queue.shed"))
        .and_then(Json::as_i64)
        .unwrap_or(0);
    assert_eq!(
        counted as usize, shed,
        "serve.queue.shed must count exactly the observed 429s"
    );

    // Every accepted job reaches a terminal state; shed ones left no record.
    let (status, text) = client::request_text(&addr, "GET", "/api/v1/jobs", &[]).expect("list");
    assert_eq!(status, 200);
    let listed = diffaudit_json::parse(&text)
        .expect("list JSON")
        .get("jobs")
        .and_then(|j| j.as_arr().map(<[Json]>::len))
        .expect("jobs array");
    assert_eq!(
        listed, accepted,
        "shed submissions must not leave job records"
    );

    let exit = shutdown_and_join(&addr, handle);
    assert_eq!(exit.orphaned, 0);
    assert_eq!(exit.jobs_finished, accepted);
}

/// A stalled decoder is cut off at its deadline and lands as `salvaged`
/// with `timeout:` drop reasons (or `failed` under strict policy), while a
/// concurrent healthy job on the other worker completes clean.
#[test]
fn stalled_decoder_times_out_at_deadline_while_concurrent_jobs_complete() {
    let (addr, handle) = boot(ServeConfig {
        workers: 2,
        enable_chaos: true,
        ..ServeConfig::default()
    });
    let capture = dataset_service("duolingo");
    let ids = upload_service(&addr, &capture, false);

    let started = Instant::now();
    let stalled = submit(
        &addr,
        &job_body(
            &capture,
            &ids,
            &[
                ("chaos", Json::str("stall-decode")),
                ("deadlineMs", Json::int(300)),
            ],
        ),
    );
    let healthy = submit(&addr, &job_body(&capture, &ids, &[]));

    let healthy_view = poll_to_terminal(&addr, &healthy);
    assert_eq!(
        healthy_view.get("state").and_then(Json::as_str),
        Some("clean"),
        "the stalled job must not poison its neighbour"
    );

    let stalled_view = poll_to_terminal(&addr, &stalled);
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "deadline must cut the stall off, not let it run forever"
    );
    assert_eq!(
        stalled_view.get("state").and_then(Json::as_str),
        Some("salvaged"),
        "timed-out units are ledger drops, so the policy verdict is salvaged"
    );
    let (status, body) = fetch_result(&addr, &stalled);
    assert_eq!(status, 206);
    let doc = diffaudit_json::parse(&body).expect("salvaged result JSON");
    let reasons: Vec<String> = collect_drop_reasons(&doc);
    assert!(!reasons.is_empty(), "expected ledger drops in {body}");
    assert!(
        reasons.iter().all(|r| r.starts_with("timeout:")),
        "every drop must carry the timeout reason code: {reasons:?}"
    );

    // The same stall under strict policy is a hard failure (exit-style 1).
    let strict = submit(
        &addr,
        &job_body(
            &capture,
            &ids,
            &[
                ("chaos", Json::str("stall-decode")),
                ("deadlineMs", Json::int(300)),
                ("strict", Json::Bool(true)),
            ],
        ),
    );
    let strict_view = poll_to_terminal(&addr, &strict);
    assert_eq!(
        strict_view.get("state").and_then(Json::as_str),
        Some("failed")
    );
    assert_eq!(strict_view.get("exitStyle").and_then(Json::as_i64), Some(1));

    let exit = shutdown_and_join(&addr, handle);
    assert_eq!(exit.orphaned, 0);
}

fn collect_drop_reasons(doc: &Json) -> Vec<String> {
    let mut reasons = Vec::new();
    let services = doc
        .get("degradation")
        .and_then(|d| d.get("services"))
        .and_then(Json::as_arr)
        .unwrap_or(&[]);
    for service in services {
        for unit in service.get("units").and_then(Json::as_arr).unwrap_or(&[]) {
            for drop in unit.get("drops").and_then(Json::as_arr).unwrap_or(&[]) {
                if let Some(reason) = drop.get("reason").and_then(Json::as_str) {
                    reasons.push(reason.to_string());
                }
            }
        }
    }
    reasons
}

/// A job that panics is contained: its record says `panicked` (HTTP 500),
/// the single worker survives to run the next job, and the daemon still
/// drains cleanly.
#[test]
fn panicking_job_is_contained_and_the_worker_survives() {
    let (addr, handle) = boot(ServeConfig {
        workers: 1,
        enable_chaos: true,
        ..ServeConfig::default()
    });
    let capture = dataset_service("duolingo");
    let ids = upload_service(&addr, &capture, false);

    let doomed = submit(
        &addr,
        &job_body(&capture, &ids, &[("chaos", Json::str("panic"))]),
    );
    let view = poll_to_terminal(&addr, &doomed);
    assert_eq!(view.get("state").and_then(Json::as_str), Some("panicked"));
    assert_eq!(view.get("exitStyle").and_then(Json::as_i64), Some(1));
    let (status, body) = fetch_result(&addr, &doomed);
    assert_eq!(status, 500);
    assert!(
        body.contains("job panicked"),
        "panic result must carry an error document: {body}"
    );

    // The same (only) worker must still be alive to take the next job.
    let follow_up = submit(&addr, &job_body(&capture, &ids, &[]));
    let view = poll_to_terminal(&addr, &follow_up);
    assert_eq!(view.get("state").and_then(Json::as_str), Some("clean"));

    let exit = shutdown_and_join(&addr, handle);
    assert_eq!(exit.orphaned, 0);
    assert_eq!(exit.jobs_finished, 2);
}

/// Shutdown finishes in-flight and queued jobs before the daemon exits,
/// and the listener actually closes.
#[test]
fn graceful_drain_completes_queued_jobs() {
    let (addr, handle) = boot(ServeConfig {
        workers: 1,
        drain_deadline_ms: 60_000,
        ..ServeConfig::default()
    });
    let capture = dataset_service("duolingo");
    let ids = upload_service(&addr, &capture, false);
    let first = submit(&addr, &job_body(&capture, &ids, &[]));
    let second = submit(&addr, &job_body(&capture, &ids, &[]));
    assert!(!first.is_empty() && !second.is_empty());

    // Shut down while both jobs are still pending on the single worker.
    let exit = shutdown_and_join(&addr, handle);
    assert_eq!(
        exit.jobs_finished, 2,
        "drain must complete queued jobs, not abandon them"
    );
    assert_eq!(exit.orphaned, 0);
    assert!(
        std::net::TcpStream::connect(&addr).is_err(),
        "listener must be closed after drain"
    );
}

/// Transport-level robustness: garbage, oversized, and unknown requests
/// get error statuses; the daemon keeps serving afterwards.
#[test]
fn malformed_requests_get_4xx_and_never_kill_the_daemon() {
    let (addr, handle) = boot(ServeConfig::default());

    // Raw garbage on the socket → 400.
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    stream.write_all(b"\x00\xfegarbage\r\n\r\n").expect("write");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    assert!(response.starts_with("HTTP/1.1 400 "), "{response}");

    // Declared body beyond the 16 MiB default bound → 413 without reading
    // the body.
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    stream
        .write_all(b"POST /api/v1/traces HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n")
        .expect("write");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    assert!(response.starts_with("HTTP/1.1 413 "), "{response}");

    // Unknown endpoint, wrong method, missing resources, bad params.
    let (status, _) = client::request_text(&addr, "GET", "/nope", &[]).expect("req");
    assert_eq!(status, 404);
    let (status, _) = client::request_text(&addr, "DELETE", "/api/v1/jobs", &[]).expect("req");
    assert_eq!(status, 405);
    let (status, _) = client::request_text(&addr, "GET", "/api/v1/jobs/j-999", &[]).expect("req");
    assert_eq!(status, 404);
    let (status, _) =
        client::request_text(&addr, "GET", "/api/v1/jobs/j-999/result", &[]).expect("req");
    assert_eq!(status, 404);
    let (status, _) = client::request_text(
        &addr,
        "POST",
        "/api/v1/traces?platform=gameboy&kind=logged-in&category=child",
        b"not empty",
    )
    .expect("req");
    assert_eq!(status, 400);
    let (status, _) =
        client::request_text(&addr, "POST", "/api/v1/jobs", b"{not json").expect("req");
    assert_eq!(status, 400);
    // Chaos options are rejected when the daemon was not started with
    // chaos enabled.
    let capture = dataset_service("duolingo");
    let ids = upload_service(&addr, &capture, false);
    let (status, text) = client::request_text(
        &addr,
        "POST",
        "/api/v1/jobs",
        job_body(&capture, &ids, &[("chaos", Json::str("panic"))]).as_bytes(),
    )
    .expect("req");
    assert_eq!(status, 400, "{text}");
    // Job settings out of range, or of the wrong JSON type.
    for (key, value) in [
        ("threshold", Json::float(2.0)),
        ("threshold", Json::float(-0.5)),
        ("threshold", Json::str("high")),
        ("ensemble", Json::int(-1)),
        ("ensemble", Json::float(1.5)),
        ("maxDropPct", Json::str("5")),
        ("strict", Json::str("yes")),
        ("deadlineMs", Json::str("soon")),
        ("chaos", Json::int(1)),
    ] {
        let (status, text) = client::request_text(
            &addr,
            "POST",
            "/api/v1/jobs",
            job_body(&capture, &ids, &[(key, value.clone())]).as_bytes(),
        )
        .expect("req");
        assert_eq!(status, 400, "{key}: {value:?}: {text}");
    }

    // After all of that, the daemon still works end to end.
    let (status, text) = client::request_text(&addr, "GET", "/healthz", &[]).expect("health");
    assert_eq!(status, 200);
    assert!(text.contains("\"ok\""));
    let job = submit(&addr, &job_body(&capture, &ids, &[]));
    let view = poll_to_terminal(&addr, &job);
    assert_eq!(view.get("state").and_then(Json::as_str), Some("clean"));

    let exit = shutdown_and_join(&addr, handle);
    assert_eq!(exit.orphaned, 0);
}

// ------------------------------------------- live telemetry (subprocess)

/// One parsed exposition sample: the full series key (base name plus its
/// literal label block, if any) and the value.
struct ExpoSample {
    series: String,
    value: f64,
}

/// A deliberately independent, minimal Prometheus text-format parser.
/// The exposition is render-only in the workspace (repo tools read the
/// `diffaudit-obs/v1` JSON on `/api/v1/metrics`), so this parser is what
/// keeps the `GET /metrics` wire format itself under test.
fn parse_expo_lines(text: &str) -> Vec<ExpoSample> {
    let mut samples = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("exposition line has no value separator: {line:?}");
        });
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("unparseable sample value in {line:?}"));
        samples.push(ExpoSample {
            series: series.to_string(),
            value,
        });
    }
    samples
}

fn expo_value(samples: &[ExpoSample], series: &str) -> Option<f64> {
    samples.iter().find(|s| s.series == series).map(|s| s.value)
}

/// The live-telemetry contract, exercised against a daemon subprocess (a
/// subprocess because the assertions need a recorder this test binary's
/// other tests cannot touch): `GET /metrics` parses under concurrent
/// scraping while clean, damaged, and stalled jobs run; `_total` counters
/// never move backwards; the queue-depth gauge goes nonzero under load
/// and every lifecycle gauge returns to zero once the jobs drain; the
/// scraped clean job's result stays byte-identical to the batch CLI; and
/// `obs top --once` renders every row from the live daemon, then exits 1
/// once the daemon is gone.
#[test]
fn metrics_exposition_stays_consistent_under_concurrent_scraping() {
    use std::io::BufRead;
    use std::sync::atomic::{AtomicBool, Ordering};

    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_diffaudit"))
        .args([
            "serve",
            "--port",
            "0",
            "--queue",
            "8",
            "--workers",
            "1",
            "--chaos",
            "--log-level",
            "error",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn daemon subprocess");
    let stdout = child.stdout.take().expect("daemon stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let banner = lines
        .next()
        .expect("daemon prints its address")
        .expect("read banner");
    let addr = banner
        .strip_prefix("listening on http://")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();

    let clean = dataset_service("duolingo");
    let damaged = dataset_service("tiktok");
    let clean_ids = upload_service(&addr, &clean, false);
    let damaged_ids = upload_service(&addr, &damaged, true);

    // One worker: the stalled job pins it for its 800ms deadline while
    // the clean and damaged jobs queue behind — the scraper below must
    // observe a nonzero queue-depth gauge in that window.
    let stalled_job = submit(
        &addr,
        &job_body(
            &clean,
            &clean_ids,
            &[
                ("chaos", Json::str("stall-decode")),
                ("deadlineMs", Json::int(800)),
            ],
        ),
    );
    let clean_job = submit(&addr, &job_body(&clean, &clean_ids, &[]));
    let damaged_job = submit(&addr, &job_body(&damaged, &damaged_ids, &[]));

    let stop = AtomicBool::new(false);
    let (max_depth, scrapes) = std::thread::scope(|scope| {
        let scraper = scope.spawn(|| {
            let mut last_totals: std::collections::HashMap<String, f64> =
                std::collections::HashMap::new();
            let mut max_depth: f64 = 0.0;
            let mut scrapes = 0u64;
            while !stop.load(Ordering::SeqCst) {
                let (status, body) =
                    client::request_text(&addr, "GET", "/metrics", &[]).expect("scrape");
                assert_eq!(status, 200);
                let samples = parse_expo_lines(&body);
                assert!(
                    expo_value(&samples, "diffaudit_uptime_seconds").is_some(),
                    "exposition must carry the uptime gauge"
                );
                for sample in &samples {
                    let base = sample.series.split('{').next().unwrap_or("");
                    if !base.ends_with("_total") {
                        continue;
                    }
                    if let Some(previous) = last_totals.get(&sample.series) {
                        assert!(
                            sample.value >= *previous,
                            "counter {} moved backwards: {} -> {}",
                            sample.series,
                            previous,
                            sample.value
                        );
                    }
                    last_totals.insert(sample.series.clone(), sample.value);
                }
                if let Some(depth) = expo_value(&samples, "serve_queue_depth") {
                    max_depth = max_depth.max(depth);
                }
                scrapes += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
            (max_depth, scrapes)
        });

        let stalled_view = poll_to_terminal(&addr, &stalled_job);
        assert_eq!(
            stalled_view.get("state").and_then(Json::as_str),
            Some("salvaged")
        );
        let clean_view = poll_to_terminal(&addr, &clean_job);
        assert_eq!(
            clean_view.get("state").and_then(Json::as_str),
            Some("clean")
        );
        let damaged_view = poll_to_terminal(&addr, &damaged_job);
        assert_eq!(
            damaged_view.get("state").and_then(Json::as_str),
            Some("salvaged")
        );
        stop.store(true, Ordering::SeqCst);
        scraper.join().expect("scraper must not panic")
    });
    assert!(scrapes >= 10, "expected sustained scraping, got {scrapes}");
    assert!(
        max_depth >= 1.0,
        "queue-depth gauge never went nonzero while jobs were queued"
    );

    // All jobs terminal: every lifecycle gauge must be back at zero (the
    // busy-worker gauge decrements before the terminal phase is written,
    // so terminal phases imply the worker is already accounted free).
    let (status, body) = client::request_text(&addr, "GET", "/metrics", &[]).expect("scrape");
    assert_eq!(status, 200);
    let samples = parse_expo_lines(&body);
    for gauge in [
        "serve_queue_depth",
        "serve_jobs_in_flight",
        "serve_workers_busy",
    ] {
        assert_eq!(
            expo_value(&samples, gauge),
            Some(0.0),
            "{gauge} must return to zero after the jobs drain"
        );
    }

    // The live dashboard renders one frame from the daemon's JSON
    // snapshot: every row, with the three submissions counted.
    let top = obs_top_once(&addr);
    assert_eq!(top.status.code(), Some(0), "obs top --once must exit 0");
    let frame = String::from_utf8_lossy(&top.stderr);
    for row in [
        "diffaudit obs top",
        "  queue depth ",
        "  jobs: submitted 3 ",
        "  http: requests ",
        "  http latency: p50 ",
        "  resources: ",
    ] {
        assert!(frame.contains(row), "obs top frame lacks {row:?}:\n{frame}");
    }

    // The daemon samples its own RSS/CPU from /proc at boot, so on Linux
    // the exposition must carry the process resource series; elsewhere the
    // sampler degrades and the series are absent by design.
    if std::path::Path::new("/proc/self/statm").exists() {
        let rss = expo_value(&samples, "diffaudit_process_resident_bytes")
            .expect("daemon must export diffaudit_process_resident_bytes");
        assert!(rss > 0.0, "resident bytes must be positive, got {rss}");
        let cpu = expo_value(&samples, "diffaudit_process_cpu_seconds_total")
            .expect("daemon must export diffaudit_process_cpu_seconds_total");
        assert!(cpu >= 0.0, "cpu seconds must be non-negative, got {cpu}");
    }

    // Concurrent scraping must not perturb job results: the clean job's
    // document is byte-identical to the batch CLI on the same artifacts.
    let root = std::env::temp_dir().join(format!("diffaudit-serve-scrape-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("temp dir");
    let dataset = generate_dataset(&DatasetOptions {
        seed: 21,
        volume_scale: 0.02,
        mobile_pinned_fraction: 0.0,
        services: vec!["duolingo".into()],
    });
    let dirs: Vec<PathBuf> =
        diffaudit::loader::write_dataset(&dataset, &root).expect("write dataset");
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_diffaudit"))
        .arg("audit")
        .arg(&dirs[0])
        .args(["--format", "json", "--log-level", "error"])
        .output()
        .expect("run batch CLI");
    assert_eq!(output.status.code(), Some(0));
    let cli_doc = String::from_utf8(output.stdout).expect("CLI output UTF-8");
    let (status, daemon_doc) = fetch_result(&addr, &clean_job);
    assert_eq!(status, 200);
    assert_eq!(
        daemon_doc, cli_doc,
        "scraping must not perturb the audit document"
    );
    let _ = std::fs::remove_dir_all(&root);

    let (status, _) =
        client::request_text(&addr, "POST", "/api/v1/shutdown", &[]).expect("shutdown");
    assert_eq!(status, 202);
    let exit = child.wait().expect("daemon exit");
    assert_eq!(exit.code(), Some(0), "daemon must drain cleanly");

    // With the daemon gone, a first poll never connects: exit 1.
    let top = obs_top_once(&addr);
    assert_eq!(
        top.status.code(),
        Some(1),
        "obs top --once against a stopped daemon must exit 1"
    );
}

/// Run `diffaudit obs top --once ADDR` and capture its output.
fn obs_top_once(addr: &str) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_diffaudit"))
        .args(["obs", "top", "--once", addr])
        .output()
        .expect("run obs top")
}

/// Regression test for the `obs tail` restart stall: a client polling
/// with a cursor from a previous daemon incarnation (higher than the new
/// daemon's ring sequence) must receive the daemon's *own* ring position
/// back, not an echo of the stale cursor — echoing would let the client
/// poll past the new head forever. `client::next_cursor` then detects the
/// regression and resyncs.
#[test]
fn events_cursor_resyncs_after_a_ring_reset() {
    let (addr, handle) = boot(ServeConfig::default());

    // A cursor far beyond anything this daemon's ring has issued — the
    // client's view of a previous, longer-lived incarnation.
    let stale: u64 = 1 << 40;
    let (status, body) =
        client::request_text(&addr, "GET", &format!("/api/v1/events?since={stale}"), &[])
            .expect("events poll");
    assert_eq!(status, 200);
    let doc = diffaudit_json::parse(&body).expect("events JSON");
    assert_eq!(
        doc.get("events").and_then(Json::as_arr).map(|a| a.len()),
        Some(0),
        "nothing in the ring is newer than the stale cursor"
    );
    let server_cursor = doc
        .get("cursor")
        .and_then(Json::as_i64)
        .expect("cursor field") as u64;
    assert!(
        server_cursor < stale,
        "server must report its own ring position ({server_cursor}), not echo the stale cursor"
    );

    // The client helper detects the regression and adopts the new head...
    let (next, resynced) = client::next_cursor(stale, server_cursor);
    assert!(resynced, "a cursor below ours must trigger a resync");
    assert_eq!(next, server_cursor);

    // ...and from the resynced cursor, polling proceeds normally.
    let (status, body) =
        client::request_text(&addr, "GET", &format!("/api/v1/events?since={next}"), &[])
            .expect("events poll after resync");
    assert_eq!(status, 200);
    let doc = diffaudit_json::parse(&body).expect("events JSON");
    let follow_up = doc
        .get("cursor")
        .and_then(Json::as_i64)
        .expect("cursor field") as u64;
    let (_, resynced) = client::next_cursor(next, follow_up);
    assert!(!resynced, "a forward-moving cursor must not resync");

    let exit = shutdown_and_join(&addr, handle);
    assert_eq!(exit.orphaned, 0);
}

/// `/result` on a queued or running job answers 409 with the current
/// state, not a partial document.
#[test]
fn result_of_an_unfinished_job_is_409() {
    let (addr, handle) = boot(ServeConfig {
        workers: 1,
        enable_chaos: true,
        ..ServeConfig::default()
    });
    let capture = dataset_service("duolingo");
    let ids = upload_service(&addr, &capture, false);
    let job = submit(
        &addr,
        &job_body(
            &capture,
            &ids,
            &[
                ("chaos", Json::str("stall-decode")),
                ("deadlineMs", Json::int(2000)),
            ],
        ),
    );
    let (status, text) = fetch_result(&addr, &job);
    assert_eq!(status, 409, "{text}");
    assert!(text.contains("not finished"), "{text}");

    poll_to_terminal(&addr, &job);
    let (status, _) = fetch_result(&addr, &job);
    assert_eq!(status, 206);

    let exit = shutdown_and_join(&addr, handle);
    assert_eq!(exit.orphaned, 0);
}

/// Run `job` to completion; returns its result document and the job's
/// private metrics (the `Job metrics:` document its report ends with).
fn finished_job(addr: &str, job: &str) -> (String, Json) {
    poll_to_terminal(addr, job);
    let (status, body) = fetch_result(addr, job);
    assert_eq!(status, 200, "{body}");
    let (status, report) =
        client::request_text(addr, "GET", &format!("/api/v1/jobs/{job}/report"), &[])
            .expect("report fetch");
    assert_eq!(status, 200, "{report}");
    let (_, metrics) = report
        .split_once("\nJob metrics:\n")
        .expect("the report carries the job's metrics");
    let metrics = diffaudit_json::parse(metrics.trim()).expect("job metrics JSON");
    (body, metrics)
}

fn counter(metrics: &Json, name: &str) -> i64 {
    metrics
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_i64)
        .unwrap_or(0)
}

/// Attaching a key log to an uploaded capture is copy-on-write: a job
/// submitted before the attach keeps the keyless capture it was given
/// (every flow opaque, nothing decrypted), and a job submitted after it
/// audits exactly like one whose trace carried the key log from the start.
#[test]
fn keylog_attach_leaves_submitted_jobs_their_capture() {
    let (addr, handle) = boot(ServeConfig {
        workers: 1,
        enable_chaos: true,
        ..ServeConfig::default()
    });
    let capture = dataset_service("duolingo");
    let (unit, pcap, keylog) = capture
        .artifacts
        .iter()
        .find_map(|a| match &*a.unit.artifact {
            MemoryArtifact::Capture {
                bytes,
                keylog: Some(keylog),
            } => Some((&a.unit, bytes, keylog)),
            _ => None,
        })
        .expect("the service has a pcap+keylog unit");

    let late = upload(&addr, "unit", unit, pcap);
    // Occupy the only worker, so `before` is still queued when the key
    // log arrives and runs only after the attach.
    let stall = submit(
        &addr,
        &job_body(
            &capture,
            std::slice::from_ref(&late),
            &[
                ("chaos", Json::str("stall-decode")),
                ("deadlineMs", Json::int(300)),
            ],
        ),
    );
    let before = submit(&addr, &job_body(&capture, std::slice::from_ref(&late), &[]));
    attach_keylog(&addr, &late, keylog);
    let after = submit(&addr, &job_body(&capture, &[late], &[]));

    let early = upload(&addr, "unit", unit, pcap);
    attach_keylog(&addr, &early, keylog);
    let reference = submit(&addr, &job_body(&capture, &[early], &[]));

    poll_to_terminal(&addr, &stall);
    let (before_doc, before_metrics) = finished_job(&addr, &before);
    let (after_doc, after_metrics) = finished_job(&addr, &after);
    let (reference_doc, _) = finished_job(&addr, &reference);

    // `before` decoded the capture's TCP flows but, with no key log,
    // could open none of them.
    assert!(counter(&before_metrics, "salvage.tcp-flow.processed") > 0);
    assert_eq!(counter(&before_metrics, "salvage.keylog-line.processed"), 0);
    assert_eq!(
        counter(&before_metrics, "salvage.http-exchange.processed"),
        0
    );
    assert_eq!(counter(&before_metrics, "pipeline.exchanges"), 0);
    let before_keys = diffaudit_json::parse(&before_doc)
        .expect("result JSON")
        .get("uniqueRawKeys")
        .and_then(Json::as_i64);
    assert_eq!(before_keys, Some(0), "the keyless job must extract no keys");
    // `after` decrypted, and audits exactly like the key log being there
    // from the start.
    assert!(counter(&after_metrics, "pipeline.exchanges") > 0);
    assert_eq!(
        after_doc, reference_doc,
        "a job submitted after the attach must see the key log"
    );
    let exit = shutdown_and_join(&addr, handle);
    assert_eq!(exit.orphaned, 0);
}
