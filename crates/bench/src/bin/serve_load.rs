//! Load generator and smoke driver for the `diffaudit serve` daemon — the
//! producer of the committed `BENCH_serve.json` baseline.
//!
//! Every metrics read over HTTP goes through the daemon's `diffaudit-obs/v1`
//! JSON endpoint, `GET /api/v1/metrics`, parsed with `obs::parse_snapshot`;
//! the baseline is itself a `diffaudit-obs/v1` snapshot, so `diffaudit obs
//! diff` is its comparator.
//!
//! Modes:
//!
//! - `--mode load` (default): boots an in-process daemon with the default
//!   queue and workers and chaos enabled, and runs it so that every counter
//!   in the output is fixed by how the run is built, not by timing:
//!   1. *Hold the workers.* One `stall-decode` job per worker, with a 1 ms
//!      deadline, over the uploaded traces listed until they name
//!      [`HOLD_UNITS`] units. Each unit's first checkpoint sleeps 25 ms and
//!      then drops the unit as `timeout:`, so every worker is held for over
//!      a second by the same work every run. The harness waits for both
//!      jobs to start by reading the daemon's in-flight gauge in-process.
//!   2. *Burst.* Twice the queue capacity in submissions, one after another
//!      from one thread, with no retries: exactly the capacity is accepted
//!      (`202`) and as many are shed (`429`).
//!   3. *Scrape once.* One `GET /api/v1/metrics` while the queue is full:
//!      its `serve.queue.depth` gauge must equal the capacity and its
//!      `serve.queue.shed` counter the observed 429s.
//!   4. *Drain.* Wait in-process until every accepted job has finished, read
//!      `GET /api/v1/jobs` once (the stall jobs `salvaged`, the burst jobs
//!      `clean`), and shut down with no job orphaned.
//!
//!   No step polls over HTTP, so `serve.http.requests` is one per upload
//!   and key log, one per submission, plus the scrape, the list and the
//!   shutdown. The output is the process's metrics snapshot: the daemon's
//!   own series plus a `bench.serve.burst` span (burst to drain) and the
//!   `bench.serve.jobs` and `bench.serve.shed429` counters. Any deviation
//!   from the steps above is a hard failure (exit 1).
//!
//! - `--mode smoke-keep --target HOST:PORT`: drives an externally booted
//!   daemon through the whole client lifecycle (health, upload, a 4-job
//!   burst that a default daemon's queue holds without shedding, a mid-job
//!   `/api/v1/metrics` read that must parse and show a nonzero queue-depth
//!   gauge, poll, result, report) and exits 0 only if every step behaved.
//!   It leaves the daemon running so the caller can poke it further
//!   (`scripts/check.sh` runs `obs top --once` against it) before shutting
//!   it down with `--mode shutdown`.
//!
//! - `--mode shutdown --target HOST:PORT`: POST `/api/v1/shutdown` and
//!   expect `202` — the companion to `smoke-keep`.
//!
//! Usage: `serve_load [--scale F] [--seed N] [--threads N] [--out PATH]
//!         [--mode load|smoke-keep|shutdown] [--target HOST:PORT]`

use diffaudit_bench::{standard_dataset, BenchArgs};
use diffaudit_json::Json;
use diffaudit_obs as obs;
use diffaudit_serve::{client, names};
use diffaudit_serve::{ServeConfig, Server};
use diffaudit_services::{MemoryArtifact, MemoryUnit, ServiceCapture};
use std::time::{Duration, Instant};

/// Units each stall job lists. Every unit costs one stalled 25 ms
/// checkpoint, so the workers are held for at least a second: far longer
/// than the burst and the scrape take.
const HOLD_UNITS: usize = 40;

fn fail(msg: &str) -> ! {
    obs::error(msg, &[]);
    std::process::exit(1);
}

/// POST one unit's artifact to `/api/v1/traces` (plus its key log, for
/// captures); returns the trace id.
fn upload_unit(addr: &str, index: usize, unit: &MemoryUnit) -> String {
    let path = format!(
        "/api/v1/traces?label=unit-{index}&platform={}&kind={}&category={}",
        unit.platform.spelling(),
        unit.kind.spelling(),
        unit.category.spelling(),
    );
    let (body, keylog): (&[u8], _) = match &*unit.artifact {
        MemoryArtifact::Har(har) => (har.as_bytes(), None),
        MemoryArtifact::Capture { bytes, keylog } => (bytes, keylog.as_ref()),
    };
    let (status, text) = client::request_text(addr, "POST", &path, body)
        .unwrap_or_else(|e| fail(&format!("upload failed: {e}")));
    if status != 201 {
        fail(&format!("upload returned {status}: {text}"));
    }
    let doc = diffaudit_json::parse(&text)
        .unwrap_or_else(|e| fail(&format!("upload response not JSON: {e}")));
    let id = doc
        .get("traceId")
        .and_then(Json::as_str)
        .unwrap_or_else(|| fail("upload response missing traceId"))
        .to_string();
    if let Some(keylog) = keylog {
        let (status, _) = client::request_text(
            addr,
            "POST",
            &format!("/api/v1/traces/{id}/keylog"),
            keylog.as_bytes(),
        )
        .unwrap_or_else(|e| fail(&format!("keylog attach failed: {e}")));
        if status != 200 {
            fail(&format!("keylog attach returned {status}"));
        }
    }
    id
}

/// An audit job over `trace_ids` for `capture`'s service.
fn job_body(capture: &ServiceCapture, trace_ids: &[String]) -> Json {
    let spec = &capture.spec;
    Json::obj()
        .with(
            "service",
            Json::obj()
                .with("name", Json::str(spec.name))
                .with("slug", Json::str(spec.slug))
                .with(
                    "firstPartyDomains",
                    Json::Arr(
                        spec.first_party_domains
                            .iter()
                            .map(|d| Json::str(*d))
                            .collect(),
                    ),
                ),
        )
        .with(
            "traces",
            Json::Arr(trace_ids.iter().map(Json::str).collect()),
        )
        .with("deadlineMs", Json::int(60_000))
}

/// POST one job. A `202` returns the job id and a `429` returns `None`;
/// anything else is a hard failure. Nothing here retries.
fn submit(addr: &str, body: &str) -> Option<String> {
    let (status, text) = client::request_text(addr, "POST", "/api/v1/jobs", body.as_bytes())
        .unwrap_or_else(|e| fail(&format!("job submit failed: {e}")));
    match status {
        202 => Some(
            diffaudit_json::parse(&text)
                .unwrap_or_else(|e| fail(&format!("submit response not JSON: {e}")))
                .get("jobId")
                .and_then(Json::as_str)
                .unwrap_or_else(|| fail("submit response missing jobId"))
                .to_string(),
        ),
        429 => None,
        other => fail(&format!("job submit returned {other}: {text}")),
    }
}

/// Poll a job's status endpoint until it reaches a terminal state; returns
/// the final state label.
fn poll_to_terminal(addr: &str, job_id: &str, timeout: Duration) -> String {
    let deadline = Instant::now() + timeout;
    loop {
        let (status, text) =
            client::request_text(addr, "GET", &format!("/api/v1/jobs/{job_id}"), &[])
                .unwrap_or_else(|e| fail(&format!("status poll failed: {e}")));
        if status != 200 {
            fail(&format!("status poll returned {status}: {text}"));
        }
        let doc = diffaudit_json::parse(&text)
            .unwrap_or_else(|e| fail(&format!("status response not JSON: {e}")));
        let state = doc
            .get("state")
            .and_then(Json::as_str)
            .unwrap_or_else(|| fail("status response missing state"))
            .to_string();
        if state != "queued" && state != "running" {
            return state;
        }
        if Instant::now() > deadline {
            fail(&format!("job {job_id} still {state} after {timeout:?}"));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Read the daemon's `GET /api/v1/metrics` snapshot; `what` names the
/// read in failure messages. A transport error, a non-200 answer or a
/// document that does not parse is a hard failure.
fn scrape(addr: &str, what: &str) -> obs::MetricsSnapshot {
    let (status, text) = client::request_text(addr, "GET", "/api/v1/metrics", &[])
        .unwrap_or_else(|e| fail(&format!("{what} metrics read failed: {e}")));
    if status != 200 {
        fail(&format!("{what} metrics read returned {status}"));
    }
    obs::parse_snapshot(&text)
        .unwrap_or_else(|e| fail(&format!("{what} metrics snapshot malformed: {e}")))
}

fn gauge(snapshot: &obs::MetricsSnapshot, name: &str) -> i64 {
    snapshot.gauges.get(name).map_or(0, obs::Gauge::value)
}

/// Block until `ready` holds for this process's metrics. The load mode's
/// daemon runs in this process and writes the global registry, so the wait
/// sends no HTTP request and moves no counter.
fn wait_until(what: &str, ready: impl Fn(&obs::MetricsSnapshot) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(120);
    while !ready(&obs::snapshot()) {
        if Instant::now() > deadline {
            fail(&format!("timed out waiting for {what}"));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn mode_load(args: &BenchArgs, out: Option<String>) {
    args.announce("[serve_load] generating dataset");
    let dataset = standard_dataset(args);
    let capture = dataset
        .services
        .iter()
        .find(|s| s.spec.slug == "duolingo")
        .unwrap_or_else(|| fail("dataset has no duolingo service"));

    let config = ServeConfig {
        enable_chaos: true,
        ..ServeConfig::default()
    };
    let (capacity, workers) = (config.queue_capacity, config.workers);
    let server = Server::bind(config).unwrap_or_else(|e| fail(&format!("bind failed: {e}")));
    let addr = server
        .addr()
        .unwrap_or_else(|e| fail(&format!("no local addr: {e}")))
        .to_string();
    let daemon = std::thread::spawn(move || server.run());
    obs::info(
        "[serve_load] daemon up",
        &[obs::field("addr", addr.as_str())],
    );

    let trace_ids: Vec<String> = capture
        .artifacts
        .iter()
        .enumerate()
        .map(|(i, artifact)| upload_unit(&addr, i, &artifact.unit))
        .collect();

    // 1. Hold every worker on a stall job, and wait until each has started.
    let held: Vec<String> = trace_ids.iter().cycle().take(HOLD_UNITS).cloned().collect();
    let stall = job_body(capture, &held)
        .with("chaos", Json::str("stall-decode"))
        .with("deadlineMs", Json::int(1))
        .to_string();
    for _ in 0..workers {
        submit(&addr, &stall).unwrap_or_else(|| fail("a stall job was shed (429)"));
    }
    wait_until("the stall jobs to start", |s| {
        gauge(s, names::JOBS_IN_FLIGHT) == workers as i64
    });

    // 2. Burst: the held queue admits exactly its capacity.
    obs::info(
        "[serve_load] firing submission burst",
        &[
            obs::field("queueCapacity", capacity),
            obs::field("workers", workers),
        ],
    );
    let burst = obs::span("bench.serve.burst");
    let body = job_body(capture, &trace_ids).to_string();
    let submissions = 2 * capacity;
    let accepted = (0..submissions)
        .filter(|_| submit(&addr, &body).is_some())
        .count();
    let shed = submissions - accepted;
    if accepted != capacity {
        fail(&format!(
            "{accepted} of {submissions} submissions accepted; a held queue admits exactly {capacity}"
        ));
    }

    // 3. One scrape while the queue is full: the daemon's depth gauge and
    // shed counter must agree exactly with what the client saw.
    let scraped = scrape(&addr, "mid-burst");
    let depth = gauge(&scraped, names::QUEUE_DEPTH);
    if depth != capacity as i64 {
        fail(&format!(
            "serve.queue.depth read {depth} with the queue full at {capacity}"
        ));
    }
    let server_shed = scraped.metrics.counter(names::QUEUE_SHED);
    if server_shed != shed as u64 {
        fail(&format!(
            "server-side serve.queue.shed ({server_shed}) disagrees with client-observed 429s ({shed})"
        ));
    }

    // 4. Drain. Every job counted finished has begun, so an in-flight gauge
    // of 0 after that means every job's terminal state is written.
    let jobs = workers + capacity;
    wait_until("the queue to drain", |s| {
        s.metrics.counter(names::JOBS_FINISHED) + s.metrics.counter(names::JOBS_PANICKED)
            == jobs as u64
            && gauge(s, names::JOBS_IN_FLIGHT) == 0
    });
    drop(burst);
    let (status, text) = client::request_text(&addr, "GET", "/api/v1/jobs", &[])
        .unwrap_or_else(|e| fail(&format!("job list failed: {e}")));
    if status != 200 {
        fail(&format!("job list returned {status}: {text}"));
    }
    let listed = diffaudit_json::parse(&text)
        .unwrap_or_else(|e| fail(&format!("job list response not JSON: {e}")));
    let states: Vec<&str> = listed
        .get("jobs")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| fail("job list missing jobs"))
        .iter()
        .map(|job| job.get("state").and_then(Json::as_str).unwrap_or("?"))
        .collect();
    let expected: Vec<&str> = std::iter::repeat_n("salvaged", workers)
        .chain(std::iter::repeat_n("clean", capacity))
        .collect();
    if states != expected {
        fail(&format!("job states {states:?}, expected {expected:?}"));
    }

    mode_shutdown(&addr);
    let exit = daemon
        .join()
        .unwrap_or_else(|_| fail("daemon thread panicked"));
    if exit.orphaned != 0 || exit.jobs_finished != jobs {
        fail(&format!(
            "shutdown: {} jobs finished, {} orphaned; expected {jobs} and 0",
            exit.jobs_finished, exit.orphaned
        ));
    }

    obs::add("bench.serve.jobs", jobs as u64);
    obs::add("bench.serve.shed429", shed as u64);
    obs::info(
        "[serve_load] burst done",
        &[obs::field("jobs", jobs), obs::field("shed429", shed)],
    );
    // The baseline document is this process's snapshot, to `--out` or
    // stdout.
    let doc = obs::snapshot().to_json().to_pretty_string();
    match out {
        None => println!("{doc}"),
        Some(path) => {
            if let Err(err) = std::fs::write(&path, format!("{doc}\n")) {
                fail(&format!("cannot write snapshot to {path}: {err}"));
            }
            obs::info(
                "[serve_load] snapshot written",
                &[obs::field("path", path.as_str())],
            );
        }
    }
}

fn mode_smoke_keep(args: &BenchArgs, target: &str) {
    args.announce("[serve_load] smoke: generating one service");
    let dataset = standard_dataset(args);
    let (capture, unit) = dataset
        .services
        .iter()
        .flat_map(|s| s.artifacts.iter().map(move |a| (s, &a.unit)))
        .find(|(_, unit)| matches!(*unit.artifact, MemoryArtifact::Har(_)))
        .unwrap_or_else(|| fail("dataset has no HAR artifact"));

    let (status, text) = client::request_text(target, "GET", "/healthz", &[])
        .unwrap_or_else(|e| fail(&format!("healthz failed: {e}")));
    if status != 200 || !text.contains("\"ok\"") {
        fail(&format!("healthz returned {status}: {text}"));
    }

    let trace_id = upload_unit(target, 0, unit);
    let body = job_body(capture, &[trace_id]).to_string();

    // Submit a small burst (wider than the default 2 workers) so the
    // mid-job scrape below can observe a nonzero queue-depth gauge. The
    // default queue holds all four, so a 429 is a failure.
    let job_ids: Vec<String> = (0..4)
        .map(|_| {
            submit(target, &body)
                .unwrap_or_else(|| fail("smoke job shed (429) by a queue that holds it"))
        })
        .collect();

    // Mid-job telemetry: the metrics snapshot must parse while jobs are
    // live, and the queue-depth gauge must show the queued backlog.
    let scrape_deadline = Instant::now() + Duration::from_secs(10);
    let mut saw_depth = false;
    while Instant::now() < scrape_deadline {
        if gauge(&scrape(target, "mid-job"), names::QUEUE_DEPTH) >= 1 {
            saw_depth = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    if !saw_depth {
        fail("queue-depth gauge never went nonzero while 4 jobs were in flight");
    }

    for job_id in &job_ids {
        let state = poll_to_terminal(target, job_id, Duration::from_secs(120));
        if state != "clean" && state != "salvaged" {
            fail(&format!("smoke job {job_id} ended {state}"));
        }
    }
    let first_job = &job_ids[0];

    let (status, result) = client::request_text(
        target,
        "GET",
        &format!("/api/v1/jobs/{first_job}/result"),
        &[],
    )
    .unwrap_or_else(|e| fail(&format!("result fetch failed: {e}")));
    if !(status == 200 || status == 206) || !result.contains("\"services\"") {
        fail(&format!("result fetch returned {status}"));
    }
    let (status, report) = client::request_text(
        target,
        "GET",
        &format!("/api/v1/jobs/{first_job}/report"),
        &[],
    )
    .unwrap_or_else(|e| fail(&format!("report fetch failed: {e}")));
    if status != 200 || !report.contains("Table 4") {
        fail(&format!("report fetch returned {status}"));
    }

    obs::info(
        "[serve_load] smoke passed",
        &[obs::field("jobs", job_ids.len() as u64)],
    );
}

/// POST `/api/v1/shutdown` and expect `202` — the companion to
/// `--mode smoke-keep`, and the load mode's last request.
fn mode_shutdown(target: &str) {
    let (status, _) = client::request_text(target, "POST", "/api/v1/shutdown", &[])
        .unwrap_or_else(|e| fail(&format!("shutdown failed: {e}")));
    if status != 202 {
        fail(&format!("shutdown returned {status}"));
    }
}

fn main() {
    let (args, extra) = BenchArgs::parse_extra(&["--out", "--mode", "--target"]);
    let mut extra = extra.into_iter();
    let out = extra.next().flatten();
    let mode = extra.next().flatten().unwrap_or_else(|| "load".to_string());
    let target = extra.next().flatten();

    let require_target = |mode: &str| -> String {
        match &target {
            Some(target) => target.clone(),
            None => fail(&format!("--mode {mode} requires --target HOST:PORT")),
        }
    };
    match mode.as_str() {
        "load" => mode_load(&args, out),
        "smoke-keep" => mode_smoke_keep(&args, &require_target("smoke-keep")),
        "shutdown" => mode_shutdown(&require_target("shutdown")),
        other => fail(&format!(
            "unknown mode {other:?} (load|smoke-keep|shutdown)"
        )),
    }
}
