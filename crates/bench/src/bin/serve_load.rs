//! Load generator and smoke driver for the `diffaudit serve` daemon — the
//! producer of the committed `BENCH_serve.json` baseline.
//!
//! Every metrics read goes through the daemon's `diffaudit-obs/v1` JSON
//! endpoint, `GET /api/v1/metrics`, parsed with `obs::parse_snapshot`; the
//! baseline is itself a `diffaudit-obs/v1` snapshot, so `diffaudit obs
//! diff` is its comparator.
//!
//! Modes:
//!
//! - `--mode load` (default): boots an in-process daemon with a bounded
//!   queue, fires a burst of concurrent job submissions wider than the
//!   queue (default 8 submitters vs capacity 4) so load shedding is
//!   actually exercised, retries shed submissions until accepted, and
//!   polls every job to a terminal state. A scraper thread reads
//!   `/api/v1/metrics` throughout the burst to prove scraping under load
//!   never wedges the accept loop. The output is the process's metrics
//!   snapshot: the daemon's own series (the `serve.queue.depth` gauge's
//!   `max` watermark is the burst's peak queue depth) plus a
//!   `bench.serve.burst` span, a `bench.serve.job.latency.us` histogram
//!   (submit-to-terminal, one value per job) and the `bench.serve.jobs`
//!   and `bench.serve.shed429` counters. Hard failures (exit 1): no
//!   submission was shed (the burst did not outrun the queue, so the
//!   numbers are meaningless), the server's `serve.queue.shed` counter
//!   disagrees with the client's observed 429s, or a job was orphaned at
//!   shutdown.
//!
//! - `--mode smoke-keep --target HOST:PORT`: drives an externally booted
//!   daemon through the whole client lifecycle (health, upload, a small
//!   multi-job burst, a mid-job `/api/v1/metrics` read that must parse and
//!   show a nonzero queue-depth gauge, poll, result, report) and exits 0
//!   only if every step behaved. It leaves the daemon running so the
//!   caller can poke it further (`scripts/check.sh` runs `obs top --once`
//!   against it) before shutting it down with `--mode shutdown`.
//!
//! - `--mode shutdown --target HOST:PORT`: POST `/api/v1/shutdown` and
//!   expect `202` — the companion to `smoke-keep`.
//!
//! Usage: `serve_load [--scale F] [--seed N] [--threads N] [--out PATH]
//!         [--mode load|smoke-keep|shutdown]
//!         [--target HOST:PORT] [--uploads N] [--queue N] [--workers N]`

use diffaudit_bench::{standard_dataset, BenchArgs};
use diffaudit_json::Json;
use diffaudit_obs as obs;
use diffaudit_serve::{client, names};
use diffaudit_serve::{ServeConfig, Server};
use diffaudit_services::{MemoryArtifact, MemoryUnit};
use std::time::{Duration, Instant};

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

fn job_body(service_name: &str, slug: &str, domains: &[String], trace_ids: &[String]) -> String {
    Json::obj()
        .with(
            "service",
            Json::obj()
                .with("name", Json::str(service_name))
                .with("slug", Json::str(slug))
                .with(
                    "firstPartyDomains",
                    Json::Arr(domains.iter().map(Json::str).collect()),
                ),
        )
        .with(
            "traces",
            Json::Arr(trace_ids.iter().map(Json::str).collect()),
        )
        .with("deadlineMs", Json::int(60_000))
        .to_string()
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

struct SubmitOutcome {
    shed: u64,
    latency_us: u64,
    state: String,
}

/// Submit one job, retrying shed (`429`) attempts, then poll it to a
/// terminal state. Latency is measured from the accepted submission.
fn submit_and_wait(addr: &str, body: &str) -> SubmitOutcome {
    let mut shed = 0u64;
    loop {
        let started = Instant::now();
        let (status, text) = client::request_text(addr, "POST", "/api/v1/jobs", body.as_bytes())
            .unwrap_or_else(|e| fail(&format!("job submit failed: {e}")));
        match status {
            202 => {
                let doc = diffaudit_json::parse(&text)
                    .unwrap_or_else(|e| fail(&format!("submit response not JSON: {e}")));
                let job_id = doc
                    .get("jobId")
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| fail("submit response missing jobId"))
                    .to_string();
                let state = poll_to_terminal(addr, &job_id, Duration::from_secs(120));
                return SubmitOutcome {
                    shed,
                    latency_us: u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
                    state,
                };
            }
            429 => {
                shed += 1;
                std::thread::sleep(Duration::from_millis(25));
            }
            other => fail(&format!("job submit returned {other}: {text}")),
        }
    }
}

fn mode_load(args: &BenchArgs, uploads: usize, queue: usize, workers: usize, out: Option<String>) {
    args.announce("[serve_load] generating dataset");
    let dataset = standard_dataset(args);
    let capture = dataset
        .services
        .iter()
        .find(|s| s.spec.slug == "duolingo")
        .unwrap_or_else(|| fail("dataset has no duolingo service"));

    let server = Server::bind(ServeConfig {
        port: 0,
        queue_capacity: queue,
        workers,
        threads_per_job: 1,
        ..ServeConfig::default()
    })
    .unwrap_or_else(|e| fail(&format!("bind failed: {e}")));
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
    let body = job_body(
        capture.spec.name,
        capture.spec.slug,
        &capture
            .spec
            .first_party_domains
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>(),
        &trace_ids,
    );

    obs::info(
        "[serve_load] firing submission burst",
        &[
            obs::field("uploads", uploads),
            obs::field("queueCapacity", queue),
            obs::field("workers", workers),
        ],
    );
    let burst = obs::span("bench.serve.burst");
    let stop_scraper = std::sync::atomic::AtomicBool::new(false);
    let (outcomes, scrapes) = std::thread::scope(|scope| {
        // Mid-burst scraper: reads the metrics snapshot while the
        // submitters hammer the queue, proving scraping under load never
        // wedges the accept loop. The peak queue depth needs no sampling:
        // the daemon's depth gauge keeps its own max watermark.
        let scraper = scope.spawn(|| {
            let mut scrapes = 0u64;
            while !stop_scraper.load(std::sync::atomic::Ordering::SeqCst) {
                scrape(&addr, "mid-burst");
                scrapes += 1;
                std::thread::sleep(Duration::from_millis(25));
            }
            scrapes
        });
        let handles: Vec<_> = (0..uploads)
            .map(|_| {
                let addr = addr.as_str();
                let body = body.as_str();
                scope.spawn(move || submit_and_wait(addr, body))
            })
            .collect();
        let outcomes: Vec<SubmitOutcome> = handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(outcome) => outcome,
                Err(_) => fail("submitter thread panicked"),
            })
            .collect();
        stop_scraper.store(true, std::sync::atomic::Ordering::SeqCst);
        let scrapes = match scraper.join() {
            Ok(scrapes) => scrapes,
            Err(_) => fail("scraper thread panicked"),
        };
        (outcomes, scrapes)
    });
    drop(burst);

    // Server-side shed accounting, read before shutdown: the daemon's own
    // counter must agree exactly with what the clients observed.
    let server = scrape(&addr, "final");
    let server_shed = server.metrics.counter(names::QUEUE_SHED);

    let (status, _) = client::request_text(&addr, "POST", "/api/v1/shutdown", &[])
        .unwrap_or_else(|e| fail(&format!("shutdown failed: {e}")));
    if status != 202 {
        fail(&format!("shutdown returned {status}"));
    }
    let exit = match daemon.join() {
        Ok(exit) => exit,
        Err(_) => fail("daemon thread panicked"),
    };
    if exit.orphaned != 0 {
        fail(&format!("{} jobs orphaned at shutdown", exit.orphaned));
    }

    let shed: u64 = outcomes.iter().map(|o| o.shed).sum();
    if shed == 0 {
        fail("no submission was shed (429): burst did not exceed the queue, numbers invalid");
    }
    if server_shed != shed {
        fail(&format!(
            "server-side serve.queue.shed ({server_shed}) disagrees with client-observed 429s ({shed})"
        ));
    }
    for outcome in &outcomes {
        obs::observe(
            "bench.serve.job.latency.us",
            &obs::LATENCY_US_BOUNDS,
            outcome.latency_us,
        );
    }
    obs::add("bench.serve.jobs", outcomes.len() as u64);
    obs::add("bench.serve.shed429", shed);
    let unclean = outcomes.iter().filter(|o| o.state != "clean").count();
    obs::info(
        "[serve_load] burst done",
        &[
            obs::field("jobs", outcomes.len()),
            obs::field("unclean", unclean),
            obs::field("shed429", shed),
            obs::field("scrapes", scrapes),
            obs::field(
                "maxQueueDepth",
                server
                    .gauges
                    .get(names::QUEUE_DEPTH)
                    .and_then(obs::Gauge::max)
                    .unwrap_or(0),
            ),
        ],
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

/// Submit one job without waiting; retries shed (`429`) attempts.
fn submit_only(addr: &str, body: &str) -> String {
    loop {
        let (status, text) = client::request_text(addr, "POST", "/api/v1/jobs", body.as_bytes())
            .unwrap_or_else(|e| fail(&format!("job submit failed: {e}")));
        match status {
            202 => {
                return diffaudit_json::parse(&text)
                    .unwrap_or_else(|e| fail(&format!("submit response not JSON: {e}")))
                    .get("jobId")
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| fail("submit response missing jobId"))
                    .to_string();
            }
            429 => std::thread::sleep(Duration::from_millis(25)),
            other => fail(&format!("job submit returned {other}: {text}")),
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
    let body = job_body(
        capture.spec.name,
        capture.spec.slug,
        &capture
            .spec
            .first_party_domains
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>(),
        &[trace_id],
    );

    // Submit a small burst (wider than the default 2 workers) so the
    // mid-job scrape below can observe a nonzero queue-depth gauge.
    let job_ids: Vec<String> = (0..4).map(|_| submit_only(target, &body)).collect();

    // Mid-job telemetry: the metrics snapshot must parse while jobs are
    // live, and the queue-depth gauge must show the queued backlog.
    let scrape_deadline = Instant::now() + Duration::from_secs(10);
    let mut saw_depth = false;
    while Instant::now() < scrape_deadline {
        if scrape(target, "mid-job")
            .gauges
            .get(names::QUEUE_DEPTH)
            .map_or(0, obs::Gauge::value)
            >= 1
        {
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

/// POST `/api/v1/shutdown` to an externally booted daemon — the
/// companion to `--mode smoke-keep`.
fn mode_shutdown(target: &str) {
    let (status, _) = client::request_text(target, "POST", "/api/v1/shutdown", &[])
        .unwrap_or_else(|e| fail(&format!("shutdown failed: {e}")));
    if status != 202 {
        fail(&format!("shutdown returned {status}"));
    }
}

fn main() {
    let (args, extra) = BenchArgs::parse_extra(&[
        "--out",
        "--mode",
        "--target",
        "--uploads",
        "--queue",
        "--workers",
    ]);
    let mut extra = extra.into_iter();
    let out = extra.next().flatten();
    let mode = extra.next().flatten().unwrap_or_else(|| "load".to_string());
    let target = extra.next().flatten();
    let parse_n = |v: Option<String>, name: &str, default: usize| -> usize {
        match v {
            None => default,
            Some(raw) => match raw.parse::<usize>() {
                Ok(n) if n >= 1 => n,
                _ => fail(&format!("{name} requires a positive integer")),
            },
        }
    };
    let uploads = parse_n(extra.next().flatten(), "--uploads", 8);
    let queue = parse_n(extra.next().flatten(), "--queue", 4);
    let workers = parse_n(extra.next().flatten(), "--workers", 2);

    let require_target = |mode: &str| -> String {
        match &target {
            Some(target) => target.clone(),
            None => fail(&format!("--mode {mode} requires --target HOST:PORT")),
        }
    };
    match mode.as_str() {
        "load" => mode_load(&args, uploads, queue, workers, out),
        "smoke-keep" => mode_smoke_keep(&args, &require_target("smoke-keep")),
        "shutdown" => mode_shutdown(&require_target("shutdown")),
        other => fail(&format!(
            "unknown mode {other:?} (load|smoke-keep|shutdown)"
        )),
    }
}
