//! The daemon: TCP accept loop, REST routing, the worker pool, and the
//! graceful-drain protocol.
//!
//! Architecture: a single-threaded HTTP front end (requests are small and
//! bounded — parse, mutate shared state, respond) over a pool of job
//! workers that do the actual audits. Uploads land in an in-memory trace
//! store; job submission snapshots the referenced traces into a
//! [`JobRequest`] and enqueues it, so later uploads never mutate a running
//! job. The snapshot shares each trace's bytes (`Arc`) rather than copying
//! them, and a key-log attach replaces the stored artifact copy-on-write.
//!
//! ## REST surface (`/api/v1`)
//!
//! | method | path | purpose |
//! |---|---|---|
//! | POST | `/traces?label&platform&kind&category` | upload HAR/pcap/pcapng body → `{"traceId"}` |
//! | POST | `/traces/<id>/keylog` | attach an `SSLKEYLOGFILE` to a capture |
//! | POST | `/jobs` | enqueue an audit → `202` / `429 queue full` / `503 draining` |
//! | GET | `/jobs` | list job statuses |
//! | GET | `/jobs/<id>` | one job's status |
//! | GET | `/jobs/<id>/result` | audit JSON; HTTP status mirrors the exit contract |
//! | GET | `/jobs/<id>/report` | text run report |
//! | GET | `/metrics` | global metrics snapshot, `diffaudit-obs/v1` JSON |
//! | GET | `/events?since` | retained warn/error ring, for live tailing |
//! | POST | `/shutdown` | begin graceful drain |
//!
//! Outside the `/api/v1` prefix:
//!
//! | method | path | purpose |
//! |---|---|---|
//! | GET | `/metrics` | the same registry as Prometheus text (counters, gauges, histogram buckets), for external scrapers |
//! | GET | `/healthz` | liveness + queue depth |
//!
//! The repo's own clients (`obs top`, the serve bench) read the JSON
//! snapshot. Every routed request feeds per-endpoint × status-class
//! latency histograms plus queue/in-flight/busy gauges (see
//! [`crate::names`]).
//!
//! ## Drain protocol
//!
//! `shutdown` flips the draining flag (new submissions get `503`), the
//! accept loop exits, the queue closes. Workers finish running jobs and
//! drain what is already queued. If anything is still unfinished at the
//! drain deadline, every active job's cancel token is tripped and the
//! cooperative checkpoints get a grace period to unwind; whatever still
//! survives is counted as orphaned and reported in [`ServerExit`] — a
//! nonzero orphan count is the operator's signal that a job ignored its
//! checkpoints.
//!
//! SIGTERM handling is a supervisor concern: pure-std cannot trap
//! signals, so process managers should send `POST /shutdown` first and
//! SIGKILL after a timeout (see DESIGN.md §9).

use crate::config::ServeConfig;
use crate::http::{self, HttpError, Request, Response};
use crate::job::{JobCompletion, JobPhase, JobRecord, JobTable, JobView};
use crate::names;
use crate::queue::{BoundedQueue, PushError};
use crate::runner::{self, ChaosMode, JobRequest};
use diffaudit::loader::{MemoryArtifact, MemoryService, MemoryUnit};
use diffaudit::salvage::SalvagePolicy;
use diffaudit_json::{parse, Json};
use diffaudit_obs as obs;
use diffaudit_services::{Platform, TraceCategory, TraceKind};
use diffaudit_util::cancel::CancelToken;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Read/write timeout on accepted connections: a stalled client must not
/// wedge the accept loop.
const CONN_TIMEOUT: Duration = Duration::from_secs(5);

/// An uploaded artifact waiting to be referenced by jobs.
#[derive(Clone)]
struct StoredTrace {
    label: String,
    platform: Platform,
    kind: TraceKind,
    category: TraceCategory,
    /// Shared with every job that references the trace, so a submission
    /// clones a pointer, not the upload.
    artifact: Arc<MemoryArtifact>,
}

struct QueuedJob {
    id: String,
    request: JobRequest,
}

/// State shared between the accept loop and the workers.
struct Shared {
    config: ServeConfig,
    traces: Mutex<HashMap<String, StoredTrace>>,
    jobs: JobTable,
    queue: BoundedQueue<QueuedJob>,
    draining: AtomicBool,
    next_trace: AtomicU64,
    next_job: AtomicU64,
}

impl Shared {
    fn traces(&self) -> MutexGuard<'_, HashMap<String, StoredTrace>> {
        match self.traces.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// What a finished daemon reports to its supervisor.
#[derive(Debug, Clone, Copy)]
pub struct ServerExit {
    /// Jobs that reached a terminal phase.
    pub jobs_finished: usize,
    /// Jobs still unfinished after drain + cancellation + grace. Nonzero
    /// means a job ignored its cancellation checkpoints.
    pub orphaned: usize,
}

/// A bound, not-yet-running daemon. [`Server::bind`] then [`Server::run`];
/// the two-step split lets tests learn the ephemeral port before starting
/// the accept loop on another thread.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind the listening socket on 127.0.0.1 and set up shared state.
    pub fn bind(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_capacity).with_depth_gauge(names::QUEUE_DEPTH),
            config,
            traces: Mutex::new(HashMap::new()),
            jobs: JobTable::new(),
            draining: AtomicBool::new(false),
            next_trace: AtomicU64::new(0),
            next_job: AtomicU64::new(0),
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Run the accept loop until a shutdown request, then drain. Consumes
    /// the server; returns the drain accounting.
    pub fn run(self) -> ServerExit {
        let shared = self.shared;
        let workers: Vec<std::thread::JoinHandle<()>> = (0..shared.config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();

        for conn in self.listener.incoming() {
            let mut stream = match conn {
                Ok(stream) => stream,
                Err(_) => continue,
            };
            let _ = stream.set_read_timeout(Some(CONN_TIMEOUT));
            let _ = stream.set_write_timeout(Some(CONN_TIMEOUT));
            let response = match http::read_request(&mut stream, shared.config.max_body_bytes) {
                Ok(request) => route(&shared, &request),
                Err(error) => transport_error_response(&error),
            };
            let _ = response.write_to(&mut stream);
            if shared.draining.load(Ordering::SeqCst) {
                break;
            }
        }
        drop(self.listener);

        // Drain: close intake, let workers finish running + queued jobs.
        shared.queue.close();
        let drain_deadline =
            Instant::now() + Duration::from_millis(shared.config.drain_deadline_ms);
        while shared.jobs.unfinished() > 0 && Instant::now() < drain_deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        // Past the deadline: cancel survivors and give the cooperative
        // checkpoints a grace period to unwind.
        if shared.jobs.unfinished() > 0 {
            obs::warn(
                "drain deadline exceeded; cancelling jobs",
                &[obs::field("unfinished", shared.jobs.unfinished())],
            );
            for token in shared.jobs.active_tokens() {
                token.cancel();
            }
            let grace = Instant::now() + Duration::from_millis(shared.config.drain_grace_ms);
            while shared.jobs.unfinished() > 0 && Instant::now() < grace {
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        let orphaned = shared.jobs.unfinished();
        if orphaned == 0 {
            // Workers have no more work and no stuck job: join them so
            // their final table writes land before we report.
            for worker in workers {
                let _ = worker.join();
            }
        } else {
            // A worker is wedged inside a job that ignores cancellation.
            // Joining would hang the drain; leak the thread and report the
            // orphan instead (the supervisor escalates to SIGKILL).
            obs::warn(
                "orphaned jobs at shutdown",
                &[obs::field("orphaned", orphaned)],
            );
        }
        obs::flush();
        ServerExit {
            jobs_finished: shared.jobs.finished(),
            orphaned,
        }
    }
}

/// One worker: pop, run under `catch_unwind`, record, repeat. A panicking
/// job is recorded as that job's `panicked` phase; the worker itself
/// survives and returns to the queue.
fn worker_loop(shared: &Arc<Shared>) {
    while let Some(QueuedJob { id, request }) = shared.queue.pop() {
        let Some(token) = shared.jobs.begin(&id) else {
            continue;
        };
        let threads = shared.config.threads_per_job.max(1);
        // The busy gauge brackets the catch_unwind region from outside:
        // instrumentation must stay out of the unwind-contained job body
        // (the par-discipline pass enforces this), and decrementing before
        // the completion write means a terminal phase always implies the
        // worker is already accounted free.
        obs::gauge_add(names::WORKERS_BUSY, 1);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            runner::run_job(request, token, threads)
        }));
        obs::gauge_sub(names::WORKERS_BUSY, 1);
        match outcome {
            Ok(output) => {
                // The one sanctioned join point: the job is over, its
                // private snapshot merges into the global registry.
                if let Some(snapshot) = output.metrics {
                    obs::global().merge(snapshot.metrics);
                }
                obs::add(names::JOBS_FINISHED, 1);
                shared.jobs.complete(&id, output.completion);
            }
            Err(payload) => {
                let reason = panic_message(payload.as_ref());
                obs::add(names::JOBS_PANICKED, 1);
                obs::warn(
                    "job panicked; worker contained it",
                    &[
                        obs::field("job", id.as_str()),
                        obs::field("reason", reason.as_str()),
                    ],
                );
                let doc = Json::obj()
                    .with("error", Json::str(format!("job panicked: {reason}")))
                    .to_pretty_string();
                shared.jobs.complete(
                    &id,
                    JobCompletion {
                        phase: JobPhase::Panicked,
                        result_json: doc,
                        report: None,
                        metrics_json: None,
                        error: Some(reason),
                    },
                );
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn transport_error_response(error: &HttpError) -> Response {
    match error {
        HttpError::Malformed(msg) => Response::error(400, &format!("malformed request: {msg}")),
        HttpError::TooLarge { limit } => {
            Response::error(413, &format!("request body exceeds {limit} bytes"))
        }
        HttpError::Io(_) => Response::error(400, "request read failed"),
    }
}

// ------------------------------------------------------------- routing

/// Route one request, wrapped in per-request instrumentation: an access
/// span, the request counters (total + sliding window), and the
/// per-endpoint × status-class latency histograms. Endpoint and status
/// both come from closed matches in [`names`], so the series set is
/// bounded no matter what clients send.
fn route(shared: &Arc<Shared>, request: &Request) -> Response {
    let _span = obs::span(names::HTTP_SPAN);
    let started = Instant::now();
    let path = request.path().to_string();
    let segments: Vec<&str> = path.trim_matches('/').split('/').collect();
    let endpoint = names::endpoint_class(&segments);
    let response = dispatch(shared, request, &segments);
    let elapsed_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    obs::add(names::HTTP_REQUESTS, 1);
    obs::window_add(names::HTTP_REQUESTS_WINDOW, 1);
    obs::observe(
        names::http_latency(endpoint, response.status),
        &obs::LATENCY_US_BOUNDS,
        elapsed_us,
    );
    obs::window_observe(
        names::HTTP_LATENCY_WINDOW,
        &obs::LATENCY_US_BOUNDS,
        elapsed_us,
    );
    response
}

fn dispatch(shared: &Arc<Shared>, request: &Request, segments: &[&str]) -> Response {
    match (request.method.as_str(), segments) {
        ("GET", ["healthz"]) => health(shared),
        ("GET", ["metrics"]) => Response::exposition(obs::render_exposition(&obs::snapshot())),
        ("POST", ["api", "v1", "traces"]) => upload_trace(shared, request),
        ("POST", ["api", "v1", "traces", id, "keylog"]) => attach_keylog(shared, id, request),
        ("POST", ["api", "v1", "jobs"]) => submit_job(shared, request),
        ("GET", ["api", "v1", "jobs"]) => list_jobs(shared),
        ("GET", ["api", "v1", "jobs", id]) => job_status(shared, id),
        ("GET", ["api", "v1", "jobs", id, "result"]) => job_result(shared, id),
        ("GET", ["api", "v1", "jobs", id, "report"]) => job_report(shared, id),
        ("GET", ["api", "v1", "metrics"]) => {
            Response::json(200, obs::snapshot().to_json().to_pretty_string())
        }
        ("GET", ["api", "v1", "events"]) => events(request),
        ("POST", ["api", "v1", "shutdown"]) => shutdown(shared),
        (_, ["healthz"])
        | (_, ["metrics"])
        | (_, ["api", "v1", "traces", ..])
        | (_, ["api", "v1", "jobs", ..])
        | (_, ["api", "v1", "metrics"])
        | (_, ["api", "v1", "events"])
        | (_, ["api", "v1", "shutdown"]) => Response::error(405, "method not allowed"),
        _ => Response::error(404, "no such endpoint"),
    }
}

/// `GET /api/v1/events?since=<cursor>`: the retained warn/error event
/// ring, for `diffaudit obs tail`. The cursor is the ring sequence of the
/// newest event returned; pass it back to receive only newer events.
///
/// With nothing new to return, the cursor is the daemon's *own* ring
/// position rather than an echo of `since`: after a daemon restart the
/// ring sequence restarts from zero, and echoing a stale high cursor back
/// would let the client poll past the new head forever. Returning the
/// authoritative position lets `obs tail` detect the regression and
/// resync.
fn events(request: &Request) -> Response {
    let since = request
        .query_param("since")
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0);
    let events = obs::events_since(since);
    let cursor = events
        .last()
        .map(|e| e.seq)
        .unwrap_or_else(|| obs::global().ring_cursor());
    let doc = Json::obj()
        .with("schema", Json::str("diffaudit-events/v1"))
        .with("cursor", Json::int(cursor as i64))
        .with(
            "events",
            Json::Arr(events.iter().map(obs::RingEvent::to_json).collect()),
        );
    Response::json(200, doc.to_pretty_string())
}

fn health(shared: &Arc<Shared>) -> Response {
    let draining = shared.draining.load(Ordering::SeqCst);
    let doc = Json::obj()
        .with(
            "status",
            Json::str(if draining { "draining" } else { "ok" }),
        )
        .with("queueDepth", Json::int(shared.queue.len() as i64))
        .with("unfinishedJobs", Json::int(shared.jobs.unfinished() as i64));
    Response::json(200, doc.to_pretty_string())
}

fn parse_platform(s: &str) -> Option<Platform> {
    match s.to_ascii_lowercase().as_str() {
        "web" => Some(Platform::Web),
        "mobile" => Some(Platform::Mobile),
        "desktop" => Some(Platform::Desktop),
        _ => None,
    }
}

fn parse_kind(s: &str) -> Option<TraceKind> {
    match s.to_ascii_lowercase().as_str() {
        "account-creation" | "account_creation" => Some(TraceKind::AccountCreation),
        "logged-in" | "logged_in" => Some(TraceKind::LoggedIn),
        "logged-out" | "logged_out" => Some(TraceKind::LoggedOut),
        _ => None,
    }
}

fn parse_category(s: &str) -> Option<TraceCategory> {
    match s.to_ascii_lowercase().as_str() {
        "child" => Some(TraceCategory::Child),
        "adolescent" => Some(TraceCategory::Adolescent),
        "adult" => Some(TraceCategory::Adult),
        "logged-out" | "logged_out" => Some(TraceCategory::LoggedOut),
        _ => None,
    }
}

/// Classify an upload body by magic bytes: pcap (either byte order),
/// pcapng SHB, otherwise HAR text (which must be UTF-8).
fn sniff_artifact(body: &[u8]) -> Result<(Arc<MemoryArtifact>, &'static str), Response> {
    const PCAP_LE: [u8; 4] = [0xd4, 0xc3, 0xb2, 0xa1];
    const PCAP_BE: [u8; 4] = [0xa1, 0xb2, 0xc3, 0xd4];
    const PCAPNG_SHB: [u8; 4] = [0x0a, 0x0d, 0x0d, 0x0a];
    if body.len() >= 4 {
        let magic = &body[..4];
        if magic == PCAP_LE || magic == PCAP_BE || magic == PCAPNG_SHB {
            return Ok((
                Arc::new(MemoryArtifact::Capture {
                    bytes: body.to_vec(),
                    keylog: None,
                }),
                "capture",
            ));
        }
    }
    match std::str::from_utf8(body) {
        Ok(text) => Ok((Arc::new(MemoryArtifact::Har(text.to_string())), "har")),
        Err(_) => Err(Response::error(
            400,
            "body is neither a capture (pcap/pcapng magic) nor UTF-8 HAR text",
        )),
    }
}

fn upload_trace(shared: &Arc<Shared>, request: &Request) -> Response {
    if shared.draining.load(Ordering::SeqCst) {
        return Response::error(503, "draining");
    }
    if request.body.is_empty() {
        return Response::error(400, "empty trace body");
    }
    let Some(platform) = request
        .query_param("platform")
        .as_deref()
        .and_then(parse_platform)
    else {
        return Response::error(400, "platform query param must be web|mobile|desktop");
    };
    let Some(kind) = request.query_param("kind").as_deref().and_then(parse_kind) else {
        return Response::error(
            400,
            "kind query param must be account-creation|logged-in|logged-out",
        );
    };
    let Some(category) = request
        .query_param("category")
        .as_deref()
        .and_then(parse_category)
    else {
        return Response::error(
            400,
            "category query param must be child|adolescent|adult|logged-out",
        );
    };
    let (artifact, format) = match sniff_artifact(&request.body) {
        Ok(found) => found,
        Err(response) => return response,
    };
    let id = format!("t-{}", shared.next_trace.fetch_add(1, Ordering::SeqCst) + 1);
    let label = request.query_param("label").unwrap_or_else(|| id.clone());
    let bytes = request.body.len();
    shared.traces().insert(
        id.clone(),
        StoredTrace {
            label,
            platform,
            kind,
            category,
            artifact,
        },
    );
    obs::add(names::TRACES_UPLOADED, 1);
    let doc = Json::obj()
        .with("traceId", Json::str(id))
        .with("format", Json::str(format))
        .with("bytes", Json::int(bytes as i64));
    Response::json(201, doc.to_pretty_string())
}

fn attach_keylog(shared: &Arc<Shared>, id: &str, request: &Request) -> Response {
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) => text.to_string(),
        Err(_) => return Response::error(400, "keylog must be UTF-8 text"),
    };
    let mut traces = shared.traces();
    let Some(trace) = traces.get_mut(id) else {
        return Response::error(404, "no such trace");
    };
    if let MemoryArtifact::Har(_) = *trace.artifact {
        return Response::error(400, "trace is a HAR; key logs attach to captures");
    }
    // Copy-on-write: jobs already queued keep the artifact they were given,
    // and later submissions see the key log.
    if let MemoryArtifact::Capture { keylog, .. } = Arc::make_mut(&mut trace.artifact) {
        *keylog = Some(text);
    }
    Response::json(
        200,
        Json::obj().with("attached", Json::Bool(true)).to_string(),
    )
}

fn submit_job(shared: &Arc<Shared>, request: &Request) -> Response {
    if shared.draining.load(Ordering::SeqCst) {
        return Response::error(503, "draining");
    }
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return Response::error(400, "job body must be UTF-8 JSON"),
    };
    let doc = match parse(text) {
        Ok(doc) => doc,
        Err(e) => return Response::error(400, &format!("invalid JSON: {e}")),
    };

    let Some(service) = doc.get("service") else {
        return Response::error(400, "missing \"service\" object");
    };
    let (Some(name), Some(slug)) = (
        service.get("name").and_then(Json::as_str),
        service.get("slug").and_then(Json::as_str),
    ) else {
        return Response::error(400, "service needs string fields name and slug");
    };
    let first_party_domains: Vec<String> = service
        .get("firstPartyDomains")
        .and_then(Json::as_arr)
        .map(|arr| {
            arr.iter()
                .filter_map(|v| v.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default();
    if first_party_domains.is_empty() {
        return Response::error(400, "service.firstPartyDomains must be a non-empty array");
    }

    let Some(trace_ids) = doc.get("traces").and_then(Json::as_arr) else {
        return Response::error(400, "missing \"traces\" array of trace ids");
    };
    let mut units: Vec<MemoryUnit> = Vec::with_capacity(trace_ids.len());
    {
        let traces = shared.traces();
        for id_value in trace_ids {
            let Some(id) = id_value.as_str() else {
                return Response::error(400, "trace ids must be strings");
            };
            let Some(stored) = traces.get(id) else {
                return Response::error(400, &format!("unknown trace id {id:?}"));
            };
            units.push(MemoryUnit {
                label: stored.label.clone(),
                platform: stored.platform,
                kind: stored.kind,
                category: stored.category,
                artifact: stored.artifact.clone(),
            });
        }
    }
    if units.is_empty() {
        return Response::error(400, "a job needs at least one trace");
    }

    let mut policy = SalvagePolicy::default();
    if doc.get("strict").and_then(Json::as_bool) == Some(true) {
        policy.strict = true;
    }
    if let Some(pct) = doc.get("maxDropPct").and_then(Json::as_f64) {
        if !(0.0..=100.0).contains(&pct) {
            return Response::error(400, "maxDropPct must be in [0, 100]");
        }
        policy.max_drop_fraction = Some(pct / 100.0);
    }
    let seed = doc
        .get("ensemble")
        .and_then(Json::as_i64)
        .map(|v| v as u64)
        .unwrap_or(2023);
    let threshold = doc.get("threshold").and_then(Json::as_f64).unwrap_or(0.8);
    let deadline_ms = doc
        .get("deadlineMs")
        .and_then(Json::as_i64)
        .map(|v| v.max(1) as u64)
        .unwrap_or(shared.config.default_deadline_ms)
        .min(shared.config.max_deadline_ms);
    let chaos = match doc.get("chaos").and_then(Json::as_str) {
        None => None,
        Some(_) if !shared.config.enable_chaos => {
            return Response::error(400, "chaos injection is disabled on this daemon");
        }
        Some("panic") => Some(ChaosMode::Panic),
        Some("stall-decode") => Some(ChaosMode::StallDecode),
        Some(other) => {
            return Response::error(400, &format!("unknown chaos mode {other:?}"));
        }
    };

    let job_request = JobRequest {
        service: MemoryService {
            name: name.to_string(),
            slug: slug.to_string(),
            first_party_domains,
            units,
        },
        policy,
        seed,
        threshold,
        deadline: Duration::from_millis(deadline_ms),
        chaos,
        cache_dir: shared.config.cache_dir.clone(),
    };
    let id = format!("j-{}", shared.next_job.fetch_add(1, Ordering::SeqCst) + 1);
    shared.jobs.insert(JobRecord {
        id: id.clone(),
        service: slug.to_string(),
        phase: JobPhase::Queued,
        token: CancelToken::new(),
        deadline_ms,
        result_json: None,
        report: None,
        metrics_json: None,
        error: None,
    });
    match shared.queue.try_push(QueuedJob {
        id: id.clone(),
        request: job_request,
    }) {
        Ok(depth) => {
            obs::add(names::JOBS_SUBMITTED, 1);
            let doc = Json::obj()
                .with("jobId", Json::str(id))
                .with("queueDepth", Json::int(depth as i64));
            Response::json(202, doc.to_pretty_string())
        }
        Err(PushError::Full) => {
            shared.jobs.remove(&id);
            obs::add(names::QUEUE_SHED, 1);
            Response::error(429, "queue full")
        }
        Err(PushError::Closed) => {
            shared.jobs.remove(&id);
            Response::error(503, "draining")
        }
    }
}

fn view_to_json(view: &JobView) -> Json {
    let mut doc = Json::obj()
        .with("jobId", Json::str(view.id.clone()))
        .with("service", Json::str(view.service.clone()))
        .with("state", Json::str(view.phase.label()))
        .with("deadlineMs", Json::int(view.deadline_ms as i64));
    match view.phase.exit_style() {
        Some(code) => doc.set("exitStyle", Json::int(i64::from(code))),
        None => doc.set("exitStyle", Json::Null),
    };
    match &view.error {
        Some(error) => doc.set("error", Json::str(error.clone())),
        None => doc.set("error", Json::Null),
    };
    doc
}

fn list_jobs(shared: &Arc<Shared>) -> Response {
    let jobs: Vec<Json> = shared.jobs.views().iter().map(view_to_json).collect();
    Response::json(
        200,
        Json::obj().with("jobs", Json::Arr(jobs)).to_pretty_string(),
    )
}

fn job_status(shared: &Arc<Shared>, id: &str) -> Response {
    let views = shared.jobs.views();
    match views.iter().find(|v| v.id == id) {
        Some(view) => Response::json(200, view_to_json(view).to_pretty_string()),
        None => Response::error(404, "no such job"),
    }
}

fn job_result(shared: &Arc<Shared>, id: &str) -> Response {
    let found = shared
        .jobs
        .with(id, |job| (job.phase, job.result_json.clone()));
    match found {
        None => Response::error(404, "no such job"),
        Some((phase, _)) if !phase.terminal() => {
            let doc = Json::obj()
                .with("error", Json::str("job not finished"))
                .with("state", Json::str(phase.label()));
            Response::json(409, doc.to_string())
        }
        Some((phase, Some(result))) => Response::json(phase.http_status(), result),
        Some((phase, None)) => Response::error(phase.http_status(), "job produced no document"),
    }
}

fn job_report(shared: &Arc<Shared>, id: &str) -> Response {
    let found = shared.jobs.with(id, |job| {
        (job.phase, job.report.clone(), job.metrics_json.clone())
    });
    match found {
        None => Response::error(404, "no such job"),
        Some((phase, _, _)) if !phase.terminal() => Response::error(409, "job not finished"),
        Some((_, Some(report), metrics)) => {
            let mut text = report;
            if let Some(metrics_json) = metrics {
                text.push_str("\nJob metrics:\n");
                text.push_str(&metrics_json);
                text.push('\n');
            }
            Response::text(200, text)
        }
        Some((phase, None, _)) => {
            Response::error(phase.http_status(), "job finished without a report")
        }
    }
}

fn shutdown(shared: &Arc<Shared>) -> Response {
    shared.draining.store(true, Ordering::SeqCst);
    obs::info("shutdown requested; draining", &[]);
    Response::json(
        202,
        Json::obj()
            .with("draining", Json::Bool(true))
            .to_pretty_string(),
    )
}
