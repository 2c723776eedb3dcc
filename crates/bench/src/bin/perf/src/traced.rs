//! The traced run: the workload's corpus decoded, extracted, classified
//! and assembled in this process through each layer's public functions,
//! with spans recorded by the benchmark around every call (nothing inside
//! the program is instrumented). There is one span per unit per layer,
//! never one per packet; spans stay in memory and are written out as JSONL
//! at the end. Every layer runs on one thread (the pipeline also runs once
//! more at two threads, for the speedup), so a span's duration is the
//! layer's busy time. A short probe of the daemon adds the serve layers.

use crate::corpus::{Corpus, ServiceDir, Unit};
use crate::serve::{self, Deployment, JobRecord, Pacing};
use crate::stats::{self, Summary};
use crate::Metric;
use diffaudit::audit::{audit_service, AuditFinding};
use diffaudit::dest::DestinationAnalyzer;
use diffaudit::diff::ObservedGrid;
use diffaudit::export::outcome_to_json;
use diffaudit::extract_request;
use diffaudit::pipeline::{AuditOutcome, ClassificationMode, LoadedUnit, Pipeline, ServiceInput};
use diffaudit_classifier::majority::TEMPERATURE_GRID;
use diffaudit_classifier::{
    config_fingerprint, ClassifyCache, ConfidenceAggregation, MajorityEnsemble,
};
use diffaudit_json::{flatten, parse};
use diffaudit_nettrace::har::har_json_to_exchanges;
use diffaudit_nettrace::packet::TcpSegment;
use diffaudit_nettrace::tcp::FlowTable;
use diffaudit_nettrace::tls::{decode_client_stream, decode_server_stream};
use diffaudit_nettrace::{
    decode_auto_salvage, har_to_exchanges_salvage, Exchange, HttpRequest, HttpResponse, KeyLog,
    PcapReader, PcapngReader, SalvageLog,
};
use diffaudit_services::{service_by_slug, Platform, TraceCategory, TraceKind};
use std::collections::{BTreeSet, HashMap};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The CLI's default ensemble seed and vote threshold.
const ENSEMBLE_SEED: u64 = 2023;
const THRESHOLD: f64 = 0.8;

/// Jobs in the one-outstanding daemon probe.
const PROBE_JOBS: usize = 30;

/// Jobs in each open-loop phase of the daemon probe: with 100 samples the
/// p90 has ten beyond it.
const PROBE_OPEN_JOBS: usize = 100;

/// Every per-layer metric the traced run prints, in order, with its unit.
pub const LAYER_METRICS: [(&str, &str); 54] = [
    ("nettrace.pcap.busy_ms", "ms"),
    ("nettrace.pcap.records", "count"),
    ("nettrace.packet.busy_ms", "ms"),
    ("nettrace.packet.frames_failed", "count"),
    ("nettrace.tcp.busy_ms", "ms"),
    ("nettrace.tcp.flows", "count"),
    ("nettrace.tcp.stream_bytes", "bytes"),
    ("nettrace.tls.busy_ms", "ms"),
    ("nettrace.tls.decrypted_ratio", "ratio"),
    ("nettrace.http.busy_ms", "ms"),
    ("nettrace.http.exchanges", "count"),
    ("nettrace.keylog.busy_ms", "ms"),
    ("json.har.busy_ms", "ms"),
    ("nettrace.har.busy_ms", "ms"),
    ("nettrace.har.entries", "count"),
    ("nettrace.decode.busy_ms", "ms"),
    ("nettrace.decode.mb_per_s", "MB/s"),
    ("nettrace.decode.coverage", "ratio"),
    ("io.read.busy_ms", "ms"),
    ("core.extract.busy_ms", "ms"),
    ("core.extract.exchanges", "count"),
    ("core.extract.keys", "count"),
    ("core.extract.unique_keys", "count"),
    ("json.body.busy_ms", "ms"),
    ("classifier.ensemble.setup_ms", "ms"),
    ("classifier.ensemble.busy_ms", "ms"),
    ("classifier.ensemble.keys_per_s", "1/s"),
    ("classifier.ensemble.labeled_ratio", "ratio"),
    ("classifier.cache.open_ms", "ms"),
    ("classifier.cache.probe_ms", "ms"),
    ("classifier.cache.insert_ms", "ms"),
    ("classifier.cache.hit_ratio", "ratio"),
    ("classifier.cache.bytes_loaded", "bytes"),
    ("core.dest.busy_ms", "ms"),
    ("core.dest.lookups", "count"),
    ("core.dest.memo_ratio", "ratio"),
    ("core.pipeline.busy_ms", "ms"),
    ("core.pipeline.speedup_t2", "ratio"),
    ("core.diff.busy_ms", "ms"),
    ("core.audit.busy_ms", "ms"),
    ("core.export.busy_ms", "ms"),
    ("job_p50_ms.r8", "ms"),
    ("job_p90_ms.r8", "ms"),
    ("job_p50_ms.r16", "ms"),
    ("job_p90_ms.r16", "ms"),
    ("serve.job.service_ms.p50", "ms"),
    ("serve.http.submit_ms.p50", "ms"),
    ("serve.http.result_ms.p50", "ms"),
    ("serve.http.upload_mb_per_s", "MB/s"),
    ("serve.http.polls_per_job", "count"),
    ("serve.queue.wait_ms.r16", "ms"),
    ("serve.queue.shed", "count"),
    ("loadgen.lag_ms.p90.r8", "ms"),
    ("loadgen.lag_ms.p90.r16", "ms"),
];

/// One recorded span; times are nanoseconds since the run started. A
/// layer whose calls interleave with other layers' (per packet or per
/// flow, as inside the composite decoder) gets one span per unit reaching
/// from its first call to its last, with `busy_ns` below `end_ns - start_ns`.
struct Span {
    name: &'static str,
    id: u32,
    parent: Option<u32>,
    unit: Option<u32>,
    start_ns: u64,
    end_ns: u64,
    busy_ns: u64,
}

/// An open span, closed by [`Tracer::close`].
struct Open {
    name: &'static str,
    id: u32,
    parent: Option<u32>,
    unit: Option<u32>,
    start: Instant,
}

/// The in-memory span recorder.
struct Tracer {
    t0: Instant,
    next_id: u32,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.t0).as_nanos()).unwrap_or(u64::MAX)
    }

    fn next_id(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id - 1
    }

    fn open(&mut self, name: &'static str, parent: Option<u32>, unit: Option<u32>) -> Open {
        Open {
            name,
            id: self.next_id(),
            parent,
            unit,
            start: Instant::now(),
        }
    }

    fn close(&mut self, open: Open) {
        let end = Instant::now();
        let busy = end.saturating_duration_since(open.start);
        self.push(
            open.name,
            open.id,
            open.parent,
            open.unit,
            (open.start, end),
            busy,
        );
    }

    fn push(
        &mut self,
        name: &'static str,
        id: u32,
        parent: Option<u32>,
        unit: Option<u32>,
        (start, end): (Instant, Instant),
        busy: Duration,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            id,
            parent,
            unit,
            start_ns,
            end_ns,
            busy_ns: u64::try_from(busy.as_nanos()).unwrap_or(u64::MAX),
        });
    }

    /// Record a span measured elsewhere; returns its id.
    fn record(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        unit: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.next_id();
        let busy = end.saturating_duration_since(start);
        self.push(name, id, parent, unit, (start, end), busy);
        id
    }

    /// Run `f` inside a span.
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        unit: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open(name, parent, unit);
        let value = f();
        self.close(open);
        value
    }

    /// Summed busy time of every span called `name`, in milliseconds.
    fn busy_ms(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.busy_ns)
            .sum();
        ns as f64 / 1e6
    }

    /// One JSON object per span.
    fn to_jsonl(&self) -> String {
        let opt = |v: Option<u32>| v.map_or("null".to_string(), |v| v.to_string());
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"unit\":{},\"start_ns\":{},\"end_ns\":{},\"busy_ns\":{}}}\n",
                s.name,
                s.id,
                opt(s.parent),
                opt(s.unit),
                s.start_ns,
                s.end_ns,
                s.busy_ns
            ));
        }
        out
    }
}

/// Busy time of interleaved layers within one unit: each call to
/// [`Laps::lap`] charges the time since the previous lap to one layer.
struct Laps {
    names: &'static [&'static str],
    last: Instant,
    /// Per layer: first start, last end, busy time.
    layers: Vec<Option<(Instant, Instant, Duration)>>,
}

impl Laps {
    fn start(names: &'static [&'static str]) -> Laps {
        Laps {
            names,
            last: Instant::now(),
            layers: vec![None; names.len()],
        }
    }

    /// Charge the time since the previous lap to layer `index`.
    fn lap(&mut self, index: usize) {
        let now = Instant::now();
        let took = now.saturating_duration_since(self.last);
        if let Some(layer) = self.layers.get_mut(index) {
            let (_, end, busy) = layer.get_or_insert((self.last, now, Duration::ZERO));
            *end = now;
            *busy += took;
        }
        self.last = now;
    }

    /// One span per layer that ran.
    fn finish(self, tr: &mut Tracer, parent: Option<u32>, unit: Option<u32>) {
        for (name, layer) in self.names.iter().zip(self.layers) {
            if let Some((start, end, busy)) = layer {
                let id = tr.next_id();
                tr.push(name, id, parent, unit, (start, end), busy);
            }
        }
    }
}

/// Work counts recorded at the same layer boundaries as the spans.
#[derive(Default)]
struct Counts {
    units: u64,
    /// Capture and HAR units decoded so far. Every other unit of each kind
    /// runs its composite decoder before its layer-by-layer decode instead of
    /// after, so cache warmth favours neither side of the coverage ratio.
    captures: u64,
    hars: u64,
    pcap_records: u64,
    frames_failed: u64,
    flows: u64,
    stream_bytes: u64,
    flows_with_client_data: u64,
    flows_decrypted: u64,
    http_exchanges: u64,
    har_entries: u64,
    decode_bytes: u64,
    extract_exchanges: u64,
    keys: u64,
    dest_lookups: u64,
    dest_distinct: u64,
}

/// How the pipeline runs of the traced run use the classification cache,
/// mirroring the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// No `--cache-dir`.
    Off,
    /// A fresh cache per run (the write path).
    Cold,
    /// A cache primed beforehand (the read path).
    Warm,
}

/// One unit as the loader would hand it to the pipeline.
struct Decoded {
    platform: Platform,
    kind: TraceKind,
    category: TraceCategory,
    exchanges: Vec<Exchange>,
    opaque_snis: Vec<String>,
    packet_count: usize,
    flow_count: usize,
}

/// What the traced run found.
pub struct Outcome {
    /// Per-layer metrics in [`LAYER_METRICS`] order.
    pub metrics: Vec<Metric>,
    /// Every layered result matched its composite and the CLI.
    pub correct: bool,
    /// Units decoded plus daemon jobs run.
    pub attempted: u64,
    /// Daemon jobs that failed.
    pub failed: u64,
    /// Both open-loop phases of the daemon probe kept to their schedule.
    pub valid: bool,
    /// Human-readable findings for the log.
    pub notes: Vec<String>,
}

fn platform(s: &str) -> Option<Platform> {
    match s {
        "web" => Some(Platform::Web),
        "mobile" => Some(Platform::Mobile),
        "desktop" => Some(Platform::Desktop),
        _ => None,
    }
}

fn kind(s: &str) -> Option<TraceKind> {
    match s {
        "account-creation" => Some(TraceKind::AccountCreation),
        "logged-in" => Some(TraceKind::LoggedIn),
        "logged-out" => Some(TraceKind::LoggedOut),
        _ => None,
    }
}

fn category(s: &str) -> Option<TraceCategory> {
    match s {
        "child" => Some(TraceCategory::Child),
        "adolescent" => Some(TraceCategory::Adolescent),
        "adult" => Some(TraceCategory::Adult),
        "logged-out" => Some(TraceCategory::LoggedOut),
        _ => None,
    }
}

/// The layers inside the composite capture decoder, in the order it calls
/// them: the container once, then per frame the packet decode and the flow
/// push, then per flow reassembly, TLS and HTTP.
const CAPTURE_LAYERS: [&str; 5] = [
    "nettrace.pcap",
    "nettrace.packet",
    "nettrace.tcp",
    "nettrace.tls",
    "nettrace.http",
];
/// The layers inside the composite HAR decoder: JSON text to a document,
/// then the document to exchanges.
const HAR_LAYERS: [&str; 2] = ["json.har", "nettrace.har"];
const JSON: usize = 0;
const HAR: usize = 1;

const PCAP: usize = 0;
const PACKET: usize = 1;
const TCP: usize = 2;
const TLS: usize = 3;
const HTTP: usize = 4;

/// Decode a capture through the public functions of each nettrace layer,
/// interleaved as `decode_auto_salvage` interleaves them, so every layer
/// works on the same warm data it would inside the composite. Returns the
/// exchanges and the flow count.
fn capture_layers(
    bytes: &[u8],
    external: &KeyLog,
    log: &mut SalvageLog,
    laps: &mut Laps,
    c: &mut Counts,
) -> Result<(Vec<Exchange>, usize), String> {
    let (packets, merged) = if PcapngReader::sniff(bytes) {
        let reader = PcapngReader::parse_salvage(bytes, log).map_err(|e| e.to_string())?;
        let merged = KeyLog::parse(&format!(
            "{}{}",
            reader.keylog.to_file_string(),
            external.to_file_string()
        ));
        (reader.packets, Some(merged))
    } else {
        let reader = PcapReader::parse_salvage(bytes, log).map_err(|e| e.to_string())?;
        (reader.packets, None)
    };
    let keylog = merged.as_ref().unwrap_or(external);
    laps.lap(PCAP);
    c.pcap_records += packets.len() as u64;

    let mut table = FlowTable::new();
    for packet in &packets {
        let segment = TcpSegment::decode(&packet.data);
        laps.lap(PACKET);
        match segment {
            Ok(segment) => table.push(&segment, packet.timestamp_ms()),
            Err(_) => c.frames_failed += 1,
        }
        laps.lap(TCP);
    }
    c.flows += table.flow_count() as u64;

    let mut exchanges = Vec::new();
    for flow in table.flows() {
        let (client, _gap) = flow.client_stream_report();
        laps.lap(TCP);
        c.stream_bytes += client.len() as u64;
        if client.is_empty() {
            continue;
        }
        c.flows_with_client_data += 1;
        let hello = decode_client_stream(&client, keylog);
        laps.lap(TLS);
        let Some((request_plain, client_random)) = hello
            .ok()
            .and_then(|h| h.plaintext.map(|p| (p, h.client_random)))
        else {
            continue;
        };
        c.flows_decrypted += 1;
        let server = flow.server_stream();
        laps.lap(TCP);
        c.stream_bytes += server.len() as u64;
        let response_plain = decode_server_stream(&server, client_random, keylog)
            .ok()
            .and_then(|d| d.plaintext);
        laps.lap(TLS);
        let mut responses = Vec::new();
        let mut pos = 0;
        while let Some((response, n)) = response_plain
            .as_deref()
            .and_then(|sp| sp.get(pos..))
            .and_then(HttpResponse::parse_wire)
        {
            responses.push(response);
            pos += n;
        }
        let mut pos = 0;
        let mut index = 0;
        while let Some((request, n)) = request_plain
            .get(pos..)
            .and_then(|rest| HttpRequest::parse_wire(rest, "https"))
        {
            let response = responses
                .get(index)
                .cloned()
                .unwrap_or_else(HttpResponse::ok);
            exchanges.push(Exchange {
                timestamp_ms: flow.first_ts_ms,
                request,
                response,
            });
            pos += n;
            index += 1;
        }
        laps.lap(HTTP);
    }
    c.http_exchanges += exchanges.len() as u64;
    // Freeing the flow table and the frames is part of the composite too.
    let flow_count = table.flow_count();
    drop(table);
    laps.lap(TCP);
    drop(packets);
    laps.lap(PCAP);
    Ok((exchanges, flow_count))
}

/// Decode one pcap+keylog unit layer by layer and with the composite
/// decoder the loader calls; both must agree exactly.
fn decode_capture(
    tr: &mut Tracer,
    parent: Option<u32>,
    u: Option<u32>,
    dir: &Path,
    unit: &Unit,
    c: &mut Counts,
) -> Result<(Vec<Exchange>, Vec<String>, usize, usize), String> {
    let read = tr.time(
        "io.read",
        parent,
        u,
        || -> std::io::Result<(Vec<u8>, String)> {
            let bytes = std::fs::read(dir.join(&unit.file))?;
            let keys = match &unit.keylog {
                Some(k) => std::fs::read_to_string(dir.join(k))?,
                None => String::new(),
            };
            Ok((bytes, keys))
        },
    );
    let (bytes, keys_text) = read.map_err(|e| format!("{}: {e}", unit.file))?;
    let mut log = SalvageLog::new();
    let external = tr.time("nettrace.keylog", parent, u, || {
        KeyLog::parse_salvage(&keys_text, &mut log)
    });

    let layers_first = c.captures.is_multiple_of(2);
    c.captures += 1;
    c.decode_bytes += bytes.len() as u64;
    let mut composite_log = SalvageLog::new();
    let mut composite = |tr: &mut Tracer| {
        tr.time("nettrace.decode", parent, u, || {
            decode_auto_salvage(&bytes, &external, &mut composite_log)
        })
    };
    let mut layered = |tr: &mut Tracer| {
        let mut laps = Laps::start(&CAPTURE_LAYERS);
        let layered = capture_layers(&bytes, &external, &mut log, &mut laps, c);
        laps.finish(tr, parent, u);
        layered
    };
    let (decoded, layered) = if layers_first {
        let s = layered(tr);
        (composite(tr), s)
    } else {
        let d = composite(tr);
        (d, layered(tr))
    };
    let decoded = decoded.map_err(|e| format!("{}: {e}", unit.file))?;
    let (layered, flow_count) = layered.map_err(|e| format!("{}: {e}", unit.file))?;
    if decoded.exchanges != layered || decoded.flow_count != flow_count {
        return Err(format!(
            "{}: the layers gave {} exchanges over {flow_count} flows, decode_auto_salvage {} over {}",
            unit.file,
            layered.len(),
            decoded.exchanges.len(),
            decoded.flow_count
        ));
    }
    let snis = decoded.opaque.into_iter().filter_map(|o| o.sni).collect();
    Ok((
        decoded.exchanges,
        snis,
        decoded.packet_count,
        decoded.flow_count,
    ))
}

/// Decode one HAR unit as JSON then HAR entries, and with the composite
/// the loader calls; both must agree exactly.
fn decode_har(
    tr: &mut Tracer,
    parent: Option<u32>,
    u: Option<u32>,
    dir: &Path,
    unit: &Unit,
    c: &mut Counts,
) -> Result<Vec<Exchange>, String> {
    let text = tr
        .time("io.read", parent, u, || {
            std::fs::read_to_string(dir.join(&unit.file))
        })
        .map_err(|e| format!("{}: {e}", unit.file))?;
    let layers_first = c.hars.is_multiple_of(2);
    c.hars += 1;
    c.decode_bytes += text.len() as u64;
    let mut log = SalvageLog::new();
    let mut composite = |tr: &mut Tracer| {
        tr.time("nettrace.decode", parent, u, || {
            har_to_exchanges_salvage(&text, &mut log)
        })
    };
    // Freeing the parsed document is JSON work the composite also does.
    let layered = |tr: &mut Tracer| {
        let mut laps = Laps::start(&HAR_LAYERS);
        let layered = parse(&text).map_err(|e| e.to_string()).and_then(|doc| {
            laps.lap(JSON);
            let exchanges = har_json_to_exchanges(&doc).map_err(|e| e.to_string());
            laps.lap(HAR);
            drop(doc);
            laps.lap(JSON);
            exchanges
        });
        laps.finish(tr, parent, u);
        layered
    };
    let (composite, layered) = if layers_first {
        let s = layered(tr);
        (composite(tr), s)
    } else {
        let d = composite(tr);
        (d, layered(tr))
    };
    let composite = composite.map_err(|e| format!("{}: {e}", unit.file))?;
    let layered = layered.map_err(|e| format!("{}: {e}", unit.file))?;
    c.har_entries += layered.len() as u64;
    if composite != layered {
        return Err(format!(
            "{}: the layers gave {} exchanges, har_to_exchanges_salvage {}",
            unit.file,
            layered.len(),
            composite.len()
        ));
    }
    Ok(composite)
}

/// Decode and extract one unit under its own span.
fn unit_layers(
    tr: &mut Tracer,
    parent: Option<u32>,
    index: u32,
    dir: &Path,
    unit: &Unit,
    c: &mut Counts,
    unique: &mut BTreeSet<String>,
) -> Result<Decoded, String> {
    let span = tr.open("unit", parent, Some(index));
    let me = Some(span.id);
    let u = Some(index);
    let (Some(p), Some(k), Some(cat)) = (
        platform(&unit.platform),
        kind(&unit.kind),
        category(&unit.category),
    ) else {
        return Err(format!("{}: unknown platform/kind/category", unit.file));
    };
    let (exchanges, opaque_snis, packet_count, flow_count) = if unit.is_capture() {
        decode_capture(tr, me, u, dir, unit, c)?
    } else if unit.file.ends_with(".har") {
        let exchanges = decode_har(tr, me, u, dir, unit, c)?;
        let n = exchanges.len();
        (exchanges, Vec::new(), n, n)
    } else {
        return Err(format!("{}: not a .har, .pcap or .pcapng", unit.file));
    };
    c.units += 1;

    let entries = tr.time("core.extract", me, u, || {
        exchanges
            .iter()
            .map(|ex| extract_request(&ex.request))
            .collect::<Vec<_>>()
    });
    c.extract_exchanges += exchanges.len() as u64;
    for entry in entries.into_iter().flatten() {
        c.keys += 1;
        unique.insert(entry.key);
    }
    let flattened = tr.time("json.body", me, u, || {
        exchanges
            .iter()
            .filter(|ex| {
                ex.request
                    .content_type()
                    .is_some_and(|t| t.to_ascii_lowercase().contains("json"))
            })
            .filter_map(|ex| std::str::from_utf8(&ex.request.body).ok())
            .filter_map(|body| parse(body).ok())
            .map(|doc| flatten(&doc).len())
            .sum::<usize>()
    });
    black_box(flattened);
    tr.close(span);
    Ok(Decoded {
        platform: p,
        kind: k,
        category: cat,
        exchanges,
        opaque_snis,
        packet_count,
        flow_count,
    })
}

/// The pipeline's inputs, cloned from the decoded units.
fn inputs(services: &[(&ServiceDir, Vec<Decoded>)]) -> Vec<ServiceInput> {
    services
        .iter()
        .map(|(svc, units)| ServiceInput {
            name: svc.name.clone(),
            slug: svc.slug.clone(),
            first_party_domains: svc.domains.clone(),
            units: units
                .iter()
                .map(|d| LoadedUnit {
                    platform: d.platform,
                    kind: d.kind,
                    category: d.category,
                    exchanges: d.exchanges.clone(),
                    opaque_snis: d.opaque_snis.clone(),
                    packet_count: d.packet_count,
                    flow_count: d.flow_count,
                })
                .collect(),
        })
        .collect()
}

fn pipeline(threads: usize, cache: Option<PathBuf>) -> Pipeline {
    let p = Pipeline::new(ClassificationMode::Ensemble {
        seed: ENSEMBLE_SEED,
        threshold: THRESHOLD,
    })
    .with_threads(threads);
    match cache {
        Some(dir) => p.with_cache_dir(dir),
        None => p,
    }
}

fn findings(outcome: &AuditOutcome) -> Vec<AuditFinding> {
    outcome
        .services
        .iter()
        .filter_map(|s| service_by_slug(&s.slug).map(|spec| audit_service(s, &spec)))
        .flatten()
        .collect()
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Run every library layer over `corpus`; `cli_json` is the CLI's
/// `--format json` output for the same directories, which the in-process
/// export must reproduce byte for byte.
fn library_layers(
    tr: &mut Tracer,
    corpus: &Corpus,
    work: &Path,
    cache: CacheMode,
    cli_json: &[u8],
    values: &mut HashMap<&'static str, f64>,
) -> Result<u64, String> {
    let root_span = tr.open("trace", None, None);
    let root = Some(root_span.id);
    let mut c = Counts::default();
    let mut unique = BTreeSet::new();
    let mut services: Vec<(&ServiceDir, Vec<Decoded>)> = Vec::new();
    let mut index = 0u32;
    for svc in &corpus.services {
        let span = tr.open("service", root, None);
        let me = Some(span.id);
        let mut units = Vec::with_capacity(svc.units.len());
        for unit in &svc.units {
            units.push(unit_layers(
                tr,
                me,
                index,
                &svc.dir,
                unit,
                &mut c,
                &mut unique,
            )?);
            index += 1;
        }
        let domains: Vec<&str> = svc.domains.iter().map(String::as_str).collect();
        let mut analyzer = DestinationAnalyzer::new(&domains);
        c.dest_lookups += tr.time("core.dest", me, None, || {
            let hosts = units.iter().flat_map(|u| &u.exchanges);
            hosts
                .map(|ex| black_box(analyzer.analyze(ex.request.url.host.as_str())))
                .count() as u64
        });
        c.dest_distinct += analyzer.cache_size() as u64;
        tr.close(span);
        services.push((svc, units));
    }

    let keys: Vec<&str> = unique.iter().map(String::as_str).collect();
    let ensemble = tr.time("classifier.ensemble.setup", root, None, || {
        MajorityEnsemble::new(ENSEMBLE_SEED, ConfidenceAggregation::Average)
    });
    let results = tr.time("classifier.ensemble", root, None, || {
        ensemble.classify_batch_threads(&keys, 1)
    });
    let verdicts: Vec<(&str, _)> = keys
        .iter()
        .zip(&results)
        .map(|(k, r)| (*k, r.category.filter(|_| r.confidence >= THRESHOLD)))
        .collect();
    let labeled = verdicts.iter().filter(|(_, v)| v.is_some()).count();

    let fingerprint =
        config_fingerprint(ENSEMBLE_SEED, THRESHOLD, &TEMPERATURE_GRID, "majority-avg");
    let cache_dir = work.join("classify-cache");
    let io = |e: std::io::Error| format!("classification cache: {e}");
    let mut cold = ClassifyCache::open(&cache_dir, fingerprint).map_err(io)?;
    tr.time("classifier.cache.insert", root, None, || {
        cold.insert_batch(&verdicts)
    })
    .map_err(io)?;
    drop(cold);
    let warm = tr
        .time("classifier.cache.open", root, None, || {
            ClassifyCache::open(&cache_dir, fingerprint)
        })
        .map_err(io)?;
    let hits = tr.time("classifier.cache.probe", root, None, || {
        keys.iter().filter(|k| warm.get(k).is_some()).count()
    });
    let bytes_loaded = warm.bytes_loaded();
    drop(warm);

    let cache_for = |run: &str| match cache {
        CacheMode::Off => None,
        CacheMode::Cold => Some(work.join(format!("pipeline-cache-{run}"))),
        CacheMode::Warm => Some(work.join("pipeline-cache")),
    };
    if cache == CacheMode::Warm {
        black_box(pipeline(1, cache_for("prime")).run_inputs(inputs(&services)));
    }
    let input = inputs(&services);
    let outcome = tr.time("core.pipeline", root, None, || {
        pipeline(1, cache_for("t1")).run_inputs(input)
    });
    let input = inputs(&services);
    let outcome_t2 = tr.time("core.pipeline.t2", root, None, || {
        pipeline(2, cache_for("t2")).run_inputs(input)
    });
    let grids = tr.time("core.diff", root, None, || {
        outcome
            .services
            .iter()
            .map(ObservedGrid::build)
            .collect::<Vec<_>>()
    });
    black_box(grids);
    let found = tr.time("core.audit", root, None, || findings(&outcome));
    let doc = tr.time("core.export", root, None, || {
        outcome_to_json(&outcome, &found).to_pretty_string()
    });
    let doc_t2 = outcome_to_json(&outcome_t2, &findings(&outcome_t2)).to_pretty_string();
    if doc != doc_t2 {
        return Err("pipeline output differs between 1 and 2 threads".to_string());
    }
    if doc.as_bytes() != cli_json {
        return Err("in-process export differs from `diffaudit audit --format json`".to_string());
    }
    tr.close(root_span);

    let busy = |name: &str| tr.busy_ms(name);
    let decode_ms = busy("nettrace.decode");
    let sublayers_ms: f64 = CAPTURE_LAYERS
        .iter()
        .chain(&HAR_LAYERS)
        .map(|n| busy(n))
        .sum();
    let t1 = busy("core.pipeline");
    let n = |v: u64| v as f64;
    for (name, value) in [
        ("nettrace.pcap.busy_ms", busy("nettrace.pcap")),
        ("nettrace.pcap.records", n(c.pcap_records)),
        ("nettrace.packet.busy_ms", busy("nettrace.packet")),
        ("nettrace.packet.frames_failed", n(c.frames_failed)),
        ("nettrace.tcp.busy_ms", busy("nettrace.tcp")),
        ("nettrace.tcp.flows", n(c.flows)),
        ("nettrace.tcp.stream_bytes", n(c.stream_bytes)),
        ("nettrace.tls.busy_ms", busy("nettrace.tls")),
        (
            "nettrace.tls.decrypted_ratio",
            ratio(n(c.flows_decrypted), n(c.flows_with_client_data)),
        ),
        ("nettrace.http.busy_ms", busy("nettrace.http")),
        ("nettrace.http.exchanges", n(c.http_exchanges)),
        ("nettrace.keylog.busy_ms", busy("nettrace.keylog")),
        ("json.har.busy_ms", busy("json.har")),
        ("nettrace.har.busy_ms", busy("nettrace.har")),
        ("nettrace.har.entries", n(c.har_entries)),
        ("nettrace.decode.busy_ms", decode_ms),
        (
            "nettrace.decode.mb_per_s",
            ratio(n(c.decode_bytes) / 1e6, decode_ms / 1e3),
        ),
        ("nettrace.decode.coverage", ratio(sublayers_ms, decode_ms)),
        ("io.read.busy_ms", busy("io.read")),
        ("core.extract.busy_ms", busy("core.extract")),
        ("core.extract.exchanges", n(c.extract_exchanges)),
        ("core.extract.keys", n(c.keys)),
        ("core.extract.unique_keys", keys.len() as f64),
        ("json.body.busy_ms", busy("json.body")),
        (
            "classifier.ensemble.setup_ms",
            busy("classifier.ensemble.setup"),
        ),
        ("classifier.ensemble.busy_ms", busy("classifier.ensemble")),
        (
            "classifier.ensemble.keys_per_s",
            ratio(keys.len() as f64, busy("classifier.ensemble") / 1e3),
        ),
        (
            "classifier.ensemble.labeled_ratio",
            ratio(labeled as f64, keys.len() as f64),
        ),
        ("classifier.cache.open_ms", busy("classifier.cache.open")),
        ("classifier.cache.probe_ms", busy("classifier.cache.probe")),
        (
            "classifier.cache.insert_ms",
            busy("classifier.cache.insert"),
        ),
        (
            "classifier.cache.hit_ratio",
            ratio(hits as f64, keys.len() as f64),
        ),
        ("classifier.cache.bytes_loaded", n(bytes_loaded)),
        ("core.dest.busy_ms", busy("core.dest")),
        ("core.dest.lookups", n(c.dest_lookups)),
        (
            "core.dest.memo_ratio",
            1.0 - ratio(n(c.dest_distinct), n(c.dest_lookups)),
        ),
        ("core.pipeline.busy_ms", t1),
        (
            "core.pipeline.speedup_t2",
            ratio(t1, busy("core.pipeline.t2")),
        ),
        ("core.diff.busy_ms", busy("core.diff")),
        ("core.audit.busy_ms", busy("core.audit")),
        ("core.export.busy_ms", busy("core.export")),
    ] {
        values.insert(name, value);
    }
    Ok(c.units)
}

/// What the daemon probe found.
struct Probe {
    jobs: u64,
    failed: u64,
    /// Every result matched the CLI and the daemon shut down cleanly.
    correct: bool,
    /// Both open-loop phases kept to their schedule.
    valid: bool,
    notes: Vec<String>,
}

/// Probe the daemon over the serve corpus: upload it, run one job at a
/// time for the service time, then open-loop phases at 8 and 16 jobs/s for
/// the job latencies, queueing and generator lag.
fn serve_layers(
    tr: &mut Tracer,
    bin: &Path,
    corpus: &Corpus,
    scratch: &Path,
    values: &mut HashMap<&'static str, f64>,
) -> Result<Probe, String> {
    let deployment = Deployment::open(bin, corpus, scratch)?;
    let addr = deployment.daemon.addr.clone();
    let root_span = tr.open("serve", None, None);
    let root = Some(root_span.id);
    let phases = [
        ("serve.probe", Pacing::Closed { outstanding: 1 }, PROBE_JOBS),
        ("serve.r8", Pacing::Open { rate: 8.0 }, PROBE_OPEN_JOBS),
        ("serve.r16", Pacing::Open { rate: 16.0 }, PROBE_OPEN_JOBS),
    ];
    let mut runs: Vec<Vec<JobRecord>> = Vec::new();
    for (name, pacing, count) in phases {
        let (t0, records) = serve::run_phase(&addr, &deployment.targets, pacing, count);
        let at = |ms: f64| t0 + Duration::from_secs_f64(ms.max(0.0) / 1e3);
        let end = records.iter().filter_map(|r| r.done_ms).fold(0.0, f64::max);
        let phase = tr.record(name, root, None, t0, at(end));
        for (i, r) in records.iter().enumerate() {
            let unit = Some(i as u32);
            tr.record(
                "serve.http.submit",
                Some(phase),
                unit,
                at(r.sent_ms),
                at(r.sent_ms + r.submit_ms),
            );
            if let Some(done) = r.done_ms {
                tr.record("serve.job", Some(phase), unit, at(r.sent_ms), at(done));
                tr.record(
                    "serve.http.result",
                    Some(phase),
                    unit,
                    at(done - r.result_ms),
                    at(done),
                );
            }
        }
        runs.push(records);
    }
    tr.close(root_span);
    let status = deployment.daemon.shutdown(Duration::from_secs(30))?;

    let [probe, r8, r16] = [&runs[0], &runs[1], &runs[2]].map(|r| serve::account(r));
    let probe_ok: Vec<&JobRecord> = runs[0].iter().filter(|r| r.ok).collect();
    let med = |v: Vec<f64>| stats::median(&v).unwrap_or(0.0);
    let service_ms = med(probe_ok
        .iter()
        .filter_map(|r| Some(r.done_ms? - r.sent_ms))
        .collect());
    let all: Vec<&JobRecord> = runs.iter().flatten().collect();
    let failed = probe.failed + r8.failed + r16.failed;
    let mismatches = probe.mismatches + r8.mismatches + r16.mismatches;
    let mut notes = Vec::new();
    let mut latency = |name: &str, phase: &serve::PhaseStats| {
        let summary = Summary::of(&phase.latency_ms);
        let rendered = summary
            .as_ref()
            .map_or("no samples".to_string(), Summary::render);
        notes.push(format!("{name}: latency_ms {rendered}"));
        if !phase.on_schedule() {
            notes.push(format!("{name}: {}", serve::OFF_SCHEDULE));
        }
        summary.map_or((0.0, 0.0), |s| (s.p50, s.tail.map_or(s.p50, |t| t.1)))
    };
    let (r8_p50, r8_p90) = latency("serve.r8", &r8);
    let (r16_p50, r16_p90) = latency("serve.r16", &r16);
    for (name, value) in [
        ("job_p50_ms.r8", r8_p50),
        ("job_p90_ms.r8", r8_p90),
        ("job_p50_ms.r16", r16_p50),
        ("job_p90_ms.r16", r16_p90),
        ("serve.job.service_ms.p50", service_ms),
        (
            "serve.http.submit_ms.p50",
            med(all.iter().map(|r| r.submit_ms).collect()),
        ),
        (
            "serve.http.result_ms.p50",
            med(probe_ok.iter().map(|r| r.result_ms).collect()),
        ),
        (
            "serve.http.upload_mb_per_s",
            ratio(deployment.upload_bytes as f64 / 1e6, deployment.upload_secs),
        ),
        (
            "serve.http.polls_per_job",
            ratio(
                all.iter().map(|r| f64::from(r.polls)).sum(),
                all.len() as f64,
            ),
        ),
        ("serve.queue.wait_ms.r16", r16_p50 - service_ms),
        ("serve.queue.shed", (probe.shed + r8.shed + r16.shed) as f64),
        ("loadgen.lag_ms.p90.r8", r8.lag_p90()),
        ("loadgen.lag_ms.p90.r16", r16.lag_p90()),
    ] {
        values.insert(name, value);
    }
    Ok(Probe {
        jobs: all.len() as u64,
        failed: failed as u64,
        correct: mismatches == 0 && status.success(),
        valid: r8.on_schedule() && r16.on_schedule(),
        notes,
    })
}

/// The whole traced run: library layers over `corpus` in this process
/// (checked against the CLI's JSON for the same directories), then the
/// daemon probe over `serve_corpus`; spans go to `spans_path`. A layer
/// that disagrees with its composite, or with the CLI, is an error.
pub fn run(
    bin: &Path,
    corpus: &Corpus,
    serve_corpus: &Corpus,
    cache: CacheMode,
    work: &Path,
    spans_path: &Path,
) -> Result<Outcome, String> {
    let mut args = ["--threads", "2", "--log-level", "error", "audit"]
        .map(str::to_string)
        .to_vec();
    args.extend(corpus.dir_args());
    args.extend(["--format".to_string(), "json".to_string()]);
    let cli = crate::procs::run_cli(bin, &args, &work.join("cli.json"))?;
    if cli.code != Some(0) {
        return Err(format!("reference audit exited {:?}", cli.code));
    }

    let mut tr = Tracer::new();
    let mut values: HashMap<&'static str, f64> = HashMap::new();
    let units = library_layers(&mut tr, corpus, work, cache, &cli.stdout, &mut values)?;
    let probe = serve_layers(&mut tr, bin, serve_corpus, work, &mut values)?;
    if let Some(parent) = spans_path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(spans_path, tr.to_jsonl())
        .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;
    let metrics = LAYER_METRICS
        .iter()
        .map(|&(name, unit)| values.get(name).map(|&value| Metric { name, value, unit }))
        .collect::<Option<Vec<_>>>()
        .ok_or("a per-layer metric was not measured")?;
    let mut notes = probe.notes;
    notes.push(format!(
        "{} spans written to {}",
        tr.spans.len(),
        spans_path.display()
    ));
    Ok(Outcome {
        metrics,
        correct: probe.correct,
        attempted: units + probe.jobs,
        failed: probe.failed,
        valid: probe.valid,
        notes,
    })
}
