//! Loading capture units into the pipeline — one salvage path for every
//! source.
//!
//! This is the adoption path the paper envisions ("we plan to make
//! DiffAudit's implementation and datasets available"): an auditor collects
//! traces with standard tooling — HAR exports from Chrome DevTools or
//! Proxyman, pcap + `SSLKEYLOGFILE` from PCAPdroid — drops them in a
//! directory with a small manifest, and runs the pipeline.
//!
//! The manifest is a JSON document:
//!
//! ```json
//! {
//!   "service": {
//!     "name": "Roblox",
//!     "slug": "roblox",
//!     "firstPartyDomains": ["roblox.com", "rbxcdn.com"]
//!   },
//!   "units": [
//!     {"file": "web-child-login.har", "platform": "web",
//!      "kind": "logged-in", "category": "child"},
//!     {"file": "mobile-child-acct.pcap", "keylog": "mobile-child-acct.keys",
//!      "platform": "mobile", "kind": "account-creation", "category": "child"}
//!   ]
//! }
//! ```
//!
//! `.har` files are parsed as HAR 1.2; `.pcap` files are decoded through
//! the TCP/TLS pipeline using the sibling key-log file (flows without a
//! logged key are reported as opaque, exactly like pinned apps).
//!
//! Three sources feed the same per-unit loader, all holding units as
//! [`MemoryUnit`]s (defined in `diffaudit_services` next to the trace
//! taxonomy): capture directories ([`load_capture_dirs`], the CLI),
//! in-memory uploads ([`load_memory_services`], the serve daemon), and a
//! generated dataset ([`MemoryService::from_capture`] →
//! [`load_memory_services`], behind [`crate::pipeline::Pipeline::run`]).
//! Uploads and generated units share their artifact with their owner (the
//! daemon's trace store, the dataset), so handing them to the loader copies
//! a pointer and a label, never the bytes.
//!
//! One load is one queue: both entry points put every unit of every
//! service they are given into one work-stealing fork-join, ordered by
//! artifact size, largest first, and hand the results back per service in
//! manifest order. A join per service would end each service with one
//! worker decoding its last unit while the others wait; with one queue,
//! largest first, only the audit's smallest units are left for its end.
//! Each unit is read on its worker thread (a disk
//! read, or the shared unit itself), then salvage-decoded and accounted
//! under one `loader.unit` span with one ledger entry. The decoders hand
//! each exchange to the worker the moment it is parsed, and the worker
//! key-extracts it at once, keeping only the request's host, timestamp
//! and keys ([`ExtractedUnit`]) and dropping the rest; the unit's summed
//! extraction time is its `pipeline.unit.extract` span. Its keys join the
//! service's key set only once the unit has loaded, so a unit that fails
//! midway adds nothing. The worker drops its handle on the artifact after
//! decode (freeing a disk read's bytes) before it takes its next unit, so
//! a load holds at most one artifact and one decoded request per worker,
//! however large the units. The path tests and benches exercise is the
//! path the CLI and daemon ship; [`decode_unit`] collects the same decode
//! into exchanges, for callers that want them.

use crate::pipeline::{
    ExtractedService, ExtractedUnit, KeyBatch, LoadedUnit, UnitCtx, UnitRequests,
};
use crate::salvage::{ServiceLedger, UnitLedger};
use diffaudit_json::{parse, Json};
use diffaudit_nettrace::capture::DecodeError;
use diffaudit_nettrace::salvage::{SalvageLog, Stage};
use diffaudit_nettrace::{
    decode_auto_salvage_ctl, har_to_exchanges_salvage_ctl, Exchange, HarError, KeyLog,
};
use diffaudit_obs::{LocalRecorder, Scope};
use diffaudit_services::{
    MemoryArtifact, MemoryUnit, Platform, ServiceCapture, TraceCategory, TraceKind,
};
use diffaudit_util::cancel::{Ctl, Interrupt};
use diffaudit_util::par::KeyInterner;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Loader errors. Every variant names the file it is about, so a failed
/// multi-directory audit pinpoints the offending artifact or manifest.
#[derive(Debug)]
pub enum LoadError {
    /// Filesystem error.
    Io(PathBuf, std::io::Error),
    /// The manifest was not valid JSON.
    ManifestJson(PathBuf, String),
    /// The manifest was missing or had a malformed field. The message names
    /// the manifest entry (`units[i]`) and key where applicable.
    ManifestShape(PathBuf, String),
    /// An artifact failed to decode.
    Artifact(PathBuf, String),
    /// Loading was interrupted by cancellation or deadline expiry. The
    /// display string leads with the interrupt's reason code
    /// (`timeout:` / `cancelled:`) so ledger drop reasons stay
    /// machine-matchable.
    Interrupted(PathBuf, Interrupt),
}

impl LoadError {
    /// Fill in the manifest path on errors minted by helpers that do not
    /// know it (they leave the path empty).
    fn with_manifest_path(self, path: &Path) -> LoadError {
        match self {
            LoadError::ManifestJson(p, e) if p.as_os_str().is_empty() => {
                LoadError::ManifestJson(path.to_path_buf(), e)
            }
            LoadError::ManifestShape(p, e) if p.as_os_str().is_empty() => {
                LoadError::ManifestShape(path.to_path_buf(), e)
            }
            other => other,
        }
    }
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(path, e) => write!(f, "io error on {}: {e}", path.display()),
            LoadError::ManifestJson(path, e) => {
                write!(f, "manifest {} is not valid JSON: {e}", path.display())
            }
            LoadError::ManifestShape(path, e) => {
                write!(f, "manifest {} shape error: {e}", path.display())
            }
            LoadError::Artifact(path, e) => {
                write!(f, "failed to decode {}: {e}", path.display())
            }
            LoadError::Interrupted(path, i) => {
                write!(f, "{i} (while loading {})", path.display())
            }
        }
    }
}

impl std::error::Error for LoadError {}

fn shape_error(msg: String) -> LoadError {
    LoadError::ManifestShape(PathBuf::new(), msg)
}

/// The manifest's shape error for a metadata value outside its spellings.
fn unknown_spelling(field: &str, value: &str, expected: String) -> LoadError {
    let value = value.to_ascii_lowercase();
    shape_error(format!("unknown {field} {value:?} (expected {expected})"))
}

fn str_field<'a>(obj: &'a Json, key: &str, ctx: &str) -> Result<&'a str, LoadError> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| shape_error(format!("{ctx}: missing string field {key:?}")))
}

/// A service's header, as its manifest or upload gives it.
#[derive(Clone)]
struct ServiceHead {
    name: String,
    slug: String,
    first_party_domains: Vec<String>,
}

/// The service header plus raw unit entries of a parsed manifest.
struct Manifest {
    path: PathBuf,
    head: ServiceHead,
    unit_entries: Vec<Json>,
}

fn read_manifest(dir: &Path) -> Result<Manifest, LoadError> {
    let manifest_path = dir.join("manifest.json");
    let manifest_text = std::fs::read_to_string(&manifest_path)
        .map_err(|e| LoadError::Io(manifest_path.clone(), e))?;
    let manifest = parse(&manifest_text)
        .map_err(|e| LoadError::ManifestJson(manifest_path.clone(), e.to_string()))?;

    (|| {
        let service = manifest
            .get("service")
            .ok_or_else(|| shape_error("missing \"service\" object".into()))?;
        let name = str_field(service, "name", "service")?.to_string();
        let slug = str_field(service, "slug", "service")?.to_string();
        let first_party_domains: Vec<String> = service
            .get("firstPartyDomains")
            .and_then(Json::as_arr)
            .ok_or_else(|| shape_error("service.firstPartyDomains must be an array".into()))?
            .iter()
            .filter_map(|v| v.as_str().map(str::to_string))
            .collect();
        if first_party_domains.is_empty() {
            return Err(shape_error(
                "service.firstPartyDomains must not be empty".into(),
            ));
        }
        Ok(Manifest {
            path: manifest_path.clone(),
            head: ServiceHead {
                name,
                slug,
                first_party_domains,
            },
            unit_entries: manifest
                .get("units")
                .and_then(Json::as_arr)
                .ok_or_else(|| shape_error("missing \"units\" array".into()))?
                .to_vec(),
        })
    })()
    .map_err(|e: LoadError| e.with_manifest_path(&manifest_path))
}

/// Read one manifest unit entry from `dir` into memory. Runs on the
/// per-unit worker, so disk reads overlap other units' decode.
// lint:allow(par-discipline): one read per unit, on purpose — a worker
// reads its own unit's files so I/O overlaps other units' decode.
fn read_unit(dir: &Path, entry: &Json, index: usize) -> Result<MemoryUnit, LoadError> {
    let ctx = format!("units[{index}]");
    let file = str_field(entry, "file", &ctx)?;
    let platform = str_field(entry, "platform", &ctx)?;
    let platform = Platform::parse(platform)
        .ok_or_else(|| unknown_spelling("platform", platform, Platform::spellings()))?;
    let kind = str_field(entry, "kind", &ctx)?;
    let kind = TraceKind::parse(kind)
        .ok_or_else(|| unknown_spelling("kind", kind, TraceKind::spellings()))?;
    let category = str_field(entry, "category", &ctx)?;
    let category = TraceCategory::parse(category)
        .ok_or_else(|| unknown_spelling("category", category, TraceCategory::spellings()))?;
    let path = dir.join(file);
    let artifact = if file.ends_with(".har") {
        MemoryArtifact::Har(
            std::fs::read_to_string(&path).map_err(|e| LoadError::Io(path.clone(), e))?,
        )
    } else if file.ends_with(".pcap") || file.ends_with(".pcapng") {
        let bytes = std::fs::read(&path).map_err(|e| LoadError::Io(path.clone(), e))?;
        let keylog = match entry.get("keylog").and_then(Json::as_str) {
            Some(keylog_file) => {
                let keylog_path = dir.join(keylog_file);
                Some(
                    std::fs::read_to_string(&keylog_path)
                        .map_err(|e| LoadError::Io(keylog_path.clone(), e))?,
                )
            }
            None => None,
        };
        MemoryArtifact::Capture { bytes, keylog }
    } else {
        return Err(shape_error(format!(
            "{ctx}: file {file:?} must end in .har, .pcap, or .pcapng"
        )));
    };
    Ok(MemoryUnit {
        label: file.to_string(),
        platform,
        kind,
        category,
        artifact: Arc::new(artifact),
    })
}

/// Salvage-decode one unit's artifact: HAR text, or capture bytes plus an
/// optional key log. Per-record damage is accounted in `log`; the salvage
/// readers check `ctl` between records, and the decoders record their
/// spans and counters into `rec`. `path` names the artifact in errors (the
/// file on disk, or the upload label). The loaders run key extraction on
/// each exchange as it is decoded instead; call this to keep the decoded
/// exchanges (e.g. for [`crate::pipeline::Pipeline::run_inputs`]).
pub fn decode_unit(
    unit: &MemoryUnit,
    path: &Path,
    log: &mut SalvageLog,
    rec: &mut LocalRecorder,
    ctl: &Ctl,
) -> Result<LoadedUnit, LoadError> {
    let mut exchanges = Vec::new();
    let (mut loaded, kept) = decode_into(unit, path, log, rec, ctl, &mut |exchange| {
        exchanges.push(exchange)
    })?;
    exchanges.drain(..exchanges.len().saturating_sub(kept));
    loaded.exchanges = exchanges;
    Ok(loaded)
}

/// [`decode_unit`] with each exchange handed to `sink` as soon as it is
/// decoded: the returned unit's `exchanges` is empty, and the unit keeps
/// the last `kept` exchanges `sink` received (all of them, unless a HAR
/// repeats its `log` or `entries` member). On an error, everything `sink`
/// received belongs to a unit that did not load.
fn decode_into(
    unit: &MemoryUnit,
    path: &Path,
    log: &mut SalvageLog,
    rec: &mut LocalRecorder,
    ctl: &Ctl,
    sink: &mut dyn FnMut(Exchange),
) -> Result<(LoadedUnit, usize), LoadError> {
    let (kept, opaque_snis, packet_count, flow_count) = match &*unit.artifact {
        MemoryArtifact::Har(text) => {
            let kept =
                har_to_exchanges_salvage_ctl(text, log, rec, ctl, sink).map_err(|e| match e {
                    HarError::Interrupted(i) => LoadError::Interrupted(path.to_path_buf(), i),
                    other => LoadError::Artifact(path.to_path_buf(), other.to_string()),
                })?;
            (kept, Vec::new(), kept, kept)
        }
        MemoryArtifact::Capture { bytes, keylog } => {
            let keys = match keylog {
                Some(text) => KeyLog::parse_salvage(text, log),
                None => KeyLog::new(),
            };
            let mut kept = 0;
            let decoded = decode_auto_salvage_ctl(bytes, &keys, log, rec, ctl, |exchange| {
                kept += 1;
                sink(exchange)
            })
            .map_err(|e| match e {
                DecodeError::Interrupted(i) => LoadError::Interrupted(path.to_path_buf(), i),
                other => LoadError::Artifact(path.to_path_buf(), other.to_string()),
            })?;
            let opaque = decoded.opaque.into_iter().filter_map(|o| o.sni).collect();
            (kept, opaque, decoded.packet_count, decoded.flow_count)
        }
    };
    let loaded = LoadedUnit {
        platform: unit.platform,
        kind: unit.kind,
        category: unit.category,
        exchanges: Vec::new(),
        opaque_snis,
        packet_count,
        flow_count,
    };
    Ok((loaded, kept))
}

/// Load one unit on a worker thread, from disk or memory alike: `read`
/// yields the in-memory unit, which is salvage-decoded under a
/// `loader.unit` span, each exchange key-extracted into a
/// [`UnitRequests`] the moment it is decoded. Once the unit has loaded, its
/// requests are folded into `ctx`'s batch; a unit that fails to load
/// discards them. So a worker holds its unit's artifact (dropped when
/// decode ends) plus one decoded exchange, never the unit's payloads.
/// Loaded/dropped counters, bytes in and the exchange-count histogram go
/// to the worker's private recorder; any error becomes a `unit`-stage drop
/// (offset = unit index) in the unit's own salvage log. Returns the unit's
/// ledger label, the load result (the error rendered to its display
/// string), and that log.
#[allow(clippy::too_many_arguments)]
fn load_unit(
    label: String,
    path: &Path,
    service: usize,
    index: usize,
    ctx: &mut UnitCtx,
    interner: &KeyInterner,
    ctl: &Ctl,
    read: impl FnOnce() -> Result<MemoryUnit, LoadError>,
) -> UnitOutcome {
    let mut log = SalvageLog::new();
    let mut requests = UnitRequests::default();
    let recorder = &mut ctx.recorder;
    // A unit whose control is already tripped drops without being read;
    // units that start decoding are interrupted between records by the
    // salvage readers.
    let outcome = recorder.time("loader.unit", |rec| {
        ctl.check()
            .map_err(|i| LoadError::Interrupted(path.to_path_buf(), i))?;
        let unit = read()?;
        let in_bytes = unit.artifact.byte_len();
        decode_into(&unit, path, &mut log, rec, ctl, &mut |exchange| {
            requests.push(exchange, interner)
        })
        .map(|loaded| (loaded, in_bytes))
    });
    let result = match outcome {
        Ok(((unit, kept), in_bytes)) => {
            log.ok(Stage::Unit);
            recorder.add("loader.units.loaded", 1);
            recorder.add("loader.unit.bytes.in", in_bytes);
            recorder.observe(
                "loader.unit.exchanges",
                &diffaudit_obs::RECORD_BOUNDS,
                kept as u64,
            );
            Ok(ctx.fold(unit, requests, kept, service))
        }
        Err(e) => {
            let reason = e.to_string();
            recorder.add("loader.units.dropped", 1);
            log.dropped(Stage::Unit, reason.clone(), Some(index as u64));
            Err(reason)
        }
    };
    (label, result, log)
}

/// Load capture directories (each containing `manifest.json`) into one
/// [`ExtractedService`] per directory, in argument order, ready for
/// [`crate::pipeline::Pipeline::run_extracted_scoped`], each with its
/// degradation ledger. Raw keys are interned through `interner`, which one
/// audit shares across all of its services.
///
/// Every manifest is read before any unit is: manifest-level damage
/// (unreadable or malformed `manifest.json`, broken service header) in any
/// directory is a hard error, returned before a single unit is decoded.
/// Each unit is isolated: a unit that cannot be loaded is dropped into its
/// service's ledger (stage `unit`, offset = manifest entry index) instead
/// of aborting the audit, and units that do load account their own
/// per-record damage through the salvage readers. Whether any damage fails
/// the run is the caller's [`crate::salvage::SalvagePolicy`] (`--strict`
/// tolerates none).
///
/// The units of every directory share one queue over `threads` workers
/// (1 = serial), largest artifact first (see [`load_queue`]), with
/// instrumentation in `scope`. A tripped `ctl` does not abort the load:
/// every unit still gets a ledger entry, but interrupted units are dropped
/// with a `timeout:`/`cancelled:` reason so the run degrades per salvage
/// policy instead of vanishing.
pub fn load_capture_dirs(
    dirs: &[PathBuf],
    threads: usize,
    scope: &Scope,
    ctl: &Ctl,
    interner: &KeyInterner,
) -> Result<Vec<(ExtractedService, ServiceLedger)>, LoadError> {
    let manifests = dirs
        .iter()
        .map(|dir| read_manifest(dir))
        .collect::<Result<Vec<_>, _>>()?;
    let mut queue = Vec::new();
    for (service, (dir, manifest)) in dirs.iter().zip(&manifests).enumerate() {
        for (index, entry) in manifest.unit_entries.iter().enumerate() {
            let bytes = ["file", "keylog"]
                .iter()
                .filter_map(|key| entry.get(key).and_then(Json::as_str))
                .filter_map(|file| std::fs::metadata(dir.join(file)).ok())
                .map(|meta| meta.len())
                .sum();
            queue.push(QueuedUnit {
                service,
                index,
                bytes,
                source: (dir.as_path(), manifest.path.as_path(), entry),
            });
        }
    }
    let heads = manifests.iter().map(|m| m.head.clone()).collect();
    Ok(load_queue(heads, queue, threads, scope, |ctx, q| {
        let (dir, manifest_path, entry) = q.source;
        let label = entry
            .get("file")
            .and_then(Json::as_str)
            .map(str::to_string)
            .unwrap_or_else(|| format!("units[{}]", q.index));
        let path = dir.join(&label);
        load_unit(label, &path, q.service, q.index, ctx, interner, ctl, || {
            read_unit(dir, entry, q.index).map_err(|e| e.with_manifest_path(manifest_path))
        })
    }))
}

/// One unit waiting in a load's queue: its service and manifest index, the
/// artifact's byte length (the queue's sort key), and what its worker
/// reads it from (a manifest entry, or the in-memory unit).
struct QueuedUnit<T> {
    service: usize,
    index: usize,
    bytes: u64,
    source: T,
}

/// One unit's load result: its ledger label, the extracted unit or the
/// drop reason, and its salvage log.
type UnitOutcome = (String, Result<ExtractedUnit, String>, SalvageLog);

/// Load every queued unit of the services `heads` names over one
/// [`par_map_ctx`](diffaudit_util::par::par_map_ctx), largest artifact
/// first (ties by service, then manifest index), so no worker waits at a
/// service boundary and only the smallest units are left for the end.
/// Returns one [`ExtractedService`] + [`ServiceLedger`] pair
/// per head, its units in manifest order.
///
/// Workers record `loader.unit` timings and counters into per-thread
/// recorders, and their units' unique keys into per-thread, per-service
/// sets, all merged at join; they never emit events — the debug/warn lines
/// go out on the calling thread afterwards ([`collect_loaded_units`]), so
/// the event stream and every returned value are identical for every
/// thread count.
fn load_queue<T: Send>(
    heads: Vec<ServiceHead>,
    mut queue: Vec<QueuedUnit<T>>,
    threads: usize,
    scope: &Scope,
    load: impl Fn(&mut UnitCtx, QueuedUnit<T>) -> UnitOutcome + Sync,
) -> Vec<(ExtractedService, ServiceLedger)> {
    queue.sort_by(|a, b| {
        b.bytes
            .cmp(&a.bytes)
            .then(a.service.cmp(&b.service))
            .then(a.index.cmp(&b.index))
    });
    let batches: Vec<KeyBatch> = heads.iter().map(|_| KeyBatch::new()).collect();
    let mut loaded = diffaudit_util::par::par_map_ctx(
        threads.max(1),
        queue,
        UnitCtx::new,
        |ctx, _, q| (q.service, q.index, load(ctx, q)),
        |ctx| ctx.finish(&batches, scope),
    );
    loaded.sort_unstable_by_key(|&(service, index, _)| (service, index));
    let mut loaded = loaded.into_iter().peekable();
    heads
        .into_iter()
        .zip(batches)
        .enumerate()
        .map(|(service, (head, batch))| {
            let units = std::iter::from_fn(|| loaded.next_if(|(s, _, _)| *s == service))
                .map(|(_, _, outcome)| outcome)
                .collect();
            collect_loaded_units(head, units, batch, scope)
        })
        .collect()
}

/// Fold per-unit load results and the workers' key batch into an
/// [`ExtractedService`] + [`ServiceLedger`] pair, emitting the post-join
/// `unit loaded`/`unit dropped` events in manifest order on the calling
/// thread (shared by the disk and in-memory loaders).
fn collect_loaded_units(
    head: ServiceHead,
    loaded: Vec<UnitOutcome>,
    batch: KeyBatch,
    scope: &Scope,
) -> (ExtractedService, ServiceLedger) {
    let mut units = Vec::with_capacity(loaded.len());
    let mut ledger_units = Vec::with_capacity(loaded.len());
    for (label, result, log) in loaded {
        match result {
            Ok(unit) => {
                scope.debug(
                    "unit loaded",
                    &[
                        diffaudit_obs::field("file", label.as_str()),
                        diffaudit_obs::field("exchanges", unit.requests.len()),
                    ],
                );
                units.push(unit);
            }
            Err(reason) => {
                scope.warn(
                    "unit dropped",
                    &[
                        diffaudit_obs::field("file", label.as_str()),
                        diffaudit_obs::field("reason", reason.as_str()),
                    ],
                );
            }
        }
        ledger_units.push(UnitLedger { file: label, log });
    }
    let (keys, key_occurrences) = batch.into_parts();
    let ServiceHead {
        name,
        slug,
        first_party_domains,
    } = head;
    (
        ExtractedService {
            name,
            slug: slug.clone(),
            first_party_domains,
            units,
            keys,
            key_occurrences,
        },
        ServiceLedger {
            slug,
            units: ledger_units,
        },
    )
}

/// A full in-memory service upload — the same shape as a capture
/// directory's `manifest.json`, with artifacts inline.
#[derive(Debug, Clone)]
pub struct MemoryService {
    /// Service display name.
    pub name: String,
    /// Service slug.
    pub slug: String,
    /// First-party domains for the party-classification stage.
    pub first_party_domains: Vec<String>,
    /// The uploaded units.
    pub units: Vec<MemoryUnit>,
}

impl MemoryService {
    /// The in-memory upload equivalent of one generated service: its units,
    /// each sharing the dataset's artifact and labelled with the file name
    /// [`write_dataset`] gives it on disk.
    pub fn from_capture(capture: &ServiceCapture) -> MemoryService {
        let units = capture.artifacts.iter().map(|a| a.unit.clone()).collect();
        MemoryService {
            name: capture.spec.name.to_string(),
            slug: capture.spec.slug.to_string(),
            first_party_domains: capture
                .spec
                .first_party_domains
                .iter()
                .map(|d| d.to_string())
                .collect(),
            units,
        }
    }
}

/// Salvage-load in-memory service uploads into one [`ExtractedService`] +
/// [`ServiceLedger`] pair per service, in argument order —
/// [`load_capture_dirs`] for the serve daemon's HTTP upload path and for
/// generated datasets, over the same largest-first queue, under one
/// `loader.memory` span. There is no manifest file to fail on, so this is
/// infallible at the service level: every unit either loads or lands in
/// the ledger as a drop (interrupted units with a `timeout:`/`cancelled:`
/// reason), and the salvage policy decides what the degradation means.
pub fn load_memory_services(
    services: Vec<MemoryService>,
    threads: usize,
    scope: &Scope,
    ctl: &Ctl,
    interner: &KeyInterner,
) -> Vec<(ExtractedService, ServiceLedger)> {
    scope.time("loader.memory", || {
        let mut heads = Vec::with_capacity(services.len());
        let mut queue = Vec::new();
        for (service, svc) in services.into_iter().enumerate() {
            for (index, unit) in svc.units.into_iter().enumerate() {
                queue.push(QueuedUnit {
                    service,
                    index,
                    bytes: unit.artifact.byte_len(),
                    source: unit,
                });
            }
            heads.push(ServiceHead {
                name: svc.name,
                slug: svc.slug,
                first_party_domains: svc.first_party_domains,
            });
        }
        load_queue(heads, queue, threads, scope, |ctx, q| {
            let label = q.source.label.clone();
            let path = PathBuf::from(&label);
            load_unit(label, &path, q.service, q.index, ctx, interner, ctl, || {
                Ok(q.source)
            })
        })
    })
}

/// Write a generated dataset to disk in the loader's directory layout —
/// one directory per service with `manifest.json` plus artifact files.
/// Each unit's artifact is written under its label, and a capture's key log
/// under the label's stem plus `.keys`. Returns the per-service directories
/// created.
pub fn write_dataset(
    dataset: &diffaudit_services::GeneratedDataset,
    out: &Path,
) -> Result<Vec<PathBuf>, LoadError> {
    let write = |path: PathBuf, bytes: &[u8]| {
        std::fs::write(&path, bytes).map_err(|e| LoadError::Io(path, e))
    };
    let mut dirs = Vec::new();
    for capture in &dataset.services {
        let dir = out.join(capture.spec.slug);
        std::fs::create_dir_all(&dir).map_err(|e| LoadError::Io(dir.clone(), e))?;
        let mut units_json = Vec::new();
        for unit in capture.artifacts.iter().map(|a| &a.unit) {
            let mut entry = Json::obj()
                .with("platform", Json::str(unit.platform.spelling()))
                .with("kind", Json::str(unit.kind.spelling()))
                .with("category", Json::str(unit.category.spelling()))
                .with("file", Json::str(&unit.label));
            match &*unit.artifact {
                MemoryArtifact::Har(text) => write(dir.join(&unit.label), text.as_bytes())?,
                MemoryArtifact::Capture { bytes, keylog } => {
                    write(dir.join(&unit.label), bytes)?;
                    if let Some(keylog) = keylog {
                        let stem = unit.label.rsplit_once('.').map_or(&*unit.label, |(s, _)| s);
                        let name = format!("{stem}.keys");
                        write(dir.join(&name), keylog.as_bytes())?;
                        entry.set("keylog", Json::str(name));
                    }
                }
            }
            units_json.push(entry);
        }
        let manifest = Json::obj()
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
            .with("units", Json::Arr(units_json));
        write(
            dir.join("manifest.json"),
            manifest.to_pretty_string().as_bytes(),
        )?;
        dirs.push(dir);
    }
    Ok(dirs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::ObservedGrid;
    use crate::export::outcome_to_json;
    use crate::pipeline::{ClassificationMode, Pipeline};
    use crate::salvage::{DegradationLedger, RunStatus, SalvagePolicy};
    use diffaudit_services::{generate_dataset, service_by_slug, DatasetOptions};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "diffaudit-loader-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn load(dir: &Path) -> Result<(ExtractedService, ServiceLedger), LoadError> {
        load_dir(dir, 2, &Ctl::unbounded())
    }

    /// Load one directory alone.
    fn load_dir(
        dir: &Path,
        threads: usize,
        ctl: &Ctl,
    ) -> Result<(ExtractedService, ServiceLedger), LoadError> {
        let dirs = [dir.to_path_buf()];
        let loaded = load_capture_dirs(&dirs, threads, &Scope::global(), ctl, &KeyInterner::new())?;
        Ok(loaded
            .into_iter()
            .next()
            .expect("one service per directory"))
    }

    fn load_memory(
        svc: MemoryService,
        scope: &Scope,
        ctl: &Ctl,
    ) -> (ExtractedService, ServiceLedger) {
        let loaded = load_memory_services(vec![svc], 2, scope, ctl, &KeyInterner::new());
        loaded.into_iter().next().expect("one service per upload")
    }

    /// Decode (without extracting) every unit of a written service
    /// directory, in manifest order.
    fn decode_dir(dir: &Path) -> Vec<LoadedUnit> {
        let manifest = read_manifest(dir).unwrap();
        manifest
            .unit_entries
            .iter()
            .enumerate()
            .map(|(i, entry)| {
                let unit = read_unit(dir, entry, i).unwrap();
                let path = dir.join(&unit.label);
                decode_unit(
                    &unit,
                    &path,
                    &mut SalvageLog::new(),
                    &mut LocalRecorder::new(),
                    &Ctl::unbounded(),
                )
                .unwrap()
            })
            .collect()
    }

    fn ledger_json(ledger: ServiceLedger) -> String {
        let mut run = DegradationLedger::new();
        run.services.push(ledger);
        run.to_json().to_pretty_string()
    }

    #[test]
    fn write_then_load_round_trips_the_audit() {
        let (dataset, dir, service_dir) = written_service_dir("roundtrip");

        // Load back from disk and audit.
        let (input, disk_ledger) = load(&service_dir).unwrap();
        assert_eq!(input.slug, "tiktok");
        assert_eq!(input.units.len(), 14);
        let oracle = || Pipeline::new(ClassificationMode::Oracle(dataset.key_truth.clone()));
        let outcome = oracle()
            .run_extracted_scoped(vec![input], &Scope::global(), &Ctl::unbounded())
            .unwrap();

        // The from-disk audit must agree with the in-memory audit, document
        // for document, and both loads must account identically.
        let reference = oracle().run(&dataset);
        assert_eq!(
            outcome_to_json(&outcome, &[]).to_pretty_string(),
            outcome_to_json(&reference, &[]).to_pretty_string()
        );
        let (_, mem_ledger) = load_memory(
            MemoryService::from_capture(&dataset.services[0]),
            &Scope::global(),
            &Ctl::unbounded(),
        );
        assert_eq!(ledger_json(disk_ledger), ledger_json(mem_ledger));

        // And it recovers the encoded spec.
        let from_disk = ObservedGrid::build(&outcome.services[0]);
        let spec = service_by_slug("tiktok").unwrap();
        let (missing, spurious) = from_disk.compare_activity(&spec);
        assert!(missing.is_empty() && spurious.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generated_services_load_clean_under_their_disk_names() {
        let dataset = generate_dataset(&DatasetOptions {
            seed: 5,
            volume_scale: 0.01,
            mobile_pinned_fraction: 0.1,
            services: Vec::new(),
        });
        assert_eq!(dataset.services.len(), 6);
        let dir = temp_dir("six-services");
        let service_dirs = write_dataset(&dataset, &dir).unwrap();
        for (capture, service_dir) in dataset.services.iter().zip(&service_dirs) {
            let (input, ledger) = load_memory(
                MemoryService::from_capture(capture),
                &Scope::global(),
                &Ctl::unbounded(),
            );
            let merged = ledger.merged();
            assert!(merged.is_clean(), "{}: ledger not clean", capture.spec.slug);
            assert!(merged.conserved());
            assert_eq!(input.units.len(), capture.artifacts.len());
            assert_eq!(ledger.units.len(), capture.artifacts.len());

            let manifest = read_manifest(service_dir).unwrap();
            let disk_names: Vec<&str> = manifest
                .unit_entries
                .iter()
                .map(|e| e.get("file").and_then(Json::as_str).unwrap())
                .collect();
            let labels: Vec<&str> = ledger.units.iter().map(|u| u.file.as_str()).collect();
            assert_eq!(labels, disk_names);
            assert!(disk_names.iter().all(|f| service_dir.join(f).is_file()));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_queue_over_many_directories_matches_each_directory_alone() {
        let dataset = generate_dataset(&DatasetOptions {
            seed: 5,
            volume_scale: 0.01,
            mobile_pinned_fraction: 0.1,
            services: vec!["tiktok".into(), "duolingo".into(), "roblox".into()],
        });
        let root = temp_dir("many-dirs");
        let dirs = write_dataset(&dataset, &root).unwrap();
        assert_eq!(dirs.len(), 3);
        for threads in [1, 2] {
            let (scope, ctl) = (Scope::global(), Ctl::unbounded());
            let together =
                load_capture_dirs(&dirs, threads, &scope, &ctl, &KeyInterner::new()).unwrap();
            assert_eq!(together.len(), dirs.len());
            for (dir, (service, ledger)) in dirs.iter().zip(together) {
                let (alone, alone_ledger) = load_dir(dir, threads, &ctl).unwrap();
                let at = format!("{} at --threads {threads}", alone.slug);
                assert_eq!(service.slug, alone.slug, "{at}");
                assert_eq!(service.units, alone.units, "{at}");
                assert_eq!(service.keys, alone.keys, "{at}");
                assert_eq!(service.key_occurrences, alone.key_occurrences, "{at}");
                assert_eq!(ledger_json(ledger), ledger_json(alone_ledger), "{at}");
            }
        }

        // A broken manifest in the second directory fails the whole load,
        // with the error loading that directory alone gives, before any
        // unit of the first is decoded.
        std::fs::write(dirs[1].join("manifest.json"), "{oops").unwrap();
        let alone = load_dir(&dirs[1], 2, &Ctl::unbounded()).unwrap_err();
        let scope = Scope::job("test.many-dirs");
        let err = load_capture_dirs(&dirs, 2, &scope, &Ctl::unbounded(), &KeyInterner::new())
            .unwrap_err();
        assert!(matches!(err, LoadError::ManifestJson(..)));
        assert_eq!(err.to_string(), alone.to_string());
        let snap = scope.finish().expect("job snapshot");
        assert!(!snap.metrics.spans().any(|(n, _)| n == "loader.unit"));
        assert_eq!(snap.metrics.counter("loader.units.loaded"), 0);
        assert_eq!(snap.metrics.counter("loader.units.dropped"), 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn queue_runs_largest_first_and_returns_manifest_order() {
        // (service, index, bytes): ties break by service, then index.
        let units = [(0, 0, 5), (0, 1, 90), (0, 2, 5), (1, 0, 90), (1, 1, 40)];
        let queue = units
            .iter()
            .map(|&(service, index, bytes)| QueuedUnit {
                service,
                index,
                bytes,
                source: (),
            })
            .collect();
        let heads = ["a", "b", "c"].map(|slug| ServiceHead {
            name: slug.to_uppercase(),
            slug: slug.to_string(),
            first_party_domains: vec![format!("{slug}.com")],
        });
        let scope = Scope::job("test.queue");
        let started = std::sync::Mutex::new(Vec::new());
        let loaded = load_queue(heads.to_vec(), queue, 1, &scope, |_, q| {
            started.lock().unwrap().push((q.service, q.index));
            let label = format!("{}/{}", q.service, q.index);
            (label, Err("dropped".into()), SalvageLog::new())
        });
        assert_eq!(
            started.into_inner().unwrap(),
            [(0, 1), (1, 0), (1, 1), (0, 0), (0, 2)]
        );
        let ledgers: Vec<(&str, Vec<&str>)> = loaded
            .iter()
            .map(|(_, ledger)| {
                let files = ledger.units.iter().map(|u| u.file.as_str()).collect();
                (ledger.slug.as_str(), files)
            })
            .collect();
        assert_eq!(
            ledgers,
            [
                ("a", vec!["0/0", "0/1", "0/2"]),
                ("b", vec!["1/0", "1/1"]),
                ("c", vec![])
            ]
        );
        let _ = scope.finish();
    }

    #[test]
    fn manifest_errors_are_described() {
        let dir = temp_dir("errors");
        // No manifest at all.
        assert!(matches!(load(&dir), Err(LoadError::Io(..))));
        // Bad JSON — and the error names the manifest.
        std::fs::write(dir.join("manifest.json"), "{oops").unwrap();
        let err = load(&dir).unwrap_err();
        assert!(matches!(err, LoadError::ManifestJson(..)));
        assert!(err.to_string().contains("manifest.json"), "{err}");
        // Missing fields — also attributed to the manifest.
        std::fs::write(dir.join("manifest.json"), "{}").unwrap();
        let err = load(&dir).unwrap_err();
        assert!(matches!(err, LoadError::ManifestShape(..)));
        assert!(err.to_string().contains("manifest.json"), "{err}");
        // A bad platform is unit-level damage: the unit drops into the
        // ledger with a reason that names the value and the manifest.
        std::fs::write(
            dir.join("manifest.json"),
            r#"{"service":{"name":"X","slug":"x","firstPartyDomains":["x.com"]},
                "units":[{"file":"a.har","platform":"fridge","kind":"logged-in","category":"child"}]}"#,
        )
        .unwrap();
        let (input, ledger) = load(&dir).unwrap();
        assert!(input.units.is_empty());
        assert_eq!(ledger.units.len(), 1);
        assert!(ledger.units[0].unit_dropped());
        let reason = &ledger.units[0].log.drops()[0].reason;
        assert!(reason.contains("fridge"), "{reason}");
        assert!(reason.contains("manifest.json"), "{reason}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn written_service_dir(tag: &str) -> (diffaudit_services::GeneratedDataset, PathBuf, PathBuf) {
        let dataset = generate_dataset(&DatasetOptions {
            seed: 21,
            volume_scale: 0.03,
            mobile_pinned_fraction: 0.1,
            services: vec!["tiktok".into()],
        });
        let dir = temp_dir(tag);
        let service_dirs = write_dataset(&dataset, &dir).unwrap();
        let service_dir = service_dirs.into_iter().next().unwrap();
        (dataset, dir, service_dir)
    }

    #[test]
    fn from_capture_shares_each_artifact_under_its_disk_name() {
        let (dataset, dir, service_dir) = written_service_dir("shared");
        let capture = &dataset.services[0];
        let svc = MemoryService::from_capture(capture);
        let manifest = read_manifest(&service_dir).unwrap();
        assert_eq!(svc.units.len(), capture.artifacts.len());
        assert_eq!(manifest.unit_entries.len(), capture.artifacts.len());
        let entries = capture.artifacts.iter().zip(&manifest.unit_entries);
        for (unit, (generated, entry)) in svc.units.iter().zip(entries) {
            assert!(
                Arc::ptr_eq(&unit.artifact, &generated.unit.artifact),
                "{} was copied",
                unit.label
            );
            let file = entry.get("file").and_then(Json::as_str);
            assert_eq!(Some(unit.label.as_str()), file);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn salvage_load_matches_strict_on_clean_directory() {
        use diffaudit_nettrace::{decode_auto_salvage, har_to_exchanges};
        let (_, dir, service_dir) = written_service_dir("salvage-clean");
        let (salvaged, ledger) = load(&service_dir).unwrap();
        let manifest = read_manifest(&service_dir).unwrap();
        assert_eq!(salvaged.slug, manifest.head.slug);
        assert_eq!(salvaged.units.len(), manifest.unit_entries.len());
        // The strict HAR driver and a direct capture decode are the
        // reference for the decode step the loader runs before extraction.
        let decoded = decode_dir(&service_dir);
        for (unit, entry) in decoded.iter().zip(&manifest.unit_entries) {
            let file = service_dir.join(entry.get("file").and_then(Json::as_str).unwrap());
            let (exchanges, opaque_snis) = match entry.get("keylog").and_then(Json::as_str) {
                None => (
                    har_to_exchanges(&std::fs::read_to_string(&file).unwrap()).unwrap(),
                    Vec::new(),
                ),
                Some(keys) => {
                    let keylog =
                        KeyLog::parse(&std::fs::read_to_string(service_dir.join(keys)).unwrap());
                    let mut log = SalvageLog::new();
                    let decoded =
                        decode_auto_salvage(&std::fs::read(&file).unwrap(), &keylog, &mut log)
                            .unwrap();
                    assert!(log.is_clean(), "{:?}", log.drops());
                    let opaque = decoded.opaque.into_iter().filter_map(|o| o.sni).collect();
                    (decoded.exchanges, opaque)
                }
            };
            assert_eq!(unit.exchanges, exchanges);
            assert_eq!(unit.opaque_snis, opaque_snis);
        }
        let merged = ledger.merged();
        assert!(
            merged.is_clean(),
            "clean directory must yield a clean ledger"
        );
        assert!(merged.conserved());
        assert_eq!(ledger.units.len(), salvaged.units.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_load_matches_disk_load() {
        let (dataset, dir, service_dir) = written_service_dir("memory-parity");
        let (from_disk, disk_ledger) = load(&service_dir).unwrap();
        let scope = diffaudit_obs::Scope::job("test.memory");
        let svc = MemoryService::from_capture(&dataset.services[0]);
        // Decoded exchanges agree unit for unit...
        let from_memory_decoded: Vec<LoadedUnit> = svc
            .units
            .iter()
            .map(|unit| {
                let path = PathBuf::from(&unit.label);
                decode_unit(
                    unit,
                    &path,
                    &mut SalvageLog::new(),
                    &mut LocalRecorder::new(),
                    &Ctl::unbounded(),
                )
                .unwrap()
            })
            .collect();
        let from_disk_decoded = decode_dir(&service_dir);
        assert_eq!(from_memory_decoded.len(), from_disk_decoded.len());
        for (a, b) in from_memory_decoded.iter().zip(&from_disk_decoded) {
            assert_eq!(a.exchanges, b.exchanges);
            assert_eq!(a.opaque_snis, b.opaque_snis);
        }
        // ...and so do the loads' extracted units and key batches.
        let (from_memory, mem_ledger) = load_memory(svc, &scope, &Ctl::unbounded());
        assert_eq!(from_memory.slug, from_disk.slug);
        assert_eq!(from_memory.units, from_disk.units);
        assert_eq!(from_memory.keys, from_disk.keys);
        assert_eq!(from_memory.key_occurrences, from_disk.key_occurrences);
        assert!(mem_ledger.merged().is_clean());
        assert!(disk_ledger.merged().is_clean());
        // The job scope collected the loader instrumentation privately.
        let snap = scope.finish().expect("job snapshot");
        assert_eq!(
            snap.metrics.counter("loader.units.loaded"),
            from_memory.units.len() as u64
        );
        assert!(snap.metrics.spans().any(|(n, _)| n == "loader.memory"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn expired_ctl_drops_memory_units_with_timeout_reason() {
        let dataset = generate_dataset(&DatasetOptions {
            seed: 21,
            volume_scale: 0.03,
            mobile_pinned_fraction: 0.1,
            services: vec!["tiktok".into()],
        });
        let svc = MemoryService::from_capture(&dataset.services[0]);
        let total = svc.units.len();
        let ctl = Ctl::new(
            diffaudit_util::cancel::CancelToken::new(),
            diffaudit_util::cancel::Deadline::within(std::time::Duration::ZERO),
        );
        let scope = diffaudit_obs::Scope::job("test.timeout");
        let (input, ledger) = load_memory(svc, &scope, &ctl);
        assert!(input.units.is_empty(), "every unit should have timed out");
        assert!(input.keys.is_empty());
        let merged = ledger.merged();
        assert!(merged.conserved());
        assert_eq!(merged.stage(Stage::Unit).dropped, total as u64);
        assert_eq!(ledger.units.len(), total);
        for unit in &ledger.units {
            assert!(
                unit.log
                    .drops()
                    .iter()
                    .any(|d| d.reason.starts_with("timeout:")),
                "drop reason must carry the timeout code: {:?}",
                unit.log.drops()
            );
        }
        let _ = scope.finish();
    }

    #[test]
    fn expired_ctl_drops_disk_units_with_timeout_reason() {
        let (_, dir, service_dir) = written_service_dir("disk-timeout");
        let ctl = Ctl::new(
            diffaudit_util::cancel::CancelToken::new(),
            diffaudit_util::cancel::Deadline::within(std::time::Duration::ZERO),
        );
        let (input, ledger) = load_dir(&service_dir, 2, &ctl).unwrap();
        assert!(input.units.is_empty());
        assert!(ledger.units.iter().all(|u| u
            .log
            .drops()
            .iter()
            .any(|d| d.reason.starts_with("timeout:"))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn salvage_load_isolates_a_broken_unit() {
        let (_, dir, service_dir) = written_service_dir("salvage-broken");
        let all_units = load(&service_dir).unwrap().0.units.len();
        // Destroy one pcap's header so its unit cannot be decoded at all.
        let victim = std::fs::read_dir(&service_dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .find(|p| p.extension().is_some_and(|x| x == "pcap"))
            .unwrap();
        std::fs::write(&victim, b"not a pcap").unwrap();

        let (salvaged, ledger) = load(&service_dir).unwrap();
        assert_eq!(salvaged.units.len(), all_units - 1);
        let merged = ledger.merged();
        assert!(merged.conserved());
        assert_eq!(merged.stage(Stage::Unit).dropped, 1);
        assert_eq!(merged.stage(Stage::Unit).processed, all_units as u64 - 1);
        let dropped = ledger
            .units
            .iter()
            .find(|u| u.unit_dropped())
            .expect("one unit ledger records the drop");
        let victim_name = victim.file_name().unwrap().to_str().unwrap();
        assert_eq!(dropped.file, victim_name);
        assert!(
            dropped
                .log
                .drops()
                .iter()
                .any(|d| d.reason.contains(victim_name)),
            "drop reason should name the artifact"
        );
        // Strict mode is a policy over the same ledger: any drop fails it.
        let mut run = DegradationLedger::new();
        run.services.push(ledger);
        let strict = SalvagePolicy {
            strict: true,
            ..SalvagePolicy::default()
        };
        assert_eq!(strict.evaluate(&run), RunStatus::Failed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// What the loader gave before extraction ran on each decoded request:
    /// decode every unit with [`decode_unit`], extract the collected
    /// exchanges' keys, and account the unit as [`load_unit`] does.
    fn decode_then_extract(
        svc: &MemoryService,
        interner: &KeyInterner,
    ) -> (ExtractedService, ServiceLedger) {
        let mut units = Vec::new();
        let mut ledger_units = Vec::new();
        let mut keys = std::collections::BTreeSet::new();
        let mut key_occurrences = 0u64;
        for (index, unit) in svc.units.iter().enumerate() {
            let mut log = SalvageLog::new();
            let path = PathBuf::from(&unit.label);
            let decoded = decode_unit(
                unit,
                &path,
                &mut log,
                &mut LocalRecorder::new(),
                &Ctl::unbounded(),
            );
            match decoded {
                Ok(loaded) => {
                    log.ok(Stage::Unit);
                    let requests: Vec<_> = loaded
                        .exchanges
                        .into_iter()
                        .map(|ex| {
                            let mut request_keys = Vec::new();
                            crate::extract::visit_request_keys(&ex.request, |k| {
                                request_keys.push(interner.intern(k))
                            });
                            request_keys.sort();
                            request_keys.dedup();
                            (ex.request.url.host, ex.timestamp_ms, request_keys)
                        })
                        .collect();
                    for (_, _, request_keys) in &requests {
                        key_occurrences += request_keys.len() as u64;
                        keys.extend(request_keys.iter().cloned());
                    }
                    units.push(ExtractedUnit {
                        platform: loaded.platform,
                        kind: loaded.kind,
                        category: loaded.category,
                        requests,
                        opaque_snis: loaded.opaque_snis,
                        packet_count: loaded.packet_count,
                        flow_count: loaded.flow_count,
                    });
                }
                Err(e) => log.dropped(Stage::Unit, e.to_string(), Some(index as u64)),
            }
            ledger_units.push(UnitLedger {
                file: unit.label.clone(),
                log,
            });
        }
        let service = ExtractedService {
            name: svc.name.clone(),
            slug: svc.slug.clone(),
            first_party_domains: svc.first_party_domains.clone(),
            units,
            keys,
            key_occurrences,
        };
        let ledger = ServiceLedger {
            slug: svc.slug.clone(),
            units: ledger_units,
        };
        (service, ledger)
    }

    /// `unit` with its artifact replaced and its label prefixed.
    fn variant(unit: &MemoryUnit, tag: &str, artifact: MemoryArtifact) -> MemoryUnit {
        MemoryUnit {
            label: format!("{tag}-{}", unit.label),
            artifact: Arc::new(artifact),
            ..unit.clone()
        }
    }

    #[test]
    fn streaming_load_matches_decode_then_extract() {
        use diffaudit_nettrace::fault::{FaultOp, FaultSpec};
        let dataset = generate_dataset(&DatasetOptions {
            seed: 19,
            volume_scale: 0.05,
            mobile_pinned_fraction: 0.12,
            services: Vec::new(),
        });
        let mut services: Vec<MemoryService> = dataset
            .services
            .iter()
            .map(MemoryService::from_capture)
            .collect();

        // Every fault operator on one capture unit and one HAR unit.
        let first = &services[0];
        let capture = first
            .units
            .iter()
            .find(|u| matches!(*u.artifact, MemoryArtifact::Capture { .. }))
            .expect("a capture unit")
            .clone();
        let har = first
            .units
            .iter()
            .find(|u| matches!(*u.artifact, MemoryArtifact::Har(_)))
            .expect("a HAR unit")
            .clone();
        let (MemoryArtifact::Capture { bytes, keylog }, MemoryArtifact::Har(text)) =
            (&*capture.artifact, &*har.artifact)
        else {
            unreachable!("matched above");
        };
        let mut damaged = Vec::new();
        for op in FaultOp::ALL {
            let spec = FaultSpec {
                op,
                seed: 5,
                rate: 0.05,
            };
            damaged.push(variant(
                &capture,
                op.label(),
                MemoryArtifact::Capture {
                    bytes: spec.apply_pcap(bytes),
                    keylog: keylog.as_deref().map(|k| spec.apply_keylog(k)),
                },
            ));
            damaged.push(variant(
                &har,
                op.label(),
                MemoryArtifact::Har(spec.apply_har(text)),
            ));
        }
        // A HAR that repeats its `log` member keeps only the last one.
        let other = first
            .units
            .iter()
            .find(|u| matches!(*u.artifact, MemoryArtifact::Har(_)) && u.label != har.label)
            .expect("a second HAR unit")
            .clone();
        let MemoryArtifact::Har(other_text) = &*other.artifact else {
            unreachable!("matched above");
        };
        let log_of = |t: &str| parse(t).unwrap().get("log").unwrap().to_string();
        let repeated = format!(r#"{{"log":{},"log":{}}}"#, log_of(text), log_of(other_text));
        damaged.push(variant(&har, "repeated-log", MemoryArtifact::Har(repeated)));
        services[0].units.extend(damaged);

        // A HAR cut by its last byte drops, and adds no key to its service.
        let cut = text[..text.len() - 1].to_string();
        services.push(MemoryService {
            name: "Cut".into(),
            slug: "cut".into(),
            first_party_domains: vec!["cut.example".into()],
            units: vec![variant(&har, "cut", MemoryArtifact::Har(cut))],
        });

        let interner = KeyInterner::new();
        let expected: Vec<_> = services
            .iter()
            .map(|svc| decode_then_extract(svc, &interner))
            .collect();
        let (cut_service, cut_ledger) = expected.last().unwrap();
        assert!(cut_service.units.is_empty() && cut_service.keys.is_empty());
        assert_eq!(cut_service.key_occurrences, 0);
        assert_eq!(cut_ledger.merged().stage(Stage::Unit).dropped, 1);
        let damaged_ledger = expected[0].1.merged();
        assert!(damaged_ledger.total_dropped() > 0, "the faults did damage");
        assert!(
            damaged_ledger.stage(Stage::Unit).dropped > 0,
            "a damaged unit dropped"
        );

        for threads in [1, 2] {
            let loaded = load_memory_services(
                services.clone(),
                threads,
                &Scope::global(),
                &Ctl::unbounded(),
                &KeyInterner::new(),
            );
            assert_eq!(loaded.len(), expected.len());
            for ((service, ledger), (want, want_ledger)) in loaded.into_iter().zip(&expected) {
                let at = format!("{} at --threads {threads}", want.slug);
                assert_eq!(service.units, want.units, "{at}");
                assert_eq!(service.keys, want.keys, "{at}");
                assert_eq!(service.key_occurrences, want.key_occurrences, "{at}");
                assert_eq!(
                    ledger_json(ledger),
                    ledger_json(ServiceLedger {
                        slug: want_ledger.slug.clone(),
                        units: want_ledger
                            .units
                            .iter()
                            .map(|u| UnitLedger {
                                file: u.file.clone(),
                                log: u.log.clone(),
                            })
                            .collect(),
                    }),
                    "{at}"
                );
            }
        }

        // The repeated-log unit reads as the last `log` member alone.
        let requests_of = |label: &str| {
            let service = &expected[0].0;
            let ledger = &expected[0].1;
            let loaded: Vec<&str> = ledger
                .units
                .iter()
                .filter(|u| !u.unit_dropped())
                .map(|u| u.file.as_str())
                .collect();
            let at = loaded
                .iter()
                .position(|f| *f == label)
                .expect("unit loaded");
            &service.units[at].requests
        };
        assert_eq!(
            requests_of(&format!("repeated-log-{}", har.label)),
            requests_of(&other.label)
        );
    }
}
