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
//! Three sources feed the same per-unit loader: a capture directory
//! ([`load_capture_dir`], the CLI), an in-memory upload
//! ([`load_memory_service`], the serve daemon), and a generated dataset
//! ([`MemoryService::from_capture`] → [`load_memory_service`], behind
//! [`crate::pipeline::Pipeline::run`]). Each unit is read on its worker
//! thread (a disk read, or the upload itself), salvage-decoded and
//! accounted under one `loader.unit` span with one ledger entry, then
//! key-extracted on the same worker under a `pipeline.unit.extract` span.
//! The worker keeps only each request's host, timestamp and keys
//! ([`ExtractedUnit`]): the unit's artifact bytes are freed after decode
//! and its decoded exchanges during extraction, before the worker takes
//! its next unit, so a load holds at most one decoded unit per worker
//! however large the corpus. The path tests and benches exercise is the
//! path the CLI and daemon ship; [`decode_unit`] alone is the decode step,
//! for callers that want the exchanges themselves.

use crate::pipeline::{ExtractedService, ExtractedUnit, KeyBatch, LoadedUnit, UnitCtx};
use crate::salvage::{ServiceLedger, UnitLedger};
use diffaudit_json::{parse, Json};
use diffaudit_nettrace::capture::DecodeError;
use diffaudit_nettrace::salvage::{SalvageLog, Stage};
use diffaudit_nettrace::{decode_auto_salvage_ctl, har_to_exchanges_salvage_ctl, HarError, KeyLog};
use diffaudit_obs::Scope;
use diffaudit_services::{Platform, ServiceCapture, TraceArtifact, TraceCategory, TraceKind};
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

fn parse_platform(s: &str) -> Result<Platform, LoadError> {
    match s.to_ascii_lowercase().as_str() {
        "web" => Ok(Platform::Web),
        "mobile" => Ok(Platform::Mobile),
        "desktop" => Ok(Platform::Desktop),
        other => Err(shape_error(format!(
            "unknown platform {other:?} (expected web|mobile|desktop)"
        ))),
    }
}

fn parse_kind(s: &str) -> Result<TraceKind, LoadError> {
    match s.to_ascii_lowercase().as_str() {
        "account-creation" | "account_creation" => Ok(TraceKind::AccountCreation),
        "logged-in" | "logged_in" => Ok(TraceKind::LoggedIn),
        "logged-out" | "logged_out" => Ok(TraceKind::LoggedOut),
        other => Err(shape_error(format!(
            "unknown kind {other:?} (expected account-creation|logged-in|logged-out)"
        ))),
    }
}

fn parse_category(s: &str) -> Result<TraceCategory, LoadError> {
    match s.to_ascii_lowercase().as_str() {
        "child" => Ok(TraceCategory::Child),
        "adolescent" => Ok(TraceCategory::Adolescent),
        "adult" => Ok(TraceCategory::Adult),
        "logged-out" | "logged_out" => Ok(TraceCategory::LoggedOut),
        other => Err(shape_error(format!(
            "unknown category {other:?} (expected child|adolescent|adult|logged-out)"
        ))),
    }
}

fn str_field<'a>(obj: &'a Json, key: &str, ctx: &str) -> Result<&'a str, LoadError> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| shape_error(format!("{ctx}: missing string field {key:?}")))
}

/// The service header plus raw unit entries of a parsed manifest.
struct Manifest {
    path: PathBuf,
    name: String,
    slug: String,
    first_party_domains: Vec<String>,
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
            name,
            slug,
            first_party_domains,
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
    let platform = parse_platform(str_field(entry, "platform", &ctx)?)?;
    let kind = parse_kind(str_field(entry, "kind", &ctx)?)?;
    let category = parse_category(str_field(entry, "category", &ctx)?)?;
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
/// readers check `ctl` between records. `path` names the artifact in
/// errors (the file on disk, or the upload label). The loaders follow this
/// step with key extraction on the same worker; call it directly to keep
/// the decoded exchanges (e.g. for [`crate::pipeline::Pipeline::run_inputs`]).
pub fn decode_unit(
    unit: &MemoryUnit,
    path: &Path,
    log: &mut SalvageLog,
    ctl: &Ctl,
) -> Result<LoadedUnit, LoadError> {
    let (exchanges, opaque_snis, packet_count, flow_count) = match &*unit.artifact {
        MemoryArtifact::Har(text) => {
            let exchanges = har_to_exchanges_salvage_ctl(text, log, ctl).map_err(|e| match e {
                HarError::Interrupted(i) => LoadError::Interrupted(path.to_path_buf(), i),
                other => LoadError::Artifact(path.to_path_buf(), other.to_string()),
            })?;
            let n = exchanges.len();
            (exchanges, Vec::new(), n, n)
        }
        MemoryArtifact::Capture { bytes, keylog } => {
            let keys = match keylog {
                Some(text) => KeyLog::parse_salvage(text, log),
                None => KeyLog::new(),
            };
            let decoded = decode_auto_salvage_ctl(bytes, &keys, log, ctl).map_err(|e| match e {
                DecodeError::Interrupted(i) => LoadError::Interrupted(path.to_path_buf(), i),
                other => LoadError::Artifact(path.to_path_buf(), other.to_string()),
            })?;
            let opaque = decoded.opaque.into_iter().filter_map(|o| o.sni).collect();
            (
                decoded.exchanges,
                opaque,
                decoded.packet_count,
                decoded.flow_count,
            )
        }
    };
    Ok(LoadedUnit {
        platform: unit.platform,
        kind: unit.kind,
        category: unit.category,
        exchanges,
        opaque_snis,
        packet_count,
        flow_count,
    })
}

/// Load one unit on a worker thread, from disk or memory alike: `read`
/// yields the in-memory unit, which is salvage-decoded under a
/// `loader.unit` span and then key-extracted into `ctx`'s batch (the
/// artifact is dropped before extraction starts). Loaded/dropped counters,
/// bytes in and the exchange-count histogram go to the worker's private
/// recorder; any error becomes a `unit`-stage drop (offset = unit index) in
/// the unit's own salvage log. Returns the unit's ledger label, the load
/// result (the error rendered to its display string), and that log.
fn load_unit(
    label: String,
    path: &Path,
    index: usize,
    ctx: &mut UnitCtx,
    interner: &KeyInterner,
    ctl: &Ctl,
    read: impl FnOnce() -> Result<MemoryUnit, LoadError>,
) -> (String, Result<ExtractedUnit, String>, SalvageLog) {
    let mut log = SalvageLog::new();
    let recorder = &mut ctx.recorder;
    // A unit whose control is already tripped drops without being read;
    // units that start decoding are interrupted between records by the
    // salvage readers.
    let outcome = recorder.time("loader.unit", || {
        ctl.check()
            .map_err(|i| LoadError::Interrupted(path.to_path_buf(), i))?;
        let unit = read()?;
        let in_bytes = unit.artifact.byte_len();
        decode_unit(&unit, path, &mut log, ctl).map(|loaded| (loaded, in_bytes))
    });
    let result = match outcome {
        Ok((unit, in_bytes)) => {
            log.ok(Stage::Unit);
            recorder.add("loader.units.loaded", 1);
            recorder.add("loader.unit.bytes.in", in_bytes);
            recorder.observe(
                "loader.unit.exchanges",
                &diffaudit_obs::RECORD_BOUNDS,
                unit.exchanges.len() as u64,
            );
            Ok(ctx.extract(unit, interner))
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

/// Load a capture directory (containing `manifest.json`) into an
/// [`ExtractedService`] ready for
/// [`crate::pipeline::Pipeline::run_extracted_scoped`], plus its
/// degradation ledger. Raw keys are interned through `interner`, which one
/// audit shares across all of its services.
///
/// Manifest-level damage (unreadable or malformed `manifest.json`, broken
/// service header) is a hard error, but each unit is isolated: a unit that
/// cannot be loaded is dropped into the ledger (stage `unit`, offset =
/// manifest entry index) instead of aborting the audit, and units that do
/// load account their own per-record damage through the salvage readers.
/// Whether any damage fails the run is the caller's
/// [`crate::salvage::SalvagePolicy`] (`--strict` tolerates none).
///
/// Units load in parallel over `threads` workers (1 = serial), with
/// instrumentation in `scope`. A tripped `ctl` does not abort the load:
/// every unit still gets a ledger entry, but interrupted units are dropped
/// with a `timeout:`/`cancelled:` reason so the run degrades per salvage
/// policy instead of vanishing.
pub fn load_capture_dir(
    dir: &Path,
    threads: usize,
    scope: &Scope,
    ctl: &Ctl,
    interner: &KeyInterner,
) -> Result<(ExtractedService, ServiceLedger), LoadError> {
    scope.time("loader.dir", || {
        let manifest = read_manifest(dir)?;
        // Workers record `loader.unit` timings and counters into per-thread
        // recorders, and their units' unique keys into per-thread sets, all
        // merged at join; they never emit events — the debug/warn lines go
        // out on this thread afterwards, in manifest order, so the event
        // stream and both returned values are identical for every thread
        // count.
        let batch = KeyBatch::new();
        let loaded = diffaudit_util::par::par_map_ctx(
            threads.max(1),
            &manifest.unit_entries,
            UnitCtx::new,
            |ctx, i, entry| {
                let label = entry
                    .get("file")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .unwrap_or_else(|| format!("units[{i}]"));
                let path = dir.join(&label);
                load_unit(label, &path, i, ctx, interner, ctl, || {
                    read_unit(dir, entry, i).map_err(|e| e.with_manifest_path(&manifest.path))
                })
            },
            |ctx| ctx.finish(&batch, scope),
        );
        Ok(collect_loaded_units(
            manifest.name,
            manifest.slug,
            manifest.first_party_domains,
            loaded,
            batch,
            scope,
        ))
    })
}

/// Fold per-unit load results and the workers' key batch into an
/// [`ExtractedService`] + [`ServiceLedger`] pair, emitting the post-join
/// `unit loaded`/`unit dropped` events in manifest order on the calling
/// thread (shared by the disk and in-memory loaders).
fn collect_loaded_units(
    name: String,
    slug: String,
    first_party_domains: Vec<String>,
    loaded: Vec<(String, Result<ExtractedUnit, String>, SalvageLog)>,
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

/// A trace artifact held in memory: a serve daemon upload (captures
/// arrive over HTTP and never touch the filesystem), a generated unit, or
/// a file the disk loader has just read.
#[derive(Debug, Clone)]
pub enum MemoryArtifact {
    /// HAR 1.2 text (DevTools/Proxyman exports).
    Har(String),
    /// pcap or pcapng bytes plus an optional `SSLKEYLOGFILE` text
    /// (the PCAPdroid path); the container format is sniffed from magic
    /// bytes by the auto decoder.
    Capture {
        /// Raw capture-file bytes.
        bytes: Vec<u8>,
        /// Sibling key-log text, if the client supplied one.
        keylog: Option<String>,
    },
}

/// One uploaded trace unit: the manifest-entry metadata plus its in-memory
/// artifact. Cloning a unit shares the artifact rather than copying its
/// bytes.
#[derive(Debug, Clone)]
pub struct MemoryUnit {
    /// Display label for reports and the ledger (the disk loader uses the
    /// artifact's file name here).
    pub label: String,
    /// Capture platform.
    pub platform: Platform,
    /// Trace kind.
    pub kind: TraceKind,
    /// User-group category.
    pub category: TraceCategory,
    /// The artifact itself, shared: the serve daemon hands one upload to
    /// every job that references it. Mutate it through [`Arc::make_mut`],
    /// so holders of the old artifact keep it unchanged.
    pub artifact: Arc<MemoryArtifact>,
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

impl MemoryArtifact {
    /// Artifact bytes the decoder reads (HAR text, or capture plus key
    /// log) — the `loader.unit.bytes.in` the resource profiler divides by.
    fn byte_len(&self) -> u64 {
        match self {
            MemoryArtifact::Har(text) => text.len() as u64,
            MemoryArtifact::Capture { bytes, keylog } => {
                bytes.len() as u64 + keylog.as_ref().map_or(0, |k| k.len() as u64)
            }
        }
    }
}

impl MemoryService {
    /// The in-memory upload equivalent of one generated service: each
    /// artifact is copied into a [`MemoryUnit`] labelled with the file
    /// name [`write_dataset`] gives it on disk.
    pub fn from_capture(capture: &ServiceCapture) -> MemoryService {
        let units = capture
            .artifacts
            .iter()
            .map(|artifact| MemoryUnit {
                label: UnitNames::of(artifact).file,
                platform: artifact.platform,
                kind: artifact.kind,
                category: artifact.category,
                artifact: Arc::new(match (&artifact.pcap, &artifact.har) {
                    (Some(bytes), _) => MemoryArtifact::Capture {
                        bytes: bytes.clone(),
                        keylog: artifact.keylog.clone(),
                    },
                    (None, har) => MemoryArtifact::Har(har.clone().unwrap_or_default()),
                }),
            })
            .collect();
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

/// Salvage-load an in-memory service upload into an [`ExtractedService`] +
/// [`ServiceLedger`] pair — [`load_capture_dir`] for the serve daemon's
/// HTTP upload path and for generated datasets. There is no manifest file
/// to fail on, so this is infallible at the service level: every unit
/// either loads or lands in the ledger as a drop (interrupted units with a
/// `timeout:`/`cancelled:` reason), and the salvage policy decides what the
/// degradation means.
pub fn load_memory_service(
    svc: MemoryService,
    threads: usize,
    scope: &Scope,
    ctl: &Ctl,
    interner: &KeyInterner,
) -> (ExtractedService, ServiceLedger) {
    scope.time("loader.memory", || {
        let MemoryService {
            name,
            slug,
            first_party_domains,
            units,
        } = svc;
        let batch = KeyBatch::new();
        let loaded = diffaudit_util::par::par_map_ctx_owned(
            threads.max(1),
            units,
            UnitCtx::new,
            |ctx, i, unit| {
                let label = unit.label.clone();
                let path = PathBuf::from(&label);
                load_unit(label, &path, i, ctx, interner, ctl, || Ok(unit))
            },
            |ctx| ctx.finish(&batch, scope),
        );
        collect_loaded_units(name, slug, first_party_domains, loaded, batch, scope)
    })
}

/// How a generated unit is spelled on disk: its manifest `platform`,
/// `kind` and `category` values, its artifact `file` (`<stem>.pcap` for a
/// capture, `<stem>.har` otherwise) and its `keylog` (`<stem>.keys`).
/// [`MemoryService::from_capture`] labels the unit with `file`, so it
/// carries the same ledger label on the disk and in-memory paths.
struct UnitNames {
    platform: String,
    kind: &'static str,
    category: String,
    file: String,
    keylog: String,
}

impl UnitNames {
    fn of(artifact: &TraceArtifact) -> UnitNames {
        let platform = artifact.platform.label().to_lowercase();
        let kind = match artifact.kind {
            TraceKind::AccountCreation => "account-creation",
            TraceKind::LoggedIn => "logged-in",
            TraceKind::LoggedOut => "logged-out",
        };
        let category = artifact.category.label().to_lowercase().replace(' ', "-");
        let stem = format!("{platform}-{category}-{kind}");
        let ext = if artifact.pcap.is_some() {
            "pcap"
        } else {
            "har"
        };
        UnitNames {
            file: format!("{stem}.{ext}"),
            keylog: format!("{stem}.keys"),
            platform,
            kind,
            category,
        }
    }
}

/// Write a generated dataset to disk in the loader's directory layout —
/// one directory per service with `manifest.json` plus artifact files.
/// Returns the per-service directories created.
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
        for artifact in &capture.artifacts {
            let names = UnitNames::of(artifact);
            let mut unit = Json::obj()
                .with("platform", Json::str(names.platform))
                .with("kind", Json::str(names.kind))
                .with("category", Json::str(names.category));
            match (&artifact.pcap, &artifact.har) {
                (Some(pcap), _) => {
                    write(dir.join(&names.file), pcap)?;
                    unit.set("file", Json::str(names.file));
                    if let Some(keylog) = &artifact.keylog {
                        write(dir.join(&names.keylog), keylog.as_bytes())?;
                        unit.set("keylog", Json::str(names.keylog));
                    }
                }
                (None, Some(har)) => {
                    write(dir.join(&names.file), har.as_bytes())?;
                    unit.set("file", Json::str(names.file));
                }
                (None, None) => {}
            }
            units_json.push(unit);
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
        load_capture_dir(
            dir,
            2,
            &Scope::global(),
            &Ctl::unbounded(),
            &KeyInterner::new(),
        )
    }

    fn load_memory(
        svc: MemoryService,
        scope: &Scope,
        ctl: &Ctl,
    ) -> (ExtractedService, ServiceLedger) {
        load_memory_service(svc, 2, scope, ctl, &KeyInterner::new())
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
                decode_unit(&unit, &path, &mut SalvageLog::new(), &Ctl::unbounded()).unwrap()
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
    fn salvage_load_matches_strict_on_clean_directory() {
        use diffaudit_nettrace::{decode_auto, har_to_exchanges};
        let (_, dir, service_dir) = written_service_dir("salvage-clean");
        let (salvaged, ledger) = load(&service_dir).unwrap();
        let manifest = read_manifest(&service_dir).unwrap();
        assert_eq!(salvaged.slug, manifest.slug);
        assert_eq!(salvaged.units.len(), manifest.unit_entries.len());
        // The strict nettrace decoders are the reference for the decode
        // step the loader runs before extraction.
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
                    let decoded = decode_auto(&std::fs::read(&file).unwrap(), &keylog).unwrap();
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
                decode_unit(unit, &path, &mut SalvageLog::new(), &Ctl::unbounded()).unwrap()
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
        let (input, ledger) =
            load_capture_dir(&service_dir, 2, &Scope::global(), &ctl, &KeyInterner::new()).unwrap();
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
}
