//! The end-to-end pipeline: capture artifacts → observed dataset.
//!
//! Mirrors the paper's post-processing: [`crate::loader`] decodes each
//! unit's artifact (HAR or pcap + key log) and extracts raw data types from
//! each outgoing request on the same worker as it is decoded, keeping only
//! each request's host, timestamp and keys ([`ExtractedUnit`]); the
//! pipeline then classifies the *unique* raw types once (the paper
//! classified its 3,968 unique types in batch), analyzes destinations, and
//! assembles per-unit observations ready for the differential audit.
//!
//! Extraction (on the loader's per-unit workers) and per-service assembly
//! shard per unit over the scoped-thread executor in
//! [`diffaudit_util::par`]; only the unique-key classification pass needs a
//! global view. Determinism is preserved by construction: workers return
//! results in input order, the unique-key set is a [`BTreeSet`]
//! (order-insensitive merge), and raw keys are interned [`Key`]s whose
//! ordering delegates to the spelling. `--threads 1` (or
//! [`Pipeline::with_threads`]`(1)`) forces the serial path; any other
//! thread count produces byte-identical output.

use crate::dest::DestinationAnalyzer;
use crate::extract::visit_request_keys;
use crate::flow::{DataFlow, FlowTable4};
use crate::loader::{load_memory_services, MemoryService};
use diffaudit_blocklist::DestinationClass;
use diffaudit_classifier::cache::{config_fingerprint, CacheReport, ClassifyCache};
use diffaudit_classifier::majority::TEMPERATURE_GRID;
use diffaudit_classifier::{ConfidenceAggregation, MajorityEnsemble};
use diffaudit_domains::DomainName;
use diffaudit_nettrace::Exchange;
use diffaudit_obs::Scope;
use diffaudit_ontology::DataTypeCategory;
use diffaudit_services::{GeneratedDataset, Platform, TraceCategory, TraceKind};
use diffaudit_util::cancel::{Ctl, Interrupt};
use diffaudit_util::par::{self, Key, KeyInterner};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How raw data types are mapped to ontology categories.
#[derive(Clone)]
pub enum ClassificationMode {
    /// Use a ground-truth label map (closed-loop verification; plays the
    /// role of the paper's manual labeling).
    Oracle(HashMap<String, DataTypeCategory>),
    /// The paper's production configuration: the temperature-ensemble
    /// majority vote with average confidence aggregation, keeping labels at
    /// or above `threshold` (0.8 in the paper).
    Ensemble {
        /// Simulator seed.
        seed: u64,
        /// Confidence threshold below which keys stay unlabeled.
        threshold: f64,
    },
}

/// One analyzed outgoing exchange.
#[derive(Debug, Clone)]
pub struct ObservedExchange {
    /// Destination FQDN.
    pub fqdn: String,
    /// Destination eSLD.
    pub esld: String,
    /// Destination class.
    pub class: DestinationClass,
    /// Owning organization, when known.
    pub owner: Option<&'static str>,
    /// Classified categories present in the payload (deduplicated).
    pub categories: Vec<DataTypeCategory>,
    /// Raw keys observed (deduplicated, interned — clones share one
    /// allocation per distinct spelling).
    pub raw_keys: Vec<Key>,
    /// Capture timestamp.
    pub timestamp_ms: u64,
}

/// One analyzed capture unit.
#[derive(Debug)]
pub struct ObservedUnit {
    /// Platform.
    pub platform: Platform,
    /// Trace kind.
    pub kind: TraceKind,
    /// Trace category.
    pub category: TraceCategory,
    /// Analyzed exchanges.
    pub exchanges: Vec<ObservedExchange>,
    /// SNIs of flows that could not be decrypted (mobile pinning).
    pub opaque_snis: Vec<String>,
    /// Packets in the unit (pcap packets, or HAR entry count for web).
    pub packet_count: usize,
    /// TCP flows in the unit (pcap flows, or HAR entry count for web).
    pub flow_count: usize,
}

/// One service's full observation.
#[derive(Debug)]
pub struct ObservedService {
    /// Display name.
    pub name: String,
    /// Slug.
    pub slug: String,
    /// All units.
    pub units: Vec<ObservedUnit>,
}

impl ObservedService {
    /// Flows for one trace category, merged across kinds and platforms
    /// (account-creation and logged-in merge per the paper's Table 4).
    pub fn flows(&self, category: TraceCategory) -> FlowTable4 {
        self.units
            .iter()
            .filter(|u| u.category == category)
            .flat_map(|u| u.exchanges.iter())
            .flat_map(|ex| {
                ex.categories.iter().map(move |&c| DataFlow {
                    category: c,
                    fqdn: ex.fqdn.clone(),
                    esld: ex.esld.clone(),
                    class: ex.class,
                })
            })
            .collect()
    }

    /// Flows for one trace category restricted to a platform.
    pub fn flows_on(&self, category: TraceCategory, platform: Platform) -> FlowTable4 {
        self.units
            .iter()
            .filter(|u| u.category == category && u.platform == platform)
            .flat_map(|u| u.exchanges.iter())
            .flat_map(|ex| {
                ex.categories.iter().map(move |&c| DataFlow {
                    category: c,
                    fqdn: ex.fqdn.clone(),
                    esld: ex.esld.clone(),
                    class: ex.class,
                })
            })
            .collect()
    }

    /// All distinct FQDNs contacted (including opaque flows' SNIs).
    pub fn all_fqdns(&self) -> BTreeSet<String> {
        let mut out: BTreeSet<String> = self
            .units
            .iter()
            .flat_map(|u| u.exchanges.iter().map(|e| e.fqdn.clone()))
            .collect();
        for unit in &self.units {
            out.extend(unit.opaque_snis.iter().cloned());
        }
        out
    }
}

/// The full pipeline output.
#[derive(Default)]
pub struct AuditOutcome {
    /// Per-service observations (paper order).
    pub services: Vec<ObservedService>,
    /// The label assigned to each unique raw key (`None` = below threshold
    /// or unparseable).
    pub key_labels: HashMap<Key, Option<DataTypeCategory>>,
    /// Total unique raw data types extracted.
    pub unique_raw_keys: usize,
    /// What the persistent classification cache did, when one was
    /// configured (hits/misses/inserts plus any salvage damage).
    pub cache: Option<CacheReport>,
}

/// The DiffAudit pipeline.
#[derive(Clone)]
pub struct Pipeline {
    mode: ClassificationMode,
    /// Worker-thread override; `None` defers to [`par::available_threads`]
    /// at run time. The `--threads` CLI flag arrives via
    /// [`Pipeline::with_threads`] — there is no process-global default.
    threads: Option<usize>,
    /// Directory of the persistent classification cache; `None` disables
    /// caching (every unique key goes to the ensemble).
    cache_dir: Option<std::path::PathBuf>,
}

impl Pipeline {
    /// Build with a classification mode.
    pub fn new(mode: ClassificationMode) -> Self {
        Self {
            mode,
            threads: None,
            cache_dir: None,
        }
    }

    /// The paper's configuration: majority-average ensemble at 0.8.
    pub fn paper_default(seed: u64) -> Self {
        Self::new(ClassificationMode::Ensemble {
            seed,
            threshold: 0.8,
        })
    }

    /// Override the worker-thread count for this pipeline (`1` forces the
    /// serial path). Without this, runs use [`par::available_threads`].
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Use (creating if necessary) a persistent classification cache under
    /// `dir`: warm re-audits answer previously seen keys from disk and skip
    /// the ensemble for them. Output is byte-identical with the cache cold,
    /// warm, or disabled — the cache stores exactly the post-threshold
    /// verdicts the ensemble would produce, keyed by a configuration
    /// fingerprint that any ontology/config change invalidates.
    pub fn with_cache_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    fn threads(&self) -> usize {
        self.threads.unwrap_or_else(par::available_threads)
    }

    /// Run over a generated dataset, through the same salvage loader as
    /// capture directories and daemon uploads: each service becomes a
    /// [`MemoryService`], and [`load_memory_services`] loads (decodes and
    /// key-extracts) the units of all of them over one queue. The units
    /// share the dataset's artifacts, so no capture byte is copied, and
    /// each decoded exchange is freed on its worker once its keys are
    /// extracted.
    pub fn run(&self, dataset: &GeneratedDataset) -> AuditOutcome {
        let (scope, ctl) = (Scope::global(), Ctl::unbounded());
        let interner = KeyInterner::new();
        let services = dataset
            .services
            .iter()
            .map(MemoryService::from_capture)
            .collect();
        let services = load_memory_services(services, self.threads(), &scope, &ctl, &interner)
            .into_iter()
            .map(|(service, _)| service)
            .collect();
        unbounded(self.run_extracted_scoped(services, &scope, &ctl))
    }

    /// Run over decoded inputs: extract every unit's keys (sharded per
    /// unit, as the loader does), then classify and assemble exactly like
    /// [`Pipeline::run_extracted_scoped`]. For callers that decode units
    /// themselves; the CLI, the daemon and [`Pipeline::run`] extract on the
    /// loader's workers instead and never hold decoded exchanges.
    pub fn run_inputs(&self, inputs: Vec<ServiceInput>) -> AuditOutcome {
        let (scope, ctl) = (Scope::global(), Ctl::unbounded());
        let interner = KeyInterner::new();
        let threads = self.threads();
        let outcome = scope.time("pipeline", || {
            let services = scope.time("pipeline.extract", || {
                inputs
                    .into_iter()
                    .map(|input| {
                        let batch = KeyBatch::new();
                        let units = par::par_map_ctx(
                            threads,
                            input.units,
                            UnitCtx::new,
                            |ctx, _, unit| ctx.extract(unit, 0, &interner),
                            |ctx| ctx.finish(std::slice::from_ref(&batch), &scope),
                        );
                        let (keys, key_occurrences) = batch.into_parts();
                        ExtractedService {
                            name: input.name,
                            slug: input.slug,
                            first_party_domains: input.first_party_domains,
                            units,
                            keys,
                            key_occurrences,
                        }
                    })
                    .collect()
            });
            self.classify_and_assemble(services, &scope, &ctl)
        });
        unbounded(outcome)
    }

    /// Pipeline-as-a-library entry point: classify and assemble services
    /// the loader has already decoded and key-extracted, with an explicit
    /// instrumentation [`Scope`] (global for the batch CLI, a private job
    /// scope for the serve daemon) and a cancellation [`Ctl`] checked
    /// between phases and before each service. On interruption the partial
    /// results are discarded and the interrupt is returned — metrics
    /// gathered so far stay in `scope`.
    pub fn run_extracted_scoped(
        &self,
        services: Vec<ExtractedService>,
        scope: &Scope,
        ctl: &Ctl,
    ) -> Result<AuditOutcome, Interrupt> {
        scope.time("pipeline", || {
            self.classify_and_assemble(services, scope, ctl)
        })
    }

    fn classify_and_assemble(
        &self,
        mut services: Vec<ExtractedService>,
        scope: &Scope,
        ctl: &Ctl,
    ) -> Result<AuditOutcome, Interrupt> {
        ctl.check()?;
        // Per-service counters and progress events, on the calling thread
        // in input order (worker threads never touch the scope's event
        // stream, so it stays deterministic). The services' unique-key sets
        // union into the one set classification runs over.
        let mut unique_keys: BTreeSet<Key> = BTreeSet::new();
        let mut key_occurrences = 0u64;
        for service in &mut services {
            let exchanges: u64 = service.units.iter().map(|u| u.requests.len() as u64).sum();
            scope.add("pipeline.units", service.units.len() as u64);
            scope.add("pipeline.exchanges", exchanges);
            scope.debug(
                "service extracted",
                &[
                    diffaudit_obs::field("slug", service.slug.as_str()),
                    diffaudit_obs::field("units", service.units.len()),
                    diffaudit_obs::field("exchanges", exchanges),
                ],
            );
            unique_keys.append(&mut service.keys);
            key_occurrences += service.key_occurrences;
        }
        record_key_stats(scope, key_occurrences, unique_keys.len());
        ctl.check()?;
        let (key_labels, cache) = self.classify_keys_scoped(&unique_keys, scope);
        ctl.check()?;
        let services = scope.time("pipeline.assemble", || {
            par::par_map_ctx_cancel(
                self.threads(),
                services,
                ctl,
                || (),
                |(), _, service| assemble_service(service, &key_labels),
                |()| {},
            )
        })?;
        Ok(AuditOutcome {
            services,
            key_labels,
            unique_raw_keys: unique_keys.len(),
            cache,
        })
    }

    fn classify_keys_scoped(
        &self,
        keys: &BTreeSet<Key>,
        scope: &Scope,
    ) -> (HashMap<Key, Option<DataTypeCategory>>, Option<CacheReport>) {
        scope.time("pipeline.classify", || self.classify_keys_now(keys, scope))
    }

    fn classify_keys_now(
        &self,
        keys: &BTreeSet<Key>,
        scope: &Scope,
    ) -> (HashMap<Key, Option<DataTypeCategory>>, Option<CacheReport>) {
        match &self.mode {
            ClassificationMode::Oracle(truth) => (
                keys.iter()
                    .map(|k| (k.clone(), truth.get(k.as_ref()).copied()))
                    .collect(),
                None,
            ),
            ClassificationMode::Ensemble { seed, threshold } => {
                // Probe the persistent cache first: verdicts stored under an
                // exactly matching configuration fingerprint are the ones
                // the ensemble would reproduce, so hits skip it entirely.
                let mut cache = None;
                let mut report = None;
                if let Some(dir) = &self.cache_dir {
                    scope.time("pipeline.classify.cache", || {
                        let fingerprint = config_fingerprint(
                            *seed,
                            *threshold,
                            &TEMPERATURE_GRID,
                            "majority-avg",
                        );
                        match ClassifyCache::open(dir, fingerprint) {
                            Ok(store) => {
                                scope.add("pipeline.classify.cache.bytes.in", store.bytes_loaded());
                                report = Some(store.report());
                                cache = Some(store);
                            }
                            // A broken cache degrades to uncached operation,
                            // never a failed audit.
                            Err(e) => scope.warn(
                                "classification cache unavailable; running uncached",
                                &[diffaudit_obs::field("error", e.to_string())],
                            ),
                        }
                    });
                }
                let mut labels: HashMap<Key, Option<DataTypeCategory>> =
                    HashMap::with_capacity(keys.len());
                let mut misses: Vec<&Key> = Vec::new();
                match &cache {
                    Some(store) => {
                        for k in keys {
                            match store.get(k.as_ref()) {
                                Some(verdict) => {
                                    labels.insert(k.clone(), verdict);
                                }
                                None => misses.push(k),
                            }
                        }
                        let hits = (keys.len() - misses.len()) as u64;
                        scope.add("pipeline.classify.cache.hit", hits);
                        scope.add("pipeline.classify.cache.miss", misses.len() as u64);
                        if let Some(r) = report.as_mut() {
                            r.hits = hits;
                            r.misses = misses.len() as u64;
                        }
                    }
                    None => misses.extend(keys.iter()),
                }
                if !misses.is_empty() {
                    let ensemble = MajorityEnsemble::new(*seed, ConfidenceAggregation::Average);
                    let refs: Vec<&str> = misses.iter().map(|k| k.as_ref()).collect();
                    let results = ensemble.classify_batch_threads(&refs, self.threads());
                    let mut fresh: Vec<(&str, Option<DataTypeCategory>)> =
                        Vec::with_capacity(misses.len());
                    for ((k, raw), r) in misses.iter().zip(&refs).zip(results) {
                        let label = match r.category {
                            Some(c) if r.confidence >= *threshold => Some(c),
                            _ => None,
                        };
                        fresh.push((raw, label));
                        labels.insert((*k).clone(), label);
                    }
                    if let Some(store) = cache.as_mut() {
                        let inserted =
                            scope.time("pipeline.classify.cache", || store.insert_batch(&fresh));
                        match inserted {
                            Ok(n) => {
                                if n > 0 {
                                    scope.add("pipeline.classify.cache.insert", n);
                                }
                                if let Some(r) = report.as_mut() {
                                    r.inserts = n;
                                }
                            }
                            Err(e) => scope.warn(
                                "classification cache insert failed",
                                &[diffaudit_obs::field("error", e.to_string())],
                            ),
                        }
                    }
                }
                (labels, report)
            }
        }
    }
}

/// Record the unique-key dedup counters: classification runs once per
/// *unique* key (the paper classified its 3,968 unique types in batch), so
/// every repeat occurrence is a cache hit the batch never pays for.
fn record_key_stats(scope: &Scope, occurrences: u64, unique: usize) {
    scope.add("pipeline.keys.occurrences", occurrences);
    scope.add("pipeline.keys.unique", unique as u64);
    let hit_rate = if occurrences > 0 {
        1.0 - (unique as f64 / occurrences as f64)
    } else {
        0.0
    };
    scope.debug(
        "unique-key classification cache",
        &[
            diffaudit_obs::field("occurrences", occurrences),
            diffaudit_obs::field("unique", unique),
            diffaudit_obs::field("hitRate", hit_rate),
        ],
    );
}

/// Unwrap a run under [`Ctl::unbounded`]: an unbounded control has no
/// deadline and an untripped private token, so interruption is
/// unreachable; the empty outcome only keeps the signature total.
fn unbounded(outcome: Result<AuditOutcome, Interrupt>) -> AuditOutcome {
    outcome.unwrap_or_else(|_| AuditOutcome {
        services: Vec::new(),
        key_labels: HashMap::new(),
        unique_raw_keys: 0,
        cache: None,
    })
}

/// One decoded capture unit — what [`crate::loader::decode_unit`] returns,
/// and the input format of [`Pipeline::run_inputs`] for callers that decode
/// traces themselves.
#[derive(Debug)]
pub struct LoadedUnit {
    /// Platform the unit was captured on.
    pub platform: Platform,
    /// Trace kind.
    pub kind: TraceKind,
    /// Trace category.
    pub category: TraceCategory,
    /// The decoded outgoing exchanges.
    pub exchanges: Vec<Exchange>,
    /// SNIs of undecryptable flows.
    pub opaque_snis: Vec<String>,
    /// Packets in the unit.
    pub packet_count: usize,
    /// TCP flows in the unit.
    pub flow_count: usize,
}

/// A [`Pipeline::run_inputs`] input: one service's identity plus its
/// decoded units.
#[derive(Debug)]
pub struct ServiceInput {
    /// Display name.
    pub name: String,
    /// Stable slug.
    pub slug: String,
    /// The service's own registrable domains (party classification).
    pub first_party_domains: Vec<String>,
    /// The decoded units.
    pub units: Vec<LoadedUnit>,
}

/// One capture unit after decode and key extraction: what classification
/// and assembly read of it, and nothing else. The loader's worker builds it
/// request by request as the unit decodes, dropping each exchange once its
/// keys are extracted and the capture bytes before taking its next unit, so
/// a run holds no request or response payloads.
#[derive(Debug, PartialEq)]
pub struct ExtractedUnit {
    /// Platform the unit was captured on.
    pub platform: Platform,
    /// Trace kind.
    pub kind: TraceKind,
    /// Trace category.
    pub category: TraceCategory,
    /// Per outgoing request: destination host, capture timestamp, and the
    /// sorted, deduplicated raw keys of its payload.
    pub requests: Vec<(DomainName, u64, Vec<Key>)>,
    /// SNIs of undecryptable flows.
    pub opaque_snis: Vec<String>,
    /// Packets in the unit.
    pub packet_count: usize,
    /// TCP flows in the unit.
    pub flow_count: usize,
}

/// One service's loaded and key-extracted units — what
/// [`crate::loader::load_capture_dirs`] and
/// [`crate::loader::load_memory_services`] return for
/// [`Pipeline::run_extracted_scoped`].
#[derive(Debug)]
pub struct ExtractedService {
    /// Display name.
    pub name: String,
    /// Stable slug.
    pub slug: String,
    /// The service's own registrable domains (party classification).
    pub first_party_domains: Vec<String>,
    /// The units that loaded, in manifest order.
    pub units: Vec<ExtractedUnit>,
    /// The unique raw keys of `units`, gathered on the extract workers.
    pub keys: BTreeSet<Key>,
    /// Raw key occurrences across `units` (repeats included).
    pub key_occurrences: u64,
}

/// Per-worker extract context: a private metric recorder plus the
/// thread's share of each service's unique-key batch. Merged once at join.
pub(crate) struct UnitCtx {
    pub(crate) recorder: diffaudit_obs::LocalRecorder,
    /// Unique keys and key occurrences, by service index.
    keys: Vec<(BTreeSet<Key>, u64)>,
}

impl UnitCtx {
    pub(crate) fn new() -> UnitCtx {
        UnitCtx {
            recorder: diffaudit_obs::LocalRecorder::new(),
            keys: Vec::new(),
        }
    }

    /// Extract one decoded unit's keys and fold them into this worker's
    /// batch for `service`: its exchanges go through [`UnitRequests`] one at
    /// a time, as the loader's decoders hand them over, so their payloads
    /// are freed as extraction walks them.
    pub(crate) fn extract(
        &mut self,
        mut unit: LoadedUnit,
        service: usize,
        interner: &KeyInterner,
    ) -> ExtractedUnit {
        let exchanges = std::mem::take(&mut unit.exchanges);
        let kept = exchanges.len();
        let mut requests = UnitRequests::default();
        for exchange in exchanges {
            requests.push(exchange, interner);
        }
        self.fold(unit, requests, kept, service)
    }

    /// Fold a loaded unit into this worker's batch for `service`. The
    /// unit's exchanges went to `requests` as they were decoded (`unit`
    /// carries the rest of it), and the unit keeps the last `kept` of them
    /// (see [`diffaudit_nettrace::har_to_exchanges_salvage_ctl`]). Records
    /// the unit's bytes in and summed extraction time as one
    /// `pipeline.unit.extract` span.
    pub(crate) fn fold(
        &mut self,
        unit: LoadedUnit,
        mut requests: UnitRequests,
        kept: usize,
        service: usize,
    ) -> ExtractedUnit {
        let superseded = requests.requests.len().saturating_sub(kept);
        requests.requests.drain(..superseded);
        // The unit's requests live until assembly; keep no growth slack.
        requests.requests.shrink_to_fit();
        let bytes_in = requests.bytes.iter().skip(superseded).sum();
        self.recorder
            .add("pipeline.unit.extract.bytes.in", bytes_in);
        let busy_us = u64::try_from(requests.busy.as_micros()).unwrap_or(u64::MAX);
        self.recorder.span("pipeline.unit.extract", busy_us);
        if self.keys.len() <= service {
            self.keys.resize_with(service + 1, Default::default);
        }
        let (keys, occurrences) = &mut self.keys[service];
        for (_, _, request_keys) in &requests.requests {
            *occurrences += request_keys.len() as u64;
            keys.extend(request_keys.iter().cloned());
        }
        ExtractedUnit {
            platform: unit.platform,
            kind: unit.kind,
            category: unit.category,
            requests: requests.requests,
            opaque_snis: unit.opaque_snis,
            packet_count: unit.packet_count,
            flow_count: unit.flow_count,
        }
    }

    /// Merge this worker's per-service batches into the shared ones, which
    /// `batches` holds by service index (called at join). The recorder
    /// lands wherever the run's scope points — the global registry for the
    /// batch path, the job's private registry under the daemon.
    pub(crate) fn finish(self, batches: &[KeyBatch], scope: &Scope) {
        for ((keys, occurrences), batch) in self.keys.into_iter().zip(batches) {
            match batch.keys.lock() {
                Ok(mut shared) => shared.extend(keys),
                Err(poisoned) => poisoned.into_inner().extend(keys),
            }
            batch.occurrences.fetch_add(occurrences, Ordering::Relaxed);
        }
        scope.absorb(self.recorder);
    }
}

/// The shared unique-key accumulator: a deterministic [`BTreeSet`] merge
/// target (union is order-insensitive, iteration is sorted) plus the raw
/// occurrence tally. Interned keys make the set membership test a pointer
/// hash away and the union clone a reference-count bump.
pub(crate) struct KeyBatch {
    keys: Mutex<BTreeSet<Key>>,
    occurrences: AtomicU64,
}

impl KeyBatch {
    pub(crate) fn new() -> KeyBatch {
        KeyBatch {
            keys: Mutex::new(BTreeSet::new()),
            occurrences: AtomicU64::new(0),
        }
    }

    pub(crate) fn into_parts(self) -> (BTreeSet<Key>, u64) {
        let keys = match self.keys.into_inner() {
            Ok(keys) => keys,
            Err(poisoned) => poisoned.into_inner(),
        };
        (keys, self.occurrences.into_inner())
    }
}

/// One unit's outgoing requests, key-extracted one at a time as its
/// decoder hands them over: each request keeps its host, timestamp and
/// sorted, deduplicated raw keys, and the rest of the exchange is dropped
/// before the next one is decoded. Pure per-request work; the unit's keys
/// reach a batch only through [`UnitCtx::fold`], once the unit has loaded.
#[derive(Default)]
pub(crate) struct UnitRequests {
    requests: Vec<(DomainName, u64, Vec<Key>)>,
    /// Each request's exchange payload, as the extract stage walks it
    /// (`pipeline.unit.extract.bytes.in`).
    bytes: Vec<u64>,
    /// Time spent extracting, summed over the requests.
    busy: Duration,
}

impl UnitRequests {
    /// Extract one exchange's request keys, then drop the exchange.
    pub(crate) fn push(&mut self, exchange: Exchange, interner: &KeyInterner) {
        let start = Instant::now();
        let mut keys: Vec<Key> = Vec::new();
        visit_request_keys(&exchange.request, |key| keys.push(interner.intern(key)));
        keys.sort();
        keys.dedup();
        self.bytes.push(exchange.logical_bytes());
        self.requests
            .push((exchange.request.url.host, exchange.timestamp_ms, keys));
        self.busy += start.elapsed();
    }
}

fn assemble_service(
    service: ExtractedService,
    key_labels: &HashMap<Key, Option<DataTypeCategory>>,
) -> ObservedService {
    let domain_refs: Vec<&str> = service
        .first_party_domains
        .iter()
        .map(String::as_str)
        .collect();
    let mut analyzer = DestinationAnalyzer::new(&domain_refs);
    let observed_units = service
        .units
        .into_iter()
        .map(|unit| {
            let exchanges = unit
                .requests
                .into_iter()
                .filter_map(|(host, timestamp_ms, keys)| {
                    let info = analyzer.analyze(host.as_str())?;
                    let mut categories: Vec<DataTypeCategory> = keys
                        .iter()
                        .filter_map(|k| key_labels.get(k).copied().flatten())
                        .collect();
                    categories.sort();
                    categories.dedup();
                    Some(ObservedExchange {
                        fqdn: info.fqdn,
                        esld: info.esld.unwrap_or_default(),
                        class: info.class,
                        owner: info.owner,
                        categories,
                        raw_keys: keys,
                        timestamp_ms,
                    })
                })
                .collect();
            ObservedUnit {
                platform: unit.platform,
                kind: unit.kind,
                category: unit.category,
                exchanges,
                opaque_snis: unit.opaque_snis,
                packet_count: unit.packet_count,
                flow_count: unit.flow_count,
            }
        })
        .collect();
    ObservedService {
        name: service.name,
        slug: service.slug,
        units: observed_units,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffaudit_services::{generate_dataset, DatasetOptions};

    fn tiny_dataset() -> GeneratedDataset {
        generate_dataset(&DatasetOptions {
            seed: 77,
            volume_scale: 0.03,
            mobile_pinned_fraction: 0.1,
            services: vec!["tiktok".into()],
        })
    }

    #[test]
    fn oracle_pipeline_runs_end_to_end() {
        let dataset = tiny_dataset();
        let pipeline = Pipeline::new(ClassificationMode::Oracle(dataset.key_truth.clone()));
        let outcome = pipeline.run(&dataset);
        assert_eq!(outcome.services.len(), 1);
        let service = &outcome.services[0];
        assert_eq!(service.slug, "tiktok");
        assert_eq!(service.units.len(), 14);
        assert!(outcome.unique_raw_keys > 50);
        // Every decoded exchange got destination analysis and ≥1 category.
        let with_cats = service
            .units
            .iter()
            .flat_map(|u| &u.exchanges)
            .filter(|e| !e.categories.is_empty())
            .count();
        let total: usize = service.units.iter().map(|u| u.exchanges.len()).sum();
        assert!(total > 0);
        assert!(
            with_cats as f64 / total as f64 > 0.95,
            "{with_cats}/{total} exchanges categorized"
        );
    }

    #[test]
    fn flows_merge_kinds_and_platforms() {
        let dataset = tiny_dataset();
        let pipeline = Pipeline::new(ClassificationMode::Oracle(dataset.key_truth.clone()));
        let outcome = pipeline.run(&dataset);
        let service = &outcome.services[0];
        let merged = service.flows(TraceCategory::Child);
        let web_only = service.flows_on(TraceCategory::Child, Platform::Web);
        assert!(merged.len() >= web_only.len());
        assert!(!merged.is_empty());
    }

    #[test]
    fn ensemble_mode_labels_most_keys() {
        let dataset = tiny_dataset();
        let pipeline = Pipeline::paper_default(3);
        let outcome = pipeline.run(&dataset);
        let labeled = outcome.key_labels.values().filter(|v| v.is_some()).count();
        let frac = labeled as f64 / outcome.key_labels.len() as f64;
        assert!(
            (0.3..1.0).contains(&frac),
            "labeled fraction {frac} out of plausible range"
        );
    }

    #[test]
    fn mobile_units_report_packets_and_flows() {
        let dataset = tiny_dataset();
        let pipeline = Pipeline::new(ClassificationMode::Oracle(dataset.key_truth.clone()));
        let outcome = pipeline.run(&dataset);
        let mobile_units: Vec<&ObservedUnit> = outcome.services[0]
            .units
            .iter()
            .filter(|u| u.platform == Platform::Mobile)
            .collect();
        assert!(!mobile_units.is_empty());
        for unit in mobile_units {
            assert!(unit.packet_count > unit.flow_count, "pcap packets > flows");
            assert!(unit.flow_count > 0);
        }
    }
}
