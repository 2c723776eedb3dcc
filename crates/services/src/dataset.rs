//! Full-dataset generation: the paper's collection campaign in one call.
//!
//! For every service × platform × trace unit, [`generate_dataset`] produces
//! the artifact the corresponding real capture would yield — a HAR document
//! for web and desktop units (Chrome DevTools / Proxyman), or pcap bytes
//! plus an `SSLKEYLOGFILE` key log for mobile units (PCAPdroid) — along with
//! the dataset-wide key ground truth used to validate classifiers.

use crate::catalog::all_services;
use crate::keys::KeyFactory;
use crate::profile::{AgeGroup, Platform, TraceCategory, TraceKind};
use crate::session::{generate_unit_scaled, TraceState};
use crate::spec::ServiceSpec;
use diffaudit_nettrace::{har_from_exchanges, CaptureOptions, CaptureSession, Exchange};
use diffaudit_ontology::DataTypeCategory;
use diffaudit_util::Rng;
use std::collections::HashMap;

/// Options controlling dataset generation.
#[derive(Debug, Clone)]
pub struct DatasetOptions {
    /// Master seed; everything downstream derives from it.
    pub seed: u64,
    /// Multiplies every trace's exchange count (1.0 = Table 1 scale; tests
    /// use much smaller values).
    pub volume_scale: f64,
    /// Fraction of mobile destinations whose TLS keys cannot be extracted
    /// (certificate pinning; per-host deterministic).
    pub mobile_pinned_fraction: f64,
    /// Only generate these service slugs (empty = all six).
    pub services: Vec<String>,
}

impl Default for DatasetOptions {
    fn default() -> Self {
        Self {
            seed: 2023,
            volume_scale: 1.0,
            mobile_pinned_fraction: 0.12,
            services: Vec::new(),
        }
    }
}

impl DatasetOptions {
    /// A small-volume configuration for tests (≈4% of paper scale, light
    /// padding is kept as-is).
    pub fn test_scale(seed: u64) -> DatasetOptions {
        DatasetOptions {
            seed,
            volume_scale: 0.06,
            mobile_pinned_fraction: 0.12,
            services: Vec::new(),
        }
    }
}

/// One captured unit.
#[derive(Debug)]
pub struct TraceArtifact {
    /// Platform of the unit.
    pub platform: Platform,
    /// Trace kind.
    pub kind: TraceKind,
    /// Trace category (age or logged-out).
    pub category: TraceCategory,
    /// Age group, for age-specific traces.
    pub age: Option<AgeGroup>,
    /// HAR document text (web/desktop units).
    pub har: Option<String>,
    /// pcap bytes (mobile units).
    pub pcap: Option<Vec<u8>>,
    /// Key log text (mobile units).
    pub keylog: Option<String>,
    /// Number of exchanges generated into this unit.
    pub exchange_count: usize,
}

/// All artifacts for one service.
#[derive(Debug)]
pub struct ServiceCapture {
    /// The service specification (ground truth).
    pub spec: ServiceSpec,
    /// The captured units.
    pub artifacts: Vec<TraceArtifact>,
}

/// The complete generated dataset.
#[derive(Debug)]
pub struct GeneratedDataset {
    /// Per-service captures.
    pub services: Vec<ServiceCapture>,
    /// Ground truth for every raw key emitted anywhere in the dataset.
    pub key_truth: HashMap<String, DataTypeCategory>,
    /// The options used.
    pub options: DatasetOptions,
}

/// Base timestamp: 2023-10-02T09:00:00Z (the paper collected in fall 2023).
pub const CAMPAIGN_START_MS: u64 = 1_696_237_200_000;

/// Generate the full dataset.
///
/// Two phases. Exchange *generation* is serial by necessity: the shared
/// [`KeyFactory`] disambiguates cross-service spelling collisions in
/// first-seen order, so the campaign walks services and units in one fixed
/// sequence to keep every key name (and the ground truth) bit-stable.
/// Unit *packaging* — HAR serialization, or the pcap/TLS capture
/// simulation seeded per `(seed, slug, unit_index)` — is pure per-unit
/// work, so all services' units package concurrently over the scoped
/// executor ([`diffaudit_util::par::available_threads`] workers; use
/// [`generate_dataset_threads`] to pass the `--threads` flag through;
/// 1 forces the serial path). Results return in input order, so artifacts
/// are byte-identical at any thread count.
pub fn generate_dataset(options: &DatasetOptions) -> GeneratedDataset {
    generate_dataset_threads(options, diffaudit_util::par::available_threads())
}

/// [`generate_dataset`] with an explicit packaging thread count.
pub fn generate_dataset_threads(options: &DatasetOptions, threads: usize) -> GeneratedDataset {
    let root = Rng::new(options.seed);
    let mut factory = KeyFactory::new();
    let mut specs: Vec<ServiceSpec> = Vec::new();
    let mut pending: Vec<(usize, PendingUnit)> = Vec::new();
    for spec in all_services() {
        if !options.services.is_empty() && !options.services.iter().any(|s| s == spec.slug) {
            continue;
        }
        let service_index = specs.len();
        let units = generate_service_units(&spec, options, &root, &mut factory);
        pending.extend(units.into_iter().map(|unit| (service_index, unit)));
        specs.push(spec);
    }
    let packaged =
        diffaudit_util::par::par_map(threads.max(1), pending, |_, (service_index, unit)| {
            let artifact = match specs.get(service_index) {
                Some(spec) => package_unit(spec, options, unit),
                // Unreachable: every pending unit was minted with its
                // spec's index. Skipping keeps the closure panic-free.
                None => return None,
            };
            Some((service_index, artifact))
        });
    let mut services: Vec<ServiceCapture> = specs
        .iter()
        .map(|spec| ServiceCapture {
            spec: spec.clone(),
            artifacts: Vec::new(),
        })
        .collect();
    for (service_index, artifact) in packaged.into_iter().flatten() {
        if let Some(capture) = services.get_mut(service_index) {
            capture.artifacts.push(artifact);
        }
    }
    GeneratedDataset {
        services,
        key_truth: factory.truth().clone(),
        options: options.clone(),
    }
}

/// Generate one service's capture (callable separately so the full-scale
/// benchmark can process services one at a time). Exchange generation is
/// serial (see [`generate_dataset`]); this service's units still package
/// in parallel on [`diffaudit_util::par::available_threads`] workers.
pub fn generate_service(
    spec: &ServiceSpec,
    options: &DatasetOptions,
    root: &Rng,
    factory: &mut KeyFactory,
) -> ServiceCapture {
    let units = generate_service_units(spec, options, root, factory);
    let artifacts = diffaudit_util::par::par_map(
        diffaudit_util::par::available_threads(),
        units,
        |_, unit| package_unit(spec, options, unit),
    );
    ServiceCapture {
        spec: spec.clone(),
        artifacts,
    }
}

/// One unit's generated exchanges, awaiting packaging into an artifact.
struct PendingUnit {
    platform: Platform,
    kind: TraceKind,
    category: TraceCategory,
    exchanges: Vec<Exchange>,
    /// The campaign-order index packaging uses for per-unit capture seeds
    /// (1-based, matching the pre-parallel packaging order).
    unit_index: u64,
}

/// Serial phase: run the campaign's unit walk for one service, producing
/// every unit's exchanges (and growing the shared key ground truth) in the
/// fixed platform × category × kind order.
fn generate_service_units(
    spec: &ServiceSpec,
    options: &DatasetOptions,
    root: &Rng,
    factory: &mut KeyFactory,
) -> Vec<PendingUnit> {
    let mut units = Vec::new();
    // Shared per-category state (destination pools, linkability caps).
    let mut states: HashMap<TraceCategory, TraceState> = TraceCategory::ALL
        .iter()
        .map(|&c| (c, TraceState::new(spec, c, root)))
        .collect();
    let mut unit_index = 0u64;
    for &platform in &spec.platforms {
        for &category in &TraceCategory::ALL {
            let kinds: &[TraceKind] = match category {
                TraceCategory::LoggedOut => &[TraceKind::LoggedOut],
                _ => &[TraceKind::AccountCreation, TraceKind::LoggedIn],
            };
            for &kind in kinds {
                let start_ms = CAMPAIGN_START_MS + unit_index * 3_600_000;
                unit_index += 1;
                let state = states.get_mut(&category).expect("state exists");
                let exchanges = generate_unit_scaled(
                    spec,
                    category,
                    kind,
                    platform,
                    state,
                    factory,
                    root,
                    start_ms,
                    options.volume_scale,
                );
                units.push(PendingUnit {
                    platform,
                    kind,
                    category,
                    exchanges,
                    unit_index,
                });
            }
        }
    }
    units
}

/// Parallel phase: package one unit's exchanges into its capture artifact.
/// Pure per-unit work — the mobile capture seed derives only from the
/// dataset seed, the service slug, and the unit's campaign index.
fn package_unit(spec: &ServiceSpec, options: &DatasetOptions, unit: PendingUnit) -> TraceArtifact {
    let PendingUnit {
        platform,
        kind,
        category,
        exchanges,
        unit_index,
    } = unit;
    let exchange_count = exchanges.len();
    let age = category.age_group();
    match platform {
        Platform::Web | Platform::Desktop => TraceArtifact {
            platform,
            kind,
            category,
            age,
            har: Some(har_from_exchanges(&exchanges).to_string()),
            pcap: None,
            keylog: None,
            exchange_count,
        },
        Platform::Mobile => {
            let mut session = CaptureSession::new(CaptureOptions {
                seed: options.seed ^ diffaudit_util::fnv1a64(spec.slug.as_bytes()) ^ unit_index,
                pinned_fraction: options.mobile_pinned_fraction,
                ..Default::default()
            });
            for exchange in &exchanges {
                session.capture(exchange);
            }
            let (pcap, keylog) = session.finish();
            TraceArtifact {
                platform,
                kind,
                category,
                age,
                har: None,
                pcap: Some(pcap),
                keylog: Some(keylog),
                exchange_count,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_options() -> DatasetOptions {
        DatasetOptions {
            seed: 42,
            volume_scale: 0.03,
            mobile_pinned_fraction: 0.1,
            services: vec!["tiktok".into(), "youtube".into()],
        }
    }

    #[test]
    fn generates_requested_services_only() {
        let ds = generate_dataset(&tiny_options());
        let slugs: Vec<&str> = ds.services.iter().map(|s| s.spec.slug).collect();
        assert_eq!(slugs, ["tiktok", "youtube"]);
    }

    #[test]
    fn unit_structure_per_platform() {
        let ds = generate_dataset(&tiny_options());
        let tiktok = &ds.services[0];
        // 2 platforms × (3 ages × 2 kinds + 1 logged-out) = 14 units.
        assert_eq!(tiktok.artifacts.len(), 14);
        let web_units = tiktok
            .artifacts
            .iter()
            .filter(|a| a.platform == Platform::Web)
            .count();
        assert_eq!(web_units, 7);
        for artifact in &tiktok.artifacts {
            match artifact.platform {
                Platform::Web | Platform::Desktop => {
                    assert!(artifact.har.is_some() && artifact.pcap.is_none());
                }
                Platform::Mobile => {
                    assert!(artifact.pcap.is_some() && artifact.keylog.is_some());
                    assert!(artifact.har.is_none());
                }
            }
            assert!(artifact.exchange_count > 0);
        }
    }

    #[test]
    fn desktop_units_only_for_desktop_services() {
        let options = DatasetOptions {
            services: vec!["roblox".into()],
            ..tiny_options()
        };
        let ds = generate_dataset(&options);
        let roblox = &ds.services[0];
        // 3 platforms × 7 units.
        assert_eq!(roblox.artifacts.len(), 21);
        assert!(roblox
            .artifacts
            .iter()
            .any(|a| a.platform == Platform::Desktop));
    }

    #[test]
    fn key_truth_accumulates() {
        let ds = generate_dataset(&tiny_options());
        assert!(
            ds.key_truth.len() > 100,
            "expected a rich key vocabulary, got {}",
            ds.key_truth.len()
        );
    }

    #[test]
    fn deterministic_dataset() {
        let a = generate_dataset(&tiny_options());
        let b = generate_dataset(&tiny_options());
        assert_eq!(a.key_truth, b.key_truth);
        for (sa, sb) in a.services.iter().zip(&b.services) {
            for (ua, ub) in sa.artifacts.iter().zip(&sb.artifacts) {
                assert_eq!(ua.har, ub.har);
                assert_eq!(ua.pcap, ub.pcap);
                assert_eq!(ua.keylog, ub.keylog);
            }
        }
    }

    #[test]
    fn mobile_artifacts_decode() {
        use diffaudit_nettrace::{decode_auto_salvage, KeyLog, SalvageLog};
        let ds = generate_dataset(&tiny_options());
        let mobile = ds.services[0]
            .artifacts
            .iter()
            .find(|a| a.platform == Platform::Mobile)
            .unwrap();
        let keylog = KeyLog::parse(mobile.keylog.as_ref().unwrap());
        let mut log = SalvageLog::new();
        let decoded =
            decode_auto_salvage(mobile.pcap.as_ref().unwrap(), &keylog, &mut log).unwrap();
        assert!(log.is_clean(), "{:?}", log.drops());
        assert_eq!(decoded.flow_count, mobile.exchange_count);
        assert!(
            !decoded.exchanges.is_empty(),
            "most flows should be decryptable"
        );
    }

    #[test]
    fn har_artifacts_parse() {
        use diffaudit_nettrace::har_to_exchanges;
        let ds = generate_dataset(&tiny_options());
        let web = ds.services[0]
            .artifacts
            .iter()
            .find(|a| a.platform == Platform::Web)
            .unwrap();
        let exchanges = har_to_exchanges(web.har.as_ref().unwrap()).unwrap();
        assert_eq!(exchanges.len(), web.exchange_count);
    }
}
