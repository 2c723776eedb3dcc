//! Chaos suite: drive the salvage pipeline across the full fault-operator ×
//! seed grid and assert the three degradation invariants:
//!
//! 1. **No panics** — every corrupted input decodes to a value or a typed
//!    error (a panic aborts the test process, so completion is the proof).
//! 2. **Ledger conservation** — `processed + dropped == total` at every
//!    stage, for every operator, seed, and corruption rate.
//! 3. **Monotone degradation** — for lossy operators, raising the corruption
//!    rate never *recovers* audit signal: the number of recovered exchanges
//!    and the number of observed Table-4 cells are non-increasing in the
//!    rate (fault selection is nested by construction, so the survivors at a
//!    higher rate are a subset of the survivors at a lower rate).
//!
//! At rate 0 every operator must be the identity: the decode output equals
//! the pristine decode and the ledger is clean.

use diffaudit::diff::ObservedGrid;
use diffaudit::pipeline::{ClassificationMode, LoadedUnit, Pipeline, ServiceInput};
use diffaudit_nettrace::fault::{FaultOp, FaultSpec};
use diffaudit_nettrace::pcapng::inject_secrets;
use diffaudit_nettrace::{
    decode_auto_salvage, decode_auto_salvage_ctl, har_to_exchanges_salvage, KeyLog, SalvageLog,
};
use diffaudit_obs::LocalRecorder;
use diffaudit_services::{generate_dataset, DatasetOptions, GeneratedDataset, MemoryArtifact};

const SEEDS: [u64; 2] = [3, 11];
const RATES: [f64; 4] = [0.0, 0.05, 0.25, 0.6];

fn dataset() -> GeneratedDataset {
    generate_dataset(&DatasetOptions {
        seed: 21,
        volume_scale: 0.02,
        mobile_pinned_fraction: 0.0,
        services: vec!["tiktok".into()],
    })
}

/// Decode every artifact of the dataset's single service with `fault`
/// applied (`None` = pristine), tallying all damage into one ledger.
fn salvaged_input(
    dataset: &GeneratedDataset,
    fault: Option<FaultSpec>,
) -> (ServiceInput, SalvageLog) {
    let capture = &dataset.services[0];
    let mut log = SalvageLog::new();
    let mut units = Vec::new();
    for unit in capture.artifacts.iter().map(|a| &a.unit) {
        match &*unit.artifact {
            MemoryArtifact::Har(har) => {
                let text = match &fault {
                    Some(spec) => spec.apply_har(har),
                    None => har.clone(),
                };
                // Document-level damage loses the whole unit; that is still
                // "degradation", just coarser.
                if let Ok(exchanges) = har_to_exchanges_salvage(&text, &mut log) {
                    let n = exchanges.len();
                    units.push(LoadedUnit {
                        platform: unit.platform,
                        kind: unit.kind,
                        category: unit.category,
                        exchanges,
                        opaque_snis: Vec::new(),
                        packet_count: n,
                        flow_count: n,
                    });
                }
            }
            MemoryArtifact::Capture {
                bytes: pcap,
                keylog,
            } => {
                let bytes = match &fault {
                    Some(spec) => spec.apply_pcap(pcap),
                    None => pcap.clone(),
                };
                let keylog = match keylog {
                    Some(text) => {
                        let text = match &fault {
                            Some(spec) => spec.apply_keylog(text),
                            None => text.clone(),
                        };
                        KeyLog::parse_salvage(&text, &mut log)
                    }
                    None => KeyLog::new(),
                };
                if let Ok(decoded) = decode_auto_salvage(&bytes, &keylog, &mut log) {
                    units.push(LoadedUnit {
                        platform: unit.platform,
                        kind: unit.kind,
                        category: unit.category,
                        exchanges: decoded.exchanges,
                        opaque_snis: decoded.opaque.into_iter().filter_map(|o| o.sni).collect(),
                        packet_count: decoded.packet_count,
                        flow_count: decoded.flow_count,
                    });
                }
            }
        }
    }
    let input = ServiceInput {
        name: capture.spec.name.to_string(),
        slug: capture.spec.slug.to_string(),
        first_party_domains: capture
            .spec
            .first_party_domains
            .iter()
            .map(|d| d.to_string())
            .collect(),
        units,
    };
    (input, log)
}

/// The audit signal recovered from a (possibly damaged) input: total
/// exchanges and observed Table-4 cells.
fn recovered_signal(dataset: &GeneratedDataset, input: ServiceInput) -> (usize, usize) {
    let exchanges: usize = input.units.iter().map(|u| u.exchanges.len()).sum();
    let outcome = Pipeline::new(ClassificationMode::Oracle(dataset.key_truth.clone()))
        .run_inputs(vec![input]);
    let cells = match outcome.services.first() {
        Some(service) => ObservedGrid::build(service).cells().len(),
        None => 0,
    };
    (exchanges, cells)
}

#[test]
fn every_operator_is_identity_at_rate_zero() {
    let dataset = dataset();
    let (strict, clean_log) = salvaged_input(&dataset, None);
    assert!(
        clean_log.is_clean(),
        "pristine decode must have a clean ledger"
    );
    let strict_exchanges: Vec<_> = strict.units.iter().map(|u| u.exchanges.clone()).collect();
    for op in FaultOp::ALL {
        for seed in SEEDS {
            let spec = FaultSpec {
                op,
                seed,
                rate: 0.0,
            };
            let (input, log) = salvaged_input(&dataset, Some(spec));
            assert!(log.is_clean(), "{op} seed {seed}: rate 0 must be clean");
            assert!(log.conserved());
            let exchanges: Vec<_> = input.units.iter().map(|u| u.exchanges.clone()).collect();
            assert_eq!(
                exchanges, strict_exchanges,
                "{op} seed {seed}: rate 0 must be the identity"
            );
        }
    }
}

#[test]
fn every_operator_never_panics_and_conserves_the_ledger() {
    let dataset = dataset();
    for op in FaultOp::ALL {
        for seed in SEEDS {
            for rate in RATES {
                let spec = FaultSpec { op, seed, rate };
                let (_, log) = salvaged_input(&dataset, Some(spec));
                assert!(
                    log.conserved(),
                    "{op} seed {seed} rate {rate}: ledger must conserve"
                );
            }
        }
    }
}

#[test]
fn lossy_operators_degrade_monotonically() {
    let dataset = dataset();
    for op in FaultOp::LOSSY {
        for seed in SEEDS {
            let mut last: Option<(usize, usize)> = None;
            for rate in RATES {
                let spec = FaultSpec { op, seed, rate };
                let (input, log) = salvaged_input(&dataset, Some(spec));
                assert!(log.conserved());
                let (exchanges, cells) = recovered_signal(&dataset, input);
                if let Some((prev_exchanges, prev_cells)) = last {
                    assert!(
                        exchanges <= prev_exchanges,
                        "{op} seed {seed} rate {rate}: recovered {exchanges} exchanges, \
                         more than {prev_exchanges} at the lower rate"
                    );
                    assert!(
                        cells <= prev_cells,
                        "{op} seed {seed} rate {rate}: observed {cells} Table-4 cells, \
                         more than {prev_cells} at the lower rate"
                    );
                }
                last = Some((exchanges, cells));
            }
        }
    }
}

#[test]
fn rearranging_operators_lose_no_payload() {
    // Reordering, duplication, and overlapping retransmissions rearrange
    // the capture without destroying payload: TCP reassembly must recover
    // every exchange.
    let dataset = dataset();
    let (strict, _) = salvaged_input(&dataset, None);
    let strict_total: usize = strict.units.iter().map(|u| u.exchanges.len()).sum();
    for op in [
        FaultOp::SegmentReorder,
        FaultOp::SegmentDuplicate,
        FaultOp::SegmentOverlap,
    ] {
        for seed in SEEDS {
            let spec = FaultSpec {
                op,
                seed,
                rate: 0.3,
            };
            let (input, log) = salvaged_input(&dataset, Some(spec));
            assert!(log.conserved());
            let total: usize = input.units.iter().map(|u| u.exchanges.len()).sum();
            assert_eq!(
                total, strict_total,
                "{op} seed {seed}: rearrangement must not lose exchanges"
            );
        }
    }
}

#[test]
fn misalignment_operators_still_recover_most_of_the_audit() {
    // Lying length fields and record desync damage the reader's framing, so
    // resync can lose (or occasionally resurrect) neighbouring records —
    // recovery is not monotone, but it must stay substantial and the ledger
    // must account for every skipped byte range.
    let dataset = dataset();
    let (strict, _) = salvaged_input(&dataset, None);
    let strict_total: usize = strict.units.iter().map(|u| u.exchanges.len()).sum();
    for op in [FaultOp::LyingLength, FaultOp::RecordDesync] {
        for seed in SEEDS {
            let spec = FaultSpec {
                op,
                seed,
                rate: 0.3,
            };
            let (input, log) = salvaged_input(&dataset, Some(spec));
            assert!(log.conserved());
            assert!(
                log.total_dropped() > 0,
                "{op} seed {seed}: framing damage must be visible in the ledger"
            );
            let total: usize = input.units.iter().map(|u| u.exchanges.len()).sum();
            assert!(
                total >= strict_total / 2,
                "{op} seed {seed}: salvaged only {total} of {strict_total} exchanges"
            );
            assert!(
                total < strict_total,
                "{op} seed {seed}: framing damage at rate 0.3 should lose something"
            );
        }
    }
}

#[test]
fn a_stalled_decoder_is_cut_off_at_the_deadline_across_the_fault_grid() {
    // Decoder-stall operator: every cancellation checkpoint costs
    // wall-clock (the chaos probe sleeps), so a short deadline expires
    // mid-decode. The salvage decoders must cut the unit off at the
    // deadline — never panic or wedge — for every fault operator, and
    // the partial ledger accumulated up to the cut must still conserve.
    use diffaudit_nettrace::capture::DecodeError;
    use diffaudit_util::cancel::{CancelToken, Ctl, Deadline, Interrupt};
    use std::sync::Arc;
    use std::time::Duration;

    let dataset = dataset();
    let capture = &dataset.services[0];
    let (pcap, keylog) = capture
        .artifacts
        .iter()
        .find_map(|a| match &*a.unit.artifact {
            MemoryArtifact::Capture { bytes, keylog } => Some((bytes, keylog)),
            MemoryArtifact::Har(_) => None,
        })
        .expect("dataset has a pcap artifact");
    let keylog = keylog.as_deref().map_or_else(KeyLog::new, KeyLog::parse);
    // Deadline shorter than one stalled checkpoint: the decoder gets the
    // container open, then the first per-record check already trips.
    let stalled_ctl = || {
        Ctl::new(
            CancelToken::new(),
            Deadline::within(Duration::from_millis(1)),
        )
        .with_probe(Arc::new(|| {
            std::thread::sleep(Duration::from_millis(3));
        }))
    };

    // The stall must actually bite on the pristine capture — otherwise
    // the grid below proves nothing.
    let mut pristine_log = SalvageLog::new();
    let err = decode_auto_salvage_ctl(
        pcap,
        &keylog,
        &mut pristine_log,
        &mut LocalRecorder::new(),
        &stalled_ctl(),
        |_| {},
    )
    .expect_err("a stalled decode must be interrupted, not complete");
    assert!(
        matches!(err, DecodeError::Interrupted(Interrupt::TimedOut)),
        "pristine stall must read as a timeout, got: {err:?}"
    );
    assert!(pristine_log.conserved());

    for op in FaultOp::ALL {
        for seed in SEEDS {
            let spec = FaultSpec {
                op,
                seed,
                rate: 0.25,
            };
            let damaged = spec.apply_pcap(pcap);
            let mut log = SalvageLog::new();
            match decode_auto_salvage_ctl(
                &damaged,
                &keylog,
                &mut log,
                &mut LocalRecorder::new(),
                &stalled_ctl(),
                |_| {},
            ) {
                Err(DecodeError::Interrupted(i)) => assert!(
                    matches!(i, Interrupt::TimedOut),
                    "{op} seed {seed}: a deadline stall must surface as a timeout, got {i:?}"
                ),
                // An unusable container (or one damaged down to nothing)
                // can finish or fail before the first checkpoint; both
                // are legal as long as the ledger below conserves.
                Ok(_) | Err(_) => {}
            }
            assert!(
                log.conserved(),
                "{op} seed {seed}: ledger must conserve at the stall cut-off"
            );
        }
    }
}

#[test]
fn a_stalled_load_surfaces_as_timeout_drops_even_on_damaged_units() {
    // The serve daemon's salvage loader path: when the deadline expires
    // while units are still queued, every remaining unit — damaged or
    // not — must land in the degradation ledger with a `timeout:` reason
    // code (the interrupt wins over whatever decode damage the bytes
    // also carry), and the ledger must conserve the full unit count.
    use diffaudit::loader::{load_memory_services, MemoryService};
    use diffaudit_util::cancel::{CancelToken, Ctl, Deadline};
    use std::time::Duration;

    let dataset = dataset();
    let capture = &dataset.services[0];
    let spec = FaultSpec {
        op: FaultOp::BitFlip,
        seed: 3,
        rate: 0.25,
    };
    let units: Vec<_> = capture
        .artifacts
        .iter()
        .enumerate()
        .map(|(i, artifact)| {
            let mut unit = artifact.unit.clone();
            unit.label = format!("unit-{i}");
            match std::sync::Arc::make_mut(&mut unit.artifact) {
                MemoryArtifact::Har(har) => *har = spec.apply_har(har),
                MemoryArtifact::Capture { bytes, .. } => *bytes = spec.apply_pcap(bytes),
            }
            unit
        })
        .collect();
    let total = units.len();
    assert!(total > 0);
    let svc = MemoryService {
        name: capture.spec.name.to_string(),
        slug: capture.spec.slug.to_string(),
        first_party_domains: capture
            .spec
            .first_party_domains
            .iter()
            .map(|d| d.to_string())
            .collect(),
        units,
    };
    let ctl = Ctl::new(
        CancelToken::new(),
        Deadline::within(Duration::ZERO), // already expired: a stall past its budget
    );
    let scope = diffaudit_obs::Scope::job("chaos.stall");
    let interner = diffaudit_util::par::KeyInterner::new();
    let (input, ledger) = load_memory_services(vec![svc], 2, &scope, &ctl, &interner).remove(0);
    assert!(
        input.units.is_empty(),
        "an expired deadline must drop every unit"
    );
    let merged = ledger.merged();
    assert!(merged.conserved());
    assert_eq!(ledger.units.len(), total);
    for unit in &ledger.units {
        assert!(
            unit.log
                .drops()
                .iter()
                .any(|d| d.reason.starts_with("timeout:")),
            "damaged unit cut at the deadline must carry the timeout code: {:?}",
            unit.log.drops()
        );
    }
    let _ = scope.finish();
}

#[test]
fn pcapng_with_secrets_survives_the_fault_grid() {
    // The pcapng path (Decryption Secrets Block embedded in the container)
    // must honour the same invariants. Container-agnostic operators damage
    // the bytes; record-structure operators are identity on pcapng.
    let dataset = dataset();
    let capture = &dataset.services[0];
    let (pcap, keylog) = capture
        .artifacts
        .iter()
        .find_map(|a| match &*a.unit.artifact {
            MemoryArtifact::Capture {
                bytes,
                keylog: Some(keylog),
            } => Some((bytes, KeyLog::parse(keylog))),
            _ => None,
        })
        .expect("dataset has a pcap+keylog artifact");
    let pcapng = inject_secrets(pcap, &keylog).expect("secrets injection");

    // Pristine pcapng decodes cleanly and matches the pcap+keylog decode.
    let mut clean_log = SalvageLog::new();
    let clean = decode_auto_salvage(&pcapng, &KeyLog::new(), &mut clean_log).unwrap();
    let mut pcap_log = SalvageLog::new();
    let from_pcap = decode_auto_salvage(pcap, &keylog, &mut pcap_log).unwrap();
    assert_eq!(clean.exchanges, from_pcap.exchanges);
    assert!(clean_log.is_clean(), "{:?}", clean_log.drops());
    assert!(pcap_log.is_clean(), "{:?}", pcap_log.drops());

    for op in FaultOp::ALL {
        for seed in SEEDS {
            for rate in RATES {
                let spec = FaultSpec { op, seed, rate };
                let damaged = spec.apply_pcap(&pcapng);
                let mut log = SalvageLog::new();
                let _ = decode_auto_salvage(&damaged, &KeyLog::new(), &mut log);
                assert!(
                    log.conserved(),
                    "pcapng {op} seed {seed} rate {rate}: ledger must conserve"
                );
            }
        }
    }
}
