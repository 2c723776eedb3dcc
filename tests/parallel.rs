//! Parallel-execution determinism suite: the `--threads` knob must change
//! wall-clock behavior only, never results.
//!
//! Four contracts, each checked serial-vs-parallel on the same seed:
//!
//! 1. **CLI invariance** — `diffaudit audit` produces byte-identical stdout
//!    (text and JSON exports) at `--threads 1` and `--threads 4`.
//! 2. **Metrics invariance** — every counter and every data-valued (non
//!    `.us`) histogram in `--metrics-out` is identical across thread
//!    counts; timing histograms may differ in durations but not in sample
//!    counts.
//! 3. **Library invariance** — `Pipeline::with_threads` and parallel
//!    dataset generation yield identical outcomes/artifacts.
//! 4. **Conservation under concurrency** — with PR 2 chaos operators
//!    applied at rate > 0, the salvage loader's degradation ledger stays
//!    conservation-consistent and identical to the serial ledger, and the
//!    `salvage.*` counters keep mirroring the exported ledger.
//!
//! Two more pin down what the parallel loader does beyond its results: the
//! fused decode→extract load audits exactly like decoding first and
//! handing the exchanges to `Pipeline::run_inputs`, and the trace names
//! the right parent for spans opened on loader workers.

use diffaudit::audit::audit_service;
use diffaudit::export::{outcome_to_json, outcome_to_json_with_ledger};
use diffaudit::loader::{
    decode_unit, load_capture_dir, load_memory_service, write_dataset, MemoryArtifact,
    MemoryService,
};
use diffaudit::pipeline::{ClassificationMode, Pipeline, ServiceInput};
use diffaudit::{AuditFinding, DegradationLedger, ServiceLedger, UnitLedger};
use diffaudit_json::{parse, Json};
use diffaudit_nettrace::fault::{FaultOp, FaultSpec};
use diffaudit_nettrace::{SalvageLog, Stage};
use diffaudit_obs::{Scope, TraceLog};
use diffaudit_services::{
    generate_dataset, generate_dataset_threads, service_by_slug, DatasetOptions, GeneratedDataset,
};
use diffaudit_util::cancel::Ctl;
use diffaudit_util::par::KeyInterner;
use std::path::{Path, PathBuf};
use std::process::Command;

const PARALLEL: usize = 4;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_diffaudit"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "diffaudit-parallel-test-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Write the synthetic tiktok capture to disk and return its service dir.
fn capture_dir(root: &Path) -> PathBuf {
    let dataset = generate_dataset(&DatasetOptions {
        seed: 33,
        volume_scale: 0.02,
        mobile_pinned_fraction: 0.0,
        services: vec!["tiktok".into()],
    });
    let dirs = write_dataset(&dataset, root).unwrap();
    dirs.into_iter().next().unwrap()
}

struct Run {
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

fn run(args: &[&str]) -> Run {
    let output = bin().args(args).output().unwrap();
    Run {
        code: output.status.code(),
        stdout: String::from_utf8_lossy(&output.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&output.stderr).into_owned(),
    }
}

fn audit_with_threads(dir: &Path, threads: usize, extra: &[&str]) -> Run {
    let threads = threads.to_string();
    let mut args = vec!["audit", dir.to_str().unwrap(), "--threads", &threads];
    args.extend_from_slice(extra);
    run(&args)
}

/// Damage every artifact in a service directory with one fault operator,
/// dispatching on extension exactly as the loader will read them back.
fn damage_dir(dir: &Path, spec: &FaultSpec) {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    paths.sort();
    for path in paths {
        let Some(ext) = path.extension().and_then(|x| x.to_str()) else {
            continue;
        };
        match ext {
            "har" => {
                let text = std::fs::read_to_string(&path).unwrap();
                std::fs::write(&path, spec.apply_har(&text)).unwrap();
            }
            "pcap" => {
                let bytes = std::fs::read(&path).unwrap();
                std::fs::write(&path, spec.apply_pcap(&bytes)).unwrap();
            }
            "keys" => {
                let text = std::fs::read_to_string(&path).unwrap();
                std::fs::write(&path, spec.apply_keylog(&text)).unwrap();
            }
            _ => {}
        }
    }
}

/// Counter value from a parsed metrics document (zero when absent).
fn counter(metrics: &Json, name: &str) -> i64 {
    metrics
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_i64)
        .unwrap_or(0)
}

/// Oracle-mode findings for every service in the outcome, in audit order.
fn findings_for(outcome: &diffaudit::pipeline::AuditOutcome) -> Vec<AuditFinding> {
    let mut findings = Vec::new();
    for service in &outcome.services {
        if let Some(spec) = service_by_slug(&service.slug) {
            findings.extend(audit_service(service, &spec));
        }
    }
    findings
}

#[test]
fn cli_stdout_is_thread_count_invariant() {
    let root = temp_dir("stdout");
    let dir = capture_dir(&root);
    for format in [&[][..], &["--format", "json"][..]] {
        let serial = audit_with_threads(&dir, 1, format);
        let parallel = audit_with_threads(&dir, PARALLEL, format);
        assert_eq!(serial.code, Some(0), "stderr: {}", serial.stderr);
        assert_eq!(parallel.code, Some(0), "stderr: {}", parallel.stderr);
        assert_eq!(
            serial.stdout, parallel.stdout,
            "--threads must not change the exported report ({format:?})"
        );
    }
    // A bad thread count is a usage error, same contract as any bad flag.
    let bad = run(&["audit", dir.to_str().unwrap(), "--threads", "0"]);
    assert_eq!(bad.code, Some(1));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn metrics_counters_are_thread_count_invariant() {
    let root = temp_dir("metrics");
    let dir = capture_dir(&root);
    let serial_path = root.join("m1.json");
    let parallel_path = root.join("m4.json");
    let serial = audit_with_threads(&dir, 1, &["--metrics-out", serial_path.to_str().unwrap()]);
    let parallel = audit_with_threads(
        &dir,
        PARALLEL,
        &["--metrics-out", parallel_path.to_str().unwrap()],
    );
    assert_eq!(serial.code, Some(0), "stderr: {}", serial.stderr);
    assert_eq!(parallel.code, Some(0), "stderr: {}", parallel.stderr);

    let m1 = parse(&std::fs::read_to_string(&serial_path).unwrap()).unwrap();
    let m4 = parse(&std::fs::read_to_string(&parallel_path).unwrap()).unwrap();

    // Counters carry no timing, so the maps must match exactly.
    assert_eq!(
        m1.get("counters").unwrap().to_pretty_string(),
        m4.get("counters").unwrap().to_pretty_string(),
        "counters must be identical across thread counts"
    );

    // Data-valued histograms (record counts, sizes) must match exactly;
    // latency histograms (`*.us`) may shift buckets but never lose or gain
    // observations.
    let h1 = m1.get("histograms").and_then(Json::as_obj).unwrap();
    let h4 = m4.get("histograms").and_then(Json::as_obj).unwrap();
    assert_eq!(
        h1.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
        h4.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
        "both runs must record the same histogram set"
    );
    for ((name, serial_h), (_, parallel_h)) in h1.iter().zip(h4.iter()) {
        if name.ends_with(".us") {
            assert_eq!(
                serial_h.get("count").and_then(Json::as_i64),
                parallel_h.get("count").and_then(Json::as_i64),
                "latency histogram {name} must keep its sample count"
            );
        } else {
            assert_eq!(
                serial_h.to_pretty_string(),
                parallel_h.to_pretty_string(),
                "data histogram {name} must be identical across thread counts"
            );
        }
    }

    // The per-unit stage spans fire once per unit regardless of threads.
    let units = counter(&m1, "loader.units.loaded");
    assert!(units > 0);
    for doc in [&m1, &m4] {
        for span in ["pipeline.unit.extract", "loader.unit"] {
            let count = doc
                .get("spans")
                .and_then(|s| s.get(span))
                .and_then(|s| s.get("count"))
                .and_then(Json::as_i64)
                .unwrap_or(0);
            assert_eq!(count, units, "span {span} must fire once per unit");
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn pipeline_outcome_is_thread_count_invariant() {
    let dataset = generate_dataset(&DatasetOptions {
        seed: 1_207,
        volume_scale: 0.03,
        mobile_pinned_fraction: 0.12,
        services: Vec::new(),
    });
    // Oracle mode isolates the merge order from classifier noise; the
    // ensemble run additionally proves the classifier sees the unique key
    // set in the same (sorted) order either way.
    for pipeline in [
        Pipeline::new(ClassificationMode::Oracle(dataset.key_truth.clone())),
        Pipeline::paper_default(1_207),
    ] {
        let serial = pipeline.clone().with_threads(1).run(&dataset);
        let parallel = pipeline.with_threads(PARALLEL).run(&dataset);
        assert_eq!(serial.unique_raw_keys, parallel.unique_raw_keys);
        assert_eq!(
            outcome_to_json(&serial, &findings_for(&serial)).to_pretty_string(),
            outcome_to_json(&parallel, &findings_for(&parallel)).to_pretty_string(),
            "full audit document must be identical across thread counts"
        );
    }
}

#[test]
fn dataset_generation_is_thread_count_invariant() {
    let options = DatasetOptions {
        seed: 77,
        volume_scale: 0.03,
        mobile_pinned_fraction: 0.2,
        services: vec!["roblox".into(), "duolingo".into()],
    };
    let generate_with =
        |threads: usize| -> GeneratedDataset { generate_dataset_threads(&options, threads) };
    let serial = generate_with(1);
    let parallel = generate_with(PARALLEL);
    assert_eq!(serial.services.len(), parallel.services.len());
    for (s, p) in serial.services.iter().zip(parallel.services.iter()) {
        assert_eq!(s.spec.slug, p.spec.slug);
        assert_eq!(s.artifacts.len(), p.artifacts.len());
        for (a, b) in s.artifacts.iter().zip(p.artifacts.iter()) {
            assert_eq!(
                a.har, b.har,
                "{}: HAR text must be byte-identical",
                s.spec.slug
            );
            assert_eq!(
                a.pcap, b.pcap,
                "{}: pcap must be byte-identical",
                s.spec.slug
            );
            assert_eq!(
                a.keylog, b.keylog,
                "{}: keylog must be byte-identical",
                s.spec.slug
            );
            assert_eq!(a.exchange_count, b.exchange_count);
        }
    }
    assert_eq!(serial.key_truth, parallel.key_truth);
}

#[test]
fn degradation_ledger_is_conserved_and_identical_under_concurrency() {
    // PR 2 chaos operators at rate > 0: the parallel salvage loader must
    // produce the exact same ledger (same drops, same reasons, same order)
    // as the serial one, and both must conserve.
    let root = temp_dir("chaos");
    let dir = capture_dir(&root);
    damage_dir(
        &dir,
        &FaultSpec {
            op: FaultOp::TailTruncate,
            seed: 11,
            rate: 0.25,
        },
    );

    let load_with = |threads: usize| {
        let interner = KeyInterner::new();
        load_capture_dir(
            &dir,
            threads,
            &Scope::global(),
            &Ctl::unbounded(),
            &interner,
        )
        .expect("salvage load succeeds on damaged dir")
    };
    let (serial_input, serial_ledger) = load_with(1);
    let (parallel_input, parallel_ledger) = load_with(PARALLEL);

    for ledger in [&serial_ledger, &parallel_ledger] {
        assert!(ledger.merged().conserved(), "ledger must conserve");
    }
    assert!(
        serial_ledger.merged().total_dropped() > 0,
        "rate 0.25 damage must register in the ledger"
    );

    // Deep ledger equality via the export document: per-unit tallies, drop
    // reasons, and unit order all match.
    let to_json = |ledger| {
        let mut run = DegradationLedger::new();
        run.services.push(ledger);
        run.to_json().to_pretty_string()
    };
    assert_eq!(
        to_json(serial_ledger),
        to_json(parallel_ledger),
        "degradation ledger must be identical across thread counts"
    );

    // The salvaged audit input is identical too: every unit's requests
    // (host, timestamp, keys), opaque SNIs and packet/flow counts, and the
    // workers' merged unique-key batch.
    assert_eq!(serial_input.units, parallel_input.units);
    assert_eq!(serial_input.keys, parallel_input.keys);
    assert_eq!(serial_input.key_occurrences, parallel_input.key_occurrences);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn salvage_counters_mirror_the_ledger_under_concurrency() {
    // End-to-end over the CLI: with 4 worker threads merging per-thread
    // recorders, the salvage.* counters must still equal the degradation
    // ledger exported on stdout — and the whole report must match serial.
    let root = temp_dir("counters");
    let dir = capture_dir(&root);
    damage_dir(
        &dir,
        &FaultSpec {
            op: FaultOp::BitFlip,
            seed: 3,
            rate: 0.05,
        },
    );
    let serial_metrics = root.join("m1.json");
    let parallel_metrics = root.join("m4.json");
    let serial = audit_with_threads(
        &dir,
        1,
        &[
            "--format",
            "json",
            "--metrics-out",
            serial_metrics.to_str().unwrap(),
        ],
    );
    let parallel = audit_with_threads(
        &dir,
        PARALLEL,
        &[
            "--format",
            "json",
            "--metrics-out",
            parallel_metrics.to_str().unwrap(),
        ],
    );
    assert_eq!(serial.code, parallel.code, "exit codes must match");
    assert_eq!(
        serial.stdout, parallel.stdout,
        "salvaged report must be identical across thread counts"
    );

    let report = parse(&parallel.stdout).unwrap();
    let stages = report
        .get("degradation")
        .and_then(|d| d.get("stages"))
        .and_then(Json::as_obj)
        .expect("salvaged report exports per-stage tallies");
    let metrics = parse(&std::fs::read_to_string(&parallel_metrics).unwrap()).unwrap();
    let mut dropped_total = 0i64;
    for (label, counts) in stages {
        let processed = counts.get("processed").and_then(Json::as_i64).unwrap();
        let dropped = counts.get("dropped").and_then(Json::as_i64).unwrap();
        dropped_total += dropped;
        assert_eq!(
            counter(&metrics, &format!("salvage.{label}.processed")),
            processed,
            "salvage.{label}.processed diverges from the ledger at --threads {PARALLEL}"
        );
        assert_eq!(
            counter(&metrics, &format!("salvage.{label}.dropped")),
            dropped,
            "salvage.{label}.dropped diverges from the ledger at --threads {PARALLEL}"
        );
    }
    assert!(dropped_total > 0, "corruption must register in the ledger");
    let _ = std::fs::remove_dir_all(&root);
}

/// The decode-only reference for the fused loader: decode every unit with
/// `decode_unit`, account each one in the ledger the way the loader does
/// (usable, or dropped at the `unit` stage with its index), and keep the
/// decoded exchanges for `Pipeline::run_inputs`.
fn decoded_reference(svc: &MemoryService) -> (ServiceInput, ServiceLedger) {
    let mut units = Vec::new();
    let mut ledger_units = Vec::new();
    for (i, unit) in svc.units.iter().enumerate() {
        let mut log = SalvageLog::new();
        let path = PathBuf::from(&unit.label);
        match decode_unit(unit, &path, &mut log, &Ctl::unbounded()) {
            Ok(loaded) => {
                log.ok(Stage::Unit);
                units.push(loaded);
            }
            Err(e) => log.dropped(Stage::Unit, e.to_string(), Some(i as u64)),
        }
        ledger_units.push(UnitLedger {
            file: unit.label.clone(),
            log,
        });
    }
    let input = ServiceInput {
        name: svc.name.clone(),
        slug: svc.slug.clone(),
        first_party_domains: svc.first_party_domains.clone(),
        units,
    };
    let ledger = ServiceLedger {
        slug: svc.slug.clone(),
        units: ledger_units,
    };
    (input, ledger)
}

#[test]
fn fused_load_audits_like_run_inputs_over_the_decoded_units() {
    let dataset = generate_dataset(&DatasetOptions {
        seed: 33,
        volume_scale: 0.02,
        mobile_pinned_fraction: 0.0,
        services: vec!["tiktok".into()],
    });
    let mut svc = MemoryService::from_capture(&dataset.services[0]);
    // One damaged unit: bit flips in the first capture's records.
    let damaged = svc
        .units
        .iter_mut()
        .find_map(|unit| match std::sync::Arc::make_mut(&mut unit.artifact) {
            MemoryArtifact::Capture { bytes, .. } => Some(bytes),
            MemoryArtifact::Har(_) => None,
        })
        .expect("the service has a capture unit");
    *damaged = FaultSpec {
        op: FaultOp::BitFlip,
        seed: 5,
        rate: 0.25,
    }
    .apply_pcap(damaged);

    let document = |outcome: &diffaudit::pipeline::AuditOutcome, ledger: ServiceLedger| {
        let mut run = DegradationLedger::new();
        run.services.push(ledger);
        assert!(run.total_dropped() > 0, "the damaged unit registers");
        outcome_to_json_with_ledger(outcome, &findings_for(outcome), &run).to_pretty_string()
    };
    let root = temp_dir("fused");
    for threads in [1, 2] {
        let pipeline = |cache: &str| {
            Pipeline::paper_default(33)
                .with_threads(threads)
                .with_cache_dir(root.join(format!("{cache}-{threads}")))
        };
        // The first pass fills both caches, the second is served from them.
        for warm in [false, true] {
            let (scope, ctl) = (Scope::global(), Ctl::unbounded());
            let interner = KeyInterner::new();
            let (service, ledger) =
                load_memory_service(svc.clone(), threads, &scope, &ctl, &interner);
            let fused = pipeline("fused")
                .run_extracted_scoped(vec![service], &scope, &ctl)
                .unwrap();
            let (input, reference_ledger) = decoded_reference(&svc);
            let adapted = pipeline("adapter").run_inputs(vec![input]);

            let hits = |outcome: &diffaudit::pipeline::AuditOutcome| {
                outcome.cache.as_ref().map(|report| report.hits)
            };
            assert_eq!(hits(&fused), hits(&adapted));
            assert_eq!(hits(&fused).unwrap() > 0, warm, "cache warmth");
            assert_eq!(
                document(&fused, ledger),
                document(&adapted, reference_ledger),
                "fused load and run_inputs diverge at --threads {threads} (warm cache: {warm})"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn loader_worker_spans_name_their_parents_in_the_trace() {
    let root = temp_dir("trace-parents");
    let dir = capture_dir(&root);
    let trace = root.join("trace.jsonl");
    let out = audit_with_threads(&dir, 2, &["--trace-out", trace.to_str().unwrap()]);
    assert_eq!(out.code, Some(0), "stderr: {}", out.stderr);
    let log = TraceLog::parse(&std::fs::read_to_string(&trace).unwrap());
    let (mut decodes, mut reassemblies) = (0, 0);
    for span in log.spans() {
        let parent = span.parent.as_deref();
        if span.name.starts_with("nettrace.decode.") {
            decodes += 1;
            assert_eq!(parent, Some("loader.dir"), "{span:?}");
        } else if span.name == "nettrace.reassemble" {
            reassemblies += 1;
            assert!(
                matches!(
                    parent,
                    Some("nettrace.decode.pcap") | Some("nettrace.decode.pcapng")
                ),
                "{span:?}"
            );
        }
    }
    assert!(
        decodes > 0 && reassemblies > 0,
        "{decodes} decodes, {reassemblies} reassemblies"
    );
    let _ = std::fs::remove_dir_all(&root);
}
