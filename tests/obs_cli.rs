//! Integration tests for the observability surface of the `diffaudit` CLI:
//! `--trace-out` / `--metrics-out` / `--log-level` / `-v`.
//!
//! These drive the real binary on real capture directories and assert the
//! three contracts the obs layer makes:
//!
//! 1. emitted trace/metrics files parse with `diffaudit-json` and name the
//!    pipeline stages the run actually went through;
//! 2. the `salvage.*` counters in the metrics document are conservation-
//!    consistent with the degradation ledger exported on stdout;
//! 3. observability never perturbs the audit itself — stdout stays
//!    byte-identical and the exit-code contract is unchanged.

use diffaudit::loader::write_dataset;
use diffaudit_json::{parse, Json};
use diffaudit_services::{generate_dataset, DatasetOptions};
use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_diffaudit"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("diffaudit-obs-test-{tag}-{}", std::process::id()));
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

/// Flip a few spread-out bytes in one pcap so decode drops records but the
/// file header stays intact.
fn corrupt_one_pcap(service_dir: &Path) {
    let victim = std::fs::read_dir(service_dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().is_some_and(|x| x == "pcap"))
        .expect("a pcap artifact to corrupt");
    let mut bytes = std::fs::read(&victim).unwrap();
    let len = bytes.len();
    assert!(len > 100, "pcap too small to corrupt meaningfully");
    for pos in [len / 3, len / 2, 2 * len / 3] {
        bytes[pos] ^= 0xFF;
    }
    std::fs::write(&victim, bytes).unwrap();
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

/// Counter value from a parsed metrics document (zero when absent).
fn counter(metrics: &Json, name: &str) -> i64 {
    metrics
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_i64)
        .unwrap_or(0)
}

#[test]
fn trace_and_metrics_files_parse_and_cover_the_pipeline_stages() {
    let root = temp_dir("files");
    let dir = capture_dir(&root);
    let trace_path = root.join("trace.jsonl");
    let metrics_path = root.join("metrics.json");
    let result = run(&[
        "audit",
        dir.to_str().unwrap(),
        "--trace-out",
        trace_path.to_str().unwrap(),
        "--metrics-out",
        metrics_path.to_str().unwrap(),
        "-v",
    ]);
    assert_eq!(result.code, Some(0), "stderr: {}", result.stderr);
    assert!(
        result.stderr.contains("pipeline run report"),
        "-v must print the run report, got:\n{}",
        result.stderr
    );

    // The metrics document parses and names the stages the run went through.
    let metrics = parse(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
    assert_eq!(
        metrics.get("schema").and_then(Json::as_str),
        Some("diffaudit-obs/v1")
    );
    let spans = metrics.get("spans").and_then(Json::as_obj).unwrap();
    for stage in [
        "audit",
        "audit.load",
        "audit.findings",
        "audit.render",
        "loader.unit",
        "pipeline",
        "pipeline.classify",
    ] {
        assert!(
            spans.iter().any(|(name, _)| name == stage),
            "metrics missing span {stage}"
        );
    }
    assert!(counter(&metrics, "pipeline.keys.unique") > 0);
    assert!(counter(&metrics, "loader.units.loaded") > 0);
    assert_eq!(counter(&metrics, "loader.units.dropped"), 0);

    // Every histogram is internally conserved: bucket counts sum to `count`.
    let histograms = metrics.get("histograms").and_then(Json::as_obj).unwrap();
    assert!(!histograms.is_empty(), "run must record histograms");
    for (name, h) in histograms {
        let count = h.get("count").and_then(Json::as_i64).unwrap();
        let bucket_sum: i64 = h
            .get("buckets")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|b| b.get("count").and_then(Json::as_i64).unwrap())
            .sum();
        assert_eq!(bucket_sum, count, "histogram {name} loses observations");
    }

    // The trace is line-delimited JSON with monotone sequence numbers, and
    // records the top-level pipeline span.
    let trace = std::fs::read_to_string(&trace_path).unwrap();
    let mut last_seq = -1i64;
    let mut saw_pipeline_span = false;
    let mut lines = 0usize;
    for line in trace.lines() {
        let record = parse(line).unwrap_or_else(|e| panic!("bad trace line {line:?}: {e}"));
        lines += 1;
        let seq = record.get("seq").and_then(Json::as_i64).unwrap();
        assert!(seq > last_seq, "trace seq must be strictly increasing");
        last_seq = seq;
        match record.get("kind").and_then(Json::as_str) {
            Some("event") => {
                assert!(record.get("level").and_then(Json::as_str).is_some());
                assert!(record.get("msg").and_then(Json::as_str).is_some());
            }
            Some("span") => {
                assert!(record.get("durUs").and_then(Json::as_i64).unwrap() >= 0);
                if record.get("name").and_then(Json::as_str) == Some("pipeline") {
                    saw_pipeline_span = true;
                }
            }
            other => panic!("unknown trace kind {other:?} in {line:?}"),
        }
    }
    assert!(lines > 0, "trace must not be empty");
    assert!(saw_pipeline_span, "trace missing the pipeline span");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn salvage_counters_match_the_degradation_ledger() {
    let root = temp_dir("ledger");
    let dir = capture_dir(&root);
    corrupt_one_pcap(&dir);
    let metrics_path = root.join("metrics.json");
    let result = run(&[
        "audit",
        dir.to_str().unwrap(),
        "--format",
        "json",
        "--metrics-out",
        metrics_path.to_str().unwrap(),
    ]);
    assert_eq!(result.code, Some(2), "damaged input within policy exits 2");

    let report = parse(&result.stdout).unwrap();
    let stages = report
        .get("degradation")
        .and_then(|d| d.get("stages"))
        .and_then(Json::as_obj)
        .expect("salvaged report exports per-stage tallies");
    let metrics = parse(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();

    // Every ledger stage is mirrored 1:1 into the salvage.* counters.
    let mut dropped_total = 0i64;
    for (label, counts) in stages {
        let processed = counts.get("processed").and_then(Json::as_i64).unwrap();
        let dropped = counts.get("dropped").and_then(Json::as_i64).unwrap();
        dropped_total += dropped;
        assert_eq!(
            counter(&metrics, &format!("salvage.{label}.processed")),
            processed,
            "salvage.{label}.processed diverges from the ledger"
        );
        assert_eq!(
            counter(&metrics, &format!("salvage.{label}.dropped")),
            dropped,
            "salvage.{label}.dropped diverges from the ledger"
        );
    }
    assert!(dropped_total > 0, "corruption must register in the ledger");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn clean_run_mirrors_a_zero_drop_ledger() {
    let root = temp_dir("cleanledger");
    let dir = capture_dir(&root);
    let metrics_path = root.join("metrics.json");
    let result = run(&[
        "audit",
        dir.to_str().unwrap(),
        "--metrics-out",
        metrics_path.to_str().unwrap(),
    ]);
    assert_eq!(result.code, Some(0));
    let metrics = parse(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
    let counters = metrics.get("counters").and_then(Json::as_obj).unwrap();
    let mut salvage_processed = 0i64;
    for (name, value) in counters {
        if let Some(rest) = name.strip_prefix("salvage.") {
            let value = value.as_i64().unwrap();
            if rest.ends_with(".dropped") {
                assert_eq!(value, 0, "clean run must not report drops in {name}");
            } else {
                salvage_processed += value;
            }
        }
    }
    assert!(
        salvage_processed > 0,
        "clean run still accounts for processed records"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn stdout_is_byte_identical_with_and_without_observability() {
    let root = temp_dir("identical");
    let dir = capture_dir(&root);
    let plain = run(&["audit", dir.to_str().unwrap(), "--format", "json"]);
    assert_eq!(plain.code, Some(0));
    let observed = run(&[
        "audit",
        dir.to_str().unwrap(),
        "--format",
        "json",
        "--log-level",
        "debug",
        "--trace-out",
        root.join("t.jsonl").to_str().unwrap(),
        "--metrics-out",
        root.join("m.json").to_str().unwrap(),
        "-v",
    ]);
    assert_eq!(observed.code, Some(0));
    assert_eq!(
        plain.stdout, observed.stdout,
        "observability must not perturb the exported report"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Copy a metrics snapshot with `uptimeUs` and every span's `totalUs`
/// multiplied by `factor`; histograms are untouched so bucket conservation
/// still holds and only wall-time deltas drive the diff verdict.
fn inflate_snapshot(doc: &Json, factor: i64) -> Json {
    let mut out = doc.clone();
    let uptime = doc.get("uptimeUs").and_then(Json::as_i64).unwrap();
    out.set("uptimeUs", Json::int(uptime * factor));
    let mut spans = Json::obj();
    for (name, stats) in doc.get("spans").and_then(Json::as_obj).unwrap() {
        let total = stats.get("totalUs").and_then(Json::as_i64).unwrap();
        spans.set(
            name.clone(),
            stats.clone().with("totalUs", Json::int(total * factor)),
        );
    }
    out.set("spans", spans);
    out
}

#[test]
fn obs_report_and_self_diff_round_trip() {
    // One audit produces both obs artifacts; `obs report` reconstructs the
    // span tree from the trace and `obs diff` of the snapshot against itself
    // is all-zero and exits 0.
    let root = temp_dir("roundtrip");
    let dir = capture_dir(&root);
    let trace_path = root.join("trace.jsonl");
    let metrics_path = root.join("metrics.json");
    let audit = run(&[
        "audit",
        dir.to_str().unwrap(),
        "--trace-out",
        trace_path.to_str().unwrap(),
        "--metrics-out",
        metrics_path.to_str().unwrap(),
    ]);
    assert_eq!(audit.code, Some(0), "stderr: {}", audit.stderr);

    let report = run(&["obs", "report", trace_path.to_str().unwrap()]);
    assert_eq!(report.code, Some(0), "stderr: {}", report.stderr);
    for section in [
        "== trace report ==",
        "span tree (total / self / calls / % of roots):",
        "root audit: total ",
        "critical path:",
        "hotspots (top 10 by self time):",
    ] {
        assert!(
            report.stdout.contains(section),
            "obs report missing {section:?}, got:\n{}",
            report.stdout
        );
    }
    // The tree names the stages the audit actually went through.
    for stage in ["audit", "audit.load", "pipeline", "pipeline.classify"] {
        assert!(
            report.stdout.contains(stage),
            "obs report missing stage {stage}"
        );
    }

    let selfdiff = run(&[
        "obs",
        "diff",
        metrics_path.to_str().unwrap(),
        metrics_path.to_str().unwrap(),
        "--fail-over",
        "50",
    ]);
    assert_eq!(selfdiff.code, Some(0), "stderr: {}", selfdiff.stderr);
    assert!(
        selfdiff.stdout.contains("verdict: ok"),
        "self-diff must be ok, got:\n{}",
        selfdiff.stdout
    );
    assert!(
        selfdiff.stdout.contains("counters: ") && selfdiff.stdout.contains(", 0 changed"),
        "self-diff must report zero counter deltas, got:\n{}",
        selfdiff.stdout
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// End-to-end resource profiling: an audit under `--res-sample-ms` keeps
/// stdout byte-identical, its `-v` run report shows each decode layer's
/// bytes in and throughput, its trace renders the `obs report --resources`
/// view (per-stage peak RSS / ΔRSS / CPU plus conservation lines), and its
/// metrics snapshot drives the `--fail-rss-over` gate — exit 0 on
/// self-diff, exit 2 on a synthetic peak-RSS regression. On a box without
/// `/proc` the run still succeeds and the report degrades to "resources
/// unavailable".
#[test]
fn resource_profiling_reports_and_gates_end_to_end() {
    let root = temp_dir("resources");
    let dir = capture_dir(&root);
    let plain = run(&["audit", dir.to_str().unwrap(), "--format", "json"]);
    assert_eq!(plain.code, Some(0), "stderr: {}", plain.stderr);

    let trace_path = root.join("trace.jsonl");
    let metrics_path = root.join("metrics.json");
    let profiled = run(&[
        "audit",
        dir.to_str().unwrap(),
        "--format",
        "json",
        "--res-sample-ms",
        "5",
        "-v",
        "--trace-out",
        trace_path.to_str().unwrap(),
        "--metrics-out",
        metrics_path.to_str().unwrap(),
    ]);
    assert_eq!(profiled.code, Some(0), "stderr: {}", profiled.stderr);
    assert_eq!(
        plain.stdout, profiled.stdout,
        "resource profiling must not perturb the exported report"
    );
    // The run report pairs each span with its `.bytes.in` counter: the
    // worker-local HAR decode layer shows a bytes/sec throughput.
    assert!(
        profiled.stderr.contains("bytes in    throughput"),
        "run report missing the bytes-in columns:\n{}",
        profiled.stderr
    );
    let har_row = profiled
        .stderr
        .lines()
        .find(|line| line.trim_start().starts_with("nettrace.decode.har "))
        .unwrap_or_else(|| panic!("no nettrace.decode.har row in:\n{}", profiled.stderr));
    assert!(har_row.ends_with("B/s"), "no HAR throughput in {har_row:?}");

    let have_proc = Path::new("/proc/self/statm").exists();
    let report = run(&["obs", "report", trace_path.to_str().unwrap(), "--resources"]);
    assert_eq!(report.code, Some(0), "stderr: {}", report.stderr);
    assert!(
        report.stdout.contains("== resource report =="),
        "missing resource report header:\n{}",
        report.stdout
    );
    if have_proc {
        for section in [
            "stage resources (peak RSS / ΔRSS / CPU):",
            "root audit: cpu ",
            "root audit: rss ",
        ] {
            assert!(
                report.stdout.contains(section),
                "obs report --resources missing {section:?}, got:\n{}",
                report.stdout
            );
        }
    } else {
        assert!(
            report.stdout.contains("resources unavailable"),
            "without /proc the report must degrade, got:\n{}",
            report.stdout
        );
    }

    // Self-diff under the RSS gate is clean by definition.
    let selfdiff = run(&[
        "obs",
        "diff",
        metrics_path.to_str().unwrap(),
        metrics_path.to_str().unwrap(),
        "--fail-rss-over",
        "50",
    ]);
    assert_eq!(selfdiff.code, Some(0), "stderr: {}", selfdiff.stderr);
    assert!(
        selfdiff.stdout.contains("verdict: ok"),
        "self-diff must be ok, got:\n{}",
        selfdiff.stdout
    );

    // Synthetic regression: triple every stage's peak RSS (well past the
    // 50% gate and the 4MiB noise floor for a paper-scale run).
    if have_proc {
        let doc = parse(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
        let mut inflated = doc.clone();
        let mut resources = Json::obj();
        for (name, stats) in doc
            .get("resources")
            .and_then(Json::as_obj)
            .expect("profiled snapshot must carry a resources section")
        {
            let peak = stats.get("peakRssB").and_then(Json::as_i64).unwrap();
            resources.set(
                name.clone(),
                stats.clone().with("peakRssB", Json::int(peak * 3)),
            );
        }
        inflated.set("resources", resources);
        let inflated_path = root.join("inflated.json");
        std::fs::write(&inflated_path, inflated.to_pretty_string()).unwrap();

        let gated = run(&[
            "obs",
            "diff",
            metrics_path.to_str().unwrap(),
            inflated_path.to_str().unwrap(),
            "--fail-rss-over",
            "50",
        ]);
        assert_eq!(
            gated.code,
            Some(2),
            "tripled peak RSS must regress; stdout:\n{}\nstderr: {}",
            gated.stdout,
            gated.stderr
        );
        assert!(
            gated.stdout.contains("verdict: regressed"),
            "gated diff verdict, got:\n{}",
            gated.stdout
        );
        assert!(
            gated.stderr.contains("rss:"),
            "regression list must name the rss series, got: {}",
            gated.stderr
        );

        // The shrink direction is an improvement, not a regression.
        let improved = run(&[
            "obs",
            "diff",
            inflated_path.to_str().unwrap(),
            metrics_path.to_str().unwrap(),
            "--fail-rss-over",
            "50",
        ]);
        assert_eq!(improved.code, Some(0), "stderr: {}", improved.stderr);
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn obs_diff_flags_a_synthetic_regression_but_not_an_improvement() {
    let root = temp_dir("regression");
    let dir = capture_dir(&root);
    let metrics_path = root.join("metrics.json");
    let audit = run(&[
        "audit",
        dir.to_str().unwrap(),
        "--metrics-out",
        metrics_path.to_str().unwrap(),
    ]);
    assert_eq!(audit.code, Some(0), "stderr: {}", audit.stderr);

    let base = parse(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
    let inflated_path = root.join("inflated.json");
    std::fs::write(
        &inflated_path,
        inflate_snapshot(&base, 10).to_pretty_string(),
    )
    .unwrap();

    // 10x slower trips a 50% gate: exit 2 and a regressed verdict.
    let slower = run(&[
        "obs",
        "diff",
        metrics_path.to_str().unwrap(),
        inflated_path.to_str().unwrap(),
        "--fail-over",
        "50",
    ]);
    assert_eq!(slower.code, Some(2), "stderr: {}", slower.stderr);
    assert!(
        slower.stdout.contains("verdict: regressed"),
        "inflated snapshot must regress, got:\n{}",
        slower.stdout
    );

    // The reverse direction is an improvement, not a regression.
    let faster = run(&[
        "obs",
        "diff",
        inflated_path.to_str().unwrap(),
        metrics_path.to_str().unwrap(),
        "--fail-over",
        "50",
    ]);
    assert_eq!(faster.code, Some(0), "stderr: {}", faster.stderr);
    assert!(faster.stdout.contains("verdict: ok"));

    // Without --fail-over the same delta is informational only.
    let advisory = run(&[
        "obs",
        "diff",
        metrics_path.to_str().unwrap(),
        inflated_path.to_str().unwrap(),
    ]);
    assert_eq!(advisory.code, Some(0), "stderr: {}", advisory.stderr);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn obs_report_salvages_a_partially_malformed_trace() {
    let root = temp_dir("malformed");
    let dir = capture_dir(&root);
    let trace_path = root.join("trace.jsonl");
    let audit = run(&[
        "audit",
        dir.to_str().unwrap(),
        "--trace-out",
        trace_path.to_str().unwrap(),
    ]);
    assert_eq!(audit.code, Some(0), "stderr: {}", audit.stderr);

    // Corrupt the trace: garbage lines interleaved with the real tail.
    let mut text = std::fs::read_to_string(&trace_path).unwrap();
    text.push_str("this is not json\n");
    text.push_str("{\"seq\":1,\"kind\":\"span\"}\n");
    std::fs::write(&trace_path, text).unwrap();

    let report = run(&["obs", "report", trace_path.to_str().unwrap()]);
    assert_eq!(
        report.code,
        Some(2),
        "salvaged report exits 2; stderr: {}",
        report.stderr
    );
    assert!(
        report.stdout.contains("(2 malformed lines skipped)"),
        "report must count skipped lines, got:\n{}",
        report.stdout
    );
    // The surviving records still yield a full tree.
    assert!(report.stdout.contains("root audit: total "));

    // A file with no usable record at all is a hard failure.
    let hopeless = root.join("hopeless.jsonl");
    std::fs::write(&hopeless, "junk\nmore junk\n").unwrap();
    let dead = run(&["obs", "report", hopeless.to_str().unwrap()]);
    assert_eq!(dead.code, Some(1));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn log_level_gates_stderr_and_bad_values_are_usage_errors() {
    let root = temp_dir("levels");
    let dir = capture_dir(&root);
    // error-level: the clean audit's info progress lines are suppressed.
    let quiet = run(&["audit", dir.to_str().unwrap(), "--log-level", "error"]);
    assert_eq!(quiet.code, Some(0));
    assert!(
        quiet.stderr.is_empty(),
        "--log-level error must silence progress lines, got:\n{}",
        quiet.stderr
    );
    // default (info): progress lines show.
    let chatty = run(&["audit", dir.to_str().unwrap()]);
    assert_eq!(chatty.code, Some(0));
    assert!(
        chatty.stderr.contains("loaded capture directory"),
        "default level must show progress, got:\n{}",
        chatty.stderr
    );
    // A bad level value is a usage error, same contract as any bad flag.
    let bad = run(&["audit", dir.to_str().unwrap(), "--log-level", "loud"]);
    assert_eq!(bad.code, Some(1));
    let _ = std::fs::remove_dir_all(&root);
}
