//! The lint corpus under `tests/fixtures/` is a fake workspace of known
//! true positives — at least two per pass. This suite runs the real
//! workspace driver over it and asserts every pass fires where expected,
//! which guards against a refactor quietly hollowing out a pass (the
//! clean-tree gate alone cannot tell "nothing to find" from "pass broken").

use diffaudit_analyzer::{analyze_workspace, report, Config, Finding, Severity};
use std::path::Path;

fn corpus_findings() -> Vec<Finding> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    analyze_workspace(&Config::new(&root)).expect("fixture corpus readable")
}

/// Findings of one lint within one fixture file.
fn of(findings: &[Finding], lint: &str, file_suffix: &str) -> Vec<Finding> {
    findings
        .iter()
        .filter(|f| f.lint.name() == lint && f.file.ends_with(file_suffix))
        .cloned()
        .collect()
}

#[test]
fn every_pass_fires_on_its_fixture_file() {
    let findings = corpus_findings();
    let rendered = report::render_text(&findings);
    for (lint, file, min) in [
        ("no-panic", "nettrace/src/panics.rs", 2),
        ("error-taxonomy", "nettrace/src/errors.rs", 2),
        ("unsafe-audit", "json/src/unsafe_use.rs", 2),
        ("no-bare-eprintln", "core/src/printing.rs", 2),
        ("global-state", "core/src/globals.rs", 4),
        ("redaction", "core/src/leaks.rs", 6),
        ("par-discipline", "util/src/workers.rs", 5),
        ("par-discipline", "serve/src/daemon.rs", 2),
        ("metric-discipline", "serve/src/telemetry.rs", 3),
    ] {
        let hits = of(&findings, lint, file);
        assert!(
            hits.len() >= min,
            "expected >={min} {lint} finding(s) in {file}, got {}:\n{rendered}",
            hits.len()
        );
    }
}

#[test]
fn fixture_severities_follow_the_lint_defaults() {
    let findings = corpus_findings();
    // static mut is the one severity override: error, not warning.
    let static_mut = findings
        .iter()
        .find(|f| f.message.contains("static mut"))
        .expect("static mut fixture finding");
    assert_eq!(static_mut.severity, Severity::Error);
    for f in &findings {
        let expected = if f.message.contains("static mut") {
            Severity::Error
        } else {
            f.lint.default_severity()
        };
        assert_eq!(f.severity, expected, "{f}");
    }
}

#[test]
fn redaction_fixture_exercises_the_derived_carrier_path() {
    // `trace_reloaded` leaks through `reload`, a fn that is only a source
    // because the carrier fixpoint promoted it — if this stops firing the
    // intra-crate propagation broke, even if direct-source detection works.
    let findings = corpus_findings();
    assert!(
        findings
            .iter()
            .any(|f| f.lint.name() == "redaction" && f.message.contains("batch")),
        "derived-carrier taint (via `reload`) must fire:\n{}",
        report::render_text(&findings)
    );
}

#[test]
fn redaction_fixture_follows_payload_into_decoder_sinks() {
    // `trace_each_request` prints from the closure it hands the HAR
    // decoder; `trace_each_captured` from the closure it hands
    // `decode_into`, which forwards it to the capture decoder. Neither
    // payload is a return value, so only the sink-parameter rule sees them.
    let findings = corpus_findings();
    let leaks = of(&findings, "redaction", "core/src/leaks.rs");
    for id in ["`exchange`", "`request`"] {
        assert!(
            leaks.iter().any(|f| f.message.contains(id)),
            "a payload from a decoder sink ({id}) must fire:\n{}",
            report::render_text(&findings)
        );
    }
    assert!(
        leaks
            .iter()
            .any(|f| f.message.contains("decoder sink parameter `exchange`")),
        "{}",
        report::render_text(&findings)
    );
}

#[test]
fn par_fixture_flags_each_forbidden_category() {
    let findings = corpus_findings();
    let messages: Vec<&str> = findings
        .iter()
        .filter(|f| f.lint.name() == "par-discipline")
        .map(|f| f.message.as_str())
        .collect();
    assert!(
        messages.iter().any(|m| m.contains("obs registry")),
        "global metric write must fire: {messages:#?}"
    );
    assert!(
        messages.iter().any(|m| m.contains("blocking")),
        "blocking I/O must fire: {messages:#?}"
    );
    assert!(
        messages.iter().any(|m| m.contains("shared stream")),
        "stream emission must fire: {messages:#?}"
    );
}

#[test]
fn par_fixture_follows_a_closure_passed_to_the_queue_runner() {
    // `run_queue`'s par_map closure calls its `work` parameter, so the
    // closure `count_items` passes in that position runs on the worker.
    let findings = corpus_findings();
    let hit = of(&findings, "par-discipline", "util/src/workers.rs")
        .into_iter()
        .find(|f| {
            f.message
                .contains("via `work`, the closure `count_items` passes to `run_queue`")
        });
    let hit = hit.unwrap_or_else(|| {
        panic!(
            "the global write in a closure argument must fire:\n{}",
            report::render_text(&findings)
        )
    });
    assert!(hit.message.contains("obs registry"), "{hit}");
    assert_eq!(hit.severity, Severity::Error);
}

#[test]
fn telemetry_fixture_flags_each_construction_pattern() {
    // One finding per dynamic-name construction (`format!`, `.to_string()`,
    // `String::from`) and none for the literal/registry-constant sites.
    let findings = corpus_findings();
    let telemetry = of(&findings, "metric-discipline", "serve/src/telemetry.rs");
    assert_eq!(telemetry.len(), 3, "{}", report::render_text(&findings));
    for pattern in ["format!", "to_string", "String::from"] {
        assert!(
            telemetry.iter().any(|f| f.message.contains(pattern)),
            "{pattern} construction must fire: {telemetry:#?}"
        );
    }
}

#[test]
fn serve_fixture_covers_the_panic_guard_rules() {
    // The daemon fixture: a registry write and a print inside
    // `catch_unwind` job closures each fire, but the blocking read inside
    // the containment does not (the job's deadline bounds its own I/O).
    let findings = corpus_findings();
    let daemon: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.file.ends_with("serve/src/daemon.rs"))
        .collect();
    assert_eq!(
        daemon.len(),
        2,
        "exactly the registry write and the print must fire:\n{}",
        report::render_text(&findings)
    );
    assert!(daemon
        .iter()
        .any(|f| f.message.contains("panic-contained") && f.message.contains("poisons")));
    assert!(daemon
        .iter()
        .any(|f| f.message.contains("shared stream") && f.message.contains("job completion")));
    assert!(
        !daemon.iter().any(|f| f.message.contains("blocking")),
        "blocking I/O inside the containment must not fire:\n{}",
        report::render_text(&findings)
    );
}
