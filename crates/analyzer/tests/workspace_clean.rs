//! Tier-1 gate: run every lint pass in-process over the real workspace and
//! fail the build on any finding. This is what makes the analyzer an
//! enforced invariant rather than an opt-in tool — `cargo test` cannot go
//! green while a panic-capable construct sits on an untrusted-input path.

use diffaudit_analyzer::{analyze_workspace, find_root, report, Config, DESIGNATED_FILES};
use std::path::Path;

fn workspace_root() -> std::path::PathBuf {
    find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root above analyzer crate")
}

#[test]
fn workspace_has_no_lint_findings() {
    let root = workspace_root();
    let findings = analyze_workspace(&Config::new(&root)).expect("workspace readable");
    assert!(
        findings.is_empty(),
        "static analysis found {} issue(s):\n{}",
        findings.len(),
        report::render_text(&findings)
    );
}

#[test]
fn analyzer_covers_the_designated_crates() {
    let root = workspace_root();
    for krate in ["nettrace", "json", "domains"] {
        let src = root.join("crates").join(krate).join("src");
        assert!(src.is_dir(), "missing {krate} src dir");
    }
    for file in DESIGNATED_FILES {
        assert!(root.join(file).is_file(), "missing designated file {file}");
    }
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn no_test_bench_or_example_file_is_compiled_out() {
    // A crate-level `#![cfg(..)]` on a test, bench or example file turns the
    // whole file off unless some flag is set, so its checks stop running
    // without anything failing.
    let root = workspace_root();
    let mut files = Vec::new();
    for dir in ["tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    let crates = std::fs::read_dir(root.join("crates")).expect("crates dir readable");
    for krate in crates.flatten() {
        for dir in ["tests", "benches", "examples"] {
            rust_files(&krate.path().join(dir), &mut files);
        }
    }
    assert!(files.len() > 20, "walked only {} files", files.len());
    let gated: Vec<String> = files
        .iter()
        .filter(|path| {
            let text = std::fs::read_to_string(path).expect("source readable");
            text.lines().any(|l| l.trim_start().starts_with("#![cfg("))
        })
        .map(|path| {
            path.strip_prefix(&root)
                .unwrap_or(path)
                .display()
                .to_string()
        })
        .collect();
    assert!(gated.is_empty(), "compiled-out files: {gated:?}");
}

#[test]
fn sentinel_unwrap_in_a_fake_workspace_is_flagged_with_file_and_line() {
    // Guard against the walker silently skipping the crates the gate is
    // about: build a minimal workspace in a temp dir with a sentinel
    // `.unwrap()` in a designated crate and confirm the pass flags it at
    // the right file:line, while the same code in a non-designated crate
    // stays clean.
    let dir = std::env::temp_dir().join(format!(
        "diffaudit-analyzer-sentinel-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let nettrace_src = dir.join("crates/nettrace/src");
    let core_src = dir.join("crates/core/src");
    let util_src = dir.join("crates/util/src");
    std::fs::create_dir_all(&nettrace_src).unwrap();
    std::fs::create_dir_all(&core_src).unwrap();
    std::fs::create_dir_all(&util_src).unwrap();
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").unwrap();
    let sentinel = "fn f(v: Option<u8>) -> u8 {\n    v.unwrap()\n}\n";
    std::fs::write(nettrace_src.join("pcap.rs"), sentinel).unwrap();
    std::fs::write(util_src.join("lib.rs"), sentinel).unwrap();
    // `core` is not a designated crate, but `loader.rs` is a designated
    // file: its sentinel must be flagged while its sibling stays clean.
    std::fs::write(core_src.join("loader.rs"), sentinel).unwrap();
    std::fs::write(core_src.join("report.rs"), sentinel).unwrap();

    let findings = analyze_workspace(&Config::new(&dir)).expect("fake workspace readable");
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(findings.len(), 2, "{}", report::render_text(&findings));
    assert_eq!(findings[0].file, "crates/core/src/loader.rs");
    assert_eq!(findings[0].line, 2);
    assert_eq!(findings[0].lint.name(), "no-panic");
    assert_eq!(findings[1].file, "crates/nettrace/src/pcap.rs");
    assert_eq!(findings[1].line, 2);
    assert_eq!(findings[1].lint.name(), "no-panic");
}

#[test]
fn sentinel_eprintln_in_a_fake_workspace_respects_gate_and_allowlist() {
    // The eprintln gate covers every crate's production src — including
    // crates that were outside the old four-crate list — exempts the obs
    // stderr sink and the analyzer CLI by path, and ignores test dirs.
    let dir = std::env::temp_dir().join(format!(
        "diffaudit-analyzer-eprintln-sentinel-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let core_src = dir.join("crates/core/src");
    let core_tests = dir.join("crates/core/tests");
    let obs_src = dir.join("crates/obs/src");
    let services_src = dir.join("crates/services/src");
    let analyzer_src = dir.join("crates/analyzer/src");
    for d in [
        &core_src,
        &core_tests,
        &obs_src,
        &services_src,
        &analyzer_src,
    ] {
        std::fs::create_dir_all(d).unwrap();
    }
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").unwrap();
    let sentinel = "fn f() {\n    eprintln!(\"raw\");\n}\n";
    std::fs::write(core_src.join("report.rs"), sentinel).unwrap();
    std::fs::write(core_tests.join("it.rs"), sentinel).unwrap();
    std::fs::write(obs_src.join("sink.rs"), sentinel).unwrap();
    std::fs::write(obs_src.join("lib.rs"), sentinel).unwrap();
    std::fs::write(services_src.join("catalog.rs"), sentinel).unwrap();
    std::fs::write(analyzer_src.join("main.rs"), sentinel).unwrap();

    let findings = analyze_workspace(&Config::new(&dir)).expect("fake workspace readable");
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(findings.len(), 3, "{}", report::render_text(&findings));
    assert_eq!(findings[0].file, "crates/core/src/report.rs");
    assert_eq!(findings[0].line, 2);
    assert_eq!(findings[0].lint.name(), "no-bare-eprintln");
    assert_eq!(findings[1].file, "crates/obs/src/lib.rs");
    assert_eq!(findings[1].lint.name(), "no-bare-eprintln");
    assert_eq!(findings[2].file, "crates/services/src/catalog.rs");
    assert_eq!(findings[2].lint.name(), "no-bare-eprintln");
}

#[test]
fn sentinel_job_runner_closure_in_a_fake_workspace_is_flagged() {
    // The serve daemon's job boundary in miniature: a fake `crates/serve`
    // whose worker writes the global registry and prints from inside the
    // `catch_unwind` containment must be flagged at file:line, while the
    // clean worker shape (merge *after* the guard) stays silent.
    let dir = std::env::temp_dir().join(format!(
        "diffaudit-analyzer-serve-sentinel-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let serve_src = dir.join("crates/serve/src");
    std::fs::create_dir_all(&serve_src).unwrap();
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").unwrap();
    std::fs::write(
        serve_src.join("worker.rs"),
        "fn worker_loop(job: Job) {\n    \
         let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {\n        \
         diffaudit_obs::add(\"serve.jobs.started\", 1);\n        \
         println!(\"job {job:?}\");\n        \
         run_job(job)\n    \
         }));\n    \
         let _ = outcome;\n}\n",
    )
    .unwrap();
    std::fs::write(
        serve_src.join("clean_worker.rs"),
        "fn worker_loop(job: Job) {\n    \
         let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_job(job)));\n    \
         if let Ok(output) = outcome {\n        \
         diffaudit_obs::global().merge(output.metrics);\n        \
         diffaudit_obs::add(\"serve.jobs.finished\", 1);\n    \
         }\n}\n",
    )
    .unwrap();

    let findings = analyze_workspace(&Config::new(&dir)).expect("fake workspace readable");
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(findings.len(), 2, "{}", report::render_text(&findings));
    assert!(findings
        .iter()
        .all(|f| f.file == "crates/serve/src/worker.rs"));
    assert!(findings.iter().all(|f| f.lint.name() == "par-discipline"));
    assert_eq!(findings[0].line, 3);
    assert!(findings[0].message.contains("panic-contained"));
    assert_eq!(findings[1].line, 4);
    assert!(findings[1].message.contains("shared stream"));
}

#[test]
fn sentinel_item_pass_violations_in_a_fake_workspace_are_flagged() {
    // The acceptance scenarios from the issue, in miniature: a `static mut`,
    // an unredacted payload-to-eprintln flow, and a global metric write
    // inside a par_map closure must each produce a finding.
    let dir = std::env::temp_dir().join(format!(
        "diffaudit-analyzer-item-sentinel-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let services_src = dir.join("crates/services/src");
    std::fs::create_dir_all(&services_src).unwrap();
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").unwrap();
    std::fs::write(
        services_src.join("state.rs"),
        "static mut COUNTER: u64 = 0;\n",
    )
    .unwrap();
    std::fs::write(
        services_src.join("leak.rs"),
        "fn dump(text: &str) {\n    let exchanges = har_to_exchanges(text);\n    \
         diffaudit_obs::warn(\"payload\", &[diffaudit_obs::field(\"x\", exchanges)]);\n}\n",
    )
    .unwrap();
    std::fs::write(
        services_src.join("workers.rs"),
        "fn run(items: Vec<u8>) -> Vec<u8> {\n    \
         par_map(4, items, |_, x| {\n        \
         diffaudit_obs::add(\"n\", 1);\n        x\n    })\n}\n",
    )
    .unwrap();

    let findings = analyze_workspace(&Config::new(&dir)).expect("fake workspace readable");
    let _ = std::fs::remove_dir_all(&dir);

    let lints: Vec<&str> = findings.iter().map(|f| f.lint.name()).collect();
    assert!(
        lints.contains(&"global-state")
            && lints.contains(&"redaction")
            && lints.contains(&"par-discipline"),
        "expected all three item-pass lints, got:\n{}",
        report::render_text(&findings)
    );
}
