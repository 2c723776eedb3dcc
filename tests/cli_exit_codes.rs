//! Integration tests for the `diffaudit audit` exit-code contract, driving
//! the real binary on real capture directories:
//!
//! - `0` — clean run, every record processed;
//! - `1` — hard failure (unusable input, `--strict` with drops, `--max-drop`
//!   exceeded, bad usage);
//! - `2` — salvaged: the audit was produced but some records were dropped.

use diffaudit::loader::write_dataset;
use diffaudit_services::{generate_dataset, DatasetOptions};
use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_diffaudit"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("diffaudit-cli-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Write the synthetic tiktok capture to disk and return its service dir.
fn capture_dir(root: &Path) -> PathBuf {
    let dataset = generate_dataset(&DatasetOptions {
        seed: 21,
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

fn run_audit(args: &[&str]) -> (Option<i32>, String) {
    let output = bin().arg("audit").args(args).output().unwrap();
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    )
}

#[test]
fn clean_directory_exits_zero_with_no_degradation_section() {
    let root = temp_dir("clean");
    let dir = capture_dir(&root);
    let (code, stdout) = run_audit(&[dir.to_str().unwrap(), "--format", "json"]);
    assert_eq!(code, Some(0));
    assert!(
        !stdout.contains("\"degradation\""),
        "clean run must not emit a degradation section"
    );
    // Strict mode changes nothing on a clean run.
    let (code, _) = run_audit(&[dir.to_str().unwrap(), "--strict"]);
    assert_eq!(code, Some(0));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn corrupted_directory_salvages_with_exit_two() {
    let root = temp_dir("salvaged");
    let dir = capture_dir(&root);
    corrupt_one_pcap(&dir);
    let (code, stdout) = run_audit(&[dir.to_str().unwrap(), "--format", "json"]);
    assert_eq!(code, Some(2), "damaged input within policy must exit 2");
    assert!(
        stdout.contains("\"degradation\""),
        "salvaged run must export the degradation ledger"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn strict_mode_turns_drops_into_hard_failure() {
    let root = temp_dir("strict");
    let dir = capture_dir(&root);
    corrupt_one_pcap(&dir);
    let (code, _) = run_audit(&[dir.to_str().unwrap(), "--strict"]);
    assert_eq!(code, Some(1));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn max_drop_bounds_the_tolerated_degradation() {
    let root = temp_dir("maxdrop");
    let dir = capture_dir(&root);
    corrupt_one_pcap(&dir);
    // Zero tolerance: any drop is a hard failure.
    let (code, _) = run_audit(&[dir.to_str().unwrap(), "--max-drop", "0"]);
    assert_eq!(code, Some(1));
    // Generous tolerance: the same damage is salvageable.
    let (code, _) = run_audit(&[dir.to_str().unwrap(), "--max-drop", "99"]);
    assert_eq!(code, Some(2));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn unusable_input_and_bad_usage_exit_one() {
    let root = temp_dir("hardfail");
    // A directory with no manifest is a hard failure, not a salvage.
    let empty = root.join("empty");
    std::fs::create_dir_all(&empty).unwrap();
    let (code, _) = run_audit(&[empty.to_str().unwrap()]);
    assert_eq!(code, Some(1));
    // Bad usage too.
    let (code, _) = run_audit(&["--no-such-flag"]);
    assert_eq!(code, Some(1));
    let (code, _) = run_audit(&[]);
    assert_eq!(code, Some(1));
    // And an out-of-range --max-drop.
    let (code, _) = run_audit(&["somedir", "--max-drop", "150"]);
    assert_eq!(code, Some(1));
    // Flags that would otherwise audit a usable directory: a missing
    // --out value, and classifier settings out of range.
    let dir = capture_dir(&root);
    let dir = dir.to_str().unwrap();
    for bad in [
        &["--out"][..],
        &["--threshold", "NaN"],
        &["--threshold", "1.5"],
        &["--threshold", "-0.1"],
        &["--ensemble", "-1"],
    ] {
        let mut args = vec![dir];
        args.extend_from_slice(bad);
        let (code, stdout) = run_audit(&args);
        assert_eq!(code, Some(1), "{bad:?} must be bad usage");
        assert!(stdout.is_empty(), "{bad:?} must not print a report");
    }
    // `generate` flags out of range: the error names the value, and
    // nothing is generated or created.
    let out = root.join("generated");
    for bad in [
        &["--scale", "nan"][..],
        &["--scale", "-5"],
        &["--scale", "inf"],
        &["--services", "tiktk"],
        &["--services", "tiktok,tiktk"],
    ] {
        let output = bin()
            .arg("generate")
            .arg("--out")
            .arg(&out)
            .args(bad)
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(1), "{bad:?} must be bad usage");
        let stderr = String::from_utf8_lossy(&output.stderr);
        let value = bad[1].rsplit(',').next().unwrap();
        assert!(stderr.contains(value), "{bad:?} not named: {stderr}");
        assert!(!out.exists(), "{bad:?} must not create --out");
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn clean_output_is_byte_identical_with_and_without_salvage_flags() {
    let root = temp_dir("identical");
    let dir = capture_dir(&root);
    let (code, plain) = run_audit(&[dir.to_str().unwrap(), "--format", "json"]);
    assert_eq!(code, Some(0));
    let (code, flagged) = run_audit(&[
        dir.to_str().unwrap(),
        "--format",
        "json",
        "--max-drop",
        "50",
    ]);
    assert_eq!(code, Some(0));
    assert_eq!(
        plain, flagged,
        "salvage flags must not perturb a clean run's report"
    );
    let _ = std::fs::remove_dir_all(&root);
}
