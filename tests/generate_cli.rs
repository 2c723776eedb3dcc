//! `diffaudit generate` is byte-reproducible: the same seed writes the same
//! tree, every capture file and `key_truth.json` included, and that tree's
//! digest is pinned so it cannot move between versions either.

use diffaudit_json::parse;
use diffaudit_util::Fnv64;
use std::path::{Path, PathBuf};
use std::process::Command;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("diffaudit-generate-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn generate(out: &Path) {
    let output = Command::new(env!("CARGO_BIN_EXE_diffaudit"))
        .args([
            "generate",
            "--scale",
            "0.02",
            "--seed",
            "7",
            "--log-level",
            "warn",
        ])
        .arg("--out")
        .arg(out)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "generate failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
}

/// Every file under `root`, as sorted paths relative to it.
fn files(root: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut pending = vec![root.to_path_buf()];
    while let Some(dir) = pending.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                pending.push(path);
            } else {
                found.push(path.strip_prefix(root).unwrap().to_path_buf());
            }
        }
    }
    found.sort();
    found
}

/// FNV-1a 64 (`diffaudit_util::fnv1a64`) over the `--scale 0.02 --seed 7`
/// tree: each file's relative path followed by its contents, in sorted path
/// order. A change to the generator's output moves it.
const SCALE_002_SEED_7_DIGEST: u64 = 0xb42e_389a_8783_2365;

#[test]
fn same_seed_writes_a_byte_identical_tree() {
    let (a, b) = (temp_dir("a"), temp_dir("b"));
    generate(&a);
    generate(&b);
    let listed = files(&a);
    assert_eq!(listed, files(&b), "the two trees hold different files");
    assert!(listed.iter().any(|p| p.ends_with("manifest.json")));
    let mut digest = Fnv64::new();
    for rel in &listed {
        let (left, right) = (
            std::fs::read(a.join(rel)).unwrap(),
            std::fs::read(b.join(rel)).unwrap(),
        );
        assert!(left == right, "{} differs between runs", rel.display());
        digest.write(rel.to_str().unwrap().as_bytes());
        digest.write(&left);
    }
    assert_eq!(
        digest.finish(),
        SCALE_002_SEED_7_DIGEST,
        "the generated tree changed: digest {:#018x}",
        digest.finish()
    );

    // The ground truth is written in key order.
    let truth = std::fs::read_to_string(a.join("key_truth.json")).unwrap();
    let truth = parse(&truth).unwrap();
    let keys: Vec<&str> = truth
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert!(keys.len() > 100, "only {} ground-truth keys", keys.len());
    assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys out of order");

    let _ = std::fs::remove_dir_all(&a);
    let _ = std::fs::remove_dir_all(&b);
}
