//! Benchmark inputs: corpora made by `diffaudit generate` from the seed,
//! read back through their `manifest.json`s, and the mobile subset that
//! hard-links the pcap+keylog units of a corpus under new manifests.

use crate::procs;
use diffaudit_json::{parse, Json};
use std::path::{Path, PathBuf};

/// One manifest unit entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unit {
    /// Artifact file name (`.har`, `.pcap` or `.pcapng`).
    pub file: String,
    /// Sibling key-log file name, for captures.
    pub keylog: Option<String>,
    /// `web` / `mobile` / `desktop`.
    pub platform: String,
    /// `account-creation` / `logged-in` / `logged-out`.
    pub kind: String,
    /// `child` / `adolescent` / `adult` / `logged-out`.
    pub category: String,
}

impl Unit {
    /// `true` for a pcap/pcapng capture (the PCAPdroid path).
    pub fn is_capture(&self) -> bool {
        self.file.ends_with(".pcap") || self.file.ends_with(".pcapng")
    }
}

/// One capture directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceDir {
    /// The directory holding `manifest.json`.
    pub dir: PathBuf,
    /// Service display name.
    pub name: String,
    /// Service slug.
    pub slug: String,
    /// First-party domains.
    pub domains: Vec<String>,
    /// Units in manifest order.
    pub units: Vec<Unit>,
}

/// A generated corpus: its capture directories in `generate` order.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Service directories.
    pub services: Vec<ServiceDir>,
    /// Keys in the generator's ground-truth file.
    pub truth_keys: usize,
}

impl Corpus {
    /// The directory arguments of an audit over the whole corpus.
    pub fn dir_args(&self) -> Vec<String> {
        self.services
            .iter()
            .map(|s| s.dir.display().to_string())
            .collect()
    }

    /// Manifest units across all services.
    pub fn unit_count(&self) -> usize {
        self.services.iter().map(|s| s.units.len()).sum()
    }

    /// Bytes of every artifact and key log the manifests name.
    pub fn bytes(&self) -> u64 {
        let size =
            |dir: &Path, file: &str| std::fs::metadata(dir.join(file)).map_or(0, |m| m.len());
        self.services
            .iter()
            .flat_map(|s| {
                s.units.iter().map(|u| {
                    size(&s.dir, &u.file) + u.keylog.as_deref().map_or(0, |k| size(&s.dir, k))
                })
            })
            .sum()
    }
}

/// Run `diffaudit generate` into `out` and read the corpus back.
pub fn generate(
    bin: &Path,
    out: &Path,
    scale: f64,
    seed: u64,
    services: Option<&str>,
) -> Result<Corpus, String> {
    let mut args: Vec<String> = [
        "--threads",
        "2",
        "--log-level",
        "error",
        "generate",
        "--out",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    args.push(out.display().to_string());
    args.extend(["--scale".to_string(), scale.to_string()]);
    args.extend(["--seed".to_string(), seed.to_string()]);
    if let Some(list) = services {
        args.extend(["--services".to_string(), list.to_string()]);
    }
    let run = procs::run_cli(bin, &args, &out.with_extension("stdout"))?;
    if run.code != Some(0) {
        return Err(format!("generate exited with {:?}", run.code));
    }
    let text = String::from_utf8(run.stdout).map_err(|_| "generate printed non-UTF-8")?;
    // `generate` prints each service directory, then the ground-truth file.
    let mut lines: Vec<&str> = text.lines().collect();
    let truth = lines.pop().ok_or("generate printed nothing")?;
    let truth_doc = parse(&read_text(Path::new(truth))?).map_err(|e| format!("{truth}: {e}"))?;
    Ok(Corpus {
        services: lines
            .iter()
            .map(|dir| read_manifest(Path::new(dir)))
            .collect::<Result<_, _>>()?,
        truth_keys: truth_doc.as_obj().map_or(0, <[_]>::len),
    })
}

fn read_text(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Read `dir/manifest.json`.
pub fn read_manifest(dir: &Path) -> Result<ServiceDir, String> {
    let path = dir.join("manifest.json");
    let doc = parse(&read_text(&path)?).map_err(|e| format!("{}: {e}", path.display()))?;
    let field = |obj: &Json, key: &str| -> Result<String, String> {
        obj.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("{}: missing string {key:?}", path.display()))
    };
    let service = doc
        .get("service")
        .ok_or_else(|| format!("{}: no service", path.display()))?;
    let domains = service
        .get("firstPartyDomains")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|d| d.as_str().map(str::to_string))
        .collect();
    let units = doc
        .get("units")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|u| {
            Ok(Unit {
                file: field(u, "file")?,
                keylog: u.get("keylog").and_then(Json::as_str).map(str::to_string),
                platform: field(u, "platform")?,
                kind: field(u, "kind")?,
                category: field(u, "category")?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(ServiceDir {
        dir: dir.to_path_buf(),
        name: field(service, "name")?,
        slug: field(service, "slug")?,
        domains,
        units,
    })
}

/// The manifest of `service` restricted to its capture units.
pub fn subset_manifest(service: &ServiceDir) -> String {
    let units = service.units.iter().filter(|u| u.is_capture()).map(|u| {
        let mut entry = Json::obj()
            .with("platform", Json::str(&u.platform))
            .with("kind", Json::str(&u.kind))
            .with("category", Json::str(&u.category))
            .with("file", Json::str(&u.file));
        if let Some(keylog) = &u.keylog {
            entry.set("keylog", Json::str(keylog));
        }
        entry
    });
    Json::obj()
        .with(
            "service",
            Json::obj()
                .with("name", Json::str(&service.name))
                .with("slug", Json::str(&service.slug))
                .with(
                    "firstPartyDomains",
                    Json::Arr(service.domains.iter().map(Json::str).collect()),
                ),
        )
        .with("units", Json::Arr(units.collect()))
        .to_pretty_string()
}

/// Write the capture-only subset of `corpus` under `out`: one directory
/// per service with a subset manifest and hard links to the capture and
/// key-log files, so the subset costs no copy.
pub fn mobile_subset(corpus: &Corpus, out: &Path) -> Result<Corpus, String> {
    let mut services = Vec::with_capacity(corpus.services.len());
    for service in &corpus.services {
        let dir = out.join(&service.slug);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for unit in service.units.iter().filter(|u| u.is_capture()) {
            for file in std::iter::once(&unit.file).chain(&unit.keylog) {
                std::fs::hard_link(service.dir.join(file), dir.join(file))
                    .map_err(|e| format!("cannot link {file}: {e}"))?;
            }
        }
        let manifest = dir.join("manifest.json");
        std::fs::write(&manifest, subset_manifest(service))
            .map_err(|e| format!("{}: {e}", manifest.display()))?;
        services.push(read_manifest(&dir)?);
    }
    Ok(Corpus {
        services,
        truth_keys: corpus.truth_keys,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(file: &str, keylog: Option<&str>, platform: &str) -> Unit {
        Unit {
            file: file.to_string(),
            keylog: keylog.map(str::to_string),
            platform: platform.to_string(),
            kind: "logged-in".to_string(),
            category: "child".to_string(),
        }
    }

    fn service(dir: &Path) -> ServiceDir {
        ServiceDir {
            dir: dir.to_path_buf(),
            name: "TikTok".to_string(),
            slug: "tiktok".to_string(),
            domains: vec!["tiktok.com".to_string(), "tiktokv.com".to_string()],
            units: vec![
                unit("web-child-logged-in.har", None, "web"),
                unit(
                    "mobile-child-logged-in.pcap",
                    Some("mobile-child-logged-in.keys"),
                    "mobile",
                ),
                unit("desktop-child-logged-in.har", None, "desktop"),
                unit("mobile-adult-logged-in.pcapng", None, "mobile"),
            ],
        }
    }

    #[test]
    fn subset_manifest_keeps_only_capture_units() {
        let svc = service(Path::new("unused"));
        let doc = parse(&subset_manifest(&svc)).expect("manifest is JSON");
        let units = doc.get("units").and_then(Json::as_arr).expect("units");
        let files: Vec<&str> = units
            .iter()
            .filter_map(|u| u.get("file").and_then(Json::as_str))
            .collect();
        assert_eq!(
            files,
            [
                "mobile-child-logged-in.pcap",
                "mobile-adult-logged-in.pcapng"
            ]
        );
        assert_eq!(
            units[0].get("keylog").and_then(Json::as_str),
            Some("mobile-child-logged-in.keys")
        );
        assert!(units[1].get("keylog").is_none());
        assert_eq!(
            doc.pointer("/service/firstPartyDomains/1")
                .and_then(Json::as_str),
            Some("tiktokv.com")
        );
    }

    #[test]
    fn mobile_subset_links_files_and_round_trips() {
        let root = std::env::temp_dir().join(format!("perf-subset-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let src = root.join("src").join("tiktok");
        std::fs::create_dir_all(&src).expect("temp dir");
        let svc = service(&src);
        for u in &svc.units {
            std::fs::write(src.join(&u.file), u.file.as_bytes()).expect("artifact");
            if let Some(k) = &u.keylog {
                std::fs::write(src.join(k), b"keys").expect("keylog");
            }
        }
        let corpus = Corpus {
            services: vec![svc],
            truth_keys: 7,
        };
        let subset = mobile_subset(&corpus, &root.join("mobile")).expect("subset");
        let linked = &subset.services[0];
        assert_eq!(linked.dir, root.join("mobile").join("tiktok"));
        let captures: Vec<Unit> = corpus.services[0]
            .units
            .iter()
            .filter(|u| u.is_capture())
            .cloned()
            .collect();
        assert_eq!(linked.units, captures);
        assert_eq!(subset.unit_count(), 2);
        // Two captures plus one key log, each holding its own name.
        let expected =
            "mobile-child-logged-in.pcap".len() + 4 + "mobile-adult-logged-in.pcapng".len();
        assert_eq!(subset.bytes(), expected as u64);
        assert_eq!(subset.truth_keys, 7);
        let _ = std::fs::remove_dir_all(&root);
    }
}
