//! `perf`: the benchmark of the shipped `diffaudit` surfaces.
//!
//! ```text
//! perf [--workload audit-cold|reaudit-warm|audit-mobile|serve-open]
//!      [--seed N] [--seconds S] [--trace 0|1]
//!      [--bin PATH] [--work DIR] [--out PATH]
//! ```
//!
//! With `--trace 0` (the default) each workload drives the `diffaudit`
//! binary as subprocesses, the batch CLI and the `serve` daemon through its
//! HTTP API, and prints the end-to-end metrics. With `--trace 1` it runs the
//! traced in-process pass over the same corpora instead and prints the
//! per-layer metrics, writing its spans to `<out>/<workload>.spans.jsonl`.
//! The last stdout line of each workload is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; any output mismatch, failed
//! operation or invalid load phase makes the exit code 1. Without
//! `--workload` all four run in order. See the package's README.md.

mod corpus;
mod http;
mod procs;
mod serve;
mod stats;
mod traced;
mod workloads;

use diffaudit_json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Env, Report, Workload};

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value, with all its digits.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

const USAGE: &str = "usage: perf [--workload audit-cold|reaudit-warm|audit-mobile|serve-open] \
[--seed N] [--seconds S] [--trace 0|1] [--bin PATH] [--work DIR] [--out PATH]";

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin: PathBuf,
    work: PathBuf,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workloads: Workload::ALL.to_vec(),
        seed: 2023,
        seconds: 15.0,
        trace: false,
        bin: PathBuf::from("target/release/diffaudit"),
        work: PathBuf::from(".perf_work"),
        out: None,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} takes a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => options.workloads = vec![Workload::parse(value).ok_or_else(bad)?],
            "--seed" => options.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                options.seconds = value.parse().map_err(|_| bad())?;
                if !(options.seconds >= 1.0 && options.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--bin" => options.bin = PathBuf::from(value),
            "--work" => options.work = PathBuf::from(value),
            "--out" => options.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(options)
}

/// The last line of a workload's output.
fn result_json(report: &Report) -> Json {
    let mut metrics = Json::obj();
    for m in &report.metrics {
        metrics.set(
            m.name,
            Json::obj()
                .with("value", Json::float(m.value))
                .with("unit", Json::str(m.unit)),
        );
    }
    Json::obj()
        .with("correct", Json::Bool(report.correct))
        .with("attempted", Json::int(report.attempted as i64))
        .with("failed", Json::int(report.failed as i64))
        .with("metrics", metrics)
}

fn run_workload(options: &Options, env: &Env, wl: Workload) -> Result<Report, String> {
    let work = options
        .work
        .join(format!("{}-{}", wl.name(), std::process::id()));
    let report = if options.trace {
        let dir = options.out.as_deref().unwrap_or(&options.work);
        let spans = dir.join(format!("{}.spans.jsonl", wl.name()));
        workloads::run_traced(env, wl, &work, &spans)
    } else {
        workloads::run(env, wl, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    let report = report?;
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not a finite number", m.name));
    }
    Ok(report)
}

fn main() -> ExitCode {
    let fail = |msg: &str| {
        diffaudit_obs::write_stderr_block(&format!("perf: {msg}\n"));
        ExitCode::from(1)
    };
    if cfg!(debug_assertions) {
        return fail("refusing to measure a debug build; build with --release");
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(e) => return fail(&format!("{e}\n{USAGE}")),
    };
    let env = Env {
        bin: options.bin.clone(),
        seed: options.seed,
        seconds: options.seconds,
    };
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let proc_fs = Path::new("/proc/self/status").exists();
    println!(
        "perf: machine nproc={nproc} profile=release proc={proc_fs} seed={} seconds={} trace={}",
        options.seed, options.seconds, options.trace
    );
    let mut ok = true;
    let mut docs = Vec::new();
    for wl in &options.workloads {
        match run_workload(&options, &env, *wl) {
            Ok(report) => {
                for note in &report.notes {
                    println!("perf: {}: {note}", wl.name());
                }
                let result = result_json(&report);
                println!("{}", result.to_string());
                ok &= report.correct && report.failed == 0 && report.valid;
                docs.push(
                    Json::obj()
                        .with("workload", Json::str(wl.name()))
                        .with("valid", Json::Bool(report.valid))
                        .with(
                            "notes",
                            Json::Arr(report.notes.iter().map(Json::str).collect()),
                        )
                        .with("result", result),
                );
            }
            Err(e) => {
                ok = false;
                let _ = fail(&format!("{}: {e}", wl.name()));
            }
        }
    }
    if let (Some(out), false) = (&options.out, options.trace) {
        let doc = Json::obj()
            .with(
                "machine",
                Json::obj()
                    .with("nproc", Json::int(nproc as i64))
                    .with("profile", Json::str("release"))
                    .with("proc", Json::Bool(proc_fs)),
            )
            .with("seed", Json::int(options.seed as i64))
            .with("seconds", Json::float(options.seconds))
            .with("workloads", Json::Arr(docs));
        if let Err(e) = std::fs::write(out, doc.to_pretty_string() + "\n") {
            return fail(&format!("cannot write {}: {e}", out.display()));
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let o = parse_args(&strings(&[
            "--workload",
            "serve-open",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(o.workloads, [Workload::ServeOpen]);
        assert_eq!((o.seed, o.seconds, o.trace), (7, 20.0, true));
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--seconds", "0"])).is_err());
        assert!(parse_args(&strings(&["--seed"])).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_required_keys() {
        let report = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            valid: true,
            metrics: vec![Metric {
                name: "audit_s",
                value: 1.2034,
                unit: "s",
            }],
            notes: Vec::new(),
        };
        assert_eq!(
            result_json(&report).to_string(),
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"audit_s":{"value":1.2034,"unit":"s"}}}"#
        );
    }

    /// `BENCHMARK.json` at the repository root names exactly the workloads
    /// and metrics this binary prints.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let mut dir = Some(Path::new(env!("CARGO_MANIFEST_DIR")));
        let path = std::iter::from_fn(|| {
            let d = dir?;
            dir = d.parent();
            Some(d.join("BENCHMARK.json"))
        })
        .find(|p| p.is_file())
        .expect("BENCHMARK.json above the package");
        let doc = diffaudit_json::parse(&std::fs::read_to_string(path).expect("readable"))
            .expect("BENCHMARK.json is JSON");
        let pairs = |key: &str, field: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (s("name"), s(field))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(pairs("end_to_end", "unit"), own(&workloads::E2E_METRICS));
        assert_eq!(pairs("per_layer", "unit"), own(&traced::LAYER_METRICS));
        let names: Vec<String> = pairs("workloads", "name")
            .into_iter()
            .map(|p| p.0)
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }
}
