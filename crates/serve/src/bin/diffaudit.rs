//! The `diffaudit` command-line tool.
//!
//! ```text
//! diffaudit generate --out DIR [--scale F] [--seed N] [--services a,b]
//!     Generate the synthetic capture campaign to disk (HAR/pcap/key-log
//!     artifacts plus per-service manifest.json).
//!
//! diffaudit audit DIR... [--ensemble SEED] [--threshold F]
//!                        [--cache-dir DIR] [--format text|markdown|json]
//!                        [--out FILE] [--strict] [--max-drop PCT]
//!     Audit capture directories (each containing manifest.json). Works on
//!     generated captures AND on externally collected traces: drop your own
//!     .har / .pcap+.keys files next to a manifest and point the tool at it.
//!     Damaged records are skipped and tallied in a degradation ledger
//!     instead of aborting the audit; `--strict` turns any drop into a hard
//!     failure and `--max-drop PCT` bounds the tolerated drop percentage.
//!
//!     Exit codes: 0 = clean run, 1 = hard failure (unusable input, policy
//!     exceeded, bad usage), 2 = salvaged (audit produced, some records
//!     dropped).
//!
//! diffaudit serve [--port N] [--queue N] [--workers N] [--deadline-ms N]
//!                 [--drain-ms N] [--cache-dir DIR] [--chaos]
//!     Run the audit daemon: upload traces and enqueue audit jobs over a
//!     local REST API (see DESIGN.md §9). Prints `listening on http://...`
//!     once bound (`--port 0` picks an ephemeral port). Bounded queueing
//!     sheds excess submissions with 429; every job runs under a deadline
//!     with cooperative cancellation; a panicking job is contained to its
//!     own record; `POST /api/v1/shutdown` drains gracefully. `--chaos`
//!     enables fault-injection job options (testing only). Exit codes:
//!     0 = clean drain, 1 = jobs orphaned at shutdown or bind failure.
//!
//! diffaudit classify KEY...
//!     Classify raw payload keys with the majority-vote ensemble.
//!
//! diffaudit ontology
//!     Print the COPPA/CCPA data-type ontology as JSON.
//!
//! diffaudit obs report TRACE.jsonl [--top K] [--resources]
//!     Analyze a `--trace-out` trace: reconstruct the span tree, attribute
//!     self vs. child time, and print the flame/critical-path report with
//!     the top-K self-time hotspots. `--resources` switches to the
//!     resource view: per-stage peak RSS, RSS delta, CPU seconds, and
//!     bytes-in throughput (requires a trace recorded under
//!     `--res-sample-ms`; otherwise reports resources unavailable).
//!     Malformed lines are skipped and counted (salvage-style). Exit
//!     codes: 0 = clean, 2 = report produced but some lines were skipped,
//!     1 = unusable input.
//!
//! diffaudit obs diff BASELINE.json CURRENT.json [--fail-over PCT]
//!                    [--fail-rss-over PCT] [--noise-floor-ms N]
//!     Diff two `diffaudit-obs/v1` documents (`--metrics-out`, the bench
//!     baselines): per-stage wall-time deltas, counter deltas,
//!     bucket-derived p50/p90/p99 shifts, resource (peak-RSS) deltas,
//!     conservation checks, and an ok/regressed verdict. `--fail-over PCT`
//!     turns wall-time growth past PCT percent (and past the noise floor)
//!     into exit code 2, so CI can gate on a committed baseline;
//!     `--fail-rss-over PCT` gates peak-RSS growth the same way (4MiB
//!     noise floor). `--noise-floor-ms` sets the wall-time noise floor in
//!     milliseconds (default 20ms). Exit codes: 0 = ok, 2 = regressed,
//!     1 = unusable input or bad usage.
//!
//! diffaudit obs top URL [--once] [--interval-ms N]
//!     Poll a running daemon's `GET /api/v1/metrics` snapshot and render a
//!     refreshing queue/worker/latency table to stderr. URL is
//!     `http://host:port` or bare `host:port`. Exit codes: 0 = clean
//!     (including the daemon draining away mid-watch), 2 = the snapshot
//!     stopped parsing after a successful poll, 1 = never connected.
//!
//! diffaudit obs tail URL [--once] [--interval-ms N] [--level warn|error]
//!     Stream the daemon's retained warn/error event ring
//!     (`GET /api/v1/events`) to stderr, following the ring cursor so each
//!     event prints once. Shares `obs top`'s exit contract.
//!
//! Global flags (any subcommand, stripped before dispatch):
//!   --threads N                         worker threads for the parallel
//!                                       pipeline stages (default: the
//!                                       machine's available parallelism;
//!                                       1 forces the serial path — output
//!                                       is byte-identical either way)
//!   --log-level error|warn|info|debug   stderr verbosity (default info)
//!   --trace-out FILE.jsonl              write a JSONL event/span trace
//!   --metrics-out FILE.json             write end-of-run metrics JSON
//!   --res-sample-ms N                   sample process RSS/CPU from /proc
//!                                       every N ms and attribute them to
//!                                       spans (Linux; elsewhere a warning)
//!   -v | --verbose                      debug level + pipeline run report
//!
//! Reports and exports go to stdout / `--out`; observability goes to stderr
//! and the trace/metrics files, so enabling it never perturbs the audit
//! output. The exit-code contract above is likewise unchanged.
//! ```

use diffaudit::audit::AuditFinding;
use diffaudit::export;
use diffaudit::loader::{load_capture_dirs, write_dataset};
use diffaudit::report;
use diffaudit::run::{run_audit, AuditRun, AuditSettings};
use diffaudit::salvage::{DegradationLedger, RunStatus, SalvagePolicy};
use diffaudit_json::Json;
use diffaudit_obs as obs;
use diffaudit_serve::{ServeConfig, Server};
use diffaudit_services::{all_services, generate_dataset_threads, service_by_slug, DatasetOptions};
use diffaudit_util::cancel::Ctl;
use diffaudit_util::par::KeyInterner;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    obs::write_stderr_block(
        "usage:\n  diffaudit generate --out DIR [--scale F] [--seed N] [--services a,b]\n  \
         diffaudit audit DIR... [--ensemble SEED] [--threshold F] [--cache-dir DIR] [--format text|markdown|json] [--out FILE] [--strict] [--max-drop PCT]\n  \
         diffaudit serve [--port N] [--queue N] [--workers N] [--deadline-ms N] [--drain-ms N] [--cache-dir DIR] [--chaos]\n  \
         diffaudit classify KEY...\n  diffaudit ontology\n  \
         diffaudit obs report TRACE.jsonl [--top K] [--resources]\n  \
         diffaudit obs diff BASELINE.json CURRENT.json [--fail-over PCT] [--fail-rss-over PCT] [--noise-floor-ms N]\n  \
         diffaudit obs top URL [--once] [--interval-ms N]\n  \
         diffaudit obs tail URL [--once] [--interval-ms N] [--level warn|error]\n\
         global flags: [--threads N] [--log-level error|warn|info|debug] [--trace-out FILE.jsonl] [--metrics-out FILE.json] [--res-sample-ms N] [-v|--verbose]\n",
    );
    // Exit-code contract: 1 = hard failure (2 means salvaged-with-drops).
    ExitCode::from(1)
}

/// What the observability flags asked for beyond recorder configuration.
struct ObsOptions {
    metrics_out: Option<PathBuf>,
    verbose: bool,
    /// Worker threads from `--threads` (default: the machine's available
    /// parallelism). Passed explicitly to every parallel stage — there is
    /// no process-global thread default to set.
    threads: usize,
}

/// Strip the global observability flags from the argument list and
/// configure the process-global recorder. Returns the remaining arguments
/// plus the end-of-run options, or `Err` with a message on a bad value.
fn setup_obs(args: Vec<String>) -> Result<(Vec<String>, ObsOptions), String> {
    let mut rest = Vec::with_capacity(args.len());
    let mut level: Option<obs::Level> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut verbose = false;
    let mut threads = diffaudit_util::par::available_threads();
    let mut res_sample_ms: Option<u64> = None;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--log-level" => match iter.next().as_deref().and_then(obs::Level::parse) {
                Some(l) => level = Some(l),
                None => return Err("--log-level takes error|warn|info|debug".into()),
            },
            "--trace-out" => match iter.next() {
                Some(path) => trace_out = Some(PathBuf::from(path)),
                None => return Err("--trace-out takes a file path".into()),
            },
            "--metrics-out" => match iter.next() {
                Some(path) => metrics_out = Some(PathBuf::from(path)),
                None => return Err("--metrics-out takes a file path".into()),
            },
            "--threads" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => threads = n,
                _ => return Err("--threads takes a positive integer".into()),
            },
            "--res-sample-ms" => match iter.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(ms) if ms >= 1 => res_sample_ms = Some(ms),
                _ => return Err("--res-sample-ms takes a positive integer".into()),
            },
            "-v" | "--verbose" => verbose = true,
            _ => rest.push(arg),
        }
    }
    // The CLI is operator-facing: progress lines (info) show by default,
    // -v raises to debug, an explicit --log-level always wins.
    let effective = level.unwrap_or(if verbose {
        obs::Level::Debug
    } else {
        obs::Level::Info
    });
    obs::global().configure(obs::ObsConfig {
        level: Some(effective),
        stderr: Some(true),
        trace: None,
    });
    if let Some(path) = &trace_out {
        obs::global()
            .trace_to_file(path)
            .map_err(|e| format!("cannot open trace file {}: {e}", path.display()))?;
    }
    // Resource profiling writes to stderr/trace/metrics only, so enabling
    // it never perturbs a subcommand's stdout. Without `/proc` (non-Linux)
    // the flag degrades to a warning instead of failing the run.
    if let Some(ms) = res_sample_ms {
        if !obs::enable_resources(std::time::Duration::from_millis(ms)) {
            obs::warn(
                "resources unavailable (/proc not readable); --res-sample-ms ignored",
                &[],
            );
        }
    }
    Ok((
        rest,
        ObsOptions {
            metrics_out,
            verbose,
            threads,
        },
    ))
}

/// End-of-run: flush the trace, write the metrics document, and print the
/// pipeline run report when `-v` asked for it.
fn finish_obs(options: &ObsOptions) {
    obs::flush();
    let snapshot = obs::snapshot();
    if let Some(path) = &options.metrics_out {
        let doc = snapshot.to_json().to_pretty_string();
        match std::fs::write(path, doc) {
            Ok(()) => obs::debug(
                "metrics written",
                &[obs::field("path", path.display().to_string())],
            ),
            Err(e) => obs::error(
                "failed to write metrics",
                &[
                    obs::field("path", path.display().to_string()),
                    obs::field("reason", e.to_string()),
                ],
            ),
        }
    }
    if options.verbose {
        obs::write_stderr_block(&obs::render_run_report(&snapshot));
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (args, obs_options) = match setup_obs(args) {
        Ok(v) => v,
        Err(msg) => {
            obs::error(&msg, &[]);
            return usage();
        }
    };
    let code = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..], obs_options.threads),
        Some("audit") => cmd_audit(&args[1..], obs_options.threads),
        Some("serve") => cmd_serve(&args[1..], obs_options.threads),
        Some("classify") => cmd_classify(&args[1..], obs_options.threads),
        Some("ontology") => cmd_ontology(),
        Some("obs") => cmd_obs(&args[1..]),
        _ => usage(),
    };
    finish_obs(&obs_options);
    code
}

fn cmd_serve(args: &[String], threads: usize) -> ExitCode {
    // The global --threads flag sizes each job's pipeline parallelism;
    // --workers sizes how many jobs run at once.
    let mut config = ServeConfig {
        threads_per_job: threads,
        ..ServeConfig::default()
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--port" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) => config.port = v,
                None => return usage(),
            },
            "--queue" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => config.queue_capacity = v,
                _ => return usage(),
            },
            "--workers" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => config.workers = v,
                _ => return usage(),
            },
            "--deadline-ms" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => config.default_deadline_ms = v,
                _ => return usage(),
            },
            "--drain-ms" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) => config.drain_deadline_ms = v,
                None => return usage(),
            },
            "--cache-dir" => match iter.next() {
                Some(v) => config.cache_dir = Some(PathBuf::from(v)),
                None => return usage(),
            },
            "--chaos" => config.enable_chaos = true,
            _ => return usage(),
        }
    }
    // The daemon always samples its own RSS/CPU so `GET /metrics` exports
    // `diffaudit_process_resident_bytes` / `diffaudit_process_cpu_seconds_total`
    // and `obs top` can show a resources row. Idempotent if the global
    // `--res-sample-ms` flag already started the sampler; on a box without
    // `/proc` the daemon runs without the two series.
    if !obs::enable_resources(std::time::Duration::from_millis(250)) {
        obs::debug(
            "resources unavailable; process RSS/CPU series disabled",
            &[],
        );
    }
    let server = match Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            obs::error("bind failed", &[obs::field("reason", e.to_string())]);
            return ExitCode::from(1);
        }
    };
    match server.addr() {
        Ok(addr) => {
            // The one stdout line: scripts scrape the address (check.sh
            // boots on --port 0 and reads the ephemeral port from here).
            println!("listening on http://{addr}");
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
        }
        Err(e) => {
            obs::error("no local addr", &[obs::field("reason", e.to_string())]);
            return ExitCode::from(1);
        }
    }
    let exit = server.run();
    obs::info(
        "daemon stopped",
        &[
            obs::field("jobsFinished", exit.jobs_finished),
            obs::field("orphaned", exit.orphaned),
        ],
    );
    if exit.orphaned == 0 {
        ExitCode::from(0)
    } else {
        ExitCode::from(1)
    }
}

fn cmd_generate(args: &[String], threads: usize) -> ExitCode {
    let mut out: Option<PathBuf> = None;
    let mut options = DatasetOptions {
        volume_scale: 0.1,
        ..Default::default()
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--out" => out = iter.next().map(PathBuf::from),
            "--scale" => match iter.next() {
                Some(v) => match v.parse::<f64>() {
                    Ok(scale) if scale.is_finite() && scale > 0.0 => options.volume_scale = scale,
                    _ => {
                        obs::error(&format!("--scale {v:?} must be a finite number > 0"), &[]);
                        return usage();
                    }
                },
                None => return usage(),
            },
            "--seed" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) => options.seed = v,
                None => return usage(),
            },
            "--services" => match iter.next() {
                Some(list) => {
                    options.services = list.split(',').map(str::to_string).collect();
                }
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let Some(out) = out else {
        return usage();
    };
    if let Some(slug) = options
        .services
        .iter()
        .find(|s| service_by_slug(s).is_none())
    {
        let known: Vec<&str> = all_services().iter().map(|s| s.slug).collect();
        let known = known.join(",");
        obs::error(&format!("unknown service {slug:?} (expected {known})"), &[]);
        return usage();
    }
    obs::info(
        "generating dataset",
        &[
            obs::field("scale", options.volume_scale),
            obs::field("seed", options.seed),
        ],
    );
    let gen_span = obs::span("generate");
    let dataset = generate_dataset_threads(&options, threads);
    gen_span.finish();
    let write_span = obs::span("generate.write");
    let written = write_dataset(&dataset, &out);
    write_span.finish();
    match written {
        Ok(dirs) => {
            // Ground truth alongside, for oracle-mode audits and classifier
            // validation, sorted by key so the same seed writes the same file.
            let mut truth: Vec<_> = dataset.key_truth.iter().collect();
            truth.sort_unstable_by_key(|&(k, _)| k);
            let truth = Json::Obj(
                truth
                    .into_iter()
                    .map(|(k, v)| (k.clone(), Json::str(v.label())))
                    .collect(),
            );
            let truth_path = out.join("key_truth.json");
            if let Err(e) = std::fs::write(&truth_path, truth.to_string()) {
                obs::error(
                    "failed to write ground truth",
                    &[
                        obs::field("path", truth_path.display().to_string()),
                        obs::field("reason", e.to_string()),
                    ],
                );
                return ExitCode::FAILURE;
            }
            for dir in &dirs {
                println!("{}", dir.display());
            }
            println!("{}", truth_path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            obs::error(&e.to_string(), &[]);
            ExitCode::FAILURE
        }
    }
}

fn cmd_audit(args: &[String], threads: usize) -> ExitCode {
    let mut dirs: Vec<PathBuf> = Vec::new();
    let mut seed = 2023u64;
    let mut threshold = 0.8f64;
    let mut format = "text".to_string();
    let mut out_file: Option<PathBuf> = None;
    let mut cache_dir: Option<PathBuf> = None;
    let mut policy = SalvagePolicy::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--ensemble" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage(),
            },
            "--threshold" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) => threshold = v,
                None => return usage(),
            },
            "--format" => match iter.next() {
                Some(v) if ["text", "markdown", "json"].contains(&v.as_str()) => {
                    format = v.clone();
                }
                _ => return usage(),
            },
            "--out" => match iter.next() {
                Some(v) => out_file = Some(PathBuf::from(v)),
                None => return usage(),
            },
            "--cache-dir" => match iter.next() {
                Some(v) => cache_dir = Some(PathBuf::from(v)),
                None => return usage(),
            },
            "--strict" => policy.strict = true,
            "--max-drop" => match iter.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(pct) if (0.0..=100.0).contains(&pct) => {
                    policy.max_drop_fraction = Some(pct / 100.0);
                }
                _ => return usage(),
            },
            other if !other.starts_with('-') => dirs.push(PathBuf::from(other)),
            _ => return usage(),
        }
    }
    if dirs.is_empty() {
        return usage();
    }
    let settings = match AuditSettings::new(seed, threshold, policy, cache_dir, threads) {
        Ok(settings) => settings,
        Err(msg) => {
            obs::error(&msg, &[]);
            return usage();
        }
    };

    let audit_span = obs::span("audit");
    let load_span = obs::span("audit.load");
    let (scope, ctl) = (obs::Scope::global(), Ctl::unbounded());
    // One interner for the whole audit: every directory's raw keys share
    // one allocation per distinct spelling. One load: the units of every
    // directory share one queue.
    let interner = KeyInterner::new();
    let loaded = match load_capture_dirs(&dirs, threads, &scope, &ctl, &interner) {
        Ok(loaded) => loaded,
        Err(e) => {
            obs::error(&e.to_string(), &[]);
            return ExitCode::FAILURE;
        }
    };
    let mut services = Vec::new();
    let mut ledger = DegradationLedger::new();
    for (dir, (service, service_ledger)) in dirs.iter().zip(loaded) {
        let dropped = service_ledger.merged().total_dropped();
        let mut fields = vec![
            obs::field("service", service.name.as_str()),
            obs::field("units", service.units.len()),
            obs::field("dir", dir.display().to_string()),
        ];
        if dropped > 0 {
            fields.push(obs::field("dropped", dropped));
        }
        obs::info("loaded capture directory", &fields);
        services.push(service);
        ledger.services.push(service_ledger);
    }
    load_span.finish();

    let (outcome, findings, ledger, status) =
        match run_audit(services, ledger, &settings, &scope, &ctl) {
            AuditRun::Finished {
                outcome,
                findings,
                ledger,
                status,
            } if status != RunStatus::Failed => (outcome, findings, ledger, status),
            // A finished run fails here when cache damage pushed it past the policy.
            AuditRun::Rejected { ledger } | AuditRun::Finished { ledger, .. } => {
                obs::error(
                    "degradation exceeds policy",
                    &[
                        obs::field("dropped", ledger.total_dropped()),
                        obs::field("dropPct", ledger.drop_fraction() * 100.0),
                        obs::field("strict", settings.policy.strict),
                    ],
                );
                obs::write_stderr_block(&report::render_degradation(&ledger));
                return ExitCode::FAILURE;
            }
            AuditRun::Interrupted { interrupt, .. } => {
                obs::error(&interrupt.to_string(), &[]);
                return ExitCode::FAILURE;
            }
        };

    // The degradation section appears only on salvaged runs, so a clean
    // run's output is byte-identical to the pre-salvage tool's.
    let render_span = obs::span("audit.render");
    let rendered = match format.as_str() {
        "json" => {
            export::outcome_to_json_with_ledger(&outcome, &findings, &ledger).to_pretty_string()
        }
        "markdown" => {
            let mut doc = outcome
                .services
                .iter()
                .map(|s| {
                    let service_findings: Vec<AuditFinding> = findings
                        .iter()
                        .filter(|f| f.service == s.name)
                        .cloned()
                        .collect();
                    export::service_to_markdown(s, &service_findings)
                })
                .collect::<Vec<_>>()
                .join("\n---\n\n");
            if status != RunStatus::Clean {
                doc.push_str("\n## Degradation\n\n```\n");
                doc.push_str(&report::render_degradation(&ledger));
                doc.push_str("```\n");
            }
            doc
        }
        _ => report::render_text_report(&outcome, &findings, &ledger, status),
    };
    render_span.finish();
    audit_span.finish();
    match out_file {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, rendered) {
                obs::error(
                    "failed to write report",
                    &[
                        obs::field("path", path.display().to_string()),
                        obs::field("reason", e.to_string()),
                    ],
                );
                return ExitCode::FAILURE;
            }
            obs::info(
                "wrote report",
                &[obs::field("path", path.display().to_string())],
            );
        }
        None => print!("{rendered}"),
    }
    if status != RunStatus::Clean {
        obs::warn(
            "salvaged run; exit code 2",
            &[
                obs::field("dropped", ledger.total_dropped()),
                obs::field("dropPct", ledger.drop_fraction() * 100.0),
            ],
        );
    }
    ExitCode::from(status.exit_code())
}

fn cmd_classify(args: &[String], threads: usize) -> ExitCode {
    if args.is_empty() {
        return usage();
    }
    use diffaudit_classifier::{ConfidenceAggregation, MajorityEnsemble};
    let _span = obs::span("classify");
    let ensemble = MajorityEnsemble::new(2023, ConfidenceAggregation::Average);
    let refs: Vec<&str> = args.iter().map(String::as_str).collect();
    for result in ensemble.classify_batch_threads(&refs, threads) {
        match result.category {
            Some(category) => println!(
                "{} // {} // {:.2} // {}",
                result.input,
                category.label(),
                result.confidence,
                result.explanation
            ),
            None => println!(
                "{} // (unlabeled) // 0.00 // {}",
                result.input, result.explanation
            ),
        }
    }
    ExitCode::SUCCESS
}

/// The `obs` subcommand family: trace analysis and metrics diffing — the
/// consumption half of the observability stack.
fn cmd_obs(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("report") => cmd_obs_report(&args[1..]),
        Some("diff") => cmd_obs_diff(&args[1..]),
        Some("top") => cmd_obs_top(&args[1..]),
        Some("tail") => cmd_obs_tail(&args[1..]),
        _ => usage(),
    }
}

/// Normalize an `obs top`/`obs tail` target (`http://host:port` or bare
/// `host:port`) into a socket address string for the client module.
fn parse_target(url: &str) -> String {
    let stripped = url.strip_prefix("http://").unwrap_or(url);
    stripped.trim_end_matches('/').to_string()
}

/// Shared polling state for the live views' exit contract: 0 = clean
/// (including the daemon going away after at least one successful poll),
/// 2 = the endpoint answered but the payload was malformed after at least
/// one success, 1 = never reached a usable endpoint.
struct PollOutcome {
    successes: u64,
}

impl PollOutcome {
    fn new() -> PollOutcome {
        PollOutcome { successes: 0 }
    }

    fn transport_failed(&self, context: &str) -> ExitCode {
        if self.successes > 0 {
            obs::info("daemon went away; exiting", &[obs::field("after", context)]);
            ExitCode::from(0)
        } else {
            obs::error("cannot reach daemon", &[obs::field("target", context)]);
            ExitCode::from(1)
        }
    }

    fn payload_malformed(&self, reason: &str) -> ExitCode {
        obs::error("malformed payload", &[obs::field("reason", reason)]);
        if self.successes > 0 {
            ExitCode::from(2)
        } else {
            ExitCode::from(1)
        }
    }
}

/// `obs top URL [--once] [--interval-ms N]` — poll `GET /api/v1/metrics`
/// and render a refreshing queue/worker/latency table to stderr.
///
/// Exit contract: 0 = clean (a daemon that drains away mid-watch is a
/// clean exit once at least one poll succeeded), 2 = the snapshot stopped
/// parsing after a successful poll, 1 = never connected or bad usage.
fn cmd_obs_top(args: &[String]) -> ExitCode {
    let mut target: Option<String> = None;
    let mut once = false;
    let mut interval_ms: u64 = 1000;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--once" => once = true,
            "--interval-ms" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(ms) if ms >= 1 => interval_ms = ms,
                _ => return usage(),
            },
            other if !other.starts_with('-') && target.is_none() => {
                target = Some(parse_target(other));
            }
            _ => return usage(),
        }
    }
    let Some(addr) = target else {
        return usage();
    };
    let mut outcome = PollOutcome::new();
    loop {
        let body = match diffaudit_serve::client::request_text(&addr, "GET", "/api/v1/metrics", b"")
        {
            Ok((200, body)) => body,
            Ok((status, _)) => {
                return outcome.payload_malformed(&format!("/api/v1/metrics answered {status}"));
            }
            Err(_) => return outcome.transport_failed(&addr),
        };
        let snapshot = match obs::parse_snapshot(&body) {
            Ok(snapshot) => snapshot,
            Err(e) => return outcome.payload_malformed(&e.to_string()),
        };
        outcome.successes += 1;
        obs::write_stderr_block(&render_top(&addr, &snapshot));
        if once {
            return ExitCode::from(0);
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// Render one `obs top` frame from the daemon's metrics snapshot. Every
/// figure is the daemon's own: the latency line shows the p50/p90 its
/// sliding latency window estimated, so the client computes no quantiles.
fn render_top(addr: &str, snapshot: &obs::MetricsSnapshot) -> String {
    use diffaudit_serve::names;
    use diffaudit_util::fmt::{format_bytes, format_duration_us};
    let gauge = |name: &str| snapshot.gauges.get(name).map_or(0, obs::Gauge::value);
    let counter = |name: &str| snapshot.metrics.counter(name);
    let mut out = String::new();
    out.push_str(&format!(
        "diffaudit obs top — {addr} (uptime {:.1}s)\n",
        snapshot.uptime_us as f64 / 1e6
    ));
    out.push_str(&format!(
        "  queue depth {:>4}   in-flight {:>4}   busy workers {:>4}\n",
        gauge(names::QUEUE_DEPTH),
        gauge(names::JOBS_IN_FLIGHT),
        gauge(names::WORKERS_BUSY),
    ));
    out.push_str(&format!(
        "  jobs: submitted {} finished {} panicked {} shed(429) {}\n",
        counter(names::JOBS_SUBMITTED),
        counter(names::JOBS_FINISHED),
        counter(names::JOBS_PANICKED),
        counter(names::QUEUE_SHED),
    ));
    let requests = snapshot.windows.get(names::HTTP_REQUESTS_WINDOW);
    out.push_str(&format!(
        "  http: requests {} ({:.2}/s over 1m, {:.2}/s over 5m)\n",
        counter(names::HTTP_REQUESTS),
        requests.map_or(0.0, |w| w.rate_1m),
        requests.map_or(0.0, |w| w.rate_5m),
    ));
    let latency = snapshot
        .windows
        .get(names::HTTP_LATENCY_WINDOW)
        .map_or([None; 3], |w| w.quantiles);
    match latency {
        [Some(p50), Some(p90), _] => out.push_str(&format!(
            "  http latency: p50 {} p90 {}\n",
            format_duration_us(p50.round() as u64),
            format_duration_us(p90.round() as u64)
        )),
        _ => out.push_str("  http latency: no samples yet\n"),
    }
    // Present once any job has consulted the persistent classification
    // cache; warm daemons show hits ≈ keys and zero ensemble work.
    let cache_hits = counter("pipeline.classify.cache.hit");
    let cache_misses = counter("pipeline.classify.cache.miss");
    if cache_hits + cache_misses > 0 {
        out.push_str(&format!(
            "  classify cache: hits {} misses {} inserts {}\n",
            cache_hits,
            cache_misses,
            counter("pipeline.classify.cache.insert"),
        ));
    }
    // Present only when the daemon's /proc sampler is running (Linux).
    match snapshot.gauges.get(names::PROCESS_RSS) {
        Some(rss) => out.push_str(&format!(
            "  resources: rss {}   cpu {:.2}s\n",
            format_bytes(rss.value().max(0) as u64),
            gauge(names::PROCESS_CPU_US).max(0) as f64 / 1e6,
        )),
        None => out.push_str("  resources: unavailable (no /proc sampler)\n"),
    }
    out
}

/// `obs tail URL [--once] [--interval-ms N] [--level warn|error]` —
/// stream the daemon's retained warn/error event ring to stderr,
/// following the ring cursor so each event prints once.
///
/// Shares `obs top`'s exit contract.
fn cmd_obs_tail(args: &[String]) -> ExitCode {
    let mut target: Option<String> = None;
    let mut once = false;
    let mut interval_ms: u64 = 500;
    let mut min_level = obs::Level::Warn;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--once" => once = true,
            "--interval-ms" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(ms) if ms >= 1 => interval_ms = ms,
                _ => return usage(),
            },
            "--level" => match iter.next().map(String::as_str).and_then(obs::Level::parse) {
                Some(level) => min_level = level,
                None => return usage(),
            },
            other if !other.starts_with('-') && target.is_none() => {
                target = Some(parse_target(other));
            }
            _ => return usage(),
        }
    }
    let Some(addr) = target else {
        return usage();
    };
    let mut outcome = PollOutcome::new();
    let mut cursor: u64 = 0;
    loop {
        let path = format!("/api/v1/events?since={cursor}");
        let body = match diffaudit_serve::client::request_text(&addr, "GET", &path, b"") {
            Ok((200, body)) => body,
            Ok((status, _)) => {
                return outcome.payload_malformed(&format!("/api/v1/events answered {status}"));
            }
            Err(_) => return outcome.transport_failed(&addr),
        };
        let doc = match diffaudit_json::parse(&body) {
            Ok(doc) => doc,
            Err(e) => return outcome.payload_malformed(&e.to_string()),
        };
        let Some(events) = doc.get("events").and_then(Json::as_arr) else {
            return outcome.payload_malformed("no \"events\" array in response");
        };
        outcome.successes += 1;
        if let Some(next) = doc.get("cursor").and_then(Json::as_i64) {
            let (next, resynced) = diffaudit_serve::client::next_cursor(cursor, next.max(0) as u64);
            if resynced {
                obs::warn(
                    "event ring reset (daemon restarted?); resyncing",
                    &[
                        obs::field("hadCursor", cursor),
                        obs::field("serverCursor", next),
                    ],
                );
            }
            cursor = next;
        }
        let mut lines = String::new();
        for event in events {
            let level = event
                .get("level")
                .and_then(Json::as_str)
                .and_then(obs::Level::parse)
                .unwrap_or(obs::Level::Warn);
            if !level.passes(min_level) {
                continue;
            }
            let t_us = event.get("tUs").and_then(Json::as_i64).unwrap_or(0);
            let msg = event.get("msg").and_then(Json::as_str).unwrap_or("");
            let fields = event.get("fields").and_then(Json::as_str).unwrap_or("");
            lines.push_str(&format!(
                "[+{:.3}s] {:5} {msg}",
                t_us as f64 / 1e6,
                level.label().to_ascii_uppercase()
            ));
            if !fields.is_empty() {
                lines.push(' ');
                lines.push_str(fields);
            }
            lines.push('\n');
        }
        if !lines.is_empty() {
            obs::write_stderr_block(&lines);
        }
        if once {
            return ExitCode::from(0);
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// `obs report TRACE.jsonl [--top K] [--resources]` — span-tree /
/// critical-path report; `--resources` switches to the per-stage
/// RSS/CPU/throughput attribution view.
///
/// Shares the audit exit contract: 0 = clean, 2 = report produced but some
/// trace lines were malformed and skipped, 1 = unusable input.
fn cmd_obs_report(args: &[String]) -> ExitCode {
    let mut path: Option<PathBuf> = None;
    let mut options = obs::TraceReportOptions::default();
    let mut resources = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--top" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(k) if k > 0 => options.top = k,
                _ => return usage(),
            },
            "--resources" => resources = true,
            other if !other.starts_with('-') && path.is_none() => {
                path = Some(PathBuf::from(other));
            }
            _ => return usage(),
        }
    }
    let Some(path) = path else {
        return usage();
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            obs::error(
                "cannot read trace file",
                &[
                    obs::field("path", path.display().to_string()),
                    obs::field("reason", e.to_string()),
                ],
            );
            return ExitCode::from(1);
        }
    };
    let log = obs::TraceLog::parse(&text);
    if log.records.is_empty() {
        obs::error(
            "no usable trace records",
            &[
                obs::field("path", path.display().to_string()),
                obs::field("lines", log.lines),
                obs::field("skipped", log.skipped),
            ],
        );
        return ExitCode::from(1);
    }
    let tree = obs::SpanTree::build(&log);
    if resources {
        print!("{}", obs::render_resource_report(&tree));
    } else {
        print!("{}", obs::render_trace_report(&tree, &options));
    }
    if log.skipped > 0 {
        obs::warn(
            "trace partially malformed; exit code 2",
            &[
                obs::field("skipped", log.skipped),
                obs::field("lines", log.lines),
            ],
        );
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}

/// `obs diff BASELINE.json CURRENT.json [--fail-over PCT]
/// [--fail-rss-over PCT] [--noise-floor-ms N]` — metrics comparison with a
/// gated verdict.
///
/// Exit contract: 0 = ok, 2 = regressed (report still printed),
/// 1 = unusable input or bad usage.
fn cmd_obs_diff(args: &[String]) -> ExitCode {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut options = obs::DiffOptions::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--fail-over" => match iter.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(pct) if pct >= 0.0 => options.fail_over = Some(pct / 100.0),
                _ => return usage(),
            },
            "--fail-rss-over" => match iter.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(pct) if pct >= 0.0 => options.fail_rss_over = Some(pct / 100.0),
                _ => return usage(),
            },
            "--noise-floor-ms" => match iter.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(ms) => options.noise_floor_us = ms.saturating_mul(1000),
                None => return usage(),
            },
            other if !other.starts_with('-') => paths.push(PathBuf::from(other)),
            _ => return usage(),
        }
    }
    let [baseline_path, current_path] = paths.as_slice() else {
        return usage();
    };
    let load = |path: &PathBuf| -> Option<obs::MetricsSnapshot> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                obs::error(
                    "cannot read metrics file",
                    &[
                        obs::field("path", path.display().to_string()),
                        obs::field("reason", e.to_string()),
                    ],
                );
                return None;
            }
        };
        match obs::parse_snapshot(&text) {
            Ok(snapshot) => Some(snapshot),
            Err(e) => {
                obs::error(
                    "cannot parse metrics snapshot",
                    &[
                        obs::field("path", path.display().to_string()),
                        obs::field("reason", e.to_string()),
                    ],
                );
                None
            }
        }
    };
    let (Some(baseline), Some(current)) = (load(baseline_path), load(current_path)) else {
        return ExitCode::from(1);
    };
    let diff = obs::diff_snapshots(&baseline, &current, &options);
    print!("{}", obs::render_diff(&diff, &options));
    match diff.verdict {
        obs::Verdict::Ok => ExitCode::SUCCESS,
        obs::Verdict::Regressed => {
            obs::warn(
                "metrics regressed against baseline; exit code 2",
                &[obs::field("metrics", diff.regressions.join(","))],
            );
            ExitCode::from(2)
        }
    }
}

fn cmd_ontology() -> ExitCode {
    use diffaudit_ontology::{DataTypeCategory, Level1, Level2};
    let mut roots = Json::obj();
    for l1 in Level1::ALL {
        let mut groups = Json::obj();
        for l2 in Level2::ALL {
            if l2.level1() != l1 {
                continue;
            }
            let mut categories = Json::obj();
            for category in l2.categories() {
                categories.set(
                    category.label(),
                    Json::obj()
                        .with(
                            "examples",
                            Json::Arr(
                                category
                                    .vocabulary()
                                    .iter()
                                    .map(|t| Json::str(*t))
                                    .collect(),
                            ),
                        )
                        .with("legalBasis", Json::str(category.legal_basis().label()))
                        .with(
                            "observedInPaper",
                            Json::Bool(DataTypeCategory::OBSERVED_IN_PAPER.contains(&category)),
                        ),
                );
            }
            groups.set(l2.label(), categories);
        }
        roots.set(l1.label(), groups);
    }
    println!("{}", roots.to_pretty_string());
    ExitCode::SUCCESS
}
