//! The four workloads. Each sets itself up from the seed several times (the
//! median is `setup_s`) and drives the shipped surfaces for the requested
//! seconds with tracing off. A batch workload measures only its last
//! set-up; `serve-open` measures every one of its daemons.

use crate::corpus::{self, Corpus};
use crate::procs::{self, CliRun};
use crate::serve::{self, Deployment, Pacing, PhaseStats};
use crate::stats::{self, Summary};
use crate::traced::{self, CacheMode};
use crate::Metric;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Corpus scale of the batch workloads: the paper-scale corpus, six
/// services and 98 units.
const BATCH_SCALE: f64 = 1.0;

/// The daemon's corpus: two services of about the same size (~4 MB each)
/// at the smallest volume, so per-job fixed costs dominate and job
/// latencies form one cluster rather than one per service size.
const SERVE_SCALE: f64 = 0.02;
const SERVE_SERVICES: &str = "tiktok,quizlet";

/// Set-ups per batch run. `setup_s` is their median, so that one set-up
/// slowed by the host does not decide it.
const SETUP_REPEATS: usize = 3;

/// Daemons per `serve-open` run, one set-up each, started one after the
/// other; each runs every phase for an equal share of the run and the jobs
/// are pooled. How fast a daemon serves depends on the process: two daemons
/// started seconds apart on the same corpus can differ by half in
/// closed-loop latency while each repeats itself within a few percent, so
/// a single daemon would let that draw decide the whole run.
const SERVE_DAEMONS: usize = 5;

/// Jobs the closed-loop phase keeps in flight, and how many it runs per
/// second of `--seconds`: about 30 jobs/s complete on a 2-CPU machine, so
/// it takes most of the run. `audit_s` and `jobs_per_s` come from this
/// phase alone. The count is fixed rather than the time, because the
/// daemon keeps every result and its peak RSS grows with the number of
/// jobs.
const CLOSED_OUTSTANDING: usize = 4;
const CLOSED_JOBS_PER_S: f64 = 25.0;

/// Every end-to-end metric, in print order, with its unit.
pub const E2E_METRICS: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("audit_s", "s"),
    ("peak_rss_mb", "MB"),
    ("jobs_per_s", "1/s"),
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// First audit of the corpus with a fresh classification cache.
    AuditCold,
    /// Re-audit against a primed cache.
    ReauditWarm,
    /// The pcap+keylog units only, uncached.
    AuditMobile,
    /// Small jobs against the daemon, open then closed loop.
    ServeOpen,
}

impl Workload {
    /// All workloads, in the order they run by default.
    pub const ALL: [Workload; 4] = [
        Workload::AuditCold,
        Workload::ReauditWarm,
        Workload::AuditMobile,
        Workload::ServeOpen,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AuditCold => "audit-cold",
            Workload::ReauditWarm => "reaudit-warm",
            Workload::AuditMobile => "audit-mobile",
            Workload::ServeOpen => "serve-open",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What every run needs.
pub struct Env {
    /// The `diffaudit` binary under test.
    pub bin: PathBuf,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the measured part of a run lasts.
    pub seconds: f64,
}

/// The outcome of one run.
pub struct Report {
    /// Every output matched its reference.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The load generator kept its schedule.
    pub valid: bool,
    /// The metrics, in declaration order.
    pub metrics: Vec<Metric>,
    /// Lines for the log: quartiles, sample counts, digests, sizes.
    pub notes: Vec<String>,
}

/// Generate the workload's corpus under `dir`.
fn make_corpus(env: &Env, wl: Workload, dir: &Path) -> Result<Corpus, String> {
    let out = dir.join("corpus");
    match wl {
        Workload::ServeOpen => {
            corpus::generate(&env.bin, &out, SERVE_SCALE, env.seed, Some(SERVE_SERVICES))
        }
        Workload::AuditMobile => {
            let full = corpus::generate(&env.bin, &out, BATCH_SCALE, env.seed, None)?;
            corpus::mobile_subset(&full, &dir.join("mobile"))
        }
        Workload::AuditCold | Workload::ReauditWarm => {
            corpus::generate(&env.bin, &out, BATCH_SCALE, env.seed, None)
        }
    }
}

/// One `diffaudit audit` over the whole corpus, as an operator runs it.
fn audit(env: &Env, corpus: &Corpus, cache: Option<&Path>, dir: &Path) -> Result<CliRun, String> {
    let mut args = ["--threads", "2", "--log-level", "error", "audit"]
        .map(str::to_string)
        .to_vec();
    args.extend(corpus.dir_args());
    if let Some(cache) = cache {
        args.extend(["--cache-dir".to_string(), cache.display().to_string()]);
    }
    procs::run_cli(&env.bin, &args, &dir.join("audit.stdout"))
}

/// Set a batch workload up in `dir`: its corpus and, for `reaudit-warm`, a
/// primed cache. Also returns the output every audit must repeat when
/// set-up already produced it.
fn setup_batch(env: &Env, wl: Workload, dir: &Path) -> Result<(Corpus, Option<Vec<u8>>), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let corpus = make_corpus(env, wl, dir)?;
    if wl != Workload::ReauditWarm {
        return Ok((corpus, None));
    }
    let prime = audit(env, &corpus, Some(&dir.join("cache")), dir)?;
    if prime.code != Some(0) {
        return Err(format!("priming audit exited {:?}", prime.code));
    }
    Ok((corpus, Some(prime.stdout)))
}

fn digest(bytes: &[u8]) -> String {
    format!("fnv64:{:016x}", diffaudit_util::fnv1a64(bytes))
}

/// A measured run before its metrics are named: the corpus, every set-up
/// time, the report, and `audit_s`, `peak_rss_mb` and `jobs_per_s`.
type Measured = (Corpus, Vec<f64>, Report, [f64; 3]);

/// Set up and measure one run of `wl`.
pub fn run(env: &Env, wl: Workload, work: &Path) -> Result<Report, String> {
    let (corpus, setup_secs, mut report, [audit_s, peak_rss_mb, jobs_per_s]) = match wl {
        Workload::ServeOpen => run_serve(env, work)?,
        Workload::AuditCold | Workload::ReauditWarm | Workload::AuditMobile => {
            run_batch(env, wl, work)?
        }
    };
    let setup_s = stats::median(&setup_secs).ok_or("no set-up time")?;
    report.metrics = E2E_METRICS
        .iter()
        .zip([setup_s, audit_s, peak_rss_mb, jobs_per_s])
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();
    report.notes.insert(
        0,
        format!(
            "corpus bytes={} units={} truth_keys={}; setup_s runs={setup_secs:.3?}",
            corpus.bytes(),
            corpus.unit_count(),
            corpus.truth_keys
        ),
    );
    Ok(report)
}

/// Set a batch workload up three times, then measure the last set-up for
/// `env.seconds`.
fn run_batch(env: &Env, wl: Workload, work: &Path) -> Result<Measured, String> {
    let mut setup_secs = Vec::with_capacity(SETUP_REPEATS);
    let mut current: Option<(PathBuf, Corpus, Option<Vec<u8>>)> = None;
    for k in 0..SETUP_REPEATS {
        if let Some((old, ..)) = current.take() {
            std::fs::remove_dir_all(&old).map_err(|e| format!("{}: {e}", old.display()))?;
        }
        let dir = work.join(format!("setup-{k}"));
        let started = Instant::now();
        let (corpus, reference) = setup_batch(env, wl, &dir)?;
        setup_secs.push(started.elapsed().as_secs_f64());
        current = Some((dir, corpus, reference));
    }
    let (dir, corpus, reference) = current.ok_or("no set-up ran")?;
    let (report, values) = measure_batch(env, wl, &corpus, reference, &dir)?;
    Ok((corpus, setup_secs, report, values))
}

fn measure_batch(
    env: &Env,
    wl: Workload,
    corpus: &Corpus,
    reference: Option<Vec<u8>>,
    dir: &Path,
) -> Result<(Report, [f64; 3]), String> {
    let cache = match wl {
        Workload::AuditCold => Some(dir.join("cold-cache")),
        Workload::ReauditWarm => Some(dir.join("cache")),
        Workload::AuditMobile | Workload::ServeOpen => None,
    };
    // A cold audit gets a cache directory nobody has written yet; deleting
    // it happens after the timed process has exited.
    let op = || -> Result<CliRun, String> {
        let run = audit(env, corpus, cache.as_deref(), dir);
        if wl == Workload::AuditCold {
            if let Some(cache) = &cache {
                let _ = std::fs::remove_dir_all(cache);
            }
        }
        run
    };
    let warmup = op()?;
    let reference = reference.unwrap_or_else(|| warmup.stdout.clone());
    let (mut attempted, mut failed, mut mismatches) = (0u64, 0u64, 0u64);
    let mut wall_ms = Vec::new();
    let mut rss_mb = Vec::new();
    let mut check = |run: &CliRun, measured: bool| {
        attempted += 1;
        if run.code != Some(0) {
            failed += 1;
        } else if run.stdout != reference {
            failed += 1;
            mismatches += 1;
        } else if measured {
            wall_ms.push(run.wall_ms);
            rss_mb.extend(run.peak_rss_kb.map(|kb| kb as f64 / 1024.0));
        }
    };
    check(&warmup, false);
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < env.seconds {
        check(&op()?, true);
    }
    let wall = Summary::of(&wall_ms).ok_or("no audit succeeded")?;
    let rss = Summary::of(&rss_mb).ok_or("no peak RSS sample (is /proc readable?)")?;
    let total_s: f64 = wall_ms.iter().sum::<f64>() / 1e3;
    let report = Report {
        correct: mismatches == 0,
        attempted,
        failed,
        valid: true,
        metrics: Vec::new(),
        notes: vec![
            format!("audit wall_ms {}", wall.render()),
            format!("audit peak_rss_mb {}", rss.render()),
            format!("output {} ({} bytes)", digest(&reference), reference.len()),
        ],
    };
    Ok((
        report,
        [wall.p50 / 1e3, rss.p50, wall_ms.len() as f64 / total_s],
    ))
}

/// Run `serve-open` on `SERVE_DAEMONS` daemons, one after the other. Each
/// is one set-up (corpus, CLI references, boot, upload), then runs every
/// phase for its share of `env.seconds`; each phase's jobs are pooled over
/// the daemons.
fn run_serve(env: &Env, work: &Path) -> Result<Measured, String> {
    let share = env.seconds / SERVE_DAEMONS as f64;
    let closed = (
        "serve.closed",
        Pacing::Closed {
            outstanding: CLOSED_OUTSTANDING,
        },
        serve::phase_jobs(CLOSED_JOBS_PER_S, share),
    );
    let phases: Vec<_> = serve::open_phases(share)
        .into_iter()
        .chain([closed])
        .collect();
    let mut pooled = vec![PhaseStats::default(); phases.len()];
    let mut setup_secs = Vec::with_capacity(SERVE_DAEMONS);
    let mut peaks_mb = Vec::with_capacity(SERVE_DAEMONS);
    let mut closed_p50s = Vec::with_capacity(SERVE_DAEMONS);
    let mut closed_rates = Vec::with_capacity(SERVE_DAEMONS);
    let mut references: Vec<Vec<u8>> = Vec::new();
    let mut mismatches = 0u64;
    let mut corpus = None;
    for k in 0..SERVE_DAEMONS {
        let dir = work.join(format!("setup-{k}"));
        let started = Instant::now();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let generated = make_corpus(env, Workload::ServeOpen, &dir)?;
        let deployment = Deployment::open(&env.bin, &generated, &dir)?;
        setup_secs.push(started.elapsed().as_secs_f64());
        for ((_, pacing, count), total) in phases.iter().zip(&mut pooled) {
            let (_, records) = serve::run_phase(
                &deployment.daemon.addr,
                &deployment.targets,
                *pacing,
                *count,
            );
            let phase = serve::account(&records);
            if let Pacing::Closed { .. } = pacing {
                closed_p50s.extend(stats::median(&phase.latency_ms));
                closed_rates.push(phase.latency_ms.len() as f64 / (phase.span_ms / 1e3));
            }
            total.absorb(phase);
        }
        let peak_kb = deployment
            .daemon
            .peak_rss_kb()
            .ok_or("no daemon VmHWM (is /proc readable?)")?;
        peaks_mb.push(peak_kb as f64 / 1024.0);
        // Every set-up audits the same corpus, so its references must agree.
        let outputs: Vec<Vec<u8>> = deployment
            .targets
            .iter()
            .map(|t| t.reference.clone())
            .collect();
        if references.is_empty() {
            references = outputs;
        } else if references != outputs {
            mismatches += 1;
        }
        let status = deployment.daemon.shutdown(Duration::from_secs(30))?;
        if !status.success() {
            return Err(format!(
                "daemon exited {status}: jobs were orphaned at shutdown"
            ));
        }
        corpus = Some(generated);
    }
    let corpus = corpus.ok_or("no daemon ran")?;

    let mut notes = Vec::new();
    let mut valid = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut closed_p50 = None;
    let mut jobs_per_s = None;
    for ((name, pacing, count), phase) in phases.iter().zip(&pooled) {
        attempted += (count * SERVE_DAEMONS) as u64;
        failed += phase.failed as u64;
        mismatches += phase.mismatches as u64;
        let latency = Summary::of(&phase.latency_ms).ok_or(format!("no {name} job succeeded"))?;
        let lag_p90 = phase.lag_p90();
        notes.push(format!(
            "{name}: latency_ms {}; lag_ms p90={lag_p90:.3}; shed={} failed={}",
            latency.render(),
            phase.shed,
            phase.failed
        ));
        match pacing {
            Pacing::Open { .. } if !phase.on_schedule() => {
                valid = false;
                notes.push(format!("{name}: {}", serve::OFF_SCHEDULE));
            }
            Pacing::Open { .. } => {}
            Pacing::Closed { .. } => {
                closed_p50 = Some(latency.p50);
                jobs_per_s = Some(phase.latency_ms.len() as f64 / (phase.span_ms / 1e3));
            }
        }
    }
    notes.push(format!(
        "per daemon: serve.closed latency_ms p50={closed_p50s:.1?} jobs_per_s={closed_rates:.2?}; \
         peak_rss_mb={peaks_mb:.1?}"
    ));
    let outputs = references.concat();
    notes.push(format!(
        "outputs {} ({} bytes over {} services)",
        digest(&outputs),
        outputs.len(),
        references.len()
    ));
    let report = Report {
        correct: mismatches == 0,
        attempted,
        failed,
        valid,
        metrics: Vec::new(),
        notes,
    };
    let values = [
        closed_p50.ok_or("no closed phase")? / 1e3,
        stats::median(&peaks_mb).ok_or("no daemon ran")?,
        jobs_per_s.ok_or("no closed phase")?,
    ];
    Ok((corpus, setup_secs, report, values))
}

/// The traced run of a workload: its corpus through the library layers
/// in-process, then the daemon probe over the serve corpus.
pub fn run_traced(env: &Env, wl: Workload, work: &Path, spans: &Path) -> Result<Report, String> {
    std::fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;
    let corpus = make_corpus(env, wl, work)?;
    let serve_corpus = match wl {
        Workload::ServeOpen => corpus.clone(),
        _ => corpus::generate(
            &env.bin,
            &work.join("serve-corpus"),
            SERVE_SCALE,
            env.seed,
            Some(SERVE_SERVICES),
        )?,
    };
    let cache = match wl {
        Workload::AuditCold => CacheMode::Cold,
        Workload::ReauditWarm => CacheMode::Warm,
        Workload::AuditMobile | Workload::ServeOpen => CacheMode::Off,
    };
    let outcome = traced::run(&env.bin, &corpus, &serve_corpus, cache, work, spans)?;
    Ok(Report {
        correct: outcome.correct,
        attempted: outcome.attempted,
        failed: outcome.failed,
        valid: outcome.valid,
        metrics: outcome.metrics,
        notes: outcome.notes,
    })
}
