//! Per-job execution: one audit under a deadline, a cancel token, and a
//! private observability scope.
//!
//! Timeout policy (DESIGN.md §9): the loader and the pipeline treat
//! interruption differently, on purpose.
//!
//! - **During load**, an expired deadline turns each remaining unit into a
//!   ledger drop with a `timeout:` reason — the job still completes, and
//!   the salvage policy judges the degradation exactly as it judges
//!   damaged input. A stalled decoder therefore yields `salvaged` (or
//!   `failed` under `--strict`-style policy), not a wedged worker.
//! - **During the pipeline phases** (extract/classify/assemble), partial
//!   results are not meaningful, so interruption aborts the phase and the
//!   job reports `timed-out` (or `cancelled`) with an error document.
//!
//! All instrumentation lands in a job-private [`Scope`]; the caller merges
//! the snapshot into the global registry only after the job returns — a
//! panicking job cannot leave half-written global state.

use crate::job::{JobCompletion, JobPhase};
use diffaudit::audit::{audit_service, AuditFinding};
use diffaudit::diff::ObservedGrid;
use diffaudit::export;
use diffaudit::loader::{load_memory_service, MemoryService};
use diffaudit::pipeline::{AuditOutcome, ClassificationMode, Pipeline};
use diffaudit::report;
use diffaudit::salvage::{
    cache_ledger, mirror_counters, DegradationLedger, RunStatus, SalvagePolicy,
};
use diffaudit_json::Json;
use diffaudit_obs::{MetricsSnapshot, Scope};
use diffaudit_util::cancel::{CancelToken, Ctl, Deadline, Interrupt};
use diffaudit_util::par::KeyInterner;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Fault-injection modes, accepted only when the daemon was started with
/// chaos enabled. They exist so the containment properties are testable
/// end-to-end against the real daemon, not just in unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMode {
    /// Panic inside the job (exercises worker panic containment).
    Panic,
    /// Stall every cancellation checkpoint (exercises deadline expiry in
    /// the decoder loops: a slow-loris artifact decode).
    StallDecode,
}

/// Everything a worker needs to execute one job.
pub struct JobRequest {
    /// The uploaded service (traces already resolved to memory units).
    pub service: MemoryService,
    /// Degradation tolerance.
    pub policy: SalvagePolicy,
    /// Ensemble seed (the CLI's `--ensemble`).
    pub seed: u64,
    /// Ensemble vote threshold (the CLI's `--threshold`).
    pub threshold: f64,
    /// Wall-clock budget for the whole job.
    pub deadline: Duration,
    /// Optional fault injection.
    pub chaos: Option<ChaosMode>,
    /// Persistent classification cache directory (shared across jobs;
    /// `None` = uncached).
    pub cache_dir: Option<std::path::PathBuf>,
}

/// A finished job: the table entry plus the private metrics snapshot the
/// worker merges into the global registry.
pub struct JobOutput {
    /// Terminal state and rendered documents.
    pub completion: JobCompletion,
    /// The job's private metrics, for the post-completion global merge.
    pub metrics: Option<MetricsSnapshot>,
}

/// How long each [`ChaosMode::StallDecode`] checkpoint sleeps.
const STALL_PER_CHECK: Duration = Duration::from_millis(25);

fn build_ctl(token: &CancelToken, deadline: Duration, chaos: Option<ChaosMode>) -> Ctl {
    let ctl = Ctl::new(token.clone(), Deadline::within(deadline));
    match chaos {
        Some(ChaosMode::StallDecode) => {
            ctl.with_probe(Arc::new(|| std::thread::sleep(STALL_PER_CHECK)))
        }
        _ => ctl,
    }
}

/// Deliberate fault injection for [`ChaosMode::Panic`]; the worker's
/// `catch_unwind` boundary is the subject under test.
#[allow(clippy::panic)]
fn chaos_panic() -> ! {
    panic!("chaos: injected job panic")
}

fn empty_outcome() -> AuditOutcome {
    AuditOutcome {
        services: Vec::new(),
        key_labels: HashMap::new(),
        unique_raw_keys: 0,
        cache: None,
    }
}

/// The batch CLI's default text report, rebuilt from the same renderers so
/// daemon reports and CLI stdout stay in lockstep.
fn render_text_report(
    outcome: &AuditOutcome,
    findings: &[AuditFinding],
    ledger: &DegradationLedger,
    status: RunStatus,
) -> String {
    let mut text = String::new();
    for service in &outcome.services {
        let grid = ObservedGrid::build(service);
        text.push_str(&report::render_table4(service, &grid));
        text.push('\n');
    }
    text.push_str(&report::render_fig3(outcome));
    text.push('\n');
    text.push_str("Findings:\n");
    text.push_str(&report::render_findings(findings));
    if status != RunStatus::Clean {
        text.push('\n');
        text.push_str(&report::render_degradation(ledger));
    }
    text
}

fn interrupted_completion(interrupt: Interrupt, ledger: &DegradationLedger) -> JobCompletion {
    let phase = match interrupt {
        Interrupt::TimedOut => JobPhase::TimedOut,
        Interrupt::Cancelled => JobPhase::Cancelled,
    };
    let doc = Json::obj()
        .with("error", Json::str(interrupt.to_string()))
        .with("degradation", ledger.to_json())
        .to_pretty_string();
    JobCompletion {
        phase,
        result_json: doc,
        report: None,
        metrics_json: None,
        error: Some(interrupt.to_string()),
    }
}

/// Close the job scope, attach the rendered snapshot, and package the
/// output.
fn finish(scope: Scope, mut completion: JobCompletion) -> JobOutput {
    let metrics = scope.finish();
    if let Some(snapshot) = &metrics {
        completion.metrics_json = Some(snapshot.to_json().to_pretty_string());
    }
    JobOutput {
        completion,
        metrics,
    }
}

/// Execute one job to a terminal phase. Never blocks past the deadline as
/// long as decode/pipeline loops keep hitting their cancellation
/// checkpoints; never touches the global obs registry.
///
/// The caller is expected to wrap this in `catch_unwind` — a panic
/// anywhere in here (including re-raised pipeline worker panics) is the
/// job's failure, not the daemon's.
pub fn run_job(request: JobRequest, token: CancelToken, threads: usize) -> JobOutput {
    let ctl = build_ctl(&token, request.deadline, request.chaos);
    let scope = Scope::job("serve.job");
    if request.chaos == Some(ChaosMode::Panic) {
        chaos_panic();
    }

    let interner = KeyInterner::new();
    let (service, service_ledger) = scope.time("serve.job.load", || {
        load_memory_service(request.service, threads, &scope, &ctl, &interner)
    });
    let mut ledger = DegradationLedger::new();
    ledger.services.push(service_ledger);
    // Mirror the ledger into the job's metrics, same counters as the CLI.
    mirror_counters(&ledger.merged(), &scope);

    let status = request.policy.evaluate(&ledger);
    if status == RunStatus::Failed {
        let doc =
            export::outcome_to_json_with_ledger(&empty_outcome(), &[], &ledger).to_pretty_string();
        return finish(
            scope,
            JobCompletion {
                phase: JobPhase::Done(RunStatus::Failed),
                result_json: doc,
                report: Some(report::render_degradation(&ledger)),
                metrics_json: None,
                error: Some(format!(
                    "degradation exceeds policy: {} records dropped",
                    ledger.total_dropped()
                )),
            },
        );
    }

    if let Some(interrupt) = ctl.interrupted() {
        // The deadline (or a cancel) tripped during load. Interrupted
        // units are already accounted as ledger drops, so if anything was
        // dropped the job reports the salvage verdict with the degradation
        // document; a clean ledger means the trip landed after a complete
        // load, where no partial audit exists to report.
        if ledger.total_dropped() > 0 {
            let doc = export::outcome_to_json_with_ledger(&empty_outcome(), &[], &ledger)
                .to_pretty_string();
            return finish(
                scope,
                JobCompletion {
                    phase: JobPhase::Done(status),
                    result_json: doc,
                    report: Some(report::render_degradation(&ledger)),
                    metrics_json: None,
                    error: Some(interrupt.to_string()),
                },
            );
        }
        return finish(scope, interrupted_completion(interrupt, &ledger));
    }

    let mut pipeline = Pipeline::new(ClassificationMode::Ensemble {
        seed: request.seed,
        threshold: request.threshold,
    })
    .with_threads(threads);
    if let Some(dir) = &request.cache_dir {
        pipeline = pipeline.with_cache_dir(dir.clone());
    }
    match pipeline.run_extracted_scoped(vec![service], &scope, &ctl) {
        Err(interrupt) => finish(scope, interrupted_completion(interrupt, &ledger)),
        Ok(outcome) => {
            // Cache salvage (skipped or truncated log records) degrades the
            // run the same way damaged input does: account it in the ledger
            // and let the policy re-judge the status.
            let status = match outcome.cache.as_ref() {
                Some(report) if !report.damage.is_empty() => {
                    let cache_service = cache_ledger(report);
                    mirror_counters(&cache_service.merged(), &scope);
                    ledger.services.push(cache_service);
                    request.policy.evaluate(&ledger)
                }
                _ => status,
            };
            let mut findings: Vec<AuditFinding> = Vec::new();
            for service in &outcome.services {
                if let Some(spec) = diffaudit_services::service_by_slug(&service.slug) {
                    findings.extend(audit_service(service, &spec));
                }
            }
            scope.add("audit.findings", findings.len() as u64);
            let doc = export::outcome_to_json_with_ledger(&outcome, &findings, &ledger)
                .to_pretty_string();
            let report_text = render_text_report(&outcome, &findings, &ledger, status);
            finish(
                scope,
                JobCompletion {
                    phase: JobPhase::Done(status),
                    result_json: doc,
                    report: Some(report_text),
                    metrics_json: None,
                    error: None,
                },
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffaudit_services::{generate_dataset, DatasetOptions};

    fn small_service() -> MemoryService {
        let dataset = generate_dataset(&DatasetOptions {
            seed: 21,
            volume_scale: 0.02,
            mobile_pinned_fraction: 0.0,
            services: vec!["duolingo".into()],
        });
        MemoryService::from_capture(&dataset.services[0])
    }

    fn request(service: MemoryService) -> JobRequest {
        JobRequest {
            service,
            policy: SalvagePolicy::default(),
            seed: 2023,
            threshold: 0.8,
            deadline: Duration::from_secs(60),
            chaos: None,
            cache_dir: None,
        }
    }

    #[test]
    fn clean_job_reports_clean_with_private_metrics() {
        let output = run_job(request(small_service()), CancelToken::new(), 2);
        assert_eq!(output.completion.phase, JobPhase::Done(RunStatus::Clean));
        assert_eq!(output.completion.phase.exit_style(), Some(0));
        assert!(output.completion.result_json.contains("services"));
        assert!(output.completion.report.is_some());
        let metrics = output.metrics.expect("job snapshot");
        assert!(metrics.metrics.spans().any(|(n, _)| n == "serve.job"));
        assert!(metrics.metrics.counter("loader.units.loaded") > 0);
    }

    #[test]
    fn expired_deadline_salvages_or_times_out_but_returns() {
        let mut req = request(small_service());
        req.deadline = Duration::ZERO;
        let output = run_job(req, CancelToken::new(), 2);
        // Every unit dropped at load → policy says salvaged.
        assert_eq!(
            output.completion.phase,
            JobPhase::Done(RunStatus::Salvaged),
            "error: {:?}",
            output.completion.error
        );
        assert!(output
            .completion
            .error
            .as_deref()
            .is_some_and(|e| e.starts_with("timeout")));
        assert!(output.completion.result_json.contains("degradation"));
    }

    #[test]
    fn pre_cancelled_token_cancels_the_job() {
        let token = CancelToken::new();
        token.cancel();
        let output = run_job(request(small_service()), token, 1);
        // Dropped-at-load units carry cancelled reasons → salvage verdict.
        assert_eq!(output.completion.phase, JobPhase::Done(RunStatus::Salvaged));
        assert!(output
            .completion
            .error
            .as_deref()
            .is_some_and(|e| e.starts_with("cancelled")));
    }

    #[test]
    fn strict_policy_turns_timeout_drops_into_hard_failure() {
        let mut req = request(small_service());
        req.deadline = Duration::ZERO;
        req.policy.strict = true;
        let output = run_job(req, CancelToken::new(), 1);
        assert_eq!(output.completion.phase, JobPhase::Done(RunStatus::Failed));
        assert_eq!(output.completion.phase.http_status(), 422);
    }
}
