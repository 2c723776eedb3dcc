//! Per-job execution: one audit under a deadline, a cancel token, and a
//! private observability scope.
//!
//! A job loads its upload and hands it to [`run_audit`], the post-load run
//! the batch CLI shares, which also decides the timeout and cancel policy
//! of the load and pipeline phases; this module maps the [`AuditRun`] onto
//! a [`JobCompletion`]. All instrumentation lands in a job-private
//! [`Scope`]; the caller merges the snapshot into the global registry only
//! after the job returns — a panicking job cannot leave half-written global
//! state.

use crate::job::{JobCompletion, JobPhase};
use diffaudit::export;
use diffaudit::loader::{load_memory_services, MemoryService};
use diffaudit::pipeline::AuditOutcome;
use diffaudit::report;
use diffaudit::run::{run_audit, AuditRun, AuditSettings};
use diffaudit::salvage::{DegradationLedger, RunStatus};
use diffaudit_json::Json;
use diffaudit_obs::{MetricsSnapshot, Scope};
use diffaudit_util::cancel::{CancelToken, Ctl, Deadline, Interrupt};
use diffaudit_util::par::KeyInterner;
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
    /// The run's checked settings (`threads` sizes load and pipeline).
    pub settings: AuditSettings,
    /// Wall-clock budget for the whole job.
    pub deadline: Duration,
    /// Optional fault injection.
    pub chaos: Option<ChaosMode>,
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

/// A verdict without an audit: the degradation document and the ledger
/// report, for a run the policy rejected or a load the deadline cut short.
fn ledger_completion(
    status: RunStatus,
    ledger: &DegradationLedger,
    error: String,
) -> JobCompletion {
    JobCompletion {
        phase: JobPhase::Done(status),
        result_json: export::outcome_to_json_with_ledger(&AuditOutcome::default(), &[], ledger)
            .to_pretty_string(),
        report: Some(report::render_degradation(ledger)),
        metrics_json: None,
        error: Some(error),
    }
}

/// Execute one job to a terminal phase. Never blocks past the deadline as
/// long as decode/pipeline loops keep hitting their cancellation
/// checkpoints; never touches the global obs registry.
///
/// The caller is expected to wrap this in `catch_unwind` — a panic
/// anywhere in here (including re-raised pipeline worker panics) is the
/// job's failure, not the daemon's.
pub fn run_job(request: JobRequest, token: CancelToken) -> JobOutput {
    let ctl = build_ctl(&token, request.deadline, request.chaos);
    let scope = Scope::job("serve.job");
    if request.chaos == Some(ChaosMode::Panic) {
        chaos_panic();
    }

    let settings = request.settings;
    let interner = KeyInterner::new();
    let services = vec![request.service];
    let (service, service_ledger) = scope.time("serve.job.load", || {
        load_memory_services(services, settings.threads, &scope, &ctl, &interner).remove(0)
    });
    let ledger = DegradationLedger {
        services: vec![service_ledger],
    };
    let mut completion = match run_audit(vec![service], ledger, &settings, &scope, &ctl) {
        AuditRun::Rejected { ledger } => {
            let error = format!(
                "degradation exceeds policy: {} records dropped",
                ledger.total_dropped()
            );
            ledger_completion(RunStatus::Failed, &ledger, error)
        }
        AuditRun::Interrupted {
            interrupt,
            ledger,
            verdict: Some(status),
        } => ledger_completion(status, &ledger, interrupt.to_string()),
        AuditRun::Interrupted {
            interrupt,
            ledger,
            verdict: None,
        } => JobCompletion {
            phase: match interrupt {
                Interrupt::TimedOut => JobPhase::TimedOut,
                Interrupt::Cancelled => JobPhase::Cancelled,
            },
            result_json: Json::obj()
                .with("error", Json::str(interrupt.to_string()))
                .with("degradation", ledger.to_json())
                .to_pretty_string(),
            report: None,
            metrics_json: None,
            error: Some(interrupt.to_string()),
        },
        AuditRun::Finished {
            outcome,
            findings,
            ledger,
            status,
        } => JobCompletion {
            phase: JobPhase::Done(status),
            result_json: export::outcome_to_json_with_ledger(&outcome, &findings, &ledger)
                .to_pretty_string(),
            report: Some(report::render_text_report(
                &outcome, &findings, &ledger, status,
            )),
            metrics_json: None,
            error: None,
        },
    };
    let metrics = scope.finish();
    if let Some(snapshot) = &metrics {
        completion.metrics_json = Some(snapshot.to_json().to_pretty_string());
    }
    JobOutput {
        completion,
        metrics,
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

    fn request(service: MemoryService, threads: usize) -> JobRequest {
        JobRequest {
            service,
            settings: AuditSettings::new(2023u64, 0.8, Default::default(), None, threads)
                .expect("valid settings"),
            deadline: Duration::from_secs(60),
            chaos: None,
        }
    }

    #[test]
    fn clean_job_reports_clean_with_private_metrics() {
        let output = run_job(request(small_service(), 2), CancelToken::new());
        assert_eq!(output.completion.phase, JobPhase::Done(RunStatus::Clean));
        assert_eq!(output.completion.phase.exit_style(), Some(0));
        assert!(output.completion.result_json.contains("services"));
        assert!(output.completion.report.is_some());
        let metrics = output.metrics.expect("job snapshot");
        assert!(metrics.metrics.spans().any(|(n, _)| n == "serve.job"));
        assert!(metrics.metrics.counter("loader.units.loaded") > 0);
    }

    #[test]
    fn job_snapshot_holds_its_own_decode_layers() {
        use diffaudit_services::MemoryArtifact;
        let service = small_service();
        let har_units = service
            .units
            .iter()
            .filter(|u| matches!(*u.artifact, MemoryArtifact::Har(_)))
            .count() as u64;
        let pcap_units = service.units.len() as u64 - har_units;
        assert!(
            har_units > 0 && pcap_units > 0,
            "{har_units} / {pcap_units}"
        );
        let output = run_job(request(service, 2), CancelToken::new());
        assert_eq!(output.completion.phase, JobPhase::Done(RunStatus::Clean));
        let metrics = output.metrics.expect("job snapshot").metrics;
        let span_count = |name: &str| {
            metrics
                .spans()
                .find(|(n, _)| *n == name)
                .map_or(0, |(_, s)| s.count)
        };
        // Every exchange the pipeline saw was decoded under this job.
        assert_eq!(
            metrics.counter("nettrace.har.entries") + metrics.counter("nettrace.exchanges"),
            metrics.counter("pipeline.exchanges")
        );
        assert_eq!(span_count("nettrace.decode.har"), har_units);
        assert_eq!(span_count("nettrace.decode.pcap"), pcap_units);
    }

    #[test]
    fn expired_deadline_salvages_or_times_out_but_returns() {
        let mut req = request(small_service(), 2);
        req.deadline = Duration::ZERO;
        let output = run_job(req, CancelToken::new());
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
        let output = run_job(request(small_service(), 1), token);
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
        let mut req = request(small_service(), 1);
        req.deadline = Duration::ZERO;
        req.settings.policy.strict = true;
        let output = run_job(req, CancelToken::new());
        assert_eq!(output.completion.phase, JobPhase::Done(RunStatus::Failed));
        assert_eq!(output.completion.phase.http_status(), 422);
    }
}
