//! One audit run after load, shared by the batch CLI and the serve daemon.
//!
//! Both front ends load their input into [`ExtractedService`]s and a
//! [`DegradationLedger`] and hand them to [`run_audit`], which takes the run
//! to a verdict; they only map the [`AuditRun`] onto exit codes or job
//! phases and render it, so the two cannot drift apart.
//!
//! The timeout and cancel policy of both phases is decided here. During
//! load, a tripped [`Ctl`] turns each interrupted unit into a ledger drop
//! with a `timeout:`/`cancelled:` reason, judged by the salvage policy like
//! damaged input. During the pipeline, partial results mean nothing, so the
//! run stops without a verdict.

use crate::audit::{audit_service, AuditFinding};
use crate::pipeline::{AuditOutcome, ClassificationMode, ExtractedService, Pipeline};
use crate::salvage::{cache_ledger, mirror_counters, DegradationLedger, RunStatus, SalvagePolicy};
use diffaudit_obs::{field, Scope};
use diffaudit_util::cancel::{Ctl, Interrupt};
use std::path::PathBuf;

/// The settings of one audit run. The classifier's seed and threshold are
/// checked once, by [`AuditSettings::new`], for every front end.
#[derive(Debug, Clone)]
pub struct AuditSettings {
    seed: u64,
    threshold: f64,
    /// Degradation tolerance (`--strict`, `--max-drop`).
    pub policy: SalvagePolicy,
    /// Persistent classification cache directory; `None` = uncached.
    pub cache_dir: Option<PathBuf>,
    /// Worker threads for the pipeline stages.
    pub threads: usize,
}

impl AuditSettings {
    /// Check and gather a run's settings: the ensemble seed must be a
    /// non-negative integer and the vote threshold a finite number in
    /// `[0, 1]`. The error names the one that is not.
    pub fn new(
        seed: impl TryInto<u64>,
        threshold: f64,
        policy: SalvagePolicy,
        cache_dir: Option<PathBuf>,
        threads: usize,
    ) -> Result<AuditSettings, String> {
        let seed = seed
            .try_into()
            .map_err(|_| "ensemble seed must be a non-negative integer".to_string())?;
        if !(0.0..=1.0).contains(&threshold) {
            return Err("threshold must be a finite number in [0, 1]".into());
        }
        Ok(AuditSettings {
            seed,
            threshold,
            policy,
            cache_dir,
            threads,
        })
    }
}

/// How an audit run ended.
pub enum AuditRun {
    /// The salvage policy failed the loaded ledger; the pipeline never ran.
    Rejected {
        /// The degradation that exceeded the policy.
        ledger: DegradationLedger,
    },
    /// The deadline or a cancel stopped the run before it had an audit.
    Interrupted {
        /// What tripped.
        interrupt: Interrupt,
        /// The degradation accounted so far.
        ledger: DegradationLedger,
        /// The policy's verdict when the trip landed during load and
        /// dropped units; `None` after a complete load or in the pipeline.
        verdict: Option<RunStatus>,
    },
    /// The pipeline ran and the findings are drawn.
    Finished {
        /// The observed services and key labels.
        outcome: AuditOutcome,
        /// Findings for every catalog service.
        findings: Vec<AuditFinding>,
        /// The load ledger plus any classification-cache damage.
        ledger: DegradationLedger,
        /// The verdict on that ledger; `Failed` when cache damage pushed
        /// it past the policy.
        status: RunStatus,
    },
}

/// Take loaded services and their ledger to a verdict: mirror the ledger
/// into `scope`'s counters, judge it, run the pipeline, account cache damage
/// and judge again, then audit every catalog service (a service outside the
/// catalog gets a warning and no policy findings).
pub fn run_audit(
    services: Vec<ExtractedService>,
    mut ledger: DegradationLedger,
    settings: &AuditSettings,
    scope: &Scope,
    ctl: &Ctl,
) -> AuditRun {
    // The metrics document stays conservation-checkable against the ledger.
    mirror_counters(&ledger.merged(), scope);
    let status = settings.policy.evaluate(&ledger);
    if status == RunStatus::Failed {
        return AuditRun::Rejected { ledger };
    }
    if let Some(interrupt) = ctl.interrupted() {
        let verdict = (ledger.total_dropped() > 0).then_some(status);
        return AuditRun::Interrupted {
            interrupt,
            ledger,
            verdict,
        };
    }
    let mut pipeline = Pipeline::new(ClassificationMode::Ensemble {
        seed: settings.seed,
        threshold: settings.threshold,
    })
    .with_threads(settings.threads);
    if let Some(dir) = &settings.cache_dir {
        pipeline = pipeline.with_cache_dir(dir.clone());
    }
    let outcome = match pipeline.run_extracted_scoped(services, scope, ctl) {
        Ok(outcome) => outcome,
        Err(interrupt) => {
            return AuditRun::Interrupted {
                interrupt,
                ledger,
                verdict: None,
            }
        }
    };
    // Cache salvage (damaged log records skipped on open) degrades the run
    // the same way damaged input does.
    let status = match outcome.cache.as_ref() {
        Some(report) if !report.damage.is_empty() => {
            let cache_service = cache_ledger(report);
            mirror_counters(&cache_service.merged(), scope);
            ledger.services.push(cache_service);
            settings.policy.evaluate(&ledger)
        }
        _ => status,
    };
    let findings = scope.time("audit.findings", || {
        let mut findings = Vec::new();
        for service in &outcome.services {
            match diffaudit_services::service_by_slug(&service.slug) {
                Some(spec) => findings.extend(audit_service(service, &spec)),
                None => scope.warn(
                    "service not in catalog; policy-consistency rules skipped",
                    &[field("service", service.name.as_str())],
                ),
            }
        }
        findings
    });
    scope.add("audit.findings", findings.len() as u64);
    AuditRun::Finished {
        outcome,
        findings,
        ledger,
        status,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settings(seed: i64, threshold: f64) -> Result<AuditSettings, String> {
        AuditSettings::new(seed, threshold, SalvagePolicy::default(), None, 1)
    }

    #[test]
    fn settings_reject_out_of_range_seed_and_threshold() {
        assert!(settings(2023, 0.8).is_ok());
        assert!(settings(0, 0.0).is_ok());
        assert!(settings(0, 1.0).is_ok());
        assert!(settings(-1, 0.8)
            .expect_err("negative seed")
            .contains("seed"));
        for threshold in [f64::NAN, f64::INFINITY, -0.1, 1.5, 2.0] {
            assert!(settings(2023, threshold)
                .expect_err("out-of-range threshold")
                .contains("threshold"));
        }
        assert!(AuditSettings::new(u64::MAX, 0.8, SalvagePolicy::default(), None, 1).is_ok());
    }

    #[test]
    fn empty_run_finishes_clean_without_findings() {
        let scope = Scope::job("test");
        let run = run_audit(
            Vec::new(),
            DegradationLedger::new(),
            &settings(2023, 0.8).expect("valid settings"),
            &scope,
            &Ctl::unbounded(),
        );
        let AuditRun::Finished {
            findings, status, ..
        } = run
        else {
            panic!("expected a finished run");
        };
        assert!(findings.is_empty());
        assert_eq!(status, RunStatus::Clean);
        let snapshot = scope.finish().expect("job snapshot");
        assert!(snapshot.metrics.spans().any(|(n, _)| n == "audit.findings"));
    }
}
