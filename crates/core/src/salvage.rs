//! The run-level degradation ledger and salvage policy.
//!
//! `diffaudit-nettrace`'s [`SalvageLog`] accounts for one artifact's decode;
//! this module aggregates those logs across units and services into a
//! [`DegradationLedger`] — the quantified answer to "how much of the input
//! did this audit actually see?" — and evaluates it against a
//! [`SalvagePolicy`] (the CLI's `--strict` / `--max-drop` flags) to produce
//! the run's [`RunStatus`] and exit code.

use diffaudit_classifier::CacheReport;
use diffaudit_json::Json;
use diffaudit_nettrace::salvage::{SalvageLog, Stage};
use diffaudit_obs::{Scope, SALVAGE_PREFIX};

/// Degradation account for one capture unit (one artifact file).
#[derive(Debug)]
pub struct UnitLedger {
    /// The artifact file named in the manifest (or the manifest entry label
    /// when the file name itself was unreadable).
    pub file: String,
    /// Per-stage tallies and drop reasons for this unit, including its own
    /// `Stage::Unit` entry (processed = unit usable, dropped = unit lost).
    pub log: SalvageLog,
}

impl UnitLedger {
    /// `true` when the whole unit was dropped (its `Unit` stage tally shows
    /// a drop).
    pub fn unit_dropped(&self) -> bool {
        self.log.stage(Stage::Unit).dropped > 0
    }
}

/// Degradation account for one service directory.
#[derive(Debug)]
pub struct ServiceLedger {
    /// Service slug from the manifest.
    pub slug: String,
    /// Per-unit accounts, in manifest order.
    pub units: Vec<UnitLedger>,
}

impl ServiceLedger {
    /// All units' logs folded together.
    pub fn merged(&self) -> SalvageLog {
        let mut log = SalvageLog::new();
        for unit in &self.units {
            log.merge(&unit.log);
        }
        log
    }
}

/// Mirror a ledger's per-stage tallies into `scope` as counters, so a run's
/// metrics document is conservation-checkable against its ledger: for
/// every stage,
///   `counters["salvage.<stage>.processed"]` == ledger processed and
///   `counters["salvage.<stage>.dropped"]`   == ledger dropped.
pub fn mirror_counters(log: &SalvageLog, scope: &Scope) {
    for (stage, counts) in log.stages() {
        let label = stage.label();
        // lint:allow(metric-discipline): `salvage.<stage>.*` is a closed
        // family — `stage` ranges over the ledger's fixed stage enum.
        scope.add(
            &format!("{SALVAGE_PREFIX}{label}.processed"),
            counts.processed,
        );
        // lint:allow(metric-discipline): closed family, same as above.
        scope.add(&format!("{SALVAGE_PREFIX}{label}.dropped"), counts.dropped);
    }
}

/// Mirror the classification cache's salvage decisions into ledger form: a
/// synthetic `cache` service whose single unit is the cache log itself, with
/// live records processed and every damaged record a `cache:`-prefixed drop.
/// Only meaningful when the cache saw damage — a clean cache contributes
/// nothing to the ledger.
pub fn cache_ledger(report: &CacheReport) -> ServiceLedger {
    let mut log = SalvageLog::new();
    log.ok_n(Stage::Cache, report.live_records);
    for damage in &report.damage {
        let mut reason = String::from("cache: ");
        reason.push_str(&damage.reason);
        log.dropped(Stage::Cache, reason, damage.offset);
    }
    ServiceLedger {
        slug: "cache".into(),
        units: vec![UnitLedger {
            file: "classify.log".into(),
            log,
        }],
    }
}

/// The whole run's degradation account.
#[derive(Debug, Default)]
pub struct DegradationLedger {
    /// Per-service accounts, in audit order.
    pub services: Vec<ServiceLedger>,
}

impl DegradationLedger {
    /// Empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every service's units folded together.
    pub fn merged(&self) -> SalvageLog {
        let mut log = SalvageLog::new();
        for service in &self.services {
            log.merge(&service.merged());
        }
        log
    }

    /// `true` when nothing was dropped anywhere.
    pub fn is_clean(&self) -> bool {
        self.merged().is_clean()
    }

    /// Dropped fraction across every stage of every unit.
    pub fn drop_fraction(&self) -> f64 {
        self.merged().drop_fraction()
    }

    /// Conservation check over the aggregate (`processed + dropped ==
    /// total` per stage, drop records matching tallies).
    pub fn conserved(&self) -> bool {
        self.merged().conserved()
    }

    /// Total drop records across the run.
    pub fn total_dropped(&self) -> u64 {
        self.merged().total_dropped()
    }

    /// JSON export (the `degradation` section of the audit document).
    pub fn to_json(&self) -> Json {
        let merged = self.merged();
        let mut stages = Json::obj();
        for (stage, counts) in merged.stages() {
            stages.set(
                stage.label(),
                Json::obj()
                    .with("processed", Json::int(counts.processed as i64))
                    .with("dropped", Json::int(counts.dropped as i64)),
            );
        }
        let services: Vec<Json> = self
            .services
            .iter()
            .map(|service| {
                let units: Vec<Json> = service
                    .units
                    .iter()
                    .map(|unit| {
                        let drops: Vec<Json> = unit
                            .log
                            .drops()
                            .iter()
                            .map(|d| {
                                let mut obj = Json::obj()
                                    .with("stage", Json::str(d.stage.label()))
                                    .with("reason", Json::str(d.reason.clone()));
                                if let Some(offset) = d.offset {
                                    obj.set("offset", Json::int(offset as i64));
                                }
                                obj
                            })
                            .collect();
                        Json::obj()
                            .with("file", Json::str(unit.file.clone()))
                            .with("processed", Json::int(unit.log.total_processed() as i64))
                            .with("dropped", Json::int(unit.log.total_dropped() as i64))
                            .with("drops", Json::Arr(drops))
                    })
                    .collect();
                Json::obj()
                    .with("slug", Json::str(service.slug.clone()))
                    .with("units", Json::Arr(units))
            })
            .collect();
        Json::obj()
            .with("processed", Json::int(merged.total_processed() as i64))
            .with("dropped", Json::int(merged.total_dropped() as i64))
            .with("dropFraction", Json::float(merged.drop_fraction()))
            .with("stages", stages)
            .with("services", Json::Arr(services))
    }
}

/// How a finished run is judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// Every input record was processed.
    Clean,
    /// Some records were dropped, within policy.
    Salvaged,
    /// The degradation exceeded policy (or `--strict` saw any drop).
    Failed,
}

impl RunStatus {
    /// The CLI exit-code contract: 0 = clean, 1 = hard failure,
    /// 2 = salvaged-with-drops.
    pub fn exit_code(&self) -> u8 {
        match self {
            RunStatus::Clean => 0,
            RunStatus::Failed => 1,
            RunStatus::Salvaged => 2,
        }
    }
}

/// The CLI's tolerance for degradation.
#[derive(Debug, Clone, Copy, Default)]
pub struct SalvagePolicy {
    /// `--strict`: any drop at all fails the run.
    pub strict: bool,
    /// `--max-drop <pct>` as a fraction in `[0, 1]`: fail when the dropped
    /// fraction exceeds it.
    pub max_drop_fraction: Option<f64>,
}

impl SalvagePolicy {
    /// Judge a ledger under this policy.
    pub fn evaluate(&self, ledger: &DegradationLedger) -> RunStatus {
        if ledger.is_clean() {
            return RunStatus::Clean;
        }
        if self.strict {
            return RunStatus::Failed;
        }
        if let Some(max) = self.max_drop_fraction {
            if ledger.drop_fraction() > max {
                return RunStatus::Failed;
            }
        }
        RunStatus::Salvaged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger_with(processed: u64, dropped: u64) -> DegradationLedger {
        let mut log = SalvageLog::new();
        log.ok_n(Stage::PcapRecord, processed);
        for i in 0..dropped {
            log.dropped(Stage::PcapRecord, "x", Some(i));
        }
        DegradationLedger {
            services: vec![ServiceLedger {
                slug: "svc".into(),
                units: vec![UnitLedger {
                    file: "a.pcap".into(),
                    log,
                }],
            }],
        }
    }

    #[test]
    fn clean_ledger_is_clean_under_any_policy() {
        let ledger = ledger_with(10, 0);
        assert!(ledger.is_clean());
        for policy in [
            SalvagePolicy::default(),
            SalvagePolicy {
                strict: true,
                max_drop_fraction: None,
            },
            SalvagePolicy {
                strict: false,
                max_drop_fraction: Some(0.0),
            },
        ] {
            assert_eq!(policy.evaluate(&ledger), RunStatus::Clean);
        }
    }

    #[test]
    fn policy_judgments() {
        let ledger = ledger_with(8, 2); // 20% dropped
        assert_eq!(
            SalvagePolicy::default().evaluate(&ledger),
            RunStatus::Salvaged
        );
        assert_eq!(
            SalvagePolicy {
                strict: true,
                max_drop_fraction: None
            }
            .evaluate(&ledger),
            RunStatus::Failed
        );
        assert_eq!(
            SalvagePolicy {
                strict: false,
                max_drop_fraction: Some(0.5)
            }
            .evaluate(&ledger),
            RunStatus::Salvaged
        );
        assert_eq!(
            SalvagePolicy {
                strict: false,
                max_drop_fraction: Some(0.1)
            }
            .evaluate(&ledger),
            RunStatus::Failed
        );
    }

    #[test]
    fn exit_codes_follow_contract() {
        assert_eq!(RunStatus::Clean.exit_code(), 0);
        assert_eq!(RunStatus::Failed.exit_code(), 1);
        assert_eq!(RunStatus::Salvaged.exit_code(), 2);
    }

    #[test]
    fn merged_ledger_conserves_and_exports() {
        let ledger = ledger_with(3, 1);
        assert!(ledger.conserved());
        assert!((ledger.drop_fraction() - 0.25).abs() < 1e-12);
        let json = ledger.to_json();
        assert_eq!(json.pointer("/processed").and_then(Json::as_i64), Some(3));
        assert_eq!(json.pointer("/dropped").and_then(Json::as_i64), Some(1));
        assert_eq!(
            json.pointer("/services/0/units/0/file")
                .and_then(Json::as_str),
            Some("a.pcap")
        );
        assert_eq!(
            json.pointer("/stages/pcap-record/processed")
                .and_then(Json::as_i64),
            Some(3)
        );
    }
}
