//! The COPPA/CCPA rule engine: observed behavior → findings.
//!
//! Encodes the paper's audit logic (§2.1, §4.1): pre-consent processing,
//! pre-consent third-party/ATS sharing, undisclosed flows versus the privacy
//! policy, lack of age differentiation, and linkable-data sharing for
//! minors. Each finding cites the statutory provision it rests on.

use crate::diff::{category_cells, cell_similarity, CellSet};
use crate::linkability::linkable_third_party_count;
use crate::pipeline::ObservedService;
use diffaudit_blocklist::DestinationClass;
use diffaudit_ontology::Level2;
use diffaudit_services::{ServiceSpec, TraceCategory};

/// Finding severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Worth regulator attention but possibly explainable.
    Notice,
    /// Likely non-compliant behavior.
    Warning,
    /// Directly contrary to a statutory requirement.
    Violation,
}

impl Severity {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Severity::Notice => "NOTICE",
            Severity::Warning => "WARNING",
            Severity::Violation => "VIOLATION",
        }
    }
}

/// The audit rules, mirroring the paper's analyses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditRule {
    /// Data collected before consent/age disclosure (logged out).
    PreConsentCollection,
    /// Data shared with third parties before consent.
    PreConsentThirdPartySharing,
    /// Data shared with third-party ATS before consent.
    PreConsentAtsSharing,
    /// Child/adolescent data shared with third-party ATS post-consent.
    MinorAtsSharing,
    /// Observed flow not disclosed in the privacy policy.
    UndisclosedFlow,
    /// Age groups receive near-identical data processing.
    NoAgeDifferentiation,
    /// Linkable data (identifiers + personal info) sent to third parties
    /// for minors.
    MinorLinkableSharing,
}

impl AuditRule {
    /// Statutory citation backing the rule.
    pub fn citation(&self) -> &'static str {
        match self {
            AuditRule::PreConsentCollection => {
                "16 C.F.R. § 312.5(a)(1); Cal. Civ. Code § 1798.120(c)"
            }
            AuditRule::PreConsentThirdPartySharing => "Cal. Civ. Code § 1798.120(c)",
            AuditRule::PreConsentAtsSharing => {
                "16 C.F.R. § 312.5(a)(2); Cal. Civ. Code § 1798.120(c)"
            }
            AuditRule::MinorAtsSharing => "16 C.F.R. § 312.5; Cal. Civ. Code § 1798.120(c)-(d)",
            AuditRule::UndisclosedFlow => "16 C.F.R. § 312.4(a); Cal. Civ. Code § 1798.130(a)(5)",
            AuditRule::NoAgeDifferentiation => "Cal. Civ. Code § 1798.120(c)-(d)",
            AuditRule::MinorLinkableSharing => "Cal. Civ. Code § 1798.140(v)(1); 16 C.F.R. § 312.2",
        }
    }

    /// Short rule identifier for reports.
    pub fn id(&self) -> &'static str {
        match self {
            AuditRule::PreConsentCollection => "R1",
            AuditRule::PreConsentThirdPartySharing => "R2",
            AuditRule::PreConsentAtsSharing => "R3",
            AuditRule::MinorAtsSharing => "R4",
            AuditRule::UndisclosedFlow => "R5",
            AuditRule::NoAgeDifferentiation => "R6",
            AuditRule::MinorLinkableSharing => "R7",
        }
    }
}

/// One audit finding.
#[derive(Debug, Clone)]
pub struct AuditFinding {
    /// The rule that fired.
    pub rule: AuditRule,
    /// Severity.
    pub severity: Severity,
    /// Service name.
    pub service: String,
    /// The trace category the finding concerns.
    pub trace: TraceCategory,
    /// Human-readable description.
    pub description: String,
}

impl AuditFinding {
    /// Render one line for reports.
    pub fn render(&self) -> String {
        format!(
            "[{}] {} {} ({}): {} [{}]",
            self.severity.label(),
            self.rule.id(),
            self.service,
            self.trace,
            self.description,
            self.rule.citation()
        )
    }
}

/// Audit one service against its spec's privacy policy.
pub fn audit_service(service: &ObservedService, spec: &ServiceSpec) -> Vec<AuditFinding> {
    let cells = ServiceCells::build(service);
    let mut findings = Vec::new();
    audit_logged_out(&cells, spec, &mut findings);
    audit_minor_sharing(&cells, spec, &mut findings);
    audit_policy_consistency(&cells, spec, &mut findings);
    audit_age_differentiation(&cells, spec, &mut findings);
    audit_linkability(service, spec, &mut findings);
    findings
}

/// Each trace category's Table 4 cells, built once per service; every
/// cell-level rule reads them.
struct ServiceCells {
    child: CellSet,
    adolescent: CellSet,
    adult: CellSet,
    logged_out: CellSet,
}

impl ServiceCells {
    fn build(service: &ObservedService) -> ServiceCells {
        ServiceCells {
            child: category_cells(service, TraceCategory::Child),
            adolescent: category_cells(service, TraceCategory::Adolescent),
            adult: category_cells(service, TraceCategory::Adult),
            logged_out: category_cells(service, TraceCategory::LoggedOut),
        }
    }

    fn of(&self, trace: TraceCategory) -> &CellSet {
        match trace {
            TraceCategory::Child => &self.child,
            TraceCategory::Adolescent => &self.adolescent,
            TraceCategory::Adult => &self.adult,
            TraceCategory::LoggedOut => &self.logged_out,
        }
    }
}

/// The Table 4 data groups with a cell in `cells` for any of `classes`.
fn groups_with(cells: &CellSet, classes: &[DestinationClass]) -> Vec<Level2> {
    Level2::TABLE4_ROWS
        .iter()
        .copied()
        .filter(|&g| classes.iter().any(|&c| cells.contains(&(g, c))))
        .collect()
}

fn audit_logged_out(cells: &ServiceCells, spec: &ServiceSpec, findings: &mut Vec<AuditFinding>) {
    let cells = cells.of(TraceCategory::LoggedOut);
    if cells.is_empty() {
        return;
    }
    let groups = groups_with(cells, &DestinationClass::ALL);
    if !groups.is_empty() {
        findings.push(AuditFinding {
            rule: AuditRule::PreConsentCollection,
            severity: Severity::Warning,
            service: spec.name.to_string(),
            trace: TraceCategory::LoggedOut,
            description: format!(
                "collected {} data group(s) before age disclosure and consent: {}",
                groups.len(),
                label_list(&groups)
            ),
        });
    }
    let shared = groups_with(cells, &[DestinationClass::ThirdParty]);
    if !shared.is_empty() {
        findings.push(AuditFinding {
            rule: AuditRule::PreConsentThirdPartySharing,
            severity: Severity::Warning,
            service: spec.name.to_string(),
            trace: TraceCategory::LoggedOut,
            description: format!(
                "shared {} with non-ATS third parties before consent",
                label_list(&shared)
            ),
        });
    }
    let ats = groups_with(cells, &[DestinationClass::ThirdPartyAts]);
    if !ats.is_empty() {
        findings.push(AuditFinding {
            rule: AuditRule::PreConsentAtsSharing,
            severity: Severity::Violation,
            service: spec.name.to_string(),
            trace: TraceCategory::LoggedOut,
            description: format!(
                "shared {} with third-party advertising/tracking services before consent",
                label_list(&ats)
            ),
        });
    }
}

fn audit_minor_sharing(cells: &ServiceCells, spec: &ServiceSpec, findings: &mut Vec<AuditFinding>) {
    for trace in [TraceCategory::Child, TraceCategory::Adolescent] {
        let ats = groups_with(cells.of(trace), &[DestinationClass::ThirdPartyAts]);
        if !ats.is_empty() {
            findings.push(AuditFinding {
                rule: AuditRule::MinorAtsSharing,
                severity: Severity::Violation,
                service: spec.name.to_string(),
                trace,
                description: format!(
                    "shared {} with third-party ATS for a user under 16",
                    label_list(&ats)
                ),
            });
        }
    }
}

fn audit_policy_consistency(
    cells: &ServiceCells,
    spec: &ServiceSpec,
    findings: &mut Vec<AuditFinding>,
) {
    for trace in TraceCategory::ALL {
        let undisclosed: Vec<(Level2, DestinationClass)> = cells
            .of(trace)
            .iter()
            .copied()
            .filter(|&(group, class)| !spec.policy.discloses(group, class, trace))
            .collect();
        if !undisclosed.is_empty() {
            let detail: Vec<String> = undisclosed
                .iter()
                .map(|(g, c)| format!("{} → {}", g.label(), c.label()))
                .collect();
            findings.push(AuditFinding {
                rule: AuditRule::UndisclosedFlow,
                severity: Severity::Warning,
                service: spec.name.to_string(),
                trace,
                description: format!(
                    "{} observed flow(s) not disclosed in the privacy policy: {}",
                    undisclosed.len(),
                    detail.join("; ")
                ),
            });
        }
    }
}

fn audit_age_differentiation(
    cells: &ServiceCells,
    spec: &ServiceSpec,
    findings: &mut Vec<AuditFinding>,
) {
    let adult = cells.of(TraceCategory::Adult);
    let child_adult = cell_similarity(cells.of(TraceCategory::Child), adult);
    let adol_adult = cell_similarity(cells.of(TraceCategory::Adolescent), adult);
    if child_adult >= 0.75 && adol_adult >= 0.75 {
        findings.push(AuditFinding {
            rule: AuditRule::NoAgeDifferentiation,
            severity: Severity::Notice,
            service: spec.name.to_string(),
            trace: TraceCategory::Child,
            description: format!(
                "data processing barely differs by age (child/adult similarity {child_adult:.2}, \
                 adolescent/adult {adol_adult:.2})"
            ),
        });
    }
}

fn audit_linkability(
    service: &ObservedService,
    spec: &ServiceSpec,
    findings: &mut Vec<AuditFinding>,
) {
    for trace in [TraceCategory::Child, TraceCategory::Adolescent] {
        let count = linkable_third_party_count(service, trace);
        if count > 0 {
            findings.push(AuditFinding {
                rule: AuditRule::MinorLinkableSharing,
                severity: Severity::Warning,
                service: spec.name.to_string(),
                trace,
                description: format!(
                    "{count} third part{} received linkable data (identifiers + personal \
                     information) about a user under 16",
                    if count == 1 { "y" } else { "ies" }
                ),
            });
        }
    }
}

fn label_list(groups: &[Level2]) -> String {
    groups
        .iter()
        .map(|g| g.label())
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{ClassificationMode, Pipeline};
    use diffaudit_services::{generate_dataset, service_by_slug, DatasetOptions};

    fn audit(slug: &str) -> Vec<AuditFinding> {
        let dataset = generate_dataset(&DatasetOptions {
            seed: 7,
            volume_scale: 0.05,
            mobile_pinned_fraction: 0.1,
            services: vec![slug.into()],
        });
        let outcome =
            Pipeline::new(ClassificationMode::Oracle(dataset.key_truth.clone())).run(&dataset);
        audit_service(&outcome.services[0], &service_by_slug(slug).unwrap())
    }

    #[test]
    fn tiktok_minor_findings() {
        let findings = audit("tiktok");
        assert!(
            findings
                .iter()
                .any(|f| f.rule == AuditRule::PreConsentCollection),
            "pre-consent collection expected"
        );
        assert!(
            findings
                .iter()
                .any(|f| f.rule == AuditRule::PreConsentAtsSharing),
            "pre-consent ATS sharing expected"
        );
        assert!(
            findings.iter().any(|f| f.rule == AuditRule::MinorAtsSharing
                && f.trace == TraceCategory::Child
                && f.severity == Severity::Violation),
            "child ATS sharing violation expected"
        );
        assert!(
            findings
                .iter()
                .any(|f| f.rule == AuditRule::NoAgeDifferentiation),
            "age-similarity notice expected"
        );
    }

    #[test]
    fn youtube_is_clean_except_collection_notice() {
        let findings = audit("youtube");
        // YouTube collects logged-out (R1 fires) but shares nothing with
        // third parties and its policy discloses its first-party flows.
        assert!(findings
            .iter()
            .any(|f| f.rule == AuditRule::PreConsentCollection));
        for rule in [
            AuditRule::PreConsentAtsSharing,
            AuditRule::PreConsentThirdPartySharing,
            AuditRule::MinorAtsSharing,
            AuditRule::MinorLinkableSharing,
            AuditRule::UndisclosedFlow,
        ] {
            assert!(
                !findings.iter().any(|f| f.rule == rule),
                "YouTube should not trigger {rule:?}: {:#?}",
                findings
                    .iter()
                    .map(AuditFinding::render)
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn duolingo_policy_inconsistency_detected() {
        // Duolingo's policy says no third-party tracking under 16, yet the
        // child trace shares with third-party ATS: R5 must fire for child.
        let findings = audit("duolingo");
        assert!(
            findings
                .iter()
                .any(|f| f.rule == AuditRule::UndisclosedFlow && f.trace == TraceCategory::Child),
            "undisclosed child flows expected: {:#?}",
            findings
                .iter()
                .map(AuditFinding::render)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn findings_render_with_citations() {
        let findings = audit("tiktok");
        for finding in findings {
            let line = finding.render();
            assert!(line.contains(finding.rule.id()));
            assert!(line.contains('§'), "citation missing in {line}");
        }
    }
}
