//! Machine-readable exports: audit outcomes as JSON and Markdown.
//!
//! The paper envisions DiffAudit as a tool "used by researchers and
//! regulators"; both audiences want artifacts they can archive and diff.
//! The JSON export is a stable, self-describing document; the Markdown
//! export is a human-readable audit report.

use crate::audit::AuditFinding;
use crate::diff::{ObservedGrid, PlatformDiff};
use crate::linkability;
use crate::pipeline::{AuditOutcome, ObservedService};
use diffaudit_json::Json;
use diffaudit_ontology::Level2;
use diffaudit_services::{FlowAction, TraceCategory};

/// Serialize one service's observation (flows per trace, grid, linkability)
/// to JSON.
pub fn service_to_json(service: &ObservedService) -> Json {
    let grid = ObservedGrid::build(service);
    let mut traces = Json::obj();
    for category in TraceCategory::ALL {
        let flows = service.flows(category);
        let flow_list: Vec<Json> = flows
            .iter()
            .map(|f| {
                Json::obj()
                    .with("category", Json::str(f.category.label()))
                    .with("group", Json::str(f.group().label()))
                    .with("fqdn", Json::str(f.fqdn.clone()))
                    .with("esld", Json::str(f.esld.clone()))
                    .with("destinationClass", Json::str(f.class.label()))
            })
            .collect();
        let mut grid_json = Json::obj();
        for group in Level2::TABLE4_ROWS {
            let mut row = Json::obj();
            for action in FlowAction::ALL {
                row.set(
                    action.label(),
                    Json::str(grid.presence(category, group, action).symbol()),
                );
            }
            grid_json.set(group.label(), row);
        }
        traces.set(
            category.label(),
            Json::obj()
                .with("flowCount", Json::int(flows.len() as i64))
                .with("flows", Json::Arr(flow_list))
                .with("grid", grid_json)
                .with(
                    "linkableThirdParties",
                    Json::int(linkability::linkable_third_party_count(service, category) as i64),
                )
                .with(
                    "largestLinkableSet",
                    Json::int(linkability::largest_linkable_set(service, category).0 as i64),
                ),
        );
    }
    Json::obj()
        .with("name", Json::str(service.name.clone()))
        .with("slug", Json::str(service.slug.clone()))
        .with("traces", traces)
}

/// Serialize audit findings to JSON.
pub fn findings_to_json(findings: &[AuditFinding]) -> Json {
    Json::Arr(
        findings
            .iter()
            .map(|f| {
                Json::obj()
                    .with("rule", Json::str(f.rule.id()))
                    .with("severity", Json::str(f.severity.label()))
                    .with("service", Json::str(f.service.clone()))
                    .with("trace", Json::str(f.trace.label()))
                    .with("description", Json::str(f.description.clone()))
                    .with("citation", Json::str(f.rule.citation()))
            })
            .collect(),
    )
}

/// Full outcome export: one JSON document for the whole audit.
pub fn outcome_to_json(outcome: &AuditOutcome, findings: &[AuditFinding]) -> Json {
    Json::obj()
        .with("tool", Json::str("diffaudit"))
        .with("version", Json::str(env!("CARGO_PKG_VERSION")))
        .with(
            "services",
            Json::Arr(outcome.services.iter().map(service_to_json).collect()),
        )
        .with("findings", findings_to_json(findings))
        .with("uniqueRawKeys", Json::int(outcome.unique_raw_keys as i64))
}

/// [`outcome_to_json`] plus the salvage degradation ledger. A clean ledger
/// adds nothing — the document stays byte-identical to the plain export, so
/// undamaged runs are unaffected by salvage mode.
pub fn outcome_to_json_with_ledger(
    outcome: &AuditOutcome,
    findings: &[AuditFinding],
    ledger: &crate::salvage::DegradationLedger,
) -> Json {
    let mut doc = outcome_to_json(outcome, findings);
    if !ledger.is_clean() {
        doc.set("degradation", ledger.to_json());
    }
    doc
}

/// Render a human-readable Markdown audit report for one service.
pub fn service_to_markdown(service: &ObservedService, findings: &[AuditFinding]) -> String {
    let grid = ObservedGrid::build(service);
    let mut out = String::new();
    out.push_str(&format!("# DiffAudit report — {}\n\n", service.name));

    out.push_str("## Data flows by trace category\n\n");
    out.push_str("Symbols: ● both platforms · □ web only · ▪ mobile only · – absent\n\n");
    for category in TraceCategory::ALL {
        out.push_str(&format!("### {}\n\n", category.label()));
        out.push_str("| Data group | 1st Party | 1st Party ATS | 3rd Party | 3rd Party ATS |\n");
        out.push_str("|---|---|---|---|---|\n");
        for group in Level2::TABLE4_ROWS {
            let cells: Vec<&str> = FlowAction::ALL
                .iter()
                .map(|&a| grid.presence(category, group, a).symbol())
                .collect();
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} |\n",
                group.label(),
                cells[0],
                cells[1],
                cells[2],
                cells[3]
            ));
        }
        out.push('\n');
    }

    out.push_str("## Platform differences\n\n");
    let diff = PlatformDiff::build(&grid);
    out.push_str(&format!(
        "- mobile-only flows: {} (all third-party: {})\n- web-only flows: {}\n\n",
        diff.mobile_only.len(),
        diff.mobile_only_all_third_party(),
        diff.web_only.len()
    ));

    out.push_str("## Linkability\n\n");
    out.push_str("| Trace | Linkable third parties | Largest linkable set |\n|---|---|---|\n");
    for category in TraceCategory::ALL {
        out.push_str(&format!(
            "| {} | {} | {} |\n",
            category.label(),
            linkability::linkable_third_party_count(service, category),
            linkability::largest_linkable_set(service, category).0
        ));
    }
    out.push('\n');

    out.push_str("## Findings\n\n");
    if findings.is_empty() {
        out.push_str("No findings.\n");
    } else {
        for finding in findings {
            out.push_str(&format!(
                "- **{}** [{}] ({}): {} — _{}_\n",
                finding.severity.label(),
                finding.rule.id(),
                finding.trace,
                finding.description,
                finding.rule.citation()
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::audit_service;
    use crate::pipeline::{ClassificationMode, Pipeline};
    use diffaudit_json::parse;
    use diffaudit_services::{generate_dataset, service_by_slug, DatasetOptions};

    fn outcome() -> AuditOutcome {
        let dataset = generate_dataset(&DatasetOptions {
            seed: 1,
            volume_scale: 0.03,
            mobile_pinned_fraction: 0.1,
            services: vec!["tiktok".into()],
        });
        Pipeline::new(ClassificationMode::Oracle(dataset.key_truth.clone())).run(&dataset)
    }

    #[test]
    fn json_export_is_valid_and_complete() {
        let o = outcome();
        let spec = service_by_slug("tiktok").unwrap();
        let findings = audit_service(&o.services[0], &spec);
        let doc = outcome_to_json(&o, &findings);
        // Must survive a parse round trip.
        let text = doc.to_pretty_string();
        let back = parse(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(
            back.pointer("/services/0/slug").and_then(Json::as_str),
            Some("tiktok")
        );
        assert!(
            back.pointer("/services/0/traces/Child/flowCount")
                .and_then(Json::as_i64)
                .unwrap()
                > 0
        );
        assert!(!back
            .pointer("/findings")
            .unwrap()
            .as_arr()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn markdown_report_has_all_sections() {
        let o = outcome();
        let spec = service_by_slug("tiktok").unwrap();
        let findings = audit_service(&o.services[0], &spec);
        let md = service_to_markdown(&o.services[0], &findings);
        for section in [
            "# DiffAudit report — TikTok",
            "## Data flows by trace category",
            "### Child",
            "### Logged Out",
            "## Platform differences",
            "## Linkability",
            "## Findings",
        ] {
            assert!(md.contains(section), "missing {section:?}");
        }
        assert!(md.contains("VIOLATION"));
    }
}
