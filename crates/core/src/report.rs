//! Report rendering: the paper's tables and figures as text.

use crate::audit::AuditFinding;
use crate::diff::ObservedGrid;
use crate::linkability;
use crate::pipeline::{AuditOutcome, ObservedService};
use crate::salvage::{DegradationLedger, RunStatus};
use crate::stats::DatasetSummary;
use diffaudit_ontology::Level2;
use diffaudit_services::{FlowAction, TraceCategory};

/// Render a Table 1-style dataset summary.
pub fn render_table1(summary: &DatasetSummary) -> String {
    let mut out = String::new();
    out.push_str("Table 1: Network Traffic Dataset Summary\n");
    out.push_str(&format!(
        "{:<12} {:>8} {:>7} {:>9} {:>10}\n",
        "Service", "Domains", "eSLDs", "Packets", "TCP Flows"
    ));
    for s in &summary.services {
        out.push_str(&format!(
            "{:<12} {:>8} {:>7} {:>9} {:>10}\n",
            s.name, s.domains, s.eslds, s.packets, s.tcp_flows
        ));
    }
    out.push_str(&format!(
        "{:<12} {:>8} {:>7} {:>9} {:>10}\n",
        "Total",
        summary.total_domains,
        summary.total_eslds,
        summary.total_packets,
        summary.total_tcp_flows
    ));
    out.push_str(&format!(
        "\nUnique data types: {}   Unique data flows: {}\n",
        summary.unique_data_types, summary.unique_data_flows
    ));
    out
}

/// Render a Table 4-style grid for one service.
///
/// Each cell prints the platform symbol: `●` both, `□` web only, `▪` mobile
/// only, `–` absent; columns are collect-1st / collect-1st-ATS / share-3rd /
/// share-3rd-ATS per trace category.
pub fn render_table4(service: &ObservedService, grid: &ObservedGrid) -> String {
    let mut out = String::new();
    out.push_str(&format!("Table 4 — {}\n", service.name));
    out.push_str(&format!("{:<30}", "Data Type"));
    for category in TraceCategory::ALL {
        out.push_str(&format!("{:<14}", category.label()));
    }
    out.push('\n');
    out.push_str(&format!("{:<30}", ""));
    for _ in TraceCategory::ALL {
        out.push_str(&format!("{:<14}", "1st 1A 3rd 3A"));
    }
    out.push('\n');
    for group in Level2::TABLE4_ROWS {
        out.push_str(&format!("{:<30}", group.label()));
        for category in TraceCategory::ALL {
            let symbols: Vec<&str> = FlowAction::ALL
                .iter()
                .map(|&action| grid.presence(category, group, action).symbol())
                .collect();
            out.push_str(&format!("{:<14}", symbols.join("   ")));
        }
        out.push('\n');
    }
    out
}

/// Render the Figure 3 data series: linkable third-party counts per trace.
pub fn render_fig3(outcome: &AuditOutcome) -> String {
    let mut out = String::new();
    out.push_str("Figure 3: Third Parties Sent Linkable Data Types\n");
    out.push_str(&format!(
        "{:<12} {:>8} {:>12} {:>8} {:>12}\n",
        "Service", "Child", "Adolescent", "Adult", "Logged Out"
    ));
    for service in &outcome.services {
        let counts: Vec<usize> = TraceCategory::ALL
            .iter()
            .map(|&c| linkability::linkable_third_party_count(service, c))
            .collect();
        out.push_str(&format!(
            "{:<12} {:>8} {:>12} {:>8} {:>12}\n",
            service.name, counts[0], counts[1], counts[2], counts[3]
        ));
    }
    out
}

/// Render the Figure 4 data series: largest linkable-set sizes per trace.
pub fn render_fig4(outcome: &AuditOutcome) -> String {
    let mut out = String::new();
    out.push_str("Figure 4: Sizes of Largest Sets of Linkable Data Types\n");
    out.push_str(&format!(
        "{:<12} {:>8} {:>12} {:>8} {:>12}\n",
        "Service", "Child", "Adolescent", "Adult", "Logged Out"
    ));
    for service in &outcome.services {
        let sizes: Vec<usize> = TraceCategory::ALL
            .iter()
            .map(|&c| linkability::largest_linkable_set(service, c).0)
            .collect();
        out.push_str(&format!(
            "{:<12} {:>8} {:>12} {:>8} {:>12}\n",
            service.name, sizes[0], sizes[1], sizes[2], sizes[3]
        ));
    }
    if let Some((set, count)) = linkability::most_common_linkable_set(outcome) {
        let labels: Vec<&str> = set.iter().map(|c| c.label()).collect();
        out.push_str(&format!(
            "\nMost common linkable set ({} occurrences, {} types): {}\n",
            count,
            set.len(),
            labels.join(", ")
        ));
    }
    out
}

/// Render the Figure 5 data: top ATS organizations per service/trace.
pub fn render_fig5(outcome: &AuditOutcome, top_n: usize) -> String {
    let mut out = String::new();
    out.push_str("Figure 5: Most Frequent Third-Party ATS Organizations Sent Linkable Data\n");
    for service in &outcome.services {
        for category in TraceCategory::ALL {
            let ranked = linkability::top_linkable_ats_orgs(service, category, top_n);
            if ranked.is_empty() {
                continue;
            }
            out.push_str(&format!("\n{} / {}:\n", service.name, category));
            for (org, count) in ranked {
                out.push_str(&format!("  {count:>6}  {org}\n"));
            }
        }
    }
    out
}

/// Render the salvage degradation ledger: per-stage processed/dropped
/// tallies plus every drop with its stage and location. A clean ledger
/// renders as a one-line notice.
pub fn render_degradation(ledger: &DegradationLedger) -> String {
    let merged = ledger.merged();
    let mut out = String::new();
    out.push_str("Degradation ledger\n");
    if merged.is_clean() {
        out.push_str(&format!(
            "clean run: {} records processed, 0 dropped\n",
            merged.total_processed()
        ));
        return out;
    }
    out.push_str(&format!(
        "{:<16} {:>10} {:>8}\n",
        "Stage", "Processed", "Dropped"
    ));
    for (stage, counts) in merged.stages() {
        if counts.total() == 0 {
            continue;
        }
        out.push_str(&format!(
            "{:<16} {:>10} {:>8}\n",
            stage.label(),
            counts.processed,
            counts.dropped
        ));
    }
    out.push_str(&format!(
        "{:<16} {:>10} {:>8}   ({:.2}% dropped)\n",
        "Total",
        merged.total_processed(),
        merged.total_dropped(),
        merged.drop_fraction() * 100.0
    ));
    for service in &ledger.services {
        for unit in &service.units {
            for drop in unit.log.drops() {
                let at = drop.offset.map(|o| format!(" @{o}")).unwrap_or_default();
                out.push_str(&format!(
                    "  {}/{} [{}{}]: {}\n",
                    service.slug,
                    unit.file,
                    drop.stage.label(),
                    at,
                    drop.reason
                ));
            }
        }
    }
    out
}

/// Render an audit findings report.
pub fn render_findings(findings: &[AuditFinding]) -> String {
    if findings.is_empty() {
        return "No findings.\n".to_string();
    }
    let mut sorted: Vec<&AuditFinding> = findings.iter().collect();
    sorted.sort_by(|a, b| b.severity.cmp(&a.severity).then(a.service.cmp(&b.service)));
    let mut out = String::new();
    for finding in sorted {
        out.push_str(&finding.render());
        out.push('\n');
    }
    out
}

/// The text report of an audit run, printed by the batch CLI and served as
/// a daemon job's run report: every service's Table 4 grid, Figure 3 and
/// the findings, plus the degradation ledger unless the run was clean.
pub fn render_text_report(
    outcome: &AuditOutcome,
    findings: &[AuditFinding],
    ledger: &DegradationLedger,
    status: RunStatus,
) -> String {
    let mut text = String::new();
    for service in &outcome.services {
        let grid = ObservedGrid::build(service);
        text.push_str(&render_table4(service, &grid));
        text.push('\n');
    }
    text.push_str(&render_fig3(outcome));
    text.push('\n');
    text.push_str("Findings:\n");
    text.push_str(&render_findings(findings));
    if status != RunStatus::Clean {
        text.push('\n');
        text.push_str(&render_degradation(ledger));
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::audit_service;
    use crate::pipeline::{ClassificationMode, Pipeline};
    use crate::stats::summarize;
    use diffaudit_services::{generate_dataset, service_by_slug, DatasetOptions};

    fn outcome() -> AuditOutcome {
        let dataset = generate_dataset(&DatasetOptions {
            seed: 9,
            volume_scale: 0.04,
            mobile_pinned_fraction: 0.1,
            services: vec!["tiktok".into()],
        });
        Pipeline::new(ClassificationMode::Oracle(dataset.key_truth.clone())).run(&dataset)
    }

    #[test]
    fn table1_renders() {
        let o = outcome();
        let text = render_table1(&summarize(&o));
        assert!(text.contains("TikTok"));
        assert!(text.contains("Total"));
        assert!(text.contains("Unique data types"));
    }

    #[test]
    fn table4_renders_symbols() {
        let o = outcome();
        let grid = ObservedGrid::build(&o.services[0]);
        let text = render_table4(&o.services[0], &grid);
        assert!(text.contains("Personal Identifiers"));
        assert!(text.contains('●'));
        assert!(text.contains('–'));
        assert!(text.contains("Logged Out"));
    }

    #[test]
    fn figures_render() {
        let o = outcome();
        assert!(render_fig3(&o).contains("TikTok"));
        assert!(render_fig4(&o).contains("Most common linkable set"));
        assert!(render_fig5(&o, 10).contains("TikTok"));
    }

    #[test]
    fn degradation_ledger_renders_tallies_and_drops() {
        use crate::salvage::{DegradationLedger, ServiceLedger, UnitLedger};
        use diffaudit_nettrace::salvage::{SalvageLog, Stage};

        let clean = DegradationLedger::new();
        assert!(render_degradation(&clean).contains("clean run"));

        let mut log = SalvageLog::new();
        log.ok_n(Stage::PcapRecord, 9);
        log.dropped(Stage::PcapRecord, "truncated record", Some(144));
        let ledger = DegradationLedger {
            services: vec![ServiceLedger {
                slug: "tiktok".into(),
                units: vec![UnitLedger {
                    file: "mobile-child-logged-in.pcap".into(),
                    log,
                }],
            }],
        };
        let text = render_degradation(&ledger);
        assert!(text.contains("pcap-record"), "{text}");
        assert!(text.contains("(10.00% dropped)"), "{text}");
        assert!(
            text.contains(
                "tiktok/mobile-child-logged-in.pcap [pcap-record @144]: truncated record"
            ),
            "{text}"
        );
    }

    #[test]
    fn findings_render_sorted_by_severity() {
        let o = outcome();
        let findings = audit_service(&o.services[0], &service_by_slug("tiktok").unwrap());
        let text = render_findings(&findings);
        let first_violation = text.find("VIOLATION");
        let first_notice = text.find("NOTICE");
        if let (Some(v), Some(n)) = (first_violation, first_notice) {
            assert!(v < n, "violations must sort first");
        }
        assert!(render_findings(&[]).contains("No findings"));
    }
}
