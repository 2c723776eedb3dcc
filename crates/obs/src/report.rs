//! End-of-run pipeline report: a human-readable digest of one
//! [`MetricsSnapshot`] — stage timing table, counters, and salvage summary.

use crate::metrics::MetricsSnapshot;
use diffaudit_util::fmt::{format_bytes, format_duration_us};

/// Counter-name prefix under which the CLI mirrors the salvage ledger
/// (`salvage.<stage>.processed` / `salvage.<stage>.dropped`).
pub const SALVAGE_PREFIX: &str = "salvage.";

/// Render one histogram value in the unit its name declares: a `.bytes`
/// suffix formats a byte size, `.us` a duration, anything else a plain
/// count. A label suffix (`name{k="v"}`) is ignored when matching.
pub fn format_histogram_value(name: &str, value: u64) -> String {
    let base = name.split_once('{').map_or(name, |(base, _)| base);
    if base.ends_with(".bytes") {
        format_bytes(value)
    } else if base.ends_with(".us") {
        format_duration_us(value)
    } else {
        value.to_string()
    }
}

/// Bytes per second over `dur_us`, or `-` when there is nothing to divide.
fn format_throughput(bytes: u64, dur_us: u64) -> String {
    if bytes == 0 || dur_us == 0 {
        return "-".to_string();
    }
    let rate = bytes as f64 / (dur_us as f64 / 1_000_000.0);
    format!("{}/s", format_bytes(rate as u64))
}

/// Render the pipeline run report.
///
/// Sections: a span timing table (name, calls, total, max, and for a span
/// `S` with a `S.bytes.in` counter the bytes and bytes ÷ total time), the
/// counter list (salvage counters folded into their own processed/dropped table),
/// and histogram one-liners. Byte-valued histograms (`*.bytes`) render
/// with binary-unit formatting.
pub fn render_run_report(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    out.push_str("== pipeline run report ==\n");
    out.push_str(&format!(
        "total wall time: {}\n",
        format_duration_us(snapshot.uptime_us)
    ));

    let spans: Vec<_> = snapshot.metrics.spans().collect();
    if !spans.is_empty() {
        out.push_str("\nstage timing:\n");
        let name_w = spans
            .iter()
            .map(|(n, _)| n.len())
            .max()
            .unwrap_or(0)
            .max("stage".len());
        out.push_str(&format!(
            "  {:<name_w$}  {:>6}  {:>10}  {:>10}  {:>10}  {:>12}\n",
            "stage", "calls", "total", "max", "bytes in", "throughput"
        ));
        for (name, stats) in &spans {
            let bytes = snapshot.metrics.counter(&format!("{name}.bytes.in"));
            let bytes_in = match bytes {
                0 => "-".to_string(),
                n => format_bytes(n),
            };
            out.push_str(&format!(
                "  {:<name_w$}  {:>6}  {:>10}  {:>10}  {:>10}  {:>12}\n",
                name,
                stats.count,
                format_duration_us(stats.total_us),
                format_duration_us(stats.max_us),
                bytes_in,
                format_throughput(bytes, stats.total_us),
            ));
        }
    }

    let (salvage, plain): (Vec<_>, Vec<_>) = snapshot
        .metrics
        .counters()
        .partition(|(name, _)| name.starts_with(SALVAGE_PREFIX));

    if !plain.is_empty() {
        out.push_str("\ncounters:\n");
        let name_w = plain.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, value) in &plain {
            out.push_str(&format!("  {name:<name_w$}  {value}\n"));
        }
    }

    if !salvage.is_empty() {
        out.push_str(&render_salvage_table(&salvage));
    }

    let histograms: Vec<_> = snapshot.metrics.histograms().collect();
    if !histograms.is_empty() {
        out.push_str("\ndistributions:\n");
        for (name, h) in &histograms {
            let fmt_value = |v: u64| format_histogram_value(name, v);
            let quantile = |q: f64| {
                h.quantile(q)
                    .map_or_else(|| "-".to_string(), |v| fmt_value(v.round() as u64))
            };
            out.push_str(&format!(
                "  {name}: n={} sum={} min={} max={} p50={} p90={} p99={}\n",
                h.count(),
                fmt_value(h.sum()),
                h.min().map_or_else(|| "-".to_string(), fmt_value),
                h.max().map_or_else(|| "-".to_string(), fmt_value),
                quantile(0.5),
                quantile(0.9),
                quantile(0.99),
            ));
        }
    }
    out
}

/// Fold `salvage.<stage>.processed` / `.dropped` counters into a per-stage
/// table mirroring the degradation ledger.
fn render_salvage_table(salvage: &[(&str, u64)]) -> String {
    // Collect stage -> (processed, dropped), preserving sorted counter order.
    let mut stages: Vec<(String, u64, u64)> = Vec::new();
    for (name, value) in salvage {
        let rest = name.strip_prefix(SALVAGE_PREFIX).unwrap_or(name);
        let (stage, kind) = match rest.rsplit_once('.') {
            Some(split) => split,
            None => (rest, ""),
        };
        let entry = match stages.iter_mut().find(|(s, _, _)| s == stage) {
            Some(entry) => entry,
            None => {
                stages.push((stage.to_string(), 0, 0));
                match stages.last_mut() {
                    Some(entry) => entry,
                    None => continue,
                }
            }
        };
        match kind {
            "processed" => entry.1 = *value,
            "dropped" => entry.2 = *value,
            _ => {}
        }
    }
    let mut out = String::new();
    out.push_str("\nsalvage summary:\n");
    let name_w = stages
        .iter()
        .map(|(s, _, _)| s.len())
        .max()
        .unwrap_or(0)
        .max("stage".len());
    out.push_str(&format!(
        "  {:<name_w$}  {:>10}  {:>8}\n",
        "stage", "processed", "dropped"
    ));
    for (stage, processed, dropped) in &stages {
        out.push_str(&format!(
            "  {stage:<name_w$}  {processed:>10}  {dropped:>8}\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Metrics, BYTE_BOUNDS};

    fn snapshot() -> MetricsSnapshot {
        let mut m = Metrics::new();
        m.span_done("pipeline", 5_000_000);
        m.span_done("pipeline.classify", 1_200_000);
        m.add("pipeline.classify.bytes.in", 3 * 1024 * 1024);
        m.add("pipeline.units", 14);
        m.add("salvage.pcap-record.processed", 120);
        m.add("salvage.pcap-record.dropped", 3);
        m.observe("artifact.bytes", &BYTE_BOUNDS, 2_048);
        MetricsSnapshot::new(m, 5_100_000)
    }

    #[test]
    fn report_has_all_sections() {
        let text = render_run_report(&snapshot());
        assert!(text.contains("pipeline run report"));
        assert!(text.contains("stage timing:"));
        assert!(text.contains("pipeline.classify"));
        // A span with a `.bytes.in` counter shows its bytes and throughput
        // (3 MiB over 1.2 s); one without shows dashes.
        assert!(text.contains("bytes in") && text.contains("throughput"));
        assert!(
            text.contains("3.00MiB") && text.contains("2.50MiB/s"),
            "{text}"
        );
        assert!(text.contains("counters:"));
        assert!(text.contains("pipeline.units"));
        assert!(text.contains("salvage summary:"));
        assert!(text.contains("pcap-record"));
        assert!(text.contains("120"));
        assert!(text.contains("distributions:"));
        assert!(text.contains("artifact.bytes"));
        // Byte histogram renders with units and bucket-derived percentiles.
        assert!(text.contains("KiB"), "expected KiB in:\n{text}");
        assert!(text.contains("p50="), "expected percentiles in:\n{text}");
        assert!(text.contains("p99="), "expected percentiles in:\n{text}");
    }

    #[test]
    fn empty_snapshot_renders_header_only() {
        let snap = MetricsSnapshot::new(Metrics::new(), 10);
        let text = render_run_report(&snap);
        assert!(text.contains("pipeline run report"));
        assert!(!text.contains("stage timing:"));
        assert!(!text.contains("salvage summary:"));
    }
}
