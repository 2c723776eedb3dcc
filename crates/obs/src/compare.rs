//! Diffing two `diffaudit-obs/v1` [`MetricsSnapshot`]s into a thresholded
//! perf-regression verdict.
//!
//! Both sides are read with [`parse_snapshot`], the reader of the one
//! document model in [`crate::metrics`]; `obs top` and the serve bench
//! read the daemon's `GET /api/v1/metrics` answer through it as well.
//!
//! [`parse_snapshot`]: crate::metrics::parse_snapshot
//!
//! The comparison has four parts:
//!
//! - **counter deltas** — absolute and relative change for the union of
//!   counter names, with *conservation checks* (every histogram's bucket
//!   counts must sum to its `count`; documents failing that are corrupt
//!   and flip the verdict);
//! - **histogram shifts** — bucket-derived p50/p90/p99 estimates
//!   ([`Histogram::quantile`]) side by side, skipped when the two documents
//!   disagree on bucket bounds (incomparable);
//! - **wall-time deltas per stage** — span totals plus overall uptime;
//! - **verdict** — `ok` / `regressed`. A stage regresses when its wall
//!   time grows past the configured relative threshold *and* past an
//!   absolute noise floor (so a 40 µs stage doubling on a noisy machine
//!   does not fail CI). Without a threshold the timing comparison is
//!   informational only; conservation violations always regress.

use crate::metrics::{Histogram, Metrics, MetricsSnapshot};
use crate::report::format_histogram_value;
use diffaudit_util::fmt::{format_bytes, format_bytes_signed, format_duration_us};

/// Comparison thresholds.
#[derive(Debug, Clone)]
pub struct DiffOptions {
    /// Relative change (as a fraction, e.g. `0.5` = +50%) past which a
    /// stage's wall-time growth counts as a regression. `None` disables
    /// the timing gate (informational diff).
    pub fail_over: Option<f64>,
    /// Absolute growth (µs) a stage must also exceed to regress —
    /// the noise floor that keeps micro-stages from flapping.
    pub noise_floor_us: u64,
    /// Relative peak-RSS growth (fraction) past which a resource row
    /// counts as a regression. `None` disables the RSS gate.
    pub fail_rss_over: Option<f64>,
    /// Relative change below which a delta renders as stable (`~`).
    pub display_tolerance: f64,
}

/// Absolute peak-RSS growth a row must exceed (on top of the relative
/// threshold) before it regresses: one allocator arena / page-cache
/// wobble. Keeps tiny-footprint stages from flapping the gate.
pub const RSS_NOISE_FLOOR_BYTES: u64 = 4 * 1024 * 1024;

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            fail_over: None,
            noise_floor_us: 20_000,
            fail_rss_over: None,
            display_tolerance: 0.02,
        }
    }
}

/// The comparison outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No gated metric exceeded its threshold.
    Ok,
    /// At least one gated metric regressed (or a document is corrupt).
    Regressed,
}

impl Verdict {
    /// Stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
        }
    }
}

/// One wall-time comparison row (a span stage, or overall uptime).
#[derive(Debug, Clone)]
pub struct StageDelta {
    /// Stage name (`uptime` for the run total).
    pub name: String,
    /// Baseline total, microseconds.
    pub base_us: u64,
    /// Current total, microseconds.
    pub current_us: u64,
    /// `current - base` (signed).
    pub delta_us: i64,
    /// Relative change, `delta / base` (`base == 0` ⇒ `inf` when grown).
    pub rel: f64,
    /// Whether this row tripped the regression gate.
    pub regressed: bool,
}

/// One peak-RSS comparison row.
#[derive(Debug, Clone)]
pub struct ResourceDelta {
    /// Resource entry name (a stage span, or `process` for the whole run).
    pub name: String,
    /// Baseline peak RSS, bytes.
    pub base_peak: u64,
    /// Current peak RSS, bytes.
    pub current_peak: u64,
    /// `current - base` (signed).
    pub delta: i64,
    /// Relative change, `delta / base` (`base == 0` ⇒ `inf` when grown).
    pub rel: f64,
    /// Whether this row tripped the RSS gate.
    pub regressed: bool,
}

/// One counter comparison row.
#[derive(Debug, Clone)]
pub struct CounterDelta {
    /// Counter name.
    pub name: String,
    /// Baseline value.
    pub base: u64,
    /// Current value.
    pub current: u64,
    /// `current - base` (signed).
    pub delta: i64,
}

/// One histogram comparison row: p50/p90/p99 shift.
#[derive(Debug, Clone)]
pub struct HistogramShift {
    /// Histogram name.
    pub name: String,
    /// Baseline `[p50, p90, p99]` estimates (`None` when empty).
    pub base_p: [Option<f64>; 3],
    /// Current `[p50, p90, p99]` estimates.
    pub current_p: [Option<f64>; 3],
    /// `false` when bucket bounds differ between the documents, making
    /// the percentile comparison meaningless.
    pub comparable: bool,
}

/// The full diff: rows, conservation findings, and the verdict.
#[derive(Debug, Clone)]
pub struct MetricsDiff {
    /// Overall run wall time row.
    pub uptime: StageDelta,
    /// Per-stage wall time rows (union of span names, sorted).
    pub stages: Vec<StageDelta>,
    /// Peak-RSS rows (union of resource entry names, sorted; empty when
    /// neither document carries resources).
    pub resources: Vec<ResourceDelta>,
    /// Counter rows (union of names, sorted).
    pub counters: Vec<CounterDelta>,
    /// Histogram percentile shifts (union of names, sorted).
    pub histograms: Vec<HistogramShift>,
    /// Conservation violations found in either document.
    pub violations: Vec<String>,
    /// Names of the rows that tripped the gate.
    pub regressions: Vec<String>,
    /// The verdict.
    pub verdict: Verdict,
}

fn stage_delta(name: &str, base_us: u64, current_us: u64, options: &DiffOptions) -> StageDelta {
    let delta_us = current_us as i64 - base_us as i64;
    let rel = if base_us > 0 {
        delta_us as f64 / base_us as f64
    } else if current_us > 0 {
        f64::INFINITY
    } else {
        0.0
    };
    let regressed = match options.fail_over {
        Some(threshold) => rel > threshold && delta_us > options.noise_floor_us as i64,
        None => false,
    };
    StageDelta {
        name: name.to_string(),
        base_us,
        current_us,
        delta_us,
        rel,
        regressed,
    }
}

/// The sorted, deduplicated union of two name lists.
fn union<'a>(a: impl Iterator<Item = &'a str>, b: impl Iterator<Item = &'a str>) -> Vec<&'a str> {
    let mut names: Vec<&str> = a.chain(b).collect();
    names.sort_unstable();
    names.dedup();
    names
}

/// Compare two snapshots under the given thresholds.
pub fn diff_snapshots(
    base: &MetricsSnapshot,
    current: &MetricsSnapshot,
    options: &DiffOptions,
) -> MetricsDiff {
    let (base_m, current_m) = (&base.metrics, &current.metrics);
    let mut violations = Vec::new();
    for (tag, doc) in [("baseline", base_m), ("current", current_m)] {
        for (name, h) in doc.histograms() {
            let bucket_total: u64 = h.buckets().map(|(_, n)| n).sum();
            if bucket_total != h.count() {
                violations.push(format!(
                    "{tag} histogram {name}: bucket counts sum to {bucket_total} but count is {}",
                    h.count()
                ));
            }
        }
    }

    let uptime = stage_delta("uptime", base.uptime_us, current.uptime_us, options);

    let stages: Vec<StageDelta> = union(
        base_m.spans().map(|(n, _)| n),
        current_m.spans().map(|(n, _)| n),
    )
    .into_iter()
    .map(|name| {
        let total = |m: &Metrics| m.span(name).map_or(0, |s| s.total_us);
        stage_delta(name, total(base_m), total(current_m), options)
    })
    .collect();

    let resources: Vec<ResourceDelta> = union(
        base.resources.keys().map(String::as_str),
        current.resources.keys().map(String::as_str),
    )
    .into_iter()
    .map(|name| {
        let (b, c) = (base.resources.get(name), current.resources.get(name));
        let base_peak = b.map_or(0, |r| r.peak_rss_bytes);
        let current_peak = c.map_or(0, |r| r.peak_rss_bytes);
        let delta = current_peak as i64 - base_peak as i64;
        let rel = if base_peak > 0 {
            delta as f64 / base_peak as f64
        } else if current_peak > 0 {
            f64::INFINITY
        } else {
            0.0
        };
        // Gate only rows present in BOTH documents: a baseline captured
        // without profiling (or a brand-new stage) carries no meaningful
        // peak to compare against.
        let both = b.is_some() && c.is_some();
        let regressed = match options.fail_rss_over {
            Some(threshold) => both && rel > threshold && delta > RSS_NOISE_FLOOR_BYTES as i64,
            None => false,
        };
        ResourceDelta {
            name: name.to_string(),
            base_peak,
            current_peak,
            delta,
            rel,
            regressed,
        }
    })
    .collect();

    let counters: Vec<CounterDelta> = union(
        base_m.counters().map(|(n, _)| n),
        current_m.counters().map(|(n, _)| n),
    )
    .into_iter()
    .map(|name| {
        let (b, c) = (base_m.counter(name), current_m.counter(name));
        CounterDelta {
            name: name.to_string(),
            base: b,
            current: c,
            delta: c as i64 - b as i64,
        }
    })
    .collect();

    let histograms: Vec<HistogramShift> = union(
        base_m.histograms().map(|(n, _)| n),
        current_m.histograms().map(|(n, _)| n),
    )
    .into_iter()
    .map(|name| {
        let (b, c) = (base_m.histogram(name), current_m.histogram(name));
        let comparable = match (b, c) {
            (Some(b), Some(c)) => b.bounds() == c.bounds(),
            _ => true, // one-sided: nothing to mismatch
        };
        let ps = |h: Option<&Histogram>| -> [Option<f64>; 3] {
            [0.5, 0.9, 0.99].map(|q| h.and_then(|h| h.quantile(q)))
        };
        HistogramShift {
            name: name.to_string(),
            base_p: ps(b),
            current_p: ps(c),
            comparable,
        }
    })
    .collect();

    let mut regressions: Vec<String> = std::iter::once(&uptime)
        .chain(stages.iter())
        .filter(|row| row.regressed)
        .map(|row| row.name.clone())
        .collect();
    regressions.extend(
        resources
            .iter()
            .filter(|row| row.regressed)
            .map(|row| format!("rss:{}", row.name)),
    );
    if !violations.is_empty() {
        regressions.push("conservation".to_string());
    }
    let verdict = if regressions.is_empty() {
        Verdict::Ok
    } else {
        Verdict::Regressed
    };
    MetricsDiff {
        uptime,
        stages,
        resources,
        counters,
        histograms,
        violations,
        regressions,
        verdict,
    }
}

fn format_rel(rel: f64, tolerance: f64) -> String {
    if rel.is_infinite() {
        "new".to_string()
    } else if rel.abs() < tolerance {
        "~".to_string()
    } else {
        format!("{:+.1}%", rel * 100.0)
    }
}

fn format_quantile(name: &str, q: Option<f64>) -> String {
    q.map_or_else(
        || "-".to_string(),
        |v| format_histogram_value(name, v.round() as u64),
    )
}

/// Render the diff as a text report.
pub fn render_diff(diff: &MetricsDiff, options: &DiffOptions) -> String {
    let tolerance = options.display_tolerance;
    let mut out = String::new();
    out.push_str("== metrics diff ==\n");
    match diff.verdict {
        Verdict::Ok => out.push_str("verdict: ok\n"),
        Verdict::Regressed => out.push_str(&format!(
            "verdict: regressed ({})\n",
            diff.regressions.join(", ")
        )),
    }
    if let Some(threshold) = options.fail_over {
        out.push_str(&format!(
            "gate: fail over +{:.0}% growth (noise floor {})\n",
            threshold * 100.0,
            format_duration_us(options.noise_floor_us)
        ));
    }
    out.push_str(&format!(
        "wall time: {} -> {}  ({})\n",
        format_duration_us(diff.uptime.base_us),
        format_duration_us(diff.uptime.current_us),
        format_rel(diff.uptime.rel, tolerance)
    ));

    if !diff.stages.is_empty() {
        out.push_str("\nstage wall time:\n");
        let name_w = diff
            .stages
            .iter()
            .map(|s| s.name.len())
            .max()
            .unwrap_or(0)
            .max("stage".len());
        out.push_str(&format!(
            "  {:<name_w$}  {:>10}  {:>10}  {:>8}  {:>4}\n",
            "stage", "base", "current", "rel", "gate"
        ));
        for stage in &diff.stages {
            out.push_str(&format!(
                "  {:<name_w$}  {:>10}  {:>10}  {:>8}  {:>4}\n",
                stage.name,
                format_duration_us(stage.base_us),
                format_duration_us(stage.current_us),
                format_rel(stage.rel, tolerance),
                if stage.regressed { "FAIL" } else { "" },
            ));
        }
    }

    if !diff.resources.is_empty() {
        out.push_str("\nresources (peak RSS):\n");
        if let Some(threshold) = options.fail_rss_over {
            out.push_str(&format!(
                "  gate: fail over +{:.0}% peak-RSS growth (noise floor {})\n",
                threshold * 100.0,
                format_bytes(RSS_NOISE_FLOOR_BYTES)
            ));
        }
        let name_w = diff
            .resources
            .iter()
            .map(|r| r.name.len())
            .max()
            .unwrap_or(0)
            .max("entry".len());
        out.push_str(&format!(
            "  {:<name_w$}  {:>10}  {:>10}  {:>10}  {:>8}  {:>4}\n",
            "entry", "base", "current", "delta", "rel", "gate"
        ));
        for row in &diff.resources {
            out.push_str(&format!(
                "  {:<name_w$}  {:>10}  {:>10}  {:>10}  {:>8}  {:>4}\n",
                row.name,
                format_bytes(row.base_peak),
                format_bytes(row.current_peak),
                format_bytes_signed(row.delta),
                format_rel(row.rel, tolerance),
                if row.regressed { "FAIL" } else { "" },
            ));
        }
    }

    let changed: Vec<&CounterDelta> = diff.counters.iter().filter(|c| c.delta != 0).collect();
    out.push_str(&format!(
        "\ncounters: {} compared, {} changed\n",
        diff.counters.len(),
        changed.len()
    ));
    for c in &changed {
        out.push_str(&format!(
            "  {}  {} -> {}  ({:+})\n",
            c.name, c.base, c.current, c.delta
        ));
    }

    if !diff.histograms.is_empty() {
        out.push_str("\nhistogram shifts (p50 / p90 / p99):\n");
        for h in &diff.histograms {
            if !h.comparable {
                out.push_str(&format!(
                    "  {}: bucket bounds differ — not comparable\n",
                    h.name
                ));
                continue;
            }
            out.push_str(&format!(
                "  {}: {} -> {} / {} -> {} / {} -> {}\n",
                h.name,
                format_quantile(&h.name, h.base_p[0]),
                format_quantile(&h.name, h.current_p[0]),
                format_quantile(&h.name, h.base_p[1]),
                format_quantile(&h.name, h.current_p[1]),
                format_quantile(&h.name, h.base_p[2]),
                format_quantile(&h.name, h.current_p[2]),
            ));
        }
    }

    if diff.violations.is_empty() {
        out.push_str(&format!(
            "\nconservation: ok ({} histograms checked)\n",
            diff.histograms.len()
        ));
    } else {
        out.push_str("\nconservation violations:\n");
        for v in &diff.violations {
            out.push_str(&format!("  {v}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{
        parse_snapshot, Gauge, SnapshotError, WindowKind, WindowStats, LATENCY_US_BOUNDS,
    };

    fn sample_snapshot(scale: u64) -> String {
        let mut m = Metrics::new();
        m.span_done("pipeline", 1_000_000 * scale);
        m.span_done("pipeline.classify", 600_000 * scale);
        m.add("pipeline.units", 14);
        for i in 0..50 {
            m.observe("span.us", &LATENCY_US_BOUNDS, (i + 1) * 1_000 * scale);
        }
        MetricsSnapshot::new(m, 1_100_000 * scale)
            .to_json()
            .to_pretty_string()
    }

    #[test]
    fn parse_rejects_non_snapshot_documents() {
        assert!(matches!(
            parse_snapshot("not json").unwrap_err(),
            SnapshotError::Json(_)
        ));
        assert!(matches!(
            parse_snapshot("{\"schema\":\"other/v9\"}").unwrap_err(),
            SnapshotError::Schema(Some(_))
        ));
        assert!(matches!(
            parse_snapshot("{}").unwrap_err(),
            SnapshotError::Schema(None)
        ));
        assert!(matches!(
            parse_snapshot("{\"schema\":\"diffaudit-obs/v1\"}").unwrap_err(),
            SnapshotError::Shape(_)
        ));
    }

    #[test]
    fn self_diff_is_all_zero_and_ok() {
        let doc = sample_snapshot(1);
        let snap = parse_snapshot(&doc).unwrap();
        let options = DiffOptions {
            fail_over: Some(0.5),
            ..DiffOptions::default()
        };
        let diff = diff_snapshots(&snap, &snap, &options);
        assert_eq!(diff.verdict, Verdict::Ok);
        assert_eq!(diff.uptime.delta_us, 0);
        assert!(diff.stages.iter().all(|s| s.delta_us == 0 && !s.regressed));
        assert!(diff.counters.iter().all(|c| c.delta == 0));
        assert!(diff.violations.is_empty());
        let text = render_diff(&diff, &options);
        assert!(text.contains("verdict: ok"));
        assert!(text.contains("0 changed"));
    }

    #[test]
    fn growth_past_threshold_regresses() {
        let base = parse_snapshot(&sample_snapshot(1)).unwrap();
        let slow = parse_snapshot(&sample_snapshot(3)).unwrap();
        let options = DiffOptions {
            fail_over: Some(0.5),
            ..DiffOptions::default()
        };
        let diff = diff_snapshots(&base, &slow, &options);
        assert_eq!(diff.verdict, Verdict::Regressed);
        assert!(diff.regressions.contains(&"uptime".to_string()));
        assert!(diff.regressions.contains(&"pipeline".to_string()));
        let text = render_diff(&diff, &options);
        assert!(text.contains("verdict: regressed"));
        assert!(text.contains("FAIL"));
        // The improvement direction is not a regression.
        let improved = diff_snapshots(&slow, &base, &options);
        assert_eq!(improved.verdict, Verdict::Ok);
    }

    #[test]
    fn no_threshold_means_informational_only() {
        let base = parse_snapshot(&sample_snapshot(1)).unwrap();
        let slow = parse_snapshot(&sample_snapshot(4)).unwrap();
        let diff = diff_snapshots(&base, &slow, &DiffOptions::default());
        assert_eq!(diff.verdict, Verdict::Ok);
        assert!(diff.uptime.delta_us > 0);
    }

    #[test]
    fn noise_floor_suppresses_tiny_regressions() {
        let mut m = Metrics::new();
        m.span_done("tiny", 10);
        let base = MetricsSnapshot::new(m.clone(), 100);
        let mut m2 = Metrics::new();
        m2.span_done("tiny", 40); // 4x but far below the noise floor
        let current = MetricsSnapshot::new(m2, 130);
        let base = parse_snapshot(&base.to_json().to_pretty_string()).unwrap();
        let current = parse_snapshot(&current.to_json().to_pretty_string()).unwrap();
        let options = DiffOptions {
            fail_over: Some(0.5),
            ..DiffOptions::default()
        };
        let diff = diff_snapshots(&base, &current, &options);
        assert_eq!(diff.verdict, Verdict::Ok, "{:?}", diff.regressions);
    }

    #[test]
    fn conservation_violation_flips_the_verdict() {
        let doc = sample_snapshot(1);
        let broken = doc.replacen("\"count\": 50", "\"count\": 49", 1);
        assert_ne!(doc, broken, "replacement must hit the histogram count");
        let base = parse_snapshot(&doc).unwrap();
        let current = parse_snapshot(&broken).unwrap();
        let diff = diff_snapshots(&base, &current, &DiffOptions::default());
        assert_eq!(diff.verdict, Verdict::Regressed);
        assert!(!diff.violations.is_empty());
        let text = render_diff(&diff, &DiffOptions::default());
        assert!(text.contains("conservation violations:"));
    }

    #[test]
    fn incomparable_buckets_are_flagged_not_compared() {
        let mut m = Metrics::new();
        m.observe("h", &[10, 100], 5);
        let a = MetricsSnapshot::new(m, 10);
        let mut m2 = Metrics::new();
        m2.observe("h", &[20, 200], 5);
        let b = MetricsSnapshot::new(m2, 10);
        let a = parse_snapshot(&a.to_json().to_pretty_string()).unwrap();
        let b = parse_snapshot(&b.to_json().to_pretty_string()).unwrap();
        let diff = diff_snapshots(&a, &b, &DiffOptions::default());
        assert!(diff.histograms.iter().any(|h| !h.comparable));
        let text = render_diff(&diff, &DiffOptions::default());
        assert!(text.contains("not comparable"));
    }

    fn resource_snapshot(peak: u64) -> MetricsSnapshot {
        let mut m = Metrics::new();
        m.span_done("pipeline.extract", 100_000);
        let stats = crate::ResStats {
            count: 1,
            peak_rss_bytes: peak,
            rss_delta_bytes: 1_000,
            cpu_us: 50_000,
        };
        let snap = MetricsSnapshot {
            resources: [("pipeline.extract".to_string(), stats)].into(),
            ..MetricsSnapshot::new(m, 120_000)
        };
        parse_snapshot(&snap.to_json().to_pretty_string()).unwrap()
    }

    #[test]
    fn resources_round_trip_through_the_snapshot_document() {
        let snap = resource_snapshot(64 * 1024 * 1024);
        let doc = snap.resources["pipeline.extract"];
        assert_eq!(doc.count, 1);
        assert_eq!(doc.peak_rss_bytes, 64 * 1024 * 1024);
        assert_eq!(doc.rss_delta_bytes, 1_000);
        assert_eq!(doc.cpu_us, 50_000);
        // Pre-profiling documents (no `resources` key) still parse.
        let old = parse_snapshot(&sample_snapshot(1)).unwrap();
        assert!(old.resources.is_empty());
    }

    #[test]
    fn rss_gate_fails_real_growth_and_passes_self_diff() {
        let base = resource_snapshot(64 * 1024 * 1024);
        let grown = resource_snapshot(128 * 1024 * 1024); // +100%, +64 MiB
        let options = DiffOptions {
            fail_rss_over: Some(0.5),
            ..DiffOptions::default()
        };
        let diff = diff_snapshots(&base, &grown, &options);
        assert_eq!(diff.verdict, Verdict::Regressed);
        assert!(diff
            .regressions
            .contains(&"rss:pipeline.extract".to_string()));
        let text = render_diff(&diff, &options);
        assert!(text.contains("resources (peak RSS):"));
        assert!(text.contains("peak-RSS growth"));
        assert!(text.contains("FAIL"));
        // Self-diff is clean, and shrinking is never a regression.
        assert_eq!(diff_snapshots(&base, &base, &options).verdict, Verdict::Ok);
        assert_eq!(diff_snapshots(&grown, &base, &options).verdict, Verdict::Ok);
    }

    #[test]
    fn rss_gate_tolerates_noise_and_missing_baselines() {
        // Growth above the relative threshold but under the 4 MiB absolute
        // floor must not flap the gate.
        let base = resource_snapshot(1024 * 1024);
        let wobble = resource_snapshot(3 * 1024 * 1024); // +200%, but +2 MiB
        let options = DiffOptions {
            fail_rss_over: Some(0.5),
            ..DiffOptions::default()
        };
        assert_eq!(
            diff_snapshots(&base, &wobble, &options).verdict,
            Verdict::Ok
        );
        // A baseline captured without profiling carries nothing to gate on:
        // informational rows only, verdict ok.
        let unprofiled = parse_snapshot(&sample_snapshot(1)).unwrap();
        let profiled = resource_snapshot(256 * 1024 * 1024);
        let diff = diff_snapshots(&unprofiled, &profiled, &options);
        assert_eq!(diff.verdict, Verdict::Ok, "{:?}", diff.regressions);
        assert!(!diff.resources.is_empty());
        // Without the flag the rows stay informational even for huge growth.
        let diff = diff_snapshots(
            &resource_snapshot(1024),
            &resource_snapshot(u32::MAX as u64),
            &DiffOptions::default(),
        );
        assert_eq!(diff.verdict, Verdict::Ok);
    }

    #[test]
    fn histogram_shifts_render_in_the_unit_the_name_declares() {
        let mut m = Metrics::new();
        for _ in 0..4 {
            m.observe(
                "capture.bytes",
                &crate::metrics::BYTE_BOUNDS,
                4 * 1024 * 1024,
            );
            m.observe("unit.exchanges", &crate::metrics::RECORD_BOUNDS, 150);
        }
        let doc = MetricsSnapshot::new(m, 10).to_json().to_pretty_string();
        let snap = parse_snapshot(&doc).unwrap();
        let text = render_diff(
            &diff_snapshots(&snap, &snap, &DiffOptions::default()),
            &DiffOptions::default(),
        );
        // Byte sizes render as sizes, counts as plain integers — neither
        // as a duration.
        assert!(
            text.contains(
                "\n  capture.bytes: 4.00MiB -> 4.00MiB / 4.00MiB -> 4.00MiB / 4.00MiB -> 4.00MiB\n"
            ),
            "{text}"
        );
        assert!(
            text.contains("\n  unit.exchanges: 150 -> 150 / 150 -> 150 / 150 -> 150\n"),
            "{text}"
        );
    }

    #[test]
    fn gauges_and_windows_round_trip_through_the_snapshot_document() {
        let mut depth = Gauge::new();
        depth.set(4);
        depth.sub(3);
        depth.add(1);
        let counter = WindowStats {
            kind: WindowKind::Counter,
            total: 9,
            rate_1m: 9.0 / 60.0,
            rate_5m: 9.0 / 300.0,
            quantiles: [None; 3],
        };
        let latency = WindowStats {
            kind: WindowKind::Histogram,
            total: 4,
            rate_1m: 4.0 / 60.0,
            rate_5m: 4.0 / 300.0,
            quantiles: [Some(500.0), Some(42_750.5), Some(49_725.05)],
        };
        let original = MetricsSnapshot {
            gauges: [("queue.depth".to_string(), depth)].into(),
            windows: [
                ("reqs.window".to_string(), counter),
                ("lat.window.us".to_string(), latency),
            ]
            .into(),
            uptime_us: 1_000,
            ..MetricsSnapshot::default()
        };
        let snap = parse_snapshot(&original.to_json().to_pretty_string()).unwrap();
        assert_eq!(snap, original);
        // Samples survive, so do the watermarks.
        let gauge = snap.gauges["queue.depth"];
        assert_eq!((gauge.value(), gauge.samples()), (2, 3));
        assert_eq!((gauge.min(), gauge.max()), (Some(1), Some(4)));
        // A window of unknown kind or without its total is refused.
        let doc = original.to_json().to_pretty_string();
        for broken in [
            doc.replacen("\"counter\"", "\"meter\"", 1),
            doc.replacen("\"total\"", "\"sum\"", 1),
        ] {
            assert_ne!(broken, doc);
            assert!(matches!(
                parse_snapshot(&broken),
                Err(SnapshotError::Shape(_))
            ));
        }
    }

    #[test]
    fn union_of_names_covers_one_sided_metrics() {
        let mut m = Metrics::new();
        m.span_done("only.base", 100_000);
        m.add("only.base.counter", 5);
        let a = MetricsSnapshot::new(m, 100_000);
        let mut m2 = Metrics::new();
        m2.span_done("only.current", 200_000);
        let b = MetricsSnapshot::new(m2, 100_000);
        let a = parse_snapshot(&a.to_json().to_pretty_string()).unwrap();
        let b = parse_snapshot(&b.to_json().to_pretty_string()).unwrap();
        let options = DiffOptions {
            fail_over: Some(0.5),
            ..DiffOptions::default()
        };
        let diff = diff_snapshots(&a, &b, &options);
        let names: Vec<&str> = diff.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["only.base", "only.current"]);
        // A brand-new expensive stage regresses (rel = inf, over floor).
        assert!(diff.regressions.contains(&"only.current".to_string()));
        let text = render_diff(&diff, &options);
        assert!(text.contains("new"));
    }
}
