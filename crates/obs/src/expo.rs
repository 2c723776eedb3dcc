//! Prometheus-style text exposition of a [`MetricsSnapshot`], served on
//! the daemon's `GET /metrics` for external scrapers.
//!
//! The exposition is render-only: every repo tool (`obs top`, the serve
//! bench) reads the `diffaudit-obs/v1` JSON on `GET /api/v1/metrics`
//! into a [`MetricsSnapshot`] through [`crate::metrics::parse_snapshot`]
//! instead. The wire format itself is pinned by exact-line tests below
//! and by the independent parser in the serve integration tests.
//!
//! The renderer is std-only and emits the classic text format (content
//! type `text/plain; version=0.0.4`): one `# HELP`/`# TYPE` pair per
//! metric family, counters with a `_total` suffix, gauges as-is, and
//! histograms as cumulative `_bucket{le="…"}` series ending in `+Inf`
//! plus `_sum`/`_count`. Registry names are sanitized into the
//! `[a-zA-Z_:][a-zA-Z0-9_:]*` alphabet (`.` and `-` become `_`), and a
//! registry name of the form `base{k="v",…}` is split into a family name
//! plus labels so one family can carry per-endpoint/per-status series.
//!
//! A sliding window's monotonic part is the plain counter or histogram
//! the recorder keeps under the window's name, so it renders with the
//! other counters (`_total`) and histograms (buckets); the window itself
//! adds its frozen rates as `_rate_1m`/`_rate_5m` gauges. Span aggregates
//! are *not* rendered — every span already feeds a `{name}.us`
//! histogram, which is the useful shape here.
//! Ordering is deterministic (sorted by family, then label set), so two
//! scrapes of an idle daemon are byte-identical.

use crate::metrics::{Histogram, MetricsSnapshot};
use std::collections::BTreeMap;

/// Sanitize a registry name into the exposition alphabet: keep
/// `[A-Za-z0-9_:]`, map everything else to `_`, and prefix `_` when the
/// result would start with a digit (or be empty).
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() || out.starts_with(|c: char| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Split a registry name of the form `base{k="v",…}` into the family
/// base and its rendered label list (without braces). Names without a
/// well-formed label suffix are all base.
fn split_series(name: &str) -> (String, String) {
    if let Some(open) = name.find('{') {
        if let Some(inner) = name[open..]
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
        {
            let mut labels = Vec::new();
            let mut ok = !inner.is_empty();
            for pair in inner.split(',') {
                match pair.split_once('=') {
                    Some((key, value)) => {
                        let value = value.trim_matches('"');
                        labels.push(format!(
                            "{}=\"{}\"",
                            sanitize_name(key.trim()),
                            escape_label_value(value)
                        ));
                    }
                    None => ok = false,
                }
            }
            if ok {
                return (sanitize_name(&name[..open]), labels.join(","));
            }
        }
    }
    (sanitize_name(name), String::new())
}

/// Escape a label value for the exposition format.
fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// A sample line's full name: `family{labels}` or bare `family`.
fn series_name(family: &str, labels: &str) -> String {
    if labels.is_empty() {
        family.to_string()
    } else {
        format!("{family}{{{labels}}}")
    }
}

/// Same, with an extra `le` label appended (histogram buckets).
fn bucket_name(family: &str, labels: &str, le: &str) -> String {
    if labels.is_empty() {
        format!("{family}_bucket{{le=\"{le}\"}}")
    } else {
        format!("{family}_bucket{{{labels},le=\"{le}\"}}")
    }
}

/// Render a float the exposition way: integers without a fraction.
fn render_value(v: f64) -> String {
    if v.is_finite() && v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[derive(Default)]
struct Families {
    counters: BTreeMap<String, Vec<(String, f64)>>,
    gauges: BTreeMap<String, Vec<(String, f64)>>,
    histograms: BTreeMap<String, Vec<(String, Histogram)>>,
}

impl Families {
    fn counter(&mut self, name: &str, value: f64) {
        let (family, labels) = split_series(name);
        self.counters
            .entry(family)
            .or_default()
            .push((labels, value));
    }

    fn gauge(&mut self, name: &str, value: f64) {
        let (family, labels) = split_series(name);
        self.gauges.entry(family).or_default().push((labels, value));
    }

    fn histogram(&mut self, name: &str, h: &Histogram) {
        let (family, labels) = split_series(name);
        self.histograms
            .entry(family)
            .or_default()
            .push((labels, h.clone()));
    }
}

/// Render `snapshot` as Prometheus text exposition.
pub fn render_exposition(snapshot: &MetricsSnapshot) -> String {
    let mut fam = Families::default();
    for (name, value) in snapshot.metrics.counters() {
        fam.counter(name, value as f64);
    }
    for (name, gauge) in &snapshot.gauges {
        // The sampler keeps process CPU as a µs gauge (registry values are
        // integers); the exposition re-exports it in the conventional shape
        // — a monotone counter in seconds, `diffaudit_process_cpu_seconds_total`.
        if name == crate::res::PROCESS_CPU_US_GAUGE {
            fam.counter(
                "diffaudit.process.cpu.seconds",
                gauge.value().max(0) as f64 / 1e6,
            );
            continue;
        }
        fam.gauge(name, gauge.value() as f64);
    }
    for (name, h) in snapshot.metrics.histograms() {
        fam.histogram(name, h);
    }
    for (name, window) in &snapshot.windows {
        fam.gauge(&format!("{name}.rate.1m"), window.rate_1m);
        fam.gauge(&format!("{name}.rate.5m"), window.rate_5m);
    }
    fam.gauge("diffaudit_uptime_seconds", snapshot.uptime_us as f64 / 1e6);

    let mut out = String::new();
    for (family, mut series) in std::mem::take(&mut fam.counters) {
        series.sort_by(|a, b| a.0.cmp(&b.0));
        out.push_str(&format!("# HELP {family}_total diffaudit counter\n"));
        out.push_str(&format!("# TYPE {family}_total counter\n"));
        for (labels, value) in series {
            out.push_str(&format!(
                "{} {}\n",
                series_name(&format!("{family}_total"), &labels),
                render_value(value)
            ));
        }
    }
    for (family, mut series) in std::mem::take(&mut fam.gauges) {
        series.sort_by(|a, b| a.0.cmp(&b.0));
        out.push_str(&format!("# HELP {family} diffaudit gauge\n"));
        out.push_str(&format!("# TYPE {family} gauge\n"));
        for (labels, value) in series {
            out.push_str(&format!(
                "{} {}\n",
                series_name(&family, &labels),
                render_value(value)
            ));
        }
    }
    for (family, mut series) in std::mem::take(&mut fam.histograms) {
        series.sort_by(|a, b| a.0.cmp(&b.0));
        out.push_str(&format!("# HELP {family} diffaudit histogram\n"));
        out.push_str(&format!("# TYPE {family} histogram\n"));
        for (labels, h) in series {
            let mut cumulative = 0u64;
            for (bound, count) in h.buckets() {
                cumulative = cumulative.saturating_add(count);
                let le = match bound {
                    Some(b) => format!("{b}"),
                    None => "+Inf".to_string(),
                };
                out.push_str(&format!(
                    "{} {cumulative}\n",
                    bucket_name(&family, &labels, &le)
                ));
            }
            out.push_str(&format!(
                "{} {}\n",
                series_name(&format!("{family}_sum"), &labels),
                h.sum()
            ));
            out.push_str(&format!(
                "{} {}\n",
                series_name(&format!("{family}_count"), &labels),
                h.count()
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::LATENCY_US_BOUNDS;
    use crate::Recorder;

    /// The recorder's snapshot, with its uptime pinned for exact lines.
    fn snapshot(rec: Recorder) -> MetricsSnapshot {
        MetricsSnapshot {
            uptime_us: 2_500_000,
            ..rec.snapshot()
        }
    }

    #[test]
    fn sanitize_maps_to_the_exposition_alphabet() {
        assert_eq!(sanitize_name("serve.http.requests"), "serve_http_requests");
        assert_eq!(sanitize_name("a-b c"), "a_b_c");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name(""), "_");
        assert_eq!(sanitize_name("already_ok:sub"), "already_ok:sub");
    }

    #[test]
    fn counters_render_with_total_suffix_and_help_type() {
        let m = Recorder::new();
        m.add("serve.http.requests", 7);
        let text = render_exposition(&snapshot(m));
        assert!(text.contains("# HELP serve_http_requests_total diffaudit counter\n"));
        assert!(text.contains("# TYPE serve_http_requests_total counter\n"));
        assert!(text.contains("\nserve_http_requests_total 7\n"));
    }

    #[test]
    fn labelled_registry_names_become_label_sets() {
        let m = Recorder::new();
        m.observe(
            "serve.http.latency.us{endpoint=\"jobs\",status=\"2xx\"}",
            &[10, 100],
            42,
        );
        let text = render_exposition(&snapshot(m));
        assert!(
            text.contains(
                "serve_http_latency_us_bucket{endpoint=\"jobs\",status=\"2xx\",le=\"100\"} 1\n"
            ),
            "{text}"
        );
        assert!(
            text.contains(
                "serve_http_latency_us_bucket{endpoint=\"jobs\",status=\"2xx\",le=\"+Inf\"} 1\n"
            ),
            "{text}"
        );
        assert!(text.contains("serve_http_latency_us_sum{endpoint=\"jobs\",status=\"2xx\"} 42\n"));
        assert!(text.contains("serve_http_latency_us_count{endpoint=\"jobs\",status=\"2xx\"} 1\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_in_inf() {
        let m = Recorder::new();
        for v in [5u64, 50, 5_000_000_000] {
            m.observe("lat", &[10, 100], v);
        }
        let text = render_exposition(&snapshot(m));
        assert!(text.contains("lat_bucket{le=\"10\"} 1\n"), "{text}");
        assert!(text.contains("lat_bucket{le=\"100\"} 2\n"), "{text}");
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 3\n"), "{text}");
        assert!(text.contains("lat_count 3\n"));
    }

    #[test]
    fn gauges_and_windows_render() {
        let m = Recorder::new();
        m.gauge_set("serve.queue.depth", 3);
        m.window_add("serve.http.reqs", 30);
        let text = render_exposition(&snapshot(m));
        assert!(text.contains("# TYPE serve_queue_depth gauge\n"));
        assert!(text.contains("\nserve_queue_depth 3\n"));
        // Window totals are counters; rates are gauges.
        assert!(text.contains("\nserve_http_reqs_total 30\n"), "{text}");
        assert!(text.contains("# TYPE serve_http_reqs_rate_1m gauge\n"));
        assert!(text.contains("# TYPE diffaudit_uptime_seconds gauge\n"));
        assert!(text.contains("\ndiffaudit_uptime_seconds 2.5\n"));
    }

    #[test]
    fn rendering_is_deterministic() {
        let build = || {
            let m = Recorder::new();
            m.add("b.counter", 2);
            m.add("a.counter", 1);
            m.gauge_set("depth", 4);
            m.observe("lat", &LATENCY_US_BOUNDS, 99);
            snapshot(m)
        };
        assert_eq!(render_exposition(&build()), render_exposition(&build()));
    }

    #[test]
    fn rendering_matches_the_text_format_line_for_line() {
        let m = Recorder::new();
        m.add("serve.http.requests", 7);
        m.gauge_set("serve.queue.depth", 2);
        m.observe(
            "serve.http.latency.us{endpoint=\"jobs\",status=\"2xx\"}",
            &LATENCY_US_BOUNDS,
            5_000,
        );
        let expected = "\
# HELP serve_http_requests_total diffaudit counter
# TYPE serve_http_requests_total counter
serve_http_requests_total 7
# HELP diffaudit_uptime_seconds diffaudit gauge
# TYPE diffaudit_uptime_seconds gauge
diffaudit_uptime_seconds 2.5
# HELP serve_queue_depth diffaudit gauge
# TYPE serve_queue_depth gauge
serve_queue_depth 2
# HELP serve_http_latency_us diffaudit histogram
# TYPE serve_http_latency_us histogram
serve_http_latency_us_bucket{endpoint=\"jobs\",status=\"2xx\",le=\"10\"} 0
serve_http_latency_us_bucket{endpoint=\"jobs\",status=\"2xx\",le=\"100\"} 0
serve_http_latency_us_bucket{endpoint=\"jobs\",status=\"2xx\",le=\"1000\"} 0
serve_http_latency_us_bucket{endpoint=\"jobs\",status=\"2xx\",le=\"10000\"} 1
serve_http_latency_us_bucket{endpoint=\"jobs\",status=\"2xx\",le=\"100000\"} 1
serve_http_latency_us_bucket{endpoint=\"jobs\",status=\"2xx\",le=\"1000000\"} 1
serve_http_latency_us_bucket{endpoint=\"jobs\",status=\"2xx\",le=\"10000000\"} 1
serve_http_latency_us_bucket{endpoint=\"jobs\",status=\"2xx\",le=\"+Inf\"} 1
serve_http_latency_us_sum{endpoint=\"jobs\",status=\"2xx\"} 5000
serve_http_latency_us_count{endpoint=\"jobs\",status=\"2xx\"} 1
";
        assert_eq!(render_exposition(&snapshot(m)), expected);
    }

    #[test]
    fn process_cpu_gauge_re_exports_as_seconds_counter() {
        let m = Recorder::new();
        m.gauge_set(crate::res::PROCESS_CPU_US_GAUGE, 2_500_000);
        m.gauge_set(crate::res::PROCESS_RSS_GAUGE, 4096);
        let text = render_exposition(&snapshot(m));
        // CPU: counter family in float seconds, conventional name.
        assert!(
            text.contains("# TYPE diffaudit_process_cpu_seconds_total counter\n"),
            "{text}"
        );
        assert!(
            text.contains("\ndiffaudit_process_cpu_seconds_total 2.5\n"),
            "{text}"
        );
        // The raw µs gauge does not leak out alongside it.
        assert!(!text.contains("diffaudit_process_cpu_us"), "{text}");
        // RSS: plain gauge, name sanitized as-is.
        assert!(text.contains("# TYPE diffaudit_process_resident_bytes gauge\n"));
        assert!(text.contains("\ndiffaudit_process_resident_bytes 4096\n"));
    }

    #[test]
    fn every_series_kind_renders_its_exact_sample_lines() {
        let m = Recorder::new();
        m.add("pipeline.units", 14);
        m.add("serve.http.requests{endpoint=\"jobs\"}", 3);
        m.gauge_set("serve.queue.depth", -2);
        m.observe("lat", &LATENCY_US_BOUNDS, 5_000);
        m.window_add("reqs", 9);
        m.gauge_set(crate::res::PROCESS_CPU_US_GAUGE, 1_234_567);
        let text = render_exposition(&snapshot(m));
        let samples: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(
            samples,
            [
                // Counters, by family: the CPU gauge re-exported in seconds,
                // a plain counter, a window's monotonic total, a labelled one.
                "diffaudit_process_cpu_seconds_total 1.234567",
                "pipeline_units_total 14",
                "reqs_total 9",
                "serve_http_requests_total{endpoint=\"jobs\"} 3",
                // Gauges: uptime, the window's rates (9 events over 60 s and
                // 300 s), and a negative level.
                "diffaudit_uptime_seconds 2.5",
                "reqs_rate_1m 0.15",
                "reqs_rate_5m 0.03",
                "serve_queue_depth -2",
                // The histogram: cumulative buckets, then sum and count.
                "lat_bucket{le=\"10\"} 0",
                "lat_bucket{le=\"100\"} 0",
                "lat_bucket{le=\"1000\"} 0",
                "lat_bucket{le=\"10000\"} 1",
                "lat_bucket{le=\"100000\"} 1",
                "lat_bucket{le=\"1000000\"} 1",
                "lat_bucket{le=\"10000000\"} 1",
                "lat_bucket{le=\"+Inf\"} 1",
                "lat_sum 5000",
                "lat_count 1",
            ]
        );
    }

    #[test]
    fn hostile_label_values_survive_the_round_trip() {
        // Raw value: a"b\c<newline>d — every escapable char at once. It must
        // come out as one sample line with each character escaped.
        let raw = "a\"b\\c\nd";
        let m = Recorder::new();
        m.add(&format!("weird{{path=\"{raw}\"}}"), 1);
        let text = render_exposition(&snapshot(m));
        let samples: Vec<&str> = text.lines().filter(|l| l.starts_with("weird")).collect();
        assert_eq!(
            samples,
            ["weird_total{path=\"a\\\"b\\\\c\\nd\"} 1"],
            "{text}"
        );
    }
}
