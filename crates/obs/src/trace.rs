//! Trace analysis: parse a `--trace-out` JSONL file back into typed
//! records, reconstruct the span tree from parent links, attribute
//! self-time vs. child-time, and render a text flame / critical-path
//! report.
//!
//! This is the consumption half of the observability stack — the emission
//! half (recorder, sinks) writes one JSON object per line with a monotone
//! `seq`; this module reads that stream back *salvage-style*: malformed
//! lines are skipped and counted instead of failing the whole analysis,
//! matching the pipeline's own degradation philosophy.
//!
//! ## Span-tree reconstruction rules
//!
//! Span records are emitted at *close* time and carry the immediate parent
//! **name**, fixed when the span opened: the recorder keeps one span stack
//! per thread, and a worker thread's outermost span names the innermost
//! span open on the run's root thread (a loader worker's decode spans name
//! the `loader.dir` that spawned it). Reconstruction therefore aggregates records
//! into `(parent, name)` edges — every instance of `loader.unit` under
//! `loader.dir` folds into one node with a call count — and grows the tree
//! from the roots:
//!
//! - an edge with a `null` parent is a root;
//! - an edge whose parent never appears as a span record itself (a span
//!   left open when the trace ended) is *promoted* to a root, so truncated
//!   traces still render;
//! - a name reached twice along one path (a recursion cycle in the name
//!   graph) is not descended into again.
//!
//! **Self-time** of a node is its total wall time minus the total of its
//! children (saturating at zero). By construction the root's total equals
//! the sum of all self-times in its subtree — the *untracked remainder*
//! (root total minus the sum of strict-descendant self-times) is exactly
//! the root's own self-time, and the report prints that identity.

use crate::level::Level;
use crate::res::SpanResources;
use diffaudit_json::Json;
use diffaudit_util::fmt::{format_bytes, format_bytes_signed, format_duration_us};
use std::collections::{BTreeMap, BTreeSet};

/// One `kind:"event"` record from a trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotone sequence number.
    pub seq: u64,
    /// Microseconds since recorder start.
    pub t_us: u64,
    /// Severity.
    pub level: Level,
    /// Message text.
    pub msg: String,
}

/// One `kind:"span"` record (emitted when the span closed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// Monotone sequence number.
    pub seq: u64,
    /// Close time, microseconds since recorder start.
    pub t_us: u64,
    /// Span name.
    pub name: String,
    /// Immediate parent span name (`None` for a root span).
    pub parent: Option<String>,
    /// Wall time, microseconds.
    pub dur_us: u64,
    /// Resource attribution (`None` when the trace was recorded without
    /// profiling — the pre-resource record shape).
    pub res: Option<SpanResources>,
}

/// A parsed trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceRecord {
    /// A structured event.
    Event(TraceEvent),
    /// A completed span.
    Span(TraceSpan),
}

/// A parsed trace file: the usable records plus a degradation tally.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    /// Records in file order.
    pub records: Vec<TraceRecord>,
    /// Non-blank lines seen.
    pub lines: usize,
    /// Malformed lines skipped (bad JSON, wrong shape, missing fields).
    pub skipped: usize,
}

impl TraceLog {
    /// Parse JSONL text, skipping-and-counting malformed lines.
    pub fn parse(text: &str) -> TraceLog {
        let mut log = TraceLog::default();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            log.lines += 1;
            match parse_line(line) {
                Some(record) => log.records.push(record),
                None => log.skipped += 1,
            }
        }
        log
    }

    /// The completed spans, in file (close) order.
    pub fn spans(&self) -> impl Iterator<Item = &TraceSpan> + '_ {
        self.records.iter().filter_map(|r| match r {
            TraceRecord::Span(s) => Some(s),
            TraceRecord::Event(_) => None,
        })
    }

    /// The events, in file order.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> + '_ {
        self.records.iter().filter_map(|r| match r {
            TraceRecord::Event(e) => Some(e),
            TraceRecord::Span(_) => None,
        })
    }

    /// Timestamp of the last record — the trace's wall-clock extent.
    pub fn wall_us(&self) -> u64 {
        self.records
            .iter()
            .map(|r| match r {
                TraceRecord::Event(e) => e.t_us,
                TraceRecord::Span(s) => s.t_us,
            })
            .max()
            .unwrap_or(0)
    }
}

fn parse_line(line: &str) -> Option<TraceRecord> {
    let json = diffaudit_json::parse(line).ok()?;
    let seq = u64::try_from(json.get("seq")?.as_i64()?).ok()?;
    let t_us = u64::try_from(json.get("tUs")?.as_i64()?).ok()?;
    match json.get("kind")?.as_str()? {
        "event" => Some(TraceRecord::Event(TraceEvent {
            seq,
            t_us,
            level: Level::parse(json.get("level")?.as_str()?)?,
            msg: json.get("msg")?.as_str()?.to_string(),
        })),
        "span" => {
            let parent = match json.get("parent")? {
                Json::Null => None,
                other => Some(other.as_str()?.to_string()),
            };
            // Resource keys are optional extensions: a span carries them
            // all (profiled trace) or none (plain trace).
            let as_u64 = |key: &str| -> Option<u64> {
                json.get(key)
                    .and_then(Json::as_i64)
                    .and_then(|v| u64::try_from(v).ok())
            };
            let res = as_u64("rssPeakB").map(|peak_rss_bytes| SpanResources {
                peak_rss_bytes,
                rss_delta_bytes: json.get("rssDeltaB").and_then(Json::as_i64).unwrap_or(0),
                cpu_us: as_u64("cpuUs").unwrap_or(0),
                bytes_in: as_u64("bytesIn").unwrap_or(0),
            });
            Some(TraceRecord::Span(TraceSpan {
                seq,
                t_us,
                name: json.get("name")?.as_str()?.to_string(),
                parent,
                dur_us: u64::try_from(json.get("durUs")?.as_i64()?).ok()?,
                res,
            }))
        }
        _ => None,
    }
}

/// One aggregated node of the reconstructed span tree.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Span name.
    pub name: String,
    /// Completed instances folded into this node.
    pub count: u64,
    /// Total wall time across instances, microseconds.
    pub total_us: u64,
    /// Total minus children's totals (saturating) — time spent in this
    /// node's own code.
    pub self_us: u64,
    /// Instances that carried resource attribution.
    pub res_count: u64,
    /// Highest peak RSS across attributed instances, bytes.
    pub peak_rss_bytes: u64,
    /// Net RSS movement across attributed instances, bytes (signed).
    pub rss_delta_bytes: i64,
    /// Total CPU time across attributed instances, microseconds.
    pub cpu_us: u64,
    /// Total logical bytes processed across attributed instances.
    pub bytes_in: u64,
    /// Child nodes, heaviest (by total) first.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    fn subtree_self_us(&self) -> u64 {
        self.self_us
            + self
                .children
                .iter()
                .map(SpanNode::subtree_self_us)
                .sum::<u64>()
    }

    /// CPU time minus children's CPU (saturating) — the node's own burn.
    fn self_cpu_us(&self) -> u64 {
        self.cpu_us
            .saturating_sub(self.children.iter().map(|c| c.cpu_us).sum())
    }

    fn subtree_self_cpu_us(&self) -> u64 {
        self.self_cpu_us()
            + self
                .children
                .iter()
                .map(SpanNode::subtree_self_cpu_us)
                .sum::<u64>()
    }

    /// RSS delta minus children's deltas — the node's own net movement
    /// (signed arithmetic; no saturation needed, stages can release).
    fn self_rss_delta_bytes(&self) -> i64 {
        self.rss_delta_bytes - self.children.iter().map(|c| c.rss_delta_bytes).sum::<i64>()
    }

    fn subtree_self_rss_delta_bytes(&self) -> i64 {
        self.self_rss_delta_bytes()
            + self
                .children
                .iter()
                .map(SpanNode::subtree_self_rss_delta_bytes)
                .sum::<i64>()
    }
}

/// Per-edge fold of span records: call counts, wall time, and the
/// resource attributions of profiled instances.
#[derive(Debug, Clone, Copy, Default)]
struct EdgeAgg {
    count: u64,
    total_us: u64,
    res_count: u64,
    peak_rss_bytes: u64,
    rss_delta_bytes: i64,
    cpu_us: u64,
    bytes_in: u64,
}

/// The reconstructed span forest plus trace-level tallies.
#[derive(Debug, Clone)]
pub struct SpanTree {
    /// Root nodes, heaviest first. Spans whose parent never closed are
    /// promoted to roots (truncated-trace tolerance).
    pub roots: Vec<SpanNode>,
    /// Wall-clock extent of the trace (last record timestamp).
    pub wall_us: u64,
    /// Span records consumed.
    pub span_records: usize,
    /// Event records seen.
    pub event_records: usize,
    /// Malformed lines skipped during parsing.
    pub skipped: usize,
}

impl SpanTree {
    /// Reconstruct the tree from a parsed log.
    pub fn build(log: &TraceLog) -> SpanTree {
        // Aggregate span records into (parent, name) edges.
        let mut edges: BTreeMap<(Option<String>, String), EdgeAgg> = BTreeMap::new();
        let mut closed_names: BTreeSet<&str> = BTreeSet::new();
        for span in log.spans() {
            let entry = edges
                .entry((span.parent.clone(), span.name.clone()))
                .or_default();
            entry.count += 1;
            entry.total_us = entry.total_us.saturating_add(span.dur_us);
            if let Some(res) = &span.res {
                entry.res_count += 1;
                entry.peak_rss_bytes = entry.peak_rss_bytes.max(res.peak_rss_bytes);
                entry.rss_delta_bytes = entry.rss_delta_bytes.saturating_add(res.rss_delta_bytes);
                entry.cpu_us = entry.cpu_us.saturating_add(res.cpu_us);
                entry.bytes_in = entry.bytes_in.saturating_add(res.bytes_in);
            }
            closed_names.insert(&span.name);
        }
        // Roots: null-parent edges plus edges orphaned by an unclosed parent.
        let root_keys: Vec<(Option<String>, String)> = edges
            .keys()
            .filter(|(parent, _)| match parent {
                None => true,
                Some(p) => !closed_names.contains(p.as_str()),
            })
            .cloned()
            .collect();
        let mut roots: Vec<SpanNode> = root_keys
            .iter()
            .map(|key| {
                let mut path = vec![key.1.clone()];
                grow(&edges, key, &mut path)
            })
            .collect();
        roots.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.name.cmp(&b.name)));
        SpanTree {
            roots,
            wall_us: log.wall_us(),
            span_records: log.spans().count(),
            event_records: log.events().count(),
            skipped: log.skipped,
        }
    }

    /// Every node, preorder (roots first, each followed by its subtree).
    pub fn nodes(&self) -> Vec<&SpanNode> {
        let mut out = Vec::new();
        let mut stack: Vec<&SpanNode> = self.roots.iter().rev().collect();
        while let Some(node) = stack.pop() {
            out.push(node);
            for child in node.children.iter().rev() {
                stack.push(child);
            }
        }
        out
    }

    /// Total wall time across the roots.
    pub fn root_total_us(&self) -> u64 {
        self.roots.iter().map(|r| r.total_us).sum()
    }

    /// The heaviest root-to-leaf chain: starting from the heaviest root,
    /// follow the heaviest child at every level.
    pub fn critical_path(&self) -> Vec<&SpanNode> {
        let mut path = Vec::new();
        let mut cursor = self.roots.first();
        while let Some(node) = cursor {
            path.push(node);
            cursor = node.children.first();
        }
        path
    }
}

fn grow(
    edges: &BTreeMap<(Option<String>, String), EdgeAgg>,
    key: &(Option<String>, String),
    path: &mut Vec<String>,
) -> SpanNode {
    let agg = edges.get(key).copied().unwrap_or_default();
    let name = key.1.clone();
    let mut children: Vec<SpanNode> = edges
        .keys()
        .filter(|(parent, child)| {
            parent.as_deref() == Some(name.as_str()) && !path.iter().any(|p| p == child)
        })
        .cloned()
        .collect::<Vec<_>>()
        .iter()
        .map(|child_key| {
            path.push(child_key.1.clone());
            let node = grow(edges, child_key, path);
            path.pop();
            node
        })
        .collect();
    children.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.name.cmp(&b.name)));
    let child_total: u64 = children.iter().map(|c| c.total_us).sum();
    SpanNode {
        self_us: agg.total_us.saturating_sub(child_total),
        name,
        count: agg.count,
        total_us: agg.total_us,
        res_count: agg.res_count,
        peak_rss_bytes: agg.peak_rss_bytes,
        rss_delta_bytes: agg.rss_delta_bytes,
        cpu_us: agg.cpu_us,
        bytes_in: agg.bytes_in,
        children,
    }
}

/// Rendering options for [`render_trace_report`].
#[derive(Debug, Clone)]
pub struct TraceReportOptions {
    /// Hotspot list length.
    pub top: usize,
}

impl Default for TraceReportOptions {
    fn default() -> Self {
        TraceReportOptions { top: 10 }
    }
}

/// Render the flame/tree report: header tallies, the indented span tree
/// (total / self / calls / share of root), the per-root self-time
/// conservation line, the critical path, and the top-K self-time hotspots.
pub fn render_trace_report(tree: &SpanTree, options: &TraceReportOptions) -> String {
    let mut out = String::new();
    out.push_str("== trace report ==\n");
    out.push_str(&format!(
        "records: {} spans, {} events",
        tree.span_records, tree.event_records
    ));
    if tree.skipped > 0 {
        out.push_str(&format!(" ({} malformed lines skipped)", tree.skipped));
    }
    out.push('\n');
    out.push_str(&format!(
        "wall clock (last record): {}\n",
        format_duration_us(tree.wall_us)
    ));

    if tree.roots.is_empty() {
        out.push_str("\nno completed spans in trace\n");
        return out;
    }

    let root_total = tree.root_total_us().max(1);
    out.push_str("\nspan tree (total / self / calls / % of roots):\n");
    for root in &tree.roots {
        render_node(&mut out, root, 0, root_total);
    }

    // Conservation: root total = Σ descendant self-times + untracked
    // remainder (the root's own self-time).
    for root in &tree.roots {
        let descendant_self = root.subtree_self_us() - root.self_us;
        let untracked = root.total_us.saturating_sub(descendant_self);
        out.push_str(&format!(
            "root {}: total {} = stage self {} + untracked {}\n",
            root.name,
            format_duration_us(root.total_us),
            format_duration_us(descendant_self),
            format_duration_us(untracked),
        ));
    }

    let path = tree.critical_path();
    if !path.is_empty() {
        out.push_str("\ncritical path:\n  ");
        out.push_str(
            &path
                .iter()
                .map(|n| format!("{} {}", n.name, format_duration_us(n.total_us)))
                .collect::<Vec<_>>()
                .join(" -> "),
        );
        out.push('\n');
    }

    let mut hotspots: Vec<&SpanNode> = tree.nodes();
    hotspots.sort_by(|a, b| b.self_us.cmp(&a.self_us).then(a.name.cmp(&b.name)));
    out.push_str(&format!("\nhotspots (top {} by self time):\n", options.top));
    for (rank, node) in hotspots.iter().take(options.top).enumerate() {
        out.push_str(&format!(
            "  {:>2}. {:<32} {:>10}  {:>5.1}%\n",
            rank + 1,
            node.name,
            format_duration_us(node.self_us),
            node.self_us as f64 / root_total as f64 * 100.0,
        ));
    }
    out
}

fn format_throughput(bytes_in: u64, dur_us: u64) -> String {
    if bytes_in == 0 || dur_us == 0 {
        return "-".to_string();
    }
    let rate = bytes_in as f64 / (dur_us as f64 / 1_000_000.0);
    format!("{}/s", format_bytes(rate as u64))
}

/// Render the `--resources` view of a trace: the same span tree, but with
/// peak RSS, RSS delta, CPU time, bytes processed, and derived throughput
/// per stage, plus CPU and RSS conservation lines mirroring the wall-time
/// report's. A trace recorded without profiling (or on a platform without
/// `/proc`) renders a placeholder instead of a table of zeros.
pub fn render_resource_report(tree: &SpanTree) -> String {
    let mut out = String::new();
    out.push_str("== resource report ==\n");
    out.push_str(&format!(
        "records: {} spans, {} events",
        tree.span_records, tree.event_records
    ));
    if tree.skipped > 0 {
        out.push_str(&format!(" ({} malformed lines skipped)", tree.skipped));
    }
    out.push('\n');
    out.push_str(&format!(
        "wall clock (last record): {}\n",
        format_duration_us(tree.wall_us)
    ));

    if tree.roots.is_empty() {
        out.push_str("\nno completed spans in trace\n");
        return out;
    }
    if tree.nodes().iter().all(|n| n.res_count == 0) {
        out.push_str("\nresources unavailable (trace carries no resource samples)\n");
        return out;
    }

    out.push_str("\nstage resources (peak RSS / ΔRSS / CPU / bytes in / throughput):\n");
    for root in &tree.roots {
        render_resource_node(&mut out, root, 0);
    }

    // Conservation, twice: CPU telescopes exactly like wall time (children
    // burn inside their parent), and RSS deltas telescope in signed
    // arithmetic (a stage's net movement contains its children's).
    for root in &tree.roots {
        if root.res_count == 0 {
            continue;
        }
        let descendant_cpu = root.subtree_self_cpu_us() - root.self_cpu_us();
        out.push_str(&format!(
            "root {}: cpu {} = stage self {} + untracked {}\n",
            root.name,
            format_duration_us(root.cpu_us),
            format_duration_us(descendant_cpu),
            format_duration_us(root.cpu_us.saturating_sub(descendant_cpu)),
        ));
        let descendant_rss = root.subtree_self_rss_delta_bytes() - root.self_rss_delta_bytes();
        out.push_str(&format!(
            "root {}: rss {} = stage {} + untracked {}\n",
            root.name,
            format_bytes_signed(root.rss_delta_bytes),
            format_bytes_signed(descendant_rss),
            format_bytes_signed(root.rss_delta_bytes - descendant_rss),
        ));
    }
    out
}

fn render_resource_node(out: &mut String, node: &SpanNode, depth: usize) {
    let indent = "  ".repeat(depth + 1);
    let label = format!("{indent}{}", node.name);
    if node.res_count == 0 {
        out.push_str(&format!(
            "{label:<40} {:>10} {:>10} {:>10} {:>10} {:>12}\n",
            "-", "-", "-", "-", "-"
        ));
    } else {
        out.push_str(&format!(
            "{label:<40} {:>10} {:>10} {:>10} {:>10} {:>12}\n",
            format_bytes(node.peak_rss_bytes),
            format_bytes_signed(node.rss_delta_bytes),
            format_duration_us(node.cpu_us),
            format_bytes(node.bytes_in),
            format_throughput(node.bytes_in, node.total_us),
        ));
    }
    for child in &node.children {
        render_resource_node(out, child, depth + 1);
    }
}

fn render_node(out: &mut String, node: &SpanNode, depth: usize, root_total: u64) {
    let indent = "  ".repeat(depth + 1);
    let label = format!("{indent}{}", node.name);
    out.push_str(&format!(
        "{label:<40} {:>10} {:>10} {:>7}  {:>5.1}%\n",
        format_duration_us(node.total_us),
        format_duration_us(node.self_us),
        node.count,
        node.total_us as f64 / root_total as f64 * 100.0,
    ));
    for child in &node.children {
        render_node(out, child, depth + 1, root_total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{event_record, span_record};

    fn line(json: &Json) -> String {
        json.to_string()
    }

    /// A synthetic well-nested trace:
    /// audit(1000) { load(300) { unit(100) x2 } render(200) } + events.
    fn sample_trace() -> String {
        let mut text = String::new();
        text.push_str(&line(&event_record(1, 5, Level::Info, "start", &[])));
        text.push('\n');
        text.push_str(&line(&span_record(2, 110, "unit", Some("load"), 100)));
        text.push('\n');
        text.push_str(&line(&span_record(3, 220, "unit", Some("load"), 100)));
        text.push('\n');
        text.push_str(&line(&span_record(4, 320, "load", Some("audit"), 300)));
        text.push('\n');
        text.push_str(&line(&span_record(5, 540, "render", Some("audit"), 200)));
        text.push('\n');
        text.push_str(&line(&span_record(6, 1020, "audit", None, 1000)));
        text.push('\n');
        text
    }

    #[test]
    fn parse_round_trips_records() {
        let log = TraceLog::parse(&sample_trace());
        assert_eq!(log.lines, 6);
        assert_eq!(log.skipped, 0);
        assert_eq!(log.events().count(), 1);
        assert_eq!(log.spans().count(), 5);
        assert_eq!(log.wall_us(), 1020);
    }

    #[test]
    fn malformed_lines_are_skipped_and_counted() {
        let mut text = sample_trace();
        text.push_str("this is not json\n");
        text.push_str("{\"kind\":\"span\"}\n"); // missing fields
        text.push_str("{\"seq\":9,\"tUs\":1,\"kind\":\"mystery\"}\n"); // unknown kind
        text.push_str("\n"); // blank lines don't count at all
        let log = TraceLog::parse(&text);
        assert_eq!(log.skipped, 3);
        assert_eq!(log.records.len(), 6);
        // Salvage: the surviving records still build the full tree.
        let tree = SpanTree::build(&log);
        assert_eq!(tree.skipped, 3);
        assert_eq!(tree.roots.len(), 1);
    }

    #[test]
    fn tree_reconstruction_aggregates_and_attributes_self_time() {
        let log = TraceLog::parse(&sample_trace());
        let tree = SpanTree::build(&log);
        assert_eq!(tree.roots.len(), 1);
        let audit = &tree.roots[0];
        assert_eq!(audit.name, "audit");
        assert_eq!(audit.count, 1);
        assert_eq!(audit.total_us, 1000);
        // children sorted heaviest-first: load(300), render(200)
        assert_eq!(audit.children.len(), 2);
        assert_eq!(audit.children[0].name, "load");
        assert_eq!(audit.children[1].name, "render");
        // unit x2 folds into one node of count 2, total 200.
        let unit = &audit.children[0].children[0];
        assert_eq!(unit.name, "unit");
        assert_eq!(unit.count, 2);
        assert_eq!(unit.total_us, 200);
        assert_eq!(unit.self_us, 200);
        // Self-time attribution: audit 1000 - (300+200) = 500;
        // load 300 - 200 = 100.
        assert_eq!(audit.self_us, 500);
        assert_eq!(audit.children[0].self_us, 100);
    }

    #[test]
    fn root_total_equals_sum_of_self_times() {
        let log = TraceLog::parse(&sample_trace());
        let tree = SpanTree::build(&log);
        let root = &tree.roots[0];
        let self_sum: u64 = tree.nodes().iter().map(|n| n.self_us).sum();
        assert_eq!(root.total_us, self_sum, "telescoping self-time identity");
        // And the report states the identity in one line.
        let text = render_trace_report(&tree, &TraceReportOptions::default());
        assert!(
            text.contains("root audit: total 1.0ms = stage self 500us + untracked 500us"),
            "conservation line missing in:\n{text}"
        );
    }

    #[test]
    fn critical_path_follows_heaviest_children() {
        let log = TraceLog::parse(&sample_trace());
        let tree = SpanTree::build(&log);
        let names: Vec<&str> = tree
            .critical_path()
            .iter()
            .map(|n| n.name.as_str())
            .collect();
        assert_eq!(names, ["audit", "load", "unit"]);
    }

    #[test]
    fn unclosed_parent_promotes_orphans_to_roots() {
        // Only the children closed before the trace ended.
        let mut text = String::new();
        text.push_str(&line(&span_record(1, 10, "child", Some("ghost"), 10)));
        text.push('\n');
        text.push_str(&line(&span_record(2, 30, "child", Some("ghost"), 15)));
        text.push('\n');
        let tree = SpanTree::build(&TraceLog::parse(&text));
        assert_eq!(tree.roots.len(), 1);
        assert_eq!(tree.roots[0].name, "child");
        assert_eq!(tree.roots[0].count, 2);
        assert_eq!(tree.roots[0].total_us, 25);
    }

    #[test]
    fn recursion_in_the_name_graph_does_not_loop() {
        let mut text = String::new();
        text.push_str(&line(&span_record(1, 10, "a", Some("b"), 10)));
        text.push('\n');
        text.push_str(&line(&span_record(2, 20, "b", Some("a"), 20)));
        text.push('\n');
        text.push_str(&line(&span_record(3, 40, "a", None, 40)));
        text.push('\n');
        let tree = SpanTree::build(&TraceLog::parse(&text));
        // Terminates; "a" appears as a root and the cycle is cut.
        assert!(tree.roots.iter().any(|r| r.name == "a"));
        let rendered = render_trace_report(&tree, &TraceReportOptions::default());
        assert!(rendered.contains("span tree"));
    }

    #[test]
    fn report_renders_all_sections_and_hotspot_cap() {
        let log = TraceLog::parse(&sample_trace());
        let tree = SpanTree::build(&log);
        let text = render_trace_report(&tree, &TraceReportOptions { top: 2 });
        assert!(text.contains("== trace report =="));
        assert!(text.contains("5 spans, 1 events"));
        assert!(text.contains("span tree"));
        assert!(text.contains("critical path:"));
        assert!(text.contains("audit 1.0ms -> load 300us -> unit 200us"));
        assert!(text.contains("hotspots (top 2 by self time):"));
        // top-2 cap: exactly two ranked lines.
        assert_eq!(
            text.matches("  1. ").count() + text.matches("  2. ").count(),
            2
        );
        assert!(!text.contains("  3. "));
    }

    #[test]
    fn empty_trace_renders_placeholder() {
        let tree = SpanTree::build(&TraceLog::parse(""));
        let text = render_trace_report(&tree, &TraceReportOptions::default());
        assert!(text.contains("no completed spans"));
    }

    fn res_line(
        seq: u64,
        t_us: u64,
        name: &str,
        parent: Option<&str>,
        dur_us: u64,
        res: SpanResources,
    ) -> String {
        line(&crate::sink::with_span_resources(
            span_record(seq, t_us, name, parent, dur_us),
            &res,
        ))
    }

    /// The sample trace with resource attribution on every span.
    fn resource_trace() -> String {
        let span = |peak, delta, cpu, bytes| SpanResources {
            peak_rss_bytes: peak,
            rss_delta_bytes: delta,
            cpu_us: cpu,
            bytes_in: bytes,
        };
        let mut text = String::new();
        for record in [
            res_line(
                1,
                110,
                "unit",
                Some("load"),
                100,
                span(4_000, 400, 100, 1_000),
            ),
            res_line(
                2,
                220,
                "unit",
                Some("load"),
                100,
                span(4_000, 400, 100, 1_000),
            ),
            res_line(
                3,
                320,
                "load",
                Some("audit"),
                300,
                span(5_000, 1_000, 300, 3_000),
            ),
            res_line(
                4,
                540,
                "render",
                Some("audit"),
                200,
                span(4_500, -100, 100, 0),
            ),
            res_line(5, 1020, "audit", None, 1000, span(5_000, 1_200, 800, 0)),
        ] {
            text.push_str(&record);
            text.push('\n');
        }
        text
    }

    #[test]
    fn resource_fields_parse_and_aggregate_into_the_tree() {
        let log = TraceLog::parse(&resource_trace());
        let first = log.spans().next().unwrap();
        assert_eq!(
            first.res,
            Some(SpanResources {
                peak_rss_bytes: 4_000,
                rss_delta_bytes: 400,
                cpu_us: 100,
                bytes_in: 1_000,
            })
        );
        let tree = SpanTree::build(&log);
        let audit = &tree.roots[0];
        assert_eq!(audit.res_count, 1);
        assert_eq!(audit.cpu_us, 800);
        assert_eq!(audit.rss_delta_bytes, 1_200);
        let load = &audit.children[0];
        // unit x2 folds: counts and sums add, peak takes the max.
        let unit = &load.children[0];
        assert_eq!(unit.res_count, 2);
        assert_eq!(unit.peak_rss_bytes, 4_000);
        assert_eq!(unit.rss_delta_bytes, 800);
        assert_eq!(unit.cpu_us, 200);
        assert_eq!(unit.bytes_in, 2_000);
    }

    #[test]
    fn resource_report_shows_stages_and_conservation() {
        let tree = SpanTree::build(&TraceLog::parse(&resource_trace()));
        let text = render_resource_report(&tree);
        assert!(text.contains("== resource report =="));
        assert!(text.contains("stage resources"));
        // load: 3000 bytes over 300us = 10 MB/s ≈ 9.54MiB/s.
        assert!(text.contains("9.54MiB/s"), "throughput missing in:\n{text}");
        // CPU conservation: audit 800 = descendant self (100+200+100) + 400.
        assert!(
            text.contains("root audit: cpu 800us = stage self 400us + untracked 400us"),
            "cpu conservation line missing in:\n{text}"
        );
        // RSS conservation in signed bytes: +1200 = +900 + +300.
        assert!(
            text.contains("root audit: rss +1.2KiB = stage +900B + untracked +300B"),
            "rss conservation line missing in:\n{text}"
        );
    }

    #[test]
    fn unprofiled_trace_degrades_to_resources_unavailable() {
        let tree = SpanTree::build(&TraceLog::parse(&sample_trace()));
        let text = render_resource_report(&tree);
        assert!(
            text.contains("resources unavailable (trace carries no resource samples)"),
            "{text}"
        );
        assert!(!text.contains("stage resources"));
        // Empty traces still render the header path.
        let empty = SpanTree::build(&TraceLog::parse(""));
        let text = render_resource_report(&empty);
        assert!(text.contains("no completed spans"));
    }
}
