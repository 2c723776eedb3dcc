//! `diffaudit-obs` — std-only structured tracing, per-stage metrics, and a
//! pipeline run report for the DiffAudit reproduction.
//!
//! The crate provides four pieces, all dependency-free:
//!
//! - **Spans** — hierarchical wall-time timing via an RAII guard
//!   ([`Recorder::enter`] / [`span`]); each completed span feeds a
//!   per-name [`SpanStats`] aggregate and a latency histogram.
//! - **Metrics** — typed counters and fixed-bucket [`Histogram`]s
//!   (byte volumes, record counts, latencies) collected into a
//!   [`MetricsSnapshot`] for `--metrics-out` export. The snapshot is the
//!   one model of the `diffaudit-obs/v1` document: it writes it
//!   ([`MetricsSnapshot::to_json`]) and every repo tool reads it back
//!   into one ([`parse_snapshot`]).
//! - **Per-thread recorders** — worker threads accumulate counters,
//!   histograms, and span timings into private [`LocalRecorder`]s and
//!   merge them associatively into the global registry at join
//!   ([`absorb`]), so parallel stages produce the same snapshot as the
//!   serial path without taking the global lock per operation.
//! - **Events** — a leveled structured logging API
//!   ([`error`]/[`warn`]/[`info`]/[`debug`]) with typed `key=value`
//!   fields; warn/error events are additionally retained in a bounded
//!   in-memory ring ([`events_since`]) for live tailing.
//! - **Live telemetry** — [`Gauge`]s (levels with min/max watermarks)
//!   and sliding-window series (1m/5m rates, window quantiles). Only the
//!   global [`Recorder`] holds them; they do not merge, and a snapshot
//!   freezes them ([`metrics::WindowStats`]). A Prometheus-style text exposition
//!   renderer serves them to external scrapers ([`expo`]).
//! - **Sinks** — a human-readable stderr logger (the only sanctioned
//!   `eprintln!` in the instrumented crates) and a machine-readable JSONL
//!   trace writer built on `diffaudit-json`.
//!
//! Instrumented library crates talk to one process-global [`Recorder`]
//! through the free functions below; the recorder defaults to level
//! `Warn` so libraries and tests stay quiet until the CLI calls
//! [`global`]`().configure(...)`.

pub mod compare;
pub mod event;
pub mod expo;
pub mod level;
pub mod metrics;
pub mod recorder;
pub mod report;
pub mod res;
pub mod scope;
pub mod sink;
pub mod trace;

pub use compare::{diff_snapshots, render_diff, DiffOptions, MetricsDiff, Verdict};
pub use event::{field, Field, FieldValue};
pub use expo::render_exposition;
pub use level::Level;
pub use metrics::{
    parse_snapshot, Gauge, Histogram, Metrics, MetricsSnapshot, ResStats, SpanStats, BYTE_BOUNDS,
    LATENCY_US_BOUNDS, RECORD_BOUNDS,
};
pub use recorder::{LocalRecorder, ObsConfig, Recorder, RingEvent, SpanGuard, EVENT_RING_CAP};
pub use report::{render_run_report, SALVAGE_PREFIX};
pub use res::ResUsage;
pub use scope::Scope;
pub use sink::{write_stderr_block, JsonlSink};
pub use trace::{
    render_resource_report, render_trace_report, SpanTree, TraceLog, TraceReportOptions,
};

use std::sync::OnceLock;

// lint:allow(global-state): the one sanctioned process-global — the obs recorder the whole
// workspace funnels through; per-pipeline recorders merge into it at join
static GLOBAL: OnceLock<Recorder> = OnceLock::new();

/// The process-global recorder (created on first use).
pub fn global() -> &'static Recorder {
    GLOBAL.get_or_init(Recorder::new)
}

/// Enter a span on the global recorder; the guard closes it on drop.
pub fn span(name: impl Into<String>) -> SpanGuard<'static> {
    global().enter(name)
}

/// Emit an `error` event on the global recorder.
pub fn error(msg: &str, fields: &[Field]) {
    global().event(Level::Error, msg, fields);
}

/// Emit a `warn` event on the global recorder.
pub fn warn(msg: &str, fields: &[Field]) {
    global().event(Level::Warn, msg, fields);
}

/// Emit an `info` event on the global recorder.
pub fn info(msg: &str, fields: &[Field]) {
    global().event(Level::Info, msg, fields);
}

/// Emit a `debug` event on the global recorder.
pub fn debug(msg: &str, fields: &[Field]) {
    global().event(Level::Debug, msg, fields);
}

/// Add `n` to global counter `name`.
pub fn add(name: &str, n: u64) {
    global().add(name, n);
}

/// Record `value` into global histogram `name` over `bounds`.
pub fn observe(name: &str, bounds: &[u64], value: u64) {
    global().observe(name, bounds, value);
}

/// Set global gauge `name` to `value` (authoritative-writer form).
pub fn gauge_set(name: &str, value: i64) {
    global().gauge_set(name, value);
}

/// Move global gauge `name` by `delta`.
pub fn gauge_add(name: &str, delta: i64) {
    global().gauge_add(name, delta);
}

/// Move global gauge `name` down by `delta`.
pub fn gauge_sub(name: &str, delta: i64) {
    global().gauge_sub(name, delta);
}

/// Add `n` to the global sliding-window counter `name`.
pub fn window_add(name: &str, n: u64) {
    global().window_add(name, n);
}

/// Record `value` into the global sliding-window histogram `name`.
pub fn window_observe(name: &str, bounds: &[u64], value: u64) {
    global().window_observe(name, bounds, value);
}

/// Retained warn/error events newer than ring cursor `since` (see
/// [`Recorder::events_since`]).
pub fn events_since(since: u64) -> Vec<RingEvent> {
    global().events_since(since)
}

/// Snapshot the global recorder's metrics.
pub fn snapshot() -> MetricsSnapshot {
    global().snapshot()
}

/// Merge a worker thread's [`LocalRecorder`] into the global registry
/// (call once per worker, at join).
pub fn absorb(local: LocalRecorder) {
    global().absorb(local);
}

/// Flush the global trace sink.
pub fn flush() {
    global().flush();
}

/// Start resource profiling on the global recorder: a background `/proc`
/// sampler plus per-span RSS/CPU attribution. Returns `false` (and changes
/// nothing) when `/proc` is unavailable — see [`Recorder::enable_resources`].
pub fn enable_resources(interval: std::time::Duration) -> bool {
    global().enable_resources(interval)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_veneer_is_usable() {
        // The global recorder is shared across the test binary; use names
        // unique to this test and assert only on them.
        add("obs.lib.test.counter", 2);
        observe("obs.lib.test.hist", &RECORD_BOUNDS, 3);
        {
            let _span = span("obs.lib.test.span");
        }
        let snap = snapshot();
        assert_eq!(snap.metrics.counter("obs.lib.test.counter"), 2);
        assert!(snap.metrics.spans().any(|(n, _)| n == "obs.lib.test.span"));
        assert!(snap
            .metrics
            .histograms()
            .any(|(n, _)| n == "obs.lib.test.hist"));
    }
}
