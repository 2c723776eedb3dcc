//! The recorder: one object owning the level filter, the sinks, the metric
//! registry, and the active span stacks (one per thread).
//!
//! Library code talks to the process-global recorder through the free
//! functions in [`crate`]; tests build private [`Recorder`]s and assert on
//! their snapshots without cross-test interference.

use crate::event::Field;
use crate::level::Level;
use crate::metrics::{
    Gauge, Histogram, Metrics, MetricsSnapshot, ResStats, Window, Windowed, LATENCY_US_BOUNDS,
};
use crate::res::{self, ResUsage};
use crate::sink::{event_record, span_record, write_stderr, JsonlSink};
use diffaudit_json::Json;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// How many warn/error events the in-memory ring retains.
pub const EVENT_RING_CAP: usize = 256;

/// One retained warn/error event: everything `obs tail` needs, with the
/// fields pre-rendered to text so the ring holds no live references.
#[derive(Debug, Clone)]
pub struct RingEvent {
    /// Position in the ring's own monotonic sequence (1-based). Distinct
    /// from the trace sink's `seq`, which only advances while a trace is
    /// attached — the ring must stay a usable cursor either way.
    pub seq: u64,
    /// Microseconds since the recorder started.
    pub t_us: u64,
    /// Event severity (always `Warn` or `Error` here).
    pub level: Level,
    /// The event message.
    pub msg: String,
    /// Pre-rendered `key=value` fields, space-separated (may be empty).
    pub fields: String,
}

impl RingEvent {
    /// JSON representation (the `/api/v1/events` document entry).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("seq", Json::int(self.seq.min(i64::MAX as u64) as i64))
            .with("tUs", Json::int(self.t_us.min(i64::MAX as u64) as i64))
            .with("level", Json::str(self.level.label()))
            .with("msg", Json::str(self.msg.clone()))
            .with("fields", Json::str(self.fields.clone()))
    }
}

/// Recorder configuration, applied by [`Recorder::configure`].
#[derive(Debug, Default)]
pub struct ObsConfig {
    /// New stderr filter level (`None` keeps the current one).
    pub level: Option<Level>,
    /// Enable/disable the stderr sink (`None` keeps the current state).
    pub stderr: Option<bool>,
    /// Attach a JSONL trace sink (`None` keeps the current one).
    pub trace: Option<JsonlSink>,
}

/// One open span on a thread's stack: its name and the parent its trace
/// record will name, fixed when the span opens, and under profiling its
/// enter sample and the highest RSS seen since.
struct OpenSpan {
    name: String,
    parent: Option<String>,
    enter: Option<ResUsage>,
    /// Raised by every sampler tick while the span is open.
    peak_rss_bytes: u64,
}

struct Inner {
    start: Instant,
    seq: u64,
    trace: Option<JsonlSink>,
    metrics: Metrics,
    /// Live instruments. Unlike `metrics` they never merge: only this
    /// recorder writes them, and [`Recorder::snapshot`] freezes them.
    gauges: BTreeMap<String, Gauge>,
    windows: BTreeMap<String, Windowed>,
    /// The spans currently open on each thread, outermost first; threads
    /// with none have no entry. Threads open spans concurrently (the
    /// daemon's accept thread and a load generator's main thread, say),
    /// so each thread nests only under its own open spans.
    stacks: HashMap<ThreadId, Vec<OpenSpan>>,
    /// The last [`EVENT_RING_CAP`] warn/error events, oldest first.
    ring: VecDeque<RingEvent>,
    /// Monotonic cursor for the ring (advances on every retained event).
    ring_seq: u64,
    /// The first resource sample, the whole run's baseline (`None` until
    /// [`Recorder::enable_resources`] succeeds — i.e. never on a platform
    /// without `/proc`).
    first: Option<ResUsage>,
    /// Span resources by name, folded at span exit. Like the gauges they
    /// never merge: only this recorder's span guards sample `/proc`.
    resources: BTreeMap<String, ResStats>,
}

/// The observability recorder.
pub struct Recorder {
    level: AtomicU8,
    stderr: AtomicBool,
    /// Lock-free mirror of `inner.first.is_some()` so span enter/exit can
    /// skip the `/proc` reads entirely when profiling is off.
    res_on: AtomicBool,
    inner: Mutex<Inner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Recorder")
    }
}

fn lock_inner(recorder: &Recorder) -> std::sync::MutexGuard<'_, Inner> {
    // Observability must never poison-panic the audit: if a panicking
    // thread held the lock, keep using the (counter-only) state.
    match recorder.inner.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Recorder {
    /// A fresh recorder: level `Warn`, stderr on, no trace sink. The quiet
    /// default keeps library consumers (tests, benches) silent while still
    /// surfacing real problems; the CLI raises the level to `Info`.
    pub fn new() -> Recorder {
        Recorder {
            level: AtomicU8::new(Level::Warn.as_u8()),
            stderr: AtomicBool::new(true),
            res_on: AtomicBool::new(false),
            inner: Mutex::new(Inner {
                start: Instant::now(),
                seq: 0,
                trace: None,
                metrics: Metrics::new(),
                gauges: BTreeMap::new(),
                windows: BTreeMap::new(),
                stacks: HashMap::new(),
                ring: VecDeque::new(),
                ring_seq: 0,
                first: None,
                resources: BTreeMap::new(),
            }),
        }
    }

    /// Start resource profiling: take a first `/proc` sample and spawn a
    /// background sampler thread that, every `interval`, sets the process
    /// gauges ([`res::PROCESS_RSS_GAUGE`], [`res::PROCESS_CPU_US_GAUGE`])
    /// and raises the peak RSS of every open span.
    ///
    /// Returns `false` when `/proc` is unavailable (non-Linux) — the
    /// recorder then behaves exactly as before: no resource fields anywhere.
    /// Idempotent: a second call on an already-profiling recorder is a
    /// no-op returning `true`. Requires the process-global recorder (the
    /// sampler thread holds the reference for the process lifetime).
    pub fn enable_resources(&'static self, interval: Duration) -> bool {
        let Some(first) = res::sample_self() else {
            return false;
        };
        {
            let mut inner = lock_inner(self);
            if inner.first.is_some() {
                return true;
            }
            inner.first = Some(first);
        }
        self.fold_sample(first);
        self.res_on.store(true, Ordering::Relaxed);
        let interval = interval.max(Duration::from_millis(1));
        std::thread::Builder::new()
            .name("obs-res-sampler".into())
            .spawn(move || loop {
                std::thread::sleep(interval);
                // A vanished /proc mid-run (should not happen) ends the
                // sampler; the last folded sample stays authoritative.
                let Some(usage) = res::sample_self() else {
                    break;
                };
                self.fold_sample(usage);
            })
            .is_ok()
    }

    /// Fold one sample in under a single lock: set the two process gauges
    /// and raise the peak RSS of every span open at this moment.
    fn fold_sample(&self, usage: ResUsage) {
        let mut inner = lock_inner(self);
        inner
            .gauge(res::PROCESS_RSS_GAUGE)
            .set(clamp_i64(usage.rss_bytes));
        inner
            .gauge(res::PROCESS_CPU_US_GAUGE)
            .set(clamp_i64(usage.cpu_us));
        for open in inner.stacks.values_mut().flatten() {
            open.peak_rss_bytes = open.peak_rss_bytes.max(usage.rss_bytes);
        }
    }

    /// Apply a configuration.
    pub fn configure(&self, config: ObsConfig) {
        if let Some(level) = config.level {
            self.level.store(level.as_u8(), Ordering::Relaxed);
        }
        if let Some(stderr) = config.stderr {
            self.stderr.store(stderr, Ordering::Relaxed);
        }
        if let Some(sink) = config.trace {
            lock_inner(self).trace = Some(sink);
        }
    }

    /// Open a file trace sink at `path`.
    pub fn trace_to_file(&self, path: &Path) -> std::io::Result<()> {
        let sink = JsonlSink::create(path)?;
        lock_inner(self).trace = Some(sink);
        Ok(())
    }

    /// Attach an arbitrary writer as the trace sink (tests).
    pub fn trace_to_writer(&self, out: Box<dyn Write + Send>) {
        lock_inner(self).trace = Some(JsonlSink::new(out));
    }

    /// The current stderr filter level.
    pub fn level(&self) -> Level {
        Level::from_u8(self.level.load(Ordering::Relaxed))
    }

    /// Emit a structured event. Events at or above the filter level go to
    /// stderr (when enabled); every event goes to the trace sink.
    pub fn event(&self, level: Level, msg: &str, fields: &[Field]) {
        if self.stderr.load(Ordering::Relaxed) && level.passes(self.level()) {
            write_stderr(level, msg, fields);
        }
        let mut inner = lock_inner(self);
        // Warn/error events are retained in a bounded ring regardless of
        // the stderr filter and trace sink, so `obs tail` can stream a
        // daemon's recent problems after the fact.
        if level.passes(Level::Warn) {
            inner.ring_seq += 1;
            let event = RingEvent {
                seq: inner.ring_seq,
                t_us: elapsed_us(inner.start),
                level,
                msg: msg.to_string(),
                fields: fields
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(" "),
            };
            if inner.ring.len() >= EVENT_RING_CAP {
                inner.ring.pop_front();
            }
            inner.ring.push_back(event);
        }
        if inner.trace.is_some() {
            inner.seq += 1;
            let seq = inner.seq;
            let t_us = elapsed_us(inner.start);
            let record = event_record(seq, t_us, level, msg, fields);
            if let Some(trace) = inner.trace.as_mut() {
                trace.write(&record);
            }
        }
    }

    /// Enter a named span; the returned guard closes it on drop, recording
    /// wall time into the metrics and (when attached) the trace sink.
    pub fn enter(&self, name: impl Into<String>) -> SpanGuard<'_> {
        let name = name.into();
        // Sample /proc before taking the lock so profiling cost never
        // extends the critical section.
        let enter = self.sample();
        let thread = std::thread::current().id();
        let mut inner = lock_inner(self);
        let stack = inner.stacks.entry(thread).or_default();
        let parent = stack.last().map(|top| top.name.clone());
        stack.push(OpenSpan {
            name: name.clone(),
            parent,
            enter,
            peak_rss_bytes: enter.map_or(0, |usage| usage.rss_bytes),
        });
        drop(inner);
        SpanGuard {
            recorder: self,
            name,
            thread,
            start: Instant::now(),
            closed: false,
        }
    }

    /// A `/proc` sample when profiling is on.
    fn sample(&self) -> Option<ResUsage> {
        self.res_on
            .load(Ordering::Relaxed)
            .then(res::sample_self)
            .flatten()
    }

    fn exit_span(&self, name: &str, thread: ThreadId, start: Instant) {
        let dur_us = elapsed_us(start);
        let exit = self.sample();
        let mut inner = lock_inner(self);
        // Pop this span off its thread's stack (LIFO by construction;
        // tolerate an out-of-order drop by removing the last matching
        // entry). A thread whose stack empties leaves the map.
        let mut open = None;
        if let Some(stack) = inner.stacks.get_mut(&thread) {
            if let Some(at) = stack.iter().rposition(|open| open.name == name) {
                open = Some(stack.remove(at));
            }
            if stack.is_empty() {
                inner.stacks.remove(&thread);
            }
        }
        let parent = open.as_ref().and_then(|open| open.parent.as_deref());
        inner.metrics.span_done(name, dur_us);
        inner
            .metrics
            // lint:allow(metric-discipline): the `{span}.us` histogram is
            // derived from the span name, which is itself a static literal
            // at every `span()`/`enter()` call site — no new cardinality.
            .observe(&format!("{name}.us"), &LATENCY_US_BOUNDS, dur_us);
        // What the span spent: its enter and exit samples, and the peak
        // the sampler raised while it was open.
        let spent = open.as_ref().zip(exit).and_then(|(open, exit)| {
            let enter = open.enter?;
            Some(ResStats {
                count: 1,
                peak_rss_bytes: open.peak_rss_bytes.max(exit.rss_bytes),
                rss_delta_bytes: exit.rss_bytes as i64 - enter.rss_bytes as i64,
                cpu_us: exit.cpu_us.saturating_sub(enter.cpu_us),
            })
        });
        if let Some(spent) = &spent {
            inner
                .resources
                .entry(name.to_string())
                .or_default()
                .merge_from(spent);
        }
        if inner.trace.is_some() {
            inner.seq += 1;
            let seq = inner.seq;
            let t_us = elapsed_us(inner.start);
            let mut record = span_record(seq, t_us, name, parent, dur_us);
            if let Some(spent) = &spent {
                record.set("res", spent.to_json());
            }
            if let Some(trace) = inner.trace.as_mut() {
                trace.write(&record);
            }
        }
    }

    /// Add `n` to counter `name`.
    pub fn add(&self, name: &str, n: u64) {
        lock_inner(self).metrics.add(name, n);
    }

    /// Record `value` into histogram `name` over `bounds`.
    pub fn observe(&self, name: &str, bounds: &[u64], value: u64) {
        lock_inner(self).metrics.observe(name, bounds, value);
    }

    /// Set gauge `name` to `value` (authoritative-writer form).
    pub fn gauge_set(&self, name: &str, value: i64) {
        lock_inner(self).gauge(name).set(value);
    }

    /// Move gauge `name` by `delta`.
    pub fn gauge_add(&self, name: &str, delta: i64) {
        lock_inner(self).gauge(name).add(delta);
    }

    /// Move gauge `name` down by `delta`.
    pub fn gauge_sub(&self, name: &str, delta: i64) {
        lock_inner(self).gauge(name).sub(delta);
    }

    /// Add `n` to the sliding-window counter `name` (created on first
    /// use) and to the plain counter `name`, which holds the window's
    /// since-creation total. A no-op when `name` is a window *histogram*:
    /// a name carries one window kind only.
    pub fn window_add(&self, name: &str, n: u64) {
        let mut inner = lock_inner(self);
        let inner = &mut *inner;
        let window = inner
            .windows
            .entry(name.to_string())
            .or_insert_with(|| Windowed::Counter(Window::new(0)));
        if let Windowed::Counter(window) = window {
            let slot = window.current();
            *slot = slot.saturating_add(n);
            inner.metrics.add(name, n);
        }
    }

    /// Record `value` into the sliding-window histogram `name` (created
    /// over `bounds` on first use) and into the plain histogram `name`,
    /// which holds the window's since-creation distribution. A no-op when
    /// `name` is a window *counter*.
    pub fn window_observe(&self, name: &str, bounds: &[u64], value: u64) {
        let mut inner = lock_inner(self);
        let inner = &mut *inner;
        let window = inner
            .windows
            .entry(name.to_string())
            .or_insert_with(|| Windowed::Histogram(Window::new(Histogram::new(bounds))));
        if let Windowed::Histogram(window) = window {
            window.current().record(value);
            inner.metrics.observe(name, bounds, value);
        }
    }

    /// Retained warn/error events with ring sequence strictly greater
    /// than `since`, oldest first (pass `0` for everything buffered).
    /// Events older than the ring capacity are gone — the returned
    /// events' `seq` fields tell the caller what it actually got.
    pub fn events_since(&self, since: u64) -> Vec<RingEvent> {
        lock_inner(self)
            .ring
            .iter()
            .filter(|e| e.seq > since)
            .cloned()
            .collect()
    }

    /// The newest retained event's ring sequence (0 when none yet) — the
    /// cursor a streaming consumer resumes from.
    pub fn ring_cursor(&self) -> u64 {
        lock_inner(self).ring_seq
    }

    /// An owned copy of the metric registry plus uptime, with the gauges
    /// and span resources copied and each sliding window frozen into its
    /// [`WindowStats`] as of now. When resource profiling is active, a
    /// synthetic `"process"` row summarizing the whole run is added to the
    /// resources: the RSS gauge's sample count and high-water mark, and
    /// the RSS and CPU moved since the first sample.
    ///
    /// [`WindowStats`]: crate::metrics::WindowStats
    pub fn snapshot(&self) -> MetricsSnapshot {
        let now = self.sample();
        let inner = lock_inner(self);
        let mut resources = inner.resources.clone();
        let rss = inner.gauges.get(res::PROCESS_RSS_GAUGE);
        if let (Some(first), Some(now), Some(rss)) = (inner.first, now, rss) {
            let peak = u64::try_from(rss.max().unwrap_or(0)).unwrap_or(0);
            let process = ResStats {
                count: rss.samples(),
                peak_rss_bytes: peak.max(now.rss_bytes),
                rss_delta_bytes: now.rss_bytes as i64 - first.rss_bytes as i64,
                cpu_us: now.cpu_us.saturating_sub(first.cpu_us),
            };
            resources.insert("process".to_string(), process);
        }
        let windows = inner
            .windows
            .iter()
            .map(|(name, window)| (name.clone(), window.freeze(&inner.metrics, name)))
            .collect();
        MetricsSnapshot {
            metrics: inner.metrics.clone(),
            gauges: inner.gauges.clone(),
            windows,
            resources,
            uptime_us: elapsed_us(inner.start),
        }
    }

    /// Flush the trace sink (call before process exit).
    pub fn flush(&self) {
        if let Some(trace) = lock_inner(self).trace.as_mut() {
            trace.flush();
        }
    }

    /// Merge a worker thread's [`LocalRecorder`] into this recorder's
    /// registry (one lock acquisition per worker, at join). Counters add,
    /// histograms merge bucket-wise, span stats fold — see
    /// [`Metrics::merge_from`] — so the final snapshot equals the serial
    /// run's regardless of thread count or join order.
    pub fn absorb(&self, local: LocalRecorder) {
        self.merge(local.into_metrics());
    }

    /// Merge an owned [`Metrics`] registry into this recorder — the same
    /// associative fold as [`Recorder::absorb`], for callers holding a
    /// finished job snapshot rather than a live `LocalRecorder`.
    pub fn merge(&self, metrics: Metrics) {
        lock_inner(self).metrics.merge_from(metrics);
    }
}

/// A private, lock-free metric recorder for one worker thread.
///
/// The global [`Recorder`] serializes every `add`/`observe` (and every
/// span's trace record) behind one mutex — fine for the serial stages,
/// hostile to per-unit work in a parallel one. Workers instead accumulate
/// into a `LocalRecorder` (plain owned [`Metrics`], no lock, no trace
/// writes, no span stack) and merge once at join via
/// [`Recorder::absorb`]. Timing spans recorded here feed the same
/// `SpanStats` + `{name}.us` latency histogram pair the global
/// [`Recorder::enter`] guard produces, so per-unit work is indistinguishable
/// in the snapshot from work timed on the main thread.
#[derive(Debug, Default)]
pub struct LocalRecorder {
    metrics: Metrics,
}

impl LocalRecorder {
    /// Empty recorder.
    pub fn new() -> LocalRecorder {
        LocalRecorder::default()
    }

    /// Add `n` to counter `name`.
    pub fn add(&mut self, name: &str, n: u64) {
        self.metrics.add(name, n);
    }

    /// Record `value` into histogram `name` over `bounds`.
    pub fn observe(&mut self, name: &str, bounds: &[u64], value: u64) {
        self.metrics.observe(name, bounds, value);
    }

    /// Time `f` as a completed span named `name`: records the duration into
    /// the span aggregate and the `{name}.us` latency histogram, mirroring
    /// what dropping a global span guard does, minus the trace record: a
    /// per-unit span aggregates into the snapshot instead of adding one
    /// trace line per unit. `f` is handed this recorder, so the work it
    /// times records its own counters and nested spans here too.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce(&mut LocalRecorder) -> R) -> R {
        let start = Instant::now();
        let out = f(self);
        let dur_us = elapsed_us(start);
        self.metrics.span_done(name, dur_us);
        self.metrics
            // lint:allow(metric-discipline): derived `{span}.us` histogram;
            // span names are static literals at their call sites.
            .observe(&format!("{name}.us"), &LATENCY_US_BOUNDS, dur_us);
        out
    }

    /// Record a completed span of already-measured duration: the same
    /// `SpanStats` + `{name}.us` histogram pair [`LocalRecorder::time`]
    /// produces, for callers that must not hold a lock while timing.
    pub fn span(&mut self, name: &str, dur_us: u64) {
        self.metrics.span_done(name, dur_us);
        self.metrics
            // lint:allow(metric-discipline): derived `{span}.us` histogram;
            // span names are static literals at their call sites.
            .observe(&format!("{name}.us"), &LATENCY_US_BOUNDS, dur_us);
    }

    /// Merge another local recorder into this one (job-scoped absorb).
    pub fn absorb(&mut self, other: LocalRecorder) {
        self.metrics.merge_from(other.into_metrics());
    }

    /// Borrow the accumulated registry (tests).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Consume the recorder, yielding its registry for merging.
    pub fn into_metrics(self) -> Metrics {
        self.metrics
    }
}

impl Inner {
    /// Gauge `name`, created at zero on first use.
    fn gauge(&mut self, name: &str) -> &mut Gauge {
        self.gauges.entry(name.to_string()).or_default()
    }
}

fn elapsed_us(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Saturating u64→i64 for byte/µs gauges (RSS never nears i64::MAX).
fn clamp_i64(v: u64) -> i64 {
    v.min(i64::MAX as u64) as i64
}

/// RAII guard for an open span; closes it on drop.
#[must_use = "a span closes when its guard drops — bind it with `let _span = ...`"]
pub struct SpanGuard<'a> {
    recorder: &'a Recorder,
    name: String,
    /// The thread whose stack the span was pushed on.
    thread: ThreadId,
    start: Instant,
    closed: bool,
}

impl SpanGuard<'_> {
    /// Close the span now (instead of at end of scope).
    pub fn finish(mut self) {
        self.close();
    }

    fn close(&mut self) {
        if !self.closed {
            self.closed = true;
            self.recorder.exit_span(&self.name, self.thread, self.start);
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::field;

    #[test]
    fn counters_and_histograms_accumulate() {
        let rec = Recorder::new();
        rec.add("records", 3);
        rec.add("records", 2);
        rec.observe("bytes", &[10, 100], 7);
        let snap = rec.snapshot();
        assert_eq!(snap.metrics.counter("records"), 5);
        assert_eq!(
            snap.metrics
                .histograms()
                .find(|(n, _)| *n == "bytes")
                .map(|(_, h)| h.count()),
            Some(1)
        );
    }

    #[test]
    fn span_guard_records_on_drop_and_nests() {
        let rec = Recorder::new();
        {
            let _outer = rec.enter("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = rec.enter("inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let snap = rec.snapshot();
        let outer = snap
            .metrics
            .spans()
            .find(|(n, _)| *n == "outer")
            .map(|(_, s)| *s)
            .unwrap();
        let inner = snap
            .metrics
            .spans()
            .find(|(n, _)| *n == "inner")
            .map(|(_, s)| *s)
            .unwrap();
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        // Monotonic timing: the outer span contains the inner one.
        assert!(outer.total_us >= inner.total_us, "{outer:?} vs {inner:?}");
        assert!(inner.total_us >= 1_000, "slept ≥1ms: {inner:?}");
        // The span also feeds its latency histogram.
        assert!(snap.metrics.histograms().any(|(n, _)| n == "outer.us"));
    }

    #[test]
    fn spans_nest_only_under_their_own_threads_open_spans() {
        use std::sync::{Arc, Mutex};
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl Write for Buf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let out = Arc::new(Mutex::new(Vec::new()));
        let rec = Recorder::new();
        rec.trace_to_writer(Box::new(Buf(Arc::clone(&out))));
        {
            let _root = rec.enter("audit");
            let _load = rec.enter("audit.load");
            // Two threads whose spans overlap in time with each other and
            // with the spans open above: each opens an outer span and a
            // nested one while the other thread's are open.
            let barrier = std::sync::Barrier::new(2);
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        let _request = rec.enter("request");
                        barrier.wait();
                        let _handler = rec.enter("handler");
                        barrier.wait();
                    });
                }
            });
        }
        rec.flush();
        let text = String::from_utf8(out.lock().unwrap().clone()).unwrap();
        let log = crate::trace::TraceLog::parse(&text);
        let parents: Vec<(&str, Option<&str>)> = log
            .spans()
            .map(|s| (s.name.as_str(), s.parent.as_deref()))
            .collect();
        let parent_of = |name: &str| -> Vec<Option<&str>> {
            parents
                .iter()
                .filter(|(n, _)| *n == name)
                .map(|(_, p)| *p)
                .collect()
        };
        // A span opened on a thread with no open span of its own has no
        // parent, whatever other threads have open.
        assert_eq!(parent_of("request"), vec![None; 2]);
        assert_eq!(parent_of("handler"), vec![Some("request"); 2]);
        assert_eq!(parent_of("audit.load"), vec![Some("audit")]);
        assert_eq!(parent_of("audit"), vec![None]);
    }

    #[test]
    fn level_filter_gates_stderr_but_not_metrics() {
        let rec = Recorder::new();
        rec.configure(ObsConfig {
            level: Some(Level::Error),
            stderr: Some(false),
            trace: None,
        });
        assert_eq!(rec.level(), Level::Error);
        // No assertion on stderr output (disabled); events still sequence
        // into the trace when one is attached later.
        rec.event(Level::Debug, "quiet", &[field("k", 1u64)]);
        assert_eq!(rec.snapshot().metrics.counters().count(), 0);
    }

    #[test]
    fn local_recorders_absorb_like_direct_recording() {
        let direct = Recorder::new();
        direct.add("units", 3);
        direct.add("units", 2);
        direct.observe("exchanges", &crate::metrics::RECORD_BOUNDS, 7);
        direct.observe("exchanges", &crate::metrics::RECORD_BOUNDS, 900);

        let absorbed = Recorder::new();
        let mut a = LocalRecorder::new();
        a.add("units", 3);
        a.observe("exchanges", &crate::metrics::RECORD_BOUNDS, 7);
        let mut b = LocalRecorder::new();
        b.add("units", 2);
        b.observe("exchanges", &crate::metrics::RECORD_BOUNDS, 900);
        absorbed.absorb(b);
        absorbed.absorb(a);

        let left = direct.snapshot().metrics;
        let right = absorbed.snapshot().metrics;
        assert_eq!(left.counter("units"), right.counter("units"));
        let hist = |m: &Metrics| {
            m.histograms()
                .find(|(n, _)| *n == "exchanges")
                .map(|(_, h)| h.clone())
                .unwrap()
        };
        assert_eq!(hist(&left), hist(&right));
    }

    #[test]
    fn local_time_feeds_span_stats_and_latency_histogram() {
        let mut local = LocalRecorder::new();
        let out = local.time("unit.decode", |_| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            42
        });
        assert_eq!(out, 42);
        let rec = Recorder::new();
        rec.absorb(local);
        let snap = rec.snapshot();
        let stats = snap
            .metrics
            .spans()
            .find(|(n, _)| *n == "unit.decode")
            .map(|(_, s)| *s)
            .unwrap();
        assert_eq!(stats.count, 1);
        assert!(stats.total_us >= 1_000, "slept ≥1ms: {stats:?}");
        assert!(snap
            .metrics
            .histograms()
            .any(|(n, _)| n == "unit.decode.us"));
    }

    #[test]
    fn warn_and_error_events_land_in_the_ring() {
        let rec = Recorder::new();
        rec.configure(ObsConfig {
            level: Some(Level::Error),
            stderr: Some(false),
            trace: None,
        });
        rec.event(Level::Info, "not retained", &[]);
        rec.event(Level::Warn, "queue full", &[field("depth", 4u64)]);
        rec.event(Level::Error, "job panicked", &[]);
        let events = rec.events_since(0);
        assert_eq!(events.len(), 2, "{events:?}");
        assert_eq!(events[0].msg, "queue full");
        assert_eq!(events[0].fields, "depth=4");
        assert_eq!(events[0].level, Level::Warn);
        assert_eq!(events[1].seq, events[0].seq + 1);
        assert_eq!(rec.ring_cursor(), events[1].seq);
        // Cursor-based resume: only newer events come back.
        let newer = rec.events_since(events[0].seq);
        assert_eq!(newer.len(), 1);
        assert_eq!(newer[0].msg, "job panicked");
        assert!(rec.events_since(events[1].seq).is_empty());
    }

    #[test]
    fn event_ring_is_bounded() {
        let rec = Recorder::new();
        rec.configure(ObsConfig {
            level: Some(Level::Error),
            stderr: Some(false),
            trace: None,
        });
        for i in 0..(EVENT_RING_CAP + 10) {
            rec.event(Level::Warn, &format!("e{i}"), &[]);
        }
        let events = rec.events_since(0);
        assert_eq!(events.len(), EVENT_RING_CAP);
        // Oldest entries were evicted; sequence numbers keep counting.
        assert_eq!(events[0].seq, 11);
        assert_eq!(
            events.last().map(|e| e.seq),
            Some((EVENT_RING_CAP + 10) as u64)
        );
    }

    #[test]
    fn recorder_gauges_and_windows_reach_the_snapshot() {
        let rec = Recorder::new();
        rec.gauge_add("depth", 3);
        rec.gauge_sub("depth", 1);
        rec.gauge_set("workers", 2);
        rec.window_add("reqs", 5);
        let snap = rec.snapshot();
        assert_eq!(snap.gauges.get("depth").map(Gauge::value), Some(2));
        assert_eq!(snap.gauges.get("workers").map(Gauge::value), Some(2));
        assert_eq!(snap.windows.get("reqs").map(|w| w.total), Some(5));
        // A job's registry merging in leaves the live instruments alone.
        let mut job = Metrics::new();
        job.add("units", 1);
        rec.merge(job);
        assert_eq!(rec.snapshot().gauges, snap.gauges);
    }

    #[test]
    fn resource_profiling_attributes_spans_or_degrades() {
        // Leak a recorder to satisfy `enable_resources`'s `&'static self`
        // without touching the process-global one (test isolation).
        let rec: &'static Recorder = Box::leak(Box::new(Recorder::new()));
        let enabled = rec.enable_resources(Duration::from_millis(5));
        if res::sample_self().is_none() {
            // Non-Linux degradation: profiling refuses, spans stay plain.
            assert!(!enabled);
            rec.enter("stage").finish();
            assert!(rec.snapshot().resources.is_empty());
            return;
        }
        assert!(enabled);
        // Idempotent second enable.
        assert!(rec.enable_resources(Duration::from_millis(5)));
        {
            let _span = rec.enter("stage");
            std::thread::sleep(Duration::from_millis(1));
        }
        let snap = rec.snapshot();
        let stage = snap.resources["stage"];
        assert_eq!(stage.count, 1);
        assert!(stage.peak_rss_bytes > 0, "{stage:?}");
        // The synthetic whole-process entry is computed at snapshot time.
        let process = snap.resources["process"];
        assert!(process.peak_rss_bytes >= stage.peak_rss_bytes);
        assert!(process.count >= 1);
        // The sampler keeps the process gauges current.
        assert!(snap.gauges.contains_key(res::PROCESS_RSS_GAUGE));
        assert!(snap.gauges.contains_key(res::PROCESS_CPU_US_GAUGE));
    }

    #[test]
    fn sampler_ticks_raise_only_the_spans_open_at_that_moment() {
        let rec: &'static Recorder = Box::leak(Box::new(Recorder::new()));
        // An hour-long interval: the one tick below is the only fold.
        if !rec.enable_resources(Duration::from_secs(3_600)) {
            assert!(res::sample_self().is_none());
            return;
        }
        rec.enter("closed").finish();
        let closed = rec.snapshot().resources["closed"];
        let real = res::sample_self().expect("profiling implies /proc");
        let synthetic = ResUsage {
            rss_bytes: 1 << 50,
            ..real
        };
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _open = rec.enter("open");
                barrier.wait(); // the span is open
                barrier.wait(); // the tick has folded
            });
            barrier.wait();
            rec.fold_sample(synthetic);
            barrier.wait();
        });
        let snap = rec.snapshot();
        let doc = snap.to_json();
        assert_eq!(
            doc.pointer("/resources/open/peakRssB")
                .and_then(Json::as_i64),
            Some(1 << 50)
        );
        assert_eq!(snap.resources["closed"], closed);
        let rss = &snap.gauges[res::PROCESS_RSS_GAUGE];
        assert_eq!(snap.resources["process"].count, rss.samples());
        assert_eq!(snap.resources["process"].peak_rss_bytes, 1 << 50);
    }

    #[test]
    fn spans_without_profiling_record_no_resources() {
        let rec = Recorder::new();
        {
            let _span = rec.enter("plain");
        }
        assert!(rec.snapshot().resources.is_empty());
    }

    #[test]
    fn finish_closes_early_and_drop_does_not_double_count() {
        let rec = Recorder::new();
        let span = rec.enter("once");
        span.finish();
        let snap = rec.snapshot();
        let stats = snap
            .metrics
            .spans()
            .find(|(n, _)| *n == "once")
            .map(|(_, s)| *s)
            .unwrap();
        assert_eq!(stats.count, 1);
    }
}
