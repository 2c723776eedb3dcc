//! Typed counters, fixed-bucket histograms, span timing aggregates, and
//! the live gauges and sliding windows of the global recorder — plus the
//! one model of the `diffaudit-obs/v1` document: every type here writes
//! itself with `to_json` and reads itself back with `from_json`.
//!
//! Everything here is plain data guarded by the recorder's lock; the
//! exported [`MetricsSnapshot`] is an owned copy so report rendering and
//! JSON export never hold the lock.

use diffaudit_json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Fixed upper-bound buckets for byte volumes (64 B … 4 MiB, then overflow).
pub const BYTE_BOUNDS: [u64; 9] = [
    64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576, 4_194_304,
];

/// Fixed upper-bound buckets for record counts per container.
pub const RECORD_BOUNDS: [u64; 8] = [1, 4, 16, 64, 256, 1_024, 4_096, 16_384];

/// Fixed upper-bound buckets for latencies in microseconds (10 µs … 10 s).
pub const LATENCY_US_BOUNDS: [u64; 7] = [10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// The schema string a metrics document must carry.
pub const SNAPSHOT_SCHEMA: &str = "diffaudit-obs/v1";

/// Why a document could not be read as a metrics snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The text is not valid JSON.
    Json(String),
    /// The `schema` field is missing or not [`SNAPSHOT_SCHEMA`].
    Schema(Option<String>),
    /// A required field is missing or has the wrong type.
    Shape(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Json(e) => write!(f, "invalid JSON: {e}"),
            SnapshotError::Schema(found) => {
                write!(f, "not a {SNAPSHOT_SCHEMA} document (schema = {found:?})")
            }
            SnapshotError::Shape(what) => write!(f, "malformed snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A `u64` as a JSON integer, saturating at `i64::MAX`.
fn uint(v: u64) -> Json {
    Json::int(v.min(i64::MAX as u64) as i64)
}

fn as_u64(json: &Json) -> Result<u64, SnapshotError> {
    json.as_i64()
        .and_then(|v| u64::try_from(v).ok())
        .ok_or_else(|| SnapshotError::Shape("is not a non-negative integer".into()))
}

/// Field `key` of `obj` read by `read`; `None` when absent or `null`.
fn opt<T>(
    obj: &Json,
    key: &str,
    read: impl Fn(&Json) -> Option<T>,
    what: &str,
) -> Result<Option<T>, SnapshotError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => read(v)
            .map(Some)
            .ok_or_else(|| SnapshotError::Shape(format!("{key} is not {what}"))),
    }
}

fn opt_u64(obj: &Json, key: &str) -> Result<Option<u64>, SnapshotError> {
    opt(obj, key, |v| as_u64(v).ok(), "a non-negative integer")
}

fn opt_i64(obj: &Json, key: &str) -> Result<Option<i64>, SnapshotError> {
    opt(obj, key, Json::as_i64, "an integer")
}

fn opt_f64(obj: &Json, key: &str) -> Result<Option<f64>, SnapshotError> {
    opt(obj, key, Json::as_f64, "a number")
}

/// A field that must be present.
fn required<T>(value: Option<T>, key: &str) -> Result<T, SnapshotError> {
    value.ok_or_else(|| SnapshotError::Shape(format!("lacks {key}")))
}

/// A histogram over fixed upper-bound buckets plus an overflow bucket.
///
/// Bucket semantics: a value `v` lands in the first bucket whose bound
/// satisfies `v <= bound`; values above every bound land in the overflow
/// bucket. Bounds are fixed at creation so merged snapshots stay comparable
/// across runs — the property a perf baseline needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// `bounds.len() + 1` entries; the last is the overflow bucket.
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Empty histogram over `bounds` (must be ascending).
    pub fn new(bounds: &[u64]) -> Histogram {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        if let Some(slot) = self.counts.get_mut(idx) {
            *slot += 1;
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The bucket upper bounds, overflow bucket excluded.
    pub(crate) fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// `(upper_bound, count)` per bucket; the final entry has `None` as its
    /// bound — the overflow bucket.
    pub fn buckets(&self) -> impl Iterator<Item = (Option<u64>, u64)> + '_ {
        self.bounds
            .iter()
            .map(|&b| Some(b))
            .chain(std::iter::once(None))
            .zip(self.counts.iter().copied())
    }

    /// Bucket-based estimate of the `q`-quantile (see [`estimate_quantile`]).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let buckets: Vec<(Option<u64>, u64)> = self.buckets().collect();
        estimate_quantile(&buckets, self.count, self.min()?, self.max()?, q)
    }

    /// Merge another histogram into this one. With identical bounds (the
    /// common case — every call site uses one of the fixed bound tables)
    /// the merge is exact: bucket-wise count addition, saturating sum, and
    /// min/max folding, so merging per-thread histograms at join yields the
    /// same registry the serial path builds. Mismatched bounds degrade
    /// gracefully: each foreign bucket is re-bucketed at its upper bound
    /// (the overflow bucket at the observed max), preserving count, sum,
    /// and extrema exactly and bucket placement approximately.
    pub fn merge_from(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.bounds == other.bounds {
            for (slot, n) in self.counts.iter_mut().zip(other.counts.iter()) {
                *slot = slot.saturating_add(*n);
            }
        } else {
            for (bound, n) in other.buckets() {
                let value = bound.unwrap_or(other.max);
                let idx = self
                    .bounds
                    .iter()
                    .position(|&b| value <= b)
                    .unwrap_or(self.bounds.len());
                if let Some(slot) = self.counts.get_mut(idx) {
                    *slot = slot.saturating_add(n);
                }
            }
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// JSON representation (part of the `--metrics-out` document).
    pub fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .buckets()
            .map(|(bound, count)| {
                Json::obj()
                    .with("le", bound.map_or(Json::Null, uint))
                    .with("count", uint(count))
            })
            .collect();
        Json::obj()
            .with("count", uint(self.count))
            .with("sum", uint(self.sum))
            .with("min", self.min().map_or(Json::Null, uint))
            .with("max", self.max().map_or(Json::Null, uint))
            .with("buckets", Json::Arr(buckets))
    }

    /// Read [`Histogram::to_json`]'s output back. The buckets must end in
    /// exactly one overflow bucket (`"le": null`). The bucket counts need
    /// not sum to `count`: `obs diff` reports such a document as a
    /// conservation violation rather than refusing it.
    pub fn from_json(json: &Json) -> Result<Histogram, SnapshotError> {
        let buckets = required(json.get("buckets").and_then(Json::as_arr), "buckets")?;
        let Some((overflow, rest)) = buckets.split_last() else {
            return Err(SnapshotError::Shape("has no buckets".into()));
        };
        let mut bounds = Vec::with_capacity(rest.len());
        for bucket in rest {
            bounds.push(required(opt_u64(bucket, "le")?, "a bucket bound")?);
        }
        if opt_u64(overflow, "le")?.is_some() {
            return Err(SnapshotError::Shape(
                "does not end in an overflow bucket".into(),
            ));
        }
        let counts = buckets
            .iter()
            .map(|bucket| required(opt_u64(bucket, "count")?, "a bucket count"))
            .collect::<Result<Vec<u64>, SnapshotError>>()?;
        let count = required(opt_u64(json, "count")?, "count")?;
        let (min, max) = (opt_u64(json, "min")?, opt_u64(json, "max")?);
        if count > 0 && (min.is_none() || max.is_none()) {
            return Err(SnapshotError::Shape(
                "has observations but lacks min or max".into(),
            ));
        }
        Ok(Histogram {
            bounds,
            counts,
            count,
            sum: opt_u64(json, "sum")?.unwrap_or(0),
            min: min.unwrap_or(u64::MAX),
            max: max.unwrap_or(0),
        })
    }
}

/// Estimate the `q`-quantile of a bucketed distribution by linear
/// interpolation inside the bucket containing the target rank.
///
/// `buckets` are ascending `(upper_bound, count)` pairs ending with the
/// `None` overflow bucket — exactly what [`Histogram::buckets`] yields.
/// Edges: the first bucket's lower edge is `min`, the overflow bucket's
/// upper edge is `max`, and every interior edge is the neighbouring bound;
/// the estimate is clamped to `[min, max]`, which makes single-observation
/// and single-bucket distributions exact. The target rank is `q * count`,
/// so `q = 1.0` lands on the last observation.
///
/// Returns `None` when the distribution is empty or `q` is outside
/// `(0, 1]`. When the bucket counts undershoot `count` (a conservation
/// violation in a hand-edited document) the estimate degrades to `max`
/// rather than failing.
fn estimate_quantile(
    buckets: &[(Option<u64>, u64)],
    count: u64,
    min: u64,
    max: u64,
    q: f64,
) -> Option<f64> {
    if count == 0 || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    let (min_f, max_f) = (min as f64, max as f64);
    let target = q * count as f64;
    let mut cum = 0u64;
    let mut lower = min_f;
    for (bound, n) in buckets {
        let upper = bound.map_or(max_f, |b| b as f64);
        if *n > 0 {
            let next_cum = cum + n;
            if target <= next_cum as f64 {
                let lo = lower.clamp(min_f, max_f);
                let hi = upper.clamp(lo, max_f);
                let frac = (target - cum as f64) / *n as f64;
                return Some(lo + frac * (hi - lo));
            }
            cum = next_cum;
        }
        lower = upper.max(lower);
    }
    Some(max_f)
}

/// Aggregate wall-time statistics for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Completed spans under this name.
    pub count: u64,
    /// Total wall time, microseconds.
    pub total_us: u64,
    /// Shortest single span, microseconds.
    pub min_us: u64,
    /// Longest single span, microseconds.
    pub max_us: u64,
}

impl SpanStats {
    fn record(&mut self, dur_us: u64) {
        if self.count == 0 {
            self.min_us = dur_us;
        } else {
            self.min_us = self.min_us.min(dur_us);
        }
        self.count += 1;
        self.total_us = self.total_us.saturating_add(dur_us);
        self.max_us = self.max_us.max(dur_us);
    }

    /// Merge another aggregate into this one (counts and totals add,
    /// extrema fold). An empty side is the identity, so the merge is
    /// associative and commutative — per-thread span stats can join in any
    /// order and still equal the serial aggregate.
    pub fn merge_from(&mut self, other: &SpanStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count = self.count.saturating_add(other.count);
        self.total_us = self.total_us.saturating_add(other.total_us);
        self.min_us = self.min_us.min(other.min_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// JSON representation.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("count", uint(self.count))
            .with("totalUs", uint(self.total_us))
            .with("minUs", uint(self.min_us))
            .with("maxUs", uint(self.max_us))
    }

    /// Read [`SpanStats::to_json`]'s output back; every field is required.
    pub fn from_json(json: &Json) -> Result<SpanStats, SnapshotError> {
        let field = |key: &str| required(opt_u64(json, key)?, key);
        Ok(SpanStats {
            count: field("count")?,
            total_us: field("totalUs")?,
            min_us: field("minUs")?,
            max_us: field("maxUs")?,
        })
    }
}

/// A point-in-time level with min/max watermarks.
///
/// Counters only go up; a gauge tracks a level that moves both ways —
/// queue depth, jobs in flight, busy workers. Gauges are live instruments
/// of the global [`Recorder`](crate::Recorder) only: they do not merge,
/// and a snapshot copies them as they stand. `set` is for a single
/// authoritative writer (the daemon updating depth under the queue lock);
/// `add`/`sub` pairs suit a level several threads move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gauge {
    value: i64,
    min: i64,
    max: i64,
    samples: u64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

impl Gauge {
    /// A gauge at zero with no samples.
    pub fn new() -> Gauge {
        Gauge {
            value: 0,
            min: 0,
            max: 0,
            samples: 0,
        }
    }

    fn touch(&mut self) {
        if self.samples == 0 {
            self.min = self.value;
            self.max = self.value;
        } else {
            self.min = self.min.min(self.value);
            self.max = self.max.max(self.value);
        }
        self.samples += 1;
    }

    /// Set the level outright (authoritative-writer form).
    pub fn set(&mut self, value: i64) {
        self.value = value;
        self.touch();
    }

    /// Move the level by `delta`.
    pub fn add(&mut self, delta: i64) {
        self.value = self.value.saturating_add(delta);
        self.touch();
    }

    /// Move the level down by `delta`.
    pub fn sub(&mut self, delta: i64) {
        self.value = self.value.saturating_sub(delta);
        self.touch();
    }

    /// The current level.
    pub fn value(&self) -> i64 {
        self.value
    }

    /// Lowest level seen (`None` before any sample).
    pub fn min(&self) -> Option<i64> {
        (self.samples > 0).then_some(self.min)
    }

    /// Highest level seen (`None` before any sample).
    pub fn max(&self) -> Option<i64> {
        (self.samples > 0).then_some(self.max)
    }

    /// How many times the gauge moved.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// JSON representation.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("value", Json::int(self.value))
            .with("min", self.min().map_or(Json::Null, Json::int))
            .with("max", self.max().map_or(Json::Null, Json::int))
            .with("samples", uint(self.samples))
    }

    /// Read [`Gauge::to_json`]'s output back. A gauge that has moved must
    /// carry both watermarks.
    pub fn from_json(json: &Json) -> Result<Gauge, SnapshotError> {
        let samples = required(opt_u64(json, "samples")?, "samples")?;
        let (min, max) = (opt_i64(json, "min")?, opt_i64(json, "max")?);
        if samples > 0 && (min.is_none() || max.is_none()) {
            return Err(SnapshotError::Shape(
                "has samples but lacks min or max".into(),
            ));
        }
        Ok(Gauge {
            value: required(opt_i64(json, "value")?, "value")?,
            min: min.unwrap_or(0),
            max: max.unwrap_or(0),
            samples,
        })
    }
}

/// Wall-clock seconds covered by one sliding-window slot.
pub const WINDOW_SLOT_SECS: u64 = 5;

/// Slots per sliding window: 60 × 5 s = a 5-minute horizon.
pub const WINDOW_SLOTS: usize = 60;

/// Slots that make up the trailing 1-minute sub-window.
const RATE_1M_SLOTS: u64 = 60 / WINDOW_SLOT_SECS;

/// The window quantiles a [`WindowStats`] carries, with their document keys.
const WINDOW_QUANTILES: [(&str, f64); 3] = [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)];

/// A sliding window: a ring of [`WINDOW_SLOTS`] slots of
/// [`WINDOW_SLOT_SECS`] each, indexed by absolute slot number since the
/// window was created. A write first resets every slot that elapsed since
/// the last write; a read skips slots that fell off the horizon, so reads
/// never mutate. The since-creation total is not kept here: the recorder
/// records it in the plain counter or histogram of the window's name.
#[derive(Debug, Clone)]
pub(crate) struct Window<T> {
    start: Instant,
    /// Absolute slot index the ring has been rotated up to.
    head: u64,
    /// A fresh slot.
    empty: T,
    slots: Vec<T>,
}

impl<T: Clone> Window<T> {
    pub(crate) fn new(empty: T) -> Window<T> {
        Window {
            start: Instant::now(),
            head: 0,
            slots: vec![empty.clone(); WINDOW_SLOTS],
            empty,
        }
    }

    fn slot_now(&self) -> u64 {
        self.start.elapsed().as_secs() / WINDOW_SLOT_SECS
    }

    /// The slot writes go to now, after resetting the elapsed ones.
    pub(crate) fn current(&mut self) -> &mut T {
        let now = self.slot_now();
        for j in self.head + 1..=now.min(self.head + WINDOW_SLOTS as u64) {
            self.slots[(j % WINDOW_SLOTS as u64) as usize] = self.empty.clone();
        }
        self.head = self.head.max(now);
        &mut self.slots[(now % WINDOW_SLOTS as u64) as usize]
    }

    /// The live slots among the trailing `k` (the current one included).
    fn trailing(&self, k: u64) -> impl Iterator<Item = &T> + '_ {
        let now = self.slot_now();
        let first = now.saturating_sub(k.clamp(1, WINDOW_SLOTS as u64) - 1);
        (first..=now)
            .filter(|&j| j <= self.head && j + WINDOW_SLOTS as u64 > self.head)
            .map(|j| &self.slots[(j % WINDOW_SLOTS as u64) as usize])
    }
}

/// A live sliding-window series: an event count or a value distribution.
/// Only the global recorder holds these; [`Windowed::freeze`] turns one
/// into the [`WindowStats`] a snapshot carries.
#[derive(Debug, Clone)]
pub(crate) enum Windowed {
    /// Events per slot.
    Counter(Window<u64>),
    /// A histogram per slot.
    Histogram(Window<Histogram>),
}

impl Windowed {
    /// The window's stats as of now. `plain` holds the since-creation
    /// total: the counter or histogram recorded under the same `name`.
    pub(crate) fn freeze(&self, plain: &Metrics, name: &str) -> WindowStats {
        let per_sec = |n: u64, slots: u64| n as f64 / (slots * WINDOW_SLOT_SECS) as f64;
        let horizon = WINDOW_SLOTS as u64;
        match self {
            Windowed::Counter(w) => WindowStats {
                kind: WindowKind::Counter,
                total: plain.counter(name),
                rate_1m: per_sec(w.trailing(RATE_1M_SLOTS).sum(), RATE_1M_SLOTS),
                rate_5m: per_sec(w.trailing(horizon).sum(), horizon),
                quantiles: [None; 3],
            },
            Windowed::Histogram(w) => {
                let merged = |k: u64| {
                    w.trailing(k).fold(w.empty.clone(), |mut h, slot| {
                        h.merge_from(slot);
                        h
                    })
                };
                let last_5m = merged(horizon);
                WindowStats {
                    kind: WindowKind::Histogram,
                    total: plain.histogram(name).map_or(0, Histogram::count),
                    rate_1m: per_sec(merged(RATE_1M_SLOTS).count(), RATE_1M_SLOTS),
                    rate_5m: per_sec(last_5m.count(), horizon),
                    quantiles: WINDOW_QUANTILES.map(|(_, q)| last_5m.quantile(q)),
                }
            }
        }
    }
}

/// What a sliding window counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowKind {
    /// Events (`window_add`).
    Counter,
    /// Observed values (`window_observe`).
    Histogram,
}

/// A sliding window frozen when its snapshot was taken: the figures a
/// reader needs, fixed, so the same snapshot always renders the same
/// rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStats {
    /// Counter or histogram window.
    pub kind: WindowKind,
    /// Since-creation total: events, or observations.
    pub total: u64,
    /// Per second over the trailing minute.
    pub rate_1m: f64,
    /// Per second over the trailing five minutes.
    pub rate_5m: f64,
    /// `[p50, p90, p99]` over the five minutes (`None` for counter windows
    /// and empty histogram windows).
    pub quantiles: [Option<f64>; 3],
}

impl WindowStats {
    /// JSON representation, tagged by `kind`. A counter window names its
    /// total `total`; a histogram window names it `count` and adds the
    /// quantiles.
    pub fn to_json(&self) -> Json {
        let (kind, total_key) = match self.kind {
            WindowKind::Counter => ("counter", "total"),
            WindowKind::Histogram => ("histogram", "count"),
        };
        let mut json = Json::obj()
            .with("kind", Json::str(kind))
            .with(total_key, uint(self.total))
            .with("rate1m", Json::float(self.rate_1m))
            .with("rate5m", Json::float(self.rate_5m));
        if self.kind == WindowKind::Histogram {
            for ((key, _), q) in WINDOW_QUANTILES.iter().zip(self.quantiles) {
                json.set(*key, q.map_or(Json::Null, Json::float));
            }
        }
        json
    }

    /// Read [`WindowStats::to_json`]'s output back.
    pub fn from_json(json: &Json) -> Result<WindowStats, SnapshotError> {
        let (kind, total_key) = match json.get("kind").and_then(Json::as_str) {
            Some("counter") => (WindowKind::Counter, "total"),
            Some("histogram") => (WindowKind::Histogram, "count"),
            other => return Err(SnapshotError::Shape(format!("has unknown kind {other:?}"))),
        };
        let rate = |key: &str| required(opt_f64(json, key)?, key);
        let mut quantiles = [None; 3];
        for (slot, (key, _)) in quantiles.iter_mut().zip(WINDOW_QUANTILES) {
            *slot = opt_f64(json, key)?;
        }
        Ok(WindowStats {
            kind,
            total: required(opt_u64(json, total_key)?, total_key)?,
            rate_1m: rate("rate1m")?,
            rate_5m: rate("rate5m")?,
            quantiles,
        })
    }
}

/// What spans spent: one closed span is a `ResStats` with `count: 1`, and
/// a span name's row, a trace edge and the whole-process row are folds of
/// them. The one resource record — the snapshot's `resources` entries and
/// a trace span's `res` object are both [`ResStats::to_json`].
///
/// The merge is associative and commutative with the empty stats as
/// identity: counts, CPU and deltas add; peaks take the max.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResStats {
    /// Completed spans folded in.
    pub count: u64,
    /// Highest RSS observed under any of the spans.
    pub peak_rss_bytes: u64,
    /// Net RSS movement across all spans (signed; stages can release).
    pub rss_delta_bytes: i64,
    /// Total CPU time (utime + stime) consumed under the spans.
    pub cpu_us: u64,
}

impl ResStats {
    /// Merge another aggregate into this one.
    pub fn merge_from(&mut self, other: &ResStats) {
        self.count += other.count;
        self.peak_rss_bytes = self.peak_rss_bytes.max(other.peak_rss_bytes);
        self.rss_delta_bytes = self.rss_delta_bytes.saturating_add(other.rss_delta_bytes);
        self.cpu_us = self.cpu_us.saturating_add(other.cpu_us);
    }

    /// JSON representation.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("count", uint(self.count))
            .with("peakRssB", uint(self.peak_rss_bytes))
            .with("rssDeltaB", Json::int(self.rss_delta_bytes))
            .with("cpuUs", uint(self.cpu_us))
    }

    /// Read [`ResStats::to_json`]'s output back. Every field defaults to
    /// zero, so hand-trimmed baselines keep reading; unknown keys (the
    /// retired `bytesIn`) are ignored.
    pub fn from_json(json: &Json) -> Result<ResStats, SnapshotError> {
        let field = |key: &str| opt_u64(json, key).map(|v| v.unwrap_or(0));
        Ok(ResStats {
            count: field("count")?,
            peak_rss_bytes: field("peakRssB")?,
            rss_delta_bytes: opt_i64(json, "rssDeltaB")?.unwrap_or(0),
            cpu_us: field("cpuUs")?,
        })
    }
}

/// The mergeable metric registry: named counters, histograms and span
/// stats.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    spans: BTreeMap<String, SpanStats>,
}

impl Metrics {
    /// Empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Add `n` to counter `name` (created at zero on first use).
    pub fn add(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Record `value` into histogram `name`, creating it over `bounds` on
    /// first use. (Later calls keep the original bounds.)
    pub fn observe(&mut self, name: &str, bounds: &[u64], value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .record(value);
    }

    /// Record a completed span's duration.
    pub fn span_done(&mut self, name: &str, dur_us: u64) {
        self.spans
            .entry(name.to_string())
            .or_default()
            .record(dur_us);
    }

    /// Merge another registry into this one: counters add, histograms
    /// merge bucket-wise ([`Histogram::merge_from`]), span stats fold. This is the join step of the per-thread recorder design
    /// — each worker accumulates into a private [`Metrics`] and the
    /// batches merge associatively here, so the final snapshot is
    /// independent of thread count and join order.
    pub fn merge_from(&mut self, other: Metrics) {
        for (name, value) in other.counters {
            *self.counters.entry(name).or_insert(0) += value;
        }
        for (name, histogram) in other.histograms {
            match self.histograms.entry(name) {
                std::collections::btree_map::Entry::Occupied(mut entry) => {
                    entry.get_mut().merge_from(&histogram);
                }
                std::collections::btree_map::Entry::Vacant(entry) => {
                    entry.insert(histogram);
                }
            }
        }
        for (name, stats) in other.spans {
            self.spans.entry(name).or_default().merge_from(&stats);
        }
    }

    /// Current value of counter `name` (zero when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Named counters in sorted order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Histogram `name`, if any value was recorded.
    pub(crate) fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Named histograms in sorted order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> + '_ {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Span stats for `name`, if such a span completed.
    pub(crate) fn span(&self, name: &str) -> Option<&SpanStats> {
        self.spans.get(name)
    }

    /// Named span stats in sorted order.
    pub fn spans(&self) -> impl Iterator<Item = (&str, &SpanStats)> + '_ {
        self.spans.iter().map(|(k, v)| (k.as_str(), v))
    }
}

/// An owned copy of a recorder at one instant: the mergeable registry, the
/// live gauges, windows and span resources as they stood, and the run
/// uptime. It is also
/// what [`parse_snapshot`] reads a `diffaudit-obs/v1` document back into.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// The copied registry.
    pub metrics: Metrics,
    /// Gauges by name (only the global recorder has any).
    pub gauges: BTreeMap<String, Gauge>,
    /// Sliding windows by name, frozen (only the global recorder has any).
    pub windows: BTreeMap<String, WindowStats>,
    /// Span resources by name, plus the whole-run `process` row (only a
    /// profiling global recorder has any).
    pub resources: BTreeMap<String, ResStats>,
    /// Microseconds since the recorder started.
    pub uptime_us: u64,
}

/// One object-valued section of a document: `name → render(item)`.
fn section<K: Into<String>, T>(
    items: impl Iterator<Item = (K, T)>,
    render: impl Fn(T) -> Json,
) -> Json {
    let mut obj = Json::obj();
    for (name, item) in items {
        obj.set(name, render(item));
    }
    obj
}

/// Read section `key` of `doc` with `read`; an absent section is empty.
/// Errors name the entry: `"{what} {name}: …"`.
fn read_section<T>(
    doc: &Json,
    key: &str,
    what: &str,
    read: impl Fn(&Json) -> Result<T, SnapshotError>,
) -> Result<BTreeMap<String, T>, SnapshotError> {
    let mut out = BTreeMap::new();
    for (name, value) in doc.get(key).and_then(Json::as_obj).unwrap_or_default() {
        let item = read(value).map_err(|e| match e {
            SnapshotError::Shape(m) => SnapshotError::Shape(format!("{what} {name}: {m}")),
            other => other,
        })?;
        out.insert(name.clone(), item);
    }
    Ok(out)
}

impl MetricsSnapshot {
    /// A snapshot of a registry alone (no gauges or windows).
    pub(crate) fn new(metrics: Metrics, uptime_us: u64) -> MetricsSnapshot {
        MetricsSnapshot {
            metrics,
            uptime_us,
            ..MetricsSnapshot::default()
        }
    }

    /// The `diffaudit-obs/v1` document (`--metrics-out`,
    /// `GET /api/v1/metrics`, the committed `BENCH_*.json` baselines).
    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj()
            .with("schema", Json::str(SNAPSHOT_SCHEMA))
            .with("uptimeUs", uint(self.uptime_us))
            .with("counters", section(self.metrics.counters(), uint))
            .with(
                "histograms",
                section(self.metrics.histograms(), Histogram::to_json),
            )
            .with("spans", section(self.metrics.spans(), SpanStats::to_json));
        // The batch pipeline records no windows, and gauges and resources
        // only under profiling; emitting these keys only when populated
        // keeps an unprofiled `--metrics-out` document byte-identical to
        // the pre-telemetry tool's.
        if !self.gauges.is_empty() {
            doc.set("gauges", section(self.gauges.iter(), Gauge::to_json));
        }
        if !self.windows.is_empty() {
            doc.set(
                "windows",
                section(self.windows.iter(), WindowStats::to_json),
            );
        }
        if !self.resources.is_empty() {
            doc.set(
                "resources",
                section(self.resources.iter(), ResStats::to_json),
            );
        }
        doc
    }

    /// Read [`MetricsSnapshot::to_json`]'s output back. The `schema` and
    /// `uptimeUs` fields are required; an absent section is empty.
    pub fn from_json(doc: &Json) -> Result<MetricsSnapshot, SnapshotError> {
        let schema = doc.get("schema").and_then(Json::as_str);
        if schema != Some(SNAPSHOT_SCHEMA) {
            return Err(SnapshotError::Schema(schema.map(str::to_string)));
        }
        let uptime_us = required(opt_u64(doc, "uptimeUs")?, "uptimeUs")?;
        Ok(MetricsSnapshot {
            metrics: Metrics {
                counters: read_section(doc, "counters", "counter", as_u64)?,
                histograms: read_section(doc, "histograms", "histogram", Histogram::from_json)?,
                spans: read_section(doc, "spans", "span", SpanStats::from_json)?,
            },
            gauges: read_section(doc, "gauges", "gauge", Gauge::from_json)?,
            windows: read_section(doc, "windows", "window", WindowStats::from_json)?,
            resources: read_section(doc, "resources", "resource", ResStats::from_json)?,
            uptime_us,
        })
    }
}

/// Parse a `diffaudit-obs/v1` document from JSON text.
pub fn parse_snapshot(text: &str) -> Result<MetricsSnapshot, SnapshotError> {
    let doc = diffaudit_json::parse(text).map_err(|e| SnapshotError::Json(e.to_string()))?;
    MetricsSnapshot::from_json(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper() {
        let mut h = Histogram::new(&[10, 100]);
        h.record(0);
        h.record(10); // exactly on a bound → that bucket
        h.record(11);
        h.record(100);
        h.record(101); // overflow
        let buckets: Vec<(Option<u64>, u64)> = h.buckets().collect();
        assert_eq!(buckets, vec![(Some(10), 2), (Some(100), 2), (None, 1)]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 222);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(101));
    }

    #[test]
    fn empty_histogram_has_no_extrema() {
        let h = Histogram::new(&BYTE_BOUNDS);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        // 100 observations spread 1..=100 over bounds [25, 50, 75, 100]:
        // 25 per bucket, so the distribution is uniform and quantiles are
        // (approximately) the identity.
        let mut h = Histogram::new(&[25, 50, 75, 100]);
        for v in 1..=100 {
            h.record(v);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p90 = h.quantile(0.9).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!((p50 - 50.0).abs() <= 1.0, "p50 = {p50}");
        assert!((p90 - 90.0).abs() <= 1.0, "p90 = {p90}");
        assert!((p99 - 99.0).abs() <= 1.0, "p99 = {p99}");
        // q = 1.0 is the maximum exactly.
        assert_eq!(h.quantile(1.0), Some(100.0));
    }

    #[test]
    fn quantile_handles_overflow_bucket_via_max() {
        // Everything above the last bound: the overflow bucket spans
        // [last bound, max].
        let mut h = Histogram::new(&[10]);
        h.record(100);
        h.record(200);
        h.record(300);
        let p50 = h.quantile(0.5).unwrap();
        assert!(
            (10.0..=300.0).contains(&p50),
            "overflow p50 within [bound, max]: {p50}"
        );
        assert_eq!(h.quantile(1.0), Some(300.0));
    }

    #[test]
    fn quantile_is_exact_for_a_single_observation() {
        let mut h = Histogram::new(&[1_000, 10_000]);
        h.record(4_242);
        for q in [0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(4_242.0), "q={q}");
        }
    }

    #[test]
    fn quantile_empty_and_out_of_range_are_none() {
        let h = Histogram::new(&BYTE_BOUNDS);
        assert_eq!(h.quantile(0.5), None);
        let mut h = Histogram::new(&[10]);
        h.record(5);
        assert_eq!(h.quantile(0.0), None);
        assert_eq!(h.quantile(1.5), None);
        assert_eq!(h.quantile(f64::NAN), None);
    }

    #[test]
    fn quantile_on_bucket_boundary_values() {
        // All mass exactly on a bound: the estimate stays within that
        // bucket and clamps to [min, max] = [10, 10].
        let mut h = Histogram::new(&[10, 100]);
        for _ in 0..4 {
            h.record(10);
        }
        assert_eq!(h.quantile(0.5), Some(10.0));
        assert_eq!(h.quantile(1.0), Some(10.0));
    }

    #[test]
    fn estimate_quantile_degrades_to_max_on_undercounted_buckets() {
        // A lying document: count says 10 but buckets only account for 2.
        let buckets = [(Some(10u64), 2u64), (None, 0)];
        assert_eq!(estimate_quantile(&buckets, 10, 1, 9, 0.99), Some(9.0));
    }

    #[test]
    fn span_stats_track_min_max_total() {
        let mut s = SpanStats::default();
        s.record(5);
        s.record(2);
        s.record(9);
        assert_eq!(s.count, 3);
        assert_eq!(s.total_us, 16);
        assert_eq!(s.min_us, 2);
        assert_eq!(s.max_us, 9);
    }

    #[test]
    fn histogram_merge_matches_serial_recording() {
        let values_a = [3u64, 40, 500, 20_000];
        let values_b = [7u64, 11, 90_000, 12];
        let mut serial = Histogram::new(&LATENCY_US_BOUNDS);
        for v in values_a.iter().chain(values_b.iter()) {
            serial.record(*v);
        }
        let mut a = Histogram::new(&LATENCY_US_BOUNDS);
        let mut b = Histogram::new(&LATENCY_US_BOUNDS);
        for v in values_a {
            a.record(v);
        }
        for v in values_b {
            b.record(v);
        }
        a.merge_from(&b);
        assert_eq!(a, serial);
        // Merging an empty histogram is the identity.
        a.merge_from(&Histogram::new(&LATENCY_US_BOUNDS));
        assert_eq!(a, serial);
        // And merging *into* an empty one copies the distribution.
        let mut empty = Histogram::new(&LATENCY_US_BOUNDS);
        empty.merge_from(&serial);
        assert_eq!(empty, serial);
    }

    #[test]
    fn histogram_merge_rebuckets_on_bound_mismatch() {
        let mut coarse = Histogram::new(&[100]);
        coarse.record(5);
        let mut fine = Histogram::new(&[10, 100]);
        fine.record(50);
        fine.record(2_000); // overflow in the fine histogram
        coarse.merge_from(&fine);
        assert_eq!(coarse.count(), 3);
        assert_eq!(coarse.sum(), 2_055);
        assert_eq!(coarse.min(), Some(5));
        assert_eq!(coarse.max(), Some(2_000));
        // Conservation: buckets still account for every observation.
        let bucket_total: u64 = coarse.buckets().map(|(_, n)| n).sum();
        assert_eq!(bucket_total, coarse.count());
    }

    #[test]
    fn span_stats_merge_folds_extrema() {
        let mut a = SpanStats::default();
        a.record(5);
        a.record(30);
        let mut b = SpanStats::default();
        b.record(2);
        let mut merged = SpanStats::default();
        merged.merge_from(&a);
        merged.merge_from(&b);
        merged.merge_from(&SpanStats::default());
        assert_eq!(merged.count, 3);
        assert_eq!(merged.total_us, 37);
        assert_eq!(merged.min_us, 2);
        assert_eq!(merged.max_us, 30);
    }

    #[test]
    fn metrics_merge_is_join_order_independent() {
        let make = |seed: u64| {
            let mut m = Metrics::new();
            m.add("units", seed);
            m.observe("latency", &LATENCY_US_BOUNDS, seed * 100);
            m.span_done("decode", seed * 10);
            m
        };
        let mut forward = Metrics::new();
        forward.merge_from(make(1));
        forward.merge_from(make(2));
        forward.merge_from(make(3));
        let mut backward = Metrics::new();
        backward.merge_from(make(3));
        backward.merge_from(make(2));
        backward.merge_from(make(1));
        assert_eq!(forward.counter("units"), 6);
        assert_eq!(backward.counter("units"), 6);
        let snap = |m: &Metrics| {
            MetricsSnapshot::new(m.clone(), 0)
                .to_json()
                .to_pretty_string()
        };
        assert_eq!(snap(&forward), snap(&backward));
    }

    #[test]
    fn gauge_tracks_level_and_watermarks() {
        let mut g = Gauge::new();
        assert_eq!(g.value(), 0);
        assert_eq!(g.min(), None);
        assert_eq!(g.max(), None);
        g.add(3);
        g.sub(1);
        g.add(5);
        g.sub(7);
        assert_eq!(g.value(), 0);
        assert_eq!(g.min(), Some(0));
        assert_eq!(g.max(), Some(7));
        assert_eq!(g.samples(), 4);
        g.set(-2);
        assert_eq!(g.value(), -2);
        assert_eq!(g.min(), Some(-2));
    }

    #[test]
    fn windowed_counter_rates_and_total() {
        let rec = crate::Recorder::new();
        rec.window_add("reqs", 30);
        rec.window_add("reqs", 30);
        let snap = rec.snapshot();
        let w = snap.windows["reqs"];
        // All 60 events are within the last minute of wall time.
        assert_eq!(w.kind, WindowKind::Counter);
        assert_eq!(w.total, 60);
        assert!((w.rate_1m - 1.0).abs() < 1e-9, "{}", w.rate_1m);
        assert!((w.rate_5m - 0.2).abs() < 1e-9, "{}", w.rate_5m);
        assert_eq!(w.quantiles, [None; 3]);
        // The plain counter of the same name holds the total.
        assert_eq!(snap.metrics.counter("reqs"), 60);
        let idle = Windowed::Counter(Window::new(0)).freeze(&Metrics::new(), "idle");
        assert_eq!((idle.total, idle.rate_1m, idle.rate_5m), (0, 0.0, 0.0));
    }

    #[test]
    fn windowed_histogram_window_quantiles_and_cumulative() {
        let empty = Windowed::Histogram(Window::new(Histogram::new(&LATENCY_US_BOUNDS)));
        assert_eq!(empty.freeze(&Metrics::new(), "lat").quantiles, [None; 3]);
        let rec = crate::Recorder::new();
        for v in [100u64, 200, 300, 400] {
            rec.window_observe("lat", &LATENCY_US_BOUNDS, v);
        }
        let snap = rec.snapshot();
        // The plain histogram of the same name is the cumulative part.
        let cumulative = snap.metrics.histogram("lat").expect("plain histogram");
        assert_eq!(cumulative.count(), 4);
        let w = snap.windows["lat"];
        assert_eq!((w.kind, w.total), (WindowKind::Histogram, 4));
        let [p50, _, p99] = w.quantiles.map(|q| q.expect("live window"));
        assert!((100.0..=400.0).contains(&p50), "{p50}");
        assert!((300.0..=400.0).contains(&p99), "{p99}");
        // Within the first slot the 1m rate counts everything just seen.
        assert!((w.rate_1m - 4.0 / 60.0).abs() < 1e-9, "{}", w.rate_1m);
    }

    #[test]
    fn metrics_gauge_and_window_registry_round_trip() {
        let rec = crate::Recorder::new();
        rec.gauge_add("queue.depth", 2);
        rec.gauge_sub("queue.depth", 1);
        rec.gauge_set("workers.busy", 3);
        rec.window_add("http.requests", 7);
        rec.window_observe("http.latency.us", &LATENCY_US_BOUNDS, 1_234);
        // Kind mismatch is a no-op, never a reinterpretation, and records
        // no plain series either.
        rec.window_observe("http.requests", &LATENCY_US_BOUNDS, 9);
        rec.window_add("http.latency.us", 9);
        let snap = rec.snapshot();
        assert_eq!(snap.gauges.get("queue.depth").map(Gauge::value), Some(1));
        assert_eq!(snap.gauges.get("workers.busy").map(Gauge::value), Some(3));
        assert_eq!(snap.gauges.get("missing"), None);
        assert_eq!(snap.windows["http.requests"].total, 7);
        assert_eq!(snap.windows["http.latency.us"].total, 1);
        assert_eq!(snap.metrics.counter("http.latency.us"), 0);
        assert!(snap.metrics.histogram("http.requests").is_none());
        // The frozen snapshot reads back from its document unchanged.
        assert_eq!(parse_snapshot(&snap.to_json().to_pretty_string()), Ok(snap));
    }

    #[test]
    fn snapshot_omits_gauge_and_window_keys_when_empty() {
        let mut m = Metrics::new();
        m.add("pipeline.units", 1);
        let json = MetricsSnapshot::new(m, 1).to_json();
        // Batch documents must stay byte-identical: no new keys unless
        // the new registries are populated.
        assert!(json.pointer("/gauges").is_none());
        assert!(json.pointer("/windows").is_none());
        assert!(json.pointer("/resources").is_none());

        let mut depth = Gauge::new();
        depth.set(2);
        let snap = MetricsSnapshot {
            gauges: BTreeMap::from([("depth".to_string(), depth)]),
            windows: BTreeMap::from([(
                "reqs".to_string(),
                WindowStats {
                    kind: WindowKind::Counter,
                    total: 1,
                    rate_1m: 1.0 / 60.0,
                    rate_5m: 1.0 / 300.0,
                    quantiles: [None; 3],
                },
            )]),
            ..MetricsSnapshot::default()
        };
        let json = snap.to_json();
        assert_eq!(
            json.pointer("/gauges/depth/value").and_then(Json::as_i64),
            Some(2)
        );
        assert_eq!(
            json.pointer("/windows/reqs/total").and_then(Json::as_i64),
            Some(1)
        );
        assert_eq!(
            json.pointer("/windows/reqs/kind").and_then(Json::as_str),
            Some("counter")
        );
    }

    fn span_res(peak_rss_bytes: u64, rss_delta_bytes: i64, cpu_us: u64) -> ResStats {
        ResStats {
            count: 1,
            peak_rss_bytes,
            rss_delta_bytes,
            cpu_us,
        }
    }

    #[test]
    fn res_stats_fold_and_export() {
        let mut stats = span_res(10_000, 4_000, 500);
        stats.merge_from(&span_res(8_000, -1_000, 300));
        assert_eq!(stats.count, 2);
        assert_eq!(stats.peak_rss_bytes, 10_000); // max, not sum
        assert_eq!(stats.rss_delta_bytes, 3_000); // signed net
        assert_eq!(stats.cpu_us, 800);

        let snap = MetricsSnapshot {
            resources: BTreeMap::from([("pipeline.extract".to_string(), stats)]),
            ..MetricsSnapshot::default()
        };
        let json = snap.to_json();
        let doc = json.pointer("/resources/pipeline.extract").unwrap();
        assert_eq!(doc.pointer("/count").and_then(Json::as_i64), Some(2));
        assert_eq!(
            doc.pointer("/peakRssB").and_then(Json::as_i64),
            Some(10_000)
        );
        assert_eq!(
            doc.pointer("/rssDeltaB").and_then(Json::as_i64),
            Some(3_000)
        );
        assert_eq!(doc.pointer("/cpuUs").and_then(Json::as_i64), Some(800));
        assert!(doc.pointer("/bytesIn").is_none());
        // A document written with the retired `bytesIn` key still reads.
        let old = doc.clone().with("bytesIn", Json::int(7));
        assert_eq!(ResStats::from_json(&old), Ok(stats));
    }

    #[test]
    fn res_stats_merge_matches_serial_fold() {
        let (a, b) = (span_res(5, 2, 10), span_res(9, -1, 20));
        let mut serial = ResStats::default();
        serial.merge_from(&a);
        serial.merge_from(&b);
        let mut reversed = b;
        reversed.merge_from(&a);
        assert_eq!(reversed, serial);
        // Identity: merging the empty stats changes nothing.
        reversed.merge_from(&ResStats::default());
        assert_eq!(reversed, serial);
    }

    #[test]
    fn registry_and_snapshot_export() {
        let mut m = Metrics::new();
        m.add("pipeline.units", 14);
        m.add("pipeline.units", 1);
        m.observe("artifact.bytes", &BYTE_BOUNDS, 2_000);
        m.span_done("pipeline.classify", 1_500);
        assert_eq!(m.counter("pipeline.units"), 15);
        assert_eq!(m.counter("missing"), 0);

        let json = MetricsSnapshot::new(m, 42).to_json();
        assert_eq!(
            json.pointer("/schema").and_then(Json::as_str),
            Some("diffaudit-obs/v1")
        );
        assert_eq!(
            json.pointer("/counters/pipeline.units")
                .and_then(Json::as_i64),
            Some(15)
        );
        assert_eq!(
            json.pointer("/histograms/artifact.bytes/count")
                .and_then(Json::as_i64),
            Some(1)
        );
        assert_eq!(
            json.pointer("/spans/pipeline.classify/totalUs")
                .and_then(Json::as_i64),
            Some(1500)
        );
        // The document round-trips through the parser.
        let text = json.to_pretty_string();
        let back = diffaudit_json::parse(&text).expect("metrics JSON parses");
        assert_eq!(back.pointer("/uptimeUs").and_then(Json::as_i64), Some(42));
    }

    #[test]
    fn committed_baselines_read_back_byte_for_byte() {
        // The writer and the reader are one schema: every committed
        // baseline parses into a snapshot whose document is the file.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for file in [
            "BENCH_pipeline.json",
            "BENCH_cache.json",
            "BENCH_serve.json",
        ] {
            let text = std::fs::read_to_string(root.join(file)).expect("baseline readable");
            let snap = parse_snapshot(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
            assert_eq!(
                snap.to_json().to_pretty_string(),
                text.trim_end_matches('\n'),
                "{file}"
            );
        }
    }

    /// A snapshot covering every section: counters, empty and non-empty
    /// histograms, spans, resources with signed deltas, gauges that moved
    /// and ones that did not, and both kinds of window stats.
    fn arbitrary_snapshot(rng: &mut diffaudit_util::rng::Rng) -> MetricsSnapshot {
        use diffaudit_util::prop;
        let name = |rng: &mut diffaudit_util::rng::Rng| prop::text(rng, 1..=6);
        let below = |rng: &mut diffaudit_util::rng::Rng, bits: u32| rng.next_u64() >> (64 - bits);
        let mut m = Metrics::new();
        for _ in 0..rng.range(0, 4) {
            m.add(&name(rng), below(rng, 60));
        }
        let bound_tables: [&[u64]; 4] = [&BYTE_BOUNDS, &RECORD_BOUNDS, &LATENCY_US_BOUNDS, &[]];
        for _ in 0..rng.range(0, 4) {
            let (name, bounds) = (name(rng), *rng.choose(&bound_tables));
            m.histograms.insert(name.clone(), Histogram::new(bounds));
            for _ in 0..rng.range(0, 20) {
                m.observe(&name, bounds, below(rng, 24));
            }
        }
        for _ in 0..rng.range(0, 4) {
            let name = name(rng);
            for _ in 0..rng.range(1, 4) {
                m.span_done(&name, below(rng, 40));
            }
        }
        let mut gauges = BTreeMap::new();
        for _ in 0..rng.range(0, 4) {
            let mut gauge = Gauge::new();
            for _ in 0..rng.range(0, 4) {
                let level = below(rng, 40) as i64 - (1 << 39);
                match rng.range(0, 3) {
                    0 => gauge.set(level),
                    1 => gauge.add(level),
                    _ => gauge.sub(level),
                }
            }
            gauges.insert(name(rng), gauge);
        }
        let mut windows = BTreeMap::new();
        for _ in 0..rng.range(0, 4) {
            let histogram = rng.chance(0.5);
            let mut quantiles = [None; 3];
            if histogram && rng.chance(0.8) {
                quantiles = [0.0; 3].map(|_| Some(rng.f64() * 1e6));
            }
            let stats = WindowStats {
                kind: if histogram {
                    WindowKind::Histogram
                } else {
                    WindowKind::Counter
                },
                total: below(rng, 40),
                rate_1m: rng.f64() * 100.0,
                rate_5m: rng.f64() * 20.0,
                quantiles,
            };
            windows.insert(name(rng), stats);
        }
        let mut resources = BTreeMap::new();
        for _ in 0..rng.range(0, 3) {
            let stats = ResStats {
                count: below(rng, 20),
                peak_rss_bytes: below(rng, 40),
                rss_delta_bytes: below(rng, 40) as i64 - (1 << 39),
                cpu_us: below(rng, 40),
            };
            resources.insert(name(rng), stats);
        }
        MetricsSnapshot {
            metrics: m,
            gauges,
            windows,
            resources,
            uptime_us: below(rng, 50),
        }
    }

    #[test]
    fn snapshot_documents_read_back_to_the_same_snapshot() {
        diffaudit_util::prop::check("snapshot_document_round_trip", 200, |rng| {
            let snap = arbitrary_snapshot(rng);
            let text = snap.to_json().to_pretty_string();
            assert_eq!(parse_snapshot(&text), Ok(snap), "{text}");
        });
    }
}
