//! Typed counters, fixed-bucket histograms, and span timing aggregates.
//!
//! Everything here is plain data guarded by the recorder's lock; the
//! exported [`MetricsSnapshot`] is an owned copy so report rendering and
//! JSON export never hold the lock.

use crate::res::SpanResources;
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
                    .with(
                        "le",
                        bound.map_or(Json::Null, |b| Json::int(b.min(i64::MAX as u64) as i64)),
                    )
                    .with("count", Json::int(count.min(i64::MAX as u64) as i64))
            })
            .collect();
        Json::obj()
            .with("count", Json::int(self.count.min(i64::MAX as u64) as i64))
            .with("sum", Json::int(self.sum.min(i64::MAX as u64) as i64))
            .with(
                "min",
                self.min()
                    .map_or(Json::Null, |v| Json::int(v.min(i64::MAX as u64) as i64)),
            )
            .with(
                "max",
                self.max()
                    .map_or(Json::Null, |v| Json::int(v.min(i64::MAX as u64) as i64)),
            )
            .with("buckets", Json::Arr(buckets))
    }
}

/// Estimate the `q`-quantile of a bucketed distribution by linear
/// interpolation inside the bucket containing the target rank.
///
/// `buckets` are ascending `(upper_bound, count)` pairs ending with the
/// `None` overflow bucket — exactly what [`Histogram::buckets`] yields and
/// what a parsed `diffaudit-obs/v1` document carries. Edges: the first
/// bucket's lower edge is `min`, the overflow bucket's upper edge is `max`,
/// and every interior edge is the neighbouring bound; the estimate is
/// clamped to `[min, max]`, which makes single-observation and
/// single-bucket distributions exact. The target rank is `q * count`, so
/// `q = 1.0` lands on the last observation.
///
/// Returns `None` when the distribution is empty or `q` is outside
/// `(0, 1]`. When the bucket counts undershoot `count` (a conservation
/// violation in a hand-edited document) the estimate degrades to `max`
/// rather than failing.
pub fn estimate_quantile(
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
            .with("count", Json::int(self.count.min(i64::MAX as u64) as i64))
            .with(
                "totalUs",
                Json::int(self.total_us.min(i64::MAX as u64) as i64),
            )
            .with("minUs", Json::int(self.min_us.min(i64::MAX as u64) as i64))
            .with("maxUs", Json::int(self.max_us.min(i64::MAX as u64) as i64))
    }
}

/// A point-in-time level with min/max watermarks.
///
/// Counters only go up; a gauge tracks a level that moves both ways —
/// queue depth, jobs in flight, busy workers. `set` is for a single
/// authoritative writer (the daemon updating depth under the queue lock);
/// mergeable per-thread/job recorders should use balanced `add`/`sub`
/// pairs, because merging *sums* each side's net movement. A gauge with
/// zero samples is the merge identity, so — like counters, histograms,
/// and span stats — gauges fold associatively and commutatively at join.
/// Watermarks fold by min/max of each side's own watermarks, which is the
/// tightest envelope derivable without replaying the interleaving.
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
    /// A gauge at zero with no samples (the merge identity).
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

    /// Move the level by `delta` (mergeable form; pair with [`Gauge::sub`]).
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

    /// Merge another gauge into this one: values (net movements) add,
    /// watermarks fold, an empty side is the identity — associative and
    /// commutative, matching the other registry types.
    pub fn merge_from(&mut self, other: &Gauge) {
        if other.samples == 0 {
            return;
        }
        if self.samples == 0 {
            *self = *other;
            return;
        }
        self.value = self.value.saturating_add(other.value);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.samples = self.samples.saturating_add(other.samples);
    }

    /// JSON representation.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("value", Json::int(self.value))
            .with("min", self.min().map_or(Json::Null, Json::int))
            .with("max", self.max().map_or(Json::Null, Json::int))
            .with(
                "samples",
                Json::int(self.samples.min(i64::MAX as u64) as i64),
            )
    }
}

/// Wall-clock seconds covered by one sliding-window slot.
pub const WINDOW_SLOT_SECS: u64 = 5;

/// Slots per sliding window: 60 × 5 s = a 5-minute horizon.
pub const WINDOW_SLOTS: usize = 60;

/// Slots that make up the trailing 1-minute sub-window.
const RATE_1M_SLOTS: u64 = 60 / WINDOW_SLOT_SECS;

/// A counter with a sliding 5-minute window behind the running total.
///
/// The window is a ring of [`WINDOW_SLOTS`] fixed-duration slots indexed
/// by absolute slot number since the counter was created. Rotation is
/// logical: writes zero any slots that elapsed since the last write, and
/// reads simply ignore slots whose absolute index has fallen off the
/// horizon — so `&self` reads never mutate and a cloned snapshot keeps
/// answering correctly. `total` is monotonic (exposition-safe); the
/// 1m/5m rates divide the live slot sums by the sub-window's wall span.
///
/// Merging aligns the other side's slots by age relative to each side's
/// own clock: totals merge exactly, slot phase is approximate to ±1 slot
/// — the same "exact in aggregate, approximate in placement" contract as
/// [`Histogram::merge_from`] with mismatched bounds.
#[derive(Debug, Clone)]
pub struct WindowedCounter {
    start: Instant,
    slots: Vec<u64>,
    /// Absolute slot index the ring has been rotated up to.
    head: u64,
    total: u64,
}

impl Default for WindowedCounter {
    fn default() -> Self {
        WindowedCounter::new()
    }
}

impl WindowedCounter {
    /// An empty windowed counter; the window clock starts now.
    pub fn new() -> WindowedCounter {
        WindowedCounter {
            start: Instant::now(),
            slots: vec![0; WINDOW_SLOTS],
            head: 0,
            total: 0,
        }
    }

    fn slot_now(&self) -> u64 {
        self.start.elapsed().as_secs() / WINDOW_SLOT_SECS
    }

    fn rotate_to(&mut self, now: u64) {
        if now <= self.head {
            return;
        }
        let step = (now - self.head).min(WINDOW_SLOTS as u64);
        for k in 1..=step {
            let idx = ((self.head + k) % WINDOW_SLOTS as u64) as usize;
            if let Some(slot) = self.slots.get_mut(idx) {
                *slot = 0;
            }
        }
        self.head = now;
    }

    /// The count recorded in absolute slot `j`, zero if `j` has fallen off
    /// the horizon (or lies in the future of the last rotation).
    fn slot_value(&self, j: u64) -> u64 {
        if j <= self.head && j + WINDOW_SLOTS as u64 > self.head {
            self.slots
                .get((j % WINDOW_SLOTS as u64) as usize)
                .copied()
                .unwrap_or(0)
        } else {
            0
        }
    }

    fn sum_last(&self, k: u64, now: u64) -> u64 {
        let first = now.saturating_sub(k.saturating_sub(1));
        (first..=now).map(|j| self.slot_value(j)).sum()
    }

    /// Add `n` to the current slot and the running total.
    pub fn add(&mut self, n: u64) {
        let now = self.slot_now();
        self.rotate_to(now);
        if let Some(slot) = self.slots.get_mut((now % WINDOW_SLOTS as u64) as usize) {
            *slot = slot.saturating_add(n);
        }
        self.total = self.total.saturating_add(n);
    }

    /// Monotonic since-creation total.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Events per second over the trailing minute.
    pub fn rate_1m(&self) -> f64 {
        self.sum_last(RATE_1M_SLOTS, self.slot_now()) as f64
            / (RATE_1M_SLOTS * WINDOW_SLOT_SECS) as f64
    }

    /// Events per second over the full window (5 minutes).
    pub fn rate_5m(&self) -> f64 {
        self.sum_last(WINDOW_SLOTS as u64, self.slot_now()) as f64
            / (WINDOW_SLOTS as u64 * WINDOW_SLOT_SECS) as f64
    }

    /// Merge another windowed counter: totals add exactly; the other
    /// side's live slots land at the same *age* on this side's clock.
    pub fn merge_from(&mut self, other: &WindowedCounter) {
        let now = self.slot_now();
        self.rotate_to(now);
        let other_now = other.slot_now();
        for age in 0..WINDOW_SLOTS as u64 {
            let Some(j) = other_now.checked_sub(age) else {
                break;
            };
            let value = other.slot_value(j);
            if value == 0 {
                continue;
            }
            let Some(target) = now.checked_sub(age) else {
                continue;
            };
            if let Some(slot) = self.slots.get_mut((target % WINDOW_SLOTS as u64) as usize) {
                *slot = slot.saturating_add(value);
            }
        }
        self.total = self.total.saturating_add(other.total);
    }

    /// JSON representation (rates computed at render time).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("kind", Json::str("counter"))
            .with("total", Json::int(self.total.min(i64::MAX as u64) as i64))
            .with("rate1m", Json::float(self.rate_1m()))
            .with("rate5m", Json::float(self.rate_5m()))
    }
}

/// A histogram with a sliding 5-minute window behind the cumulative one.
///
/// Same ring discipline as [`WindowedCounter`], with a [`Histogram`] per
/// slot; the `cumulative` histogram keeps the monotonic since-creation
/// distribution the exposition endpoint serves, while window reads merge
/// the live slots into a throwaway histogram to answer 1m/5m quantiles.
#[derive(Debug, Clone)]
pub struct WindowedHistogram {
    start: Instant,
    slots: Vec<Histogram>,
    head: u64,
    cumulative: Histogram,
}

impl WindowedHistogram {
    /// An empty windowed histogram over `bounds`.
    pub fn new(bounds: &[u64]) -> WindowedHistogram {
        WindowedHistogram {
            start: Instant::now(),
            slots: (0..WINDOW_SLOTS).map(|_| Histogram::new(bounds)).collect(),
            head: 0,
            cumulative: Histogram::new(bounds),
        }
    }

    fn slot_now(&self) -> u64 {
        self.start.elapsed().as_secs() / WINDOW_SLOT_SECS
    }

    fn rotate_to(&mut self, now: u64) {
        if now <= self.head {
            return;
        }
        let step = (now - self.head).min(WINDOW_SLOTS as u64);
        let bounds = self.cumulative.bounds.clone();
        for k in 1..=step {
            let idx = ((self.head + k) % WINDOW_SLOTS as u64) as usize;
            if let Some(slot) = self.slots.get_mut(idx) {
                *slot = Histogram::new(&bounds);
            }
        }
        self.head = now;
    }

    fn slot_live(&self, j: u64) -> Option<&Histogram> {
        if j <= self.head && j + WINDOW_SLOTS as u64 > self.head {
            self.slots.get((j % WINDOW_SLOTS as u64) as usize)
        } else {
            None
        }
    }

    /// Record one observation into the current slot and the cumulative
    /// distribution.
    pub fn record(&mut self, value: u64) {
        let now = self.slot_now();
        self.rotate_to(now);
        if let Some(slot) = self.slots.get_mut((now % WINDOW_SLOTS as u64) as usize) {
            slot.record(value);
        }
        self.cumulative.record(value);
    }

    /// The monotonic since-creation distribution.
    pub fn cumulative(&self) -> &Histogram {
        &self.cumulative
    }

    /// The merged distribution of the trailing `k` slots (capped at the
    /// window size).
    fn window_hist(&self, k: u64) -> Histogram {
        let now = self.slot_now();
        let mut merged = Histogram::new(&self.cumulative.bounds);
        let first = now.saturating_sub(k.min(WINDOW_SLOTS as u64).saturating_sub(1));
        for j in first..=now {
            if let Some(slot) = self.slot_live(j) {
                merged.merge_from(slot);
            }
        }
        merged
    }

    /// Observations per second over the trailing minute.
    pub fn rate_1m(&self) -> f64 {
        self.window_hist(RATE_1M_SLOTS).count() as f64 / (RATE_1M_SLOTS * WINDOW_SLOT_SECS) as f64
    }

    /// Observations per second over the full window.
    pub fn rate_5m(&self) -> f64 {
        self.window_hist(WINDOW_SLOTS as u64).count() as f64
            / (WINDOW_SLOTS as u64 * WINDOW_SLOT_SECS) as f64
    }

    /// The `q`-quantile over the full 5-minute window (`None` when the
    /// window is empty).
    pub fn window_quantile(&self, q: f64) -> Option<f64> {
        self.window_hist(WINDOW_SLOTS as u64).quantile(q)
    }

    /// Merge another windowed histogram (age-aligned slots, exact
    /// cumulative merge — see [`WindowedCounter::merge_from`]).
    pub fn merge_from(&mut self, other: &WindowedHistogram) {
        let now = self.slot_now();
        self.rotate_to(now);
        let other_now = other.slot_now();
        for age in 0..WINDOW_SLOTS as u64 {
            let Some(j) = other_now.checked_sub(age) else {
                break;
            };
            let Some(source) = other.slot_live(j) else {
                continue;
            };
            if source.count() == 0 {
                continue;
            }
            let Some(target) = now.checked_sub(age) else {
                continue;
            };
            if let Some(slot) = self.slots.get_mut((target % WINDOW_SLOTS as u64) as usize) {
                slot.merge_from(source);
            }
        }
        self.cumulative.merge_from(&other.cumulative);
    }

    /// JSON representation (window stats computed at render time).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("kind", Json::str("histogram"))
            .with(
                "count",
                Json::int(self.cumulative.count().min(i64::MAX as u64) as i64),
            )
            .with("rate1m", Json::float(self.rate_1m()))
            .with("rate5m", Json::float(self.rate_5m()))
            .with(
                "p50",
                self.window_quantile(0.5).map_or(Json::Null, Json::float),
            )
            .with(
                "p90",
                self.window_quantile(0.9).map_or(Json::Null, Json::float),
            )
            .with(
                "p99",
                self.window_quantile(0.99).map_or(Json::Null, Json::float),
            )
    }
}

/// A named sliding-window series: event rate or value distribution.
#[derive(Debug, Clone)]
pub enum Windowed {
    /// An event-rate series ([`WindowedCounter`]).
    Counter(WindowedCounter),
    /// A value-distribution series ([`WindowedHistogram`]).
    Histogram(WindowedHistogram),
}

impl Windowed {
    /// JSON representation, tagged by `kind`.
    pub fn to_json(&self) -> Json {
        match self {
            Windowed::Counter(w) => w.to_json(),
            Windowed::Histogram(w) => w.to_json(),
        }
    }
}

/// Aggregated resource attribution for one span name: the fold of every
/// completed span's [`SpanResources`] under that name.
///
/// Like every registry aggregate the merge is associative and commutative
/// with the empty stats as identity: counts, CPU, deltas, and bytes add;
/// peaks take the max — so absorbing per-thread registries at join yields
/// the serial run's totals.
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
    /// Total logical bytes processed (`{span}.bytes.in` counter growth).
    pub bytes_in: u64,
}

impl ResStats {
    /// Fold one completed span's resources in.
    pub fn record(&mut self, res: &SpanResources) {
        self.count += 1;
        self.peak_rss_bytes = self.peak_rss_bytes.max(res.peak_rss_bytes);
        self.rss_delta_bytes = self.rss_delta_bytes.saturating_add(res.rss_delta_bytes);
        self.cpu_us = self.cpu_us.saturating_add(res.cpu_us);
        self.bytes_in = self.bytes_in.saturating_add(res.bytes_in);
    }

    /// Merge another aggregate into this one.
    pub fn merge_from(&mut self, other: &ResStats) {
        self.count += other.count;
        self.peak_rss_bytes = self.peak_rss_bytes.max(other.peak_rss_bytes);
        self.rss_delta_bytes = self.rss_delta_bytes.saturating_add(other.rss_delta_bytes);
        self.cpu_us = self.cpu_us.saturating_add(other.cpu_us);
        self.bytes_in = self.bytes_in.saturating_add(other.bytes_in);
    }

    /// JSON representation (the snapshot's `resources` entry).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("count", Json::int(self.count.min(i64::MAX as u64) as i64))
            .with(
                "peakRssB",
                Json::int(self.peak_rss_bytes.min(i64::MAX as u64) as i64),
            )
            .with("rssDeltaB", Json::int(self.rss_delta_bytes))
            .with("cpuUs", Json::int(self.cpu_us.min(i64::MAX as u64) as i64))
            .with(
                "bytesIn",
                Json::int(self.bytes_in.min(i64::MAX as u64) as i64),
            )
    }
}

/// The live metric registry: named counters, histograms, span stats,
/// gauges, sliding-window series, and resource attributions.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    spans: BTreeMap<String, SpanStats>,
    gauges: BTreeMap<String, Gauge>,
    windows: BTreeMap<String, Windowed>,
    resources: BTreeMap<String, ResStats>,
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

    /// Fold a completed span's resource attribution into `name`'s stats.
    pub fn res_done(&mut self, name: &str, res: &SpanResources) {
        self.resources
            .entry(name.to_string())
            .or_default()
            .record(res);
    }

    /// Replace `name`'s resource stats wholesale (the recorder uses this to
    /// inject the synthetic whole-process entry at snapshot time).
    pub fn res_set(&mut self, name: &str, stats: ResStats) {
        self.resources.insert(name.to_string(), stats);
    }

    /// Set gauge `name` to `value` (created on first use).
    pub fn gauge_set(&mut self, name: &str, value: i64) {
        self.gauges.entry(name.to_string()).or_default().set(value);
    }

    /// Move gauge `name` by `delta`.
    pub fn gauge_add(&mut self, name: &str, delta: i64) {
        self.gauges.entry(name.to_string()).or_default().add(delta);
    }

    /// Move gauge `name` down by `delta`.
    pub fn gauge_sub(&mut self, name: &str, delta: i64) {
        self.gauges.entry(name.to_string()).or_default().sub(delta);
    }

    /// Add `n` to the sliding-window counter `name` (created on first
    /// use). A no-op when `name` already exists as a window *histogram* —
    /// a name may carry one window kind only.
    pub fn window_add(&mut self, name: &str, n: u64) {
        match self
            .windows
            .entry(name.to_string())
            .or_insert_with(|| Windowed::Counter(WindowedCounter::new()))
        {
            Windowed::Counter(w) => w.add(n),
            Windowed::Histogram(_) => {}
        }
    }

    /// Record `value` into the sliding-window histogram `name`, creating
    /// it over `bounds` on first use. A no-op when `name` already exists
    /// as a window *counter*.
    pub fn window_observe(&mut self, name: &str, bounds: &[u64], value: u64) {
        match self
            .windows
            .entry(name.to_string())
            .or_insert_with(|| Windowed::Histogram(WindowedHistogram::new(bounds)))
        {
            Windowed::Histogram(w) => w.record(value),
            Windowed::Counter(_) => {}
        }
    }

    /// Merge another registry into this one: counters add, histograms
    /// merge bucket-wise ([`Histogram::merge_from`]), span stats fold
    /// ([`SpanStats::merge_from`]). This is the join step of the
    /// per-thread recorder design — each worker accumulates into a private
    /// [`Metrics`] and the batches merge associatively here, so the final
    /// snapshot is independent of thread count and join order.
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
        for (name, gauge) in other.gauges {
            self.gauges.entry(name).or_default().merge_from(&gauge);
        }
        for (name, stats) in other.resources {
            self.resources.entry(name).or_default().merge_from(&stats);
        }
        for (name, window) in other.windows {
            match self.windows.entry(name) {
                std::collections::btree_map::Entry::Occupied(mut entry) => {
                    // Kinds must match to merge; a mismatched name keeps
                    // the existing series (disciplined names never collide).
                    match (entry.get_mut(), &window) {
                        (Windowed::Counter(a), Windowed::Counter(b)) => a.merge_from(b),
                        (Windowed::Histogram(a), Windowed::Histogram(b)) => a.merge_from(b),
                        _ => {}
                    }
                }
                std::collections::btree_map::Entry::Vacant(entry) => {
                    entry.insert(window);
                }
            }
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

    /// Named histograms in sorted order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> + '_ {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Named span stats in sorted order.
    pub fn spans(&self) -> impl Iterator<Item = (&str, &SpanStats)> + '_ {
        self.spans.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Gauge `name`, if it has been touched.
    pub fn gauge(&self, name: &str) -> Option<&Gauge> {
        self.gauges.get(name)
    }

    /// Named gauges in sorted order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, &Gauge)> + '_ {
        self.gauges.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Sliding-window series `name`, if present.
    pub fn window(&self, name: &str) -> Option<&Windowed> {
        self.windows.get(name)
    }

    /// Named sliding-window series in sorted order.
    pub fn windows(&self) -> impl Iterator<Item = (&str, &Windowed)> + '_ {
        self.windows.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Resource stats for span `name`, if any were recorded.
    pub fn resource(&self, name: &str) -> Option<&ResStats> {
        self.resources.get(name)
    }

    /// Named resource stats in sorted order.
    pub fn resources(&self) -> impl Iterator<Item = (&str, &ResStats)> + '_ {
        self.resources.iter().map(|(k, v)| (k.as_str(), v))
    }
}

/// An owned copy of the registry at one instant, plus run uptime.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// The copied registry.
    pub metrics: Metrics,
    /// Microseconds since the recorder started.
    pub uptime_us: u64,
}

impl MetricsSnapshot {
    /// The `--metrics-out` document.
    pub fn to_json(&self) -> Json {
        let mut counters = Json::obj();
        for (name, value) in self.metrics.counters() {
            counters.set(name, Json::int(value.min(i64::MAX as u64) as i64));
        }
        let mut histograms = Json::obj();
        for (name, h) in self.metrics.histograms() {
            histograms.set(name, h.to_json());
        }
        let mut spans = Json::obj();
        for (name, s) in self.metrics.spans() {
            spans.set(name, s.to_json());
        }
        let mut doc = Json::obj()
            .with("schema", Json::str("diffaudit-obs/v1"))
            .with(
                "uptimeUs",
                Json::int(self.uptime_us.min(i64::MAX as u64) as i64),
            )
            .with("counters", counters)
            .with("histograms", histograms)
            .with("spans", spans);
        // The batch pipeline records no gauges or windows; emitting these
        // keys only when populated keeps `--metrics-out` documents
        // byte-identical to the pre-telemetry tool's.
        if self.metrics.gauges().next().is_some() {
            let mut gauges = Json::obj();
            for (name, g) in self.metrics.gauges() {
                gauges.set(name, g.to_json());
            }
            doc.set("gauges", gauges);
        }
        if self.metrics.windows().next().is_some() {
            let mut windows = Json::obj();
            for (name, w) in self.metrics.windows() {
                windows.set(name, w.to_json());
            }
            doc.set("windows", windows);
        }
        // Same contract as gauges/windows: `resources` appears only when
        // profiling actually recorded something, so an unprofiled run's
        // document stays byte-identical.
        if self.metrics.resources().next().is_some() {
            let mut resources = Json::obj();
            for (name, r) in self.metrics.resources() {
                resources.set(name, r.to_json());
            }
            doc.set("resources", resources);
        }
        doc
    }
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
            MetricsSnapshot {
                metrics: m.clone(),
                uptime_us: 0,
            }
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
    fn gauge_merge_is_associative_and_commutative() {
        let mut a = Gauge::new();
        a.add(4);
        a.sub(1); // net +3, watermarks [0, 4]
        let mut b = Gauge::new();
        b.add(2); // net +2, watermarks [0, 2]
        let mut c = Gauge::new();
        c.sub(5); // net -5, watermarks [-5, 0]

        let fold = |order: &[&Gauge]| {
            let mut m = Gauge::new();
            for g in order {
                m.merge_from(g);
            }
            m
        };
        let abc = fold(&[&a, &b, &c]);
        let cba = fold(&[&c, &b, &a]);
        assert_eq!(abc, cba);
        assert_eq!(abc.value(), 0);
        assert_eq!(abc.min(), Some(-5));
        assert_eq!(abc.max(), Some(4));
        assert_eq!(abc.samples(), 4);
        // ((a ⊔ b) ⊔ c) == (a ⊔ (b ⊔ c)), and empty is the identity.
        let mut left = a;
        left.merge_from(&b);
        left.merge_from(&c);
        let mut bc = b;
        bc.merge_from(&c);
        let mut right = a;
        right.merge_from(&bc);
        right.merge_from(&Gauge::new());
        assert_eq!(left, right);
    }

    #[test]
    fn windowed_counter_rates_and_total() {
        let mut w = WindowedCounter::new();
        assert_eq!(w.total(), 0);
        assert_eq!(w.rate_1m(), 0.0);
        w.add(30);
        w.add(30);
        // All 60 events are within the last minute of wall time.
        assert_eq!(w.total(), 60);
        assert!((w.rate_1m() - 1.0).abs() < 1e-9, "{}", w.rate_1m());
        assert!((w.rate_5m() - 0.2).abs() < 1e-9, "{}", w.rate_5m());
    }

    #[test]
    fn windowed_counter_merge_preserves_totals_and_rates() {
        let mut a = WindowedCounter::new();
        a.add(10);
        let mut b = WindowedCounter::new();
        b.add(20);
        a.merge_from(&b);
        assert_eq!(a.total(), 30);
        assert!((a.rate_5m() - 0.1).abs() < 1e-9, "{}", a.rate_5m());
        // Identity: merging an empty counter changes nothing.
        let before = a.total();
        a.merge_from(&WindowedCounter::new());
        assert_eq!(a.total(), before);
    }

    #[test]
    fn windowed_histogram_window_quantiles_and_cumulative() {
        let mut w = WindowedHistogram::new(&LATENCY_US_BOUNDS);
        assert_eq!(w.window_quantile(0.5), None);
        for v in [100u64, 200, 300, 400] {
            w.record(v);
        }
        assert_eq!(w.cumulative().count(), 4);
        let p50 = w.window_quantile(0.5).expect("live window");
        assert!((100.0..=400.0).contains(&p50), "{p50}");
        assert_eq!(w.window_quantile(1.0), Some(400.0));
        // Within the first slot the 1m rate counts everything just seen.
        assert!((w.rate_1m() - 4.0 / 60.0).abs() < 1e-9, "{}", w.rate_1m());
    }

    #[test]
    fn windowed_histogram_merge_matches_serial_cumulative() {
        let mut serial = WindowedHistogram::new(&LATENCY_US_BOUNDS);
        let mut a = WindowedHistogram::new(&LATENCY_US_BOUNDS);
        let mut b = WindowedHistogram::new(&LATENCY_US_BOUNDS);
        for v in [5u64, 50, 500] {
            serial.record(v);
            a.record(v);
        }
        for v in [7u64, 70_000] {
            serial.record(v);
            b.record(v);
        }
        a.merge_from(&b);
        assert_eq!(a.cumulative(), serial.cumulative());
        assert_eq!(a.window_quantile(1.0), serial.window_quantile(1.0));
    }

    #[test]
    fn metrics_gauge_and_window_registry_round_trip() {
        let mut m = Metrics::new();
        m.gauge_add("queue.depth", 2);
        m.gauge_sub("queue.depth", 1);
        m.gauge_set("workers.busy", 3);
        m.window_add("http.requests", 7);
        m.window_observe("http.latency.us", &LATENCY_US_BOUNDS, 1_234);
        assert_eq!(m.gauge("queue.depth").map(Gauge::value), Some(1));
        assert_eq!(m.gauge("workers.busy").map(Gauge::value), Some(3));
        assert_eq!(m.gauge("missing"), None);
        match m.window("http.requests") {
            Some(Windowed::Counter(w)) => assert_eq!(w.total(), 7),
            other => panic!("expected window counter, got {other:?}"),
        }
        // Kind mismatch is a no-op, never a reinterpretation.
        m.window_observe("http.requests", &LATENCY_US_BOUNDS, 9);
        m.window_add("http.latency.us", 9);
        match m.window("http.requests") {
            Some(Windowed::Counter(w)) => assert_eq!(w.total(), 7),
            other => panic!("expected window counter, got {other:?}"),
        }

        // Merge folds both registries.
        let mut other = Metrics::new();
        other.gauge_add("queue.depth", 4);
        other.window_add("http.requests", 3);
        m.merge_from(other);
        assert_eq!(m.gauge("queue.depth").map(Gauge::value), Some(5));
        match m.window("http.requests") {
            Some(Windowed::Counter(w)) => assert_eq!(w.total(), 10),
            other => panic!("expected window counter, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_omits_gauge_and_window_keys_when_empty() {
        let mut m = Metrics::new();
        m.add("pipeline.units", 1);
        let json = MetricsSnapshot {
            metrics: m,
            uptime_us: 1,
        }
        .to_json();
        // Batch documents must stay byte-identical: no new keys unless
        // the new registries are populated.
        assert!(json.pointer("/gauges").is_none());
        assert!(json.pointer("/windows").is_none());
        assert!(json.pointer("/resources").is_none());

        let mut m = Metrics::new();
        m.gauge_set("depth", 2);
        m.window_add("reqs", 1);
        let json = MetricsSnapshot {
            metrics: m,
            uptime_us: 1,
        }
        .to_json();
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

    #[test]
    fn res_stats_fold_and_export() {
        let mut m = Metrics::new();
        m.res_done(
            "pipeline.extract",
            &SpanResources {
                peak_rss_bytes: 10_000,
                rss_delta_bytes: 4_000,
                cpu_us: 500,
                bytes_in: 1_000,
            },
        );
        m.res_done(
            "pipeline.extract",
            &SpanResources {
                peak_rss_bytes: 8_000,
                rss_delta_bytes: -1_000,
                cpu_us: 300,
                bytes_in: 2_000,
            },
        );
        let stats = *m.resource("pipeline.extract").unwrap();
        assert_eq!(stats.count, 2);
        assert_eq!(stats.peak_rss_bytes, 10_000); // max, not sum
        assert_eq!(stats.rss_delta_bytes, 3_000); // signed net
        assert_eq!(stats.cpu_us, 800);
        assert_eq!(stats.bytes_in, 3_000);

        let json = MetricsSnapshot {
            metrics: m,
            uptime_us: 1,
        }
        .to_json();
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
        assert_eq!(doc.pointer("/bytesIn").and_then(Json::as_i64), Some(3_000));
    }

    #[test]
    fn res_stats_merge_matches_serial_fold() {
        let a_span = SpanResources {
            peak_rss_bytes: 5,
            rss_delta_bytes: 2,
            cpu_us: 10,
            bytes_in: 100,
        };
        let b_span = SpanResources {
            peak_rss_bytes: 9,
            rss_delta_bytes: -1,
            cpu_us: 20,
            bytes_in: 50,
        };
        let mut serial = Metrics::new();
        serial.res_done("s", &a_span);
        serial.res_done("s", &b_span);
        let mut left = Metrics::new();
        left.res_done("s", &a_span);
        let mut right = Metrics::new();
        right.res_done("s", &b_span);
        left.merge_from(right);
        assert_eq!(left.resource("s"), serial.resource("s"));
        // Identity: merging an empty registry changes nothing.
        left.merge_from(Metrics::new());
        assert_eq!(left.resource("s"), serial.resource("s"));
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

        let snap = MetricsSnapshot {
            metrics: m,
            uptime_us: 42,
        };
        let json = snap.to_json();
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
}
