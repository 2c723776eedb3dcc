//! Instrumentation scopes: route the same `time`/`add`/`observe`/event
//! calls either to the process-global recorder (the batch CLI) or to a
//! private per-job registry (the serve daemon).
//!
//! The daemon's core isolation rule is that concurrent jobs must not write
//! each other's metrics or interleave on the global trace stream. Rather
//! than parameterizing the pipeline over two recorder types, stages take a
//! [`Scope`]:
//!
//! - [`Scope::global`] behaves exactly like the pre-existing free-function
//!   veneer — spans nest on the global stack, events hit stderr/trace — so
//!   the batch path stays byte-identical;
//! - [`Scope::job`] accumulates everything into a job-private
//!   [`LocalRecorder`] behind a mutex (span timings, counters, histograms;
//!   events become `job.events.<level>` counters and stay off the shared
//!   streams). [`Scope::finish`] closes the job's root span and yields the
//!   job's own [`MetricsSnapshot`], which the daemon renders into the
//!   per-job run report and merges into the global registry at job end —
//!   the one sanctioned join point, mirroring what `absorb` does for
//!   worker threads.
//!
//! The job mutex is held only for the duration of a metric write, never
//! across user closures, so pipeline workers absorbing their
//! `LocalRecorder`s mid-`time` cannot deadlock.
//!
//! Gauges and sliding windows have no scoped form: they are live
//! instruments of the process-global recorder only (see
//! [`crate::metrics::Gauge`]).

use crate::event::Field;
use crate::level::Level;
use crate::metrics::MetricsSnapshot;
use crate::recorder::LocalRecorder;
use std::sync::Mutex;
use std::time::Instant;

enum ScopeInner {
    Global,
    Job(Mutex<JobState>),
}

struct JobState {
    recorder: LocalRecorder,
    root: String,
    started: Instant,
}

/// Where instrumentation lands: the process-global recorder or a private
/// per-job registry. See the module docs.
pub struct Scope {
    inner: ScopeInner,
}

impl std::fmt::Debug for Scope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            ScopeInner::Global => f.write_str("Scope::Global"),
            ScopeInner::Job(_) => f.write_str("Scope::Job"),
        }
    }
}

fn lock_job(job: &Mutex<JobState>) -> std::sync::MutexGuard<'_, JobState> {
    match job.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Scope {
    /// The global scope: every call forwards to the process-global
    /// recorder, exactly like the free functions in [`crate`].
    pub fn global() -> Scope {
        Scope {
            inner: ScopeInner::Global,
        }
    }

    /// A job scope rooted at span `root` (e.g. `serve.job`). The root span
    /// is recorded when [`finish`](Scope::finish) is called.
    pub fn job(root: impl Into<String>) -> Scope {
        Scope {
            inner: ScopeInner::Job(Mutex::new(JobState {
                recorder: LocalRecorder::new(),
                root: root.into(),
                started: Instant::now(),
            })),
        }
    }

    /// Time `f` as a completed span named `name`. Global: an RAII guard on
    /// the global recorder (trace record, span stack). Job: recorded into
    /// the job registry after `f` returns — the job lock is *not* held
    /// while `f` runs.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        match &self.inner {
            ScopeInner::Global => {
                // lint:allow(metric-discipline): forwards the caller's name
                // (a static literal at the call site) into the owned-String
                // span API; no name is constructed here.
                let _span = crate::span(name.to_string());
                f()
            }
            ScopeInner::Job(job) => {
                let start = Instant::now();
                let out = f();
                let dur_us = elapsed_us(start);
                lock_job(job).recorder.span(name, dur_us);
                out
            }
        }
    }

    /// Add `n` to counter `name`.
    pub fn add(&self, name: &str, n: u64) {
        match &self.inner {
            ScopeInner::Global => crate::add(name, n),
            ScopeInner::Job(job) => lock_job(job).recorder.add(name, n),
        }
    }

    /// Record `value` into histogram `name` over `bounds`.
    pub fn observe(&self, name: &str, bounds: &[u64], value: u64) {
        match &self.inner {
            ScopeInner::Global => crate::observe(name, bounds, value),
            ScopeInner::Job(job) => lock_job(job).recorder.observe(name, bounds, value),
        }
    }

    /// Emit a structured event. Global: stderr/trace via the global
    /// recorder. Job: jobs stay off the shared streams — the event is
    /// tallied as a `job.events.<level>` counter in the job registry.
    pub fn event(&self, level: Level, msg: &str, fields: &[Field]) {
        match &self.inner {
            ScopeInner::Global => crate::global().event(level, msg, fields),
            ScopeInner::Job(job) => {
                let name = format!("job.events.{}", level.label());
                lock_job(job).recorder.add(&name, 1);
            }
        }
    }

    /// [`event`](Scope::event) at `debug`.
    pub fn debug(&self, msg: &str, fields: &[Field]) {
        self.event(Level::Debug, msg, fields);
    }

    /// [`event`](Scope::event) at `warn`.
    pub fn warn(&self, msg: &str, fields: &[Field]) {
        self.event(Level::Warn, msg, fields);
    }

    /// Merge a worker thread's recorder into this scope — the join-time
    /// `absorb` for both flavors: global scopes merge into the process
    /// registry, job scopes into the job's private one.
    pub fn absorb(&self, local: LocalRecorder) {
        match &self.inner {
            ScopeInner::Global => crate::absorb(local),
            ScopeInner::Job(job) => lock_job(job).recorder.absorb(local),
        }
    }

    /// Close the scope. Job: records the root span (wall time since
    /// [`Scope::job`]) and returns the job's private snapshot for the run
    /// report / global merge. Global: nothing to collect — `None`.
    pub fn finish(self) -> Option<MetricsSnapshot> {
        match self.inner {
            ScopeInner::Global => None,
            ScopeInner::Job(job) => {
                let mut state = match job.into_inner() {
                    Ok(state) => state,
                    Err(poisoned) => poisoned.into_inner(),
                };
                let uptime_us = elapsed_us(state.started);
                let root = state.root.clone();
                state.recorder.span(&root, uptime_us);
                Some(MetricsSnapshot::new(
                    state.recorder.into_metrics(),
                    uptime_us,
                ))
            }
        }
    }
}

fn elapsed_us(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::field;

    #[test]
    fn job_scope_keeps_metrics_private_and_snapshots_root_span() {
        let scope = Scope::job("serve.job");
        let out = scope.time("stage.decode", || {
            std::thread::sleep(std::time::Duration::from_millis(1));
            7
        });
        assert_eq!(out, 7);
        scope.add("units", 3);
        scope.observe("bytes", &crate::metrics::BYTE_BOUNDS, 100);
        scope.warn("unit dropped", &[field("reason", "test")]);

        let before = crate::snapshot().metrics.counter("units");
        let snap = scope.finish().expect("job scope yields a snapshot");
        // Nothing leaked into the global registry.
        assert_eq!(crate::snapshot().metrics.counter("units"), before);
        assert_eq!(snap.metrics.counter("units"), 3);
        assert_eq!(snap.metrics.counter("job.events.warn"), 1);
        let root = snap
            .metrics
            .spans()
            .find(|(n, _)| *n == "serve.job")
            .map(|(_, s)| *s)
            .expect("root span recorded");
        assert_eq!(root.count, 1);
        let stage = snap
            .metrics
            .spans()
            .find(|(n, _)| *n == "stage.decode")
            .map(|(_, s)| *s)
            .expect("stage span recorded");
        assert!(root.total_us >= stage.total_us, "{root:?} vs {stage:?}");
    }

    #[test]
    fn job_scope_absorbs_worker_recorders() {
        let scope = Scope::job("serve.job");
        let mut worker = LocalRecorder::new();
        worker.add("worker.items", 5);
        scope.absorb(worker);
        let snap = scope.finish().expect("snapshot");
        assert_eq!(snap.metrics.counter("worker.items"), 5);
    }

    #[test]
    fn global_scope_forwards_and_finishes_to_none() {
        let scope = Scope::global();
        scope.add("obs.scope.test.counter", 2);
        scope.time("obs.scope.test.span", || ());
        assert_eq!(
            crate::snapshot().metrics.counter("obs.scope.test.counter"),
            2
        );
        assert!(crate::snapshot()
            .metrics
            .spans()
            .any(|(n, _)| n == "obs.scope.test.span"));
        assert!(scope.finish().is_none());
    }
}
