//! The daemon side of the benchmark: a `diffaudit serve` deployment with the
//! corpus uploaded once, and job phases driven from two threads over at most
//! two connections. A submitter thread releases jobs (on a fixed schedule in
//! an open loop, or as earlier jobs finish in a closed loop); the calling
//! thread polls `GET /api/v1/jobs/<id>/result` until it stops answering
//! 409 and checks each result against the batch CLI's output.

use crate::corpus::{Corpus, ServiceDir};
use crate::http;
use crate::procs::{self, Daemon};
use crate::stats;
use diffaudit_json::{parse, Json};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::mpsc::{self, TryRecvError};
use std::time::{Duration, Instant};

/// Pause after each result poll that found the job unfinished.
const POLL_PAUSE: Duration = Duration::from_millis(2);

/// A job still unfinished this long after it was accepted counts failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// The daemon as the workload runs it: one pipeline thread per job, two
/// job workers, a queue of eight.
const DAEMON_ARGS: [&str; 11] = [
    "--threads",
    "1",
    "--log-level",
    "error",
    "serve",
    "--port",
    "0",
    "--workers",
    "2",
    "--queue",
    "8",
];

/// One uploaded service a job can target.
pub struct Target {
    /// The `POST /api/v1/jobs` body.
    pub body: String,
    /// `diffaudit audit <dir> --format json` for the same directory: the
    /// bytes every result must equal.
    pub reference: Vec<u8>,
}

/// A running daemon with the corpus uploaded.
pub struct Deployment {
    /// The daemon process.
    pub daemon: Daemon,
    /// Job targets, one per service, in corpus order.
    pub targets: Vec<Target>,
    /// Bytes uploaded (artifacts plus key logs).
    pub upload_bytes: u64,
    /// Wall time of all uploads, in seconds.
    pub upload_secs: f64,
}

impl Deployment {
    /// Capture the CLI reference for every service, boot the daemon and
    /// upload the corpus. `scratch` receives the reference outputs.
    pub fn open(bin: &Path, corpus: &Corpus, scratch: &Path) -> Result<Deployment, String> {
        let mut references = Vec::with_capacity(corpus.services.len());
        for svc in &corpus.services {
            let args = [
                "--threads",
                "2",
                "--log-level",
                "error",
                "audit",
                &svc.dir.display().to_string(),
                "--format",
                "json",
            ]
            .map(str::to_string);
            let run = procs::run_cli(bin, &args, &scratch.join(format!("{}.json", svc.slug)))?;
            if run.code != Some(0) {
                return Err(format!(
                    "reference audit of {} exited {:?}",
                    svc.slug, run.code
                ));
            }
            references.push(run.stdout);
        }
        let daemon = Daemon::start(bin, &DAEMON_ARGS.map(str::to_string))?;
        let started = Instant::now();
        let mut upload_bytes = 0;
        let mut targets = Vec::with_capacity(references.len());
        for (svc, reference) in corpus.services.iter().zip(references) {
            let (ids, bytes) = upload(&daemon.addr, svc)?;
            upload_bytes += bytes;
            targets.push(Target {
                body: job_body(svc, &ids),
                reference,
            });
        }
        Ok(Deployment {
            daemon,
            targets,
            upload_bytes,
            upload_secs: started.elapsed().as_secs_f64(),
        })
    }
}

fn json_str(body: &[u8], key: &str) -> Result<String, String> {
    let text = std::str::from_utf8(body).map_err(|_| "response is not UTF-8")?;
    parse(text)
        .ok()
        .and_then(|doc| doc.get(key).and_then(Json::as_str).map(str::to_string))
        .ok_or_else(|| format!("response has no {key:?}: {text}"))
}

/// Upload every unit of `svc` (attaching key logs to captures); returns
/// the trace ids in manifest order and the bytes sent.
fn upload(addr: &str, svc: &ServiceDir) -> Result<(Vec<String>, u64), String> {
    let read = |file: &str| {
        std::fs::read(svc.dir.join(file)).map_err(|e| format!("cannot read {file}: {e}"))
    };
    let mut ids = Vec::with_capacity(svc.units.len());
    let mut bytes = 0u64;
    for unit in &svc.units {
        let body = read(&unit.file)?;
        bytes += body.len() as u64;
        let path = format!(
            "/api/v1/traces?label={}&platform={}&kind={}&category={}",
            unit.file, unit.platform, unit.kind, unit.category
        );
        let r = http::request(addr, "POST", &path, &body).map_err(|e| format!("upload: {e}"))?;
        if r.status != 201 {
            return Err(format!("upload of {} answered {}", unit.file, r.status));
        }
        let id = json_str(&r.body, "traceId")?;
        if let Some(keylog) = &unit.keylog {
            let keys = read(keylog)?;
            bytes += keys.len() as u64;
            let path = format!("/api/v1/traces/{id}/keylog");
            let r =
                http::request(addr, "POST", &path, &keys).map_err(|e| format!("keylog: {e}"))?;
            if r.status != 200 {
                return Err(format!("keylog of {} answered {}", unit.file, r.status));
            }
        }
        ids.push(id);
    }
    Ok((ids, bytes))
}

fn job_body(svc: &ServiceDir, ids: &[String]) -> String {
    Json::obj()
        .with(
            "service",
            Json::obj()
                .with("name", Json::str(&svc.name))
                .with("slug", Json::str(&svc.slug))
                .with(
                    "firstPartyDomains",
                    Json::Arr(svc.domains.iter().map(Json::str).collect()),
                ),
        )
        .with("traces", Json::Arr(ids.iter().map(Json::str).collect()))
        .to_string()
}

/// How a phase releases its jobs.
#[derive(Debug, Clone, Copy)]
pub enum Pacing {
    /// Job `i` is due `i / rate` seconds into the phase, whatever the
    /// daemon is doing.
    Open {
        /// Jobs per second.
        rate: f64,
    },
    /// The next job is due as soon as fewer than `outstanding` are open.
    Closed {
        /// Jobs kept in flight.
        outstanding: usize,
    },
}

/// Jobs a phase of `secs` seconds releases at `rate` jobs per second.
pub fn phase_jobs(rate: f64, secs: f64) -> usize {
    ((rate * secs).round() as usize).max(1)
}

/// The open-loop phases of `seconds` of a daemon's run, in the order they
/// run: 8 jobs/s, then 16 jobs/s, each for three twentieths of it.
pub fn open_phases(seconds: f64) -> [(&'static str, Pacing, usize); 2] {
    [
        (
            "serve.r8",
            Pacing::Open { rate: 8.0 },
            phase_jobs(8.0, 0.15 * seconds),
        ),
        (
            "serve.r16",
            Pacing::Open { rate: 16.0 },
            phase_jobs(16.0, 0.15 * seconds),
        ),
    ]
}

/// What happened to one job; times are milliseconds from the phase start.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobRecord {
    /// When the job was due to be submitted.
    pub due_ms: f64,
    /// When the submission was actually sent.
    pub sent_ms: f64,
    /// When its verified result arrived (`None`: it never did).
    pub done_ms: Option<f64>,
    /// Round trip of the submission.
    pub submit_ms: f64,
    /// Round trip of the final, successful result fetch.
    pub result_ms: f64,
    /// Result requests made, the final one included.
    pub polls: u32,
    /// The submission was shed with 429.
    pub shed: bool,
    /// Accepted, finished clean, and byte-identical to the reference.
    pub ok: bool,
    /// Finished clean but differed from the reference.
    pub mismatch: bool,
}

/// Aggregates of one phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseStats {
    /// Due time to verified result, for each job that succeeded.
    pub latency_ms: Vec<f64>,
    /// Send time minus due time, for every job: how late the generator ran.
    pub lag_ms: Vec<f64>,
    /// Jobs that failed (shed, refused, not clean, timed out, mismatched).
    pub failed: usize,
    /// Of those, submissions shed with 429.
    pub shed: usize,
    /// Of those, clean results that differed from the reference.
    pub mismatches: usize,
    /// First submission to last result, in milliseconds.
    pub span_ms: f64,
}

/// A generator lag p90 above this share of a phase's median latency makes
/// an open-loop phase invalid: its latencies would measure the generator.
const MAX_LAG_SHARE: f64 = 0.1;

/// The note for an open-loop phase that [`PhaseStats::on_schedule`] rejects.
pub const OFF_SCHEDULE: &str = "INVALID, generator lag p90 exceeds 10% of the median latency";

impl PhaseStats {
    /// 90th percentile of the generator's lag, in milliseconds.
    pub fn lag_p90(&self) -> f64 {
        stats::percentile(&stats::sorted(&self.lag_ms), 90.0).unwrap_or(0.0)
    }

    /// The generator kept to the schedule of an open-loop phase: its lag
    /// p90 is at most a tenth of the median latency. A phase in which no
    /// job succeeded has no latency to compare with and is not.
    pub fn on_schedule(&self) -> bool {
        stats::median(&self.latency_ms).is_some_and(|p50| self.lag_p90() <= MAX_LAG_SHARE * p50)
    }

    /// Pool in the same phase as run on another daemon. The daemons ran one
    /// after the other, so their spans add up.
    pub fn absorb(&mut self, other: PhaseStats) {
        self.latency_ms.extend(other.latency_ms);
        self.lag_ms.extend(other.lag_ms);
        self.failed += other.failed;
        self.shed += other.shed;
        self.mismatches += other.mismatches;
        self.span_ms += other.span_ms;
    }
}

/// Fold job records into phase aggregates. Latency runs from the due
/// time, so a stalled generator charges its delay to every late job.
pub fn account(jobs: &[JobRecord]) -> PhaseStats {
    let mut stats = PhaseStats::default();
    let mut first_sent = f64::INFINITY;
    let mut last_done: f64 = 0.0;
    for job in jobs {
        stats.lag_ms.push(job.sent_ms - job.due_ms);
        first_sent = first_sent.min(job.sent_ms);
        match job.done_ms {
            Some(done) if job.ok => {
                stats.latency_ms.push(done - job.due_ms);
                last_done = last_done.max(done);
            }
            _ => stats.failed += 1,
        }
        stats.shed += usize::from(job.shed);
        stats.mismatches += usize::from(job.mismatch);
    }
    stats.span_ms = (last_done - first_sent).max(0.0);
    stats
}

/// A job the poller is waiting on.
struct Pending {
    index: usize,
    id: String,
    record: JobRecord,
    /// When the poller took the job over; bounds how long it waits.
    polling_since: Instant,
}

/// Run `count` jobs round-robin over `targets` at `pacing`. Returns the
/// phase start and one record per job.
pub fn run_phase(
    addr: &str,
    targets: &[Target],
    pacing: Pacing,
    count: usize,
) -> (Instant, Vec<JobRecord>) {
    let t0 = Instant::now();
    let ms = move |t: Instant| t.duration_since(t0).as_secs_f64() * 1e3;
    let (submitted_tx, submitted_rx) = mpsc::channel::<(usize, JobRecord, Option<String>)>();
    let (permit_tx, permit_rx) = mpsc::channel::<()>();
    let mut records: Vec<JobRecord> = vec![JobRecord::default(); count];
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for index in 0..count {
                let due = match pacing {
                    Pacing::Open { rate } => {
                        let due = t0 + Duration::from_secs_f64(index as f64 / rate);
                        std::thread::sleep(due.saturating_duration_since(Instant::now()));
                        due
                    }
                    Pacing::Closed { outstanding } => {
                        if index >= outstanding && permit_rx.recv().is_err() {
                            return;
                        }
                        Instant::now()
                    }
                };
                let body = targets[index % targets.len()].body.as_bytes();
                let sent = Instant::now();
                let response = http::request(addr, "POST", "/api/v1/jobs", body);
                let mut record = JobRecord {
                    due_ms: ms(due),
                    sent_ms: ms(sent),
                    submit_ms: ms(Instant::now()) - ms(sent),
                    ..JobRecord::default()
                };
                let id = match response {
                    Ok(r) if r.status == 202 => json_str(&r.body, "jobId").ok(),
                    Ok(r) => {
                        record.shed = r.status == 429;
                        None
                    }
                    Err(_) => None,
                };
                if submitted_tx.send((index, record, id)).is_err() {
                    return;
                }
            }
        });

        let mut pending: VecDeque<Pending> = VecDeque::new();
        let mut submitting = true;
        loop {
            while submitting {
                let next = if pending.is_empty() {
                    submitted_rx.recv().map_err(|_| TryRecvError::Disconnected)
                } else {
                    submitted_rx.try_recv()
                };
                match next {
                    Ok((index, record, Some(id))) => pending.push_back(Pending {
                        index,
                        id,
                        record,
                        polling_since: Instant::now(),
                    }),
                    Ok((index, record, None)) => {
                        records[index] = record;
                        let _ = permit_tx.send(());
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => submitting = false,
                }
            }
            let Some(mut job) = pending.pop_front() else {
                break;
            };
            let asked = Instant::now();
            let response =
                http::request(addr, "GET", &format!("/api/v1/jobs/{}/result", job.id), b"");
            let answered = Instant::now();
            job.record.polls += 1;
            match response {
                Ok(r) if r.status == 409 => {
                    if job.polling_since.elapsed() < JOB_TIMEOUT {
                        pending.push_back(job);
                        std::thread::sleep(POLL_PAUSE);
                        continue;
                    }
                }
                Ok(r) => {
                    let target = &targets[job.index % targets.len()];
                    job.record.result_ms = ms(answered) - ms(asked);
                    job.record.done_ms = Some(ms(answered));
                    job.record.ok = r.status == 200 && r.body == target.reference;
                    job.record.mismatch = r.status == 200 && r.body != target.reference;
                }
                Err(_) => {}
            }
            records[job.index] = job.record;
            let _ = permit_tx.send(());
        }
    });
    (t0, records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(due: f64, sent: f64, done: Option<f64>, ok: bool) -> JobRecord {
        JobRecord {
            due_ms: due,
            sent_ms: sent,
            done_ms: done,
            ok,
            ..JobRecord::default()
        }
    }

    #[test]
    fn latency_runs_from_the_due_time_and_lag_is_recorded() {
        // Sent 5 ms late, answered 50 ms after it was due: the latency is
        // 50 ms, not the 45 ms since it was actually sent.
        let stats = account(&[job(100.0, 105.0, Some(150.0), true)]);
        assert_eq!(stats.latency_ms, vec![50.0]);
        assert_eq!(stats.lag_ms, vec![5.0]);
        assert_eq!((stats.failed, stats.span_ms), (0, 45.0));
    }

    #[test]
    fn failed_jobs_count_but_add_no_latency() {
        let mut shed = job(0.0, 0.5, None, false);
        shed.shed = true;
        let mut mismatch = job(62.5, 63.0, Some(120.0), false);
        mismatch.mismatch = true;
        let stats = account(&[
            shed,
            mismatch,
            job(125.0, 125.0, Some(200.0), true),
            job(187.5, 187.5, None, false),
        ]);
        assert_eq!(stats.latency_ms, vec![75.0]);
        assert_eq!(stats.lag_ms, vec![0.5, 0.5, 0.0, 0.0]);
        assert_eq!((stats.failed, stats.shed, stats.mismatches), (3, 1, 1));
        assert_eq!(stats.span_ms, 199.5);
    }

    #[test]
    fn pooled_phases_keep_every_sample_and_add_spans() {
        let mut shed = job(0.0, 0.0, None, false);
        shed.shed = true;
        let mut pooled = account(&[job(0.0, 1.0, Some(50.0), true)]);
        pooled.absorb(account(&[job(0.0, 2.0, Some(80.0), true), shed]));
        assert_eq!(pooled.latency_ms, vec![50.0, 80.0]);
        assert_eq!(pooled.lag_ms, vec![1.0, 2.0, 0.0]);
        assert_eq!((pooled.failed, pooled.shed), (1, 1));
        // 49 ms on the first daemon, 80 ms (from the shed job's send) on the second.
        assert_eq!(pooled.span_ms, 129.0);
    }

    #[test]
    fn an_empty_phase_has_no_samples() {
        assert_eq!(account(&[]), PhaseStats::default());
        assert!(!PhaseStats::default().on_schedule());
    }

    #[test]
    fn a_late_generator_makes_the_phase_invalid() {
        // Median latency 50 ms: a lag p90 of 5 ms is on schedule, 6 ms not.
        let phase = |late: f64| {
            account(
                &(0..10)
                    .map(|i| {
                        let due = 100.0 * f64::from(i);
                        job(due, due + late, Some(due + 50.0), true)
                    })
                    .collect::<Vec<_>>(),
            )
        };
        assert!(phase(5.0).on_schedule());
        assert!(!phase(6.0).on_schedule());
    }

    #[test]
    fn job_bodies_name_the_service_and_traces() {
        let svc = ServiceDir {
            dir: "d".into(),
            name: "Quizlet".to_string(),
            slug: "quizlet".to_string(),
            domains: vec!["quizlet.com".to_string()],
            units: Vec::new(),
        };
        let doc = parse(&job_body(&svc, &["t-1".to_string(), "t-2".to_string()])).expect("JSON");
        assert_eq!(
            doc.pointer("/service/slug").and_then(Json::as_str),
            Some("quizlet")
        );
        assert_eq!(
            doc.pointer("/service/firstPartyDomains/0")
                .and_then(Json::as_str),
            Some("quizlet.com")
        );
        assert_eq!(doc.pointer("/traces/1").and_then(Json::as_str), Some("t-2"));
    }
}
