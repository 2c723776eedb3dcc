//! Emits a `diffaudit-obs/v1` metrics snapshot with resource profiling
//! enabled for a full ensemble audit — the producer of the committed
//! `BENCH_mem.json` max-RSS baseline that `diffaudit obs diff
//! --fail-rss-over` checks as an advisory step in `scripts/check.sh`.
//!
//! The audit runs the way `diffaudit audit` does: the generated corpus is
//! written to a temporary directory (`bench.write`) and dropped, then every
//! service directory is loaded from disk through `load_capture_dir` and
//! audited (`bench.pipeline`). No generated dataset is alive during the
//! audit, so a regression in the audit's own memory shows in the
//! `bench.pipeline` peak; that peak still includes whatever heap the
//! allocator kept after the dataset was freed.
//!
//! Usage: `pipeline_mem [--scale <f64>] [--seed <u64>] [--sample-ms <u64>]
//! [--out <path>]`. Without `--out` the snapshot JSON goes to stdout. On a
//! box without `/proc` (non-Linux) the run still completes and the snapshot
//! simply carries no `resources` section — `obs diff` then reports the
//! resource gate as informational, so the baseline check degrades instead
//! of failing.

use diffaudit::loader::{load_capture_dir, write_dataset};
use diffaudit::pipeline::Pipeline;
use diffaudit_bench::{standard_dataset, write_snapshot, BenchArgs};
use diffaudit_obs as obs;
use diffaudit_util::cancel::Ctl;
use diffaudit_util::par::KeyInterner;
use std::time::Duration;

/// Report a fatal error and exit 1.
fn fail(msg: &str, err: impl std::fmt::Display) -> ! {
    obs::error(msg, &[obs::field("error", err.to_string())]);
    std::process::exit(1);
}

fn main() {
    let (args, extra) = BenchArgs::parse_extra(&["--out", "--sample-ms"]);
    let mut extra = extra.into_iter();
    let out = extra.next().flatten();
    let sample_ms: u64 = extra
        .next()
        .flatten()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);

    if !obs::enable_resources(Duration::from_millis(sample_ms.max(1))) {
        obs::warn(
            "[pipeline_mem] /proc unavailable; snapshot will carry no resource samples",
            &[],
        );
    }

    args.announce("[pipeline_mem] generating dataset");
    let dataset = {
        let _span = obs::span("bench.generate");
        standard_dataset(&args)
    };
    let corpus =
        std::env::temp_dir().join(format!("diffaudit-pipeline-mem-{}", std::process::id()));
    let dirs = {
        let _span = obs::span("bench.write");
        write_dataset(&dataset, &corpus)
            .unwrap_or_else(|e| fail("[pipeline_mem] cannot write corpus", e))
    };
    drop(dataset);

    obs::info("[pipeline_mem] auditing the corpus from disk", &[]);
    let outcome = {
        let _span = obs::span("bench.pipeline");
        let (scope, ctl) = (obs::Scope::global(), Ctl::unbounded());
        let interner = KeyInterner::new();
        let services = dirs
            .iter()
            .map(|dir| {
                load_capture_dir(dir, args.threads, &scope, &ctl, &interner)
                    .unwrap_or_else(|e| fail("[pipeline_mem] cannot load corpus", e))
                    .0
            })
            .collect();
        Pipeline::paper_default(args.seed)
            .with_threads(args.threads)
            .run_extracted_scoped(services, &scope, &ctl)
            .unwrap_or_else(|e| fail("[pipeline_mem] audit interrupted", e))
    };
    let _ = std::fs::remove_dir_all(&corpus);
    obs::add("bench.services", outcome.services.len() as u64);
    obs::add(
        "bench.units",
        outcome.services.iter().map(|s| s.units.len() as u64).sum(),
    );

    write_snapshot("pipeline_mem", out.as_deref());
}
