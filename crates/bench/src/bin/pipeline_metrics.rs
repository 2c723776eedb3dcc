//! Emits a `diffaudit-obs/v1` metrics snapshot for a full ensemble pipeline
//! run — the producer of the committed `BENCH_pipeline.json` perf baseline
//! that `diffaudit obs diff` checks in `scripts/check.sh`.
//!
//! Usage: `pipeline_metrics [--scale <f64>] [--seed <u64>] [--out <path>]`.
//! Without `--out` the snapshot JSON goes to stdout. The run is wrapped in
//! `bench.generate` / `bench.pipeline` spans so the snapshot carries
//! per-stage wall times alongside the pipeline's own instrumentation.

use diffaudit_bench::{ensemble_outcome, standard_dataset, write_snapshot, BenchArgs};
use diffaudit_obs as obs;

fn main() {
    let (args, extra) = BenchArgs::parse_extra(&["--out"]);
    let out = extra.into_iter().next().flatten();

    args.announce("[pipeline_metrics] generating dataset");
    let dataset = {
        let _span = obs::span("bench.generate");
        standard_dataset(&args)
    };

    obs::info("[pipeline_metrics] running ensemble pipeline", &[]);
    let outcome = {
        let _span = obs::span("bench.pipeline");
        ensemble_outcome(&args, &dataset, args.seed)
    };
    obs::add("bench.services", outcome.services.len() as u64);
    obs::add(
        "bench.units",
        outcome.services.iter().map(|s| s.units.len() as u64).sum(),
    );

    write_snapshot("pipeline_metrics", out.as_deref());
}
