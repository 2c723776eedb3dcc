//! Cold-vs-warm pipeline benchmark for the persistent classification cache
//! — the producer of the committed `BENCH_cache.json` baseline that
//! `diffaudit obs diff` checks in `scripts/check.sh`.
//!
//! Usage: `pipeline_cached --cache-dir <dir> [--scale <f64>] [--seed <u64>]
//! [--warm-budget-ms <u64>] [--out <path>]`. The cache log inside
//! `--cache-dir` is removed first so
//! the first run is genuinely cold; the second run over the same dataset
//! must then be served entirely from the cache. The bin hard-asserts the
//! cache contract (cold inserts every unique key, warm hits all of them and
//! misses none) and exits 1 when it does not hold, so the check.sh step
//! fails loudly instead of committing a vacuous baseline. `--warm-budget-ms`
//! additionally checks the warm-run wall time against a budget and exits 2
//! (the advisory-regression code) when it is exceeded.

use diffaudit::pipeline::Pipeline;
use diffaudit_bench::{standard_dataset, write_snapshot, BenchArgs};
use diffaudit_classifier::cache::{LOCK_FILE, LOG_FILE};
use diffaudit_obs as obs;
use std::path::Path;
use std::time::Instant;

fn main() {
    let (args, extra) = BenchArgs::parse_extra(&["--out", "--cache-dir", "--warm-budget-ms"]);
    let mut extra = extra.into_iter();
    let out = extra.next().flatten();
    let Some(cache_dir) = extra.next().flatten() else {
        obs::error("[pipeline_cached] --cache-dir <dir> is required", &[]);
        std::process::exit(2);
    };
    let warm_budget_ms: Option<u64> = match extra.next().flatten() {
        None => None,
        Some(v) => match v.parse() {
            Ok(ms) => Some(ms),
            Err(_) => {
                obs::error(
                    "[pipeline_cached] --warm-budget-ms requires an integer",
                    &[],
                );
                std::process::exit(2);
            }
        },
    };
    // Start cold: drop any previous log (and a stale lock) but leave the
    // directory itself alone.
    let dir = Path::new(&cache_dir);
    let _ = std::fs::remove_file(dir.join(LOG_FILE));
    let _ = std::fs::remove_file(dir.join(LOCK_FILE));

    args.announce("[pipeline_cached] generating dataset");
    let dataset = {
        let _span = obs::span("bench.generate");
        standard_dataset(&args)
    };

    obs::info("[pipeline_cached] cold run (cache empty)", &[]);
    let cold_timer = Instant::now();
    let cold = {
        let _span = obs::span("bench.pipeline.cold");
        Pipeline::paper_default(args.seed)
            .with_threads(args.threads)
            .with_cache_dir(dir)
            .run(&dataset)
    };
    let cold_us = cold_timer.elapsed().as_micros() as u64;

    obs::info("[pipeline_cached] warm run (cache primed)", &[]);
    let warm_timer = Instant::now();
    let warm = {
        let _span = obs::span("bench.pipeline.warm");
        Pipeline::paper_default(args.seed)
            .with_threads(args.threads)
            .with_cache_dir(dir)
            .run(&dataset)
    };
    let warm_us = warm_timer.elapsed().as_micros() as u64;

    // The cache contract, hard-asserted: a cold run inserts every unique
    // classified key; a warm run over the same inputs hits all of them and
    // never reaches the ensemble.
    let (Some(cold_cache), Some(warm_cache)) = (cold.cache.as_ref(), warm.cache.as_ref()) else {
        obs::error("[pipeline_cached] pipeline ran uncached", &[]);
        std::process::exit(1);
    };
    if cold_cache.inserts == 0 || cold_cache.inserts != cold_cache.misses {
        obs::error(
            "[pipeline_cached] cold run must insert every miss",
            &[
                obs::field("misses", cold_cache.misses),
                obs::field("inserts", cold_cache.inserts),
            ],
        );
        std::process::exit(1);
    }
    if warm_cache.misses != 0 || warm_cache.hits != cold_cache.hits + cold_cache.misses {
        obs::error(
            "[pipeline_cached] warm run must be fully cache-served",
            &[
                obs::field("warmHits", warm_cache.hits),
                obs::field("warmMisses", warm_cache.misses),
                obs::field("coldKeys", cold_cache.hits + cold_cache.misses),
            ],
        );
        std::process::exit(1);
    }
    if warm.key_labels != cold.key_labels {
        obs::error(
            "[pipeline_cached] warm labels diverge from cold labels",
            &[],
        );
        std::process::exit(1);
    }

    obs::add("bench.services", warm.services.len() as u64);
    obs::add("bench.cache.keys", warm_cache.hits);
    obs::info(
        "[pipeline_cached] cache contract holds",
        &[
            obs::field("keys", warm_cache.hits),
            obs::field("coldMs", cold_us / 1000),
            obs::field("warmMs", warm_us / 1000),
            obs::field(
                "hitRatio",
                warm_cache.hits as f64 / (warm_cache.hits + warm_cache.misses).max(1) as f64,
            ),
        ],
    );

    write_snapshot("pipeline_cached", out.as_deref());

    // The warm-run wall budget is checked last so the snapshot is written
    // either way; exit 2 is the advisory-regression code check.sh warns on.
    if let Some(budget_ms) = warm_budget_ms {
        if warm_us / 1000 > budget_ms {
            obs::warn(
                "[pipeline_cached] warm run exceeded its wall budget",
                &[
                    obs::field("warmMs", warm_us / 1000),
                    obs::field("budgetMs", budget_ms),
                ],
            );
            std::process::exit(2);
        }
    }
}
