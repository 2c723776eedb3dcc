#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # diffaudit-bench
//!
//! The benchmark harness: one binary per paper table/figure (see
//! `src/bin/`), the `serve_load` load generator for the `serve` daemon,
//! and std-only micro-benchmarks (see `benches/`, run with `cargo bench -p
//! diffaudit-bench`). The pipeline's speed and memory baselines
//! (`BENCH_pipeline.json`, `BENCH_cache.json`) are not taken here: they are
//! `diffaudit audit --metrics-out` snapshots of the shipped CLI, produced
//! by `scripts/check.sh`.
//!
//! Every binary accepts `--scale <f64>` (default 1.0 = paper-scale traffic),
//! `--seed <u64>` (default 2023), and `--threads <usize>` (worker threads
//! for the parallel pipeline stages; default = available parallelism, 1 =
//! serial). Regeneration commands are indexed in `DESIGN.md` and results
//! are recorded in `EXPERIMENTS.md`.

use diffaudit::pipeline::{AuditOutcome, ClassificationMode, Pipeline};
use diffaudit_classifier::LabeledExample;
use diffaudit_obs as obs;
use diffaudit_ontology::DataTypeCategory;
use diffaudit_services::{generate_dataset_threads, DatasetOptions, GeneratedDataset};
use std::collections::HashMap;

/// Standard CLI options shared by all bench binaries.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Traffic volume multiplier.
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Worker threads for the parallel pipeline stages. Passed explicitly
    /// to every stage ([`standard_dataset`], [`oracle_outcome`]) — there is
    /// no process-global default.
    pub threads: usize,
}

impl BenchArgs {
    /// Parse `--scale`/`--seed`/`--threads` from `std::env::args`; anything
    /// else prints usage and exits. Also raises the global `diffaudit-obs`
    /// recorder to `Info` so bench progress events reach stderr by default.
    pub fn parse() -> BenchArgs {
        BenchArgs::parse_extra(&[]).0
    }

    /// Like [`BenchArgs::parse`], but additionally accepts the given extra
    /// `--flag <value>` options; the returned vector holds the values in the
    /// same order as `extra` (None when a flag was not supplied).
    pub fn parse_extra(extra: &[&str]) -> (BenchArgs, Vec<Option<String>>) {
        obs::global().configure(obs::ObsConfig {
            level: Some(obs::Level::Info),
            stderr: None,
            trace: None,
        });
        let mut args = BenchArgs {
            scale: 1.0,
            seed: 2023,
            threads: diffaudit_util::par::available_threads(),
        };
        let mut values: Vec<Option<String>> = vec![None; extra.len()];
        let mut iter = std::env::args().skip(1);
        while let Some(flag) = iter.next() {
            match flag.as_str() {
                "--scale" => {
                    args.scale = iter
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--scale requires a float"));
                }
                "--seed" => {
                    args.seed = iter
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--seed requires an integer"));
                }
                "--threads" => {
                    args.threads = iter
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n: &usize| n >= 1)
                        .unwrap_or_else(|| usage("--threads requires a positive integer"));
                }
                other => match extra.iter().position(|e| *e == other) {
                    Some(slot) => {
                        values[slot] = Some(
                            iter.next()
                                .unwrap_or_else(|| usage(&format!("{other} requires a value"))),
                        );
                    }
                    None => usage(&format!("unknown flag {other:?}")),
                },
            }
        }
        (args, values)
    }

    /// Emit a standard `info` progress event for a bench stage, tagged with
    /// the scale and seed in play.
    pub fn announce(&self, stage: &str) {
        obs::info(
            stage,
            &[
                obs::field("scale", self.scale),
                obs::field("seed", self.seed),
            ],
        );
    }
}

fn usage(message: &str) -> ! {
    obs::error(message, &[]);
    obs::write_stderr_block("usage: <bin> [--scale <f64>] [--seed <u64>] [--threads <usize>]\n");
    std::process::exit(2);
}

/// Generate the standard dataset for these args (packaging runs on
/// `args.threads` workers).
pub fn standard_dataset(args: &BenchArgs) -> GeneratedDataset {
    generate_dataset_threads(
        &DatasetOptions {
            seed: args.seed,
            volume_scale: args.scale,
            mobile_pinned_fraction: 0.12,
            services: Vec::new(),
        },
        args.threads,
    )
}

/// Run the pipeline in oracle mode (ground-truth labels), which isolates
/// flow-level results from classifier noise — the configuration used for
/// the flow tables/figures, where the paper relied on its validated labels.
pub fn oracle_outcome(args: &BenchArgs, dataset: &GeneratedDataset) -> AuditOutcome {
    Pipeline::new(ClassificationMode::Oracle(dataset.key_truth.clone()))
        .with_threads(args.threads)
        .run(dataset)
}

/// Turn the dataset's key ground truth into labeled validation examples,
/// sorted for determinism.
pub fn labeled_examples(truth: &HashMap<String, DataTypeCategory>) -> Vec<LabeledExample> {
    let mut examples: Vec<LabeledExample> = truth
        .iter()
        .map(|(raw, &t)| LabeledExample {
            raw: raw.clone(),
            truth: t,
        })
        .collect();
    examples.sort_by(|a, b| a.raw.cmp(&b.raw));
    examples
}

/// Minimal std-only timing harness used by the `benches/` targets. It
/// auto-scales iteration counts to ~50ms per workload and prints ns/iter,
/// which is enough to spot order-of-magnitude regressions without any
/// external dependency.
pub mod stopwatch {
    use std::time::{Duration, Instant};

    /// Time `f`, printing `name`, the iteration count, and ns/iter.
    pub fn run(name: &str, mut f: impl FnMut()) {
        // Warm-up, and a single timed call to pick the iteration count.
        f();
        let probe = Instant::now();
        f();
        let once = probe.elapsed().as_nanos().max(1);
        let budget = Duration::from_millis(50).as_nanos();
        let iters = (budget / once).clamp(1, 100_000) as u64;
        let timer = Instant::now();
        for _ in 0..iters {
            f();
        }
        let per = timer.elapsed().as_nanos() / u128::from(iters);
        println!("{name:<40} {iters:>7} iters  {per:>12} ns/iter");
    }
}
