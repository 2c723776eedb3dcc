//! End-to-end pipeline benchmarks: dataset generation and the full
//! decode → extract → classify → flow pipeline at reduced scale.
//!
//! Timed with the std-only [`diffaudit_bench::stopwatch`] harness; run with
//! `cargo bench -p diffaudit-bench --bench pipeline`.

use diffaudit::pipeline::{ClassificationMode, Pipeline};
use diffaudit_bench::stopwatch::run;
use diffaudit_services::{generate_dataset, DatasetOptions};
use std::hint::black_box;

fn tiny_options() -> DatasetOptions {
    DatasetOptions {
        seed: 11,
        volume_scale: 0.02,
        mobile_pinned_fraction: 0.1,
        services: vec!["tiktok".into()],
    }
}

fn main() {
    run("pipeline/generate_tiktok_2pct", || {
        black_box(generate_dataset(black_box(&tiny_options())));
    });

    let dataset = generate_dataset(&tiny_options());
    let oracle = Pipeline::new(ClassificationMode::Oracle(dataset.key_truth.clone()));
    let ensemble = Pipeline::paper_default(11);
    run("pipeline/run_oracle_tiktok_2pct", || {
        black_box(oracle.run(black_box(&dataset)));
    });
    run("pipeline/run_ensemble_tiktok_2pct", || {
        black_box(ensemble.run(black_box(&dataset)));
    });
}
