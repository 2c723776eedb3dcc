#!/usr/bin/env bash
# Build the system under test (the `diffaudit` binary) and the benchmark
# from source, then run the benchmark with the given arguments, e.g.
#   bash crates/bench/src/bin/perf/run.sh --workload audit-cold --seed 1 \
#       --seconds 15 --trace 0
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default: target/ under the repository root).
set -euo pipefail
here="$(dirname "$0")"
root="$here/../../../../.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
target="$CARGO_TARGET_DIR"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p diffaudit-serve --bin diffaudit
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "$target/release/perf" --bin "$target/release/diffaudit" "$@"
