#!/usr/bin/env bash
# Full local gate: formatting, static analysis, build, tests.
# Mirrors what CI (and the tier-1 verify) expects to pass.
set -euo pipefail
cd "$(dirname "$0")/.."

# advisory WARNING FAILURE CMD...: run an advisory gate. Exit 0 passes,
# exit 2 prints "WARNING: <WARNING> (advisory only)" and carries on, and
# any other exit prints "<FAILURE> (exit N)" and fails the check.
advisory() {
    local warning="$1" failure="$2" status=0
    shift 2
    "$@" || status=$?
    case "$status" in
        0) ;;
        2) echo "WARNING: $warning (advisory only)" ;;
        *) echo "$failure (exit $status)"; exit 1 ;;
    esac
}

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> diffaudit-analyzer (8 lint passes, ratcheted against analyzer_baseline.json)"
an_tmp="$(mktemp -d)"
obs_tmp=""
trap 'rm -rf "$an_tmp" "$obs_tmp"' EXIT
cargo run -q -p diffaudit-analyzer -- --format json \
    --baseline analyzer_baseline.json \
    --trace-out "$an_tmp/analyzer_trace.jsonl" \
    > "$an_tmp/analyzer.json" 2> "$an_tmp/analyzer.log"
cat "$an_tmp/analyzer.log" >&2 || true
# The ratchet only shrinks: a baseline entry that stopped firing must be
# removed from analyzer_baseline.json, not silently tolerated forever.
if grep -q 'baseline entry no longer fires' "$an_tmp/analyzer.log"; then
    echo "analyzer baseline is stale (entries above no longer fire)."
    echo "Regenerate: cargo run -q -p diffaudit-analyzer -- --format json > analyzer_baseline.json"
    exit 1
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> perf benchmark tests (own workspace: root cargo test does not build it)"
# The benchmark compiles against the core, nettrace and classifier public
# APIs, so an API break there surfaces here. Build output shares the root
# target directory, as in crates/bench/src/bin/perf/run.sh.
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}" \
    cargo test --offline -q --manifest-path crates/bench/src/bin/perf/Cargo.toml

echo "==> micro-benchmarks (std-only stopwatch harness; cargo test does not build benches/)"
cargo bench -q -p diffaudit-bench

echo "==> chaos suite (fault grid + CLI exit codes, release profile)"
# The CLI binary (and the tests that drive it) live in diffaudit-serve;
# the fault-grid suite stays with the core crate's salvage machinery.
cargo test -q --release -p diffaudit --test chaos
cargo test -q --release -p diffaudit-serve --test cli_exit_codes

echo "==> observability smoke (trace + metrics files parse, stages present)"
obs_tmp="$(mktemp -d)"
./target/release/diffaudit generate --out "$obs_tmp/cap" --scale 0.02 \
    --services tiktok --log-level warn
./target/release/diffaudit audit "$obs_tmp/cap/tiktok" --log-level warn \
    --trace-out "$obs_tmp/trace.jsonl" --metrics-out "$obs_tmp/metrics.json" \
    > "$obs_tmp/report.txt"
grep -q '"schema": "diffaudit-obs/v1"' "$obs_tmp/metrics.json"
for stage in audit audit.load pipeline pipeline.classify loader.unit; do
    grep -q "\"$stage\"" "$obs_tmp/metrics.json" \
        || { echo "metrics.json missing span $stage"; exit 1; }
done
grep -q '"kind":"span","name":"pipeline"' "$obs_tmp/trace.jsonl"
# Every trace line is one JSON object (cheap well-formedness check).
! grep -qv '^{.*}$' "$obs_tmp/trace.jsonl"

echo "==> generate reproducibility (same seed twice: trees must be byte-identical)"
for run in a b; do
    ./target/release/diffaudit generate --out "$obs_tmp/repro_$run" --scale 0.02 \
        --services tiktok --seed 7 --log-level warn > /dev/null
done
diff -r "$obs_tmp/repro_a" "$obs_tmp/repro_b" \
    || { echo "generate wrote different trees for the same seed"; exit 1; }

echo "==> obs trace report (span tree reconstructs from the smoke trace)"
./target/release/diffaudit obs report "$obs_tmp/trace.jsonl" > "$obs_tmp/trace_report.txt"
grep -q '^root audit: total ' "$obs_tmp/trace_report.txt"
grep -q '^critical path:' "$obs_tmp/trace_report.txt"

echo "==> analyzer self-instrumentation (analyzer.analyze span in its own trace)"
grep -q '"kind":"span","name":"analyzer.analyze"' "$an_tmp/analyzer_trace.jsonl"
./target/release/diffaudit obs report "$an_tmp/analyzer_trace.jsonl" \
    > "$an_tmp/analyzer_trace_report.txt"
grep -q 'analyzer.analyze' "$an_tmp/analyzer_trace_report.txt" \
    || { echo "obs report missing analyzer.analyze span"; exit 1; }

echo "==> paper-scale corpus (generated once; every pipeline step below audits it)"
# `generate` defaults to --scale 0.1, so the paper scale is spelled out.
corpus="$obs_tmp/corpus"
./target/release/diffaudit generate --out "$corpus" --scale 1.0 --seed 2023 \
    --log-level warn > /dev/null

# audit_corpus NAME ARGS...: audit every service directory of the corpus
# with the shipped CLI, stdout to $obs_tmp/NAME.txt and the metrics
# snapshot to $obs_tmp/NAME.json. The corpus is undamaged, so any exit
# but 0 fails the check.
audit_corpus() {
    local name="$1"
    shift
    ./target/release/diffaudit audit "$corpus"/*/ --log-level warn \
        --metrics-out "$obs_tmp/$name.json" "$@" > "$obs_tmp/$name.txt"
}

# counter NAME FILE: the value of counter NAME in a --metrics-out
# snapshot (which holds one counter per line), or 0 when it is absent.
counter() {
    local value
    value="$(sed -n "s/^ *\"${1//./\\.}\": \([0-9]*\),\{0,1\}\$/\1/p" "$2" | head -n 1)"
    echo "${value:-0}"
}

echo "==> parallel consistency (--threads 1 vs --threads 4: stdout and counters must match)"
audit_corpus serial --threads 1
audit_corpus parallel --threads 4
cmp "$obs_tmp/serial.txt" "$obs_tmp/parallel.txt" \
    || { echo "audit stdout differs between --threads 1 and --threads 4"; exit 1; }
./target/release/diffaudit obs diff "$obs_tmp/serial.json" "$obs_tmp/parallel.json" \
    | tee "$obs_tmp/threads_diff.txt"
# Wall-time deltas above are advisory; counter deltas are a correctness bug.
grep -q 'counters: .*, 0 changed' "$obs_tmp/threads_diff.txt" \
    || { echo "counters diverge between --threads 1 and --threads 4"; exit 1; }

echo "==> cold cached audit vs BENCH_pipeline.json (advisory: exit 2 warns, exit 1 fails)"
audit_corpus cold --cache-dir "$obs_tmp/clscache" --res-sample-ms 10
# --noise-floor-ms 150: spans under 150ms are pure scheduler noise on the
# 2-CPU CI box (a single preemption is tens of ms, so a 10ms span can jitter
# by several hundred percent and trip --fail-over 200 spuriously). Only spans
# long enough to average the jitter out participate in the wall-time gate.
# Peak RSS is far more stable than wall time, but allocator and kernel
# page-cache behaviour still move it a little between boxes; growth past
# 50% (and past the built-in 4MiB floor) is a real regression signal. On a
# box without /proc the snapshot has no resources section and the RSS gate
# is informational.
advisory "cold audit regressed (>200% span wall time or >50% peak RSS) vs BENCH_pipeline.json" \
    "obs diff failed" \
    ./target/release/diffaudit obs diff BENCH_pipeline.json "$obs_tmp/cold.json" \
    --fail-over 200 --noise-floor-ms 150 --fail-rss-over 50

echo "==> warm cached audit vs BENCH_cache.json (advisory: exit 2 warns, exit 1 fails)"
audit_corpus warm --cache-dir "$obs_tmp/clscache"
advisory "warm audit regressed >200% vs BENCH_cache.json" "obs diff failed" \
    ./target/release/diffaudit obs diff BENCH_cache.json "$obs_tmp/warm.json" \
    --fail-over 200 --noise-floor-ms 150

echo "==> classification cache contract (cold inserts every miss, warm is fully cache-served)"
for run in cold warm; do
    cmp "$obs_tmp/serial.txt" "$obs_tmp/$run.txt" \
        || { echo "$run cached audit stdout differs from the uncached audit"; exit 1; }
done
cold_miss="$(counter pipeline.classify.cache.miss "$obs_tmp/cold.json")"
cold_insert="$(counter pipeline.classify.cache.insert "$obs_tmp/cold.json")"
warm_hit="$(counter pipeline.classify.cache.hit "$obs_tmp/warm.json")"
warm_miss="$(counter pipeline.classify.cache.miss "$obs_tmp/warm.json")"
echo "cold: miss $cold_miss, insert $cold_insert; warm: hit $warm_hit, miss $warm_miss"
if [ "$cold_miss" -eq 0 ] || [ "$cold_insert" -ne "$cold_miss" ] \
    || [ "$warm_hit" -ne "$cold_insert" ] || [ "$warm_miss" -ne 0 ]; then
    echo "classification cache contract violated"
    exit 1
fi

echo "==> decode copy gate (cold nettrace.bytes.copied <= BENCH_pipeline.json)"
# The counter is exact (assembled streams + TLS plaintext + kept HTTP
# bodies), so unlike wall time or RSS it can gate hard: decode may copy
# fewer bytes out of the capture buffers than the baseline, never more.
copied="$(counter nettrace.bytes.copied "$obs_tmp/cold.json")"
copied_base="$(counter nettrace.bytes.copied BENCH_pipeline.json)"
echo "nettrace.bytes.copied: $copied (baseline $copied_base)"
if [ "$copied" -eq 0 ] || [ "$copied" -gt "$copied_base" ]; then
    echo "decode copied more bytes than BENCH_pipeline.json records"
    exit 1
fi

echo "==> key extraction gate (cold key, exchange and HAR entry counts == BENCH_pipeline.json)"
# The stdout checks above compare runs of this one build with each other,
# so a key that extraction or HAR decode drops or invents would pass them.
# These counters are exact: they must equal the committed baseline.
for name in pipeline.keys.occurrences pipeline.keys.unique pipeline.exchanges \
    nettrace.har.entries; do
    got="$(counter "$name" "$obs_tmp/cold.json")"
    want="$(counter "$name" BENCH_pipeline.json)"
    echo "$name: $got (baseline $want)"
    if [ "$want" -eq 0 ] || [ "$got" -ne "$want" ]; then
        echo "$name differs from BENCH_pipeline.json"
        exit 1
    fi
done

echo "==> serve smoke (boot ephemeral port, upload HAR, audit, report, clean drain)"
./target/release/diffaudit serve --port 0 --log-level warn \
    > "$obs_tmp/serve.log" 2> "$obs_tmp/serve.err" &
serve_pid=$!
serve_addr=""
for _ in $(seq 1 100); do
    serve_addr="$(sed -n 's#^listening on http://##p' "$obs_tmp/serve.log" | head -n 1)"
    [ -n "$serve_addr" ] && break
    sleep 0.1
done
if [ -z "$serve_addr" ]; then
    echo "daemon never reported its listen address"
    cat "$obs_tmp/serve.err" >&2 || true
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
# The smoke driver uploads a HAR, fires a small job burst, reads
# /api/v1/metrics mid-job (the snapshot must parse, the queue-depth gauge
# must go nonzero), polls every job to completion, and fetches the run
# report — but leaves the daemon up so we can exercise the live views
# against it.
./target/release/serve_load --mode smoke-keep --target "$serve_addr" --scale 0.02
# The live dashboard must render one frame from the still-running daemon.
./target/release/diffaudit obs top --once "$serve_addr"
./target/release/serve_load --mode shutdown --target "$serve_addr"
# After shutdown the daemon must drain and exit 0 — non-zero means an
# in-flight job was orphaned past the drain deadline.
if ! wait "$serve_pid"; then
    echo "daemon did not drain cleanly"
    cat "$obs_tmp/serve.err" >&2 || true
    exit 1
fi

echo "==> serve bench vs BENCH_serve.json (wall time advisory; counters must match exactly)"
./target/release/serve_load --scale 0.02 --out "$obs_tmp/current_serve.json"
# The baseline is a diffaudit-obs/v1 snapshot, so obs diff gates it like
# the others: 2-CPU runners jitter job latency heavily, so only span wall
# time growing past both 75% and a 2s absolute floor counts. serve_load
# holds its workers before a single-threaded burst and waits on the drain
# in-process, so every counter is fixed by the run's construction; it
# hard-fails itself unless exactly the queue capacity is shed, the
# mid-burst scrape shows the queue full and the daemon's shed counter
# equals the 429s it saw.
advisory "serve bench regressed >75% vs BENCH_serve.json" "serve bench diff failed" \
    ./target/release/diffaudit obs diff BENCH_serve.json "$obs_tmp/current_serve.json" \
    --fail-over 75 --noise-floor-ms 2000
# Counter deltas against the baseline are a behaviour change: re-take
# BENCH_serve.json when one is intended.
./target/release/diffaudit obs diff BENCH_serve.json "$obs_tmp/current_serve.json" \
    > "$obs_tmp/serve_diff.txt"
grep 'counters: ' "$obs_tmp/serve_diff.txt"
grep -q 'counters: .*, 0 changed' "$obs_tmp/serve_diff.txt" \
    || { echo "serve bench counters differ from BENCH_serve.json"; exit 1; }

echo "All checks passed."
