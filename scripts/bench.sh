#!/usr/bin/env sh
# Simulator performance baseline: runs the host-side microbenchmark
# harness (crit_simulator), the end-to-end parallel NPB sweep and the
# KV serving curve, then merges the result fragments into one
# machine-readable BENCH_simulator.json at the repo root. Non-gating: CI uploads the JSON as an artifact so the
# repo accumulates a perf trajectory, but a slow run never fails the
# pipeline.
#
# Usage: scripts/bench.sh [output.json]
# Env:   STRAMASH_SWEEP_WORKERS — figure-sweep worker pool override;
#        defaults to the host's available_parallelism (recorded in the
#        JSON's "workers" field alongside the wall-clocks).
set -eu

cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

OUT="${1:-BENCH_simulator.json}"
TMPDIR_BENCH="$(mktemp -d)"
trap 'rm -rf "$TMPDIR_BENCH"' EXIT

MICRO_JSON="$TMPDIR_BENCH/micro.json"
SWEEP_JSON="$TMPDIR_BENCH/sweep.json"
KVSERVE_JSON="$TMPDIR_BENCH/kvserve.json"

echo "==> cargo bench -p stramash-bench --features criterion --bench crit_simulator"
STRAMASH_BENCH_JSON="$MICRO_JSON" \
    cargo bench -p stramash-bench --features criterion --bench crit_simulator

echo "==> cargo bench -p stramash-bench --bench sweep_parallel"
STRAMASH_BENCH_JSON="$SWEEP_JSON" \
    cargo bench -p stramash-bench --bench sweep_parallel

echo "==> cargo bench -p stramash-bench --bench kv_serving"
STRAMASH_BENCH_JSON="$KVSERVE_JSON" \
    cargo bench -p stramash-bench --bench kv_serving

# Merge the three fragments textually (no jq dependency).
{
    printf '{\n"micro":\n'
    cat "$MICRO_JSON"
    printf ',\n"npb_sweep":\n'
    cat "$SWEEP_JSON"
    printf ',\n"kvserve":\n'
    cat "$KVSERVE_JSON"
    printf '}\n'
} >"$OUT"

echo "==> wrote $OUT"
cat "$OUT"
