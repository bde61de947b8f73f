#!/usr/bin/env sh
# Compares a freshly produced bench JSON (scripts/bench.sh output)
# against the committed BENCH_simulator.json baseline and emits GitHub
# `::warning` annotations for metrics that regressed beyond a relative
# tolerance. Host wall-clock on shared CI runners is noisy, so the diff
# is advisory — CI consumes it with continue-on-error — but failure
# modes are distinguishable instead of silently exiting 0:
#
#   0  comparison ran (regressions, if any, were emitted as warnings)
#   3  a baseline or fresh-results file is missing
#   4  an input file is not valid JSON
#   5  an end-to-end or parallel *speedup* metric regressed beyond
#      tolerance (still advisory, but distinguishable so CI can badge
#      "the optimisation itself eroded" separately from generic noise)
#
# Fields present in only one of baseline/fresh (harness growth vs an
# old baseline) are noted and skipped, never an error. Parallel-speedup
# checks are skipped when either side ran on a single core (the
# `host_cores` JSON field; absent means 1).
#
# Usage: scripts/bench_compare.sh [fresh.json] [baseline.json]
# Env:   STRAMASH_BENCH_TOLERANCE — relative slack, default 0.25 (25 %).
set -u

cd "$(dirname "$0")/.."
FRESH="${1:-BENCH_fresh.json}"
BASE="${2:-BENCH_simulator.json}"
TOLERANCE="${STRAMASH_BENCH_TOLERANCE:-0.25}"

missing=""
[ -f "$FRESH" ] || missing="$FRESH"
[ -f "$BASE" ] || missing="${missing:+$missing }$BASE"
if [ -n "$missing" ]; then
    echo "::warning::bench_compare: missing input file(s): $missing — comparison skipped"
    exit 3
fi

python3 - "$FRESH" "$BASE" "$TOLERANCE" <<'EOF'
import json
import sys

try:
    fresh = json.load(open(sys.argv[1]))
    base = json.load(open(sys.argv[2]))
except json.JSONDecodeError as e:
    print(f"::warning::bench_compare: malformed JSON input: {e} — comparison skipped")
    sys.exit(4)
if not isinstance(fresh, dict) or not isinstance(base, dict):
    print("::warning::bench_compare: input is not a JSON object — comparison skipped")
    sys.exit(4)
tol = float(sys.argv[3])


def flatten(d, prefix=""):
    out = {}
    for k, v in d.items():
        key = prefix + k
        if isinstance(v, dict):
            out.update(flatten(v, key + "."))
        elif isinstance(v, (int, float)):
            out[key] = float(v)
    return out


f, b = flatten(fresh), flatten(base)
# Most metrics are times (lower is better); these are the exceptions.
HIGHER_IS_BETTER = ("speedup", "accesses_per_sec", "throughput")
# Machine shape / run identity, not performance.
SKIP = ("workers", "configs", "host_cores", "requests", "fingerprint")
# Speedup metrics that track the headline optimisations: a drop here
# means the optimisation itself eroded, not just runner noise, so it
# gets its own advisory exit code (5).
HEADLINE = ("parallel", "kvserve")

# Parallel speedups only mean anything on a multi-core host. Either
# side reporting (or, for old baselines predating the field, implying)
# a single core makes a ~1.0x reading correct behaviour, not a
# regression — skip those comparisons rather than flag them.
def cores(d):
    return int(d.get("host_cores", 1))

multicore = cores(fresh) >= 2 and cores(base) >= 2

warned = 0
headline_regressed = 0
one_sided = sorted(set(b) ^ set(f))
for key in one_sided:
    # Fields present on only one side (new metrics vs an old baseline,
    # or vice versa) are expected across harness growth: note them,
    # but they are neither a malformed input nor a regression — EXCEPT
    # when a *headline* metric that the committed baseline carries has
    # vanished from the candidate run. A harness refactor silently
    # dropping e.g. a kvserve_* speedup would otherwise let the very
    # metric this script guards disappear without a trace, so that case
    # warns loudly and shares the headline exit code (5).
    side = "fresh results" if key in b else "baseline"
    if key in b and "speedup" in key and any(h in key for h in HEADLINE):
        print(
            f"::warning::bench_compare: headline metric {key} disappeared from "
            f"the candidate results — the harness no longer measures it"
        )
        headline_regressed += 1
        continue
    print(f"bench_compare: note: {key} missing from {side} — skipped")
for key in sorted(set(b) & set(f)):
    if any(s in key for s in SKIP):
        continue
    if "parallel" in key and "speedup" in key and not multicore:
        print(
            f"bench_compare: note: {key} skipped — "
            f"single-core host ({cores(fresh)} fresh / {cores(base)} baseline core(s))"
        )
        continue
    old, new = b[key], f[key]
    if old == 0:
        continue
    higher_better = any(t in key for t in HIGHER_IS_BETTER)
    delta = (old - new) / old if higher_better else (new - old) / old
    if delta > tol:
        direction = "dropped" if higher_better else "rose"
        print(
            f"::warning::bench_compare: {key} {direction} {delta * 100:.0f}% "
            f"({old:g} -> {new:g}, tolerance {tol * 100:.0f}%)"
        )
        warned += 1
        if "speedup" in key and any(h in key for h in HEADLINE):
            headline_regressed += 1
if warned == 0:
    print(f"bench_compare: all compared metrics within {tol * 100:.0f}% of the baseline")
else:
    print(f"bench_compare: {warned} metric(s) beyond tolerance (advisory only)")
if headline_regressed:
    print(
        f"::warning::bench_compare: {headline_regressed} headline speedup metric(s) "
        f"regressed or disappeared — the optimisation itself may have eroded"
    )
    sys.exit(5)
EOF
status=$?
[ "$status" -eq 0 ] || exit "$status"

exit 0
