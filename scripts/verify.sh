#!/usr/bin/env sh
# Tier-1 verification gate, fully offline: formatting, release build,
# the whole test suite, warning-free clippy and rustdoc, the chaos smoke
# runs, the fault-injection example and the Small sweep reports. CI
# runs exactly this script, so a green local run means a green pipeline.
set -eu

cd "$(dirname "$0")/.."

# Never touch the network: every dependency is in-workspace.
export CARGO_NET_OFFLINE=true

# The whole workspace is held rustfmt-clean (rustfmt.toml).
echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release"
cargo build --release

# Sweep identity: the Small Figure 9 sweep of every NPB kernel must
# print exactly the committed report, byte for byte. After an
# intentional change to the simulated model, regenerate the reports
# with
#   for k in is cg mg ft; do
#     ./target/release/stramash-cli sweep $k --class small > tests/data/sweep_${k}_small.txt
#   done
# and say in the change log which numbers moved and why.
echo "==> sweep identity: stramash-cli sweep is|cg|mg|ft --class small"
for k in is cg mg ft; do
    ./target/release/stramash-cli sweep "$k" --class small | diff -u "tests/data/sweep_${k}_small.txt" -
done

# Report identity: the sweeps pin only totals, so the per-domain stats
# block and the per-phase attribution table of each kernel's Small run
# on one Stramash and one Popcorn design are pinned too. Regenerate
# (after an intentional model change) with
#   for k in is cg mg ft; do for s in stramash popcorn-shm; do
#     ./target/release/stramash-cli npb $k --class small --report --system $s \
#       > tests/data/npb_${k}_${s}_small_report.txt
#   done; done
echo "==> report identity: stramash-cli npb is|cg|mg|ft --class small --report"
for k in is cg mg ft; do
    for s in stramash popcorn-shm; do
        ./target/release/stramash-cli npb "$k" --class small --report --system "$s" |
            diff -u "tests/data/npb_${k}_${s}_small_report.txt" -
    done
done

echo "==> cargo test -q"
cargo test -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Broken or private intra-doc links fail here, e.g. a crate doc that
# still names a deleted module.
echo "==> cargo doc --no-deps --workspace (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# chaos-smoke: a fixed-seed escalating fault sweep across all four
# system designs, with invariant audits after every recovery. Exits
# non-zero on any auditor violation or functional-fingerprint drift.
# The second run plants a known recovery bug and must find + shrink it,
# proving the detector itself works.
echo "==> chaos-smoke: seeded sweep (must stay green)"
./target/release/stramash-cli chaos --seed 0x5eed --stages 4

echo "==> chaos-smoke: injected regression (must be found and shrunk)"
./target/release/stramash-cli chaos --seed 0x5eed --stages 4 --inject-regression

# Examples are compiled by the test run but not executed; this one
# asserts identical checksums under a fault plan, one fault ledger and
# a clean invariant audit.
echo "==> example: fault_injection"
cargo run --release --example fault_injection

# Informational, not a gate: the non-test line count the change log
# quotes.
echo "==> non-test Rust lines: $(./scripts/loc.sh)"

echo "==> verify: OK"
