#!/usr/bin/env bash
# thermobench: builds the programs under test (figures, tracegen, btbsim,
# hintd) and the benchmark driver in release mode, then runs the driver.
#
#   benchmark/run.sh [--seed N] [--runs N] [--seconds S] [--out FILE]
#       every workload, N runs each; prints medians and quartiles
#   benchmark/run.sh --workload grid --seed 0 --seconds 12 --trace 0
#       one run; the last line of stdout is the JSON result
#   benchmark/run.sh compare parent.json change.json
#   benchmark/run.sh slo --workload hintd-ingest --seed 0
#       the highest rate hintd serves within p99 <= 5 ms (rate search)
#   benchmark/run.sh --bless --seed 0 --runs 1
#       rewrite benchmark/expected/seed0.txt
#
# Build output goes to stderr; CARGO_TARGET_DIR defaults to .bench_build.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --release --offline --quiet -p thermometer-bench -p hintd \
    --bin figures --bin tracegen --bin btbsim --bin hintd >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/thermobench" "$@"
