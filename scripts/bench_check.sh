#!/usr/bin/env bash
# Bench regression guard: re-runs the guarded bench suites and compares
# medians against the committed baseline (results/bench_baselines.json).
# A benchmark whose median regresses by more than 15% fails the script —
# and CI, which runs this last (see scripts/ci.sh).
#
# Bless flow (after an intentional perf change, on the enforcing machine):
#
#     scripts/bench_check.sh --bless
#     git add results/bench_baselines.json   # commit with the change
#
# One automatic retry absorbs transient machine noise (shared runners can
# throttle a single run well past the tolerance); a *real* regression
# fails twice.
#
# The suites rewrite their tracked results/bench_<suite>.json with this
# host's numbers. Outside --bless, the committed files are copied aside
# first and put back on exit, so a check leaves the checkout clean.
set -euo pipefail

cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

suites=(btb_policies frontend profiling hintd)

# The hintd suite measures real wire latency, so it needs a live server on
# loopback: serve from a scratch journal dir, drive the standard hintload
# mix (which writes results/bench_hintd.json), then tear the server down.
run_hintd_suite() {
    local dir rc=0
    dir="$(mktemp -d)"
    ./target/release/hintd --data-dir "$dir/data" --addr-file "$dir/addr" &
    local pid=$!
    for _ in $(seq 1 200); do
        [[ -s "$dir/addr" ]] && break
        sleep 0.05
    done
    ./target/release/hintload --addr-file "$dir/addr" --out results >/dev/null || rc=$?
    kill "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
    rm -rf "$dir"
    return "$rc"
}

run_suites() {
    cargo build --quiet --release -p thermometer-bench -p hintd
    for s in "${suites[@]}"; do
        if [[ "$s" == hintd ]]; then
            run_hintd_suite
        else
            cargo bench -p thermometer-bench --bench "$s" >/dev/null
        fi
    done
}

if [[ "${1:-}" != "--bless" ]]; then
    saved="$(mktemp -d)"
    for s in "${suites[@]}"; do
        cp "results/bench_$s.json" "$saved/"
    done
    trap 'cp "$saved"/bench_*.json results/ && rm -rf "$saved"' EXIT
fi

echo "==> bench suites: ${suites[*]}"
run_suites

if [[ "${1:-}" == "--bless" ]]; then
    cargo run --quiet --release -p thermometer-bench --bin bench_check -- --bless
    exit 0
fi

if ! cargo run --quiet --release -p thermometer-bench --bin bench_check; then
    echo "==> regression reported; re-running once to rule out machine noise"
    run_suites
    cargo run --quiet --release -p thermometer-bench --bin bench_check
fi
echo "bench_check green."
