#!/usr/bin/env bash
# Full offline CI gate: format, lint, build, test.
#
# The workspace has no external crate dependencies (see crates/sim-support),
# so everything here must succeed with the network unplugged. CARGO_NET_OFFLINE
# is exported to make an accidental dependency regression fail fast instead of
# hanging on a registry fetch.
set -euo pipefail

cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true
export CARGO_TERM_COLOR="${CARGO_TERM_COLOR:-always}"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> simlint (determinism, safety, registry & hot-path rules)"
cargo run -p simlint --release -- --format json
mkdir -p results
cargo run -p simlint --release -- --format sarif > results/simlint.sarif

echo "==> simlint --self-check (seeded-mutation battery)"
cargo run -p simlint --release -- --self-check

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test"
cargo test --workspace --quiet

echo "==> thermobench unit tests (benchmark/ is a package outside the workspace)"
CARGO_TARGET_DIR=.bench_build cargo test -q --manifest-path benchmark/Cargo.toml

echo "==> figures --threads 2 smoke (parallel path, byte-compared against serial)"
smoke_env=(THERMO_TRACE_LEN=40000 THERMO_CBP_COUNT=4 THERMO_CBP_LEN=10000
           THERMO_IPC1_COUNT=4 THERMO_IPC1_LEN=10000 THERMO_APPS=kafka,python)
env "${smoke_env[@]}" ./target/release/figures fig01 fig04 fig09 fig15 fig17 fig21 trrip hierarchy \
    --threads 1 --markdown /tmp/ci_serial.md --grid-stats /tmp/ci_grid_serial.json >/dev/null
env "${smoke_env[@]}" ./target/release/figures fig01 fig04 fig09 fig15 fig17 fig21 trrip hierarchy \
    --threads 2 --markdown /tmp/ci_parallel.md --grid-stats /tmp/ci_grid_parallel.json >/dev/null
cmp /tmp/ci_serial.md /tmp/ci_parallel.md
# The parallel run served repeat traces from the trace memo, so the
# byte-compare above covers memo hits too.
grep -Eq '"trace_memo": \{ "hits": [1-9][0-9]*,' /tmp/ci_grid_parallel.json
# Every simulated memo trace built its fetch facts once: at least one was
# built, and never more than one per generated trace. The memo also
# measured OPT profiles and served baseline reports, and those counts are
# deterministic: the serial run's must equal the parallel run's.
memo_counts() {
    grep -Eo '"trace_memo": \{ "hits": [0-9]+, "misses": [0-9]+, "facts_builds": [0-9]+, '\
'"profile_builds": [0-9]+, "report_hits": [0-9]+' "$1" | grep -Eo '[0-9]+' | tr '\n' ' '
}
# Here-strings end in a newline, so `read` succeeds under `set -e`.
read -r _ memo_misses facts_builds profile_builds report_hits \
    <<< "$(memo_counts /tmp/ci_grid_parallel.json)"
read -r _ _ _ serial_profile_builds serial_report_hits \
    <<< "$(memo_counts /tmp/ci_grid_serial.json)"
if ! (( facts_builds > 0 && facts_builds <= memo_misses )); then
    echo "trace memo: facts_builds=${facts_builds:-?} misses=${memo_misses:-?}" >&2
    exit 1
fi
if ! (( profile_builds > 0 && report_hits > 0 \
        && profile_builds == serial_profile_builds && report_hits == serial_report_hits )); then
    echo "trace memo: profile_builds=${profile_builds:-?} (serial ${serial_profile_builds:-?})" \
         "report_hits=${report_hits:-?} (serial ${serial_report_hits:-?})" >&2
    exit 1
fi

echo "==> crash-resume (kill mid-grid via fault plan; --resume must be byte-identical)"
ft_dir="$(mktemp -d)"
trap 'rm -rf "$ft_dir"' EXIT
# Reference: a fault-free run of the same grid.
env "${smoke_env[@]}" ./target/release/figures fig01 fig09 fig17 \
    --threads 2 --markdown "$ft_dir/ref.md" --grid-stats "$ft_dir/ref_stats.json" \
    --journal "$ft_dir/ref_journal.jsonl" > "$ft_dir/ref.out"
# Crash: the injected plan kills the process after 3 journaled cells (exit 86).
crash_rc=0
env "${smoke_env[@]}" ./target/release/figures fig01 fig09 fig17 \
    --threads 2 --markdown "$ft_dir/resumed.md" --grid-stats "$ft_dir/crash_stats.json" \
    --journal "$ft_dir/journal.jsonl" --fault-plan exit-after=3 \
    > /dev/null 2> "$ft_dir/crash.err" || crash_rc=$?
if [ "$crash_rc" -ne 86 ]; then
    echo "expected the fault plan to kill the run with exit 86, got $crash_rc" >&2
    cat "$ft_dir/crash.err" >&2
    exit 1
fi
# Resume at a *different* thread width: journaled figures replay byte-for-byte,
# the rest recompute, and both report and stdout must match the reference.
env "${smoke_env[@]}" ./target/release/figures fig01 fig09 fig17 \
    --threads 4 --resume --markdown "$ft_dir/resumed.md" \
    --grid-stats "$ft_dir/resumed_stats.json" --journal "$ft_dir/journal.jsonl" \
    > "$ft_dir/resumed.out"
cmp "$ft_dir/ref.md" "$ft_dir/resumed.md"
cmp "$ft_dir/ref.out" "$ft_dir/resumed.out"
# Journal::load cut the crashed run's uncommitted cells, so the resumed
# journal equals the uninterrupted one too.
cmp "$ft_dir/ref_journal.jsonl" "$ft_dir/journal.jsonl"

echo "==> btbsim --threads 2 (BTB pass beside the fetch facts; stdout byte-compared against serial)"
bs_dir="$ft_dir/btbsim"
mkdir -p "$bs_dir"
for input in 0 1; do
    ./target/release/tracegen app kafka --input "$input" --records 200000 \
        --out "$bs_dir/kafka$input.btbt" 2>/dev/null
done
for policy in thermometer lru,srrip,opt,thermometer; do
    for threads in 1 2; do
        ./target/release/btbsim "$bs_dir/kafka1.btbt" --policy "$policy" \
            --profile "$bs_dir/kafka0.btbt" --threads "$threads" \
            > "$bs_dir/$policy.$threads.out" 2>/dev/null
    done
    cmp "$bs_dir/$policy.1.out" "$bs_dir/$policy.2.out"
done

echo "==> hintd loopback smoke (serve -> load -> kill -9 -> restart -> byte-identical dumps)"
hintd_dir="$ft_dir/hintd"
mkdir -p "$hintd_dir"
hintd_pid=""
trap 'if [ -n "$hintd_pid" ]; then kill "$hintd_pid" 2>/dev/null || true; fi; rm -rf "$ft_dir"' EXIT
wait_addr_file() {
    for _ in $(seq 1 200); do
        [ -s "$1" ] && return 0
        sleep 0.05
    done
    echo "hintd never published its address to $1" >&2
    return 1
}
./target/release/hintd --data-dir "$hintd_dir/data" --addr-file "$hintd_dir/addr1" &
hintd_pid=$!
wait_addr_file "$hintd_dir/addr1"
BENCH_ITERS=1 BENCH_WARMUP=0 ./target/release/hintload --addr-file "$hintd_dir/addr1" \
    --apps 3 --ops 80 --records 800 --out "$hintd_dir" \
    --dump-tables "$hintd_dir/before.dump" >/dev/null
# A real SIGKILL: recovery must come from the fsync'd journals alone.
kill -9 "$hintd_pid"
wait "$hintd_pid" 2>/dev/null || true
./target/release/hintd --data-dir "$hintd_dir/data" --addr-file "$hintd_dir/addr2" &
hintd_pid=$!
wait_addr_file "$hintd_dir/addr2"
./target/release/hintload --addr-file "$hintd_dir/addr2" \
    --apps 3 --dump-only --dump-tables "$hintd_dir/after.dump" >/dev/null
kill "$hintd_pid" 2>/dev/null || true
wait "$hintd_pid" 2>/dev/null || true
hintd_pid=""
cmp "$hintd_dir/before.dump" "$hintd_dir/after.dump"

echo "==> bench regression guard (>15% median regression vs results/bench_baselines.json fails)"
./scripts/bench_check.sh

echo "==> quarantine (a poisoned cell is dropped with a reason; a transient one retries to the clean report)"
env "${smoke_env[@]}" ./target/release/figures fig01 \
    --threads 2 --quarantine --max-retries 1 \
    --fault-plan seed=1,panic=fig01:1:poison \
    --markdown "$ft_dir/quarantine.md" --grid-stats "$ft_dir/quarantine_stats.json" \
    --journal "$ft_dir/quarantine_journal.jsonl" > /dev/null
grep -q '"class": "poison"' "$ft_dir/quarantine_stats.json"
grep -q '"cells_quarantined": 1' "$ft_dir/quarantine_stats.json"
# A transient fault is retried inside the cell's pool task: the report
# equals a fault-free run's, nothing is quarantined, one cell took 2 attempts.
env "${smoke_env[@]}" ./target/release/figures fig01 --threads 2 \
    --markdown "$ft_dir/clean.md" --grid-stats "$ft_dir/clean_stats.json" \
    --journal "$ft_dir/clean_journal.jsonl" > /dev/null
env "${smoke_env[@]}" ./target/release/figures fig01 \
    --threads 2 --quarantine --max-retries 1 \
    --fault-plan panic=fig01:1:transient \
    --markdown "$ft_dir/retried.md" --grid-stats "$ft_dir/retried_stats.json" \
    --journal "$ft_dir/retried_journal.jsonl" > /dev/null
cmp "$ft_dir/clean.md" "$ft_dir/retried.md"
grep -q '"cells_quarantined": 0' "$ft_dir/retried_stats.json"
[ "$(grep -c '"attempts": 2' "$ft_dir/retried_stats.json")" -eq 1 ]

echo "==> supervised grid (kill -9 the wedged worker, restart, output == serial bytes)"
sup_ids=(fig01 fig09 fig17 trrip hierarchy)
sup_dir="$ft_dir/supervise"
mkdir -p "$sup_dir"
env "${smoke_env[@]}" ./target/release/figures "${sup_ids[@]}" \
    --threads 2 --markdown "$sup_dir/serial.md" --grid-stats "$sup_dir/serial_stats.json" \
    --journal "$sup_dir/serial.jsonl" > "$sup_dir/serial.out" 2>/dev/null
# The worker's first attempt wedges after 2 journaled cells (armed hang),
# so it is guaranteed alive for the external SIGKILL. The stall timeout
# is huge: only the kill -9 can clear the wedged worker.
sup_pid=""
trap 'if [ -n "$sup_pid" ]; then kill "$sup_pid" 2>/dev/null || true; fi; rm -rf "$ft_dir"' EXIT
sup_journal="$sup_dir/supervised.jsonl"
env "${smoke_env[@]}" ./target/release/figures supervise "${sup_ids[@]}" \
    --threads 2 --fault-plan proc=1:0:hang:2 --stall-ms 100000000 \
    --markdown "$sup_dir/supervised.md" --journal "$sup_journal" \
    --grid-stats "$sup_dir/supervised_stats.json" \
    > "$sup_dir/supervised.out" 2> "$sup_dir/supervise.log" &
sup_pid=$!
# Wait until the worker journaled both its cells (header + 2 lines): the
# hang has engaged and the worker pid is stable — then kill -9 it.
for _ in $(seq 1 600); do
    if [ -f "$sup_journal" ] && [ "$(wc -l < "$sup_journal")" -ge 3 ]; then
        break
    fi
    sleep 0.1
done
[ "$(wc -l < "$sup_journal")" -ge 3 ]
kill -9 "$(cat "$sup_journal.pid")"
# The supervisor sees the signal death, restarts the worker with --resume
# (attempt 1 has no armed fault), and completes: exit 0 and all three
# artifacts byte-identical to the serial run.
wait "$sup_pid"
sup_pid=""
cmp "$sup_dir/serial.out" "$sup_dir/supervised.out"
cmp "$sup_dir/serial.md" "$sup_dir/supervised.md"
cmp "$sup_dir/serial.jsonl" "$sup_journal"
grep -q 'killed by a signal' "$sup_journal.supervise.json"

echo "==> thermobench smoke (the benchmark's own argv to figures, tracegen, btbsim, hintd)"
# thermobench drives the binaries with command lines of its own; a parser
# that rejected one would show up only as failed operations there.
benchmark/run.sh --runs 1 --seconds 2 --out "$ft_dir/thermobench.json" > /dev/null
for workload in grid btbsim hintd-ingest hintd-query; do
    if ! grep -Eq "\"$workload\": \[\{\"correct\": true, \"attempted\": [0-9]+, \"failed\": 0," \
            "$ft_dir/thermobench.json"; then
        echo "thermobench: $workload is not correct with 0 failed operations" >&2
        cat "$ft_dir/thermobench.json" >&2
        exit 1
    fi
done

echo "CI green."
