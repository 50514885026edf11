//! Parallel-vs-serial equivalence: the figure grid must produce
//! **byte-identical** `FigureResult` output whatever the worker count, and
//! whatever order the cells actually execute in. This is the test that lets
//! `figures --threads N` exist at all without weakening PR 1's determinism
//! guarantees.
//!
//! Thread-count configuration is process-global (`pool::set_threads`), so
//! every test here serializes on one mutex and restores the default before
//! returning.

use std::sync::Mutex; // simlint: allow(D03) -- serializes tests that flip process-global config

use sim_support::{forall, pool};
use thermometer_bench::figures::memo;
use thermometer_bench::{figure_by_id, grid, journal, merge, shard, Journal, Scale};

/// Serializes the tests in this binary: they flip process-global executor
/// configuration.
// simlint: allow(D03) -- test-only serialization lock, not simulator state
static EXCLUSIVE: Mutex<()> = Mutex::new(());

/// Restores the default thread configuration even if an assertion fails.
struct ResetThreads;
impl Drop for ResetThreads {
    fn drop(&mut self) {
        pool::set_threads(0);
    }
}

fn render(ids: &[&str], scale: &Scale) -> String {
    let mut out = String::new();
    for id in ids {
        for fig in figure_by_id(id, scale).expect("known figure id") {
            out.push_str(&fig.to_markdown());
        }
    }
    out
}

/// FNV-1a — the same hash the workload goldens pin trace streams with.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[test]
fn four_threads_match_one_thread_byte_for_byte() {
    let _exclusive = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    let _reset = ResetThreads;
    let scale = Scale::smoke();
    // Per-app figures plus fig17 (per-trace suite grid) so both grid entry
    // points are exercised, plus the extension suites whose cells run
    // several frontends each (trrip head-to-head, hierarchy sweep).
    let ids = ["fig01", "fig09", "fig15", "fig17", "trrip", "hierarchy"];

    pool::set_threads(1);
    let serial = render(&ids, &scale);
    pool::set_threads(4);
    // A cold trace memo, so the 4 workers generate (and race for) every
    // trace themselves instead of reading the serial run's.
    memo::reset();
    let parallel = render(&ids, &scale);

    assert!(!serial.is_empty());
    assert_eq!(
        serial, parallel,
        "--threads 4 output differs from --threads 1"
    );
    assert_eq!(
        fnv1a(serial.as_bytes()),
        fnv1a(parallel.as_bytes()),
        "golden hashes differ"
    );
}

/// Regression for the PRNG-sharing hazard: executing the same cells in
/// **reverse** order must gather the same results, which is only true if no
/// RNG (or any other mutable state) is threaded across cells.
#[test]
fn permuted_cell_execution_order_is_invisible() {
    let _exclusive = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    let _reset = ResetThreads;
    let scale = Scale::smoke();
    let ids = ["fig01", "fig06"];

    pool::set_threads(1);
    let forward = render(&ids, &scale);
    let reversed = grid::with_reversed_serial_order(|| render(&ids, &scale));
    assert_eq!(
        forward, reversed,
        "cell results depend on execution order — a cross-cell RNG or \
         shared mutable state leaked into the grid"
    );

    // The per-cell RNG streams themselves are order-independent too.
    let items: Vec<usize> = (0..8).collect();
    let draw = |_: &usize| grid::with_cell_rng(|rng| rng.next_u64());
    let a = grid::run_cells("order-probe", &items, |i| i.to_string(), draw);
    let b = grid::with_reversed_serial_order(|| {
        grid::run_cells("order-probe", &items, |i| i.to_string(), draw)
    });
    assert_eq!(a, b, "cell RNG streams depend on execution order");
}

/// The `--shard i/N` partition the sweep supervisor relies on: for any
/// list length and any N in 1..=8, the shards are **disjoint** (no index
/// appears twice), **exhaustive** (every index appears), and **stable**
/// (recomputing yields the same partition).
#[test]
fn shard_partitions_are_disjoint_exhaustive_and_stable() {
    forall!(
        cases: 96,
        gen: |rng| {
            let len = rng.gen_range(0..48u64) as usize;
            let n = rng.gen_range(1..=8u64) as usize;
            (len, n)
        },
        prop: |&(len, n): &(usize, usize)| {
            let mut seen = vec![0u32; len];
            for number in 1..=n {
                let indices = shard::shard_indices(len, number, n);
                assert_eq!(
                    indices,
                    shard::shard_indices(len, number, n),
                    "partition not stable for len={len}, shard {number}/{n}"
                );
                for k in indices {
                    seen[k] += 1;
                }
            }
            for (k, count) in seen.iter().enumerate() {
                assert_eq!(
                    *count, 1,
                    "index {k} covered {count} times across {n} shard(s) of {len}"
                );
            }
        },
    );
}

/// Builds the journal a `--shard number/count` worker would produce for
/// `ids`, in-process: per-cell hook lines plus hash-stamped figure commits.
fn write_shard_journal(
    dir: &std::path::Path,
    scale: &Scale,
    ids: &[String],
    number: usize,
    count: usize,
) {
    let spec = shard::ShardSpec { number, count };
    let sub = shard::shard_ids(ids, spec);
    let path = merge::shard_journal_path(dir, number);
    let journal = Journal::new(&path);
    journal
        .start(&journal::run_fingerprint(scale, &sub))
        .expect("start shard journal");
    let hook_journal = Journal::new(&path);
    grid::set_cell_hook(Some(Box::new(move |outcome| {
        hook_journal.append_cell(&outcome).expect("journal append");
    })));
    for id in &sub {
        let mut display = String::new();
        let mut markdown = String::new();
        for fig in figure_by_id(id, scale).expect("known figure id") {
            display.push_str(&format!("{fig}\n"));
            markdown.push_str(&fig.to_markdown());
        }
        journal
            .append_figure(id, &display, &markdown)
            .expect("commit figure");
    }
    grid::set_cell_hook(None);
}

/// Satellite of ISSUE 10: merging shard journals is invariant to the
/// order the shards ran in — byte-for-byte. Shards are produced in
/// canonical order and in a permuted order into two directories; the two
/// merges (journal bytes, report, display) must be identical.
#[test]
fn merge_of_permuted_shard_order_is_byte_identical() {
    let _exclusive = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    let _reset = ResetThreads;
    pool::set_threads(1);
    let scale = Scale::smoke();
    let ids: Vec<String> = ["fig01", "fig06", "fig09", "fig15", "fig19"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let shards = 3;
    let base = std::env::temp_dir().join("grid-parallel-merge-tests");
    let canonical = base.join("canonical");
    let permuted = base.join("permuted");
    for dir in [&canonical, &permuted] {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("scratch dir");
    }

    for number in 1..=shards {
        write_shard_journal(&canonical, &scale, &ids, number, shards);
    }
    for number in [2, 3, 1] {
        write_shard_journal(&permuted, &scale, &ids, number, shards);
    }

    let a = merge::merge_shards(&scale, &ids, shards, &canonical);
    let b = merge::merge_shards(&scale, &ids, shards, &permuted);
    assert!(
        a.is_complete(),
        "canonical merge incomplete: {:?}",
        a.missing
    );
    assert!(
        b.is_complete(),
        "permuted merge incomplete: {:?}",
        b.missing
    );
    assert_eq!(a.journal_bytes(), b.journal_bytes(), "journal bytes differ");
    assert_eq!(a.report(&scale), b.report(&scale), "reports differ");
    assert_eq!(a.display, b.display, "display output differs");
    // And the merged journal is not a near-miss: it replays through the
    // normal resume path under the full-run fingerprint.
    let merged_path = canonical.join("merged.jsonl");
    std::fs::write(&merged_path, a.journal_bytes()).expect("write merged journal");
    let loaded = Journal::new(&merged_path)
        .load(&journal::run_fingerprint(&scale, &ids))
        .expect("read merged journal")
        .expect("fingerprint matches");
    assert_eq!(
        loaded.figures.len(),
        ids.len(),
        "merged journal must replay fully"
    );
}

/// The observability registry records one stat per cell, in canonical order,
/// with non-trivial work accounting from the trace helpers.
#[test]
fn grid_stats_cover_every_cell_in_canonical_order() {
    let _exclusive = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    let _reset = ResetThreads;
    let scale = Scale::smoke();

    pool::set_threads(2);
    grid::reset_stats();
    render(&["fig01"], &scale);
    let stats: Vec<_> = grid::take_stats()
        .into_iter()
        .filter(|s| s.figure == "fig01")
        .collect();
    assert_eq!(stats.len(), scale.apps.len(), "one cell per app");
    for (i, stat) in stats.iter().enumerate() {
        assert_eq!(stat.index, i, "stats gathered out of canonical order");
        assert_eq!(stat.label, scale.apps[i].name);
        assert!(stat.accesses > 0, "trace helpers must credit work");
        assert!(stat.wall_ms >= 0.0);
    }
}
