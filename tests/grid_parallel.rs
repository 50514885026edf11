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

use sim_support::pool;
use thermometer_bench::figures::memo;
use thermometer_bench::{figure_by_id, grid, Scale};

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
