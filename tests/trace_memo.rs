//! The figure harness's trace memo (`thermometer_bench::figures::memo`,
//! DESIGN.md §14) driven through real figures: its counts are exact
//! functions of the figures run, and a figure served from the memo renders
//! the same bytes as one that generated every trace itself. Each memoised
//! trace's fetch facts are built once and shared the same way.
//!
//! The memo is process-wide, so the tests here serialize on one mutex.

use std::sync::Mutex; // simlint: allow(D03) -- serializes tests that share the process-wide trace memo

use thermometer_bench::figures::memo;
use thermometer_bench::{figure_by_id, Scale};

// simlint: allow(D03) -- test-only serialization lock, not simulator state
static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn render(id: &str, scale: &Scale) -> String {
    figure_by_id(id, scale)
        .expect("registered id")
        .iter()
        .map(|fig| fig.to_markdown())
        .collect()
}

/// `(profile_builds, report_hits)`.
fn cached(scale: &Scale) -> (u64, u64) {
    let stats = memo::stats(scale);
    (stats.profile_builds, stats.report_hits)
}

fn counts(scale: &Scale) -> (u64, u64) {
    let stats = memo::stats(scale);
    assert!(stats.enabled, "the memo is on at smoke scale");
    (stats.misses, stats.hits)
}

#[test]
fn counts_are_exact_per_figure() {
    let _exclusive = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    let scale = Scale::smoke();
    memo::reset();
    render("fig01", &scale);
    assert_eq!(counts(&scale), (3, 0), "fig01: one test trace per app");
    assert_eq!(
        memo::stats(&scale).facts_builds,
        3,
        "fig01's five runs per app share one set of fetch facts"
    );
    assert_eq!(
        cached(&scale),
        (0, 0),
        "fig01 profiles nothing; its five baselines per app are new keys"
    );
    render("fig11", &scale);
    assert_eq!(
        counts(&scale),
        (6, 3),
        "fig11: a new train trace and a shared test trace per app"
    );
    assert_eq!(
        memo::stats(&scale).facts_builds,
        3,
        "fig11 replays fig01's facts; train traces are only profiled"
    );
    assert_eq!(
        cached(&scale),
        (6, 15),
        "fig11: two geometries per train trace; fig01's five baselines per app served again"
    );
}

#[test]
fn warm_memo_renders_the_same_bytes_as_a_cold_one() {
    let _exclusive = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    let scale = Scale::smoke();
    render("fig11", &scale);
    memo::reset();
    let cold = render("fig11", &scale);
    let warm = render("fig11", &scale);
    let (misses, hits) = counts(&scale);
    assert_eq!(hits, misses, "the warm render generated nothing");
    assert_eq!(cold, warm);
}

#[test]
fn served_profiles_and_baselines_render_the_same_bytes_as_fresh_ones() {
    let _exclusive = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    let scale = Scale::smoke();
    memo::reset();
    // Cold: every profile and baseline of fig12 is computed.
    let cold = render("fig12", &scale);
    let (builds, hits) = cached(&scale);
    assert_eq!((builds, hits), (3, 0));
    // Warm: all are served from the memo, none recomputed.
    let warm = render("fig12", &scale);
    assert_eq!(
        cached(&scale),
        (builds, 5 * 3),
        "five baselines per app served"
    );
    assert_eq!(cold, warm);
}
