//! Experiment driver and figure harness for the Thermometer reproduction.
//!
//! Every table and figure of the paper's evaluation is regenerated by a
//! function in [`figures`], orchestrated by the `figures` binary:
//!
//! ```text
//! cargo run -p thermometer-bench --release --bin figures -- all
//! cargo run -p thermometer-bench --release --bin figures -- fig11
//! ```
//!
//! Scale knobs come from the environment (see [`Scale`]); the defaults
//! regenerate every figure in a few minutes on a laptop. Thread count comes
//! from `--threads N` / `SIM_THREADS` (default: available parallelism;
//! 1 forces the serial path) — output is byte-identical either way, because
//! every figure's inner loop runs through the deterministic scatter/gather
//! [`grid`]. Micro-benchmarks for the simulator substrate live under
//! `benches/`.

pub mod args;
pub mod figures;
pub mod grid;
pub mod journal;
pub mod merge;
pub mod scale;
pub mod supervise;
pub mod text;

pub use args::WorkerArgs;
pub use figures::{all_figures, figure_by_id, FIGURE_IDS};
pub use grid::{run_cells, CellStat, FaultPolicy, Quarantined};
pub use journal::Journal;
pub use scale::Scale;
pub use text::{FigureResult, Row};

use std::sync::Arc;

use btb_trace::Trace;
use btb_workloads::AppSpec;
use thermometer::PreparedTrace;

/// Runs `f` once per item through the shared pool, gathering results in
/// input order regardless of completion order. Kept as the generic utility;
/// figure code should prefer [`per_app`]/[`per_app_traces`] so cells land in
/// the stats registry.
pub fn parallel_map<I, T, F>(items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    sim_support::pool::par_map(items, |_, item| f(item))
}

/// Runs one grid cell per application for figure `figure`, via
/// [`grid::run_cells`].
pub fn per_app<T, F>(figure: &str, apps: &[AppSpec], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&AppSpec) -> T + Sync,
{
    grid::run_cells(figure, apps, |spec| spec.name.clone(), f)
}

/// Runs one grid cell per pre-generated trace for figure `figure`. Suite
/// runs enqueue several hundred cells; the pool's work stealing balances
/// them without spawning one thread each. Each cell gets its trace
/// prepared, so the cell's runs share one set of fetch facts and one OPT
/// oracle, which are dropped when the cell ends.
pub fn per_app_traces<T, F>(figure: &str, traces: &[Arc<Trace>], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&PreparedTrace) -> T + Sync,
{
    grid::run_cells(
        figure,
        traces,
        |trace| trace.name().to_string(),
        |trace| {
            grid::note_accesses(trace.len() as u64);
            f(&PreparedTrace::new(Arc::clone(trace)))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_app_preserves_order() {
        let apps = AppSpec::all();
        let names = per_app("unit-order", &apps, |s| s.name.clone());
        let expected: Vec<String> = apps.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u32> = (0..32).collect();
        assert_eq!(
            parallel_map(&items, |x| x * 2),
            items.iter().map(|x| x * 2).collect::<Vec<_>>()
        );
    }
}
