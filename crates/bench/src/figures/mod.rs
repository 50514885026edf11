//! One function per paper figure, plus the registry used by the `figures`
//! binary. See DESIGN.md §4 for the experiment index.

mod characterization;
mod evaluation;
mod extensions;
pub mod memo;
mod sensitivity;
mod suites;

pub use characterization::{fig01, fig02, fig03, fig04, fig05, fig06, fig07, fig08, fig09};
pub use evaluation::{fig11, fig12, fig13, fig14, fig15, fig16};
pub use extensions::{ablation, extra_policies, hierarchy, trrip_grid};
pub use sensitivity::{fig19_entries, fig19_ways, fig20_categories, fig20_ftq, fig21};
pub use suites::{fig17, fig18};

use std::sync::Arc;

use crate::scale::Scale;
use crate::text::FigureResult;
use btb_workloads::{AppSpec, InputConfig};
use thermometer::PreparedTrace;

/// All figure ids in paper order, plus the extension experiments.
pub const FIGURE_IDS: [&str; 24] = [
    "fig01",
    "fig02",
    "fig03",
    "fig04",
    "fig05",
    "fig06",
    "fig07",
    "fig08",
    "fig09",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "fig21",
    "extra-policies",
    "ablation",
    "trrip",
    "hierarchy",
];

/// Runs one figure by id (`"fig19"`/`"fig20"` produce both sub-tables).
///
/// Returns `None` for an unknown id.
pub fn figure_by_id(id: &str, scale: &Scale) -> Option<Vec<FigureResult>> {
    let figs = match id {
        "fig01" => vec![fig01(scale)],
        "fig02" => vec![fig02(scale)],
        "fig03" => vec![fig03(scale)],
        "fig04" => vec![fig04(scale)],
        "fig05" => vec![fig05(scale)],
        "fig06" => vec![fig06(scale)],
        "fig07" => vec![fig07(scale)],
        "fig08" => vec![fig08(scale)],
        "fig09" => vec![fig09(scale)],
        "fig11" => vec![fig11(scale)],
        "fig12" => vec![fig12(scale)],
        "fig13" => vec![fig13(scale)],
        "fig14" => vec![fig14(scale)],
        "fig15" => vec![fig15(scale)],
        "fig16" => vec![fig16(scale)],
        "fig17" => vec![fig17(scale)],
        "fig18" => vec![fig18(scale)],
        "fig19" => vec![fig19_entries(scale), fig19_ways(scale)],
        "fig20" => vec![fig20_categories(scale), fig20_ftq(scale)],
        "fig21" => vec![fig21(scale)],
        "extra-policies" => vec![extra_policies(scale)],
        "ablation" => vec![ablation(scale)],
        "trrip" => vec![trrip_grid(scale)],
        "hierarchy" => vec![hierarchy(scale)],
        _ => return None,
    };
    Some(figs)
}

/// The training trace (input `#0`) for an application, shared through the
/// [trace memo](memo).
pub(crate) fn train_trace(spec: &AppSpec, scale: &Scale) -> Arc<PreparedTrace> {
    app_trace(spec, InputConfig::input(0), scale)
}

/// The default test trace (input `#1`), shared through the [trace memo](memo).
pub(crate) fn test_trace(spec: &AppSpec, scale: &Scale) -> Arc<PreparedTrace> {
    app_trace(spec, InputConfig::input(1), scale)
}

fn app_trace(spec: &AppSpec, input: InputConfig, scale: &Scale) -> Arc<PreparedTrace> {
    let trace = memo::trace(spec, input, scale);
    // Credited on hits too: a cell's accesses count the records it
    // simulates, whoever generated them.
    crate::grid::note_accesses(trace.len() as u64);
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_id() {
        let scale = Scale::smoke();
        // Don't run them all here (that's the integration test's job);
        // just ensure unknown ids are rejected.
        assert!(figure_by_id("fig99", &scale).is_none());
    }
}
