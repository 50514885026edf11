//! Golden snapshots of the extension figure suites added for the policy
//! zoo: the TRRIP-vs-Thermometer grid and the inclusive-vs-exclusive
//! hierarchy sweep. The rendered markdown (values included) must be stable
//! across runs, platforms, and thread counts — any drift in the policies,
//! the hierarchies, or the hint pipeline shows up as a readable diff.
//!
//! Bless intentional changes with
//! `UPDATE_GOLDENS=1 cargo test -p thermometer-bench --test figure_goldens`.

use sim_support::assert_snapshot;
use thermometer_bench::{figure_by_id, Scale};

fn render(id: &str) -> String {
    let scale = Scale::smoke();
    figure_by_id(id, &scale)
        .unwrap_or_else(|| panic!("unknown figure {id}"))
        .iter()
        .map(|fig| fig.to_markdown())
        .collect()
}

#[test]
fn trrip_grid_is_stable() {
    let md = render("trrip");
    // Structural sanity before pinning bytes: the pinned column must equal
    // the SRRIP column on every row (the in-figure differential).
    for line in md.lines().filter(|l| l.starts_with("| ")) {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        if cells.len() > 3 && cells[2] != "SRRIP" && !cells[2].is_empty() {
            assert_eq!(
                cells[2], cells[3],
                "TRRIP-pinned must equal SRRIP in: {line}"
            );
        }
    }
    assert_snapshot!("figure_trrip", md);
}

#[test]
fn hierarchy_sweep_is_stable() {
    assert_snapshot!("figure_hierarchy", render("hierarchy"));
}

#[test]
fn every_figure_is_stable() {
    // One snapshot over the whole figure list pins every figure's bytes,
    // so a refactor of the run entry points cannot drift any of them.
    let md: String = thermometer_bench::FIGURE_IDS
        .iter()
        .map(|id| format!("## {id}\n\n{}", render(id)))
        .collect();
    assert_snapshot!("figure_all", md);
}
