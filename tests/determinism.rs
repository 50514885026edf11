//! Figure-pipeline determinism: two runs of the same figures at the same
//! scale must render byte-identical markdown. This guards both the
//! generator/profiler seeding and the submission-order gather of the
//! `grid::run_cells` executor in `bench/src/grid.rs` — a completion-order
//! join would scramble the rows. (`tests/grid_parallel.rs` additionally
//! pins serial-vs-parallel equivalence across thread counts.)

use thermometer_bench::figures::memo;
use thermometer_bench::{figure_by_id, Scale};

fn render(ids: &[&str], scale: &Scale) -> String {
    let mut out = String::new();
    for id in ids {
        for fig in figure_by_id(id, scale).expect("registered id") {
            out.push_str(&fig.to_markdown());
            out.push('\n');
        }
    }
    out
}

#[test]
fn figure_pipeline_is_byte_identical_across_runs() {
    // A cross-section of the pipeline: OPT headroom (fig01), temperature
    // distribution (fig06), bypass behaviour (fig09), and the headline
    // speedup comparison (fig15) — each exercising profiling, hint
    // generation, and simulation. Smoke scale keeps the runtime CI-sized.
    let ids = ["fig01", "fig06", "fig09", "fig15"];
    let scale = Scale::smoke();
    let first = render(&ids, &scale);
    // A cold memo, so the second render generates its traces again rather
    // than reusing the first render's.
    memo::reset();
    let second = render(&ids, &scale);
    assert!(!first.is_empty());
    assert_eq!(
        first, second,
        "figure markdown differed between identical runs"
    );
}
