//! Frontend simulation rate: records per second through the full FDIP
//! model (TAGE + BTB + caches + timing). This bounds figure regeneration
//! time — the Fig. 1/11 grids run ~100 of these simulations.
//!
//! The frontend's layers run on the same kafka stream as `lru_sim`:
//! `fetch_facts_build` (TAGE, RAS, IBTB and the I-cache walk, once per
//! trace) and `frontend_replay_lru` (the BTB, timing and flush charging,
//! once per policy over the stored facts). The replay is itself two
//! passes, timed apart too: `frontend_btb_pass` (LRU lookups over the
//! taken-branch stream) and `frontend_timing_pass` (the lead/cycle chain
//! over the facts and the BTB pass's outcomes). `lru_sim` is one
//! `Frontend::run`, which builds the facts and replays them, so it costs
//! about their sum (DESIGN.md §15).
//!
//! Also measures the figure grid itself (a smoke-scale `fig01`) serially
//! and through the shared pool, so the scatter/gather overhead and the
//! machine's actual speedup are on record next to the per-sim rate.
//!
//! Run with `cargo bench -p thermometer-bench --bench frontend`;
//! results land in `results/bench_frontend.json` (median/MAD).

use std::hint::black_box;

use btb_model::policies::Lru;
use btb_trace::Trace;
use btb_workloads::{AppSpec, InputConfig};
use sim_support::{pool, BenchHarness};
use thermometer::pipeline::{Pipeline, PipelineConfig};
use thermometer::ThermometerPolicy;
use thermometer_bench::figures::memo;
use thermometer_bench::{figure_by_id, Scale};
use uarch_sim::{FetchFacts, Frontend, FrontendConfig};

const STREAM_LEN: usize = 200_000;
const RESULTS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");

fn workload() -> Trace {
    AppSpec::by_name("kafka")
        .expect("built-in")
        .generate(InputConfig::input(0), STREAM_LEN)
}

fn main() {
    let trace = workload();
    let records = Some(trace.len() as u64);

    let mut harness = BenchHarness::new("frontend");
    harness.bench("lru_sim", records, || {
        let mut fe = Frontend::new(FrontendConfig::table1(), Lru::new());
        black_box(fe.run(&trace, None))
    });
    harness.bench("fetch_facts_build", records, || {
        black_box(FetchFacts::build(&trace))
    });
    let facts = FetchFacts::build(&trace);
    harness.bench("frontend_replay_lru", records, || {
        let mut fe = Frontend::new(FrontendConfig::table1(), Lru::new());
        black_box(fe.replay(&trace, &facts, None))
    });
    harness.bench("frontend_btb_pass", records, || {
        let mut fe = Frontend::new(FrontendConfig::table1(), Lru::new());
        black_box(fe.btb_pass(&trace, None))
    });
    let outcomes = Frontend::new(FrontendConfig::table1(), Lru::new()).btb_pass(&trace, None);
    harness.bench("frontend_timing_pass", records, || {
        black_box(FrontendConfig::table1().time(&trace, &facts, &outcomes))
    });
    let pipeline = Pipeline::new(PipelineConfig::default());
    harness.bench("full_pipeline_profile_plus_sim", records, || {
        let hints = pipeline.profile_to_hints(&trace);
        black_box(pipeline.run(&trace, ThermometerPolicy::new(), Some(&hints)))
    });

    // The grid executor, serial vs. pooled, on one representative figure.
    // Output is byte-identical either way (tests/grid_parallel.rs); only
    // wall-clock may differ, by up to the machine's core count. Each
    // iteration starts from a cold trace memo, so both still time trace
    // generation as their recorded baselines did.
    let smoke = Scale::smoke();
    let cells = Some(smoke.apps.len() as u64);
    pool::set_threads(1);
    harness.bench("fig01_grid_serial", cells, || {
        memo::reset();
        black_box(figure_by_id("fig01", &smoke))
    });
    pool::set_threads(0); // default: SIM_THREADS or available parallelism
    harness.bench("fig01_grid_pooled", cells, || {
        memo::reset();
        black_box(figure_by_id("fig01", &smoke))
    });
    harness.note(
        "lru_sim is one Frontend::run, which is fetch_facts_build followed by \
         frontend_replay_lru; a figure grid pays the build once per trace and the replay \
         once per policy. frontend_replay_lru is frontend_btb_pass followed by \
         frontend_timing_pass.",
    );
    harness.note(&format!(
        "fig01_grid_pooled ran with {} worker thread(s); cells are independent, so \
         figures all --threads N scales with cores until cells per figure (3-13) are exhausted. \
         Full-sweep before/after wall-clock for this machine is recorded in results/grid_stats.json.",
        pool::configured_threads()
    ));
    harness.note_host();
    harness.finish(RESULTS_DIR);
}
