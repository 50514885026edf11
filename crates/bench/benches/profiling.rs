//! Offline profiling cost: the paper's Fig. 14 argues the OPT simulation
//! is cheap enough for production build pipelines. These benches measure
//! the offline stages: oracle construction, the OPT replay on a bare trace
//! (which builds its own branch index and oracle), the replay alone on a
//! prepared trace whose index and oracle are already built, the streamed
//! profile of a trace file's bytes (decoded straight into the branch index,
//! with no `Trace` built), and hint-table classification.
//!
//! Run with `cargo bench -p thermometer-bench --bench profiling`;
//! results land in `results/bench_profiling.json` (median/MAD).

use std::hint::black_box;

use btb_model::BtbConfig;
use btb_trace::{read_branch_index, write_binary, NextUseOracle, Trace};
use btb_workloads::{AppSpec, InputConfig};
use sim_support::BenchHarness;
use thermometer::{HintTable, OptProfile, PreparedTrace, TemperatureConfig};

const STREAM_LEN: usize = 200_000;
const RESULTS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");

fn workload() -> Trace {
    AppSpec::by_name("kafka")
        .expect("built-in")
        .generate(InputConfig::input(0), STREAM_LEN)
}

fn main() {
    let trace = workload();
    let accesses = Some(trace.taken().count() as u64);

    let mut harness = BenchHarness::new("profiling");
    harness.bench("next_use_oracle", accesses, || {
        black_box(NextUseOracle::build(&trace))
    });
    harness.bench("opt_profile", accesses, || {
        black_box(OptProfile::measure(&trace, BtbConfig::table1()))
    });
    // Index and oracle built up front: this case times the replay alone.
    let prepared = PreparedTrace::new(trace.clone());
    prepared.oracle();
    harness.bench("opt_profile_prepared", accesses, || {
        black_box(OptProfile::measure(&prepared, BtbConfig::table1()))
    });

    // File bytes to a profile, as btbsim profiles its --profile file.
    let mut bytes = Vec::new();
    write_binary(&mut bytes, &trace).expect("write to memory");
    harness.bench("opt_profile_streamed", accesses, || {
        let (index, _) = read_branch_index(&mut bytes.as_slice()).expect("decode");
        let oracle = NextUseOracle::from_index(&index);
        black_box(OptProfile::measure_indexed(
            &index,
            &oracle,
            BtbConfig::table1(),
        ))
    });

    let profile = OptProfile::measure(&trace, BtbConfig::table1());
    harness.bench("hint_table", Some(profile.unique_branches() as u64), || {
        black_box(HintTable::from_profile(
            &profile,
            &TemperatureConfig::paper_default(),
        ))
    });
    harness.note_host();
    harness.finish(RESULTS_DIR);
}
