//! Figures 11–16: the main evaluation (§4.2 of the paper).
//!
//! The evaluation methodology follows §4.1: Thermometer's hints come from a
//! *training* execution (input `#0`); the measured execution is a different
//! input (`#1` by default, `#1..#3` for Fig. 13).

use std::sync::Arc;

use btb_model::policies::{BeladyOpt, Ghrp, Hawkeye, Lru, Srrip};
use btb_model::BtbConfig;
use btb_workloads::InputConfig;
use thermometer::accuracy::measure_accuracy;
use thermometer::pipeline::{Pipeline, PipelineConfig};
use thermometer::{HolisticOnly, PreparedTrace, ThermometerPolicy};

use super::{memo, test_trace, train_trace};
use crate::per_app;
use crate::scale::Scale;
use crate::text::{FigureResult, Row};

/// Fig. 11: Thermometer (including the 7979-entry iso-storage variant) vs.
/// prior policies and OPT.
pub fn fig11(scale: &Scale) -> FigureResult {
    let pipeline = Pipeline::new(PipelineConfig::default());
    let iso = pipeline.with_btb(BtbConfig::iso_storage_7979());
    let rows = per_app("fig11", &scale.apps, |spec| {
        let train = train_trace(spec, scale);
        let test = test_trace(spec, scale);
        let hints = memo::hints(&pipeline, &train);
        let hints_iso = memo::hints(&iso, &train);
        let lru = memo::baseline::<Lru>(&pipeline, &test);
        Row::new(
            spec.name.clone(),
            vec![
                memo::baseline::<Srrip>(&pipeline, &test).speedup_over(&lru),
                memo::baseline::<Ghrp>(&pipeline, &test).speedup_over(&lru),
                memo::baseline::<Hawkeye>(&pipeline, &test).speedup_over(&lru),
                pipeline
                    .run(&test, ThermometerPolicy::new(), Some(&hints))
                    .speedup_over(&lru),
                iso.run(&test, ThermometerPolicy::new(), Some(&hints_iso))
                    .speedup_over(&lru),
                memo::baseline::<BeladyOpt>(&pipeline, &test).speedup_over(&lru),
            ],
        )
    });
    let mut fig = FigureResult {
        id: "fig11".into(),
        title: "Thermometer vs. prior replacement policies and OPT, over LRU".into(),
        unit: "IPC speedup %".into(),
        columns: [
            "SRRIP",
            "GHRP",
            "Hawkeye",
            "Thermometer",
            "Therm-7979",
            "OPT",
        ]
        .map(String::from)
        .to_vec(),
        rows,
        notes: vec![
            "Paper: Thermometer 8.7% average (83.6% of OPT's 10.4%), 5.6x the best prior work \
             (SRRIP, 1.5%); the iso-storage 7979-entry variant performs comparably."
                .into(),
            "Hints are trained on input #0 and evaluated on input #1, per §4.1.".into(),
        ],
        ..Default::default()
    };
    fig.push_average_row();
    fig
}

/// Fig. 12: BTB miss reduction over LRU.
pub fn fig12(scale: &Scale) -> FigureResult {
    let pipeline = Pipeline::new(PipelineConfig::default());
    let rows = per_app("fig12", &scale.apps, |spec| {
        let train = train_trace(spec, scale);
        let test = test_trace(spec, scale);
        let hints = memo::hints(&pipeline, &train);
        let lru = memo::baseline::<Lru>(&pipeline, &test);
        Row::new(
            spec.name.clone(),
            vec![
                memo::baseline::<Srrip>(&pipeline, &test).miss_reduction_over(&lru),
                memo::baseline::<Ghrp>(&pipeline, &test).miss_reduction_over(&lru),
                memo::baseline::<Hawkeye>(&pipeline, &test).miss_reduction_over(&lru),
                pipeline
                    .run(&test, ThermometerPolicy::new(), Some(&hints))
                    .miss_reduction_over(&lru),
                memo::baseline::<BeladyOpt>(&pipeline, &test).miss_reduction_over(&lru),
            ],
        )
    });
    let mut fig = FigureResult {
        id: "fig12".into(),
        title: "BTB miss reduction over LRU".into(),
        unit: "miss reduction %".into(),
        columns: ["SRRIP", "GHRP", "Hawkeye", "Thermometer", "OPT"]
            .map(String::from)
            .to_vec(),
        rows,
        notes: vec![
            "Paper: Thermometer removes 21.3% of all BTB misses (62.6% of OPT's 34%); prior \
             policies manage at most 6.7%."
                .into(),
        ],
        ..Default::default()
    };
    fig.push_average_row();
    fig
}

/// Fig. 13: generalization across inputs — training-input profile vs.
/// same-input profile, as a percentage of the optimal speedup.
pub fn fig13(scale: &Scale) -> FigureResult {
    let pipeline = Pipeline::new(PipelineConfig::default());
    let per_app_rows = per_app("fig13", &scale.apps, |spec| {
        let train = train_trace(spec, scale);
        let train_hints = memo::hints(&pipeline, &train);
        let mut rows = Vec::new();
        for input in 1..=3u32 {
            // Input #1 is every figure's test trace; #2 and #3 serve only
            // this figure, once each, so they bypass the memo (but are still
            // prepared once for this cell's profile and five runs).
            let test = if input == 1 {
                test_trace(spec, scale)
            } else {
                let trace = spec.generate(InputConfig::input(input), scale.trace_len);
                Arc::new(PreparedTrace::new(trace))
            };
            let same_hints = memo::hints(&pipeline, &test);
            let lru = memo::baseline::<Lru>(&pipeline, &test);
            let opt_speedup = memo::baseline::<BeladyOpt>(&pipeline, &test).speedup_over(&lru);
            let pct = |speedup: f64| {
                if opt_speedup.abs() < 1e-9 {
                    0.0
                } else {
                    speedup / opt_speedup * 100.0
                }
            };
            rows.push(Row::new(
                format!("{} #{input}", spec.name),
                vec![
                    pct(memo::baseline::<Srrip>(&pipeline, &test).speedup_over(&lru)),
                    pct(pipeline
                        .run(&test, ThermometerPolicy::new(), Some(&train_hints))
                        .speedup_over(&lru)),
                    pct(pipeline
                        .run(&test, ThermometerPolicy::new(), Some(&same_hints))
                        .speedup_over(&lru)),
                ],
            ));
        }
        rows
    });
    let mut fig = FigureResult {
        id: "fig13".into(),
        title: "Speedup across application inputs as % of the optimal policy's speedup".into(),
        unit: "% of OPT speedup".into(),
        columns: [
            "SRRIP",
            "Therm-training-profile",
            "Therm-same-input-profile",
        ]
        .map(String::from)
        .to_vec(),
        rows: per_app_rows.into_iter().flatten().collect(),
        notes: vec![
            "Paper: the training-input profile retains most of the same-input benefit because \
             ~81% of branches keep their temperature category across inputs."
                .into(),
        ],
        ..Default::default()
    };
    fig.push_average_row();
    fig
}

/// Fig. 14: offline OPT-simulation cost.
///
/// The paper reports wall-clock seconds; wall-clock is not reproducible, and
/// this report must regenerate byte-identically (EXPERIMENTS.md), so the
/// figure reports the deterministic work metric — taken-branch accesses the
/// OPT replay processes — plus the unique-branch count that sizes the
/// resulting profile. Measured wall-clock per access lives in the bench
/// harness (`cargo bench --bench profiling` → `results/bench_profiling.json`).
pub fn fig14(scale: &Scale) -> FigureResult {
    let pipeline = Pipeline::new(PipelineConfig::default());
    let rows = per_app("fig14", &scale.apps, |spec| {
        let train = train_trace(spec, scale);
        let profile = memo::profile(&train, pipeline.config().frontend.btb);
        let accesses: u64 = profile.branches.values().map(|c| c.taken).sum();
        Row::new(
            spec.name.clone(),
            vec![
                accesses as f64 / 1e6,
                profile.unique_branches() as f64 / 1e3,
            ],
        )
    });
    let mut fig = FigureResult {
        id: "fig14".into(),
        title: "Offline optimal-replacement simulation cost".into(),
        unit: "work per profiling run".into(),
        columns: vec!["OPT accesses (M)".into(), "Unique branches (K)".into()],
        rows,
        notes: vec![
            "Paper: 4.18-167 s per application (23.53 s average) on their traces — comparable to \
             production post-link-optimizer runtimes. The deterministic work metric is reported \
             here; multiply by the measured per-access cost from \
             results/bench_profiling.json (opt_profile median / elements) for wall-clock time."
                .into(),
        ],
        ..Default::default()
    };
    fig.push_average_row();
    fig
}

/// Fig. 15: replacement coverage — evictions where the temperature
/// distinguished the candidates.
pub fn fig15(scale: &Scale) -> FigureResult {
    let pipeline = Pipeline::new(PipelineConfig::default());
    let rows = per_app("fig15", &scale.apps, |spec| {
        let train = train_trace(spec, scale);
        let test = test_trace(spec, scale);
        let hints = memo::hints(&pipeline, &train);
        let (_, fe) = pipeline.run_with(&test, ThermometerPolicy::new(), Some(&hints), None);
        let coverage = fe.btb().policy().coverage();
        Row::new(spec.name.clone(), vec![coverage.coverage() * 100.0])
    });
    let mut fig = FigureResult {
        id: "fig15".into(),
        title: "Replacement coverage of Thermometer".into(),
        unit: "% of replacement decisions".into(),
        columns: vec!["Coverage".into()],
        rows,
        notes: vec![
            "Paper: 61.4% of replacement decisions are resolved by temperature (the rest fall \
             back to LRU among equal-temperature candidates)."
                .into(),
        ],
        ..Default::default()
    };
    fig.push_average_row();
    fig
}

/// Fig. 16: replacement accuracy of transient-only (LRU), holistic-only,
/// and Thermometer decisions.
pub fn fig16(scale: &Scale) -> FigureResult {
    let config = BtbConfig::table1();
    let pipeline = Pipeline::new(PipelineConfig::default());
    let rows = per_app("fig16", &scale.apps, |spec| {
        let train = train_trace(spec, scale);
        let test = test_trace(spec, scale);
        let hints = memo::hints(&pipeline, &train);
        let transient = measure_accuracy(&test, config, Lru::new(), None);
        let holistic = measure_accuracy(&test, config, HolisticOnly::new(), Some(&hints));
        let therm = measure_accuracy(&test, config, ThermometerPolicy::new(), Some(&hints));
        Row::new(
            spec.name.clone(),
            vec![
                transient.accuracy() * 100.0,
                holistic.accuracy() * 100.0,
                therm.accuracy() * 100.0,
            ],
        )
    });
    let mut fig = FigureResult {
        id: "fig16".into(),
        title: "Replacement accuracy: victims whose actual reuse distance >= associativity".into(),
        unit: "accuracy %".into(),
        columns: ["Transient", "Holistic", "Thermometer"]
            .map(String::from)
            .to_vec(),
        rows,
        notes: vec![
            "Paper: transient-only 46.06%, holistic-only 63.72%, Thermometer 68.20% — combining \
             both signals wins."
                .into(),
        ],
        ..Default::default()
    };
    fig.push_average_row();
    fig
}
