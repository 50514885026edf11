//! Figures 17–18: the CBP-5 and IPC-1 trace-suite validation.

use std::sync::Arc;

use btb_model::policies::{BeladyOpt, Ghrp, Hawkeye, Lru, Srrip};
use btb_model::BtbConfig;
use btb_trace::Trace;
use btb_workloads::{cbp5_suite, ipc1_suite, SuiteParams};
use thermometer::pipeline::{Pipeline, PipelineConfig};
use thermometer::temperature::{default_candidates, two_fold_thresholds};
use thermometer::{HintTable, OptProfile, TemperatureConfig, ThermometerPolicy};

use crate::per_app_traces;
use crate::scale::Scale;
use crate::text::{FigureResult, Row};

/// Percentiles reported for the per-trace distributions.
const PERCENTILES: [(f64, &str); 7] = [
    (0.0, "min"),
    (0.10, "p10"),
    (0.25, "p25"),
    (0.50, "p50"),
    (0.75, "p75"),
    (0.90, "p90"),
    (1.0, "max"),
];

/// Moves each suite trace behind an `Arc`, so a cell can prepare it
/// without copying its records.
fn shared(traces: Vec<Trace>) -> Vec<Arc<Trace>> {
    traces.into_iter().map(Arc::new).collect()
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Fig. 17: BTB miss reduction of Thermometer over GHRP on the CBP-5-style
/// suite, with fixed (50/80) and two-fold cross-validated thresholds.
pub fn fig17(scale: &Scale) -> FigureResult {
    let traces = shared(cbp5_suite(SuiteParams::new(scale.cbp_count, scale.cbp_len)));
    let pipeline = Pipeline::new(PipelineConfig::default());

    let per_trace: Vec<(f64, f64, f64)> = per_app_traces("fig17", &traces, |trace| {
        let ghrp = pipeline.run(trace, Ghrp::default(), None);
        let profile = pipeline.profile(trace);
        let fixed_hints = HintTable::from_profile(&profile, &TemperatureConfig::paper_default());
        let fixed = pipeline.run(trace, ThermometerPolicy::new(), Some(&fixed_hints));

        // Two-fold cross-validation over the trace halves.
        let half = trace.len() / 2;
        let first = Trace::from_records("first", trace.records()[..half].to_vec());
        let second = Trace::from_records("second", trace.records()[half..].to_vec());
        let p1 = OptProfile::measure(&first, BtbConfig::table1());
        let p2 = OptProfile::measure(&second, BtbConfig::table1());
        let (y1, y2) = two_fold_thresholds(&p1, &p2, &default_candidates());
        let cv_hints = HintTable::from_profile(&profile, &TemperatureConfig::new(vec![y1, y2]));
        let cv = pipeline.run(trace, ThermometerPolicy::new(), Some(&cv_hints));

        let reduction = |r: &uarch_sim::SimReport| r.miss_reduction_over(&ghrp);
        (reduction(&fixed), reduction(&cv), ghrp.btb_mpki())
    });

    let mut fixed: Vec<f64> = per_trace.iter().map(|t| t.0).collect();
    let mut cv: Vec<f64> = per_trace.iter().map(|t| t.1).collect();
    fixed.sort_by(|a, b| a.total_cmp(b));
    cv.sort_by(|a, b| a.total_cmp(b));

    let rows = PERCENTILES
        .iter()
        .map(|&(q, name)| Row::new(name, vec![percentile(&fixed, q), percentile(&cv, q)]))
        .collect();

    let n = per_trace.len() as f64;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / n;
    let wins = per_trace.iter().filter(|t| t.0 > 0.01).count();
    let losses = per_trace.iter().filter(|t| t.0 < -0.01).count();
    let cv_losses = per_trace.iter().filter(|t| t.1 < -0.01).count();
    let pressured: Vec<f64> = per_trace
        .iter()
        .filter(|t| t.2 >= 1.0)
        .map(|t| t.0)
        .collect();
    let pressured_mean = if pressured.is_empty() {
        0.0
    } else {
        pressured.iter().sum::<f64>() / pressured.len() as f64
    };

    FigureResult {
        id: "fig17".into(),
        title: "BTB miss reduction of Thermometer over GHRP across the CBP-5-style suite".into(),
        unit: "miss reduction % (per-trace distribution)".into(),
        columns: ["original (50/80)", "two-fold CV"]
            .map(String::from)
            .to_vec(),
        rows,
        summary: vec![
            ("Mean reduction, original".into(), mean(&fixed)),
            ("Mean reduction, two-fold CV".into(), mean(&cv)),
            (
                "Mean reduction, traces with BTB MPKI >= 1".into(),
                pressured_mean,
            ),
            ("Traces Thermometer wins".into(), wins as f64),
            ("Traces GHRP wins".into(), losses as f64),
            ("Traces GHRP wins after CV".into(), cv_losses as f64),
        ],
        notes: vec![
            format!(
                "Suite: {} synthetic traces substituting the paper's 663 (DESIGN.md §2); \
                 distribution-matched, not count-matched.",
                per_trace.len()
            ),
            "Paper: 2.25% mean reduction over GHRP (11.48% on traces with MPKI >= 1); many \
             traces tie because they only suffer compulsory misses; CV shrinks the loss tail."
                .into(),
        ],
    }
}

/// Fig. 18: IPC speedup over LRU on the IPC-1-style suite.
pub fn fig18(scale: &Scale) -> FigureResult {
    let traces = shared(ipc1_suite(SuiteParams::new(
        scale.ipc1_count,
        scale.ipc1_len,
    )));
    let pipeline = Pipeline::new(PipelineConfig::default());

    let per_trace: Vec<(Vec<f64>, f64)> = per_app_traces("fig18", &traces, |trace| {
        let lru = pipeline.run(trace, Lru::new(), None);
        let hints = pipeline.profile_to_hints(trace);
        let speedups = vec![
            pipeline.run(trace, Srrip::new(), None).speedup_over(&lru),
            pipeline
                .run(trace, Ghrp::default(), None)
                .speedup_over(&lru),
            pipeline
                .run(trace, Hawkeye::default(), None)
                .speedup_over(&lru),
            pipeline
                .run(trace, ThermometerPolicy::new(), Some(&hints))
                .speedup_over(&lru),
            pipeline
                .run(trace, BeladyOpt::new(), None)
                .speedup_over(&lru),
        ];
        (speedups, lru.btb_mpki())
    });

    let columns = ["SRRIP", "GHRP", "Hawkeye", "Thermometer", "OPT"];
    let n = per_trace.len() as f64;
    let mut rows = Vec::new();
    // Per-column distributions.
    for (q, name) in PERCENTILES {
        let values = (0..columns.len())
            .map(|c| {
                let mut col: Vec<f64> = per_trace.iter().map(|(s, _)| s[c]).collect();
                col.sort_by(|a, b| a.total_cmp(b));
                percentile(&col, q)
            })
            .collect();
        rows.push(Row::new(name, values));
    }
    let means: Vec<f64> = (0..columns.len())
        .map(|c| per_trace.iter().map(|(s, _)| s[c]).sum::<f64>() / n)
        .collect();
    rows.push(Row::new("mean", means.clone()));

    let pressured: Vec<&(Vec<f64>, f64)> =
        per_trace.iter().filter(|(_, mpki)| *mpki >= 1.0).collect();
    let therm_pressured = if pressured.is_empty() {
        0.0
    } else {
        pressured.iter().map(|(s, _)| s[3]).sum::<f64>() / pressured.len() as f64
    };

    FigureResult {
        id: "fig18".into(),
        title: "IPC speedup over LRU across the IPC-1-style suite".into(),
        unit: "IPC speedup % (per-trace distribution)".into(),
        columns: columns.map(String::from).to_vec(),
        rows,
        summary: vec![
            ("Traces with BTB MPKI >= 1".into(), pressured.len() as f64),
            ("Thermometer mean on those traces".into(), therm_pressured),
        ],
        notes: vec![
            "Paper: Thermometer 1.07% mean (3.59% on the 9 high-MPKI traces), SRRIP 0.45%, \
             and 85.7% of OPT's speedup."
                .into(),
        ],
    }
}
