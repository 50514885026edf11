//! Figures 1–9: the characterization study (§2 of the paper).

use btb_model::policies::{BeladyOpt, Ghrp, Hawkeye, Lru, Srrip};
use btb_model::reuse::ReuseAnalysis;
use btb_model::BtbConfig;
use thermometer::analysis;
use thermometer::pipeline::{Pipeline, PipelineConfig};
use thermometer::TemperatureConfig;
use uarch_sim::prefetch::{Confluence, ShotgunBtb};
use uarch_sim::{Frontend, PerfectOptions};

use super::{memo, test_trace};
use crate::per_app;
use crate::scale::Scale;
use crate::text::{FigureResult, Row};

/// Fig. 1: speedup of SRRIP / GHRP / Hawkeye / OPT over LRU.
pub fn fig01(scale: &Scale) -> FigureResult {
    let pipeline = Pipeline::new(PipelineConfig::default());
    let rows = per_app("fig01", &scale.apps, |spec| {
        let trace = test_trace(spec, scale);
        let lru = memo::baseline::<Lru>(&pipeline, &trace);
        let values = vec![
            memo::baseline::<Srrip>(&pipeline, &trace).speedup_over(&lru),
            memo::baseline::<Ghrp>(&pipeline, &trace).speedup_over(&lru),
            memo::baseline::<Hawkeye>(&pipeline, &trace).speedup_over(&lru),
            memo::baseline::<BeladyOpt>(&pipeline, &trace).speedup_over(&lru),
        ];
        Row::new(spec.name.clone(), values)
    });
    let mut fig = FigureResult {
        id: "fig01".into(),
        title: "Prior replacement policies vs. the optimal policy, over LRU".into(),
        unit: "IPC speedup %".into(),
        columns: ["SRRIP", "GHRP", "Hawkeye", "OPT"]
            .map(String::from)
            .to_vec(),
        rows,
        notes: vec![
            "Paper: SRRIP 1.5% / GHRP ~0 / Hawkeye ~0 average; OPT 10.4% average — a large gap \
             between prior work and optimal."
                .into(),
        ],
        ..Default::default()
    };
    fig.push_average_row();
    fig
}

/// Fig. 2: limit study — perfect BTB / branch predictor / I-cache.
pub fn fig02(scale: &Scale) -> FigureResult {
    let pipeline = Pipeline::new(PipelineConfig::default());
    let rows = per_app("fig02", &scale.apps, |spec| {
        let trace = test_trace(spec, scale);
        let lru = memo::baseline::<Lru>(&pipeline, &trace);
        let perfect = |opts: PerfectOptions| pipeline.run_perfect(&trace, opts).speedup_over(&lru);
        Row::new(
            spec.name.clone(),
            vec![
                perfect(PerfectOptions {
                    btb: true,
                    ..Default::default()
                }),
                perfect(PerfectOptions {
                    branch_predictor: true,
                    ..Default::default()
                }),
                perfect(PerfectOptions {
                    icache: true,
                    ..Default::default()
                }),
            ],
        )
    });
    let mut fig = FigureResult {
        id: "fig02".into(),
        title: "Limit study of FDIP frontend structures".into(),
        unit: "IPC speedup %".into(),
        columns: ["Perfect-BTB", "Perfect-BP", "Perfect-I-Cache"]
            .map(String::from)
            .to_vec(),
        rows,
        notes: vec![
            "Paper: perfect BTB 63.2% >> perfect I-cache 21.5% >> perfect BP 11.3% on average; \
             verilator dominates both BTB and I-cache columns."
                .into(),
        ],
        ..Default::default()
    };
    fig.push_average_row();
    fig
}

/// Fig. 3: L2 instruction MPKI per application.
pub fn fig03(scale: &Scale) -> FigureResult {
    let pipeline = Pipeline::new(PipelineConfig::default());
    let rows = per_app("fig03", &scale.apps, |spec| {
        let trace = test_trace(spec, scale);
        let report = memo::baseline::<Lru>(&pipeline, &trace);
        Row::new(spec.name.clone(), vec![report.l2_impki()])
    });
    FigureResult {
        id: "fig03".into(),
        title: "L2 instruction misses per kilo-instruction".into(),
        unit: "L2iMPKI".into(),
        columns: vec!["L2iMPKI".into()],
        rows,
        notes: vec![
            "Paper: verilator suffers >=300x the L2iMPKI of any other application (log-scale \
             figure); it proxies the most frontend-bound production services."
                .into(),
        ],
        ..Default::default()
    }
}

/// Fig. 4: BTB prefetching (Confluence / Shotgun) with LRU and OPT, vs. a
/// perfect BTB.
pub fn fig04(scale: &Scale) -> FigureResult {
    let pipeline = Pipeline::new(PipelineConfig::default());
    let rows = per_app("fig04", &scale.apps, |spec| {
        let trace = test_trace(spec, scale);
        let config = pipeline.config().frontend;
        let lru = memo::baseline::<Lru>(&pipeline, &trace);

        let confluence_lru = pipeline
            .run_with(&trace, Lru::new(), None, Some(Box::new(Confluence::new())))
            .0
            .speedup_over(&lru);

        let shotgun_lru = {
            let shotgun = ShotgunBtb::new(config.btb, Lru::new(), Lru::new());
            let mut fe = Frontend::with_btb(config, shotgun);
            fe.replay(&trace, trace.facts(), None).speedup_over(&lru)
        };

        let opt = memo::baseline::<BeladyOpt>(&pipeline, &trace).speedup_over(&lru);

        let confluence_opt = pipeline
            .run_with(
                &trace,
                BeladyOpt::new(),
                None,
                Some(Box::new(Confluence::new())),
            )
            .0
            .speedup_over(&lru);

        let shotgun_opt = {
            let shotgun = ShotgunBtb::new(config.btb, BeladyOpt::new(), BeladyOpt::new());
            let mut fe = Frontend::with_btb(config, shotgun);
            fe.replay(&trace, trace.facts(), Some(trace.oracle()))
                .speedup_over(&lru)
        };

        let perfect = pipeline
            .run_perfect(
                &trace,
                PerfectOptions {
                    btb: true,
                    ..Default::default()
                },
            )
            .speedup_over(&lru);

        Row::new(
            spec.name.clone(),
            vec![
                confluence_lru,
                shotgun_lru,
                opt,
                confluence_opt,
                shotgun_opt,
                perfect,
            ],
        )
    });
    let mut fig = FigureResult {
        id: "fig04".into(),
        title: "BTB prefetching vs. optimal replacement vs. perfect BTB, over LRU".into(),
        unit: "IPC speedup %".into(),
        columns: [
            "Confluence-LRU",
            "Shotgun-LRU",
            "OPT",
            "Confluence-OPT",
            "Shotgun-OPT",
            "Perfect-BTB",
        ]
        .map(String::from)
        .to_vec(),
        rows,
        notes: vec![
            "Paper: Confluence 1.4% mean, Shotgun a slight slowdown (static partition + metadata \
             waste); OPT 10.4%; perfect BTB 63.2%. Prefetching alone cannot close the gap."
                .into(),
        ],
        ..Default::default()
    };
    fig.push_average_row();
    fig
}

/// Fig. 5: transient vs. holistic reuse-distance variance.
pub fn fig05(scale: &Scale) -> FigureResult {
    let geometry = BtbConfig::table1().geometry();
    let rows = per_app("fig05", &scale.apps, |spec| {
        let trace = test_trace(spec, scale);
        let summary = ReuseAnalysis::measure(&trace, &geometry).variance_summary();
        Row::new(spec.name.clone(), vec![summary.transient, summary.holistic])
    });
    let mut fig = FigureResult {
        id: "fig05".into(),
        title: "Average transient vs. holistic reuse-distance variance".into(),
        unit: "variance (log2-distance scale)".into(),
        columns: ["Transient", "Holistic"].map(String::from).to_vec(),
        rows,
        notes: vec![
            "Paper: transient variance is more than 2x the holistic variance for every \
             application — the core argument for holistic (profile-guided) replacement."
                .into(),
        ],
        ..Default::default()
    };
    fig.push_average_row();
    fig
}

const CURVE_APPS: [&str; 3] = ["drupal", "kafka", "verilator"];
const CURVE_POINTS: [f64; 10] = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 1.0];

fn curve_apps(scale: &Scale) -> Vec<btb_workloads::AppSpec> {
    let chosen: Vec<btb_workloads::AppSpec> = scale
        .apps
        .iter()
        .filter(|s| CURVE_APPS.contains(&s.name.as_str()))
        .cloned()
        .collect();
    if chosen.is_empty() {
        scale.apps.iter().take(3).cloned().collect()
    } else {
        chosen
    }
}

fn sample_curve(points: &[analysis::HeatPoint]) -> Vec<f64> {
    CURVE_POINTS
        .iter()
        .map(|&frac| {
            points
                .iter()
                .find(|p| p.branch_fraction >= frac)
                .or(points.last())
                .map_or(0.0, |p| p.hit_to_taken * 100.0)
        })
        .collect()
}

/// Fig. 6: hit-to-taken distribution under OPT (hottest branches first).
pub fn fig06(scale: &Scale) -> FigureResult {
    let apps = curve_apps(scale);
    let curves = per_app("fig06", &apps, |spec| {
        let trace = test_trace(spec, scale);
        let profile = memo::profile(&trace, BtbConfig::table1());
        (
            spec.name.clone(),
            sample_curve(&analysis::heat_curve(&profile)),
        )
    });
    let rows = CURVE_POINTS
        .iter()
        .enumerate()
        .map(|(i, frac)| {
            Row::new(
                format!("top {:>3.0}% branches", frac * 100.0),
                curves.iter().map(|(_, c)| c[i]).collect(),
            )
        })
        .collect();
    FigureResult {
        id: "fig06".into(),
        title: "Hit-to-taken percentage under OPT, branches sorted hottest-first".into(),
        unit: "hit-to-taken %".into(),
        columns: curves.into_iter().map(|(n, _)| n).collect(),
        rows,
        notes: vec![
            "Paper: roughly half of unique branches are hot (>80%), ~20% are cold; the curve has \
             a hot plateau and a sharp cliff."
                .into(),
        ],
        ..Default::default()
    }
}

/// Fig. 7: cumulative dynamic-access share of the hottest branches.
pub fn fig07(scale: &Scale) -> FigureResult {
    let apps = curve_apps(scale);
    let curves = per_app("fig07", &apps, |spec| {
        let trace = test_trace(spec, scale);
        let profile = memo::profile(&trace, BtbConfig::table1());
        (
            spec.name.clone(),
            sample_curve(&analysis::dynamic_cdf(&profile)),
        )
    });
    let rows = CURVE_POINTS
        .iter()
        .enumerate()
        .map(|(i, frac)| {
            Row::new(
                format!("top {:>3.0}% branches", frac * 100.0),
                curves.iter().map(|(_, c)| c[i]).collect(),
            )
        })
        .collect();
    FigureResult {
        id: "fig07".into(),
        title: "Cumulative dynamic BTB accesses covered, branches sorted hottest-first".into(),
        unit: "% of dynamic taken branches".into(),
        columns: curves.into_iter().map(|(n, _)| n).collect(),
        rows,
        notes: vec!["Paper: hot branches constitute ~90% of all BTB accesses.".into()],
        ..Default::default()
    }
}

/// Fig. 8: correlation of branch properties with temperature.
pub fn fig08(scale: &Scale) -> FigureResult {
    let geometry = BtbConfig::table1().geometry();
    let rows = per_app("fig08", &scale.apps, |spec| {
        let trace = test_trace(spec, scale);
        let profile = memo::profile(&trace, BtbConfig::table1());
        let c = analysis::correlations(&trace, &profile, &geometry);
        Row::new(
            spec.name.clone(),
            vec![
                c.kind_vs_temperature,
                c.distance_vs_temperature,
                c.bias_vs_temperature,
                c.reuse_vs_temperature,
            ],
        )
    });
    let mut fig = FigureResult {
        id: "fig08".into(),
        title: "Correlation of branch properties with branch temperature".into(),
        unit: "|Pearson r|".into(),
        columns: [
            "Branch type",
            "Target distance",
            "Bias",
            "Avg reuse distance",
        ]
        .map(String::from)
        .to_vec(),
        rows,
        notes: vec![
            "Paper: only the holistic reuse distance correlates strongly with temperature — so \
             the temperature cannot be predicted from static properties; OPT simulation is \
             required."
                .into(),
        ],
        ..Default::default()
    };
    fig.push_average_row();
    fig
}

/// Fig. 9: bypass ratio by temperature class under OPT.
pub fn fig09(scale: &Scale) -> FigureResult {
    let temp = TemperatureConfig::paper_default();
    let rows = per_app("fig09", &scale.apps, |spec| {
        let trace = test_trace(spec, scale);
        let profile = memo::profile(&trace, BtbConfig::table1());
        let by_temp = analysis::bypass_by_temperature(&profile, &temp);
        Row::new(
            spec.name.clone(),
            by_temp.iter().map(|v| v * 100.0).collect(),
        )
    });
    let mut fig = FigureResult {
        id: "fig09".into(),
        title: "Average bypass share of misses per temperature class under OPT".into(),
        unit: "bypass %".into(),
        columns: ["Cold", "Warm", "Hot"].map(String::from).to_vec(),
        rows,
        notes: vec![
            "Paper: OPT declines to insert cold branches in more than half of their misses; hot \
             branches are almost always inserted."
                .into(),
        ],
        ..Default::default()
    };
    fig.push_average_row();
    fig
}
