//! Extension experiments beyond the paper's figures.
//!
//! * [`extra_policies`] — the full replacement-policy zoo, including the
//!   related-work policies the paper cites but does not plot (FIFO,
//!   tree-PLRU, DRRIP, SHiP).
//! * [`ablation`] — Thermometer component ablations: bypass rule on/off,
//!   holistic-only tie-break, and the two-fold cross-validated thresholds.
//! * [`trrip_grid`] — TRRIP (SRRIP with temperature-selected RRPVs)
//!   head-to-head against Thermometer on the same grid cells.
//! * [`hierarchy`] — inclusive vs exclusive (Micro BTB-style victim)
//!   two-level BTB organizations, with transient and temperature-aware
//!   policies managing the last level.

use btb_model::policies::{
    BeladyOpt, Drrip, Fifo, Ghrp, Hawkeye, Lru, PseudoLru, Ship, Srrip, Trrip,
};
use btb_model::{BtbConfig, BtbInterface, ExclusiveTwoLevelBtb, TwoLevelBtb};
use btb_trace::Trace;
use thermometer::pipeline::{Pipeline, PipelineConfig};
use thermometer::temperature::{default_candidates, two_fold_thresholds};
use thermometer::{
    HintTable, HolisticOnly, OptProfile, PreparedTrace, TemperatureConfig, ThermometerNoBypass,
    ThermometerPolicy,
};
use uarch_sim::{Frontend, SimReport};

use super::{memo, test_trace, train_trace};
use crate::per_app;
use crate::scale::Scale;
use crate::text::{FigureResult, Row};

/// Extension: every implemented replacement policy over LRU.
pub fn extra_policies(scale: &Scale) -> FigureResult {
    let pipeline = Pipeline::new(PipelineConfig::default());
    let rows = per_app("extra-policies", &scale.apps, |spec| {
        let test = test_trace(spec, scale);
        let lru = memo::baseline::<Lru>(&pipeline, &test);
        Row::new(
            spec.name.clone(),
            vec![
                pipeline.run(&test, Fifo::new(), None).speedup_over(&lru),
                pipeline
                    .run(&test, PseudoLru::new(), None)
                    .speedup_over(&lru),
                memo::baseline::<Srrip>(&pipeline, &test).speedup_over(&lru),
                pipeline.run(&test, Drrip::new(), None).speedup_over(&lru),
                pipeline.run(&test, Ship::new(), None).speedup_over(&lru),
                memo::baseline::<Ghrp>(&pipeline, &test).speedup_over(&lru),
                memo::baseline::<Hawkeye>(&pipeline, &test).speedup_over(&lru),
                memo::baseline::<BeladyOpt>(&pipeline, &test).speedup_over(&lru),
            ],
        )
    });
    let mut fig = FigureResult {
        id: "extra-policies".into(),
        title: "Extension: the full replacement-policy zoo over LRU".into(),
        unit: "IPC speedup %".into(),
        columns: [
            "FIFO", "PLRU", "SRRIP", "DRRIP", "SHiP", "GHRP", "Hawkeye", "OPT",
        ]
        .map(String::from)
        .to_vec(),
        rows,
        notes: vec![
            "Not a paper figure: adds the related-work policies the paper cites (FIFO, \
             tree-PLRU, DRRIP, SHiP) to the comparison. No transient-only policy approaches \
             OPT, reinforcing the paper's core claim."
                .into(),
        ],
        ..Default::default()
    };
    fig.push_average_row();
    fig
}

/// Extension: TRRIP vs Thermometer, head to head on the same grid cells.
///
/// TRRIP keeps SRRIP's RRPV machinery and only lets the profile-guided
/// temperature class choose the insertion/promotion points; Thermometer
/// replaces the transient signal entirely. Both consume the *same* hint
/// table trained on input #0, tested on input #1. The pinned column is an
/// in-figure differential: it must numerically equal SRRIP.
pub fn trrip_grid(scale: &Scale) -> FigureResult {
    let pipeline = Pipeline::new(PipelineConfig::default());
    let rows = per_app("trrip", &scale.apps, |spec| {
        let train = train_trace(spec, scale);
        let test = test_trace(spec, scale);
        let hints = memo::hints(&pipeline, &train);
        let lru = memo::baseline::<Lru>(&pipeline, &test);
        Row::new(
            spec.name.clone(),
            vec![
                memo::baseline::<Srrip>(&pipeline, &test).speedup_over(&lru),
                pipeline
                    .run(&test, Trrip::pinned_srrip(), Some(&hints))
                    .speedup_over(&lru),
                pipeline
                    .run(&test, Trrip::new(), Some(&hints))
                    .speedup_over(&lru),
                pipeline
                    .run(&test, ThermometerPolicy::new(), Some(&hints))
                    .speedup_over(&lru),
                memo::baseline::<BeladyOpt>(&pipeline, &test).speedup_over(&lru),
            ],
        )
    });
    let mut fig = FigureResult {
        id: "trrip".into(),
        title: "Extension: TRRIP (temperature-driven RRIP) vs Thermometer, over LRU".into(),
        unit: "IPC speedup %".into(),
        columns: ["SRRIP", "TRRIP-pinned", "TRRIP", "Thermometer", "OPT"]
            .map(String::from)
            .to_vec(),
        rows,
        notes: vec![
            "Not a paper figure: TRRIP biases SRRIP's insertion/promotion RRPVs by the \
             Thermometer temperature class (cold inserts at RRPV_MAX, hot near zero) but keeps \
             transient aging. TRRIP-pinned freezes every class to warm and must equal SRRIP \
             exactly (the differential battery enforces bit-identity). Hints trained on input \
             #0, tested on input #1."
                .into(),
        ],
        ..Default::default()
    };
    fig.push_average_row();
    fig
}

/// Runs one trace through a frontend wrapped around an arbitrary BTB
/// organization (the multilevel hierarchies are not plain `Btb<P>`, so the
/// `Pipeline` runners do not apply).
fn run_hierarchy<B: BtbInterface>(
    pipeline: &Pipeline,
    btb: B,
    trace: &PreparedTrace,
    hints: Option<&HintTable>,
    label: &str,
) -> SimReport {
    let mut fe = Frontend::with_btb(pipeline.config().frontend, btb);
    if let Some(h) = hints {
        fe.set_hints(h.to_map());
    }
    let mut report = fe.replay(trace, trace.facts(), None);
    report.label = label.into();
    report
}

/// Extension: inclusive vs exclusive (victim) two-level BTB hierarchies.
///
/// The L1 filters the reuse stream the last-level policy observes, so
/// transient policies (LRU, SRRIP) starve behind it; profile-guided hints
/// (TRRIP, Thermometer) do not depend on observed recency. The exclusive
/// organization fills the last level only with L1 victims, Micro BTB-style.
pub fn hierarchy(scale: &Scale) -> FigureResult {
    let pipeline = Pipeline::new(PipelineConfig::default());
    let l2 = pipeline.config().frontend.btb;
    let l1 = BtbConfig::new(l2.entries() / 8, l2.ways());
    let rows = per_app("hierarchy", &scale.apps, |spec| {
        let train = train_trace(spec, scale);
        let test = test_trace(spec, scale);
        let hints = memo::hints(&pipeline, &train);
        // Baseline: a monolithic LRU BTB with the L2 geometry.
        let mono = memo::baseline::<Lru>(&pipeline, &test);
        Row::new(
            spec.name.clone(),
            vec![
                run_hierarchy(
                    &pipeline,
                    TwoLevelBtb::new(l1, l2, Lru::new()),
                    &test,
                    None,
                    "Incl-LRU",
                )
                .speedup_over(&mono),
                run_hierarchy(
                    &pipeline,
                    TwoLevelBtb::new(l1, l2, Trrip::new()),
                    &test,
                    Some(&hints),
                    "Incl-TRRIP",
                )
                .speedup_over(&mono),
                run_hierarchy(
                    &pipeline,
                    ExclusiveTwoLevelBtb::new(l1, l2, Lru::new()),
                    &test,
                    None,
                    "Excl-LRU",
                )
                .speedup_over(&mono),
                run_hierarchy(
                    &pipeline,
                    ExclusiveTwoLevelBtb::new(l1, l2, Srrip::new()),
                    &test,
                    None,
                    "Excl-SRRIP",
                )
                .speedup_over(&mono),
                run_hierarchy(
                    &pipeline,
                    ExclusiveTwoLevelBtb::new(l1, l2, Trrip::new()),
                    &test,
                    Some(&hints),
                    "Excl-TRRIP",
                )
                .speedup_over(&mono),
                run_hierarchy(
                    &pipeline,
                    ExclusiveTwoLevelBtb::new(l1, l2, ThermometerPolicy::new()),
                    &test,
                    Some(&hints),
                    "Excl-Therm",
                )
                .speedup_over(&mono),
            ],
        )
    });
    let mut fig = FigureResult {
        id: "hierarchy".into(),
        title: "Extension: two-level BTB hierarchies (inclusive vs exclusive), over monolithic LRU"
            .into(),
        unit: "IPC speedup %".into(),
        columns: [
            "Incl-LRU",
            "Incl-TRRIP",
            "Excl-LRU",
            "Excl-SRRIP",
            "Excl-TRRIP",
            "Excl-Therm",
        ]
        .map(String::from)
        .to_vec(),
        rows,
        notes: vec![format!(
            "Not a paper figure: L1 is a {}-entry LRU cache in front of a {}-entry last \
                 level. Inclusive back-invalidates L1 on L2 eviction; exclusive fills the last \
                 level only with L1 victims (Micro BTB-style) and moves entries up on a \
                 last-level hit. Hints trained on input #0, tested on input #1.",
            l1.entries(),
            l2.entries()
        )],
        ..Default::default()
    };
    fig.push_average_row();
    fig
}

fn cv_hints(pipeline: &Pipeline, train: &PreparedTrace) -> HintTable {
    let half = train.len() / 2;
    let first = Trace::from_records("first", train.records()[..half].to_vec());
    let second = Trace::from_records("second", train.records()[half..].to_vec());
    let p1 = OptProfile::measure(&first, BtbConfig::table1());
    let p2 = OptProfile::measure(&second, BtbConfig::table1());
    let (y1, y2) = two_fold_thresholds(&p1, &p2, &default_candidates());
    HintTable::from_profile(
        &memo::profile(train, pipeline.config().frontend.btb),
        &TemperatureConfig::new(vec![y1, y2]),
    )
}

/// Extension: Thermometer component ablations.
pub fn ablation(scale: &Scale) -> FigureResult {
    let pipeline = Pipeline::new(PipelineConfig::default());
    let rows = per_app("ablation", &scale.apps, |spec| {
        let train = train_trace(spec, scale);
        let test = test_trace(spec, scale);
        let hints = memo::hints(&pipeline, &train);
        let lru = memo::baseline::<Lru>(&pipeline, &test);
        let full = pipeline
            .run(&test, ThermometerPolicy::new(), Some(&hints))
            .speedup_over(&lru);
        let no_bypass = pipeline
            .run(&test, ThermometerNoBypass::new(), Some(&hints))
            .speedup_over(&lru);
        let holistic = pipeline
            .run(&test, HolisticOnly::new(), Some(&hints))
            .speedup_over(&lru);
        let cv = pipeline
            .run(
                &test,
                ThermometerPolicy::new(),
                Some(&cv_hints(&pipeline, &train)),
            )
            .speedup_over(&lru);
        Row::new(spec.name.clone(), vec![full, no_bypass, holistic, cv])
    });
    let mut fig = FigureResult {
        id: "ablation".into(),
        title: "Extension: Thermometer component ablations, over LRU".into(),
        unit: "IPC speedup %".into(),
        columns: ["Thermometer", "No bypass", "Holistic-only", "CV thresholds"]
            .map(String::from)
            .to_vec(),
        rows,
        notes: vec![
            "Not a paper figure: isolates the bypass rule (§2.5), the LRU tie-break (§3.4) and \
             the threshold choice (§3.3). Hints trained on input #0, tested on input #1."
                .into(),
        ],
        ..Default::default()
    };
    fig.push_average_row();
    fig
}
