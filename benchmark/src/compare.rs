//! `thermobench compare`: judges a change against its parent, one row per
//! (end-to-end metric, workload), by the rules the benchmark fixes:
//!
//! * a gain needs at least ten run pairs, the change winning at least 9/10
//!   of them (ties count for neither), and a median gap larger than the
//!   parent's IQR;
//! * a regression is a median worse than the parent's by more than the
//!   metric's bound;
//! * where either side's IQR/median exceeds the bound the row is
//!   "unresolved", unless every change run beats every parent run.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::metrics::{catalogue, Better, Metric};
use crate::stats;

/// Run pairs below which no gain is claimed.
const MIN_PAIRS: usize = 10;

/// A row's judgement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much better `change` is than `parent` (positive = better).
fn gain(m: &Metric, parent: f64, change: f64) -> f64 {
    match m.better {
        Better::Lower => parent - change,
        Better::Higher => change - parent,
    }
}

/// Judges one metric's samples; pairs are matched by run index. Returns the
/// verdict and the fraction of pairs the change won.
pub fn judge(m: &Metric, parent: &[f64], change: &[f64]) -> (Verdict, f64) {
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| gain(m, **p, **c) > 0.0)
        .count();
    let win_frac = if pairs == 0 {
        0.0
    } else {
        wins as f64 / pairs as f64
    };
    let (p1, pm, p3) = stats::quartiles(parent);
    let (_, cm, _) = stats::quartiles(change);
    let every_run_better = change
        .iter()
        .all(|c| parent.iter().all(|p| gain(m, *p, *c) > 0.0));
    let spread = stats::spread(parent).max(stats::spread(change));
    let verdict = if spread > m.bound && !every_run_better {
        Verdict::Unresolved
    } else if pairs >= MIN_PAIRS && win_frac >= 0.9 && gain(m, pm, cm) > p3 - p1 {
        Verdict::Better
    } else if pm != 0.0 && -gain(m, pm, cm) / pm.abs() > m.bound {
        Verdict::Worse
    } else {
        Verdict::Same
    };
    (verdict, win_frac)
}

/// Samples of one record: workload → metric → values in run order, plus
/// failed-operation totals per workload.
type Samples = BTreeMap<String, (BTreeMap<String, Vec<f64>>, f64)>;

fn samples(record: &Json) -> Result<Samples, String> {
    let results = record
        .get("results")
        .and_then(Json::as_obj)
        .ok_or("record has no \"results\" object")?;
    let mut out = Samples::new();
    for (workload, runs) in results {
        let entry = out.entry(workload.clone()).or_default();
        for run in runs.as_arr().ok_or("results entries must be arrays")? {
            entry.1 += run.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            for (name, metric) in run.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
                if let Some(v) = metric.get("value").and_then(Json::as_f64) {
                    entry.0.entry(name.clone()).or_default().push(v);
                }
            }
        }
    }
    Ok(out)
}

/// Prints the comparison table; returns whether any row is "worse".
pub fn compare(parent: &Json, change: &Json) -> Result<bool, String> {
    let (parent, change) = (samples(parent)?, samples(change)?);
    println!(
        "{:14} {:12} {:>5} {:>32} {:>32} {:>6}  verdict",
        "workload", "metric", "unit", "parent q1/median/q3 (n)", "change q1/median/q3 (n)", "wins"
    );
    let mut any_worse = false;
    for (workload, (pm, pfail)) in &parent {
        let Some((cm, cfail)) = change.get(workload) else {
            println!("{workload:14} (absent from the change record)");
            continue;
        };
        for m in &catalogue().end_to_end {
            let (Some(p), Some(c)) = (pm.get(&m.name), cm.get(&m.name)) else {
                continue;
            };
            let (verdict, win_frac) = judge(m, p, c);
            any_worse |= verdict == Verdict::Worse;
            let show = |xs: &[f64]| {
                let (q1, q2, q3) = stats::quartiles(xs);
                format!("{q1:.4}/{q2:.4}/{q3:.4} ({})", xs.len())
            };
            println!(
                "{:14} {:12} {:>5} {:>32} {:>32} {:>6.2}  {}",
                workload,
                m.name,
                m.unit,
                show(p),
                show(c),
                win_frac,
                verdict.name()
            );
        }
        let failed_worse = cfail > pfail;
        any_worse |= failed_worse;
        println!(
            "{:14} {:12} {:>5} {:>32} {:>32} {:>6}  {}",
            workload,
            "failed_ops",
            "count",
            pfail,
            cfail,
            "",
            if failed_worse { "worse" } else { "same" }
        );
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better, bound: f64) -> Metric {
        Metric {
            name: "x".into(),
            unit: "ms".into(),
            better,
            bound,
        }
    }

    fn around(center: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + jitter * (i as f64 - 4.5) / 4.5)
            .collect()
    }

    #[test]
    fn a_clear_win_is_better() {
        let m = metric(Better::Lower, 0.10);
        let (v, wins) = judge(&m, &around(100.0, 2.0), &around(80.0, 2.0));
        assert_eq!((v, wins), (Verdict::Better, 1.0));
    }

    #[test]
    fn fewer_than_ten_pairs_claim_no_gain() {
        let m = metric(Better::Lower, 0.10);
        let (v, wins) = judge(&m, &around(100.0, 2.0)[..5], &around(80.0, 2.0)[..5]);
        assert_eq!((v, wins), (Verdict::Same, 1.0));
    }

    #[test]
    fn a_small_gap_inside_the_parent_iqr_is_the_same() {
        let m = metric(Better::Lower, 0.10);
        let (v, _) = judge(&m, &around(100.0, 4.0), &around(99.0, 4.0));
        assert_eq!(v, Verdict::Same);
    }

    #[test]
    fn too_few_wins_is_not_a_gain() {
        let m = metric(Better::Lower, 0.10);
        let parent = around(100.0, 2.0);
        let mut change = around(95.0, 2.0);
        change[0] = 101.5; // two pairs now lose
        change[1] = 101.5;
        let (v, wins) = judge(&m, &parent, &change);
        assert_eq!((v, wins), (Verdict::Same, 0.8));
    }

    #[test]
    fn worsening_past_the_bound_is_worse_in_either_direction() {
        let lower = metric(Better::Lower, 0.10);
        assert_eq!(
            judge(&lower, &around(100.0, 1.0), &around(115.0, 1.0)).0,
            Verdict::Worse
        );
        let higher = metric(Better::Higher, 0.10);
        assert_eq!(
            judge(&higher, &around(100.0, 1.0), &around(85.0, 1.0)).0,
            Verdict::Worse
        );
        assert_eq!(
            judge(&higher, &around(100.0, 1.0), &around(120.0, 1.0)).0,
            Verdict::Better
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let m = metric(Better::Lower, 0.05);
        let (v, _) = judge(&m, &around(100.0, 20.0), &around(110.0, 20.0));
        assert_eq!(v, Verdict::Unresolved);
        let (v, _) = judge(&m, &around(100.0, 20.0), &around(50.0, 20.0));
        assert_eq!(
            v,
            Verdict::Better,
            "every change run beats every parent run"
        );
    }

    #[test]
    fn records_are_compared_per_workload() {
        let run = |v: f64, failed: f64| {
            Json::parse(&format!(
                r#"{{"correct": true, "attempted": 10, "failed": {failed},
                    "metrics": {{"op_p50_ms": {{"value": {v}, "unit": "ms"}}}}}}"#
            ))
            .unwrap()
        };
        let record = |vs: &[f64], failed: f64| {
            Json::Obj(vec![(
                "results".into(),
                Json::Obj(vec![(
                    "grid".into(),
                    Json::Arr(vs.iter().map(|v| run(*v, failed)).collect()),
                )]),
            )])
        };
        let parent = record(&around(100.0, 1.0), 0.0);
        assert!(!compare(&parent, &record(&around(100.5, 1.0), 0.0)).unwrap());
        assert!(compare(&parent, &record(&around(130.0, 1.0), 0.0)).unwrap());
        assert!(
            compare(&parent, &record(&around(100.0, 1.0), 1.0)).unwrap(),
            "new failures"
        );
    }
}
