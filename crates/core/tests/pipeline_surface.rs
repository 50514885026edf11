//! Public-API surface tests of the thermometer crate: labels, detailed
//! runs, custom-policy composition, and profile/hint interactions.

use btb_model::policies::{BeladyOpt, Srrip};
use btb_model::BtbConfig;
use btb_trace::NextUseOracle;
use btb_workloads::{AppSpec, InputConfig};
use thermometer::pipeline::{Pipeline, PipelineConfig};
use thermometer::{
    HintTable, OptProfile, TemperatureConfig, ThermometerNoBypass, ThermometerPolicy,
};
use uarch_sim::prefetch::Confluence;
use uarch_sim::{Frontend, FrontendConfig};

fn small_trace(input: u32) -> btb_trace::Trace {
    let spec = AppSpec {
        functions: 300,
        handlers: 30,
        ..AppSpec::by_name("python").unwrap()
    };
    spec.generate(InputConfig::input(input), 50_000)
}

#[test]
fn run_with_composes_labels() {
    let trace = small_trace(0);
    let p = Pipeline::new(PipelineConfig::default());
    let plain = p.run(&trace, Srrip::new(), None);
    assert_eq!(plain.label, "SRRIP");
    let with_pf = p
        .run_with(
            &trace,
            Srrip::new(),
            None,
            Some(Box::new(Confluence::new())),
        )
        .0;
    assert_eq!(with_pf.label, "SRRIP+Confluence");
}

#[test]
fn run_opt_matches_a_hand_driven_oracle_run() {
    let trace = small_trace(0);
    let p = Pipeline::new(PipelineConfig::default());
    // `run` attaches the next-use oracle because OPT asks for it: the
    // pipeline's OPT equals OPT driven by hand with the oracle.
    let a = p.run(&trace, BeladyOpt::new(), None);
    let oracle = NextUseOracle::build(&trace);
    let b = Frontend::new(p.config().frontend, BeladyOpt::new()).run(&trace, Some(&oracle));
    assert_eq!(a.btb, b.btb);
    assert_eq!(a.cycles.to_bits(), b.cycles.to_bits());
}

#[test]
fn detailed_run_reports_consistent_coverage() {
    let trace = small_trace(0);
    let p = Pipeline::new(PipelineConfig {
        frontend: FrontendConfig {
            btb: BtbConfig::new(1024, 4),
            ..FrontendConfig::table1()
        },
        temperature: TemperatureConfig::paper_default(),
    });
    let hints = p.profile_to_hints(&trace);
    let (report, fe) = p.run_with(&trace, ThermometerPolicy::new(), Some(&hints), None);
    let coverage = fe.btb().policy().coverage();
    assert_eq!(report.label, "Thermometer");
    // Bypasses seen by the policy must equal the BTB's bypass counter.
    assert_eq!(coverage.bypasses, report.btb.bypasses);
    assert!(coverage.decisions >= report.btb.evictions);
    assert!((0.0..=1.0).contains(&coverage.coverage()));
}

#[test]
fn no_bypass_ablation_never_bypasses_on_real_traffic() {
    let trace = small_trace(1);
    let p = Pipeline::new(PipelineConfig {
        frontend: FrontendConfig {
            btb: BtbConfig::new(512, 4),
            ..FrontendConfig::table1()
        },
        temperature: TemperatureConfig::paper_default(),
    });
    let hints = p.profile_to_hints(&trace);
    let report = p.run(&trace, ThermometerNoBypass::new(), Some(&hints));
    assert_eq!(report.btb.bypasses, 0);
    assert_eq!(report.label, "Therm-NoBypass");
}

#[test]
fn hint_bits_scale_with_categories() {
    let trace = small_trace(0);
    let profile = OptProfile::measure(&trace, BtbConfig::table1());
    for (categories, bits) in [(2usize, 1u32), (4, 2), (8, 3), (16, 4)] {
        let cfg = TemperatureConfig::uniform(categories);
        let hints = HintTable::from_profile(&profile, &cfg);
        assert_eq!(hints.bits(), bits, "{categories} categories");
        let max_hint = (0..categories as u8).max().unwrap();
        assert!(hints.to_map().values().all(|&h| h <= max_hint));
    }
}

#[test]
fn threshold_search_lands_inside_grid() {
    let trace = small_trace(0);
    let profile = OptProfile::measure(&trace, BtbConfig::table1());
    let grid = thermometer::temperature::default_candidates();
    let (y1, y2) = thermometer::temperature::search_thresholds(&profile, &grid);
    assert!(
        grid.contains(&(y1, y2)),
        "search returned ({y1},{y2}) outside the grid"
    );
}

#[test]
fn profiles_of_different_inputs_differ_but_overlap() {
    let a = OptProfile::measure(&small_trace(0), BtbConfig::table1());
    let b = OptProfile::measure(&small_trace(1), BtbConfig::table1());
    let keys_a: std::collections::BTreeSet<&u64> = a.branches.keys().collect();
    let keys_b: std::collections::BTreeSet<&u64> = b.branches.keys().collect();
    let inter = keys_a.intersection(&keys_b).count();
    assert!(
        inter > keys_a.len() / 2,
        "inputs should share most branches"
    );
    assert_ne!(
        a.branches, b.branches,
        "different inputs must differ somewhere"
    );
}

#[test]
fn pipeline_temperature_config_affects_hints() {
    let trace = small_trace(0);
    let coarse = Pipeline::new(PipelineConfig {
        frontend: FrontendConfig::table1(),
        temperature: TemperatureConfig::uniform(2),
    });
    let fine = Pipeline::new(PipelineConfig {
        frontend: FrontendConfig::table1(),
        temperature: TemperatureConfig::uniform(16),
    });
    let h_coarse = coarse.profile_to_hints(&trace);
    let h_fine = fine.profile_to_hints(&trace);
    assert_eq!(h_coarse.bits(), 1);
    assert_eq!(h_fine.bits(), 4);
    assert_eq!(
        h_coarse.len(),
        h_fine.len(),
        "same branches, different precision"
    );
}
