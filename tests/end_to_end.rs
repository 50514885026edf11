//! End-to-end integration: workload generation → profiling → hint
//! injection → frontend simulation, across crates.

use btb_model::policies::{BeladyOpt, Lru};
use btb_model::BtbConfig;
use btb_trace::TraceStats;
use btb_workloads::{AppSpec, InputConfig};
use thermometer::pipeline::{Pipeline, PipelineConfig};
use thermometer::{HintTable, TemperatureConfig, ThermometerPolicy};
use uarch_sim::FrontendConfig;

const LEN: usize = 250_000;

fn pipeline() -> Pipeline {
    Pipeline::new(PipelineConfig::default())
}

fn small_pipeline() -> Pipeline {
    // A 2K-entry BTB against kafka's footprint reproduces the paper's
    // capacity-pressure regime at unit-test trace lengths.
    Pipeline::new(PipelineConfig {
        frontend: FrontendConfig {
            btb: BtbConfig::new(2048, 4),
            ..FrontendConfig::table1()
        },
        temperature: TemperatureConfig::paper_default(),
    })
}

#[test]
fn thermometer_beats_lru_and_respects_opt_floor() {
    // Same-input hints: the cleanest statement of Algorithm 1's benefit.
    // (Cross-input transfer is probed separately with a tolerance — at
    // unit-test trace lengths the profile coverage is far below the
    // paper's, so cross-input wins are only reliably visible at the
    // figure-harness scale.)
    let spec = AppSpec::by_name("kafka").unwrap();
    let test = spec.generate(InputConfig::input(1), LEN);
    let p = small_pipeline();
    let hints = p.profile_to_hints(&test);

    let lru = p.run(&test, Lru::new(), None);
    let therm = p.run(&test, ThermometerPolicy::new(), Some(&hints));
    let opt = p.run(&test, BeladyOpt::new(), None);

    assert!(
        therm.btb.misses < lru.btb.misses,
        "thermometer {} >= lru {}",
        therm.btb.misses,
        lru.btb.misses
    );
    assert!(
        opt.btb.misses < therm.btb.misses,
        "OPT must remain the floor"
    );
    assert!(therm.ipc() > lru.ipc());
    assert!(opt.ipc() > therm.ipc());
}

#[test]
fn cross_input_hints_do_not_catastrophically_regress() {
    let spec = AppSpec::by_name("kafka").unwrap();
    let train = spec.generate(InputConfig::input(0), LEN);
    let test = spec.generate(InputConfig::input(1), LEN);
    let p = small_pipeline();
    let hints = p.profile_to_hints(&train);
    let lru = p.run(&test, Lru::new(), None);
    let cross = p.run(&test, ThermometerPolicy::new(), Some(&hints));
    assert!(
        (cross.btb.misses as f64) < lru.btb.misses as f64 * 1.25,
        "cross-input thermometer {} blew past lru {}",
        cross.btb.misses,
        lru.btb.misses
    );
}

#[test]
fn same_input_profile_is_at_least_as_good_as_cross_input() {
    let spec = AppSpec::by_name("kafka").unwrap();
    let train = spec.generate(InputConfig::input(0), LEN);
    let test = spec.generate(InputConfig::input(1), LEN);
    let p = small_pipeline();
    let cross = p.run(
        &test,
        ThermometerPolicy::new(),
        Some(&p.profile_to_hints(&train)),
    );
    let same = p.run(
        &test,
        ThermometerPolicy::new(),
        Some(&p.profile_to_hints(&test)),
    );
    assert!(
        same.btb.misses <= cross.btb.misses,
        "same-input {} should not lose to cross-input {}",
        same.btb.misses,
        cross.btb.misses
    );
}

#[test]
fn whole_pipeline_is_deterministic() {
    let spec = AppSpec::by_name("python").unwrap();
    let run = || {
        let train = spec.generate(InputConfig::input(0), 60_000);
        let test = spec.generate(InputConfig::input(1), 60_000);
        let p = pipeline();
        let hints = p.profile_to_hints(&train);
        let report = p.run(&test, ThermometerPolicy::new(), Some(&hints));
        (report.cycles.to_bits(), report.btb.clone())
    };
    assert_eq!(run(), run());
}

#[test]
fn hint_agreement_across_inputs_is_high() {
    // The paper reports ~81% of branches keep their category across inputs.
    let spec = AppSpec::by_name("finagle-http").unwrap();
    let p = pipeline();
    let a = p.profile_to_hints(&spec.generate(InputConfig::input(0), LEN));
    let b = p.profile_to_hints(&spec.generate(InputConfig::input(2), LEN));
    let agreement = a.agreement_with(&b);
    assert!(agreement > 0.6, "agreement {agreement}");
}

#[test]
fn profile_counters_reconcile_with_trace_stats() {
    let spec = AppSpec::by_name("python").unwrap();
    let trace = spec.generate(InputConfig::input(0), 80_000);
    let stats = TraceStats::collect(&trace);
    let profile = pipeline().profile(&trace);

    assert_eq!(profile.unique_branches(), stats.unique_taken_branches());
    for (pc, counters) in &profile.branches {
        let summary = &stats.branches[pc];
        assert_eq!(counters.taken, summary.taken_count, "pc {pc:#x}");
        assert_eq!(
            counters.taken,
            counters.opt_hits + counters.inserts + counters.bypasses,
            "pc {pc:#x} counters must partition taken executions"
        );
    }
}

#[test]
fn temperatures_depend_on_btb_geometry() {
    // §3.4 "BTB size dependency": a bigger BTB keeps more branches, so more
    // of them classify hot.
    let spec = AppSpec::by_name("kafka").unwrap();
    let trace = spec.generate(InputConfig::input(0), LEN);
    let hot_share = |entries: usize| {
        let profile = thermometer::OptProfile::measure(&trace, BtbConfig::new(entries, 4));
        let hints = HintTable::from_profile(&profile, &TemperatureConfig::paper_default());
        let hist = hints.category_histogram();
        let total: usize = hist.iter().sum();
        hist[2] as f64 / total as f64
    };
    let small = hot_share(512);
    let large = hot_share(16384);
    assert!(
        large > small,
        "hot share should grow with capacity: {small} vs {large}"
    );
}

#[test]
fn iso_storage_variant_stays_competitive() {
    let spec = AppSpec::by_name("kafka").unwrap();
    let train = spec.generate(InputConfig::input(0), LEN);
    let test = spec.generate(InputConfig::input(1), LEN);
    let base = pipeline();
    let iso = base.with_btb(BtbConfig::iso_storage_7979());
    let lru_8192 = base.run(&test, Lru::new(), None);
    let therm_iso = iso.run(
        &test,
        ThermometerPolicy::new(),
        Some(&iso.profile_to_hints(&train)),
    );
    // The 213 sacrificed entries must not erase Thermometer's advantage.
    assert!(
        therm_iso.ipc() >= lru_8192.ipc() * 0.995,
        "iso-storage thermometer {:.4} far below lru {:.4}",
        therm_iso.ipc(),
        lru_8192.ipc()
    );
}
