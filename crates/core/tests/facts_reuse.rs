//! The reuse law behind prepared traces: one trace's fetch facts, built
//! once and replayed under every policy in the CLI vocabulary, give the
//! same reports as fresh `Frontend::run`s that rebuild them each time —
//! and so do the `Pipeline` entry points on a `PreparedTrace` against a
//! bare `Trace`.

use btb_model::policies::{BeladyOpt, Lru, Srrip};
use btb_model::{BtbConfig, ReplacementPolicy};
use btb_trace::{NextUseOracle, Trace};
use btb_workloads::{AppSpec, InputConfig};
use thermometer::pipeline::{Pipeline, PipelineConfig, POLICY_NAMES};
use thermometer::{PolicyKind, PreparedTrace, ThermometerPolicy};
use uarch_sim::{FetchFacts, Frontend, FrontendConfig, PerfectOptions, SimReport};

fn trace(input: u32) -> Trace {
    let spec = AppSpec {
        functions: 300,
        handlers: 30,
        ..AppSpec::by_name("kafka").unwrap()
    };
    spec.generate(InputConfig::input(input), 20_000)
}

/// A BTB small enough that the workload thrashes it.
fn config() -> PipelineConfig {
    PipelineConfig {
        frontend: FrontendConfig {
            btb: BtbConfig::new(512, 4),
            ..FrontendConfig::table1()
        },
        ..PipelineConfig::default()
    }
}

/// Field-for-field equality with every `f64` compared bitwise.
fn assert_identical(a: &SimReport, b: &SimReport, what: &str) {
    let bits = |r: &SimReport| {
        [
            r.cycles,
            r.btb_stall_cycles,
            r.direction_stall_cycles,
            r.target_stall_cycles,
            r.icache_stall_cycles,
        ]
        .map(f64::to_bits)
    };
    assert_eq!(bits(a), bits(b), "{what}: f64 bits differ");
    assert_eq!(a, b, "{what}");
}

#[test]
fn one_set_of_facts_replays_every_policy_like_a_fresh_run() {
    let test = trace(1);
    let pipeline = Pipeline::new(config());
    let hints = pipeline.profile_to_hints(&trace(0)).to_map();
    let oracle = NextUseOracle::build(&test);
    let facts = FetchFacts::build(&test);
    for name in POLICY_NAMES {
        let frontend = || {
            let policy = PolicyKind::by_name(name).expect("vocabulary name");
            let mut fe = Frontend::new(config().frontend, policy);
            if fe.btb().policy().wants_hints() {
                fe.set_hints(hints.clone());
            }
            fe
        };
        let oracle = PolicyKind::by_name(name)
            .expect("vocabulary name")
            .needs_oracle()
            .then_some(&oracle);
        let fresh = frontend().run(&test, oracle);
        let replayed = frontend().replay(&test, &facts, oracle);
        assert_identical(&replayed, &fresh, name);
    }
}

#[test]
fn prepared_and_bare_traces_give_the_same_reports() {
    let train = trace(0);
    let bare = trace(1);
    let prepared = PreparedTrace::new(trace(1));
    let p = Pipeline::new(config());
    let hints = p.profile_to_hints(&train);
    for name in POLICY_NAMES {
        let policy = PolicyKind::by_name(name).expect("vocabulary name");
        let hints = policy.wants_hints().then_some(&hints);
        let a = p.run(&prepared, policy.clone(), hints);
        let b = p.run(&bare, policy, hints);
        assert_identical(&a, &b, name);
    }
    assert!(prepared.has_facts());
    let perfect = PerfectOptions {
        icache: true,
        ..PerfectOptions::default()
    };
    let pairs = [
        (
            p.run(&prepared, Lru::new(), None),
            p.run(&bare, Lru::new(), None),
        ),
        (
            p.run(&prepared, BeladyOpt::new(), None),
            p.run(&bare, BeladyOpt::new(), None),
        ),
        (
            p.run(&prepared, ThermometerPolicy::new(), Some(&hints)),
            p.run(&bare, ThermometerPolicy::new(), Some(&hints)),
        ),
        (
            p.run_perfect(&prepared, perfect),
            p.run_perfect(&bare, perfect),
        ),
        (
            p.with_btb(BtbConfig::iso_storage_7979())
                .run(&prepared, Srrip::new(), None),
            p.with_btb(BtbConfig::iso_storage_7979())
                .run(&bare, Srrip::new(), None),
        ),
    ];
    for (a, b) in &pairs {
        assert_identical(a, b, &a.label);
    }
}
