//! The BTB pass is timing-free: [`Frontend::btb_pass`] reads the
//! taken-branch stream, the hints, the prefetcher and the OPT oracle, and
//! nothing of the timing model or the BTB-independent structures. So its
//! outcome bytes and `BtbStats` must not change with the `TimingConfig` or
//! with any perfect I-cache / perfect branch-predictor setting — that is
//! what lets `btbsim` run it before the fetch facts exist. A replay must
//! also be exactly the timing pass over the BTB pass's outcomes.
//!
//! The random traces mix every branch kind, taken and not, over a BTB
//! small enough to miss; each case runs with hints, with a Twig and a
//! Confluence prefetcher, and with the OPT oracle.

use btb_model::policies::{BeladyOpt, Lru, Trrip};
use btb_model::{Btb, BtbConfig, ReplacementPolicy};
use btb_trace::{BranchKind, BranchRecord, NextUseOracle, Trace};
use sim_support::{forall, DetHashMap, SimRng};
use uarch_sim::prefetch::{Confluence, Prefetcher, TwigPrefetcher};
use uarch_sim::{BtbOutcomes, FetchFacts, Frontend, FrontendConfig, PerfectOptions, TimingConfig};

/// A random trace over up to 300 static branches of every kind, each kind
/// sometimes not taken.
fn arb_trace(rng: &mut SimRng) -> Trace {
    let sites: Vec<(u64, BranchKind)> = (0..rng.gen_range(8usize..300))
        .map(|_| {
            let pc = rng.gen_range(0u64..(1 << 20)) * 4 + 0x40_0000;
            let kind = BranchKind::ALL[rng.gen_range(0..BranchKind::ALL.len())];
            (pc, kind)
        })
        .collect();
    let mut trace = Trace::new("law");
    for _ in 0..rng.gen_range(0usize..1_200) {
        let (pc, kind) = sites[rng.gen_range(0..sites.len())];
        // Few targets per site, so hits with a stale target occur.
        let target = pc + 64 * rng.gen_range(1u64..3);
        trace.push(BranchRecord {
            taken: rng.gen_range(0u32..4) != 0,
            ..BranchRecord::taken(pc, target, kind, rng.gen_range(0u32..40))
        });
    }
    trace
}

/// Two timing configurations, each under every perfect I-cache and perfect
/// branch-predictor setting (the perfect BTB is part of the BTB pass).
fn configs() -> Vec<FrontendConfig> {
    let timings = [
        TimingConfig::table1(),
        TimingConfig {
            fetch_width: 5,
            btb_miss_penalty: 3,
            l2_latency: 0,
            ..TimingConfig::table1()
        },
    ];
    let mut configs = Vec::new();
    for timing in timings {
        for bits in 0..4u8 {
            let perfect = PerfectOptions {
                btb: false,
                branch_predictor: bits & 1 != 0,
                icache: bits & 2 != 0,
            };
            configs.push(FrontendConfig {
                timing,
                btb: BtbConfig::new(64, 4),
                perfect,
            });
        }
    }
    configs
}

/// The attachments one run installs around its BTB.
struct Setup<'a> {
    hints: Option<&'a DetHashMap<u64, u8>>,
    oracle: Option<&'a NextUseOracle>,
    prefetcher: Option<&'a dyn Fn() -> Box<dyn Prefetcher>>,
}

impl Setup<'_> {
    fn frontend<P: ReplacementPolicy>(
        &self,
        config: FrontendConfig,
        policy: P,
    ) -> Frontend<Btb<P>> {
        let mut fe = Frontend::new(config, policy);
        if let Some(h) = self.hints {
            fe.set_hints(h.clone());
        }
        if let Some(make) = self.prefetcher {
            fe.set_prefetcher(make());
        }
        fe
    }
}

/// Runs the BTB pass under every configuration and requires one answer;
/// checks each replay against the timing pass over that answer.
fn check<P: ReplacementPolicy>(
    trace: &Trace,
    facts: &FetchFacts,
    policy: impl Fn() -> P,
    setup: &Setup<'_>,
    what: &str,
) {
    let mut first: Option<BtbOutcomes> = None;
    for config in configs() {
        let outcomes = setup
            .frontend(config, policy())
            .btb_pass(trace, setup.oracle);
        let first = first.get_or_insert_with(|| outcomes.clone());
        assert_eq!(&outcomes, first, "{what}: {config:?} changed the BTB pass");
        assert_eq!(outcomes.stats(), first.stats(), "{what}: {config:?}");

        let replayed = setup
            .frontend(config, policy())
            .replay(trace, facts, setup.oracle);
        let timed = config.time(trace, facts, &outcomes);
        assert_eq!(replayed.cycles.to_bits(), timed.cycles.to_bits(), "{what}");
        assert_eq!(replayed, timed, "{what}: replay is not time(btb_pass)");
        assert_eq!(&replayed.btb, outcomes.stats(), "{what}");
        assert_eq!(replayed.btb_buffer_hits, outcomes.buffer_hits(), "{what}");
    }
}

#[test]
fn the_btb_pass_reads_no_timing_and_no_fetch_facts() {
    forall!(cases: 32, gen: arb_trace, shrink: sim_support::forall::shrink_none, prop: |trace: &Trace| {
        let facts = FetchFacts::build(trace);
        let oracle = NextUseOracle::build(trace);
        let mut rng = SimRng::seed_from_u64(trace.len() as u64);
        let hints: DetHashMap<u64, u8> = trace
            .records()
            .iter()
            .map(|r| (r.pc, rng.gen_range(0u32..4) as u8))
            .collect();
        let twig = || Box::new(TwigPrefetcher::train(trace, BtbConfig::new(64, 4), 4)) as Box<dyn Prefetcher>;
        let confluence = || Box::new(Confluence::new()) as Box<dyn Prefetcher>;

        let bare = Setup { hints: None, oracle: None, prefetcher: None };
        check(trace, &facts, Lru::new, &bare, "lru");
        let hinted = Setup { hints: Some(&hints), oracle: None, prefetcher: None };
        check(trace, &facts, Trrip::new, &hinted, "trrip+hints");
        let hinted_twig = Setup { hints: Some(&hints), oracle: None, prefetcher: Some(&twig) };
        check(trace, &facts, Trrip::new, &hinted_twig, "trrip+hints+twig");
        let with_oracle = Setup { hints: None, oracle: Some(&oracle), prefetcher: None };
        check(trace, &facts, BeladyOpt::new, &with_oracle, "opt");
        let opt_confluence = Setup {
            hints: Some(&hints),
            oracle: Some(&oracle),
            prefetcher: Some(&confluence),
        };
        check(trace, &facts, BeladyOpt::new, &opt_confluence, "opt+hints+confluence");
    });
}

#[test]
fn a_perfect_btb_hits_every_taken_branch() {
    forall!(cases: 16, gen: arb_trace, shrink: sim_support::forall::shrink_none, prop: |trace: &Trace| {
        let config = FrontendConfig {
            perfect: PerfectOptions { btb: true, ..PerfectOptions::default() },
            ..FrontendConfig::table1()
        };
        let outcomes = Frontend::new(config, Lru::new()).btb_pass(trace, None);
        let taken = trace.taken().count() as u64;
        assert_eq!((outcomes.stats().accesses, outcomes.stats().hits), (taken, taken));
        assert_eq!(outcomes.stats().misses, 0);
        let report = config.time(trace, &FetchFacts::build(trace), &outcomes);
        assert_eq!(report.btb_stall_cycles, 0.0);
    });
}

#[test]
#[should_panic(expected = "BTB outcomes describe a different trace")]
fn outcomes_of_another_trace_are_rejected() {
    let mut trace = Trace::new("one");
    trace.push(BranchRecord::taken(
        0x100,
        0x200,
        BranchKind::UncondDirect,
        3,
    ));
    let outcomes = Frontend::new(FrontendConfig::table1(), Lru::new()).btb_pass(&trace, None);
    trace.push(BranchRecord::taken(
        0x104,
        0x200,
        BranchKind::UncondDirect,
        3,
    ));
    FrontendConfig::table1().time(&trace, &FetchFacts::build(&trace), &outcomes);
}
