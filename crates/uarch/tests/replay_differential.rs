//! Replay differential battery: [`Frontend::replay`] over
//! [`FetchFacts::build`] must report exactly what the fused single-loop
//! frontend it replaced reports ([`ReferenceFrontend`]).
//!
//! "Exactly" is strict: every `SimReport` field equal, and every `f64`
//! equal bit for bit — the split must keep the timing model's
//! floating-point operations in the same order. The random traces mix
//! every branch kind, taken and not (so not-taken indirects, returns and
//! calls appear), spread code over several megabytes (so block fetches hit
//! every cache level) and occasionally span hundreds of blocks in one
//! record. Each case runs every combination of perfect structures and a
//! set of timing, BTB, prefetcher, hint and oracle attachments.
//! `Frontend::run` is `replay` over freshly built facts, so this battery
//! covers it too.

use btb_model::policies::{BeladyOpt, Lru, Srrip, Trrip};
use btb_model::{BtbConfig, BtbInterface, ReplacementPolicy};
use btb_trace::{BranchKind, BranchRecord, NextUseOracle, Trace};
use sim_support::{forall, DetHashMap, SimRng};
use uarch_sim::prefetch::{Confluence, Prefetcher, ShotgunBtb, TwigPrefetcher};
use uarch_sim::reference::ReferenceFrontend;
use uarch_sim::{FetchFacts, Frontend, FrontendConfig, PerfectOptions, SimReport, TimingConfig};

/// A random trace over `sites` static branches scattered across 8 MiB of
/// code, so the 32 KiB L1I, 512 KiB L2 and 2 MiB LLC all miss sometimes.
fn arb_trace(rng: &mut SimRng) -> Trace {
    let sites: Vec<(u64, BranchKind)> = (0..rng.gen_range(16usize..400))
        .map(|_| {
            let pc = rng.gen_range(0u64..(8 << 20) / 4) * 4 + 0x40_0000;
            let kind =
                BranchKind::from_code(rng.gen_range(0u32..6) as u8).expect("codes 0..6 are valid");
            (pc, kind)
        })
        .collect();
    let len = rng.gen_range(1usize..1_500);
    let mut trace = Trace::new("arb");
    for _ in 0..len {
        let (pc, kind) = sites[rng.gen_range(0..sites.len())];
        // Mostly short basic blocks; sometimes a long straight-line run
        // whose block walk overflows the facts' inline count.
        let inst_gap = match rng.gen_range(0u32..64) {
            0 => rng.gen_range(200u32..3_000),
            _ => rng.gen_range(0u32..40),
        };
        // Every kind is sometimes not taken, including indirects, returns
        // and calls.
        let taken = if kind.is_conditional() {
            rng.gen_range(0u32..3) != 0
        } else {
            rng.gen_range(0u32..8) != 0
        };
        // Few targets per site: IBTB and RAS predictions sometimes hit.
        let target = match kind {
            BranchKind::Return => sites[rng.gen_range(0..sites.len())].0 + 4,
            _ => pc + 64 * rng.gen_range(1u64..4),
        };
        // `BranchRecord::not_taken` admits only conditionals; decoded
        // traces may carry any kind not taken, so build the record directly.
        trace.push(BranchRecord {
            taken,
            ..BranchRecord::taken(pc, target, kind, inst_gap)
        });
    }
    trace
}

/// Every limit-study switch combination.
fn all_perfect() -> impl Iterator<Item = PerfectOptions> {
    (0..8u8).map(|bits| PerfectOptions {
        btb: bits & 1 != 0,
        branch_predictor: bits & 2 != 0,
        icache: bits & 4 != 0,
    })
}

/// Timing variants: Table 1, a free L2, and a fetch width whose reciprocal
/// is inexact (the divide path).
fn timings() -> [TimingConfig; 3] {
    [
        TimingConfig::table1(),
        TimingConfig {
            l2_latency: 0,
            ..TimingConfig::table1()
        },
        TimingConfig {
            fetch_width: 5,
            ftq_instructions: 64,
            ..TimingConfig::table1()
        },
    ]
}

/// A small BTB, so the random traces conflict and miss.
fn small_btb() -> BtbConfig {
    BtbConfig::new(64, 4)
}

fn hints_for(trace: &Trace, rng_seed: u64) -> DetHashMap<u64, u8> {
    let mut rng = SimRng::seed_from_u64(rng_seed);
    trace
        .records()
        .iter()
        .map(|r| (r.pc, rng.gen_range(0u32..4) as u8))
        .collect()
}

/// Asserts field-for-field equality, with every `f64` compared bitwise.
fn assert_identical(replayed: &SimReport, fused: &SimReport, what: &str) {
    let floats = |r: &SimReport| {
        [
            r.cycles,
            r.btb_stall_cycles,
            r.direction_stall_cycles,
            r.target_stall_cycles,
            r.icache_stall_cycles,
        ]
        .map(f64::to_bits)
    };
    assert_eq!(floats(replayed), floats(fused), "{what}: f64 bits differ");
    assert_eq!(replayed, fused, "{what}");
}

/// One attachment set: what a run installs around its BTB.
struct Setup<'a> {
    hints: Option<&'a DetHashMap<u64, u8>>,
    oracle: Option<&'a NextUseOracle>,
    prefetcher: Option<&'a dyn Fn() -> Box<dyn Prefetcher>>,
}

/// Runs `btb()` under the fused reference and under [`Frontend::replay`]
/// of the stored facts, both with the same attachments, and compares.
fn check<B: BtbInterface>(
    trace: &Trace,
    facts: &FetchFacts,
    config: FrontendConfig,
    btb: impl Fn() -> B,
    setup: &Setup<'_>,
    what: &str,
) {
    let mut split = Frontend::with_btb(config, btb());
    if let Some(h) = setup.hints {
        split.set_hints(h.clone());
    }
    if let Some(make) = setup.prefetcher {
        split.set_prefetcher(make());
    }
    let mut fused = ReferenceFrontend::with_btb(config, btb());
    if let Some(h) = setup.hints {
        fused.set_hints(h.clone());
    }
    if let Some(make) = setup.prefetcher {
        fused.set_prefetcher(make());
    }
    let reference = fused.run(trace, setup.oracle);
    let replayed = split.replay(trace, facts, setup.oracle);
    assert_identical(&replayed, &reference, &format!("{what} {config:?}"));
}

fn check_policy<P: ReplacementPolicy>(
    trace: &Trace,
    facts: &FetchFacts,
    config: FrontendConfig,
    policy: impl Fn() -> P,
    setup: &Setup<'_>,
    what: &str,
) {
    check(
        trace,
        facts,
        config,
        || btb_model::Btb::new(config.btb, policy()),
        setup,
        what,
    );
}

#[test]
fn replay_matches_the_fused_loop_under_every_perfect_combination() {
    forall!(cases: 48, gen: arb_trace, shrink: sim_support::forall::shrink_none, prop: |trace: &Trace| {
        let facts = FetchFacts::build(trace);
        let bare = Setup { hints: None, oracle: None, prefetcher: None };
        for timing in timings() {
            for perfect in all_perfect() {
                let config = FrontendConfig { timing, btb: small_btb(), perfect };
                check_policy(trace, &facts, config, Lru::new, &bare, "lru");
            }
        }
    });
}

#[test]
fn replay_matches_the_fused_loop_with_oracle_hints_and_prefetchers() {
    forall!(cases: 32, gen: arb_trace, shrink: sim_support::forall::shrink_none, prop: |trace: &Trace| {
        let facts = FetchFacts::build(trace);
        let oracle = NextUseOracle::build(trace);
        let hints = hints_for(trace, trace.len() as u64);
        let confluence = || Box::new(Confluence::new()) as Box<dyn Prefetcher>;
        let twig = || Box::new(TwigPrefetcher::train(trace, small_btb(), 4)) as Box<dyn Prefetcher>;
        for timing in timings() {
            let config = FrontendConfig {
                timing,
                btb: small_btb(),
                perfect: PerfectOptions::default(),
            };
            let with_oracle = Setup { hints: None, oracle: Some(&oracle), prefetcher: None };
            check_policy(trace, &facts, config, BeladyOpt::new, &with_oracle, "opt");
            let hinted = Setup { hints: Some(&hints), oracle: None, prefetcher: None };
            check_policy(trace, &facts, config, Trrip::new, &hinted, "trrip+hints");
            let hinted_twig = Setup { hints: Some(&hints), oracle: None, prefetcher: Some(&twig) };
            check_policy(trace, &facts, config, Trrip::new, &hinted_twig, "trrip+hints+twig");
            let opt_confluence = Setup {
                hints: None,
                oracle: Some(&oracle),
                prefetcher: Some(&confluence),
            };
            check_policy(trace, &facts, config, BeladyOpt::new, &opt_confluence, "opt+confluence");
            let bare = Setup { hints: None, oracle: None, prefetcher: None };
            check(
                trace,
                &facts,
                config,
                || ShotgunBtb::new(small_btb(), Srrip::new(), Srrip::new()),
                &bare,
                "shotgun",
            );
        }
    });
}

#[test]
fn facts_are_independent_of_everything_but_the_trace() {
    forall!(cases: 16, gen: arb_trace, shrink: sim_support::forall::shrink_none, prop: |trace: &Trace| {
        let facts = FetchFacts::build(trace);
        assert_eq!(facts, FetchFacts::build(trace), "build is deterministic");
        assert_eq!(facts.len(), trace.len());
        // One set of facts replayed twice under the same configuration
        // gives the same report: replay does not consume or mutate them.
        let config = FrontendConfig { btb: small_btb(), ..FrontendConfig::table1() };
        let first = Frontend::new(config, Lru::new()).replay(trace, &facts, None);
        let second = Frontend::new(config, Lru::new()).replay(trace, &facts, None);
        assert_identical(&first, &second, "replay twice");
    });
}

#[test]
#[should_panic(expected = "fetch facts describe a different trace")]
fn facts_of_another_length_are_rejected() {
    let mut trace = Trace::new("short");
    trace.push(BranchRecord::taken(
        0x100,
        0x200,
        BranchKind::UncondDirect,
        3,
    ));
    let facts = FetchFacts::build(&Trace::new("empty"));
    Frontend::new(FrontendConfig::table1(), Lru::new()).replay(&trace, &facts, None);
}
