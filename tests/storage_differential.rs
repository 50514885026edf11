//! Storage differential battery: the flat SoA [`Btb`] must be
//! behaviour-identical to the legacy per-entry [`ReferenceBtb`] it
//! replaced, for every policy in the zoo, on adversarial random streams.
//!
//! "Identical" is strict: the same access outcomes in the same order, the
//! same statistics (hits, misses, fills, evictions, bypasses, prefetch
//! counters), and the same final per-set contents in way order. Any SoA
//! shortcut that changes scan order, tie-breaks, or the prefix-valid
//! invariant shows up here with a shrunk witness stream.

use btb_model::policies::{
    BeladyOpt, Drrip, Fifo, Ghrp, GhrpConfig, Hawkeye, HawkeyeConfig, Lru, PseudoLru, Random, Ship,
    Srrip, Trrip,
};
use btb_model::reference::ReferenceBtb;
use btb_model::{AccessContext, Btb, BtbConfig, ReplacementPolicy};
use btb_trace::BranchKind;
use sim_support::{forall, SimRng};
use thermometer::pipeline::POLICY_NAMES;
use thermometer::{HolisticOnly, PolicyKind, ThermometerNoBypass, ThermometerPolicy};

/// One step of a differential stream.
#[derive(Clone, Debug)]
enum Op {
    /// A demand access with a fully populated context.
    Access(AccessContext),
    /// A prefetcher-initiated hinted fill.
    Prefetch { pc: u64, target: u64, hint: u8 },
    /// An invalidation (the multilevel hierarchies' back-invalidate /
    /// move-up path) — exercises swap-remove metadata relocation.
    Invalidate { pc: u64 },
}

/// A small, collision-heavy op stream: few sets, PCs clustered so sets
/// fill, conflict, and (for hinted policies) bypass.
fn arb_ops(rng: &mut SimRng, len: usize) -> Vec<Op> {
    (0..len)
        .map(|_| {
            let pc = rng.gen_range(0u64..48) * 4;
            let kind =
                BranchKind::from_code(rng.gen_range(0u32..6) as u8).expect("codes 0..6 are valid");
            let roll = rng.gen_range(0u32..16);
            if roll < 2 {
                Op::Prefetch {
                    pc,
                    target: pc + rng.gen_range(1u64..0x100),
                    hint: rng.gen_range(0u32..4) as u8,
                }
            } else if roll == 2 {
                Op::Invalidate { pc }
            } else {
                Op::Access(AccessContext {
                    pc,
                    target: pc + rng.gen_range(1u64..0x100),
                    kind,
                    hint: rng.gen_range(0u32..4) as u8,
                    next_use: rng.gen_range(0u64..200),
                    access_index: 0, // both BTBs stamp their own
                })
            }
        })
        .collect()
}

/// Drives the same ops through both implementations, the SoA side built
/// by `make_soa` and the reference side by `make_ref`, and requires
/// identical observable behaviour at every step and identical final state.
fn differential<P: ReplacementPolicy, Q: ReplacementPolicy>(
    label: &str,
    make_soa: impl Fn() -> P,
    make_ref: impl Fn() -> Q,
    ops: &[Op],
) {
    // 4 sets x 4 ways plus a remainder-set geometry in the mix below.
    for config in [BtbConfig::new(16, 4), BtbConfig::new(15, 4)] {
        let mut soa = Btb::new(config, make_soa());
        let mut reference = ReferenceBtb::new(config, make_ref());
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Access(ctx) => {
                    let a = soa.access(ctx);
                    let b = reference.access(ctx);
                    assert_eq!(a, b, "{label}: outcome diverged at op {i} ({ctx:?})");
                }
                Op::Prefetch { pc, target, hint } => {
                    let a = soa.prefetch_fill_hinted(*pc, *target, BranchKind::UncondDirect, *hint);
                    let b = reference.prefetch_fill_hinted(
                        *pc,
                        *target,
                        BranchKind::UncondDirect,
                        *hint,
                    );
                    assert_eq!(a, b, "{label}: prefetch diverged at op {i} (pc {pc:#x})");
                }
                Op::Invalidate { pc } => {
                    let a = soa.invalidate(*pc);
                    let b = reference.invalidate(*pc);
                    assert_eq!(a, b, "{label}: invalidate diverged at op {i} (pc {pc:#x})");
                }
            }
        }
        assert_eq!(soa.stats(), reference.stats(), "{label}: stats diverged");
        assert_eq!(
            soa.occupancy(),
            reference.occupancy(),
            "{label}: occupancy diverged"
        );
        assert_eq!(
            soa.snapshot(),
            reference.snapshot(),
            "{label}: final set contents diverged"
        );
    }
}

/// Every policy in the zoo, exercised over one shrinkable random stream.
fn zoo(ops: &[Op]) {
    differential("LRU", Lru::new, Lru::new, ops);
    differential("FIFO", Fifo::new, Fifo::new, ops);
    differential("PLRU", PseudoLru::new, PseudoLru::new, ops);
    let random = || Random::with_seed(0x5eed);
    differential("Random", random, random, ops);
    differential("SRRIP", Srrip::new, Srrip::new, ops);
    differential("DRRIP", Drrip::new, Drrip::new, ops);
    differential(
        "DRRIP-pinned",
        Drrip::pinned_srrip,
        Drrip::pinned_srrip,
        ops,
    );
    differential("TRRIP", Trrip::new, Trrip::new, ops);
    differential(
        "TRRIP-pinned",
        Trrip::pinned_srrip,
        Trrip::pinned_srrip,
        ops,
    );
    differential("SHiP", Ship::new, Ship::new, ops);
    let ghrp = || Ghrp::new(GhrpConfig::default());
    differential("GHRP", ghrp, ghrp, ops);
    let hawkeye = || Hawkeye::new(HawkeyeConfig::default());
    differential("Hawkeye", hawkeye, hawkeye, ops);
    differential("OPT", BeladyOpt::new, BeladyOpt::new, ops);
    differential(
        "Thermometer",
        ThermometerPolicy::new,
        ThermometerPolicy::new,
        ops,
    );
    differential(
        "Therm-NoBypass",
        ThermometerNoBypass::new,
        ThermometerNoBypass::new,
        ops,
    );
    differential("Holistic", HolisticOnly::new, HolisticOnly::new, ops);
    policy_kind_zoo(ops);
}

/// Every [`POLICY_NAMES`] entry: `PolicyKind::by_name` on the SoA side
/// against the concrete type, built with the arguments the name promises,
/// on the reference side. This catches a missing dispatch arm (one that
/// fell back to a trait default) and a wrong constructor argument.
fn policy_kind_zoo(ops: &[Op]) {
    for name in POLICY_NAMES {
        let kind = || PolicyKind::by_name(name).expect("a POLICY_NAMES entry");
        let label = format!("PolicyKind({name})");
        match name {
            "lru" => differential(&label, kind, Lru::new, ops),
            "fifo" => differential(&label, kind, Fifo::new, ops),
            "plru" => differential(&label, kind, PseudoLru::new, ops),
            "random" => differential(&label, kind, || Random::with_seed(0x5eed), ops),
            "srrip" => differential(&label, kind, Srrip::new, ops),
            "drrip" => differential(&label, kind, Drrip::new, ops),
            "trrip" => differential(&label, kind, Trrip::new, ops),
            "ship" => differential(&label, kind, Ship::new, ops),
            "ghrp" => differential(&label, kind, || Ghrp::new(GhrpConfig::default()), ops),
            "hawkeye" => differential(&label, kind, || Hawkeye::new(HawkeyeConfig::default()), ops),
            "opt" => differential(&label, kind, BeladyOpt::new, ops),
            "thermometer" => differential(&label, kind, ThermometerPolicy::new, ops),
            other => panic!("POLICY_NAMES entry {other} has no reference row here"),
        }
    }
}

#[test]
fn soa_storage_matches_reference_for_the_policy_zoo() {
    forall!(cases: 24, gen: |rng| {
        let len = rng.gen_range(32usize..400);
        arb_ops(rng, len)
    }, shrink: sim_support::forall::shrink_halves, prop: |ops| {
        zoo(ops);
    });
}

#[test]
fn soa_storage_matches_reference_on_long_thrashing_stream() {
    // One long deterministic stream with heavy conflict pressure, beyond
    // what the shrinkable cases cover.
    let mut rng = SimRng::seed_from_u64(0xb7b);
    let ops = arb_ops(&mut rng, 20_000);
    zoo(&ops);
}

#[test]
fn probe_and_clear_match_reference() {
    let mut rng = SimRng::seed_from_u64(0xc1ea);
    let ops = arb_ops(&mut rng, 500);
    let config = BtbConfig::new(15, 4);
    let mut soa = Btb::new(config, Lru::new());
    let mut reference = ReferenceBtb::new(config, Lru::new());
    for op in &ops {
        if let Op::Access(ctx) = op {
            soa.access(ctx);
            reference.access(ctx);
        }
    }
    for pc in (0u64..64).map(|p| p * 4) {
        assert_eq!(
            soa.probe(pc),
            reference.probe(pc),
            "probe({pc:#x}) diverged"
        );
    }
    soa.clear();
    assert_eq!(soa.occupancy(), 0);
    assert_eq!(soa.stats().accesses, 0);
    for pc in (0u64..64).map(|p| p * 4) {
        assert!(soa.probe(pc).is_none(), "clear left {pc:#x} resident");
    }
}
