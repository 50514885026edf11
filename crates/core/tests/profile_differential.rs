//! Differential battery for the static-branch index: the dense OPT profile
//! (`OptProfile::measure`, counting by branch id) against the pre-index
//! replay that updates a PC-keyed `BTreeMap` on every access
//! (`thermometer::reference::reference_profile`), and the indexed next-use
//! oracle against the PC-hashing build (`btb_trace::reference::ReferenceOracle`).
//!
//! Random traces mix taken records of every branch kind with not-taken
//! conditionals, and recurring with one-shot branch PCs, at 0–3,000
//! records; each is profiled under geometries from a 4-entry
//! direct-mapped BTB (every access contends) to Table 1. The profile must
//! match field for field whether measured on a bare `Trace` or on a
//! `PreparedTrace`; `figures::memo`'s unit tests hold profiles the memo
//! serves to the same reference.

use btb_model::BtbConfig;
use btb_trace::next_use::NEVER;
use btb_trace::reference::ReferenceOracle;
use btb_trace::{BranchKind, BranchRecord, NextUseOracle, Trace};
use sim_support::{forall, SimRng};
use thermometer::reference::reference_profile;
use thermometer::{OptProfile, PreparedTrace};

const GEOMETRIES: [(usize, usize); 2] = [(4, 1), (4, 4)];

fn geometries() -> Vec<BtbConfig> {
    let mut configs: Vec<BtbConfig> = GEOMETRIES
        .iter()
        .map(|&(entries, ways)| BtbConfig::new(entries, ways))
        .collect();
    configs.push(BtbConfig::table1());
    configs.push(BtbConfig::iso_storage_7979());
    configs
}

/// A random trace: a recurring pool of up to 48 PCs revisited with a
/// random share, one-shot PCs otherwise, and a random taken rate.
fn random_trace(rng: &mut SimRng) -> Trace {
    let len = rng.gen_range(0usize..=3_000);
    let pool: Vec<u64> = (0..rng.gen_range(1usize..=48))
        .map(|_| 0x40_0000 + 4 * rng.gen_range(0u64..4_096))
        .collect();
    let recurring = rng.gen::<f64>();
    let taken_rate = rng.gen::<f64>();
    let mut one_shot = 0x80_0000u64;
    let mut trace = Trace::new("random");
    for _ in 0..len {
        let pc = if rng.gen_bool(recurring) {
            pool[rng.gen_range(0..pool.len())]
        } else {
            one_shot += 4;
            one_shot
        };
        let gap = rng.gen_range(0u32..8);
        trace.push(if rng.gen_bool(taken_rate) {
            let kind = BranchKind::ALL[rng.gen_range(0..BranchKind::ALL.len())];
            BranchRecord::taken(pc, pc + 0x100, kind, gap)
        } else {
            BranchRecord::not_taken(pc, BranchKind::CondDirect, gap)
        });
    }
    trace
}

fn shrink_trace(trace: &Trace) -> Vec<Trace> {
    sim_support::forall::shrink_halves(&trace.records().to_vec())
        .into_iter()
        .map(|records| Trace::from_records("random", records))
        .collect()
}

fn assert_same_profile(dense: &OptProfile, reference: &OptProfile, what: &str) {
    assert_eq!(dense.config, reference.config, "{what}: config");
    assert_eq!(dense.accesses, reference.accesses, "{what}: accesses");
    assert_eq!(dense.branches, reference.branches, "{what}: branches");
}

#[test]
fn dense_profile_equals_the_btreemap_reference() {
    forall!(cases: 48, gen: random_trace, shrink: shrink_trace, prop: |trace| {
        let prepared = PreparedTrace::new(trace.clone());
        for config in geometries() {
            let reference = reference_profile(trace, config);
            let what = format!("{config:?}");
            assert_same_profile(&OptProfile::measure(trace, config), &reference, &what);
            assert_same_profile(&OptProfile::measure(&prepared, config), &reference, &what);
        }
    });
}

#[test]
fn indexed_oracle_equals_the_hashing_reference() {
    forall!(cases: 48, gen: random_trace, shrink: shrink_trace, prop: |trace| {
        let oracle = NextUseOracle::build(trace);
        let reference = ReferenceOracle::build(trace);
        assert_eq!(oracle.len(), reference.len());
        for i in 0..oracle.len() {
            assert_eq!(oracle.next_use(i), reference.next_use(i), "access {i}");
        }
    });
}

/// The generator reaches the cases the battery exists for: bypasses under
/// the small geometries, one-shot branches, and `NEVER` next uses.
#[test]
fn random_traces_exercise_bypasses_and_one_shots() {
    let mut rng = SimRng::seed_from_u64(7);
    let (mut bypasses, mut never, mut not_taken) = (0u64, 0usize, 0usize);
    for _ in 0..16 {
        let trace = random_trace(&mut rng);
        not_taken += trace.iter().filter(|r| !r.taken).count();
        let oracle = NextUseOracle::build(&trace);
        never += (0..oracle.len())
            .filter(|&i| oracle.next_use(i) == NEVER)
            .count();
        let profile = OptProfile::measure(&trace, BtbConfig::new(4, 1));
        bypasses += profile.branches.values().map(|c| c.bypasses).sum::<u64>();
    }
    assert!(bypasses > 0 && never > 0 && not_taken > 0);
}
