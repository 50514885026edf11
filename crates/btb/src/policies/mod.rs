//! Replacement-policy implementations.
//!
//! The paper evaluates LRU (baseline), SRRIP, GHRP, Hawkeye and Belady's OPT
//! against Thermometer (which lives in the `thermometer` crate since it is
//! the paper's contribution). `Random` is included as a sanity floor.
//! TRRIP is the published temperature-hinted follow-up (see PAPERS.md).

mod drrip;
mod fifo;
mod ghrp;
mod hawkeye;
mod lru;
mod opt;
mod plru;
mod random;
mod ship;
mod srrip;
mod trrip;

pub use drrip::Drrip;
pub use fifo::Fifo;
pub use ghrp::{Ghrp, GhrpConfig};
pub use hawkeye::{Hawkeye, HawkeyeConfig};
pub use lru::Lru;
pub use opt::BeladyOpt;
pub use plru::PseudoLru;
pub use random::Random;
pub use ship::Ship;
pub use srrip::Srrip;
pub use trrip::Trrip;

use crate::Geometry;

/// Per-(set, way) metadata storage shared by policy implementations.
///
/// Sized from a [`Geometry`] (including the smaller remainder set). The
/// rows live in one flat allocation at a fixed stride — a row access is a
/// base-plus-offset slice, not a second pointer chase through a
/// `Vec<Vec<T>>`.
#[derive(Clone, Debug, Default)]
pub(crate) struct WayTable<T> {
    data: Vec<T>,
    /// Slots per row; rows start at `set * stride`.
    stride: usize,
    sets: usize,
    /// Length of the final row (smaller for the remainder set).
    last_len: usize,
}

impl<T: Clone + Default> WayTable<T> {
    pub(crate) fn sized(geometry: &Geometry) -> Self {
        let sets = geometry.sets();
        let stride = geometry.ways();
        let last_len = geometry.ways_of(sets - 1);
        Self {
            data: vec![T::default(); (sets - 1) * stride + last_len],
            stride,
            sets,
            last_len,
        }
    }

    /// One slot per set (for per-set — rather than per-way — metadata like
    /// PLRU tree bits).
    pub(crate) fn sized_single(sets: usize) -> Self {
        Self {
            data: vec![T::default(); sets],
            stride: 1,
            sets,
            last_len: 1,
        }
    }

    #[inline]
    fn row_len(&self, set: usize) -> usize {
        if set + 1 == self.sets {
            self.last_len
        } else {
            self.stride
        }
    }

    #[inline]
    pub(crate) fn get(&self, set: usize, way: usize) -> &T {
        debug_assert!(way < self.row_len(set));
        &self.data[set * self.stride + way]
    }

    #[inline]
    pub(crate) fn get_mut(&mut self, set: usize, way: usize) -> &mut T {
        debug_assert!(way < self.row_len(set));
        &mut self.data[set * self.stride + way]
    }

    #[inline]
    pub(crate) fn row(&self, set: usize) -> &[T] {
        let base = set * self.stride;
        &self.data[base..base + self.row_len(set)]
    }

    #[inline]
    pub(crate) fn row_mut(&mut self, set: usize) -> &mut [T] {
        let base = set * self.stride;
        let len = self.row_len(set);
        &mut self.data[base..base + len]
    }

    /// The policy-side mirror of the storage's swap-remove invalidation:
    /// moves the metadata of way `last` into `way` and resets `last` to the
    /// default (when `way == last` this just resets the vacated slot).
    pub(crate) fn swap_remove(&mut self, set: usize, way: usize, last: usize) {
        let moved = std::mem::take(self.get_mut(set, last));
        *self.get_mut(set, way) = moved;
    }
}

/// First way holding the minimum value — the branchless replacement for
/// `(0..row.len()).min_by_key(|&w| row[w])` on the LRU/FIFO victim path.
/// The strict `<` keeps the *first* minimum, matching `Iterator::min_by`'s
/// tie-break; the select compiles to conditional moves instead of a
/// data-dependent branch per way.
#[inline]
pub(crate) fn min_way(row: &[u64]) -> usize {
    debug_assert!(!row.is_empty(), "set has at least one way");
    let mut best = 0usize;
    let mut best_val = row[0];
    for (w, &v) in row.iter().enumerate().skip(1) {
        let take = v < best_val;
        best = if take { w } else { best };
        best_val = if take { v } else { best_val };
    }
    best
}

/// The SRRIP/DRRIP victim rule in closed form: age every RRPV by the exact
/// deficit `RRPV_MAX - max(row)` (the number of aging rounds the iterative
/// loop would run), then take the first way at the distant value. Requires
/// every value `<= rrpv_max`, which the insert/promote paths maintain.
#[inline]
pub(crate) fn rrip_victim(row: &mut [u8], rrpv_max: u8) -> usize {
    debug_assert!(!row.is_empty(), "set has at least one way");
    let mut max = 0u8;
    for &v in row.iter() {
        debug_assert!(v <= rrpv_max, "RRPV {v} out of range");
        max = max.max(v);
    }
    let bump = rrpv_max - max;
    for v in row.iter_mut() {
        *v += bump;
    }
    let mut way = 0usize;
    let mut found = false;
    // First way at the distant value, scanned without early-exit branches.
    for (w, &v) in row.iter().enumerate().rev() {
        if v == rrpv_max {
            way = w;
            found = true;
        }
    }
    debug_assert!(found, "aging must surface a distant entry");
    let _ = found;
    way
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ReplacementPolicy;
    use crate::{AccessContext, Btb, BtbConfig};
    use btb_trace::BranchKind;

    /// Drives any policy over a short adversarial stream and checks the BTB
    /// invariants hold (no panics, occupancy bounded, hits after fills).
    fn smoke<P: ReplacementPolicy>(policy: P) {
        let mut btb = Btb::new(BtbConfig::new(16, 4), policy);
        let pcs: Vec<u64> = (0..64u64).map(|i| (i * 7) % 23).collect();
        for &pc in &pcs {
            btb.access_taken(pc, pc + 0x100, BranchKind::CondDirect, u64::MAX);
        }
        assert!(btb.occupancy() <= 16);
        assert_eq!(btb.stats().accesses, 64);
        assert_eq!(btb.stats().hits + btb.stats().misses, 64);
    }

    #[test]
    fn all_policies_survive_smoke() {
        smoke(Lru::new());
        smoke(Random::with_seed(7));
        smoke(Srrip::new());
        smoke(Ghrp::new(GhrpConfig::default()));
        smoke(Hawkeye::new(HawkeyeConfig::default()));
        smoke(BeladyOpt::new());
        smoke(Fifo::new());
        smoke(PseudoLru::new());
        smoke(Drrip::new());
        smoke(Ship::new());
        smoke(Trrip::new());
        smoke(Trrip::pinned_srrip());
    }

    #[test]
    fn policies_report_paper_names() {
        assert_eq!(Lru::new().name(), "LRU");
        assert_eq!(Srrip::new().name(), "SRRIP");
        assert_eq!(Ghrp::new(GhrpConfig::default()).name(), "GHRP");
        assert_eq!(Hawkeye::new(HawkeyeConfig::default()).name(), "Hawkeye");
        assert_eq!(BeladyOpt::new().name(), "OPT");
        assert_eq!(Random::with_seed(1).name(), "Random");
        assert_eq!(Fifo::new().name(), "FIFO");
        assert_eq!(PseudoLru::new().name(), "PLRU");
        assert_eq!(Drrip::new().name(), "DRRIP");
        assert_eq!(Ship::new().name(), "SHiP");
        assert_eq!(Trrip::new().name(), "TRRIP");
    }

    /// With a unique-PC stream longer than capacity, every access must miss
    /// for every policy (cold misses are policy-independent).
    #[test]
    fn cold_stream_all_miss() {
        fn run<P: ReplacementPolicy>(policy: P) -> u64 {
            let mut btb = Btb::new(BtbConfig::new(16, 4), policy);
            for pc in 0..100u64 {
                btb.access_taken(pc, pc + 1, BranchKind::UncondDirect, u64::MAX);
            }
            btb.stats().hits
        }
        assert_eq!(run(Lru::new()), 0);
        assert_eq!(run(Srrip::new()), 0);
        assert_eq!(run(Ghrp::new(GhrpConfig::default())), 0);
        assert_eq!(run(Hawkeye::new(HawkeyeConfig::default())), 0);
        assert_eq!(run(BeladyOpt::new()), 0);
    }

    /// A working set that fits in one set must never miss after warmup,
    /// regardless of policy (no premature evictions of a fitting set).
    #[test]
    fn fitting_set_never_misses_after_warmup() {
        fn run<P: ReplacementPolicy>(policy: P) -> u64 {
            // 4 sets of 4 ways; pcs 0,4,8,12 all land in set 0 and fit.
            let mut btb = Btb::new(BtbConfig::new(16, 4), policy);
            let pcs = [0u64, 4, 8, 12];
            for round in 0..50 {
                for &pc in &pcs {
                    let ctx = AccessContext {
                        pc,
                        target: pc + 1,
                        kind: BranchKind::UncondDirect,
                        // Oracle-accurate next use for OPT: next round.
                        next_use: round * 4 + (pc / 4) + 4,
                        ..Default::default()
                    };
                    btb.access(&ctx);
                }
            }
            btb.stats().misses
        }
        assert_eq!(run(Lru::new()), 4);
        assert_eq!(run(Srrip::new()), 4);
        assert_eq!(run(BeladyOpt::new()), 4);
        // GHRP and Hawkeye never evict from a set that is not full either.
        assert_eq!(run(Ghrp::new(GhrpConfig::default())), 4);
        assert_eq!(run(Hawkeye::new(HawkeyeConfig::default())), 4);
    }

    /// Naive readable reference for [`min_way`]: the iterator form the
    /// branchless scan replaced.
    fn min_way_naive(row: &[u64]) -> usize {
        (0..row.len())
            .min_by_key(|&w| row[w])
            .expect("set has at least one way")
    }

    /// Naive readable reference for [`rrip_victim`]: the original SRRIP
    /// aging loop (age everyone until someone reaches the distant value,
    /// evict the first such way).
    fn rrip_victim_naive(row: &mut [u8], rrpv_max: u8) -> usize {
        loop {
            if let Some(way) = row.iter().position(|&v| v == rrpv_max) {
                return way;
            }
            for v in row.iter_mut() {
                *v += 1;
            }
        }
    }

    #[test]
    fn min_way_matches_iterator_reference() {
        sim_support::forall!(cases: 256, gen: |rng| {
            let len = rng.gen_range(1usize..9);
            // Small value range to force ties; ties must resolve identically.
            (0..len).map(|_| rng.gen_range(0u64..4)).collect::<Vec<u64>>()
        }, shrink: sim_support::forall::shrink_halves, prop: |row| {
            if row.is_empty() {
                return; // shrinker may propose an empty half
            }
            assert_eq!(min_way(row), min_way_naive(row), "row {row:?}");
        });
    }

    #[test]
    fn rrip_victim_matches_aging_loop_reference() {
        sim_support::forall!(cases: 256, gen: |rng| {
            let len = rng.gen_range(1usize..9);
            (0..len).map(|_| rng.gen_range(0u32..4) as u8).collect::<Vec<u8>>()
        }, shrink: sim_support::forall::shrink_halves, prop: |row| {
            if row.is_empty() {
                return;
            }
            let mut fast = row.clone();
            let mut naive = row.clone();
            let fast_way = rrip_victim(&mut fast, 3);
            let naive_way = rrip_victim_naive(&mut naive, 3);
            assert_eq!(fast_way, naive_way, "victim diverged on {row:?}");
            assert_eq!(fast, naive, "aged RRPVs diverged on {row:?}");
        });
    }

    #[test]
    fn way_table_respects_remainder_set() {
        let g = BtbConfig::iso_storage_7979().geometry();
        let t: WayTable<u8> = WayTable::sized(&g);
        assert_eq!(t.row(0).len(), 4);
        assert_eq!(t.row(g.sets() - 1).len(), 3);
    }

    /// Belady's OPT with a perfect oracle must achieve at least as many hits
    /// as LRU on any stream (here: a looping stream that thrashes LRU).
    #[test]
    fn opt_dominates_lru_on_thrashing_loop() {
        // One set (4 entries, 4 ways), loop over 5 branches: LRU gets zero
        // hits, OPT keeps 3 of them resident.
        let pcs: Vec<u64> = (0..5u64).collect();
        let stream: Vec<u64> = (0..100).map(|i| pcs[i % 5]).collect();

        // Build per-access next-use with an actual oracle.
        let mut trace = btb_trace::Trace::new("loop");
        for &pc in &stream {
            trace.push(btb_trace::BranchRecord::taken(
                pc * 4,
                0x100,
                BranchKind::UncondDirect,
                0,
            ));
        }
        let oracle = btb_trace::NextUseOracle::build(&trace);

        fn run<P: ReplacementPolicy>(
            policy: P,
            trace: &btb_trace::Trace,
            oracle: &btb_trace::NextUseOracle,
        ) -> u64 {
            let mut btb = Btb::new(BtbConfig::new(4, 4), policy);
            for (i, r) in trace.taken().enumerate() {
                btb.access_taken(r.pc, 0x100, BranchKind::UncondDirect, oracle.next_use(i));
            }
            btb.stats().hits
        }

        let lru_hits = run(Lru::new(), &trace, &oracle);
        let opt_hits = run(BeladyOpt::new(), &trace, &oracle);
        assert_eq!(lru_hits, 0, "LRU thrashes a loop one larger than capacity");
        assert!(
            opt_hits >= 70,
            "OPT should keep most of the loop resident, got {opt_hits}"
        );
    }
}
