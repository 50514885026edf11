//! Offline profiling: replaying Belady's OPT to measure hit-to-taken.
//!
//! The paper's §3.2: Thermometer simulates the optimal BTB replacement
//! policy over a profile trace (collected with Intel PT in the paper, with
//! the generators of `btb-workloads` here) and counts, for every static
//! branch, (a) the times it was taken and (b) the times the optimal policy
//! made its lookup hit. It also counts insertions and bypasses, which the
//! characterization of §2.5 (Fig. 9) uses.
//!
//! The replay counts into a flat array indexed by the trace's static-branch
//! ids ([`BranchIndex`]) and builds the PC-ordered map once, at the end.
//! It reads nothing but that index and the next-use oracle over it, so a
//! trace file can be profiled from the index decoded straight out of it
//! ([`OptProfile::measure_indexed`]).
//! The pre-index replay, which updates a `BTreeMap` on every access, is
//! kept as [`reference::reference_profile`](crate::reference::reference_profile)
//! for the differential tests.

use std::collections::BTreeMap;

use btb_model::{policies::BeladyOpt, AccessContext, Btb, BtbConfig};
use btb_trace::{BranchIndex, BranchKind, NextUseOracle};

use crate::prepared::SimInput;

/// Per-static-branch counters measured under OPT.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct BranchCounters {
    /// Dynamic taken executions (= BTB accesses).
    pub taken: u64,
    /// BTB hits under the optimal replacement policy.
    pub opt_hits: u64,
    /// Misses that inserted the branch.
    pub inserts: u64,
    /// Misses the optimal policy bypassed.
    pub bypasses: u64,
}

impl BranchCounters {
    /// The branch's hit-to-taken ratio in `[0, 1]` — the paper's
    /// temperature measurement (expressed as a percentage there).
    pub fn hit_to_taken(&self) -> f64 {
        if self.taken == 0 {
            0.0
        } else {
            self.opt_hits as f64 / self.taken as f64
        }
    }

    /// Adds another measurement window's counters onto this branch's —
    /// counters are plain sums, so merging is associative and
    /// order-insensitive.
    pub fn merge(&mut self, other: &BranchCounters) {
        self.taken += other.taken;
        self.opt_hits += other.opt_hits;
        self.inserts += other.inserts;
        self.bypasses += other.bypasses;
    }

    /// Fraction of this branch's misses that were bypassed (Fig. 9).
    pub fn bypass_ratio(&self) -> f64 {
        let misses = self.inserts + self.bypasses;
        if misses == 0 {
            0.0
        } else {
            self.bypasses as f64 / misses as f64
        }
    }
}

/// The result of one profiling run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OptProfile {
    /// Counters per branch PC. Ordered so every consumer (hint tables,
    /// figures, the characterization study) iterates branches in PC order.
    pub branches: BTreeMap<u64, BranchCounters>,
    /// BTB geometry the profile was measured against (temperatures are
    /// size-specific, §3.4 "BTB size dependency").
    pub config: Option<BtbConfig>,
    /// Total taken-branch accesses replayed. The deterministic work metric
    /// for the paper's Fig. 14 cost argument; wall-clock cost of the OPT
    /// replay is measured in the bench layer (`results/bench_profiling.json`),
    /// keeping the core pipeline free of clock reads.
    pub accesses: u64,
}

impl OptProfile {
    /// Replays Belady's OPT over `input`'s taken-branch stream on a BTB of
    /// `config` geometry and collects per-branch counters.
    ///
    /// The replay reuses the input's [`BranchIndex`] and [`NextUseOracle`]:
    /// a [`PreparedTrace`](crate::PreparedTrace) lends the ones it holds, a
    /// bare [`Trace`] has them built for this call.
    ///
    /// # Examples
    ///
    /// ```
    /// use btb_model::BtbConfig;
    /// use btb_trace::{BranchKind, BranchRecord, Trace};
    /// use thermometer::OptProfile;
    ///
    /// let mut t = Trace::new("p");
    /// for _ in 0..3 {
    ///     t.push(BranchRecord::taken(0x10, 0x90, BranchKind::UncondDirect, 0));
    /// }
    /// let profile = OptProfile::measure(&t, BtbConfig::new(16, 4));
    /// let c = &profile.branches[&0x10];
    /// assert_eq!(c.taken, 3);
    /// assert_eq!(c.opt_hits, 2); // first access is a compulsory miss
    /// ```
    pub fn measure(input: &impl SimInput, config: BtbConfig) -> Self {
        let (index, oracle) = input.indexed_oracle();
        Self::measure_indexed(&index, &oracle, config)
    }

    /// [`OptProfile::measure`] over a taken-branch stream given only as its
    /// [`BranchIndex`] and the [`NextUseOracle`] built over it, such as
    /// [`read_branch_index`](btb_trace::read_branch_index) reads from a
    /// trace file without keeping its records.
    ///
    /// The index is all the replay needs: OPT chooses its victims by next
    /// use, and a lookup hits by comparing PCs. A branch's target and kind
    /// only change which target a hit reports, never a counter.
    pub fn measure_indexed(index: &BranchIndex, oracle: &NextUseOracle, config: BtbConfig) -> Self {
        let mut btb = Btb::new(config, BeladyOpt::new());
        let mut counters = vec![BranchCounters::default(); index.branches()];
        let pcs = index.pcs();

        for (i, &id) in index.ids().iter().enumerate() {
            let ctx = AccessContext {
                pc: pcs[id as usize],
                target: 0,
                kind: BranchKind::default(),
                hint: 0,
                next_use: oracle.next_use(i),
                access_index: i as u64,
            };
            let outcome = btb.access(&ctx);
            let c = &mut counters[id as usize];
            c.taken += 1;
            if outcome.is_hit() {
                c.opt_hits += 1;
            } else if outcome.is_bypass() {
                c.bypasses += 1;
            } else {
                c.inserts += 1;
            }
        }

        Self {
            branches: pcs.iter().copied().zip(counters).collect(),
            config: Some(config),
            accesses: oracle.len() as u64,
        }
    }

    /// Folds another profile's counters into this one (per-branch sums).
    ///
    /// The geometry must match: temperature is BTB-size-specific (§3.4), so
    /// merging profiles measured against different configurations would
    /// produce a number with no physical meaning.
    ///
    /// # Panics
    ///
    /// Panics when both profiles carry a config and the configs differ.
    pub fn merge(&mut self, other: &OptProfile) {
        if let (Some(a), Some(b)) = (&self.config, &other.config) {
            assert_eq!(
                a, b,
                "merging OPT profiles measured against different BTB geometries"
            );
        }
        if self.config.is_none() {
            self.config = other.config;
        }
        for (&pc, counters) in &other.branches {
            self.branches.entry(pc).or_default().merge(counters);
        }
        self.accesses += other.accesses;
    }

    /// Hit-to-taken ratio of a branch; `None` when it never appeared.
    pub fn hit_to_taken(&self, pc: u64) -> Option<f64> {
        self.branches.get(&pc).map(BranchCounters::hit_to_taken)
    }

    /// Number of profiled static branches.
    pub fn unique_branches(&self) -> usize {
        self.branches.len()
    }

    /// Total OPT hits across all branches.
    pub fn total_hits(&self) -> u64 {
        self.branches.values().map(|c| c.opt_hits).sum()
    }

    /// Branches sorted by descending hit-to-taken (the X-axis ordering of
    /// Figs. 6–7).
    pub fn sorted_by_heat(&self) -> Vec<(u64, BranchCounters)> {
        let mut v: Vec<(u64, BranchCounters)> =
            self.branches.iter().map(|(&pc, &c)| (pc, c)).collect();
        v.sort_by(|a, b| {
            b.1.hit_to_taken()
                .total_cmp(&a.1.hit_to_taken())
                .then_with(|| a.0.cmp(&b.0))
        });
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btb_trace::{BranchRecord, Trace};

    fn taken(pc: u64) -> BranchRecord {
        BranchRecord::taken(pc, pc + 0x100, BranchKind::UncondDirect, 1)
    }

    #[test]
    fn counters_sum_to_taken() {
        let mut t = Trace::new("sum");
        for i in 0..200u64 {
            t.push(taken(i % 10));
            t.push(taken(i % 37));
        }
        let p = OptProfile::measure(&t, BtbConfig::new(8, 4));
        for (pc, c) in &p.branches {
            assert_eq!(
                c.taken,
                c.opt_hits + c.inserts + c.bypasses,
                "pc {pc:#x}: {c:?}"
            );
        }
        assert_eq!(p.accesses, 400);
    }

    #[test]
    fn hot_loop_is_hotter_than_cold_tail() {
        // One hot branch revisited constantly vs a stream of one-shot
        // branches conflicting with it.
        let mut t = Trace::new("hotcold");
        for i in 0..500u64 {
            t.push(taken(4)); // hot, same set as the cold tail (4 sets)
            t.push(taken(8 + i * 4)); // cold one-shots in set 0
        }
        let p = OptProfile::measure(&t, BtbConfig::new(4, 1));
        let hot = p.hit_to_taken(4).unwrap();
        assert!(hot > 0.9, "hot branch hit-to-taken {hot}");
        // The cold tail never hits.
        assert_eq!(p.hit_to_taken(8 + 4), Some(0.0));
    }

    #[test]
    fn never_reused_branches_are_bypassed_under_pressure() {
        let mut t = Trace::new("bypass");
        // Fill a 1-set BTB (4 ways) with 4 recurring branches, then stream
        // one-shots: OPT bypasses all of them.
        let recurring = [0u64, 1, 2, 3];
        for round in 0..50u64 {
            for &pc in &recurring {
                t.push(taken(pc));
            }
            t.push(taken(100 + round));
        }
        let p = OptProfile::measure(&t, BtbConfig::new(4, 4));
        let one_shot = &p.branches[&105];
        assert_eq!(one_shot.bypasses, 1);
        assert_eq!(one_shot.bypass_ratio(), 1.0);
        for &pc in &recurring {
            assert!(p.hit_to_taken(pc).unwrap() > 0.9);
        }
    }

    #[test]
    fn sorted_by_heat_is_descending() {
        let mut t = Trace::new("sorted");
        for i in 0..300u64 {
            t.push(taken(1));
            if i % 3 == 0 {
                t.push(taken(2));
            }
            t.push(taken(100 + i));
        }
        let p = OptProfile::measure(&t, BtbConfig::new(2, 2));
        let sorted = p.sorted_by_heat();
        for w in sorted.windows(2) {
            assert!(w[0].1.hit_to_taken() >= w[1].1.hit_to_taken());
        }
    }

    #[test]
    fn work_metric_counts_taken_accesses() {
        let mut t = Trace::new("work");
        for i in 0..1000u64 {
            t.push(taken(i % 50));
        }
        let p = OptProfile::measure(&t, BtbConfig::new(16, 4));
        assert_eq!(p.accesses, 1000);
    }
}
