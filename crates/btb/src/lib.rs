//! Set-associative Branch Target Buffer model with pluggable replacement.
//!
//! The BTB maps branch PCs to their targets. In an FDIP frontend, a taken
//! branch whose target is absent from the BTB stalls or mis-steers the
//! prefetcher, so the BTB hit rate bounds frontend performance (paper §2.2).
//!
//! This crate provides:
//!
//! * [`Btb`] — the storage structure, parameterized by a
//!   [`ReplacementPolicy`]. The geometry supports the paper's odd-sized
//!   iso-storage variant (7979 entries) via a remainder set.
//! * [`policies`] — LRU, Random, SRRIP, GHRP, Hawkeye and Belady's OPT.
//! * [`reuse`] — per-set reuse-distance analysis (transient vs. holistic
//!   variance, paper Fig. 5).
//!
//! The access stream is the *taken-branch* stream: every dynamically taken
//! branch performs one BTB access keyed by its PC (the hash is
//! `pc mod sets`, as in the paper §4.2). A policy may *bypass* — decline to
//! insert the missing branch — which the optimal policy uses heavily for
//! cold branches (paper Fig. 9).
//!
//! # Examples
//!
//! ```
//! use btb_model::{policies::Lru, Btb, BtbConfig};
//!
//! let mut btb = Btb::new(BtbConfig::new(1024, 4), Lru::new());
//! let outcome = btb.access_taken(0x40_0000, 0x40_1000, Default::default(), u64::MAX);
//! assert!(outcome.is_miss());
//! let outcome = btb.access_taken(0x40_0000, 0x40_1000, Default::default(), u64::MAX);
//! assert!(outcome.is_hit());
//! ```

pub mod config;
pub mod interface;
pub mod multilevel;
pub mod policies;
pub mod policy;
pub mod reference;
pub mod reuse;
pub mod stats;
pub mod storage;

pub use config::{BtbConfig, Geometry};
pub use interface::BtbInterface;
pub use multilevel::{ExclusiveTwoLevelBtb, TwoLevelBtb};
pub use policy::{AccessContext, ReplacementPolicy, Victim};
pub use stats::BtbStats;
pub use storage::SoaStorage;

use btb_trace::BranchKind;

/// One resident BTB entry.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BtbEntry {
    /// Branch PC (full tag in this model).
    pub pc: u64,
    /// Cached branch target.
    pub target: u64,
    /// Branch kind recorded at fill.
    pub kind: BranchKind,
    /// Temperature hint bits carried by the branch instruction
    /// (0 = coldest). Zero for non-Thermometer configurations.
    pub hint: u8,
}

/// Result of one BTB access.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The branch was resident; `target_matched` is false when the cached
    /// target differed from the actual target (stale entry, updated in
    /// place).
    Hit {
        /// Whether the cached target equalled the resolved target.
        target_matched: bool,
    },
    /// The branch was absent and was inserted (possibly evicting another).
    MissInserted,
    /// The branch was absent and the policy declined to insert it.
    MissBypassed,
}

impl AccessOutcome {
    /// Whether this access hit.
    pub fn is_hit(self) -> bool {
        matches!(self, AccessOutcome::Hit { .. })
    }

    /// Whether this access missed (inserted or bypassed).
    pub fn is_miss(self) -> bool {
        !self.is_hit()
    }

    /// Whether this access missed and bypassed insertion.
    pub fn is_bypass(self) -> bool {
        self == AccessOutcome::MissBypassed
    }
}

/// A set-associative BTB parameterized by its replacement policy.
///
/// Entries live in a flat structure-of-arrays [`SoaStorage`] — one
/// contiguous array per field instead of per-entry structs — so the hit
/// scan walks a single cache line of PCs. The legacy per-entry layout
/// survives as [`reference::ReferenceBtb`], and
/// `tests/storage_differential.rs` keeps the two behaviourally identical.
#[derive(Debug)]
pub struct Btb<P> {
    geometry: Geometry,
    storage: SoaStorage,
    /// Reused scratch for replacement decisions, so a full set does not
    /// heap-allocate a resident vector on every miss.
    resident_buf: Vec<BtbEntry>,
    policy: P,
    stats: BtbStats,
    access_index: u64,
    /// The entry displaced by the most recent access/prefetch, if any —
    /// captured so multilevel hierarchies can migrate victims downward.
    last_evicted: Option<BtbEntry>,
}

impl<P: ReplacementPolicy> Btb<P> {
    /// Creates a BTB with the given geometry and policy.
    pub fn new(config: BtbConfig, mut policy: P) -> Self {
        let geometry = config.geometry();
        policy.reset(&geometry);
        Self {
            geometry,
            storage: SoaStorage::new(&geometry),
            resident_buf: Vec::with_capacity(geometry.ways()),
            policy,
            stats: BtbStats::default(),
            access_index: 0,
            last_evicted: None,
        }
    }

    /// The BTB geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &BtbStats {
        &self.stats
    }

    /// Shared access to the replacement policy (e.g. to inspect predictor
    /// state in tests).
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Looks up `pc` without updating any state (a *probe*). Used by the
    /// frontend to check residency during fetch without perturbing
    /// replacement metadata. Returns the entry by value — entry fields live
    /// in separate arrays, so there is no resident `BtbEntry` to borrow.
    pub fn probe(&self, pc: u64) -> Option<BtbEntry> {
        let set = self.geometry.set_of(pc);
        self.storage
            .find(set, pc)
            .map(|way| self.storage.entry(set, way))
    }

    /// Performs one BTB access for a dynamically taken branch.
    ///
    /// `next_use` is the oracle position of the next access to this PC
    /// ([`btb_trace::next_use::NEVER`] when unknown); online policies ignore
    /// it, Belady's OPT requires it.
    pub fn access_taken(
        &mut self,
        pc: u64,
        target: u64,
        kind: BranchKind,
        next_use: u64,
    ) -> AccessOutcome {
        self.access(&AccessContext {
            pc,
            target,
            kind,
            hint: 0,
            next_use,
            access_index: self.access_index,
        })
    }

    /// Performs one BTB access with a fully populated context (including a
    /// Thermometer hint). The context's `access_index` is overwritten with
    /// the BTB's internal counter.
    pub fn access(&mut self, ctx: &AccessContext) -> AccessOutcome {
        let mut ctx = *ctx;
        ctx.access_index = self.access_index;
        self.access_index += 1;
        self.stats.accesses += 1;
        self.last_evicted = None;

        let set = self.geometry.set_of(ctx.pc);
        // Hit path: scan the contiguous PC row (resident ways are a prefix).
        if let Some(way) = self.storage.find(set, ctx.pc) {
            let target_matched = self.storage.rehit(set, way, ctx.target, ctx.hint);
            self.stats.hits += 1;
            if !target_matched {
                self.stats.target_mismatches += 1;
            }
            self.policy.on_hit(set, way, &ctx);
            return AccessOutcome::Hit { target_matched };
        }

        self.stats.misses += 1;
        let incoming = BtbEntry {
            pc: ctx.pc,
            target: ctx.target,
            kind: ctx.kind,
            hint: ctx.hint,
        };

        // Free-way fill path.
        if let Some(way) = self.storage.free_way(set) {
            self.storage.write(set, way, incoming);
            self.stats.fills += 1;
            self.policy.on_fill(set, way, &ctx);
            return AccessOutcome::MissInserted;
        }

        // Replacement path: gather residents into the reused scratch buffer.
        self.storage.gather(set, &mut self.resident_buf);
        match self.policy.choose_victim(set, &self.resident_buf, &ctx) {
            Victim::Bypass => {
                self.stats.bypasses += 1;
                AccessOutcome::MissBypassed
            }
            Victim::Evict(way) => {
                assert!(
                    way < self.resident_buf.len(),
                    "policy chose way {way} of {}",
                    self.resident_buf.len()
                );
                let evicted = self.resident_buf[way];
                self.storage.write(set, way, incoming);
                self.stats.evictions += 1;
                self.policy.on_replace(set, way, &evicted, &ctx);
                self.last_evicted = Some(evicted);
                AccessOutcome::MissInserted
            }
        }
    }

    /// Inserts an entry without a demand access (used by BTB *prefetchers*).
    /// The policy picks the victim as usual but the fill is accounted as a
    /// prefetch. Returns false if the policy bypassed the prefetch.
    pub fn prefetch_fill(&mut self, pc: u64, target: u64, kind: BranchKind) -> bool {
        self.prefetch_fill_hinted(pc, target, kind, 0)
    }

    /// [`Btb::prefetch_fill`] carrying the branch instruction's temperature
    /// hint, so hint-aware policies treat the speculative entry like a
    /// demand fill of the same branch.
    pub fn prefetch_fill_hinted(
        &mut self,
        pc: u64,
        target: u64,
        kind: BranchKind,
        hint: u8,
    ) -> bool {
        let ctx = AccessContext {
            pc,
            target,
            kind,
            hint,
            next_use: btb_trace::next_use::NEVER,
            access_index: self.access_index,
        };
        let set = self.geometry.set_of(pc);
        self.last_evicted = None;
        if self.storage.find(set, pc).is_some() {
            return true; // already resident
        }
        self.stats.prefetch_fills += 1;
        let incoming = BtbEntry {
            pc,
            target,
            kind,
            hint,
        };
        if let Some(way) = self.storage.free_way(set) {
            self.storage.write(set, way, incoming);
            self.policy.on_fill(set, way, &ctx);
            return true;
        }
        self.storage.gather(set, &mut self.resident_buf);
        match self.policy.choose_victim(set, &self.resident_buf, &ctx) {
            Victim::Bypass => false,
            Victim::Evict(way) => {
                let evicted = self.resident_buf[way];
                self.storage.write(set, way, incoming);
                self.stats.prefetch_evictions += 1;
                self.policy.on_replace(set, way, &evicted, &ctx);
                self.last_evicted = Some(evicted);
                true
            }
        }
    }

    /// The entry displaced by the most recent [`Btb::access`] or
    /// [`Btb::prefetch_fill_hinted`], taken at most once per operation.
    /// Multilevel hierarchies use this to migrate victims to a lower level.
    pub fn take_evicted(&mut self) -> Option<BtbEntry> {
        self.last_evicted.take()
    }

    /// Removes `pc` from the BTB, returning the removed entry if it was
    /// resident. The storage preserves its resident-prefix invariant by
    /// moving the last resident way of the set into the vacated slot, and
    /// the policy is told via [`ReplacementPolicy::on_invalidate`] so
    /// per-way metadata moves along. Used by multilevel hierarchies:
    /// exclusive ones pull a lower-level hit up, inclusive ones
    /// back-invalidate the upper level on a lower-level eviction.
    pub fn invalidate(&mut self, pc: u64) -> Option<BtbEntry> {
        let set = self.geometry.set_of(pc);
        let way = self.storage.find(set, pc)?;
        let removed = self.storage.entry(set, way);
        let last = self.storage.swap_remove(set, way);
        self.policy.on_invalidate(set, way, last);
        Some(removed)
    }

    /// Empties the BTB and resets statistics and policy state.
    pub fn clear(&mut self) {
        self.storage.clear();
        self.stats = BtbStats::default();
        self.access_index = 0;
        self.last_evicted = None;
        self.policy.reset(&self.geometry);
    }

    /// Number of currently resident entries.
    pub fn occupancy(&self) -> usize {
        self.storage.occupancy()
    }

    /// Number of currently resident entries in set `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn set_occupancy(&self, s: usize) -> usize {
        assert!(s < self.storage.sets(), "set {s} out of range");
        self.storage.occupancy_of(s)
    }

    /// Per-set resident contents in way order (for the differential tests).
    pub fn snapshot(&self) -> Vec<Vec<BtbEntry>> {
        self.storage.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::Lru;

    fn tiny() -> Btb<Lru> {
        Btb::new(BtbConfig::new(8, 2), Lru::new())
    }

    #[test]
    fn miss_then_hit() {
        let mut btb = tiny();
        assert!(btb
            .access_taken(0x100, 0x200, BranchKind::CondDirect, u64::MAX)
            .is_miss());
        assert!(btb
            .access_taken(0x100, 0x200, BranchKind::CondDirect, u64::MAX)
            .is_hit());
        assert_eq!(btb.stats().hits, 1);
        assert_eq!(btb.stats().misses, 1);
    }

    #[test]
    fn probe_does_not_mutate() {
        let mut btb = tiny();
        btb.access_taken(0x100, 0x200, BranchKind::CondDirect, u64::MAX);
        let before = btb.stats().clone();
        assert!(btb.probe(0x100).is_some());
        assert!(btb.probe(0x999).is_none());
        assert_eq!(btb.stats(), &before);
    }

    #[test]
    fn target_update_on_stale_hit() {
        let mut btb = tiny();
        btb.access_taken(0x100, 0x200, BranchKind::IndirectJump, u64::MAX);
        let out = btb.access_taken(0x100, 0x300, BranchKind::IndirectJump, u64::MAX);
        assert_eq!(
            out,
            AccessOutcome::Hit {
                target_matched: false
            }
        );
        assert_eq!(btb.probe(0x100).unwrap().target, 0x300);
        assert_eq!(btb.stats().target_mismatches, 1);
    }

    #[test]
    fn conflicting_pcs_evict_within_set() {
        // 8 entries, 2 ways -> 4 sets. PCs whose instruction index is
        // congruent mod 4 conflict.
        let mut btb = tiny();
        for pc in [0u64, 16, 32] {
            btb.access_taken(pc, 0x999, BranchKind::UncondDirect, u64::MAX);
        }
        assert_eq!(btb.stats().evictions, 1);
        assert_eq!(btb.occupancy(), 2);
    }

    #[test]
    fn clear_resets_everything() {
        let mut btb = tiny();
        btb.access_taken(0x100, 0x200, BranchKind::CondDirect, u64::MAX);
        btb.clear();
        assert_eq!(btb.occupancy(), 0);
        assert_eq!(btb.stats().accesses, 0);
        assert!(btb.probe(0x100).is_none());
    }

    #[test]
    fn invalidate_removes_and_keeps_prefix_contiguous() {
        // 8 entries, 2 ways -> 4 sets; 0x100 and 0x140 share a set.
        let mut btb = tiny();
        btb.access_taken(0x100, 0x200, BranchKind::CondDirect, u64::MAX);
        btb.access_taken(0x140, 0x240, BranchKind::CondDirect, u64::MAX);
        let removed = btb.invalidate(0x100).expect("0x100 is resident");
        assert_eq!(removed.pc, 0x100);
        assert_eq!(removed.target, 0x200);
        assert!(btb.probe(0x100).is_none());
        assert!(btb.probe(0x140).is_some(), "survivor moved into the hole");
        assert_eq!(btb.occupancy(), 1);
        assert!(btb.invalidate(0x100).is_none(), "already gone");
        // The vacated way refills normally.
        btb.access_taken(0x180, 0x280, BranchKind::CondDirect, u64::MAX);
        assert_eq!(btb.stats().evictions, 0, "free way was reused, no evict");
    }

    #[test]
    fn take_evicted_captures_the_displaced_entry_once() {
        let mut btb = tiny();
        for pc in [0u64, 16] {
            btb.access_taken(pc, 0x999, BranchKind::UncondDirect, u64::MAX);
            assert!(btb.take_evicted().is_none(), "fills displace nothing");
        }
        btb.access_taken(32, 0x999, BranchKind::UncondDirect, u64::MAX);
        let evicted = btb.take_evicted().expect("full set evicted an entry");
        assert_eq!(evicted.pc, 0); // LRU victim
        assert!(btb.take_evicted().is_none(), "taken at most once");
        // A hit clears any stale capture.
        btb.access_taken(32, 0x999, BranchKind::UncondDirect, u64::MAX);
        assert!(btb.take_evicted().is_none());
    }

    #[test]
    fn prefetch_fill_inserts_without_demand_access() {
        let mut btb = tiny();
        assert!(btb.prefetch_fill(0x100, 0x200, BranchKind::CondDirect));
        assert_eq!(btb.stats().accesses, 0);
        assert_eq!(btb.stats().prefetch_fills, 1);
        assert!(btb
            .access_taken(0x100, 0x200, BranchKind::CondDirect, u64::MAX)
            .is_hit());
    }
}
