//! Instruction-side cache hierarchy (Table 1: 32KB/8-way L1I, 512KB/8-way
//! L2, 2MB/16-way LLC, 64-byte blocks), LRU-managed.
//!
//! The simulator only streams instructions, so the hierarchy tracks the
//! instruction path: an access that misses L1I probes L2, then LLC, then
//! memory, installing the block on the way back (inclusive fills). The
//! returned [`HitLevel`] tells the frontend which latency to charge.

/// 64-byte cache blocks.
pub const BLOCK_BYTES: u64 = 64;

/// Where an instruction-fetch access was satisfied.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum HitLevel {
    /// Hit in the L1 instruction cache (no stall).
    L1,
    /// Missed L1, hit the unified L2.
    L2,
    /// Missed L2, hit the last-level cache.
    Llc,
    /// Missed everywhere: fetched from DRAM.
    Memory,
}

/// A single set-associative, LRU-managed cache level, `W`-way.
///
/// The associativity is a compile-time constant: each set is one `[u64; W]`
/// row, so the hit scan has a fixed trip count (vectorizable, no bounds
/// checks) and a row lookup is a single index.
#[derive(Clone, Debug)]
pub struct CacheLevel<const W: usize> {
    sets: usize,
    /// `sets - 1` when `sets` is a power of two (every Table 1 level is),
    /// letting [`CacheLevel::set_of`] mask instead of divide on the
    /// per-block hot path; `0` otherwise, falling back to `%`.
    set_mask: u64,
    /// tags[set][way], `u64::MAX` = invalid.
    tags: Vec<[u64; W]>,
    stamps: Vec<[u64; W]>,
    clock: u64,
    /// Demand + prefetch lookups.
    pub accesses: u64,
    /// Lookups that missed this level.
    pub misses: u64,
}

impl<const W: usize> CacheLevel<W> {
    /// Creates a level of `size_bytes` capacity.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide into whole `W`-way sets.
    pub fn new(size_bytes: usize) -> Self {
        let blocks = size_bytes / BLOCK_BYTES as usize;
        assert!(
            W > 0 && blocks.is_multiple_of(W),
            "invalid cache geometry: {size_bytes}B / {W} ways"
        );
        let sets = blocks / W;
        Self {
            sets,
            set_mask: if sets.is_power_of_two() {
                sets as u64 - 1
            } else {
                0
            },
            tags: vec![[u64::MAX; W]; sets],
            stamps: vec![[0; W]; sets],
            clock: 0,
            accesses: 0,
            misses: 0,
        }
    }

    #[inline]
    fn set_of(&self, block: u64) -> usize {
        if self.set_mask != 0 {
            (block & self.set_mask) as usize
        } else {
            (block % self.sets as u64) as usize
        }
    }

    /// Looks up `block`; on miss, installs it (evicting LRU). Returns
    /// whether it hit.
    ///
    /// Both scans are branchless (no early exit) so they vectorize: tags in
    /// a set are unique, so the exitless hit scan finds the same way, and
    /// the LRU scan keeps the first minimum exactly like
    /// `Iterator::min_by_key` did.
    pub fn access(&mut self, block: u64) -> bool {
        self.accesses += 1;
        self.clock += 1;
        let set = self.set_of(block);
        // Exitless fixed-width scan: tags in a set are unique, so keeping
        // the last match equals the first.
        let row = &self.tags[set];
        let mut hit_way = usize::MAX;
        for (w, &t) in row.iter().enumerate() {
            hit_way = if t == block { w } else { hit_way };
        }
        if hit_way != usize::MAX {
            self.stamps[set][hit_way] = self.clock;
            return true;
        }
        self.misses += 1;
        // Branchless first-minimum, matching `Iterator::min_by_key`.
        let stamps = &self.stamps[set];
        let mut victim = 0usize;
        let mut oldest = stamps[0];
        for (w, &s) in stamps.iter().enumerate().skip(1) {
            let take = s < oldest;
            victim = if take { w } else { victim };
            oldest = if take { s } else { oldest };
        }
        self.tags[set][victim] = block;
        self.stamps[set][victim] = self.clock;
        false
    }

    /// Whether `block` is resident, without updating LRU or counters.
    pub fn contains(&self, block: u64) -> bool {
        self.tags[self.set_of(block)].contains(&block)
    }
}

/// The three-level instruction hierarchy.
#[derive(Clone, Debug)]
pub struct InstrHierarchy {
    /// L1 instruction cache.
    pub l1i: CacheLevel<8>,
    /// Unified L2 (instruction path only in this model).
    pub l2: CacheLevel<8>,
    /// Last-level cache.
    pub llc: CacheLevel<16>,
}

impl InstrHierarchy {
    /// The Table 1 hierarchy. (L1I is 32KB/8-way; Table 1's 48KB/12-way L1D
    /// is irrelevant to the instruction path.)
    pub fn table1() -> Self {
        Self {
            l1i: CacheLevel::new(32 * 1024),
            l2: CacheLevel::new(512 * 1024),
            llc: CacheLevel::new(2 * 1024 * 1024),
        }
    }

    /// Fetches the block containing `addr`, returning where it hit and
    /// installing it in every level above.
    pub fn fetch(&mut self, addr: u64) -> HitLevel {
        self.fetch_block(addr / BLOCK_BYTES)
    }

    /// [`InstrHierarchy::fetch`] keyed directly by block number, for
    /// callers already walking block ranges.
    pub fn fetch_block(&mut self, block: u64) -> HitLevel {
        if self.l1i.access(block) {
            HitLevel::L1
        } else if self.l2.access(block) {
            HitLevel::L2
        } else if self.llc.access(block) {
            HitLevel::Llc
        } else {
            HitLevel::Memory
        }
    }

    /// Instruction misses at the L2 level per kilo-instruction — the
    /// paper's L2iMPKI metric (Fig. 3).
    pub fn l2_impki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.l2.misses as f64 * 1000.0 / instructions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_fetch_hits_l1() {
        let mut h = InstrHierarchy::table1();
        assert_eq!(h.fetch(0x1000), HitLevel::Memory);
        assert_eq!(h.fetch(0x1000), HitLevel::L1);
        assert_eq!(h.fetch(0x1004), HitLevel::L1, "same 64B block");
        assert_eq!(h.fetch(0x1040), HitLevel::Memory, "next block is cold");
    }

    #[test]
    fn working_set_between_l1_and_l2_hits_l2() {
        let mut h = InstrHierarchy::table1();
        // 128KB working set: thrashes 32KB L1I, fits 512KB L2.
        let blocks: Vec<u64> = (0..2048u64).map(|i| i * 64).collect();
        for _ in 0..3 {
            for &b in &blocks {
                h.fetch(b);
            }
        }
        let mut l2_hits = 0;
        for &b in &blocks {
            if h.fetch(b) == HitLevel::L2 {
                l2_hits += 1;
            }
        }
        assert!(l2_hits > 1500, "l2 hits {l2_hits}");
    }

    #[test]
    fn giant_working_set_reaches_memory() {
        let mut h = InstrHierarchy::table1();
        // 8MB working set exceeds the 2MB LLC.
        let blocks: Vec<u64> = (0..131_072u64).map(|i| i * 64).collect();
        for _ in 0..2 {
            for &b in &blocks {
                h.fetch(b);
            }
        }
        let mem = blocks
            .iter()
            .filter(|&&b| h.fetch(b) == HitLevel::Memory)
            .count();
        assert!(mem > 100_000, "memory fetches {mem}");
    }

    #[test]
    fn l2_impki_counts_only_l2_misses() {
        let mut h = InstrHierarchy::table1();
        h.fetch(0x0); // L1 miss, L2 miss, LLC miss
        h.fetch(0x0); // all hits
        assert_eq!(h.l2.misses, 1);
        assert!((h.l2_impki(1000) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid cache geometry")]
    fn bad_geometry_rejected() {
        let _ = CacheLevel::<3>::new(100);
    }
}
