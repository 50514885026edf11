//! TAGE-lite conditional branch direction predictor with a local component.
//!
//! A faithful-in-structure but reduced-size TAGE (Seznec's TAgged GEometric
//! predictor, the family the paper's 64KB TAGE-SC-L baseline belongs to): a
//! bimodal base table plus tagged tables indexed by geometrically growing
//! global-history lengths. Prediction comes from the longest-history tagged
//! table that matches; allocation on mispredict moves the branch to longer
//! histories.
//!
//! Full TAGE-SC-L additionally carries local-history components (the loop
//! predictor and local tables of the statistical corrector). Those matter
//! enormously on server workloads: requests interleave so the *global*
//! history at a branch is near-random even when the branch's *own* outcome
//! sequence is perfectly periodic. We model that with a per-branch local
//! history indexing a counter table; a confident local prediction overrides
//! TAGE. This puts direction accuracy in the 97-99% band, leaving BTB
//! misses (not direction) as the frontend bottleneck — matching the
//! paper's Fig. 2 (perfect BP buys much less than a perfect BTB).

/// Geometric history lengths of the tagged tables.
const HISTORY_LENGTHS: [u32; 4] = [8, 16, 32, 64];
/// log2 entries per tagged table (4 x 4K x ~14 bits + bimodal ~ the paper's
/// 64KB TAGE-SC-L budget).
const TAGGED_BITS: u32 = 12;
/// log2 entries of the bimodal base table.
const BIMODAL_BITS: u32 = 16;
/// Tag width.
const TAG_BITS: u32 = 9;
/// Per-branch local history bits.
const LOCAL_HISTORY_BITS: u32 = 16;
/// log2 entries of the local history table (per-PC).
const LOCAL_HIST_ENTRIES_BITS: u32 = 14;
/// log2 entries of the local prediction table.
const LOCAL_TABLE_BITS: u32 = 16;

#[derive(Copy, Clone, Debug, Default)]
struct TaggedEntry {
    tag: u16,
    /// 3-bit signed counter, taken if >= 0 (stored biased: 0..=7, taken >= 4).
    ctr: u8,
    /// 2-bit usefulness counter.
    useful: u8,
}

/// The predictor.
#[derive(Clone, Debug)]
pub struct Tage {
    /// Boxed fixed-size arrays throughout: every index is a masked hash, so
    /// with the length in the type the compiler proves each access in
    /// bounds and the hot path carries no bounds checks.
    bimodal: Box<[u8; 1 << BIMODAL_BITS]>,
    /// All tagged tables in one flat array; table `t` occupies
    /// `t << TAGGED_BITS ..`. One allocation, no per-table pointer chase.
    tagged: Box<[TaggedEntry; HISTORY_LENGTHS.len() << TAGGED_BITS]>,
    /// Global direction history (1 bit per branch), youngest in bit 0.
    history: u128,
    /// Deterministic allocation tie-break state.
    alloc_seed: u64,
    /// Per-branch local direction histories.
    local_hist: Box<[u16; 1 << LOCAL_HIST_ENTRIES_BITS]>,
    /// Local prediction counters indexed by (pc, local history).
    local_table: Box<[u8; 1 << LOCAL_TABLE_BITS]>,
}

/// What a prediction was based on, fed back into [`Tage::update`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted direction.
    pub taken: bool,
    /// Which tagged table provided it (`None` = bimodal).
    provider: Option<usize>,
    /// Index within the provider table.
    index: usize,
    /// The TAGE component's direction (before local override).
    tage_taken: bool,
    /// Local component state captured at predict time, so update need not
    /// recompute the two hash indices (the contract already requires update
    /// to follow predict on the same branch under the same history).
    local_hist_idx: usize,
    local_table_idx: usize,
    local_hist: u16,
}

impl Default for Tage {
    fn default() -> Self {
        Self::new()
    }
}

impl Tage {
    /// Creates a predictor with all counters weakly not-taken.
    pub fn new() -> Self {
        Self {
            bimodal: vec![1; 1 << BIMODAL_BITS].try_into().expect("bimodal size"),
            tagged: vec![TaggedEntry::default(); HISTORY_LENGTHS.len() << TAGGED_BITS]
                .try_into()
                .expect("tagged size"),
            history: 0,
            alloc_seed: 0x1234_5678_9abc_def0,
            local_hist: vec![0; 1 << LOCAL_HIST_ENTRIES_BITS]
                .try_into()
                .expect("local history size"),
            local_table: vec![4; 1 << LOCAL_TABLE_BITS]
                .try_into()
                .expect("local table size"),
        }
    }

    fn local_hist_index(pc: u64) -> usize {
        let mut h = pc.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 31;
        (h & ((1 << LOCAL_HIST_ENTRIES_BITS) - 1)) as usize
    }

    fn local_table_index(pc: u64, hist: u16) -> usize {
        // Mix pc and history multiplicatively and fold the high bits down:
        // integer multiplication only propagates carries upward, so without
        // the final fold the low index bits would ignore the history.
        let mut h = pc
            .wrapping_mul(0xff51_afd7_ed55_8ccd)
            .wrapping_add(u64::from(hist).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^= h >> 33;
        (h & ((1 << LOCAL_TABLE_BITS) - 1)) as usize
    }

    /// Generic xor-fold of the low `bits` of history into `out_bits` — the
    /// readable reference the const-specialized [`fold_u64`] is pinned
    /// against in the tests. Not used on the predict path.
    #[cfg(test)]
    fn folded_history(&self, bits: u32, out_bits: u32) -> u64 {
        let mut h = self.history & ((1u128 << bits) - 1);
        let mut folded = 0u64;
        while h != 0 {
            folded ^= (h & ((1u128 << out_bits) - 1)) as u64;
            h >>= out_bits;
        }
        folded
    }

    /// Folded history for `table`'s index hash. Every history length fits
    /// in 64 bits, so this dispatches to a `u64` fold whose chunk count is
    /// a compile-time constant per table (fully unrolled xor terms, no
    /// `u128` arithmetic, no data-dependent loop).
    #[inline]
    fn fold_index(&self, table: usize) -> u64 {
        let h = self.history as u64;
        match table {
            0 => fold_u64::<8, TAGGED_BITS>(h),
            1 => fold_u64::<16, TAGGED_BITS>(h),
            2 => fold_u64::<32, TAGGED_BITS>(h),
            _ => fold_u64::<64, TAGGED_BITS>(h),
        }
    }

    /// Folded history for `table`'s tag hash (see [`Tage::fold_index`]).
    #[inline]
    fn fold_tag(&self, table: usize) -> u64 {
        let h = self.history as u64;
        match table {
            0 => fold_u64::<8, TAG_BITS>(h),
            1 => fold_u64::<16, TAG_BITS>(h),
            2 => fold_u64::<32, TAG_BITS>(h),
            _ => fold_u64::<64, TAG_BITS>(h),
        }
    }

    fn tagged_index(&self, pc: u64, table: usize) -> usize {
        let fh = self.fold_index(table);
        let mix = pc ^ (pc >> TAGGED_BITS) ^ fh ^ ((table as u64) << 3);
        (mix & ((1 << TAGGED_BITS) - 1)) as usize
    }

    fn tag_of(&self, pc: u64, table: usize) -> u16 {
        let fh = self.fold_tag(table);
        (((pc >> 2) ^ (pc >> (TAG_BITS + 2)) ^ (fh << 1)) & ((1 << TAG_BITS) - 1)) as u16
    }

    fn bimodal_index(&self, pc: u64) -> usize {
        ((pc >> 2) & ((1 << BIMODAL_BITS) - 1)) as usize
    }

    /// Flat-array slot of entry `idx` in tagged table `table`.
    #[inline]
    fn slot(table: usize, idx: usize) -> usize {
        (table << TAGGED_BITS) | idx
    }

    /// Predicts the direction of the conditional branch at `pc`.
    pub fn predict(&self, pc: u64) -> Prediction {
        let mut pred = self.tage_predict(pc);
        // A *confident* local-pattern prediction overrides TAGE: the local
        // counter is saturated only when (pc, local history) has been a
        // reliable predictor of the outcome.
        let hi = Self::local_hist_index(pc);
        let hist = self.local_hist[hi];
        let li = Self::local_table_index(pc, hist);
        let local = self.local_table[li];
        if local == 0 || local == 7 {
            pred.taken = local >= 4;
        }
        pred.local_hist_idx = hi;
        pred.local_table_idx = li;
        pred.local_hist = hist;
        pred
    }

    fn tage_predict(&self, pc: u64) -> Prediction {
        // All four probes are independent: computing every index and tag up
        // front lets the four table loads issue together instead of
        // serializing through an early-exit scan. Provider selection
        // (longest matching history wins) is unchanged.
        let idx = [
            self.tagged_index(pc, 0),
            self.tagged_index(pc, 1),
            self.tagged_index(pc, 2),
            self.tagged_index(pc, 3),
        ];
        let tag = [
            self.tag_of(pc, 0),
            self.tag_of(pc, 1),
            self.tag_of(pc, 2),
            self.tag_of(pc, 3),
        ];
        let entry = [
            self.tagged[Self::slot(0, idx[0])],
            self.tagged[Self::slot(1, idx[1])],
            self.tagged[Self::slot(2, idx[2])],
            self.tagged[Self::slot(3, idx[3])],
        ];
        for table in (0..HISTORY_LENGTHS.len()).rev() {
            let e = entry[table];
            if e.tag == tag[table] {
                return Prediction {
                    taken: e.ctr >= 4,
                    provider: Some(table),
                    index: idx[table],
                    tage_taken: e.ctr >= 4,
                    local_hist_idx: 0,
                    local_table_idx: 0,
                    local_hist: 0,
                };
            }
        }
        let idx = self.bimodal_index(pc);
        Prediction {
            taken: self.bimodal[idx] >= 2,
            provider: None,
            index: idx,
            tage_taken: self.bimodal[idx] >= 2,
            local_hist_idx: 0,
            local_table_idx: 0,
            local_hist: 0,
        }
    }

    /// Trains the predictor with the resolved direction and advances the
    /// global history. `prediction` must come from [`Tage::predict`] on the
    /// same branch under the same history.
    pub fn update(&mut self, pc: u64, taken: bool, prediction: Prediction) {
        // Local component: train the counter for the current (pc, local
        // history) point and shift the local history. The indices were
        // captured at predict time.
        let hi = prediction.local_hist_idx;
        let li = prediction.local_table_idx;
        self.local_table[li] = bump3(self.local_table[li], taken);
        self.local_hist[hi] = ((prediction.local_hist << 1) | u16::from(taken))
            & ((1 << LOCAL_HISTORY_BITS) - 1) as u16;

        let correct = prediction.tage_taken == taken;
        match prediction.provider {
            Some(t) => {
                let e = &mut self.tagged[Self::slot(t, prediction.index)];
                e.ctr = bump3(e.ctr, taken);
                e.useful = if correct {
                    (e.useful + 1).min(3)
                } else {
                    e.useful.saturating_sub(1)
                };
            }
            None => {
                let idx = prediction.index;
                self.bimodal[idx] = bump2(self.bimodal[idx], taken);
            }
        }
        // Allocate a longer-history entry on a mispredict.
        if !correct {
            let start = prediction.provider.map_or(0, |t| t + 1);
            if start < HISTORY_LENGTHS.len() {
                self.alloc_seed = self
                    .alloc_seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1);
                let mut allocated = false;
                for t in start..HISTORY_LENGTHS.len() {
                    let idx = self.tagged_index(pc, t);
                    let tag = self.tag_of(pc, t);
                    let e = &mut self.tagged[Self::slot(t, idx)];
                    if e.useful == 0 {
                        *e = TaggedEntry {
                            tag,
                            ctr: if taken { 4 } else { 3 },
                            useful: 0,
                        };
                        allocated = true;
                        break;
                    }
                }
                if !allocated {
                    // Decay usefulness so future allocations can proceed.
                    for t in start..HISTORY_LENGTHS.len() {
                        let idx = self.tagged_index(pc, t);
                        let e = &mut self.tagged[Self::slot(t, idx)];
                        e.useful = e.useful.saturating_sub(1);
                    }
                }
            }
        }
        self.history = (self.history << 1) | u128::from(taken);
    }

    /// Folds a taken control-flow transfer into the history (calls, jumps —
    /// keeps tagged indices path-dependent like real frontends).
    pub fn note_taken_transfer(&mut self, _pc: u64) {
        self.history = (self.history << 1) | 1;
    }
}

/// Xor-fold of the low `BITS` of `h` into `OUT`-bit chunks. With both
/// parameters compile-time constants the chunked loop unrolls into a fixed
/// xor expression per (history length, output width) pair.
#[inline]
fn fold_u64<const BITS: u32, const OUT: u32>(mut h: u64) -> u64 {
    if BITS < 64 {
        h &= (1u64 << BITS) - 1;
    }
    let mask = (1u64 << OUT) - 1;
    let mut folded = 0u64;
    let mut shift = 0;
    while shift < BITS {
        folded ^= (h >> shift) & mask;
        shift += OUT;
    }
    folded
}

fn bump2(c: u8, up: bool) -> u8 {
    if up {
        (c + 1).min(3)
    } else {
        c.saturating_sub(1)
    }
}

fn bump3(c: u8, up: bool) -> u8 {
    if up {
        (c + 1).min(7)
    } else {
        c.saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_support::SimRng;

    fn accuracy(stream: impl Iterator<Item = (u64, bool)>) -> f64 {
        let mut tage = Tage::new();
        let mut correct = 0u64;
        let mut total = 0u64;
        for (pc, taken) in stream {
            let p = tage.predict(pc);
            if p.taken == taken {
                correct += 1;
            }
            tage.update(pc, taken, p);
            total += 1;
        }
        correct as f64 / total as f64
    }

    #[test]
    fn const_folds_match_generic_fold() {
        // The specialized per-table folds must agree with the generic u128
        // xor-fold for every (history length, output width) pair, over
        // arbitrary histories (including ones with bits set above bit 63 —
        // no tagged table looks that far back, so they must not leak in).
        sim_support::forall!(cases: 128, gen: |rng| {
            (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
        }, prop: |&history| {
            let mut tage = Tage::new();
            tage.history = history;
            for (table, &bits) in HISTORY_LENGTHS.iter().enumerate() {
                assert_eq!(
                    tage.fold_index(table),
                    tage.folded_history(bits, TAGGED_BITS),
                    "index fold diverged for table {table} ({bits} bits)"
                );
                assert_eq!(
                    tage.fold_tag(table),
                    tage.folded_history(bits, TAG_BITS),
                    "tag fold diverged for table {table} ({bits} bits)"
                );
            }
        });
    }

    #[test]
    fn learns_strongly_biased_branches() {
        let acc = accuracy((0..20_000u64).map(|i| (0x100 + (i % 16) * 8, true)));
        assert!(acc > 0.99, "biased accuracy {acc}");
    }

    #[test]
    fn learns_alternating_pattern_via_history() {
        // Bimodal alone is ~50% on strict alternation; tagged tables learn it.
        let acc = accuracy((0..20_000u64).map(|i| (0x400, i % 2 == 0)));
        assert!(acc > 0.95, "alternating accuracy {acc}");
    }

    #[test]
    fn learns_short_loop_trip_counts() {
        // taken x7, not-taken x1 repeating: history-correlated.
        let acc = accuracy((0..40_000u64).map(|i| (0x800, i % 8 != 7)));
        assert!(acc > 0.93, "loop accuracy {acc}");
    }

    #[test]
    fn random_branches_near_chance() {
        let mut rng = SimRng::seed_from_u64(9);
        let stream: Vec<(u64, bool)> = (0..20_000).map(|_| (0xc00, rng.gen::<bool>())).collect();
        let acc = accuracy(stream.into_iter());
        assert!((0.4..0.6).contains(&acc), "random accuracy {acc}");
    }

    #[test]
    fn mixed_workload_accuracy_is_high() {
        // A mix resembling our synthetic traces: 70% strongly biased, 20%
        // loops, 10% random.
        let mut rng = SimRng::seed_from_u64(11);
        let mut stream = Vec::new();
        for i in 0..60_000u64 {
            let class = i % 10;
            if class < 7 {
                let pc = 0x1000 + (i % 64) * 4;
                stream.push((pc, pc % 8 < 6));
            } else if class < 9 {
                stream.push((0x9000 + (i % 4) * 4, i % 6 != 5));
            } else {
                stream.push((0xf000, rng.gen::<bool>()));
            }
        }
        let acc = accuracy(stream.into_iter());
        assert!(acc > 0.9, "mixed accuracy {acc}");
    }
}
