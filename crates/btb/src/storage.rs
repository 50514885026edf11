//! BTB storage: bit-level accounting and the flat structure-of-arrays
//! backing store.
//!
//! The paper's iso-storage argument (§3.3–§3.4, Fig. 11) rests on bit-level
//! arithmetic: a 75 KB, 8192-entry BTB stores ~75-bit entries; adding a
//! 2-bit Thermometer hint per entry costs 2 KB (2.67%), or equivalently
//! 213 entries at constant storage (`7979 × (75+2) ≈ 8192 × 75`). This
//! module makes that accounting explicit and testable, including the entry
//! layouts that related BTB-compression work (partial tags, target deltas)
//! trades against.
//!
//! [`SoaStorage`] is the simulator-side layout: instead of a
//! `Vec<Set { Vec<Option<BtbEntry>> }>` (two pointer hops plus an `Option`
//! discriminant per way), each entry field lives in one flat array indexed
//! by `set * stride + way`. A hit scan touches one contiguous cache line of
//! PCs; fills and evictions write the parallel arrays at the same index.
//! Occupancy is a single counter per set, which is sound because resident
//! ways always form a prefix: entries are filled into the first free way,
//! replaced in place, cleared wholesale, or removed by
//! [`SoaStorage::swap_remove`], which plugs the hole with the prefix tail.
//! `tests/storage_differential.rs` pins this layout against the legacy
//! per-entry [`reference`](crate::reference) implementation.

use btb_trace::BranchKind;

use crate::{BtbEntry, Geometry};

/// Flat structure-of-arrays backing store for a set-associative BTB.
#[derive(Clone, Debug)]
pub struct SoaStorage {
    /// Slots per set row (the full-set associativity).
    stride: usize,
    sets: usize,
    /// Ways of the final set (smaller for the remainder geometry).
    last_ways: usize,
    /// Branch PCs, `pcs[set * stride + way]`; only `0..occupancy[set]` of a
    /// row is meaningful.
    pcs: Vec<u64>,
    targets: Vec<u64>,
    kinds: Vec<BranchKind>,
    hints: Vec<u8>,
    /// Resident entries per set; valid ways are exactly `0..occupancy[set]`.
    occupancy: Vec<u16>,
}

impl SoaStorage {
    /// Creates empty storage for `geometry`.
    pub fn new(geometry: &Geometry) -> Self {
        let sets = geometry.sets();
        let stride = geometry.ways();
        assert!(stride <= usize::from(u16::MAX), "associativity too large");
        let slots = sets * stride;
        Self {
            stride,
            sets,
            last_ways: geometry.ways_of(sets - 1),
            pcs: vec![0; slots],
            targets: vec![0; slots],
            kinds: vec![BranchKind::default(); slots],
            hints: vec![0; slots],
            occupancy: vec![0; sets],
        }
    }

    /// Number of ways in `set` (the final set may be the smaller remainder).
    #[inline]
    pub fn ways_of(&self, set: usize) -> usize {
        if set + 1 == self.sets {
            self.last_ways
        } else {
            self.stride
        }
    }

    /// The way holding `pc` in `set`, if resident.
    #[inline]
    pub fn find(&self, set: usize, pc: u64) -> Option<usize> {
        let base = set * self.stride;
        let occ = usize::from(self.occupancy[set]);
        // Exitless fixed-width scan for the dominant geometries (Table 1's
        // BTBs are 4- or 8-way). Scanning the whole row with a `w < occ`
        // mask is equivalent to the prefix scan: ways at or beyond `occ`
        // are excluded by the mask, and resident pcs are unique so
        // keep-last equals keep-first.
        match self.stride {
            4 if base + 4 <= self.pcs.len() => {
                Self::find_row::<4>(&self.pcs[base..base + 4], occ, pc)
            }
            8 if base + 8 <= self.pcs.len() => {
                Self::find_row::<8>(&self.pcs[base..base + 8], occ, pc)
            }
            _ => self.pcs[base..base + occ].iter().position(|&p| p == pc),
        }
    }

    #[inline(always)]
    fn find_row<const W: usize>(row: &[u64], occ: usize, pc: u64) -> Option<usize> {
        // simlint: allow(P02) -- callers slice exactly W elements (see the geometry match in find)
        let row: &[u64; W] = row.try_into().expect("row width");
        let mut hit = usize::MAX;
        for (w, &p) in row.iter().enumerate() {
            hit = if w < occ && p == pc { w } else { hit };
        }
        (hit != usize::MAX).then_some(hit)
    }

    /// Reconstructs the entry at `(set, way)`.
    ///
    /// # Panics
    ///
    /// Panics if `way` is not resident.
    #[inline]
    pub fn entry(&self, set: usize, way: usize) -> BtbEntry {
        assert!(way < usize::from(self.occupancy[set]), "way {way} empty");
        let i = set * self.stride + way;
        BtbEntry {
            pc: self.pcs[i],
            target: self.targets[i],
            kind: self.kinds[i],
            hint: self.hints[i],
        }
    }

    /// Refreshes target and hint on a hit; returns whether the cached
    /// target already matched.
    #[inline]
    pub fn rehit(&mut self, set: usize, way: usize, target: u64, hint: u8) -> bool {
        let i = set * self.stride + way;
        let matched = self.targets[i] == target;
        self.targets[i] = target;
        self.hints[i] = hint;
        matched
    }

    /// The first free way of `set`, or `None` when the set is full.
    #[inline]
    pub fn free_way(&self, set: usize) -> Option<usize> {
        let occ = usize::from(self.occupancy[set]);
        (occ < self.ways_of(set)).then_some(occ)
    }

    /// Writes `entry` into `(set, way)`, growing the resident prefix when
    /// `way` is the first free slot.
    ///
    /// # Panics
    ///
    /// Panics if `way` would leave a gap in the resident prefix.
    #[inline]
    pub fn write(&mut self, set: usize, way: usize, entry: BtbEntry) {
        let occ = usize::from(self.occupancy[set]);
        assert!(way <= occ, "write to way {way} would leave a gap");
        if way == occ {
            self.occupancy[set] = (occ + 1) as u16;
        }
        let i = set * self.stride + way;
        self.pcs[i] = entry.pc;
        self.targets[i] = entry.target;
        self.kinds[i] = entry.kind;
        self.hints[i] = entry.hint;
    }

    /// Copies the resident entries of `set` (in way order) into `buf`,
    /// reusing its capacity.
    #[inline]
    pub fn gather(&self, set: usize, buf: &mut Vec<BtbEntry>) {
        buf.clear();
        let base = set * self.stride;
        let occ = usize::from(self.occupancy[set]);
        buf.extend((base..base + occ).map(|i| BtbEntry {
            pc: self.pcs[i],
            target: self.targets[i],
            kind: self.kinds[i],
            hint: self.hints[i],
        }));
    }

    /// Removes the entry at `(set, way)`, preserving the resident-prefix
    /// invariant by moving the last resident entry of the set into the
    /// hole. Returns the way the moved entry came from (`== way` when the
    /// removed entry was the prefix tail) so the caller can relocate policy
    /// metadata the same way.
    ///
    /// # Panics
    ///
    /// Panics if `way` is not resident.
    pub fn swap_remove(&mut self, set: usize, way: usize) -> usize {
        let occ = usize::from(self.occupancy[set]);
        assert!(way < occ, "swap_remove of empty way {way}");
        let last = occ - 1;
        if way != last {
            let from = set * self.stride + last;
            let to = set * self.stride + way;
            self.pcs[to] = self.pcs[from];
            self.targets[to] = self.targets[from];
            self.kinds[to] = self.kinds[from];
            self.hints[to] = self.hints[from];
        }
        self.occupancy[set] = last as u16;
        last
    }

    /// Resident entries in `set`.
    #[inline]
    pub fn occupancy_of(&self, set: usize) -> usize {
        usize::from(self.occupancy[set])
    }

    /// Total resident entries.
    pub fn occupancy(&self) -> usize {
        self.occupancy.iter().map(|&o| usize::from(o)).sum()
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Empties every set.
    pub fn clear(&mut self) {
        self.occupancy.fill(0);
    }

    /// Per-set resident contents in way order — the shape the differential
    /// tests compare against the legacy per-entry storage.
    pub fn snapshot(&self) -> Vec<Vec<BtbEntry>> {
        (0..self.sets)
            .map(|s| {
                (0..self.occupancy_of(s))
                    .map(|w| self.entry(s, w))
                    .collect()
            })
            .collect()
    }
}

/// Bit-level layout of one BTB entry.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct EntryLayout {
    /// Tag bits stored per entry.
    pub tag_bits: u32,
    /// Target bits (full or delta-compressed).
    pub target_bits: u32,
    /// Branch-kind/metadata bits.
    pub kind_bits: u32,
    /// Replacement-policy metadata bits (LRU stamp, RRPV, ...).
    pub replacement_bits: u32,
    /// Thermometer temperature hint bits.
    pub hint_bits: u32,
}

impl EntryLayout {
    /// A layout matching the paper's 75 KB / 8192-entry baseline
    /// (≈75 bits per entry), without hints.
    pub fn paper_baseline() -> Self {
        Self {
            tag_bits: 16,
            target_bits: 46,
            kind_bits: 3,
            replacement_bits: 10,
            hint_bits: 0,
        }
    }

    /// The same layout carrying a `bits`-bit Thermometer hint.
    pub fn with_hint_bits(self, bits: u32) -> Self {
        Self {
            hint_bits: bits,
            ..self
        }
    }

    /// Total bits per entry.
    pub fn bits(&self) -> u32 {
        self.tag_bits + self.target_bits + self.kind_bits + self.replacement_bits + self.hint_bits
    }
}

/// Total storage of `entries` entries under `layout`, in bits.
pub fn total_bits(layout: EntryLayout, entries: usize) -> usize {
    layout.bits() as usize * entries
}

/// Total storage in kilobytes (1024 bytes).
pub fn total_kib(layout: EntryLayout, entries: usize) -> f64 {
    total_bits(layout, entries) as f64 / 8.0 / 1024.0
}

/// How many entries of `candidate` layout fit in the storage of `entries`
/// entries of `baseline` layout — the paper's iso-storage trade
/// (§4.2: 8192 baseline entries → 7979 hinted entries).
pub fn iso_storage_entries(baseline: EntryLayout, candidate: EntryLayout, entries: usize) -> usize {
    total_bits(baseline, entries) / candidate.bits() as usize
}

/// Relative storage overhead of adding `hint_bits` to `layout`, in percent
/// (the paper's 2.67% for 2 bits on a 75-bit entry).
pub fn hint_overhead_percent(layout: EntryLayout, hint_bits: u32) -> f64 {
    f64::from(hint_bits) / f64::from(layout.bits()) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_baseline_is_75kb() {
        let layout = EntryLayout::paper_baseline();
        assert_eq!(layout.bits(), 75);
        let kib = total_kib(layout, 8192);
        assert!((kib - 75.0).abs() < 0.01, "baseline is {kib} KiB");
    }

    #[test]
    fn two_bit_hint_costs_the_papers_overhead() {
        let layout = EntryLayout::paper_baseline();
        let pct = hint_overhead_percent(layout, 2);
        assert!((pct - 2.67).abs() < 0.01, "overhead {pct}%");
        // 2 bits x 8192 entries = 2 KiB extra, §3.4's number.
        let extra = total_kib(layout.with_hint_bits(2), 8192) - total_kib(layout, 8192);
        assert!((extra - 2.0).abs() < 0.01, "extra {extra} KiB");
    }

    #[test]
    fn iso_storage_reproduces_7979() {
        let baseline = EntryLayout::paper_baseline();
        let hinted = baseline.with_hint_bits(2);
        let entries = iso_storage_entries(baseline, hinted, 8192);
        // 8192 * 75 / 77 = 7979.2 -> 7979 entries.
        assert_eq!(entries, 7979);
        assert_eq!(crate::BtbConfig::iso_storage_7979().entries(), entries);
    }

    #[test]
    fn wider_hints_trade_more_entries() {
        let baseline = EntryLayout::paper_baseline();
        let mut prev = 8192;
        for bits in 1..=4 {
            let entries = iso_storage_entries(baseline, baseline.with_hint_bits(bits), 8192);
            assert!(entries < prev, "{bits}-bit hints must cost entries");
            prev = entries;
        }
    }

    #[test]
    fn delta_compressed_targets_buy_capacity() {
        // A BTB-X-style layout with 24-bit target deltas instead of full
        // 46-bit targets: substantially more entries at equal storage
        // (the orthogonal compression direction of the paper's §5).
        let baseline = EntryLayout::paper_baseline();
        let compressed = EntryLayout {
            target_bits: 24,
            ..baseline
        };
        let entries = iso_storage_entries(baseline, compressed, 8192);
        assert!(entries > 11_000, "compressed layout fits {entries}");
    }
}
