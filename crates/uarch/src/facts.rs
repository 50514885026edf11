//! Fetch facts: everything a frontend run learns from the trace alone.
//!
//! TAGE, the RAS, the IBTB and the instruction-cache hierarchy never read
//! the BTB, the replacement policy, the hint table or the timing model:
//! their state after record `i` is a function of records `0..=i` only.
//! [`FetchFacts::build`] therefore runs them once per trace and records
//! what the frontend needs from them, and [`Frontend::replay`] re-reads
//! those facts under any BTB, policy, hint table or timing configuration.
//! DESIGN.md §15 walks through why each structure is BTB-independent.
//!
//! The layout is compact — one byte per record plus one byte per block
//! fetch that missed L1I — so facts can be kept next to the trace they
//! describe and shared by every run on it.
//!
//! [`Frontend::replay`]: crate::Frontend::replay

use btb_trace::{BranchKind, Trace};

use crate::cache::{HitLevel, InstrHierarchy, BLOCK_BYTES};
use crate::ibtb::Ibtb;
use crate::ras::Ras;
use crate::tage::Tage;

/// Per-record flag: TAGE mispredicted this conditional branch's direction.
const MISPREDICT: u8 = 1 << 7;
/// Per-record flag: the IBTB (indirect) or RAS (return) target prediction
/// for this taken branch is wrong or absent.
const TARGET_MISS: u8 = 1 << 6;
/// Low bits of the per-record byte: the record's non-L1 block count.
const COUNT_MASK: u8 = TARGET_MISS - 1;
/// Count value meaning "too many to store inline; see `long_counts`".
const LONG_COUNT: u8 = COUNT_MASK;

/// The BTB-independent outcomes of one trace's frontend run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FetchFacts {
    /// One byte per record: the [`MISPREDICT`] and [`TARGET_MISS`] flags,
    /// and in the low bits how many of its block fetches missed L1I.
    records: Vec<u8>,
    /// The hit level of every block fetch that missed L1I, in walk order.
    levels: Vec<HitLevel>,
    /// In record order, the non-L1 block counts of the records whose count
    /// does not fit the inline bits (stored inline as [`LONG_COUNT`]).
    long_counts: Vec<u32>,
    l1i_misses: u64,
    l2i_misses: u64,
    llc_misses: u64,
}

impl FetchFacts {
    /// Runs TAGE, the RAS, the IBTB and the Table 1 instruction hierarchy
    /// over `trace` once, from cold state, exactly as a frontend run
    /// drives them.
    pub fn build(trace: &Trace) -> Self {
        let mut tage = Tage::new();
        let mut ras = Ras::table1();
        let mut ibtb = Ibtb::table1();
        let mut icache = InstrHierarchy::table1();
        let mut records = Vec::with_capacity(trace.len());
        let mut levels = Vec::new();
        let mut long_counts = Vec::new();
        for r in trace.records() {
            // --- I-cache walk over the record's instruction range ---
            let walked = levels.len();
            let start = r.pc.saturating_sub(u64::from(r.inst_gap) * 4);
            let mut block = start / BLOCK_BYTES;
            let last_block = r.pc / BLOCK_BYTES;
            while block <= last_block {
                let level = icache.fetch_block(block);
                block += 1;
                if level != HitLevel::L1 {
                    levels.push(level);
                }
            }
            let missed = levels.len() - walked;
            let mut fact = match u8::try_from(missed) {
                Ok(n) if n < LONG_COUNT => n,
                _ => {
                    long_counts.push(u32::try_from(missed).expect("block walk fits in u32"));
                    LONG_COUNT
                }
            };

            // --- Direction prediction ---
            if r.kind.is_conditional() {
                let pred = tage.predict(r.pc);
                if pred.taken != r.taken {
                    fact |= MISPREDICT;
                }
                tage.update(r.pc, r.taken, pred);
            } else {
                tage.note_taken_transfer(r.pc);
            }

            // --- Target prediction (taken branches only) ---
            if r.taken {
                match r.kind {
                    BranchKind::IndirectJump | BranchKind::IndirectCall => {
                        if ibtb.predict(r.pc) != Some(r.target) {
                            fact |= TARGET_MISS;
                        }
                        ibtb.update(r.pc, r.target);
                    }
                    BranchKind::Return => {
                        let predicted = ras.pop();
                        if predicted != Some(r.target) {
                            fact |= TARGET_MISS;
                        }
                    }
                    _ => {}
                }
                if r.kind.is_call() {
                    ras.push(r.pc + 4);
                }
            }
            records.push(fact);
        }
        levels.shrink_to_fit();
        long_counts.shrink_to_fit();
        Self {
            records,
            levels,
            long_counts,
            l1i_misses: icache.l1i.misses,
            l2i_misses: icache.l2.misses,
            llc_misses: icache.llc.misses,
        }
    }

    /// Records described (the trace's length).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the facts describe an empty trace.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// L1I demand misses over the whole trace.
    pub fn l1i_misses(&self) -> u64 {
        self.l1i_misses
    }

    /// L2 instruction misses over the whole trace.
    pub fn l2i_misses(&self) -> u64 {
        self.l2i_misses
    }

    /// LLC instruction misses over the whole trace.
    pub fn llc_misses(&self) -> u64 {
        self.llc_misses
    }

    /// The facts record by record, in trace order.
    pub(crate) fn iter(&self) -> FactIter<'_> {
        FactIter {
            records: self.records.iter(),
            levels: &self.levels,
            long_counts: self.long_counts.iter(),
        }
    }
}

/// One record's prediction flags.
#[derive(Copy, Clone, Debug)]
pub(crate) struct RecordFlags(u8);

impl RecordFlags {
    /// TAGE mispredicted the direction (conditional branches only).
    #[inline]
    pub(crate) fn mispredicted(self) -> bool {
        self.0 & MISPREDICT != 0
    }

    /// The IBTB/RAS target prediction misses (taken indirects and returns
    /// only).
    #[inline]
    pub(crate) fn target_missed(self) -> bool {
        self.0 & TARGET_MISS != 0
    }
}

/// A [`FetchFacts`] read back record by record, in trace order.
pub(crate) struct FactIter<'a> {
    records: std::slice::Iter<'a, u8>,
    levels: &'a [HitLevel],
    long_counts: std::slice::Iter<'a, u32>,
}

impl FactIter<'_> {
    /// The next record's facts: calls `on_miss` with the hit level of each
    /// of its block fetches that missed L1I, in walk order, and returns its
    /// flags.
    #[inline]
    pub(crate) fn next_facts(&mut self, on_miss: impl FnMut(HitLevel)) -> RecordFlags {
        let fact = self.records.next().copied().unwrap_or(0);
        let count = match fact & COUNT_MASK {
            LONG_COUNT => self.long_counts.next().copied().unwrap_or(0) as usize,
            n => usize::from(n),
        };
        let (misses, rest) = self.levels.split_at(count);
        self.levels = rest;
        misses.iter().copied().for_each(on_miss);
        RecordFlags(fact & !COUNT_MASK)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btb_trace::BranchRecord;

    /// Each record's (mispredicted, target missed, non-L1 block count).
    fn read_back(facts: &FetchFacts) -> Vec<(bool, bool, usize)> {
        let mut iter = facts.iter();
        (0..facts.len())
            .map(|_| {
                let mut misses = 0;
                let flags = iter.next_facts(|_| misses += 1);
                (flags.mispredicted(), flags.target_missed(), misses)
            })
            .collect()
    }

    #[test]
    fn one_byte_per_record_and_per_missed_block() {
        let mut trace = Trace::new("cold");
        for i in 0..1_000u64 {
            // Each record spans two fresh blocks.
            trace.push(BranchRecord::taken(
                0x10_0000 + i * 128 + 64,
                0x10_0000 + (i + 1) * 128,
                BranchKind::UncondDirect,
                16,
            ));
        }
        let facts = FetchFacts::build(&trace);
        assert_eq!(facts.len(), 1_000);
        assert_eq!(facts.l1i_misses(), 2_000);
        assert_eq!((facts.records.len(), facts.levels.len()), (1_000, 2_000));
        assert_eq!(std::mem::size_of::<HitLevel>(), 1);
        assert!(read_back(&facts).iter().all(|(_, _, n)| *n == 2));
    }

    #[test]
    fn long_block_walks_escape_the_inline_count() {
        let mut trace = Trace::new("long");
        let gaps = [0u32, 1_000, 7, 4_000];
        for (i, &gap) in gaps.iter().enumerate() {
            let pc = 0x100_0000 * (i as u64 + 1);
            trace.push(BranchRecord::taken(
                pc,
                pc + 64,
                BranchKind::UncondDirect,
                gap,
            ));
        }
        let facts = FetchFacts::build(&trace);
        let counts: Vec<usize> = read_back(&facts).iter().map(|f| f.2).collect();
        // Every block is cold: from a block-aligned pc, a gap of g
        // instructions reaches back ceil(4g / 64) blocks.
        assert_eq!(counts, vec![1, 64, 2, 251]);
        assert_eq!(facts.long_counts, vec![64, 251]);
        assert_eq!(facts.l1i_misses(), 318);
    }

    #[test]
    fn flags_follow_the_predictors() {
        let mut trace = Trace::new("flags");
        // An empty RAS mispredicts the first return; a pushed call fixes
        // the second.
        trace.push(BranchRecord::taken(0x2010, 0x1004, BranchKind::Return, 0));
        trace.push(BranchRecord::taken(
            0x1000,
            0x2000,
            BranchKind::DirectCall,
            0,
        ));
        trace.push(BranchRecord::taken(0x2010, 0x1004, BranchKind::Return, 0));
        // A cold IBTB misses; a not-taken indirect is never predicted.
        trace.push(BranchRecord::taken(
            0x3000,
            0x4000,
            BranchKind::IndirectJump,
            0,
        ));
        trace.push(BranchRecord {
            taken: false,
            ..BranchRecord::taken(0x3000, 0x5000, BranchKind::IndirectJump, 0)
        });
        let facts = FetchFacts::build(&trace);
        let target: Vec<bool> = read_back(&facts).iter().map(|f| f.1).collect();
        assert_eq!(target, vec![true, false, false, true, false]);
        assert!(read_back(&facts).iter().all(|f| !f.0));
    }
}
