//! Static-branch index over the taken-branch (BTB access) stream.
//!
//! Every consumer of the access stream that keys state by branch PC — the
//! next-use oracle, the OPT profiler — needs the same mapping from a PC to
//! "which static branch is this". [`BranchIndex`] interns each taken
//! branch's PC once, in first-appearance order, so those consumers can keep
//! their per-branch state in flat arrays indexed by a dense `u32` id
//! instead of hashing or tree-walking a PC on every access.
//! [`read_branch_index`](crate::read_branch_index) interns a trace file's
//! taken branches the same way, straight from the decoder's batches.

use sim_support::DetHashMap;

use crate::Trace;

/// Dense static-branch ids for the taken-branch stream of a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BranchIndex {
    /// `ids[i]` is the static-branch id of the i-th taken-branch access.
    ids: Vec<u32>,
    /// `pcs[id]` is the branch PC of static branch `id`; ids are assigned
    /// in order of first appearance.
    pcs: Vec<u64>,
}

impl BranchIndex {
    /// Interns `trace`'s taken branches in a single forward pass.
    ///
    /// # Panics
    ///
    /// Panics if the trace has `u32::MAX` or more taken branches (ids and
    /// access positions are stored as `u32`, with `u32::MAX` reserved).
    ///
    /// # Examples
    ///
    /// ```
    /// use btb_trace::{BranchIndex, BranchKind, BranchRecord, Trace};
    ///
    /// let mut t = Trace::new("i");
    /// for pc in [0x10u64, 0x20, 0x10] {
    ///     t.push(BranchRecord::taken(pc, 0x100, BranchKind::UncondDirect, 0));
    /// }
    /// t.push(BranchRecord::not_taken(0x30, BranchKind::CondDirect, 0));
    /// let index = BranchIndex::build(&t);
    /// assert_eq!(index.ids(), &[0, 1, 0]);
    /// assert_eq!(index.pcs(), &[0x10, 0x20]);
    /// ```
    pub fn build(trace: &Trace) -> Self {
        let mut interner = Interner::with_capacity(trace.taken().count());
        trace.taken().for_each(|r| interner.push(r.pc));
        interner.finish()
    }

    /// Number of accesses (taken branches) in the stream.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of distinct static branches (the id range is `0..branches()`).
    pub fn branches(&self) -> usize {
        self.pcs.len()
    }

    /// The static-branch id of every access, in access order.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// The PC of every static branch, indexed by id.
    pub fn pcs(&self) -> &[u64] {
        &self.pcs
    }
}

/// Builds a [`BranchIndex`] one taken-branch PC at a time, so a decoder
/// can intern a trace file's branches without keeping its records.
pub(crate) struct Interner {
    ids: Vec<u32>,
    pcs: Vec<u64>,
    /// Lookup-only (never iterated): ids come from `pcs.len()`, so the
    /// numbering is first-appearance order whatever the hasher does.
    by_pc: DetHashMap<u64, u32>,
}

impl Interner {
    /// An empty interner with room for `accesses` accesses.
    pub(crate) fn with_capacity(accesses: usize) -> Self {
        Self {
            ids: Vec::with_capacity(accesses),
            pcs: Vec::new(),
            by_pc: DetHashMap::default(),
        }
    }

    /// Interns the next access, a taken branch at `pc`.
    #[inline]
    pub(crate) fn push(&mut self, pc: u64) {
        let pcs = &mut self.pcs;
        let id = *self.by_pc.entry(pc).or_insert_with(|| {
            pcs.push(pc);
            (pcs.len() - 1) as u32
        });
        self.ids.push(id);
    }

    /// The index of the accesses pushed so far.
    ///
    /// # Panics
    ///
    /// Panics if `u32::MAX` or more accesses were pushed.
    pub(crate) fn finish(self) -> BranchIndex {
        let accesses = self.ids.len();
        assert!(
            accesses < u32::MAX as usize,
            "{accesses} taken branches overflow the u32 access index"
        );
        BranchIndex {
            ids: self.ids,
            pcs: self.pcs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BranchKind, BranchRecord};
    use sim_support::forall;

    /// Every access's id maps back to its own PC, and ids are dense and
    /// numbered in first-appearance order.
    #[test]
    fn prop_ids_round_trip_to_pcs() {
        forall!(cases: 64, gen: |rng| {
            let len = rng.gen_range(0usize..96);
            (0..len)
                .map(|_| (rng.gen_range(0u64..24), rng.gen_range(0u32..3) > 0))
                .collect::<Vec<(u64, bool)>>()
        }, shrink: sim_support::forall::shrink_halves, prop: |records| {
            let mut t = Trace::new("t");
            for &(pc, taken) in records {
                t.push(if taken {
                    BranchRecord::taken(pc, pc + 0x40, BranchKind::CondDirect, 0)
                } else {
                    BranchRecord::not_taken(pc, BranchKind::CondDirect, 0)
                });
            }
            let index = BranchIndex::build(&t);
            let pcs: Vec<u64> = t.taken().map(|r| r.pc).collect();
            assert_eq!(index.len(), pcs.len());
            let mut next_new = 0u32;
            for (&id, &pc) in index.ids().iter().zip(&pcs) {
                assert_eq!(index.pcs()[id as usize], pc);
                assert!(id <= next_new, "ids are numbered in first-appearance order");
                next_new = next_new.max(id + 1);
            }
            assert_eq!(index.branches(), next_new as usize);
        });
    }
}
