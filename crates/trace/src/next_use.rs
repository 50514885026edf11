//! Next-use oracle over the taken-branch (BTB access) stream.
//!
//! Belady's OPT replacement evicts the entry whose *next use* is furthest in
//! the future; Hawkeye's OPTgen and the Thermometer profiler both replay OPT
//! offline. All of them consume the same precomputed oracle: for access `i`
//! in the taken-branch stream, the position of the next access to the same
//! static branch (or "never").

use crate::{BranchIndex, Trace};

/// Sentinel access position meaning "this branch is never taken again".
pub const NEVER: u64 = u64::MAX;

/// [`NEVER`] as stored: access positions fit in `u32` (see
/// [`BranchIndex::build`]), so `u32::MAX` is never a real position.
const NEVER_U32: u32 = u32::MAX;

/// Precomputed next-use positions for the taken-branch stream of a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NextUseOracle {
    /// `next[i]` is the access index of the next access to the same static
    /// branch as access `i`, or `NEVER_U32`.
    next: Vec<u32>,
}

impl NextUseOracle {
    /// Builds the oracle for `trace`: interns its branches into a
    /// [`BranchIndex`] and runs [`from_index`](Self::from_index) over it.
    ///
    /// # Examples
    ///
    /// ```
    /// use btb_trace::{next_use::NEVER, BranchKind, BranchRecord, NextUseOracle, Trace};
    ///
    /// let mut t = Trace::new("o");
    /// for pc in [0x10u64, 0x20, 0x10] {
    ///     t.push(BranchRecord::taken(pc, 0x100, BranchKind::UncondDirect, 0));
    /// }
    /// let oracle = NextUseOracle::build(&t);
    /// assert_eq!(oracle.next_use(0), 2);      // 0x10 recurs at access 2
    /// assert_eq!(oracle.next_use(1), NEVER);  // 0x20 never recurs
    /// ```
    pub fn build(trace: &Trace) -> Self {
        Self::from_index(&BranchIndex::build(trace))
    }

    /// Builds the oracle in a single backward pass over `index`'s ids,
    /// with one "last seen" slot per static branch: array indexing only.
    pub fn from_index(index: &BranchIndex) -> Self {
        let mut next = vec![NEVER_U32; index.len()];
        let mut last_seen = vec![NEVER_U32; index.branches()];
        for (i, &id) in index.ids().iter().enumerate().rev() {
            let last = &mut last_seen[id as usize];
            next[i] = *last;
            *last = i as u32;
        }
        Self { next }
    }

    /// Number of accesses (taken branches) in the stream.
    pub fn len(&self) -> usize {
        self.next.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.next.is_empty()
    }

    /// The access index of the next access to the same branch after access
    /// `i`, or [`NEVER`].
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn next_use(&self, i: usize) -> u64 {
        match self.next[i] {
            NEVER_U32 => NEVER,
            later => u64::from(later),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ReferenceOracle;
    use crate::{BranchKind, BranchRecord};
    use sim_support::forall;

    fn trace_of(pcs: &[u64]) -> Trace {
        let mut t = Trace::new("t");
        for &pc in pcs {
            t.push(BranchRecord::taken(
                pc,
                pc + 0x100,
                BranchKind::UncondDirect,
                0,
            ));
        }
        t
    }

    #[test]
    fn not_taken_branches_are_excluded() {
        let mut t = trace_of(&[0x10]);
        t.push(BranchRecord::not_taken(0x10, BranchKind::CondDirect, 0));
        t.push(BranchRecord::taken(0x10, 0x110, BranchKind::CondDirect, 0));
        let o = NextUseOracle::build(&t);
        assert_eq!(o.len(), 2);
        assert_eq!(o.next_use(0), 1);
    }

    #[test]
    fn chains_link_in_order() {
        let o = NextUseOracle::build(&trace_of(&[1, 2, 1, 3, 2, 1]));
        assert_eq!(o.next_use(0), 2);
        assert_eq!(o.next_use(2), 5);
        assert_eq!(o.next_use(5), NEVER);
        assert_eq!(o.next_use(1), 4);
        assert_eq!(o.next_use(4), NEVER);
        assert_eq!(o.next_use(3), NEVER);
    }

    /// next_use(i) is always the minimal j > i with pcs[j] == pcs[i]
    /// (oracle vs. brute-force forward scan over the trace's own pcs), and
    /// equals the hashing reference build.
    #[test]
    fn prop_next_use_is_minimal() {
        forall!(cases: 64, gen: |rng| {
            let len = rng.gen_range(0usize..64);
            (0..len).map(|_| rng.gen_range(0u64..16)).collect::<Vec<u64>>()
        }, shrink: sim_support::forall::shrink_halves, prop: |pcs| {
            let trace = trace_of(pcs);
            let o = NextUseOracle::build(&trace);
            let reference = ReferenceOracle::build(&trace);
            assert_eq!(o.len(), pcs.len());
            for i in 0..o.len() {
                let expected = (i + 1..pcs.len())
                    .find(|&j| pcs[j] == pcs[i])
                    .map_or(NEVER, |j| j as u64);
                assert_eq!(o.next_use(i), expected);
                assert_eq!(o.next_use(i), reference.next_use(i));
            }
        });
    }
}
