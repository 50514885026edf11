//! The hashing next-use oracle build, kept verbatim as the oracle for the
//! index differential tests.
//!
//! [`ReferenceOracle`] is [`NextUseOracle`](crate::NextUseOracle) as it was
//! before the [`BranchIndex`](crate::BranchIndex): one backward pass that
//! hashes every access's PC into a "last seen" map and stores a `u64` PC
//! and a `u64` next use per access. Its value is that the control flow is
//! trivially auditable, so the differential tests can require the indexed
//! oracle to report the same next use for every access. Do not "improve"
//! this module; change the indexed oracle and let the differential battery
//! prove the change behavior-preserving.

use sim_support::DetHashMap;

use crate::next_use::NEVER;
use crate::Trace;

/// The PC-hashing next-use oracle (differential-test oracle).
#[derive(Clone, Debug)]
pub struct ReferenceOracle {
    /// `pcs[i]` is the branch PC of the i-th taken-branch access.
    pcs: Vec<u64>,
    /// `next[i]` is the access index of the next access to `pcs[i]`, or
    /// [`NEVER`].
    next: Vec<u64>,
}

impl ReferenceOracle {
    /// Builds the oracle in a single backward pass over `trace`'s taken
    /// branches.
    pub fn build(trace: &Trace) -> Self {
        let pcs: Vec<u64> = trace.taken().map(|r| r.pc).collect();
        let mut next = vec![NEVER; pcs.len()];
        // Lookup-only (never iterated).
        let mut last_seen: DetHashMap<u64, u64> = DetHashMap::default();
        for (i, &pc) in pcs.iter().enumerate().rev() {
            if let Some(&later) = last_seen.get(&pc) {
                next[i] = later;
            }
            last_seen.insert(pc, i as u64);
        }
        Self { pcs, next }
    }

    /// Number of accesses (taken branches) in the stream.
    pub fn len(&self) -> usize {
        self.pcs.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.pcs.is_empty()
    }

    /// The access index of the next access to the same PC after access `i`,
    /// or [`NEVER`].
    pub fn next_use(&self, i: usize) -> u64 {
        self.next[i]
    }
}
