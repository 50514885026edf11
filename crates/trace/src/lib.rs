//! Branch-trace model for the Thermometer reproduction.
//!
//! A [`Trace`] is an ordered sequence of [`BranchRecord`]s, each describing
//! one dynamic execution of a branch instruction: its PC, resolved target,
//! [`BranchKind`], direction, and the number of sequential (non-branch)
//! instructions executed since the previous record. This mirrors the
//! information Intel PT provides in the paper (§3.1): per-branch direction
//! plus indirect targets, with enough context to reconstruct the dynamic
//! basic-block stream.
//!
//! The crate also provides:
//!
//! * compact binary and human-readable text codecs ([`codec`]),
//! * summary statistics over a trace ([`stats`]),
//! * the static-branch index ([`index`]): a dense `u32` id per taken
//!   access, so per-branch state can live in flat arrays,
//! * the next-use oracle ([`next_use`]) shared by Belady's OPT policy and
//!   Hawkeye's OPTgen, built over the index,
//! * the pre-index hashing oracle build, kept as a differential-test
//!   reference ([`reference`]).
//!
//! # Examples
//!
//! ```
//! use btb_trace::{BranchKind, BranchRecord, Trace};
//!
//! let mut trace = Trace::new("demo");
//! trace.push(BranchRecord::taken(0x400100, 0x400200, BranchKind::CondDirect, 3));
//! trace.push(BranchRecord::not_taken(0x400204, BranchKind::CondDirect, 1));
//! assert_eq!(trace.len(), 2);
//! assert_eq!(trace.instruction_count(), 2 + 3 + 1);
//! ```

pub mod codec;
pub mod index;
pub mod next_use;
pub mod record;
pub mod reference;
pub mod stats;

pub use codec::{
    read_binary, read_binary_batched, read_branch_index, write_binary, BatchReader, CodecError,
};
pub use index::BranchIndex;
pub use next_use::NextUseOracle;
pub use record::{BranchKind, BranchRecord};
pub use stats::{BranchSummary, TraceStats};

/// An ordered sequence of dynamic branch executions, with a name.
///
/// The name identifies the workload ("cassandra", "cbp5_017", ...) and is
/// carried through codecs and reports.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    name: String,
    records: Vec<BranchRecord>,
}

impl Trace {
    /// Creates an empty trace with the given workload name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            records: Vec::new(),
        }
    }

    /// Creates an empty trace with room for `capacity` records.
    pub fn with_capacity(name: impl Into<String>, capacity: usize) -> Self {
        Self {
            name: name.into(),
            records: Vec::with_capacity(capacity),
        }
    }

    /// Creates a trace from pre-collected records.
    pub fn from_records(name: impl Into<String>, records: Vec<BranchRecord>) -> Self {
        Self {
            name: name.into(),
            records,
        }
    }

    /// The workload name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the trace (used when deriving input variants).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Appends one dynamic branch execution.
    pub fn push(&mut self, record: BranchRecord) {
        self.records.push(record);
    }

    /// Number of dynamic branch records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace contains no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records in execution order.
    pub fn records(&self) -> &[BranchRecord] {
        &self.records
    }

    /// Iterates over records in execution order.
    pub fn iter(&self) -> std::slice::Iter<'_, BranchRecord> {
        self.records.iter()
    }

    /// Total dynamic instruction count implied by the trace: every record is
    /// one branch instruction preceded by `inst_gap` sequential instructions.
    pub fn instruction_count(&self) -> u64 {
        self.records.iter().map(|r| 1 + u64::from(r.inst_gap)).sum()
    }

    /// Iterates over only the taken-branch records (the BTB access stream).
    pub fn taken(&self) -> impl Iterator<Item = &BranchRecord> + '_ {
        self.records.iter().filter(|r| r.taken)
    }

    /// Truncates the trace to at most `len` records.
    pub fn truncate(&mut self, len: usize) {
        self.records.truncate(len);
    }

    /// Releases spare capacity, so the trace holds exactly its records.
    pub fn shrink_to_fit(&mut self) {
        self.records.shrink_to_fit();
    }
}

impl Extend<BranchRecord> for Trace {
    fn extend<T: IntoIterator<Item = BranchRecord>>(&mut self, iter: T) {
        self.records.extend(iter);
    }
}

impl FromIterator<BranchRecord> for Trace {
    fn from_iter<T: IntoIterator<Item = BranchRecord>>(iter: T) -> Self {
        Self {
            name: String::new(),
            records: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a BranchRecord;
    type IntoIter = std::slice::Iter<'a, BranchRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

impl IntoIterator for Trace {
    type Item = BranchRecord;
    type IntoIter = std::vec::IntoIter<BranchRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new("t");
        t.push(BranchRecord::taken(0x10, 0x20, BranchKind::CondDirect, 4));
        t.push(BranchRecord::not_taken(0x24, BranchKind::CondDirect, 0));
        t.push(BranchRecord::taken(0x28, 0x40, BranchKind::UncondDirect, 2));
        t
    }

    #[test]
    fn instruction_count_includes_gaps_and_branches() {
        assert_eq!(sample().instruction_count(), (3 + 4) + 2);
    }

    #[test]
    fn taken_filters_not_taken() {
        let t = sample();
        let pcs: Vec<u64> = t.taken().map(|r| r.pc).collect();
        assert_eq!(pcs, vec![0x10, 0x28]);
    }

    #[test]
    fn extend_and_collect_roundtrip() {
        let t = sample();
        let mut u: Trace = t.records().iter().copied().collect();
        u.set_name("u");
        assert_eq!(u.records(), t.records());
        let mut v = Trace::new("v");
        v.extend(t.records().iter().copied());
        assert_eq!(v.records(), t.records());
    }

    #[test]
    fn truncate_shortens() {
        let mut t = sample();
        t.truncate(1);
        assert_eq!(t.len(), 1);
        t.truncate(10);
        assert_eq!(t.len(), 1);
    }
}
