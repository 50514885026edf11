//! Prepared traces: a trace plus the BTB-independent artifacts every run on
//! it needs, each computed at most once.
//!
//! A [`PreparedTrace`] holds a shared [`Trace`] and lazily builds its
//! [`FetchFacts`] (TAGE/RAS/IBTB/I-cache outcomes), its [`BranchIndex`]
//! (a dense id per static branch) and the [`NextUseOracle`] over that index
//! (Belady's future knowledge) on first use. All three are pure functions
//! of the trace, so every run or profile that reuses them reports exactly
//! what one that built them afresh would. The [`Pipeline`](crate::Pipeline)
//! run and profile entry points accept any [`SimInput`]: a prepared trace
//! shares its artifacts; a bare [`Trace`] has them built for the one call
//! that needs them.

use std::borrow::Cow;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use btb_trace::{BranchIndex, NextUseOracle, Trace};
use uarch_sim::FetchFacts;

/// A trace with its fetch facts, branch index and OPT oracle, each built on
/// first use and then shared by every run (and every thread) that asks
/// again.
///
/// Dereferences to the [`Trace`], so it stands in wherever a `&Trace` is
/// expected.
#[derive(Debug)]
pub struct PreparedTrace {
    trace: Arc<Trace>,
    facts: OnceLock<FetchFacts>,
    index: OnceLock<BranchIndex>,
    oracle: OnceLock<NextUseOracle>,
}

impl PreparedTrace {
    /// Wraps `trace`; nothing is computed until a run asks for it.
    pub fn new(trace: impl Into<Arc<Trace>>) -> Self {
        Self {
            trace: trace.into(),
            facts: OnceLock::new(),
            index: OnceLock::new(),
            oracle: OnceLock::new(),
        }
    }

    /// The trace's fetch facts, built by the first caller.
    pub fn facts(&self) -> &FetchFacts {
        self.facts.get_or_init(|| FetchFacts::build(&self.trace))
    }

    /// The trace's static-branch index, built by the first caller.
    pub fn index(&self) -> &BranchIndex {
        self.index.get_or_init(|| BranchIndex::build(&self.trace))
    }

    /// The trace's next-use oracle, built from [`index`](Self::index) by
    /// the first caller.
    pub fn oracle(&self) -> &NextUseOracle {
        self.oracle
            .get_or_init(|| NextUseOracle::from_index(self.index()))
    }

    /// Whether the fetch facts have been built.
    pub fn has_facts(&self) -> bool {
        self.facts.get().is_some()
    }
}

impl Deref for PreparedTrace {
    type Target = Trace;

    fn deref(&self) -> &Trace {
        &self.trace
    }
}

/// A trace to simulate, with a source for its BTB-independent artifacts.
///
/// [`PreparedTrace`] lends the ones it has memoised; a bare [`Trace`]
/// stores none, so each run on it builds its own.
pub trait SimInput {
    /// The trace itself.
    fn as_trace(&self) -> &Trace;

    /// Its fetch facts.
    fn fetch_facts(&self) -> Cow<'_, FetchFacts>;

    /// Its static-branch index and the next-use oracle built over it (for
    /// OPT runs and profiles).
    fn indexed_oracle(&self) -> (Cow<'_, BranchIndex>, Cow<'_, NextUseOracle>);
}

impl SimInput for Trace {
    fn as_trace(&self) -> &Trace {
        self
    }

    fn fetch_facts(&self) -> Cow<'_, FetchFacts> {
        Cow::Owned(FetchFacts::build(self))
    }

    fn indexed_oracle(&self) -> (Cow<'_, BranchIndex>, Cow<'_, NextUseOracle>) {
        let index = BranchIndex::build(self);
        let oracle = NextUseOracle::from_index(&index);
        (Cow::Owned(index), Cow::Owned(oracle))
    }
}

impl SimInput for PreparedTrace {
    fn as_trace(&self) -> &Trace {
        &self.trace
    }

    fn fetch_facts(&self) -> Cow<'_, FetchFacts> {
        Cow::Borrowed(self.facts())
    }

    fn indexed_oracle(&self) -> (Cow<'_, BranchIndex>, Cow<'_, NextUseOracle>) {
        (Cow::Borrowed(self.index()), Cow::Borrowed(self.oracle()))
    }
}

impl<T: SimInput + ?Sized> SimInput for Arc<T> {
    fn as_trace(&self) -> &Trace {
        (**self).as_trace()
    }

    fn fetch_facts(&self) -> Cow<'_, FetchFacts> {
        (**self).fetch_facts()
    }

    fn indexed_oracle(&self) -> (Cow<'_, BranchIndex>, Cow<'_, NextUseOracle>) {
        (**self).indexed_oracle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btb_workloads::{AppSpec, InputConfig};

    fn trace() -> Trace {
        AppSpec::by_name("kafka")
            .unwrap()
            .generate(InputConfig::input(0), 5_000)
    }

    #[test]
    fn artifacts_are_built_once_and_equal_fresh_ones() {
        let prepared = PreparedTrace::new(trace());
        assert!(!prepared.has_facts());
        let facts = prepared.facts();
        assert!(std::ptr::eq(facts, prepared.facts()), "built once");
        assert_eq!(*facts, FetchFacts::build(&trace()));
        assert!(prepared.has_facts());
        let oracle = prepared.oracle();
        assert!(std::ptr::eq(oracle, prepared.oracle()), "built once");
        assert_eq!(*oracle, NextUseOracle::build(&trace()));
        let index = prepared.index();
        assert!(std::ptr::eq(index, prepared.index()), "built once");
        assert_eq!(*index, BranchIndex::build(&trace()));
        assert_eq!(prepared.len(), 5_000, "derefs to the trace");
    }

    #[test]
    fn inputs_borrow_or_build() {
        let prepared = PreparedTrace::new(trace());
        assert!(matches!(prepared.fetch_facts(), Cow::Borrowed(_)));
        // Through the `Arc<T>` impl too.
        let shared = Arc::new(PreparedTrace::new(trace()));
        assert!(matches!(
            shared.indexed_oracle(),
            (Cow::Borrowed(_), Cow::Borrowed(_))
        ));
        let bare = trace();
        assert!(matches!(bare.fetch_facts(), Cow::Owned(_)));
        assert!(matches!(
            bare.indexed_oracle(),
            (Cow::Owned(_), Cow::Owned(_))
        ));
    }
}
