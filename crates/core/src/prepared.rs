//! Prepared traces: a trace plus the BTB-independent artifacts every run on
//! it needs, each computed at most once.
//!
//! A [`PreparedTrace`] holds a shared [`Trace`] and lazily builds its
//! [`FetchFacts`] (TAGE/RAS/IBTB/I-cache outcomes) and [`NextUseOracle`]
//! (Belady's future knowledge) on first use. Both are pure functions of the
//! trace, so every run that reuses them reports exactly what a run that
//! built them afresh would. The [`Pipeline`](crate::Pipeline) run entry
//! points accept any [`SimInput`]: a prepared trace shares its artifacts; a
//! bare [`Trace`] has them built for the one run that needs them.

use std::borrow::Cow;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use btb_trace::{NextUseOracle, Trace};
use uarch_sim::FetchFacts;

/// A trace with its fetch facts and OPT oracle, each built on first use and
/// then shared by every run (and every thread) that asks again.
///
/// Dereferences to the [`Trace`], so it stands in wherever a `&Trace` is
/// expected.
#[derive(Debug)]
pub struct PreparedTrace {
    trace: Arc<Trace>,
    facts: OnceLock<FetchFacts>,
    oracle: OnceLock<NextUseOracle>,
}

impl PreparedTrace {
    /// Wraps `trace`; nothing is computed until a run asks for it.
    pub fn new(trace: impl Into<Arc<Trace>>) -> Self {
        Self {
            trace: trace.into(),
            facts: OnceLock::new(),
            oracle: OnceLock::new(),
        }
    }

    /// The trace's fetch facts, built by the first caller.
    pub fn facts(&self) -> &FetchFacts {
        self.facts.get_or_init(|| FetchFacts::build(&self.trace))
    }

    /// The trace's next-use oracle, built by the first caller.
    pub fn oracle(&self) -> &NextUseOracle {
        self.oracle
            .get_or_init(|| NextUseOracle::build(&self.trace))
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

    /// Its next-use oracle (for OPT).
    fn next_use_oracle(&self) -> Cow<'_, NextUseOracle>;
}

impl SimInput for Trace {
    fn as_trace(&self) -> &Trace {
        self
    }

    fn fetch_facts(&self) -> Cow<'_, FetchFacts> {
        Cow::Owned(FetchFacts::build(self))
    }

    fn next_use_oracle(&self) -> Cow<'_, NextUseOracle> {
        Cow::Owned(NextUseOracle::build(self))
    }
}

impl SimInput for PreparedTrace {
    fn as_trace(&self) -> &Trace {
        &self.trace
    }

    fn fetch_facts(&self) -> Cow<'_, FetchFacts> {
        Cow::Borrowed(self.facts())
    }

    fn next_use_oracle(&self) -> Cow<'_, NextUseOracle> {
        Cow::Borrowed(self.oracle())
    }
}

impl<T: SimInput + ?Sized> SimInput for Arc<T> {
    fn as_trace(&self) -> &Trace {
        (**self).as_trace()
    }

    fn fetch_facts(&self) -> Cow<'_, FetchFacts> {
        (**self).fetch_facts()
    }

    fn next_use_oracle(&self) -> Cow<'_, NextUseOracle> {
        (**self).next_use_oracle()
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
        assert_eq!(oracle.len(), NextUseOracle::build(&trace()).len());
        assert_eq!(prepared.len(), 5_000, "derefs to the trace");
    }

    #[test]
    fn inputs_borrow_or_build() {
        let prepared = PreparedTrace::new(trace());
        assert!(matches!(prepared.fetch_facts(), Cow::Borrowed(_)));
        // Through the `Arc<T>` impl too.
        let shared = Arc::new(PreparedTrace::new(trace()));
        assert!(matches!(shared.next_use_oracle(), Cow::Borrowed(_)));
        let bare = trace();
        assert!(matches!(bare.fetch_facts(), Cow::Owned(_)));
        assert!(matches!(bare.next_use_oracle(), Cow::Owned(_)));
    }
}
