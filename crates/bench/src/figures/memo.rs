//! The trace memo: within one process, each application trace a figure
//! asks for — keyed by (`AppSpec`, input, length) — is generated once and
//! then shared as an `Arc<PreparedTrace>` by every figure and cell that
//! asks again. DESIGN.md §14 has the full design.
//!
//! Sharing the prepared trace also shares what is built from it on first
//! use: its fetch facts (the TAGE/RAS/IBTB/I-cache outcomes every frontend
//! run replays, DESIGN.md §15) and its OPT next-use oracle.
//!
//! A trace is a pure function of its key: `AppSpec::generate` builds the
//! program from the spec and seeds its executor from the spec and the input
//! id alone, and the facts and oracle are pure functions of the trace.
//! Serving a shared copy therefore changes no byte of any figure.
//! The whole spec is compared, not its name, so two specs that share a name
//! but differ in one parameter never alias.
//!
//! The memo holds every trace until the process exits or [`reset`] runs,
//! so it is used only when a scale's whole working set fits under
//! `CAP_BYTES` (see `enabled`); larger scales generate every trace
//! afresh, as if the memo did not exist.

// simlint: allow(D03) -- guards the key list and its counts; values are pure functions of their keys
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use btb_trace::BranchRecord;
use btb_workloads::{AppSpec, InputConfig};
use thermometer::PreparedTrace;

use crate::scale::Scale;

/// The largest working set the memo may hold, in bytes.
pub(crate) const CAP_BYTES: usize = 256 << 20;

/// What one memoised record may cost at most: the branch record itself,
/// the two `u64`s it adds to the OPT oracle if it is a taken branch, and
/// its fetch facts — one byte, plus one per block fetch that missed L1I
/// (at most 1.4 per record on the built-in workloads, at any length the
/// cap admits).
const BYTES_PER_RECORD: usize =
    std::mem::size_of::<BranchRecord>() + 2 * std::mem::size_of::<u64>() + 3;

/// Whether `scale`'s working set — one train and one test trace per
/// application with their oracles and facts,
/// `apps × 2 × trace_len × BYTES_PER_RECORD` bytes — fits under
/// [`CAP_BYTES`]. At 12 apps × 10,000 records it is 10.3 MB and the memo
/// is on; at the paper's 13 apps × 2,000,000 records it is 2.2 GB and
/// every trace is generated afresh.
pub(crate) fn enabled(scale: &Scale) -> bool {
    let bytes = scale.apps.len() as u128 * 2 * scale.trace_len as u128 * BYTES_PER_RECORD as u128;
    bytes <= CAP_BYTES as u128
}

/// The memo's counts, for `grid_stats.json`. Both are deterministic: each
/// key misses exactly once, however the pool schedules its cells.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Requests served from a trace already generated (or being generated
    /// by another worker, which the request waited for).
    pub hits: u64,
    /// Requests that generated their trace.
    pub misses: u64,
    /// Memoised traces whose fetch facts were built (at most `misses`:
    /// each trace builds its facts once, however many runs replay them).
    /// Deterministic for a given set of figures, but telemetry only.
    pub facts_builds: u64,
    /// Whether the memo is on at the run's scale (`enabled`).
    pub enabled: bool,
}

/// The process-wide memo's counts since start or the last [`reset`].
pub fn stats(scale: &Scale) -> Stats {
    let inner = MEMO.lock();
    Stats {
        hits: inner.hits,
        misses: inner.misses,
        facts_builds: inner.facts_builds(),
        enabled: enabled(scale),
    }
}

/// Drops every memoised trace and zeroes the counts, so the next request
/// for each key generates it again. Tests and benches that must measure or
/// prove generation call it before each run.
pub fn reset() {
    let mut inner = MEMO.lock();
    inner.entries.clear();
    inner.hits = 0;
    inner.misses = 0;
}

/// The trace of `spec` on `input` at `scale.trace_len` records: from the
/// process-wide memo when [`enabled`], freshly generated otherwise.
pub(crate) fn trace(spec: &AppSpec, input: InputConfig, scale: &Scale) -> Arc<PreparedTrace> {
    if enabled(scale) {
        MEMO.get(spec, input, scale.trace_len)
    } else {
        Arc::new(PreparedTrace::new(spec.generate(input, scale.trace_len)))
    }
}

static MEMO: TraceMemo = TraceMemo::new();

/// One key and the slot its trace is generated into exactly once.
struct Entry {
    spec: AppSpec,
    input: InputConfig,
    len: usize,
    slot: Arc<OnceLock<Arc<PreparedTrace>>>,
}

struct Inner {
    /// A handful of keys per run (two per application), so a linear scan
    /// with `AppSpec`'s field-by-field `PartialEq` is the whole index.
    entries: Vec<Entry>,
    hits: u64,
    misses: u64,
}

impl Inner {
    fn facts_builds(&self) -> u64 {
        let built = self.entries.iter().filter_map(|e| e.slot.get());
        built.filter(|trace| trace.has_facts()).count() as u64
    }
}

struct TraceMemo {
    // simlint: allow(D03) -- held only to find or insert a key and to count; never across generation
    inner: Mutex<Inner>,
}

impl TraceMemo {
    const fn new() -> Self {
        Self {
            // simlint: allow(D03) -- see the field: a short critical section over the key list
            inner: Mutex::new(Inner {
                entries: Vec::new(),
                hits: 0,
                misses: 0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("trace memo lock poisoned")
    }

    /// The trace for the key, generated by the first request. A request
    /// that arrives while another thread generates the same key blocks in
    /// `get_or_init` until it is ready instead of generating a copy.
    /// Generation never calls into the pool, so that wait cannot deadlock,
    /// and a generation that panics leaves the slot empty for the next
    /// request to fill.
    fn get(&self, spec: &AppSpec, input: InputConfig, len: usize) -> Arc<PreparedTrace> {
        let slot = {
            let mut inner = self.lock();
            let found = inner
                .entries
                .iter()
                .find(|e| e.input == input && e.len == len && e.spec == *spec)
                .map(|e| Arc::clone(&e.slot));
            found.unwrap_or_else(|| {
                let slot = Arc::default();
                inner.entries.push(Entry {
                    spec: spec.clone(),
                    input,
                    len,
                    slot: Arc::clone(&slot),
                });
                slot
            })
        };
        // Generate outside the lock, so other keys stay servable meanwhile.
        let mut generated = false;
        let trace = Arc::clone(slot.get_or_init(|| {
            generated = true;
            Arc::new(PreparedTrace::new(spec.generate(input, len)))
        }));
        let mut inner = self.lock();
        if generated {
            inner.misses += 1;
        } else {
            inner.hits += 1;
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    const LEN: usize = 2_000;

    fn kafka() -> AppSpec {
        AppSpec::by_name("kafka").expect("built-in app")
    }

    fn counts(memo: &TraceMemo) -> (u64, u64) {
        let inner = memo.lock();
        (inner.misses, inner.hits)
    }

    #[test]
    fn repeated_key_shares_one_trace() {
        let memo = TraceMemo::new();
        let first = memo.get(&kafka(), InputConfig::input(1), LEN);
        let again = memo.get(&kafka(), InputConfig::input(1), LEN);
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(counts(&memo), (1, 1));
        assert_eq!(**first, kafka().generate(InputConfig::input(1), LEN));
    }

    #[test]
    fn every_key_field_separates_entries() {
        let memo = TraceMemo::new();
        let base = memo.get(&kafka(), InputConfig::input(0), LEN);
        let same_name = AppSpec {
            handlers: kafka().handlers + 1,
            ..kafka()
        };
        let others = [
            (same_name, InputConfig::input(0), LEN),
            (kafka(), InputConfig::input(1), LEN),
            (kafka(), InputConfig::input(0), LEN + 1),
        ];
        for (spec, input, len) in others {
            let other = memo.get(&spec, input, len);
            assert!(!Arc::ptr_eq(&base, &other), "{} {input:?} {len}", spec.name);
        }
        assert_eq!(counts(&memo), (4, 0));
    }

    #[test]
    fn concurrent_requests_for_one_key_generate_it_once() {
        const CELLS: usize = 8;
        let memo = TraceMemo::new();
        let spec = kafka();
        let start = Barrier::new(2);
        let traces: Vec<Arc<PreparedTrace>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        (0..CELLS)
                            .map(|_| memo.get(&spec, InputConfig::input(0), LEN))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("memo worker panicked"))
                .collect()
        });
        assert_eq!(counts(&memo), (1, 2 * CELLS as u64 - 1));
        assert!(traces.iter().all(|t| Arc::ptr_eq(t, &traces[0])));
    }

    #[test]
    fn cap_admits_small_scales_and_bypasses_the_paper_scale() {
        assert!(enabled(&Scale::smoke()));
        let grid = Scale {
            trace_len: 10_000,
            apps: AppSpec::all()[..12].to_vec(),
            ..Scale::smoke()
        };
        assert!(enabled(&grid), "the grid benchmark's scale");
        assert!(!enabled(&Scale::paper()));
    }
}
