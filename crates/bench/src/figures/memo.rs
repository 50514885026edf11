//! The trace memo: within one process, each application trace a figure
//! asks for — keyed by (`AppSpec`, input, length) — is generated once and
//! then shared as an `Arc<PreparedTrace>` by every figure and cell that
//! asks again. DESIGN.md §14 has the full design.
//!
//! Sharing the prepared trace also shares what is built from it on first
//! use: its fetch facts (the TAGE/RAS/IBTB/I-cache outcomes every frontend
//! run replays, DESIGN.md §15), its static-branch index and its OPT
//! next-use oracle. Beside each memoised trace the memo also keeps what
//! figures recompute most from it: one OPT profile per BTB geometry
//! ([`profile`], [`hints`]) and one report per hint-free, prefetcher-free
//! zoo baseline run ([`baseline`]).
//!
//! A trace is a pure function of its key: `AppSpec::generate` builds the
//! program from the spec and seeds its executor from the spec and the input
//! id alone, and the facts, index, oracle, profiles and baseline reports
//! are pure functions of the trace and their own keys. Serving a shared
//! copy therefore changes no byte of any figure.
//! The whole spec is compared, not its name, so two specs that share a name
//! but differ in one parameter never alias.
//!
//! The memo holds every trace until the process exits or [`reset`] runs,
//! so it is used only when a scale's whole working set fits under
//! `CAP_BYTES` (see `enabled`); larger scales generate every trace
//! afresh, as if the memo did not exist, and profile and simulate it per
//! request.

use std::any::TypeId;
// simlint: allow(D03) -- guards the key lists and their counts; values are pure functions of their keys
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use btb_model::{BtbConfig, ReplacementPolicy};
use btb_trace::BranchRecord;
use btb_workloads::{AppSpec, InputConfig};
use thermometer::pipeline::Pipeline;
use thermometer::{HintTable, OptProfile, PreparedTrace};
use uarch_sim::{FrontendConfig, SimReport};

use crate::scale::Scale;

/// The largest working set the memo may hold, in bytes.
pub(crate) const CAP_BYTES: usize = 256 << 20;

/// What one memoised record may cost at most: the branch record itself,
/// the `u32` static-branch id it adds to the branch index and the `u32`
/// next use it adds to the OPT oracle if it is a taken branch, and its
/// fetch facts — one byte, plus one per block fetch that missed L1I (at
/// most 1.4 per record on the built-in workloads, at any length the cap
/// admits).
const BYTES_PER_RECORD: usize =
    std::mem::size_of::<BranchRecord>() + 2 * std::mem::size_of::<u32>() + 3;

/// The most BTB geometries the figures profile one trace under: Table 1's
/// 8K-entry 4-way BTB, the 7,979-entry iso-storage BTB (fig. 11), and
/// fig. 19's five other sizes and five other associativities.
const GEOMETRIES_PER_TRACE: usize = 12;

/// What one entry of a memoised OPT profile may cost at most: a `u64` PC
/// and its 32 bytes of `BranchCounters` in a `BTreeMap` built from sorted
/// input (full leaves, about 46 bytes an entry with node headers and the
/// internal levels).
const PROFILE_BYTES_PER_BRANCH: usize = 48;

/// What one static branch of a memoised trace may cost at most: its `u64`
/// PC in the branch index, and one profile entry per geometry.
const BYTES_PER_BRANCH: usize =
    std::mem::size_of::<u64>() + GEOMETRIES_PER_TRACE * PROFILE_BYTES_PER_BRANCH;

/// An upper bound on the static branches one trace of `spec` at `len`
/// records can hold: each record is one branch, and every branch PC is a
/// block terminator of the program or one of the request loop's three
/// branch sites.
fn static_branches(spec: &AppSpec, len: usize) -> usize {
    len.min(spec.functions * spec.blocks_per_func.1 + 3)
}

/// Whether `scale`'s working set — one train and one test trace per
/// application with their index, oracle, facts and profiles,
/// `2 × Σ_apps (trace_len × BYTES_PER_RECORD + static_branches × BYTES_PER_BRANCH)`
/// bytes — fits under [`CAP_BYTES`]. At 13 apps × 10,000 records it is
/// 161 MB and the memo is on; at the paper's 13 apps × 2,000,000 records
/// it is 2.98 GB and every trace is generated afresh.
pub(crate) fn enabled(scale: &Scale) -> bool {
    let bytes: u128 = scale
        .apps
        .iter()
        .map(|spec| {
            let records = scale.trace_len as u128 * BYTES_PER_RECORD as u128;
            let branches = static_branches(spec, scale.trace_len) as u128;
            2 * (records + branches * BYTES_PER_BRANCH as u128)
        })
        .sum();
    bytes <= CAP_BYTES as u128
}

/// The memo's counts, for `grid_stats.json`. All are deterministic: each
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
    /// OPT profiles measured for memoised traces: one per (trace, BTB
    /// geometry) key.
    pub profile_builds: u64,
    /// Baseline runs served from a report already simulated (or being
    /// simulated by another worker, which the request waited for).
    pub report_hits: u64,
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
        profile_builds: inner.profile_builds,
        report_hits: inner.report_hits,
        enabled: enabled(scale),
    }
}

/// Drops every memoised trace, profile and report and zeroes the counts,
/// so the next request for each key computes it again. Tests and benches
/// that must measure or prove generation call it before each run.
pub fn reset() {
    let mut inner = MEMO.lock();
    inner.entries.clear();
    inner.hits = 0;
    inner.misses = 0;
    inner.profile_builds = 0;
    inner.report_hits = 0;
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

/// `OptProfile::measure(trace, config)`: measured once per geometry when
/// the memo owns `trace`, per call otherwise.
pub(crate) fn profile(trace: &PreparedTrace, config: BtbConfig) -> Arc<OptProfile> {
    MEMO.profile(trace, config)
}

/// `pipeline.profile_to_hints(trace)`, classifying the [`profile`] of
/// `trace` under the pipeline's geometry.
pub(crate) fn hints(pipeline: &Pipeline, trace: &PreparedTrace) -> HintTable {
    let config = pipeline.config();
    HintTable::from_profile(&profile(trace, config.frontend.btb), &config.temperature)
}

/// `pipeline.run(trace, P::default(), None)`: simulated once per frontend
/// configuration and policy type when the memo owns `trace`, per call
/// otherwise.
///
/// The key is the policy's type, never its `name()`: two constructors of
/// one type may share a label (`Trrip::new()` and `Trrip::pinned_srrip()`
/// are both "TRRIP"), but `P::default()` is one policy.
pub(crate) fn baseline<P: ReplacementPolicy + Default + 'static>(
    pipeline: &Pipeline,
    trace: &PreparedTrace,
) -> SimReport {
    MEMO.baseline::<P>(pipeline, trace)
}

static MEMO: TraceMemo = TraceMemo::new();

/// A key's value, computed into it exactly once outside the lock.
type Slot<T> = Arc<OnceLock<T>>;

/// The slot for `key` in `slots`, inserted empty if the key is new.
fn slot_for<K: PartialEq, V>(slots: &mut Vec<(K, Slot<V>)>, key: K) -> Slot<V> {
    if let Some((_, slot)) = slots.iter().find(|(k, _)| *k == key) {
        return Arc::clone(slot);
    }
    let slot = Slot::default();
    slots.push((key, Arc::clone(&slot)));
    slot
}

/// `slot`'s value, computed by `make` if no request has yet; also whether
/// this call computed it. A request that arrives while another thread
/// computes the value blocks until it is ready instead of computing a
/// copy. Nothing a slot computes calls into the pool, so that wait cannot
/// deadlock, and a computation that panics leaves the slot empty for the
/// next request to fill.
fn fill<T: Clone>(slot: &OnceLock<T>, make: impl FnOnce() -> T) -> (T, bool) {
    let mut made = false;
    let value = slot.get_or_init(|| {
        made = true;
        make()
    });
    (value.clone(), made)
}

/// One key, the slot its trace is generated into exactly once, and the
/// trace's profile and baseline-report slots.
struct Entry {
    spec: AppSpec,
    input: InputConfig,
    len: usize,
    slot: Slot<Arc<PreparedTrace>>,
    /// One OPT profile per BTB geometry.
    profiles: Vec<(BtbConfig, Slot<Arc<OptProfile>>)>,
    /// One report per frontend configuration and baseline policy type.
    reports: Vec<((FrontendConfig, TypeId), Slot<SimReport>)>,
}

impl Entry {
    /// Whether `trace` is this entry's trace (by identity: a trace the memo
    /// did not hand out never matches, whatever its records).
    fn holds(&self, trace: &PreparedTrace) -> bool {
        self.slot.get().is_some_and(|t| std::ptr::eq(&**t, trace))
    }
}

struct Inner {
    /// A handful of keys per run (two per application), so a linear scan
    /// with `AppSpec`'s field-by-field `PartialEq` is the whole index; so
    /// are the dozen or so profiles and reports per trace.
    entries: Vec<Entry>,
    hits: u64,
    misses: u64,
    profile_builds: u64,
    report_hits: u64,
}

impl Inner {
    fn facts_builds(&self) -> u64 {
        let built = self.entries.iter().filter_map(|e| e.slot.get());
        built.filter(|trace| trace.has_facts()).count() as u64
    }
}

struct TraceMemo {
    // simlint: allow(D03) -- held only to find or insert a key and to count; never across generation, profiling or simulation
    inner: Mutex<Inner>,
}

impl TraceMemo {
    const fn new() -> Self {
        Self {
            // simlint: allow(D03) -- see the field: a short critical section over the key lists
            inner: Mutex::new(Inner {
                entries: Vec::new(),
                hits: 0,
                misses: 0,
                profile_builds: 0,
                report_hits: 0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("trace memo lock poisoned")
    }

    /// The trace for the key, generated by the first request (see [`fill`]).
    /// Generation runs outside the lock, so other keys stay servable
    /// meanwhile.
    fn get(&self, spec: &AppSpec, input: InputConfig, len: usize) -> Arc<PreparedTrace> {
        let slot = {
            let mut inner = self.lock();
            let found = inner
                .entries
                .iter()
                .find(|e| e.input == input && e.len == len && e.spec == *spec)
                .map(|e| Arc::clone(&e.slot));
            found.unwrap_or_else(|| {
                let slot = Slot::default();
                inner.entries.push(Entry {
                    spec: spec.clone(),
                    input,
                    len,
                    slot: Arc::clone(&slot),
                    profiles: Vec::new(),
                    reports: Vec::new(),
                });
                slot
            })
        };
        let (trace, generated) = fill(&slot, || {
            Arc::new(PreparedTrace::new(spec.generate(input, len)))
        });
        let mut inner = self.lock();
        if generated {
            inner.misses += 1;
        } else {
            inner.hits += 1;
        }
        trace
    }

    /// Runs `f` on the entry that holds `trace`; `None` when the memo does
    /// not own it.
    fn with_entry<R>(&self, trace: &PreparedTrace, f: impl FnOnce(&mut Entry) -> R) -> Option<R> {
        let mut inner = self.lock();
        inner.entries.iter_mut().find(|e| e.holds(trace)).map(f)
    }

    fn profile(&self, trace: &PreparedTrace, config: BtbConfig) -> Arc<OptProfile> {
        let measure = || Arc::new(OptProfile::measure(trace, config));
        let Some(slot) = self.with_entry(trace, |e| slot_for(&mut e.profiles, config)) else {
            return measure();
        };
        let (profile, built) = fill(&slot, measure);
        if built {
            self.lock().profile_builds += 1;
        }
        profile
    }

    fn baseline<P: ReplacementPolicy + Default + 'static>(
        &self,
        pipeline: &Pipeline,
        trace: &PreparedTrace,
    ) -> SimReport {
        let run = || pipeline.run(trace, P::default(), None);
        let key = (pipeline.config().frontend, TypeId::of::<P>());
        let Some(slot) = self.with_entry(trace, |e| slot_for(&mut e.reports, key)) else {
            return run();
        };
        let (report, simulated) = fill(&slot, run);
        if !simulated {
            self.lock().report_hits += 1;
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btb_model::policies::{BeladyOpt, Ghrp, GhrpConfig, Hawkeye, HawkeyeConfig, Lru, Srrip};
    use sim_support::forall;
    use std::sync::Barrier;
    use thermometer::pipeline::PipelineConfig;
    use thermometer::reference::reference_profile;

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

    fn memo_counts(memo: &TraceMemo) -> (u64, u64) {
        let inner = memo.lock();
        (inner.profile_builds, inner.report_hits)
    }

    /// Profiles the memo serves — measured on a miss, shared on a hit —
    /// equal the per-access `BTreeMap` reference field for field, over
    /// random keys of 0–3,000 records and the differential battery's
    /// geometries.
    #[test]
    fn served_profiles_equal_the_reference() {
        let apps = ["kafka", "python", "finagle-http"];
        let geometries = [
            BtbConfig::new(4, 1),
            BtbConfig::new(4, 4),
            BtbConfig::table1(),
            BtbConfig::iso_storage_7979(),
        ];
        forall!(cases: 12, gen: |rng| {
            (
                rng.gen_range(0..apps.len()),
                rng.gen_range(0u32..3),
                rng.gen_range(0usize..=3_000),
                rng.gen_range(0..geometries.len()),
            )
        }, prop: |&(app, input, len, geometry)| {
            let memo = TraceMemo::new();
            let spec = AppSpec::by_name(apps[app]).expect("built-in app");
            let trace = memo.get(&spec, InputConfig::input(input), len);
            let config = geometries[geometry];
            let measured = memo.profile(&trace, config);
            let served = memo.profile(&trace, config);
            assert!(Arc::ptr_eq(&measured, &served));
            let reference = reference_profile(&trace, config);
            assert_eq!(served.config, reference.config);
            assert_eq!(served.accesses, reference.accesses);
            assert_eq!(served.branches, reference.branches);
            assert_eq!(memo_counts(&memo), (1, 0));
        });
    }

    /// Every policy type the figures read through `baseline` reports the
    /// same with `P::default()` as with the constructor the figures called
    /// before, and the memo serves that report.
    #[test]
    fn default_baselines_equal_the_figures_constructors() {
        fn check<P: ReplacementPolicy + Default + 'static>(
            memo: &TraceMemo,
            pipeline: &Pipeline,
            trace: &PreparedTrace,
            old: P,
        ) {
            let expected = pipeline.run(trace, old, None);
            assert_eq!(pipeline.run(trace, P::default(), None), expected);
            assert_eq!(memo.baseline::<P>(pipeline, trace), expected);
            assert_eq!(memo.baseline::<P>(pipeline, trace), expected);
        }
        let memo = TraceMemo::new();
        let pipeline = Pipeline::default();
        let trace = memo.get(&kafka(), InputConfig::input(1), LEN);
        check(&memo, &pipeline, &trace, Lru::new());
        check(&memo, &pipeline, &trace, Srrip::new());
        check(&memo, &pipeline, &trace, Ghrp::new(GhrpConfig::default()));
        check(
            &memo,
            &pipeline,
            &trace,
            Hawkeye::new(HawkeyeConfig::default()),
        );
        check(&memo, &pipeline, &trace, BeladyOpt::new());
        assert_eq!(memo_counts(&memo), (0, 5), "one hit per type");
    }

    #[test]
    fn caches_key_on_geometry_frontend_and_policy_type() {
        let memo = TraceMemo::new();
        let trace = memo.get(&kafka(), InputConfig::input(0), LEN);
        memo.profile(&trace, BtbConfig::table1());
        memo.profile(&trace, BtbConfig::iso_storage_7979());
        memo.profile(&trace, BtbConfig::table1());
        assert_eq!(memo_counts(&memo), (2, 0));

        let table1 = Pipeline::default();
        let mut frontend = FrontendConfig::table1();
        frontend.timing.ftq_instructions = 64;
        let short_ftq = Pipeline::new(PipelineConfig {
            frontend,
            ..PipelineConfig::default()
        });
        let lru = memo.baseline::<Lru>(&table1, &trace);
        assert_ne!(memo.baseline::<Lru>(&short_ftq, &trace), lru);
        assert_eq!(memo.baseline::<Srrip>(&table1, &trace).label, "SRRIP");
        assert_eq!(memo_counts(&memo), (2, 0), "three keys, three misses");
        assert_eq!(memo.baseline::<Lru>(&table1, &trace), lru);
        assert_eq!(memo_counts(&memo), (2, 1));
    }

    /// A trace the memo did not hand out is profiled and simulated per
    /// call, even when its records equal a memoised trace's.
    #[test]
    fn traces_the_memo_does_not_own_compute_per_call() {
        let memo = TraceMemo::new();
        let owned = memo.get(&kafka(), InputConfig::input(0), LEN);
        let stranger = PreparedTrace::new(kafka().generate(InputConfig::input(0), LEN));
        let pipeline = Pipeline::default();
        let a = memo.profile(&stranger, BtbConfig::table1());
        let b = memo.profile(&stranger, BtbConfig::table1());
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(*a, *memo.profile(&owned, BtbConfig::table1()));
        memo.baseline::<Lru>(&pipeline, &stranger);
        memo.baseline::<Lru>(&pipeline, &stranger);
        assert_eq!(memo_counts(&memo), (1, 0), "only the owned trace counted");
    }
}
