//! The experiment cell grid: every figure's inner (app × policy × config)
//! loop, made enumerable and executed through `sim-support`'s deterministic
//! scatter/gather pool.
//!
//! A **cell** is one independent unit of a figure — typically "one
//! application through every policy of the figure's column set". Cells are
//! scattered onto [`sim_support::pool`] workers and gathered **in canonical
//! (submission) order**, so the assembled [`FigureResult`](crate::FigureResult)
//! tables are byte-identical whatever the thread count or completion order
//! (`tests/grid_parallel.rs` pins this).
//!
//! # Determinism rules
//!
//! A cell is a pure function of `(figure, cell index, scale)`: no RNG or
//! other mutable state crosses a cell boundary. Trace generation builds a
//! fresh `Executor` per `(app, input)` pair seeded from `structure_seed` +
//! `input_id` (`workloads::exec`), and the memoised traces, profiles and
//! reports are shared read-only. `tests/grid_parallel.rs` runs the cells in
//! reversed order to show the gathered results do not depend on it.
//!
//! # Observability
//!
//! Each cell records wall-time, simulated BTB accesses (reported by
//! [`note_accesses`]) and the pool queue depth at dispatch into a
//! process-wide registry; the `figures` binary drains it into
//! `results/grid_stats.json` via [`write_grid_stats`], next to the
//! [trace memo](crate::figures::memo)'s hit and miss counts.
//!
//! # Fault tolerance
//!
//! Every cell runs through one executor. By default a panicking cell
//! unwinds with its original payload and aborts the whole figure, which
//! unit tests rely on. The `figures` binary instead installs a
//! [`FaultPolicy`] with `isolate = true`: each cell then runs through
//! [`sim_support::fault::isolated`] inside its pool task, transient
//! failures are retried up to `max_retries` times (a retry reproduces the
//! clean-run result bit-for-bit because the cell is pure), poison cells are
//! recorded in the [quarantine registry](take_quarantined) and dropped from
//! the gathered output, and fatal errors still abort. The per-cell
//! [hook](set_cell_hook) fires in canonical order on the gathering thread —
//! the `figures` binary uses it to append checkpoint-journal lines.

use std::cell::Cell;
use std::path::Path;
use std::sync::Mutex; // simlint: allow(D03) -- guards the telemetry registry, drained in canonical cell order
use std::time::Instant;

use sim_support::fault::{self, FaultClass, Isolated};
use sim_support::{fsio, pool};

use crate::figures::memo;

/// Per-cell measurement, pushed to the registry in canonical order.
#[derive(Clone, Debug)]
pub struct CellStat {
    /// Figure id (`"fig11"`, `"extra-policies"`, ...).
    pub figure: String,
    /// Human label for the cell (application or trace name).
    pub label: String,
    /// Canonical index of the cell within its figure grid.
    pub index: usize,
    /// Wall-clock the cell closure took.
    pub wall_ms: f64,
    /// Simulated BTB accesses the cell reported via [`note_accesses`]
    /// (trace records pushed through generators/simulators; approximate
    /// work units, 0 when the closure reported nothing).
    pub accesses: u64,
    /// `accesses / wall`, the cell's simulation throughput.
    pub accesses_per_sec: f64,
    /// Pool jobs still queued when this cell started (0 on the serial path).
    pub queue_depth: usize,
    /// Attempts the cell took (1 unless a transient fault was retried).
    pub attempts: u32,
}

/// How `run_cells` treats a failing cell. The default (`isolate = false`)
/// propagates the first panic, exactly like the pre-fault-tolerance grid.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultPolicy {
    /// Catch per-cell panics instead of propagating them.
    pub isolate: bool,
    /// Extra attempts granted to transiently failing cells.
    pub max_retries: u32,
}

/// A cell dropped from its figure after exhausting its options: poison, or
/// transient with the retry budget spent. Recorded in `grid_stats.json`.
#[derive(Clone, Debug)]
pub struct Quarantined {
    /// Figure id the cell belonged to.
    pub figure: String,
    /// Human label for the cell.
    pub label: String,
    /// Canonical index of the cell within its figure grid.
    pub index: usize,
    /// Final failure class (never `Fatal` — fatal aborts instead).
    pub class: FaultClass,
    /// Root-cause message from the classified failure.
    pub reason: String,
    /// Attempts executed before giving up.
    pub attempts: u32,
}

/// Per-cell outcome passed to the [hook](set_cell_hook), in canonical order.
pub enum CellOutcome<'a> {
    /// The cell completed and its value was gathered.
    Completed(&'a CellStat),
    /// The cell was quarantined and its value dropped.
    Quarantined(&'a Quarantined),
}

/// Callback invoked once per gathered cell on the submitting thread.
pub type CellHook = Box<dyn Fn(CellOutcome<'_>) + Send + Sync>;

thread_local! {
    /// Simulated accesses credited to the cell running on this thread.
    static ACTIVE: Cell<Option<u64>> = const { Cell::new(None) };
    /// When set, the serial path executes cells in reverse index order —
    /// the permuted-schedule regression hook used by `tests/grid_parallel.rs`.
    static REVERSE_SERIAL: Cell<bool> = const { Cell::new(false) };
}

// simlint: allow(D03) -- wall-clock telemetry only; simulated results never read this registry
static STATS: Mutex<Vec<CellStat>> = Mutex::new(Vec::new());
// simlint: allow(D03) -- failure telemetry, pushed in canonical gather order
static QUARANTINE: Mutex<Vec<Quarantined>> = Mutex::new(Vec::new());
// simlint: allow(D03) -- run configuration, written once by the binary before the grid starts
static POLICY: Mutex<FaultPolicy> = Mutex::new(FaultPolicy {
    isolate: false,
    max_retries: 0,
});
// simlint: allow(D03) -- journal hook; invoked serially on the gathering thread only
static CELL_HOOK: Mutex<Option<CellHook>> = Mutex::new(None);

/// Installs the process-wide [`FaultPolicy`]. Takes effect on the next
/// `run_cells` call.
pub fn set_fault_policy(policy: FaultPolicy) {
    *POLICY.lock().expect("fault policy poisoned") = policy;
}

/// The currently installed [`FaultPolicy`].
pub fn fault_policy() -> FaultPolicy {
    *POLICY.lock().expect("fault policy poisoned")
}

/// Installs (or clears) the per-cell outcome hook. The grid calls it once
/// per cell, in canonical order, from the thread that called `run_cells`.
pub fn set_cell_hook(hook: Option<CellHook>) {
    *CELL_HOOK.lock().expect("cell hook poisoned") = hook;
}

/// Drains the quarantine registry (records since the last drain/reset).
pub fn take_quarantined() -> Vec<Quarantined> {
    std::mem::take(&mut *QUARANTINE.lock().expect("quarantine registry poisoned"))
}

/// Pushes an externally sourced quarantine record — used by `--resume` to
/// re-surface records recovered from the checkpoint journal so the final
/// `grid_stats.json` still names every dropped cell.
pub fn record_quarantined(record: Quarantined) {
    QUARANTINE
        .lock()
        .expect("quarantine registry poisoned")
        .push(record);
}

/// Credits `n` simulated accesses to the currently running cell. A no-op
/// outside a cell (unit tests calling figure helpers directly).
pub fn note_accesses(n: u64) {
    if let Some(accesses) = ACTIVE.get() {
        ACTIVE.set(Some(accesses + n));
    }
}

/// Runs one figure's cells through the pool and gathers results in canonical
/// order. `label` names each cell for the stats registry; `f` is the cell
/// body. With a configured thread count of 1 this is a plain serial loop.
pub fn run_cells<I, T, L, F>(figure: &str, items: &[I], label: L, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    L: Fn(&I) -> String + Sync,
    F: Fn(&I) -> T + Sync,
{
    let policy = fault_policy();
    let pool_handle = pool::handle();
    let run_one = |index: usize, attempt: u32| -> (T, CellStat) {
        // Injection checkpoint: panics with a SimError payload when the
        // installed fault plan targets this cell. No-op without a plan.
        fault::cell_attempt(figure, index, attempt);
        let queue_depth = pool_handle.as_ref().map_or(0, |p| p.queued());
        // Save/restore rather than set/clear: a worker that help-runs other
        // queued cells while one of its own waits must not lose its count.
        // An unwound attempt leaves its partial count behind, which the next
        // attempt (or the next cell on that worker) replaces wholesale.
        let previous = ACTIVE.replace(Some(0));
        let start = Instant::now();
        let value = f(&items[index]);
        let wall = start.elapsed();
        let accesses = ACTIVE.replace(previous).expect("cell context intact");
        let accesses_per_sec = if wall.as_secs_f64() > 0.0 {
            accesses as f64 / wall.as_secs_f64()
        } else {
            0.0
        };
        let stat = CellStat {
            figure: figure.to_string(),
            label: label(&items[index]),
            index,
            wall_ms: wall.as_secs_f64() * 1e3,
            accesses,
            accesses_per_sec,
            queue_depth,
            attempts: attempt + 1,
        };
        (value, stat)
    };
    // The one cell executor. Isolation turns a panic into a classified
    // SimError and retries transients; otherwise the panic unwinds with its
    // original payload, through the pool's scope, to the caller.
    let attempt = |index: usize| -> Isolated<(T, CellStat)> {
        if policy.isolate {
            fault::isolated(policy.max_retries, |attempt| run_one(index, attempt))
        } else {
            Isolated {
                result: Ok(run_one(index, 0)),
                attempts: 1,
            }
        }
    };
    let gathered: Vec<Isolated<(T, CellStat)>> = match &pool_handle {
        Some(p) => p.par_map(items, |index, _| attempt(index)),
        None => {
            let reverse = REVERSE_SERIAL.get();
            let last = items.len().saturating_sub(1);
            let mut cells: Vec<_> = (0..items.len())
                .map(|k| attempt(if reverse { last - k } else { k }))
                .collect();
            if reverse {
                cells.reverse();
            }
            cells
        }
    };

    // Gather: canonical (submission) order. The hook and the crash
    // checkpoint run here, on this thread, so journal lines and simulated
    // crash points are as deterministic as the results themselves.
    let mut values = Vec::with_capacity(gathered.len());
    for (index, cell) in gathered.into_iter().enumerate() {
        match cell.result {
            Ok((value, stat)) => {
                {
                    let hook = CELL_HOOK.lock().expect("cell hook poisoned");
                    if let Some(hook) = hook.as_ref() {
                        hook(CellOutcome::Completed(&stat));
                    }
                }
                STATS
                    .lock()
                    .expect("grid stats registry poisoned")
                    .push(stat);
                values.push(value);
            }
            Err(err) if err.class == FaultClass::Fatal => {
                // Fatal means the run is compromised; re-raise rather than
                // pretend a partial grid is a result.
                std::panic::panic_any(err);
            }
            Err(err) => {
                let record = Quarantined {
                    figure: figure.to_string(),
                    label: label(&items[index]),
                    index,
                    class: err.class,
                    reason: err.message,
                    attempts: cell.attempts,
                };
                {
                    let hook = CELL_HOOK.lock().expect("cell hook poisoned");
                    if let Some(hook) = hook.as_ref() {
                        hook(CellOutcome::Quarantined(&record));
                    }
                }
                QUARANTINE
                    .lock()
                    .expect("quarantine registry poisoned")
                    .push(record);
            }
        }
        // Crash checkpoint for `exit-after=N` fault plans.
        fault::cell_completed();
    }
    values
}

/// Runs `f` with the serial executor visiting cells in **reverse** index
/// order on this thread. Gathered output must not change — the regression
/// test for cell order-independence (and thus for state shared across cells).
pub fn with_reversed_serial_order<R>(f: impl FnOnce() -> R) -> R {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            REVERSE_SERIAL.set(false);
        }
    }
    let _reset = Reset;
    REVERSE_SERIAL.set(true);
    f()
}

/// Clears the cell-stat and quarantine registries (start of a measured run).
pub fn reset_stats() {
    STATS.lock().expect("grid stats registry poisoned").clear();
    QUARANTINE
        .lock()
        .expect("quarantine registry poisoned")
        .clear();
}

/// Drains and returns every cell stat recorded since the last reset.
pub fn take_stats() -> Vec<CellStat> {
    std::mem::take(&mut *STATS.lock().expect("grid stats registry poisoned"))
}

/// Writes the drained cell stats plus run-level context as JSON — the
/// observability artifact `results/grid_stats.json`.
pub fn write_grid_stats(
    path: &Path,
    threads: usize,
    total_wall_ms: f64,
    notes: &[String],
    cells: &[CellStat],
    quarantined: &[Quarantined],
    trace_memo: memo::Stats,
) -> std::io::Result<()> {
    let escape = fsio::json_escape;
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str(&format!("  \"total_wall_ms\": {total_wall_ms:.3},\n"));
    let cell_wall: f64 = cells.iter().map(|c| c.wall_ms).sum();
    out.push_str(&format!("  \"cell_wall_ms\": {cell_wall:.3},\n"));
    out.push_str(&format!("  \"cells_run\": {},\n", cells.len()));
    out.push_str(&format!(
        "  \"cells_quarantined\": {},\n",
        quarantined.len()
    ));
    if let Some(pool) = pool::handle() {
        let stats = pool.stats();
        out.push_str(&format!(
            "  \"pool\": {{ \"threads\": {}, \"steals\": {}, \"executed\": {}, \
             \"queue_depth_hwm\": {} }},\n",
            stats.threads, stats.steals, stats.executed, stats.depth_hwm
        ));
    }
    out.push_str(&format!(
        "  \"trace_memo\": {{ \"hits\": {}, \"misses\": {}, \"facts_builds\": {}, \
         \"profile_builds\": {}, \"report_hits\": {}, \"enabled\": {} }},\n",
        trace_memo.hits,
        trace_memo.misses,
        trace_memo.facts_builds,
        trace_memo.profile_builds,
        trace_memo.report_hits,
        trace_memo.enabled
    ));
    out.push_str("  \"notes\": [\n");
    for (i, note) in notes.iter().enumerate() {
        let comma = if i + 1 < notes.len() { "," } else { "" };
        out.push_str(&format!("    \"{}\"{comma}\n", escape(note)));
    }
    out.push_str("  ],\n");
    out.push_str("  \"quarantined\": [\n");
    for (i, q) in quarantined.iter().enumerate() {
        let comma = if i + 1 < quarantined.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{ \"figure\": \"{}\", \"label\": \"{}\", \"index\": {}, \
             \"class\": \"{}\", \"reason\": \"{}\", \"attempts\": {} }}{comma}\n",
            escape(&q.figure),
            escape(&q.label),
            q.index,
            q.class,
            escape(&q.reason),
            q.attempts
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"cells\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        let comma = if i + 1 < cells.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{ \"figure\": \"{}\", \"label\": \"{}\", \"index\": {}, \
             \"wall_ms\": {:.3}, \"accesses\": {}, \"accesses_per_sec\": {:.0}, \
             \"queue_depth\": {}, \"attempts\": {} }}{comma}\n",
            escape(&cell.figure),
            escape(&cell.label),
            cell.index,
            cell.wall_ms,
            cell.accesses,
            cell.accesses_per_sec,
            cell.queue_depth,
            cell.attempts
        ));
    }
    out.push_str("  ]\n}\n");
    // Atomic: a run killed mid-write must never leave a truncated stats file.
    fsio::write_atomic(path, out.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_gather_in_canonical_order() {
        let items: Vec<usize> = (0..12).collect();
        let out = run_cells("unit-grid", &items, |i| format!("cell{i}"), |&i| i * 3);
        assert_eq!(out, (0..12).map(|i| i * 3).collect::<Vec<_>>());
    }

    /// A pure per-index cell value that is not simply the index.
    fn mix(i: usize) -> u64 {
        (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    #[test]
    fn reversed_serial_order_gathers_identically() {
        let items: Vec<usize> = (0..9).collect();
        let forward = run_cells("unit-rev", &items, |i| i.to_string(), |&i| mix(i));
        let reversed = with_reversed_serial_order(|| {
            run_cells("unit-rev", &items, |i| i.to_string(), |&i| mix(i))
        });
        assert_eq!(forward, reversed);
    }

    /// Serializes tests that touch the process-global fault policy/plan.
    // simlint: allow(D03) -- test-only serialization of global-policy tests
    static POLICY_TESTS: Mutex<()> = Mutex::new(());

    fn policy_test_lock() -> std::sync::MutexGuard<'static, ()> {
        // A previous test may have panicked while holding the lock (that is
        // the point of the propagate test); the guard state itself is ().
        POLICY_TESTS.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Restores the default propagate-panics policy even on test failure.
    struct ResetPolicy;
    impl Drop for ResetPolicy {
        fn drop(&mut self) {
            set_fault_policy(FaultPolicy::default());
            sim_support::fault::clear();
        }
    }

    #[test]
    fn isolation_quarantines_poison_and_keeps_siblings() {
        let _lock = policy_test_lock();
        let _reset = ResetPolicy;
        set_fault_policy(FaultPolicy {
            isolate: true,
            max_retries: 1,
        });
        sim_support::fault::install(
            sim_support::FaultPlan::parse("panic=unit-iso:2:poison").unwrap(),
        );
        let items: Vec<usize> = (0..5).collect();
        let clean_minus_cell2: Vec<usize> = vec![0, 10, 30, 40];
        let out = run_cells("unit-iso", &items, |i| i.to_string(), |&i| i * 10);
        assert_eq!(out, clean_minus_cell2, "only the poison cell is dropped");
        let quarantined = take_quarantined();
        let record = quarantined
            .iter()
            .find(|q| q.figure == "unit-iso")
            .expect("quarantine recorded");
        assert_eq!(record.index, 2);
        assert_eq!(record.class, FaultClass::Poison);
        assert_eq!(record.attempts, 1, "poison is not retried");
        assert!(record.reason.contains("injected"), "{}", record.reason);
    }

    #[test]
    fn isolation_retries_transient_to_success() {
        let _lock = policy_test_lock();
        let _reset = ResetPolicy;
        set_fault_policy(FaultPolicy {
            isolate: true,
            max_retries: 1,
        });
        sim_support::fault::install(
            sim_support::FaultPlan::parse("panic=unit-retry:1:transient").unwrap(),
        );
        reset_stats();
        let items: Vec<usize> = (0..3).collect();
        let out = run_cells("unit-retry", &items, |i| i.to_string(), |&i| mix(i));
        sim_support::fault::clear();
        set_fault_policy(FaultPolicy::default());
        let clean = run_cells("unit-retry", &items, |i| i.to_string(), |&i| mix(i));
        assert_eq!(out, clean, "a retried cell reproduces its clean value");
        let stats = take_stats();
        let retried = stats
            .iter()
            .find(|s| s.figure == "unit-retry" && s.index == 1)
            .expect("retried cell recorded");
        assert_eq!(retried.attempts, 2, "one transient fault, one retry");
    }

    #[test]
    fn without_isolation_panics_still_propagate() {
        let _lock = policy_test_lock();
        let _reset = ResetPolicy;
        // simlint: allow(S03) -- asserts the default policy lets panics escape
        let result = std::panic::catch_unwind(|| {
            run_cells(
                "unit-prop",
                &[0usize, 1],
                |i| i.to_string(),
                |&i| {
                    assert!(i != 1, "cell 1 exploded");
                    i
                },
            )
        });
        assert!(result.is_err(), "default policy must propagate");
    }

    #[test]
    fn accesses_are_credited_to_the_running_cell() {
        // Shares the drained stats registry with the retry test.
        let _lock = policy_test_lock();
        reset_stats();
        let items = [10u64, 20];
        run_cells(
            "unit-acc",
            &items,
            |i| i.to_string(),
            |&n| {
                note_accesses(n);
                n
            },
        );
        let stats: Vec<CellStat> = take_stats()
            .into_iter()
            .filter(|s| s.figure == "unit-acc")
            .collect();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].accesses, 10);
        assert_eq!(stats[1].accesses, 20);
        assert_eq!(stats[0].index, 0);
    }
}
