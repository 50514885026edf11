//! The worker supervisor behind `figures supervise` (DESIGN.md §13).
//!
//! The supervisor runs the ordinary figure pipeline in one child process
//! (the same `figures` binary, spawned from a [`WorkerArgs`]) and keeps it
//! to an explicit robustness contract:
//!
//! * **heartbeat** — progress is the length of the worker's fsync'd
//!   journal, not anything the process says; a worker whose journal does
//!   not change for `stall_ms` is killed,
//! * **bounded restart** — a failed attempt (nonzero exit, signal, stall,
//!   or an exit 0 the journal does not back) is retried up to
//!   `max_restarts` times after a deterministic [`fsio::backoff_delay_ms`],
//!   each restart resuming from the journal so committed figures are
//!   never recomputed,
//! * **false-success detection** — exit status 0 is *not* believed; the
//!   run is complete only once [`Journal::load`] finds every figure
//!   committed with a matching content hash, and
//! * **graceful degradation** — once restarts run out, the caller renders
//!   the committed figures in a report stamped `incomplete`.
//!
//! Timing decides when the supervisor acts, never what the run outputs:
//! the caller renders every byte from the verified journal, which
//! [`Journal::load`] keeps canonical, so stdout, report and journal are
//! byte-identical to a serial run however often the worker restarted —
//! `tests/sweep_supervisor.rs` pins this.

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use sim_support::fsio;

use crate::journal::{self, Loaded};
use crate::{Journal, Scale, WorkerArgs};

/// Exit code of `figures supervise` when the report is incomplete (the
/// worker ran out of restarts). Distinct from usage errors (2) and the
/// injected-crash code (86).
pub const INCOMPLETE_EXIT_CODE: i32 = 3;

/// How often the supervisor polls its worker and the journal.
const TICK: Duration = Duration::from_millis(25);

/// Everything a supervised run needs: the worker command line plus the
/// supervisor's own knobs, which mirror the `figures supervise` flags.
pub struct Supervisor {
    /// The command line every attempt is spawned from: the canonical id
    /// list, the journal and the forwarded worker flags. The supervisor
    /// sets each attempt's `--attempt`, and `--resume` after the first.
    pub worker: WorkerArgs,
    /// Restarts granted beyond the first attempt.
    pub max_restarts: u32,
    /// Milliseconds without journal progress before the worker counts as
    /// stalled and is killed (`>= 1`).
    pub stall_ms: u64,
}

/// The finished run: the verified journal's figures and the attempt log.
pub struct Supervised {
    /// The committed figures, in canonical order.
    pub loaded: Loaded,
    /// Requested figures the journal does not hold, in canonical order;
    /// empty when the run completed.
    pub missing: Vec<String>,
    /// Why each failed attempt failed, in order.
    pub failures: Vec<String>,
    /// Attempts made (1 = no restarts).
    pub attempts: u32,
}

/// A file beside `journal`: `<journal>.<suffix>`. The supervisor's pid
/// file, per-attempt logs and `supervise.json` live there.
pub fn beside(journal: &Path, suffix: &str) -> PathBuf {
    let mut name = journal.as_os_str().to_owned();
    name.push(format!(".{suffix}"));
    name.into()
}

/// Supervises the worker until its journal covers every figure or its
/// restarts run out. Only a failure to create the journal's directory or
/// to poll the worker surfaces as `Err`; worker failures are recorded in
/// the [`Supervised`] result.
pub fn supervise(cfg: &Supervisor, scale: &Scale) -> io::Result<Supervised> {
    let path = cfg
        .worker
        .journal
        .clone()
        .expect("figures supervise sets the worker's --journal");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let journal = Journal::new(&path);
    let fingerprint = journal::run_fingerprint(scale, &cfg.worker.ids);
    let stall = Duration::from_millis(cfg.stall_ms);
    let mut failures = Vec::new();
    let mut attempt = 0;
    let (loaded, missing) = loop {
        // The arm drops the worker, which reaps it; the journal then has
        // one owner again, and load cuts it back to its trusted commits.
        let ended = match Worker::spawn(cfg, &path, attempt) {
            Ok(mut worker) => worker.watch(&path, stall)?,
            Err(e) => Err(format!("spawn failed: {e}")),
        };
        let loaded = journal
            .load(&fingerprint)
            .unwrap_or_else(|e| {
                eprintln!("supervise: cannot read journal {}: {e}", path.display());
                None
            })
            .unwrap_or_default();
        let missing: Vec<String> = cfg
            .worker
            .ids
            .iter()
            .filter(|id| loaded.figure(id).is_none())
            .cloned()
            .collect();
        let failure = match ended {
            Ok(()) if missing.is_empty() => break (loaded, missing),
            Ok(()) => format!(
                "exited 0 but the journal is missing {} committed figure(s): {}",
                missing.len(),
                missing.join(", ")
            ),
            Err(reason) => reason,
        };
        eprintln!("supervise: attempt {attempt} failed: {failure}");
        failures.push(failure);
        if attempt >= cfg.max_restarts {
            break (loaded, missing);
        }
        attempt += 1;
        std::thread::sleep(Duration::from_millis(fsio::backoff_delay_ms(attempt)));
    };
    // The worker is reaped; a stale pid must not lead anyone to kill a
    // process that reused it.
    let _ = std::fs::remove_file(beside(&path, "pid"));
    Ok(Supervised {
        loaded,
        missing,
        failures,
        attempts: attempt + 1,
    })
}

/// A running worker attempt. Dropping it kills and reaps the process, so
/// no path out of the supervisor leaves a worker behind.
struct Worker(Child);

impl Worker {
    /// Spawns attempt `attempt`: the current `figures` binary re-invoked
    /// from the supervisor's [`WorkerArgs`], with stdout and stderr in
    /// `<journal>.attempt-<K>.log` and its pid in `<journal>.pid`, where
    /// external tooling (the kill -9 CI stage) can find it.
    fn spawn(cfg: &Supervisor, journal: &Path, attempt: u32) -> io::Result<Worker> {
        let args = WorkerArgs {
            attempt,
            // Restarts always resume: committed figures replay from the journal.
            resume: attempt > 0 || cfg.worker.resume,
            ..cfg.worker.clone()
        };
        let log = std::fs::File::create(beside(journal, &format!("attempt-{attempt}.log")))?;
        let worker = Worker(
            Command::new(std::env::current_exe()?)
                .args(args.to_argv())
                .stdin(Stdio::null())
                .stdout(log.try_clone()?)
                .stderr(log)
                .spawn()?,
        );
        std::fs::write(beside(journal, "pid"), format!("{}\n", worker.0.id()))?;
        Ok(worker)
    }

    /// Waits for the attempt to end: `Ok` on exit 0, otherwise the reason
    /// it failed. A worker whose journal stands still for `stall` is
    /// killed.
    fn watch(&mut self, journal: &Path, stall: Duration) -> io::Result<Result<(), String>> {
        let len = || std::fs::metadata(journal).map_or(0, |m| m.len());
        let mut watermark = len();
        let mut progressed = Instant::now();
        loop {
            if let Some(status) = self.0.try_wait()? {
                return Ok(match status.code() {
                    Some(0) => Ok(()),
                    Some(code) => Err(format!("exited with code {code}")),
                    None => Err("killed by a signal".to_owned()),
                });
            }
            // Heartbeat: the journal's length is the only progress signal
            // trusted. Any change counts, as a resuming worker first cuts
            // the journal back.
            let now = len();
            if now != watermark {
                watermark = now;
                progressed = Instant::now();
            } else if progressed.elapsed() >= stall {
                return Ok(Err(format!(
                    "stalled: no journal progress for {} ms",
                    stall.as_millis()
                )));
            }
            std::thread::sleep(TICK);
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        // SIGKILL; the fsync'd journal is the only state a restart needs.
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Writes the run's attempts, failures and missing figures as JSON to
/// `path` (`<journal>.supervise.json`).
pub fn write_stats(path: &Path, run: &Supervised) -> io::Result<()> {
    let strings = |items: &[String]| {
        items
            .iter()
            .map(|s| format!("\"{}\"", fsio::json_escape(s)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let out = format!(
        "{{\n  \"attempts\": {},\n  \"complete\": {},\n  \"failures\": [{}],\n  \
         \"missing\": [{}]\n}}\n",
        run.attempts,
        run.missing.is_empty(),
        strings(&run.failures),
        strings(&run.missing)
    );
    fsio::write_atomic(path, out.as_bytes())
}
