//! The shard supervisor behind `figures sweep` (DESIGN.md §13).
//!
//! A sweep partitions the figure list into `N` round-robin shards
//! ([`crate::shard`]), spawns one worker process per shard — the same
//! `figures` binary with `--shard i/N` — and supervises them under an
//! explicit robustness contract:
//!
//! * **heartbeat** — progress is measured by each shard's journal
//!   watermark (fsync'd line count), not by trusting the process; a worker
//!   that stops journaling for `stall_ticks` supervisor ticks is killed,
//! * **bounded restart** — a failed attempt (nonzero exit, stall, torn or
//!   incomplete journal) is retried up to `max_restarts` times with
//!   deterministic exponential backoff ([`fsio::backoff_delay_ms`]) plus
//!   PRNG jitter keyed by `(seed, shard, attempt)`, each restart resuming
//!   from the shard journal so committed figures are never recomputed,
//! * **false-success detection** — exit status 0 is *not* believed; the
//!   shard is only `Done` once a journal scan shows every owned figure
//!   committed with a matching content hash,
//! * **straggler re-dispatch** — once half the fleet is done, a shard
//!   running far past the slowest finisher (`straggler_factor`×) is
//!   killed and re-dispatched (it resumes, so only the in-flight figure
//!   is repeated), and
//! * **poison-shard quarantine + graceful degradation** — a shard that
//!   exhausts its restarts is quarantined; the sweep still merges every
//!   committed figure and emits a partial report stamped `incomplete`
//!   ([`merge::MergeOutcome::report`]) instead of aborting.
//!
//! The supervisor's *decisions* depend on wall-clock timing (which worker
//! stalls, when restarts happen) but the sweep's *output* does not: every
//! restart resumes from the fsync'd journal and cells are deterministic,
//! so the merged artifacts are byte-identical to a serial run no matter
//! how the fleet was scheduled — `tests/sweep_supervisor.rs` pins this.

use std::io;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

use sim_support::fsio;
use sim_support::SimRng;

use crate::merge::{self, MergeOutcome};
use crate::shard::{shard_ids, ShardSpec};
use crate::{journal, Scale, WorkerArgs};

/// Exit code of `figures sweep` / `figures merge` when the merged report
/// is incomplete (some figures quarantined). Distinct from usage errors
/// (2) and the injected-crash code (86).
pub const INCOMPLETE_EXIT_CODE: i32 = 3;

/// Everything a sweep needs: the worker template plus the supervisor's
/// own knobs, which mirror the `figures sweep` flags.
pub struct SweepConfig {
    /// The command line every worker is spawned from: the full canonical
    /// id list and the flags forwarded to each worker (`--threads`,
    /// `--quarantine`, `--max-retries`, `--fault-plan`, `--resume`). The
    /// supervisor sets each worker's shard, attempt, journal and stats
    /// paths itself.
    pub worker: WorkerArgs,
    /// Number of worker shards (`>= 1`).
    pub shards: usize,
    /// Directory for shard journals, stats, logs, and pid files.
    pub dir: PathBuf,
    /// Restarts granted per shard beyond the first attempt.
    pub max_restarts: u32,
    /// Supervisor tick length in milliseconds (`>= 1`).
    pub tick_ms: u64,
    /// Ticks without journal progress before a worker counts as stalled
    /// (`>= 1`).
    pub stall_ticks: u64,
    /// A running shard is a straggler once half the fleet is done and its
    /// attempt has run `straggler_factor`× the slowest finisher (`>= 2`).
    pub straggler_factor: u64,
    /// Seed for restart-backoff jitter.
    pub seed: u64,
}

impl SweepConfig {
    /// A sweep of `worker` over `shards` workers under `dir`, with the
    /// documented defaults for the supervision knobs.
    pub fn new(worker: WorkerArgs, shards: usize, dir: PathBuf) -> Self {
        SweepConfig {
            worker,
            shards,
            dir,
            max_restarts: 2,
            tick_ms: 25,
            stall_ticks: 400,
            straggler_factor: 8,
            seed: 0,
        }
    }
}

/// How one shard ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardOutcome {
    /// Every owned figure committed with a verified hash.
    Done,
    /// Retries exhausted; the sweep degraded around this shard.
    Quarantined {
        /// The last attempt's failure reason.
        reason: String,
    },
}

/// Per-shard supervision record for `sweep_stats.json` and tests.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// 1-based shard number.
    pub number: usize,
    /// Attempts consumed (1 = no restarts).
    pub attempts: u32,
    /// Terminal state.
    pub outcome: ShardOutcome,
    /// Failure reasons of non-final attempts, in order.
    pub failures: Vec<String>,
    /// Wall-clock ms from sweep start until this shard settled —
    /// operator telemetry only, never part of the merged artifacts.
    pub settled_ms: f64,
}

/// The finished sweep: merge result plus supervision forensics.
pub struct SweepReport {
    /// The reassembled serial-identical artifacts.
    pub merge: MergeOutcome,
    /// One record per shard, by number.
    pub shards: Vec<ShardReport>,
    /// Supervisor ticks elapsed.
    pub ticks: u64,
}

impl SweepReport {
    /// Whether every figure was recovered (exit 0 vs [`INCOMPLETE_EXIT_CODE`]).
    pub fn is_complete(&self) -> bool {
        self.merge.is_complete()
    }
}

enum State {
    Running {
        child: Child,
        started_tick: u64,
        watermark: usize,
        idle_ticks: u64,
    },
    Backoff {
        resume_at_tick: u64,
    },
    Done {
        elapsed_ticks: u64,
    },
    Quarantined,
}

/// Runs the whole sweep: spawn, supervise, merge. Only setup I/O errors
/// (creating the sweep dir, spawning the very binary we are running)
/// surface as `Err`; worker failures are handled by the state machine and
/// reported through the [`SweepReport`].
pub fn run_sweep(cfg: &SweepConfig, scale: &Scale) -> io::Result<SweepReport> {
    assert!(cfg.shards >= 1, "sweep needs at least one shard");
    std::fs::create_dir_all(&cfg.dir)?;

    let sweep_start = Instant::now();
    let mut states: Vec<State> = Vec::with_capacity(cfg.shards);
    // Current attempt per shard, 0-based — the same index `proc=` fault
    // entries are keyed by (`proc=2:0:die` fires on shard 2's first attempt).
    let mut attempts: Vec<u32> = vec![0; cfg.shards];
    let mut failures: Vec<Vec<String>> = vec![Vec::new(); cfg.shards];
    let mut settled_ms: Vec<f64> = vec![0.0; cfg.shards];
    for number in 1..=cfg.shards {
        let child = spawn_worker(cfg, number, 0)?;
        states.push(State::Running {
            child,
            started_tick: 0,
            watermark: 0,
            idle_ticks: 0,
        });
    }

    let mut tick: u64 = 0;
    loop {
        let done_ticks: Vec<u64> = states
            .iter()
            .filter_map(|s| match s {
                State::Done { elapsed_ticks } => Some(*elapsed_ticks),
                _ => None,
            })
            .collect();
        let slowest_done = done_ticks.iter().copied().max().unwrap_or(0);
        let half_done = done_ticks.len() * 2 >= cfg.shards;

        let mut all_settled = true;
        for idx in 0..cfg.shards {
            let number = idx + 1;
            // The failure, if any, that ends this shard's current attempt.
            let failure = match &mut states[idx] {
                State::Done { .. } | State::Quarantined => None,
                State::Backoff { resume_at_tick } => {
                    all_settled = false;
                    if tick < *resume_at_tick {
                        None
                    } else {
                        match spawn_worker(cfg, number, attempts[idx]) {
                            Ok(child) => {
                                states[idx] = State::Running {
                                    child,
                                    started_tick: tick,
                                    watermark: 0,
                                    idle_ticks: 0,
                                };
                                None
                            }
                            // Spawning our own binary failed: treat as an
                            // attempt failure, not a sweep abort.
                            Err(e) => Some(format!("spawn failed: {e}")),
                        }
                    }
                }
                State::Running {
                    child,
                    started_tick,
                    watermark,
                    idle_ticks,
                } => {
                    all_settled = false;
                    // Heartbeat: the journal watermark is the only
                    // progress signal we trust.
                    let lines =
                        fsio::read_journal_lines(&merge::shard_journal_path(&cfg.dir, number))
                            .map(|l| l.len())
                            .unwrap_or(*watermark);
                    if lines > *watermark {
                        *watermark = lines;
                        *idle_ticks = 0;
                    } else {
                        *idle_ticks += 1;
                    }

                    match child.try_wait()? {
                        // Exit 0 is a claim, not proof: verify the journal
                        // actually covers the shard.
                        Some(status) if status.success() => {
                            match verify_shard(cfg, scale, number) {
                                Ok(()) => {
                                    states[idx] = State::Done {
                                        elapsed_ticks: tick - *started_tick,
                                    };
                                    None
                                }
                                Err(reason) => Some(format!("exited 0 but {reason}")),
                            }
                        }
                        Some(status) => Some(match status.code() {
                            Some(code) => format!("exited with code {code}"),
                            None => "killed by a signal".to_owned(),
                        }),
                        None => {
                            let straggling = half_done
                                && slowest_done > 0
                                && tick - *started_tick > cfg.straggler_factor * slowest_done
                                && *idle_ticks >= cfg.stall_ticks / 2;
                            let reason = if *idle_ticks >= cfg.stall_ticks {
                                Some(format!(
                                    "stalled: no journal progress for {} tick(s)",
                                    *idle_ticks
                                ))
                            } else if straggling {
                                Some(format!(
                                    "straggler: {}x slower than the slowest finished shard",
                                    cfg.straggler_factor
                                ))
                            } else {
                                None
                            };
                            if reason.is_some() {
                                // SIGKILL; the fsync'd journal is the only
                                // state the restart needs.
                                let _ = child.kill();
                                let _ = child.wait();
                            }
                            reason
                        }
                    }
                }
            };
            if let Some(reason) = failure {
                fail_attempt(
                    cfg,
                    idx,
                    &mut states,
                    &mut attempts,
                    &mut failures,
                    tick,
                    reason,
                );
            }
        }
        // Operator telemetry: stamp newly settled shards with wall-clock.
        for idx in 0..cfg.shards {
            if settled_ms[idx] == 0.0
                && matches!(states[idx], State::Done { .. } | State::Quarantined)
            {
                settled_ms[idx] = sweep_start.elapsed().as_secs_f64() * 1e3;
            }
        }
        if all_settled {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(cfg.tick_ms));
        tick += 1;
    }

    let mut merge = merge::merge_shards(scale, &cfg.worker.ids, cfg.shards, &cfg.dir);
    let shards: Vec<ShardReport> = states
        .iter()
        .enumerate()
        .map(|(idx, state)| ShardReport {
            number: idx + 1,
            attempts: attempts[idx] + 1,
            outcome: match state {
                State::Done { .. } => ShardOutcome::Done,
                _ => ShardOutcome::Quarantined {
                    reason: failures[idx]
                        .last()
                        .cloned()
                        .unwrap_or_else(|| "unknown".to_owned()),
                },
            },
            failures: failures[idx].clone(),
            settled_ms: settled_ms[idx],
        })
        .collect();
    // Stamp supervisor context onto the gap list: "no committed figure"
    // is the scan view; the actionable reason is why the shard died.
    for m in &mut merge.missing {
        if let ShardOutcome::Quarantined { reason } = &shards[m.shard.number - 1].outcome {
            m.reason = format!(
                "shard quarantined after {} attempt(s): {reason}",
                shards[m.shard.number - 1].attempts
            );
        }
    }
    Ok(SweepReport {
        merge,
        shards,
        ticks: tick,
    })
}

/// Marks one failed attempt: quarantine if retries are exhausted, else
/// schedule a jittered-backoff restart.
fn fail_attempt(
    cfg: &SweepConfig,
    idx: usize,
    states: &mut [State],
    attempts: &mut [u32],
    failures: &mut [Vec<String>],
    tick: u64,
    reason: String,
) {
    failures[idx].push(reason);
    let attempt = attempts[idx];
    if attempt >= cfg.max_restarts {
        states[idx] = State::Quarantined;
        return;
    }
    attempts[idx] = attempt + 1;
    // Deterministic backoff + jitter: same (seed, shard, attempt), same
    // delay — restart schedules are replayable even though worker timing
    // is not.
    let base = fsio::backoff_delay_ms(attempt + 1);
    let mut rng =
        SimRng::seed_from_u64(cfg.seed ^ ((idx as u64 + 1) << 32) ^ u64::from(attempt + 1));
    let jitter = rng.gen_range(0..=base / 2);
    let delay_ticks = ((base + jitter) / cfg.tick_ms.max(1)).max(1);
    states[idx] = State::Backoff {
        resume_at_tick: tick + delay_ticks,
    };
}

/// Coverage check for an exited-0 worker: every figure the shard owns must
/// be committed in its journal with a verified content hash.
fn verify_shard(cfg: &SweepConfig, scale: &Scale, number: usize) -> Result<(), String> {
    let spec = ShardSpec {
        number,
        count: cfg.shards,
    };
    let sub = shard_ids(&cfg.worker.ids, spec);
    let fingerprint = journal::run_fingerprint(scale, &sub);
    let scan =
        merge::scan_shard_journal(&merge::shard_journal_path(&cfg.dir, number), &fingerprint)
            .map_err(|e| format!("journal scan failed: {e}"))?;
    let missing: Vec<&String> = sub.iter().filter(|id| scan.figure(id).is_none()).collect();
    if missing.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "journal is missing {} committed figure(s): {}",
            missing.len(),
            missing
                .iter()
                .map(|s| s.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        ))
    }
}

/// Spawns one worker: the current `figures` binary re-invoked from the
/// sweep's [`WorkerArgs`] template with `--shard i/N`, its own
/// journal/stats paths, and captured stdio. The worker's pid lands in
/// `shard-<i>.pid` so external tooling (the kill -9 CI stage) can target it.
fn spawn_worker(cfg: &SweepConfig, number: usize, attempt: u32) -> io::Result<Child> {
    let worker = WorkerArgs {
        shard: Some(ShardSpec {
            number,
            count: cfg.shards,
        }),
        attempt,
        journal: Some(merge::shard_journal_path(&cfg.dir, number)),
        grid_stats: Some(merge::shard_stats_path(&cfg.dir, number)),
        // Restarts always resume: committed figures replay from the journal.
        resume: attempt > 0 || cfg.worker.resume,
        ..cfg.worker.clone()
    };
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(worker.to_argv());
    let out = std::fs::File::create(
        cfg.dir
            .join(format!("shard-{number}.attempt-{attempt}.out")),
    )?;
    let log = std::fs::File::create(
        cfg.dir
            .join(format!("shard-{number}.attempt-{attempt}.log")),
    )?;
    cmd.stdin(Stdio::null())
        .stdout(Stdio::from(out))
        .stderr(Stdio::from(log));
    let child = cmd.spawn()?;
    std::fs::write(
        cfg.dir.join(format!("shard-{number}.pid")),
        format!("{}\n", child.id()),
    )?;
    Ok(child)
}

/// Writes `sweep_stats.json` under the sweep dir: per-shard attempts,
/// outcomes, and failure forensics, plus the missing-figure list.
pub fn write_sweep_stats(cfg: &SweepConfig, report: &SweepReport) -> io::Result<()> {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"shards\": {},\n", cfg.shards));
    out.push_str(&format!("  \"ticks\": {},\n", report.ticks));
    out.push_str(&format!("  \"complete\": {},\n", report.is_complete()));
    out.push_str("  \"per_shard\": [\n");
    for (i, shard) in report.shards.iter().enumerate() {
        let (outcome, reason) = match &shard.outcome {
            ShardOutcome::Done => ("done", String::new()),
            ShardOutcome::Quarantined { reason } => ("quarantined", reason.clone()),
        };
        out.push_str(&format!(
            "    {{\"shard\": {}, \"attempts\": {}, \"outcome\": \"{}\", \
             \"settled_ms\": {:.3}, \"reason\": \"{}\", \"failures\": [{}]}}{}\n",
            shard.number,
            shard.attempts,
            outcome,
            shard.settled_ms,
            fsio::json_escape(&reason),
            shard
                .failures
                .iter()
                .map(|f| format!("\"{}\"", fsio::json_escape(f)))
                .collect::<Vec<_>>()
                .join(", "),
            if i + 1 < report.shards.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"missing\": [\n");
    for (i, m) in report.merge.missing.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"shard\": \"{}\", \"reason\": \"{}\"}}{}\n",
            fsio::json_escape(&m.id),
            m.shard,
            fsio::json_escape(&m.reason),
            if i + 1 < report.merge.missing.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ]\n}\n");
    fsio::write_atomic(&cfg.dir.join("sweep_stats.json"), out.as_bytes())
}
