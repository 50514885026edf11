//! Regenerates the paper's figures.
//!
//! ```text
//! figures all                  # every figure, prints tables
//! figures fig11 fig12          # specific figures
//! figures all --markdown out.md  # also write a Markdown report
//! figures all --threads 8      # scatter cells over 8 workers
//! figures all --quarantine --max-retries 1   # survive bad cells
//! figures all --resume         # splice in work from a crashed run
//! figures sweep all --shards 4 --dir results/sweep   # fleet of workers
//! figures merge all --shards 4 --dir results/sweep   # recombine only
//! ```
//!
//! Scale knobs: `THERMO_TRACE_LEN`, `THERMO_CBP_COUNT`, `THERMO_CBP_LEN`,
//! `THERMO_IPC1_COUNT`, `THERMO_IPC1_LEN`, `THERMO_APPS` (see `Scale`).
//! Thread count: `--threads N` or `SIM_THREADS` (default: available
//! parallelism; 1 = serial). Output is byte-identical at any width; per-cell
//! wall-time/throughput observability lands in `results/grid_stats.json`
//! (override with `--grid-stats <path>`).
//!
//! Fault tolerance (see DESIGN.md §9): every run checkpoints completed
//! figures into `results/grid_journal.jsonl` (`--journal <path>` to move
//! it). `--quarantine` isolates panicking cells — they are dropped from
//! their figure and recorded in `grid_stats.json` instead of aborting the
//! run; `--max-retries N` grants transiently failing cells N extra
//! attempts. `--resume` replays journaled figures byte-for-byte and
//! recomputes only the rest. `--fault-plan <spec>` injects deterministic
//! faults (see `sim_support::fault`) — the crash-resume CI stage uses it.
//!
//! Sharded sweeps (DESIGN.md §13): `figures sweep` partitions the figure
//! list into `--shards N` round-robin shards, runs one supervised worker
//! process per shard, and merges the shard journals into output
//! byte-identical to a serial run — stamped `incomplete` (exit 3) when a
//! poison shard exhausted its restarts. A worker is this same binary with
//! `--shard i/N --attempt K`. `figures sweep --fault-plan <spec>` checks
//! the spec before spawning anything and forwards it to every worker,
//! which arms the `proc=` entry for its own `(shard, attempt)`: a
//! deterministic process-level fault. `figures merge` recombines existing
//! shard journals without spawning anything.

use std::time::Instant;

use sim_support::{fault, fsio, pool, FaultPlan};
use thermometer_bench::figures::memo;
use thermometer_bench::{
    figure_by_id, grid, journal, merge, sweep, Journal, Scale, ShardSpec, SweepConfig, FIGURE_IDS,
};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("sweep") => {
            args.remove(0);
            run_sweep_cli(args);
        }
        Some("merge") => {
            args.remove(0);
            run_merge_cli(args);
        }
        _ => run_worker(args),
    }
}

/// Shared flag state for the `sweep` and `merge` subcommands.
struct SweepArgs {
    ids: Vec<String>,
    shards: usize,
    dir: String,
    markdown: Option<String>,
    journal_out: String,
    cfg_mut: Vec<(String, String)>,
}

fn parse_sweep_args(args: Vec<String>, merge_only: bool) -> SweepArgs {
    let mut parsed = SweepArgs {
        ids: Vec::new(),
        shards: 0,
        dir: concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/sweep").to_owned(),
        markdown: None,
        journal_out: concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/grid_journal.jsonl"
        )
        .to_owned(),
        cfg_mut: Vec::new(),
    };
    let mut iter = args.into_iter();
    let take = |iter: &mut std::vec::IntoIter<String>, flag: &str| {
        iter.next()
            .unwrap_or_else(|| usage(&format!("missing value after {flag}")))
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--shards" => {
                parsed.shards = take(&mut iter, "--shards")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --shards"));
            }
            "--dir" => parsed.dir = take(&mut iter, "--dir"),
            "--markdown" => parsed.markdown = Some(take(&mut iter, "--markdown")),
            "--journal" => parsed.journal_out = take(&mut iter, "--journal"),
            "--threads" | "--max-retries" | "--fault-plan" | "--max-restarts" | "--tick-ms"
            | "--stall-ticks" | "--straggler-factor" | "--seed"
                if !merge_only =>
            {
                let value = take(&mut iter, &arg);
                parsed.cfg_mut.push((arg, value));
            }
            "--quarantine" | "--resume" if !merge_only => {
                parsed.cfg_mut.push((arg, String::new()));
            }
            "--help" | "-h" => usage(""),
            other if other.starts_with("--") => usage(&format!("unknown flag {other}")),
            other => parsed.ids.push(other.to_owned()),
        }
    }
    if parsed.ids.is_empty() {
        usage("no figures requested");
    }
    if parsed.ids.iter().any(|id| id == "all") {
        parsed.ids = FIGURE_IDS.iter().map(|s| s.to_string()).collect();
    }
    if parsed.shards == 0 {
        usage("sweep/merge need --shards N (>= 1)");
    }
    parsed
}

fn run_sweep_cli(args: Vec<String>) -> ! {
    let parsed = parse_sweep_args(args, false);
    let mut cfg = SweepConfig::new(
        parsed.ids.clone(),
        parsed.shards,
        std::path::PathBuf::from(&parsed.dir),
    );
    for (flag, value) in &parsed.cfg_mut {
        let parse_u64 = || -> u64 {
            value
                .parse()
                .unwrap_or_else(|_| usage(&format!("bad {flag}")))
        };
        match flag.as_str() {
            "--threads" => cfg.worker_threads = Some(parse_u64() as usize),
            "--quarantine" => cfg.quarantine = true,
            "--max-retries" => cfg.max_retries = parse_u64() as u32,
            "--fault-plan" => {
                // Validate up front so a typo fails the sweep, not the fleet.
                FaultPlan::parse(value).unwrap_or_else(|e| usage(&e));
                cfg.fault_plan = Some(value.clone());
            }
            "--max-restarts" => cfg.max_restarts = parse_u64() as u32,
            "--tick-ms" => cfg.tick_ms = parse_u64().max(1),
            "--stall-ticks" => cfg.stall_ticks = parse_u64().max(1),
            "--straggler-factor" => cfg.straggler_factor = parse_u64().max(2),
            "--resume" => cfg.resume = true,
            "--seed" => cfg.seed = parse_u64(),
            _ => unreachable!("parse_sweep_args vetted the flag list"),
        }
    }
    let scale = scale_from_env();
    eprintln!(
        "sweep: {} figure(s) over {} shard(s) under {}",
        cfg.ids.len(),
        cfg.shards,
        parsed.dir
    );
    let report = sweep::run_sweep(&cfg, &scale).unwrap_or_else(|e| {
        eprintln!("sweep setup failed: {e}");
        std::process::exit(1);
    });
    for shard in &report.shards {
        match &shard.outcome {
            sweep::ShardOutcome::Done => eprintln!(
                "shard {}/{}: done in {} attempt(s)",
                shard.number, cfg.shards, shard.attempts
            ),
            sweep::ShardOutcome::Quarantined { reason } => eprintln!(
                "shard {}/{}: QUARANTINED after {} attempt(s): {reason}",
                shard.number, cfg.shards, shard.attempts
            ),
        }
    }
    if let Err(e) = sweep::write_sweep_stats(&cfg, &report) {
        eprintln!("failed to write sweep_stats.json: {e}");
    }
    emit_merge_outputs(
        &report.merge,
        &scale,
        parsed.markdown.as_deref(),
        &parsed.journal_out,
    );
}

fn run_merge_cli(args: Vec<String>) -> ! {
    let parsed = parse_sweep_args(args, true);
    let scale = scale_from_env();
    let outcome = merge::merge_shards(
        &scale,
        &parsed.ids,
        parsed.shards,
        std::path::Path::new(&parsed.dir),
    );
    emit_merge_outputs(
        &outcome,
        &scale,
        parsed.markdown.as_deref(),
        &parsed.journal_out,
    );
}

/// Prints the merged display, writes the merged journal and optional
/// markdown report, then exits: 0 when complete, 3 when degraded.
fn emit_merge_outputs(
    outcome: &merge::MergeOutcome,
    scale: &Scale,
    markdown: Option<&str>,
    journal_out: &str,
) -> ! {
    print!("{}", outcome.display);
    let journal_path = std::path::Path::new(journal_out);
    if let Err(e) = fsio::write_atomic(journal_path, outcome.journal_bytes().as_bytes()) {
        eprintln!("failed to write {journal_out}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {journal_out}");
    if let Some(path) = markdown {
        let report = outcome.report(scale);
        if let Err(e) = fsio::write_atomic_retry(std::path::Path::new(path), report.as_bytes(), 3) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
    if outcome.is_complete() {
        std::process::exit(0);
    }
    for m in &outcome.missing {
        eprintln!("missing: {} (shard {}): {}", m.id, m.shard, m.reason);
    }
    eprintln!(
        "merge incomplete: {} figure(s) missing; report stamped incomplete",
        outcome.missing.len()
    );
    std::process::exit(sweep::INCOMPLETE_EXIT_CODE);
}

fn run_worker(args: Vec<String>) {
    let mut ids: Vec<String> = Vec::new();
    let mut markdown_path: Option<String> = None;
    let mut grid_stats_path =
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/grid_stats.json").to_owned();
    let mut journal_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/grid_journal.jsonl"
    )
    .to_owned();
    let mut resume = false;
    let mut quarantine = false;
    let mut max_retries: u32 = 0;
    let mut fault_plan: Option<FaultPlan> = None;
    let mut shard: Option<ShardSpec> = None;
    let mut attempt: u32 = 0;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--markdown" => {
                markdown_path = Some(
                    iter.next()
                        .unwrap_or_else(|| usage("missing path after --markdown")),
                );
            }
            "--threads" => {
                let n: usize = iter
                    .next()
                    .unwrap_or_else(|| usage("missing count after --threads"))
                    .parse()
                    .unwrap_or_else(|_| usage("bad --threads"));
                if n == 0 {
                    usage("--threads must be >= 1");
                }
                pool::set_threads(n);
            }
            "--grid-stats" => {
                grid_stats_path = iter
                    .next()
                    .unwrap_or_else(|| usage("missing path after --grid-stats"));
            }
            "--journal" => {
                journal_path = iter
                    .next()
                    .unwrap_or_else(|| usage("missing path after --journal"));
            }
            "--resume" => resume = true,
            "--quarantine" => quarantine = true,
            "--max-retries" => {
                max_retries = iter
                    .next()
                    .unwrap_or_else(|| usage("missing count after --max-retries"))
                    .parse()
                    .unwrap_or_else(|_| usage("bad --max-retries"));
            }
            "--fault-plan" => {
                let spec = iter
                    .next()
                    .unwrap_or_else(|| usage("missing spec after --fault-plan"));
                fault_plan = Some(FaultPlan::parse(&spec).unwrap_or_else(|e| usage(&e)));
            }
            "--shard" => {
                let spec = iter
                    .next()
                    .unwrap_or_else(|| usage("missing i/N after --shard"));
                shard = Some(ShardSpec::parse(&spec).unwrap_or_else(|e| usage(&e)));
            }
            "--attempt" => {
                attempt = iter
                    .next()
                    .unwrap_or_else(|| usage("missing index after --attempt"))
                    .parse()
                    .unwrap_or_else(|_| usage("bad --attempt"));
            }
            "--help" | "-h" => usage(""),
            other => ids.push(other.to_owned()),
        }
    }
    if ids.is_empty() {
        usage("no figures requested");
    }
    if ids.iter().any(|id| id == "all") {
        ids = FIGURE_IDS.iter().map(|s| s.to_string()).collect();
    }
    // Shard filtering happens after `all` expansion so every worker sees
    // the same canonical list. An empty shard (more shards than figures)
    // is legal: the worker journals its header and exits cleanly.
    if let Some(spec) = shard {
        ids = thermometer_bench::shard::shard_ids(&ids, spec);
        eprintln!("shard {spec}: {} figure(s)", ids.len());
    }

    if let Some(plan) = fault_plan {
        fault::install(plan);
        let number = shard.map_or(1, |s| s.number) as u64;
        let journal = std::path::PathBuf::from(&journal_path);
        if let Some(armed) = fault::arm(number, attempt, journal) {
            eprintln!(
                "process fault armed: {} after {} cell(s) (shard {number}, attempt {attempt})",
                armed.kind.name(),
                armed.after_cells
            );
        }
    }
    if quarantine {
        grid::set_fault_policy(grid::FaultPolicy {
            isolate: true,
            max_retries,
        });
        // Quarantined cells report through grid_stats.json; the default
        // multi-line panic hook would only drown the run log.
        fault::silence_injected_panics();
    }

    let scale = scale_from_env();
    let threads = pool::configured_threads();
    eprintln!(
        "scale: {} records/app, {} apps, cbp {}x{}, ipc1 {}x{}, {} thread{}",
        scale.trace_len,
        scale.apps.len(),
        scale.cbp_count,
        scale.cbp_len,
        scale.ipc1_count,
        scale.ipc1_len,
        threads,
        if threads == 1 { " (serial)" } else { "s" }
    );

    // Checkpoint journal: resume loads it, everything else starts fresh.
    let fingerprint = journal::run_fingerprint(&scale, &ids);
    let journal = Journal::new(&journal_path);
    let replayed = if resume {
        match journal.load(&fingerprint) {
            Ok(Some(loaded)) => {
                eprintln!(
                    "resume: {} figure(s) replayed from {journal_path}",
                    loaded.figures.len()
                );
                loaded
            }
            Ok(None) => {
                eprintln!("resume: no usable journal at {journal_path}; starting fresh");
                if let Err(e) = journal.start(&fingerprint) {
                    eprintln!("cannot start journal {journal_path}: {e}");
                }
                journal::Loaded::default()
            }
            Err(e) => {
                eprintln!("cannot read journal {journal_path}: {e}; starting fresh");
                if let Err(e) = journal.start(&fingerprint) {
                    eprintln!("cannot start journal {journal_path}: {e}");
                }
                journal::Loaded::default()
            }
        }
    } else {
        if let Err(e) = journal.start(&fingerprint) {
            eprintln!("cannot start journal {journal_path}: {e}");
        }
        journal::Loaded::default()
    };

    // Every settled cell appends one fsync'd journal line, in canonical
    // order, from the gathering thread.
    {
        let hook_journal = Journal::new(&journal_path);
        grid::set_cell_hook(Some(Box::new(move |outcome| {
            if let Err(e) = hook_journal.append_cell(&outcome) {
                eprintln!("journal append failed: {e}");
            }
        })));
    }

    grid::reset_stats();
    for q in &replayed.quarantined {
        // Re-surface quarantine records of replayed figures so a resumed
        // run's grid_stats.json still names every dropped cell.
        grid::record_quarantined(q.clone());
    }
    let run_start = Instant::now();

    let mut replayed_count = 0usize;
    let mut sections: Vec<String> = Vec::new();
    for id in &ids {
        if let Some(figure) = replayed.figure(id) {
            print!("{}", figure.display);
            sections.push(figure.markdown.clone());
            replayed_count += 1;
            eprintln!("[{id} replayed from journal]");
            continue;
        }
        let start = Instant::now();
        match figure_by_id(id, &scale) {
            Some(figs) => {
                let mut display = String::new();
                let mut markdown = String::new();
                for fig in figs {
                    display.push_str(&format!("{fig}\n"));
                    markdown.push_str(&fig.to_markdown());
                }
                print!("{display}");
                sections.push(markdown.clone());
                if let Err(e) = journal.append_figure(id, &display, &markdown) {
                    eprintln!("journal commit failed for {id}: {e}");
                }
                eprintln!("[{id} done in {:.1?}]", start.elapsed());
            }
            None => {
                eprintln!("unknown figure id: {id} (known: {})", FIGURE_IDS.join(", "));
                std::process::exit(2);
            }
        }
    }
    grid::set_cell_hook(None);

    let total_wall_ms = run_start.elapsed().as_secs_f64() * 1e3;
    let cells = grid::take_stats();
    let quarantined = grid::take_quarantined();
    let mut notes = vec![format!(
        "{} cells over {} thread{} in {:.1} s; speedup scales with cores because cells are \
         independent (tests/grid_parallel.rs proves output is identical at any width)",
        cells.len(),
        threads,
        if threads == 1 { "" } else { "s" },
        total_wall_ms / 1e3
    )];
    if replayed_count > 0 {
        notes.push(format!(
            "{replayed_count} figure(s) replayed byte-for-byte from the checkpoint journal"
        ));
    }
    if !quarantined.is_empty() {
        notes.push(format!(
            "{} cell(s) quarantined; see the quarantined section",
            quarantined.len()
        ));
    }
    let stats_path = std::path::Path::new(&grid_stats_path);
    match grid::write_grid_stats(
        stats_path,
        threads,
        total_wall_ms,
        &notes,
        &cells,
        &quarantined,
        memo::stats(&scale),
    ) {
        Ok(()) => eprintln!("wrote {grid_stats_path}"),
        Err(e) => eprintln!("failed to write {grid_stats_path}: {e}"),
    }

    if let Some(path) = markdown_path {
        let mut out = merge::report_prologue(&scale);
        for section in &sections {
            out.push_str(section);
        }
        // Atomic + bounded retry: a kill can truncate neither report, and
        // injected transient I/O faults are retried rather than fatal.
        fsio::write_atomic_retry(std::path::Path::new(&path), out.as_bytes(), 3).unwrap_or_else(
            |e| {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            },
        );
        eprintln!("wrote {path}");
    }
}

/// The run's scale; a malformed `THERMO_*` knob exits 2 with the message.
fn scale_from_env() -> Scale {
    Scale::from_env().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

fn usage(error: &str) -> ! {
    if !error.is_empty() {
        eprintln!("error: {error}");
    }
    eprintln!(
        "usage: figures <fig01|...|fig21|all>... [--markdown <path>] [--threads N] \
         [--grid-stats <path>] [--journal <path>] [--resume] [--quarantine] \
         [--max-retries N] [--fault-plan <spec>] [--shard i/N] [--attempt K]\n\
         \x20      figures sweep <ids|all>... --shards N [--dir <path>] [--markdown <path>] \
         [--journal <path>] [--threads N] [--quarantine] [--max-retries N] \
         [--fault-plan <spec>] [--max-restarts N] [--tick-ms MS] \
         [--stall-ticks N] [--straggler-factor N] [--resume] [--seed N]\n\
         \x20      figures merge <ids|all>... --shards N [--dir <path>] [--markdown <path>] \
         [--journal <path>]"
    );
    std::process::exit(if error.is_empty() { 0 } else { 2 });
}
