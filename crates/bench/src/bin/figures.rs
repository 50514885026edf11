//! Regenerates the paper's figures, in one process or over a supervised
//! fleet of worker processes.
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
//! `figures --help` lists every figure id (`FIGURE_IDS`) and flag. The
//! whole command line is parsed before any work: an unknown id, flag or
//! fault-plan key, or a missing or out-of-range value, exits 2 naming it.
//!
//! Scale knobs: `THERMO_TRACE_LEN`, `THERMO_CBP_COUNT`, `THERMO_CBP_LEN`,
//! `THERMO_IPC1_COUNT`, `THERMO_IPC1_LEN`, `THERMO_APPS` (see `Scale`).
//! Threads: `--threads N` or `SIM_THREADS`; output is byte-identical at
//! any width. Per-cell telemetry lands in `results/grid_stats.json`.
//!
//! Fault tolerance (DESIGN.md §9): completed figures are journaled to
//! `results/grid_journal.jsonl`; `--resume` replays them byte-for-byte.
//! `--quarantine` drops panicking cells, `--max-retries N` retries
//! transient ones, and `--fault-plan` injects deterministic faults.
//!
//! Sharded sweeps (DESIGN.md §13): `figures sweep` takes the supervisor's
//! flags and parses the rest into the `WorkerArgs` template it spawns one
//! worker per shard from. The shard journals merge into output
//! byte-identical to a serial run, stamped `incomplete` (exit 3) when a
//! poison shard exhausted its restarts. `figures merge` only merges.

use std::path::PathBuf;
use std::time::Instant;

use sim_support::cli::{self, Cursor};
use sim_support::{fault, fsio, pool};
use thermometer_bench::figures::memo;
use thermometer_bench::{
    args, figure_by_id, grid, journal, merge, sweep, Journal, Scale, SweepConfig, WorkerArgs,
};

const DEFAULT_JOURNAL: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/grid_journal.jsonl"
);
const DEFAULT_GRID_STATS: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/grid_stats.json");
const DEFAULT_SWEEP_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/sweep");

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("sweep") => run_fleet(argv[1..].to_vec(), false),
        Some("merge") => run_fleet(argv[1..].to_vec(), true),
        _ => run_worker(WorkerArgs::parse(&argv).unwrap_or_else(|e| fail(&e))),
    }
}

/// Parses `sweep` (or, with `merge_only`, `merge`) arguments into the
/// sweep, its `--markdown` and its `--journal`. Flags that are not the
/// supervisor's go to the worker template; `merge` takes ids and the four
/// output flags only.
fn parse_sweep_args(
    argv: Vec<String>,
    merge_only: bool,
) -> Result<(SweepConfig, Option<String>, String), String> {
    let mut args = Cursor::new(argv, args::usage());
    let mut cfg = SweepConfig::new(WorkerArgs::default(), 0, PathBuf::from(DEFAULT_SWEEP_DIR));
    let mut markdown = None;
    let mut journal_out = DEFAULT_JOURNAL.to_owned();
    let mut forwarded = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--shards" => cfg.shards = args.at_least(1)?,
            "--dir" => cfg.dir = args.value()?.into(),
            "--markdown" => markdown = Some(args.value()?),
            "--journal" => journal_out = args.value()?,
            "--max-restarts" if !merge_only => cfg.max_restarts = args.parse()?,
            "--tick-ms" if !merge_only => cfg.tick_ms = args.at_least(1)?,
            "--stall-ticks" if !merge_only => cfg.stall_ticks = args.at_least(1)?,
            "--straggler-factor" if !merge_only => cfg.straggler_factor = args.at_least(2)?,
            "--seed" if !merge_only => cfg.seed = args.parse()?,
            _ if merge_only && args.at_flag() => return Err(args.unexpected()),
            _ => forwarded.push(arg),
        }
    }
    if cfg.shards == 0 {
        return Err("sweep/merge need --shards N (>= 1)".to_owned());
    }
    cfg.worker = if merge_only {
        WorkerArgs {
            ids: args::expand_ids(forwarded)?,
            ..WorkerArgs::default()
        }
    } else {
        WorkerArgs::parse(&forwarded)?
    };
    if cfg.worker.shard.is_some() || cfg.worker.attempt != 0 || cfg.worker.grid_stats.is_some() {
        return Err("figures sweep sets --shard, --attempt and --grid-stats per worker".to_owned());
    }
    Ok((cfg, markdown, journal_out))
}

/// `figures sweep`, or with `merge_only` `figures merge`: supervise a
/// fleet of workers (or only read their journals) and emit the merge.
fn run_fleet(argv: Vec<String>, merge_only: bool) -> ! {
    let (cfg, markdown, journal_out) =
        parse_sweep_args(argv, merge_only).unwrap_or_else(|e| fail(&e));
    let scale = scale_from_env();
    if merge_only {
        let outcome = merge::merge_shards(&scale, &cfg.worker.ids, cfg.shards, &cfg.dir);
        emit_merge_outputs(&outcome, &scale, markdown.as_deref(), &journal_out);
    }
    eprintln!(
        "sweep: {} figure(s) over {} shard(s) under {}",
        cfg.worker.ids.len(),
        cfg.shards,
        cfg.dir.display()
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
    emit_merge_outputs(&report.merge, &scale, markdown.as_deref(), &journal_out);
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

fn run_worker(args: WorkerArgs) {
    if let Some(threads) = args.threads {
        pool::set_threads(threads);
    }
    let journal_path = args
        .journal
        .clone()
        .unwrap_or_else(|| DEFAULT_JOURNAL.into());
    let grid_stats_path = args
        .grid_stats
        .clone()
        .unwrap_or_else(|| DEFAULT_GRID_STATS.into());
    // Shard filtering happens after `all` expansion so every worker sees
    // the same canonical list. An empty shard (more shards than figures)
    // is legal: the worker journals its header and exits cleanly.
    let mut ids = args.ids.clone();
    if let Some(spec) = args.shard {
        ids = thermometer_bench::shard::shard_ids(&ids, spec);
        eprintln!("shard {spec}: {} figure(s)", ids.len());
    }

    if let Some(plan) = args.plan() {
        fault::install(plan);
        let number = args.shard.map_or(1, |s| s.number) as u64;
        if let Some(armed) = fault::arm(number, args.attempt, journal_path.clone()) {
            eprintln!(
                "process fault armed: {} after {} cell(s) (shard {number}, attempt {})",
                armed.kind.name(),
                armed.after_cells,
                args.attempt
            );
        }
    }
    if args.quarantine {
        grid::set_fault_policy(grid::FaultPolicy {
            isolate: true,
            max_retries: args.max_retries,
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
    let journal_name = journal_path.display();
    let journal = Journal::new(&journal_path);
    let loaded = if args.resume {
        journal.load(&fingerprint).map_err(|e| {
            eprintln!("cannot read journal {journal_name}: {e}; starting fresh");
        })
    } else {
        Ok(None)
    };
    let replayed = if let Ok(Some(loaded)) = loaded {
        eprintln!(
            "resume: {} figure(s) replayed from {journal_name}",
            loaded.figures.len()
        );
        loaded
    } else {
        if args.resume && loaded.is_ok() {
            eprintln!("resume: no usable journal at {journal_name}; starting fresh");
        }
        if let Err(e) = journal.start(&fingerprint) {
            eprintln!("cannot start journal {journal_name}: {e}");
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
        let figs = figure_by_id(id, &scale).expect("WorkerArgs::parse checked every id");
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
    match grid::write_grid_stats(
        &grid_stats_path,
        threads,
        total_wall_ms,
        &notes,
        &cells,
        &quarantined,
        memo::stats(&scale),
    ) {
        Ok(()) => eprintln!("wrote {}", grid_stats_path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", grid_stats_path.display()),
    }

    if let Some(path) = &args.markdown {
        let mut out = merge::report_prologue(&scale);
        for section in &sections {
            out.push_str(section);
        }
        // Atomic + bounded retry: a kill can truncate neither report, and
        // injected transient I/O faults are retried rather than fatal.
        fsio::write_atomic_retry(path, out.as_bytes(), 3).unwrap_or_else(|e| {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        });
        eprintln!("wrote {}", path.display());
    }
}

/// The run's scale; a malformed `THERMO_*` knob exits 2 with the message.
fn scale_from_env() -> Scale {
    Scale::from_env().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

fn fail(error: &str) -> ! {
    cli::fail(&args::usage(), error)
}
