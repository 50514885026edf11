//! Regenerates the paper's figures, in this process or in one supervised
//! worker process.
//!
//! ```text
//! figures all                  # every figure, prints tables
//! figures fig11 fig12          # specific figures
//! figures all --markdown out.md  # also write a Markdown report
//! figures all --threads 8      # scatter cells over 8 workers
//! figures all --quarantine --max-retries 1   # survive bad cells
//! figures all --resume         # splice in work from a crashed run
//! figures supervise all --markdown out.md   # restart a dead or wedged worker
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
//! Supervised grid (DESIGN.md §13): `figures supervise` takes
//! `--max-restarts` and `--stall-ms` and parses the rest into the
//! `WorkerArgs` of the one worker it spawns, restarting it with `--resume`
//! when it dies, stalls or exits 0 without finishing. It prints stdout and
//! writes `--markdown` from the verified journal, byte-identical to a
//! serial run, or stamped `incomplete` (exit 3) once restarts run out.

use std::path::{Path, PathBuf};
use std::time::Instant;

use sim_support::cli::{self, Cursor};
use sim_support::{fault, fsio, pool};
use thermometer_bench::figures::memo;
use thermometer_bench::supervise::{self, Supervisor};
use thermometer_bench::{args, figure_by_id, grid, journal, merge, Journal, Scale, WorkerArgs};

const DEFAULT_JOURNAL: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/grid_journal.jsonl"
);
const DEFAULT_GRID_STATS: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/grid_stats.json");

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("supervise") => run_supervise(&argv[1..]),
        _ => run_worker(WorkerArgs::parse(&argv).unwrap_or_else(|e| fail(&e))),
    }
}

/// Parses `supervise` arguments into the supervisor and its `--markdown`.
/// Flags that are not the supervisor's go to the worker's `WorkerArgs`.
fn parse_supervise_args(argv: &[String]) -> Result<(Supervisor, Option<PathBuf>), String> {
    let mut args = Cursor::new(argv.iter().cloned(), args::usage());
    let mut max_restarts = 2;
    let mut stall_ms = 10_000;
    let mut forwarded = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--max-restarts" => max_restarts = args.parse()?,
            "--stall-ms" => stall_ms = args.at_least(1)?,
            _ => forwarded.push(arg),
        }
    }
    let mut worker = WorkerArgs::parse(&forwarded)?;
    if worker.attempt != 0 {
        return Err("figures supervise sets --attempt per worker".to_owned());
    }
    let markdown = worker.markdown.take();
    worker.journal.get_or_insert_with(|| DEFAULT_JOURNAL.into());
    let supervisor = Supervisor {
        worker,
        max_restarts,
        stall_ms,
    };
    Ok((supervisor, markdown))
}

/// `figures supervise`: runs one supervised worker, then prints the
/// verified journal's figures and writes the report. Exits 0 when every
/// figure committed, 3 when the report is incomplete.
fn run_supervise(argv: &[String]) -> ! {
    let (cfg, markdown) = parse_supervise_args(argv).unwrap_or_else(|e| fail(&e));
    let scale = scale_from_env();
    let journal = cfg
        .worker
        .journal
        .clone()
        .expect("set by parse_supervise_args");
    eprintln!(
        "supervise: {} figure(s), journal {}",
        cfg.worker.ids.len(),
        journal.display()
    );
    let run = supervise::supervise(&cfg, &scale).unwrap_or_else(|e| {
        eprintln!("supervise failed: {e}");
        std::process::exit(1);
    });
    let stats = supervise::beside(&journal, "supervise.json");
    if let Err(e) = supervise::write_stats(&stats, &run) {
        eprintln!("failed to write {}: {e}", stats.display());
    }
    let mut sections = Vec::new();
    for figure in &run.loaded.figures {
        print!("{}", figure.display);
        sections.push(figure.markdown.clone());
    }
    let reason = format!(
        "the worker failed {} attempt(s), the last with: {}",
        run.attempts,
        run.failures.last().map_or("", String::as_str)
    );
    if let Some(path) = markdown {
        write_report(
            &path,
            &merge::report(&scale, &sections, &run.missing, &reason),
        );
    }
    if run.missing.is_empty() {
        std::process::exit(0);
    }
    eprintln!(
        "supervise: incomplete, {} figure(s) missing ({}): {reason}",
        run.missing.len(),
        run.missing.join(", ")
    );
    std::process::exit(supervise::INCOMPLETE_EXIT_CODE);
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
    let ids = &args.ids;

    if let Some(plan) = args.plan() {
        fault::install(plan);
        if let Some(armed) = fault::arm(args.attempt, journal_path.clone()) {
            eprintln!(
                "process fault armed: {} after {} cell(s) (attempt {})",
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
    let fingerprint = journal::run_fingerprint(&scale, ids);
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
    for id in ids {
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
        write_report(path, &merge::report(&scale, &sections, &[], ""));
    }
}

/// Writes the markdown report, atomically and with a bounded retry: a kill
/// can truncate no report, and injected transient I/O faults are retried
/// rather than fatal. A write that still fails exits 1.
fn write_report(path: &Path, report: &str) {
    fsio::write_atomic_retry(path, report.as_bytes(), 3).unwrap_or_else(|e| {
        eprintln!("failed to write {}: {e}", path.display());
        std::process::exit(1);
    });
    eprintln!("wrote {}", path.display());
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
