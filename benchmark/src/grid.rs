//! The `grid` workload: `figures all` on a 2-thread pool, the product run
//! that regenerates every table of the paper.
//!
//! It is the only workload where figures regenerate and re-profile the
//! same (app, input) traces, so a cross-figure cache should move it and
//! nothing else. The seed picks which of the twelve mid-size apps sits
//! out; `verilator`, the one app whose code footprint is several times
//! the others', is always in, so every seed's grid has the same mix of
//! footprints and costs about the same.

use std::process::Stdio;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use btb_workloads::AppSpec;
use sim_support::{pool, SimRng};
use thermometer_bench::{figure_by_id, grid, journal, merge, Journal, Scale, FIGURE_IDS};

use crate::calib::Calibrator;
use crate::expected::Checker;
use crate::ledger::Ledger;
use crate::metrics::Metric;
use crate::procfs::{self, run_measured};
use crate::{clock, stats, Ctx, ProcOps};

/// Pool width of the measured run and of the replay.
const THREADS: usize = 2;
/// Records per application trace.
const TRACE_LEN: usize = 10_000;
/// CBP-5 and IPC-1 suites: traces each, records per trace.
const SUITE: (usize, usize) = (6, 20_000);
/// The cold-start set-up run: the same apps at a token length, so it
/// measures what every grid run pays before simulating (program
/// construction, suite generation, figure scaffolding).
const COLD_TRACE_LEN: usize = 1_000;
const COLD_SUITE: (usize, usize) = (2, 1_000);
const SETUP_REPEATS: usize = 3;
/// The app that never sits out (see the module docs).
const WIDE_APP: &str = "verilator";

/// The apps of seed `seed`: all but one of the mid-size apps.
pub fn apps_for_seed(seed: u64) -> Vec<AppSpec> {
    let all = AppSpec::all();
    let mid: Vec<&str> = all
        .iter()
        .map(|s| s.name.as_str())
        .filter(|n| *n != WIDE_APP)
        .collect();
    let out = mid[SimRng::seed_from_u64(seed).gen_range(0..mid.len())].to_owned();
    all.into_iter().filter(|s| s.name != out).collect()
}

fn scale(seed: u64, trace_len: usize, suite: (usize, usize)) -> Scale {
    Scale {
        trace_len,
        cbp_count: suite.0,
        cbp_len: suite.1,
        ipc1_count: suite.0,
        ipc1_len: suite.1,
        apps: apps_for_seed(seed),
    }
}

/// `figures all` at `scale`, writing every artifact into the run's
/// scratch directory.
fn figures(ctx: &Ctx, scale: &Scale) -> std::io::Result<std::process::Command> {
    let names: Vec<&str> = scale.apps.iter().map(|s| s.name.as_str()).collect();
    let mut cmd = ctx.command("figures");
    cmd.arg("all")
        .args(["--threads", &THREADS.to_string()])
        .arg("--markdown")
        .arg(ctx.tmp.join("figures.md"))
        .arg("--grid-stats")
        .arg(ctx.tmp.join("grid_stats.json"))
        .arg("--journal")
        .arg(ctx.tmp.join("grid_journal.jsonl"))
        .env("THERMO_TRACE_LEN", scale.trace_len.to_string())
        .env("THERMO_CBP_COUNT", scale.cbp_count.to_string())
        .env("THERMO_CBP_LEN", scale.cbp_len.to_string())
        .env("THERMO_IPC1_COUNT", scale.ipc1_count.to_string())
        .env("THERMO_IPC1_LEN", scale.ipc1_len.to_string())
        .env("THERMO_APPS", names.join(","))
        .stdout(Stdio::null())
        .stderr(ctx.log("figures")?);
    Ok(cmd)
}

fn measure(ctx: &Ctx, scale: &Scale) -> Result<procfs::ProcRun, String> {
    run_measured(&mut figures(ctx, scale).map_err(|e| e.to_string())?)
        .map_err(|e| format!("figures: {e}"))
}

/// Runs `figures all` once, checking its exit and report.
fn figures_op(ctx: &Ctx, checker: &mut Checker, label: &str) -> Result<procfs::ProcRun, String> {
    let run = measure(ctx, &scale(ctx.seed, TRACE_LEN, SUITE))?;
    let report = std::fs::read(ctx.tmp.join("figures.md")).unwrap_or_default();
    checker.op(label, run.status.success(), Some(("markdown", &report)));
    Ok(run)
}

/// The end-to-end run: the cold-start set-up, then `figures all` back to
/// back until `--seconds` is spent.
pub fn run(ctx: &Ctx, checker: &mut Checker) -> Result<Vec<(&'static Metric, f64)>, String> {
    let mut cal = Calibrator::new();
    let cold = scale(ctx.seed, COLD_TRACE_LEN, COLD_SUITE);
    let mut setup_s = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let (run, speed) = cal.bracket(|| measure(ctx, &cold));
        let run = run?;
        checker.op("figures all (cold start)", run.status.success(), None);
        setup_s.push(run.wall_s * speed);
    }
    let mut ops = ProcOps::default();
    let start = clock::now();
    for done in 1.. {
        let (run, speed) = cal.bracket(|| figures_op(ctx, checker, "figures all"));
        ops.push(&run?, speed);
        if clock::since(start) * (done + 1) as f64 / done as f64 > ctx.seconds {
            break;
        }
    }
    Ok(ops.metrics(stats::median(&setup_s)))
}

/// The traced run: one `figures all` for the reference report, then the
/// same figures in-process, one span per figure id, with the checkpoint
/// journal timed through the grid's per-cell hook exactly as the binary
/// installs it.
pub fn trace(ctx: &Ctx, checker: &mut Checker) -> Result<Ledger, String> {
    figures_op(ctx, checker, "figures all (reference)")?;

    let scale = scale(ctx.seed, TRACE_LEN, SUITE);
    let ids: Vec<String> = FIGURE_IDS.iter().map(|s| s.to_string()).collect();
    let journal_path = ctx.tmp.join("replay_journal.jsonl");
    let journal = Journal::new(&journal_path);
    journal
        .start(&journal::run_fingerprint(&scale, &ids))
        .map_err(|e| format!("journal: {e}"))?;
    pool::set_threads(THREADS);
    grid::reset_stats();
    // (busy ns, appends) of the per-cell hook, which runs inside the
    // figure spans on the gathering thread.
    let hook_stats = Arc::new((AtomicU64::new(0), AtomicU64::new(0)));
    {
        let hook_journal = Journal::new(&journal_path);
        let stats = Arc::clone(&hook_stats);
        grid::set_cell_hook(Some(Box::new(move |outcome| {
            let (appended, secs) = clock::timed(|| hook_journal.append_cell(&outcome));
            if let Err(e) = appended {
                eprintln!("journal append failed: {e}");
            }
            stats.0.fetch_add((secs * 1e9) as u64, Ordering::Relaxed);
            stats.1.fetch_add(1, Ordering::Relaxed);
        })));
    }

    let mut ledger = Ledger::default();
    let mut appends = 0u64;
    let cpu0 = procfs::stat_of("self").map_err(|e| e.to_string())?.own_s();
    let start = clock::now();
    let mut report = merge::report_prologue(&scale);
    for id in &ids {
        let figure_start = clock::now();
        let figs = figure_by_id(id, &scale).ok_or_else(|| format!("unknown figure {id}"))?;
        let (mut display, mut markdown) = (String::new(), String::new());
        for fig in figs {
            display.push_str(&format!("{fig}\n"));
            markdown.push_str(&fig.to_markdown());
        }
        let (appended, secs) = clock::timed(|| journal.append_figure(id, &display, &markdown));
        if let Err(e) = appended {
            checker.fail("journal append", &e.to_string());
        }
        ledger.add("bench.journal", secs, false);
        appends += 1;
        ledger.add(
            &format!("bench.figure.{id}"),
            clock::since(figure_start),
            true,
        );
        report.push_str(&markdown);
    }
    let e2e = clock::since(start);
    let cpu = procfs::stat_of("self").map_err(|e| e.to_string())?.own_s() - cpu0;
    grid::set_cell_hook(None);

    checker.op(
        "in-process figures",
        true,
        Some(("markdown", report.as_bytes())),
    );
    for cell in grid::take_stats() {
        ledger.item(cell.wall_ms / 1e3);
    }
    ledger.add(
        "bench.journal",
        hook_stats.0.load(Ordering::Relaxed) as f64 / 1e9,
        false,
    );
    ledger.set(
        "bench.journal.appends",
        (appends + hook_stats.1.load(Ordering::Relaxed)) as f64,
    );
    if let Some(p) = pool::handle() {
        let stats = p.stats();
        ledger.set("sim_support.pool.steals", stats.steals as f64);
        ledger.set("sim_support.pool.queue_depth_hwm", stats.depth_hwm as f64);
    }
    ledger.finish(e2e, cpu, THREADS);
    Ok(ledger)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_drop_one_mid_size_app_and_keep_the_wide_one() {
        let all = AppSpec::all().len();
        let mut dropped = std::collections::BTreeSet::new();
        for seed in 0..40 {
            let apps = apps_for_seed(seed);
            assert_eq!(apps.len(), all - 1);
            assert!(apps.iter().any(|s| s.name == WIDE_APP));
            let names: Vec<String> = apps.iter().map(|s| s.name.clone()).collect();
            let again: Vec<String> = apps_for_seed(seed).iter().map(|s| s.name.clone()).collect();
            assert_eq!(names, again, "a pure function of the seed");
            let missing = AppSpec::all()
                .into_iter()
                .find(|s| !names.contains(&s.name))
                .unwrap();
            dropped.insert(missing.name);
        }
        assert!(dropped.len() > 6, "seeds spread over the apps: {dropped:?}");
    }
}
