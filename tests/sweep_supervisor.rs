//! End-to-end battery for `figures sweep` (DESIGN.md §13): a real fleet of
//! worker processes, deterministic process-level fault injection, and
//! byte-compares against a serial `figures` run.
//!
//! Everything here drives the actual `figures` binary
//! (`CARGO_BIN_EXE_figures`) at a tiny scale. The scale env is set
//! explicitly on every command so the host environment cannot skew the
//! fingerprints, and each test works in its own scratch directory, so the
//! tests are free to run in parallel.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The figure subset the battery sweeps: small enough to be fast, sized so
/// a 4-shard sweep gets uneven shards (2/1/1/1) and wrap-around.
const IDS: [&str; 5] = ["fig01", "fig02", "fig06", "fig07", "fig09"];

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("sweep-supervisor-tests")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs the `figures` binary with the pinned tiny scale.
fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .env("THERMO_TRACE_LEN", "20000")
        .env("THERMO_CBP_COUNT", "2")
        .env("THERMO_CBP_LEN", "5000")
        .env("THERMO_IPC1_COUNT", "2")
        .env("THERMO_IPC1_LEN", "5000")
        .env("THERMO_APPS", "kafka,python")
        .env("SIM_THREADS", "2")
        .output()
        .expect("spawn figures binary")
}

/// A serial reference run into `dir`; returns (stdout, markdown, journal).
fn serial_reference(dir: &Path) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    serial_reference_with(dir, &[])
}

/// [`serial_reference`] with extra worker flags.
fn serial_reference_with(dir: &Path, extra: &[&str]) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    let md = dir.join("serial.md");
    let journal = dir.join("serial.jsonl");
    let stats = dir.join("serial_stats.json");
    let mut args: Vec<&str> = IDS.to_vec();
    let (md_s, journal_s, stats_s) = (
        md.to_str().unwrap().to_owned(),
        journal.to_str().unwrap().to_owned(),
        stats.to_str().unwrap().to_owned(),
    );
    args.extend([
        "--markdown",
        &md_s,
        "--journal",
        &journal_s,
        "--grid-stats",
        &stats_s,
    ]);
    args.extend(extra);
    let out = figures(&args);
    assert!(out.status.success(), "serial run failed: {:?}", out.status);
    (
        out.stdout,
        std::fs::read(&md).expect("serial markdown"),
        std::fs::read(&journal).expect("serial journal"),
    )
}

/// Runs a sweep into `dir` with extra flags; returns the raw output plus
/// the merged markdown/journal bytes.
fn sweep(dir: &Path, shards: &str, extra: &[&str]) -> (Output, Vec<u8>, Vec<u8>) {
    let md = dir.join("sweep.md");
    let journal = dir.join("sweep.jsonl");
    let sweep_dir = dir.join("shards");
    let (md_s, journal_s, dir_s) = (
        md.to_str().unwrap().to_owned(),
        journal.to_str().unwrap().to_owned(),
        sweep_dir.to_str().unwrap().to_owned(),
    );
    let mut args: Vec<&str> = vec!["sweep"];
    args.extend(IDS);
    args.extend([
        "--shards",
        shards,
        "--dir",
        &dir_s,
        "--markdown",
        &md_s,
        "--journal",
        &journal_s,
    ]);
    args.extend(extra);
    let out = figures(&args);
    let md_bytes = std::fs::read(&md).unwrap_or_default();
    let journal_bytes = std::fs::read(&journal).unwrap_or_default();
    (out, md_bytes, journal_bytes)
}

fn assert_identical(
    context: &str,
    (serial_out, serial_md, serial_journal): &(Vec<u8>, Vec<u8>, Vec<u8>),
    (out, md, journal): &(Output, Vec<u8>, Vec<u8>),
) {
    assert!(
        out.status.success(),
        "{context}: sweep exited {:?}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(&out.stdout, serial_out, "{context}: stdout differs");
    assert_eq!(md, serial_md, "{context}: markdown report differs");
    assert_eq!(journal, serial_journal, "{context}: merged journal differs");
}

#[test]
fn four_shard_sweep_is_byte_identical_to_serial() {
    let dir = scratch("clean");
    let reference = serial_reference(&dir);
    let result = sweep(&dir, "4", &[]);
    assert_identical("clean 4-shard sweep", &reference, &result);
}

#[test]
fn sweep_survives_die_torn_and_garbage_workers() {
    let dir = scratch("faulted");
    let reference = serial_reference(&dir);
    // Shard 1 dies mid-cell, shard 2 tears its journal and dies, shard 3
    // claims success it didn't earn — all on the first attempt; restarts
    // are clean and must reconverge to the serial bytes.
    let result = sweep(
        &dir,
        "4",
        &[
            "--fault-plan",
            "proc=1:0:die:1,proc=2:0:torn:1,proc=3:0:garbage:1",
        ],
    );
    assert_identical("die/torn/garbage sweep", &reference, &result);
    let stats = std::fs::read_to_string(dir.join("shards/sweep_stats.json")).expect("sweep stats");
    assert!(
        stats.contains("\"attempts\": 2"),
        "faulted shards should have restarted once:\n{stats}"
    );
    assert!(
        stats.contains("\"complete\": true"),
        "sweep not complete:\n{stats}"
    );
}

#[test]
fn hung_worker_is_stall_killed_and_redispatched() {
    let dir = scratch("hang");
    let reference = serial_reference(&dir);
    // Shard 2 wedges after its first journaled cell; only the journal
    // watermark can detect it. Tight ticks keep the test fast; the
    // straggler rule is disabled so the kill is attributably a stall.
    let result = sweep(
        &dir,
        "4",
        &[
            "--fault-plan",
            "proc=2:0:hang:1",
            "--tick-ms",
            "10",
            "--stall-ticks",
            "40",
            "--straggler-factor",
            "1000000",
        ],
    );
    assert_identical("hang sweep", &reference, &result);
    let stats = std::fs::read_to_string(dir.join("shards/sweep_stats.json")).expect("sweep stats");
    assert!(
        stats.contains("stalled: no journal progress"),
        "stall kill not recorded:\n{stats}"
    );
}

#[test]
fn poison_shard_quarantines_and_report_degrades_to_incomplete() {
    let dir = scratch("poison");
    serial_reference(&dir);
    // Shard 2 dies on every granted attempt: quarantine, not abort.
    let (out, md, journal) = sweep(
        &dir,
        "4",
        &[
            "--fault-plan",
            "proc=2:0:die:1,proc=2:1:die:1,proc=2:2:die:1",
            "--max-restarts",
            "2",
        ],
    );
    assert_eq!(
        out.status.code(),
        Some(3),
        "degraded sweep must exit 3 (incomplete), got {:?}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let report = String::from_utf8(md).expect("utf-8 report");
    assert!(
        report.contains("> **Status: incomplete**"),
        "missing incomplete stamp:\n{report}"
    );
    // Shard 2 of 4 owns exactly fig02 (index 1) under round-robin over IDS.
    assert!(
        report.contains("`fig02` (shard 2/4)"),
        "missing quarantine line for fig02:\n{report}"
    );
    assert!(
        report.contains("shard quarantined after 3 attempt(s)"),
        "missing supervisor reason:\n{report}"
    );
    // Survivors still render: fig01 is shard 1's and must be present.
    assert!(
        report.contains("fig01"),
        "survivor figures dropped:\n{report}"
    );
    // The merged journal still carries the full-run fingerprint header and
    // the surviving commits, so a serial --resume can finish the rest.
    let journal = String::from_utf8(journal).expect("utf-8 journal");
    assert!(
        journal.starts_with("{\"kind\":\"run\""),
        "journal header missing"
    );
    assert!(
        journal.contains("\"id\":\"fig01\""),
        "surviving commit missing"
    );
    assert!(
        !journal.contains("\"id\":\"fig02\""),
        "quarantined figure leaked"
    );
}

#[test]
fn resume_from_degraded_merge_completes_serially() {
    let dir = scratch("resume-after-degrade");
    let reference = serial_reference(&dir);
    let (out, _, _) = sweep(
        &dir,
        "4",
        &[
            "--fault-plan",
            "proc=2:0:die:1,proc=2:1:die:1",
            "--max-restarts",
            "1",
        ],
    );
    assert_eq!(out.status.code(), Some(3), "expected degraded sweep");
    // Serial --resume from the merged journal recomputes exactly the
    // quarantined remainder; stdout and markdown match the serial run
    // byte-for-byte (journal record order differs, as for any resume).
    let md = dir.join("resumed.md");
    let stats = dir.join("resumed_stats.json");
    let journal_s = dir.join("sweep.jsonl").to_str().unwrap().to_owned();
    let (md_s, stats_s) = (
        md.to_str().unwrap().to_owned(),
        stats.to_str().unwrap().to_owned(),
    );
    let mut args: Vec<&str> = IDS.to_vec();
    args.extend([
        "--resume",
        "--journal",
        &journal_s,
        "--markdown",
        &md_s,
        "--grid-stats",
        &stats_s,
    ]);
    let out = figures(&args);
    assert!(out.status.success(), "resume failed: {:?}", out.status);
    assert_eq!(
        out.stdout, reference.0,
        "resumed stdout differs from serial"
    );
    assert_eq!(
        std::fs::read(&md).expect("resumed markdown"),
        reference.1,
        "resumed markdown differs from serial"
    );
}

#[test]
fn more_shards_than_figures_leaves_empty_shards_clean() {
    let dir = scratch("empty-shards");
    let md = dir.join("one.md");
    let journal = dir.join("one.jsonl");
    let stats = dir.join("one_stats.json");
    let (md_s, journal_s, stats_s) = (
        md.to_str().unwrap().to_owned(),
        journal.to_str().unwrap().to_owned(),
        stats.to_str().unwrap().to_owned(),
    );
    let serial = figures(&[
        "fig01",
        "--markdown",
        &md_s,
        "--journal",
        &journal_s,
        "--grid-stats",
        &stats_s,
    ]);
    assert!(serial.status.success());
    let sweep_md = dir.join("sweep.md");
    let sweep_journal = dir.join("sweep.jsonl");
    let sweep_dir = dir.join("shards");
    let (smd, sj, sd) = (
        sweep_md.to_str().unwrap().to_owned(),
        sweep_journal.to_str().unwrap().to_owned(),
        sweep_dir.to_str().unwrap().to_owned(),
    );
    // 3 shards, 1 figure: shards 2 and 3 own nothing and must settle
    // cleanly (journal header only), not be quarantined.
    let out = figures(&[
        "sweep",
        "fig01",
        "--shards",
        "3",
        "--dir",
        &sd,
        "--markdown",
        &smd,
        "--journal",
        &sj,
    ]);
    assert!(
        out.status.success(),
        "empty shards broke the sweep: {:?}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(out.stdout, serial.stdout, "stdout differs");
    assert_eq!(
        std::fs::read(&sweep_md).expect("sweep md"),
        std::fs::read(&md).expect("serial md"),
        "markdown differs"
    );
    assert_eq!(
        std::fs::read(&sweep_journal).expect("sweep journal"),
        std::fs::read(&journal).expect("serial journal"),
        "journal differs"
    );
}

/// The worker pid files a sweep into `dir` left behind.
fn pid_files(dir: &Path) -> Vec<std::fs::DirEntry> {
    std::fs::read_dir(dir.join("shards"))
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(".pid"))
        .collect()
}

#[test]
fn bad_fault_plan_exits_2_before_any_worker_spawns() {
    // `net=` is valid grammar, but no figures process has a site for it.
    for (spec, message) in [
        ("bogus=1", "unknown fault-plan key \"bogus\""),
        ("net=0:0:drop", "fault-plan key \"net\" has no fault site"),
    ] {
        let dir = scratch(&format!("bad-plan-{}", &spec[..3]));
        let worker = figures(&["fig01", "--fault-plan", spec]);
        let (sweep_out, _, _) = sweep(&dir, "2", &["--max-restarts", "1", "--fault-plan", spec]);
        for (mode, out) in [("figures", worker), ("figures sweep", sweep_out)] {
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{mode}: stderr:\n{stderr}");
            assert!(stderr.contains(message), "{mode}: {stderr}");
        }
        let pids = pid_files(&dir);
        assert!(pids.is_empty(), "{spec}: workers spawned: {pids:?}");
    }
}

#[test]
fn bad_command_lines_exit_2_before_any_work() {
    let sweep_cases: [(&[&str], &str); 6] = [
        (&["--threads", "0"], "--threads must be >= 1"),
        (&["fig99"], "unknown figure id: fig99"),
        (&["--tick-ms", "0"], "--tick-ms must be >= 1"),
        (&["--stall-ticks", "0"], "--stall-ticks must be >= 1"),
        (
            &["--straggler-factor", "1"],
            "--straggler-factor must be >= 2",
        ),
        (&["--shard", "1/2"], "sets --shard"),
    ];
    for (i, (extra, message)) in sweep_cases.iter().enumerate() {
        let dir = scratch(&format!("bad-sweep-{i}"));
        let mut args = vec!["--max-restarts", "0"];
        args.extend(*extra);
        let (out, _, _) = sweep(&dir, "2", &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{extra:?}: stderr:\n{stderr}");
        assert!(stderr.contains(message), "{extra:?}: {stderr}");
        let pids = pid_files(&dir);
        assert!(pids.is_empty(), "{extra:?}: workers spawned: {pids:?}");
    }

    let dir = scratch("bad-merge");
    let shards = dir.join("shards");
    let out = figures(&[
        "merge",
        "fig99",
        "--shards",
        "2",
        "--dir",
        shards.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "merge fig99: {out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown figure id: fig99"));

    // A worker must reject the whole command line before it computes or
    // journals the figures that precede the bad argument.
    for (i, (args, message)) in [
        (&["fig01", "fig99"][..], "unknown figure id: fig99"),
        (&["fig01", "--treads", "2"], "unknown flag --treads"),
    ]
    .into_iter()
    .enumerate()
    {
        let journal = scratch(&format!("bad-worker-{i}")).join("journal.jsonl");
        let journal_s = journal.to_str().unwrap().to_owned();
        let mut argv = args.to_vec();
        argv.extend(["--journal", &journal_s]);
        let out = figures(&argv);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: stderr:\n{stderr}");
        assert!(stderr.contains(message), "{argv:?}: {stderr}");
        assert!(!journal.exists(), "{argv:?}: journal written");
    }
}

#[test]
fn sweep_forwards_threads_quarantine_and_retries_to_every_worker() {
    let dir = scratch("forwarded");
    let flags = [
        "--threads",
        "1",
        "--quarantine",
        "--max-retries",
        "1",
        "--fault-plan",
        "seed=1,panic=fig01:1:poison",
    ];
    let reference = serial_reference_with(&dir, &flags);
    let result = sweep(&dir, "2", &flags);
    assert_identical("forwarded-flags sweep", &reference, &result);
    for number in 1..=2 {
        let stats = std::fs::read_to_string(dir.join(format!("shards/shard-{number}_stats.json")))
            .expect("shard stats");
        assert!(
            stats.contains("\"threads\": 1,"),
            "shard {number} ignored --threads:\n{stats}"
        );
    }
}
