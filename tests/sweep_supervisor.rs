//! End-to-end battery for `figures supervise` (DESIGN.md §13): one real
//! worker process, deterministic process-level fault injection, and
//! byte-compares against a serial `figures` run.
//!
//! Everything here drives the actual `figures` binary
//! (`CARGO_BIN_EXE_figures`) at a tiny scale. The scale env is set
//! explicitly on every command so the host environment cannot skew the
//! fingerprints, and each test works in its own scratch directory, so the
//! tests are free to run in parallel. The supervisor kills and reaps its
//! worker before it exits, so no test leaves a worker running.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The figure subset the battery runs: small enough to be fast. At the
/// pinned scale fig01, fig02 and fig09 journal two cells each, fig06 and
/// fig07 one.
const IDS: [&str; 5] = ["fig01", "fig02", "fig06", "fig07", "fig09"];

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("sweep-supervisor-tests")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn path_str(path: &Path) -> String {
    path.to_str().expect("utf-8 scratch path").to_owned()
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
    let (md_s, journal_s, stats_s) = (
        path_str(&md),
        path_str(&journal),
        path_str(&dir.join("serial_stats.json")),
    );
    let mut args: Vec<&str> = IDS.to_vec();
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

/// Runs `figures supervise` over [`IDS`] into `dir` with extra flags;
/// returns the raw output plus the markdown and journal bytes. The
/// journal is `dir/supervised.jsonl`, so the supervisor's own files are
/// `dir/supervised.jsonl.*`.
fn supervise(dir: &Path, extra: &[&str]) -> (Output, Vec<u8>, Vec<u8>) {
    let md = dir.join("supervised.md");
    let journal = dir.join("supervised.jsonl");
    let (md_s, journal_s, stats_s) = (
        path_str(&md),
        path_str(&journal),
        path_str(&dir.join("supervised_stats.json")),
    );
    let mut args: Vec<&str> = vec!["supervise"];
    args.extend(IDS);
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
    let md_bytes = std::fs::read(&md).unwrap_or_default();
    let journal_bytes = std::fs::read(&journal).unwrap_or_default();
    (out, md_bytes, journal_bytes)
}

/// The supervisor's `supervise.json` for a run into `dir`.
fn supervise_stats(dir: &Path) -> String {
    std::fs::read_to_string(dir.join("supervised.jsonl.supervise.json")).expect("supervise.json")
}

fn assert_identical(
    context: &str,
    (serial_out, serial_md, serial_journal): &(Vec<u8>, Vec<u8>, Vec<u8>),
    (out, md, journal): &(Output, Vec<u8>, Vec<u8>),
) {
    assert!(
        out.status.success(),
        "{context}: supervise exited {:?}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(&out.stdout, serial_out, "{context}: stdout differs");
    assert_eq!(md, serial_md, "{context}: markdown report differs");
    assert_eq!(journal, serial_journal, "{context}: journal differs");
}

#[test]
fn supervised_run_is_byte_identical_to_serial() {
    let dir = scratch("clean");
    let reference = serial_reference(&dir);
    let result = supervise(&dir, &[]);
    assert_identical("clean supervised run", &reference, &result);
    let stats = supervise_stats(&dir);
    assert!(stats.contains("\"attempts\": 1,"), "{stats}");
    assert!(
        !dir.join("supervised.jsonl.pid").exists(),
        "pid file of a reaped worker left behind"
    );
}

#[test]
fn sweep_survives_die_torn_and_garbage_workers() {
    let dir = scratch("faulted");
    let reference = serial_reference(&dir);
    // Attempt 0 dies mid-grid, attempt 1 tears its journal and dies,
    // attempt 2 prints garbage and claims a success it didn't earn;
    // attempt 3 is clean and must reconverge to the serial bytes, with
    // none of the garbage on stdout.
    let result = supervise(
        &dir,
        &[
            "--fault-plan",
            "proc=1:0:die:1,proc=1:1:torn:1,proc=1:2:garbage:1",
            "--max-restarts",
            "3",
        ],
    );
    assert_identical("die/torn/garbage run", &reference, &result);
    let stats = supervise_stats(&dir);
    assert!(stats.contains("\"attempts\": 4,"), "{stats}");
    assert!(stats.contains("\"complete\": true"), "{stats}");
    assert!(
        stats.contains("exited 0 but the journal is missing"),
        "garbage attempt believed:\n{stats}"
    );
}

#[test]
fn hung_worker_is_stall_killed_and_redispatched() {
    let dir = scratch("hang");
    let reference = serial_reference(&dir);
    // The worker wedges after its first journaled cell; only the journal
    // heartbeat can detect it.
    let result = supervise(
        &dir,
        &["--fault-plan", "proc=1:0:hang:1", "--stall-ms", "1000"],
    );
    assert_identical("hang run", &reference, &result);
    let stats = supervise_stats(&dir);
    assert!(
        stats.contains("stalled: no journal progress for 1000 ms"),
        "stall kill not recorded:\n{stats}"
    );
}

#[test]
fn poison_shard_quarantines_and_report_degrades_to_incomplete() {
    let dir = scratch("poison");
    serial_reference(&dir);
    // Every granted attempt dies after its third journaled cell: each one
    // commits a little more, and restarts run out before fig09 commits.
    let (out, md, journal) = supervise(
        &dir,
        &[
            "--fault-plan",
            "proc=1:0:die:3,proc=1:1:die:3,proc=1:2:die:3",
            "--max-restarts",
            "2",
        ],
    );
    assert_eq!(
        out.status.code(),
        Some(3),
        "degraded run must exit 3 (incomplete), got {:?}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let report = String::from_utf8(md).expect("utf-8 report");
    assert!(
        report.contains("> **Status: incomplete** — 1 figure(s) missing"),
        "missing incomplete stamp:\n{report}"
    );
    assert!(
        report.contains("> - `fig09`"),
        "missing figure not named:\n{report}"
    );
    assert!(
        report.contains("the worker failed 3 attempt(s), the last with: exited with code 86"),
        "missing supervisor reason:\n{report}"
    );
    assert!(
        report.contains("fig01"),
        "survivor figures dropped:\n{report}"
    );
    // The journal keeps the committed survivors under the run's header,
    // so a serial --resume can finish the rest.
    let journal = String::from_utf8(journal).expect("utf-8 journal");
    assert!(
        journal.starts_with("{\"kind\":\"run\""),
        "journal header missing"
    );
    assert!(
        journal.contains("\"id\":\"fig07\""),
        "surviving commit missing"
    );
    assert!(
        !journal.contains("\"id\":\"fig09\""),
        "missing figure committed"
    );
    let stats = supervise_stats(&dir);
    assert!(stats.contains("\"complete\": false"), "{stats}");
    assert!(stats.contains("\"missing\": [\"fig09\"]"), "{stats}");
}

#[test]
fn resume_from_degraded_merge_completes_serially() {
    let dir = scratch("resume-after-degrade");
    let reference = serial_reference(&dir);
    let (out, _, _) = supervise(
        &dir,
        &[
            "--fault-plan",
            "proc=1:0:die:3,proc=1:1:die:3",
            "--max-restarts",
            "1",
        ],
    );
    assert_eq!(out.status.code(), Some(3), "expected a degraded run");
    // Serial --resume from the degraded journal recomputes exactly the
    // missing remainder; stdout, markdown and journal all match the
    // serial run byte for byte.
    let md = dir.join("resumed.md");
    let journal = dir.join("supervised.jsonl");
    let (md_s, journal_s, stats_s) = (
        path_str(&md),
        path_str(&journal),
        path_str(&dir.join("resumed_stats.json")),
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
    assert_eq!(
        std::fs::read(&journal).expect("resumed journal"),
        reference.2,
        "resumed journal differs from serial"
    );
}

/// Whether a run into `dir` spawned a worker: its pid file or first log.
fn spawned_a_worker(dir: &Path) -> bool {
    ["pid", "attempt-0.log"]
        .iter()
        .any(|suffix| dir.join(format!("supervised.jsonl.{suffix}")).exists())
}

#[test]
fn bad_fault_plan_exits_2_before_any_worker_spawns() {
    // `net=` is valid grammar, but no figures process has a site for it;
    // `proc=` keeps its SHARD field, which must be 1.
    for (i, (spec, message)) in [
        ("bogus=1", "unknown fault-plan key \"bogus\""),
        ("net=0:0:drop", "fault-plan key \"net\" has no fault site"),
        ("proc=2:0:die", "SHARD must be 1"),
    ]
    .into_iter()
    .enumerate()
    {
        let dir = scratch(&format!("bad-plan-{i}"));
        let worker = figures(&["fig01", "--fault-plan", spec]);
        let (supervised, _, _) = supervise(&dir, &["--max-restarts", "1", "--fault-plan", spec]);
        for (mode, out) in [("figures", worker), ("figures supervise", supervised)] {
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{mode}: stderr:\n{stderr}");
            assert!(stderr.contains(message), "{mode}: {stderr}");
        }
        assert!(!spawned_a_worker(&dir), "{spec}: a worker was spawned");
    }
}

#[test]
fn bad_command_lines_exit_2_before_any_work() {
    let supervise_cases: [(&[&str], &str); 6] = [
        (&["--threads", "0"], "--threads must be >= 1"),
        (&["fig99"], "unknown figure id: fig99"),
        (&["--stall-ms", "0"], "--stall-ms must be >= 1"),
        (&["--attempt", "1"], "sets --attempt"),
        (&["--max-retries", "1"], "--max-retries needs --quarantine"),
        // Flags of the retired shard fleet.
        (&["--shards", "2"], "unknown flag --shards"),
    ];
    for (i, (extra, message)) in supervise_cases.iter().enumerate() {
        let dir = scratch(&format!("bad-supervise-{i}"));
        let mut args = vec!["--max-restarts", "0"];
        args.extend(*extra);
        let (out, _, _) = supervise(&dir, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{extra:?}: stderr:\n{stderr}");
        assert!(stderr.contains(message), "{extra:?}: {stderr}");
        assert!(!spawned_a_worker(&dir), "{extra:?}: a worker was spawned");
    }

    // A worker must reject the whole command line before it computes or
    // journals the figures that precede the bad argument. The retired
    // `merge` and `sweep` subcommands now read as unknown figure ids.
    for (i, (args, message)) in [
        (&["fig01", "fig99"][..], "unknown figure id: fig99"),
        (&["fig01", "--treads", "2"], "unknown flag --treads"),
        (
            &["fig01", "--max-retries", "2"],
            "--max-retries needs --quarantine",
        ),
        (&["merge", "fig01"], "unknown figure id: merge"),
        (
            &["sweep", "fig01", "--shards", "2"],
            "unknown flag --shards",
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let journal = scratch(&format!("bad-worker-{i}")).join("journal.jsonl");
        let journal_s = path_str(&journal);
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
        "seed=1,panic=fig01:1:poison,panic=fig02:0:transient",
    ];
    let reference = serial_reference_with(&dir, &flags);
    let result = supervise(&dir, &flags);
    assert_identical("forwarded-flags run", &reference, &result);
    let stats =
        std::fs::read_to_string(dir.join("supervised_stats.json")).expect("worker grid stats");
    assert!(
        stats.contains("\"threads\": 1,"),
        "worker ignored --threads:\n{stats}"
    );
    assert!(
        stats.contains("\"cells_quarantined\": 1"),
        "worker ignored --quarantine:\n{stats}"
    );
    assert!(
        stats.contains("\"attempts\": 2"),
        "worker ignored --max-retries:\n{stats}"
    );
}
