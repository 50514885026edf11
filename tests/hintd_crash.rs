//! Kill-restart crash recovery for the hint server.
//!
//! The contract under test (DESIGN.md §12): an acknowledged ingest is
//! durable, a retried ingest is idempotent, and after any crash the
//! recovered, fully-drained hint tables are **byte-identical** to an
//! uninterrupted run over the same batches.
//!
//! Two crash modes:
//! * `--fault-plan exit-after=N` — the server kills itself (exit 86) the
//!   instant the N-th batch hits the journal, *before* the client is
//!   acked: the worst spot, a journaled-but-unacknowledged batch. The
//!   client's bounded retry resends it after restart and must be answered
//!   `deduped`.
//! * a real SIGKILL between acknowledged operations.
//!
//! Run uninterrupted over the same sequence, dump both stores, compare
//! the canonical table bytes. A mistyped `--fault-plan` must instead stop
//! `hintd` and `hintload` at startup (exit 2).

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use btb_model::BtbConfig;
use btb_trace::{BranchKind, BranchRecord, Trace};
use hintd::{HintClient, HintStore, RetryPolicy, StoreConfig};
use sim_support::fault::CRASH_EXIT_CODE;
use sim_support::FaultPlan;

const APPS: [&str; 2] = ["alpha", "beta"];

fn batch(id: u64) -> Trace {
    // Distinct, deterministic content per id: a hot loop plus an id-keyed
    // cold tail, so every batch moves the final table.
    let mut records = Vec::new();
    for i in 0..40u64 {
        let pc = 0x40 + (id * 8) % 64;
        records.push(BranchRecord::taken(
            pc,
            pc + 0x100,
            BranchKind::UncondDirect,
            1,
        ));
        records.push(BranchRecord::taken(
            0x1000 + id * 0x80 + i * 4,
            0x2000,
            BranchKind::UncondDirect,
            1,
        ));
    }
    Trace::from_records(format!("batch{id}"), records)
}

fn app_of(id: u64) -> &'static str {
    APPS[(id % 2) as usize]
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("hintd-crash-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Kills the child on drop so a panicking test never leaks a server.
struct ServerProc {
    child: Child,
    addr: String,
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_hintd(data_dir: &Path, addr_file: &Path, fault_plan: Option<&str>) -> ServerProc {
    let _ = std::fs::remove_file(addr_file);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_hintd"));
    cmd.arg("--data-dir")
        .arg(data_dir)
        .arg("--addr-file")
        .arg(addr_file)
        .args(["--btb-entries", "16", "--btb-ways", "4"])
        .args(["--read-timeout-ms", "20", "--idle-ticks", "20"])
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(plan) = fault_plan {
        cmd.args(["--fault-plan", plan]);
    }
    let child = cmd.spawn().expect("spawn hintd");
    // write_atomic guarantees the file appears complete or not at all.
    let deadline = Instant::now() + Duration::from_secs(10);
    let addr = loop {
        match std::fs::read_to_string(addr_file) {
            Ok(text) if !text.trim().is_empty() => break text.trim().to_owned(),
            _ => {
                assert!(
                    Instant::now() < deadline,
                    "hintd never published its address"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    };
    ServerProc { child, addr }
}

fn fast_client(addr: &str) -> HintClient {
    let mut client = HintClient::with_faults(
        addr.to_string(),
        RetryPolicy {
            max_retries: 3,
            base_delay_ms: 1,
            max_delay_ms: 8,
        },
        FaultPlan::default(),
        0,
    );
    client.set_read_timeout_ms(1_000);
    client
}

/// Fully drains the server over the wire and returns each app's canonical
/// table bytes, sorted by app name.
fn dump_over_wire(client: &mut HintClient) -> Vec<(String, Vec<u8>)> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let health = client.health().expect("drain health");
        if health.backlog == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "backlog refuses to drain");
    }
    let mut out: Vec<(String, Vec<u8>)> = APPS
        .iter()
        .map(|app| {
            let reply = client.query(app).expect("dump query");
            assert!(!reply.stale, "drained server must serve fresh");
            (app.to_string(), reply.table.encode_bytes())
        })
        .collect();
    out.sort();
    out
}

/// The uninterrupted reference: the same batches through an in-process
/// store with the same geometry. `HintStore::dump_tables` returns the
/// same canonical bytes the wire dump uses.
fn reference_tables(ids: std::ops::Range<u64>) -> Vec<(String, Vec<u8>)> {
    let store = HintStore::open(StoreConfig {
        btb: BtbConfig::new(16, 4),
        ..StoreConfig::default()
    })
    .unwrap();
    for id in ids {
        let response = store.ingest_response(app_of(id), id, batch(id));
        assert!(
            matches!(response, hintd::Response::Ingest(_)),
            "{response:?}"
        );
    }
    store.dump_tables()
}

#[test]
fn exit_after_crash_recovers_byte_identical_tables() {
    let dir = scratch("exit-after");
    let data = dir.join("data");
    let addr_file = dir.join("addr.txt");

    // The 3rd journal append kills the server before the ack goes out.
    let mut server = spawn_hintd(&data, &addr_file, Some("exit-after=3"));
    let mut client = fast_client(&server.addr);

    let mut acked = Vec::new();
    let mut id = 0u64;
    while id < 6 {
        match client.ingest(app_of(id), id, &batch(id)) {
            Ok(ack) => {
                acked.push((id, ack.deduped));
                id += 1;
            }
            Err(err) => {
                // The planned crash. Prove it was the planned exit code,
                // then restart over the same data dir and resend the same
                // batch id.
                assert_eq!(err.class, sim_support::FaultClass::Transient);
                let status = server.child.wait().expect("wait crashed hintd");
                assert_eq!(
                    status.code(),
                    Some(CRASH_EXIT_CODE),
                    "server must die by the fault plan, not by accident"
                );
                server = spawn_hintd(&data, &addr_file, None);
                client = fast_client(&server.addr);
                let ack = client
                    .ingest(app_of(id), id, &batch(id))
                    .expect("resend after restart");
                assert!(
                    ack.deduped,
                    "the batch was journaled before the crash; the resend \
                     must dedupe, not double-absorb"
                );
                acked.push((id, true));
                id += 1;
            }
        }
    }
    assert_eq!(acked.len(), 6);
    assert_eq!(
        acked.iter().filter(|(_, deduped)| *deduped).count(),
        1,
        "exactly the crash-straddling batch is deduplicated"
    );

    let health = client.health().expect("final health");
    assert_eq!(health.accepted, 6, "zero lost acknowledged batches");

    assert_eq!(
        dump_over_wire(&mut client),
        reference_tables(0..6),
        "recovered tables must be byte-identical to the uninterrupted run"
    );
}

#[test]
fn sigkill_between_acks_recovers_byte_identical_tables() {
    let dir = scratch("sigkill");
    let data = dir.join("data");
    let addr_file = dir.join("addr.txt");

    let mut server = spawn_hintd(&data, &addr_file, None);
    let mut client = fast_client(&server.addr);
    for id in 0..3u64 {
        let ack = client.ingest(app_of(id), id, &batch(id)).unwrap();
        assert!(!ack.deduped);
    }

    // A real SIGKILL: no atexit hooks, no flushes, nothing graceful.
    server.child.kill().expect("SIGKILL hintd");
    let _ = server.child.wait();

    server = spawn_hintd(&data, &addr_file, None);
    client = fast_client(&server.addr);
    for id in 3..6u64 {
        let ack = client.ingest(app_of(id), id, &batch(id)).unwrap();
        assert!(!ack.deduped);
    }

    let health = client.health().expect("final health");
    assert_eq!(health.accepted, 6, "all acknowledged batches survived");
    assert_eq!(
        dump_over_wire(&mut client),
        reference_tables(0..6),
        "post-SIGKILL tables must be byte-identical to the uninterrupted run"
    );
}

/// Runs `bin` with `args`; returns its exit code and stderr, or `None`
/// for a process still running after 30 s (killed then).
fn run_bounded(bin: &str, args: &[&str], stderr_path: &Path) -> (Option<i32>, String) {
    let stderr = std::fs::File::create(stderr_path).expect("stderr file");
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::null())
        .stderr(stderr)
        .spawn()
        .expect("spawn binary");
    let deadline = Instant::now() + Duration::from_secs(30);
    let code = loop {
        if let Some(status) = child.try_wait().expect("wait") {
            break status.code();
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    (
        code,
        std::fs::read_to_string(stderr_path).unwrap_or_default(),
    )
}

#[test]
fn bad_fault_plan_exits_2_in_hintd_and_hintload() {
    let dir = scratch("bad-cli");
    let data = dir.join("data");
    let data = data.to_str().unwrap();
    let hintd = env!("CARGO_BIN_EXE_hintd");
    let hintload = env!("CARGO_BIN_EXE_hintload");
    // hintd gets a data dir and hintload a real (closed) address, so that
    // only the parse can stop them.
    let out = dir.to_str().unwrap();
    let load = |spec| {
        let addr = [
            "--addr",
            "127.0.0.1:9",
            "--apps",
            "1",
            "--ops",
            "1",
            "--out",
            out,
        ];
        [&addr[..], &["--fault-plan", spec]].concat()
    };
    let serve = |args: &[&'static str]| [&["--data-dir", data][..], args].concat();
    let cases = [
        (
            hintd,
            vec!["--fault-plan", "bogus=1"],
            "unknown fault-plan key \"bogus\"",
        ),
        (
            hintload,
            vec!["--fault-plan", "bogus=1"],
            "unknown fault-plan key \"bogus\"",
        ),
        // Keys of the grammar that the binary has no fault site for.
        (
            hintd,
            serve(&["--fault-plan", "proc=1:0:die:1"]),
            "\"proc\"",
        ),
        (
            hintd,
            serve(&["--fault-plan", "panic=fig01:0:poison"]),
            "\"panic\"",
        ),
        (hintload, load("panic=fig01:0:poison"), "\"panic\""),
        (hintload, load("io=stats:1"), "\"io\""),
        (hintload, load("proc=1:0:die"), "\"proc\""),
        // Out-of-range values the server would otherwise assert on.
        (hintd, serve(&["--shards", "0"]), "--shards must be >= 1"),
        (
            hintd,
            serve(&["--btb-ways", "0"]),
            "--btb-ways must be >= 1",
        ),
        (hintd, serve(&["--workers", "0"]), "--workers must be >= 1"),
        (
            hintd,
            serve(&["--read-timeout-ms", "0"]),
            "--read-timeout-ms must be >= 1",
        ),
        (
            hintd,
            serve(&["--idle-ticks", "0"]),
            "--idle-ticks must be >= 1",
        ),
    ];
    for (i, (bin, args, message)) in cases.into_iter().enumerate() {
        let (code, stderr) = run_bounded(bin, &args, &dir.join(format!("stderr-{i}")));
        assert_eq!(code, Some(2), "{bin} {args:?}: stderr:\n{stderr}");
        assert!(stderr.contains(message), "{bin} {args:?}: {stderr}");
    }
}
