//! `hintd` — the hint server daemon.
//!
//! ```text
//! hintd --data-dir DIR [--host 127.0.0.1] [--port 0] [--addr-file PATH]
//!       [--shards N] [--workers N] [--watermark N] [--drain-per-health N]
//!       [--read-timeout-ms N] [--idle-ticks N]
//!       [--btb-entries N] [--btb-ways N] [--fault-plan SPEC]
//! ```
//!
//! Binds (port 0 = ephemeral), prints `hintd listening on ADDR`, writes
//! the address to `--addr-file` (atomically, so a watcher never reads a
//! half-written address), then serves until killed. `--fault-plan`
//! installs a [`sim_support::FaultPlan`]; its `exit-after=N` entry makes
//! the process exit with code 86 after the N-th journaled batch — the
//! crash harness's scalpel. Restarting with the same `--data-dir` replays
//! the journals before accepting traffic.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use btb_model::BtbConfig;
use hintd::{HintServer, ServerConfig, StoreConfig};
use sim_support::fsio;
use sim_support::FaultPlan;

fn usage(msg: &str) -> ! {
    eprintln!("hintd: {msg}");
    eprintln!(
        "usage: hintd --data-dir DIR [--host H] [--port P] [--addr-file PATH] \
         [--shards N] [--workers N] [--watermark N] [--drain-per-health N] \
         [--read-timeout-ms N] [--idle-ticks N] [--btb-entries N] [--btb-ways N] \
         [--fault-plan SPEC]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut host = "127.0.0.1".to_owned();
    let mut port = 0u16;
    let mut addr_file: Option<PathBuf> = None;
    let mut data_dir: Option<PathBuf> = None;
    let mut store = StoreConfig::default();
    let mut server = ServerConfig::default();
    let mut btb_entries = store.btb.entries();
    let mut btb_ways = store.btb.ways();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| usage(&format!("missing value after {flag}")))
        };
        match arg.as_str() {
            "--host" => host = value("--host"),
            "--port" => port = parse(&value("--port"), "--port"),
            "--addr-file" => addr_file = Some(PathBuf::from(value("--addr-file"))),
            "--data-dir" => data_dir = Some(PathBuf::from(value("--data-dir"))),
            "--shards" => store.shards = parse(&value("--shards"), "--shards"),
            "--workers" => server.workers = parse(&value("--workers"), "--workers"),
            "--watermark" => store.watermark = parse(&value("--watermark"), "--watermark"),
            "--drain-per-health" => {
                store.drain_per_health = parse(&value("--drain-per-health"), "--drain-per-health")
            }
            "--read-timeout-ms" => {
                server.read_timeout_ms = parse(&value("--read-timeout-ms"), "--read-timeout-ms")
            }
            "--idle-ticks" => server.idle_ticks = parse(&value("--idle-ticks"), "--idle-ticks"),
            "--btb-entries" => btb_entries = parse(&value("--btb-entries"), "--btb-entries"),
            "--btb-ways" => btb_ways = parse(&value("--btb-ways"), "--btb-ways"),
            "--fault-plan" => {
                let spec = value("--fault-plan");
                let plan = FaultPlan::parse(&spec).unwrap_or_else(|err| usage(&err));
                sim_support::fault::install(plan);
            }
            other => usage(&format!("unknown flag {other:?}")),
        }
    }

    let Some(data_dir) = data_dir else {
        usage("--data-dir is required (journals live there)");
    };
    store.journal_dir = Some(data_dir);
    store.btb = BtbConfig::new(btb_entries, btb_ways);
    server.store = store;
    server.addr = format!("{host}:{port}");

    let running = match HintServer::start(server) {
        Ok(running) => running,
        Err(err) => {
            eprintln!("hintd: start failed: {err}");
            return ExitCode::FAILURE;
        }
    };
    let addr = running.local_addr();
    println!("hintd listening on {addr}");
    let _ = std::io::stdout().flush();
    if let Some(path) = addr_file {
        if let Err(err) = fsio::write_atomic(&path, addr.to_string().as_bytes()) {
            eprintln!("hintd: cannot write addr file: {err}");
            return ExitCode::FAILURE;
        }
    }
    running.join();
    ExitCode::SUCCESS
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| usage(&format!("bad value {s:?} for {flag}")))
}
