//! `hintd` — the hint server daemon. `hintd --help` lists the flags; a
//! bad flag or value exits 2 before the server binds.
//!
//! Binds (port 0 = ephemeral), prints `hintd listening on ADDR`, writes
//! the address to `--addr-file` (atomically, so a watcher never reads a
//! half-written address), then serves until killed. `--fault-plan`
//! installs a [`sim_support::FaultPlan`] over the keys hintd has sites
//! for, `io` and `exit-after`; its `exit-after=N` entry makes the process
//! exit with code 86 after the N-th journaled batch — the crash harness's
//! scalpel. Restarting with the same `--data-dir` replays the journals
//! before accepting traffic.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use btb_model::BtbConfig;
use hintd::{HintServer, ServerConfig, StoreConfig};
use sim_support::cli::{self, Cursor};
use sim_support::fsio;
use sim_support::FaultPlan;

const USAGE: &str = "usage: hintd --data-dir DIR [--host H] [--port P] [--addr-file PATH] \
     [--shards N] [--workers N] [--watermark N] [--drain-per-health N] \
     [--read-timeout-ms N] [--idle-ticks N] [--btb-entries N] [--btb-ways N] \
     [--fault-plan SPEC]";

/// The `--fault-plan` keys hintd has fault sites for: journal writes
/// (`fsio::append_line_durable`) and accepted batches (`exit-after`).
const FAULT_KEYS: [&str; 2] = ["io", "exit-after"];

/// Parses the command line into the server configuration and its
/// `--addr-file`.
fn parse_args() -> Result<(ServerConfig, Option<PathBuf>), String> {
    let mut args = Cursor::new(std::env::args().skip(1), USAGE);
    let mut host = "127.0.0.1".to_owned();
    let mut port = 0u16;
    let mut addr_file: Option<PathBuf> = None;
    let mut data_dir: Option<PathBuf> = None;
    let mut store = StoreConfig::default();
    let mut server = ServerConfig::default();
    let mut btb_entries = store.btb.entries();
    let mut btb_ways = store.btb.ways();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--host" => host = args.value()?,
            "--port" => port = args.parse()?,
            "--addr-file" => addr_file = Some(args.value()?.into()),
            "--data-dir" => data_dir = Some(args.value()?.into()),
            "--shards" => store.shards = args.at_least(1)?,
            "--workers" => server.workers = args.parse()?,
            "--watermark" => store.watermark = args.parse()?,
            "--drain-per-health" => store.drain_per_health = args.parse()?,
            "--read-timeout-ms" => server.read_timeout_ms = args.parse()?,
            "--idle-ticks" => server.idle_ticks = args.parse()?,
            "--btb-entries" => btb_entries = args.at_least(1)?,
            "--btb-ways" => btb_ways = args.at_least(1)?,
            "--fault-plan" => {
                let plan = FaultPlan::parse_keys(&args.value()?, &FAULT_KEYS)?;
                sim_support::fault::install(plan);
            }
            _ => return Err(args.unexpected()),
        }
    }
    if btb_entries < btb_ways {
        return Err(format!(
            "--btb-entries ({btb_entries}) must be >= --btb-ways ({btb_ways})"
        ));
    }
    let data_dir = data_dir.ok_or("--data-dir is required (journals live there)")?;
    store.journal_dir = Some(data_dir);
    store.btb = BtbConfig::new(btb_entries, btb_ways);
    server.store = store;
    server.addr = format!("{host}:{port}");
    Ok((server, addr_file))
}

fn main() -> ExitCode {
    let (server, addr_file) = parse_args().unwrap_or_else(|e| cli::fail(USAGE, &e));

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
