//! `hintload` — the hintd load generator and table dumper. `hintload
//! --help` lists the flags; a bad flag or value exits 2 before any load.
//!
//! Drives a Zipf-over-apps bursty mix of ingests, queries and periodic
//! health pings through the retrying [`hintd::HintClient`], measures
//! per-operation wire latency, and reports p50/p99 per verb plus
//! sustained QPS through the workspace bench harness into
//! `results/bench_hintd.json` (`BENCH_ITERS` / `BENCH_WARMUP` control the
//! repetition; medians and MAD come from the harness).
//!
//! `--fault-plan` takes a [`sim_support::FaultPlan`] of `net=` entries
//! only (any other key exits 2), injected at the client's frame boundary —
//! the loopback way to watch retry/backoff converge.
//! `--dump-tables` drains the server (health pings until the backlog hits
//! zero) and writes every app's canonical table bytes, hex-encoded and
//! sorted by app, to a file: the crash-recovery harness compares these
//! dumps byte-for-byte.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use btb_trace::Trace;
use btb_workloads::zipf::Zipf;
use btb_workloads::{AppSpec, InputConfig};
use hintd::{HintClient, RetryPolicy};
use sim_support::cli::{self, Cursor};
use sim_support::{BenchHarness, FaultPlan, SimRng};

struct Opts {
    addr: Option<String>,
    addr_file: Option<PathBuf>,
    apps: usize,
    ops: usize,
    records: usize,
    zipf: f64,
    burst: usize,
    ingest_pct: u64,
    seed: u64,
    retries: u32,
    fault_plan: FaultPlan,
    out: String,
    dump_tables: Option<PathBuf>,
    dump_only: bool,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            addr: None,
            addr_file: None,
            apps: 4,
            ops: 200,
            records: 2_000,
            zipf: 1.2,
            burst: 16,
            ingest_pct: 70,
            seed: 42,
            retries: 4,
            fault_plan: FaultPlan::default(),
            out: "results".to_owned(),
            dump_tables: None,
            dump_only: false,
        }
    }
}

const USAGE: &str = "usage: hintload (--addr HOST:PORT | --addr-file PATH) [--apps N] [--ops N] \
     [--records N] [--zipf S] [--burst N] [--ingest-pct P] [--seed N] [--retries N] \
     [--fault-plan SPEC] [--out DIR] [--dump-tables PATH] [--dump-only]";

/// The one `--fault-plan` key hintload has sites for: it hands the plan to
/// its [`HintClient`], which injures frames, and installs nothing.
const FAULT_KEYS: [&str; 1] = ["net"];

fn parse_args() -> Result<Opts, String> {
    let mut args = Cursor::new(std::env::args().skip(1), USAGE);
    let mut opts = Opts::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => opts.addr = Some(args.value()?),
            "--addr-file" => opts.addr_file = Some(args.value()?.into()),
            "--apps" => opts.apps = args.parse()?,
            "--ops" => opts.ops = args.parse()?,
            "--records" => opts.records = args.parse()?,
            "--zipf" => opts.zipf = args.parse()?,
            "--burst" => opts.burst = args.parse()?,
            "--ingest-pct" => opts.ingest_pct = args.parse()?,
            "--seed" => opts.seed = args.parse()?,
            "--retries" => opts.retries = args.parse()?,
            "--fault-plan" => opts.fault_plan = FaultPlan::parse_keys(&args.value()?, &FAULT_KEYS)?,
            "--out" => opts.out = args.value()?,
            "--dump-tables" => opts.dump_tables = Some(args.value()?.into()),
            "--dump-only" => opts.dump_only = true,
            _ => return Err(args.unexpected()),
        }
    }
    if opts.ingest_pct > 100 {
        return Err("--ingest-pct must be 0..=100".to_owned());
    }
    if opts.apps == 0 || opts.apps > AppSpec::all().len() {
        return Err(format!("--apps must be 1..={}", AppSpec::all().len()));
    }
    Ok(opts)
}

/// Rotating per-app batch pool: generation cost is paid before the timed
/// passes, and every ingest gets a globally unique batch id so no two
/// passes dedupe against each other.
const BATCH_POOL: usize = 8;

fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[idx] as f64 / 1_000.0
}

fn main() -> ExitCode {
    let opts = parse_args().unwrap_or_else(|e| cli::fail(USAGE, &e));
    let addr = match (&opts.addr, &opts.addr_file) {
        (Some(addr), _) => addr.clone(),
        (None, Some(path)) => match std::fs::read_to_string(path) {
            Ok(text) => text.trim().to_owned(),
            Err(err) => {
                eprintln!("hintload: cannot read {}: {err}", path.display());
                return ExitCode::FAILURE;
            }
        },
        (None, None) => cli::fail(USAGE, "need --addr or --addr-file"),
    };
    let retry = RetryPolicy {
        max_retries: opts.retries,
        ..RetryPolicy::default()
    };
    let mut client = HintClient::with_faults(&addr, retry, opts.fault_plan, opts.seed);

    let specs = AppSpec::all();
    let apps: Vec<String> = specs
        .iter()
        .take(opts.apps)
        .map(|s| s.name.clone())
        .collect();
    if !opts.dump_only {
        // Pre-generate the batch pool outside the timed region.
        let pool: Vec<Vec<Trace>> = specs
            .iter()
            .take(opts.apps)
            .map(|spec| {
                (0..BATCH_POOL)
                    .map(|i| spec.generate(InputConfig::input(i as u32), opts.records))
                    .collect()
            })
            .collect();
        let zipf = Zipf::new(opts.apps, opts.zipf);
        let mut rng = SimRng::seed_from_u64(opts.seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut next_batch_id = 0u64;
        let mut pool_cursor = vec![0usize; opts.apps];
        let mut lat_ingest: Vec<u64> = Vec::new();
        let mut lat_query: Vec<u64> = Vec::new();
        let mut lat_health: Vec<u64> = Vec::new();
        let mut errors = 0u64;

        let mut harness = BenchHarness::new("hintd");
        harness.bench("mixed_load", Some(opts.ops as u64), || {
            for i in 0..opts.ops {
                let burst_tick = opts.burst > 0 && i % opts.burst == opts.burst - 1;
                if burst_tick {
                    let t0 = Instant::now();
                    let ok = client.health().is_ok();
                    lat_health.push(t0.elapsed().as_nanos() as u64);
                    if !ok {
                        errors += 1;
                    }
                    continue;
                }
                let app_idx = zipf.sample(&mut rng);
                let app = &apps[app_idx];
                if rng.gen_range(0..100u64) < opts.ingest_pct {
                    let cursor = &mut pool_cursor[app_idx];
                    let trace = &pool[app_idx][*cursor % BATCH_POOL];
                    *cursor += 1;
                    let id = next_batch_id;
                    next_batch_id += 1;
                    let t0 = Instant::now();
                    let ok = client.ingest(app, id, trace).is_ok();
                    lat_ingest.push(t0.elapsed().as_nanos() as u64);
                    if !ok {
                        errors += 1;
                    }
                } else {
                    let t0 = Instant::now();
                    let ok = client.query(app).is_ok();
                    lat_query.push(t0.elapsed().as_nanos() as u64);
                    if !ok {
                        errors += 1;
                    }
                }
            }
        });

        for (name, lat) in [
            ("ingest", &mut lat_ingest),
            ("query", &mut lat_query),
            ("health", &mut lat_health),
        ] {
            lat.sort_unstable();
            harness.note(&format!(
                "{name}: n={} p50_us={:.1} p99_us={:.1}",
                lat.len(),
                percentile_us(lat, 0.50),
                percentile_us(lat, 0.99),
            ));
        }
        harness.note(&format!(
            "config: apps={} ops={} records={} zipf={} burst={} ingest_pct={} seed={} errors={errors}",
            opts.apps, opts.ops, opts.records, opts.zipf, opts.burst, opts.ingest_pct, opts.seed
        ));
        harness.finish(&opts.out);
        if errors > 0 {
            eprintln!("hintload: {errors} operations failed after retries");
            return ExitCode::FAILURE;
        }
    }

    if let Some(path) = &opts.dump_tables {
        // Drain the server fully so the dump is the pure function of the
        // accepted batches, then snapshot every app's canonical bytes.
        let mut spins = 0u32;
        loop {
            let health = match client.health() {
                Ok(h) => h,
                Err(err) => {
                    eprintln!("hintload: drain health failed: {}", err.message);
                    return ExitCode::FAILURE;
                }
            };
            if health.backlog == 0 {
                break;
            }
            spins += 1;
            if spins > 100_000 {
                eprintln!("hintload: backlog refuses to drain");
                return ExitCode::FAILURE;
            }
        }
        let mut lines = String::new();
        for app in &apps {
            let reply = match client.query(app) {
                Ok(r) => r,
                Err(err) => {
                    eprintln!("hintload: dump query {app} failed: {}", err.message);
                    return ExitCode::FAILURE;
                }
            };
            if reply.stale {
                eprintln!("hintload: {app} still stale after drain");
                return ExitCode::FAILURE;
            }
            lines.push_str(app);
            lines.push(' ');
            lines.push_str(&hintd::hex_encode(&reply.table.encode_bytes()));
            lines.push('\n');
        }
        if let Err(err) = sim_support::fsio::write_atomic(path, lines.as_bytes()) {
            eprintln!("hintload: cannot write {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "hintload: dumped {} tables to {}",
            apps.len(),
            path.display()
        );
        let _ = std::io::stdout().flush();
    }
    ExitCode::SUCCESS
}
