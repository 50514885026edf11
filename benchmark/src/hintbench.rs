//! The hintd workloads: the `hintd` server under open-loop load from two
//! client threads on two connections.
//!
//! Arrivals are Poisson at a fixed nominal rate; each request is timed from
//! the moment it was due, so a stall also charges the requests queued
//! behind it. Apps are Zipf(1.2)-popular over the first four of the suite;
//! every 16th request of a client is a health check. `hintd-ingest` sends
//! 70% ingests of 2000-record batches — the write path of journal fsync and
//! blob decode. `hintd-query` sends 10% — the read path, where queries
//! absorb the backlog inline. The seed shapes the arrival times, the
//! request mix and the batch contents.
//!
//! The server drains its backlog per request, not per second: a query
//! absorbs its app's queue while it is at or under the watermark, and a
//! health check absorbs up to `--drain-per-health` batches. Whether the
//! backlog stays flat is therefore a property of the mix, not of the rate,
//! and each mix runs the server with a drain that keeps it flat. The rates
//! are frozen at a quarter of what `slo` measured (see `benchmark/runs/`).

use std::path::Path;
use std::process::{Command, Stdio};

use btb_trace::{codec, Trace};
use btb_workloads::{zipf::Zipf, AppSpec, InputConfig};
use hintd::proto::{self, Request, Response, WireTable};
use hintd::{HintClient, HintStore, StoreConfig};
use sim_support::{fsio, SimRng, ThreadPool};
use thermometer::IncrementalProfiler;

use crate::clock::{self, Stamp};
use crate::expected::Checker;
use crate::ledger::Ledger;
use crate::metrics::Metric;
use crate::procfs::{self, spawn_until_file};
use crate::{end_to_end, stats, Ctx};

/// A traffic mix: the share of ingests, the nominal offered rate, the
/// verb whose latency the workload reports (the rest of the mix shapes the
/// server state it meets), and the server's drain per health check.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    ingest_pct: u64,
    verb: Verb,
    /// Requests per second over all clients: a quarter of the median
    /// `qps_at_slo` that `slo` measured for the mix on seeds 0–2 on the
    /// reference host (ingest 2,250, query 7,750 req/s). That search finds
    /// where the server saturates, and the host's speed varies enough for
    /// half of it to saturate in slow periods.
    rate: f64,
    /// `hintd --drain-per-health`. The query mix queues about 1.5 batches
    /// between health checks and the default of 4 keeps up; the ingest mix
    /// queues about 10.5, so at 4 its backlog grows at any rate and the
    /// server serves stale tables from ever more memory.
    drain_per_health: usize,
}

pub const INGEST: Mix = Mix {
    ingest_pct: 70,
    verb: Verb::Ingest,
    rate: 550.0,
    drain_per_health: 16,
};

pub const QUERY: Mix = Mix {
    ingest_pct: 10,
    verb: Verb::Query,
    rate: 1_950.0,
    drain_per_health: 4,
};

const APPS: usize = 4;
const ZIPF_S: f64 = 1.2;
const BATCH_RECORDS: usize = 2_000;
/// Distinct batches per app; ingests cycle through them under fresh ids.
const POOL_BATCHES: usize = 16;
const HEALTH_EVERY: usize = 16;
const CLIENTS: usize = 2;
/// Load before the latency window opens, so the window sees warm tables.
const WARMUP_S: f64 = 1.0;
/// The set-up restarts the server over a journal of this many batches.
const PRESEED_BATCHES: u64 = 1_000;
const RESTARTS: usize = 3;
/// A request sent more than this after it was due counts as late.
const LATE_MS: f64 = 1.0;
const SERVER_START_TIMEOUT_S: f64 = 60.0;
/// The rate search: its latency limit on the median of every request,
/// first rate, stopping width (relative to the highest passing rate) and
/// ceiling.
const SLO_P50_MS: f64 = 5.0;
const SLO_START_RATE: f64 = 250.0;
const SLO_RESOLUTION: f64 = 0.06;
const SLO_MAX_RATE: f64 = 16_000.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verb {
    Ingest,
    Query,
    Health,
}

/// One scheduled request.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Op {
    /// Seconds after the load starts.
    due_s: f64,
    verb: Verb,
    app: usize,
    /// Index into the app's batch pool (ingests).
    batch: usize,
    /// Unique batch id (ingests).
    id: u64,
}

/// Each client's open-loop schedule over `warm-up + seconds`: Poisson
/// arrivals at `rate / CLIENTS`, every 16th request a health check, the
/// rest ingest or query by `ingest_pct`, apps drawn Zipf.
fn schedule(seed: u64, mix: Mix, seconds: f64) -> Vec<Vec<Op>> {
    let mut root = SimRng::seed_from_u64(seed ^ 0x6869_6e74_6c6f_6164);
    let zipf = Zipf::new(APPS, ZIPF_S);
    let per_client = mix.rate / CLIENTS as f64;
    (0..CLIENTS)
        .map(|client| {
            let mut rng = root.split();
            let mut cursor = [0usize; APPS];
            let mut ops = Vec::new();
            let mut due_s = 0.0;
            for i in 0.. {
                due_s += -(1.0 - rng.gen::<f64>()).ln() / per_client;
                if due_s >= WARMUP_S + seconds {
                    break;
                }
                let app = zipf.sample(&mut rng);
                let ingest = rng.gen_range(0..100u64) < mix.ingest_pct;
                let verb = match (i % HEALTH_EVERY == HEALTH_EVERY - 1, ingest) {
                    (true, _) => Verb::Health,
                    (false, true) => Verb::Ingest,
                    (false, false) => Verb::Query,
                };
                let batch = cursor[app] % POOL_BATCHES;
                if verb == Verb::Ingest {
                    cursor[app] += 1;
                }
                ops.push(Op {
                    due_s,
                    verb,
                    app,
                    batch,
                    id: ((client as u64) << 32) | i as u64,
                });
            }
            ops
        })
        .collect()
}

/// Each app's batches: consecutive 2000-record windows of one trace on the
/// seed's input, like successive batches of one production stream.
fn batch_pool(seed: u64) -> Vec<(String, Vec<Trace>)> {
    AppSpec::all()
        .into_iter()
        .take(APPS)
        .map(|spec| {
            let whole = spec.generate(
                InputConfig::input(seed as u32),
                BATCH_RECORDS * POOL_BATCHES,
            );
            let batches = whole
                .records()
                .chunks(BATCH_RECORDS)
                .enumerate()
                .map(|(k, chunk)| {
                    Trace::from_records(format!("{}#b{k}", spec.name), chunk.to_vec())
                })
                .collect();
            (spec.name, batches)
        })
        .collect()
}

/// Each app's canonical table bytes, in app order.
type Tables = Vec<(String, Vec<u8>)>;

/// What one request did, seen from the client.
#[derive(Clone, Copy, Debug)]
struct Sample {
    op: Op,
    ok: bool,
    /// Due → reply, ms: the latency the workload reports.
    latency_ms: f64,
    /// Send → reply, ms: what the server and network took.
    service_ms: f64,
    /// Due → send, ms: how late the generator ran.
    late_ms: f64,
    stale: bool,
    backlog: Option<u64>,
}

fn client_loop(addr: &str, ops: &[Op], pool: &[(String, Vec<Trace>)], start: Stamp) -> Vec<Sample> {
    let mut client = HintClient::connect(addr);
    let mut reported = false;
    ops.iter()
        .map(|op| {
            let due = clock::after(start, op.due_s);
            clock::sleep_until(due);
            let send = clock::now();
            let (app, batches) = &pool[op.app];
            let (mut stale, mut backlog) = (false, None);
            let outcome = match op.verb {
                Verb::Ingest => client.ingest(app, op.id, &batches[op.batch]).map(|_| ()),
                Verb::Query => client.query(app).map(|r| stale = r.stale),
                Verb::Health => client.health().map(|h| backlog = Some(h.backlog)),
            };
            let reply = clock::now();
            if let Err(e) = &outcome {
                if !reported {
                    eprintln!("hintd client error after retries: {}", e.message);
                    reported = true;
                }
            }
            Sample {
                op: *op,
                ok: outcome.is_ok(),
                latency_ms: clock::between(due, reply) * 1e3,
                service_ms: clock::between(send, reply) * 1e3,
                late_ms: clock::between(due, send) * 1e3,
                stale,
                backlog,
            }
        })
        .collect()
}

/// Drives every client's schedule against `addr`, one pool thread and one
/// connection per client; returns all samples in due order.
fn drive(addr: &str, plan: &[Vec<Op>], pool: &[(String, Vec<Trace>)]) -> Vec<Sample> {
    let threads = ThreadPool::new(CLIENTS);
    // Both clients share one start instant, slightly ahead so neither
    // begins late.
    let start = clock::after(clock::now(), 0.05);
    let mut per_client: Vec<Vec<Sample>> = vec![Vec::new(); plan.len()];
    threads.scope(|scope| {
        for (ops, out) in plan.iter().zip(per_client.iter_mut()) {
            scope.spawn(move || *out = client_loop(addr, ops, pool, start));
        }
    });
    let mut all: Vec<Sample> = per_client.into_iter().flatten().collect();
    all.sort_by(|a, b| a.op.due_s.total_cmp(&b.op.due_s));
    all
}

fn hintd(ctx: &Ctx, mix: Mix, data_dir: &Path, addr_file: &Path) -> Result<Command, String> {
    let mut cmd = ctx.command("hintd");
    cmd.arg("--data-dir")
        .arg(data_dir)
        .arg("--addr-file")
        .arg(addr_file)
        .args(["--drain-per-health", &mix.drain_per_health.to_string()])
        .stdout(Stdio::null())
        .stderr(ctx.log("hintd").map_err(|e| e.to_string())?);
    Ok(cmd)
}

/// Writes a journal of `PRESEED_BATCHES` accepted batches through the
/// store's own ingest path.
fn preseed(dir: &Path, pool: &[(String, Vec<Trace>)]) -> Result<(), String> {
    let store = HintStore::open(StoreConfig {
        journal_dir: Some(dir.to_path_buf()),
        ..StoreConfig::default()
    })
    .map_err(|e| format!("preseed store: {e}"))?;
    for id in 0..PRESEED_BATCHES {
        let (app, batches) = &pool[id as usize % APPS];
        let batch = batches[(id as usize / APPS) % POOL_BATCHES].clone();
        match store.ingest_response(app, id, batch) {
            Response::Ingest(_) => {}
            other => return Err(format!("preseed ingest {id}: {other:?}")),
        }
    }
    Ok(())
}

/// The set-up: restart the server over the pre-seeded journal until its
/// address file appears (journal replay included), `RESTARTS` times;
/// returns the seconds of each.
fn restarts(
    ctx: &Ctx,
    checker: &mut Checker,
    mix: Mix,
    pool: &[(String, Vec<Trace>)],
) -> Result<Vec<f64>, String> {
    let dir = ctx.tmp.join("preseeded");
    preseed(&dir, pool)?;
    let mut secs = Vec::new();
    for k in 0..RESTARTS {
        let addr = ctx.tmp.join(format!("restart{k}.addr"));
        match spawn_until_file(
            &mut hintd(ctx, mix, &dir, &addr)?,
            &addr,
            SERVER_START_TIMEOUT_S,
        ) {
            Ok((server, s)) => {
                drop(server);
                checker.op("hintd restart over the journal", true, None);
                secs.push(s);
            }
            Err(e) => checker.fail("hintd restart over the journal", &e.to_string()),
        }
    }
    Ok(secs)
}

/// Everything one load phase yields.
struct Live {
    samples: Vec<Sample>,
    server_cpu_s: f64,
    server_rss_mb: f64,
    reconnects: u64,
    /// The tables the server serves once drained.
    served: Tables,
}

/// Starts a fresh server for `mix`, drives the schedule, then drains the
/// server and fetches its tables.
fn serve(
    ctx: &Ctx,
    mix: Mix,
    plan: &[Vec<Op>],
    pool: &[(String, Vec<Trace>)],
) -> Result<Live, String> {
    let (data_dir, addr_file) = (ctx.tmp.join("live"), ctx.tmp.join("live.addr"));
    // A previous load's journal would be replayed, and its address file
    // would read as ready before the new server is.
    let _ = std::fs::remove_dir_all(&data_dir);
    let _ = std::fs::remove_file(&addr_file);
    let (server, _) = spawn_until_file(
        &mut hintd(ctx, mix, &data_dir, &addr_file)?,
        &addr_file,
        SERVER_START_TIMEOUT_S,
    )
    .map_err(|e| format!("hintd: {e}"))?;
    let addr = std::fs::read_to_string(&addr_file).map_err(|e| e.to_string())?;
    let pid = server.pid().to_string();
    let cpu0 = procfs::stat_of(&pid).map_err(|e| e.to_string())?.own_s();
    let samples = drive(addr.trim(), plan, pool);
    let server_cpu_s = procfs::stat_of(&pid).map_err(|e| e.to_string())?.own_s() - cpu0;
    let server_rss_mb = procfs::peak_rss_mb(server.pid()).unwrap_or(0.0);
    let (served, reconnects) = drain_and_dump(addr.trim())?;
    Ok(Live {
        samples,
        server_cpu_s,
        server_rss_mb,
        reconnects,
        served,
    })
}

/// Whether the health-reported backlog grew across the load: the mean the
/// later half of the health replies report exceeds the earlier half's by
/// more than the watermark. A flat backlog hovers near 0 with spikes of
/// ten or so; one the server does not keep up with climbs by hundreds a
/// second.
fn backlog_grows(samples: &[Sample]) -> bool {
    let seen: Vec<f64> = samples
        .iter()
        .filter_map(|s| s.backlog)
        .map(|b| b as f64)
        .collect();
    let (earlier, later) = seen.split_at(seen.len() / 2);
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    mean(later) > mean(earlier) + StoreConfig::default().watermark as f64
}

/// `serve`, checking every request, that the backlog stayed flat, and the
/// served tables: against the blessed digest, and against an in-process
/// reference that absorbs the same accepted batches (timed into `ledger`
/// as `core.absorb` when given).
fn load(
    ctx: &Ctx,
    checker: &mut Checker,
    mix: Mix,
    plan: &[Vec<Op>],
    pool: &[(String, Vec<Trace>)],
    ledger: Option<&mut Ledger>,
) -> Result<Live, String> {
    let live = serve(ctx, mix, plan, pool)?;
    for s in &live.samples {
        checker.op("hintd request", s.ok, None);
    }
    checker.op("backlog stays flat", !backlog_grows(&live.samples), None);
    let mut dump = String::new();
    for (app, bytes) in &live.served {
        dump.push_str(&format!("{app} {}\n", hintd::hex_encode(bytes)));
    }
    checker.op(
        "drained tables",
        true,
        Some((&format!("tables.{}s", ctx.seconds), dump.as_bytes())),
    );
    if live.samples.iter().all(|s| s.ok) {
        let reference = reference_tables(&live.samples, pool, ledger);
        checker.op(
            "served tables == in-process reference",
            reference == live.served,
            None,
        );
    }
    Ok(live)
}

/// Drains the backlog with health checks, then fetches every app's table.
/// Also returns how many connections the load clients opened beyond one
/// each (reconnects after failures).
fn drain_and_dump(addr: &str) -> Result<(Tables, u64), String> {
    let mut client = HintClient::connect(addr);
    let mut health = client.health().map_err(|e| e.message)?;
    // The drain client's own connection is the last one counted.
    let reconnects = health.connections.saturating_sub(CLIENTS as u64 + 1);
    let mut spins = 0u32;
    while health.backlog > 0 {
        spins += 1;
        if spins > 100_000 {
            return Err("backlog refuses to drain".to_owned());
        }
        health = client.health().map_err(|e| e.message)?;
    }
    let mut served = Vec::new();
    for spec in AppSpec::all().into_iter().take(APPS) {
        let reply = client.query(&spec.name).map_err(|e| e.message)?;
        if reply.stale {
            return Err(format!("{} still stale after the drain", spec.name));
        }
        served.push((spec.name, reply.table.encode_bytes()));
    }
    Ok((served, reconnects))
}

/// The tables a server must serve once it has absorbed every ingest of
/// `samples` (absorption order does not matter: the profile is a sum).
fn reference_tables(
    samples: &[Sample],
    pool: &[(String, Vec<Trace>)],
    mut ledger: Option<&mut Ledger>,
) -> Tables {
    let config = StoreConfig::default();
    let mut profilers: Vec<IncrementalProfiler> = (0..APPS)
        .map(|_| IncrementalProfiler::new(config.btb, config.temperature.clone()))
        .collect();
    for s in samples.iter().filter(|s| s.op.verb == Verb::Ingest) {
        let batch = &pool[s.op.app].1[s.op.batch];
        let profiler = &mut profilers[s.op.app];
        match ledger.as_deref_mut() {
            Some(l) => l.nested("core.absorb", || profiler.absorb(batch)),
            None => profiler.absorb(batch),
        }
    }
    pool.iter()
        .zip(profilers.iter_mut())
        .map(|((app, _), p)| {
            (
                app.clone(),
                WireTable::from_table(p.commit()).encode_bytes(),
            )
        })
        .collect()
}

/// Latencies of the `verb` requests due after the warm-up.
fn latencies(samples: &[Sample], verb: Verb) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.op.verb == verb && s.op.due_s >= WARMUP_S)
        .map(|s| s.latency_ms)
        .collect()
}

/// The end-to-end run: the restart set-up, then the load phase.
pub fn run(
    ctx: &Ctx,
    checker: &mut Checker,
    mix: Mix,
) -> Result<Vec<(&'static Metric, f64)>, String> {
    let pool = batch_pool(ctx.seed);
    let setup_s = restarts(ctx, checker, mix, &pool)?;
    let plan = schedule(ctx.seed, mix, ctx.seconds);
    let live = load(ctx, checker, mix, &plan, &pool, None)?;
    Ok(end_to_end(
        &latencies(&live.samples, mix.verb),
        live.server_cpu_s * 1e3 / live.samples.len().max(1) as f64,
        live.server_rss_mb,
        stats::median(&setup_s),
    ))
}

/// The rate search (`thermobench slo`): the highest offered rate at which
/// the median of every request due after the warm-up stays within
/// `SLO_P50_MS`, no request fails, and the backlog stays flat. It doubles
/// the rate from `SLO_START_RATE`, then bisects until the bracket is
/// within `SLO_RESOLUTION`. Every step is one run's length of load
/// (`--seconds`) on a fresh server, so it meets the host's sustained speed
/// rather than a burst, and no backlog carries over. The limit is on the
/// median because on a shared host the higher percentiles are set by the
/// host's stalls and fsync latency, which push them past 5 ms at any rate,
/// while queueing past the server's capacity moves the median by tens to
/// hundreds of ms. Prints one row per step (p90 and p99 included) and the
/// result.
pub fn slo(ctx: &Ctx, mix: Mix) -> Result<(), String> {
    let pool = batch_pool(ctx.seed);
    println!(
        "{:>8} {:>6} {:>9} {:>9} {:>9} {:>9} {:>6} {:>9}  verdict",
        "req/s", "n", "p50_ms", "p90_ms", "p99_ms", "late_p90", "failed", "backlog"
    );
    let step = |rate: f64| -> Result<bool, String> {
        let mix = Mix { rate, ..mix };
        let live = serve(ctx, mix, &schedule(ctx.seed, mix, ctx.seconds), &pool)?;
        let timed: Vec<&Sample> = live
            .samples
            .iter()
            .filter(|s| s.op.due_s >= WARMUP_S)
            .collect();
        let lat: Vec<f64> = timed.iter().map(|s| s.latency_ms).collect();
        let late: Vec<f64> = timed.iter().map(|s| s.late_ms).collect();
        let failed = live.samples.iter().filter(|s| !s.ok).count();
        let p50 = stats::median(&lat);
        let grows = backlog_grows(&live.samples);
        let backlog = live.samples.iter().filter_map(|s| s.backlog).max();
        let ok = failed == 0 && p50 <= SLO_P50_MS && !grows;
        println!(
            "{rate:>8.0} {:>6} {p50:>9.3} {:>9.3} {:>9.3} {:>9.3} {failed:>6} {:>9}  {}",
            lat.len(),
            stats::percentile(&lat, 0.9),
            stats::percentile(&lat, 0.99),
            stats::percentile(&late, 0.9),
            backlog.unwrap_or(0),
            match (ok, grows) {
                (true, _) => "meets",
                (false, true) => "misses (backlog grows)",
                (false, false) => "misses",
            }
        );
        Ok(ok)
    };
    let (mut lo, mut hi) = (0.0, SLO_START_RATE);
    while hi <= SLO_MAX_RATE && step(hi)? {
        lo = hi;
        hi *= 2.0;
    }
    if lo == 0.0 {
        return Err(format!("misses the limit at {SLO_START_RATE} req/s"));
    }
    while hi <= SLO_MAX_RATE && (hi - lo) / lo > SLO_RESOLUTION {
        let mid = 0.5 * (lo + hi);
        if step(mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    println!(
        "qps_at_slo {lo:.0} req/s (p50 <= {SLO_P50_MS} ms, no failures, flat backlog; \
         {} s steps, seed {})",
        ctx.seconds, ctx.seed
    );
    Ok(())
}

/// The traced run: the same load phase for the client-side counts, then
/// the same request sequence replayed in-process against `HintStore` and
/// `proto` (encode → decode → store → encode → decode per request). Journal
/// appends and absorbs are then replayed in isolation.
pub fn trace(ctx: &Ctx, checker: &mut Checker, mix: Mix) -> Result<Ledger, String> {
    let pool = batch_pool(ctx.seed);
    let plan = schedule(ctx.seed, mix, ctx.seconds);
    let mut ledger = Ledger::default();
    let live = load(ctx, checker, mix, &plan, &pool, Some(&mut ledger))?;

    let store = HintStore::open(StoreConfig {
        journal_dir: Some(ctx.tmp.join("replay")),
        drain_per_health: mix.drain_per_health,
        ..StoreConfig::default()
    })
    .map_err(|e| format!("replay store: {e}"))?;
    let cpu0 = procfs::stat_of("self").map_err(|e| e.to_string())?.own_s();
    let start = clock::now();
    for s in &live.samples {
        let op_start = clock::now();
        let (app, batches) = &pool[s.op.app];
        let request = ledger.top("hintd.proto", || {
            let payload = match s.op.verb {
                Verb::Ingest => proto::encode_ingest(s.op.id, app, &batches[s.op.batch]),
                Verb::Query => proto::encode_query(app),
                Verb::Health => proto::encode_health(),
            };
            proto::decode_request(&payload)
        });
        let response = match request {
            Ok(Request::Ingest {
                batch_id,
                app,
                trace,
            }) => ledger.top("hintd.store.ingest", || {
                store.ingest_response(&app, batch_id, trace)
            }),
            Ok(Request::Query { app }) => {
                ledger.top("hintd.store.query", || store.query_response(&app))
            }
            Ok(Request::Health) => {
                ledger.top("hintd.store.health", || store.health_response(0, 0, 0))
            }
            Err(e) => {
                checker.fail("replayed request decode", &e.to_string());
                continue;
            }
        };
        let decoded = ledger.top("hintd.proto", || {
            proto::decode_response(&proto::encode_response(&response))
        });
        let ok = decoded.is_ok_and(|r| r == response && !matches!(r, Response::Error { .. }));
        checker.op("replayed request", ok, None);
        ledger.item(clock::since(op_start));
    }
    let e2e = clock::since(start);
    let cpu = procfs::stat_of("self").map_err(|e| e.to_string())?.own_s() - cpu0;

    // Journal appends in isolation: one durable line per ingest, of the
    // length the store writes.
    let fsync_path = ctx.tmp.join("fsync_replay.jsonl");
    for s in live.samples.iter().filter(|s| s.op.verb == Verb::Ingest) {
        let mut blob = Vec::new();
        codec::write_binary(&mut blob, &pool[s.op.app].1[s.op.batch]).map_err(|e| e.to_string())?;
        let line = format!(
            "1 {} {} {}",
            s.op.id,
            pool[s.op.app].0,
            hintd::hex_encode(&blob)
        );
        ledger
            .nested("sim_support.fsync", || {
                fsio::append_line_durable(&fsync_path, &line)
            })
            .map_err(|e| format!("fsync replay: {e}"))?;
    }

    let client_s: f64 = live.samples.iter().map(|s| s.service_ms / 1e3).sum();
    let queries: Vec<&Sample> = live
        .samples
        .iter()
        .filter(|s| s.op.verb == Verb::Query)
        .collect();
    let n = live.samples.len().max(1) as f64;
    ledger.set(
        "hintd.net_other_frac",
        ((client_s - e2e) / client_s).max(0.0),
    );
    ledger.set(
        "hintd.stale_frac",
        queries.iter().filter(|s| s.stale).count() as f64 / queries.len().max(1) as f64,
    );
    ledger.set(
        "hintd.backlog_max",
        live.samples
            .iter()
            .filter_map(|s| s.backlog)
            .max()
            .unwrap_or(0) as f64,
    );
    ledger.set("hintd.client.reconnects", live.reconnects as f64);
    ledger.set(
        "loadgen.late_frac",
        live.samples.iter().filter(|s| s.late_ms > LATE_MS).count() as f64 / n,
    );
    ledger.finish(e2e, cpu, 1);
    Ok(ledger)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_a_pure_function_of_the_seed() {
        assert_eq!(schedule(3, INGEST, 2.0), schedule(3, INGEST, 2.0));
        assert_ne!(schedule(3, INGEST, 2.0), schedule(4, INGEST, 2.0));
    }

    #[test]
    fn schedules_match_the_mix() {
        let plan = schedule(0, INGEST, 20.0);
        assert_eq!(plan.len(), CLIENTS);
        let ops: Vec<&Op> = plan.iter().flatten().collect();
        let expected = INGEST.rate * (WARMUP_S + 20.0);
        assert!(
            (ops.len() as f64 - expected).abs() < 0.05 * expected,
            "{} ops",
            ops.len()
        );
        let count = |v: Verb| ops.iter().filter(|o| o.verb == v).count() as f64;
        let non_health = ops.len() as f64 - count(Verb::Health);
        assert!((count(Verb::Health) / ops.len() as f64 - 1.0 / 16.0).abs() < 0.01);
        assert!((count(Verb::Ingest) / non_health - 0.70).abs() < 0.03);
        let mut ids: Vec<u64> = ops
            .iter()
            .filter(|o| o.verb == Verb::Ingest)
            .map(|o| o.id)
            .collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "batch ids are unique across clients");
        for client in &plan {
            assert!(
                client.windows(2).all(|w| w[0].due_s < w[1].due_s),
                "arrivals ascend"
            );
            assert!(client.iter().all(|o| o.due_s < WARMUP_S + 20.0));
        }
        // Zipf: the first app is the most popular.
        let per_app = |a: usize| ops.iter().filter(|o| o.app == a).count();
        assert!(per_app(0) > per_app(1) && per_app(1) > per_app(3));
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        let op = |due_s| Op {
            due_s,
            verb: Verb::Query,
            app: 0,
            batch: 0,
            id: 0,
        };
        let start = clock::now();
        // Due at 0 but sent 2 ms late and answered 1 ms after sending.
        let (due, send, reply) = (
            start,
            clock::after(start, 0.002),
            clock::after(start, 0.003),
        );
        let sample = Sample {
            op: op(0.0),
            ok: true,
            latency_ms: clock::between(due, reply) * 1e3,
            service_ms: clock::between(send, reply) * 1e3,
            late_ms: clock::between(due, send) * 1e3,
            stale: false,
            backlog: None,
        };
        assert!((sample.latency_ms - 3.0).abs() < 1e-9);
        assert!((sample.late_ms - 2.0).abs() < 1e-9);
        assert!((sample.latency_ms - sample.late_ms - sample.service_ms).abs() < 1e-9);
        let warm = Sample {
            op: op(WARMUP_S + 0.5),
            ..sample
        };
        let ingest = Sample {
            op: Op {
                verb: Verb::Ingest,
                ..op(WARMUP_S + 0.5)
            },
            ..sample
        };
        assert_eq!(
            latencies(&[sample, warm, ingest], Verb::Query),
            vec![3.0],
            "warm-up requests and other verbs are not reported"
        );
    }

    #[test]
    fn a_backlog_grows_when_it_climbs_past_the_watermark() {
        let health = |i: u64, backlog: u64| Sample {
            op: Op {
                due_s: i as f64,
                verb: Verb::Health,
                app: 0,
                batch: 0,
                id: i,
            },
            ok: true,
            latency_ms: 0.0,
            service_ms: 0.0,
            late_ms: 0.0,
            stale: false,
            backlog: Some(backlog),
        };
        let flat: Vec<Sample> = (0..40).map(|i| health(i, i % 5)).collect();
        assert!(!backlog_grows(&flat));
        let climbing: Vec<Sample> = (0..40).map(|i| health(i, 3 * i)).collect();
        assert!(backlog_grows(&climbing));
        assert!(!backlog_grows(&[]), "no health replies, nothing to judge");
    }
}
