//! Loopback battery: a real `HintServer` on an ephemeral port, exercised
//! over actual TCP by the retrying `HintClient`.
//!
//! Covers the three verbs end-to-end, ingest idempotency, the stale-hint
//! degradation contract, idle-connection reaping, and — the heart of the
//! robustness story — that the bounded-retry client converges to zero
//! lost acknowledged batches under an injected network fault plan.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use btb_model::BtbConfig;
use btb_trace::{BranchKind, BranchRecord, Trace};
use hintd::{HintClient, HintServer, RetryPolicy, ServerConfig, StoreConfig};
use sim_support::{FaultClass, FaultPlan};
use thermometer::{HintTable, OptProfile, TemperatureConfig};

fn batch(name: &str, pcs: &[u64]) -> Trace {
    Trace::from_records(
        name,
        pcs.iter()
            .map(|&pc| BranchRecord::taken(pc, pc + 0x100, BranchKind::UncondDirect, 1))
            .collect(),
    )
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("hintd-loopback-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn test_config(watermark: usize) -> ServerConfig {
    ServerConfig {
        workers: 2,
        read_timeout_ms: 20,
        idle_ticks: 10,
        store: StoreConfig {
            shards: 2,
            watermark,
            drain_per_health: 1,
            btb: BtbConfig::new(16, 4),
            ..StoreConfig::default()
        },
        ..ServerConfig::default()
    }
}

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 4,
        base_delay_ms: 1,
        max_delay_ms: 8,
    }
}

#[test]
fn verbs_round_trip_over_loopback() {
    let server = HintServer::start(test_config(8)).unwrap();
    let mut client = HintClient::connect(server.local_addr().to_string());

    let b = batch("b0", &(0..300).map(|i| (i % 23) * 4).collect::<Vec<_>>());
    let ack = client.ingest("kafka", 1, &b).unwrap();
    assert!(!ack.deduped && !ack.deferred);
    assert_eq!(ack.backlog, 1);

    let reply = client.query("kafka").unwrap();
    assert!(!reply.stale);
    assert_eq!(reply.backlog, 0);
    // The served table equals the offline pipeline over the same batch.
    let offline = HintTable::from_profile(
        &OptProfile::measure(&b, BtbConfig::new(16, 4)),
        &TemperatureConfig::paper_default(),
    );
    assert_eq!(reply.table.len(), offline.len());
    for (pc, hint) in offline.iter() {
        assert_eq!(reply.table.hint(pc), hint, "pc {pc:#x}");
    }

    // Unknown apps serve the empty (all-coldest) table, fresh.
    let cold = client.query("nonesuch").unwrap();
    assert!(!cold.stale);
    assert!(cold.table.is_empty());

    let health = client.health().unwrap();
    assert_eq!(health.apps, 1);
    assert_eq!(health.accepted, 1);
    assert_eq!(health.backlog, 0);
    assert!(health.requests >= 4);
    assert_eq!(health.connections, 1);
}

#[test]
fn duplicate_ingest_over_the_wire_is_acked_once() {
    let server = HintServer::start(test_config(8)).unwrap();
    let mut client = HintClient::connect(server.local_addr().to_string());
    let b = batch("dup", &[8, 16, 8]);
    assert!(!client.ingest("app", 7, &b).unwrap().deduped);
    assert!(client.ingest("app", 7, &b).unwrap().deduped);
    let health = client.health().unwrap();
    assert_eq!(health.accepted, 1);
    assert_eq!(health.deduped, 1);
}

#[test]
fn degraded_mode_serves_stale_tables_then_recovers() {
    let server = HintServer::start(test_config(1)).unwrap();
    let mut client = HintClient::connect(server.local_addr().to_string());

    // Commit a baseline table.
    client
        .ingest("app", 0, &batch("base", &[0x40; 25]))
        .unwrap();
    let fresh = client.query("app").unwrap();
    assert!(!fresh.stale);

    // Burst past the watermark (1): backlog 3.
    for id in 1..=3u64 {
        let ack = client
            .ingest("app", id, &batch("burst", &[id * 8; 10]))
            .unwrap();
        assert_eq!(ack.deferred, id > 1, "deferred once over the watermark");
    }
    let degraded = client.query("app").unwrap();
    assert!(degraded.stale, "over-watermark query must not block");
    assert_eq!(degraded.backlog, 3);
    assert_eq!(
        degraded.table.encode_bytes(),
        fresh.table.encode_bytes(),
        "stale reply is byte-identical to the last committed table"
    );

    // Health calls drain one batch each; two bring the backlog to the
    // watermark, after which the next query absorbs the rest inline.
    assert_eq!(client.health().unwrap().backlog, 2);
    assert_eq!(client.health().unwrap().backlog, 1);
    let recovered = client.query("app").unwrap();
    assert!(!recovered.stale);
    assert_eq!(recovered.backlog, 0);
    assert!(recovered.table.hint(8) > 0, "burst data now served");
}

#[test]
fn injected_net_faults_converge_with_zero_lost_acks() {
    let dir = scratch("netfault");
    let mut config = test_config(8);
    config.store.journal_dir = Some(dir.clone());
    let server = HintServer::start(config).unwrap();

    // One fault per ingest, one of each wire pathology:
    //   conn 0 op 0: request vanishes before the wire (drop)
    //   conn 1 op 1: frame torn mid-header on the wire (trunc at byte 6)
    //   conn 2 op 1: trace-blob magic byte flipped in flight (garble at
    //   frame offset 10 = 4B header + 6B of verb/id/app fields, so the
    //   corruption lands in the codec layer and classifies transient —
    //   garbling a semantic field like the app name would be poison)
    // Each failure torches the connection, so the retry lands on the next
    // connection ordinal with a fresh op counter.
    let plan = FaultPlan::parse("net=0:0:drop,net=1:1:trunc:6,net=2:1:garble:10:85").unwrap();
    let mut client =
        HintClient::with_faults(server.local_addr().to_string(), fast_retry(), plan, 0xfee1);
    client.set_read_timeout_ms(1_000);

    let batches: Vec<Trace> = (0..3).map(|i| batch("nf", &[(i + 1) * 16; 20])).collect();
    for (i, b) in batches.iter().enumerate() {
        let ack = client.ingest("app", i as u64, b).unwrap();
        assert!(!ack.deduped, "every batch is accepted exactly once");
    }

    let health = client.health().unwrap();
    assert_eq!(health.accepted, 3, "zero lost acknowledged batches");
    assert_eq!(health.deduped, 0, "zero double-accepted retries");

    // And the served table reflects all three batches.
    let reply = client.query("app").unwrap();
    assert!(!reply.stale);
    for i in 1..=3u64 {
        assert!(reply.table.hint(i * 16) > 0, "batch {i} absorbed");
    }
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn poison_class_override_short_circuits_the_retry_loop() {
    let server = HintServer::start(test_config(8)).unwrap();
    let plan = FaultPlan::parse("net=0:0:drop:poison").unwrap();
    let mut client =
        HintClient::with_faults(server.local_addr().to_string(), fast_retry(), plan, 1);
    let started = Instant::now();
    let err = client.ingest("app", 0, &batch("b", &[4])).unwrap_err();
    assert_eq!(err.class, FaultClass::Poison);
    assert!(
        started.elapsed() < Duration::from_millis(500),
        "poison must fail fast, not burn the retry budget"
    );
    // The server never saw a request (the drop fired client-side).
    assert_eq!(server.counters().requests, 0);
}

#[test]
fn invalid_app_names_are_rejected_as_poison_without_retries() {
    let server = HintServer::start(test_config(8)).unwrap();
    let mut client = HintClient::with_faults(
        server.local_addr().to_string(),
        fast_retry(),
        FaultPlan::default(),
        2,
    );
    let err = client.ingest("bad app", 0, &batch("b", &[4])).unwrap_err();
    assert_eq!(err.class, FaultClass::Poison);
    assert_eq!(
        server.counters().requests,
        1,
        "a deterministic rejection is not retried"
    );
}

#[test]
fn idle_and_stalled_connections_are_reaped() {
    let server = HintServer::start(test_config(8)).unwrap();

    // An idle connection: never sends a byte.
    let mut idle = TcpStream::connect(server.local_addr()).unwrap();
    // A stalled connection: dribbles half a header, then goes silent.
    let mut stalled = TcpStream::connect(server.local_addr()).unwrap();
    stalled.write_all(&[0x08, 0x00]).unwrap();

    // Patience is read_timeout_ms * idle_ticks = 200 ms; the server closes
    // both sockets, which surfaces here as EOF (or reset).
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    stalled
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 1];
    for (name, sock) in [("idle", &mut idle), ("stalled", &mut stalled)] {
        match sock.read(&mut buf) {
            Ok(0) | Err(_) => {}
            Ok(n) => panic!("{name}: server sent {n} unsolicited bytes"),
        }
    }
    assert_eq!(
        server.counters().reaped,
        2,
        "both zombie connections reaped"
    );

    // The server is still healthy for well-behaved clients afterwards.
    let mut client = HintClient::connect(server.local_addr().to_string());
    assert!(client.health().is_ok());
}

#[test]
fn shutdown_joins_cleanly_with_live_connections() {
    let mut server = HintServer::start(test_config(8)).unwrap();
    let mut client = HintClient::connect(server.local_addr().to_string());
    client.ingest("app", 0, &batch("b", &[4; 10])).unwrap();
    // The client's socket is still open when shutdown runs; the handler
    // must notice the flag at its next deadline tick and exit.
    let started = Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown must not hang on live connections"
    );
}
