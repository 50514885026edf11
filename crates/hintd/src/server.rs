//! The TCP front end: accept loop, pooled connection handlers, deadlines.
//!
//! One dedicated accept thread owns the listener; every accepted
//! connection is handed to a [`sim_support::ThreadPool`] scope, so request
//! handling runs on the workspace's one sanctioned concurrency substrate.
//! Handler reads are deadline-ticked: the socket read timeout is one tick,
//! and a connection that stays silent for `idle_ticks` consecutive ticks —
//! or stalls that long mid-frame — is reaped. That bounds both idle-socket
//! leakage and the damage a byte-dribbling client can do.
//!
//! A request frame that fails to *decode* gets a classified error response
//! on the intact framing layer (transient: wire corruption heals on
//! resend) and the connection lives on; a frame whose *framing* is broken
//! (oversized length prefix, torn header) closes the connection, because
//! byte alignment is gone.

use std::io::{self, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use sim_support::{FaultClass, ThreadPool};

use crate::proto::{self, Request, Response, MAX_FRAME};
use crate::store::{HintStore, StoreConfig};

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Connection-handler pool width.
    pub workers: usize,
    /// One read-deadline tick, milliseconds.
    pub read_timeout_ms: u64,
    /// Socket write deadline, milliseconds.
    pub write_timeout_ms: u64,
    /// Consecutive silent (or mid-frame stalled) ticks before a
    /// connection is reaped. Total patience = `read_timeout_ms * idle_ticks`.
    pub idle_ticks: u32,
    /// The store behind the verbs.
    pub store: StoreConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            read_timeout_ms: 50,
            write_timeout_ms: 2_000,
            idle_ticks: 40,
            store: StoreConfig::default(),
        }
    }
}

/// A snapshot of a server's connection-level counters
/// ([`HintServer::counters`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerCounters {
    /// Connections accepted.
    pub connections: u64,
    /// Request frames handled.
    pub requests: u64,
    /// Connections reaped for idling or stalling mid-frame.
    pub reaped: u64,
    /// Request frames that failed to decode.
    pub decode_errors: u64,
}

#[derive(Default)]
struct ServerStats {
    connections: AtomicU64,
    requests: AtomicU64,
    reaped: AtomicU64,
    decode_errors: AtomicU64,
}

/// A running hint server. Dropping it (or calling
/// [`shutdown`](Self::shutdown)) stops the accept loop and joins every
/// in-flight handler.
pub struct HintServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<thread::JoinHandle<()>>,
    store: Arc<HintStore>,
    stats: Arc<ServerStats>,
}

impl HintServer {
    /// Opens the store (replaying journals), binds, and starts serving.
    pub fn start(config: ServerConfig) -> io::Result<Self> {
        let store = Arc::new(HintStore::open(config.store.clone())?);
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServerStats::default());

        let accept = {
            let store = Arc::clone(&store);
            let stats = Arc::clone(&stats);
            let shutdown = Arc::clone(&shutdown);
            let conn = ConnConfig {
                read_timeout_ms: config.read_timeout_ms.max(1),
                write_timeout_ms: config.write_timeout_ms.max(1),
                idle_ticks: config.idle_ticks.max(1),
            };
            let workers = config.workers;
            thread::Builder::new()
                .name("hintd-accept".to_owned())
                .spawn(move || {
                    let pool = ThreadPool::new(workers);
                    pool.scope(|scope| loop {
                        if shutdown.load(Ordering::Acquire) {
                            break;
                        }
                        match listener.accept() {
                            Ok((stream, _peer)) => {
                                if shutdown.load(Ordering::Acquire) {
                                    break; // the shutdown wake-up connect
                                }
                                stats.connections.fetch_add(1, Ordering::Relaxed);
                                let store = &store;
                                let stats = &stats;
                                let shutdown = &shutdown;
                                scope.spawn(move || {
                                    serve_conn(stream, conn, store, stats, shutdown)
                                });
                            }
                            Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                            Err(_) => break,
                        }
                    });
                })?
        };

        Ok(Self {
            local_addr,
            shutdown,
            accept: Some(accept),
            store,
            stats,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The store, for in-process inspection in tests.
    pub fn store(&self) -> &HintStore {
        &self.store
    }

    /// Snapshot of the connection-level counters.
    pub fn counters(&self) -> ServerCounters {
        ServerCounters {
            connections: self.stats.connections.load(Ordering::Relaxed),
            requests: self.stats.requests.load(Ordering::Relaxed),
            reaped: self.stats.reaped.load(Ordering::Relaxed),
            decode_errors: self.stats.decode_errors.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting, waits for in-flight handlers, joins the accept
    /// thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        // Wake the blocking accept() so it observes the flag.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }

    /// Blocks until the accept thread exits (it only does on shutdown or a
    /// fatal listener error) — the `hintd` binary's main loop.
    pub fn join(mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for HintServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[derive(Clone, Copy)]
struct ConnConfig {
    read_timeout_ms: u64,
    write_timeout_ms: u64,
    idle_ticks: u32,
}

enum FrameOutcome {
    Frame(Vec<u8>),
    /// Peer closed (or tore a frame mid-header) — normal end.
    Eof,
    /// Deadline budget exhausted or server shutting down — reap.
    Reap,
}

fn serve_conn(
    mut stream: TcpStream,
    cfg: ConnConfig,
    store: &HintStore,
    stats: &ServerStats,
    shutdown: &AtomicBool,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(cfg.read_timeout_ms)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(cfg.write_timeout_ms)));
    loop {
        match read_frame_deadline(&mut stream, cfg.idle_ticks, shutdown) {
            Ok(FrameOutcome::Frame(payload)) => {
                let response = match proto::decode_request(&payload) {
                    Ok(request) => {
                        stats.requests.fetch_add(1, Ordering::Relaxed);
                        let requests = stats.requests.load(Ordering::Relaxed);
                        let connections = stats.connections.load(Ordering::Relaxed);
                        let reaped = stats.reaped.load(Ordering::Relaxed);
                        dispatch(store, requests, connections, reaped, request)
                    }
                    Err(err) => {
                        stats.decode_errors.fetch_add(1, Ordering::Relaxed);
                        Response::Error {
                            class: FaultClass::Transient,
                            message: format!("bad request frame: {err}"),
                        }
                    }
                };
                let bytes = proto::encode_response(&response);
                if proto::write_frame(&mut stream, &bytes).is_err() {
                    return; // peer gone mid-reply; nothing to salvage
                }
            }
            Ok(FrameOutcome::Eof) => return,
            Ok(FrameOutcome::Reap) => {
                stats.reaped.fetch_add(1, Ordering::Relaxed);
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
            Err(_) => return,
        }
    }
}

/// Routes one decoded request to the store. Registered in
/// `simlint.toml [hotpath]`: the per-request dispatch itself must not
/// allocate, panic, or index — all heavy lifting lives behind the store's
/// methods.
fn dispatch(
    store: &HintStore,
    requests: u64,
    connections: u64,
    reaped: u64,
    request: Request,
) -> Response {
    match request {
        Request::Ingest {
            batch_id,
            app,
            trace,
        } => store.ingest_response(&app, batch_id, trace),
        Request::Query { app } => store.query_response(&app),
        Request::Health => store.health_response(requests, connections, reaped),
    }
}

/// Reads one frame under the tick deadline: each socket-timeout expiry is
/// a tick, `max_ticks` consecutive ticks without a byte reap the
/// connection. Any received byte resets the count, so a healthy slow
/// client is never reaped while a stalled one cannot hold a handler
/// hostage for more than `read_timeout * idle_ticks`.
fn read_frame_deadline(
    stream: &mut TcpStream,
    max_ticks: u32,
    shutdown: &AtomicBool,
) -> io::Result<FrameOutcome> {
    let mut header = [0u8; 4];
    match read_exact_ticked(stream, &mut header, max_ticks, shutdown)? {
        ReadOutcome::Done => {}
        ReadOutcome::Eof => return Ok(FrameOutcome::Eof),
        ReadOutcome::Reap => return Ok(FrameOutcome::Reap),
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    match read_exact_ticked(stream, &mut payload, max_ticks, shutdown)? {
        ReadOutcome::Done => Ok(FrameOutcome::Frame(payload)),
        // A torn payload is indistinguishable from a closing peer.
        ReadOutcome::Eof => Ok(FrameOutcome::Eof),
        ReadOutcome::Reap => Ok(FrameOutcome::Reap),
    }
}

enum ReadOutcome {
    Done,
    Eof,
    Reap,
}

fn read_exact_ticked(
    stream: &mut TcpStream,
    buf: &mut [u8],
    max_ticks: u32,
    shutdown: &AtomicBool,
) -> io::Result<ReadOutcome> {
    let mut filled = 0usize;
    let mut ticks = 0u32;
    while filled < buf.len() {
        if shutdown.load(Ordering::Acquire) {
            return Ok(ReadOutcome::Reap);
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return Ok(ReadOutcome::Eof),
            Ok(n) => {
                filled += n;
                ticks = 0;
            }
            Err(err)
                if matches!(
                    err.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                ticks += 1;
                if ticks >= max_ticks {
                    return Ok(ReadOutcome::Reap);
                }
            }
            Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
            Err(err) => return Err(err),
        }
    }
    Ok(ReadOutcome::Done)
}
