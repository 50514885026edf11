//! The bounded-retry client, with deterministic network fault injection.
//!
//! Every call runs under a [`RetryPolicy`]: transient failures (connect
//! refused, socket errors, decode failures, server-classified transient
//! errors) are retried on a **fresh connection** with exponential backoff
//! plus deterministic PRNG jitter — `min(base << attempt, cap) +
//! jitter(seed)`, the schedule of
//! [`sim_support::fsio::capped_backoff_ms`] with the jitter decorrelating
//! a thundering herd without sacrificing replayability. Poison/fatal
//! errors (e.g. an invalid app name) are returned immediately: retrying a
//! deterministic rejection is wasted load.
//!
//! Fault injection happens here, at the frame boundary, keyed by the
//! client-side `(connection ordinal, operation index)` — the `net=`
//! entries of a [`sim_support::FaultPlan`]. Drop and truncate injure the
//! request before/while it leaves; garble flips a byte in flight (the
//! server's codec catches it and answers transient); delay stalls the send
//! long enough to exercise the server's read-deadline ticks. Combined with
//! batch-id deduplication on the server, the loop is exactly-once in
//! effect: **a retried ingest is acknowledged once and absorbed once, no
//! matter which copy survived the wire.**

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use btb_trace::Trace;
use sim_support::{fsio, FaultClass, FaultPlan, NetFaultKind, SimError, SimRng};

use crate::proto::{
    self, HealthReply, IngestAck, QueryReply, Request, Response, MAX_FRAME, VERB_HEALTH,
    VERB_INGEST, VERB_QUERY,
};

/// Bounded-retry parameters.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Extra attempts after the first (0 = fail fast).
    pub max_retries: u32,
    /// First backoff delay, milliseconds (also the jitter range).
    pub base_delay_ms: u64,
    /// Backoff ceiling, milliseconds.
    pub max_delay_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 4,
            base_delay_ms: 5,
            max_delay_ms: 200,
        }
    }
}

impl RetryPolicy {
    /// The deterministic part of the backoff: `min(base << attempt, cap)`
    /// ([`sim_support::fsio::capped_backoff_ms`]).
    pub fn delay_ms(&self, attempt: u32) -> u64 {
        fsio::capped_backoff_ms(self.base_delay_ms.max(1), self.max_delay_ms, attempt)
    }
}

/// A hintd client. Not thread-safe by design — one client per connection,
/// mirroring one producer per socket on the server.
pub struct HintClient {
    addr: String,
    retry: RetryPolicy,
    plan: FaultPlan,
    rng: SimRng,
    conn: Option<TcpStream>,
    /// Ordinal of the current connection (0 = first ever). The fault
    /// plan's `CONN` coordinate.
    conn_id: u64,
    next_conn_id: u64,
    /// Per-connection operation index — the fault plan's `OP` coordinate.
    op_index: u64,
    read_timeout_ms: u64,
}

impl HintClient {
    /// A client with default retry policy and no injected faults.
    pub fn connect(addr: impl Into<String>) -> Self {
        Self::with_faults(addr, RetryPolicy::default(), FaultPlan::default(), 0)
    }

    /// Full-control constructor: retry policy, a fault plan whose `net=`
    /// entries are injected at the frame boundary, and the jitter seed.
    pub fn with_faults(
        addr: impl Into<String>,
        retry: RetryPolicy,
        plan: FaultPlan,
        seed: u64,
    ) -> Self {
        Self {
            addr: addr.into(),
            retry,
            plan,
            rng: SimRng::seed_from_u64(seed),
            conn: None,
            conn_id: 0,
            next_conn_id: 0,
            op_index: 0,
            read_timeout_ms: 5_000,
        }
    }

    /// Overrides the response-read deadline (default 5 s).
    pub fn set_read_timeout_ms(&mut self, ms: u64) {
        self.read_timeout_ms = ms.max(1);
    }

    /// Ingests one batch. On success the acknowledgement is durable on the
    /// server (journaled before acked).
    pub fn ingest(
        &mut self,
        app: &str,
        batch_id: u64,
        trace: &Trace,
    ) -> Result<IngestAck, SimError> {
        let payload = proto::encode_ingest(batch_id, app, trace);
        match self.call_raw(&payload, VERB_INGEST)? {
            Response::Ingest(ack) => Ok(ack),
            other => Err(mismatch("ingest", &other)),
        }
    }

    /// Fetches `app`'s hint table.
    pub fn query(&mut self, app: &str) -> Result<QueryReply, SimError> {
        let payload = proto::encode_query(app);
        match self.call_raw(&payload, VERB_QUERY)? {
            Response::Query(reply) => Ok(reply),
            other => Err(mismatch("query", &other)),
        }
    }

    /// Fetches health counters (each call also lets the server drain a
    /// bounded slice of its backlog).
    pub fn health(&mut self) -> Result<HealthReply, SimError> {
        match self.call_raw(&proto::encode_health(), VERB_HEALTH)? {
            Response::Health(reply) => Ok(reply),
            other => Err(mismatch("health", &other)),
        }
    }

    /// Sends any [`Request`] through the retry loop.
    pub fn call(&mut self, request: &Request) -> Result<Response, SimError> {
        let tag = match request {
            Request::Ingest { .. } => VERB_INGEST,
            Request::Query { .. } => VERB_QUERY,
            Request::Health => VERB_HEALTH,
        };
        self.call_raw(&proto::encode_request(request), tag)
    }

    /// The backoff delay for `attempt`, including this client's jitter
    /// draw. Public so tests can replay the schedule.
    pub fn backoff_ms(&mut self, attempt: u32) -> u64 {
        let jitter = self.rng.gen_range(0..self.retry.base_delay_ms.max(1));
        self.retry.delay_ms(attempt) + jitter
    }

    fn call_raw(&mut self, payload: &[u8], expect_tag: u8) -> Result<Response, SimError> {
        let mut attempt = 0u32;
        loop {
            match self.try_once(payload, expect_tag) {
                Ok(response) => return Ok(response),
                Err(err) => {
                    // Conservative: any failure torches the connection; a
                    // retry starts clean so a half-written frame can never
                    // desynchronize the stream.
                    self.disconnect();
                    if err.class == FaultClass::Transient && attempt < self.retry.max_retries {
                        let delay = self.backoff_ms(attempt);
                        std::thread::sleep(Duration::from_millis(delay));
                        attempt += 1;
                    } else {
                        return Err(err);
                    }
                }
            }
        }
    }

    fn try_once(&mut self, payload: &[u8], expect_tag: u8) -> Result<Response, SimError> {
        self.ensure_connected()?;
        let op = self.op_index;
        self.op_index += 1;

        let mut frame = Vec::with_capacity(4 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(payload);

        if let Some(injected) = self.plan.net_fault(self.conn_id, op) {
            match injected.kind {
                NetFaultKind::Drop => {
                    return Err(SimError {
                        class: injected.class,
                        message: format!(
                            "injected net fault: drop (conn {} op {op})",
                            self.conn_id
                        ),
                    });
                }
                NetFaultKind::Delay { ms } => {
                    std::thread::sleep(Duration::from_millis(ms));
                }
                NetFaultKind::Truncate { offset } => {
                    let cut = offset.min(frame.len());
                    let stream = self.stream()?;
                    let _ = stream.write_all(&frame[..cut]);
                    let _ = stream.flush();
                    return Err(SimError {
                        class: injected.class,
                        message: format!(
                            "injected net fault: truncate at byte {cut} (conn {} op {op})",
                            self.conn_id
                        ),
                    });
                }
                NetFaultKind::Garble { offset, xor } => {
                    let at = offset % frame.len().max(1);
                    frame[at] ^= xor;
                }
            }
        }

        let stream = self.stream()?;
        stream
            .write_all(&frame)
            .map_err(|err| SimError::transient(format!("send failed: {err}")))?;

        let mut header = [0u8; 4];
        stream
            .read_exact(&mut header)
            .map_err(|err| SimError::transient(format!("response header: {err}")))?;
        let len = u32::from_le_bytes(header) as usize;
        if len > MAX_FRAME {
            return Err(SimError::transient(format!(
                "oversized response frame ({len} bytes)"
            )));
        }
        let mut body = vec![0u8; len];
        stream
            .read_exact(&mut body)
            .map_err(|err| SimError::transient(format!("response body: {err}")))?;

        let response = proto::decode_response(&body)
            .map_err(|err| SimError::transient(format!("response decode: {err}")))?;
        match response {
            // A server-classified failure keeps its class: transient ones
            // feed the retry loop, poison/fatal short-circuit out.
            Response::Error { class, message } => Err(SimError { class, message }),
            ok => {
                let tag = match ok {
                    Response::Ingest(_) => VERB_INGEST,
                    Response::Query(_) => VERB_QUERY,
                    Response::Health(_) => VERB_HEALTH,
                    Response::Error { .. } => unreachable!("handled above"),
                };
                if tag != expect_tag {
                    return Err(SimError::transient(format!(
                        "response verb {tag:#04x} does not match request {expect_tag:#04x}"
                    )));
                }
                Ok(ok)
            }
        }
    }

    fn ensure_connected(&mut self) -> Result<(), SimError> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(&self.addr)
                .map_err(|err| SimError::transient(format!("connect {}: {err}", self.addr)))?;
            let _ = stream.set_nodelay(true);
            let _ = stream.set_read_timeout(Some(Duration::from_millis(self.read_timeout_ms)));
            let _ = stream.set_write_timeout(Some(Duration::from_millis(self.read_timeout_ms)));
            self.conn = Some(stream);
            self.conn_id = self.next_conn_id;
            self.next_conn_id += 1;
            self.op_index = 0;
        }
        Ok(())
    }

    fn stream(&mut self) -> Result<&mut TcpStream, SimError> {
        self.conn
            .as_mut()
            .ok_or_else(|| SimError::transient("not connected"))
    }

    fn disconnect(&mut self) {
        self.conn = None;
    }
}

fn mismatch(wanted: &str, got: &Response) -> SimError {
    SimError::poison(format!("asked for {wanted}, got {got:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_backoff_caps_and_jitters_replayably() {
        let policy = RetryPolicy {
            max_retries: 8,
            base_delay_ms: 4,
            max_delay_ms: 64,
        };
        assert_eq!(policy.delay_ms(0), 4);
        assert_eq!(policy.delay_ms(1), 8);
        assert_eq!(policy.delay_ms(4), 64);
        assert_eq!(policy.delay_ms(60), 64, "shift overflow saturates");
        // Jitter is a pure function of the seed.
        let schedule = |seed| {
            let mut c = HintClient::with_faults("127.0.0.1:1", policy, FaultPlan::default(), seed);
            (0..6).map(|a| c.backoff_ms(a)).collect::<Vec<_>>()
        };
        assert_eq!(schedule(7), schedule(7));
        assert_ne!(schedule(7), schedule(8), "different seeds decorrelate");
        for (attempt, &ms) in schedule(7).iter().enumerate() {
            let floor = policy.delay_ms(attempt as u32);
            assert!(ms >= floor && ms < floor + policy.base_delay_ms);
        }
    }

    #[test]
    fn connect_refused_is_transient_and_bounded() {
        // Port 1 on localhost: reliably refused, so the retry budget is
        // consumed and the final error keeps the transient class.
        let mut client = HintClient::with_faults(
            "127.0.0.1:1",
            RetryPolicy {
                max_retries: 1,
                base_delay_ms: 1,
                max_delay_ms: 2,
            },
            FaultPlan::default(),
            0,
        );
        let err = client.health().unwrap_err();
        assert_eq!(err.class, FaultClass::Transient);
    }
}
