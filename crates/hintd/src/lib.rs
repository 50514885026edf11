//! `hintd`: a fault-tolerant online hint server.
//!
//! The paper's pipeline is offline: profile a training run, build a hint
//! table, rewrite the binary. A data-center deployment closes that loop
//! online — production hosts stream branch-trace batches to a central
//! service, which keeps a per-application [`thermometer::HintTable`]
//! continuously fresh and serves it back to the binary-rewriting fleet.
//! This crate is that service, built entirely on the workspace's own
//! substrate (no external dependencies):
//!
//! * [`proto`] — the length-prefixed binary wire protocol: three verbs
//!   (ingest batch / query table / health), varint-packed bodies, and the
//!   deterministic wire encoding of a hint table.
//! * [`store`] — the sharded profile store: every accepted batch is
//!   journaled through [`sim_support::fsio::append_line_durable`] *before*
//!   it is acknowledged, so a SIGKILL at any instant loses no acknowledged
//!   batch and a restart replays the journal into a byte-identical table.
//! * [`server`] — the TCP front end: connection handlers run on
//!   [`sim_support::ThreadPool`], reads carry per-connection deadlines with
//!   idle-connection reaping, and overload degrades gracefully (backlogged
//!   apps serve the last committed table stamped `stale` instead of making
//!   queries wait on recomputes).
//! * [`client`] — the bounded-retry client: transient failures back off
//!   exponentially with deterministic PRNG jitter, and the `net=` entries
//!   of a [`sim_support::FaultPlan`] can injure the wire (drop / delay /
//!   truncate / garble) at chosen `(connection, operation)` sites to prove
//!   convergence under faults.
//!
//! The robustness contract, end to end: **an acknowledged ingest is
//! durable, a retried ingest is idempotent, and the recovered table is a
//! pure function of the accepted batch sequence** — DESIGN.md §12 states it
//! precisely; `tests/hintd_crash.rs` kills the server mid-stream and holds
//! it to the letter.

pub mod client;
pub mod proto;
pub mod server;
pub mod store;

pub use client::{HintClient, RetryPolicy};
pub use proto::{HealthReply, IngestAck, ProtoError, QueryReply, Request, Response, WireTable};
pub use server::{HintServer, ServerConfig, ServerCounters};
pub use store::{HintStore, StoreConfig};

/// Lower-case hex encoding — the journal's and table-dump's byte carrier.
/// (Journal lines are whitespace-separated fields; hex keeps arbitrary
/// trace bytes newline- and space-free.)
pub fn hex_encode(bytes: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(HEX[usize::from(b >> 4)] as char);
        out.push(HEX[usize::from(b & 0xf)] as char);
    }
    out
}

/// Inverse of [`hex_encode`]. Rejects odd lengths and non-hex digits — a
/// corrupted journal line must fail loudly, not decode to garbage.
pub fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    fn nibble(c: u8) -> Result<u8, String> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            b'A'..=b'F' => Ok(c - b'A' + 10),
            other => Err(format!("non-hex byte {other:#04x}")),
        }
    }
    let raw = s.as_bytes();
    if !raw.len().is_multiple_of(2) {
        return Err(format!("odd hex length {}", raw.len()));
    }
    let mut out = Vec::with_capacity(raw.len() / 2);
    for pair in raw.chunks_exact(2) {
        out.push((nibble(pair[0])? << 4) | nibble(pair[1])?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips() {
        let data: Vec<u8> = (0..=255u8).collect();
        let enc = hex_encode(&data);
        assert_eq!(hex_decode(&enc).unwrap(), data);
        assert_eq!(hex_decode(&enc.to_uppercase()).unwrap(), data);
        assert_eq!(hex_encode(b""), "");
        assert!(hex_decode("abc").is_err(), "odd length");
        assert!(hex_decode("zz").is_err(), "non-hex digit");
    }
}
