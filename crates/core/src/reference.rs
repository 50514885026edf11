//! The per-access `BTreeMap` OPT profile, kept verbatim as the oracle for
//! the profile differential tests.
//!
//! [`reference_profile`] is [`OptProfile::measure`] as it was before the
//! static-branch index: it builds its own PC-hashing next-use oracle
//! ([`ReferenceOracle`]) and updates a PC-keyed `BTreeMap` on every taken
//! access. Its value is that the control flow is trivially auditable, so
//! `crates/core/tests/profile_differential.rs` can require the dense
//! profile to equal it field for field. Do not "improve" this module;
//! change [`OptProfile::measure`] and let the differential battery prove
//! the change behavior-preserving.

use std::collections::BTreeMap;

use btb_model::{policies::BeladyOpt, AccessContext, Btb, BtbConfig};
use btb_trace::reference::ReferenceOracle;
use btb_trace::Trace;

use crate::profile::{BranchCounters, OptProfile};

/// Replays Belady's OPT over `trace`'s taken-branch stream on a BTB of
/// `config` geometry, one `BTreeMap` update per access
/// (differential-test oracle).
pub fn reference_profile(trace: &Trace, config: BtbConfig) -> OptProfile {
    let oracle = ReferenceOracle::build(trace);
    let mut btb = Btb::new(config, BeladyOpt::new());
    let mut branches: BTreeMap<u64, BranchCounters> = BTreeMap::new();

    for (i, r) in trace.taken().enumerate() {
        let ctx = AccessContext {
            pc: r.pc,
            target: r.target,
            kind: r.kind,
            hint: 0,
            next_use: oracle.next_use(i),
            access_index: i as u64,
        };
        let outcome = btb.access(&ctx);
        let c = branches.entry(r.pc).or_default();
        c.taken += 1;
        if outcome.is_hit() {
            c.opt_hits += 1;
        } else if outcome.is_bypass() {
            c.bypasses += 1;
        } else {
            c.inserts += 1;
        }
    }

    OptProfile {
        branches,
        config: Some(config),
        accesses: oracle.len() as u64,
    }
}
