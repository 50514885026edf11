//! Confluence-lite: temporal-stream BTB prefetching.
//!
//! Confluence's insight is that BTB misses and I-cache misses follow the
//! same temporal streams, so the BTB can be refilled "for free" alongside
//! I-cache prefetches. This model keeps:
//!
//! * a **bundle table**: which branches live in each 64B code block
//!   (learned from demand accesses — Confluence's block-aware BTB), and
//! * a **successor table**: the temporal next-block stream.
//!
//! On a BTB miss it replays the learned stream from the missing block,
//! prefilling the bundles of the next few blocks. Like any temporal
//! prefetcher it is blind to *new* streams — almost half of all BTB misses
//! in data center applications (paper §2.2) — which is why its speedup in
//! Fig. 4 is small, and why it can even hurt by polluting the BTB.

use sim_support::DetHashMap;

use btb_model::{AccessOutcome, BtbInterface};
use btb_trace::{BranchKind, BranchRecord};

use crate::cache::BLOCK_BYTES;
use crate::prefetch::Prefetcher;

/// Maximum branches remembered per code block.
const BUNDLE_CAP: usize = 8;

/// The Confluence-lite prefetcher.
#[derive(Clone, Debug, Default)]
pub struct Confluence {
    /// Code block → branches within it. Looked up per branch online (hot);
    /// never iterated, so the seeded map is safe.
    bundles: DetHashMap<u64, Vec<(u64, u64, BranchKind)>>,
    /// Temporal stream: block → next block observed.
    successor: DetHashMap<u64, u64>,
    last_block: Option<u64>,
    /// Blocks of stream replayed per miss.
    depth: usize,
    /// Prefetch fills issued.
    pub issued: u64,
}

impl Confluence {
    /// Creates the prefetcher with the default stream depth (4 blocks).
    pub fn new() -> Self {
        Self {
            depth: 4,
            ..Self::default()
        }
    }
}

impl Prefetcher for Confluence {
    fn name(&self) -> &'static str {
        "Confluence"
    }

    fn on_branch(&mut self, r: &BranchRecord, outcome: AccessOutcome, btb: &mut dyn BtbInterface) {
        let block = r.pc / BLOCK_BYTES;

        // Learn the bundle and the temporal stream.
        let bundle = self.bundles.entry(block).or_default();
        if !bundle.iter().any(|&(pc, _, _)| pc == r.pc) && bundle.len() < BUNDLE_CAP {
            bundle.push((r.pc, r.target, r.kind));
        }
        if let Some(prev) = self.last_block {
            if prev != block {
                self.successor.insert(prev, block);
            }
        }
        self.last_block = Some(block);

        // On a miss, replay the learned stream ahead of the miss point.
        if outcome.is_miss() {
            let mut cur = block;
            for _ in 0..self.depth {
                let Some(&next) = self.successor.get(&cur) else {
                    break;
                };
                if let Some(branches) = self.bundles.get(&next) {
                    for &(pc, target, kind) in branches {
                        if btb.probe(pc).is_none() {
                            btb.prefetch_fill(pc, target, kind);
                            self.issued += 1;
                        }
                    }
                }
                cur = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btb_model::{policies::Lru, AccessContext, Btb, BtbConfig};

    fn access(btb: &mut Btb<Lru>, pf: &mut Confluence, pc: u64) -> AccessOutcome {
        let ctx = AccessContext {
            pc,
            target: pc + 0x100,
            kind: BranchKind::UncondDirect,
            ..Default::default()
        };
        let outcome = btb.access(&ctx);
        let r = BranchRecord::taken(pc, pc + 0x100, BranchKind::UncondDirect, 0);
        pf.on_branch(&r, outcome, btb);
        outcome
    }

    #[test]
    fn recurring_stream_is_prefetched() {
        // A long recurring sequence whose footprint exceeds a small BTB:
        // second pass over the stream should hit in part thanks to stream
        // replays after the first miss.
        let mut btb = Btb::new(BtbConfig::new(64, 4), Lru::new());
        let mut pf = Confluence::new();
        let pcs: Vec<u64> = (0..200u64).map(|i| i * BLOCK_BYTES).collect();
        for _ in 0..3 {
            for &pc in &pcs {
                access(&mut btb, &mut pf, pc);
            }
        }
        assert!(pf.issued > 0, "stream prefetches never issued");
    }

    #[test]
    fn new_streams_get_no_prefetches() {
        let mut btb = Btb::new(BtbConfig::new(64, 4), Lru::new());
        let mut pf = Confluence::new();
        // Every block seen once: no successor is ever known at miss time.
        for i in 0..500u64 {
            access(&mut btb, &mut pf, i * BLOCK_BYTES);
        }
        assert_eq!(
            pf.issued, 0,
            "temporal prefetcher must be blind to novel streams"
        );
    }

    #[test]
    fn bundles_are_capacity_bounded() {
        let mut pf = Confluence::new();
        let mut btb = Btb::new(BtbConfig::new(64, 4), Lru::new());
        // 20 branches in one block: bundle must stay bounded.
        for i in 0..20u64 {
            let pc = 0x1000 + i * 2; // same 64B block
            let r = BranchRecord::taken(pc, 0x9000, BranchKind::CondDirect, 0);
            pf.on_branch(&r, AccessOutcome::MissInserted, &mut btb);
        }
        assert!(pf.bundles[&(0x1000 / BLOCK_BYTES)].len() <= BUNDLE_CAP);
    }
}
