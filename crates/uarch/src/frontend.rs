//! The decoupled-frontend (FDIP) simulation loop.
//!
//! One pass over a branch trace, modeling (per record):
//!
//! 1. **Fetch bandwidth** — `inst_gap + 1` instructions at `fetch_width`
//!    per cycle.
//! 2. **I-cache behaviour** — every 64B block the record's instruction
//!    range touches is fetched through the hierarchy; the *run-ahead lead*
//!    (how far the BPU+prefetcher run ahead of fetch, bounded by the FTQ)
//!    hides miss latency. Frontend squashes collapse the lead, exposing
//!    subsequent misses — the coupling that makes BTB misses so expensive
//!    in FDIP frontends (paper §2.2).
//! 3. **Branch prediction events** — TAGE direction prediction, BTB lookup
//!    for taken branches, IBTB for indirect targets, RAS for returns. One
//!    penalty is charged per record (the most severe event: direction
//!    flush > target flush > BTB-miss re-steer), and any squash zeroes the
//!    lead.
//!
//! TAGE, the RAS, the IBTB and the I-cache never read the BTB, so their
//! outcomes — the [`FetchFacts`] — are computed once per trace. The BTB
//! reads neither those facts nor the timing model, so a run is three
//! layers, each a pass over the trace:
//!
//! - [`FetchFacts::build`]: the predictors' and I-cache's outcomes.
//! - [`Frontend::btb_pass`]: the BTB (with hints, prefetcher and OPT
//!   oracle), one [`BtbOutcomes`] byte per taken branch.
//! - [`FrontendConfig::time`]: the lead/cycle chain over both.
//!
//! [`Frontend::replay`] is the BTB pass followed by the timing pass, and
//! [`Frontend::run`] builds the facts and replays them.
//!
//! The per-branch Thermometer hint (if a hint table is installed) rides
//! into the BTB through [`AccessContext::hint`].

use sim_support::DetHashMap;

use btb_model::{
    AccessContext, AccessOutcome, Btb, BtbConfig, BtbEntry, BtbInterface, BtbStats,
    ReplacementPolicy,
};
use btb_trace::{next_use::NEVER, BranchKind, NextUseOracle, Trace};

use crate::cache::HitLevel;
use crate::facts::FetchFacts;
use crate::prefetch::Prefetcher;
use crate::report::SimReport;
use crate::timing::TimingConfig;

/// Limit-study switches (paper Fig. 2).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PerfectOptions {
    /// Every BTB access hits (no re-steers; replacement is bypassed).
    pub btb: bool,
    /// Every conditional direction is predicted correctly.
    pub branch_predictor: bool,
    /// Every instruction fetch hits L1I.
    pub icache: bool,
}

/// Full frontend configuration.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct FrontendConfig {
    /// Timing parameters.
    pub timing: TimingConfig,
    /// BTB geometry.
    pub btb: BtbConfig,
    /// Limit-study switches.
    pub perfect: PerfectOptions,
}

impl FrontendConfig {
    /// The paper's Table 1 configuration with no perfect structures.
    pub fn table1() -> Self {
        Self {
            timing: TimingConfig::table1(),
            btb: BtbConfig::table1(),
            perfect: PerfectOptions::default(),
        }
    }
}

impl Default for FrontendConfig {
    fn default() -> Self {
        Self::table1()
    }
}

/// The trace-driven frontend simulator, generic over the BTB organization.
pub struct Frontend<B> {
    config: FrontendConfig,
    btb: B,
    prefetcher: Option<Box<dyn Prefetcher>>,
    /// Looked up per branch record (hot); never iterated, so the seeded
    /// O(1) map is safe.
    hints: Option<DetHashMap<u64, u8>>,
}

impl<P: ReplacementPolicy> Frontend<Btb<P>> {
    /// Creates a frontend around a plain BTB running `policy`.
    pub fn new(config: FrontendConfig, policy: P) -> Self {
        let btb = Btb::new(config.btb, policy);
        Self::with_btb(config, btb)
    }
}

impl<B: BtbInterface> Frontend<B> {
    /// Creates a frontend around an arbitrary BTB organization (e.g.
    /// Shotgun's partitioned BTB).
    pub fn with_btb(config: FrontendConfig, btb: B) -> Self {
        config
            .timing
            .validate()
            .expect("invalid timing configuration");
        Self {
            config,
            btb,
            prefetcher: None,
            hints: None,
        }
    }

    /// Installs a BTB prefetcher (Confluence/Twig style).
    pub fn set_prefetcher(&mut self, prefetcher: Box<dyn Prefetcher>) {
        self.prefetcher = Some(prefetcher);
    }

    /// Installs a Thermometer hint table (branch PC → temperature category,
    /// 0 = coldest).
    pub fn set_hints(&mut self, hints: DetHashMap<u64, u8>) {
        self.hints = Some(hints);
    }

    /// The BTB, for post-run inspection.
    pub fn btb(&self) -> &B {
        &self.btb
    }

    /// Simulates the trace once and reports. For Belady's OPT the caller
    /// must pass the trace's [`NextUseOracle`]; online policies pass `None`.
    ///
    /// A `Frontend` is single-shot: construct a fresh one per run (learned
    /// BTB and prefetcher state would otherwise leak across runs).
    pub fn run(&mut self, trace: &Trace, oracle: Option<&NextUseOracle>) -> SimReport {
        self.replay(trace, &FetchFacts::build(trace), oracle)
    }

    /// [`Frontend::run`] over precomputed [`FetchFacts`]: the same report
    /// as `run`, bit for bit, without re-simulating TAGE, the RAS, the
    /// IBTB and the I-cache. Callers that simulate one trace under several
    /// BTBs, policies or timing configurations build the facts once and
    /// replay them.
    ///
    /// A replay is the [BTB pass](Self::btb_pass) followed by the
    /// [timing pass](FrontendConfig::time) over its outcomes.
    ///
    /// # Panics
    ///
    /// Panics if `facts` describes a trace of a different length; facts
    /// must come from `FetchFacts::build(trace)`.
    pub fn replay(
        &mut self,
        trace: &Trace,
        facts: &FetchFacts,
        oracle: Option<&NextUseOracle>,
    ) -> SimReport {
        let btb = self.btb_pass(trace, oracle);
        self.config.time(trace, facts, &btb)
    }

    /// The BTB half of a run: looks up every taken branch in the BTB, with
    /// its hint, the OPT oracle's next use and the prefetcher's buffer, and
    /// records whether it hit. Reads neither the fetch facts nor the timing
    /// configuration, so it can run before (or beside) the facts are built;
    /// [`FrontendConfig::time`] then turns its outcomes into a report.
    pub fn btb_pass(&mut self, trace: &Trace, oracle: Option<&NextUseOracle>) -> BtbOutcomes {
        let mut outcomes = Vec::with_capacity(trace.len());
        if self.config.perfect.btb {
            outcomes.extend(trace.taken().map(|_| HIT));
            let accesses = outcomes.len() as u64;
            return BtbOutcomes {
                outcomes,
                stats: BtbStats {
                    accesses,
                    hits: accesses,
                    ..BtbStats::default()
                },
                buffer_hits: 0,
            };
        }
        let mut buffer_hits = 0;
        for (access_index, r) in trace.taken().enumerate() {
            let hint = self
                .hints
                .as_ref()
                .and_then(|h| h.get(&r.pc))
                .copied()
                .unwrap_or(0);
            let next_use = oracle.map_or(NEVER, |o| o.next_use(access_index));
            let ctx = AccessContext {
                pc: r.pc,
                target: r.target,
                kind: r.kind,
                hint,
                next_use,
                access_index: access_index as u64,
            };
            let mut outcome = self.btb.access(&ctx);
            if let Some(pf) = self.prefetcher.as_mut() {
                // A miss served by the prefetcher's staging buffer costs
                // nothing: the target was prefetched and is ready at lookup
                // time.
                if outcome.is_miss() && pf.buffer_hit(r.pc) {
                    buffer_hits += 1;
                    outcome = AccessOutcome::Hit {
                        target_matched: true,
                    };
                }
                // Prefetched entries carry their true instruction hint (the
                // hint lives in the branch instruction bytes, so any fill
                // path sees it).
                let mut hinted = HintedBtb {
                    btb: &mut self.btb,
                    hints: self.hints.as_ref(),
                };
                pf.on_branch(r, outcome, &mut hinted);
            }
            outcomes.push(match outcome {
                AccessOutcome::Hit {
                    target_matched: true,
                } => HIT,
                AccessOutcome::Hit {
                    target_matched: false,
                } => STALE_HIT,
                AccessOutcome::MissInserted | AccessOutcome::MissBypassed => MISS,
            });
        }
        BtbOutcomes {
            outcomes,
            stats: self.btb.stats(),
            buffer_hits,
        }
    }
}

/// Outcome byte: the access missed, and no prefetch buffer served it.
const MISS: u8 = 0;
/// Outcome byte: the access hit with the right target (or a prefetch
/// buffer or a perfect BTB served it).
const HIT: u8 = 1;
/// Outcome byte: the access hit a stale entry whose target differed.
const STALE_HIT: u8 = 2;

/// What a [BTB pass](Frontend::btb_pass) decided: one outcome byte per
/// taken-branch access, in access order, and the BTB's counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BtbOutcomes {
    outcomes: Vec<u8>,
    stats: BtbStats,
    buffer_hits: u64,
}

impl BtbOutcomes {
    /// The BTB's counters after the pass.
    pub fn stats(&self) -> &BtbStats {
        &self.stats
    }

    /// Misses a prefetcher's staging buffer served.
    pub fn buffer_hits(&self) -> u64 {
        self.buffer_hits
    }
}

impl FrontendConfig {
    /// The timing half of a run: walks every record with its fetch facts
    /// and, for taken branches, the BTB pass's outcome, charging fetch
    /// bandwidth, unhidden I-cache latency and the most severe flush per
    /// record. The report is [`Frontend::replay`]'s, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `facts` describes a trace of a different length, or `btb`
    /// a different number of taken branches.
    pub fn time(&self, trace: &Trace, facts: &FetchFacts, btb: &BtbOutcomes) -> SimReport {
        assert_eq!(
            facts.len(),
            trace.len(),
            "fetch facts describe a different trace than {}",
            trace.name()
        );
        let t = self.timing;
        let perfect = self.perfect;
        let max_lead = t.max_lead();
        let mut report = SimReport {
            workload: trace.name().to_owned(),
            btb: btb.stats.clone(),
            btb_buffer_hits: btb.buffer_hits,
            ..SimReport::default()
        };

        let mut cycles = 0.0f64;
        let mut lead = 0.0f64; // run-ahead shield, cycles
        let mut facts_iter = facts.iter();
        let mut outcomes = btb.outcomes.iter();

        // Division by a power of two is exact, and so is multiplying by its
        // (exactly representable) reciprocal — bit-identical results without
        // a per-record divide. Non-power-of-two widths keep the division.
        let fetch_width = f64::from(t.fetch_width);
        let inv_fetch_width = (t.fetch_width.is_power_of_two()).then(|| 1.0 / fetch_width);
        // Fetch latency by where the block hit: L1 hits cost nothing.
        let latency_of = |level: HitLevel| match level {
            HitLevel::L1 => 0,
            HitLevel::L2 => t.l2_latency,
            HitLevel::Llc => t.llc_latency,
            HitLevel::Memory => t.memory_latency,
        };

        for r in trace.records() {
            let insts = u64::from(r.inst_gap) + 1;
            report.instructions += insts;
            let base = match inv_fetch_width {
                Some(inv) => insts as f64 * inv,
                None => insts as f64 / fetch_width,
            };
            cycles += base;
            // The BPU produces one record per bpu_cycles_per_branch while
            // fetch consumes it in `base` cycles: lead grows on big blocks,
            // shrinks on branchy code.
            lead = (lead + base - t.bpu_cycles_per_branch).clamp(0.0, max_lead);

            // --- I-cache: the record's block fetches that missed L1I, in
            // walk order (L1 hits cost nothing) ---
            let fact = facts_iter.next_facts(|level| {
                let latency = latency_of(level);
                if latency > 0 && !perfect.icache {
                    // With the shield up, the FTQ's prefetches overlap:
                    // a miss stream costs latency/mlp per block. With
                    // the shield down (right after a squash) the first
                    // block is a serialized demand miss.
                    let effective = if lead > 0.0 {
                        f64::from(latency) / f64::from(t.prefetch_mlp)
                    } else {
                        f64::from(latency)
                    };
                    let stall = (effective - lead).max(0.0);
                    cycles += stall;
                    report.icache_stall_cycles += stall;
                    // Fetch stalled while the BPU kept running: the
                    // shield regrows by the stall we just served.
                    lead = (lead + stall).min(max_lead);
                }
            });

            // --- Branch prediction events ---
            let mut direction_flush = false;
            if r.kind.is_conditional() {
                report.cond_branches += 1;
                if fact.mispredicted() && !perfect.branch_predictor {
                    report.cond_mispredicts += 1;
                    direction_flush = true;
                }
            }

            let mut target_flush = false;
            let mut btb_missed = false;
            if r.taken {
                let outcome = *outcomes
                    .next()
                    .expect("BTB outcomes describe a different trace");
                btb_missed = outcome == MISS;

                // Target prediction (only meaningful on a BTB hit: without
                // an entry the frontend did not even know a branch was
                // here, which the BTB-miss penalty already covers).
                match r.kind {
                    BranchKind::IndirectJump | BranchKind::IndirectCall => {
                        report.indirect_branches += 1;
                        if !btb_missed && fact.target_missed() {
                            report.indirect_mispredicts += 1;
                            target_flush = true;
                        }
                    }
                    BranchKind::Return => {
                        report.returns += 1;
                        if !btb_missed && fact.target_missed() {
                            report.return_mispredicts += 1;
                            target_flush = true;
                        }
                    }
                    // Stale direct-branch entry (aliasing): treated as a
                    // target flush.
                    _ => target_flush = outcome == STALE_HIT,
                }
            }

            // --- Charge the most severe event once; any squash kills the
            // run-ahead shield. ---
            if direction_flush {
                cycles += f64::from(t.cond_mispredict_penalty);
                report.direction_stall_cycles += f64::from(t.cond_mispredict_penalty);
                lead = 0.0;
            } else if target_flush {
                cycles += f64::from(t.target_mispredict_penalty);
                report.target_stall_cycles += f64::from(t.target_mispredict_penalty);
                lead = 0.0;
            } else if btb_missed {
                cycles += f64::from(t.btb_miss_penalty);
                report.btb_stall_cycles += f64::from(t.btb_miss_penalty);
                lead = 0.0;
            }
        }
        assert!(
            outcomes.next().is_none(),
            "BTB outcomes describe a different trace"
        );

        report.cycles = cycles;
        if !perfect.icache {
            report.l1i_misses = facts.l1i_misses();
            report.l2i_misses = facts.l2i_misses();
            report.llc_misses = facts.llc_misses();
        }
        report
    }
}

/// Adapter that injects instruction hints into prefetch fills, so a BTB
/// prefetcher installs entries with their true temperature rather than the
/// coldest category (which Thermometer would otherwise evict or reject
/// immediately).
pub(crate) struct HintedBtb<'a, B> {
    pub(crate) btb: &'a mut B,
    pub(crate) hints: Option<&'a DetHashMap<u64, u8>>,
}

impl<B: BtbInterface> BtbInterface for HintedBtb<'_, B> {
    fn access(&mut self, ctx: &AccessContext) -> AccessOutcome {
        self.btb.access(ctx)
    }

    fn probe(&self, pc: u64) -> Option<BtbEntry> {
        self.btb.probe(pc)
    }

    fn prefetch_fill(&mut self, pc: u64, target: u64, kind: BranchKind) -> bool {
        match self.hints.and_then(|h| h.get(&pc)).copied() {
            Some(hint) if hint > 0 => self.btb.prefetch_fill_hinted(pc, target, kind, hint),
            _ => self.btb.prefetch_fill(pc, target, kind),
        }
    }

    fn stats(&self) -> BtbStats {
        self.btb.stats()
    }

    fn capacity(&self) -> usize {
        self.btb.capacity()
    }

    fn clear(&mut self) {
        self.btb.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btb_model::policies::{BeladyOpt, Lru as LruPolicy};
    use btb_trace::BranchRecord;

    /// A loop of `n` taken branches in distinct blocks.
    fn loop_trace(n: u64, rounds: u64, gap: u32) -> Trace {
        let mut t = Trace::new("loop");
        for _ in 0..rounds {
            for i in 0..n {
                t.push(BranchRecord::taken(
                    0x10000 + i * 256,
                    0x10000 + ((i + 1) % n) * 256,
                    BranchKind::UncondDirect,
                    gap,
                ));
            }
        }
        t
    }

    #[test]
    fn instruction_count_matches_trace() {
        let trace = loop_trace(8, 10, 5);
        let mut fe = Frontend::new(FrontendConfig::table1(), LruPolicy::new());
        let report = fe.run(&trace, None);
        assert_eq!(report.instructions, trace.instruction_count());
        assert!(report.cycles > 0.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let trace = loop_trace(100, 20, 3);
        let run = || Frontend::new(FrontendConfig::table1(), LruPolicy::new()).run(&trace, None);
        assert_eq!(run(), run());
    }

    #[test]
    fn perfect_btb_is_never_slower() {
        let trace = loop_trace(20_000, 4, 3); // thrash the 8K BTB
        let base = Frontend::new(FrontendConfig::table1(), LruPolicy::new()).run(&trace, None);
        let mut cfg = FrontendConfig::table1();
        cfg.perfect.btb = true;
        let perfect = Frontend::new(cfg, LruPolicy::new()).run(&trace, None);
        assert!(
            perfect.ipc() > base.ipc(),
            "perfect {:.3} vs base {:.3}",
            perfect.ipc(),
            base.ipc()
        );
        assert_eq!(perfect.btb_stall_cycles, 0.0);
        assert_eq!(perfect.btb.misses, 0);
    }

    #[test]
    fn perfect_icache_removes_icache_stalls() {
        let trace = loop_trace(20_000, 4, 9);
        let mut cfg = FrontendConfig::table1();
        cfg.perfect.icache = true;
        let r = Frontend::new(cfg, LruPolicy::new()).run(&trace, None);
        assert_eq!(r.icache_stall_cycles, 0.0);
        assert_eq!(r.l1i_misses, 0);
    }

    #[test]
    fn opt_beats_lru_on_btb_thrash() {
        let trace = loop_trace(10_000, 8, 3);
        let oracle = NextUseOracle::build(&trace);
        let lru = Frontend::new(FrontendConfig::table1(), LruPolicy::new()).run(&trace, None);
        let opt =
            Frontend::new(FrontendConfig::table1(), BeladyOpt::new()).run(&trace, Some(&oracle));
        assert!(
            opt.btb.misses < lru.btb.misses,
            "opt misses {} vs lru {}",
            opt.btb.misses,
            lru.btb.misses
        );
        assert!(opt.ipc() > lru.ipc());
    }

    #[test]
    fn small_loop_has_no_steady_state_stalls() {
        // 16 branches fit everywhere: after warmup, IPC approaches the
        // fetch-bandwidth bound (one 6-instruction record per cycle).
        let trace = loop_trace(16, 10_000, 5);
        let r = Frontend::new(FrontendConfig::table1(), LruPolicy::new()).run(&trace, None);
        let bound = 6.0;
        assert!(r.ipc() > 0.9 * bound, "ipc {:.2} vs bound {bound}", r.ipc());
        // All stall cycles stem from the 16-record warmup.
        assert_eq!(r.btb.misses, 16);
    }

    #[test]
    fn returns_predicted_by_ras() {
        // call -> ret pairs, well-nested: no return mispredicts after the
        // BTB warms up.
        let mut trace = Trace::new("callret");
        for _ in 0..500 {
            trace.push(BranchRecord::taken(
                0x1000,
                0x2000,
                BranchKind::DirectCall,
                3,
            ));
            trace.push(BranchRecord::taken(0x2010, 0x1004, BranchKind::Return, 3));
        }
        let r = Frontend::new(FrontendConfig::table1(), LruPolicy::new()).run(&trace, None);
        assert_eq!(r.returns, 500);
        assert!(
            r.return_mispredicts <= 1,
            "ras mispredicts {}",
            r.return_mispredicts
        );
    }

    #[test]
    fn big_code_footprint_shows_icache_pressure() {
        // Unique blocks, one pass: everything cold-misses.
        let mut trace = Trace::new("cold");
        for i in 0..50_000u64 {
            trace.push(BranchRecord::taken(
                0x100000 + i * 64,
                0x100000 + (i + 1) * 64,
                BranchKind::UncondDirect,
                10,
            ));
        }
        let r = Frontend::new(FrontendConfig::table1(), LruPolicy::new()).run(&trace, None);
        assert!(r.l1i_misses > 40_000);
        assert!(r.l2i_misses > 40_000);
        assert!(r.icache_stall_cycles > 0.0);
    }

    #[test]
    fn hints_reach_the_btb() {
        use btb_model::{BtbEntry, Geometry, Victim};

        /// A policy that records the hints it saw.
        #[derive(Default)]
        struct HintSpy {
            seen: std::cell::RefCell<Vec<u8>>,
            lru: LruPolicy,
        }
        impl ReplacementPolicy for HintSpy {
            fn name(&self) -> &'static str {
                "spy"
            }
            fn reset(&mut self, g: &Geometry) {
                self.lru.reset(g);
            }
            fn on_hit(&mut self, s: usize, w: usize, c: &AccessContext) {
                self.seen.borrow_mut().push(c.hint);
                self.lru.on_hit(s, w, c);
            }
            fn on_fill(&mut self, s: usize, w: usize, c: &AccessContext) {
                self.seen.borrow_mut().push(c.hint);
                self.lru.on_fill(s, w, c);
            }
            fn choose_victim(&mut self, s: usize, r: &[BtbEntry], c: &AccessContext) -> Victim {
                self.lru.choose_victim(s, r, c)
            }
            fn on_replace(&mut self, s: usize, w: usize, e: &BtbEntry, c: &AccessContext) {
                self.lru.on_replace(s, w, e, c);
            }
        }

        let mut trace = Trace::new("hints");
        trace.push(BranchRecord::taken(
            0x100,
            0x200,
            BranchKind::UncondDirect,
            1,
        ));
        trace.push(BranchRecord::taken(
            0x104,
            0x300,
            BranchKind::UncondDirect,
            0,
        ));
        let mut fe = Frontend::new(FrontendConfig::table1(), HintSpy::default());
        fe.set_hints([(0x100u64, 2u8)].into_iter().collect());
        fe.run(&trace, None);
        assert_eq!(*fe.btb().policy().seen.borrow(), vec![2, 0]);
    }
}
