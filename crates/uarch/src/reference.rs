//! The fused frontend loop, kept verbatim as the oracle for the replay
//! differential tests.
//!
//! [`ReferenceFrontend`] is the frontend as it was before the split into
//! [`FetchFacts`](crate::FetchFacts) and [`Frontend::replay`]: one loop
//! that owns TAGE, the RAS, the IBTB and the I-cache hierarchy and steps
//! them interleaved with the BTB. Its value is that the control flow is
//! the model as written, so `tests/replay_differential.rs` can require
//! [`Frontend::replay`] to produce the identical [`SimReport`], field for
//! field and every `f64` bit for bit. Do not "improve" this module; change
//! [`Frontend`] and let the differential battery prove the change
//! behavior-preserving.
//!
//! [`Frontend`]: crate::Frontend
//! [`Frontend::replay`]: crate::Frontend::replay

use sim_support::DetHashMap;

use btb_model::{AccessContext, AccessOutcome, Btb, BtbInterface, ReplacementPolicy};
use btb_trace::{next_use::NEVER, BranchKind, NextUseOracle, Trace};

use crate::cache::{HitLevel, InstrHierarchy, BLOCK_BYTES};
use crate::frontend::HintedBtb;
use crate::ibtb::Ibtb;
use crate::prefetch::Prefetcher;
use crate::ras::Ras;
use crate::report::SimReport;
use crate::tage::Tage;
use crate::FrontendConfig;

/// The fused single-loop frontend (differential-test oracle).
pub struct ReferenceFrontend<B> {
    config: FrontendConfig,
    btb: B,
    tage: Tage,
    ras: Ras,
    ibtb: Ibtb,
    icache: InstrHierarchy,
    prefetcher: Option<Box<dyn Prefetcher>>,
    hints: Option<DetHashMap<u64, u8>>,
}

impl<P: ReplacementPolicy> ReferenceFrontend<Btb<P>> {
    /// Creates a frontend around a plain BTB running `policy`.
    pub fn new(config: FrontendConfig, policy: P) -> Self {
        let btb = Btb::new(config.btb, policy);
        Self::with_btb(config, btb)
    }
}

impl<B: BtbInterface> ReferenceFrontend<B> {
    /// Creates a frontend around an arbitrary BTB organization.
    pub fn with_btb(config: FrontendConfig, btb: B) -> Self {
        config
            .timing
            .validate()
            .expect("invalid timing configuration");
        Self {
            config,
            btb,
            tage: Tage::new(),
            ras: Ras::table1(),
            ibtb: Ibtb::table1(),
            icache: InstrHierarchy::table1(),
            prefetcher: None,
            hints: None,
        }
    }

    /// Installs a BTB prefetcher.
    pub fn set_prefetcher(&mut self, prefetcher: Box<dyn Prefetcher>) {
        self.prefetcher = Some(prefetcher);
    }

    /// Installs a Thermometer hint table.
    pub fn set_hints(&mut self, hints: DetHashMap<u64, u8>) {
        self.hints = Some(hints);
    }

    /// Simulates the trace once and reports (single-shot, like
    /// [`Frontend::run`](crate::Frontend::run)).
    pub fn run(&mut self, trace: &Trace, oracle: Option<&NextUseOracle>) -> SimReport {
        let t = self.config.timing;
        let max_lead = t.max_lead();
        let mut report = SimReport {
            workload: trace.name().to_owned(),
            ..SimReport::default()
        };

        let mut cycles = 0.0f64;
        let mut lead = 0.0f64; // run-ahead shield, cycles
        let mut access_index: u64 = 0; // position in the taken stream

        // Division by a power of two is exact, and so is multiplying by its
        // (exactly representable) reciprocal — bit-identical results without
        // a per-record divide. Non-power-of-two widths keep the division.
        let fetch_width = f64::from(t.fetch_width);
        let inv_fetch_width = (t.fetch_width.is_power_of_two()).then(|| 1.0 / fetch_width);

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

            // --- I-cache walk over the record's instruction range ---
            if !self.config.perfect.icache {
                let start = r.pc.saturating_sub(u64::from(r.inst_gap) * 4);
                let first_block = start / BLOCK_BYTES;
                let last_block = r.pc / BLOCK_BYTES;
                let mut block = first_block;
                while block <= last_block {
                    let level = self.icache.fetch_block(block);
                    block += 1;
                    let latency = match level {
                        HitLevel::L1 => 0,
                        HitLevel::L2 => t.l2_latency,
                        HitLevel::Llc => t.llc_latency,
                        HitLevel::Memory => t.memory_latency,
                    };
                    if latency > 0 {
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
                }
            }

            // --- Branch prediction events ---
            let mut direction_flush = false;
            if r.kind.is_conditional() {
                report.cond_branches += 1;
                let pred = self.tage.predict(r.pc);
                let mispredicted = pred.taken != r.taken;
                self.tage.update(r.pc, r.taken, pred);
                if mispredicted && !self.config.perfect.branch_predictor {
                    report.cond_mispredicts += 1;
                    direction_flush = true;
                }
            } else {
                self.tage.note_taken_transfer(r.pc);
            }

            let mut target_flush = false;
            let mut btb_missed = false;
            if r.taken {
                let outcome = if self.config.perfect.btb {
                    report.btb.accesses += 1;
                    report.btb.hits += 1;
                    AccessOutcome::Hit {
                        target_matched: true,
                    }
                } else {
                    let hint = self
                        .hints
                        .as_ref()
                        .and_then(|h| h.get(&r.pc))
                        .copied()
                        .unwrap_or(0);
                    let next_use = oracle.map_or(NEVER, |o| o.next_use(access_index as usize));
                    let ctx = AccessContext {
                        pc: r.pc,
                        target: r.target,
                        kind: r.kind,
                        hint,
                        next_use,
                        access_index,
                    };
                    let mut outcome = self.btb.access(&ctx);
                    if let Some(pf) = self.prefetcher.as_mut() {
                        // A miss served by the prefetcher's staging buffer
                        // costs nothing: the target was prefetched and is
                        // ready at lookup time.
                        if outcome.is_miss() && pf.buffer_hit(r.pc) {
                            report.btb_buffer_hits += 1;
                            outcome = AccessOutcome::Hit {
                                target_matched: true,
                            };
                        }
                        // Prefetched entries carry their true instruction
                        // hint (the hint lives in the branch instruction
                        // bytes, so any fill path sees it).
                        let mut hinted = HintedBtb {
                            btb: &mut self.btb,
                            hints: self.hints.as_ref(),
                        };
                        pf.on_branch(r, outcome, &mut hinted);
                    }
                    outcome
                };
                access_index += 1;
                btb_missed = outcome.is_miss();

                // Target prediction (only meaningful on a BTB hit: without
                // an entry the frontend did not even know a branch was
                // here, which the BTB-miss penalty already covers).
                match r.kind {
                    BranchKind::IndirectJump | BranchKind::IndirectCall => {
                        report.indirect_branches += 1;
                        if !btb_missed {
                            let predicted = self.ibtb.predict(r.pc);
                            if predicted != Some(r.target) {
                                report.indirect_mispredicts += 1;
                                target_flush = true;
                            }
                        }
                        self.ibtb.update(r.pc, r.target);
                    }
                    BranchKind::Return => {
                        report.returns += 1;
                        let predicted = self.ras.pop();
                        if !btb_missed && predicted != Some(r.target) {
                            report.return_mispredicts += 1;
                            target_flush = true;
                        }
                    }
                    _ => {
                        if let AccessOutcome::Hit {
                            target_matched: false,
                        } = outcome
                        {
                            // Stale direct-branch entry (aliasing): treated
                            // as a target flush.
                            target_flush = true;
                        }
                    }
                }
                if r.kind.is_call() {
                    self.ras.push(r.pc + 4);
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

        report.cycles = cycles;
        if !self.config.perfect.btb {
            report.btb = self.btb.stats();
        }
        report.l1i_misses = self.icache.l1i.misses;
        report.l2i_misses = self.icache.l2.misses;
        report.llc_misses = self.icache.llc.misses;
        report
    }
}
