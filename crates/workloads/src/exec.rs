//! The program executor: interprets a [`Program`] as a request-serving loop
//! and emits the branch trace.
//!
//! Every trace is a sequence of *requests*. Each request indirectly
//! dispatches (like an RPC router) to a handler function chosen by a
//! Zipf-skewed popularity distribution whose rank assignment *rotates* every
//! phase — this models the workload drift that gives data center traces
//! their high transient reuse-distance variance (paper Fig. 5) and the
//! non-recurring miss streams that defeat temporal BTB prefetchers
//! (paper §2.2).

use sim_support::{DetHashMap, SimRng};

use crate::program::{BlockId, FuncId, Program, Terminator};
use crate::spec::AppSpec;
use crate::zipf::Zipf;
use btb_trace::{BranchKind, BranchRecord, Trace};

/// PC of the driver's indirect dispatch call (the request router).
const DRIVER_PC: u64 = 0x0020_0000;
/// PC of the driver's loop-back branch.
const DRIVER_LOOP_PC: u64 = 0x0020_0040;
/// Maximum call depth before calls are elided (kept RAS-balanced).
const MAX_DEPTH: usize = 64;
/// Records per request before the request is force-completed.
const REQUEST_CAP: usize = 40_000;
/// Records a run may emit past its target before the final truncate: the
/// interpreter step that reaches the target emits at most a call/return
/// pair, then the request adds one record per cold walk (two at the
/// default 1.4 walk budget) and its loop-back branch. A larger overshoot
/// only costs one regrowth.
const OVERSHOOT: usize = 16;

/// Whether input `input_id` swaps popularity rank `rank` with its neighbour
/// (`rank ^ 1`). Deterministic, ~1/8 of mid-tail ranks per input, different
/// subsets per input. The hottest endpoints (ranks 0-3) never swap: fleet
/// request mixes change in the mid-range while the top endpoints stay on
/// top (the paper's profiles drift slowly, §1).
fn input_swaps_rank(rank: usize, input_id: u32) -> bool {
    // simlint: allow(D04) -- THERMO_NO_SWAPS is a documented experiment knob (EXPERIMENTS.md)
    if rank < 4 || std::env::var("THERMO_NO_SWAPS").is_ok() {
        return false;
    }
    let mut h = (rank as u64 | 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (u64::from(input_id) << 32);
    h ^= h >> 31;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    (h >> 61) == 0
}

/// Selects the program input: the paper trains Thermometer on input `#0`
/// and tests on inputs `#1..#3` (Fig. 13).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct InputConfig {
    /// Input identifier; perturbs the execution seed, the request mix
    /// rotation, and nothing else (the binary — the static program — is
    /// identical across inputs, as in the paper).
    pub input_id: u32,
}

impl InputConfig {
    /// Input `#id`.
    pub fn input(input_id: u32) -> Self {
        Self { input_id }
    }
}

impl Default for InputConfig {
    /// The training input `#0`.
    fn default() -> Self {
        Self::input(0)
    }
}

/// Interprets a program, producing branch records.
///
/// Two independent RNG streams model how real inputs differ: the *driver*
/// stream (request arrival: bursts, handler choice) is input-invariant —
/// the paper's inputs use the same load generators — while the *data*
/// stream (conditional outcomes, loop trips, indirect dispatch, cold
/// walks) is input-specific. Inputs additionally swap a subset of handler
/// popularity ranks (a changed request mix).
pub struct Executor<'p> {
    program: &'p Program,
    spec: &'p AppSpec,
    input: InputConfig,
    /// Input-invariant request-arrival stream.
    driver_rng: SimRng,
    /// Input-specific data-dependent stream.
    rng: SimRng,
    handler_zipf: Zipf,
    /// Zipf samplers for indirect sites, cached by fanout. Lookup-only
    /// caches (never iterated), so the seeded O(1) map is safe.
    fanout_zipf: DetHashMap<usize, Zipf>,
    requests: u64,
    rotation: usize,
    /// Primary handler of the current request burst.
    burst_primary: usize,
    /// Per-site bias accumulators for patterned conditionals.
    cond_acc: DetHashMap<u64, f64>,
}

impl<'p> Executor<'p> {
    /// Creates an executor for `program` under `spec` and `input`.
    ///
    /// # Panics
    ///
    /// Panics if the program has no handlers.
    pub fn new(program: &'p Program, spec: &'p AppSpec, input: InputConfig) -> Self {
        assert!(
            !program.handlers.is_empty(),
            "program has no request handlers"
        );
        let seed = spec
            .structure_seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(u64::from(input.input_id) << 17 | 0x5eed);
        let driver_seed = spec.structure_seed.wrapping_mul(0xd1b5_4a32_d192_ed03);
        Self {
            program,
            spec,
            input,
            driver_rng: SimRng::seed_from_u64(driver_seed),
            rng: SimRng::seed_from_u64(seed),
            handler_zipf: Zipf::new(program.handlers.len(), spec.handler_zipf),
            fanout_zipf: DetHashMap::default(),
            requests: 0,
            rotation: 0,
            burst_primary: 0,
            cond_acc: DetHashMap::default(),
        }
    }

    /// Runs requests until exactly `records` branch records are emitted.
    pub fn run(&mut self, records: usize) -> Trace {
        let mut trace = Trace::with_capacity(
            format!("{}#{}", self.spec.name, self.input.input_id),
            records.saturating_add(OVERSHOOT),
        );
        while trace.len() < records {
            self.run_request(&mut trace, records);
        }
        trace.truncate(records);
        trace.shrink_to_fit();
        trace
    }

    fn run_request(&mut self, trace: &mut Trace, target: usize) {
        // Phase bookkeeping: rotate handler popularity every phase_len
        // *records*, so phase boundaries are input-invariant.
        let phase = trace.len() / self.spec.phase_len;
        self.rotation = (phase * self.spec.phase_shift) % self.program.handlers.len();
        self.requests += 1;

        // Dispatch: the router indirectly calls the chosen handler.
        //
        // Requests arrive in *bursts* of a primary type (sessions, batch
        // jobs, cache warms): the burst primary changes with probability
        // 1/burst_len, and ~70% of requests within a burst go to it. This
        // gives popular handlers long reuse gaps while other bursts run —
        // the transient-variance behaviour of Fig. 5.
        //
        // Inputs perturb the popularity ranking by swapping a subset of
        // adjacent ranks (a different request mix with the same hot
        // endpoints, as in production fleets) — the phase schedule itself
        // is input-invariant.
        let sample_rank = |rng: &mut SimRng, zipf: &Zipf, input: InputConfig| -> usize {
            let mut rank = zipf.sample(rng);
            if input.input_id > 0 && input_swaps_rank(rank, input.input_id) {
                rank ^= 1;
            }
            rank
        };
        if self.driver_rng.gen::<f64>() * self.spec.burst_len as f64 <= 1.0 || self.requests == 1 {
            self.burst_primary = sample_rank(&mut self.driver_rng, &self.handler_zipf, self.input);
        }
        let rank = if self.driver_rng.gen::<f64>() < 0.7 {
            self.burst_primary
        } else {
            sample_rank(&mut self.driver_rng, &self.handler_zipf, self.input)
        };
        let idx = (rank + self.rotation) % self.program.handlers.len();
        let handler = self.program.handlers[idx];
        let entry = self.program.functions[handler].entry_pc();
        trace.push(BranchRecord::taken(
            DRIVER_PC,
            entry,
            BranchKind::IndirectCall,
            12,
        ));

        self.execute(handler, trace, target, self.spec.request_call_budget);

        // Cold walk: an excursion through rarely-executed code (error
        // handling, cold framework paths). Drawn uniformly over the whole
        // program so each walk is close to non-recurring.
        let mut walk_budget = self.spec.cold_walk_probability;
        while self.rng.gen::<f64>() < walk_budget {
            let cold = self.rng.gen_range(0..self.program.functions.len());
            let entry = self.program.functions[cold].entry_pc();
            trace.push(BranchRecord::taken(
                DRIVER_PC + 8,
                entry,
                BranchKind::IndirectCall,
                4,
            ));
            self.execute(cold, trace, target, self.spec.cold_walk_budget);
            walk_budget -= 1.0;
        }

        // The request loop branches back for the next request.
        trace.push(BranchRecord::taken(
            DRIVER_LOOP_PC,
            DRIVER_PC - 16,
            BranchKind::CondDirect,
            8,
        ));
    }

    /// Resolves a conditional outcome. Most sites (85%, chosen statically
    /// by PC hash) are *patterned*: a bias accumulator realizes the exact
    /// taken frequency with a regular pattern, which is input-invariant and
    /// learnable — like real flag/range checks. The rest are data-driven
    /// (per-input RNG), providing the direction-misprediction traffic of
    /// Fig. 2's perfect-BP study (~1-2% TAGE misprediction, as on real
    /// server code).
    fn cond_outcome(&mut self, pc: u64, bias: f64) -> bool {
        let mut h = pc.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 33;
        if h % 20 < 17 {
            let acc = self.cond_acc.entry(pc).or_insert(0.5);
            *acc += bias;
            if *acc >= 1.0 {
                *acc -= 1.0;
                true
            } else {
                false
            }
        } else {
            self.rng.gen::<f64>() < bias
        }
    }

    fn block_start(&self, f: FuncId, b: BlockId) -> u64 {
        let blk = &self.program.functions[f].blocks[b];
        blk.pc - u64::from(blk.inst_gap) * 4
    }

    fn fanout_sampler(&mut self, n: usize) -> &Zipf {
        self.fanout_zipf
            .entry(n)
            .or_insert_with(|| Zipf::new(n, 1.0))
    }

    fn execute(&mut self, handler: FuncId, trace: &mut Trace, target: usize, call_budget: usize) {
        let mut stack: Vec<(FuncId, BlockId)> = Vec::new();
        let mut cur: (FuncId, BlockId) = (handler, 0);
        let mut emitted = 0usize;
        let mut calls = 0usize;

        loop {
            if trace.len() >= target || emitted >= REQUEST_CAP {
                return; // force-complete the request
            }
            let (f, b) = cur;
            let block = &self.program.functions[f].blocks[b];
            let pc = block.pc;
            let gap = block.inst_gap;
            emitted += 1;

            match &block.terminator {
                Terminator::Cond { taken_target, bias } => {
                    if self.cond_outcome(pc, *bias) {
                        let t = self.block_start(f, *taken_target);
                        trace.push(BranchRecord::taken(pc, t, BranchKind::CondDirect, gap));
                        cur = (f, *taken_target);
                    } else {
                        trace.push(BranchRecord::not_taken(pc, BranchKind::CondDirect, gap));
                        cur = (f, b + 1);
                    }
                }
                Terminator::Jump { target: t } => {
                    let addr = self.block_start(f, *t);
                    trace.push(BranchRecord::taken(pc, addr, BranchKind::UncondDirect, gap));
                    cur = (f, *t);
                }
                Terminator::Call { callee } => {
                    let callee = *callee;
                    calls += 1;
                    let descend = calls <= call_budget;
                    cur = self.do_call(
                        pc,
                        gap,
                        f,
                        b,
                        callee,
                        BranchKind::DirectCall,
                        descend,
                        &mut stack,
                        trace,
                    );
                }
                Terminator::IndirectCall { callees } => {
                    let u: f64 = self.rng.gen();
                    let pick = self.fanout_sampler(callees.len()).sample_u(u);
                    let callee = callees[pick];
                    calls += 1;
                    let descend = calls <= call_budget;
                    cur = self.do_call(
                        pc,
                        gap,
                        f,
                        b,
                        callee,
                        BranchKind::IndirectCall,
                        descend,
                        &mut stack,
                        trace,
                    );
                }
                Terminator::IndirectJump { targets } => {
                    let u: f64 = self.rng.gen();
                    let pick = self.fanout_sampler(targets.len()).sample_u(u);
                    let t = targets[pick];
                    let addr = self.block_start(f, t);
                    trace.push(BranchRecord::taken(pc, addr, BranchKind::IndirectJump, gap));
                    cur = (f, t);
                }
                Terminator::Return => {
                    match stack.pop() {
                        Some((rf, rb)) => {
                            let addr = self.block_start(rf, rb);
                            trace.push(BranchRecord::taken(pc, addr, BranchKind::Return, gap));
                            cur = (rf, rb);
                        }
                        None => {
                            // Handler done: return to the driver.
                            trace.push(BranchRecord::taken(
                                pc,
                                DRIVER_PC + 4,
                                BranchKind::Return,
                                gap,
                            ));
                            return;
                        }
                    }
                }
            }
        }
    }

    /// Emits a call record and descends into `callee`; at the depth cap or
    /// when the request's call budget is spent the callee is elided but the
    /// call/return pair stays balanced for RAS consistency.
    #[allow(clippy::too_many_arguments)] // flattening the interpreter's branch-emission state into a struct would obscure the call protocol
    fn do_call(
        &mut self,
        pc: u64,
        gap: u32,
        f: FuncId,
        b: BlockId,
        callee: FuncId,
        kind: BranchKind,
        descend: bool,
        stack: &mut Vec<(FuncId, BlockId)>,
        trace: &mut Trace,
    ) -> (FuncId, BlockId) {
        let entry = self.program.functions[callee].entry_pc();
        trace.push(BranchRecord::taken(pc, entry, kind, gap));
        if descend && stack.len() < MAX_DEPTH {
            stack.push((f, b + 1));
            (callee, 0)
        } else {
            // Elide the callee body: emit its return immediately.
            let last = self.program.functions[callee]
                .blocks
                .last()
                .expect("non-empty function");
            let ret_target = self.block_start(f, b + 1);
            trace.push(BranchRecord::taken(
                last.pc,
                ret_target,
                BranchKind::Return,
                last.inst_gap,
            ));
            (f, b + 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btb_trace::TraceStats;

    fn small_spec() -> AppSpec {
        AppSpec {
            functions: 200,
            handlers: 20,
            ..AppSpec::by_name("kafka").unwrap()
        }
    }

    fn gen(records: usize, input: u32) -> Trace {
        let spec = small_spec();
        spec.generate(InputConfig::input(input), records)
    }

    #[test]
    fn exact_record_count_and_name() {
        let t = gen(3000, 2);
        assert_eq!(t.len(), 3000);
        assert_eq!(t.name(), "kafka#2");
    }

    #[test]
    fn deterministic_per_input() {
        assert_eq!(gen(2000, 0).records(), gen(2000, 0).records());
        assert_ne!(gen(2000, 0).records(), gen(2000, 1).records());
    }

    #[test]
    fn calls_and_returns_balance_approximately() {
        let t = gen(20_000, 0);
        let s = TraceStats::collect(&t);
        let calls = s.kind_histogram[usize::from(BranchKind::DirectCall.code())]
            + s.kind_histogram[usize::from(BranchKind::IndirectCall.code())];
        let rets = s.kind_histogram[usize::from(BranchKind::Return.code())];
        // Imbalance only from request force-completion and trace truncation.
        let imbalance = (calls as i64 - rets as i64).unsigned_abs();
        assert!(imbalance < calls / 10 + 70, "calls {calls} vs rets {rets}");
    }

    #[test]
    fn taken_ratio_is_realistic() {
        let t = gen(20_000, 0);
        let s = TraceStats::collect(&t);
        let r = s.taken_ratio();
        assert!((0.45..=0.95).contains(&r), "taken ratio {r}");
    }

    #[test]
    fn branch_kinds_are_mixed() {
        let t = gen(20_000, 0);
        let s = TraceStats::collect(&t);
        for kind in [
            BranchKind::CondDirect,
            BranchKind::DirectCall,
            BranchKind::Return,
        ] {
            assert!(s.kind_fraction(kind) > 0.02, "{kind} underrepresented");
        }
        assert!(s.kind_fraction(BranchKind::CondDirect) > 0.3);
    }

    #[test]
    fn conditionals_go_both_ways() {
        let t = gen(20_000, 0);
        let taken = t
            .records()
            .iter()
            .filter(|r| r.kind.is_conditional() && r.taken)
            .count();
        let not_taken = t
            .records()
            .iter()
            .filter(|r| r.kind.is_conditional() && !r.taken)
            .count();
        assert!(
            taken > 500 && not_taken > 500,
            "taken {taken}, not taken {not_taken}"
        );
    }

    #[test]
    fn footprint_grows_with_trace_length() {
        let short = TraceStats::collect(&gen(2_000, 0)).unique_taken_branches();
        let long = TraceStats::collect(&gen(40_000, 0)).unique_taken_branches();
        assert!(long > short, "long {long} <= short {short}");
    }

    #[test]
    fn only_conditionals_are_ever_not_taken() {
        let t = gen(20_000, 0);
        for r in t.records() {
            if !r.taken {
                assert!(r.kind.is_conditional(), "{:?} not taken", r.kind);
            }
        }
    }
}
