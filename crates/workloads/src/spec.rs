//! Application parameter sets and the static-program builder.
//!
//! Each of the paper's 13 data center applications is modeled by an
//! [`AppSpec`]: a parameter vector (code footprint, block sizes, loop and
//! call structure, indirection, request-mix skew, phase behaviour) from
//! which a deterministic [`Program`] is built. The parameters are calibrated
//! to the paper's characterization: branch working sets well beyond the
//! 8K-entry BTB, Zipf-skewed branch popularity (≈half the unique branches
//! are "hot" and cover ≈90% of accesses, Figs. 6–7), phase-driven transient
//! variance (Fig. 5), and verilator's outsized code footprint (Fig. 3).

use sim_support::fault::fnv1a;
use sim_support::SimRng;

use crate::exec::{Executor, InputConfig};
use crate::program::{Block, Function, Program, Terminator};
use btb_trace::Trace;

/// Parameters describing one synthetic application.
#[derive(Clone, Debug, PartialEq)]
pub struct AppSpec {
    /// Workload name ("cassandra", ..., or a suite trace id).
    pub name: String,
    /// Number of functions in the program.
    pub functions: usize,
    /// Inclusive range of basic blocks per function.
    pub blocks_per_func: (usize, usize),
    /// Mean sequential instructions per block (geometric-ish).
    pub mean_block_insts: u32,
    /// Fraction of conditional branches that are loop back-edges.
    pub loop_fraction: f64,
    /// Taken probability of loop back-edges (mean trip count knob).
    pub loop_bias: f64,
    /// Probability that a block terminator is a call.
    pub call_fraction: f64,
    /// Fraction of calls that are indirect; also the probability of switch
    /// style indirect jumps.
    pub indirect_fraction: f64,
    /// Inclusive fanout range of indirect branch target sets.
    pub indirect_fanout: (usize, usize),
    /// Number of request-handler entry points.
    pub handlers: usize,
    /// Zipf exponent of handler popularity.
    pub handler_zipf: f64,
    /// Branch records per execution phase (workload drift granularity).
    /// Record-based (not request-based) so phase boundaries are identical
    /// across inputs of the same length — profiles then cover the same
    /// phase mix, as the paper's long profiling windows do.
    pub phase_len: usize,
    /// Handler-rank rotation applied at each phase change (working-set
    /// drift; drives transient reuse-distance variance).
    pub phase_shift: usize,
    /// Maximum function calls executed per request; further calls are
    /// elided (callee skipped, call/return pair still emitted). Controls
    /// request length — data center requests touch a bounded slice of the
    /// code base per request.
    pub request_call_budget: usize,
    /// Fraction of call sites that target the shared library pool (the
    /// common substrate — serialization, allocation, logging — every
    /// request exercises). This pool is what gives data center traces
    /// their hot-branch plateau (paper Figs. 6-7) and keeps hot branches
    /// hot across inputs (Fig. 13).
    pub shared_lib_call_fraction: f64,
    /// Fraction of the function space forming the shared library pool.
    pub shared_lib_size_fraction: f64,
    /// Mean length (in requests) of a burst of same-type requests. Bursty
    /// request mixes give popular handlers *long reuse gaps* — the source
    /// of the transient-vs-holistic variance gap (paper Fig. 5) that lets
    /// LRU lose holistically-hot branches.
    pub burst_len: usize,
    /// Probability that a request is accompanied by a *cold walk*: a short
    /// excursion through a uniformly drawn function (error paths, cold
    /// framework code, JIT warmup, GC). These non-recurring streams are
    /// almost half of all BTB misses in data center applications (paper
    /// §2.2) and are what evicts the hot set under LRU.
    pub cold_walk_probability: f64,
    /// Call budget of one cold walk.
    pub cold_walk_budget: usize,
    /// Seed for the static structure (derived from the name).
    pub structure_seed: u64,
}

impl AppSpec {
    /// A baseline spec with mid-sized parameters, for building custom
    /// workloads (the suite generators use this).
    pub fn base_public(name: &str, functions: usize, handlers: usize) -> Self {
        Self::base(name, functions, handlers)
    }

    /// A baseline spec with mid-sized parameters; named specs tweak from
    /// here.
    fn base(name: &str, functions: usize, handlers: usize) -> Self {
        Self {
            name: name.to_owned(),
            functions,
            blocks_per_func: (4, 14),
            mean_block_insts: 5,
            loop_fraction: 0.22,
            loop_bias: 0.82,
            call_fraction: 0.36,
            indirect_fraction: 0.08,
            indirect_fanout: (2, 8),
            handlers,
            handler_zipf: 0.7,
            phase_len: 250_000,
            // No intra-trace popularity rotation for the application
            // models: data center profiles drift over weeks, not within one
            // profiling window (paper §1), and request bursts already give
            // the transient reuse variance of Fig. 5. Suite traces (CBP-5)
            // turn rotation on for within-trace phase variety.
            phase_shift: 0,
            request_call_budget: 40,
            shared_lib_call_fraction: 0.2,
            shared_lib_size_fraction: 0.06,
            burst_len: 16,
            cold_walk_probability: 1.4,
            cold_walk_budget: 10,
            // FNV-1a of the name: stable across runs and platforms.
            structure_seed: fnv1a(name.as_bytes()),
        }
    }

    /// The 13 data center application models of the paper (§2.1).
    pub fn all() -> Vec<AppSpec> {
        vec![
            AppSpec::base("cassandra", 4400, 540),
            AppSpec {
                mean_block_insts: 5,
                ..AppSpec::base("clang", 5200, 640)
            },
            AppSpec::base("drupal", 4800, 600),
            AppSpec::base("finagle-chirper", 2500, 340),
            AppSpec::base("finagle-http", 2000, 270),
            AppSpec::base("kafka", 3700, 470),
            AppSpec::base("mediawiki", 4300, 540),
            AppSpec {
                loop_fraction: 0.28,
                ..AppSpec::base("mysql", 3900, 480)
            },
            AppSpec {
                loop_fraction: 0.26,
                ..AppSpec::base("postgresql", 3200, 400)
            },
            // Interpreters dispatch indirectly on every bytecode.
            AppSpec {
                indirect_fraction: 0.25,
                indirect_fanout: (8, 32),
                mean_block_insts: 4,
                ..AppSpec::base("python", 2900, 370)
            },
            AppSpec::base("tomcat", 3900, 480),
            // Verilator emits enormous straight-line generated code: a code
            // footprint far beyond every cache level (≥300x the L2iMPKI of
            // any other app, Fig. 3) and few loops.
            AppSpec {
                blocks_per_func: (8, 24),
                mean_block_insts: 24,
                loop_fraction: 0.05,
                call_fraction: 0.3,
                handler_zipf: 0.4,
                phase_len: 60_000,
                ..AppSpec::base("verilator", 15000, 1500)
            },
            AppSpec::base("wordpress", 4500, 560),
        ]
    }

    /// Looks an application model up by name.
    pub fn by_name(name: &str) -> Option<AppSpec> {
        AppSpec::all().into_iter().find(|s| s.name == name)
    }

    /// Builds the static program deterministically from the spec.
    pub fn build_program(&self) -> Program {
        let mut rng = SimRng::seed_from_u64(self.structure_seed);
        let n = self.functions;
        let mut functions = Vec::with_capacity(n);
        let mut cursor: u64 = 0x0040_0000; // text section base

        for fi in 0..n {
            let nb = rng.gen_range(self.blocks_per_func.0..=self.blocks_per_func.1);
            let mut blocks = Vec::with_capacity(nb);
            // Lay out block addresses first so targets are known.
            let mut pcs = Vec::with_capacity(nb);
            let mut starts = Vec::with_capacity(nb);
            for _ in 0..nb {
                // Geometric-ish block length around the mean, at least 1.
                let gap = sample_gap(&mut rng, self.mean_block_insts);
                starts.push(cursor);
                cursor += u64::from(gap) * 4;
                pcs.push(cursor);
                cursor += 4;
            }
            cursor += 16; // function padding

            for bi in 0..nb {
                let terminator = if bi == nb - 1 {
                    Terminator::Return
                } else {
                    self.pick_terminator(&mut rng, fi, bi, nb, n)
                };
                blocks.push(Block {
                    pc: pcs[bi],
                    inst_gap: ((pcs[bi] - starts[bi]) / 4) as u32,
                    terminator,
                });
            }
            functions.push(Function { blocks });
        }

        // Handlers: spread over the lower two thirds of the index space so
        // they have room to call into the DAG.
        let span = (n * 2 / 3).max(1);
        let handlers = (0..self.handlers.min(span))
            .map(|i| i * span / self.handlers.max(1))
            .collect();

        let program = Program {
            functions,
            handlers,
        };
        debug_assert_eq!(program.validate(), Ok(()));
        program
    }

    fn pick_terminator(
        &self,
        rng: &mut SimRng,
        fi: usize,
        bi: usize,
        nb: usize,
        n: usize,
    ) -> Terminator {
        let callee_lo = fi + 1;
        // Callees live in a window above the caller: keeps call chains deep
        // enough to be interesting but bounded in expectation.
        let callee_hi = (fi + 1 + 96).min(n);
        let can_call = callee_lo < callee_hi;
        let r: f64 = rng.gen();

        // The shared library pool sits at the top of the index space (so
        // any function may call into it without breaking the DAG). Hotness
        // within the pool follows a Zipf-ish quadratic skew.
        let lib_size = ((n as f64 * self.shared_lib_size_fraction) as usize)
            .max(8)
            .min(n / 2);
        let lib_lo = n - lib_size;

        if can_call && r < self.call_fraction {
            let pick_callee = |rng: &mut SimRng| -> usize {
                if fi + 1 < lib_lo && rng.gen::<f64>() < self.shared_lib_call_fraction {
                    // Skewed pick inside the library pool.
                    let u: f64 = rng.gen();
                    lib_lo + ((u * u) * lib_size as f64) as usize
                } else {
                    rng.gen_range(callee_lo..callee_hi)
                }
            };
            if rng.gen::<f64>() < self.indirect_fraction {
                let fanout = rng.gen_range(self.indirect_fanout.0..=self.indirect_fanout.1);
                let callees = (0..fanout).map(|_| pick_callee(rng)).collect();
                return Terminator::IndirectCall { callees };
            }
            return Terminator::Call {
                callee: pick_callee(rng),
            };
        }
        if r < self.call_fraction + 0.04 && nb > 2 {
            if rng.gen::<f64>() < self.indirect_fraction {
                // Switch-style dispatch to forward blocks.
                let fanout = rng
                    .gen_range(self.indirect_fanout.0..=self.indirect_fanout.1)
                    .min(nb - bi - 1)
                    .max(1);
                let targets = (0..fanout).map(|_| rng.gen_range(bi + 1..nb)).collect();
                return Terminator::IndirectJump { targets };
            }
            return Terminator::Jump {
                target: rng.gen_range(bi + 1..nb),
            };
        }

        // Conditional: loop back-edge or forward branch. Biases are
        // quantized to sixteenths so the patterned sites (see the executor)
        // realize short periodic sequences a history-based predictor can
        // learn — real branch behaviour is overwhelmingly patterned, which
        // is why TAGE-class predictors reach ~99% on server code.
        let quantize = |b: f64| (b * 16.0).round().clamp(1.0, 15.0) / 16.0;
        if bi > 0 && rng.gen::<f64>() < self.loop_fraction {
            let taken_target = rng.gen_range(0..=bi);
            let bias = quantize((self.loop_bias + rng.gen_range(-0.08..0.08)).clamp(0.05, 0.97));
            Terminator::Cond { taken_target, bias }
        } else {
            let taken_target = rng.gen_range(bi + 1..nb);
            // Bimodal bias: most branches are strongly biased one way.
            let bias = if rng.gen::<f64>() < 0.85 {
                if rng.gen::<bool>() {
                    rng.gen_range(0.02..0.15)
                } else {
                    rng.gen_range(0.85..0.98)
                }
            } else {
                rng.gen_range(0.3..0.7)
            };
            Terminator::Cond {
                taken_target,
                bias: quantize(bias),
            }
        }
    }

    /// Generates a branch trace of exactly `records` records for the given
    /// input configuration. The trace is named `{name}#{input}`.
    ///
    /// # Examples
    ///
    /// ```
    /// use btb_workloads::{AppSpec, InputConfig};
    /// let t = AppSpec::by_name("python").unwrap().generate(InputConfig::input(1), 5000);
    /// assert_eq!(t.len(), 5000);
    /// ```
    pub fn generate(&self, input: InputConfig, records: usize) -> Trace {
        let program = self.build_program();
        let mut exec = Executor::new(&program, self, input);
        exec.run(records)
    }
}

fn sample_gap(rng: &mut SimRng, mean: u32) -> u32 {
    // Geometric distribution with the requested mean, capped for sanity.
    let p = 1.0 / f64::from(mean.max(1));
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    let g = (u.ln() / (1.0 - p).ln()).floor() as u32 + 1;
    g.min(mean * 8 + 8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_thirteen_apps_present() {
        let names: Vec<String> = AppSpec::all().into_iter().map(|s| s.name).collect();
        assert_eq!(names.len(), 13);
        for expected in [
            "cassandra",
            "clang",
            "drupal",
            "finagle-chirper",
            "finagle-http",
            "kafka",
            "mediawiki",
            "mysql",
            "postgresql",
            "python",
            "tomcat",
            "verilator",
            "wordpress",
        ] {
            assert!(names.iter().any(|n| n == expected), "missing {expected}");
        }
    }

    #[test]
    fn programs_validate() {
        for spec in AppSpec::all() {
            let p = spec.build_program();
            assert_eq!(p.validate(), Ok(()), "{} failed validation", spec.name);
        }
    }

    #[test]
    fn structure_is_deterministic() {
        let a = AppSpec::by_name("kafka").unwrap().build_program();
        let b = AppSpec::by_name("kafka").unwrap().build_program();
        assert_eq!(a.functions.len(), b.functions.len());
        assert_eq!(a.functions[7], b.functions[7]);
    }

    #[test]
    fn footprints_are_ordered_as_calibrated() {
        let blocks = |name: &str| {
            AppSpec::by_name(name)
                .unwrap()
                .build_program()
                .stats()
                .blocks
        };
        let verilator = blocks("verilator");
        let clang = blocks("clang");
        let finagle = blocks("finagle-http");
        assert!(
            verilator > 2 * clang,
            "verilator {verilator} vs clang {clang}"
        );
        assert!(
            clang > 2 * finagle,
            "clang {clang} vs finagle-http {finagle}"
        );
        // All apps exceed the 8K-entry BTB (the paper's central premise).
        for spec in AppSpec::all() {
            let b = spec.build_program().stats().blocks;
            assert!(b > 8192, "{} footprint {b} fits in the BTB", spec.name);
        }
    }

    #[test]
    fn python_is_indirect_heavy() {
        let stats = |name: &str| AppSpec::by_name(name).unwrap().build_program().stats();
        let py = stats("python");
        let kafka = stats("kafka");
        let py_frac = py.indirects as f64 / py.blocks as f64;
        let kafka_frac = kafka.indirects as f64 / kafka.blocks as f64;
        assert!(
            py_frac > 2.0 * kafka_frac,
            "python {py_frac:.3} vs kafka {kafka_frac:.3}"
        );
    }

    #[test]
    fn unknown_app_is_none() {
        assert!(AppSpec::by_name("memcached").is_none());
    }
}
