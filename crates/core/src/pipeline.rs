//! End-to-end pipeline: profile → hints → simulate, plus baseline runners.
//!
//! This is the library's high-level entry point and the engine behind the
//! figure harness: one [`Pipeline`] holds a frontend configuration and a
//! temperature configuration and can run any of the paper's policies over
//! any trace with consistent settings.

use btb_model::policies::{BeladyOpt, Ghrp, GhrpConfig, Hawkeye, HawkeyeConfig, Lru, Srrip};
use btb_model::{BtbConfig, BtbInterface, ReplacementPolicy};
use btb_trace::Trace;
use uarch_sim::{Frontend, FrontendConfig, PerfectOptions, SimReport};

use crate::hints::HintTable;
use crate::policy::ThermometerPolicy;
use crate::policy_kind::PolicyKind;
use crate::prepared::SimInput;
use crate::profile::OptProfile;
use crate::temperature::TemperatureConfig;

/// Pipeline settings.
#[derive(Clone, Debug, PartialEq)]
pub struct PipelineConfig {
    /// Frontend/BTB/timing configuration (Table 1 by default).
    pub frontend: FrontendConfig,
    /// Temperature categories and thresholds (50%/80%, 3 categories, by
    /// default).
    pub temperature: TemperatureConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            frontend: FrontendConfig::table1(),
            temperature: TemperatureConfig::paper_default(),
        }
    }
}

/// Policy names accepted by [`Pipeline::run_named`], in canonical order —
/// the `btbsim --policy` vocabulary. The count is `POLICY_NAMES.len()`.
///
/// This list is one leg of the `[registry.policy-zoo]` declared in
/// `simlint.toml`: simlint's R-rules hold it byte-consistent with the
/// [`PolicyKind`](crate::policy_kind::PolicyKind) variants (R01/R02), the
/// `each_kind!` dispatch arms (R03), the differential-test batteries
/// (R04), and the figure suite (R05). A half-added policy fails `cargo
/// test -q` before it compiles into a silently unplotted zoo member, so
/// extending the zoo means wiring the name through every leg — nothing
/// else hard-codes the size.
pub const POLICY_NAMES: [&str; 12] = [
    "lru",
    "fifo",
    "plru",
    "random",
    "srrip",
    "drrip",
    "trrip",
    "ship",
    "ghrp",
    "hawkeye",
    "opt",
    "thermometer",
];

/// The profile-guided workflow plus baseline runners.
///
/// Every `run_*` entry point takes a [`SimInput`]: pass a
/// [`PreparedTrace`](crate::PreparedTrace) to share its fetch facts and
/// OPT oracle across runs, or a bare [`Trace`] for a one-off run. The
/// reports are identical either way.
#[derive(Clone, Debug, Default)]
pub struct Pipeline {
    config: PipelineConfig,
}

impl Pipeline {
    /// Creates a pipeline with the given settings.
    pub fn new(config: PipelineConfig) -> Self {
        Self { config }
    }

    /// The settings in use.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Step 1–2: replay OPT over the profile trace.
    pub fn profile(&self, trace: &Trace) -> OptProfile {
        OptProfile::measure(trace, self.config.frontend.btb)
    }

    /// Steps 1–3: profile and classify into a hint table.
    pub fn profile_to_hints(&self, trace: &Trace) -> HintTable {
        HintTable::from_profile(&self.profile(trace), &self.config.temperature)
    }

    /// Step 4: simulate the test trace under Thermometer with `hints`.
    pub fn run_thermometer(&self, trace: &impl SimInput, hints: &HintTable) -> SimReport {
        self.run_thermometer_detailed(trace, hints).0
    }

    /// Like [`Pipeline::run_thermometer`], also returning the replacement
    /// coverage counters (paper Fig. 15).
    pub fn run_thermometer_detailed(
        &self,
        trace: &impl SimInput,
        hints: &HintTable,
    ) -> (SimReport, crate::policy::CoverageCounters) {
        let mut fe = Frontend::new(self.config.frontend, ThermometerPolicy::new());
        fe.set_hints(hints.to_map());
        let mut report = simulate(&mut fe, trace, false);
        report.label = "Thermometer".into();
        let coverage = fe.btb().policy().coverage();
        (report, coverage)
    }

    /// Runs an arbitrary policy with every optional attachment: Thermometer
    /// hints, the OPT oracle, and/or a BTB prefetcher. The label is
    /// `"{policy}+{prefetcher}"` when a prefetcher is attached.
    pub fn run_custom<P: ReplacementPolicy>(
        &self,
        trace: &impl SimInput,
        policy: P,
        hints: Option<&HintTable>,
        with_oracle: bool,
        prefetcher: Option<Box<dyn uarch_sim::prefetch::Prefetcher>>,
    ) -> SimReport {
        let policy_name = policy.name();
        let mut fe = Frontend::new(self.config.frontend, policy);
        if let Some(h) = hints {
            fe.set_hints(h.to_map());
        }
        let label = match &prefetcher {
            Some(p) => format!("{policy_name}+{}", p.name()),
            None => policy_name.to_owned(),
        };
        if let Some(p) = prefetcher {
            fe.set_prefetcher(p);
        }
        let mut report = simulate(&mut fe, trace, with_oracle);
        report.label = label;
        report
    }

    /// Runs an arbitrary policy (no hints, no oracle).
    pub fn run_policy<P: ReplacementPolicy>(&self, trace: &impl SimInput, policy: P) -> SimReport {
        let label = policy.name();
        let mut fe = Frontend::new(self.config.frontend, policy);
        let mut report = simulate(&mut fe, trace, false);
        report.label = label.into();
        report
    }

    /// The LRU baseline every figure normalizes against.
    pub fn run_lru(&self, trace: &impl SimInput) -> SimReport {
        self.run_policy(trace, Lru::new())
    }

    /// SRRIP (best prior work in the paper).
    pub fn run_srrip(&self, trace: &impl SimInput) -> SimReport {
        self.run_policy(trace, Srrip::new())
    }

    /// GHRP (the prior BTB-specific policy).
    pub fn run_ghrp(&self, trace: &impl SimInput) -> SimReport {
        self.run_policy(trace, Ghrp::new(GhrpConfig::default()))
    }

    /// Hawkeye adapted to the BTB.
    pub fn run_hawkeye(&self, trace: &impl SimInput) -> SimReport {
        self.run_policy(trace, Hawkeye::new(HawkeyeConfig::default()))
    }

    /// Belady's OPT, with the input's next-use oracle.
    pub fn run_opt(&self, trace: &impl SimInput) -> SimReport {
        let mut fe = Frontend::new(self.config.frontend, BeladyOpt::new());
        let mut report = simulate(&mut fe, trace, true);
        report.label = "OPT".into();
        report
    }

    /// Runs the policy named by one of [`POLICY_NAMES`] (the CLI
    /// vocabulary). Hint-consuming policies (`"thermometer"`, `"trrip"`)
    /// use `hints` when given and otherwise profile the simulated trace
    /// itself; every other policy ignores `hints`. Returns `None` for an
    /// unknown name.
    ///
    /// Dispatch goes through [`PolicyKind`], so the whole vocabulary shares
    /// one `Frontend<Btb<PolicyKind>>` instantiation (enum dispatch on the
    /// per-access path) instead of monomorphizing the simulation loop once
    /// per policy type.
    pub fn run_named(
        &self,
        trace: &impl SimInput,
        name: &str,
        hints: Option<&HintTable>,
    ) -> Option<SimReport> {
        let policy = PolicyKind::by_name(name)?;
        let label = policy.name();
        let mut fe = Frontend::new(self.config.frontend, policy);
        if fe.btb().policy().wants_hints() {
            let own_hints;
            let hints = match hints {
                Some(h) => h,
                None => {
                    own_hints = self.profile_to_hints(trace.as_trace());
                    &own_hints
                }
            };
            fe.set_hints(hints.to_map());
        }
        let with_oracle = fe.btb().policy().needs_oracle();
        let mut report = simulate(&mut fe, trace, with_oracle);
        report.label = label.into();
        Some(report)
    }

    /// A limit-study run (Fig. 2): LRU replacement with perfect structures.
    pub fn run_perfect(&self, trace: &impl SimInput, perfect: PerfectOptions) -> SimReport {
        let mut config = self.config.frontend;
        config.perfect = perfect;
        let mut fe = Frontend::new(config, Lru::new());
        let mut report = simulate(&mut fe, trace, false);
        report.label = match (perfect.btb, perfect.branch_predictor, perfect.icache) {
            (true, false, false) => "Perfect-BTB".into(),
            (false, true, false) => "Perfect-BP".into(),
            (false, false, true) => "Perfect-I-Cache".into(),
            _ => "Perfect".into(),
        };
        report
    }

    /// Convenience: a pipeline identical to this one but with a different
    /// BTB geometry (for the iso-storage and sensitivity studies).
    pub fn with_btb(&self, btb: BtbConfig) -> Pipeline {
        let mut config = self.config.clone();
        config.frontend.btb = btb;
        Pipeline::new(config)
    }
}

/// Simulates `input` through `fe` over the input's fetch facts, with its
/// next-use oracle when `with_oracle`.
fn simulate<B: BtbInterface>(
    fe: &mut Frontend<B>,
    input: &impl SimInput,
    with_oracle: bool,
) -> SimReport {
    let oracle = with_oracle.then(|| input.next_use_oracle());
    fe.replay(input.as_trace(), &input.fetch_facts(), oracle.as_deref())
}

#[cfg(test)]
mod tests {
    use super::*;
    use btb_workloads::{AppSpec, InputConfig};

    fn small_trace(input: u32) -> Trace {
        let spec = AppSpec {
            functions: 400,
            handlers: 60,
            ..AppSpec::by_name("kafka").unwrap()
        };
        spec.generate(InputConfig::input(input), 30_000)
    }

    #[test]
    fn end_to_end_thermometer_beats_lru_on_same_input() {
        let trace = small_trace(0);
        let p = Pipeline::new(PipelineConfig {
            frontend: FrontendConfig {
                btb: BtbConfig::new(1024, 4), // small BTB so the footprint thrashes it
                // at the paper's ~4x pressure ratio
                ..FrontendConfig::table1()
            },
            ..PipelineConfig::default()
        });
        let hints = p.profile_to_hints(&trace);
        let lru = p.run_lru(&trace);
        let therm = p.run_thermometer(&trace, &hints);
        let opt = p.run_opt(&trace);
        assert!(
            therm.btb.misses < lru.btb.misses,
            "thermometer misses {} vs lru {}",
            therm.btb.misses,
            lru.btb.misses
        );
        assert!(opt.btb.misses <= therm.btb.misses, "OPT is the floor");
        assert!(therm.ipc() > lru.ipc());
    }

    #[test]
    fn labels_are_set() {
        let trace = small_trace(0);
        let p = Pipeline::new(PipelineConfig::default());
        assert_eq!(p.run_lru(&trace).label, "LRU");
        assert_eq!(p.run_opt(&trace).label, "OPT");
        let hints = p.profile_to_hints(&trace);
        assert_eq!(p.run_thermometer(&trace, &hints).label, "Thermometer");
        let perfect = p.run_perfect(
            &trace,
            uarch_sim::PerfectOptions {
                btb: true,
                ..Default::default()
            },
        );
        assert_eq!(perfect.label, "Perfect-BTB");
    }

    #[test]
    fn cross_input_hints_still_help() {
        let train = small_trace(0);
        let test = small_trace(1);
        let p = Pipeline::new(PipelineConfig {
            frontend: FrontendConfig {
                btb: BtbConfig::new(1024, 4),
                ..FrontendConfig::table1()
            },
            ..PipelineConfig::default()
        });
        let train_hints = p.profile_to_hints(&train);
        let same_hints = p.profile_to_hints(&test);
        // Cross-input agreement should be high (paper: ~81%).
        let agreement = train_hints.agreement_with(&same_hints);
        assert!(agreement > 0.5, "agreement {agreement}");
        let lru = p.run_lru(&test);
        let cross = p.run_thermometer(&test, &train_hints);
        assert!(
            cross.btb.misses <= lru.btb.misses,
            "cross-input thermometer {} vs lru {}",
            cross.btb.misses,
            lru.btb.misses
        );
    }

    #[test]
    fn run_named_covers_the_cli_vocabulary() {
        let trace = small_trace(0);
        let p = Pipeline::new(PipelineConfig::default());
        for name in POLICY_NAMES {
            let report = p.run_named(&trace, name, None).expect("known policy name");
            assert!(report.btb.accesses > 0, "{name} simulated nothing");
        }
        assert!(p.run_named(&trace, "nosuch", None).is_none());
        // Dispatch agrees with the direct runners.
        let named = p.run_named(&trace, "lru", None).unwrap();
        let direct = p.run_lru(&trace);
        assert_eq!(named.btb.misses, direct.btb.misses);
        assert_eq!(named.label, direct.label);
    }

    #[test]
    fn with_btb_changes_geometry_only() {
        let p = Pipeline::new(PipelineConfig::default());
        let q = p.with_btb(BtbConfig::iso_storage_7979());
        assert_eq!(q.config().frontend.btb.entries(), 7979);
        assert_eq!(q.config().temperature, p.config().temperature);
    }
}
