//! End-to-end pipeline: profile → hints → simulate any policy.
//!
//! This is the library's high-level entry point and the engine behind the
//! figure harness: one [`Pipeline`] holds a frontend configuration and a
//! temperature configuration and can run any of the paper's policies over
//! any trace with consistent settings.

use btb_model::policies::Lru;
use btb_model::{Btb, BtbConfig, ReplacementPolicy};
use uarch_sim::prefetch::Prefetcher;
use uarch_sim::{BtbOutcomes, Frontend, FrontendConfig, PerfectOptions, SimReport};

use crate::hints::HintTable;
use crate::prepared::SimInput;
use crate::profile::OptProfile;
use crate::temperature::TemperatureConfig;

pub use crate::policy_kind::POLICY_NAMES;

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

/// The profile-guided workflow: profile a training trace into hints, then
/// [`run`](Pipeline::run) any policy over a test trace.
///
/// Every `profile*` and `run*` entry point takes a [`SimInput`]: pass a
/// [`PreparedTrace`](crate::PreparedTrace) to share its fetch facts,
/// branch index and OPT oracle across calls, or a bare [`Trace`] for a
/// one-off call. The results are identical either way.
///
/// [`Trace`]: btb_trace::Trace
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
    pub fn profile(&self, input: &impl SimInput) -> OptProfile {
        OptProfile::measure(input, self.config.frontend.btb)
    }

    /// Steps 1–3: profile and classify into a hint table.
    pub fn profile_to_hints(&self, input: &impl SimInput) -> HintTable {
        HintTable::from_profile(&self.profile(input), &self.config.temperature)
    }

    /// Step 4: simulates `input` under `policy`, with temperature `hints`
    /// when given. The report is labelled with the policy's name, and a
    /// policy that [needs the oracle](ReplacementPolicy::needs_oracle)
    /// gets the input's next-use oracle.
    pub fn run<P: ReplacementPolicy>(
        &self,
        input: &impl SimInput,
        policy: P,
        hints: Option<&HintTable>,
    ) -> SimReport {
        self.run_with(input, policy, hints, None).0
    }

    /// [`Pipeline::run`] with an optional BTB prefetcher attached (the
    /// label becomes `"{policy}+{prefetcher}"`), also returning the
    /// frontend so callers can read the policy's counters afterwards.
    pub fn run_with<P: ReplacementPolicy>(
        &self,
        input: &impl SimInput,
        policy: P,
        hints: Option<&HintTable>,
        prefetcher: Option<Box<dyn Prefetcher>>,
    ) -> (SimReport, Frontend<Btb<P>>) {
        let mut label = policy.name().to_owned();
        let oracle = policy.needs_oracle().then(|| input.indexed_oracle().1);
        let mut fe = self.frontend(policy, hints);
        if let Some(p) = prefetcher {
            label = format!("{label}+{}", p.name());
            fe.set_prefetcher(p);
        }
        let mut report = fe.replay(input.as_trace(), &input.fetch_facts(), oracle.as_deref());
        report.label = label;
        (report, fe)
    }

    /// The BTB half of [`Pipeline::run`]: `policy`'s
    /// [BTB pass](Frontend::btb_pass) over `input`, which needs neither its
    /// fetch facts nor the timing configuration.
    /// [`time`](Pipeline::time) turns the outcomes into `run`'s report.
    pub fn btb_pass<P: ReplacementPolicy>(
        &self,
        input: &impl SimInput,
        policy: P,
        hints: Option<&HintTable>,
    ) -> BtbOutcomes {
        let oracle = policy.needs_oracle().then(|| input.indexed_oracle().1);
        self.frontend(policy, hints)
            .btb_pass(input.as_trace(), oracle.as_deref())
    }

    /// The timing half of [`Pipeline::run`]: times `input` over its fetch
    /// facts and the outcomes of a [`btb_pass`](Pipeline::btb_pass) on it.
    /// The report is `run`'s with an empty label.
    pub fn time(&self, input: &impl SimInput, btb: &BtbOutcomes) -> SimReport {
        self.config
            .frontend
            .time(input.as_trace(), &input.fetch_facts(), btb)
    }

    /// A frontend running `policy` with `hints` installed.
    fn frontend<P: ReplacementPolicy>(
        &self,
        policy: P,
        hints: Option<&HintTable>,
    ) -> Frontend<Btb<P>> {
        let mut fe = Frontend::new(self.config.frontend, policy);
        if let Some(h) = hints {
            fe.set_hints(h.to_map());
        }
        fe
    }

    /// A limit-study run (Fig. 2): LRU replacement with perfect structures.
    pub fn run_perfect(&self, input: &impl SimInput, perfect: PerfectOptions) -> SimReport {
        let mut config = self.config.clone();
        config.frontend.perfect = perfect;
        let mut report = Pipeline::new(config).run(input, Lru::new(), None);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PolicyKind, ThermometerPolicy};
    use btb_model::policies::BeladyOpt;
    use btb_trace::Trace;
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
        let lru = p.run(&trace, Lru::new(), None);
        let therm = p.run(&trace, ThermometerPolicy::new(), Some(&hints));
        let opt = p.run(&trace, BeladyOpt::new(), None);
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
        assert_eq!(p.run(&trace, Lru::new(), None).label, "LRU");
        assert_eq!(p.run(&trace, BeladyOpt::new(), None).label, "OPT");
        let hints = p.profile_to_hints(&trace);
        assert_eq!(
            p.run(&trace, ThermometerPolicy::new(), Some(&hints)).label,
            "Thermometer"
        );
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
        let lru = p.run(&test, Lru::new(), None);
        let cross = p.run(&test, ThermometerPolicy::new(), Some(&train_hints));
        assert!(
            cross.btb.misses <= lru.btb.misses,
            "cross-input thermometer {} vs lru {}",
            cross.btb.misses,
            lru.btb.misses
        );
    }

    #[test]
    fn run_covers_the_cli_vocabulary() {
        let trace = small_trace(0);
        let p = Pipeline::new(PipelineConfig::default());
        for name in POLICY_NAMES {
            let policy = PolicyKind::by_name(name).expect("known policy name");
            let report = p.run(&trace, policy, None);
            assert!(report.btb.accesses > 0, "{name} simulated nothing");
        }
        // Enum dispatch agrees with the concrete types, oracle included.
        for (name, direct) in [
            ("lru", p.run(&trace, Lru::new(), None)),
            ("opt", p.run(&trace, BeladyOpt::new(), None)),
        ] {
            let named = p.run(&trace, PolicyKind::by_name(name).unwrap(), None);
            assert_eq!(named.btb, direct.btb, "{name}");
            assert_eq!(named.label, direct.label);
        }
    }

    #[test]
    fn with_btb_changes_geometry_only() {
        let p = Pipeline::new(PipelineConfig::default());
        let q = p.with_btb(BtbConfig::iso_storage_7979());
        assert_eq!(q.config().frontend.btb.entries(), 7979);
        assert_eq!(q.config().temperature, p.config().temperature);
    }
}
