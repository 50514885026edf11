//! # Thermometer: profile-guided BTB replacement
//!
//! A from-scratch reproduction of *Thermometer: Profile-Guided BTB
//! Replacement for Data Center Applications* (Song et al., ISCA 2022).
//!
//! Thermometer observes that data center applications' branches have a
//! *holistic* reuse behaviour — stable across the whole execution — that
//! transient-information policies (LRU, SRRIP, GHRP, Hawkeye) cannot see.
//! It captures that behaviour offline and feeds it to a tiny hardware
//! replacement extension:
//!
//! 1. [`profile`] — replay **Belady's optimal policy** over a branch trace
//!    and count, per static branch, how often it was *taken* and how often
//!    OPT made it *hit*. The ratio is the branch's **hit-to-taken
//!    percentage** (§3.2).
//! 2. [`temperature`] — classify branches into **hot / warm / cold** (or
//!    2..16 configurable categories) by thresholding hit-to-taken (§3.3;
//!    default thresholds 50% / 80%).
//! 3. [`hints`] — encode each branch's category in its spare instruction
//!    bits; modeled as a PC → k-bit-hint table (§3.3).
//! 4. [`policy`] — the hardware replacement algorithm (§3.4, Algorithm 1):
//!    evict the *coldest* candidate, considering the incoming branch too
//!    (bypassing when it is uniquely coldest), tie-breaking with LRU.
//!
//! [`pipeline`] wires the four steps end to end; [`accuracy`] computes the
//! paper's replacement coverage/accuracy metrics (Figs. 15–16);
//! [`analysis`] reproduces the characterization studies (Figs. 6–9).
//!
//! # Examples
//!
//! Profile on one input, deploy on another (the paper's Fig. 13 workflow):
//!
//! ```
//! use btb_model::policies::Lru;
//! use btb_workloads::{AppSpec, InputConfig};
//! use thermometer::pipeline::{Pipeline, PipelineConfig};
//! use thermometer::ThermometerPolicy;
//!
//! let spec = AppSpec::by_name("kafka").unwrap();
//! let train = spec.generate(InputConfig::input(0), 20_000);
//! let test = spec.generate(InputConfig::input(1), 20_000);
//!
//! let pipeline = Pipeline::new(PipelineConfig::default());
//! let hints = pipeline.profile_to_hints(&train);
//! let report = pipeline.run(&test, ThermometerPolicy::new(), Some(&hints));
//! let baseline = pipeline.run(&test, Lru::new(), None);
//! // Thermometer never loses BTB hits on the profiled-like input by much;
//! // on real configurations it wins (see the figure harness).
//! assert!(report.btb.accesses == baseline.btb.accesses);
//! ```

pub mod accuracy;
pub mod analysis;
pub mod hints;
pub mod incremental;
pub mod pipeline;
pub mod policy;
pub mod policy_kind;
pub mod prepared;
pub mod profile;
pub mod reference;
pub mod temperature;

pub use hints::HintTable;
pub use incremental::IncrementalProfiler;
pub use pipeline::{Pipeline, PipelineConfig};
pub use policy::{HolisticOnly, ThermometerNoBypass, ThermometerPolicy};
pub use policy_kind::PolicyKind;
pub use prepared::{PreparedTrace, SimInput};
pub use profile::{BranchCounters, OptProfile};
pub use temperature::{Temperature, TemperatureConfig};
