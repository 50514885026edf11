//! Trace-driven decoupled-frontend (FDIP) simulator.
//!
//! This crate rebuilds, from scratch, the simulation substrate the paper
//! runs on (a ChampSim derivative configured per Table 1): a decoupled
//! frontend in which the branch-prediction unit runs ahead of instruction
//! fetch, prefetching I-cache blocks for the predicted path (Fetch Directed
//! Instruction Prefetching). Frontend performance is then bounded by three
//! event classes, all modeled here:
//!
//! * **BTB misses** on taken branches — the BPU cannot continue on the
//!   taken path; the frontend re-steers when the branch decodes/resolves
//!   and the run-ahead (prefetch shield) collapses,
//! * **direction / target mispredictions** — pipeline flush,
//! * **I-cache misses** whose latency the run-ahead failed to hide.
//!
//! The backend is modeled as a fixed-width consumer (6-wide per Table 1)
//! with constant penalties — DESIGN.md §2 explains why this preserves the
//! paper's *relative* speedups.
//!
//! The frontend is split along the one line the paper's methodology draws:
//! TAGE, the RAS, the IBTB and the I-cache hierarchy never read the BTB, so
//! what they decide on a trace is computed once as [`FetchFacts`]
//! (DESIGN.md §15). A [`Frontend`] owns only the BTB, the hint table and an
//! optional BTB prefetcher; [`Frontend::replay`] simulates a trace over its
//! stored facts, and [`Frontend::run`] builds them and replays. Replaying
//! one set of facts under many BTBs, policies or timing configurations
//! gives the reports that many fresh runs would, bit for bit. A replay is
//! itself two passes: [`Frontend::btb_pass`] reads only the taken-branch
//! stream, and [`FrontendConfig::time`] charges cycles from the facts and
//! the BTB pass's [`BtbOutcomes`].
//!
//! # Examples
//!
//! ```
//! use btb_model::policies::Lru;
//! use btb_trace::{BranchKind, BranchRecord, Trace};
//! use uarch_sim::{FetchFacts, Frontend, FrontendConfig};
//!
//! let mut trace = Trace::new("demo");
//! for i in 0..100u64 {
//!     trace.push(BranchRecord::taken(0x1000 + (i % 10) * 64, 0x1000, BranchKind::UncondDirect, 7));
//! }
//! let mut frontend = Frontend::new(FrontendConfig::table1(), Lru::new());
//! let report = frontend.run(&trace, None);
//! assert_eq!(report.instructions, trace.instruction_count());
//! assert!(report.ipc() > 0.0);
//!
//! // The predictors' and I-cache's outcomes, once, for any number of runs.
//! let facts = FetchFacts::build(&trace);
//! let again = Frontend::new(FrontendConfig::table1(), Lru::new()).replay(&trace, &facts, None);
//! assert_eq!(again, report);
//!
//! // A replay is the BTB pass, then the timing pass over its outcomes.
//! let outcomes = Frontend::new(FrontendConfig::table1(), Lru::new()).btb_pass(&trace, None);
//! assert_eq!(FrontendConfig::table1().time(&trace, &facts, &outcomes), report);
//! ```

pub mod cache;
pub mod facts;
pub mod frontend;
pub mod ibtb;
pub mod prefetch;
pub mod ras;
pub mod reference;
pub mod report;
pub mod tage;
pub mod timing;

pub use facts::FetchFacts;
pub use frontend::{BtbOutcomes, Frontend, FrontendConfig, PerfectOptions};
pub use report::SimReport;
pub use timing::TimingConfig;
