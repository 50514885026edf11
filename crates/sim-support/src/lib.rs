//! Hermetic simulation-support substrate for the Thermometer reproduction.
//!
//! Every number in EXPERIMENTS.md must be regenerable from a clean checkout
//! with **zero network access** and be **bit-for-bit identical** across runs.
//! This crate is the foundation of that contract: it replaces the external
//! `rand`, `proptest` and `criterion` dependencies with small, deterministic,
//! in-repo equivalents.
//!
//! * [`rng`] — a splittable [SplitMix64]-seeded xoshiro256++ generator
//!   ([`SimRng`]) with the uniform-range, float, bool and shuffle surface the
//!   workload generators need.
//! * [`forall`] — a seeded property-test harness (the [`forall!`] macro):
//!   deterministic case generation, shrinking by halving, and a replayable
//!   failure seed printed on panic.
//! * [`golden`] — golden-file snapshots (the [`assert_snapshot!`] macro):
//!   diffs against `tests/goldens/`, blessed with `UPDATE_GOLDENS=1`.
//! * [`bench`] — a micro-benchmark harness (warmup + timed iterations,
//!   median/MAD) writing machine-readable JSON under `results/`.
//! * [`pool`] — a work-stealing [`ThreadPool`] whose [`pool::par_map`]
//!   gathers results in submission order, so going parallel cannot perturb
//!   output ([`pool::set_threads`] / `SIM_THREADS` pick the width; 1 =
//!   serial).
//! * [`detmap`] — fixed-seed hash containers ([`DetHashMap`] /
//!   [`DetHashSet`]), the allowlisted O(1) alternative to `BTreeMap` on hot
//!   lookup paths where `std`'s randomly seeded `HashMap` is banned (the
//!   `simlint` D01 rule).
//! * [`fault`] — deterministic fault injection ([`FaultPlan`]: one
//!   grammar for cell, write, process and wire faults) and the
//!   [`SimError`] taxonomy (Transient / Poison / Fatal) that lets batch
//!   executors retry, quarantine, or abort on partial failure.
//! * [`cli`] — the command-line [`cli::Cursor`] the workspace binaries
//!   parse with: every error names its flag and exits 2 before any work.
//! * [`fsio`] — crash-safe results I/O: [`fsio::write_atomic`]
//!   (temp-file + rename) and fsync'd journal appends, with fault-plan
//!   injection points.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c
//!
//! # Examples
//!
//! ```
//! use sim_support::SimRng;
//!
//! let mut rng = SimRng::seed_from_u64(42);
//! let die = rng.gen_range(1..=6u64);
//! assert!((1..=6).contains(&die));
//! // Same seed, same stream — always.
//! assert_eq!(SimRng::seed_from_u64(7).next_u64(), SimRng::seed_from_u64(7).next_u64());
//! ```

pub mod bench;
pub mod cli;
pub mod detmap;
pub mod fault;
pub mod forall;
pub mod fsio;
pub mod golden;
pub mod pool;
pub mod rng;

pub use bench::{BenchHarness, BenchResult};
pub use detmap::{DetHashMap, DetHashSet, DetState};
pub use fault::{
    Corruption, FaultClass, FaultPlan, Isolated, NetFault, NetFaultKind, ProcFault, ProcFaultKind,
    SimError,
};
pub use pool::{PoolStats, ThreadPool};
pub use rng::{SimRng, SplitMix64};
