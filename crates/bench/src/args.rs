//! The `figures` command line. [`WorkerArgs`] owns the worker argv
//! format: the worker parses it, and `figures supervise` spawns its worker
//! from a parsed `WorkerArgs` with [`WorkerArgs::to_argv`], so a bad id,
//! flag or value fails the parse before any figure or worker exists.

use std::path::PathBuf;

use sim_support::cli::Cursor;
use sim_support::FaultPlan;

use crate::FIGURE_IDS;

/// The `--fault-plan` keys a `figures` process has fault sites for: cells,
/// result writes and worker processes. `net` belongs to the hint client.
pub const FAULT_KEYS: [&str; 6] = ["seed", "panic", "panic-rate", "io", "exit-after", "proc"];

/// One worker's command line: the figures it computes, where it writes,
/// and how it survives faults. `None` paths fall back to the defaults
/// under `results/`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerArgs {
    /// Canonical figure ids: `all`-expanded, each one of [`FIGURE_IDS`].
    pub ids: Vec<String>,
    /// `--markdown`: also write a Markdown report here.
    pub markdown: Option<PathBuf>,
    /// `--threads` (`>= 1`); `None` leaves `SIM_THREADS` or the default.
    pub threads: Option<usize>,
    /// `--grid-stats`: the per-cell telemetry file.
    pub grid_stats: Option<PathBuf>,
    /// `--journal`: the checkpoint journal.
    pub journal: Option<PathBuf>,
    /// `--resume`: replay journaled figures, compute only the rest.
    pub resume: bool,
    /// `--quarantine`: drop panicking cells instead of aborting.
    pub quarantine: bool,
    /// `--max-retries`: extra attempts for transient cell faults; needs
    /// `quarantine`, which isolates the cells it retries.
    pub max_retries: u32,
    /// `--fault-plan`: a spec over [`FAULT_KEYS`], checked by `parse`.
    pub fault_plan: Option<String>,
    /// `--attempt`: the 0-based supervisor attempt `proc=` faults key on.
    pub attempt: u32,
}

impl WorkerArgs {
    /// Parses a worker command line (without the program name).
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut args = Cursor::new(argv.iter().cloned(), usage());
        let mut parsed = WorkerArgs::default();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--markdown" => parsed.markdown = Some(args.value()?.into()),
                "--threads" => parsed.threads = Some(args.at_least(1)?),
                "--grid-stats" => parsed.grid_stats = Some(args.value()?.into()),
                "--journal" => parsed.journal = Some(args.value()?.into()),
                "--resume" => parsed.resume = true,
                "--quarantine" => parsed.quarantine = true,
                "--max-retries" => parsed.max_retries = args.parse()?,
                "--fault-plan" => {
                    let spec = args.value()?;
                    FaultPlan::parse_keys(&spec, &FAULT_KEYS)?;
                    parsed.fault_plan = Some(spec);
                }
                "--attempt" => parsed.attempt = args.parse()?,
                _ if args.at_flag() => return Err(args.unexpected()),
                _ => parsed.ids.push(arg),
            }
        }
        if parsed.max_retries > 0 && !parsed.quarantine {
            return Err(
                "--max-retries needs --quarantine: only isolated cells are retried".to_owned(),
            );
        }
        parsed.ids = expand_ids(parsed.ids)?;
        Ok(parsed)
    }

    /// The command line that parses back to `self`.
    pub fn to_argv(&self) -> Vec<String> {
        let path = |p: &Option<PathBuf>| p.as_ref().map(|p| p.display().to_string());
        let nonzero = |n: u32| (n != 0).then(|| n.to_string());
        let valued = [
            ("--markdown", path(&self.markdown)),
            ("--threads", self.threads.map(|n| n.to_string())),
            ("--grid-stats", path(&self.grid_stats)),
            ("--journal", path(&self.journal)),
            ("--max-retries", nonzero(self.max_retries)),
            ("--fault-plan", self.fault_plan.clone()),
            ("--attempt", nonzero(self.attempt)),
        ];
        let mut argv = self.ids.clone();
        for (flag, value) in valued {
            if let Some(value) = value {
                argv.extend([flag.to_owned(), value]);
            }
        }
        for (flag, on) in [("--resume", self.resume), ("--quarantine", self.quarantine)] {
            if on {
                argv.push(flag.to_owned());
            }
        }
        argv
    }

    /// The parsed `--fault-plan`, if one was given.
    pub fn plan(&self) -> Option<FaultPlan> {
        let spec = self.fault_plan.as_deref()?;
        Some(FaultPlan::parse_keys(spec, &FAULT_KEYS).expect("WorkerArgs::parse checked the spec"))
    }
}

/// Checks requested figure ids against [`FIGURE_IDS`] and expands `all`
/// into the canonical list.
pub fn expand_ids(ids: Vec<String>) -> Result<Vec<String>, String> {
    if ids.is_empty() {
        return Err("no figures requested".to_owned());
    }
    if let Some(id) = ids
        .iter()
        .find(|id| *id != "all" && !FIGURE_IDS.contains(&id.as_str()))
    {
        return Err(format!(
            "unknown figure id: {id} (known: {}, all)",
            FIGURE_IDS.join(", ")
        ));
    }
    if ids.iter().any(|id| id == "all") {
        return Ok(FIGURE_IDS.iter().map(|s| s.to_string()).collect());
    }
    Ok(ids)
}

/// The usage text of `figures` and `figures supervise`.
pub fn usage() -> String {
    format!(
        "usage: figures <ids|all>... [--markdown <path>] [--threads N] [--grid-stats <path>] \
         [--journal <path>] [--resume] [--quarantine [--max-retries N]] [--fault-plan <spec>]\n\
         \x20      figures supervise <ids|all>... [--max-restarts N] [--stall-ms MS] \
         [figures flags]\n\
         ids: {}\n\
         fault-plan keys: {}",
        FIGURE_IDS.join(" "),
        FAULT_KEYS.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_support::{forall, SimRng};

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_expands_all_and_rejects_what_it_cannot_run() {
        let all = WorkerArgs::parse(&argv(&["all", "--threads", "2"])).unwrap();
        assert_eq!(all.ids.len(), FIGURE_IDS.len());
        assert_eq!(all.threads, Some(2));
        for (bad, message) in [
            (&["fig01", "fig99"][..], "unknown figure id: fig99"),
            (&["fig01", "--treads", "2"], "unknown flag --treads"),
            (&["fig01", "--threads", "0"], "--threads must be >= 1"),
            (&["fig01", "--journal"], "--journal needs a value"),
            (&["fig01", "--fault-plan", "net=0:0:drop"], "\"net\""),
            (
                &["fig01", "--fault-plan", "proc=2:0:die"],
                "SHARD must be 1",
            ),
            (
                &["fig01", "--max-retries", "2"],
                "--max-retries needs --quarantine",
            ),
            (&[], "no figures requested"),
        ] {
            let err = WorkerArgs::parse(&argv(bad)).expect_err(message);
            assert!(err.contains(message), "{bad:?}: {err}");
        }
    }

    /// A random worker command line: every field set or left at its
    /// default, as a supervisor or a spawned worker would have it.
    fn arb_worker(rng: &mut SimRng) -> WorkerArgs {
        let path = |rng: &mut SimRng, ext: &str| {
            rng.gen_bool(0.5)
                .then(|| PathBuf::from(format!("out/run{}.{ext}", rng.gen_range(0..100u32))))
        };
        let specs = [
            "seed=1,panic=fig01:1:poison",
            "exit-after=3",
            "proc=1:0:hang:2",
        ];
        let quarantine = rng.gen_bool(0.5);
        WorkerArgs {
            ids: (0..rng.gen_range(1..=6usize))
                .map(|_| FIGURE_IDS[rng.gen_range(0..FIGURE_IDS.len())].to_owned())
                .collect(),
            markdown: path(rng, "md"),
            threads: rng.gen_bool(0.5).then(|| rng.gen_range(1..=16usize)),
            grid_stats: path(rng, "json"),
            journal: path(rng, "jsonl"),
            resume: rng.gen_bool(0.5),
            quarantine,
            max_retries: if quarantine {
                rng.gen_range(0..3u32)
            } else {
                0
            },
            fault_plan: rng
                .gen_bool(0.5)
                .then(|| specs[rng.gen_range(0..specs.len())].to_owned()),
            attempt: rng.gen_range(0..3u32),
        }
    }

    #[test]
    fn to_argv_parses_back_to_the_same_args() {
        forall!(cases: 256, gen: arb_worker, prop: |args| {
            assert_eq!(WorkerArgs::parse(&args.to_argv()), Ok(args.clone()));
        });
    }
}
