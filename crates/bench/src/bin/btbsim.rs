//! Simulates a branch-trace file through the FDIP frontend with a chosen
//! BTB replacement policy.
//!
//! ```text
//! btbsim kafka1.btbt --policy lru
//! btbsim kafka1.btbt --policy thermometer --profile kafka0.btbt
//! btbsim kafka1.btbt --policy opt --entries 4096 --ways 8
//! btbsim kafka1.btbt --policy lru,srrip,opt --threads 3   # one worker each
//! ```
//!
//! `--policy` accepts a comma-separated list; the runs are scattered over
//! `--threads N` / `SIM_THREADS` workers and reported in the order given.
//! They share one prepared test trace, so its fetch facts (and OPT's branch
//! index and oracle) are built once, not once per policy.
//!
//! Each run is split at the BTB (DESIGN.md §15): a BTB pass, which reads
//! only the taken-branch stream, and a timing pass over the BTB pass's
//! outcomes and the fetch facts. Two tasks run side by side: one decodes
//! the test trace, builds its fetch facts and runs the hint-free policies'
//! BTB passes; the other profiles, classifies the hints and runs the
//! hinted policies' BTB passes on the same decoded trace. With
//! `--profile`, the train file is profiled from the branch index decoded
//! straight out of it, without materialising its records; without it, the
//! test trace profiles itself. The timing passes run last. `--threads 1`
//! runs the same tasks one after the other. The report does not depend on
//! the thread count, and when both traces fail to load, the test trace's
//! error is the one reported.

use std::fs::File;
use std::sync::OnceLock;

use btb_model::{BtbConfig, ReplacementPolicy};
use btb_trace::{read_binary_batched, read_branch_index, NextUseOracle, Trace};
use sim_support::cli::{self, Cursor};
use sim_support::pool;
use thermometer::pipeline::{Pipeline, PipelineConfig, POLICY_NAMES};
use thermometer::{HintTable, OptProfile, PolicyKind, PreparedTrace, TemperatureConfig};
use uarch_sim::{BtbOutcomes, FrontendConfig, SimReport};

/// A parsed `btbsim` command line.
struct Opts {
    trace: String,
    policies: Vec<PolicyKind>,
    btb: BtbConfig,
    profile: Option<String>,
}

/// Parses the command line; `--threads` takes effect at once.
fn parse_args() -> Result<Opts, String> {
    let mut args = Cursor::new(std::env::args().skip(1), usage_text());
    let (mut trace, mut profile, mut policy) = (None, None, "lru".to_owned());
    let (mut entries, mut ways) = (8192, 4);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--policy" => policy = args.value()?,
            "--entries" => entries = args.at_least(1)?,
            "--ways" => ways = args.at_least(1)?,
            "--profile" => profile = Some(args.value()?),
            "--threads" => pool::set_threads(args.at_least(1)?),
            _ if trace.is_none() && !args.at_flag() => trace = Some(arg),
            _ => return Err(args.unexpected()),
        }
    }
    if entries < ways {
        return Err(format!("--entries ({entries}) must be >= --ways ({ways})"));
    }
    let policies: Vec<PolicyKind> = policy
        .split(',')
        .filter(|p| !p.is_empty())
        .map(|name| {
            PolicyKind::by_name(name).ok_or_else(|| {
                format!(
                    "unknown policy {name} (choose from: {})",
                    POLICY_NAMES.join(", ")
                )
            })
        })
        .collect::<Result<_, _>>()?;
    if policies.is_empty() {
        return Err("empty --policy list".to_owned());
    }
    Ok(Opts {
        trace: trace.ok_or("missing trace file")?,
        policies,
        btb: BtbConfig::new(entries, ways),
        profile,
    })
}

fn main() {
    let opts = parse_args().unwrap_or_else(|e| fail(&e));
    let pipeline = Pipeline::new(PipelineConfig {
        frontend: FrontendConfig {
            btb: opts.btb,
            ..FrontendConfig::table1()
        },
        temperature: TemperatureConfig::paper_default(),
    });
    let reports = simulate(&opts, &pipeline).unwrap_or_else(|e| fail(&e));
    for (i, report) in reports.iter().enumerate() {
        if i > 0 {
            println!();
        }
        print_report(report);
    }
}

/// Runs every requested policy over the test trace and returns the reports
/// in the order the policies were given.
///
/// Two pool tasks share the test trace through one `OnceLock`; whichever
/// asks first decodes it. The first builds its fetch facts and runs the
/// BTB passes of the hint-free policies; the second profiles (the
/// `--profile` file, streamed into its branch index, or else the test
/// trace), classifies the hints and runs the hinted policies' BTB passes.
/// The timing passes then run per policy over the facts. A test-trace
/// error is reported before a profile error.
fn simulate(opts: &Opts, pipeline: &Pipeline) -> Result<Vec<SimReport>, String> {
    let test_cell = OnceLock::new();
    let test = || -> Result<&PreparedTrace, String> {
        test_cell
            .get_or_init(|| load(&opts.trace).map(PreparedTrace::new))
            .as_ref()
            .map_err(String::clone)
    };
    let (hinted, plain): (Vec<&PolicyKind>, Vec<&PolicyKind>) =
        opts.policies.iter().partition(|p| p.wants_hints());

    let (plain_passes, hinted_side) = pool::join(
        || -> Result<Vec<BtbOutcomes>, String> {
            let test = test()?;
            test.facts();
            Ok(pool::par_map(&plain, |_, &policy| {
                pipeline.btb_pass(test, policy.clone(), None)
            }))
        },
        || -> Result<Option<(u64, HintTable, Vec<BtbOutcomes>)>, String> {
            if hinted.is_empty() {
                return Ok(None);
            }
            let (branches, hints) = match &opts.profile {
                Some(path) => profile_file(path, pipeline)?,
                None => {
                    let test = test()?;
                    (test.len() as u64, pipeline.profile_to_hints(test))
                }
            };
            let test = test()?;
            let passes = pool::par_map(&hinted, |_, &policy| {
                pipeline.btb_pass(test, policy.clone(), Some(&hints))
            });
            Ok(Some((branches, hints, passes)))
        },
    );
    let test = test()?;
    let mut plain_passes = plain_passes?.into_iter();
    let mut hinted_passes = match hinted_side? {
        Some((branches, hints, passes)) => {
            if opts.profile.is_none() {
                eprintln!("note: no --profile given; profiling on the simulated trace itself");
            }
            eprintln!("profiled {branches} branches -> {} hinted", hints.len());
            passes
        }
        None => Vec::new(),
    }
    .into_iter();

    // Each policy's outcomes, in the order the policies were given.
    let passes: Vec<(&PolicyKind, BtbOutcomes)> = opts
        .policies
        .iter()
        .map(|policy| {
            let passes = if policy.wants_hints() {
                &mut hinted_passes
            } else {
                &mut plain_passes
            };
            (policy, passes.next().expect("one BTB pass per policy"))
        })
        .collect();
    Ok(pool::par_map(&passes, |_, (policy, outcomes)| {
        let mut report = pipeline.time(test, outcomes);
        report.label = policy.name().to_owned();
        report
    }))
}

/// Profiles the trace file at `path` under OPT, streaming its taken
/// branches into a branch index without keeping its records, and
/// classifies the hints. Returns the file's record count and the hints.
fn profile_file(path: &str, pipeline: &Pipeline) -> Result<(u64, HintTable), String> {
    let mut file = open(path)?;
    let (index, records) =
        read_branch_index(&mut file).map_err(|e| format!("cannot decode {path}: {e}"))?;
    let oracle = NextUseOracle::from_index(&index);
    let config = pipeline.config();
    let profile = OptProfile::measure_indexed(&index, &oracle, config.frontend.btb);
    Ok((
        records,
        HintTable::from_profile(&profile, &config.temperature),
    ))
}

fn load(path: &str) -> Result<Trace, String> {
    // The batch reader buffers internally; no BufReader needed.
    read_binary_batched(&mut open(path)?).map_err(|e| format!("cannot decode {path}: {e}"))
}

fn open(path: &str) -> Result<File, String> {
    File::open(path).map_err(|e| format!("cannot open {path}: {e}"))
}

fn print_report(r: &SimReport) {
    println!("workload            {}", r.workload);
    println!("policy              {}", r.label);
    println!("instructions        {}", r.instructions);
    println!("cycles              {:.0}", r.cycles);
    println!("IPC                 {:.4}", r.ipc());
    println!("BTB accesses        {}", r.btb.accesses);
    println!("BTB hit rate        {:.2}%", r.btb.hit_rate() * 100.0);
    println!("BTB MPKI            {:.3}", r.btb_mpki());
    println!("BTB bypasses        {}", r.btb.bypasses);
    println!(
        "cond mispredict     {:.3}%",
        r.cond_mispredict_rate() * 100.0
    );
    println!("L2 instr MPKI       {:.3}", r.l2_impki());
    println!(
        "stall cycles: btb={:.0} direction={:.0} target={:.0} icache={:.0}",
        r.btb_stall_cycles, r.direction_stall_cycles, r.target_stall_cycles, r.icache_stall_cycles
    );
}

fn usage_text() -> String {
    format!(
        "usage: btbsim <trace.btbt> [--policy <name>[,<name>...]] [--entries N] [--ways N] \
         [--profile <trace.btbt>] [--threads N]\n\
         policies: {}",
        POLICY_NAMES.join(", ")
    )
}

fn fail(error: &str) -> ! {
    cli::fail(&usage_text(), error)
}
