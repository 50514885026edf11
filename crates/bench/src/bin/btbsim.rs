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
//! With two or more threads, a single policy gains too: the hint profile
//! and the test trace's preparation overlap. With `--profile`, one task
//! decodes and profiles the train trace while the other decodes the test
//! trace and builds its fetch facts; without it, the test trace is decoded
//! first and then profiled while its facts are built. `--threads 1` runs
//! the same two tasks one after the other. The report does not depend on
//! the thread count, and when both traces fail to load, the test trace's
//! error is the one reported.

use std::fs::File;

use btb_model::BtbConfig;
use btb_trace::{read_binary_batched, Trace};
use sim_support::cli::{self, Cursor};
use sim_support::pool;
use thermometer::pipeline::{Pipeline, PipelineConfig, POLICY_NAMES};
use thermometer::{HintTable, PolicyKind, PreparedTrace, TemperatureConfig};
use uarch_sim::{FrontendConfig, SimReport};

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
    let policies = &opts.policies;
    let pipeline = Pipeline::new(PipelineConfig {
        frontend: FrontendConfig {
            btb: opts.btb,
            ..FrontendConfig::table1()
        },
        temperature: TemperatureConfig::paper_default(),
    });
    let (test, hints) = prepare(&opts, &pipeline).unwrap_or_else(|e| fail(&e));

    // Scatter the runs, gather reports in the order the policies were given.
    let reports = pool::par_map(policies, |_, policy| {
        let hints = hints.as_ref().filter(|_| policy.wants_hints());
        pipeline.run(&test, policy.clone(), hints)
    });
    for (i, report) in reports.iter().enumerate() {
        if i > 0 {
            println!();
        }
        print_report(report);
    }
}

/// Loads the test trace with its fetch facts built and, if any requested
/// policy needs hints, profiles them: two pool tasks, one per side. A
/// test-trace error is reported before a profile error.
fn prepare(opts: &Opts, pipeline: &Pipeline) -> Result<(PreparedTrace, Option<HintTable>), String> {
    let test_side = || -> Result<PreparedTrace, String> {
        let test = PreparedTrace::new(load(&opts.trace)?);
        test.facts();
        Ok(test)
    };
    if !opts.policies.iter().any(PolicyKind::wants_hints) {
        return Ok((test_side()?, None));
    }
    let (test, (branches, hints)) = match &opts.profile {
        Some(path) => {
            let (test, train) = pool::join(test_side, || {
                let train = load(path)?;
                Ok::<_, String>((train.len(), pipeline.profile_to_hints(&train)))
            });
            (test?, train?)
        }
        None => {
            let test = PreparedTrace::new(load(&opts.trace)?);
            eprintln!("note: no --profile given; profiling on the simulated trace itself");
            let (hints, _) = pool::join(|| pipeline.profile_to_hints(&test), || test.facts());
            let branches = test.len();
            (test, (branches, hints))
        }
    };
    eprintln!("profiled {branches} branches -> {} hinted", hints.len());
    Ok((test, Some(hints)))
}

fn load(path: &str) -> Result<Trace, String> {
    let mut file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    // The batch reader buffers internally; no BufReader needed.
    read_binary_batched(&mut file).map_err(|e| format!("cannot decode {path}: {e}"))
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
