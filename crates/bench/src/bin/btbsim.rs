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

use std::fs::File;

use btb_model::BtbConfig;
use btb_trace::{read_binary_batched, Trace};
use sim_support::cli::{self, Cursor};
use sim_support::pool;
use thermometer::pipeline::{Pipeline, PipelineConfig, POLICY_NAMES};
use thermometer::{HintTable, PolicyKind, TemperatureConfig};
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

    let trace = load(&opts.trace);
    let pipeline = Pipeline::new(PipelineConfig {
        frontend: FrontendConfig {
            btb: opts.btb,
            ..FrontendConfig::table1()
        },
        temperature: TemperatureConfig::paper_default(),
    });

    // Profile once, up front, if any requested policy needs hints.
    let hints: Option<HintTable> = policies.iter().any(PolicyKind::wants_hints).then(|| {
        let profile_trace = opts.profile.as_deref().map(load);
        let profile_trace = profile_trace.as_ref().unwrap_or_else(|| {
            eprintln!("note: no --profile given; profiling on the simulated trace itself");
            &trace
        });
        let hints = pipeline.profile_to_hints(profile_trace);
        eprintln!(
            "profiled {} branches -> {} hinted",
            profile_trace.len(),
            hints.len()
        );
        hints
    });

    // Scatter the runs, gather reports in the order the policies were given.
    let reports = pool::par_map(policies, |_, policy| {
        let hints = hints.as_ref().filter(|_| policy.wants_hints());
        pipeline.run(&trace, policy.clone(), hints)
    });
    for (i, report) in reports.iter().enumerate() {
        if i > 0 {
            println!();
        }
        print_report(report);
    }
}

fn load(path: &str) -> Trace {
    let mut file = File::open(path).unwrap_or_else(|e| fail(&format!("cannot open {path}: {e}")));
    // The batch reader buffers internally; no BufReader needed.
    read_binary_batched(&mut file).unwrap_or_else(|e| fail(&format!("cannot decode {path}: {e}")))
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
