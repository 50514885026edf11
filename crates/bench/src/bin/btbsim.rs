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
use std::process::exit;

use btb_model::BtbConfig;
use btb_trace::{read_binary_batched, Trace};
use sim_support::pool;
use thermometer::pipeline::{Pipeline, PipelineConfig, POLICY_NAMES};
use thermometer::{HintTable, PolicyKind, TemperatureConfig};
use uarch_sim::{FrontendConfig, SimReport};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(path) = args.first() else {
        usage("missing trace file")
    };
    let policy = flag(&args, "--policy").unwrap_or_else(|| "lru".into());
    let entries: usize = flag(&args, "--entries").map_or(8192, |v| {
        v.parse().unwrap_or_else(|_| usage("bad --entries"))
    });
    let ways: usize =
        flag(&args, "--ways").map_or(4, |v| v.parse().unwrap_or_else(|_| usage("bad --ways")));
    if let Some(threads) = flag(&args, "--threads") {
        let n: usize = threads.parse().unwrap_or_else(|_| usage("bad --threads"));
        if n == 0 {
            usage("--threads must be >= 1");
        }
        pool::set_threads(n);
    }

    let names: Vec<&str> = policy.split(',').filter(|p| !p.is_empty()).collect();
    if names.is_empty() {
        usage("empty --policy list");
    }
    let policies: Vec<PolicyKind> = names
        .iter()
        .map(|name| {
            PolicyKind::by_name(name).unwrap_or_else(|| {
                usage(&format!(
                    "unknown policy {name} (choose from: {})",
                    POLICY_NAMES.join(", ")
                ))
            })
        })
        .collect();

    let trace = load(path);
    let pipeline = Pipeline::new(PipelineConfig {
        frontend: FrontendConfig {
            btb: BtbConfig::new(entries, ways),
            ..FrontendConfig::table1()
        },
        temperature: TemperatureConfig::paper_default(),
    });

    // Profile once, up front, if any requested policy needs hints.
    let hints: Option<HintTable> = policies.iter().any(PolicyKind::wants_hints).then(|| {
        let profile_trace = flag(&args, "--profile").map(|p| load(&p));
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
    let reports = pool::par_map(&policies, |_, policy| {
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
    let mut file = File::open(path).unwrap_or_else(|e| usage(&format!("cannot open {path}: {e}")));
    // The batch reader buffers internally; no BufReader needed.
    read_binary_batched(&mut file).unwrap_or_else(|e| usage(&format!("cannot decode {path}: {e}")))
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

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn usage(error: &str) -> ! {
    if !error.is_empty() {
        eprintln!("error: {error}");
    }
    eprintln!(
        "usage: btbsim <trace.btbt> [--policy <name>[,<name>...]] [--entries N] [--ways N] \
         [--profile <trace.btbt>] [--threads N]\n\
         policies: {}",
        POLICY_NAMES.join(", ")
    );
    exit(if error.is_empty() { 0 } else { 2 });
}
