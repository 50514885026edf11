//! Generates synthetic branch traces and writes them in the `btb-trace`
//! binary format.
//!
//! ```text
//! tracegen list                              # available workloads
//! tracegen app kafka --input 1 --records 2000000 --out kafka1.btbt
//! tracegen suite cbp5 --count 8 --records 200000 --dir traces/
//! tracegen info kafka1.btbt                  # summarize a trace file
//! ```

use std::fs::File;
use std::io::BufWriter;

use btb_trace::{read_binary_batched, write_binary, BranchKind, TraceStats};
use btb_workloads::{cbp5_suite, ipc1_suite, AppSpec, InputConfig, SuiteParams};
use sim_support::cli::{self, Cursor};

fn main() {
    let mut args = Cursor::new(std::env::args().skip(1), USAGE);
    let result = match args.next().as_deref() {
        Some("list") => no_more(&mut args).map(|()| list()),
        Some("app") => app(&mut args),
        Some("suite") => suite(&mut args),
        Some("info") => info(&mut args),
        _ => Err("missing or unknown subcommand".to_owned()),
    };
    if let Err(e) = result {
        fail(&e);
    }
}

const USAGE: &str =
    "usage:\n  tracegen list\n  tracegen app <name> [--input N] [--records N] --out <file>\n  \
     tracegen suite <cbp5|ipc1> [--count N] [--records N] --dir <dir>\n  tracegen info <file>";

fn fail(error: &str) -> ! {
    cli::fail(USAGE, error)
}

/// Rejects any argument left after a subcommand's operands.
fn no_more(args: &mut Cursor) -> Result<(), String> {
    match args.next() {
        Some(_) => Err(args.unexpected()),
        None => Ok(()),
    }
}

fn list() {
    println!(
        "{:18} {:>10} {:>9} {:>9}",
        "workload", "functions", "handlers", "blocks"
    );
    for spec in AppSpec::all() {
        let stats = spec.build_program().stats();
        println!(
            "{:18} {:>10} {:>9} {:>9}",
            spec.name, spec.functions, spec.handlers, stats.blocks
        );
    }
}

fn app(args: &mut Cursor) -> Result<(), String> {
    let (mut name, mut input, mut records, mut out) = (None, 0u32, 2_000_000usize, None);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--input" => input = args.parse()?,
            "--records" => records = args.parse()?,
            "--out" => out = Some(args.value()?),
            _ if name.is_none() && !args.at_flag() => name = Some(arg),
            _ => return Err(args.unexpected()),
        }
    }
    let name = name.ok_or("app: missing workload name")?;
    let spec =
        AppSpec::by_name(&name).ok_or(format!("unknown workload {name} (see `tracegen list`)"))?;
    let out = out.ok_or("app: missing --out")?;

    eprintln!("generating {name} input #{input}, {records} records ...");
    let trace = spec.generate(InputConfig::input(input), records);
    let file = File::create(&out).unwrap_or_else(|e| fail(&format!("cannot create {out}: {e}")));
    let mut writer = BufWriter::new(file);
    write_binary(&mut writer, &trace).unwrap_or_else(|e| fail(&format!("write failed: {e}")));
    eprintln!("wrote {out}");
    Ok(())
}

fn suite(args: &mut Cursor) -> Result<(), String> {
    let (mut kind, mut count, mut records, mut dir) = (None, 16usize, 200_000usize, None);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--count" => count = args.parse()?,
            "--records" => records = args.parse()?,
            "--dir" => dir = Some(args.value()?),
            _ if kind.is_none() && !args.at_flag() => kind = Some(arg),
            _ => return Err(args.unexpected()),
        }
    }
    let kind = kind.ok_or("suite: missing kind")?;
    let dir = dir.ok_or("suite: missing --dir")?;
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| fail(&format!("cannot create {dir}: {e}")));

    let traces = match kind.as_str() {
        "cbp5" => cbp5_suite(SuiteParams::new(count, records)),
        "ipc1" => ipc1_suite(SuiteParams::new(count, records)),
        other => return Err(format!("unknown suite {other} (cbp5|ipc1)")),
    };
    for trace in &traces {
        let path = format!("{dir}/{}.btbt", trace.name().replace('#', "_"));
        let file =
            File::create(&path).unwrap_or_else(|e| fail(&format!("cannot create {path}: {e}")));
        let mut writer = BufWriter::new(file);
        write_binary(&mut writer, trace).unwrap_or_else(|e| fail(&format!("write failed: {e}")));
        eprintln!("wrote {path}");
    }
    Ok(())
}

fn info(args: &mut Cursor) -> Result<(), String> {
    let path = args.next().ok_or("info: missing file")?;
    if args.at_flag() {
        return Err(args.unexpected());
    }
    no_more(args)?;
    let mut file = File::open(&path).unwrap_or_else(|e| fail(&format!("cannot open {path}: {e}")));
    // The batch reader buffers internally; no BufReader needed.
    let trace = read_binary_batched(&mut file)
        .unwrap_or_else(|e| fail(&format!("cannot decode {path}: {e}")));
    let stats = TraceStats::collect(&trace);
    println!("trace          {}", trace.name());
    println!("records        {}", trace.len());
    println!("instructions   {}", stats.instructions);
    println!("taken ratio    {:.3}", stats.taken_ratio());
    println!("unique taken   {}", stats.unique_taken_branches());
    println!("branch density {:.4}", stats.branch_density());
    for kind in BranchKind::ALL {
        println!("  {kind:6} {:6.2}%", stats.kind_fraction(kind) * 100.0);
    }
    Ok(())
}
