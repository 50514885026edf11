//! `thermobench`: the repository's end-to-end benchmark.
//!
//! The system is timed from outside, as separate processes — `figures`,
//! `tracegen`, `btbsim` and `hintd` — on inputs generated from the
//! workload seed. A traced run instead replays the same inputs in-process
//! and charges its time to the layers (crates) it calls into. See
//! `benchmark/README.md`.
//!
//! ```text
//! thermobench --workload W --seed N --seconds S --trace 0|1 [--bless]
//!     one run; the last line of stdout is the JSON result
//! thermobench [--seed N] [--runs R] [--seconds S] [--trace 0|1] [--out FILE] [--bless]
//!     R runs of every workload, interleaved; prints medians and quartiles
//!     and writes the run record
//! thermobench compare PARENT.json CHANGE.json
//! thermobench slo --workload hintd-ingest|hintd-query [--seed N]
//!     the highest rate the server sustains within its latency limit
//! ```

mod btbsim;
mod calib;
mod clock;
mod compare;
mod expected;
mod grid;
mod hintbench;
mod json;
mod ledger;
mod metrics;
mod procfs;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use expected::{Checker, Expected};
use json::Json;
use metrics::{catalogue, Metric};

/// The repository root of the checkout this benchmark was built in.
const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
/// The programs under test, built next to this binary.
const PROGRAMS: [&str; 4] = ["figures", "tracegen", "btbsim", "hintd"];
const DEFAULT_SECONDS: f64 = 16.0;

/// What one run needs: the seed, the measuring time, where the programs
/// are, and a scratch directory inside the checkout that every child
/// writes into and that is removed when the run ends.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    bins: PathBuf,
    pub tmp: PathBuf,
}

impl Ctx {
    fn new(workload: &str, seed: u64, seconds: f64) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let bins = exe
            .parent()
            .ok_or("executable has no directory")?
            .to_path_buf();
        for program in PROGRAMS {
            if !bins.join(program).is_file() {
                return Err(format!(
                    "{program} is not built in {} (run benchmark/run.sh)",
                    bins.display()
                ));
            }
        }
        let tmp = PathBuf::from(ROOT)
            .join(".bench_tmp")
            .join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
        Ok(Self {
            seed,
            seconds,
            bins,
            tmp,
        })
    }

    /// A command for one of the programs under test.
    pub fn command(&self, program: &str) -> Command {
        Command::new(self.bins.join(program))
    }

    /// An append-mode log file in the scratch directory, for a child's
    /// stderr.
    pub fn log(&self, program: &str) -> std::io::Result<Stdio> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.tmp.join(format!("{program}.log")))?;
        Ok(Stdio::from(file))
    }
}

impl Drop for Ctx {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.tmp);
    }
}

/// The end-to-end metrics from operation latencies (ms), CPU milliseconds
/// per operation, peak RSS and set-up seconds (grid and btbsim pass
/// timings already scaled to reference speed, see `calib`). The latency
/// tail goes to stderr with its sample count (see `latency_line`).
pub fn end_to_end(
    op_ms: &[f64],
    cpu_ms: f64,
    rss_mb: f64,
    setup_s: f64,
) -> Vec<(&'static Metric, f64)> {
    eprintln!("{}", latency_line(op_ms));
    catalogue()
        .end_to_end
        .iter()
        .map(|m| {
            let value = match m.name.as_str() {
                "op_p50_ms" => stats::median(op_ms),
                "op_cpu_ms" => cpu_ms,
                "peak_rss_mb" => rss_mb,
                "setup_s" => setup_s,
                other => panic!("BENCHMARK.json lists {other}, which no workload measures"),
            };
            (m, value)
        })
        .collect()
}

/// The sample count, the median, and the highest percentile with at least
/// ten samples beyond it. A run of grid (a handful of `figures`
/// processes) or btbsim (three rounds of 13 apps) has too few operations
/// for any; hintd's thousands of requests support p99 or p99.9, whose
/// run-to-run spread on a shared host is too wide for a bound, so it is
/// printed, not reported as a metric.
pub fn latency_line(op_ms: &[f64]) -> String {
    let n = op_ms.len();
    let mut line = format!("op latency: n={n} p50={:.3} ms", stats::median(op_ms));
    match stats::tail_percentile(n).filter(|p| *p > 0.5) {
        Some(p) => line.push_str(&format!(
            " p{}={:.3} ms",
            (p * 1000.0).round() / 10.0,
            stats::percentile(op_ms, p)
        )),
        None => line.push_str(" (too few operations for a tail above the median)"),
    }
    line
}

/// Per-process measurements of the `grid` and `btbsim` workloads.
#[derive(Default)]
pub struct ProcOps {
    wall_ms: Vec<f64>,
    cpu_ms: Vec<f64>,
    rss_mb: Vec<f64>,
}

impl ProcOps {
    /// Records one process run; `speed` scales host time to reference time.
    pub fn push(&mut self, run: &procfs::ProcRun, speed: f64) {
        self.wall_ms.push(run.wall_s * 1e3 * speed);
        self.cpu_ms.push(run.cpu_s * 1e3 * speed);
        self.rss_mb.push(run.peak_rss_mb);
    }

    /// The end-to-end metrics: latency percentiles, mean CPU per process
    /// (CPU time is read in 10 ms ticks, so a mean keeps its resolution),
    /// and the highest peak RSS any process reached.
    pub fn metrics(&self, setup_s: f64) -> Vec<(&'static Metric, f64)> {
        let cpu = self.cpu_ms.iter().sum::<f64>() / self.cpu_ms.len().max(1) as f64;
        let rss = self.rss_mb.iter().copied().fold(0.0, f64::max);
        end_to_end(&self.wall_ms, cpu, rss, setup_s)
    }
}

struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    out: Option<PathBuf>,
    bless: bool,
}

fn usage(why: &str) -> ! {
    eprintln!("thermobench: {why}");
    eprintln!(
        "usage: thermobench --workload W --seed N --seconds S --trace 0|1 [--bless]\n\
         \x20      thermobench [--seed N] [--runs R] [--seconds S] [--trace 0|1] [--out FILE] [--bless]\n\
         \x20      thermobench compare PARENT.json CHANGE.json\n\
         \x20      thermobench slo --workload hintd-ingest|hintd-query [--seed N]\n\
         workloads: {}",
        workload_names().join(", ")
    );
    std::process::exit(2);
}

fn workload_names() -> Vec<&'static str> {
    catalogue().workloads.iter().map(|w| w.0.as_str()).collect()
}

fn parse(args: &[String]) -> Opts {
    let mut opts = Opts {
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        runs: 5,
        out: None,
        bless: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .unwrap_or_else(|| usage(&format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "--workload" => {
                let w = value();
                if !workload_names().contains(&w.as_str()) {
                    usage(&format!("unknown workload {w}"));
                }
                opts.workload = Some(w);
            }
            "--seed" => opts.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                opts.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .unwrap_or_else(|| usage("bad --seconds"));
            }
            "--trace" => {
                opts.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--runs" => {
                opts.runs = value()
                    .parse()
                    .ok()
                    .filter(|r| *r > 0)
                    .unwrap_or_else(|| usage("bad --runs"));
            }
            "--out" => opts.out = Some(PathBuf::from(value())),
            "--bless" => opts.bless = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    opts
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare_cli(&args[1..]);
    }
    let outcome = if args.first().map(String::as_str) == Some("slo") {
        slo(&parse(&args[1..]))
    } else {
        let opts = parse(&args);
        match &opts.workload {
            Some(workload) => single_run(workload, &opts),
            None => session(&opts),
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("thermobench: {why}");
            ExitCode::FAILURE
        }
    }
}

/// One run of one workload; prints the result object as the last line of
/// stdout.
fn single_run(workload: &str, opts: &Opts) -> Result<(), String> {
    let mut expected = Expected::load(opts.seed).map_err(|e| e.to_string())?;
    let mut checker = Checker::new(if opts.bless {
        BTreeMap::new()
    } else {
        expected.of(workload)
    });
    let ctx = Ctx::new(workload, opts.seed, opts.seconds)?;
    let metrics = match (workload, opts.trace) {
        ("grid", false) => grid::run(&ctx, &mut checker)?,
        ("btbsim", false) => btbsim::run(&ctx, &mut checker)?,
        ("hintd-ingest", false) => hintbench::run(&ctx, &mut checker, hintbench::INGEST)?,
        ("hintd-query", false) => hintbench::run(&ctx, &mut checker, hintbench::QUERY)?,
        (_, true) => {
            let ledger = match workload {
                "grid" => grid::trace(&ctx, &mut checker)?,
                "btbsim" => btbsim::trace(&ctx, &mut checker)?,
                "hintd-ingest" => hintbench::trace(&ctx, &mut checker, hintbench::INGEST)?,
                _ => hintbench::trace(&ctx, &mut checker, hintbench::QUERY)?,
            };
            eprint!("{}", ledger.table());
            ledger.metrics()
        }
        _ => unreachable!("parse() vetted the workload"),
    };
    drop(ctx);
    if opts.bless {
        expected
            .bless(workload, checker.outputs())
            .map_err(|e| format!("bless: {e}"))?;
        eprintln!(
            "blessed {} output(s) of {workload} for seed {}",
            checker.outputs().len(),
            opts.seed
        );
    }
    for (m, v) in &metrics {
        eprintln!("{workload:14} {:36} {v:>14.6} {}", m.name, m.unit);
    }
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(checker.failed == 0)),
        ("attempted".into(), Json::Num(checker.attempted as f64)),
        ("failed".into(), Json::Num(checker.failed as f64)),
        (
            "metrics".into(),
            Json::Obj(
                metrics
                    .iter()
                    .map(|(m, v)| {
                        (
                            m.name.clone(),
                            Json::Obj(vec![
                                ("value".into(), Json::Num(*v)),
                                ("unit".into(), Json::Str(m.unit.clone())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{result}");
    Ok(())
}

/// The rate search of a hintd workload (see `hintbench::slo`).
fn slo(opts: &Opts) -> Result<(), String> {
    let mix = match opts.workload.as_deref() {
        Some("hintd-ingest") => hintbench::INGEST,
        Some("hintd-query") => hintbench::QUERY,
        _ => usage("slo takes --workload hintd-ingest or hintd-query"),
    };
    let ctx = Ctx::new("slo", opts.seed, opts.seconds)?;
    hintbench::slo(&ctx, mix)
}

/// First line of a command's stdout, or "unknown".
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `--runs` runs of every workload, each as a child process exactly as
/// the acceptance check runs it, interleaved so drift in the host's speed
/// spreads over all workloads alike.
fn session(opts: &Opts) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut results: Vec<(&str, Vec<Json>)> = workload_names()
        .into_iter()
        .map(|w| (w, Vec::new()))
        .collect();
    for run in 0..opts.runs {
        for (workload, runs) in results.iter_mut() {
            eprintln!(
                "run {}/{} {workload} seed {}",
                run + 1,
                opts.runs,
                opts.seed
            );
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload])
                .args(["--seed", &opts.seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()])
                .args(["--trace", if opts.trace { "1" } else { "0" }])
                .stderr(Stdio::inherit());
            if opts.bless {
                cmd.arg("--bless");
            }
            let output = cmd.output().map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            if !output.status.success() {
                return Err(format!("{workload} run failed ({})", output.status));
            }
            runs.push(Json::parse(last).map_err(|e| format!("{workload}: {e}: {last}"))?);
        }
    }

    let metrics = if opts.trace {
        &catalogue().per_layer
    } else {
        &catalogue().end_to_end
    };
    println!(
        "{:14} {:36} {:>10} {:>12} {:>12} {:>12} {:>3} {:>7}",
        "workload", "metric", "unit", "median", "q1", "q3", "n", "failed"
    );
    for (workload, runs) in &results {
        let failed: f64 = runs.iter().filter_map(|r| r.get("failed")?.as_f64()).sum();
        for m in metrics {
            let xs: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.get("metrics")?.get(&m.name)?.get("value")?.as_f64())
                .collect();
            let (q1, q2, q3) = stats::quartiles(&xs);
            println!(
                "{workload:14} {:36} {:>10} {q2:>12.4} {q1:>12.4} {q3:>12.4} {:>3} {failed:>7}",
                m.name,
                m.unit,
                xs.len()
            );
        }
    }

    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let record = Json::Obj(vec![
        ("seed".into(), Json::Num(opts.seed as f64)),
        ("runs".into(), Json::Num(opts.runs as f64)),
        ("seconds".into(), Json::Num(opts.seconds)),
        ("trace".into(), Json::Bool(opts.trace)),
        (
            "nproc".into(),
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("cpu".into(), Json::Str(cpu)),
        (
            "rustc".into(),
            Json::Str(first_line("rustc", &["--version"])),
        ),
        (
            "results".into(),
            Json::Obj(
                results
                    .into_iter()
                    .map(|(w, runs)| (w.to_owned(), Json::Arr(runs)))
                    .collect(),
            ),
        ),
    ]);
    let out = opts.out.clone().unwrap_or_else(|| {
        PathBuf::from(ROOT).join(".bench_out").join(format!(
            "seed{}-trace{}.json",
            opts.seed,
            u8::from(opts.trace)
        ))
    });
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&out, format!("{record}\n")).map_err(|e| format!("{}: {e}", out.display()))?;
    eprintln!("wrote {}", out.display());
    Ok(())
}

fn compare_cli(args: &[String]) -> ExitCode {
    let [parent, change] = args else {
        usage("compare takes PARENT.json CHANGE.json");
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|t| Json::parse(&t).map_err(|e| format!("{path}: {e}")))
    };
    match load(parent).and_then(|p| load(change).and_then(|c| compare::compare(&p, &c))) {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => {
            eprintln!("compare: at least one row is worse");
            ExitCode::from(1)
        }
        Err(why) => {
            eprintln!("compare: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_end_to_end_metric_is_measured() {
        let values: Vec<(&str, f64)> = end_to_end(&[3.0, 1.0, 2.0], 4.0, 5.0, 6.0)
            .into_iter()
            .map(|(m, v)| (m.name.as_str(), v))
            .collect();
        assert_eq!(
            values,
            [
                ("op_p50_ms", 2.0),
                ("op_cpu_ms", 4.0),
                ("peak_rss_mb", 5.0),
                ("setup_s", 6.0)
            ]
        );
    }

    #[test]
    fn the_latency_line_states_the_count_and_the_supported_tail() {
        let few: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(
            latency_line(&few),
            "op latency: n=39 p50=20.000 ms (too few operations for a tail above the median)"
        );
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert!(
            latency_line(&many).ends_with(" p99=990.010 ms"),
            "{}",
            latency_line(&many)
        );
    }
}
