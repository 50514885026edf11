//! Bench regression guard: compares fresh `results/bench_<suite>.json`
//! medians against the committed baseline in
//! `results/bench_baselines.json`.
//!
//! A benchmark **regresses** when its median exceeds the baseline median by
//! more than the tolerance (default 15%, `--tolerance`). Regressions exit
//! non-zero so `scripts/ci.sh` fails; improvements are reported but never
//! fail, so the guard ratchets only in one direction.
//!
//! # Bless flow
//!
//! Intentional performance changes (an optimization landed, a benchmark
//! gained work) are recorded by re-running the suites and rewriting the
//! baseline:
//!
//! ```text
//! scripts/bench_check.sh --bless
//! ```
//!
//! then committing `results/bench_baselines.json` alongside the change.
//! The baseline is machine-specific by nature; bless on the machine whose
//! CI enforces it.
//!
//! Both the results files and the baseline are written by this workspace
//! (`sim_support::BenchHarness` / `--bless`), one benchmark object per
//! line, so parsing is a line-level field scan — no JSON dependency.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use sim_support::cli::Cursor;

/// Suites guarded by default: the two hot-loop benches the repo's perf
/// targets are stated against, the offline OPT profiler, plus the hint
/// server's loopback mixed-load suite (`hintload` writes it;
/// `scripts/bench_check.sh` runs the server).
const DEFAULT_SUITES: &[&str] = &["btb_policies", "frontend", "profiling", "hintd"];
const DEFAULT_TOLERANCE_PCT: f64 = 15.0;
/// Benchmarks recorded for observability but not guarded: end-to-end
/// wall-clock of a whole thread-pool grid run carries several times the
/// variance of the single-threaded loop benches, and a 15% gate on them
/// fails on machine state alone.
const UNGUARDED: &[&str] = &["fig01_grid_serial", "fig01_grid_pooled"];

/// Extracts the string value of `"key": "..."` from a single line.
fn field_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')?;
    Some(line[start..start + end].to_string())
}

/// Extracts the numeric value of `"key": <number>` from a single line.
fn field_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// `(name, median_ns)` per benchmark line of a harness results file.
fn parse_results(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .filter_map(|l| Some((field_str(l, "name")?, field_num(l, "median_ns")?)))
        .collect()
}

/// `(suite, name, median_ns)` per line of the baseline file.
fn parse_baseline(text: &str) -> Vec<(String, String, f64)> {
    text.lines()
        .filter_map(|l| {
            Some((
                field_str(l, "suite")?,
                field_str(l, "name")?,
                field_num(l, "median_ns")?,
            ))
        })
        .collect()
}

fn render_baseline(entries: &[(String, String, f64)]) -> String {
    let mut out = String::from("{\n  \"comment\": \"bench_check baselines; re-bless with scripts/bench_check.sh --bless after intentional perf changes\",\n  \"baselines\": [\n");
    for (i, (suite, name, median)) in entries.iter().enumerate() {
        let sep = if i + 1 == entries.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"suite\": \"{suite}\", \"name\": \"{name}\", \"median_ns\": {median}}}{sep}\n"
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

const USAGE: &str = "usage: bench_check [--bless] [--tolerance PCT] [--results-dir DIR] \
     [--baseline FILE] [--suites NAME,...]";

struct Args {
    bless: bool,
    tolerance: f64,
    results_dir: PathBuf,
    baseline: PathBuf,
    suites: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        bless: false,
        tolerance: DEFAULT_TOLERANCE_PCT,
        results_dir: PathBuf::from("results"),
        baseline: PathBuf::from("results/bench_baselines.json"),
        suites: DEFAULT_SUITES.iter().map(|s| s.to_string()).collect(),
    };
    let mut it = Cursor::new(std::env::args().skip(1), USAGE);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bless" => args.bless = true,
            "--tolerance" => args.tolerance = it.parse()?,
            "--results-dir" => args.results_dir = it.value()?.into(),
            "--baseline" => args.baseline = it.value()?.into(),
            "--suites" => {
                args.suites = it
                    .value()?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            _ => return Err(it.unexpected()),
        }
    }
    Ok(args)
}

fn read(path: &Path) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;

    let mut current: Vec<(String, String, f64)> = Vec::new();
    for suite in &args.suites {
        let path = args.results_dir.join(format!("bench_{suite}.json"));
        let parsed = parse_results(&read(&path)?);
        if parsed.is_empty() {
            return Err(format!("{}: no benchmark entries found", path.display()));
        }
        for (name, median) in parsed {
            if UNGUARDED.contains(&name.as_str()) {
                continue;
            }
            current.push((suite.clone(), name, median));
        }
    }

    if args.bless {
        fs::write(&args.baseline, render_baseline(&current))
            .map_err(|e| format!("{}: {e}", args.baseline.display()))?;
        println!(
            "blessed {} benchmark(s) into {}",
            current.len(),
            args.baseline.display()
        );
        return Ok(true);
    }

    if !args.baseline.exists() {
        return Err(format!(
            "{}: no baseline; record one with scripts/bench_check.sh --bless",
            args.baseline.display()
        ));
    }
    let baseline = parse_baseline(&read(&args.baseline)?);
    if baseline.is_empty() {
        return Err(format!(
            "{}: no baseline entries found",
            args.baseline.display()
        ));
    }

    let mut ok = true;
    for (suite, name, base) in &baseline {
        if !args.suites.contains(suite) {
            continue;
        }
        let Some((_, _, cur)) = current.iter().find(|(s, n, _)| s == suite && n == name) else {
            println!(
                "FAIL  {suite}/{name}: in baseline but missing from results (renamed? re-bless)"
            );
            ok = false;
            continue;
        };
        let delta_pct = (cur - base) / base * 100.0;
        if delta_pct > args.tolerance {
            println!(
                "FAIL  {suite}/{name}: median {:.3} ms vs baseline {:.3} ms (+{delta_pct:.1}% > {:.0}% tolerance)",
                cur / 1e6,
                base / 1e6,
                args.tolerance
            );
            ok = false;
        } else if delta_pct < -args.tolerance {
            println!(
                "ok    {suite}/{name}: median {:.3} ms vs baseline {:.3} ms ({delta_pct:.1}%; consider --bless to ratchet)",
                cur / 1e6,
                base / 1e6
            );
        } else {
            println!(
                "ok    {suite}/{name}: median {:.3} ms vs baseline {:.3} ms ({delta_pct:+.1}%)",
                cur / 1e6,
                base / 1e6
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!(
                "bench_check: regression(s) above tolerance; if intentional, \
                 re-record with scripts/bench_check.sh --bless"
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("bench_check: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RESULTS: &str = r#"{
  "suite": "btb_policies",
  "warmup": 2,
  "benchmarks": [
    {"name": "lru", "iters": 10, "median_ns": 814545.5, "mad_ns": 33804.5, "elements": 82385},
    {"name": "random", "iters": 10, "median_ns": 756612.5, "mad_ns": 14630.0, "elements": 82385}
  ]
}"#;

    #[test]
    fn results_parse_names_and_medians() {
        let parsed = parse_results(RESULTS);
        assert_eq!(
            parsed,
            vec![
                ("lru".to_string(), 814545.5),
                ("random".to_string(), 756612.5)
            ]
        );
    }

    #[test]
    fn suite_header_line_is_not_a_benchmark() {
        // The header has "suite" but no name/median pair; it must not parse.
        assert!(parse_results("{\"suite\": \"x\", \"warmup\": 2}").is_empty());
    }

    #[test]
    fn baseline_roundtrips_through_render() {
        let entries = vec![
            ("frontend".to_string(), "lru_sim".to_string(), 9.5e6),
            ("btb_policies".to_string(), "lru".to_string(), 814545.5),
        ];
        assert_eq!(parse_baseline(&render_baseline(&entries)), entries);
    }

    #[test]
    fn numeric_field_stops_at_delimiters() {
        assert_eq!(
            field_num("{\"median_ns\": 5.5, \"x\": 1}", "median_ns"),
            Some(5.5)
        );
        assert_eq!(field_num("{\"median_ns\": 5}", "median_ns"), Some(5.0));
        assert_eq!(field_num("{\"other\": 5}", "median_ns"), None);
    }
}
