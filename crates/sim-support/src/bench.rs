//! A self-contained micro-benchmark harness (the in-repo `criterion`
//! replacement).
//!
//! Each benchmark runs a warmup phase followed by N timed iterations and
//! reports the **median** and the **median absolute deviation** (MAD) —
//! robust statistics that shrug off the occasional scheduler hiccup that
//! wrecks means on shared machines. Results print as a table and are written
//! as machine-readable JSON (no serde — the writer is ~30 lines) so the
//! perf trajectory can be tracked across commits.
//!
//! Knobs (environment):
//!
//! | Variable       | Default | Meaning              |
//! |----------------|---------|----------------------|
//! | `BENCH_ITERS`  | 10      | timed iterations     |
//! | `BENCH_WARMUP` | 2       | warmup iterations    |
//!
//! ```no_run
//! use sim_support::BenchHarness;
//!
//! let mut harness = BenchHarness::new("codec");
//! harness.bench("encode", Some(200_000), || { /* work */ });
//! harness.finish("results");
//! ```

use std::hint::black_box;
use std::time::Instant;

use crate::fsio::json_escape;

/// One benchmark's timing summary.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Benchmark label (unique within a suite).
    pub name: String,
    /// Timed iterations.
    pub iters: u32,
    /// Median wall time per iteration, nanoseconds.
    pub median_ns: f64,
    /// Median absolute deviation of the per-iteration times, nanoseconds.
    pub mad_ns: f64,
    /// Fastest iteration, nanoseconds.
    pub min_ns: f64,
    /// Slowest iteration, nanoseconds.
    pub max_ns: f64,
    /// Optional element count for derived throughput.
    pub elements: Option<u64>,
}

impl BenchResult {
    /// Elements per second at the median, when an element count was given.
    pub fn throughput(&self) -> Option<f64> {
        self.elements.map(|e| e as f64 / (self.median_ns / 1e9))
    }
}

/// Collects benchmark runs for one suite and renders them.
pub struct BenchHarness {
    suite: String,
    warmup: u32,
    iters: u32,
    results: Vec<BenchResult>,
    notes: Vec<String>,
}

fn env_u32(key: &str, default: u32) -> u32 {
    // simlint: allow(D04) -- BENCH_ITERS/BENCH_WARMUP are documented in README.md
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

impl BenchHarness {
    /// Creates a harness for the named suite (`results/bench_{suite}.json`).
    pub fn new(suite: &str) -> Self {
        Self {
            suite: suite.to_owned(),
            warmup: env_u32("BENCH_WARMUP", 2),
            iters: env_u32("BENCH_ITERS", 10).max(1),
            results: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Attaches a free-form commentary line to the suite's JSON (context a
    /// number alone can't carry: machine caveats, before/after comparisons).
    pub fn note(&mut self, text: &str) {
        self.notes.push(text.to_owned());
    }

    /// Notes the host the suite ran on: its CPU model (from `/proc/cpuinfo`,
    /// where there is one) and the threads it offers, so a recorded median
    /// reads against its hardware.
    pub fn note_host(&mut self) {
        let model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines().find_map(|line| {
                    let (key, value) = line.split_once(':')?;
                    (key.trim() == "model name").then(|| value.trim().to_owned())
                })
            })
            .unwrap_or_else(|| "unknown CPU".to_owned());
        let threads = std::thread::available_parallelism().map_or(1, usize::from);
        self.note(&format!("host: {model}, {threads} hardware thread(s)"));
    }

    /// Runs one benchmark: `warmup` untimed then `iters` timed calls of `f`.
    /// Pass `elements` to report throughput (elements/second).
    pub fn bench<T>(&mut self, name: &str, elements: Option<u64>, mut f: impl FnMut() -> T) {
        for _ in 0..self.warmup {
            black_box(f());
        }
        let mut samples_ns = Vec::with_capacity(self.iters as usize);
        for _ in 0..self.iters {
            let start = Instant::now();
            black_box(f());
            samples_ns.push(start.elapsed().as_nanos() as f64);
        }
        let med = median(&mut samples_ns);
        let mut deviations: Vec<f64> = samples_ns.iter().map(|s| (s - med).abs()).collect();
        let mad = median(&mut deviations);
        let result = BenchResult {
            name: name.to_owned(),
            iters: self.iters,
            median_ns: med,
            mad_ns: mad,
            min_ns: samples_ns.iter().copied().fold(f64::INFINITY, f64::min),
            max_ns: samples_ns.iter().copied().fold(0.0, f64::max),
            elements,
        };
        eprintln!("{}", render_line(&self.suite, &result));
        self.results.push(result);
    }

    /// Access to the collected results (for tests and custom reporting).
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Renders the suite's results as a JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"suite\": \"{}\",\n", json_escape(&self.suite)));
        out.push_str(&format!("  \"warmup\": {},\n", self.warmup));
        if !self.notes.is_empty() {
            out.push_str("  \"notes\": [\n");
            for (i, note) in self.notes.iter().enumerate() {
                let comma = if i + 1 < self.notes.len() { "," } else { "" };
                out.push_str(&format!("    \"{}\"{comma}\n", json_escape(note)));
            }
            out.push_str("  ],\n");
        }
        out.push_str("  \"benchmarks\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            out.push_str("    {");
            out.push_str(&format!("\"name\": \"{}\", ", json_escape(&r.name)));
            out.push_str(&format!("\"iters\": {}, ", r.iters));
            out.push_str(&format!("\"median_ns\": {}, ", json_f64(r.median_ns)));
            out.push_str(&format!("\"mad_ns\": {}, ", json_f64(r.mad_ns)));
            out.push_str(&format!("\"min_ns\": {}, ", json_f64(r.min_ns)));
            out.push_str(&format!("\"max_ns\": {}", json_f64(r.max_ns)));
            if let Some(eps) = r.throughput() {
                out.push_str(&format!(", \"elements\": {}", r.elements.unwrap_or(0)));
                out.push_str(&format!(", \"elements_per_sec\": {}", json_f64(eps)));
            }
            out.push_str(if i + 1 < self.results.len() {
                "},\n"
            } else {
                "}\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes `bench_{suite}.json` into `out_dir` (created if needed).
    ///
    /// # Panics
    ///
    /// Panics when the file cannot be written — a benchmark run whose
    /// results vanish silently is worse than a loud failure.
    pub fn finish(self, out_dir: &str) {
        std::fs::create_dir_all(out_dir).unwrap_or_else(|e| panic!("cannot create {out_dir}: {e}"));
        let path = format!("{out_dir}/bench_{}.json", self.suite);
        crate::fsio::write_atomic(std::path::Path::new(&path), self.to_json().as_bytes())
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("wrote {path}");
    }
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

fn render_line(suite: &str, r: &BenchResult) -> String {
    let throughput = r
        .throughput()
        .map(|eps| format!("  {:>10.2} Melem/s", eps / 1e6))
        .unwrap_or_default();
    format!(
        "bench {suite}/{:<32} median {:>10.3} ms  mad {:>8.3} ms{throughput}",
        r.name,
        r.median_ns / 1e6,
        r.mad_ns / 1e6
    )
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.1}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn bench_collects_robust_stats() {
        let mut h = BenchHarness::new("selftest");
        h.bench("spin", Some(1000), || {
            let mut acc = 0u64;
            for i in 0..1000u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        let r = &h.results()[0];
        assert!(r.median_ns > 0.0);
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
        assert!(r.mad_ns >= 0.0);
        assert!(r.throughput().expect("elements given") > 0.0);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let mut h = BenchHarness::new("json");
        h.bench("noop", None, || 1 + 1);
        h.bench("q\"uote", None, || ());
        h.note("a \"quoted\" note");
        let json = h.to_json();
        assert!(json.contains("\"suite\": \"json\""));
        assert!(json.contains("\"median_ns\""));
        assert!(json.contains("\\\"uote"));
        assert!(json.contains("\"notes\""));
        assert!(json.contains("a \\\"quoted\\\" note"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn names_keep_their_json_escaping() {
        // A quote, a backslash, a newline and a control char, escaped by
        // the shared `fsio::json_escape` exactly as `results/` expects.
        let mut h = BenchHarness::new("esc");
        h.bench("a/b \"q\" \\ c\n\u{1}", None, || ());
        assert!(h
            .to_json()
            .contains(r#"    {"name": "a/b \"q\" \\ c\n\u0001", "iters": "#));
    }

    #[test]
    fn iters_env_floor_is_one() {
        assert_eq!(env_u32("BENCH_NOT_SET_XYZ", 10), 10);
    }
}
