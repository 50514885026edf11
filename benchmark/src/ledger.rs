//! The per-layer ledger of a traced run: busy time per layer, recorded by
//! timing the benchmark's own calls into each crate's public functions.
//!
//! Top-level spans tile the replay: their sum should account for its whole
//! wall time, and what it does not is reported as
//! `ledger.unexplained_frac` (loop overhead, allocation and drops between
//! spans, and tracing itself). Nested spans break a top-level span down —
//! either timed inside it, or replayed in isolation on the same inputs,
//! which estimates a component's cost inside its parent.

use std::collections::BTreeMap;

use crate::clock;
use crate::metrics::{catalogue, Metric};
use crate::stats;

#[derive(Clone, Copy, Debug, Default)]
struct Span {
    busy_s: f64,
    calls: u64,
    top: bool,
}

/// Busy time per layer plus the counts a workload sets directly.
#[derive(Debug, Default)]
pub struct Ledger {
    spans: BTreeMap<String, Span>,
    values: BTreeMap<String, f64>,
    items_ms: Vec<f64>,
    e2e_s: f64,
    cpu_s: f64,
    threads: f64,
}

impl Ledger {
    /// Times `f` as a top-level span of `layer`.
    pub fn top<R>(&mut self, layer: &str, f: impl FnOnce() -> R) -> R {
        let (value, secs) = clock::timed(f);
        self.add(layer, secs, true);
        value
    }

    /// Times `f` as a nested span of `layer`.
    pub fn nested<R>(&mut self, layer: &str, f: impl FnOnce() -> R) -> R {
        let (value, secs) = clock::timed(f);
        self.add(layer, secs, false);
        value
    }

    /// Credits `secs` of busy time (one call) to `layer`.
    pub fn add(&mut self, layer: &str, secs: f64, top: bool) {
        let span = self.spans.entry(layer.to_owned()).or_default();
        span.busy_s += secs;
        span.calls += 1;
        span.top = top;
    }

    /// Busy seconds credited to `layer`.
    pub fn busy(&self, layer: &str) -> f64 {
        self.spans.get(layer).map_or(0.0, |s| s.busy_s)
    }

    /// Sets a count or ratio metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_owned(), value);
    }

    /// Records one unit of the ledger's work (a cell, an app, a request).
    pub fn item(&mut self, secs: f64) {
        self.items_ms.push(secs * 1e3);
    }

    /// Closes the ledger: the replay's wall time, the CPU seconds this
    /// process spent in it, and the threads it could use.
    pub fn finish(&mut self, e2e_s: f64, cpu_s: f64, threads: usize) {
        self.e2e_s = e2e_s;
        self.cpu_s = cpu_s;
        self.threads = threads as f64;
    }

    /// |e2e − Σ top-level spans| / e2e.
    pub fn unexplained_frac(&self) -> f64 {
        let covered: f64 = self
            .spans
            .values()
            .filter(|s| s.top)
            .map(|s| s.busy_s)
            .sum();
        if self.e2e_s > 0.0 {
            (self.e2e_s - covered).abs() / self.e2e_s
        } else {
            0.0
        }
    }

    fn value(&self, name: &str) -> f64 {
        match name {
            "ledger.e2e_s" => self.e2e_s,
            "ledger.unexplained_frac" => self.unexplained_frac(),
            "ledger.items" => self.items_ms.len() as f64,
            "ledger.item_p50_ms" => stats::median(&self.items_ms),
            "ledger.item_tail_ms" => self.item_tail().map_or(0.0, |(_, ms)| ms),
            "ledger.cpu_util" if self.e2e_s > 0.0 => self.cpu_s / (self.threads * self.e2e_s),
            _ => match name.strip_suffix(".share") {
                Some(layer) if self.e2e_s > 0.0 => self.busy(layer) / self.e2e_s,
                _ => self.values.get(name).copied().unwrap_or(0.0),
            },
        }
    }

    /// The highest percentile of the item times with at least ten items
    /// beyond it, and its value; `None` when only the median has (13 apps
    /// of btbsim), which `ledger.item_tail_ms` reports as 0.
    fn item_tail(&self) -> Option<(f64, f64)> {
        stats::tail_percentile(self.items_ms.len())
            .filter(|p| *p > 0.5)
            .map(|p| (p, stats::percentile(&self.items_ms, p)))
    }

    /// Every per-layer metric, in catalogue order.
    pub fn metrics(&self) -> Vec<(&'static Metric, f64)> {
        catalogue()
            .per_layer
            .iter()
            .map(|m| (m, self.value(&m.name)))
            .collect()
    }

    /// A human-readable table of the spans, top-level first.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:34} {:>10} {:>8} {:>9}\n",
            "layer", "busy_s", "share", "calls"
        );
        let mut rows: Vec<(&String, &Span)> = self.spans.iter().collect();
        rows.sort_by_key(|(_, s)| !s.top);
        for (name, s) in rows {
            out.push_str(&format!(
                "{:34} {:>10.4} {:>8.4} {:>9}{}\n",
                name,
                s.busy_s,
                self.value(&format!("{name}.share")),
                s.calls,
                if s.top { "" } else { "  (nested)" }
            ));
        }
        let tail = self.item_tail().map_or(String::new(), |(p, ms)| {
            format!(", p{} {ms:.3} ms", (p * 1000.0).round() / 10.0)
        });
        out.push_str(&format!(
            "e2e {:.4} s, unexplained {:.4}, {} items (p50 {:.3} ms{tail})\n",
            self.e2e_s,
            self.unexplained_frac(),
            self.items_ms.len(),
            self.value("ledger.item_p50_ms"),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_counts_only_top_level_spans() {
        let mut l = Ledger::default();
        l.add("a", 0.5, true);
        l.add("b", 0.3, true);
        l.add("a.part", 0.4, false);
        l.finish(1.0, 0.9, 1);
        assert!((l.unexplained_frac() - 0.2).abs() < 1e-12);
        assert!((l.value("a.share") - 0.5).abs() < 1e-12);
        assert!(
            (l.value("a.part.share") - 0.4).abs() < 1e-12,
            "nested spans still get a share"
        );
        assert!((l.value("ledger.cpu_util") - 0.9).abs() < 1e-12);
        // Over-coverage (top-level spans overlapping) is unexplained too.
        l.add("c", 0.5, true);
        assert!((l.unexplained_frac() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn unused_layers_read_zero_and_counts_pass_through() {
        let mut l = Ledger::default();
        l.set("hintd.backlog_max", 7.0);
        l.item(0.001);
        l.item(0.003);
        l.finish(2.0, 2.0, 1);
        let metrics = l.metrics();
        assert_eq!(metrics.len(), catalogue().per_layer.len());
        let get = |n: &str| metrics.iter().find(|(m, _)| m.name == n).unwrap().1;
        assert_eq!(get("hintd.backlog_max"), 7.0);
        assert_eq!(get("uarch.tage.share"), 0.0);
        assert_eq!(get("ledger.items"), 2.0);
        assert!((get("ledger.item_p50_ms") - 2.0).abs() < 1e-9);
        assert_eq!(get("ledger.item_tail_ms"), 0.0, "two items have no tail");
        assert_eq!(get("ledger.unexplained_frac"), 1.0, "nothing covered");
    }
}
