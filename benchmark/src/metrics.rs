//! The metric catalogue. `BENCHMARK.json` at the repository root is its
//! only definition: it is compiled into the driver and parsed once.

use std::sync::OnceLock;

use crate::json::Json;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One metric: its name, unit, direction, and (end-to-end only) the share
/// of the parent's median by which it may worsen before a change counts as
/// a regression.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    pub bound: f64,
}

/// The workloads (with why each exists) and both metric lists, in
/// `BENCHMARK.json` order. Every workload reports every metric: the
/// end-to-end ones with `--trace 0`, the per-layer ones with `--trace 1`.
#[derive(Debug)]
pub struct Catalogue {
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

/// The catalogue of the `BENCHMARK.json` this driver was built with.
pub fn catalogue() -> &'static Catalogue {
    static CATALOGUE: OnceLock<Catalogue> = OnceLock::new();
    CATALOGUE.get_or_init(|| {
        parse(include_str!("../../BENCHMARK.json"))
            .unwrap_or_else(|why| panic!("BENCHMARK.json: {why}"))
    })
}

fn parse(text: &str) -> Result<Catalogue, String> {
    let doc = Json::parse(text)?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("no {key} list"))
    };
    let field = |item: &Json, key: &str| {
        item.get(key)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("an entry has no {key}"))
    };
    let metrics = |key: &str| -> Result<Vec<Metric>, String> {
        list(key)?
            .iter()
            .map(|m| {
                Ok(Metric {
                    name: field(m, "name")?,
                    unit: field(m, "unit")?,
                    better: match field(m, "better")?.as_str() {
                        "lower" => Better::Lower,
                        "higher" => Better::Higher,
                        other => return Err(format!("bad direction {other}")),
                    },
                    bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
                })
            })
            .collect()
    };
    Ok(Catalogue {
        workloads: list("workloads")?
            .iter()
            .map(|w| Ok((field(w, "name")?, field(w, "why")?)))
            .collect::<Result<_, String>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.bytes().next().is_some_and(|b| b.is_ascii_alphanumeric())
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let c = catalogue();
        let mut names: Vec<&str> = c
            .end_to_end
            .iter()
            .chain(&c.per_layer)
            .map(|m| m.name.as_str())
            .chain(c.workloads.iter().map(|w| w.0.as_str()))
            .collect();
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate name");
        assert!(c
            .end_to_end
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= 0.25));
        for id in thermometer_bench::FIGURE_IDS {
            let name = format!("bench.figure.{id}.share");
            assert!(
                c.per_layer.iter().any(|m| m.name == name),
                "figure {id} has no metric"
            );
        }
    }
}
