//! The per-file lint rules.
//!
//! | rule | meaning |
//! |------|---------|
//! | D01  | default-hasher `HashMap`/`HashSet` in a deterministic crate |
//! | D02  | wall-clock time (`Instant`, `SystemTime`) in simulator code |
//! | D03  | ad-hoc concurrency (`Mutex`, `thread::spawn`, atomics) outside the pool |
//! | D04  | `env::var` outside documented knobs |
//! | S01  | `unsafe` without a `// SAFETY:` comment |
//! | S02  | `#[allow(...)]` without a justification comment |
//! | S03  | `catch_unwind` outside the fault-isolation layer |
//! | X01  | malformed `simlint: allow` (missing `-- reason`) |
//!
//! The cross-file rules (R04–R05, P01–P04, X02) live in
//! [`crate::rules_xfile`] and the engine in `lib.rs`. Every rule honours
//! in-source suppressions of the form `// simlint: allow(Dxx) -- reason`
//! and the central path allowlists from `simlint.toml`; X01 and X02 are
//! the meta-rules and cannot be suppressed.

use crate::config::Config;
use crate::diag::Diagnostic;
use crate::scan::{find_word, find_word_prefix, Scanned};

/// One-line descriptions of every rule id, for the SARIF rule table and
/// the README.
pub const RULE_DESCRIPTIONS: [(&str, &str); 15] = [
    (
        "D01",
        "default-hasher HashMap/HashSet in a deterministic crate",
    ),
    ("D02", "wall-clock time source in simulator code"),
    ("D03", "ad-hoc concurrency outside the deterministic pool"),
    ("D04", "environment-variable read outside documented knobs"),
    ("S01", "unsafe without a SAFETY: comment"),
    ("S02", "#[allow(...)] without a justification comment"),
    ("S03", "catch_unwind outside the fault-isolation layer"),
    ("X01", "malformed simlint suppression (missing -- reason)"),
    ("X02", "dead suppression: matched zero diagnostics this run"),
    (
        "R04",
        "registry member not exercised by the differential-test leg",
    ),
    (
        "R05",
        "registry member not referenced by the figure-suite leg",
    ),
    ("P01", "heap allocation in a [hotpath] function"),
    ("P02", "panicking call in a [hotpath] function"),
    (
        "P03",
        "panicking (unchecked) indexing in a [hotpath] function",
    ),
    ("P04", "dyn dispatch in a [hotpath] function"),
];

/// Collects the raw (pre-suppression) per-file diagnostics. The engine in
/// `lib.rs` applies suppression filtering itself so it can track which
/// suppressions were used (rule X02); [`lint_scanned`] applies it inline.
pub(crate) fn raw_file_rules(
    rel_path: &str,
    scanned: &Scanned,
    config: &Config,
    raw: &mut Vec<Diagnostic>,
) {
    rule_d01(rel_path, scanned, config, raw);
    rule_d02(rel_path, scanned, raw);
    rule_d03(rel_path, scanned, raw);
    rule_d04(rel_path, scanned, raw);
    rule_s01(rel_path, scanned, raw);
    rule_s02(rel_path, scanned, raw);
    rule_s03(rel_path, scanned, raw);
}

/// Runs every per-file rule over one scanned file. `rel_path` is
/// workspace-relative with forward slashes.
pub fn lint_scanned(rel_path: &str, scanned: &Scanned, config: &Config) -> Vec<Diagnostic> {
    let mut raw: Vec<Diagnostic> = Vec::new();
    raw_file_rules(rel_path, scanned, config, &mut raw);

    let mut out: Vec<Diagnostic> = raw
        .into_iter()
        .filter(|d| !scanned.is_suppressed(d.rule, d.line))
        .filter(|d| !config.is_path_allowed(d.rule, rel_path))
        .collect();

    // X01 last, and exempt from suppression: a suppression that cannot
    // justify itself must not be able to hide the complaint about it.
    rule_x01(rel_path, scanned, &mut out);

    out.sort_by_key(|d| (d.line, d.col, d.rule));
    out
}

fn push(
    out: &mut Vec<Diagnostic>,
    file: &str,
    line: usize,
    col0: usize,
    rule: &'static str,
    message: String,
    fix: &str,
) {
    out.push(Diagnostic {
        file: file.to_owned(),
        line,
        col: col0 + 1,
        rule,
        message,
        fix: fix.to_owned(),
    });
}

/// D01: `std::collections::HashMap`/`HashSet` (RandomState seeds per
/// process, so iteration order varies run to run) in deterministic crates.
/// Flags fully-qualified uses anywhere, and — once a `use
/// std::collections::…` import of the name is seen — every later use of
/// the bare name in the file.
fn rule_d01(rel_path: &str, scanned: &Scanned, config: &Config, out: &mut Vec<Diagnostic>) {
    if !config.is_deterministic(rel_path) {
        return;
    }
    const FIX: &str = "use BTreeMap/BTreeSet (required when iteration order can reach output), \
                       or sim_support::DetHashMap/DetHashSet for lookup-only hot paths";
    for name in ["HashMap", "HashSet"] {
        // Pass 1: is the bare name imported from std::collections?
        let imported = scanned.lines.iter().any(|l| {
            l.code.contains("use ")
                && l.code.contains("std::collections::")
                && !find_word(&l.code, name).is_empty()
        });
        for (idx, l) in scanned.lines.iter().enumerate() {
            for col in find_word(&l.code, name) {
                let qualified = l.code[..col].ends_with("collections::");
                if qualified || imported {
                    push(
                        out,
                        rel_path,
                        idx + 1,
                        col,
                        "D01",
                        format!("std::collections::{name} with the default (randomly seeded) hasher in a deterministic crate"),
                        FIX,
                    );
                }
            }
        }
    }
}

/// D02: wall-clock time sources in simulator code.
fn rule_d02(rel_path: &str, scanned: &Scanned, out: &mut Vec<Diagnostic>) {
    const FIX: &str = "keep wall-clock in the bench harness (sim_support::bench) or a bin \
                       wrapper; simulated results must never depend on host time";
    for (idx, l) in scanned.lines.iter().enumerate() {
        for word in ["Instant", "SystemTime"] {
            for col in find_word(&l.code, word) {
                push(
                    out,
                    rel_path,
                    idx + 1,
                    col,
                    "D02",
                    format!("wall-clock time source `{word}` in simulator code"),
                    FIX,
                );
            }
        }
    }
}

/// D03: ad-hoc concurrency primitives outside `sim_support::pool`.
fn rule_d03(rel_path: &str, scanned: &Scanned, out: &mut Vec<Diagnostic>) {
    const FIX: &str = "route parallelism through sim_support::pool (submission-ordered \
                       par_map keeps results independent of thread count)";
    for (idx, l) in scanned.lines.iter().enumerate() {
        for word in ["Mutex", "RwLock", "Condvar"] {
            for col in find_word(&l.code, word) {
                push(
                    out,
                    rel_path,
                    idx + 1,
                    col,
                    "D03",
                    format!("shared-state primitive `{word}` outside the deterministic pool"),
                    FIX,
                );
            }
        }
        for col in find_word_prefix(&l.code, "thread::spawn") {
            push(
                out,
                rel_path,
                idx + 1,
                col,
                "D03",
                "raw `thread::spawn` outside the deterministic pool".to_owned(),
                FIX,
            );
        }
        for col in find_word_prefix(&l.code, "Atomic") {
            push(
                out,
                rel_path,
                idx + 1,
                col,
                "D03",
                "raw atomic outside the deterministic pool".to_owned(),
                FIX,
            );
        }
    }
}

/// D04: environment-variable reads outside documented knobs.
fn rule_d04(rel_path: &str, scanned: &Scanned, out: &mut Vec<Diagnostic>) {
    const FIX: &str = "either plumb the value as a parameter, or document the knob and add \
                       `// simlint: allow(D04) -- <where it is documented>`";
    for (idx, l) in scanned.lines.iter().enumerate() {
        for col in find_word_prefix(&l.code, "env::var") {
            push(
                out,
                rel_path,
                idx + 1,
                col,
                "D04",
                "environment variable read; hidden inputs undermine reproducibility".to_owned(),
                FIX,
            );
        }
    }
}

/// S01: `unsafe` requires a `// SAFETY:` comment on the same line or in
/// the contiguous comment block above.
fn rule_s01(rel_path: &str, scanned: &Scanned, out: &mut Vec<Diagnostic>) {
    const FIX: &str = "state the invariant that makes this sound in a `// SAFETY:` comment \
                       directly above (or on) the unsafe line";
    for (idx, l) in scanned.lines.iter().enumerate() {
        for col in find_word(&l.code, "unsafe") {
            if !scanned.has_safety_comment(idx + 1) {
                push(
                    out,
                    rel_path,
                    idx + 1,
                    col,
                    "S01",
                    "`unsafe` without a `// SAFETY:` justification".to_owned(),
                    FIX,
                );
            }
        }
    }
}

/// S02: `#[allow(...)]` / `#![allow(...)]` requires a justification
/// comment — trailing on the same line, or a plain (non-doc) comment line
/// directly above. Doc comments do not count: they describe the item, not
/// the exemption.
fn rule_s02(rel_path: &str, scanned: &Scanned, out: &mut Vec<Diagnostic>) {
    const FIX: &str = "append `// <why this allow is sound>` to the attribute line, or fix \
                       the lint instead of allowing it";
    for (idx, l) in scanned.lines.iter().enumerate() {
        let Some(col) = l.code.find("#[allow(").or_else(|| l.code.find("#![allow(")) else {
            continue;
        };
        let same_line = l.has_comment() && !l.doc_comment;
        let above = idx > 0 && {
            let p = &scanned.lines[idx - 1];
            p.is_comment_only() && p.has_comment() && !p.doc_comment
        };
        if !(same_line || above) {
            push(
                out,
                rel_path,
                idx + 1,
                col,
                "S02",
                "`#[allow(...)]` without a justification comment".to_owned(),
                FIX,
            );
        }
    }
}

/// S03: `catch_unwind` outside the fault-isolation layer. Swallowing
/// panics anywhere else hides bugs and can leave shared state poisoned
/// mid-update; the blessed call sites (`sim_support::fault`,
/// `sim_support::pool`, and the test harnesses built on them) live on the
/// central allowlist in `simlint.toml`.
fn rule_s03(rel_path: &str, scanned: &Scanned, out: &mut Vec<Diagnostic>) {
    const FIX: &str = "route panic capture through sim_support::fault::isolated, which \
                       classifies the payload and keeps retry deterministic; do not \
                       swallow panics ad hoc";
    for (idx, l) in scanned.lines.iter().enumerate() {
        for col in find_word(&l.code, "catch_unwind") {
            push(
                out,
                rel_path,
                idx + 1,
                col,
                "S03",
                "`catch_unwind` outside the fault-isolation layer".to_owned(),
                FIX,
            );
        }
    }
}

/// X01: a `simlint: allow` comment that is missing its `-- reason` (or an
/// intelligible rule list). Such comments also do not suppress anything.
pub(crate) fn rule_x01(rel_path: &str, scanned: &Scanned, out: &mut Vec<Diagnostic>) {
    const FIX: &str = "write `// simlint: allow(RULE, ...) -- reason`; the reason is mandatory";
    for s in &scanned.suppressions {
        if s.reason.is_none() || s.rules.is_empty() {
            push(
                out,
                rel_path,
                s.line,
                0,
                "X01",
                "malformed simlint suppression: missing `-- reason`".to_owned(),
                FIX,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn lint(rel_path: &str, src: &str) -> Vec<Diagnostic> {
        lint_scanned(rel_path, &scan(src), &Config::default())
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn d01_fires_only_in_deterministic_crates() {
        let src =
            "use std::collections::HashMap;\nfn f() { let m: HashMap<u8, u8> = HashMap::new(); }\n";
        let hits = lint("crates/btb/src/x.rs", src);
        assert_eq!(rules_of(&hits), vec!["D01", "D01", "D01"]);
        assert_eq!(hits[0].line, 1);
        assert!(lint("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn d01_ignores_det_and_btree_variants() {
        let src = "use sim_support::DetHashMap;\nuse std::collections::BTreeMap;\n\
                   fn f() { let m: DetHashMap<u8, u8> = DetHashMap::default(); }\n";
        assert!(lint("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn d02_flags_instant_and_systemtime() {
        let src = "use std::time::Instant;\nlet t = Instant::now();\nlet s = SystemTime::now();\n";
        assert_eq!(
            rules_of(&lint("crates/core/src/x.rs", src)),
            vec!["D02", "D02", "D02"]
        );
    }

    #[test]
    fn d03_flags_concurrency_primitives() {
        let src = "use std::sync::Mutex;\nstd::thread::spawn(|| {});\n\
                   use std::sync::atomic::AtomicUsize;\n";
        let hits = lint("tests/x.rs", src);
        assert_eq!(rules_of(&hits), vec!["D03", "D03", "D03"]);
    }

    #[test]
    fn d04_flags_env_reads() {
        let src = "let v = std::env::var(\"THERMO_X\");\n";
        assert_eq!(rules_of(&lint("crates/bench/src/x.rs", src)), vec!["D04"]);
    }

    #[test]
    fn s01_requires_safety_comment() {
        let naked = "let x = unsafe { p.read() };\n";
        assert_eq!(
            rules_of(&lint("crates/sim-support/src/x.rs", naked)),
            vec!["S01"]
        );
        let justified =
            "// SAFETY: p is valid for reads; see alloc above.\nlet x = unsafe { p.read() };\n";
        assert!(lint("crates/sim-support/src/x.rs", justified).is_empty());
    }

    #[test]
    fn s02_requires_justification() {
        let naked = "#[allow(dead_code)]\nfn f() {}\n";
        assert_eq!(rules_of(&lint("crates/core/src/x.rs", naked)), vec!["S02"]);
        let trailing = "#[allow(dead_code)] // kept for the table-3 ablation\nfn f() {}\n";
        assert!(lint("crates/core/src/x.rs", trailing).is_empty());
        let above = "// kept for the table-3 ablation\n#[allow(dead_code)]\nfn f() {}\n";
        assert!(lint("crates/core/src/x.rs", above).is_empty());
        let doc_only = "/// Docs describing the item.\n#[allow(dead_code)]\nfn f() {}\n";
        assert_eq!(
            rules_of(&lint("crates/core/src/x.rs", doc_only)),
            vec!["S02"]
        );
    }

    #[test]
    fn s03_flags_catch_unwind_everywhere_by_default() {
        let src = "let r = std::panic::catch_unwind(|| work());\n";
        assert_eq!(rules_of(&lint("crates/core/src/x.rs", src)), vec!["S03"]);
        // The blessed sites are exempted by path, not by the rule itself.
        let mut cfg = Config::default();
        cfg.allows
            .entry("S03".to_owned())
            .or_default()
            .push(crate::config::PathAllow {
                path: "crates/sim-support/src/fault.rs".to_owned(),
                reason: "the fault-isolation layer".to_owned(),
                line: 0,
            });
        assert!(lint_scanned("crates/sim-support/src/fault.rs", &scan(src), &cfg).is_empty());
    }

    #[test]
    fn suppression_with_reason_silences_but_without_reason_is_x01() {
        let ok = "use std::sync::Mutex; // simlint: allow(D03) -- serializes test output only\n";
        assert!(lint("tests/x.rs", ok).is_empty());
        let bad = "use std::sync::Mutex; // simlint: allow(D03)\n";
        let hits = lint("tests/x.rs", bad);
        // Same line; X01 anchors at column 1 so it sorts first.
        assert_eq!(rules_of(&hits), vec!["X01", "D03"]);
    }

    #[test]
    fn standalone_suppression_covers_the_next_line() {
        let src = "// simlint: allow(D04) -- documented knob (EXPERIMENTS.md)\n\
                   let v = std::env::var(\"THERMO_X\");\n";
        assert!(lint("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn central_allowlist_exempts_paths() {
        let mut cfg = Config::default();
        cfg.allows
            .entry("D02".to_owned())
            .or_default()
            .push(crate::config::PathAllow {
                path: "crates/bench/src/grid.rs".to_owned(),
                reason: "timing harness".to_owned(),
                line: 0,
            });
        let src = "let t = Instant::now();\n";
        assert!(lint_scanned("crates/bench/src/grid.rs", &scan(src), &cfg).is_empty());
        assert_eq!(
            rules_of(&lint_scanned("crates/bench/src/scale.rs", &scan(src), &cfg)),
            vec!["D02"]
        );
    }

    #[test]
    fn matches_inside_literals_and_comments_do_not_fire() {
        let src = "let s = \"Instant::now() Mutex HashMap\"; // Instant in prose\n";
        assert!(lint("crates/core/src/x.rs", src).is_empty());
    }
}
