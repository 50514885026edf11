//! `simlint` — repo-specific static analysis for the simulator workspace.
//!
//! The workspace's headline property is *hermetic determinism*: the same
//! trace and config must produce byte-identical results on any machine, at
//! any thread count, on any run. Most regressions against that property
//! come from a handful of std idioms that are perfectly fine elsewhere —
//! `HashMap`'s randomly seeded hasher, wall-clock timestamps, ad-hoc
//! threading — so this crate lints for exactly those, plus safety hygiene
//! and cross-file consistency rules. See [`rules`] for the rule table.
//!
//! The analysis is two-pass and has zero external dependencies:
//!
//! 1. **Per file**: one lexer ([`tokens`]) reads the file once. The
//!    per-line view ([`scan`]) is derived from its literal and comment
//!    spans, with code separated from comments and literals blanked, and
//!    the per-file rules ([`rules`]) match on its code channel. The item
//!    extractor ([`index`]) records the file's registry tables, functions,
//!    and references from the same tokens.
//! 2. **Cross file**: the per-file indices are joined into a
//!    [`index::WorkspaceIndex`] and the registry-drift and hot-path rules
//!    ([`rules_xfile`]) run over it.
//!
//! The engine ([`analyze`]) then applies suppressions — in-source
//! `// simlint: allow(...) -- reason` comments and the central path
//! allowlists from `simlint.toml` ([`config`]) — while tracking which
//! suppression fired for which finding, so that a suppression matching
//! *zero* findings is itself reported (rule X02). In-source escape hatch:
//!
//! ```text
//! // simlint: allow(D03) -- serializes test output only
//! ```
//!
//! The reason after `--` is mandatory; a suppression without one is itself
//! reported (rule X01) and suppresses nothing.

pub mod config;
pub mod diag;
pub mod index;
pub mod rules;
pub mod rules_xfile;
pub mod scan;
pub mod selfcheck;
pub mod tokens;
pub mod walk;

pub use config::Config;
pub use diag::{render_json, render_sarif, render_text, Diagnostic};

use std::collections::BTreeSet;
use std::path::Path;

/// One workspace source file, by relative path (forward slashes) and
/// content. [`analyze`] works on a slice of these so tests and the
/// self-check can run the whole engine on in-memory file sets.
#[derive(Clone, Debug)]
pub struct SourceFile {
    pub rel: String,
    pub text: String,
}

/// Lints one source text as if it lived at `rel_path` (workspace-relative,
/// forward slashes), per-file rules only. This is the fixture-test entry
/// point for the D/S rules; cross-file behaviour needs [`analyze`].
pub fn lint_source(rel_path: &str, source: &str, config: &Config) -> Vec<Diagnostic> {
    rules::lint_scanned(rel_path, &scan::scan(source), config)
}

/// Loads `simlint.toml` from `root`, or the built-in defaults when the
/// file does not exist.
pub fn load_config(root: &Path) -> Result<Config, String> {
    let path = root.join("simlint.toml");
    if !path.exists() {
        return Ok(Config::default());
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Config::parse(&text)
}

/// Reads every `.rs` file under `root/crates` and `root/tests` into
/// memory, in deterministic path order.
pub fn load_files(root: &Path, config: &Config) -> Result<Vec<SourceFile>, String> {
    let files = walk::collect_rs_files(root, config)
        .map_err(|e| format!("walking {}: {e}", root.display()))?;
    let mut out = Vec::with_capacity(files.len());
    for (rel, abs) in files {
        let text =
            std::fs::read_to_string(&abs).map_err(|e| format!("reading {}: {e}", abs.display()))?;
        out.push(SourceFile { rel, text });
    }
    Ok(out)
}

/// Runs the full two-pass analysis over an in-memory file set: per-file
/// rules, cross-file rules, suppression filtering with usage tracking, and
/// the meta-rules X01 (malformed suppression) and X02 (dead suppression).
/// Diagnostics come back in deterministic (file, line, col, rule) order;
/// X02 findings against central `simlint.toml` entries anchor at
/// `simlint.toml:<entry line>`.
pub fn analyze(files: &[SourceFile], config: &Config) -> Vec<Diagnostic> {
    // Pass 1: lex each file once; its per-line view feeds the per-file
    // rules and its tokens the item index.
    let mut scanned: Vec<scan::Scanned> = Vec::with_capacity(files.len());
    let mut raw: Vec<Diagnostic> = Vec::new();
    let mut ws = index::WorkspaceIndex::default();
    for f in files {
        let lexed = tokens::tokenize(&f.text);
        let sc = scan::view(&f.text, &lexed);
        rules::raw_file_rules(&f.rel, &sc, config, &mut raw);
        scanned.push(sc);
        ws.files
            .push((f.rel.clone(), index::index_file(lexed.tokens)));
    }

    // Pass 2: cross-file rules.
    let xa = rules_xfile::run_xfile(&ws, config);
    raw.extend(xa.diags);

    // Suppression filtering with usage tracking. An in-source suppression
    // is consulted first (it is the more specific of the two mechanisms);
    // the central allowlist second. Every (suppression, rule) pairing that
    // actually absorbs a finding is recorded so X02 can report the ones
    // that never do.
    let file_idx = |rel: &str| files.iter().position(|f| f.rel == rel);
    let mut used_inline: BTreeSet<(usize, usize, String)> = BTreeSet::new();
    let mut used_central: BTreeSet<(String, usize)> = BTreeSet::new();
    let mut out: Vec<Diagnostic> = Vec::new();
    for d in raw {
        if let Some(fi) = file_idx(&d.file) {
            if let Some(si) = scanned[fi].suppression_covering(d.rule, d.line) {
                used_inline.insert((fi, si, d.rule.to_owned()));
                continue;
            }
        }
        if let Some(list) = config.allows.get(d.rule) {
            let mut absorbed = false;
            for (ai, a) in list.iter().enumerate() {
                if config::path_prefix(&d.file, &a.path) {
                    used_central.insert((d.rule.to_owned(), ai));
                    absorbed = true;
                }
            }
            if absorbed {
                continue;
            }
        }
        out.push(d);
    }

    // X01: malformed suppressions, unsuppressable by design.
    for (f, sc) in files.iter().zip(&scanned) {
        rules::rule_x01(&f.rel, sc, &mut out);
    }

    // X02: suppressions that matched nothing. Each is a stale claim about
    // the code — the violation it excused is gone — so it must go too.
    for (fi, (f, sc)) in files.iter().zip(&scanned).enumerate() {
        for (si, s) in sc.suppressions.iter().enumerate() {
            if s.reason.is_none() || s.rules.is_empty() {
                continue; // X01's department
            }
            for rule in &s.rules {
                if !used_inline.contains(&(fi, si, rule.clone())) {
                    out.push(Diagnostic {
                        file: f.rel.clone(),
                        line: s.line,
                        col: 1,
                        rule: "X02",
                        message: format!(
                            "dead suppression: `simlint: allow({rule})` here matched zero \
                             {rule} findings"
                        ),
                        fix: "delete the stale allow (or narrow it to the rules that still \
                              fire on this line)"
                            .to_owned(),
                    });
                }
            }
        }
    }
    for (rule, list) in &config.allows {
        for (ai, a) in list.iter().enumerate() {
            // line 0 marks entries built in code (unit tests), which have
            // no simlint.toml line to point at.
            if a.line == 0 || used_central.contains(&(rule.clone(), ai)) {
                continue;
            }
            out.push(Diagnostic {
                file: "simlint.toml".to_owned(),
                line: a.line,
                col: 1,
                rule: "X02",
                message: format!(
                    "dead suppression: central allow for {rule} on `{}` matched zero findings",
                    a.path
                ),
                fix: "delete the stale [allow] entry".to_owned(),
            });
        }
    }
    for (ri, reg) in config.registries.iter().enumerate() {
        for (ei, e) in reg.exempt.iter().enumerate() {
            if xa.used_exempts.contains(&(ri, ei)) {
                continue;
            }
            out.push(Diagnostic {
                file: "simlint.toml".to_owned(),
                line: e.line,
                col: 1,
                rule: "X02",
                message: format!(
                    "dead suppression: registry `{}` exempt \"{}\" excused no member",
                    reg.id, e.name
                ),
                fix: "delete the stale exempt entry".to_owned(),
            });
        }
    }
    for hi in &xa.dead_hotpath {
        let hp = &config.hotpath[*hi];
        out.push(Diagnostic {
            file: "simlint.toml".to_owned(),
            line: hp.line,
            col: 1,
            rule: "X02",
            message: format!(
                "dead hotpath entry: `{}#{}` matched no function (moved or renamed?)",
                hp.path, hp.func
            ),
            fix: "update the [hotpath] entry to the function's new location".to_owned(),
        });
    }

    out.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    out
}

/// Lints every `.rs` file under `root/crates` and `root/tests`, returning
/// diagnostics in deterministic (file, line, col) order.
pub fn run(root: &Path, config: &Config) -> Result<Vec<Diagnostic>, String> {
    Ok(analyze(&load_files(root, config)?, config))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(rel: &str, text: &str) -> SourceFile {
        SourceFile {
            rel: rel.to_owned(),
            text: text.to_owned(),
        }
    }

    #[test]
    fn analyze_applies_in_source_suppressions() {
        let files = [file(
            "tests/x.rs",
            "use std::sync::Mutex; // simlint: allow(D03) -- serializes test output\n\
             fn f() {}\n",
        )];
        let diags = analyze(&files, &Config::default());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn analyze_reports_dead_in_source_suppression_as_x02() {
        let files = [file(
            "tests/x.rs",
            "// simlint: allow(D03) -- nothing here uses a mutex any more\nfn f() {}\n",
        )];
        let diags = analyze(&files, &Config::default());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "X02");
        assert_eq!(diags[0].line, 1);
        assert!(diags[0].message.contains("allow(D03)"), "{:?}", diags[0]);
    }

    #[test]
    fn analyze_reports_partially_dead_multi_rule_suppression() {
        // D03 fires (Mutex), D02 does not — the D02 half is dead.
        let files = [file(
            "tests/x.rs",
            "use std::sync::Mutex; // simlint: allow(D03, D02) -- lock for test output\n",
        )];
        let diags = analyze(&files, &Config::default());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "X02");
        assert!(diags[0].message.contains("allow(D02)"), "{:?}", diags[0]);
    }

    #[test]
    fn analyze_reports_dead_central_allow_at_its_toml_line() {
        let toml = "[allow.D02]\n\"crates/core/src/quiet.rs\" = \"legacy timing shim\"\n";
        let config = Config::parse(toml).unwrap();
        let files = [file("crates/core/src/quiet.rs", "fn f() {}\n")];
        let diags = analyze(&files, &config);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "X02");
        assert_eq!(diags[0].file, "simlint.toml");
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn analyze_live_central_allow_is_not_x02() {
        let toml = "[allow.D02]\n\"crates/core/src/timed.rs\" = \"timing shim\"\n";
        let config = Config::parse(toml).unwrap();
        let files = [file(
            "crates/core/src/timed.rs",
            "fn f() { let t = Instant::now(); let _ = t; }\n",
        )];
        let diags = analyze(&files, &config);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn analyze_x01_still_fires_and_is_not_x02() {
        let files = [file(
            "tests/x.rs",
            "use std::sync::Mutex; // simlint: allow(D03)\n",
        )];
        let diags = analyze(&files, &Config::default());
        // Malformed: X01 plus the unsuppressed D03 — but no X02.
        let rules: Vec<_> = diags.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&"X01"), "{diags:?}");
        assert!(rules.contains(&"D03"), "{diags:?}");
        assert!(!rules.contains(&"X02"), "{diags:?}");
    }

    #[test]
    fn analyze_runs_cross_file_rules_and_suppressions_cover_them() {
        let toml = "[hotpath]\nfunctions = [\"crates/core/src/hot.rs#hot\"]\n";
        let config = Config::parse(toml).unwrap();
        let files = [file(
            "crates/core/src/hot.rs",
            "fn hot(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n",
        )];
        let diags = analyze(&files, &config);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "P02");
        assert_eq!(diags[0].line, 2);

        let suppressed = [file(
            "crates/core/src/hot.rs",
            "fn hot(x: Option<u8>) -> u8 {\n    // simlint: allow(P02) -- x checked by caller\n    x.unwrap()\n}\n",
        )];
        let diags = analyze(&suppressed, &config);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn analyze_reports_dead_exempt_and_dead_hotpath() {
        let toml = "[registry.zoo]\ntable = \"crates/core/src/k.rs#zoo\"\ntests = [\"tests\"]\n\n\
                    [registry.zoo.exempt]\n\"ghost\" = \"never excuses anything\"\n\n\
                    [hotpath]\nfunctions = [\"crates/core/src/k.rs#no_such_fn\"]\n";
        let config = Config::parse(toml).unwrap();
        let files = [
            file("crates/core/src/k.rs", "zoo! { \"lru\" => Lru(Lru); }\n"),
            file("tests/t.rs", "fn t() { let _ = Lru::new(); }\n"),
        ];
        let diags = analyze(&files, &config);
        let x02: Vec<_> = diags.iter().filter(|d| d.rule == "X02").collect();
        assert_eq!(x02.len(), 2, "{diags:?}");
        assert!(x02.iter().all(|d| d.file == "simlint.toml"));
        assert!(x02.iter().any(|d| d.message.contains("\"ghost\"")));
        assert!(x02.iter().any(|d| d.message.contains("no_such_fn")));
    }
}
