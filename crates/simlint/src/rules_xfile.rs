//! Pass 2: cross-file rules over the workspace item index.
//!
//! | rule | meaning |
//! |------|---------|
//! | R04  | registry member not exercised by the differential-test leg |
//! | R05  | registry member not referenced by the figure-suite leg |
//! | P01  | heap allocation in a `[hotpath]` function |
//! | P02  | panicking call (`unwrap`/`expect`/`panic!`…) in a `[hotpath]` function |
//! | P03  | panicking (unchecked) indexing in a `[hotpath]` function |
//! | P04  | `dyn` dispatch in a `[hotpath]` function |
//!
//! The R-rules walk every `[registry.<id>]` in `simlint.toml`, read its
//! members from the rows of its `table` macro invocation, and require each
//! member to appear on the test and figure legs; a missing reference is an
//! error anchored at the member's table row, naming the leg it is missing
//! from.
//! `[registry.<id>.exempt]` entries excuse a member from the reference
//! legs (R04/R05) with a mandatory reason; unused exemptions are dead
//! suppressions (X02, reported by the engine in `lib.rs`).
//!
//! The P-rules are deliberately lexical: they scan the token span of each
//! function named in `[hotpath]` (matched by path prefix + name, skipping
//! `mod tests`), not a call graph. Helpers a hot function calls must be
//! listed themselves — the `[hotpath]` list *is* the audited hot-path
//! inventory. `assert!`/`debug_assert!` are deliberately not P02: guarded
//! indexing with an assert naming the invariant is this repo's sanctioned
//! idiom (the differential batteries run with asserts on).

use crate::config::{path_prefix, Config, Registry};
use crate::diag::Diagnostic;
use crate::index::{FileIndex, FnDef, WorkspaceIndex};
use crate::tokens::TokKind;

/// Raw cross-file findings plus the bookkeeping the dead-suppression rule
/// needs.
#[derive(Debug, Default)]
pub struct XfileAnalysis {
    /// Raw (pre-suppression) diagnostics.
    pub diags: Vec<Diagnostic>,
    /// `(registry index, exempt index)` pairs that excused a member.
    pub used_exempts: Vec<(usize, usize)>,
    /// Indices into `config.hotpath` that matched no function.
    pub dead_hotpath: Vec<usize>,
}

/// Runs every cross-file rule.
pub fn run_xfile(ws: &WorkspaceIndex, config: &Config) -> XfileAnalysis {
    let mut out = XfileAnalysis::default();
    for (ri, reg) in config.registries.iter().enumerate() {
        check_registry(ws, reg, ri, &mut out);
    }
    check_hotpaths(ws, config, &mut out);
    out
}

fn push(
    out: &mut Vec<Diagnostic>,
    file: &str,
    line: usize,
    rule: &'static str,
    message: String,
    fix: &str,
) {
    out.push(Diagnostic {
        file: file.to_owned(),
        line,
        col: 1,
        rule,
        message,
        fix: fix.to_owned(),
    });
}

// ---------------------------------------------------------------- R-rules

const R_FIX: &str = "reference the member from the leg (a differential test, a figure), \
                     or excuse it with a [registry.<id>.exempt] entry and a reason";

fn check_registry(ws: &WorkspaceIndex, reg: &Registry, ri: usize, out: &mut XfileAnalysis) {
    let Some(table_ref) = &reg.table else {
        return;
    };
    // A table leg that does not resolve is itself drift (someone renamed
    // or moved the table).
    let Some(table) = ws
        .file(&table_ref.path)
        .and_then(|f| f.table(&table_ref.item))
    else {
        push(
            &mut out.diags,
            "simlint.toml",
            reg.line,
            "R04",
            format!(
                "registry `{}`: table `{}!` not found in {} (renamed or moved?)",
                reg.id, table_ref.item, table_ref.path
            ),
            "update the [registry] table to the macro's new name or location",
        );
        return;
    };

    // R04/R05: every member is referenced from the test / figure legs.
    for (rule, leg, leg_name) in [
        ("R04", &reg.tests, "differential-test"),
        ("R05", &reg.figures, "figure-suite"),
    ] {
        if leg.is_empty() {
            continue;
        }
        let files: Vec<&FileIndex> = ws
            .files
            .iter()
            .filter(|(rel, _)| leg.iter().any(|p| path_prefix(rel, p)))
            .map(|(_, f)| f)
            .collect();
        for row in &table.rows {
            let ident_hit = files
                .iter()
                .any(|f| f.idents.contains(&row.variant) || f.idents.contains(&row.payload));
            // Figure tables reference policies by display string
            // ("SRRIP", "Hawkeye"), so R05 also accepts a
            // case-insensitive string-literal match.
            let string_hit = rule == "R05"
                && files.iter().any(|f| {
                    f.strings_lower.contains(&row.name)
                        || f.strings_lower.contains(&row.variant.to_lowercase())
                });
            if ident_hit || string_hit {
                continue;
            }
            if let Some(ei) = reg.exempt.iter().position(|e| e.name == row.name) {
                out.used_exempts.push((ri, ei));
                continue;
            }
            push(
                &mut out.diags,
                &table_ref.path,
                row.line,
                rule,
                format!(
                    "registry `{}`: member \"{}\" (`{}`) is not referenced by the {leg_name} \
                     leg ({})",
                    reg.id,
                    row.name,
                    row.payload,
                    leg.join(", ")
                ),
                R_FIX,
            );
        }
    }
}

// ---------------------------------------------------------------- P-rules

const P01_FIX: &str = "preallocate in the constructor or reuse a scratch buffer owned by the \
                       policy; per-access heap traffic breaks the hot-path contract";
const P02_FIX: &str = "make the invariant explicit without a panic path (unwrap_or, match, \
                       fold); per-access panics hide corruption until deep into a run";
const P03_FIX: &str = "use checked indexing, or keep the assert-guarded pattern and justify \
                       the file once with a central [allow.P03] entry naming the invariant";
const P04_FIX: &str = "use enum dispatch (see core::policy_kind) instead of trait objects on \
                       the per-access path";

/// Containers whose constructors allocate.
const ALLOC_TYPES: [&str; 8] = [
    "Vec", "Box", "String", "BTreeMap", "BTreeSet", "VecDeque", "HashMap", "HashSet",
];
/// Allocating constructor method names on those containers.
const ALLOC_CTORS: [&str; 3] = ["new", "with_capacity", "from"];
/// Allocating methods called on a receiver.
const ALLOC_METHODS: [&str; 5] = ["collect", "to_vec", "to_owned", "to_string", "clone"];
/// Panicking macros (the assert family is deliberately absent — see the
/// module docs).
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

fn check_hotpaths(ws: &WorkspaceIndex, config: &Config, out: &mut XfileAnalysis) {
    for (hi, hp) in config.hotpath.iter().enumerate() {
        let mut matched = false;
        for (rel, fidx) in &ws.files {
            if !path_prefix(rel, &hp.path) {
                continue;
            }
            for f in fidx.fns_named(&hp.func) {
                matched = true;
                check_hot_fn(rel, fidx, f, &mut out.diags);
            }
        }
        if !matched {
            out.dead_hotpath.push(hi);
        }
    }
}

fn check_hot_fn(rel: &str, fidx: &FileIndex, f: &FnDef, diags: &mut Vec<Diagnostic>) {
    let toks = &fidx.tokens;
    let (start, end) = f.tok_range;
    let hot =
        |construct: &str, what: &str| format!("{what} (`{construct}`) in hot-path fn `{}`", f.name);
    for k in start..=end {
        let t = &toks[k];
        let next = toks.get(k + 1);
        let next2 = toks.get(k + 2);
        let prev = (k > start).then(|| &toks[k - 1]);
        match &t.kind {
            TokKind::Ident => {
                let bang = next.is_some_and(|n| n.is_punct('!'));
                // P01: vec!/format! and Type::{new,with_capacity,from}.
                if bang && (t.text == "vec" || t.text == "format") {
                    push(
                        diags,
                        rel,
                        t.line,
                        "P01",
                        hot(&format!("{}!", t.text), "heap allocation"),
                        P01_FIX,
                    );
                } else if ALLOC_TYPES.contains(&t.text.as_str())
                    && next.is_some_and(|n| n.is_punct(':'))
                    && next2.is_some_and(|n| n.is_punct(':'))
                    && toks.get(k + 3).is_some_and(|m| {
                        m.kind == TokKind::Ident && ALLOC_CTORS.contains(&m.text.as_str())
                    })
                {
                    push(
                        diags,
                        rel,
                        t.line,
                        "P01",
                        hot(
                            &format!("{}::{}", t.text, toks[k + 3].text),
                            "heap allocation",
                        ),
                        P01_FIX,
                    );
                } else if bang && PANIC_MACROS.contains(&t.text.as_str()) {
                    push(
                        diags,
                        rel,
                        t.line,
                        "P02",
                        hot(&format!("{}!", t.text), "panicking call"),
                        P02_FIX,
                    );
                } else if t.text == "dyn" {
                    push(
                        diags,
                        rel,
                        t.line,
                        "P04",
                        hot("dyn", "dynamic dispatch"),
                        P04_FIX,
                    );
                } else if prev.is_some_and(|p| p.is_punct('.'))
                    && next.is_some_and(|n| n.is_punct('('))
                {
                    // Method calls: allocating (P01) or panicking (P02).
                    if ALLOC_METHODS.contains(&t.text.as_str()) {
                        push(
                            diags,
                            rel,
                            t.line,
                            "P01",
                            hot(&format!(".{}()", t.text), "heap allocation"),
                            P01_FIX,
                        );
                    } else if t.text == "unwrap" || t.text == "expect" {
                        push(
                            diags,
                            rel,
                            t.line,
                            "P02",
                            hot(&format!(".{}()", t.text), "panicking call"),
                            P02_FIX,
                        );
                    }
                }
            }
            TokKind::Punct('[') => {
                // P03: indexing — `expr[...]` has an identifier, `]`, or
                // `)` immediately before the bracket; array literals and
                // types (`[0u64; N]`, `[&str; N]`, `#[attr]`) do not.
                let indexes = prev.is_some_and(|p| {
                    p.kind == TokKind::Ident || p.is_punct(']') || p.is_punct(')')
                });
                if indexes {
                    push(
                        diags,
                        rel,
                        t.line,
                        "P03",
                        hot("expr[..]", "panicking (unchecked) indexing"),
                        P03_FIX,
                    );
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::index_file;
    use crate::tokens::tokenize;

    fn ws(files: &[(&str, &str)]) -> WorkspaceIndex {
        WorkspaceIndex {
            files: files
                .iter()
                .map(|(rel, src)| ((*rel).to_owned(), index_file(tokenize(src).tokens)))
                .collect(),
        }
    }

    fn cfg(toml: &str) -> Config {
        Config::parse(toml).expect("test config parses")
    }

    const REG_TOML: &str = r#"
[registry.zoo]
table = "a.rs#zoo"
tests = ["t.rs"]
figures = ["g.rs"]
"#;

    const TABLE: &str = r#"
zoo! {
    "lru" => Lru(Lru) = Lru::new();
    "fifo" => Fifo(Fifo) = Fifo::new();
}
"#;

    #[test]
    fn consistent_registry_is_clean() {
        let w = ws(&[
            ("a.rs", TABLE),
            ("t.rs", "fn t() { let _ = (Lru::new(), Fifo::new()); }"),
            ("g.rs", "fn g() { plot(\"LRU\", \"FIFO\"); }"),
        ]);
        let a = run_xfile(&w, &cfg(REG_TOML));
        assert!(a.diags.is_empty(), "{:?}", a.diags);
    }

    #[test]
    fn r04_requires_test_leg_reference() {
        let w = ws(&[
            ("a.rs", TABLE),
            ("t.rs", "fn t() { Lru::new(); }"), // Fifo untested
            ("g.rs", "fn g() { plot(\"lru\", \"fifo\"); }"),
        ]);
        let a = run_xfile(&w, &cfg(REG_TOML));
        let r04: Vec<_> = a.diags.iter().filter(|d| d.rule == "R04").collect();
        assert_eq!(r04.len(), 1, "{:?}", a.diags);
        assert!(r04[0].message.contains("\"fifo\""));
        assert_eq!(
            (r04[0].file.as_str(), r04[0].line),
            ("a.rs", 4),
            "at the row"
        );
    }

    #[test]
    fn r05_accepts_case_insensitive_strings_and_exempts() {
        // Figures reference LRU only by display string; fifo not at all.
        let w = ws(&[
            ("a.rs", TABLE),
            ("t.rs", "fn t() { Lru::new(); Fifo::new(); }"),
            ("g.rs", "fn g() { plot(\"LRU\"); }"),
        ]);
        let a = run_xfile(&w, &cfg(REG_TOML));
        let r05: Vec<_> = a.diags.iter().filter(|d| d.rule == "R05").collect();
        assert_eq!(r05.len(), 1, "{:?}", a.diags);
        assert!(r05[0].message.contains("\"fifo\""));

        let exempted = format!("{REG_TOML}\n[registry.zoo.exempt]\n\"fifo\" = \"not plotted\"\n");
        let a = run_xfile(&w, &cfg(&exempted));
        assert!(a.diags.iter().all(|d| d.rule != "R05"), "{:?}", a.diags);
        assert_eq!(a.used_exempts, vec![(0, 0)]);
    }

    #[test]
    fn unresolved_legs_are_reported() {
        let w = ws(&[("a.rs", TABLE)]);
        for toml in [
            "[registry.zoo]\ntable = \"a.rs#no_such\"\ntests = [\"t.rs\"]\n",
            "[registry.zoo]\ntable = \"missing.rs#zoo\"\ntests = [\"t.rs\"]\n",
        ] {
            let a = run_xfile(&w, &cfg(toml));
            assert_eq!(a.diags.len(), 1, "{:?}", a.diags);
            assert_eq!(
                (a.diags[0].rule, a.diags[0].file.as_str()),
                ("R04", "simlint.toml")
            );
        }
    }

    const HOT_TOML: &str = "[hotpath]\nfunctions = [\"h.rs#hot\"]\n";

    #[test]
    fn p01_flags_allocation_forms() {
        let src = "fn hot() {\n    let v: Vec<u8> = Vec::new();\n    let s = format!(\"x\");\n    let c = xs.iter().map(f).collect();\n}\n";
        let a = run_xfile(&ws(&[("h.rs", src)]), &cfg(HOT_TOML));
        let p01: Vec<_> = a.diags.iter().filter(|d| d.rule == "P01").collect();
        assert_eq!(p01.len(), 3, "{:?}", a.diags);
    }

    #[test]
    fn p02_flags_panics_but_not_asserts() {
        let src = "fn hot(x: Option<u8>) {\n    assert!(true, \"fine\");\n    let _ = x.unwrap();\n    let _ = x.expect(\"boom\");\n    panic!(\"no\");\n}\n";
        let a = run_xfile(&ws(&[("h.rs", src)]), &cfg(HOT_TOML));
        let p02: Vec<_> = a.diags.iter().filter(|d| d.rule == "P02").collect();
        assert_eq!(p02.len(), 3, "{:?}", a.diags);
    }

    #[test]
    fn p03_flags_indexing_but_not_literals() {
        let src = "fn hot(xs: &[u64], i: usize) -> u64 {\n    let a = [0u64; 4];\n    let t: [u8; 2] = [1, 2];\n    xs[i] + a[0] + u64::from(t[1])\n}\n";
        let a = run_xfile(&ws(&[("h.rs", src)]), &cfg(HOT_TOML));
        let p03: Vec<_> = a.diags.iter().filter(|d| d.rule == "P03").collect();
        assert_eq!(p03.len(), 3, "{:?}", a.diags);
        assert!(p03.iter().all(|d| d.line == 4), "{:?}", p03);
    }

    #[test]
    fn p04_flags_dyn() {
        let src = "fn hot(p: &dyn Policy) { p.tick(); }\n";
        let a = run_xfile(&ws(&[("h.rs", src)]), &cfg(HOT_TOML));
        assert_eq!(a.diags.iter().filter(|d| d.rule == "P04").count(), 1);
    }

    #[test]
    fn hotpath_skips_test_mods_and_reports_dead_entries() {
        let src = "fn cold() {}\nmod tests {\n    fn hot() { let v = Vec::new(); let _ = v; }\n}\n";
        let a = run_xfile(&ws(&[("h.rs", src)]), &cfg(HOT_TOML));
        assert!(a.diags.is_empty(), "{:?}", a.diags);
        assert_eq!(a.dead_hotpath, vec![0], "test-mod fn does not count");
    }

    #[test]
    fn hotpath_dir_prefix_matches_many_files() {
        let toml = "[hotpath]\nfunctions = [\"pol#tick\"]\n";
        let w = ws(&[
            ("pol/a.rs", "fn tick() { let b = Box::new(1); let _ = b; }"),
            ("pol/b.rs", "fn tick() {}"),
        ]);
        let a = run_xfile(&w, &cfg(toml));
        assert_eq!(a.diags.iter().filter(|d| d.rule == "P01").count(), 1);
        assert!(a.dead_hotpath.is_empty());
    }
}
