//! `simlint --self-check`: proves the analyzer still catches what it
//! claims to catch.
//!
//! A linter fails silently — a rule that rots just stops reporting, and a
//! clean run looks identical to a blind one. The self-check guards against
//! that: it loads the real workspace, verifies the baseline is clean, then
//! applies a battery of seeded mutations to an *in-memory copy* of the
//! files (adding a ghost row to a registry table, planting an allocation
//! in a hot-path function, appending a dead suppression) and
//! asserts each mutation is caught by exactly the intended rule. Nothing
//! on disk is touched.
//!
//! The mutation sites are located through the same item index the rules
//! use, so the battery does not rot when registries gain members or files
//! move: the ghost row is cloned from whatever the table's first row
//! currently is.

use crate::config::{Config, HotPathFn};
use crate::index::index_file;
use crate::tokens::tokenize;
use crate::{analyze, SourceFile};
use std::collections::BTreeSet;
use std::path::Path;

/// One seeded mutation: a file set + config that must produce exactly
/// `expect` rule ids.
struct Mutation {
    name: &'static str,
    files: Vec<SourceFile>,
    config: Config,
    expect: &'static [&'static str],
}

/// Runs the self-check against the workspace at `root`. `Ok(failures)`
/// lists what went wrong (empty = pass); `Err` is an I/O-level problem.
pub fn self_check(root: &Path, config: &Config) -> Result<Vec<String>, String> {
    let files = crate::load_files(root, config)?;
    Ok(self_check_files(&files, config))
}

/// The in-memory core of the self-check, also used by the test battery.
pub fn self_check_files(files: &[SourceFile], config: &Config) -> Vec<String> {
    let mut failures = Vec::new();

    let baseline = analyze(files, config);
    if !baseline.is_empty() {
        let first = &baseline[0];
        failures.push(format!(
            "baseline is not clean ({} finding(s); first: {}:{}: {}: {}); fix the tree \
             before trusting seeded-mutation results",
            baseline.len(),
            first.file,
            first.line,
            first.rule,
            first.message
        ));
        return failures;
    }

    let mut mutations: Vec<Mutation> = Vec::new();
    build_ghost_row(files, config, &mut mutations, &mut failures);
    build_hotpath_seeds(files, config, &mut mutations);
    build_dead_suppression_seed(files, config, &mut mutations, &mut failures);

    for m in &mutations {
        let got = analyze(&m.files, &m.config);
        let got_rules: BTreeSet<&str> = got.iter().map(|d| d.rule).collect();
        let want: BTreeSet<&str> = m.expect.iter().copied().collect();
        if got_rules != want {
            let listing: Vec<String> = got
                .iter()
                .map(|d| format!("{}:{}: {}: {}", d.file, d.line, d.rule, d.message))
                .collect();
            failures.push(format!(
                "mutation `{}`: expected exactly {:?}, got {:?} ({})",
                m.name,
                m.expect,
                got_rules,
                if listing.is_empty() {
                    "no findings".to_owned()
                } else {
                    listing.join("; ")
                }
            ));
        }
    }
    failures
}

fn find_file<'a>(files: &'a [SourceFile], rel: &str) -> Option<&'a SourceFile> {
    files.iter().find(|f| f.rel == rel)
}

/// Replaces 1-based `line` of `text` through `edit`.
fn edit_line(text: &str, line: usize, edit: impl FnOnce(&str) -> String) -> String {
    let mut lines: Vec<String> = text.split('\n').map(str::to_owned).collect();
    if let Some(l) = lines.get_mut(line - 1) {
        *l = edit(l);
    }
    lines.join("\n")
}

fn with_edited(files: &[SourceFile], rel: &str, text: String) -> Vec<SourceFile> {
    files
        .iter()
        .map(|f| {
            if f.rel == rel {
                SourceFile {
                    rel: f.rel.clone(),
                    text: text.clone(),
                }
            } else {
                f.clone()
            }
        })
        .collect()
}

/// Adds a ghost member to the first configured registry's table: a copy of
/// the first row under a new name, variant and payload. Nothing references
/// it, so it must trip exactly R04 and R05.
fn build_ghost_row(
    files: &[SourceFile],
    config: &Config,
    out: &mut Vec<Mutation>,
    failures: &mut Vec<String>,
) {
    let Some(table_ref) = config.registries.first().and_then(|r| r.table.as_ref()) else {
        failures.push(
            "no [registry.<id>] table configured; the R-rule battery has nothing to mutate"
                .to_owned(),
        );
        return;
    };
    let Some((file, row)) = find_file(files, &table_ref.path).and_then(|f| {
        let row = index_file(tokenize(&f.text).tokens)
            .table(&table_ref.item)?
            .rows
            .first()?
            .clone();
        Some((f, row))
    }) else {
        failures.push(format!(
            "cannot locate a row of table `{}#{}` to mutate",
            table_ref.path, table_ref.item
        ));
        return;
    };
    let mutated = edit_line(&file.text, row.line, |l| {
        let ghost = l
            .replacen(&format!("\"{}\"", row.name), "\"selfcheck-ghost\"", 1)
            .replacen(&format!("{}(", row.variant), "SelfCheckGhost(", 1)
            .replacen(&format!("({}", row.payload), "(SelfCheckGhostPolicy", 1);
        format!("{ghost}\n{l}")
    });
    out.push(Mutation {
        name: "ghost-table-row",
        files: with_edited(files, &table_ref.path, mutated),
        config: config.clone(),
        expect: &["R04", "R05"],
    });
}

/// Plants one violation per P-rule in a synthetic hot-path function. The
/// seed file and its `[hotpath]` entry exist only in the mutated copy, so
/// the check is independent of which real files carry P-rule allows.
fn build_hotpath_seeds(files: &[SourceFile], config: &Config, out: &mut Vec<Mutation>) {
    const SEED_REL: &str = "crates/selfcheck-seed/src/lib.rs";
    let seeds: [(&'static str, &'static [&'static str], &str); 4] = [
        (
            "seed-hotpath-allocation",
            &["P01"],
            "pub fn __seed() -> usize {\n    let v: Vec<u8> = Vec::new();\n    v.len()\n}\n",
        ),
        (
            "seed-hotpath-panic",
            &["P02"],
            "pub fn __seed(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n",
        ),
        (
            "seed-hotpath-indexing",
            &["P03"],
            "pub fn __seed(xs: &[u8]) -> u8 {\n    xs[0]\n}\n",
        ),
        (
            "seed-hotpath-dyn",
            &["P04"],
            "pub fn __seed(p: &dyn std::any::Any) -> bool {\n    p.is::<u8>()\n}\n",
        ),
    ];
    for (name, expect, body) in seeds {
        let mut mutated = files.to_vec();
        mutated.push(SourceFile {
            rel: SEED_REL.to_owned(),
            text: body.to_owned(),
        });
        let mut cfg = config.clone();
        cfg.hotpath.push(HotPathFn {
            path: SEED_REL.to_owned(),
            func: "__seed".to_owned(),
            line: 0,
        });
        out.push(Mutation {
            name,
            files: mutated,
            config: cfg,
            expect,
        });
    }
}

/// Appends a suppression that can match nothing; X02 must flag it.
fn build_dead_suppression_seed(
    files: &[SourceFile],
    config: &Config,
    out: &mut Vec<Mutation>,
    failures: &mut Vec<String>,
) {
    let Some(target) = files.first() else {
        failures.push("empty file set; nothing to seed a dead suppression into".to_owned());
        return;
    };
    let mutated = format!(
        "{}\n// simlint: allow(D02) -- self-check seeded dead suppression\n",
        target.text.trim_end_matches('\n')
    );
    out.push(Mutation {
        name: "seed-dead-suppression",
        files: with_edited(files, &target.rel, mutated),
        config: config.clone(),
        expect: &["X02"],
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature but fully wired workspace: registry legs, test and
    /// figure references, one hot-path function.
    fn mini_workspace() -> (Vec<SourceFile>, Config) {
        let reg_src = "\
zoo! {
    \"lru\" => Lru(Lru) = Lru::new();
    \"fifo\" => Fifo(Fifo) = Fifo::new();
}
pub fn hot(xs: &[u64]) -> u64 {
    let mut acc = 0;
    for &x in xs.iter() {
        acc += x;
    }
    acc
}
";
        let files = vec![
            SourceFile {
                rel: "crates/z/src/lib.rs".into(),
                text: reg_src.into(),
            },
            SourceFile {
                rel: "tests/t.rs".into(),
                text: "fn t() { let _ = (Lru::new(), Fifo::new()); }\n".into(),
            },
            SourceFile {
                rel: "crates/fig/src/lib.rs".into(),
                text: "fn g() { plot(\"LRU\", \"FIFO\"); }\n".into(),
            },
        ];
        let toml = "\
[registry.zoo]
table = \"crates/z/src/lib.rs#zoo\"
tests = [\"tests/t.rs\"]
figures = [\"crates/fig\"]

[hotpath]
functions = [\"crates/z/src/lib.rs#hot\"]
";
        (files, Config::parse(toml).unwrap())
    }

    #[test]
    fn clean_wired_workspace_passes() {
        let (files, config) = mini_workspace();
        let failures = self_check_files(&files, &config);
        assert!(failures.is_empty(), "{failures:#?}");
    }

    #[test]
    fn dirty_baseline_is_reported_not_mutated() {
        let (mut files, config) = mini_workspace();
        files[0]
            .text
            .push_str("fn extra(x: Option<u8>) -> u8 { x.unwrap() }\n");
        // unwrap outside the hot fn is fine; make it dirty for real:
        files[0].text.push_str("use std::time::Instant;\n");
        let failures = self_check_files(&files, &config);
        assert_eq!(failures.len(), 1, "{failures:#?}");
        assert!(
            failures[0].contains("baseline is not clean"),
            "{failures:#?}"
        );
    }

    #[test]
    fn a_lobotomized_config_fails_the_battery() {
        // Without the registry the R-mutations have nothing to catch.
        let (files, _) = mini_workspace();
        let config =
            Config::parse("[hotpath]\nfunctions = [\"crates/z/src/lib.rs#hot\"]\n").unwrap();
        let failures = self_check_files(&files, &config);
        assert!(
            failures.iter().any(|f| f.contains("no [registry")),
            "{failures:#?}"
        );
    }
}
