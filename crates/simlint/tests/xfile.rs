//! Fixture tests for the cross-file rules: for every R/P rule a violating
//! fixture workspace is caught, an excused one is silent, and the clean
//! one produces nothing — plus the X02 dead-suppression meta-rule in both
//! its in-source and central forms.
//!
//! Unlike `tests/rules.rs` (which feeds single files through
//! [`simlint::lint_source`]), these build small in-memory workspaces and
//! run the full [`simlint::analyze`] engine, so suppression accounting and
//! registry legs spanning several files are exercised end to end.

use simlint::{analyze, Config, Diagnostic, SourceFile};

/// The registry legs every reg_* fixture resolves against.
const REG_TOML: &str = r#"
[registry.zoo]
table = "crates/core/src/reg.rs#zoo"
tests = ["tests/battery.rs"]
figures = ["crates/bench/src/figures.rs"]
"#;

const HOT_TOML: &str = "[hotpath]\nfunctions = [\"crates/core/src/hot.rs#hot\"]\n";

fn file(rel: &str, text: &str) -> SourceFile {
    SourceFile {
        rel: rel.to_owned(),
        text: text.to_owned(),
    }
}

/// Analyzes a registry fixture together with the given leg files.
fn analyze_registry(
    reg_src: &str,
    tests_leg: &str,
    figures_leg: &str,
    toml: &str,
) -> Vec<Diagnostic> {
    let files = [
        file("crates/core/src/reg.rs", reg_src),
        file("tests/battery.rs", tests_leg),
        file("crates/bench/src/figures.rs", figures_leg),
    ];
    analyze(&files, &Config::parse(toml).expect("fixture config parses"))
}

fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
    let mut r: Vec<&'static str> = diags.iter().map(|d| d.rule).collect();
    r.sort_unstable();
    r.dedup();
    r
}

const TESTS_LEG: &str = include_str!("fixtures/xfile/reg_tests_leg.rs");
const FIGURES_LEG: &str = include_str!("fixtures/xfile/reg_figures_leg.rs");

#[test]
fn consistent_registry_workspace_is_clean() {
    let diags = analyze_registry(
        include_str!("fixtures/xfile/reg_clean.rs"),
        TESTS_LEG,
        FIGURES_LEG,
        REG_TOML,
    );
    assert!(diags.is_empty(), "{}", simlint::render_text(&diags));
}

#[test]
fn r04_hit_and_exempted() {
    let hit = analyze_registry(
        include_str!("fixtures/xfile/reg_clean.rs"),
        include_str!("fixtures/xfile/reg_tests_leg_thin.rs"),
        FIGURES_LEG,
        REG_TOML,
    );
    assert_eq!(rules_of(&hit), vec!["R04"], "{hit:?}");
    assert!(hit[0].message.contains("\"fifo\""), "{:?}", hit[0]);

    // The sanctioned escape hatch is a [registry.<id>.exempt] entry; a
    // used exemption is silent and does NOT count as a dead suppression.
    let toml = format!("{REG_TOML}\n[registry.zoo.exempt]\n\"fifo\" = \"fixture: control only\"\n");
    let exempted = analyze_registry(
        include_str!("fixtures/xfile/reg_clean.rs"),
        include_str!("fixtures/xfile/reg_tests_leg_thin.rs"),
        FIGURES_LEG,
        &toml,
    );
    assert!(exempted.is_empty(), "{exempted:?}");
}

#[test]
fn r05_hit_and_exempted() {
    let hit = analyze_registry(
        include_str!("fixtures/xfile/reg_clean.rs"),
        TESTS_LEG,
        include_str!("fixtures/xfile/reg_figures_leg_thin.rs"),
        REG_TOML,
    );
    assert_eq!(rules_of(&hit), vec!["R05"], "{hit:?}");
    assert!(hit[0].message.contains("\"fifo\""), "{:?}", hit[0]);

    let toml = format!("{REG_TOML}\n[registry.zoo.exempt]\n\"fifo\" = \"fixture: not plotted\"\n");
    let exempted = analyze_registry(
        include_str!("fixtures/xfile/reg_clean.rs"),
        TESTS_LEG,
        include_str!("fixtures/xfile/reg_figures_leg_thin.rs"),
        &toml,
    );
    assert!(exempted.is_empty(), "{exempted:?}");
}

/// Analyzes a hot-path fixture under a config that marks `hot` hot.
fn analyze_hot(src: &str) -> Vec<Diagnostic> {
    let files = [file("crates/core/src/hot.rs", src)];
    analyze(
        &files,
        &Config::parse(HOT_TOML).expect("fixture config parses"),
    )
}

#[test]
fn p01_hit_suppressed_clean() {
    let hit = analyze_hot(include_str!("fixtures/xfile/p01_hit.rs"));
    assert_eq!(rules_of(&hit), vec!["P01"], "{hit:?}");
    assert!(hit[0].message.contains("hot-path fn `hot`"), "{:?}", hit[0]);
    let suppressed = analyze_hot(include_str!("fixtures/xfile/p01_suppressed.rs"));
    assert!(suppressed.is_empty(), "{suppressed:?}");
    let clean = analyze_hot(include_str!("fixtures/xfile/p01_clean.rs"));
    assert!(clean.is_empty(), "{clean:?}");
}

#[test]
fn p02_hit_suppressed_clean() {
    let hit = analyze_hot(include_str!("fixtures/xfile/p02_hit.rs"));
    assert_eq!(rules_of(&hit), vec!["P02"], "{hit:?}");
    let suppressed = analyze_hot(include_str!("fixtures/xfile/p02_suppressed.rs"));
    assert!(suppressed.is_empty(), "{suppressed:?}");
    let clean = analyze_hot(include_str!("fixtures/xfile/p02_clean.rs"));
    assert!(clean.is_empty(), "{clean:?}");
}

#[test]
fn p03_hit_suppressed_clean() {
    let hit = analyze_hot(include_str!("fixtures/xfile/p03_hit.rs"));
    assert_eq!(rules_of(&hit), vec!["P03"], "{hit:?}");
    let suppressed = analyze_hot(include_str!("fixtures/xfile/p03_suppressed.rs"));
    assert!(suppressed.is_empty(), "{suppressed:?}");
    let clean = analyze_hot(include_str!("fixtures/xfile/p03_clean.rs"));
    assert!(clean.is_empty(), "{clean:?}");
}

#[test]
fn p03_central_allow_silences_and_counts_as_used() {
    let toml = format!(
        "{HOT_TOML}[allow.P03]\n\"crates/core/src/hot.rs\" = \"fixture: index asserted\"\n"
    );
    let files = [file(
        "crates/core/src/hot.rs",
        include_str!("fixtures/xfile/p03_hit.rs"),
    )];
    let diags = analyze(&files, &Config::parse(&toml).expect("config parses"));
    // Silent: the P03 is absorbed AND the central entry is live (no X02).
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn p04_hit_suppressed_clean() {
    let hit = analyze_hot(include_str!("fixtures/xfile/p04_hit.rs"));
    assert_eq!(rules_of(&hit), vec!["P04"], "{hit:?}");
    let suppressed = analyze_hot(include_str!("fixtures/xfile/p04_suppressed.rs"));
    assert!(suppressed.is_empty(), "{suppressed:?}");
    let clean = analyze_hot(include_str!("fixtures/xfile/p04_clean.rs"));
    assert!(clean.is_empty(), "{clean:?}");
}

#[test]
fn x02_hit_and_clean() {
    // In-source: a well-formed allow whose violation is gone is reported
    // at the allow's own line.
    let files = [file(
        "tests/fixture.rs",
        include_str!("fixtures/xfile/x02_hit.rs"),
    )];
    let hit = analyze(&files, &Config::default());
    assert_eq!(rules_of(&hit), vec!["X02"], "{hit:?}");
    assert_eq!(hit[0].file, "tests/fixture.rs");
    assert!(hit[0].message.contains("allow(D03)"), "{:?}", hit[0]);

    let files = [file(
        "tests/fixture.rs",
        include_str!("fixtures/xfile/x02_clean.rs"),
    )];
    let clean = analyze(&files, &Config::default());
    assert!(clean.is_empty(), "{clean:?}");
}

#[test]
fn x02_cannot_be_suppressed() {
    // Wrapping the dead allow in an allow(X02) must not silence it: the
    // meta-rules are unsuppressable by design, so the X02 still surfaces
    // (and the allow(X02) is itself reported as dead).
    let src = "// simlint: allow(X02) -- trying to hide the stale allow\n\
               // simlint: allow(D03) -- fixture: the mutex is long gone\n\
               fn quiet() {}\n";
    let files = [file("tests/fixture.rs", src)];
    let diags = analyze(&files, &Config::default());
    assert!(
        diags.iter().any(|d| d.rule == "X02" && d.line == 2),
        "the dead D03 allow must surface: {diags:?}"
    );
}
