//! Workspace self-check: the repository must lint clean under its own
//! static-analysis tool, using the checked-in `simlint.toml`. This is the
//! executable form of the determinism contract — any new `HashMap` with a
//! default hasher, stray `Instant::now()`, ad-hoc thread, undocumented
//! env knob, naked `unsafe`, or unjustified `#[allow]` fails CI here.

use std::path::Path;

#[test]
fn workspace_is_lint_clean() {
    // This test is hosted by crates/simlint, so the workspace root is two
    // levels up from its manifest dir.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let config = simlint::load_config(&root).expect("simlint.toml parses");
    let diags = simlint::run(&root, &config).expect("workspace walk succeeds");
    assert!(
        diags.is_empty(),
        "workspace has unsuppressed lint findings:\n{}",
        simlint::render_text(&diags)
    );
}

#[test]
fn a_ghost_policy_row_fails_the_lint() {
    // The registry rules' reason to exist: add a member to the real
    // `policies!` table (in memory — the tree is untouched) without a
    // differential test or a figure for it, and both legs must flag it. If
    // this test fails, a policy can join the zoo untested and unplotted.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let config = simlint::load_config(&root).expect("simlint.toml parses");
    let mut files = simlint::load_files(&root, &config).expect("workspace walk succeeds");
    let table = files
        .iter_mut()
        .find(|f| f.rel == "crates/core/src/policy_kind.rs")
        .expect("the policy table is in the walk");
    assert!(
        table.text.contains("\npolicies! {\n"),
        "table invocation present"
    );
    table.text = table.text.replace(
        "\npolicies! {\n",
        "\npolicies! {\n    \"ghost\" => Ghost(GhostPolicy) = GhostPolicy::new(), hints: false;\n",
    );
    let diags = simlint::analyze(&files, &config);
    let rules: Vec<&str> = diags.iter().map(|d| d.rule).collect();
    assert_eq!(
        rules,
        ["R04", "R05"],
        "a ghost row must trip exactly R04 and R05:\n{}",
        simlint::render_text(&diags)
    );
    assert!(
        diags.iter().all(|d| d.message.contains("\"ghost\"")),
        "{}",
        simlint::render_text(&diags)
    );
}

#[test]
fn self_check_battery_passes_on_the_real_workspace() {
    // The seeded-mutation battery (simlint --self-check) must hold against
    // the checked-in tree: baseline clean, and every seeded defect caught
    // by exactly the expected rules.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let config = simlint::load_config(&root).expect("simlint.toml parses");
    let failures = simlint::selfcheck::self_check(&root, &config).expect("workspace walk succeeds");
    assert!(failures.is_empty(), "self-check failures: {failures:#?}");
}

#[test]
fn policy_zoo_additions_are_lint_clean() {
    // Fixture-style pin on the sources added with the TRRIP + multilevel
    // hierarchy work: each must pass the determinism/safety rules on its
    // own, so a future edit cannot hide behind a broadened allowlist.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let config = simlint::load_config(&root).expect("simlint.toml parses");
    for rel in [
        "crates/btb/src/policies/trrip.rs",
        "crates/btb/src/multilevel.rs",
        "crates/btb/src/storage.rs",
        "crates/bench/src/figures/extensions.rs",
        "crates/bench/tests/figure_goldens.rs",
        "tests/multilevel_properties.rs",
    ] {
        let text = std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| {
            panic!("cannot read {rel}: {e}");
        });
        let diags = simlint::lint_source(rel, &text, &config);
        assert!(
            diags.is_empty(),
            "{rel} has unsuppressed lint findings:\n{}",
            simlint::render_text(&diags)
        );
    }
}

#[test]
fn central_allowlist_entries_all_carry_reasons() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let config = simlint::load_config(&root).expect("simlint.toml parses");
    for (rule, allows) in &config.allows {
        for a in allows {
            assert!(
                !a.reason.trim().is_empty(),
                "allow for {rule} at {} lacks a reason",
                a.path
            );
            assert!(
                root.join(&a.path).exists(),
                "allow for {rule} points at a missing path: {}",
                a.path
            );
        }
    }
}

#[test]
fn fixture_violations_are_real() {
    // Guard against the exclusion list rotting: the excluded fixtures must
    // actually contain violations the workspace walk would otherwise flag.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let config = simlint::load_config(&root).expect("simlint.toml parses");
    let fixtures = root.join("crates/simlint/tests/fixtures");
    for (name, rel, rule) in [
        ("d01_hit.rs", "crates/btb/src/f.rs", "D01"),
        ("d02_hit.rs", "crates/core/src/f.rs", "D02"),
        ("d03_hit.rs", "tests/f.rs", "D03"),
        ("d04_hit.rs", "crates/bench/src/f.rs", "D04"),
        ("s01_hit.rs", "crates/core/src/f.rs", "S01"),
        ("s02_hit.rs", "crates/core/src/f.rs", "S02"),
    ] {
        let text = std::fs::read_to_string(fixtures.join(name)).expect(name);
        let diags = simlint::lint_source(rel, &text, &config);
        assert!(
            diags.iter().any(|d| d.rule == rule),
            "{name} should trip {rule}"
        );
    }
}
