//! Black-box test of the `btbsim` binary: it parses `--policy` against the
//! whole policy vocabulary, runs every named policy over a real trace file,
//! and rejects an unknown name with the usage exit code.
//!
//! The traces come from the `tracegen` binary, so the test drives the same
//! file path a user does: generate, then simulate.

use std::path::PathBuf;
use std::process::{Command, Output};

use thermometer::pipeline::POLICY_NAMES;
use thermometer::PolicyKind;

use btb_model::ReplacementPolicy;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("btbsim-cli-tests").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Writes a small kafka trace for `input` with `tracegen`.
fn tracegen(dir: &std::path::Path, input: u32) -> PathBuf {
    let path = dir.join(format!("kafka{input}.btbt"));
    let out = Command::new(env!("CARGO_BIN_EXE_tracegen"))
        .args(["app", "kafka", "--input", &input.to_string()])
        .args(["--records", "20000", "--out"])
        .arg(&path)
        .output()
        .expect("spawn tracegen");
    assert!(out.status.success(), "tracegen failed: {out:?}");
    path
}

fn btbsim(args: &[&str], trace: &std::path::Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_btbsim"))
        .arg(trace)
        .args(args)
        .output()
        .expect("spawn btbsim")
}

#[test]
fn every_policy_name_runs_and_reports_in_order() {
    let dir = scratch("all-policies");
    let train = tracegen(&dir, 0);
    let test = tracegen(&dir, 1);
    let all = POLICY_NAMES.join(",");
    let train = train.to_str().expect("utf-8 path");
    let out = btbsim(
        &["--policy", &all, "--profile", train, "--threads", "2"],
        &test,
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    let labels: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("policy "))
        .map(str::trim)
        .collect();
    let expected: Vec<&str> = POLICY_NAMES
        .iter()
        .map(|n| PolicyKind::by_name(n).expect("vocabulary name").name())
        .collect();
    assert_eq!(labels, expected, "one report per name, in the order given");
}

#[test]
fn unknown_policy_exits_2_and_lists_the_vocabulary() {
    let dir = scratch("unknown-policy");
    let test = tracegen(&dir, 1);
    let out = btbsim(&["--policy", "nosuch"], &test);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(stderr.contains("unknown policy nosuch"), "{stderr}");
    assert!(stderr.contains(&POLICY_NAMES.join(", ")), "{stderr}");
}

#[test]
fn misspelled_valueless_and_stray_arguments_exit_2_in_btbsim_and_tracegen() {
    let dir = scratch("bad-args");
    let test = tracegen(&dir, 1);
    for (args, named) in [
        (&["--polcy", "opt", "--entires", "1024"][..], "--polcy"),
        (&["--policy"], "--policy"),
        (&["lru"], "\"lru\""),
    ] {
        let out = btbsim(args, &test);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "btbsim {args:?}: {stderr}");
        assert!(stderr.contains(named), "btbsim {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "btbsim {args:?} simulated anyway");
    }

    let out_file = dir.join("bad.btbt");
    let out_path = out_file.to_str().expect("utf-8 path");
    for (args, named) in [
        (
            &["app", "kafka", "--recods", "1000", "--out", out_path][..],
            "--recods",
        ),
        (
            &["app", "kafka", "--out", out_path, "--records"],
            "--records",
        ),
        (&["app", "kafka", "python", "--out", out_path], "\"python\""),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_tracegen"))
            .args(args)
            .output()
            .expect("spawn tracegen");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "tracegen {args:?}: {stderr}");
        assert!(stderr.contains(named), "tracegen {args:?}: {stderr}");
        assert!(!out_file.exists(), "tracegen {args:?} wrote a trace anyway");
    }
}

#[test]
fn the_test_trace_error_is_reported_before_the_profile_error() {
    let dir = scratch("load-errors");
    let missing_test = dir.join("no-test.btbt");
    let missing_train = dir.join("no-train.btbt");
    let test = tracegen(&dir, 1);
    for threads in ["1", "2"] {
        let train = missing_train.to_str().expect("utf-8 path");
        let args = [
            "--policy",
            "thermometer",
            "--profile",
            train,
            "--threads",
            threads,
        ];

        let out = btbsim(&args, &missing_test);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "both missing: {stderr}");
        assert!(
            stderr.contains("no-test.btbt") && !stderr.contains("no-train.btbt"),
            "both missing, --threads {threads}: {stderr}"
        );

        let out = btbsim(&args, &test);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "profile missing: {stderr}");
        assert!(
            stderr.contains("no-train.btbt"),
            "profile missing, --threads {threads}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "simulated without its profile");
    }
}

#[test]
fn thread_count_does_not_change_the_report() {
    // stdout and stderr alike, with and without a profile file, for one
    // hinted policy and for lists mixing hinted and hint-free ones.
    let dir = scratch("thread-count");
    let train = tracegen(&dir, 0);
    let test = tracegen(&dir, 1);
    let train = train.to_str().expect("utf-8 path");
    for args in [
        &["--policy", "thermometer", "--profile", train][..],
        &["--policy", "lru,opt,thermometer", "--profile", train],
        &["--policy", "lru,srrip,opt,thermometer", "--profile", train],
        &["--policy", "lru,opt,thermometer"],
        &["--policy", "thermometer"],
        &["--policy", "lru,srrip,opt"],
    ] {
        let run = |threads| {
            let out = btbsim(&[args, &["--threads", threads]].concat(), &test);
            assert_eq!(
                out.status.code(),
                Some(0),
                "{args:?} --threads {threads}: {out:?}"
            );
            (out.stdout, out.stderr)
        };
        let serial = run("1");
        assert!(!serial.0.is_empty(), "{args:?}: no report");
        for threads in ["2", "3"] {
            assert!(
                serial == run(threads),
                "{args:?}: --threads {threads} changed the report"
            );
        }
    }
}

#[test]
fn the_profile_line_counts_the_train_file_records() {
    // The train side never builds a trace, but it still reports how many
    // records the profile read: every record of the file, taken or not.
    let dir = scratch("profile-line");
    let train = tracegen(&dir, 0);
    let test = tracegen(&dir, 1);
    let train = train.to_str().expect("utf-8 path");
    for (args, note) in [
        (
            &["--policy", "lru,thermometer", "--profile", train][..],
            false,
        ),
        (&["--policy", "lru,thermometer"], true),
    ] {
        let out = btbsim(args, &test);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        let lines: Vec<&str> = stderr.lines().collect();
        let profiled = lines.last().expect("a profile line");
        assert!(
            profiled.starts_with("profiled 20000 branches -> ") && profiled.ends_with(" hinted"),
            "{args:?}: {stderr}"
        );
        assert_eq!(lines.len(), 1 + usize::from(note), "{args:?}: {stderr}");
    }
    // Hint-free policies need no profile: nothing on stderr.
    let out = btbsim(&["--policy", "lru,opt", "--profile", train], &test);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(out.stderr.is_empty(), "{out:?}");
}
