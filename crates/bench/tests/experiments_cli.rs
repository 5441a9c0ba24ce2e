//! The `experiments` binary rejects what it does not understand before running anything.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments binary runs")
}

#[test]
fn unknown_experiment_exits_2_before_running_anything() {
    let out = experiments(&["tables", "fig99"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "a banner was printed");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("fig99") && err.contains("usage:"), "{err}");
}

#[test]
fn unknown_flag_exits_2() {
    let out = experiments(&["tables", "--teir", "ci"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

#[test]
fn known_experiment_exits_0() {
    let out = experiments(&["tables"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("Tables 1 & 2"));
}
