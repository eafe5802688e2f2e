//! The `figures` binary's argument handling.

use std::process::Command;

fn figures(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("figures binary runs")
}

#[test]
fn unknown_name_prints_usage_and_exits_2() {
    let out = figures(&["no_such_figure"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: figures"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "nothing runs on a usage error");
}

#[test]
fn list_names_every_registered_entry() {
    let out = figures(&["list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let names: Vec<&str> = gimbal_bench::figs::ALL.iter().map(|(n, _)| *n).collect();
    assert_eq!(stdout.lines().collect::<Vec<_>>(), names);
}
