//! Regenerates the paper's tables and figures from the [`figs::ALL`]
//! registry.
//!
//! `figures list` prints the registered names. `figures [--quick] NAME…`
//! runs every entry whose name contains one of the NAMEs, in registry
//! order; `all` runs every figure (the claim `scoreboard` only when named).
//! Figure rows go to stdout, per-figure wall time to stderr.
//!
//! [`figs::ALL`]: gimbal_bench::figs::ALL

use gimbal_bench::figs::{ALL, SCOREBOARD};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: figures list
       figures [--quick] NAME...|all

Runs every registered figure whose name contains a NAME (see `figures
list`); `all` runs every figure, `scoreboard` the paper-claim table.
--quick shortens durations and sweeps.";

fn usage(problem: &str) -> ExitCode {
    eprintln!("figures: {problem}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut quick = false;
    let mut names = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            _ if arg.starts_with('-') => return usage(&format!("unknown flag `{arg}`")),
            _ => names.push(arg),
        }
    }
    if names == ["list"] {
        for (name, _) in ALL {
            println!("{name}");
        }
        return ExitCode::SUCCESS;
    }
    if names.is_empty() {
        return usage("no figure named");
    }
    let all = names.iter().any(|n| n == "all");
    let matches = |name: &str| names.iter().any(|n| name.contains(n.as_str()));
    if let Some(unknown) = names
        .iter()
        .find(|n| *n != "all" && !ALL.iter().any(|(name, _)| name.contains(n.as_str())))
    {
        return usage(&format!("no figure matches `{unknown}`"));
    }

    let total = Instant::now();
    for (name, run) in ALL {
        if (all && *name != SCOREBOARD) || matches(name) {
            let t = Instant::now();
            run(quick);
            eprintln!("[{name}: {:.1}s]", t.elapsed().as_secs_f64());
        }
    }
    eprintln!("\n[all figures: {:.1}s]", total.elapsed().as_secs_f64());
    ExitCode::SUCCESS
}
