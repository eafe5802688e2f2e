//! `jbof-bench`: one two-clock benchmark of the Gimbal JBOF simulator with
//! a from-outside per-layer cost ledger. See `jbof_bench/README.md`.
//!
//! ```text
//! jbof-bench --workload W --seed N --seconds S --trace 0|1   (driver form)
//! jbof-bench run   <workload|all> [--seed N] [--reps R] [--quick] [--out FILE]
//! jbof-bench trace <workload|all> [--seed N] [--quick] [--out FILE]
//! jbof-bench compare A.json B.json [--model-change]
//! jbof-bench list
//! ```

#![deny(unsafe_code)]

mod alloc;
mod compare;
mod e2e;
mod json;
mod layers;
mod report;
mod sim;
mod spec;
#[cfg(test)]
mod tests;
mod timing;
mod trace;
mod workloads;
mod wrapped;

use e2e::Reps;
use json::Json;
use std::process::ExitCode;
use workloads::{Length, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

fn usage() -> ExitCode {
    eprintln!(
        "usage: jbof-bench --workload W --seed N --seconds S --trace 0|1\n\
         \x20      jbof-bench run   <workload|all> [--seed N] [--reps R] [--quick] [--out FILE]\n\
         \x20      jbof-bench trace <workload|all> [--seed N] [--quick] [--out FILE]\n\
         \x20      jbof-bench compare A.json B.json [--model-change]\n\
         \x20      jbof-bench list\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    ExitCode::from(2)
}

/// Flags after the subcommand. Unknown flags and malformed values are
/// errors: input from outside the program is checked where it enters.
#[derive(Default)]
struct Flags {
    positional: Vec<String>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    reps: Option<usize>,
    quick: bool,
    out: Option<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--workload" => f.workload = Some(value(a)?),
            "--seed" => f.seed = Some(value(a)?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value(a)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                f.seconds = Some(s);
            }
            "--trace" => {
                f.trace = Some(match value(a)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--reps" => {
                let n: usize = value(a)?.parse().map_err(|e| format!("--reps: {e}"))?;
                if !(1..=100).contains(&n) {
                    return Err("--reps must be in 1..=100".into());
                }
                f.reps = Some(n);
            }
            "--quick" => f.quick = true,
            "--out" => f.out = Some(value(a)?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => f.positional.push(a.clone()),
        }
    }
    Ok(f)
}

fn targets(name: &str) -> Result<Vec<Workload>, String> {
    if name == "all" {
        Ok(Workload::ALL.to_vec())
    } else {
        Workload::parse(name)
            .map(|w| vec![w])
            .ok_or_else(|| format!("unknown workload {name}"))
    }
}

/// One workload in this process: end-to-end pass (`traced == false`) or
/// traced pass. Returns the workload's JSON entry.
fn one(w: Workload, seed: u64, length: Length, reps: Reps, traced: bool) -> Result<Json, String> {
    if traced {
        let t = trace::run(w, seed, length, reps)?;
        report::print_trace(&t);
        Ok(report::trace_json(&t))
    } else {
        let e = e2e::run(w, seed, length, reps).map_err(|bad| bad.join("\n"))?;
        report::print_e2e(&e);
        Ok(report::e2e_json(&e))
    }
}

/// `run`/`trace` subcommands. `all` re-executes this binary once per
/// workload so peak RSS (and allocator state) is per workload.
fn subcommand(mode: &str, f: &Flags) -> Result<(), String> {
    let traced = mode == "trace";
    let [target] = f.positional.as_slice() else {
        return Err(format!("{mode} takes exactly one workload (or `all`)"));
    };
    let ws = targets(target)?;
    let seed = f.seed.unwrap_or(42);
    let length = if f.quick { Length::Quick } else { Length::Full };
    let reps = Reps::Count(f.reps.unwrap_or(if f.quick { 2 } else { 5 }));
    let mut entries = Vec::new();
    if let [w] = ws.as_slice() {
        entries.push(one(*w, seed, length, reps, traced)?);
    } else {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let dir = report::out_dir()?;
        for w in ws {
            let part = dir.join(format!(".{mode}-{}.part.json", w.name()));
            let mut cmd = std::process::Command::new(&exe);
            cmd.arg(mode)
                .arg(w.name())
                .arg("--seed")
                .arg(seed.to_string());
            if let Some(r) = f.reps {
                cmd.arg("--reps").arg(r.to_string());
            }
            if f.quick {
                cmd.arg("--quick");
            }
            let status = cmd
                .arg("--out")
                .arg(&part)
                .status()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            if !status.success() {
                return Err(format!("{mode} {} failed ({status})", w.name()));
            }
            let text = std::fs::read_to_string(&part).map_err(|e| e.to_string())?;
            let doc = json::parse(&text)?;
            entries.extend(doc.get("workloads").map_or(&[][..], Json::as_arr).to_vec());
            let _ = std::fs::remove_file(&part);
        }
    }
    if let Some(out) = &f.out {
        let doc = report::document(mode, seed, f.quick, entries);
        std::fs::write(out, doc.pretty()).map_err(|e| format!("write {out}: {e}"))?;
        eprintln!("{mode} report -> {out}");
    }
    Ok(())
}

/// The driver's form: one workload, one pass, one JSON line last on stdout.
fn driver(f: &Flags) -> Result<(), String> {
    let name = f.workload.as_deref().ok_or("--workload is required")?;
    let w = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = f.seed.ok_or("--seed is required")?;
    let seconds = f.seconds.ok_or("--seconds is required")?;
    let traced = f.trace.ok_or("--trace is required")?;
    let entry = one(w, seed, Length::Full, Reps::Seconds(seconds), traced)?;
    println!("{}", report::driver_line(&entry, traced)?.compact());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(first) = args.first() else {
        return usage();
    };
    let result = match first.as_str() {
        "list" => {
            print!("{}", report::list().pretty());
            Ok(())
        }
        "compare" => match args.as_slice() {
            [_, a, b] => compare::run(a, b, false),
            [_, a, b, flag] if flag == "--model-change" => compare::run(a, b, true),
            _ => Err("compare takes two report files and, optionally, --model-change".into()),
        },
        "run" | "trace" => parse_flags(&args[1..]).and_then(|f| subcommand(first, &f)),
        flag if flag.starts_with("--") => parse_flags(&args).and_then(|f| {
            if f.positional.is_empty() {
                driver(&f)
            } else {
                Err(format!("unexpected argument {}", f.positional[0]))
            }
        }),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("jbof-bench: {e}");
            ExitCode::FAILURE
        }
    }
}
