//! Output: the human-readable tables, the `--out` JSON documents, the
//! driver's result line and the `list` document.

use crate::e2e::{quartiles, E2e};
use crate::json::Json;
use crate::spec::{self, END_TO_END, PER_LAYER};
use crate::trace::Trace;
use crate::workloads::{Length, Workload};
use std::path::PathBuf;

/// Where span files and `run all`'s per-workload parts go; created on
/// first use. Relative to the working directory, which is the repo root.
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from("jbof_bench/out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|e| e.name == name)
        .map(|e| e.unit)
        .or_else(|| PER_LAYER.iter().find(|p| p.name == name).map(|p| p.unit))
        .unwrap_or("")
}

fn metrics_json(metrics: impl Iterator<Item = (&'static str, f64)>) -> Json {
    Json::Obj(
        metrics
            .map(|(name, v)| {
                (
                    name.to_string(),
                    Json::obj(vec![
                        ("value", Json::Num(v)),
                        ("unit", Json::str(unit_of(name))),
                    ]),
                )
            })
            .collect(),
    )
}

fn spread_json(xs: &[f64]) -> Json {
    let (q1, med, q3) = quartiles(xs);
    Json::obj(vec![
        ("min", Json::Num(crate::e2e::min(xs))),
        ("q1", Json::Num(q1)),
        ("median", Json::Num(med)),
        ("q3", Json::Num(q3)),
        ("max", Json::Num(xs.iter().copied().fold(0.0, f64::max))),
        ("n", Json::Num(xs.len() as f64)),
    ])
}

fn header(w: Workload, seed: u64, length: Length, digest: u64) -> Vec<(&'static str, Json)> {
    let (d, wu) = w.sim_ms();
    let div = if length == Length::Quick { 10 } else { 1 };
    vec![
        ("name", Json::str(w.name())),
        ("engine", Json::str(w.engine())),
        (
            "clients",
            Json::str(format!("closed loop: {}", w.clients())),
        ),
        ("seed", Json::Num(seed as f64)),
        ("sim_ms", Json::Num((d / div) as f64)),
        ("warmup_ms", Json::Num((wu / div) as f64)),
        ("stats_digest", Json::str(format!("{digest:#018x}"))),
    ]
}

/// Samples of the tenant behind a worst-tenant p99 (0 = none reported).
fn p99_samples(p: Option<crate::sim::WorstP99>) -> u64 {
    p.map_or(0, |p| p.samples)
}

pub fn e2e_json(e: &E2e) -> Json {
    let mut f = header(e.workload, e.seed, e.length, e.sim.digest);
    f.extend([
        ("reps", Json::Num(e.rep_secs.len() as f64)),
        ("host_secs", spread_json(&e.rep_secs)),
        ("setup_secs", spread_json(&e.setup_secs)),
        ("attempted", Json::Num(e.sim.attempted as f64)),
        ("failed", Json::Num(e.sim.failed as f64)),
        (
            "read_p99_samples",
            Json::Num(p99_samples(e.sim.read_p99()) as f64),
        ),
        (
            "write_p99_samples",
            Json::Num(p99_samples(e.sim.write_p99()) as f64),
        ),
        ("metrics", metrics_json(e.metrics.iter().copied())),
    ]);
    Json::obj(f)
}

pub fn print_e2e(e: &E2e) {
    let (q1, med, q3) = quartiles(&e.rep_secs);
    println!(
        "== {} (seed {}, {} via public run(); closed loop: {}) ==",
        e.workload.name(),
        e.seed,
        e.workload.engine(),
        e.workload.clients()
    );
    println!(
        "gates green; {} identical repetitions (stats digest {:#018x}); telemetry, sanitizer, submission recording off",
        e.rep_secs.len(),
        e.sim.digest
    );
    println!(
        "host seconds per repetition: min {:.3}  q1 {q1:.3}  median {med:.3}  q3 {q3:.3}",
        e.best_secs()
    );
    println!(
        "worst-tenant p99 samples: {} reads, {} writes; attempted {}, failed {}",
        p99_samples(e.sim.read_p99()),
        p99_samples(e.sim.write_p99()),
        e.sim.attempted,
        e.sim.failed
    );
    for &(name, v) in &e.metrics {
        let clock = match spec::end_to_end(name).map(|e| e.clock) {
            Some(spec::Clock::Host) => "host",
            _ => "sim ",
        };
        println!("  [{clock}] {name:<22} {v:>14.4} {}", unit_of(name));
    }
    println!("model unvalidated by this benchmark: no accuracy figure — see EXPERIMENTS.md for paper-vs-measured");
}

pub fn trace_json(t: &Trace) -> Json {
    let mut f = header(t.workload, t.seed, t.length, t.sim.digest);
    f.extend([
        ("untraced_secs", spread_json(&t.untraced_secs)),
        ("traced_secs", spread_json(&t.traced_secs)),
        ("span_overhead_ns", Json::Num(t.span_overhead_ns)),
        ("attempted", Json::Num(t.sim.attempted as f64)),
        ("failed", Json::Num(t.sim.failed as f64)),
        ("metrics", metrics_json(t.metrics.iter().copied())),
        (
            "sources",
            Json::Obj(
                t.sources
                    .iter()
                    .map(|(n, s)| (n.to_string(), Json::str(s.name())))
                    .collect(),
            ),
        ),
        (
            "ledger",
            Json::Arr(
                t.ledger
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("layer", Json::str(r.layer)),
                            ("host_ns", Json::Num(r.ns.round())),
                            ("share", Json::Num(r.ns / t.run_host_ns)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("notes", Json::Arr(t.notes.iter().map(Json::str).collect())),
        ("span_file", Json::str(t.span_file.display().to_string())),
    ]);
    Json::obj(f)
}

pub fn print_trace(t: &Trace) {
    println!(
        "== trace {} (seed {}, {}) ==",
        t.workload.name(),
        t.seed,
        t.workload.engine()
    );
    println!(
        "span_overhead_ns {:.1}; untraced min {:.3} s, {} min {:.3} s; both digests equal",
        t.span_overhead_ns,
        crate::e2e::min(&t.untraced_secs),
        if t.workload == Workload::KvYcsbA {
            "second untraced pass (the KV engine has no trace switch)"
        } else {
            "traced"
        },
        crate::e2e::min(&t.traced_secs)
    );
    let value = |name: &str| t.metrics.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
    let mut layer = "";
    for (name, unit, _) in spec::driver_per_layer() {
        if spec::layer_of(name) != layer {
            layer = spec::layer_of(name);
            println!("  {layer}");
        }
        let source = t.sources.iter().find(|(n, _)| *n == name);
        match (value(name), source) {
            (Some(v), Some((_, s))) => println!("    {name:<36} {v:>14.4} {unit}  [{}]", s.name()),
            (Some(v), None) => println!("    {name:<36} {v:>14.4} {unit}"),
            (None, Some(_)) => println!(
                "    {name:<36} {:>14} (refused: under {} timed calls, or the replay missed the run's counters)",
                "-",
                spec::MIN_TIMED_CALLS
            ),
            (None, None) => println!("    {name:<36} {:>14} (layer idle or no meaning here)", "-"),
        }
    }
    if !t.ledger.is_empty() {
        println!(
            "  ledger: share of the fastest untraced run's host time ({:.3} s)",
            t.run_host_ns / 1e9
        );
        for r in &t.ledger {
            let note = if r.layer == "testbed" {
                "  (remainder: engine glue nobody has measured)"
            } else {
                ""
            };
            println!(
                "    {:<10} {:>6.1} %{note}",
                r.layer,
                100.0 * r.ns / t.run_host_ns
            );
        }
    }
    for note in &t.notes {
        println!("  note: {note}");
    }
    println!("  spans -> {}", t.span_file.display());
}

/// The `--out` document of `run`/`trace`.
pub fn document(mode: &str, seed: u64, quick: bool, entries: Vec<Json>) -> Json {
    Json::obj(vec![
        ("bench", Json::str("jbof_bench")),
        ("mode", Json::str(mode)),
        ("seed", Json::Num(seed as f64)),
        ("quick", Json::Bool(quick)),
        (
            "note",
            Json::str("model unvalidated by this benchmark; paper-vs-measured tables live in EXPERIMENTS.md"),
        ),
        ("workloads", Json::Arr(entries)),
    ])
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`. Untraced, `metrics` holds every published end-to-end metric;
/// one without a value is an error, never a 0. Traced, it holds every
/// `BENCHMARK.json` per-layer metric, and one whose layer is idle on the
/// workload (or that has no meaning there) reads 0, because the driver
/// wants every name on every workload.
pub fn driver_line(entry: &Json, traced: bool) -> Result<Json, String> {
    let value = |name: &str| {
        entry
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
    };
    let mut metrics = Vec::new();
    if traced {
        for (name, _, _) in spec::driver_per_layer() {
            metrics.push((name, value(name).unwrap_or(0.0)));
        }
    } else {
        for e in END_TO_END.iter().filter(|e| e.published) {
            let v = value(e.name).ok_or_else(|| format!("{} has no value", e.name))?;
            metrics.push((e.name, v));
        }
    }
    let count = |key: &str| {
        entry
            .get(key)
            .cloned()
            .ok_or_else(|| format!("the report has no `{key}`"))
    };
    Ok(Json::obj(vec![
        // Reaching this line means every correctness gate passed.
        ("correct", Json::Bool(true)),
        ("attempted", count("attempted")?),
        ("failed", count("failed")?),
        ("metrics", metrics_json(metrics.into_iter())),
    ]))
}

/// What `list` prints: the part of `BENCHMARK.json` the binary owns, then
/// what that file's schema has no room for — each end-to-end metric's
/// definition and, per layer metric, the `[end-to-end metric, workload]`
/// pairs it should move (no change predicted anywhere else).
pub fn list() -> Json {
    Json::obj(vec![
        ("workloads", spec::workloads_json()),
        ("end_to_end", spec::end_to_end_json()),
        ("per_layer", spec::per_layer_json()),
        (
            "end_to_end_table",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|e| {
                        let on: Vec<Json> = Workload::ALL
                            .iter()
                            .filter(|w| e.on.includes(**w))
                            .map(|w| Json::str(w.name()))
                            .collect();
                        Json::obj(vec![
                            ("name", Json::str(e.name)),
                            ("unit", Json::str(e.unit)),
                            ("better", Json::str(e.better.name())),
                            ("same_seed_bound", Json::str(format!("{:?}", e.bound))),
                            ("across_seeds_bound", Json::Num(e.seed_bound)),
                            ("in_benchmark_json", Json::Bool(e.published)),
                            ("workloads", Json::Arr(on)),
                            ("definition", Json::str(e.definition)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "should_move",
            Json::Obj(
                PER_LAYER
                    .iter()
                    .map(|p| {
                        let pairs = p
                            .moves
                            .iter()
                            .map(|(m, w)| Json::Arr(vec![Json::str(*m), Json::str(*w)]))
                            .collect();
                        (p.name.to_string(), Json::Arr(pairs))
                    })
                    .collect(),
            ),
        ),
    ])
}
