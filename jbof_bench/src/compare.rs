//! `jbof-bench compare A.json B.json [--model-change]`: apply each
//! metric's bound per (metric, workload), one workload per row. B is judged
//! against A.
//!
//! * Every end-to-end metric gets a verdict from its bound: ISSUE.md's when
//!   the seeds match, the looser across-seeds bound when they differ.
//!   A host metric beyond its bound reads `unresolved`, not `worse` or
//!   `better`, when either side's quartile spread exceeds the bound or the
//!   two sides' repetitions overlap.
//! * Simulated metrics and counts repeat exactly per seed, so when the seeds
//!   match they must also be *equal*: a change meant only to speed the
//!   simulator up must leave them bit-identical. `--model-change` waives
//!   that for a change that means to move them; the bounds still apply.

use crate::json::{self, Json};
use crate::spec::{self, Better, Bound, Clock, PER_LAYER};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How a metric is judged.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Rule {
    /// May worsen by the bound; the name is the per-repetition timing block
    /// whose quartiles decide `unresolved`.
    Bounded(Better, Bound, Option<&'static str>),
    /// A layer's count or simulated-clock value: no bound of its own, any
    /// difference is reported by direction.
    Count(Better),
    /// Host ns per call and the like: printed by `trace`, never judged.
    Info,
}

/// Whether a metric repeats exactly per seed.
fn exact_per_seed(name: &str) -> bool {
    match spec::end_to_end(name) {
        Some(e) => e.clock == Clock::Sim,
        None => matches!(rule(name, true), Rule::Count(_)),
    }
}

fn rule(name: &str, seeds_match: bool) -> Rule {
    if let Some(e) = spec::end_to_end(name) {
        // Across seeds the looser of the two bounds applies. An absolute
        // bound stays: `failed_share` is 0 on most workloads.
        let bound = match (seeds_match, e.bound) {
            (true, b) | (false, b @ Bound::Abs(_)) => b,
            (false, Bound::Rel(r)) => Bound::Rel(r.max(e.seed_bound)),
            (false, Bound::RelOrAbs(r, x)) => Bound::RelOrAbs(r.max(e.seed_bound), x),
        };
        let block = match name {
            "host_kops_per_s" => Some("host_secs"),
            "setup_s" => Some("setup_secs"),
            _ => None,
        };
        return Rule::Bounded(e.better, bound, block);
    }
    let Some(p) = PER_LAYER.iter().find(|p| p.name == name) else {
        return Rule::Info;
    };
    let host_clock = p.unit == "ns" || p.unit == "%" || name == "testbed.ledger_attributed_share";
    if seeds_match && !host_clock {
        Rule::Count(p.better)
    } else {
        Rule::Info
    }
}

/// Signed change of `b` against `a` in the metric's unit, positive = worse.
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    }
}

/// One field of a per-repetition timing block.
fn timing(entry: &Json, block: &str, field: &str) -> Option<f64> {
    entry.get(block)?.get(field)?.as_f64()
}

/// Quartile spread `(q3 − q1) / median` of a timing block.
fn spread(entry: &Json, block: &str) -> f64 {
    let get = |k: &str| timing(entry, block, k);
    match (get("q1"), get("median"), get("q3")) {
        (Some(q1), Some(med), Some(q3)) if med > 0.0 => (q3 - q1) / med,
        _ => 0.0,
    }
}

/// Whether the two sides' repetitions overlap: the faster side's slowest
/// was no faster than the slower side's fastest. Then the difference
/// between them is no larger than what either run saw within itself.
fn overlap(ea: &Json, eb: &Json, block: &str) -> bool {
    let range = |e: &Json| Some((timing(e, block, "min")?, timing(e, block, "max")?));
    match (range(ea), range(eb)) {
        (Some((a_min, a_max)), Some((b_min, b_max))) => a_min <= b_max && b_min <= a_max,
        _ => false,
    }
}

pub fn judge(
    name: &str,
    seeds_match: bool,
    a: f64,
    b: f64,
    ea: &Json,
    eb: &Json,
) -> Option<Verdict> {
    let by_sign = |w: f64, tol: f64| {
        if w > tol {
            Verdict::Worse
        } else if w < -tol {
            Verdict::Better
        } else {
            Verdict::Same
        }
    };
    match rule(name, seeds_match) {
        Rule::Info => None,
        Rule::Count(better) => Some(by_sign(worsening(better, a, b), 0.0)),
        Rule::Bounded(better, bound, block) => {
            let tol = bound.around(a);
            let verdict = by_sign(worsening(better, a, b), tol);
            let noisy = block.is_some_and(|k| {
                spread(ea, k).max(spread(eb, k)) * a.abs() > tol || overlap(ea, eb, k)
            });
            Some(if noisy && verdict != Verdict::Same {
                Verdict::Unresolved
            } else {
                verdict
            })
        }
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn value(entry: &Json, name: &str) -> Option<f64> {
    entry.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Compare two `run` (or two `trace`) reports. `Err` when B is worse
/// anywhere, a metric is missing, or — seeds matching and `model_change`
/// unset — a metric that repeats exactly per seed differs.
pub fn run(path_a: &str, path_b: &str, model_change: bool) -> Result<(), String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let workloads = |d: &Json| {
        d.get("workloads")
            .map_or(Vec::new(), |w| w.as_arr().to_vec())
    };
    let in_b = workloads(&b);
    let mut failures = 0usize;
    for ea in workloads(&a) {
        let name = ea
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let Some(eb) = in_b
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some(&name))
        else {
            println!("{name:<14} missing from {path_b}");
            failures += 1;
            continue;
        };
        let seed = |e: &Json| e.get("seed").and_then(Json::as_f64);
        let seeds_match = seed(&ea).is_some() && seed(&ea) == seed(eb);
        let must_equal = seeds_match && !model_change;
        let mut row = format!("{name:<14}");
        let mut counts = [0usize; 4];
        let mut unequal = 0usize;
        for (metric, _) in ea.get("metrics").map_or(&[][..], Json::as_obj) {
            let (Some(va), Some(vb)) = (value(&ea, metric), value(eb, metric)) else {
                row.push_str(&format!(" {metric}=missing"));
                failures += 1;
                continue;
            };
            let Some(v) = judge(metric, seeds_match, va, vb, &ea, eb) else {
                continue;
            };
            counts[v as usize] += 1;
            let differs = must_equal && va != vb && exact_per_seed(metric);
            if v != Verdict::Same || differs {
                let tag = if differs && v == Verdict::Same {
                    "unequal"
                } else {
                    v.name()
                };
                row.push_str(&format!(" {metric}={tag}({va:.6}->{vb:.6})"));
            }
            unequal += usize::from(differs);
            failures += usize::from(v == Verdict::Worse || differs);
        }
        println!(
            "{row}  [{} same, {} worse, {} better, {} unresolved{}]",
            counts[Verdict::Same as usize],
            counts[Verdict::Worse as usize],
            counts[Verdict::Better as usize],
            counts[Verdict::Unresolved as usize],
            match (seeds_match, model_change) {
                (true, false) =>
                    format!("; seeds match: sim and counts must be equal, {unequal} are not"),
                (true, true) => "; seeds match, model change: ISSUE bounds apply".into(),
                (false, _) => "; seeds differ: across-seeds bounds apply".into(),
            },
        );
    }
    if failures == 0 {
        Ok(())
    } else {
        Err(format!(
            "{failures} metric(s) worse, missing, or unequal where equality is required"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report entry whose repetitions took `min..=max` host seconds.
    fn entry(min: f64, q1: f64, med: f64, q3: f64, max: f64) -> Json {
        Json::obj(vec![(
            "host_secs",
            Json::obj(vec![
                ("min", Json::Num(min)),
                ("q1", Json::Num(q1)),
                ("median", Json::Num(med)),
                ("q3", Json::Num(q3)),
                ("max", Json::Num(max)),
            ]),
        )])
    }

    fn flat() -> Json {
        entry(1.0, 1.0, 1.0, 1.0, 1.0)
    }

    #[test]
    fn sim_metrics_get_the_issue_bound_on_matching_seeds() {
        let e = flat();
        let j = |name, same, a, b| judge(name, same, a, b, &e, &e).unwrap();
        assert_eq!(j("sim_kiops", true, 100.0, 100.0), Verdict::Same);
        // 2 % on the same seed; any difference is also `unequal` in `run`.
        assert_eq!(j("sim_kiops", true, 100.0, 99.0), Verdict::Same);
        assert_eq!(j("sim_kiops", true, 100.0, 97.0), Verdict::Worse);
        assert_eq!(j("sim_read_p99_us", true, 100.0, 90.0), Verdict::Better);
        assert!(exact_per_seed("sim_kiops") && exact_per_seed("ssd.ios"));
        assert!(!exact_per_seed("host_kops_per_s") && !exact_per_seed("ssd.submit_ns"));
        // Different seeds: the across-seeds bound applies instead.
        assert_eq!(j("sim_kiops", false, 100.0, 97.0), Verdict::Same);
        assert_eq!(j("sim_kiops", false, 100.0, 70.0), Verdict::Worse);
    }

    #[test]
    fn absolute_bounds_hold_at_zero() {
        let e = flat();
        let j = |name, a, b| judge(name, true, a, b, &e, &e).unwrap();
        assert_eq!(j("failed_share", 0.0, 0.0005), Verdict::Same);
        assert_eq!(j("failed_share", 0.0, 0.002), Verdict::Worse);
        assert_eq!(j("sim_jain", 0.99, 0.985), Verdict::Same);
        assert_eq!(j("sim_jain", 0.99, 0.97), Verdict::Worse);
        // setup_s: 10 % or 0.05 s, whichever is larger.
        assert_eq!(j("setup_s", 0.1, 0.14), Verdict::Same);
        assert_eq!(j("setup_s", 1.0, 1.14), Verdict::Worse);
    }

    #[test]
    fn host_metrics_use_their_bound_spread_and_overlap() {
        let j = |a, b, ea: &Json, eb: &Json| judge("host_kops_per_s", true, a, b, ea, eb).unwrap();
        // Tight repetitions around 1.0 s against tight ones elsewhere.
        let at = |s: f64| entry(0.99 * s, 0.995 * s, s, 1.005 * s, 1.01 * s);
        assert_eq!(j(100.0, 95.0, &at(1.0), &at(1.05)), Verdict::Same);
        assert_eq!(j(100.0, 85.0, &at(1.0), &at(1.18)), Verdict::Worse);
        assert_eq!(j(100.0, 115.0, &at(1.0), &at(0.87)), Verdict::Better);
        // A wide quartile spread on either side leaves it open ...
        let wide = entry(0.7, 0.8, 1.0, 1.2, 1.3);
        assert_eq!(j(100.0, 85.0, &at(0.6), &wide), Verdict::Unresolved);
        // ... and so do repetitions that overlap, however tight the quartiles.
        let tail = entry(1.0, 1.17, 1.18, 1.19, 1.2);
        assert_eq!(
            j(100.0, 85.0, &entry(0.85, 0.86, 0.87, 0.88, 1.05), &tail),
            Verdict::Unresolved
        );
        // Within the bound it is `same` whatever the noise.
        assert_eq!(j(100.0, 95.0, &wide, &wide), Verdict::Same);
    }

    #[test]
    fn host_ns_per_call_is_never_judged() {
        let e = flat();
        assert_eq!(judge("ssd.submit_ns", true, 100.0, 500.0, &e, &e), None);
        assert_eq!(
            judge("ssd.ios", true, 100.0, 101.0, &e, &e),
            Some(Verdict::Better)
        );
        assert_eq!(judge("ssd.ios", false, 100.0, 101.0, &e, &e), None);
    }
}
