//! The end-to-end pass: identical repetitions of one workload with
//! telemetry, sanitizer and submission recording off, the correctness
//! gates, and the two-clock metrics.

use crate::sim::{Sim, P99_MIN_SAMPLES};
use crate::spec;
use crate::workloads::{execute, plan, Length, Plan, Raw, Workload};
use gimbal_testbed::{check_run, f_util};
use std::time::Instant;

/// How many repetitions to run.
#[derive(Clone, Copy, Debug)]
pub enum Reps {
    /// A fixed count (`run`: 5, or 2 with `--quick`).
    Count(usize),
    /// As many as fit in this many host seconds, at least two (the driver's
    /// `--seconds`).
    Seconds(f64),
}

/// Zero-length runs timed for `setup_s`. One opens the process (a cold
/// process is not charged to a repetition); the rest follow each
/// repetition, so the samples span the whole run and their median does not
/// hang on how busy the machine was in one short stretch. After each
/// repetition as many run as keep set-up within [`SETUP_SHARE`] of the host
/// time spent so far, at most [`SETUP_BURST`]; at the end the count is made
/// up to [`SETUP_RUNS`].
const SETUP_RUNS: usize = 5;
const SETUP_BURST: usize = 10;
const SETUP_SHARE: f64 = 0.15;

pub struct E2e {
    pub workload: Workload,
    pub seed: u64,
    pub length: Length,
    /// Host seconds of each repetition's whole `run()` call.
    pub rep_secs: Vec<f64>,
    /// Host seconds of each zero-length run.
    pub setup_secs: Vec<f64>,
    /// First repetition's simulated view; the others are digest-identical.
    pub sim: Sim,
    /// Every end-to-end metric that has a meaning on this workload, in
    /// `spec::END_TO_END` order.
    pub metrics: Vec<(&'static str, f64)>,
}

pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// `(q1, median, q3)` by linear interpolation between order statistics.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Standalone peak bandwidth of the workload's distinct fio shapes on the
/// same precondition: the denominators of §5.1's f-Util.
pub fn standalone_peaks(p: &Plan) -> Vec<(String, f64)> {
    let Plan::Fio(cfg, workers) = p else {
        return Vec::new();
    };
    let mut peaks: Vec<(String, f64)> = Vec::new();
    for w in workers {
        if !peaks.iter().any(|(l, _)| *l == w.label) {
            let bw = gimbal_bench::common::standalone_bw(w.fio, cfg.precondition, false);
            peaks.push((w.label.clone(), bw));
        }
    }
    peaks
}

/// Worst tenant's §5.1 f-Util against its group's standalone peak; `None`
/// where no peaks were measured.
pub fn futil_min(sim: &Sim, peaks: &[(String, f64)]) -> Option<f64> {
    let n = sim.tenants.len() as u32;
    sim.tenants
        .iter()
        .filter_map(|t| {
            let (_, peak) = peaks.iter().find(|(l, _)| *l == t.group)?;
            Some(f_util(t.bytes as f64 / t.window_s, *peak, n))
        })
        .reduce(f64::min)
}

/// The correctness gates. Any entry makes `run` exit non-zero.
fn gates(w: Workload, raw: &Raw) -> Vec<String> {
    let mut bad = Vec::new();
    let mut check = |ok: bool, what: &str| {
        if !ok {
            bad.push(format!("{}: {what}", w.name()));
        }
    };
    match raw {
        Raw::Fio(r) => {
            check(r.faults.conservation_holds(), "FaultCounters conservation");
            check(
                r.trace.is_none(),
                "telemetry must be off in the end-to-end pass",
            );
            check(
                r.access_journal.is_none() && r.submissions.is_empty(),
                "sanitizer and submission recording must be off",
            );
            let (cache, broker, cores) = (
                w == Workload::CacheWbZipf,
                w == Workload::BurstSkew,
                w == Workload::BurstSkew,
            );
            check(
                r.cache.is_empty() != cache,
                "cache counters on the wrong workload",
            );
            check(
                r.broker.is_some() == broker,
                "broker counters on the wrong workload",
            );
            check(
                r.cores.is_some() == cores,
                "cores counters on the wrong workload",
            );
            if cache {
                // Panics with a diagnostic on any crash-consistency violation.
                let reports = check_run(r);
                check(
                    reports.iter().any(|o| o.events > 0),
                    "crash-consistency oracle replayed nothing",
                );
                check(
                    r.write_back.iter().all(|wb| wb.conservation_holds()),
                    "write-back line conservation",
                );
            }
            if let Some(b) = &r.broker {
                check(b.conservation_holds(), "broker conservation");
                check(b.floor_violations == 0, "broker floor violations");
            }
        }
        Raw::Kv(r) => check(r.cache.is_empty(), "cache counters on the wrong workload"),
        Raw::Rack(r) => {
            // Both ledgers balance: no acknowledged IO lost, none double-served.
            check(r.conservation_audit_holds(), "rack conservation audit");
            check(
                r.trace.is_none(),
                "telemetry must be off in the end-to-end pass",
            );
            check(r.access_journal.is_none(), "sanitizer must be off");
            check(
                r.broker.is_none() && r.cores.is_empty(),
                "broker/cores counters on the wrong workload",
            );
        }
    }
    bad
}

/// Run the end-to-end pass. `Err` lists the gates that failed.
pub fn run(w: Workload, seed: u64, length: Length, reps: Reps) -> Result<E2e, Vec<String>> {
    // A zero-length run of the same config, plus (where f-Util is defined)
    // the standalone peaks on the same precondition.
    let start = Instant::now();
    let mut setup_secs = Vec::new();
    let mut peaks = Vec::new();
    let mut set_up = |setup_secs: &mut Vec<f64>| {
        let t = Instant::now();
        let p = plan(w, seed, Length::Setup, false);
        if w == Workload::MixedFrag {
            peaks = standalone_peaks(&p);
        }
        std::hint::black_box(execute(p));
        setup_secs.push(t.elapsed().as_secs_f64());
    };
    set_up(&mut setup_secs);

    let mut rep_secs = Vec::new();
    let mut first: Option<(Raw, Sim, u64)> = None;
    let mut bad = Vec::new();
    loop {
        let p = plan(w, seed, length, false);
        let a0 = crate::alloc::count();
        let t = Instant::now();
        let raw = execute(p);
        rep_secs.push(t.elapsed().as_secs_f64());
        let allocs = crate::alloc::count() - a0;
        let sim = Sim::of(&raw);
        match &first {
            None => first = Some((raw, sim, allocs)),
            Some((_, s0, _)) => {
                if s0.digest != sim.digest {
                    bad.push(format!(
                        "{}: stats digest differs between repetitions ({:#018x} vs {:#018x})",
                        w.name(),
                        s0.digest,
                        sim.digest
                    ));
                }
            }
        }
        let mut burst = 0;
        while burst < SETUP_BURST
            && setup_secs.iter().sum::<f64>() < SETUP_SHARE * start.elapsed().as_secs_f64()
        {
            set_up(&mut setup_secs);
            burst += 1;
        }
        let done = match reps {
            Reps::Count(n) => rep_secs.len() >= n,
            Reps::Seconds(s) => {
                rep_secs.len() >= 2 && start.elapsed().as_secs_f64() + min(&rep_secs) > s
            }
        };
        if done {
            break;
        }
    }
    let least = if length == Length::Quick {
        2
    } else {
        SETUP_RUNS
    };
    while setup_secs.len() < least {
        set_up(&mut setup_secs);
    }
    let (raw, sim, allocs) = first.expect("at least one repetition ran");
    bad.extend(gates(w, &raw));

    let ops = sim.ops() as f64;
    let mut metrics = Vec::new();
    match sim_metrics(w, &sim, futil_min(&sim, &peaks), length) {
        Ok(m) => metrics = m,
        Err(e) => bad.push(e),
    }
    if !bad.is_empty() {
        return Err(bad);
    }
    metrics.extend([
        ("host_kops_per_s", ops / min(&rep_secs) / 1e3),
        ("host_allocs_per_op", allocs as f64 / ops),
        ("host_peak_rss_mb", peak_rss_mb()),
        ("setup_s", quartiles(&setup_secs).1),
    ]);
    Ok(E2e {
        workload: w,
        seed,
        length,
        rep_secs,
        setup_secs,
        sim,
        metrics,
    })
}

impl E2e {
    /// Host seconds of the fastest repetition.
    pub fn best_secs(&self) -> f64 {
        min(&self.rep_secs)
    }
}

/// The simulated-clock end-to-end metrics that have a meaning on `w`, in
/// `spec::END_TO_END` order; a traced run reports the same values. A metric
/// that should have a value and has none is an error (at full length: a
/// `--quick` run may be too short for a p99 and then omits it).
pub fn sim_metrics(
    w: Workload,
    sim: &Sim,
    futil_min: Option<f64>,
    length: Length,
) -> Result<Vec<(&'static str, f64)>, String> {
    let values = [
        ("sim_kiops", Some(sim.kiops())),
        ("sim_mbps", Some(sim.mbps())),
        ("sim_read_mean_us", sim.read_mean_us()),
        ("sim_read_p50_us", sim.read_p50_us()),
        ("sim_read_p99_us", sim.read_p99().map(|p| p.us)),
        ("sim_read_p99_mean_us", sim.read_p99_mean_us()),
        ("sim_write_p99_us", sim.write_p99().map(|p| p.us)),
        ("sim_jain", Some(sim.jain())),
        ("sim_futil_min", futil_min),
        ("failed_share", Some(sim.failed_share())),
        ("ok_share", Some(1.0 - sim.failed_share())),
    ];
    let mut out = Vec::new();
    for (name, v) in values {
        let e = spec::end_to_end(name).expect("named in spec::END_TO_END");
        if !e.on.includes(w) {
            continue;
        }
        match v {
            Some(v) => out.push((name, v)),
            None if length == Length::Quick && name.contains("_p99_") => {}
            None => {
                return Err(format!(
                "{}: {name} has no value (a p99 needs a tenant with >= {P99_MIN_SAMPLES} samples)",
                w.name()
            ))
            }
        }
    }
    Ok(out)
}
