//! Figure 9: dynamic workload — Gimbal adapting the write cost as writers
//! join and readers leave.
//!
//! Eight rate-capped readers (200 MB/s each) start; one rate-capped writer
//! (60 MB/s) joins per interval until 8 run; then readers drop one per
//! interval. Paper shape: the first writer's IOs are absorbed by the SSD
//! write buffer at ~70 µs (write cost decays to 1); once writers outrun the
//! buffer, write latency jumps ~10×, Gimbal raises the write cost, and
//! writer bandwidth converges to the fair share.

use crate::common::{println_header, Region, CAP_BLOCKS};
use gimbal_sim::{SimDuration, SimTime};
use gimbal_testbed::{Precondition, RunResult, Scheme, Testbed, TestbedConfig, WorkerSpec};
use gimbal_workload::FioSpec;

/// Readers and writers of the mix.
const READERS: u32 = 8;
const WRITERS: u32 = 8;
/// Full timeline length in intervals: readers alone, 8 writer joins, 7
/// reader drops, and a tail.
const INTERVALS: u32 = READERS + WRITERS + 1;

/// One interval of the timeline: per-active-worker bandwidth (bytes/s),
/// device latencies (µs) and Gimbal's write cost, each averaged over it.
pub(crate) struct Interval {
    /// End of the interval (s).
    pub t_s: f64,
    /// Mean bandwidth of the readers active in the interval.
    pub reader_bps: f64,
    /// Mean bandwidth of the writers active in the interval.
    pub writer_bps: f64,
    /// Mean device read latency.
    pub read_lat_us: f64,
    /// Mean device write latency.
    pub write_lat_us: f64,
    /// Mean dynamic write cost (NaN before the first sample).
    pub write_cost: f64,
}

/// Run the first `intervals` intervals of the dynamic workload and average
/// each one. Paper interval: 5 s; quick mode compresses it to 1 s.
pub(crate) fn timeline(quick: bool, intervals: u32) -> (RunResult, Vec<Interval>) {
    let step = if quick {
        SimDuration::from_secs(1)
    } else {
        SimDuration::from_secs(5)
    };
    let duration = step * u64::from(intervals);

    let mut specs = Vec::new();
    let total = READERS + WRITERS;
    for i in 0..READERS {
        let r = Region::slice(i, total, CAP_BLOCKS);
        let fio = FioSpec {
            queue_depth: 8,
            rate_limit: Some(200e6),
            ..FioSpec::paper_default(1.0, 128 * 1024, r.start, r.blocks)
        };
        // Reader i stops at step × (8 + i) (first-started drops first once
        // the drop phase begins).
        let stop = SimTime::ZERO + step * u64::from(WRITERS + i);
        specs.push(WorkerSpec::new("reader", fio).active(SimTime::ZERO, Some(stop)));
    }
    for j in 0..WRITERS {
        let r = Region::slice(READERS + j, total, CAP_BLOCKS);
        let fio = FioSpec {
            queue_depth: 8,
            rate_limit: Some(60e6),
            ..FioSpec::paper_default(0.0, 128 * 1024, r.start, r.blocks)
        };
        let start = SimTime::ZERO + step * u64::from(j + 1);
        specs.push(WorkerSpec::new("writer", fio).active(start, None));
    }

    let cfg = TestbedConfig {
        scheme: Scheme::Gimbal,
        precondition: Precondition::Fragmented,
        duration,
        warmup: SimDuration::from_millis(100),
        sample_interval: Some(SimDuration::from_millis(100)),
        ..TestbedConfig::default()
    };
    let res = Testbed::new(cfg, specs).run();

    let trace = &res.gimbal_traces[0];
    let dev = &res.device_series[0];
    let mut rows = Vec::new();
    let mut t = SimTime::ZERO + step;
    while t <= SimTime::ZERO + duration {
        let lo = t - step;
        let mean = |which: &str| -> f64 {
            let vals: Vec<f64> = res
                .workers
                .iter()
                .filter(|w| w.label == which)
                .filter_map(|w| w.series.mean_in(lo, t))
                .filter(|&v| v > 1e3)
                .collect();
            if vals.is_empty() {
                0.0
            } else {
                vals.iter().sum::<f64>() / vals.len() as f64
            }
        };
        rows.push(Interval {
            t_s: t.as_secs_f64(),
            reader_bps: mean("reader"),
            writer_bps: mean("writer"),
            read_lat_us: dev.read_lat_us.mean_in(lo, t).unwrap_or(0.0),
            write_lat_us: dev.write_lat_us.mean_in(lo, t).unwrap_or(0.0),
            write_cost: trace.write_cost.mean_in(lo, t).unwrap_or(f64::NAN),
        });
        t += step;
    }
    (res, rows)
}

/// Run the experiment and print the timeline.
pub(crate) fn run(quick: bool) {
    println_header("Figure 9: dynamic workload (Gimbal), write-cost adaptation");
    let (_, rows) = timeline(quick, INTERVALS);
    println!(
        "{:>7} {:>12} {:>12} {:>11} {:>11} {:>10}",
        "t (s)", "RD MB/s/wkr", "WR MB/s/wkr", "RD lat us", "WR lat us", "write cost"
    );
    for r in &rows {
        println!(
            "{:>7.1} {:>12.0} {:>12.0} {:>11.0} {:>11.0} {:>10.1}",
            r.t_s,
            r.reader_bps / 1e6,
            r.writer_bps / 1e6,
            r.read_lat_us,
            r.write_lat_us,
            r.write_cost,
        );
    }
}
