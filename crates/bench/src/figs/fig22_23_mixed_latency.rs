//! Figures 22 & 23 (Appendix D): latency interference from background
//! traffic of growing IO size.
//!
//! Fig 22: a 4 KB random-read stream's avg/p99.9 latency while a
//! random/sequential *write* stream sweeps its IO size. Fig 23: a 4 KB
//! sequential-write stream against a read stream. Paper shape: bigger
//! background IOs mean worse head-of-line blocking; the curves flatten once
//! the background stream saturates its bandwidth.

use crate::common::{println_header, testbed_config, Region, CAP_BLOCKS};
use gimbal_fabric::IoType;
use gimbal_testbed::{Precondition, Scheme, Testbed, WorkerSpec};
use gimbal_workload::{AccessPattern, FioSpec};

/// (avg µs, p99.9 µs) of the 4 KB foreground stream.
fn foreground_lat(
    fg_op: IoType,
    bg_op: IoType,
    bg_seq: bool,
    bg_kb: u64,
    quick: bool,
) -> (f64, f64) {
    // Both streams run QD16 on half the drive each.
    let stream = |i: u32, op: IoType, kb: u64, read_pattern, write_pattern| {
        let r = Region::slice(i, 2, CAP_BLOCKS);
        let read_ratio = if op == IoType::Read { 1.0 } else { 0.0 };
        FioSpec {
            read_pattern,
            write_pattern,
            queue_depth: 16,
            ..FioSpec::paper_default(read_ratio, kb * 1024, r.start, r.blocks)
        }
    };
    let fg = stream(
        0,
        fg_op,
        4,
        AccessPattern::Random,
        AccessPattern::Sequential,
    );
    let mut workers = vec![WorkerSpec::new("fg", fg)];
    if bg_kb > 0 {
        let pattern = if bg_seq {
            AccessPattern::Sequential
        } else {
            AccessPattern::Random
        };
        workers.push(WorkerSpec::new(
            "bg",
            stream(1, bg_op, bg_kb, pattern, pattern),
        ));
    }
    let cfg = testbed_config(Scheme::Vanilla, Precondition::Clean, quick);
    let res = Testbed::new(cfg, workers).run();
    let s = if fg_op == IoType::Read {
        res.workers[0].read_latency
    } else {
        res.workers[0].write_latency
    };
    (s.mean_us(), s.p999_us())
}

/// Run both figures.
pub(crate) fn run(quick: bool) {
    let sizes: &[u64] = if quick {
        &[0, 16, 128]
    } else {
        &[0, 4, 8, 16, 32, 64, 128, 256]
    };

    println_header("Figure 22: 4KB random read vs background writes of growing size");
    println!(
        "{:>10} {:>12} {:>14} {:>12} {:>14}",
        "BG (KB)", "avg rnd-wr", "p99.9 rnd-wr", "avg seq-wr", "p99.9 seq-wr"
    );
    for &kb in sizes {
        let (ar, pr) = foreground_lat(IoType::Read, IoType::Write, false, kb, quick);
        let (as_, ps) = foreground_lat(IoType::Read, IoType::Write, true, kb, quick);
        println!(
            "{:>10} {:>10.0}us {:>12.0}us {:>10.0}us {:>12.0}us",
            kb, ar, pr, as_, ps
        );
    }

    println_header("Figure 23: 4KB sequential write vs background reads of growing size");
    println!(
        "{:>10} {:>12} {:>14} {:>12} {:>14}",
        "BG (KB)", "avg rnd-rd", "p99.9 rnd-rd", "avg seq-rd", "p99.9 seq-rd"
    );
    for &kb in sizes {
        let (ar, pr) = foreground_lat(IoType::Write, IoType::Read, false, kb, quick);
        let (as_, ps) = foreground_lat(IoType::Write, IoType::Read, true, kb, quick);
        println!(
            "{:>10} {:>10.0}us {:>12.0}us {:>10.0}us {:>12.0}us",
            kb, ar, pr, as_, ps
        );
    }
}
