//! Figure 21 (Appendix D): IO-pattern interference — a read stream's
//! bandwidth standalone vs mixed with a same-shape write stream, across IO
//! sizes.
//!
//! Paper shape: mixing with writes costs the read stream roughly 60–70 % of
//! its standalone bandwidth (program operations occupy dies for hundreds of
//! microseconds).

use crate::common::{println_header, testbed_config, Region, CAP_BLOCKS};
use gimbal_testbed::{Precondition, Scheme, Testbed, WorkerSpec};
use gimbal_workload::{AccessPattern, FioSpec};

fn read_bw(io_kb: u64, seq: bool, with_writes: bool, quick: bool) -> f64 {
    let pattern = if seq {
        AccessPattern::Sequential
    } else {
        AccessPattern::Random
    };
    let n = if with_writes { 2 } else { 1 };
    let stream = |i: u32, read_ratio: f64| {
        let r = Region::slice(i, n, CAP_BLOCKS);
        FioSpec {
            read_pattern: pattern,
            write_pattern: pattern,
            queue_depth: 32,
            ..FioSpec::paper_default(read_ratio, io_kb * 1024, r.start, r.blocks)
        }
    };
    let mut workers = vec![WorkerSpec::new("reader", stream(0, 1.0))];
    if with_writes {
        workers.push(WorkerSpec::new("writer", stream(1, 0.0)));
    }
    let cfg = testbed_config(Scheme::Vanilla, Precondition::Clean, quick);
    let res = Testbed::new(cfg, workers).run();
    res.workers[0].bandwidth_mbps()
}

/// Run the experiment and print the four curves.
pub fn run(quick: bool) {
    println_header("Figure 21: read bandwidth, standalone vs mixed with writes (vanilla)");
    println!(
        "{:>8} {:>13} {:>16} {:>13} {:>16}",
        "IO (KB)", "RND read", "RND read+write", "SEQ read", "SEQ read+write"
    );
    let sizes: &[u64] = if quick {
        &[4, 32, 128]
    } else {
        &[4, 8, 16, 32, 64, 128, 256]
    };
    for &kb in sizes {
        println!(
            "{:>8} {:>11.0}MB {:>14.0}MB {:>11.0}MB {:>14.0}MB",
            kb,
            read_bw(kb, false, false, quick),
            read_bw(kb, false, true, quick),
            read_bw(kb, true, false, quick),
            read_bw(kb, true, true, quick),
        );
    }
}
