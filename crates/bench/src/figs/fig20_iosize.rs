//! Figure 20 (Appendix D): IO-size interference — a 4 KB stream 1 against a
//! stream 2 of growing IO size, same queue depth.
//!
//! Paper shape: larger neighbor IOs take an ever-larger bandwidth share;
//! e.g. 4 KB vs 64 KB random reads end up ~91 vs ~1473 MB/s.

use crate::common::{println_header, testbed_config, Region, CAP_BLOCKS};
use gimbal_testbed::{Precondition, Scheme, Testbed, WorkerSpec};
use gimbal_workload::{AccessPattern, FioSpec};

fn stream1_bw(read: bool, seq: bool, s2_kb: u64, quick: bool) -> (f64, f64) {
    let read_ratio = if read { 1.0 } else { 0.0 };
    let mk = |i: u32, kb: u64| {
        let r = Region::slice(i, 2, CAP_BLOCKS);
        let pattern = if seq {
            AccessPattern::Sequential
        } else {
            AccessPattern::Random
        };
        WorkerSpec::new(
            format!("s{}", i + 1),
            FioSpec {
                read_pattern: pattern,
                write_pattern: pattern,
                queue_depth: 32,
                ..FioSpec::paper_default(read_ratio, kb * 1024, r.start, r.blocks)
            },
        )
    };
    let cfg = testbed_config(Scheme::Vanilla, Precondition::Clean, quick);
    let res = Testbed::new(cfg, vec![mk(0, 4), mk(1, s2_kb)]).run();
    (
        res.workers[0].bandwidth_mbps(),
        res.workers[1].bandwidth_mbps(),
    )
}

/// Run the experiment and print the four curves (stream 1's bandwidth).
pub fn run(quick: bool) {
    println_header("Figure 20: 4KB stream-1 bandwidth vs stream-2 IO size (vanilla)");
    println!(
        "{:>10} {:>10} {:>10} {:>10} {:>10}",
        "S2 (KB)", "rnd read", "seq read", "rnd write", "seq write"
    );
    let sizes: &[u64] = if quick {
        &[4, 32, 128]
    } else {
        &[4, 8, 16, 32, 64, 128]
    };
    for &kb in sizes {
        println!(
            "{:>10} {:>8.0}MB {:>8.0}MB {:>8.0}MB {:>8.0}MB",
            kb,
            stream1_bw(true, false, kb, quick).0,
            stream1_bw(true, true, kb, quick).0,
            stream1_bw(false, false, kb, quick).0,
            stream1_bw(false, true, kb, quick).0,
        );
    }
}
