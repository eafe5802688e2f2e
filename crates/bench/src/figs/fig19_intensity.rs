//! Figure 19 (Appendix D): IO-intensity interference — two competing
//! streams identical except that stream 1 runs twice the queue depth of
//! stream 2, swept over IO size.
//!
//! Paper shape: the more intense stream takes ~2× the bandwidth at every
//! size, for both random reads and sequential writes.

use crate::common::{println_header, testbed_config, Region, CAP_BLOCKS};
use gimbal_fabric::IoType;
use gimbal_testbed::{Precondition, Scheme, Testbed, WorkerSpec};
use gimbal_workload::{AccessPattern, FioSpec};

fn pair_bw(io_kb: u64, op: IoType, quick: bool) -> (f64, f64) {
    let (qd1, qd2) = if io_kb >= 64 { (8, 4) } else { (64, 32) };
    let mk = |i: u32, qd: u32| {
        let r = Region::slice(i, 2, CAP_BLOCKS);
        let (read_ratio, wp) = match op {
            IoType::Read => (1.0, AccessPattern::Random),
            IoType::Write => (0.0, AccessPattern::Sequential),
        };
        WorkerSpec::new(
            format!("s{}", i + 1),
            FioSpec {
                write_pattern: wp,
                queue_depth: qd,
                ..FioSpec::paper_default(read_ratio, io_kb * 1024, r.start, r.blocks)
            },
        )
    };
    let cfg = testbed_config(Scheme::Vanilla, Precondition::Clean, quick);
    let res = Testbed::new(cfg, vec![mk(0, qd1), mk(1, qd2)]).run();
    (
        res.workers[0].bandwidth_mbps(),
        res.workers[1].bandwidth_mbps(),
    )
}

/// Run the experiment and print both panels.
pub(crate) fn run(quick: bool) {
    println_header("Figure 19: 2:1 queue-depth competition vs IO size (vanilla)");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12}",
        "IO (KB)", "S1 RND-RD", "S2 RND-RD", "S1 SEQ-WR", "S2 SEQ-WR"
    );
    let sizes: &[u64] = if quick {
        &[4, 32, 128]
    } else {
        &[4, 8, 16, 32, 64, 128, 256]
    };
    for &kb in sizes {
        let (r1, r2) = pair_bw(kb, IoType::Read, quick);
        let (w1, w2) = pair_bw(kb, IoType::Write, quick);
        println!(
            "{:>8} {:>10.0}MB {:>10.0}MB {:>10.0}MB {:>10.0}MB",
            kb, r1, r2, w1, w2
        );
    }
}
