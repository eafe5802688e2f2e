//! Figure 4: multi-tenant interference on a vanilla (no-isolation) target.
//!
//! The victim runs 4 KB random reads at QD 32; a neighbor of varying shape
//! shares the SSD. Paper shape: higher-intensity neighbors grab bandwidth
//! regardless of size/pattern, and write neighbors collapse the victim.

use crate::common::{println_header, testbed_config, Region, CAP_BLOCKS};
use gimbal_fabric::IoType;
use gimbal_testbed::{Precondition, RunResult, Scheme, Testbed, WorkerSpec};
use gimbal_workload::FioSpec;

/// The six neighbor types in bar order: (label, IO KiB, op, queue depth).
pub const NEIGHBORS: [(&str, u64, IoType, u32); 6] = [
    ("4KB-RD QD32", 4, IoType::Read, 32),
    ("4KB-RD QD128", 4, IoType::Read, 128),
    ("128KB-RD QD1", 128, IoType::Read, 1),
    ("128KB-RD QD8", 128, IoType::Read, 8),
    ("4KB-WR QD32", 4, IoType::Write, 32),
    ("4KB-WR QD128", 4, IoType::Write, 128),
];

/// Run the victim against one neighbor shape; `workers[0]` is the victim,
/// `workers[1]` the neighbor.
pub fn run_neighbor(io_kb: u64, op: IoType, qd: u32, quick: bool) -> RunResult {
    let vr = Region::slice(0, 2, CAP_BLOCKS);
    let victim = WorkerSpec::new(
        "victim",
        FioSpec {
            queue_depth: 32,
            ..FioSpec::paper_default(1.0, 4096, vr.start, vr.blocks)
        },
    );
    let nr = Region::slice(1, 2, CAP_BLOCKS);
    let read_ratio = if op == IoType::Read { 1.0 } else { 0.0 };
    let neighbor = WorkerSpec::new(
        "neighbor",
        FioSpec {
            queue_depth: qd,
            ..FioSpec::paper_default(read_ratio, io_kb * 1024, nr.start, nr.blocks)
        },
    );
    let cfg = testbed_config(Scheme::Vanilla, Precondition::Clean, quick);
    Testbed::new(cfg, vec![victim, neighbor]).run()
}

/// Run the experiment and print the figure's bars.
pub fn run(quick: bool) {
    println_header("Figure 4: victim (4KB-RD QD32) vs neighbor types (vanilla target)");
    println!(
        "{:>14} {:>14} {:>14}",
        "Neighbor", "Victim MB/s", "Neighbor MB/s"
    );
    for (label, io_kb, op, qd) in NEIGHBORS {
        let res = run_neighbor(io_kb, op, qd, quick);
        println!(
            "{:>14} {:>14.0} {:>14.0}",
            label,
            res.workers[0].bandwidth_mbps(),
            res.workers[1].bandwidth_mbps()
        );
    }
}
