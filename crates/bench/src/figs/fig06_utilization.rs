//! Figure 6: device utilization of the four schemes — aggregated bandwidth
//! and average latency of 16 identical workers, across SSD condition × IO
//! type.
//!
//! Paper shape: Gimbal ≈ FlashFQ on bandwidth everywhere; ReFlex leaves
//! clean-SSD bandwidth on the table (static worst-case model, ×2.4 reads /
//! ×6.6 writes); Parda underutilizes fragmented reads; Gimbal and Parda
//! keep latency low (flow control), FlashFQ/ReFlex let it blow up.

use crate::common::{println_header, testbed_config, Region, CAP_BLOCKS};
use gimbal_fabric::IoType;
use gimbal_sim::stats::LatencySummary;
use gimbal_testbed::{Precondition, RunResult, Scheme, Testbed, WorkerSpec};
use gimbal_workload::FioSpec;

/// The four condition × type cases of Fig 6 (C-R, C-W, F-R, F-W): clean
/// uses 128 KB IOs, fragmented 4 KB (§5.2).
pub(crate) fn cases() -> [(&'static str, Precondition, IoType, u64); 4] {
    [
        ("C-R", Precondition::Clean, IoType::Read, 128 * 1024),
        ("C-W", Precondition::Clean, IoType::Write, 128 * 1024),
        ("F-R", Precondition::Fragmented, IoType::Read, 4096),
        ("F-W", Precondition::Fragmented, IoType::Write, 4096),
    ]
}

/// Run 16 identical workers of the given shape under a scheme.
pub(crate) fn run_case(
    scheme: Scheme,
    pre: Precondition,
    op: IoType,
    io_bytes: u64,
    quick: bool,
) -> RunResult {
    let n = 16u32;
    let read_ratio = if op == IoType::Read { 1.0 } else { 0.0 };
    let workers: Vec<WorkerSpec> = (0..n)
        .map(|i| {
            let r = Region::slice(i, n, CAP_BLOCKS);
            WorkerSpec::new(
                format!("w{i}"),
                FioSpec::paper_default(read_ratio, io_bytes, r.start, r.blocks),
            )
        })
        .collect();
    Testbed::new(testbed_config(scheme, pre, quick), workers).run()
}

fn lat_of(res: &RunResult, op: IoType) -> LatencySummary {
    let [r, w] = res.group_latency(|_| true);
    if op == IoType::Read {
        r
    } else {
        w
    }
}

/// Run the experiment and print both panels.
pub(crate) fn run(quick: bool) {
    println_header("Figure 6: utilization — 16 identical workers per case");
    println!(
        "{:>6} {:>9} {:>12} {:>14}",
        "Case", "Scheme", "Agg MB/s", "Avg lat (us)"
    );
    for (label, pre, op, io) in cases() {
        for scheme in Scheme::COMPARED {
            let res = run_case(scheme, pre, op, io, quick);
            let bw = res.aggregate_bps(|_| true) / 1e6;
            let lat = lat_of(&res, op);
            println!(
                "{:>6} {:>9} {:>12.0} {:>14.0}",
                label,
                scheme.name(),
                bw,
                lat.mean_us()
            );
        }
    }
}
