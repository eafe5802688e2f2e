//! Figure 14 (Appendix A): 4 KB IOPS vs read ratio on clean and fragmented
//! SSDs — the "bathtub" showing write amplification's cost.
//!
//! Paper shape: on the fragmented drive write-heavy mixes collapse (write-
//! only ≈ 17 % of clean) and even 5 % writes cost ~40 % of a read stream's
//! IOPS; the clean drive degrades far more gracefully.

use crate::common::{println_header, testbed_config, Region, CAP_BLOCKS};
use gimbal_testbed::{Precondition, Scheme, Testbed, WorkerSpec};
use gimbal_workload::FioSpec;

fn split_bw(pre: Precondition, read_ratio: f64, quick: bool) -> (f64, f64) {
    let n = 4u32;
    let workers: Vec<WorkerSpec> = (0..n)
        .map(|i| {
            let r = Region::slice(i, n, CAP_BLOCKS);
            WorkerSpec::new(
                format!("w{i}"),
                FioSpec::paper_default(read_ratio, 4096, r.start, r.blocks),
            )
        })
        .collect();
    let res = Testbed::new(testbed_config(Scheme::Vanilla, pre, quick), workers).run();
    // Split by op using per-worker op counts is not tracked per type; infer
    // from the ratio: measure via read/write latency counts × 4 KB.
    let window = res.workers[0].window.as_secs_f64();
    let read_bytes: u64 = res
        .workers
        .iter()
        .map(|w| w.read_latency.count * 4096)
        .sum();
    let write_bytes: u64 = res
        .workers
        .iter()
        .map(|w| w.write_latency.count * 4096)
        .sum();
    (read_bytes as f64 / window, write_bytes as f64 / window)
}

/// Run the experiment and print both condition curves.
pub(crate) fn run(quick: bool) {
    println_header("Figure 14: 4KB bandwidth vs read ratio (clean vs fragmented)");
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>12}",
        "Read %", "Clean-RD", "Clean-WR", "Frag-RD", "Frag-WR"
    );
    let ratios: &[f64] = if quick {
        &[0.0, 0.5, 0.95, 1.0]
    } else {
        &[0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 1.0]
    };
    for &r in ratios {
        let (crd, cwr) = split_bw(Precondition::Clean, r, quick);
        let (frd, fwr) = split_bw(Precondition::Fragmented, r, quick);
        println!(
            "{:>10.0} {:>10.0}MB {:>10.0}MB {:>10.0}MB {:>10.0}MB",
            r * 100.0,
            crd / 1e6,
            cwr / 1e6,
            frd / 1e6,
            fwr / 1e6
        );
    }
}
