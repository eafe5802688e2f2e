//! Ablation: dynamic latency-threshold scaling vs the fixed thresholds the
//! paper tried first (§3.2).
//!
//! The paper reports that a fixed 2 ms threshold "is only effective for
//! large IOs but cannot capture the congestion for small IOs promptly," and
//! that lowering it (<1 ms) "hurts the device utilization." This ablation
//! runs 16-worker read workloads (4 KB fragmented, 128 KB clean) under the
//! full dynamic design and both fixed settings, reporting utilization and
//! latency.

use crate::common::{println_header, testbed_config, Region, CAP_BLOCKS};
use gimbal_core::Params;
use gimbal_sim::SimDuration;
use gimbal_testbed::{Precondition, Scheme, Testbed, TestbedConfig, WorkerSpec};
use gimbal_workload::FioSpec;

fn run_variant(
    label: &str,
    params: Params,
    io: u64,
    pre: Precondition,
    quick: bool,
) -> (f64, f64, f64) {
    let n = 16u32;
    // io == 0 encodes the 70/30 read/write 4 KB mix.
    let (io, ratio) = if io == 0 { (4096, 0.7) } else { (io, 1.0) };
    let workers: Vec<WorkerSpec> = (0..n)
        .map(|i| {
            let r = Region::slice(i, n, CAP_BLOCKS);
            WorkerSpec::new(
                format!("w{i}"),
                FioSpec::paper_default(ratio, io, r.start, r.blocks),
            )
        })
        .collect();
    let cfg = TestbedConfig {
        gimbal_params: params,
        ..testbed_config(Scheme::Gimbal, pre, quick)
    };
    let res = Testbed::new(cfg, workers).run();
    let bw = res.aggregate_bps(|_| true) / 1e6;
    let [rd, _] = res.group_latency(|_| true);
    let _ = label;
    (bw, rd.mean_us(), rd.p999_us())
}

/// Run the ablation and print both workload panels.
pub(crate) fn run(quick: bool) {
    println_header("Ablation: dynamic vs fixed latency threshold (Gimbal, 16 readers)");
    // "fixed 2ms" reproduces the paper's first attempt (§3.2): with the
    // congestion signal parked at 2 ms the controller only reacts once the
    // device is already deep in its queueing regime. "fixed 300us" is the
    // over-tight end ("reducing the threshold … hurts the device
    // utilization"): it sits below the latency the device needs to deliver
    // full bandwidth.
    let variants: [(&str, Params); 3] = [
        ("dynamic", Params::default()),
        (
            "fixed 2ms",
            Params {
                fixed_threshold: Some(SimDuration::from_millis(2)),
                thresh_max: SimDuration::from_millis(2),
                ..Params::default()
            },
        ),
        (
            "fixed 300us",
            Params {
                fixed_threshold: Some(SimDuration::from_micros(300)),
                ..Params::default()
            },
        ),
    ];
    for (case, io, pre) in [
        ("Fragmented 4KB read", 4096u64, Precondition::Fragmented),
        (
            "Fragmented 4KB 70/30 R/W mix",
            0u64,
            Precondition::Fragmented,
        ),
        ("Clean 128KB read", 128 * 1024, Precondition::Clean),
    ] {
        println!("\n-- {case} --");
        println!(
            "{:>12} {:>12} {:>12} {:>14}",
            "Variant", "Agg MB/s", "avg (us)", "p99.9 (us)"
        );
        for (label, params) in variants.iter() {
            let (bw, avg, p999) = run_variant(label, *params, io, pre, quick);
            println!("{label:>12} {bw:>12.0} {avg:>12.0} {p999:>14.0}");
        }
    }
}
