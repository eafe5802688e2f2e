//! Figure 16 (Appendix): achieved bandwidth as per-IO processing cost is
//! added on the SmartNIC — the computing-headroom budget of §2.4.
//!
//! All 8 ARM cores, 4 SSDs, one saturating worker per SSD. Paper shape:
//! 4 KB streams tolerate ~1 µs of added cost before bandwidth falls; 128 KB
//! streams tolerate 5–10 µs; beyond that bandwidth decays as 1/cost.

use crate::common::{println_header, Region, CAP_BLOCKS};
use gimbal_fabric::IoType;
use gimbal_sim::SimDuration;
use gimbal_testbed::{Precondition, Scheme, Testbed, TestbedConfig, WorkerSpec};
use gimbal_workload::{AccessPattern, FioSpec};

fn agg_gbps(io_kb: u64, op: IoType, added_us: f64, quick: bool) -> f64 {
    let workers: Vec<WorkerSpec> = (0..4)
        .map(|i| {
            let region = Region::slice(0, 1, CAP_BLOCKS);
            let read_ratio = if op == IoType::Read { 1.0 } else { 0.0 };
            let fio = FioSpec {
                write_pattern: AccessPattern::Sequential,
                queue_depth: if io_kb >= 128 { 16 } else { 192 },
                ..FioSpec::paper_default(read_ratio, io_kb * 1024, region.start, region.blocks)
            };
            WorkerSpec::new(format!("w{i}"), fio).on_ssd(i)
        })
        .collect();
    let cfg = TestbedConfig {
        scheme: Scheme::Vanilla,
        num_ssds: 4,
        cores: 8,
        precondition: Precondition::Clean,
        added_per_io_us: added_us,
        duration: if quick {
            SimDuration::from_millis(300)
        } else {
            SimDuration::from_millis(800)
        },
        warmup: SimDuration::from_millis(100),
        ..TestbedConfig::default()
    };
    let res = Testbed::new(cfg, workers).run();
    res.aggregate_bps(|_| true) / 1e9
}

/// Run the experiment and print the four curves.
pub fn run(quick: bool) {
    println_header("Figure 16: bandwidth vs added per-IO processing cost (8 cores, 4 SSDs)");
    println!(
        "{:>10} {:>10} {:>12} {:>10} {:>12}",
        "Added us", "4KB read", "128KB read", "4KB write", "128KB write"
    );
    let costs: &[f64] = if quick {
        &[0.0, 1.0, 10.0, 80.0]
    } else {
        &[0.0, 1.0, 5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0]
    };
    for &c in costs {
        println!(
            "{:>10} {:>8.2}GB {:>10.2}GB {:>8.2}GB {:>10.2}GB",
            c,
            agg_gbps(4, IoType::Read, c, quick),
            agg_gbps(128, IoType::Read, c, quick),
            agg_gbps(4, IoType::Write, c, quick),
            agg_gbps(128, IoType::Write, c, quick),
        );
    }
}
