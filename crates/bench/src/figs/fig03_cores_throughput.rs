//! Figure 3: 4 KB read/write throughput vs number of target cores,
//! server vs SmartNIC JBOF.
//!
//! Four SSDs, one high-QD worker per SSD; cores 1–8 shared round-robin
//! across the four pipelines. Paper shape: the server saturates the storage
//! (~1.5 M KIOPS reads) with 2 cores, the SmartNIC needs 3; beyond that the
//! curves are flat (device-limited).

use crate::common::{println_header, Region, CAP_BLOCKS};
use gimbal_sim::SimDuration;
use gimbal_testbed::{Precondition, Scheme, Testbed, TestbedConfig, WorkerSpec};
use gimbal_workload::{AccessPattern, FioSpec};

fn kiops(cores: u32, read: bool, xeon: bool, quick: bool) -> f64 {
    let workers: Vec<WorkerSpec> = (0..4)
        .map(|i| {
            let region = Region::slice(0, 1, CAP_BLOCKS);
            let read_ratio = if read { 1.0 } else { 0.0 };
            let fio = FioSpec {
                write_pattern: AccessPattern::Sequential,
                queue_depth: 192,
                ..FioSpec::paper_default(read_ratio, 4096, region.start, region.blocks)
            };
            WorkerSpec::new(format!("ssd{i}"), fio).on_ssd(i)
        })
        .collect();
    let cfg = TestbedConfig {
        scheme: Scheme::Vanilla,
        num_ssds: 4,
        cores,
        xeon,
        precondition: Precondition::Clean,
        duration: if quick {
            SimDuration::from_millis(300)
        } else {
            SimDuration::from_millis(800)
        },
        warmup: SimDuration::from_millis(100),
        ..TestbedConfig::default()
    };
    let res = Testbed::new(cfg, workers).run();
    res.workers.iter().map(|w| w.iops()).sum::<f64>() / 1e3
}

/// Run the experiment and print the figure's series.
pub fn run(quick: bool) {
    println_header("Figure 3: throughput vs cores (4 SSDs, 4KB)");
    println!(
        "{:>6} {:>14} {:>16} {:>14} {:>16}",
        "Cores", "Server-RND-RD", "SmartNIC-RND-RD", "Server-SEQ-WR", "SmartNIC-SEQ-WR"
    );
    let cores: &[u32] = if quick {
        &[1, 2, 3, 4, 8]
    } else {
        &[1, 2, 3, 4, 5, 6, 7, 8]
    };
    for &c in cores {
        println!(
            "{:>6} {:>8.0} KIOPS {:>10.0} KIOPS {:>8.0} KIOPS {:>10.0} KIOPS",
            c,
            kiops(c, true, true, quick),
            kiops(c, true, false, quick),
            kiops(c, false, true, quick),
            kiops(c, false, false, quick),
        );
    }
}
