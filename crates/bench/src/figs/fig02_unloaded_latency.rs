//! Figure 2: unloaded read/write latency vs IO size, server vs SmartNIC.
//!
//! One worker, queue depth 1, clean SSD; random reads and sequential writes
//! across 4 KB – 256 KB; Xeon vs ARM target cores. The paper's shape:
//! nearly identical latencies for small IOs (device time dominates), with
//! the SmartNIC adding ~20 % for ≥128 KB (per-byte CPU cost).

use crate::common::{println_header, Region, CAP_BLOCKS};
use gimbal_sim::SimDuration;
use gimbal_testbed::{Precondition, Scheme, Testbed, TestbedConfig, WorkerSpec};
use gimbal_workload::{AccessPattern, FioSpec};

fn one_latency_us(io_kb: u64, read: bool, xeon: bool, quick: bool) -> f64 {
    let region = Region::slice(0, 1, CAP_BLOCKS);
    let read_ratio = if read { 1.0 } else { 0.0 };
    let fio = FioSpec {
        write_pattern: AccessPattern::Sequential,
        queue_depth: 1,
        ..FioSpec::paper_default(read_ratio, io_kb * 1024, region.start, region.blocks)
    };
    let cfg = TestbedConfig {
        scheme: Scheme::Vanilla,
        precondition: Precondition::Clean,
        xeon,
        duration: if quick {
            SimDuration::from_millis(150)
        } else {
            SimDuration::from_millis(500)
        },
        warmup: SimDuration::from_millis(20),
        ..TestbedConfig::default()
    };
    let res = Testbed::new(cfg, vec![WorkerSpec::new("qd1", fio)]).run();
    let w = &res.workers[0];
    if read {
        w.read_latency.mean_us()
    } else {
        w.write_latency.mean_us()
    }
}

/// Run the experiment and print the figure's series.
pub fn run(quick: bool) {
    println_header("Figure 2: unloaded latency vs IO size (QD1, clean SSD)");
    println!(
        "{:>8} {:>14} {:>16} {:>14} {:>16}",
        "IO (KB)", "Server-RND-RD", "SmartNIC-RND-RD", "Server-SEQ-WR", "SmartNIC-SEQ-WR"
    );
    for &kb in &[4u64, 8, 16, 32, 128, 256] {
        let srv_rd = one_latency_us(kb, true, true, quick);
        let nic_rd = one_latency_us(kb, true, false, quick);
        let srv_wr = one_latency_us(kb, false, true, quick);
        let nic_wr = one_latency_us(kb, false, false, quick);
        println!(
            "{:>8} {:>12.1}us {:>14.1}us {:>12.1}us {:>14.1}us",
            kb, srv_rd, nic_rd, srv_wr, nic_wr
        );
    }
}
