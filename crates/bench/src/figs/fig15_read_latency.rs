//! Figure 15 (Appendix A): random-read latency vs IO size under four
//! scenarios — clean QD1 ("vanilla"), fragmented QD1, 70/30 read/write mix,
//! and clean QD8.
//!
//! Paper shape: fragmentation, write mixing, and concurrency each raise
//! read latency, and larger IOs degrade more (they touch more dies, so
//! they are more likely to queue behind a busy one).

use crate::common::{println_header, Region, CAP_BLOCKS};
use gimbal_sim::SimDuration;
use gimbal_testbed::{Precondition, Scheme, Testbed, TestbedConfig, WorkerSpec};
use gimbal_workload::{AccessPattern, FioSpec};

fn read_lat_us(io_kb: u64, pre: Precondition, read_ratio: f64, qd: u32, quick: bool) -> f64 {
    let region = Region::slice(0, 1, CAP_BLOCKS);
    let fio = FioSpec {
        write_pattern: AccessPattern::Random,
        queue_depth: qd,
        ..FioSpec::paper_default(read_ratio, io_kb * 1024, region.start, region.blocks)
    };
    let cfg = TestbedConfig {
        scheme: Scheme::Vanilla,
        precondition: pre,
        duration: if quick {
            SimDuration::from_millis(200)
        } else {
            SimDuration::from_millis(600)
        },
        warmup: SimDuration::from_millis(50),
        ..TestbedConfig::default()
    };
    let res = Testbed::new(cfg, vec![WorkerSpec::new("w", fio)]).run();
    res.workers[0].read_latency.mean_us()
}

/// Run the experiment and print the four curves.
pub(crate) fn run(quick: bool) {
    println_header("Figure 15: random-read latency vs IO size, four scenarios");
    println!(
        "{:>8} {:>10} {:>12} {:>12} {:>10}",
        "IO (KB)", "Vanilla", "Fragmented", "70/30 R/W", "QD8"
    );
    let sizes: &[u64] = if quick {
        &[4, 32, 128, 256]
    } else {
        &[4, 8, 16, 32, 64, 128, 256]
    };
    for &kb in sizes {
        println!(
            "{:>8} {:>8.0}us {:>10.0}us {:>10.0}us {:>8.0}us",
            kb,
            read_lat_us(kb, Precondition::Clean, 1.0, 1, quick),
            read_lat_us(kb, Precondition::Fragmented, 1.0, 1, quick),
            read_lat_us(kb, Precondition::Fragmented, 0.7, 4, quick),
            read_lat_us(kb, Precondition::Clean, 1.0, 8, quick),
        );
    }
}
