//! Figure 10: RocksDB-analog performance — YCSB throughput, average read
//! latency, and p99.9 read latency for the four schemes.
//!
//! The paper runs 24 DB instances over 3 SmartNIC JBOFs on fragmented SSDs;
//! we scale the instance count and dataset with the scaled-down SSDs.
//! Paper shape: Gimbal wins throughput (~×1.7 over ReFlex, ×2.1 Parda,
//! ×1.3 FlashFQ on average) with the update-heavy mixes (A, F) benefiting
//! most and read-only C least; Gimbal also cuts avg and tail read latency.

use crate::common::{default_ssd, println_header};
use gimbal_sim::SimDuration;
use gimbal_testbed::{KvRunResult, KvTestbed, KvTestbedConfig, Precondition, Scheme};
use gimbal_workload::YcsbMix;

/// The standard experiment configuration for the KV study.
pub(crate) fn kv_config(
    scheme: Scheme,
    mix: YcsbMix,
    instances: u32,
    quick: bool,
) -> KvTestbedConfig {
    KvTestbedConfig {
        scheme,
        mix,
        instances,
        num_nodes: if quick { 2 } else { 3 },
        ssds_per_node: 2,
        records_per_instance: if quick { 15_000 } else { 40_000 },
        // High per-instance concurrency so the SSDs actually contend — the
        // paper's 24 instances saturate 3 JBOFs; scheme differences only
        // appear under pressure.
        ops_concurrency: 24,
        ssd: default_ssd(),
        precondition: Precondition::Fragmented,
        duration: if quick {
            SimDuration::from_millis(1000)
        } else {
            SimDuration::from_secs(2)
        },
        warmup: if quick {
            SimDuration::from_millis(400)
        } else {
            SimDuration::from_millis(800)
        },
        ..KvTestbedConfig::default()
    }
}

/// Run one (scheme, mix) cell.
pub(crate) fn run_cell(scheme: Scheme, mix: YcsbMix, instances: u32, quick: bool) -> KvRunResult {
    KvTestbed::new(kv_config(scheme, mix, instances, quick)).run()
}

/// DB instances of the study (the paper runs 24).
pub(crate) fn instances(quick: bool) -> u32 {
    if quick {
        12
    } else {
        24
    }
}

/// Run the experiment and print all three panels.
pub(crate) fn run(quick: bool) {
    println_header("Figure 10: YCSB over the KV store, 4 schemes (fragmented SSDs)");
    let instances = instances(quick);
    println!(
        "{:>8} {:>9} {:>12} {:>14} {:>16}",
        "Mix", "Scheme", "KIOPS", "Avg RD (us)", "p99.9 RD (us)"
    );
    for mix in YcsbMix::ALL {
        for scheme in Scheme::COMPARED {
            let res = run_cell(scheme, mix, instances, quick);
            println!(
                "{:>8} {:>9} {:>12.1} {:>14.0} {:>16.0}",
                mix.name(),
                scheme.name(),
                res.total_kiops(),
                res.avg_read_latency_us(),
                res.p999_read_latency_us(),
            );
        }
    }
}
