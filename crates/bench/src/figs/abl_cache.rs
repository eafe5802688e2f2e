//! Ablation: the NIC-DRAM cache tier on a skewed read-heavy workload.
//!
//! Eight readers issue Zipf-skewed 4 KB reads (YCSB's theta 0.99) against
//! one SSD; the cache tier is swept off → always-admit → congestion-aware →
//! never-admit. A skewed read-heavy stream is the cache's best case: the
//! hot slots fit in a few MiB of NIC DRAM, so hits bypass both the SSD and
//! the scheme's rate machinery and complete in the DRAM-copy latency. The
//! expected shape: nonzero hit ratio and lower mean read latency whenever
//! fills are admitted, and bit-identical behavior to "off" under
//! `never` only once the classifier sees an uncongested device (the
//! bypassed fills still consume no cache state).

use crate::common::{println_header, testbed_config, CAP_BLOCKS};
use gimbal_cache::{AdmissionPolicy, WritePolicy};
use gimbal_testbed::{
    cache_tier, cache_tier_wb, Precondition, Scheme, Testbed, TestbedConfig, WorkerSpec,
};
use gimbal_workload::{AccessPattern, FioSpec};

fn run_variant(cache_mb: u64, policy: AdmissionPolicy, quick: bool) -> (f64, f64, f64, f64) {
    let n = 8u32;
    let workers: Vec<WorkerSpec> = (0..n)
        .map(|i| {
            // All readers share one region so the Zipf head is a shared
            // working set — the multi-tenant cache's intended prey.
            let mut fio = FioSpec::paper_default(1.0, 4096, 0, CAP_BLOCKS / 4);
            fio.read_pattern = AccessPattern::Zipfian;
            WorkerSpec::new(format!("r{i}"), fio)
        })
        .collect();
    let cfg = TestbedConfig {
        cache: cache_tier(cache_mb, policy),
        ..testbed_config(Scheme::Gimbal, Precondition::Fragmented, quick)
    };
    let res = Testbed::new(cfg, workers).run();
    let bw = res.aggregate_bps(|_| true) / 1e6;
    let [rd, _] = res.group_latency(|_| true);
    (bw, rd.mean_us(), rd.p999_us(), res.cache_hit_ratio())
}

/// Write-policy leg: two Zipf readers plus four Zipf writers over disjoint
/// regions, cache fixed at 16 MiB always-admit, sweeping write-through vs
/// write-back. Write-back acks the hot write set at DRAM cost and drains it
/// through the flusher, so mean write latency should drop while the dirty
/// set stays bounded by the per-tenant partitions.
fn run_wb_variant(write: WritePolicy, quick: bool) -> (f64, f64, f64, u64, u64) {
    let n = 6u64;
    let per = CAP_BLOCKS / n;
    let workers: Vec<WorkerSpec> = (0..n)
        .map(|i| {
            let ratio = if i < 2 { 1.0 } else { 0.0 };
            let mut fio = FioSpec::paper_default(ratio, 4096, i * per, per);
            fio.read_pattern = AccessPattern::Zipfian;
            fio.write_pattern = AccessPattern::Zipfian;
            WorkerSpec::new(
                if i < 2 {
                    format!("r{i}")
                } else {
                    format!("w{i}")
                },
                fio,
            )
        })
        .collect();
    let cfg = TestbedConfig {
        cache: cache_tier_wb(16, AdmissionPolicy::Always, write),
        ..testbed_config(Scheme::Gimbal, Precondition::Fragmented, quick)
    };
    let res = Testbed::new(cfg, workers).run();
    let bw = res.aggregate_bps(|_| true) / 1e6;
    let [_, wr] = res.group_latency(|_| true);
    let acked: u64 = res.write_back.iter().map(|w| w.acked).sum();
    let flushed: u64 = res.write_back.iter().map(|w| w.flushed_lines).sum();
    (bw, wr.mean_us(), wr.p999_us(), acked, flushed)
}

/// Run the ablation: cache off and three admission policies.
pub(crate) fn run(quick: bool) {
    println_header("Ablation: NIC-DRAM cache tier (Gimbal, 8 Zipf readers, 4KB)");
    println!(
        "{:>18} {:>12} {:>12} {:>14} {:>10}",
        "Variant", "Agg MB/s", "avg (us)", "p99.9 (us)", "hit ratio"
    );
    let variants: [(&str, u64, AdmissionPolicy); 4] = [
        ("off", 0, AdmissionPolicy::Never),
        ("64MB always", 64, AdmissionPolicy::Always),
        ("64MB congestion", 64, AdmissionPolicy::CongestionAware),
        ("64MB never", 64, AdmissionPolicy::Never),
    ];
    for (label, mb, policy) in variants {
        let (bw, avg, p999, hit) = run_variant(mb, policy, quick);
        println!("{label:>18} {bw:>12.0} {avg:>12.0} {p999:>14.0} {hit:>10.3}");
    }
    println_header("Ablation: write policy (Gimbal, 16MB always, Zipf writers)");
    println!(
        "{:>18} {:>12} {:>14} {:>16} {:>10} {:>10}",
        "Variant", "Agg MB/s", "wr avg (us)", "wr p99.9 (us)", "acked", "flushed"
    );
    for write in [WritePolicy::Through, WritePolicy::Back] {
        let (bw, avg, p999, acked, flushed) = run_wb_variant(write, quick);
        println!(
            "{:>18} {bw:>12.0} {avg:>14.0} {p999:>16.0} {acked:>10} {flushed:>10}",
            write.name()
        );
    }
}
