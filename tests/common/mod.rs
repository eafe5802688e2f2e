//! Configurations shared by the integration suites: the phase-staggered
//! broker bench, the chaos suite's mixed workers and combined fault plan,
//! and digest folds for the results that publish none of their own. Each
//! suite uses a subset. Worker lists in the `jbofsim --workers` grammar
//! come from the library's own `parse_workers`.
#![allow(dead_code)]

use gimbal_repro::lsm_kv::LsmStats;
use gimbal_repro::sim::{Digest, FaultPlan, FaultWindow, SimDuration, SimTime, SsdFaultSpec};
use gimbal_repro::testbed::{
    parse_workers, BrokerConfig, BrokerMode, FaultCounters, KvRunResult, TestbedConfig, WorkerSpec,
};
use gimbal_repro::workload::FioSpec;

const CAP: u64 = 512 * 1024 * 1024 / 4096;

fn ms(v: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(v)
}

/// `readers` 4 KiB readers then `writers` 4 KiB writers on SSD 0, each over
/// its own equal LBA region.
pub(crate) fn mixed_workers(readers: u32, writers: u32) -> Vec<WorkerSpec> {
    let n = readers + writers;
    let per = CAP / u64::from(n);
    (0..n)
        .map(|i| {
            let ratio = if i < readers { 1.0 } else { 0.0 };
            let label = if i < readers { "read" } else { "write" };
            WorkerSpec::new(
                label,
                FioSpec::paper_default(ratio, 4096, u64::from(i) * per, per),
            )
        })
        .collect()
}

/// The chaos suite's combined plan: capsule loss, a burst brown-out, a
/// stall, transient device errors, and device death at 320 ms.
pub(crate) fn combined() -> FaultPlan {
    FaultPlan {
        cmd_loss_prob: 0.01,
        cpl_loss_prob: 0.01,
        burst_windows: vec![FaultWindow::new(ms(120), ms(130))],
        ssd: vec![SsdFaultSpec {
            transient_error_prob: 0.02,
            stall_windows: vec![FaultWindow::new(ms(180), ms(220))],
            fail_at: Some(ms(320)),
        }],
        ..FaultPlan::default()
    }
}

/// Every [`FaultCounters`] field, in declaration order. `stats_digest`
/// leaves these out, so this is what pins the dedup, resend and retry
/// paths.
pub(crate) fn fault_digest(f: &FaultCounters) -> u64 {
    let mut d = Digest::new();
    for v in [
        f.submitted,
        f.completed_ok,
        f.completed_err,
        f.timed_out,
        f.in_flight_at_end,
        f.cmd_capsules_dropped,
        f.cpl_capsules_dropped,
        f.retries,
        f.completions_resent,
        f.duplicate_cmds_ignored,
        f.stale_completions_ignored,
        f.cache_served,
    ] {
        d.update_u64(v);
    }
    d.value()
}

/// The KV engine publishes no digest of its own: fold per-instance ops,
/// latency summaries and every LSM counter, every per-backend device
/// counter, and — with the same gating as `RunResult::stats_digest` — the
/// cache tier's counters, staged-write losses, write-back counters and
/// durability journals.
pub(crate) fn kv_digest(r: &KvRunResult) -> u64 {
    let mut d = Digest::new();
    for i in &r.instances {
        d.update_u64(i.ops);
        i.read_latency.fold_into(&mut d);
        i.write_latency.fold_into(&mut d);
        // Destructured so a new counter cannot be left out silently.
        let LsmStats {
            mem_hits,
            probe_reads,
            probe_misses,
            wal_writes,
            flushes,
            compactions,
            write_stalls,
            failed_read_retries,
            degraded_writes,
            background_write_bytes,
            background_read_bytes,
        } = i.lsm;
        for v in [
            mem_hits,
            probe_reads,
            probe_misses,
            wal_writes,
            flushes,
            compactions,
            write_stalls,
            failed_read_retries,
            degraded_writes,
            background_write_bytes,
            background_read_bytes,
        ] {
            d.update_u64(v);
        }
    }
    for s in &r.ssd_stats {
        s.fold_into(&mut d);
    }
    if !r.cache.is_empty() {
        for c in &r.cache {
            c.fold_into(&mut d);
        }
        d.update_u64(r.cache_losses.len() as u64);
        for l in &r.cache_losses {
            l.fold_into(&mut d);
        }
    }
    if !r.write_back.is_empty() {
        for wb in &r.write_back {
            wb.fold_into(&mut d);
        }
        for j in &r.journals {
            j.fold_into(&mut d);
        }
    }
    d.value()
}

/// The mix the broker's headline is measured on: four 4 KiB readers, each
/// 25 ms on and 75 ms off with phases staggered so exactly one is on at a
/// time, over one SSD brokered at 200 MiB/s. Strict per-tenant buckets waste
/// every off-phase tenant's refill; borrowing recovers it. The 17 ms epoch
/// is co-prime with the 100 ms burst period, so settlement never
/// phase-locks to one tenant's window.
pub(crate) fn broker_bench(mode: BrokerMode) -> (TestbedConfig, Vec<WorkerSpec>) {
    let cfg = TestbedConfig {
        duration: SimDuration::from_millis(500),
        warmup: SimDuration::from_millis(100),
        seed: 42,
        broker: Some(BrokerConfig {
            mode,
            capacity_bps: 200 * 1024 * 1024,
            epoch: SimDuration::from_millis(17),
            ..BrokerConfig::default()
        }),
        ..TestbedConfig::default()
    };
    (cfg, parse_workers("4x4k-read-burst25x75", 1).unwrap())
}
