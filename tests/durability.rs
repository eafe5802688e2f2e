//! Durability e2e suite: the write-back cache under scripted crashes.
//!
//! The tentpole contract has two halves and this suite closes both end to
//! end:
//!
//! * **Crash consistency** — a KV workload (YCSB A over `gimbal-lsm-kv`)
//!   runs over the write-back NIC-DRAM tier while the script kills a
//!   backend, cuts NIC power, or both. Every acked-but-unflushed write must
//!   surface as a dirty-tagged `StagedWriteLoss`, and the crash-consistency
//!   oracle replays each backend's durability journal against a shadow
//!   model to prove the loss set is *exact*: no silent loss, no phantom
//!   loss, WAL-tagged lines flushed in log order.
//! * **The latency win** — the reason write-back exists: on a skewed write
//!   workload, acks at DRAM cost beat write-through's flash-latency acks.
//!
//! Everything here is deterministic: the same seed reproduces the same
//! crash, the same loss set, and the same journals, byte for byte.

use gimbal_repro::fabric::RetryConfig;
use gimbal_repro::sim::{FaultPlan, SimDuration, SimTime};
use gimbal_repro::testbed::{
    cache_tier_wb, check_kv_run, check_run, parse_workers, AdmissionPolicy, CacheConfig,
    FaultConfig, KvTestbed, KvTestbedConfig, Precondition, Scheme, Testbed, TestbedConfig,
    WorkerSpec, WritePolicy, LOSS_EVENT_CMD,
};
use gimbal_repro::workload::{AccessPattern, FioSpec, YcsbMix};

const CAP: u64 = 512 * 1024 * 1024 / 4096;

fn wb_cache_cfg(mb: u64) -> CacheConfig {
    CacheConfig {
        policy: AdmissionPolicy::Always,
        write_policy: WritePolicy::Back,
        ..CacheConfig::for_mb(mb)
    }
}

fn kv_cfg() -> KvTestbedConfig {
    KvTestbedConfig {
        scheme: Scheme::Gimbal,
        mix: YcsbMix::A,
        instances: 3,
        num_nodes: 1,
        ssds_per_node: 2,
        records_per_instance: 8_000,
        duration: SimDuration::from_millis(900),
        warmup: SimDuration::from_millis(300),
        cache: Some(wb_cache_cfg(32)),
        ..KvTestbedConfig::default()
    }
}

/// The KV deployment survives three scripted crash plans — NIC power loss,
/// permanent backend death, and both — with the oracle confirming exact
/// loss accounting on every backend, and the whole failure path replaying
/// bit-identically at the same seed.
#[test]
fn kv_write_back_survives_scripted_crashes_with_exact_loss_accounting() {
    type Plan = (&'static str, Option<u64>, Option<(u32, u64)>);
    let plans: [Plan; 3] = [
        ("power-loss", Some(600), None),
        ("backend-death", None, Some((0, 650))),
        ("power-loss+death", Some(500), Some((1, 700))),
    ];
    for (name, power_ms, death) in plans {
        let run = || {
            let mut c = kv_cfg();
            c.power_loss_at = power_ms.map(SimDuration::from_millis);
            c.fail_backend_at = death.map(|(b, at)| (b, SimDuration::from_millis(at)));
            KvTestbed::new(c).run()
        };
        let a = run();
        let ops: u64 = a.instances.iter().map(|i| i.ops).sum();
        assert!(ops > 200, "{name}: KV made no progress through the crash");
        assert!(
            !a.write_back.is_empty(),
            "{name}: write-back enabled but no stats collected"
        );
        let acked: u64 = a.write_back.iter().map(|w| w.acked).sum();
        let flushed: u64 = a.write_back.iter().map(|w| w.flushed_lines).sum();
        assert!(acked > 0, "{name}: no write ever acked from DRAM");
        assert!(flushed > 0, "{name}: the flusher never drained a line");
        if power_ms.is_some() {
            for (i, wb) in a.write_back.iter().enumerate() {
                assert_eq!(
                    wb.power_losses, 1,
                    "{name}: backend {i} missed the power loss: {wb:?}"
                );
            }
        }
        let lost: u64 = a.write_back.iter().map(|w| w.lost_lines).sum();
        assert!(
            lost > 0,
            "{name}: a crash mid-write-burst must strand dirty lines: {:?}",
            a.write_back
        );
        let surfaced: u64 = a
            .cache_losses
            .iter()
            .filter(|l| l.dirty)
            .map(|l| u64::from(l.lines_lost))
            .sum();
        assert_eq!(
            surfaced, lost,
            "{name}: surfaced dirty-loss records disagree with the counters"
        );
        for l in a.cache_losses.iter().filter(|l| l.dirty) {
            assert_eq!(l.cmd, LOSS_EVENT_CMD, "{name}: wrong sentinel cmd");
        }
        // The oracle: replay every backend's journal against the shadow
        // dirty set; assert no silent loss, no phantom loss, WAL order.
        check_kv_run(&a);
        let b = run();
        assert_eq!(a.write_back, b.write_back, "{name}: counters diverged");
        assert_eq!(a.journals, b.journals, "{name}: journals diverged");
        assert_eq!(a.cache_losses, b.cache_losses, "{name}: losses diverged");
        let ops_b: u64 = b.instances.iter().map(|i| i.ops).sum();
        assert_eq!(ops, ops_b, "{name}: op counts diverged");
    }
}

/// Fourth fault plan, fio engine this time: `FaultPlan::power_loss_at` cuts
/// NIC power mid-run under a write-heavy mixed workload. The command
/// conservation audit and the oracle must both stay green, and write-back
/// off (same plan, write-through) must see no staged-write losses at all.
#[test]
fn fio_power_loss_mid_run_keeps_oracle_green() {
    let run = |write: WritePolicy| {
        let n = 6u64;
        let per = CAP / n;
        let workers: Vec<WorkerSpec> = (0..n)
            .map(|i| {
                let ratio = if i < 2 { 1.0 } else { 0.0 };
                let mut spec = FioSpec::paper_default(ratio, 4096, i * per, per);
                spec.write_pattern = AccessPattern::Zipfian;
                WorkerSpec::new(if i < 2 { "read" } else { "write" }, spec)
            })
            .collect();
        let cfg = TestbedConfig {
            scheme: Scheme::Gimbal,
            precondition: Precondition::Fragmented,
            duration: SimDuration::from_millis(400),
            warmup: SimDuration::from_millis(100),
            seed: 29,
            record_submissions: true,
            faults: Some(FaultConfig {
                plan: FaultPlan {
                    power_loss_at: Some(SimTime::ZERO + SimDuration::from_millis(250)),
                    ..FaultPlan::default()
                },
                retry: RetryConfig::default(),
            }),
            cache: Some(CacheConfig {
                write_policy: write,
                ..wb_cache_cfg(16)
            }),
            ..TestbedConfig::default()
        };
        Testbed::new(cfg, workers).run()
    };
    let back = run(WritePolicy::Back);
    assert!(back.faults.conservation_holds(), "{:?}", back.faults);
    for wb in &back.write_back {
        assert_eq!(wb.power_losses, 1, "power loss missed a pipeline: {wb:?}");
        assert!(wb.conservation_holds(), "{wb:?}");
    }
    check_run(&back);
    let again = run(WritePolicy::Back);
    assert_eq!(back.journals, again.journals, "crash replay diverged");
    assert_eq!(back.stats_digest(), again.stats_digest());
    // Write-back off: the same power loss clears the (clean) cache but has
    // no staged writes to lose — no loss records, no journal.
    let through = run(WritePolicy::Through);
    assert!(through.faults.conservation_holds());
    assert!(through.write_back.is_empty() && through.journals.is_empty());
    assert!(
        through.cache_losses.iter().all(|l| !l.dirty),
        "write-through surfaced dirty-tagged losses: {:?}",
        through.cache_losses
    );
}

/// The journal's storage cost, gated on a machine-independent number: the
/// write-back smoke row of `tests/determinism.rs` (a fragmented SSD under a
/// 16 MiB write-back cache) journals at most 8 encoded bytes per event, a
/// sixth of the 48 B an in-memory `DurabilityEvent` takes, and the oracle
/// replays a non-empty journal.
#[test]
fn durability_journal_stays_under_eight_bytes_per_event() {
    let ms = SimDuration::from_millis;
    let res = Testbed::new(
        TestbedConfig {
            precondition: Precondition::Fragmented,
            duration: ms(500),
            warmup: ms(100),
            seed: 42,
            cache: cache_tier_wb(16, AdmissionPolicy::Always, WritePolicy::Back),
            ..TestbedConfig::default()
        },
        parse_workers("2x4k-read-zipf,4x4k-write-zipf", 1).unwrap(),
    )
    .run();
    let reports = check_run(&res);
    let events: usize = reports.iter().map(|r| r.events).sum();
    assert!(events > 0, "the oracle replayed an empty journal");
    let bytes: usize = res.journals.iter().map(|j| j.encoded_bytes()).sum();
    assert!(
        bytes <= 8 * events,
        "{bytes} journal bytes for {events} events: {:.2} B/event",
        bytes as f64 / events as f64
    );
}

/// The payoff: on a Zipfian 4 KiB write workload, write-back acks at DRAM
/// cost and beats write-through's mean write latency.
#[test]
fn write_back_beats_write_through_on_skewed_writes() {
    let run = |write: WritePolicy| {
        let n = 6u64;
        let per = CAP / n;
        let workers: Vec<WorkerSpec> = (0..n)
            .map(|i| {
                let ratio = if i < 2 { 1.0 } else { 0.0 };
                let mut spec = FioSpec::paper_default(ratio, 4096, i * per, per);
                spec.write_pattern = AccessPattern::Zipfian;
                spec.read_pattern = AccessPattern::Zipfian;
                WorkerSpec::new(if i < 2 { "read" } else { "write" }, spec)
            })
            .collect();
        let cfg = TestbedConfig {
            scheme: Scheme::Gimbal,
            precondition: Precondition::Fragmented,
            duration: SimDuration::from_millis(400),
            warmup: SimDuration::from_millis(100),
            seed: 7,
            cache: Some(CacheConfig {
                write_policy: write,
                ..wb_cache_cfg(16)
            }),
            ..TestbedConfig::default()
        };
        Testbed::new(cfg, workers).run()
    };
    let through = run(WritePolicy::Through);
    let back = run(WritePolicy::Back);
    check_run(&back);
    let [_, wt] = through.group_latency(|_| true);
    let [_, wb] = back.group_latency(|_| true);
    assert!(wt.count > 0 && wb.count > 0, "no write latency recorded");
    let acked: u64 = back.write_back.iter().map(|w| w.acked).sum();
    assert!(acked > 0, "write-back never engaged on the skewed bench");
    assert!(
        wb.mean_us() < wt.mean_us(),
        "write-back mean write latency ({:.1} µs) must beat write-through \
         ({:.1} µs)",
        wb.mean_us(),
        wt.mean_us()
    );
}
