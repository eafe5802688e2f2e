//! Broker suite: inter-tenant token borrowing end to end.
//!
//! The broker is an option-gated subsystem: with `broker: None` the engine
//! schedules no epoch events and folds nothing extra into the digests, so a
//! broker-off run is bit-identical to a build without the crate. With the
//! ledger armed, every grant/borrow/repay is journaled and the conservation
//! audit (`granted == repaid + forgiven + outstanding`) runs at every epoch
//! and at the wall. This suite pins down:
//!
//! * broker-off bit-identity for all four compared schemes;
//! * broker-on double-run bit-identity (stats, submissions, access journal);
//! * conservation and debt forgiveness across injected device death;
//! * the isolation floor against adversarial always-on borrowers;
//! * flush traffic (write-back cache) charged to the owning tenant;
//! * deterministic Serifos-style migrations off interference telemetry;
//! * the headline: borrowing beats strict buckets on staggered bursts.

mod common;

use common::broker_bench;
use gimbal_repro::fabric::RetryConfig;
use gimbal_repro::sim::{FaultPlan, SimDuration, SimTime, SsdFaultSpec};
use gimbal_repro::testbed::{
    cache_tier_wb, jain_index, AdmissionPolicy, BrokerConfig, BrokerMode, FaultConfig,
    Precondition, RunResult, Scheme, Testbed, TestbedConfig, WorkerSpec, WritePolicy,
};
use gimbal_repro::workload::FioSpec;

const CAP: u64 = 512 * 1024 * 1024 / 4096;

fn ms(v: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(v)
}

/// A tight broker config: low capacity and a small burst so the heavy
/// tenant's bucket actually drains and borrowing is forced within a short
/// run, rather than coasting on the initial burst allowance.
fn tight_broker() -> BrokerConfig {
    BrokerConfig {
        capacity_bps: 64 * 1024 * 1024,
        burst_bytes: 256 * 1024,
        epoch: SimDuration::from_millis(5),
        ..BrokerConfig::default()
    }
}

/// One heavy 128 KiB reader plus `idle` mostly-quiet 4 KiB tenants on a
/// single SSD: the heavy tenant outruns its entitled share and must borrow
/// from the idle lenders every epoch.
fn skewed_workers(idle: u32) -> Vec<WorkerSpec> {
    let n = u64::from(idle) + 1;
    let per = CAP / n;
    let mut workers = vec![WorkerSpec::new(
        "heavy",
        FioSpec::paper_default(1.0, 128 * 1024, 0, per),
    )];
    for i in 0..idle {
        let mut fio = FioSpec::paper_default(1.0, 4096, (u64::from(i) + 1) * per, per);
        fio.queue_depth = 1;
        fio.rate_limit = Some(1024.0 * 1024.0);
        workers.push(WorkerSpec::new("idle", fio));
    }
    workers
}

fn run(cfg: TestbedConfig, workers: Vec<WorkerSpec>) -> RunResult {
    Testbed::new(cfg, workers).run()
}

fn base_cfg(scheme: Scheme) -> TestbedConfig {
    TestbedConfig {
        scheme,
        precondition: Precondition::Clean,
        duration: SimDuration::from_millis(300),
        warmup: SimDuration::from_millis(50),
        record_submissions: true,
        sanitize: true,
        ..TestbedConfig::default()
    }
}

/// With `broker: None`, every compared scheme double-runs to identical
/// stats, submission, and access-journal digests, and reports no broker
/// stats at all — the subsystem is provably inert when disabled.
#[test]
fn broker_off_is_bit_identical_for_every_scheme() {
    for scheme in Scheme::COMPARED {
        let a = run(base_cfg(scheme), skewed_workers(2));
        let b = run(base_cfg(scheme), skewed_workers(2));
        assert!(
            a.broker.is_none(),
            "{}: broker off but stats",
            scheme.name()
        );
        assert_eq!(
            a.stats_digest(),
            b.stats_digest(),
            "{}: broker-off stats digests diverged",
            scheme.name()
        );
        assert_eq!(
            a.submission_digest(),
            b.submission_digest(),
            "{}: broker-off submission digests diverged",
            scheme.name()
        );
        let (ja, jb) = (a.access_journal.unwrap(), b.access_journal.unwrap());
        assert_eq!(
            ja.digest(),
            jb.digest(),
            "{}: broker-off journals diverged",
            scheme.name()
        );
    }
}

/// With the ledger armed, double runs at the same seed are bit-identical —
/// borrowing, repayment, and the interest schedule are all deterministic —
/// and the run actually borrowed (the test is vacuous otherwise).
#[test]
fn broker_on_double_runs_are_bit_identical() {
    let mk = || {
        let cfg = TestbedConfig {
            broker: Some(tight_broker()),
            ..base_cfg(Scheme::Gimbal)
        };
        run(cfg, skewed_workers(2))
    };
    let a = mk();
    let b = mk();
    let sa = a.broker.as_ref().expect("broker stats");
    assert!(sa.borrow_events > 0, "no borrowing: {sa:?}");
    assert!(sa.conservation_holds(), "ledger leaked: {sa:?}");
    assert_eq!(a.stats_digest(), b.stats_digest());
    assert_eq!(a.submission_digest(), b.submission_digest());
    assert_eq!(
        a.access_journal.unwrap().digest(),
        b.access_journal.unwrap().digest()
    );
    assert_eq!(sa, b.broker.as_ref().expect("broker stats"));
}

/// Chaos: the SSD dies mid-run with debts outstanding. The next settlement
/// forgives every debt touching the dead device, conservation still
/// balances at the wall, and the command-level audit holds too.
#[test]
fn device_death_forgives_debts_and_conserves() {
    let cfg = TestbedConfig {
        broker: Some(tight_broker()),
        faults: Some(FaultConfig {
            plan: FaultPlan {
                ssd: vec![SsdFaultSpec {
                    fail_at: Some(ms(203)),
                    ..SsdFaultSpec::default()
                }],
                ..FaultPlan::default()
            },
            retry: RetryConfig::default(),
        }),
        ..base_cfg(Scheme::Gimbal)
    };
    let res = run(cfg, skewed_workers(2));
    let s = res.broker.as_ref().expect("broker stats");
    assert!(s.borrow_events > 0, "no borrowing before death: {s:?}");
    assert!(s.forgiven > 0, "death forgave nothing: {s:?}");
    assert!(s.conservation_holds(), "ledger leaked: {s:?}");
    assert_eq!(s.floor_violations, 0, "floor pierced: {s:?}");
    assert!(res.faults.conservation_holds(), "{:?}", res.faults);
}

/// Adversarial borrowers: three always-on 128 KiB tenants all over their
/// entitlement, one modest 4 KiB tenant. However hard the adversaries
/// borrow, the floor (each lender keeps `floor_num/floor_den` of its
/// entitled refill) is never pierced and the modest tenant still completes
/// IO every epoch.
#[test]
fn adversarial_borrowers_never_pierce_the_isolation_floor() {
    let per = CAP / 4;
    let mut workers: Vec<WorkerSpec> = (0..3u32)
        .map(|i| {
            WorkerSpec::new(
                "adversary",
                FioSpec::paper_default(1.0, 128 * 1024, u64::from(i) * per, per),
            )
        })
        .collect();
    let mut modest = FioSpec::paper_default(1.0, 4096, 3 * per, per);
    modest.queue_depth = 2;
    workers.push(WorkerSpec::new("modest", modest));
    let cfg = TestbedConfig {
        broker: Some(tight_broker()),
        ..base_cfg(Scheme::Gimbal)
    };
    let res = run(cfg, workers);
    let s = res.broker.as_ref().expect("broker stats");
    assert!(s.conservation_holds(), "ledger leaked: {s:?}");
    assert_eq!(s.floor_violations, 0, "floor pierced: {s:?}");
    let modest = res.workers.last().expect("modest worker");
    assert!(modest.ops > 0, "modest tenant starved: {modest:?}");
}

/// Flush-charging regression: with a write-back cache, the deterministic
/// flusher's writes reach the broker tagged with the *owning* tenant, not a
/// system account — `flush_charged_bytes` moves and stays inside the
/// overall charge total.
#[test]
fn write_back_flushes_are_charged_to_the_owning_tenant() {
    let per = CAP / 2;
    let workers = vec![
        WorkerSpec::new("writer", FioSpec::paper_default(0.0, 4096, 0, per)),
        WorkerSpec::new("reader", FioSpec::paper_default(1.0, 4096, per, per)),
    ];
    let cfg = TestbedConfig {
        broker: Some(tight_broker()),
        cache: cache_tier_wb(64, AdmissionPolicy::CongestionAware, WritePolicy::Back),
        ..base_cfg(Scheme::Gimbal)
    };
    let res = run(cfg, workers);
    let s = res.broker.as_ref().expect("broker stats");
    assert!(s.flush_charged_bytes > 0, "no flush traffic charged: {s:?}");
    assert!(
        s.flush_charged_bytes <= s.charged_bytes,
        "flush charge outside the total: {s:?}"
    );
    assert!(s.conservation_holds(), "ledger leaked: {s:?}");
}

/// Serifos-style placement: two SSDs, one crushed under three big-IO
/// tenants, the other idle with one light tenant. Epoch telemetry marks the
/// loaded device congested; the planner emits deterministic migrations and
/// double runs agree bit-for-bit on them.
#[test]
fn placement_migrations_fire_and_are_deterministic() {
    let mk = || {
        let per = CAP / 4;
        let mut workers: Vec<WorkerSpec> = (0..3u32)
            .map(|i| {
                WorkerSpec::new(
                    "crush",
                    FioSpec::paper_default(0.0, 128 * 1024, u64::from(i) * per, per),
                )
                .on_ssd(0)
            })
            .collect();
        let mut light = FioSpec::paper_default(1.0, 4096, 3 * per, per);
        light.queue_depth = 1;
        workers.push(WorkerSpec::new("light", light).on_ssd(1));
        let cfg = TestbedConfig {
            num_ssds: 2,
            precondition: Precondition::Fragmented,
            broker: Some(BrokerConfig {
                placement: true,
                max_moves_per_epoch: 1,
                ..tight_broker()
            }),
            ..base_cfg(Scheme::Gimbal)
        };
        run(cfg, workers)
    };
    let a = mk();
    let b = mk();
    let s = a.broker.as_ref().expect("broker stats");
    assert!(s.migrations > 0, "planner never moved a tenant: {s:?}");
    assert!(s.conservation_holds(), "ledger leaked: {s:?}");
    assert_eq!(s, b.broker.as_ref().expect("broker stats"));
    assert_eq!(a.stats_digest(), b.stats_digest());
    assert_eq!(
        a.access_journal.unwrap().digest(),
        b.access_journal.unwrap().digest()
    );
}

/// The broker's headline on the staggered bursty mix: strict per-tenant
/// buckets waste every off-phase tenant's refill, borrowing lends it to the
/// one tenant that is on. Borrowing must buy at least 15 % aggregate
/// throughput (measured: 195.7 vs 141.1 MB/s, +38.6 %) while giving up no
/// more than 0.01 of Jain's index against strict (0.9957 vs 1.0000).
#[test]
fn borrowing_beats_strict_on_staggered_bursts() {
    let measure = |mode| {
        let (cfg, workers) = broker_bench(mode);
        let res = run(cfg, workers);
        let per_worker: Vec<f64> = res.workers.iter().map(|w| w.bandwidth_mbps()).collect();
        (res.aggregate_bps(|_| true) / 1e6, jain_index(&per_worker))
    };
    let (strict_mbps, strict_jain) = measure(BrokerMode::Strict);
    let (borrow_mbps, borrow_jain) = measure(BrokerMode::Borrow);
    assert!(
        borrow_mbps >= strict_mbps * 1.15,
        "borrowing {borrow_mbps:.1} MB/s must beat strict {strict_mbps:.1} MB/s by >= 15%"
    );
    assert!(
        borrow_jain >= strict_jain - 0.01,
        "borrowing gave up fairness: Jain {borrow_jain:.5} vs strict {strict_jain:.5}"
    );
}
