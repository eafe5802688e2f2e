//! Double-run determinism: the end-to-end proof behind the lint policy.
//!
//! The whole point of eradicating unordered maps and ambient time from the
//! simulation crates is that one seed pins down an entire run. This suite
//! runs each scheduling engine twice with an identical config and seed and
//! asserts that the two runs produced the *same submission trace* (every
//! command, in order, with time/tenant/opcode/lba/len) and the same stats
//! digest. It would have failed, flakily, before the `DetMap` migration:
//! per-process `HashMap` ordering leaked into tenant scheduling order.

mod common;

use common::{broker_bench, cli_workers, combined, fault_digest, kv_digest, mixed_workers};
use gimbal_repro::cores::StealConfig;
use gimbal_repro::fabric::RetryConfig;
use gimbal_repro::rack::{RackConfig, RackTestbed};
use gimbal_repro::sim::{FaultPlan, SimDuration, SimTime};
use gimbal_repro::telemetry::TraceConfig;
use gimbal_repro::testbed::{
    cache_tier_wb, check_run, AdmissionPolicy, BrokerMode, CacheConfig, FaultConfig, KvTestbed,
    KvTestbedConfig, Precondition, RunResult, Scheme, Testbed, TestbedConfig, WritePolicy,
};
use gimbal_repro::workload::{AccessPattern, YcsbMix};

fn run_once(scheme: Scheme, seed: u64) -> RunResult {
    run_cfg(scheme, seed, None)
}

fn run_cfg(scheme: Scheme, seed: u64, trace: Option<TraceConfig>) -> RunResult {
    run_cache_cfg(scheme, seed, trace, None)
}

fn run_cache_cfg(
    scheme: Scheme,
    seed: u64,
    trace: Option<TraceConfig>,
    cache: Option<CacheConfig>,
) -> RunResult {
    let cfg = TestbedConfig {
        scheme,
        precondition: Precondition::Fragmented,
        duration: SimDuration::from_millis(400),
        warmup: SimDuration::from_millis(100),
        seed,
        record_submissions: true,
        trace,
        cache,
        ..TestbedConfig::default()
    };
    Testbed::new(cfg, mixed_workers(3, 3)).run()
}

/// Same seed twice ⇒ byte-identical submission trace and stats digest, for
/// Gimbal and all three baselines.
#[test]
fn same_seed_reproduces_trace_and_stats_for_every_engine() {
    for scheme in [
        Scheme::Gimbal,
        Scheme::Reflex,
        Scheme::Parda,
        Scheme::FlashFq,
    ] {
        let a = run_once(scheme, 7);
        let b = run_once(scheme, 7);
        assert!(
            !a.submissions.is_empty(),
            "{}: no submissions recorded",
            scheme.name()
        );
        assert_eq!(
            a.submissions,
            b.submissions,
            "{}: submission traces diverged between identical runs",
            scheme.name()
        );
        assert_eq!(
            a.submission_digest(),
            b.submission_digest(),
            "{}: trace digests diverged",
            scheme.name()
        );
        assert_eq!(
            a.stats_digest(),
            b.stats_digest(),
            "{}: stats digests diverged between identical runs",
            scheme.name()
        );
    }
}

/// Telemetry satellite: with tracing *enabled*, the recorded event stream is
/// itself deterministic — two runs at the same seed produce identical trace
/// digests (sequence numbers, timestamps, payloads and all), for every
/// engine. Different seeds must produce different traces.
#[test]
fn trace_digest_is_reproducible_per_seed_for_every_engine() {
    let trace = Some(TraceConfig { capacity: 1 << 20 });
    for scheme in [
        Scheme::Gimbal,
        Scheme::Reflex,
        Scheme::Parda,
        Scheme::FlashFq,
    ] {
        let a = run_cfg(scheme, 7, trace.clone());
        let b = run_cfg(scheme, 7, trace.clone());
        let ta = a.trace.as_ref().expect("trace enabled");
        let tb = b.trace.as_ref().expect("trace enabled");
        assert!(
            !ta.events.is_empty(),
            "{}: tracing enabled but no events recorded",
            scheme.name()
        );
        assert_eq!(
            ta.total_recorded,
            tb.total_recorded,
            "{}: event counts diverged",
            scheme.name()
        );
        assert_eq!(
            a.trace_digest(),
            b.trace_digest(),
            "{}: trace digests diverged between identical runs",
            scheme.name()
        );
        let c = run_cfg(scheme, 8, trace.clone());
        assert_ne!(
            a.trace_digest(),
            c.trace_digest(),
            "{}: different seeds produced identical traces",
            scheme.name()
        );
    }
}

/// Telemetry satellite, the other half of the bargain: *enabling* tracing
/// must not perturb the simulation. A traced run and an untraced run at the
/// same seed submit the same commands and compute the same stats — the
/// recorder observes the schedule, it never participates in it.
#[test]
fn tracing_is_an_observer_not_a_participant() {
    for scheme in [
        Scheme::Gimbal,
        Scheme::Reflex,
        Scheme::Parda,
        Scheme::FlashFq,
    ] {
        let plain = run_cfg(scheme, 7, None);
        let traced = run_cfg(scheme, 7, Some(TraceConfig { capacity: 1 << 20 }));
        assert!(plain.trace.is_none());
        assert_eq!(
            plain.submissions,
            traced.submissions,
            "{}: tracing changed the submission schedule",
            scheme.name()
        );
        assert_eq!(
            plain.submission_digest(),
            traced.submission_digest(),
            "{}: tracing changed the submission digest",
            scheme.name()
        );
        assert_eq!(
            plain.stats_digest(),
            traced.stats_digest(),
            "{}: tracing changed the stats digest",
            scheme.name()
        );
    }
}

/// Cache satellite, the bit-identity half: with the cache disabled — either
/// `None` or a zero-capacity config — every engine's run is byte-identical
/// to one on a build without cache support: same submissions, same stats
/// digest, same telemetry digest. The zero-capacity leg proves the pipeline
/// filters disabled configs out before constructing any cache state.
#[test]
fn cache_off_is_bit_identical_for_every_engine() {
    let trace = Some(TraceConfig { capacity: 1 << 20 });
    let zero = CacheConfig {
        capacity_bytes: 0,
        ..CacheConfig::default()
    };
    for scheme in [
        Scheme::Gimbal,
        Scheme::Reflex,
        Scheme::Parda,
        Scheme::FlashFq,
    ] {
        let none = run_cache_cfg(scheme, 7, trace.clone(), None);
        let zeroed = run_cache_cfg(scheme, 7, trace.clone(), Some(zero.clone()));
        assert!(
            zeroed.cache.is_empty(),
            "{}: zero-capacity config constructed a cache",
            scheme.name()
        );
        assert_eq!(
            none.submissions,
            zeroed.submissions,
            "{}: disabled cache changed the submission schedule",
            scheme.name()
        );
        assert_eq!(
            none.submission_digest(),
            zeroed.submission_digest(),
            "{}: disabled cache changed the submission digest",
            scheme.name()
        );
        assert_eq!(
            none.stats_digest(),
            zeroed.stats_digest(),
            "{}: disabled cache changed the stats digest",
            scheme.name()
        );
        assert_eq!(
            none.trace_digest(),
            zeroed.trace_digest(),
            "{}: disabled cache changed the telemetry digest",
            scheme.name()
        );
    }
}

/// Cache satellite, the determinism half: with the cache *enabled* on a
/// skewed read workload, two runs at the same seed agree on everything —
/// submissions, stats digest (which now folds the full cache state), and
/// the per-SSD hit/miss counters themselves.
#[test]
fn cache_on_double_run_is_deterministic() {
    let cache = Some(CacheConfig {
        policy: AdmissionPolicy::Always,
        ..CacheConfig::for_mb(16)
    });
    let run = |seed: u64| {
        let mut workers = mixed_workers(3, 3);
        for w in &mut workers {
            if w.fio.read_ratio > 0.5 {
                w.fio.read_pattern = AccessPattern::Zipfian;
            }
        }
        let cfg = TestbedConfig {
            scheme: Scheme::Gimbal,
            precondition: Precondition::Fragmented,
            duration: SimDuration::from_millis(400),
            warmup: SimDuration::from_millis(100),
            seed,
            record_submissions: true,
            cache: cache.clone(),
            ..TestbedConfig::default()
        };
        Testbed::new(cfg, workers).run()
    };
    let a = run(7);
    let b = run(7);
    assert!(!a.cache.is_empty(), "cache enabled but no stats collected");
    let hits: u64 = a.cache.iter().map(|c| c.hits).sum();
    assert!(hits > 0, "Zipf readers through a 16 MiB cache never hit");
    assert_eq!(a.cache, b.cache, "cache counters diverged between runs");
    assert_eq!(a.submissions, b.submissions);
    assert_eq!(a.stats_digest(), b.stats_digest());
    let c = run(8);
    assert_ne!(
        a.stats_digest(),
        c.stats_digest(),
        "different seeds produced identical cache-on stats digests"
    );
}

/// Write-back satellite, the determinism half: with `WritePolicy::Back`
/// enabled, two runs at the same seed agree on everything — submissions,
/// the stats digest (which now folds the write-back counters and the full
/// durability journal), and the flush/ack counters themselves — for Gimbal
/// and all three baselines. A different seed must change the digest.
#[test]
fn write_back_double_run_is_deterministic_for_every_engine() {
    let cache = Some(CacheConfig {
        policy: AdmissionPolicy::Always,
        write_policy: WritePolicy::Back,
        ..CacheConfig::for_mb(16)
    });
    for scheme in [
        Scheme::Gimbal,
        Scheme::Reflex,
        Scheme::Parda,
        Scheme::FlashFq,
    ] {
        let a = run_cache_cfg(scheme, 7, None, cache.clone());
        let b = run_cache_cfg(scheme, 7, None, cache.clone());
        assert!(
            !a.write_back.is_empty(),
            "{}: write-back enabled but no stats collected",
            scheme.name()
        );
        let acked: u64 = a.write_back.iter().map(|w| w.acked).sum();
        let flushed: u64 = a.write_back.iter().map(|w| w.flushed_lines).sum();
        assert!(acked > 0, "{}: no writes acked from DRAM", scheme.name());
        assert!(
            flushed > 0,
            "{}: flusher never drained a line",
            scheme.name()
        );
        check_run(&a);
        assert_eq!(
            a.write_back,
            b.write_back,
            "{}: write-back counters diverged between identical runs",
            scheme.name()
        );
        assert_eq!(
            a.journals,
            b.journals,
            "{}: durability journals diverged between identical runs",
            scheme.name()
        );
        assert_eq!(a.submissions, b.submissions, "{}", scheme.name());
        assert_eq!(a.stats_digest(), b.stats_digest(), "{}", scheme.name());
        let c = run_cache_cfg(scheme, 8, None, cache.clone());
        assert_ne!(
            a.stats_digest(),
            c.stats_digest(),
            "{}: different seeds produced identical write-back digests",
            scheme.name()
        );
    }
}

/// Write-back satellite, the bit-identity half: with write-back *off*
/// (`WritePolicy::Through`, the default) a run is byte-identical to one on
/// a config that never heard of write-back — the flusher knobs
/// (`dirty_high_percent`, `flush_max_age`, `flush_batch`) must be inert, no
/// write-back stats or journals may be collected, and the stats digest
/// matches the plain write-through digest exactly, for every engine.
#[test]
fn write_back_off_is_bit_identical_for_every_engine() {
    let plain = Some(CacheConfig {
        policy: AdmissionPolicy::Always,
        ..CacheConfig::for_mb(16)
    });
    // Same cache, write-back explicitly off, flusher knobs set to junk
    // values: none of it may leak into a write-through run.
    let knobs = Some(CacheConfig {
        policy: AdmissionPolicy::Always,
        write_policy: WritePolicy::Through,
        dirty_high_percent: 3,
        flush_max_age: SimDuration::from_millis(123),
        flush_batch: 17,
        ..CacheConfig::for_mb(16)
    });
    for scheme in [
        Scheme::Gimbal,
        Scheme::Reflex,
        Scheme::Parda,
        Scheme::FlashFq,
    ] {
        let a = run_cache_cfg(scheme, 7, None, plain.clone());
        let b = run_cache_cfg(scheme, 7, None, knobs.clone());
        assert!(
            a.write_back.is_empty() && b.write_back.is_empty(),
            "{}: write-through run collected write-back stats",
            scheme.name()
        );
        assert!(
            a.journals.is_empty() && b.journals.is_empty(),
            "{}: write-through run recorded a durability journal",
            scheme.name()
        );
        assert_eq!(
            a.submissions,
            b.submissions,
            "{}: inert flusher knobs changed the submission schedule",
            scheme.name()
        );
        assert_eq!(
            a.stats_digest(),
            b.stats_digest(),
            "{}: inert flusher knobs changed the stats digest",
            scheme.name()
        );
    }
}

/// Behaviour pins: one configuration per extension, each held to the stats
/// digest it produced when its numbers were last accepted. The digests fold
/// per-worker latency and throughput plus the broker, cores, cache and
/// write-back counters, so any behaviour change moves them. The first seven
/// rows are `jbofsim` command lines; the CLI prints the same
/// `stats digest 0x…`, which is how such a row is regenerated after an
/// intended model change. The journal, fault-counter and KV rows have no
/// CLI form: the failure message prints their new values.
#[test]
fn headline_configurations_keep_their_pinned_digests() {
    let run = |cfg: TestbedConfig, workers| Testbed::new(cfg, workers).run().stats_digest();
    let ms = SimDuration::from_millis;
    // --precondition clean --duration-ms 500 --warmup-ms 100 --seed 42
    //   --cache-mb 16 --cache-policy congestion
    let smoke = TestbedConfig {
        duration: ms(500),
        warmup: ms(100),
        seed: 42,
        cache: cache_tier_wb(16, AdmissionPolicy::CongestionAware, WritePolicy::Through),
        ..TestbedConfig::default()
    };
    // --ssds 8 --cores 2 --duration-ms 400 --warmup-ms 100 --seed 42 [--steal]
    let cores = |steal| TestbedConfig {
        num_ssds: 8,
        cores: 2,
        duration: ms(400),
        warmup: ms(100),
        seed: 42,
        steal,
        ..TestbedConfig::default()
    };
    let hot = [
        "1x4k-read-ssd0",
        "1x4k-read-ssd2",
        "1x4k-read-ssd4",
        "1x4k-read-ssd6",
    ];
    // --rack-nodes 3 --rack-fault node-death --duration-ms 200
    //   --warmup-ms 40 --seed 42 --sanitize: node 1 dies a third of the
    //   way in.
    let rack_cfg = RackConfig {
        duration: ms(200),
        warmup: ms(40),
        seed: 42,
        sanitize: true,
        faults: Some(FaultConfig {
            plan: FaultPlan::default()
                .with_node_death(1, SimTime::ZERO + SimDuration::from_micros(66_666)),
            retry: RetryConfig {
                base_timeout: ms(1),
                max_timeout: ms(8),
                max_retries: 5,
                suspect_after: 2,
            },
        }),
        ..RackConfig::default()
    };
    let rack = RackTestbed::new(rack_cfg.clone()).run();
    // The chaos suite's combined plan (loss, brown-out, stall, transient
    // errors, device death) with the journal on: the only rows that reach
    // the fio engine's replay dedup, resend and retry paths.
    let chaos = Testbed::new(
        TestbedConfig {
            precondition: Precondition::Fragmented,
            duration: ms(400),
            warmup: ms(100),
            seed: 42,
            record_submissions: true,
            sanitize: true,
            faults: Some(FaultConfig {
                plan: combined(),
                retry: RetryConfig::default(),
            }),
            ..TestbedConfig::default()
        },
        mixed_workers(3, 3),
    )
    .run();
    // A small YCSB-A deployment with a memtable small enough to flush and
    // compact inside the run.
    let mut kv = KvTestbedConfig {
        instances: 3,
        records_per_instance: 10_000,
        duration: ms(400),
        warmup: ms(100),
        seed: 42,
        ..KvTestbedConfig::default()
    };
    kv.lsm.memtable_bytes = 256 * 1024;
    let kv = KvTestbed::new(kv).run();
    // Parda YCSB-B with backend 0's flash failing mid-run: the Parda
    // window gate and the error-completion failover path.
    let kv_fail = KvTestbed::new(KvTestbedConfig {
        scheme: Scheme::Parda,
        mix: YcsbMix::B,
        instances: 3,
        records_per_instance: 10_000,
        duration: ms(400),
        warmup: ms(100),
        seed: 42,
        fail_backend_at: Some((0, ms(200))),
        ..KvTestbedConfig::default()
    })
    .run();
    // The node-death rack under 2 % command and completion loss:
    // retransmission and suspect-and-reroute under loss.
    let mut lossy = rack_cfg.clone();
    if let Some(f) = lossy.faults.as_mut() {
        f.plan.cmd_loss_prob = 0.02;
        f.plan.cpl_loss_prob = 0.02;
    }
    let lossy = RackTestbed::new(lossy).run();
    let f = &chaos.faults;
    assert!(
        f.retries > 0 && f.completions_resent > 0 && f.duplicate_cmds_ignored > 0,
        "chaos row misses a recovery path: {f:?}"
    );
    assert!(
        kv.instances.iter().any(|i| i.lsm.flushes > 0),
        "kv row never flushed"
    );
    assert!(
        kv_fail
            .instances
            .iter()
            .any(|i| i.lsm.failed_read_retries > 0),
        "kv failure row never failed over"
    );
    let (p, r) = (&lossy.physical, &lossy.rack);
    assert!(
        p.retries > 0 && p.cmd_capsules_dropped > 0 && r.reroutes > 0,
        "lossy rack row misses retransmit or reroute: {p:?} {r:?}"
    );
    let (strict, strict_workers) = broker_bench(BrokerMode::Strict);
    let (borrow, borrow_workers) = broker_bench(BrokerMode::Borrow);
    let rows = [
        (
            "smoke: --workers 4x4k-read-zipf,2x4k-write",
            0xf87f_8378_e079_e165,
            run(
                smoke.clone(),
                cli_workers(&["4x4k-read-zipf", "2x4k-write"], 1),
            ),
        ),
        (
            "smoke_wb: --precondition fragmented --cache-policy always \
             --cache-write-policy back --workers 2x4k-read-zipf,4x4k-write-zipf",
            0x6cb3_3548_0d54_215f,
            run(
                TestbedConfig {
                    precondition: Precondition::Fragmented,
                    cache: cache_tier_wb(16, AdmissionPolicy::Always, WritePolicy::Back),
                    ..smoke
                },
                cli_workers(&["2x4k-read-zipf", "4x4k-write-zipf"], 1),
            ),
        ),
        (
            "broker_strict: --borrow-strict --borrow-mbps 200 --borrow-epoch-ms 17",
            0x4b2d_7824_e11f_ad70,
            run(strict, strict_workers),
        ),
        (
            "broker: --borrow --borrow-mbps 200 --borrow-epoch-ms 17",
            0x9d8f_cd27_7fef_20e2,
            run(borrow, borrow_workers),
        ),
        (
            "cores: --workers 1x4k-read-ssd0,…,1x4k-read-ssd6",
            0xa751_72ed_2964_7a3b,
            run(cores(None), cli_workers(&hot, 8)),
        ),
        (
            "cores: --workers 1x4k-read-ssd0,…,1x4k-read-ssd6 --steal",
            0x2e68_7d23_c46d_7504,
            run(cores(Some(StealConfig::default())), cli_workers(&hot, 8)),
        ),
        (
            "rack node-death",
            0x9a39_c4d2_8f4b_094e,
            rack.stats_digest(),
        ),
        (
            "rack node-death: access journal",
            0x0f94_b50f_788c_7e44,
            rack.access_digest().expect("sanitize was on"),
        ),
        (
            "chaos combined",
            0xaf77_2a15_4608_5f66,
            chaos.stats_digest(),
        ),
        (
            "chaos combined: access journal",
            0x035d_8d48_c019_0761,
            chaos.access_digest().expect("sanitize was on"),
        ),
        (
            "chaos combined: fault counters",
            0xa8c3_4885_7f07_c756,
            fault_digest(&chaos.faults),
        ),
        ("kv ycsb-a", 0x360c_ef44_9887_a03d, kv_digest(&kv)),
        (
            "kv parda ycsb-b, backend 0 fails",
            0xc838_5c13_2ac5_5a82,
            kv_digest(&kv_fail),
        ),
        (
            "rack node-death + 2% loss",
            0xf567_841a_b42b_3748,
            lossy.stats_digest(),
        ),
        (
            "rack node-death + 2% loss: fault counters",
            0xb11d_9919_a7ea_3a6b,
            fault_digest(&lossy.physical),
        ),
    ];
    let moved: Vec<String> = rows
        .iter()
        .filter(|(_, pinned, got)| pinned != got)
        .map(|(name, pinned, got)| format!("{name}: {got:#018x}, pinned {pinned:#018x}"))
        .collect();
    assert!(
        moved.is_empty(),
        "stats digests moved:\n{}",
        moved.join("\n")
    );
}

/// Different seeds must actually change the run (guards against the digest
/// being insensitive or the seed being ignored).
#[test]
fn different_seed_changes_the_trace() {
    let a = run_once(Scheme::Gimbal, 7);
    let b = run_once(Scheme::Gimbal, 8);
    assert_ne!(
        a.submission_digest(),
        b.submission_digest(),
        "different seeds produced identical submission traces"
    );
}

/// The trace itself is well-formed: command ids are unique and monotone,
/// and timestamps never decrease (submissions are recorded in issue order).
#[test]
fn submission_trace_is_ordered_and_unique() {
    let res = run_once(Scheme::Gimbal, 21);
    let mut last_cmd = None;
    let mut last_t = 0u64;
    for s in &res.submissions {
        if let Some(prev) = last_cmd {
            assert!(s.cmd > prev, "command ids must be strictly increasing");
        }
        assert!(s.at_ns >= last_t, "submission times must be monotone");
        last_cmd = Some(s.cmd);
        last_t = s.at_ns;
    }
}
