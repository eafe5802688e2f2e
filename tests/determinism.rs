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

use common::{broker_bench, combined, fault_digest, kv_digest, mixed_workers};
use gimbal_repro::cores::StealConfig;
use gimbal_repro::fabric::RetryConfig;
use gimbal_repro::rack::{RackConfig, RackResult, RackTestbed};
use gimbal_repro::sim::{
    Digest, FaultPlan, FaultWindow, SimDuration, SimTime, SsdFaultSpec, TimeSeries,
};
use gimbal_repro::telemetry::TraceConfig;
use gimbal_repro::testbed::{
    cache_tier_wb, check_run, parse_workers, AdmissionPolicy, BrokerConfig, BrokerMode,
    CacheConfig, FaultConfig, GimbalTrace, KvTestbed, KvTestbedConfig, Precondition, RunResult,
    Scheme, Testbed, TestbedConfig, WorkerSpec, WritePolicy,
};
use gimbal_repro::workload::{AccessPattern, FioSpec, YcsbMix};

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
    let hot = "1x4k-read-ssd0,1x4k-read-ssd2,1x4k-read-ssd4,1x4k-read-ssd6";
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
                parse_workers("4x4k-read-zipf,2x4k-write", 1).unwrap(),
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
                parse_workers("2x4k-read-zipf,4x4k-write-zipf", 1).unwrap(),
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
            run(cores(None), parse_workers(hot, 8).unwrap()),
        ),
        (
            "cores: --workers 1x4k-read-ssd0,…,1x4k-read-ssd6 --steal",
            0x2e68_7d23_c46d_7504,
            run(
                cores(Some(StealConfig::default())),
                parse_workers(hot, 8).unwrap(),
            ),
        ),
        (
            "rack node-death",
            0x7878_edf9_9d09_8399,
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
        ("kv ycsb-a", 0xe435_79d1_eb53_c0a6, kv_digest(&kv)),
        (
            "kv parda ycsb-b, backend 0 fails",
            0x0b3f_c5c6_ca91_27c4,
            kv_digest(&kv_fail),
        ),
        (
            "rack node-death + 2% loss",
            0x6ddc_d8c6_6bc4_6d68,
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

/// One named digest of the engine matrix.
type Pin = (String, u64);

/// Every per-series point of a run's sampled state, in order: Gimbal
/// control traces plus whatever per-worker or per-device series the engine
/// samples. The stats digests leave these out, so this is what pins the
/// `Sample` event.
fn series_digest<'a>(series: impl IntoIterator<Item = &'a TimeSeries>) -> u64 {
    let mut d = Digest::new();
    for s in series {
        d.update_u64(s.len() as u64);
        for &(t, v) in s.points() {
            d.update_u64(t.as_nanos()).update_f64(v);
        }
    }
    d.value()
}

fn gimbal_series(traces: &[GimbalTrace]) -> impl Iterator<Item = &TimeSeries> {
    traces.iter().flat_map(|t| {
        [
            &t.target_rate,
            &t.write_cost,
            &t.read_ewma_us,
            &t.read_thresh_us,
            &t.write_ewma_us,
            &t.write_thresh_us,
        ]
    })
}

/// The digests a fio run is pinned by: stats and device latency, plus the
/// access journal when sanitized, the telemetry when traced, the fault
/// counters when faults are on, and the sampled series when sampling.
fn fio_pins(name: &str, cfg: &TestbedConfig, r: &RunResult, pins: &mut Vec<Pin>) {
    pins.push((format!("{name}: stats"), r.stats_digest()));
    let mut d = Digest::new();
    for s in r.device_latency.iter().flatten() {
        d.update_u64(s.count)
            .update_f64(s.mean_ns)
            .update_u64(s.p99_ns)
            .update_u64(s.max_ns);
    }
    pins.push((format!("{name}: device latency"), d.value()));
    if let Some(a) = r.access_digest() {
        pins.push((format!("{name}: access journal"), a));
    }
    if let Some(t) = r.trace_digest() {
        pins.push((format!("{name}: trace"), t));
    }
    if cfg.faults.is_some() {
        pins.push((format!("{name}: faults"), fault_digest(&r.faults)));
    }
    if cfg.sample_interval.is_some() {
        let series = gimbal_series(&r.gimbal_traces)
            .chain(r.workers.iter().map(|w| &w.series))
            .chain(
                r.device_series
                    .iter()
                    .flat_map(|d| [&d.read_lat_us, &d.write_lat_us, &d.bandwidth_bps]),
            );
        pins.push((format!("{name}: series"), series_digest(series)));
    }
}

fn rack_pins(name: &str, r: &RackResult, pins: &mut Vec<Pin>) {
    pins.push((format!("{name}: stats"), r.stats_digest()));
    pins.push((
        format!("{name}: access journal"),
        r.access_digest().expect("rack rows are sanitized"),
    ));
    pins.push((format!("{name}: faults"), fault_digest(&r.physical)));
    if let Some(t) = r.trace_digest() {
        pins.push((format!("{name}: trace"), t));
    }
}

/// The chaos suite's combined plan with every window at a fifth of its
/// instant, so it fits a 100 ms run: loss, a brown-out at 24 ms, a stall
/// at 36-44 ms, transient errors, device death at 64 ms.
fn short_combined() -> FaultPlan {
    let ms = |v| SimTime::ZERO + SimDuration::from_millis(v);
    FaultPlan {
        burst_windows: vec![FaultWindow::new(ms(24), ms(26))],
        ssd: vec![SsdFaultSpec {
            transient_error_prob: 0.02,
            stall_windows: vec![FaultWindow::new(ms(36), ms(44))],
            fail_at: Some(ms(64)),
        }],
        ..combined()
    }
}

/// The engine matrix: short runs (at most 100 ms simulated) of every event
/// the fio, KV and rack engines schedule, each held to its digests by name.
/// A refactor of the engine loops must leave every row where it is; a model
/// change re-pins the rows it names from the failure message.
#[test]
fn engine_matrix_keeps_its_pinned_digests() {
    let ms = SimDuration::from_millis;
    let at = |v| SimTime::ZERO + ms(v);
    let mut pins: Vec<Pin> = Vec::new();
    let lossy = |retry| FaultConfig {
        plan: FaultPlan {
            cmd_loss_prob: 0.02,
            cpl_loss_prob: 0.02,
            ..FaultPlan::default()
        },
        retry,
    };

    // fio: every compared scheme fault-free, under 2 % capsule loss with
    // timers, and sanitized under the combined plan.
    let fio = |scheme| TestbedConfig {
        scheme,
        precondition: Precondition::Fragmented,
        duration: ms(100),
        warmup: ms(20),
        seed: 42,
        ..TestbedConfig::default()
    };
    for scheme in Scheme::COMPARED {
        let variants = [
            ("fault-free", fio(scheme)),
            (
                "2% loss",
                TestbedConfig {
                    faults: Some(lossy(RetryConfig::default())),
                    ..fio(scheme)
                },
            ),
            (
                "combined, sanitized",
                TestbedConfig {
                    sanitize: true,
                    faults: Some(FaultConfig {
                        plan: short_combined(),
                        retry: RetryConfig::default(),
                    }),
                    ..fio(scheme)
                },
            ),
        ];
        for (variant, cfg) in variants {
            let r = Testbed::new(cfg.clone(), mixed_workers(3, 3)).run();
            fio_pins(
                &format!("fio {} {variant}", scheme.name()),
                &cfg,
                &r,
                &mut pins,
            );
        }
    }
    // Same-instant batching: sixteen readers start together on one SSD.
    let batch = TestbedConfig {
        batch: 8,
        sanitize: true,
        ..fio(Scheme::Gimbal)
    };
    let r = Testbed::new(batch.clone(), parse_workers("16x4k-read", 1).unwrap()).run();
    fio_pins("fio batch 8", &batch, &r, &mut pins);
    // The broker with placement: three big writers crush SSD 0 while one
    // light reader idles on SSD 1.
    let placed = TestbedConfig {
        num_ssds: 2,
        sanitize: true,
        broker: Some(BrokerConfig {
            capacity_bps: 64 * 1024 * 1024,
            burst_bytes: 256 * 1024,
            epoch: ms(5),
            placement: true,
            max_moves_per_epoch: 1,
            ..BrokerConfig::default()
        }),
        ..fio(Scheme::Gimbal)
    };
    let per = 512 * 1024 * 1024 / 4096 / 4;
    let mut workers: Vec<WorkerSpec> = (0..3u64)
        .map(|i| {
            let fio = FioSpec::paper_default(0.0, 128 * 1024, i * per, per);
            WorkerSpec::new("crush", fio).on_ssd(0)
        })
        .collect();
    let mut light = FioSpec::paper_default(1.0, 4096, 3 * per, per);
    light.queue_depth = 1;
    workers.push(WorkerSpec::new("light", light).on_ssd(1));
    let r = Testbed::new(placed.clone(), workers).run();
    assert!(
        r.broker.as_ref().is_some_and(|b| b.migrations > 0),
        "placement row never migrated"
    );
    fio_pins("fio broker with placement", &placed, &r, &mut pins);
    // Stealing with rebalance: four SSDs on three cores, the only load on
    // SSDs 0 and 3 (both homed on core 0).
    let steal = TestbedConfig {
        num_ssds: 4,
        cores: 3,
        sanitize: true,
        steal: Some(StealConfig::default()),
        ..fio(Scheme::Gimbal)
    };
    let r = Testbed::new(
        steal.clone(),
        parse_workers("1x4k-read-ssd0,1x4k-read-ssd3", 4).unwrap(),
    )
    .run();
    assert!(
        r.cores.as_ref().is_some_and(|c| c.steals > 0),
        "steal row never stole"
    );
    fio_pins("fio steal with rebalance", &steal, &r, &mut pins);
    // A write-back cache through a power loss, sampled every 10 ms.
    let wb = TestbedConfig {
        cache: cache_tier_wb(16, AdmissionPolicy::Always, WritePolicy::Back),
        sample_interval: Some(ms(10)),
        faults: Some(FaultConfig {
            plan: FaultPlan {
                power_loss_at: Some(at(60)),
                ..FaultPlan::default()
            },
            retry: RetryConfig::default(),
        }),
        ..fio(Scheme::Gimbal)
    };
    let r = Testbed::new(
        wb.clone(),
        parse_workers("2x4k-read-zipf,4x4k-write-zipf", 1).unwrap(),
    )
    .run();
    assert!(
        !r.cache_losses.is_empty() || r.write_back.iter().any(|w| w.lost_lines > 0),
        "power loss lost no staged write"
    );
    fio_pins("fio write-back, power loss, sampled", &wb, &r, &mut pins);
    // Telemetry on, under loss: retries, credit grants and port gauges.
    let traced = TestbedConfig {
        trace: Some(TraceConfig::default()),
        faults: Some(lossy(RetryConfig::default())),
        ..fio(Scheme::Gimbal)
    };
    let r = Testbed::new(traced.clone(), mixed_workers(3, 3)).run();
    fio_pins("fio Gimbal 2% loss, traced", &traced, &r, &mut pins);

    // KV: every compared scheme on YCSB-A and YCSB-B, then a backend
    // failure and a sampled write-back power loss.
    let kv = |scheme, mix| {
        let mut cfg = KvTestbedConfig {
            scheme,
            mix,
            instances: 4,
            ops_concurrency: 16,
            records_per_instance: 5_000,
            duration: ms(100),
            warmup: ms(20),
            seed: 42,
            ..KvTestbedConfig::default()
        };
        cfg.lsm.memtable_bytes = 128 * 1024;
        cfg
    };
    let mut kvs = Vec::new();
    for scheme in Scheme::COMPARED {
        for mix in [YcsbMix::A, YcsbMix::B] {
            kvs.push((format!("kv {} {mix:?}", scheme.name()), kv(scheme, mix)));
        }
    }
    kvs.push((
        "kv parda B, backend 0 fails".into(),
        KvTestbedConfig {
            fail_backend_at: Some((0, ms(40))),
            ..kv(Scheme::Parda, YcsbMix::B)
        },
    ));
    kvs.push((
        "kv write-back, power loss, sampled".into(),
        KvTestbedConfig {
            cache: cache_tier_wb(4, AdmissionPolicy::Always, WritePolicy::Back),
            power_loss_at: Some(ms(60)),
            sample_interval: Some(ms(10)),
            ..kv(Scheme::Gimbal, YcsbMix::A)
        },
    ));
    for (name, cfg) in kvs {
        let r = KvTestbed::new(cfg.clone()).run();
        pins.push((format!("{name}: stats"), kv_digest(&r)));
        if cfg.fail_backend_at.is_some() || cfg.power_loss_at.is_some() {
            pins.push((format!("{name}: faults"), fault_digest(&r.faults)));
        }
        if cfg.sample_interval.is_some() {
            let series = series_digest(gimbal_series(&r.gimbal_traces));
            pins.push((format!("{name}: series"), series));
        }
    }

    // Rack, sanitized: Gimbal and Parda with no fault, node death, a
    // partition and 2 % loss, then broker chaos with stealing.
    let retry = RetryConfig {
        base_timeout: ms(1),
        max_timeout: ms(8),
        max_retries: 5,
        suspect_after: 2,
    };
    let rack = |scheme, plan: Option<FaultPlan>| RackConfig {
        scheme,
        duration: ms(60),
        warmup: ms(10),
        seed: 42,
        sanitize: true,
        faults: plan.map(|plan| FaultConfig { plan, retry }),
        ..RackConfig::default()
    };
    for scheme in [Scheme::Gimbal, Scheme::Parda] {
        let plans = [
            ("no fault", None),
            (
                "node death",
                Some(FaultPlan::default().with_node_death(1, at(20))),
            ),
            (
                "partition",
                Some(FaultPlan::default().with_node_partition(1, FaultWindow::new(at(20), at(27)))),
            ),
            ("2% loss", Some(lossy(retry).plan)),
        ];
        for (variant, plan) in plans {
            let r = RackTestbed::new(rack(scheme, plan)).run();
            rack_pins(&format!("rack {} {variant}", scheme.name()), &r, &mut pins);
        }
    }
    let chaos = RackConfig {
        nodes: 2,
        ssds_per_node: 2,
        steal: Some(StealConfig {
            rebalance_epoch: ms(10),
            ..StealConfig::default()
        }),
        broker: Some(BrokerConfig {
            capacity_bps: 8 * 1024 * 1024,
            burst_bytes: 256 * 1024,
            epoch: ms(5),
            ..BrokerConfig::default()
        }),
        ..rack(
            Scheme::Gimbal,
            Some(FaultPlan::default().with_node_death(1, at(25))),
        )
    };
    let r = RackTestbed::new(chaos).run();
    assert!(
        r.broker.as_ref().is_some_and(|b| b.borrow_events > 0),
        "rack chaos row never borrowed"
    );
    rack_pins("rack broker chaos with stealing", &r, &mut pins);
    let traced = RackConfig {
        trace: Some(TraceConfig::default()),
        ..rack(
            Scheme::Gimbal,
            Some(FaultPlan::default().with_node_death(1, at(20))),
        )
    };
    let r = RackTestbed::new(traced).run();
    rack_pins("rack Gimbal node death, traced", &r, &mut pins);

    let pinned: &[(&str, u64)] = &[
        ("fio ReFlex fault-free: stats", 0xa5c9_72ca_176d_b1a8),
        (
            "fio ReFlex fault-free: device latency",
            0x42d9_3a94_ae80_81da,
        ),
        ("fio ReFlex 2% loss: stats", 0x994c_93e8_9743_ddc2),
        ("fio ReFlex 2% loss: device latency", 0xf507_1cf8_0138_2edc),
        ("fio ReFlex 2% loss: faults", 0x515a_2b42_2b31_effc),
        (
            "fio ReFlex combined, sanitized: stats",
            0x46e2_acc7_b50d_6948,
        ),
        (
            "fio ReFlex combined, sanitized: device latency",
            0xbe52_7a54_164c_5507,
        ),
        (
            "fio ReFlex combined, sanitized: access journal",
            0xab0b_efcf_fc79_1df0,
        ),
        (
            "fio ReFlex combined, sanitized: faults",
            0x4cbe_90ef_77d1_abf8,
        ),
        ("fio FlashFQ fault-free: stats", 0xe66e_4c49_f117_5e71),
        (
            "fio FlashFQ fault-free: device latency",
            0x91f6_d925_6855_338d,
        ),
        ("fio FlashFQ 2% loss: stats", 0x2c5f_cfbd_7f0e_2069),
        ("fio FlashFQ 2% loss: device latency", 0x3341_e989_0c4c_dab7),
        ("fio FlashFQ 2% loss: faults", 0x157e_8a67_30ff_1484),
        (
            "fio FlashFQ combined, sanitized: stats",
            0x0617_6bb3_f31f_def5,
        ),
        (
            "fio FlashFQ combined, sanitized: device latency",
            0x6a56_f139_b259_1e44,
        ),
        (
            "fio FlashFQ combined, sanitized: access journal",
            0x5ffd_66f5_0be5_e59b,
        ),
        (
            "fio FlashFQ combined, sanitized: faults",
            0x1933_406f_5c93_485a,
        ),
        ("fio Parda fault-free: stats", 0x1682_f1cd_373f_a2aa),
        (
            "fio Parda fault-free: device latency",
            0x3896_51e3_2f09_7a08,
        ),
        ("fio Parda 2% loss: stats", 0xa583_9e99_4a49_add1),
        ("fio Parda 2% loss: device latency", 0x3271_7a35_e9b6_054b),
        ("fio Parda 2% loss: faults", 0x6dd1_0632_e586_3700),
        (
            "fio Parda combined, sanitized: stats",
            0x8f4b_8798_7fae_c399,
        ),
        (
            "fio Parda combined, sanitized: device latency",
            0x0e4f_af6f_40f2_e882,
        ),
        (
            "fio Parda combined, sanitized: access journal",
            0x2b75_09eb_6a7a_7649,
        ),
        (
            "fio Parda combined, sanitized: faults",
            0xffd0_4fe0_b776_8165,
        ),
        ("fio Gimbal fault-free: stats", 0x8795_48fa_c8fc_eb20),
        (
            "fio Gimbal fault-free: device latency",
            0xd2eb_3732_c374_6f55,
        ),
        ("fio Gimbal 2% loss: stats", 0xde39_86bb_88e1_7d1d),
        ("fio Gimbal 2% loss: device latency", 0x2cf0_0481_df5c_af13),
        ("fio Gimbal 2% loss: faults", 0x50e9_b10f_fc69_5df0),
        (
            "fio Gimbal combined, sanitized: stats",
            0xc870_60f9_dc8d_4d64,
        ),
        (
            "fio Gimbal combined, sanitized: device latency",
            0x6c2b_d493_557a_6f3c,
        ),
        (
            "fio Gimbal combined, sanitized: access journal",
            0x0d18_436b_4226_8110,
        ),
        (
            "fio Gimbal combined, sanitized: faults",
            0xdb75_21a3_e421_d036,
        ),
        ("fio batch 8: stats", 0xf658_028b_a3e2_78aa),
        ("fio batch 8: device latency", 0xfa56_4897_e49b_e824),
        ("fio batch 8: access journal", 0x5b5d_c3dd_2661_3052),
        ("fio broker with placement: stats", 0x9687_c97d_010f_877a),
        (
            "fio broker with placement: device latency",
            0xf656_eb94_0458_0782,
        ),
        (
            "fio broker with placement: access journal",
            0x099d_bbd1_164a_b0a5,
        ),
        ("fio steal with rebalance: stats", 0x1e84_82d3_cbf4_4d33),
        (
            "fio steal with rebalance: device latency",
            0xe347_5f9e_34d6_2715,
        ),
        (
            "fio steal with rebalance: access journal",
            0x564d_e6a6_b092_7bea,
        ),
        (
            "fio write-back, power loss, sampled: stats",
            0x6998_ab5c_1429_329d,
        ),
        (
            "fio write-back, power loss, sampled: device latency",
            0x9573_1e37_1f6d_3327,
        ),
        (
            "fio write-back, power loss, sampled: faults",
            0xcd60_028c_0983_36a7,
        ),
        (
            "fio write-back, power loss, sampled: series",
            0x1e02_a824_dcd1_3e77,
        ),
        ("fio Gimbal 2% loss, traced: stats", 0xde39_86bb_88e1_7d1d),
        (
            "fio Gimbal 2% loss, traced: device latency",
            0x2cf0_0481_df5c_af13,
        ),
        ("fio Gimbal 2% loss, traced: trace", 0x9433_8c77_c48f_4021),
        ("fio Gimbal 2% loss, traced: faults", 0x50e9_b10f_fc69_5df0),
        ("kv ReFlex A: stats", 0x1032_f74f_8a8e_6ac0),
        ("kv ReFlex B: stats", 0x8420_6788_ecab_fd49),
        ("kv FlashFQ A: stats", 0x7fc5_b669_3331_326b),
        ("kv FlashFQ B: stats", 0x8420_6788_ecab_fd49),
        ("kv Parda A: stats", 0xaf65_2b6e_5b6e_9677),
        ("kv Parda B: stats", 0xee4a_69c4_c924_322c),
        ("kv Gimbal A: stats", 0xc703_7677_421c_0e4b),
        ("kv Gimbal B: stats", 0x82af_ad14_9dce_f6f9),
        ("kv parda B, backend 0 fails: stats", 0xf18c_6c4a_df00_4ed3),
        ("kv parda B, backend 0 fails: faults", 0xba0d_43fd_5c47_3c2c),
        (
            "kv write-back, power loss, sampled: stats",
            0x87f5_8f36_01c5_0cd3,
        ),
        (
            "kv write-back, power loss, sampled: faults",
            0x6207_f9c5_5436_a98c,
        ),
        (
            "kv write-back, power loss, sampled: series",
            0x648d_0340_7698_7e89,
        ),
        ("rack Gimbal no fault: stats", 0x74f8_86de_7ed5_4780),
        (
            "rack Gimbal no fault: access journal",
            0x12c2_f74f_ea2a_b6c6,
        ),
        ("rack Gimbal no fault: faults", 0x098e_020e_4827_d225),
        ("rack Gimbal node death: stats", 0x1332_7319_0863_0007),
        (
            "rack Gimbal node death: access journal",
            0x6027_01c1_3f62_95ad,
        ),
        ("rack Gimbal node death: faults", 0x77d6_ee73_abdd_5760),
        ("rack Gimbal partition: stats", 0x0d3b_d230_7321_8f3c),
        (
            "rack Gimbal partition: access journal",
            0xbe5b_1fea_e858_93f4,
        ),
        ("rack Gimbal partition: faults", 0x3ef3_f2d3_c8e1_8249),
        ("rack Gimbal 2% loss: stats", 0xa0ed_c85e_c06b_38c7),
        ("rack Gimbal 2% loss: access journal", 0x8c8d_f360_01cb_2f77),
        ("rack Gimbal 2% loss: faults", 0x57ff_3029_5a24_8850),
        ("rack Parda no fault: stats", 0x7831_76f0_5093_cbc5),
        ("rack Parda no fault: access journal", 0x1108_455f_0f7c_4d54),
        ("rack Parda no fault: faults", 0x46af_b0fc_3f40_1415),
        ("rack Parda node death: stats", 0xf1be_89e9_9a6b_c385),
        (
            "rack Parda node death: access journal",
            0xbb80_e944_90e8_fb23,
        ),
        ("rack Parda node death: faults", 0x861b_6461_0d39_b7eb),
        ("rack Parda partition: stats", 0xbc41_ab95_41bf_9cc3),
        (
            "rack Parda partition: access journal",
            0x5c11_fdc5_b389_bbec,
        ),
        ("rack Parda partition: faults", 0xb756_6e15_36f8_73fd),
        ("rack Parda 2% loss: stats", 0x4c54_b7bc_7e27_3403),
        ("rack Parda 2% loss: access journal", 0x74bb_edec_a068_ded2),
        ("rack Parda 2% loss: faults", 0x0cb9_7205_b7be_eca9),
        (
            "rack broker chaos with stealing: stats",
            0x8e9a_1553_3a2d_58c9,
        ),
        (
            "rack broker chaos with stealing: access journal",
            0x60a1_47a7_7a25_4793,
        ),
        (
            "rack broker chaos with stealing: faults",
            0xdbc4_c5d2_4283_b76c,
        ),
        (
            "rack Gimbal node death, traced: stats",
            0x1332_7319_0863_0007,
        ),
        (
            "rack Gimbal node death, traced: access journal",
            0x6027_01c1_3f62_95ad,
        ),
        (
            "rack Gimbal node death, traced: faults",
            0x77d6_ee73_abdd_5760,
        ),
        (
            "rack Gimbal node death, traced: trace",
            0x0c54_b94d_e4c1_9f76,
        ),
    ];
    let mut moved = Vec::new();
    for (name, got) in &pins {
        match pinned.iter().find(|(n, _)| n == name) {
            Some(&(_, want)) if want == *got => {}
            Some(&(_, want)) => moved.push(format!("{name}: {got:#018x}, pinned {want:#018x}")),
            None => moved.push(format!("(\"{name}\", {got:#018x}),")),
        }
    }
    assert_eq!(pins.len(), pinned.len(), "rows:\n{}", moved.join("\n"));
    assert!(
        moved.is_empty(),
        "engine matrix moved:\n{}",
        moved.join("\n")
    );
}
