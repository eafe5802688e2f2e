//! Chaos suite: every scheme survives injected failures, and failure
//! handling itself is deterministic.
//!
//! The fault plans exercise the three failure families end to end:
//!
//! * **loss-only** — random command/completion capsule loss plus a burst
//!   brown-out window; recovery is the initiator's timeout/backoff/
//!   retransmission protocol and the target's replay dedup.
//! * **stall-only** — a GC-storm window on the SSD during which nothing is
//!   serviced; recovery is the congestion controller's rate floor (it never
//!   deadlocks at zero) plus retry timers for IOs stuck past their budget.
//! * **combined** — loss, a stall, transient device errors, and permanent
//!   device death partway through the run.
//!
//! Every run must finish without a panic and pass the command-conservation
//! audit: each submitted command completes, errors, times out, or is still
//! in flight at the wall — exactly once. Double runs at the same seed must
//! produce identical submission traces, faults and all.

mod common;

use common::{combined, mixed_workers};
use gimbal_repro::fabric::RetryConfig;
use gimbal_repro::sim::{FaultPlan, FaultWindow, SimDuration, SimTime, SsdFaultSpec};
use gimbal_repro::telemetry::{CapsuleKind, EventKind, TraceConfig};
use gimbal_repro::testbed::{
    check_run, AdmissionPolicy, CacheConfig, FaultConfig, Precondition, RunResult, Scheme, Testbed,
    TestbedConfig, WorkerSpec, WritePolicy, LOSS_EVENT_CMD,
};
use gimbal_repro::workload::{AccessPattern, FioSpec};

const CAP: u64 = 512 * 1024 * 1024 / 4096;
const SCHEMES: [Scheme; 4] = [
    Scheme::Reflex,
    Scheme::Parda,
    Scheme::FlashFq,
    Scheme::Gimbal,
];

fn ms(v: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(v)
}

fn loss_only() -> FaultPlan {
    FaultPlan {
        cmd_loss_prob: 0.02,
        cpl_loss_prob: 0.02,
        burst_windows: vec![FaultWindow::new(ms(150), ms(160))],
        ..FaultPlan::default()
    }
}

fn stall_only() -> FaultPlan {
    FaultPlan {
        ssd: vec![SsdFaultSpec {
            stall_windows: vec![FaultWindow::new(ms(150), ms(250))],
            ..SsdFaultSpec::default()
        }],
        ..FaultPlan::default()
    }
}

fn run_chaos(scheme: Scheme, plan: FaultPlan, seed: u64) -> RunResult {
    let cfg = TestbedConfig {
        scheme,
        precondition: Precondition::Fragmented,
        duration: SimDuration::from_millis(400),
        warmup: SimDuration::from_millis(100),
        seed,
        record_submissions: true,
        faults: Some(FaultConfig {
            plan,
            retry: RetryConfig::default(),
        }),
        ..TestbedConfig::default()
    };
    Testbed::new(cfg, mixed_workers(3, 3)).run()
}

/// Every scheme finishes every fault plan without panicking, and the
/// conservation audit balances: no command is lost or double-counted.
#[test]
fn all_schemes_survive_all_fault_plans_and_conserve_commands() {
    for scheme in SCHEMES {
        for (name, plan) in [
            ("loss-only", loss_only()),
            ("stall-only", stall_only()),
            ("combined", combined()),
        ] {
            let res = run_chaos(scheme, plan, 7);
            let f = &res.faults;
            assert!(f.submitted > 1000, "{} {name}: ran: {f:?}", scheme.name());
            assert!(
                f.conservation_holds(),
                "{} {name}: conservation violated: {f:?}",
                scheme.name()
            );
            assert!(
                f.completed_ok > 0,
                "{} {name}: no IO ever succeeded: {f:?}",
                scheme.name()
            );
        }
    }
}

/// Capsule loss actually fires and is actually recovered: drops happen,
/// timers retransmit, the target dedups replays, and goodput survives.
#[test]
fn capsule_loss_is_retried_and_deduplicated() {
    for scheme in SCHEMES {
        let res = run_chaos(scheme, loss_only(), 11);
        let f = &res.faults;
        assert!(f.cmd_capsules_dropped > 0, "{}: {f:?}", scheme.name());
        assert!(f.cpl_capsules_dropped > 0, "{}: {f:?}", scheme.name());
        assert!(
            f.retries > 0,
            "{}: no retransmissions: {f:?}",
            scheme.name()
        );
        assert!(
            f.completions_resent > 0,
            "{}: dropped completions must be recovered from the target's \
             cache, not by re-executing the IO: {f:?}",
            scheme.name()
        );
        // Loss is 2%: the overwhelming majority of IOs still succeed.
        assert!(
            f.completed_ok > 50 * (f.timed_out + 1),
            "{}: goodput collapsed under 2% loss: {f:?}",
            scheme.name()
        );
        let moved: u64 = res.workers.iter().map(|w| w.bytes).sum();
        assert!(moved > 0, "{}: no payload moved", scheme.name());
    }
}

/// A GC storm freezes the device for 100 ms mid-run. The congestion
/// controller must not deadlock: service visibly resumes after the window
/// closes. (Throughput *level* after the storm is scheme-specific — Gimbal
/// re-probes from its conservative floor — so the assertion is progress,
/// not rate.)
#[test]
fn gc_storm_stall_does_not_deadlock_any_scheme() {
    for scheme in SCHEMES {
        let cfg = TestbedConfig {
            scheme,
            precondition: Precondition::Fragmented,
            duration: SimDuration::from_millis(400),
            warmup: SimDuration::from_millis(100),
            seed: 13,
            sample_interval: Some(SimDuration::from_millis(25)),
            faults: Some(FaultConfig {
                plan: stall_only(),
                retry: RetryConfig::default(),
            }),
            ..TestbedConfig::default()
        };
        let res = Testbed::new(cfg, mixed_workers(3, 3)).run();
        let f = &res.faults;
        assert!(f.conservation_holds(), "{}: {f:?}", scheme.name());
        assert!(
            res.ssd_stats[0].stalled_cmds > 0,
            "{}: the storm never hit",
            scheme.name()
        );
        // Bandwidth samples taken late enough that their whole 100 ms meter
        // window lies after the 250 ms release: real post-storm service, not
        // residue from before the stall.
        let post_storm_bps: f64 = res
            .workers
            .iter()
            .flat_map(|w| w.series.points())
            .filter(|p| p.0 >= ms(360))
            .map(|p| p.1)
            .sum();
        assert!(
            post_storm_bps > 0.0,
            "{}: no worker moved a byte after the storm cleared — \
             congestion control deadlocked: {f:?}",
            scheme.name()
        );
    }
}

/// Permanent device death: everything after `fail_at` errors out fast, the
/// errors are surfaced (not dropped, not panicking), and accounting stays
/// exact.
#[test]
fn device_death_surfaces_errors_without_losing_commands() {
    for scheme in SCHEMES {
        let res = run_chaos(scheme, combined(), 17);
        let f = &res.faults;
        assert!(f.conservation_holds(), "{}: {f:?}", scheme.name());
        assert!(
            f.completed_err > 100,
            "{}: device death at 320 ms must produce a stream of error \
             completions: {f:?}",
            scheme.name()
        );
        assert!(
            res.ssd_stats[0].failed_cmds > 0 && res.ssd_stats[0].injected_transient_errors > 0,
            "{}: device-side fault counters empty: {:?}",
            scheme.name(),
            res.ssd_stats[0]
        );
    }
}

/// Satellite (d): fault handling is part of the deterministic state machine.
/// Two runs at the same seed — faults, retries, failovers and all — produce
/// byte-identical submission traces and stats digests.
#[test]
fn chaos_runs_are_deterministic_per_seed() {
    for scheme in SCHEMES {
        let a = run_chaos(scheme, combined(), 23);
        let b = run_chaos(scheme, combined(), 23);
        assert!(!a.submissions.is_empty(), "{}: empty trace", scheme.name());
        assert_eq!(
            a.submissions,
            b.submissions,
            "{}: chaos submission traces diverged",
            scheme.name()
        );
        assert_eq!(
            a.submission_digest(),
            b.submission_digest(),
            "{}: chaos trace digests diverged",
            scheme.name()
        );
        assert_eq!(
            a.stats_digest(),
            b.stats_digest(),
            "{}: chaos stats digests diverged",
            scheme.name()
        );
        assert_eq!(
            a.faults,
            b.faults,
            "{}: fault counters diverged between identical runs",
            scheme.name()
        );
        // And the seed still matters.
        let c = run_chaos(scheme, combined(), 24);
        assert_ne!(
            a.submission_digest(),
            c.submission_digest(),
            "{}: different seeds produced identical chaos traces",
            scheme.name()
        );
    }
}

fn run_chaos_cache(
    scheme: Scheme,
    plan: FaultPlan,
    seed: u64,
    workers: Vec<WorkerSpec>,
) -> RunResult {
    run_chaos_cache_wb(scheme, plan, seed, workers, WritePolicy::Through)
}

fn run_chaos_cache_wb(
    scheme: Scheme,
    plan: FaultPlan,
    seed: u64,
    workers: Vec<WorkerSpec>,
    write: WritePolicy,
) -> RunResult {
    let cfg = TestbedConfig {
        scheme,
        precondition: Precondition::Fragmented,
        duration: SimDuration::from_millis(400),
        warmup: SimDuration::from_millis(100),
        seed,
        record_submissions: true,
        faults: Some(FaultConfig {
            plan,
            retry: RetryConfig::default(),
        }),
        cache: Some(CacheConfig {
            policy: AdmissionPolicy::Always,
            write_policy: write,
            ..CacheConfig::for_mb(64)
        }),
        ..TestbedConfig::default()
    };
    Testbed::new(cfg, workers).run()
}

/// Cache satellite: completions served from NIC DRAM are accounted by the
/// conservation audit. `cache_served` is a service-source counter — every
/// cache hit still lands in exactly one terminal bucket — so the equation
/// balances with the cache absorbing a large share of reads under capsule
/// loss.
#[test]
fn cache_served_completions_keep_conservation_exact() {
    let mut workers = mixed_workers(3, 3);
    for w in &mut workers {
        if w.fio.read_ratio > 0.5 {
            w.fio.read_pattern = AccessPattern::Zipfian;
        }
    }
    let res = run_chaos_cache(Scheme::Gimbal, loss_only(), 7, workers);
    let f = &res.faults;
    assert!(f.conservation_holds(), "conservation violated: {f:?}");
    assert!(
        f.cache_served > 0,
        "Zipf readers through a 64 MiB cache never hit: {f:?}"
    );
    // Every pumped cache hit is one cache-served completion; hits whose
    // emission was still queued at the wall are covered by the in-flight
    // bucket, so the gap is bounded by it.
    let hits: u64 = res.cache.iter().map(|c| c.hits).sum();
    assert!(
        f.cache_served <= hits && hits - f.cache_served <= f.in_flight_at_end,
        "cache-served completions ({}) must account for all {hits} hits \
         minus at most the {} in flight at the wall",
        f.cache_served,
        f.in_flight_at_end
    );
    assert!(
        f.cmd_capsules_dropped > 0 && f.retries > 0,
        "the loss plan never fired: {f:?}"
    );
}

/// Cache satellite: device death with dirty staged write lines surfaces a
/// typed [`gimbal_repro::testbed::StagedWriteLoss`] per failed write whose
/// staged lines were dropped — never silent loss — and the failure path is
/// deterministic.
#[test]
fn device_death_with_staged_writes_surfaces_typed_losses() {
    // Mixed 50/50 read/write streams over shared regions: reads fill lines,
    // fully-covering writes stage into them, and the 320 ms device death
    // fails writes whose staged data is then unbacked.
    let workers = |()| -> Vec<WorkerSpec> {
        let per = CAP / 4;
        (0..4u64)
            .map(|i| WorkerSpec::new("mix", FioSpec::paper_default(0.5, 4096, i * per, per)))
            .collect()
    };
    let a = run_chaos_cache(Scheme::Gimbal, combined(), 17, workers(()));
    let f = &a.faults;
    assert!(f.conservation_holds(), "conservation violated: {f:?}");
    let stats: u64 = a.cache.iter().map(|c| c.staged).sum();
    assert!(stats > 0, "no write ever staged into a resident line");
    assert!(
        !a.cache_losses.is_empty(),
        "device death must surface typed staged-write losses, got none \
         (staged {stats}, faults {f:?})"
    );
    let counted: u64 = a.cache.iter().map(|c| c.staged_losses).sum();
    assert_eq!(
        counted,
        a.cache_losses.len() as u64,
        "loss counter and typed loss records disagree"
    );
    for loss in &a.cache_losses {
        assert!(loss.lines_lost > 0, "a loss record with no lines: {loss:?}");
    }
    // Failure handling is part of the deterministic state machine.
    let b = run_chaos_cache(Scheme::Gimbal, combined(), 17, workers(()));
    assert_eq!(a.cache_losses, b.cache_losses, "loss records diverged");
    assert_eq!(a.cache, b.cache, "cache counters diverged");
    assert_eq!(a.stats_digest(), b.stats_digest());
}

/// Telemetry satellite: the fault events in the trace reconcile *exactly*
/// with the aggregate [`FaultCounters`] — every capsule drop, retransmission
/// and timeout that bumps a counter also lands in the event stream, and
/// nothing lands twice.
#[test]
fn fault_event_counts_reconcile_with_fault_counters() {
    for scheme in SCHEMES {
        let cfg = TestbedConfig {
            scheme,
            precondition: Precondition::Fragmented,
            duration: SimDuration::from_millis(400),
            warmup: SimDuration::from_millis(100),
            seed: 17,
            faults: Some(FaultConfig {
                plan: combined(),
                retry: RetryConfig::default(),
            }),
            trace: Some(TraceConfig { capacity: 1 << 21 }),
            ..TestbedConfig::default()
        };
        let res = Testbed::new(cfg, mixed_workers(3, 3)).run();
        let f = &res.faults;
        let trace = res.trace.as_ref().expect("trace was enabled");
        assert_eq!(
            trace.dropped_oldest,
            0,
            "{}: ring too small for exact reconciliation",
            scheme.name()
        );
        let view = trace.view();
        let cmd_drops = view.count(|e| {
            matches!(
                e.kind,
                EventKind::FaultInjected {
                    capsule: CapsuleKind::Command
                }
            )
        }) as u64;
        let cpl_drops = view.count(|e| {
            matches!(
                e.kind,
                EventKind::FaultInjected {
                    capsule: CapsuleKind::Completion
                }
            )
        }) as u64;
        let retries = view.count(|e| matches!(e.kind, EventKind::RetryScheduled { .. })) as u64;
        let timeouts = view.count(|e| matches!(e.kind, EventKind::TimedOut { .. })) as u64;
        assert_eq!(
            cmd_drops,
            f.cmd_capsules_dropped,
            "{}: command-drop events vs counter: {f:?}",
            scheme.name()
        );
        assert_eq!(
            cpl_drops,
            f.cpl_capsules_dropped,
            "{}: completion-drop events vs counter: {f:?}",
            scheme.name()
        );
        assert_eq!(
            retries,
            f.retries,
            "{}: retry events vs counter: {f:?}",
            scheme.name()
        );
        assert_eq!(
            timeouts,
            f.timed_out,
            "{}: timeout events vs counter: {f:?}",
            scheme.name()
        );
        // The plan actually fired: the reconciliation above is not 0 == 0.
        assert!(
            cmd_drops > 0 && cpl_drops > 0 && retries > 0,
            "{}: combined plan injected nothing: {f:?}",
            scheme.name()
        );
    }
}

/// Write-back satellite: device death partway through the run — with the
/// flusher actively draining — surfaces every acked-but-unflushed line as a
/// dirty-tagged [`gimbal_repro::testbed::StagedWriteLoss`], the
/// crash-consistency oracle confirms the loss set is exact (no silent loss,
/// no phantom loss), and the whole failure path is deterministic.
#[test]
fn device_death_mid_flush_surfaces_dirty_tagged_losses() {
    let run = || {
        run_chaos_cache_wb(
            Scheme::Gimbal,
            combined(),
            17,
            mixed_workers(2, 4),
            WritePolicy::Back,
        )
    };
    let a = run();
    assert!(
        a.faults.conservation_holds(),
        "conservation: {:?}",
        a.faults
    );
    assert!(!a.write_back.is_empty(), "write-back produced no stats");
    let acked: u64 = a.write_back.iter().map(|w| w.acked).sum();
    let flushed: u64 = a.write_back.iter().map(|w| w.flushed_lines).sum();
    let lost: u64 = a.write_back.iter().map(|w| w.lost_lines).sum();
    assert!(acked > 0, "no write was ever absorbed at DRAM cost");
    assert!(flushed > 0, "the flusher never drained a line before death");
    assert!(
        lost > 0,
        "death at 320 ms with active writers must strand dirty lines: {:?}",
        a.write_back
    );
    let dirty_losses: Vec<_> = a.cache_losses.iter().filter(|l| l.dirty).collect();
    assert!(
        !dirty_losses.is_empty(),
        "stranded dirty lines must surface as dirty-tagged loss records"
    );
    for l in &dirty_losses {
        assert_eq!(
            l.cmd, LOSS_EVENT_CMD,
            "aggregated record carries the sentinel cmd"
        );
        assert!(l.lines_lost > 0);
    }
    let surfaced: u64 = dirty_losses.iter().map(|l| u64::from(l.lines_lost)).sum();
    assert_eq!(
        surfaced, lost,
        "surfaced dirty lines disagree with the counter"
    );
    // The oracle replays the journal and cross-checks all of the above
    // against the shadow dirty set.
    check_run(&a);
    let b = run();
    assert_eq!(a.cache_losses, b.cache_losses, "loss records diverged");
    assert_eq!(a.write_back, b.write_back, "write-back counters diverged");
    assert_eq!(a.journals, b.journals, "journals diverged");
    assert_eq!(a.stats_digest(), b.stats_digest());
}

/// Write-back satellite: the command-conservation audit stays exact under
/// write-back for every scheme and every fault family — DRAM-acked writes,
/// flush traffic, retries and losses never double-count or drop a command —
/// and the oracle stays green on every run.
#[test]
fn write_back_keeps_fault_conservation_exact_under_all_plans() {
    for scheme in SCHEMES {
        for (name, plan) in [
            ("loss-only", loss_only()),
            ("stall-only", stall_only()),
            ("combined", combined()),
        ] {
            let res = run_chaos_cache_wb(scheme, plan, 7, mixed_workers(2, 4), WritePolicy::Back);
            let f = &res.faults;
            assert!(
                f.submitted > 1000,
                "{} {name}: barely ran: {f:?}",
                scheme.name()
            );
            assert!(
                f.conservation_holds(),
                "{} {name}: conservation violated under write-back: {f:?}",
                scheme.name()
            );
            assert!(
                f.completed_ok > 0,
                "{} {name}: no IO succeeded: {f:?}",
                scheme.name()
            );
            let acked: u64 = res.write_back.iter().map(|w| w.acked).sum();
            assert!(
                acked > 0,
                "{} {name}: write-back never engaged",
                scheme.name()
            );
            for wb in &res.write_back {
                assert!(
                    wb.conservation_holds(),
                    "{} {name}: write-back line conservation violated: {wb:?}",
                    scheme.name()
                );
            }
            check_run(&res);
        }
    }
}

/// Write-back satellite: a GC storm stalls the device for 100 ms while the
/// flusher holds dirty lines. The flusher must not deadlock — in-flight
/// flushes complete or requeue when the storm lifts, dirty debt drains, and
/// post-storm foreground throughput recovers.
#[test]
fn gc_storm_stall_does_not_deadlock_the_flusher() {
    for scheme in [Scheme::Gimbal, Scheme::Reflex] {
        let cfg = TestbedConfig {
            scheme,
            precondition: Precondition::Fragmented,
            duration: SimDuration::from_millis(400),
            warmup: SimDuration::from_millis(100),
            seed: 11,
            record_submissions: true,
            sample_interval: Some(SimDuration::from_millis(25)),
            faults: Some(FaultConfig {
                plan: stall_only(),
                retry: RetryConfig::default(),
            }),
            cache: Some(CacheConfig {
                policy: AdmissionPolicy::Always,
                write_policy: WritePolicy::Back,
                ..CacheConfig::for_mb(64)
            }),
            ..TestbedConfig::default()
        };
        let res = Testbed::new(cfg, mixed_workers(2, 4)).run();
        assert!(
            res.faults.conservation_holds(),
            "{}: conservation: {:?}",
            scheme.name(),
            res.faults
        );
        let wb = &res.write_back[0];
        assert!(wb.conservation_holds(), "{}: {wb:?}", scheme.name());
        assert!(
            wb.flushed_lines > 0,
            "{}: flusher drained nothing across the storm: {wb:?}",
            scheme.name()
        );
        // The storm (150–250 ms) must not leave the flusher wedged: by the
        // wall, dirty debt is bounded by what the watermark allows plus the
        // final in-flight batch, not the whole run's ack volume.
        assert!(
            wb.dirty_lines < wb.acked_lines || wb.acked_lines == 0,
            "{}: every acked line still dirty at the wall — flusher deadlocked: {wb:?}",
            scheme.name()
        );
        // Foreground service resumed after the storm lifted. Bandwidth
        // samples taken late enough that their whole meter window lies after
        // the 250 ms release: real post-storm service, not residue.
        let post_storm_bps: f64 = res
            .workers
            .iter()
            .flat_map(|w| w.series.points())
            .filter(|p| p.0 >= ms(360))
            .map(|p| p.1)
            .sum();
        assert!(
            post_storm_bps > 0.0,
            "{}: no worker moved a byte after the storm cleared — flusher or \
             congestion control deadlocked",
            scheme.name()
        );
        check_run(&res);
    }
}

/// An empty fault plan must behave exactly like no fault plan at all: the
/// injector draws nothing, so the schedule is bit-identical to a fault-free
/// run. Retry timers are armed but given a budget no healthy IO approaches,
/// so none fires (verified via the retry counter).
#[test]
fn empty_fault_plan_matches_fault_free_run() {
    let mut base = TestbedConfig {
        scheme: Scheme::Gimbal,
        precondition: Precondition::Fragmented,
        duration: SimDuration::from_millis(400),
        warmup: SimDuration::from_millis(100),
        seed: 31,
        record_submissions: true,
        ..TestbedConfig::default()
    };
    let plain = Testbed::new(base.clone(), mixed_workers(3, 3)).run();
    base.faults = Some(FaultConfig {
        plan: FaultPlan::default(),
        retry: RetryConfig {
            base_timeout: SimDuration::from_millis(100),
            max_timeout: SimDuration::from_millis(200),
            max_retries: 5,
            ..RetryConfig::default()
        },
    });
    let armed = Testbed::new(base, mixed_workers(3, 3)).run();
    assert_eq!(armed.faults.retries, 0, "no healthy IO takes 100 ms");
    assert_eq!(plain.submissions, armed.submissions);
    assert_eq!(plain.stats_digest(), armed.stats_digest());
    assert_eq!(armed.faults.cmd_capsules_dropped, 0);
    assert_eq!(armed.faults.timed_out, 0);
    assert!(plain.faults.conservation_holds());
    assert!(armed.faults.conservation_holds());
}
