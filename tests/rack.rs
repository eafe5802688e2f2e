//! Rack suite: multi-node fault domains end to end.
//!
//! The four acceptance properties of the rack testbed:
//!
//! 1. **Node death is survivable.** A 3-node, replication-2 rack where one
//!    node dies mid-run loses zero acknowledged IOs: every affected IO is
//!    either rerouted to the surviving replica or ends in a typed error —
//!    never a panic, never silence. Both conservation ledgers (physical
//!    per-command and logical per-IO) balance, for all four schemes.
//! 2. **GC-aware routing earns its keep.** Under a correlated node-scoped
//!    GC storm, steering reads away from the storming node beats the
//!    GC-blind chooser on both mean and p99 read latency.
//! 3. **Failure handling is deterministic.** Same seed, same plan →
//!    bit-identical stats, trace, and state-access journal digests, for
//!    all four schemes, faults and all.
//! 4. **Inert plans are invisible.** A fault plan whose every target is
//!    absent from the rack runs bit-identically to no plan at all.

use gimbal_repro::cores::StealConfig;
use gimbal_repro::fabric::RetryConfig;
use gimbal_repro::rack::{RackConfig, RackTestbed};
use gimbal_repro::sim::{FaultPlan, FaultWindow, SimDuration, SimTime};
use gimbal_repro::telemetry::TraceConfig;
use gimbal_repro::testbed::{FaultConfig, Scheme};

const SCHEMES: [Scheme; 4] = [
    Scheme::Reflex,
    Scheme::Parda,
    Scheme::FlashFq,
    Scheme::Gimbal,
];

fn ms(v: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(v)
}

/// 3 nodes × 2 SSDs, replication on — the canonical rack.
fn rack_cfg(scheme: Scheme) -> RackConfig {
    RackConfig {
        scheme,
        duration: SimDuration::from_millis(60),
        warmup: SimDuration::from_millis(10),
        ..RackConfig::default()
    }
}

/// Node 1 dies at t=20ms; aggressive timers so the ladder runs its full
/// course inside the 60ms window.
fn node_death_faults() -> FaultConfig {
    FaultConfig {
        plan: FaultPlan::default().with_node_death(1, ms(20)),
        retry: RetryConfig {
            base_timeout: SimDuration::from_millis(1),
            max_timeout: SimDuration::from_millis(8),
            max_retries: 5,
            suspect_after: 2,
        },
    }
}

#[test]
fn node_death_loses_no_acknowledged_io() {
    for scheme in SCHEMES {
        let res = RackTestbed::new(RackConfig {
            faults: Some(node_death_faults()),
            ..rack_cfg(scheme)
        })
        .run();

        // Both ledgers balance: no acknowledged IO lost, none double-served.
        assert!(
            res.conservation_audit_holds(),
            "{scheme:?}: physical {:?} rack {:?}",
            res.physical,
            res.rack
        );
        // The rack kept serving after the death.
        let ops: u64 = res.clients.iter().map(|c| c.ops).sum();
        assert!(ops > 100, "{scheme:?}: rack stalled at {ops} ops");
        // The escalation ladder actually ran: timeouts fired, the node was
        // suspected, and reads moved to the surviving replica.
        assert!(res.physical.timed_out > 0, "{scheme:?}: no timeouts");
        assert!(
            res.rack.nodes_suspected >= 1,
            "{scheme:?}: dead node never suspected"
        );
        assert!(res.rack.reroutes > 0, "{scheme:?}: no reroutes");
        // The dead node swallowed capsules at the ToR rather than anything
        // panicking or hanging.
        assert!(
            res.rack.tor_cmd_drops > 0,
            "{scheme:?}: dead node dropped nothing"
        );
        // Replication-2 with one dead node must still reach every span:
        // reads reroute, writes degrade — typed read errors are possible
        // only transiently (a span whose live copy errs), not the norm.
        assert!(
            res.rack.acked_ok + res.rack.acked_degraded > res.rack.failed_typed * 10,
            "{scheme:?}: failures dominate ({:?})",
            res.rack
        );
        // Post-death writes land degraded (the dead replica can't ack).
        assert!(
            res.rack.acked_degraded > 0,
            "{scheme:?}: no degraded write acks after node death"
        );
    }
}

#[test]
fn all_replicas_dead_yields_typed_errors_not_panics() {
    // Kill two of three nodes early. Spans whose both replicas died can
    // only end in typed errors; the rack must keep running and balancing.
    let res = RackTestbed::new(RackConfig {
        faults: Some(FaultConfig {
            plan: FaultPlan::default()
                .with_node_death(1, ms(5))
                .with_node_death(2, ms(5)),
            ..node_death_faults()
        }),
        ..rack_cfg(Scheme::Gimbal)
    })
    .run();
    assert!(res.conservation_audit_holds(), "{:?}", res.rack);
    assert!(
        res.rack.failed_typed > 0,
        "some spans lost both replicas and must surface typed errors"
    );
    // Node-0 spans keep serving.
    let ops: u64 = res.clients.iter().map(|c| c.ops).sum();
    assert!(ops > 0, "survivor node went silent");
}

#[test]
fn gc_aware_routing_beats_blind_under_correlated_storm() {
    // Node 0 storms for most of the measured window. Long base timeout and
    // a single retry so the escalation ladder can't rescue the blind
    // chooser — the A/B isolates the routing decision itself.
    let storm = FaultConfig {
        plan: FaultPlan::default().with_node_gc_storm(0, FaultWindow::new(ms(15), ms(45))),
        retry: RetryConfig {
            base_timeout: SimDuration::from_millis(50),
            max_timeout: SimDuration::from_millis(50),
            max_retries: 1,
            suspect_after: 1,
        },
    };
    let run = |aware: bool| {
        RackTestbed::new(RackConfig {
            gc_aware_routing: aware,
            read_ratio: 1.0,
            faults: Some(storm.clone()),
            ..rack_cfg(Scheme::Gimbal)
        })
        .run()
    };
    let aware = run(true);
    let blind = run(false);
    assert!(aware.conservation_audit_holds());
    assert!(blind.conservation_audit_holds());
    assert!(
        aware.mean_read_latency_us() < blind.mean_read_latency_us(),
        "GC-aware mean {:.1}µs must beat blind {:.1}µs",
        aware.mean_read_latency_us(),
        blind.mean_read_latency_us()
    );
    assert!(
        aware.p99_read_latency_us() < blind.p99_read_latency_us(),
        "GC-aware p99 {:.1}µs must beat blind {:.1}µs",
        aware.p99_read_latency_us(),
        blind.p99_read_latency_us()
    );
}

#[test]
fn faulted_rack_runs_are_bit_identical() {
    // Node death + a partition window + a degraded link, all at once; the
    // double run must agree on stats, trace, and journal digests.
    let faults = FaultConfig {
        plan: FaultPlan::default()
            .with_node_death(1, ms(20))
            .with_node_partition(2, FaultWindow::new(ms(10), ms(14)))
            .with_node_degrade(
                0,
                FaultWindow::new(ms(30), ms(40)),
                SimDuration::from_micros(50),
            ),
        ..node_death_faults()
    };
    for scheme in SCHEMES {
        let mk = || {
            RackTestbed::new(RackConfig {
                faults: Some(faults.clone()),
                trace: Some(TraceConfig { capacity: 1 << 18 }),
                sanitize: true,
                ..rack_cfg(scheme)
            })
            .run()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.stats_digest(), b.stats_digest(), "{scheme:?}: stats");
        assert_eq!(a.trace_digest(), b.trace_digest(), "{scheme:?}: trace");
        assert_eq!(a.access_digest(), b.access_digest(), "{scheme:?}: journal");
        assert!(a.conservation_audit_holds(), "{scheme:?}");
    }
}

#[test]
fn partition_heals_and_rack_recovers() {
    // A 6ms partition: capsules to/from node 1 vanish during the window,
    // timeouts reroute reads, and after healing the node serves again.
    let res = RackTestbed::new(RackConfig {
        faults: Some(FaultConfig {
            plan: FaultPlan::default().with_node_partition(1, FaultWindow::new(ms(20), ms(26))),
            ..node_death_faults()
        }),
        trace: Some(TraceConfig { capacity: 1 << 18 }),
        ..rack_cfg(Scheme::Gimbal)
    })
    .run();
    assert!(res.conservation_audit_holds());
    assert!(
        res.rack.tor_cmd_drops + res.rack.tor_cpl_drops > 0,
        "partition swallowed nothing"
    );
    // The partitioned node's SSDs served IO before and after the window.
    let node1_ops: u64 = (2..4)
        .map(|b| res.ssd_stats[b].reads + res.ssd_stats[b].writes)
        .sum();
    assert!(node1_ops > 0, "node 1 never served");
    // No permanent damage: the healed rack keeps full-redundancy acks
    // dominant.
    assert!(res.rack.acked_ok > res.rack.failed_typed);
}

#[test]
fn degraded_link_slows_but_loses_nothing() {
    let clean = RackTestbed::new(rack_cfg(Scheme::Gimbal)).run();
    let degraded = RackTestbed::new(RackConfig {
        faults: Some(FaultConfig {
            plan: FaultPlan::default().with_node_degrade(
                0,
                FaultWindow::new(ms(10), ms(60)),
                SimDuration::from_micros(200),
            ),
            retry: RetryConfig::default(),
        }),
        ..rack_cfg(Scheme::Gimbal)
    })
    .run();
    assert!(degraded.conservation_audit_holds());
    assert!(
        degraded.rack.link_degraded_crossings > 0,
        "no crossing paid the penalty"
    );
    assert_eq!(
        degraded.rack.failed_typed, 0,
        "degradation must not fail IO"
    );
    assert!(
        degraded.mean_read_latency_us() > clean.mean_read_latency_us(),
        "a 200µs/crossing penalty must show up in mean read latency"
    );
}

/// Fleet-width smoke, parameterized over the node count: a sanitized
/// double run at `nodes` JBOF nodes (work stealing on, so the per-node
/// core schedulers are exercised at scale) must agree bit for bit and
/// finish in bounded wall-clock time. A scheduling blow-up — an event
/// storm, a steal/rebalance loop — shows up here as minutes, not seconds.
fn fleet_width_double_run(nodes: u32) {
    let cfg = RackConfig {
        nodes,
        ssds_per_node: 2,
        clients: 8,
        duration: SimDuration::from_millis(20),
        warmup: SimDuration::from_millis(5),
        sanitize: true,
        steal: Some(StealConfig::default()),
        ..RackConfig::default()
    };
    #[expect(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        reason = "the wall-time budget is the property under test"
    )]
    let started = std::time::Instant::now();
    let a = RackTestbed::new(cfg.clone()).run();
    let b = RackTestbed::new(cfg).run();
    assert!(a.conservation_audit_holds(), "{nodes} nodes: {:?}", a.rack);
    assert_eq!(a.stats_digest(), b.stats_digest(), "{nodes} nodes: stats");
    assert_eq!(
        a.access_digest(),
        b.access_digest(),
        "{nodes} nodes: journal"
    );
    let ops: u64 = a.clients.iter().map(|c| c.ops).sum();
    assert!(ops > 0, "{nodes}-node rack made no progress");
    assert!(
        started.elapsed().as_secs() < 120,
        "{nodes}-node double run took {:?}",
        started.elapsed()
    );
}

#[test]
fn rack_at_24_nodes_is_bit_identical_and_bounded() {
    fleet_width_double_run(24);
}

#[test]
fn absent_target_plan_matches_no_plan_bit_for_bit() {
    let base = RackConfig {
        sanitize: true,
        trace: Some(TraceConfig { capacity: 1 << 18 }),
        ..rack_cfg(Scheme::Gimbal)
    };
    let clean = RackTestbed::new(base.clone()).run();
    let inert = RackTestbed::new(RackConfig {
        faults: Some(FaultConfig {
            plan: FaultPlan::default()
                .with_node_death(11, ms(1))
                .with_node_partition(12, FaultWindow::new(ms(0), ms(60))),
            retry: RetryConfig::default(),
        }),
        ..base
    })
    .run();
    assert_eq!(clean.stats_digest(), inert.stats_digest());
    assert_eq!(clean.trace_digest(), inert.trace_digest());
    assert_eq!(clean.access_digest(), inert.access_digest());
    assert_eq!(inert.physical.timed_out, 0, "inert plan armed timers");
}
