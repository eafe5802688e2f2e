//! Scale determinism suite: the batched wheel hot path at 1,000 tenants.
//!
//! The tentpole perf work (hierarchical timer wheel, batched capsule
//! submission, arena-recycled IO state) is only allowed to exist because it
//! is invisible to every digest. This suite proves that at scale: for all
//! four schemes, a 1k-tenant run driven through the batched hot path is
//! bit-identical across a double run — stats, trace, and state-access
//! journal digests — inside a bounded wall-clock budget.
//!
//! Sizing follows `tests/rack.rs::fleet_width_double_run`: the full
//! 1k-tenant / million-IO point runs in release only (`cargo test
//! --release --test scale`); debug builds run a scaled-down shape of the
//! same test so `cargo test` stays fast.

use gimbal_repro::sim::SimDuration;
use gimbal_repro::telemetry::TraceConfig;
use gimbal_repro::testbed::{parse_workers, RunResult, Scheme, Testbed, TestbedConfig};

/// `tenants` 4 KiB closed-loop readers over disjoint LBA regions,
/// round-robin across the SSDs (`jbofsim --workers {tenants}x4k-read`).
fn run(scheme: Scheme, tenants: u32, ssds: u32, ms: u64, sanitize: bool) -> RunResult {
    let cfg = TestbedConfig {
        scheme,
        num_ssds: ssds,
        cores: ssds,
        duration: SimDuration::from_millis(ms),
        warmup: SimDuration::from_millis(ms / 4),
        batch: 32,
        sanitize,
        trace: (!sanitize).then(TraceConfig::default),
        ..TestbedConfig::default()
    };
    let workers = parse_workers(&format!("{tenants}x4k-read"), ssds).unwrap();
    Testbed::new(cfg, workers).run()
}

const SCHEMES: [Scheme; 4] = [
    Scheme::Gimbal,
    Scheme::Reflex,
    Scheme::Parda,
    Scheme::FlashFq,
];

/// 1k-tenant double run, all four schemes, batch-32 wheel hot path:
/// stats + trace digests bit-identical, and in release the Gimbal point
/// alone covers over a million device IOs. A sanitized (journaled) double
/// run at a shorter duration — journals record every engine decision, so
/// the full point would hold gigabytes — pins the state-access journal
/// digest too. The whole suite must finish inside the wall budget.
#[test]
fn thousand_tenant_double_run_is_bit_identical() {
    let (tenants, ssds, full_ms, journal_ms) = if cfg!(debug_assertions) {
        (100, 4, 30, 20)
    } else {
        (1000, 8, 700, 100)
    };
    #[expect(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        reason = "the wall-time budget is the property under test"
    )]
    let started = std::time::Instant::now();
    for scheme in SCHEMES {
        let a = run(scheme, tenants, ssds, full_ms, false);
        let b = run(scheme, tenants, ssds, full_ms, false);
        assert_eq!(
            a.stats_digest(),
            b.stats_digest(),
            "{scheme:?}: stats diverged at {tenants} tenants"
        );
        assert_eq!(
            a.trace_digest(),
            b.trace_digest(),
            "{scheme:?}: trace diverged at {tenants} tenants"
        );
        assert_eq!(
            a.events_processed, b.events_processed,
            "{scheme:?}: event count diverged"
        );
        let ios: u64 = a.ssd_stats.iter().map(|s| s.reads + s.writes).sum();
        if !cfg!(debug_assertions) && scheme == Scheme::Gimbal {
            assert!(
                ios >= 1_000_000,
                "Gimbal scale point did only {ios} device IOs"
            );
        }
        assert!(ios > 0, "{scheme:?}: no progress at scale");

        let ja = run(scheme, tenants, ssds, journal_ms, true);
        let jb = run(scheme, tenants, ssds, journal_ms, true);
        assert_eq!(
            ja.stats_digest(),
            jb.stats_digest(),
            "{scheme:?}: sanitized stats diverged"
        );
        let da = ja.access_digest().expect("sanitizer was enabled");
        let db = jb.access_digest().expect("sanitizer was enabled");
        assert_eq!(da, db, "{scheme:?}: state-access journal diverged");
    }
    assert!(
        started.elapsed().as_secs() < 120,
        "scale double runs took {:?}",
        started.elapsed()
    );
}

/// The batch knob at scale is still inert at 1: a batch-1 run and a
/// default-config run are the same simulation, digest for digest, so
/// batching stays opt-in and cannot leak into unbatched experiments.
#[test]
fn batch_one_at_scale_matches_default_config() {
    let (tenants, ssds, ms) = if cfg!(debug_assertions) {
        (50, 2, 20)
    } else {
        (200, 4, 60)
    };
    let mk = |batch: u32| {
        let cfg = TestbedConfig {
            num_ssds: ssds,
            cores: ssds,
            duration: SimDuration::from_millis(ms),
            warmup: SimDuration::from_millis(ms / 4),
            batch,
            sanitize: true,
            ..TestbedConfig::default()
        };
        let workers = parse_workers(&format!("{tenants}x4k-read"), ssds).unwrap();
        Testbed::new(cfg, workers).run()
    };
    let batched = mk(1);
    let default = mk(TestbedConfig::default().batch);
    assert_eq!(batched.stats_digest(), default.stats_digest());
    assert_eq!(batched.access_digest(), default.access_digest());
}
