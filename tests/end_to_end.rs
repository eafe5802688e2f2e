//! Cross-crate integration tests: full client → fabric → switch → SSD runs
//! exercising every scheme, plus the determinism guarantee that underpins
//! the reproducibility of every figure.

use gimbal_repro::sim::SimDuration;
use gimbal_repro::testbed::{
    KvTestbed, KvTestbedConfig, Precondition, Scheme, Testbed, TestbedConfig, WorkerSpec,
};
use gimbal_repro::workload::{FioSpec, YcsbMix};

const CAP: u64 = 512 * 1024 * 1024 / 4096;

fn region(i: u32, n: u32) -> (u64, u64) {
    let per = CAP / u64::from(n);
    (u64::from(i) * per, per)
}

fn mixed_workers(readers: u32, writers: u32, io: u64) -> Vec<WorkerSpec> {
    let n = readers + writers;
    (0..n)
        .map(|i| {
            let (start, blocks) = region(i, n);
            let ratio = if i < readers { 1.0 } else { 0.0 };
            let label = if i < readers { "read" } else { "write" };
            WorkerSpec::new(label, FioSpec::paper_default(ratio, io, start, blocks))
        })
        .collect()
}

fn cfg(scheme: Scheme, pre: Precondition) -> TestbedConfig {
    TestbedConfig {
        scheme,
        precondition: pre,
        duration: SimDuration::from_millis(1500),
        warmup: SimDuration::from_millis(700),
        ..TestbedConfig::default()
    }
}

#[test]
fn every_scheme_moves_data_in_a_mixed_fragmented_workload() {
    for scheme in [
        Scheme::Vanilla,
        Scheme::Reflex,
        Scheme::Parda,
        Scheme::FlashFq,
        Scheme::Gimbal,
    ] {
        let res = Testbed::new(
            cfg(scheme, Precondition::Fragmented),
            mixed_workers(8, 8, 4096),
        )
        .run();
        let rd = res.aggregate_bps(|l| l == "read");
        let wr = res.aggregate_bps(|l| l == "write");
        assert!(rd > 5e6, "{}: reads {rd}", scheme.name());
        assert!(wr > 1e6, "{}: writes {wr}", scheme.name());
    }
}

#[test]
fn gimbal_balances_fragmented_read_write_cost_fairness() {
    // The paper's headline fairness result (§5.3, Fig 7c/f): under Gimbal
    // the read and write streams receive comparable *cost-normalized*
    // shares, while FlashFQ equalizes raw bandwidth (cost-blind).
    let gim = Testbed::new(
        cfg(Scheme::Gimbal, Precondition::Fragmented),
        mixed_workers(8, 8, 4096),
    )
    .run();
    let g_rd = gim.aggregate_bps(|l| l == "read");
    let g_wr = gim.aggregate_bps(|l| l == "write");
    // Reads must retain a large multiple of the write bandwidth (write cost
    // ~9 on this device); cost-blind schemes give reads ≈ writes.
    assert!(
        g_rd > 3.0 * g_wr,
        "gimbal read {g_rd:.0} vs write {g_wr:.0}"
    );

    let ffq = Testbed::new(
        cfg(Scheme::FlashFq, Precondition::Fragmented),
        mixed_workers(8, 8, 4096),
    )
    .run();
    let f_rd = ffq.aggregate_bps(|l| l == "read");
    let f_wr = ffq.aggregate_bps(|l| l == "write");
    let ratio = f_rd / f_wr;
    assert!(
        (0.5..2.0).contains(&ratio),
        "flashfq equalizes bandwidth: {ratio:.2}"
    );
    // And Gimbal's reads should beat FlashFQ's reads outright.
    assert!(g_rd > f_rd, "gimbal reads {g_rd:.0} vs flashfq {f_rd:.0}");
}

#[test]
fn gimbal_controls_tail_latency_versus_work_conserving_schemes() {
    // §5.4: credit-based flow control bounds tails that no-flow-control
    // schemes let grow.
    let run = |scheme| {
        let res = Testbed::new(
            cfg(scheme, Precondition::Clean),
            mixed_workers(16, 16, 128 * 1024),
        )
        .run();
        res.group_latency(|l| l == "write")[1].p999_ns
    };
    let gimbal = run(Scheme::Gimbal);
    let flashfq = run(Scheme::FlashFq);
    assert!(
        gimbal * 2 < flashfq,
        "gimbal write p99.9 {gimbal}ns vs flashfq {flashfq}ns"
    );
}

#[test]
fn identical_seeds_give_identical_results() {
    let run = || {
        let res = Testbed::new(
            cfg(Scheme::Gimbal, Precondition::Fragmented),
            mixed_workers(4, 4, 4096),
        )
        .run();
        res.workers
            .iter()
            .map(|w| {
                (
                    w.ops,
                    w.bytes,
                    w.read_latency.p999_ns,
                    w.write_latency.p999_ns,
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run(), "simulation must be fully deterministic");
}

#[test]
#[expect(clippy::float_cmp, reason = "any difference at all is the property")]
fn different_seeds_differ_but_stay_in_band() {
    let run = |seed| {
        let mut c = cfg(Scheme::Gimbal, Precondition::Clean);
        c.seed = seed;
        let res = Testbed::new(c, mixed_workers(8, 0, 4096)).run();
        res.aggregate_bps(|_| true)
    };
    let a = run(1);
    let b = run(2);
    assert_ne!(a, b, "different seeds should perturb the run");
    let rel = (a - b).abs() / a.max(b);
    assert!(rel < 0.15, "but totals stay close: {a:.0} vs {b:.0}");
}

#[test]
fn multi_ssd_jbof_scales_aggregate_bandwidth() {
    let one = {
        let c = cfg(Scheme::Gimbal, Precondition::Clean);
        let w = vec![WorkerSpec::new(
            "r",
            FioSpec::paper_default(1.0, 128 * 1024, 0, CAP),
        )];
        Testbed::new(c, w).run().aggregate_bps(|_| true)
    };
    let four = {
        let mut c = cfg(Scheme::Gimbal, Precondition::Clean);
        c.num_ssds = 4;
        c.cores = 4;
        let w = (0..4)
            .map(|i| {
                WorkerSpec::new("r", FioSpec::paper_default(1.0, 128 * 1024, 0, CAP)).on_ssd(i)
            })
            .collect();
        Testbed::new(c, w).run().aggregate_bps(|_| true)
    };
    assert!(
        four > 2.5 * one,
        "4 SSDs should scale: {one:.0} → {four:.0}"
    );
}

#[test]
fn kv_deployment_runs_deterministically_across_schemes() {
    let run = |scheme| {
        let c = KvTestbedConfig {
            scheme,
            mix: YcsbMix::B,
            instances: 3,
            num_nodes: 1,
            ssds_per_node: 2,
            records_per_instance: 8_000,
            duration: SimDuration::from_millis(900),
            warmup: SimDuration::from_millis(300),
            ..KvTestbedConfig::default()
        };
        let res = KvTestbed::new(c).run();
        res.instances.iter().map(|i| i.ops).sum::<u64>()
    };
    for scheme in [Scheme::Reflex, Scheme::FlashFq, Scheme::Gimbal] {
        let a = run(scheme);
        let b = run(scheme);
        assert_eq!(a, b, "{}: nondeterministic KV run", scheme.name());
        assert!(a > 200, "{}: ops {a}", scheme.name());
    }
}
