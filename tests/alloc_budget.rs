//! Allocation budget: the per-op paths of the KV, rack and fio engines do
//! not allocate in steady state.
//!
//! A counting global allocator tallies every allocation made while `run()`
//! executes (construction and preload are excluded), and the test divides
//! by the operations the run completed. The budget of 0.25 allocations per
//! op leaves room for what recycled buffers cannot avoid (histogram, queue
//! and journal growth, flush and compaction bookkeeping) and sits far below
//! one short-lived `Vec` per op, which is what per-call plan lists, step
//! outputs and steal rings cost (2.4, 4.2 and 4.6 per op on these runs).
//!
//! A fourth row, 256 batched readers over 4 SSDs, has its own budget of
//! 0.016, twice what it measures: it holds thousands of events pending in
//! the timer wheels, so storage that grows with slot high-water marks
//! instead of the live entry count (0.0233 per op) fails it.
//!
//! This file holds exactly one `#[test]`: the counter is process-wide, so a
//! second test running on another thread would pollute it.

use gimbal_repro::cores::StealConfig;
use gimbal_repro::fabric::RetryConfig;
use gimbal_repro::rack::{RackConfig, RackTestbed};
use gimbal_repro::sim::{FaultPlan, SimDuration, SimTime};
use gimbal_repro::testbed::{
    FaultConfig, KvTestbed, KvTestbedConfig, Precondition, Testbed, TestbedConfig, WorkerSpec,
};
use gimbal_repro::workload::FioSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// The workspace denies `unsafe_code`; the allocator hook is the one place a
// test needs it, and it only counts before delegating to `System`.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` contract is forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f`, returning its result and the allocations it made.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = f();
    (r, ALLOCS.load(Ordering::Relaxed) - before)
}

#[test]
fn per_op_paths_stay_within_the_allocation_budget() {
    const BUDGET: f64 = 0.25;
    // The fan-out row measures 0.0081 allocs/op; a wheel whose slots keep
    // their own high-water buffers measured 0.0233 on the same run.
    const FANOUT_MS: u64 = 500;
    const FANOUT_BUDGET: f64 = 0.016;
    let ms = SimDuration::from_millis;

    // YCSB-A over replicated blobstore files: LSM steps and blobstore plans.
    let kv = KvTestbed::new(KvTestbedConfig {
        instances: 3,
        records_per_instance: 10_000,
        duration: ms(1000),
        warmup: SimDuration::ZERO,
        seed: 42,
        ..KvTestbedConfig::default()
    });
    let (res, kv_allocs) = counted(|| kv.run());
    let kv_ops: u64 = res.instances.iter().map(|i| i.ops).sum();

    // The rack with node 1 dying a third of the way in: routing, reroutes
    // and degraded writes.
    let rack = RackTestbed::new(RackConfig {
        duration: ms(1000),
        warmup: SimDuration::ZERO,
        seed: 42,
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
    });
    let (res, rack_allocs) = counted(|| rack.run());
    let rack_ops: u64 = res.clients.iter().map(|c| c.ops).sum();

    // Four hot readers homed on core 0 of two: every quantum whose home is
    // busy walks the steal ring.
    let cap = 512 * 1024 * 1024 / 4096;
    let fio = Testbed::new(
        TestbedConfig {
            precondition: Precondition::Clean,
            num_ssds: 8,
            cores: 2,
            duration: ms(1000),
            warmup: SimDuration::ZERO,
            seed: 42,
            steal: Some(StealConfig::default()),
            ..TestbedConfig::default()
        },
        (0..4)
            .map(|i| {
                WorkerSpec::new(
                    format!("hot{}", 2 * i),
                    FioSpec::paper_default(1.0, 4096, 0, cap),
                )
                .on_ssd(2 * i)
            })
            .collect(),
    );
    let (res, fio_allocs) = counted(|| fio.run());
    let fio_ops: u64 = res.workers.iter().map(|w| w.ops).sum();
    let steals = res.cores.as_ref().map_or(0, |c| c.steals);
    assert!(steals > 0, "the fio row never stole a quantum");

    // 256 readers over 4 clean SSDs with batching: thousands of commands
    // in flight, so the event wheels hold thousands of pending entries.
    let (tenants, ssds) = (256u32, 4u32);
    let region = cap / u64::from(tenants / ssds);
    let fanout = Testbed::new(
        TestbedConfig {
            precondition: Precondition::Clean,
            num_ssds: ssds,
            cores: ssds,
            batch: 32,
            duration: ms(FANOUT_MS),
            warmup: SimDuration::ZERO,
            seed: 42,
            ..TestbedConfig::default()
        },
        (0..tenants)
            .map(|i| {
                let start = u64::from(i / ssds) * region;
                WorkerSpec::new("fanout", FioSpec::paper_default(1.0, 4096, start, region))
                    .on_ssd(i % ssds)
            })
            .collect(),
    );
    let (res, fanout_allocs) = counted(|| fanout.run());
    let fanout_ops: u64 = res.workers.iter().map(|w| w.ops).sum();

    let rows = [
        ("kv ycsb-a", kv_allocs, kv_ops, BUDGET),
        ("rack node-death", rack_allocs, rack_ops, BUDGET),
        ("fio 2-core steal", fio_allocs, fio_ops, BUDGET),
        (
            "fio 256-tenant fan-out",
            fanout_allocs,
            fanout_ops,
            FANOUT_BUDGET,
        ),
    ];
    let report: Vec<String> = rows
        .iter()
        .map(|(name, allocs, ops, budget)| {
            format!(
                "{name}: {allocs} allocs / {ops} ops = {:.4} (budget {budget})",
                *allocs as f64 / *ops as f64
            )
        })
        .collect();
    println!("{}", report.join("\n"));
    assert!(
        rows.iter()
            .all(|&(_, allocs, ops, budget)| ops > 1_000 && allocs as f64 <= budget * ops as f64),
        "over budget in allocs per op (or too few ops):\n{}",
        report.join("\n")
    );
}
