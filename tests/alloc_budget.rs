//! Allocation budget: the per-op paths of the KV, rack and fio engines do
//! not allocate in steady state, and two hot paths never allocate at all.
//!
//! Two zero-allocation gates run first: a disabled `TraceHandle` doing
//! record, observe and gauge (the off-by-default telemetry policy), and the
//! broker-gated `Pipeline` poll with every tenant denied, plus the engines'
//! drains (broker journal visited in place, outputs swapped into a recycled
//! buffer).
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
//! A fifth row, four 128 KiB writers at QD8 on a fragmented SSD, has its
//! own budget of 0.16, twice what it measures: its write buffer holds
//! about 1,500 program batches in flight at its peak, so a drain path that
//! takes one `Vec` per in-flight batch (0.41 per op) fails it.
//!
//! This file holds exactly one `#[test]`: the counter is process-wide, so a
//! second test running on another thread would pollute it.
#![expect(
    clippy::disallowed_types,
    reason = "the counting allocator's counter is process-global by nature"
)]

use gimbal_repro::broker::{BrokerConfig, BrokerHandle};
use gimbal_repro::cores::StealConfig;
use gimbal_repro::fabric::{CmdId, IoType, NvmeCmd, Priority, RetryConfig, SsdId, TenantId};
use gimbal_repro::nic::CpuCost;
use gimbal_repro::rack::{RackConfig, RackTestbed};
use gimbal_repro::sim::{FaultPlan, SimDuration, SimTime};
use gimbal_repro::ssd::NullDevice;
use gimbal_repro::switch::{FifoPolicy, Pipeline, PipelineConfig, PipelineOut};
use gimbal_repro::telemetry::{EventKind, TraceHandle};
use gimbal_repro::testbed::{
    FaultConfig, KvTestbed, KvTestbedConfig, Precondition, Testbed, TestbedConfig, WorkerSpec,
};
use gimbal_repro::workload::FioSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
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

fn write_cmd(id: u64, tenant: u32) -> NvmeCmd {
    NvmeCmd {
        id: CmdId(id),
        tenant: TenantId(tenant),
        ssd: SsdId(0),
        opcode: IoType::Write,
        lba: 0,
        len: 128 * 1024,
        priority: Priority::NORMAL,
        issued_at: SimTime::ZERO,
        wal: None,
    }
}

/// With tracing disabled, the record/observe/gauge paths must not allocate.
fn disabled_telemetry_is_zero_alloc() {
    let handle = TraceHandle::disabled();
    let mut t = 0u64;
    let ((), allocs) = counted(|| {
        for _ in 0..200_000u64 {
            t += 1;
            handle.record(
                SimTime::from_nanos(t),
                SsdId(0),
                Some(TenantId(0)),
                EventKind::CreditGranted { credit: 1 },
            );
            handle.observe("device_latency_ns", TenantId(0), t);
            handle.set_gauge("target_bytes_sent", t as f64);
        }
    });
    assert_eq!(allocs, 0, "disabled telemetry hot path allocated {allocs}x");
}

/// The broker-gated submit path at its worst: every tenant parked behind a
/// denial, every poll re-asking the ledger for each of them. With warm
/// buffers, the poll plus the engines' drains must not allocate.
fn all_denied_broker_poll_is_zero_alloc() {
    const TENANTS: u32 = 4;
    let broker = BrokerHandle::new(
        BrokerConfig {
            capacity_bps: 1_000_000,
            burst_bytes: 128 * 1024,
            ..BrokerConfig::default()
        },
        TraceHandle::disabled(),
    );
    let mut p = Pipeline::new(
        SsdId(0),
        NullDevice::new(),
        Box::new(FifoPolicy::new()),
        PipelineConfig {
            cpu_cost: CpuCost::arm_vanilla(),
            null_device: true,
            cache: None,
            broker: Some(broker.clone()),
        },
    );
    let mut outs: Vec<PipelineOut> = Vec::new();
    let mut pump = |p: &mut Pipeline<NullDevice>, now: SimTime| {
        p.poll(now);
        broker.drain_journal_with(|op, key| {
            black_box((op, key));
        });
        p.take_outputs_into(&mut outs);
        for out in outs.drain(..) {
            black_box(out);
        }
        black_box(p.next_event_at());
    };
    // Warm-up: each tenant spends its burst (borrowing on the way, so the
    // journal buffer grows) and leaves seven 128 KiB writes parked. At
    // 250 KB/s per tenant the next grant is half a second away.
    let mut id = 0u64;
    for _ in 0..8 {
        for t in 0..TENANTS {
            p.on_command(write_cmd(id, t), SimTime::ZERO);
            id += 1;
        }
    }
    let mut t = 0u64;
    for _ in 0..1_000 {
        t += 1_000;
        pump(&mut p, SimTime::from_nanos(t));
    }
    assert_eq!(
        p.in_progress(),
        7 * TENANTS as usize,
        "all but the bursts parked"
    );
    let denials = broker.stats().denials;
    let ((), allocs) = counted(|| {
        for _ in 0..100_000u64 {
            t += 1;
            pump(&mut p, SimTime::from_nanos(t));
        }
    });
    assert_eq!(
        broker.stats().denials - denials,
        100_000 * u64::from(TENANTS),
        "every tenant must be denied on every poll"
    );
    assert_eq!(allocs, 0, "all-denied broker poll allocated {allocs}x");
}

#[test]
fn per_op_paths_stay_within_the_allocation_budget() {
    // First: these gates allow no allocation at all, and the harness's
    // slow-test warning (after 60 s) allocates on another thread.
    disabled_telemetry_is_zero_alloc();
    all_denied_broker_poll_is_zero_alloc();

    const BUDGET: f64 = 0.25;
    // The fan-out row measures 0.0081 allocs/op; a wheel whose slots keep
    // their own high-water buffers measured 0.0233 on the same run.
    const FANOUT_MS: u64 = 500;
    const FANOUT_BUDGET: f64 = 0.016;
    // The fragmented-write row measures 0.083 allocs/op; one `Vec` per
    // in-flight program batch measured 0.41 on the same run.
    const FRAG_MS: u64 = 2000;
    const FRAG_BUDGET: f64 = 0.16;
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

    // Four 128 KiB writers at QD8 on a fragmented SSD: the write buffer
    // fills, so every program batch the buffer can hold is in flight at
    // once and GC runs behind them.
    let frag = Testbed::new(
        TestbedConfig {
            precondition: Precondition::Fragmented,
            duration: ms(FRAG_MS),
            warmup: SimDuration::ZERO,
            seed: 42,
            ..TestbedConfig::default()
        },
        (0..4u64)
            .map(|i| {
                let mut f = FioSpec::paper_default(0.0, 128 * 1024, i * cap / 4, cap / 4);
                f.queue_depth = 8;
                WorkerSpec::new("128k-write", f)
            })
            .collect(),
    );
    let (res, frag_allocs) = counted(|| frag.run());
    let frag_ops: u64 = res.workers.iter().map(|w| w.ops).sum();

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
        (
            "fio 128k writes, fragmented",
            frag_allocs,
            frag_ops,
            FRAG_BUDGET,
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
