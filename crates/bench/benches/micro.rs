//! Micro-benchmarks for the per-IO-cost-critical components.
//!
//! The paper's whole premise is that a SmartNIC core gives Gimbal about a
//! microsecond per IO (§2.4, Table 1); these benchmarks check that the
//! *reimplemented* data structures stay well inside that envelope per
//! operation on commodity hardware.
//!
//! This is a `harness = false` target with a small built-in timing loop
//! (median of several repetitions of a fixed batch) so it needs no external
//! benchmark framework. Run with `cargo bench --bench micro`; pass a filter
//! string to run a subset: `cargo bench --bench micro -- drr`.

use gimbal_broker::{BrokerConfig, BrokerHandle};
use gimbal_cache::{AdmissionPolicy, CacheConfig, SsdCache};
use gimbal_core::{GimbalPolicy, LatencyMonitor, Params, VirtualSlotScheduler, WriteCostEstimator};
use gimbal_fabric::{CmdId, IoType, NvmeCmd, Priority, SsdId, TenantId};
use gimbal_nic::CpuCost;
use gimbal_sim::{EventQueue, Histogram, SimDuration, SimRng, SimTime, TokenBucket};
use gimbal_ssd::{FlashSsd, NullDevice, SsdConfig, StorageDevice};
use gimbal_switch::{
    CompletionInfo, FifoPolicy, Pipeline, PipelineConfig, PipelineOut, PolicyPoll, Request,
    SwitchPolicy,
};
use gimbal_telemetry::{EventKind, TraceConfig, TraceHandle, Tracer};
use gimbal_workload::Zipfian;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Allocation-counting wrapper around the system allocator so the telemetry
/// and switch sections can assert their steady-state hot paths never touch
/// the heap.
struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);

// The workspace denies `unsafe_code`; the allocator hook is the one place a
// benchmark needs it, and it only counts before delegating to `System`.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn req(id: u64, tenant: u32, op: IoType, len: u32) -> Request {
    Request {
        cmd: NvmeCmd {
            id: CmdId(id),
            tenant: TenantId(tenant),
            ssd: SsdId(0),
            opcode: op,
            lba: 0,
            len,
            priority: Priority::NORMAL,
            issued_at: SimTime::ZERO,
            wal: None,
        },
        ready_at: SimTime::ZERO,
    }
}

/// Time `iters` calls of `f`, repeated `REPS` times; report the median
/// nanoseconds per call. Coarse compared to a statistical harness, but
/// plenty to confirm "well under a microsecond".
fn bench<F: FnMut()>(name: &str, iters: u64, mut f: F) {
    const REPS: usize = 7;
    // Warm-up.
    for _ in 0..iters / 4 {
        f();
    }
    let mut samples = [0f64; REPS];
    for s in samples.iter_mut() {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        *s = t.elapsed().as_nanos() as f64 / iters as f64;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    println!("{name:<40} {:>10.1} ns/op", samples[REPS / 2]);
}

fn bench_sim_primitives(want: &dyn Fn(&str) -> bool) {
    if want("sim/rng_next_u64") {
        let mut rng = SimRng::new(1);
        bench("sim/rng_next_u64", 2_000_000, || {
            black_box(rng.next_u64());
        });
    }
    if want("sim/event_queue_push_pop") {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut t = 0u64;
        bench("sim/event_queue_push_pop", 1_000_000, || {
            t += 100;
            q.push(SimTime::from_nanos(t), t);
            if q.len() > 64 {
                black_box(q.pop());
            }
        });
    }
    if want("sim/histogram_record") {
        let mut h = Histogram::new();
        let mut v = 1u64;
        bench("sim/histogram_record", 2_000_000, || {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(black_box(v >> 40));
        });
    }
    if want("sim/histogram_p999") {
        let mut h = Histogram::new();
        for i in 0..100_000u64 {
            h.record(i % 10_000);
        }
        bench("sim/histogram_p999", 100_000, || {
            black_box(h.quantile(0.999));
        });
    }
    if want("sim/token_bucket_cycle") {
        let mut tb = TokenBucket::with_rate(1e9, 1 << 20);
        let mut t = 0u64;
        bench("sim/token_bucket_cycle", 1_000_000, || {
            t += 1_000;
            tb.refill(SimTime::from_nanos(t));
            black_box(tb.try_consume(4096));
        });
    }
}

fn bench_gimbal_components(want: &dyn Fn(&str) -> bool) {
    if want("gimbal/latency_monitor_update") {
        let mut m = LatencyMonitor::new(&Params::default());
        let mut lat = 100u64;
        bench("gimbal/latency_monitor_update", 1_000_000, || {
            lat = (lat * 13) % 1500 + 50;
            black_box(m.update(SimDuration::from_micros(lat)));
        });
    }
    if want("gimbal/write_cost_update") {
        let mut e = WriteCostEstimator::new(&Params::default());
        let mut t = 0u64;
        bench("gimbal/write_cost_update", 1_000_000, || {
            t += 50_000;
            e.on_write_completion(SimTime::from_nanos(t), t.is_multiple_of(3));
            black_box(e.cost());
        });
    }
    if want("gimbal/drr_dequeue_complete_16_tenants") {
        // Keep the scheduler loaded: top it back up each batch.
        let mut s = VirtualSlotScheduler::new(Params::default());
        let mut next_id = 0u64;
        bench("gimbal/drr_dequeue_complete_16_tenants", 20_000, || {
            while s.queued() < 256 {
                s.on_arrival(
                    req(next_id, (next_id % 16) as u32, IoType::Read, 4096),
                    SimTime::ZERO,
                );
                next_id += 1;
            }
            for _ in 0..64 {
                if let gimbal_core::scheduler::SchedPoll::Submit(r) =
                    s.dequeue(SimTime::ZERO, 1.5, |_| true)
                {
                    s.on_completion(r.cmd.id, SimTime::ZERO);
                }
            }
            black_box(s.queued());
        });
    }
    if want("gimbal/full_policy_submit_complete") {
        let mut p = GimbalPolicy::with_defaults(SsdId(0));
        let mut id = 0u64;
        let mut t = 0u64;
        bench("gimbal/full_policy_submit_complete", 500_000, || {
            t += 2_500;
            let now = SimTime::from_nanos(t);
            p.on_arrival(req(id, (id % 4) as u32, IoType::Read, 4096), now);
            if let PolicyPoll::Submit(r) = p.next_submission(now, 0) {
                let info = CompletionInfo {
                    cmd: r.cmd,
                    device_latency: SimDuration::from_micros(80),
                    completed_at: now,
                    failed: false,
                };
                p.on_completion(&info, now);
            }
            id += 1;
        });
    }
}

fn bench_telemetry(want: &dyn Fn(&str) -> bool) {
    if want("telemetry/record_disabled_zero_alloc") {
        // The acceptance gate for the off-by-default policy: with tracing
        // disabled, the record/observe/gauge paths must not allocate.
        let handle = TraceHandle::disabled();
        let mut t = 0u64;
        let mut step = || {
            t += 1;
            handle.record(
                SimTime::from_nanos(t),
                SsdId(0),
                Some(TenantId(0)),
                EventKind::CreditGranted { credit: 1 },
            );
            handle.observe("device_latency_ns", TenantId(0), t);
            handle.set_gauge("target_bytes_sent", t as f64);
        };
        let before = ALLOC_COUNT.load(Ordering::Relaxed);
        for _ in 0..200_000u64 {
            step();
        }
        let allocs = ALLOC_COUNT.load(Ordering::Relaxed) - before;
        assert_eq!(allocs, 0, "disabled telemetry hot path allocated {allocs}x");
        bench("telemetry/record_disabled_zero_alloc", 2_000_000, step);
    }
    if want("telemetry/record_enabled_ring") {
        let tracer = Rc::new(RefCell::new(Tracer::new(TraceConfig { capacity: 1 << 12 })));
        let handle = TraceHandle::attached(&tracer);
        let mut t = 0u64;
        bench("telemetry/record_enabled_ring", 1_000_000, || {
            t += 1;
            handle.record(
                SimTime::from_nanos(t),
                SsdId(0),
                Some(TenantId((t % 4) as u32)),
                EventKind::CreditGranted {
                    credit: (t % 64) as u32,
                },
            );
        });
        black_box(tracer.borrow().len());
    }
}

fn bench_switch(want: &dyn Fn(&str) -> bool) {
    if want("switch/poll_all_denied_zero_alloc") {
        // The broker-gated submit path at its worst: every tenant parked
        // behind a denial, every poll re-asking the ledger for each of
        // them. With warm buffers, the poll plus the engines' drains (the
        // broker journal visited in place, the completion capsules swapped
        // into a recycled buffer) must not allocate.
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
        // Warm-up: each tenant spends its burst (borrowing on the way, so
        // the journal buffer grows) and leaves seven 128 KiB writes parked.
        // At 250 KB/s per tenant the next grant is half a second away.
        let mut id = 0u64;
        for _ in 0..8 {
            for t in 0..TENANTS {
                p.on_command(req(id, t, IoType::Write, 128 * 1024).cmd, SimTime::ZERO);
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
        let mut step = || {
            t += 1;
            pump(&mut p, SimTime::from_nanos(t));
        };
        let denials = broker.stats().denials;
        let before = ALLOC_COUNT.load(Ordering::Relaxed);
        for _ in 0..100_000u64 {
            step();
        }
        let allocs = ALLOC_COUNT.load(Ordering::Relaxed) - before;
        assert_eq!(
            broker.stats().denials - denials,
            100_000 * u64::from(TENANTS),
            "every tenant must be denied on every poll"
        );
        assert_eq!(allocs, 0, "all-denied broker poll allocated {allocs}x");
        bench("switch/poll_all_denied_zero_alloc", 200_000, step);
    }
}

fn bench_cache(want: &dyn Fn(&str) -> bool) {
    let read_at = |id: u64, lba: u64| NvmeCmd {
        id: CmdId(id),
        tenant: TenantId(0),
        ssd: SsdId(0),
        opcode: IoType::Read,
        lba,
        len: 4096,
        priority: Priority::NORMAL,
        issued_at: SimTime::ZERO,
        wal: None,
    };
    if want("cache/hit_path_lookup") {
        // The latency a cache hit adds to the pipeline's submit path: one
        // line-table probe plus the FIFO bookkeeping. Must be well under
        // the ~µs per-IO envelope for the bypass to be worth anything.
        let mut c = SsdCache::new(
            SsdId(0),
            CacheConfig {
                policy: AdmissionPolicy::Always,
                ..CacheConfig::for_mb(64)
            },
        );
        let hot = 1024u64;
        for i in 0..hot {
            let cmd = read_at(i, i);
            c.try_read_hit(&cmd, SimTime::ZERO);
            c.on_read_completion(&cmd, SimDuration::from_micros(80), false, SimTime::ZERO);
        }
        let mut id = hot;
        let mut lba = 0u64;
        bench("cache/hit_path_lookup", 1_000_000, || {
            lba = (lba + 1) % hot;
            id += 1;
            black_box(c.try_read_hit(&read_at(id, lba), SimTime::ZERO));
        });
    }
    if want("cache/miss_fill_evict_cycle") {
        // Steady-state thrash: every lookup misses, every fill evicts.
        let mut c = SsdCache::new(
            SsdId(0),
            CacheConfig {
                policy: AdmissionPolicy::Always,
                capacity_bytes: 1 << 20,
                ..CacheConfig::for_mb(64)
            },
        );
        let mut id = 0u64;
        let mut lba = 0u64;
        bench("cache/miss_fill_evict_cycle", 500_000, || {
            id += 1;
            lba += 1;
            let cmd = read_at(id, lba);
            c.try_read_hit(&cmd, SimTime::ZERO);
            c.on_read_completion(&cmd, SimDuration::from_micros(80), false, SimTime::ZERO);
        });
        black_box(c.stats().evictions);
    }
}

fn bench_substrates(want: &dyn Fn(&str) -> bool) {
    if want("substrates/zipfian_draw") {
        let z = Zipfian::new(1_000_000, 0.99);
        let mut rng = SimRng::new(5);
        bench("substrates/zipfian_draw", 1_000_000, || {
            black_box(z.next(&mut rng));
        });
    }
    if want("substrates/flash_ssd_4k_read_cycle") {
        let cfg = SsdConfig {
            logical_capacity: 256 * 1024 * 1024,
            ..SsdConfig::default()
        };
        let mut ssd = FlashSsd::new(cfg, 1);
        ssd.precondition_clean();
        let cap = ssd.capacity_blocks();
        let mut rng = SimRng::new(2);
        let mut tag = 0u64;
        let mut t = 0u64;
        bench("substrates/flash_ssd_4k_read_cycle", 200_000, || {
            t += 2_500;
            ssd.submit(
                tag,
                IoType::Read,
                rng.gen_below(cap),
                4096,
                SimTime::from_nanos(t),
            );
            tag += 1;
            black_box(ssd.poll(SimTime::from_nanos(t)).len());
        });
    }
}

fn main() {
    let filter: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    let want =
        move |name: &str| filter.is_empty() || filter.iter().any(|f| name.contains(f.as_str()));
    bench_sim_primitives(&want);
    bench_gimbal_components(&want);
    bench_telemetry(&want);
    bench_switch(&want);
    bench_cache(&want);
    bench_substrates(&want);
}
