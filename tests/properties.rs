//! Property-style tests on the core data structures' invariants.
//!
//! These were originally written against `proptest`; the workspace is now
//! dependency-free, so each property drives its random cases from `SimRng`
//! with fixed seeds instead. Coverage is the same shape — randomized inputs,
//! many cases per property — but fully deterministic, which also means a
//! failure here reproduces identically on every machine.
#![expect(
    clippy::disallowed_types,
    reason = "the gate and feed probes share their logs with the harness through Rc<RefCell<..>>"
)]

use gimbal_repro::broker::{Broker, BrokerConfig, BrokerHandle, BrokerMode, BrokerStats, Charge};
use gimbal_repro::cache::{
    is_flush_id, AdmissionPolicy, CacheConfig, DurabilityEvent, DurabilityJournal, SsdCache,
    WritePolicy, FLUSH_ID_BASE,
};
use gimbal_repro::fabric::{CmdId, IoType, NvmeCmd, Priority, SsdId, TenantId};
use gimbal_repro::gimbal::scheduler::SchedPoll;
use gimbal_repro::gimbal::{Params, VirtualSlotScheduler};
use gimbal_repro::nic::CpuCost;
use gimbal_repro::sim::stats::LatencySummary;
use gimbal_repro::sim::{
    ArenaError, EventQueue, Histogram, IoArena, SimDuration, SimRng, SimTime, TokenBucket,
};
use gimbal_repro::ssd::ftl::Ftl;
use gimbal_repro::ssd::{SsdCompletion, SsdConfig, StorageDevice};
use gimbal_repro::switch::{
    CompletionInfo, Pipeline, PipelineConfig, PolicyPoll, Request, SwitchPolicy,
};
use gimbal_repro::telemetry::TraceHandle;
use gimbal_repro::testbed::check_journal;
use gimbal_repro::workload::Zipfian;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::rc::Rc;

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

/// Histogram quantiles are monotone in q and bracketed by min/max.
#[test]
fn histogram_quantiles_are_monotone() {
    let mut rng = SimRng::new(0x9157_0001);
    for case in 0..200 {
        let n = 1 + rng.gen_below(499) as usize;
        let values: Vec<u64> = (0..n).map(|_| rng.gen_below(1_000_000_000)).collect();
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let qs = [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0];
        let mut last = 0;
        for &q in &qs {
            let v = h.quantile(q);
            assert!(
                v >= last,
                "case {case}: quantile({q}) = {v} < previous {last}"
            );
            last = v;
        }
        assert!(h.quantile(0.0) >= h.min());
        assert!(h.quantile(1.0) <= h.max());
        assert_eq!(h.count(), values.len() as u64);
    }
}

/// The dense histogram the range-sized [`Histogram`] replaced, kept as the
/// **equivalence oracle**: one count per bucket over all of `u64` (59
/// magnitudes × 64 sub-buckets), allocated up front. The range-sized
/// histogram must report exactly what this one reports.
struct DenseHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl DenseHistogram {
    fn new() -> Self {
        DenseHistogram {
            counts: vec![0; 59 * 64],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn index_of(value: u64) -> usize {
        if value < 64 {
            return value as usize;
        }
        let magnitude = 63 - value.leading_zeros();
        let sub = (value >> (magnitude - 6)) - 64;
        (u64::from(magnitude - 5) * 64 + sub) as usize
    }

    fn value_of(idx: usize) -> u64 {
        let (bucket, sub) = (idx as u64 >> 6, idx as u64 & 63);
        if bucket == 0 {
            sub
        } else {
            (sub + 64) << (bucket - 1)
        }
    }

    fn record(&mut self, value: u64) {
        self.counts[Self::index_of(value)] += 1;
        self.total += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value_of(idx).min(self.max).max(self.min);
            }
        }
        self.max
    }

    fn merge(&mut self, other: &DenseHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.total,
            mean_ns: self.mean(),
            p50_ns: self.quantile(0.50),
            p99_ns: self.quantile(0.99),
            p999_ns: self.quantile(0.999),
            max_ns: self.max,
        }
    }
}

/// A histogram and its dense oracle fed the same samples.
struct HistPair {
    range: Histogram,
    dense: DenseHistogram,
}

impl HistPair {
    fn new() -> Self {
        HistPair {
            range: Histogram::new(),
            dense: DenseHistogram::new(),
        }
    }

    fn record(&mut self, v: u64) {
        self.range.record(v);
        self.dense.record(v);
    }

    fn merge(&mut self, other: &HistPair) {
        self.range.merge(&other.range);
        self.dense.merge(&other.dense);
    }

    fn clear(&mut self) {
        self.range.clear();
        self.dense.clear();
    }

    fn assert_same(&self, ctx: &str) {
        let (h, d) = (&self.range, &self.dense);
        assert_eq!(h.count(), d.total, "{ctx}: count");
        assert_eq!(h.mean().to_bits(), d.mean().to_bits(), "{ctx}: mean");
        assert_eq!(h.min(), d.min(), "{ctx}: min");
        assert_eq!(h.max(), d.max, "{ctx}: max");
        for q in [0.5, 0.99, 0.999, 0.0, 1.0] {
            assert_eq!(h.quantile(q), d.quantile(q), "{ctx}: quantile({q})");
        }
        assert_eq!(h.summary(), d.summary(), "{ctx}: summary");
    }
}

/// A sample whose highest set bit is `magnitude` (0 for magnitude 0 draws
/// 0 or 1), with random lower bits.
fn sample_at(rng: &mut SimRng, magnitude: u32) -> u64 {
    if magnitude == 0 {
        return rng.gen_below(2);
    }
    (1u64 << magnitude) | (rng.next_u64() & ((1u64 << magnitude) - 1))
}

/// A sample with a magnitude drawn from `lo..=hi`.
fn sample_in(rng: &mut SimRng, lo: u32, hi: u32) -> u64 {
    let magnitude = lo + rng.gen_below(u64::from(hi - lo) + 1) as u32;
    sample_at(rng, magnitude)
}

/// The range-sized histogram reports exactly what the dense histogram it
/// replaced reports — count, mean, min, max, p50/p99/p99.9/0/1 and the
/// summary — on seeded streams that hit both ends of `u64`, widen the range
/// upward then downward, merge disjoint and overlapping ranges (and empty
/// histograms) in both directions, and record again after `clear`.
#[test]
fn range_histogram_matches_dense_oracle() {
    let empty = HistPair::new();
    empty.assert_same("empty");
    let mut meta = SimRng::new(0x9157_000D);
    for case in 0..40 {
        let mut rng = SimRng::new(meta.next_u64());

        // Both ends of u64, around a random middle.
        let mut ends = HistPair::new();
        ends.record(sample_in(&mut rng, 10, 40));
        ends.record(u64::MAX);
        ends.assert_same(&format!("case {case}: u64::MAX"));
        ends.record(0);
        ends.assert_same(&format!("case {case}: 0 and u64::MAX"));

        // Growth upward one magnitude at a time, then downward.
        let start = 8 + rng.gen_below(40) as u32;
        let mut grow = HistPair::new();
        for m in start..64 {
            for _ in 0..1 + rng.gen_below(20) {
                grow.record(sample_at(&mut rng, m));
            }
            grow.assert_same(&format!("case {case}: up to magnitude {m}"));
        }
        for m in (0..start).rev() {
            for _ in 0..1 + rng.gen_below(20) {
                grow.record(sample_at(&mut rng, m));
            }
            grow.assert_same(&format!("case {case}: down to magnitude {m}"));
        }

        // Merges: disjoint ranges either way round, overlapping ranges,
        // and empty histograms on either side.
        let lo = rng.gen_below(20) as u32;
        let ranges = [
            ((lo, lo + 4), (lo + 20, lo + 30)),
            ((lo + 20, lo + 30), (lo, lo + 4)),
            ((lo, lo + 15), (lo + 10, lo + 25)),
            ((lo + 10, lo + 25), (lo, lo + 15)),
        ];
        for (i, ((alo, ahi), (blo, bhi))) in ranges.into_iter().enumerate() {
            let (mut a, mut b) = (HistPair::new(), HistPair::new());
            for _ in 0..1 + rng.gen_below(300) {
                a.record(sample_in(&mut rng, alo, ahi));
            }
            for _ in 0..1 + rng.gen_below(300) {
                b.record(sample_in(&mut rng, blo, bhi));
            }
            a.merge(&b);
            a.assert_same(&format!("case {case}: merge {i}"));
            a.merge(&HistPair::new());
            a.assert_same(&format!("case {case}: merge {i} with empty"));
            let mut into_empty = HistPair::new();
            into_empty.merge(&b);
            into_empty.assert_same(&format!("case {case}: merge {i} into empty"));
        }

        // Clear, then samples below, inside and above the old range.
        let mut cleared = HistPair::new();
        for _ in 0..1 + rng.gen_below(200) {
            cleared.record(sample_in(&mut rng, 20, 30));
        }
        cleared.clear();
        cleared.assert_same(&format!("case {case}: cleared"));
        for band in [(0, 10), (20, 30), (40, 63)] {
            for _ in 0..1 + rng.gen_below(100) {
                cleared.record(sample_in(&mut rng, band.0, band.1));
            }
            cleared.assert_same(&format!("case {case}: after clear, band {band:?}"));
        }
    }
}

/// A token bucket never goes negative and never exceeds its capacity,
/// under arbitrary interleavings of refills, deposits, and consumes.
#[test]
fn token_bucket_stays_in_bounds() {
    let mut rng = SimRng::new(0x9157_0002);
    for case in 0..200 {
        let mut tb = TokenBucket::with_rate(1e8, 1 << 20);
        let mut t = 0u64;
        let steps = 1 + rng.gen_below(199);
        for _ in 0..steps {
            let kind = rng.gen_below(3) as u8;
            let arg = 1 + rng.gen_below(99_999);
            match kind {
                0 => {
                    t += arg;
                    tb.refill(SimTime::from_nanos(t));
                }
                1 => {
                    let _ = tb.try_consume(arg);
                }
                _ => {
                    let overflow = tb.deposit(arg as f64);
                    assert!(overflow >= 0.0, "case {case}");
                }
            }
            assert!(tb.tokens() >= 0.0, "case {case}");
            assert!(tb.tokens() <= tb.capacity() + 1e-6, "case {case}");
        }
    }
}

/// The virtual-slot DRR conserves requests: everything enqueued is either
/// submitted or still queued, never duplicated or lost, under random
/// arrival/complete interleavings.
#[test]
fn drr_conserves_requests() {
    let mut rng = SimRng::new(0x9157_0003);
    for case in 0..150 {
        let mut s = VirtualSlotScheduler::new(Params::default());
        let mut next = 0u64;
        let mut enqueued = 0usize;
        let mut submitted = Vec::new();
        let mut completed = 0usize;
        let steps = 1 + rng.gen_below(299);
        for _ in 0..steps {
            let kind = rng.gen_below(4) as u8;
            let tenant = rng.gen_below(4) as u32;
            let sz = 1 + rng.gen_below(2) as u32;
            match kind {
                0 | 1 => {
                    let op = if kind == 0 {
                        IoType::Read
                    } else {
                        IoType::Write
                    };
                    s.on_arrival(req(next, tenant, op, sz * 4096), SimTime::ZERO);
                    next += 1;
                    enqueued += 1;
                }
                2 => {
                    if let SchedPoll::Submit(r) = s.dequeue(SimTime::ZERO, 3.0, |_| true) {
                        submitted.push(r.cmd.id);
                    }
                }
                _ => {
                    if let Some(id) = submitted.pop() {
                        s.on_completion(id, SimTime::ZERO);
                        completed += 1;
                    }
                }
            }
        }
        // Drain: everything left must come out exactly once.
        while let SchedPoll::Submit(r) = s.dequeue(SimTime::ZERO, 3.0, |_| true) {
            s.on_completion(r.cmd.id, SimTime::ZERO);
            completed += 1;
            if submitted.len() + completed > enqueued {
                break;
            }
        }
        // Complete all in-flight.
        for id in submitted.drain(..) {
            s.on_completion(id, SimTime::ZERO);
            completed += 1;
        }
        // Second drain after completions freed slots.
        while let SchedPoll::Submit(r) = s.dequeue(SimTime::ZERO, 3.0, |_| true) {
            s.on_completion(r.cmd.id, SimTime::ZERO);
            completed += 1;
        }
        assert_eq!(
            completed, enqueued,
            "case {case}: requests lost or duplicated"
        );
        assert_eq!(s.queued(), 0, "case {case}");
    }
}

/// FTL map/rmap stay mutually consistent under random writes and
/// invalidations, and free-block accounting never goes negative.
#[test]
fn ftl_mapping_consistency() {
    let mut rng = SimRng::new(0x9157_0004);
    for case in 0..50 {
        let cfg = SsdConfig {
            logical_capacity: 64 * 1024 * 1024,
            ..SsdConfig::default()
        };
        let mut ftl = Ftl::new(&cfg);
        let mut lpns = Vec::new();
        let dies = cfg.dies();
        let mut die = 0u32;
        let steps = 1 + rng.gen_below(399);
        for _ in 0..steps {
            let kind = rng.gen_below(2) as u8;
            let lpn = rng.gen_below(2048);
            match kind {
                0 => {
                    // Keep a couple of free blocks via opportunistic GC.
                    if ftl.free_blocks(die) <= cfg.gc_low_watermark {
                        if let Some(victim) = ftl.pick_victim(die) {
                            ftl.gc_work_into(victim, &mut lpns);
                            for &k in &lpns {
                                ftl.write_to_die(u64::from(k), die, true);
                            }
                            ftl.erase(victim);
                        }
                    }
                    let addr = ftl.write_to_die(lpn, die, false);
                    assert_eq!(ftl.translate(lpn), Some(addr), "case {case}");
                    die = (die + 1) % dies;
                }
                _ => {
                    ftl.invalidate(lpn);
                    assert!(ftl.translate(lpn).is_none(), "case {case}");
                }
            }
        }
        for d in 0..dies {
            assert!(ftl.free_blocks(d) <= cfg.blocks_per_die(), "case {case}");
        }
    }
}

/// Zipfian draws always land in range and the most popular rank really is
/// rank 0 for heavy skew.
#[test]
fn zipfian_bounds() {
    let mut meta = SimRng::new(0x9157_0005);
    for case in 0..40 {
        let items = 2 + meta.gen_below(49_998);
        let seed = meta.gen_below(1000);
        let z = Zipfian::new(items, 0.99);
        let mut rng = SimRng::new(seed);
        let mut zero = 0u64;
        let n = 2_000;
        for _ in 0..n {
            let k = z.next(&mut rng);
            assert!(k < items, "case {case}");
            if k == 0 {
                zero += 1;
            }
        }
        // Rank 0 gets at least its uniform share for any skewed keyspace.
        assert!(
            zero as f64 >= n as f64 / items as f64,
            "case {case}: items={items} zero={zero}"
        );
    }
}

fn wb_cache(lines: u64) -> SsdCache {
    SsdCache::new(
        SsdId(0),
        CacheConfig {
            capacity_bytes: lines * 4096,
            policy: AdmissionPolicy::Always,
            write_policy: WritePolicy::Back,
        },
    )
}

fn wb_write(id: u64, tenant: u32, lba: u64, lines: u32, wal: Option<u64>) -> NvmeCmd {
    NvmeCmd {
        id: CmdId(id),
        tenant: TenantId(tenant),
        ssd: SsdId(0),
        opcode: IoType::Write,
        lba,
        len: lines * 4096,
        priority: Priority::NORMAL,
        issued_at: SimTime::ZERO,
        wal,
    }
}

/// Dirty-set accounting: under arbitrary interleavings of DRAM acks,
/// pass-through writes, flush completions (some failing), power losses and
/// device death, every acked line is accounted for exactly once —
/// `acked_lines == flushed + superseded + lost + still-dirty` — and the
/// crash-consistency oracle's journal replay agrees with the surfaced
/// counters. This is the "no silent loss, no phantom loss" property driven
/// from random inputs rather than a scripted fault plan. Tenants own
/// disjoint LBA ranges, as they do in the testbed.
#[test]
fn write_back_dirty_set_accounting_is_exact() {
    let mut rng = SimRng::new(0x9157_0007);
    for case in 0..60 {
        let mut c = wb_cache(32);
        let mut inflight: Vec<u64> = Vec::new();
        let mut next_wal = [0u64; 3];
        let mut t_ns = 0u64;
        let steps = 50 + rng.gen_below(250);
        for i in 0..steps {
            t_ns += 1 + rng.gen_below(5_000);
            let now = SimTime::from_nanos(t_ns);
            match rng.gen_below(10) {
                // Mostly writes: DRAM ack with pass-through fallback.
                0..=5 => {
                    let tenant = rng.gen_below(3) as u32;
                    let lba = u64::from(tenant) * 1024 + rng.gen_below(24);
                    let span = 1 + rng.gen_below(3) as u32;
                    let wal = (rng.gen_below(3) == 0).then(|| {
                        next_wal[tenant as usize] += 1;
                        next_wal[tenant as usize]
                    });
                    let w = wb_write(i, tenant, lba, span, wal);
                    if !c.write_back_ack(&w, now) {
                        c.stage_write(&w, now);
                        c.on_write_completion(&w, rng.gen_below(8) == 0, now);
                    }
                }
                // Issue flushes.
                6 | 7 => inflight.extend(c.take_flushes(now).into_iter().map(|f| f.id)),
                // Complete an in-flight flush, sometimes failing it.
                8 => {
                    if let Some(id) = inflight.pop() {
                        c.on_flush_completion(id, rng.gen_below(5) == 0, now);
                    }
                }
                // Rarely, a crash.
                _ => {
                    if rng.gen_below(20) == 0 {
                        if rng.gen_below(2) == 0 {
                            c.power_loss(now);
                        } else {
                            c.on_device_death(now);
                        }
                        inflight.clear();
                    }
                }
            }
            let wb = c.write_back_stats();
            assert!(wb.conservation_holds(), "case {case} step {i}: {wb:?}");
        }
        // Replay the journal through the oracle: counters, surfaced losses
        // and the journal must tell the same story.
        check_journal(0, c.journal(), c.losses(), &c.write_back_stats());
    }
}

/// Partition capacity conservation: dirty lines are pinned, so no tenant's
/// dirty count may ever exceed its partition budget, and the global dirty
/// count equals the sum over tenants — after every single operation. All
/// tenants are registered up front (budgets rebalance on first touch, and a
/// shrink cannot evict pinned lines, so a stable tenant set is the regime
/// the invariant is strict in), and tenants own disjoint LBA ranges.
#[test]
fn write_back_partitions_never_overcommit() {
    let mut rng = SimRng::new(0x9157_0008);
    for case in 0..60 {
        let mut c = wb_cache(24);
        let mut inflight: Vec<u64> = Vec::new();
        let mut t_ns = 0u64;
        // Pin the tenant set before any line is dirtied.
        for t in 0..4u32 {
            c.stage_write(
                &wb_write(u64::from(t), t, u64::from(t) * 1024, 1, None),
                SimTime::ZERO,
            );
        }
        let steps = 50 + rng.gen_below(200);
        for i in 0..steps {
            t_ns += 1 + rng.gen_below(5_000);
            let now = SimTime::from_nanos(t_ns);
            match rng.gen_below(8) {
                0..=4 => {
                    let tenant = rng.gen_below(4) as u32;
                    let w = wb_write(
                        i + 4,
                        tenant,
                        u64::from(tenant) * 1024 + rng.gen_below(16),
                        1 + rng.gen_below(4) as u32,
                        None,
                    );
                    if !c.write_back_ack(&w, now) {
                        c.stage_write(&w, now);
                        c.on_write_completion(&w, false, now);
                    }
                }
                5 | 6 => inflight.extend(c.take_flushes(now).into_iter().map(|f| f.id)),
                _ => {
                    if let Some(id) = inflight.pop() {
                        c.on_flush_completion(id, rng.gen_below(6) == 0, now);
                    }
                }
            }
            let parts = c.tenant_dirty();
            for &(t, dirty, budget) in &parts {
                assert!(
                    dirty <= budget,
                    "case {case} step {i}: tenant {t:?} pinned {dirty} dirty lines \
                     over its budget of {budget}"
                );
            }
            let total: u64 = parts.iter().map(|&(_, d, _)| d).sum();
            assert_eq!(
                total,
                c.write_back_stats().dirty_lines,
                "case {case} step {i}: per-tenant dirty counts disagree with the total"
            );
        }
    }
}

/// Flush order respects WAL tags: with per-tenant monotone WAL sequence
/// numbers (as `gimbal-lsm-kv` issues them over the tenant's own LBA
/// range) and no flush failures, the flusher drains a tenant's WAL-tagged
/// lines in non-decreasing tag order.
#[test]
fn write_back_flush_order_respects_wal_tags() {
    let mut rng = SimRng::new(0x9157_0009);
    for case in 0..60 {
        let mut c = wb_cache(32);
        let mut next_wal = [0u64; 3];
        let mut last_flushed = [0u64; 3];
        let mut t_ns = 0u64;
        let steps = 50 + rng.gen_below(200);
        for i in 0..steps {
            t_ns += 1 + rng.gen_below(5_000);
            let now = SimTime::from_nanos(t_ns);
            // A burst of writes, WAL-tagged half the time.
            for b in 0..1 + rng.gen_below(4) {
                let tenant = rng.gen_below(3) as u32;
                let wal = (rng.gen_below(2) == 0).then(|| {
                    next_wal[tenant as usize] += 1;
                    next_wal[tenant as usize]
                });
                let lba = u64::from(tenant) * 1024 + rng.gen_below(24);
                let w = wb_write(i * 8 + b, tenant, lba, 1, wal);
                let _ = c.write_back_ack(&w, now);
            }
            // Drain and complete successfully — no requeue exemptions needed.
            for io in c.take_flushes(now) {
                if let Some(w) = io.wal {
                    let t = io.tenant.0 as usize;
                    assert!(
                        w >= last_flushed[t],
                        "case {case} step {i}: tenant {t} flushed WAL tag {w} after \
                         {}",
                        last_flushed[t]
                    );
                    last_flushed[t] = w;
                }
                c.on_flush_completion(io.id, false, now);
            }
        }
        check_journal(0, c.journal(), c.losses(), &c.write_back_stats());
    }
}

/// A journal field value: mostly the extremes and small steps either side
/// of the previous value, so deltas go up, down and wrap.
fn journal_u64(rng: &mut SimRng, prev: u64) -> u64 {
    match rng.gen_below(6) {
        0 => 0,
        1 => u64::MAX,
        2 => prev.wrapping_add(rng.gen_below(100)),
        3 => prev.wrapping_sub(rng.gen_below(100)),
        _ => rng.next_u64(),
    }
}

fn journal_event(rng: &mut SimRng, prev: &mut u64) -> DurabilityEvent {
    let mut next = |rng: &mut SimRng| {
        *prev = journal_u64(rng, *prev);
        *prev
    };
    let small = |rng: &mut SimRng| match rng.gen_below(3) {
        0 => 0,
        1 => u32::MAX,
        _ => rng.gen_below(64) as u32,
    };
    let (cmd, line, tenant, lines) = (next(rng), next(rng), TenantId(small(rng)), small(rng));
    let wal = match rng.gen_below(4) {
        0 => None,
        1 => Some(0),
        2 => Some(u64::MAX),
        _ => Some(next(rng)),
    };
    let at = SimTime::from_nanos(next(rng));
    match rng.gen_below(10) {
        0 => DurabilityEvent::Acked {
            cmd,
            tenant,
            lines,
            at,
        },
        1 => DurabilityEvent::Dirtied {
            line,
            tenant,
            wal,
            at,
        },
        2 => DurabilityEvent::FlushIssued {
            id: next(rng),
            line,
            tenant,
            wal,
            at,
        },
        3 => DurabilityEvent::Cleaned { line, tenant, at },
        4 => DurabilityEvent::Requeued {
            line,
            tenant,
            wal,
            at,
        },
        5 => DurabilityEvent::Superseded { line, tenant, at },
        6 => DurabilityEvent::Lost {
            line,
            tenant,
            wal,
            at,
        },
        7 => DurabilityEvent::PassThrough { cmd, tenant, at },
        8 => DurabilityEvent::PowerLoss { at },
        _ => DurabilityEvent::DeviceDeath { at },
    }
}

/// The durability journal's byte stream round-trips every event exactly:
/// all ten variants, ids, lines and instants at 0 and `u64::MAX` and going
/// backwards, WAL tags absent, 0 and `u64::MAX`, tenants and line counts at
/// `u32::MAX`. Distinct streams never encode to equal journals — a stream
/// with one event replaced, or one event fewer, always differs — so the
/// journal's byte equality is event equality.
#[test]
fn durability_journal_round_trips_every_event() {
    let mut rng = SimRng::new(0x9157_000a);
    let mut prev = 0;
    let mut variants = std::collections::BTreeSet::new();
    for case in 0..300 {
        let n = 1 + rng.gen_below(40) as usize;
        let events: Vec<DurabilityEvent> =
            (0..n).map(|_| journal_event(&mut rng, &mut prev)).collect();
        for e in &events {
            let name = format!("{e:?}");
            variants.insert(name.split([' ', '{']).next().unwrap_or_default().to_owned());
        }
        let j: DurabilityJournal = events.iter().copied().collect();
        assert_eq!(j.len(), events.len(), "case {case}");
        assert!(!j.is_empty(), "case {case}");
        assert_eq!(j.iter().collect::<Vec<_>>(), events, "case {case}");
        assert_eq!(j, events.iter().copied().collect(), "case {case}");

        let mut other = events.clone();
        let k = rng.gen_below(n as u64) as usize;
        other[k] = journal_event(&mut rng, &mut prev);
        let jo: DurabilityJournal = other.iter().copied().collect();
        assert_eq!(jo == j, other == events, "case {case}: replaced event {k}");
        let shorter: DurabilityJournal = events[..n - 1].iter().copied().collect();
        assert_ne!(shorter, j, "case {case}: a prefix encoded equal");
    }
    assert_eq!(variants.len(), 10, "variants covered: {variants:?}");
    assert!(DurabilityJournal::default().is_empty());
}

/// PCG is deterministic per seed and uniform-ish over small ranges.
#[test]
fn rng_gen_below_is_in_range() {
    let mut meta = SimRng::new(0x9157_0006);
    for case in 0..200 {
        let seed = meta.gen_below(10_000);
        let bound = 1 + meta.gen_below(999_999);
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..50 {
            let x = a.gen_below(bound);
            assert!(x < bound, "case {case}");
            assert_eq!(x, b.gen_below(bound), "case {case}");
        }
    }
}

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The binary-heap event queue the timer wheel replaced, kept as the
/// **equivalence oracle**: the wheel must reproduce this queue's exact
/// `(time, seq)` pop order on any push/pop stream. The oracle test drives
/// both from shared `SimRng` streams and asserts identical sequences.
struct HeapEventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    watermark: SimTime,
}

impl<E> HeapEventQueue<E> {
    /// Create an empty queue.
    fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            watermark: SimTime::ZERO,
        }
    }

    /// Schedule `event` to fire at instant `at` (same contract as
    /// [`EventQueue::push`]).
    fn push(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.watermark,
            "event scheduled at {at} before current time {}",
            self.watermark
        );
        let at = at.max(self.watermark);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Remove and return the earliest event, advancing the causality watermark.
    fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        self.watermark = entry.at;
        Some((entry.at, entry.event))
    }

    /// The instant of the earliest pending event, if any.
    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    fn len(&self) -> usize {
        self.heap.len()
    }

    /// The current simulation watermark (time of the last popped event).
    fn now(&self) -> SimTime {
        self.watermark
    }
}

/// Adversarial instants: due now, same-tick collisions with a recent push,
/// near and timeout-class futures, and times near `u64::MAX` whose pops
/// cascade down every wheel level.
fn adversarial_instant(rng: &mut SimRng, now: u64, recent: &[u64]) -> u64 {
    match rng.gen_below(6) {
        0 => now, // due immediately
        // same-tick collision with an earlier push
        1 if !recent.is_empty() => recent[rng.gen_below(recent.len() as u64) as usize],
        1 | 2 => now.saturating_add(1 + rng.gen_below(64)),
        3 => now.saturating_add(1 + rng.gen_below(1 << 18)),
        4 => now.saturating_add(1 + rng.gen_below(1 << 34)),
        // far future: pops from here cascade down every level
        _ => u64::MAX - rng.gen_below(1 << 10),
    }
}

/// Jumps past the watermark: same-tick (< 4 ns), near (< 1 µs), mid (< 1 s)
/// and far (a shifted full-range draw, saturating at `u64::MAX`).
fn jump_instant(rng: &mut SimRng, now: u64, _recent: &[u64]) -> u64 {
    let jump = match rng.gen_below(4) {
        0 => rng.gen_below(4),
        1 => rng.gen_below(1 << 10),
        2 => rng.gen_below(1 << 30),
        _ => rng.next_u64() >> rng.gen_below(8),
    };
    now.saturating_add(jump)
}

/// The hierarchical timer wheel is observationally identical to the
/// `BinaryHeap` oracle it replaced: driven from the same `SimRng` event
/// streams — same-tick collisions, pushes interleaved with pops, far-future
/// times near `u64::MAX` that force cascades through every wheel level —
/// both queues report the same `(time, payload)` pop sequence, the same
/// `peek_time`, and the same length at every step. This is the equivalence
/// that keeps every digest, journal, and trace bit-identical across the
/// queue swap.
#[test]
fn timer_wheel_matches_heap_oracle_on_adversarial_streams() {
    // The oracle itself keeps the queue contract: earliest first, FIFO
    // within an instant, watermark at the last pop.
    let mut q = HeapEventQueue::new();
    q.push(SimTime::from_micros(5), "later");
    q.push(SimTime::from_micros(1), "first");
    q.push(SimTime::from_micros(5), "even later");
    assert_eq!(q.peek_time(), Some(SimTime::from_micros(1)));
    assert_eq!(q.len(), 3);
    assert_eq!(q.pop(), Some((SimTime::from_micros(1), "first")));
    assert_eq!(q.pop(), Some((SimTime::from_micros(5), "later")));
    assert_eq!(q.pop(), Some((SimTime::from_micros(5), "even later")));
    assert_eq!(q.now(), SimTime::from_micros(5));
    assert_eq!(q.pop(), None);

    type Draw = fn(&mut SimRng, u64, &[u64]) -> u64;
    let shapes: [(&str, u64, Draw); 2] = [
        ("adversarial", 0x9157_000A, adversarial_instant),
        ("jumps", 0xA11CE, jump_instant),
    ];
    for (shape, seed, instant) in shapes {
        let mut meta = SimRng::new(seed);
        for case in 0..60 {
            let mut rng = SimRng::new(meta.next_u64());
            let mut wheel: EventQueue<u64> = EventQueue::new();
            let mut heap: HeapEventQueue<u64> = HeapEventQueue::new();
            let mut next_id = 0u64;
            // A short memory of recently scheduled instants so pushes can
            // collide on the exact same tick (FIFO order must survive).
            let mut recent: Vec<u64> = Vec::new();
            for step in 0..500 {
                if wheel.is_empty() || rng.gen_bool(0.55) {
                    let now = wheel.now().as_nanos();
                    let at = instant(&mut rng, now, &recent).max(now);
                    recent.push(at);
                    if recent.len() > 8 {
                        recent.remove(0);
                    }
                    wheel.push(SimTime::from_nanos(at), next_id);
                    heap.push(SimTime::from_nanos(at), next_id);
                    next_id += 1;
                } else {
                    let w = wheel.pop();
                    let h = heap.pop();
                    assert_eq!(w, h, "{shape} case {case} step {step}: pop diverged");
                    // Old instants below the new watermark can no longer
                    // collide; drop them so future pushes stay legal.
                    let now = wheel.now().as_nanos();
                    recent.retain(|&t| t >= now);
                }
                assert_eq!(wheel.len(), heap.len(), "{shape} case {case} step {step}");
                assert_eq!(
                    wheel.peek_time(),
                    heap.peek_time(),
                    "{shape} case {case} step {step}"
                );
            }
            // Drain: the full residual sequence must agree too.
            while let Some(w) = wheel.pop() {
                assert_eq!(Some(w), heap.pop(), "{shape} case {case} drain");
            }
            assert!(
                heap.pop().is_none(),
                "{shape} case {case}: heap had extra events"
            );
        }
    }
}

/// Arena recycling never leaks state across incarnations: a slot freed and
/// re-allocated hands back exactly the freshly supplied value (never the
/// previous occupant's), every stale handle — including double-free — is a
/// typed [`ArenaError::Stale`], and no two in-flight handles ever alias the
/// same slot.
#[test]
fn arena_recycling_never_leaks_state_across_incarnations() {
    let mut meta = SimRng::new(0x9157_000B);
    for case in 0..100 {
        let mut rng = SimRng::new(meta.next_u64());
        let mut arena: IoArena<(u64, u64)> = IoArena::new();
        // Live handles with the exact value each slot must still hold.
        let mut live: Vec<(gimbal_repro::sim::IoHandle, (u64, u64))> = Vec::new();
        let mut freed: Vec<gimbal_repro::sim::IoHandle> = Vec::new();
        let mut stamp = 0u64;
        for step in 0..400 {
            if live.is_empty() || rng.gen_bool(0.55) {
                let value = (stamp, rng.next_u64());
                stamp += 1;
                let h = arena.alloc(value);
                // Freshly allocated == recycled-then-reset: whatever lived
                // in this slot before, the read-back is the new value.
                assert_eq!(arena.get(h), Ok(&value), "case {case} step {step}");
                live.push((h, value));
            } else {
                let i = rng.gen_below(live.len() as u64) as usize;
                let (h, expect) = live.swap_remove(i);
                assert_eq!(
                    arena.free(h),
                    Ok(expect),
                    "case {case} step {step}: freed value drifted"
                );
                freed.push(h);
            }
            // Every stale handle stays a typed error, alloc churn or not.
            for &h in &freed {
                assert_eq!(arena.get(h), Err(ArenaError::Stale), "case {case}");
                assert_eq!(arena.free(h), Err(ArenaError::Stale), "case {case}");
            }
            // No ID aliasing while in flight: distinct live handles occupy
            // distinct slots, and each still reads back its own value.
            let mut slots: Vec<u32> = live.iter().map(|(h, _)| h.index()).collect();
            slots.sort_unstable();
            slots.dedup();
            assert_eq!(slots.len(), live.len(), "case {case}: slot aliasing");
            for (h, v) in &live {
                assert_eq!(arena.get(*h), Ok(v), "case {case}: live value leaked");
            }
            assert_eq!(arena.len(), live.len(), "case {case}");
        }
    }
}

/// Timer-wheel pops never go backwards and `pop_if_at` only ever takes the
/// event that an unconditional `pop` would have returned — so batch
/// coalescing (its only caller) cannot reorder the schedule.
#[test]
fn timer_wheel_pop_if_at_agrees_with_pop() {
    let mut meta = SimRng::new(0x9157_000C);
    for case in 0..60 {
        let mut rng = SimRng::new(meta.next_u64());
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut last = SimTime::ZERO;
        for id in 0..300u64 {
            let at = q.now().as_nanos().saturating_add(rng.gen_below(1 << 20));
            q.push(SimTime::from_nanos(at), id);
        }
        while let Some(head) = q.peek_time() {
            assert!(head >= last, "case {case}: time went backwards");
            // Conditional pop at the head's own instant, accepting even
            // ids only; declined heads must come out of plain pop intact.
            match q.pop_if_at(head, |id| id % 2 == 0) {
                Some(id) => {
                    assert_eq!(id % 2, 0, "case {case}: predicate ignored");
                    assert_eq!(q.now(), head, "case {case}: watermark skipped");
                }
                None => {
                    let (at, id) = q.pop().expect("peeked head exists");
                    assert_eq!(at, head, "case {case}");
                    assert_eq!(id % 2, 1, "case {case}: even id was declined");
                }
            }
            last = head;
            if rng.gen_bool(0.3) {
                let at = q.now().as_nanos().saturating_add(rng.gen_below(1 << 20));
                q.push(SimTime::from_nanos(at), 1_000_000 + rng.gen_below(1000));
            }
        }
    }
}

/// What the broker gate shows the outside, at every point it calls out:
/// each pull from the policy and each device submit, stamped with the
/// ledger's running denial and charge counters. Grants appear by id and in
/// order; denials are pinned between the observations that bracket them —
/// so two equal logs over identically configured ledgers mean the same
/// `try_charge` call sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum GateObs {
    Pull {
        denials: u64,
    },
    Submit {
        id: u64,
        at: SimTime,
        denials: u64,
        charged: u64,
    },
}

type GateLog = Rc<RefCell<Vec<GateObs>>>;

/// A device that never completes anything and logs every submit.
struct SubmitLog {
    ledger: BrokerHandle,
    log: GateLog,
    inflight: usize,
}

impl StorageDevice for SubmitLog {
    fn submit(&mut self, tag: u64, _op: IoType, _lba: u64, _len: u64, now: SimTime) {
        let st = self.ledger.stats();
        self.inflight += 1;
        self.log.borrow_mut().push(GateObs::Submit {
            id: tag,
            at: now,
            denials: st.denials,
            charged: st.charged_bytes,
        });
    }
    fn poll(&mut self, _now: SimTime) -> Vec<SsdCompletion> {
        Vec::new()
    }
    fn next_event_at(&self) -> Option<SimTime> {
        None
    }
    fn inflight(&self) -> usize {
        self.inflight
    }
}

/// A policy that releases whatever the test fed it, in order, logging
/// every pull.
struct ScriptedPolicy {
    feed: Rc<RefCell<VecDeque<Request>>>,
    ledger: BrokerHandle,
    log: GateLog,
}

impl SwitchPolicy for ScriptedPolicy {
    fn on_arrival(&mut self, req: Request, _now: SimTime) {
        self.feed.borrow_mut().push_back(req);
    }
    fn next_submission(&mut self, _now: SimTime, _device_inflight: usize) -> PolicyPoll {
        let denials = self.ledger.stats().denials;
        self.log.borrow_mut().push(GateObs::Pull { denials });
        match self.feed.borrow_mut().pop_front() {
            Some(req) => PolicyPoll::Submit(req),
            None => PolicyPoll::Idle,
        }
    }
    fn on_completion(&mut self, _info: &CompletionInfo, _now: SimTime) {}
    fn queued(&self) -> usize {
        self.feed.borrow().len()
    }
    fn name(&self) -> &'static str {
        "scripted"
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// The broker gate as `Pipeline::poll` ran it before the per-tenant park
/// lanes: one global park `Vec` in denial order, moved out and rescanned
/// whole on every poll, with a per-round list of denied tenants. Kept here
/// — and only here — as the reference the lanes must be order-equivalent to.
struct GlobalScanPark {
    ledger: Broker,
    parked: Vec<Request>,
    submitted: usize,
    wake: Option<SimTime>,
    log: Vec<GateObs>,
}

impl GlobalScanPark {
    fn gate(&mut self, req: Request, denied: &mut Vec<TenantId>, now: SimTime) {
        if denied.contains(&req.cmd.tenant) {
            self.parked.push(req);
            return;
        }
        let (tenant, bytes) = (req.cmd.tenant, req.cmd.len_bytes());
        let flush = is_flush_id(req.cmd.id.0);
        match self.ledger.try_charge(SsdId(0), tenant, bytes, flush, now) {
            Charge::Granted => {
                let st = self.ledger.stats();
                self.submitted += 1;
                self.log.push(GateObs::Submit {
                    id: req.cmd.id.0,
                    at: now,
                    denials: st.denials,
                    charged: st.charged_bytes,
                });
            }
            Charge::Denied { retry_at } => {
                denied.push(tenant);
                let at = retry_at.max(now + SimDuration::from_nanos(1));
                self.wake = Some(self.wake.map_or(at, |w| w.min(at)));
                self.parked.push(req);
            }
        }
    }

    fn poll(&mut self, fresh: &[Request], now: SimTime) {
        self.wake = None;
        let mut denied = Vec::new();
        for req in std::mem::take(&mut self.parked) {
            self.gate(req, &mut denied, now);
        }
        for &req in fresh {
            let denials = self.ledger.stats().denials;
            self.log.push(GateObs::Pull { denials });
            self.gate(req, &mut denied, now);
        }
        let denials = self.ledger.stats().denials;
        self.log.push(GateObs::Pull { denials });
    }
}

/// The per-tenant park lanes behind `Pipeline`'s broker gate are
/// order-equivalent to the global park scan they replaced: driven with the
/// same seeded streams — interleaved tenants, mixed sizes, flush-tagged
/// ids, refills that grant a tenant mid-queue, settlements (with
/// departures) between polls — against identically configured ledgers,
/// both make the same `try_charge` calls in the same order, submit to the
/// device in the same order, wake at the same instant, hold the same
/// number of requests, and leave the same `BrokerStats` and balances.
#[test]
fn park_lanes_match_global_scan_reference_on_adversarial_streams() {
    const SIZES: [u32; 4] = [4096, 16 * 1024, 64 * 1024, 128 * 1024];
    let mut meta = SimRng::new(0x9157_000D);
    let mut seen = BrokerStats::default();
    let mut deepest_park = 0;
    for case in 0..60 {
        let mut rng = SimRng::new(meta.next_u64());
        let tenants = 2 + rng.gen_below(5) as u32;
        let bcfg = BrokerConfig {
            mode: if rng.gen_bool(0.25) {
                BrokerMode::Strict
            } else {
                BrokerMode::Borrow
            },
            capacity_bps: (20 + rng.gen_below(400)) * 1024 * 1024,
            burst_bytes: (128 << rng.gen_below(4)) * 1024,
            epoch: SimDuration::from_millis(1),
            ..BrokerConfig::default()
        };
        let ledger = BrokerHandle::new(bcfg.clone(), TraceHandle::disabled());
        let log: GateLog = Rc::default();
        let feed: Rc<RefCell<VecDeque<Request>>> = Rc::default();
        let mut lanes = Pipeline::new(
            SsdId(0),
            SubmitLog {
                ledger: ledger.clone(),
                log: Rc::clone(&log),
                inflight: 0,
            },
            Box::new(ScriptedPolicy {
                feed: Rc::clone(&feed),
                ledger: ledger.clone(),
                log: Rc::clone(&log),
            }),
            PipelineConfig {
                cpu_cost: CpuCost::arm_vanilla(),
                null_device: true,
                cache: None,
                broker: Some(ledger.clone()),
            },
        );
        let mut scan = GlobalScanPark {
            ledger: Broker::new(bcfg, TraceHandle::disabled()),
            parked: Vec::new(),
            submitted: 0,
            wake: None,
            log: Vec::new(),
        };
        let mut now = SimTime::ZERO;
        let mut next_id = 0u64;
        for step in 0..120 {
            // Advance: a short hop, or exactly to the armed wake.
            now = match scan.wake {
                Some(w) if rng.gen_bool(0.4) => w,
                _ => now + SimDuration::from_nanos(1 + rng.gen_below(200_000)),
            };
            if step % 16 == 15 {
                // Settlement between polls; sometimes a tenant has left.
                let gone = rng.gen_below(u64::from(tenants) * 2) as u32;
                let stay: Vec<TenantId> =
                    (0..tenants).filter(|&t| t != gone).map(TenantId).collect();
                let active = [(SsdId(0), stay)];
                ledger.settle_epoch(now, &active);
                ledger.end_epoch();
                scan.ledger.settle_epoch(now, &active);
                scan.ledger.end_epoch();
            }
            let fresh: Vec<Request> = (0..rng.gen_below(7))
                .map(|_| {
                    let flush = rng.gen_bool(0.1);
                    let id = next_id | if flush { FLUSH_ID_BASE } else { 0 };
                    next_id += 1;
                    let len = SIZES[rng.gen_below(4) as usize];
                    let tenant = rng.gen_below(u64::from(tenants)) as u32;
                    req(id, tenant, IoType::Write, len)
                })
                .collect();
            feed.borrow_mut().extend(fresh.iter().copied());
            lanes.poll(now);
            scan.poll(&fresh, now);

            let at = format!("case {case} step {step}");
            assert_eq!(*log.borrow(), scan.log, "{at}: gate call sequence");
            log.borrow_mut().clear();
            scan.log.clear();
            assert_eq!(lanes.next_event_at(), scan.wake, "{at}: wake");
            assert_eq!(
                lanes.in_progress(),
                scan.submitted + scan.parked.len(),
                "{at}: in_progress"
            );
            assert_eq!(ledger.stats(), scan.ledger.stats(), "{at}: BrokerStats");
            for t in (0..tenants).map(TenantId) {
                assert_eq!(
                    ledger.balance(SsdId(0), t),
                    scan.ledger.balance(SsdId(0), t),
                    "{at}: balance of tenant {}",
                    t.0
                );
            }
            deepest_park = deepest_park.max(scan.parked.len());
        }
        let st = ledger.stats();
        seen.denials += st.denials;
        seen.borrow_events += st.borrow_events;
        seen.forgiven += st.forgiven;
        seen.flush_charged_bytes += st.flush_charged_bytes;
    }
    // The streams really were adversarial.
    assert!(seen.denials > 1000, "only {} denials", seen.denials);
    assert!(
        seen.borrow_events > 100,
        "only {} borrows",
        seen.borrow_events
    );
    assert!(seen.forgiven > 0, "no departure ever forgave a debt");
    assert!(
        seen.flush_charged_bytes > 0,
        "no flush-tagged id was charged"
    );
    assert!(deepest_park >= 20, "parks stayed shallow: {deepest_park}");
}
