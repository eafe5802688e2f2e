//! Layer drivers: for everything a pipeline does not own, replay the op
//! stream the workload puts on the layer through the layer's public
//! functions and time batches of 1 024 calls per `Instant` pair.
//!
//! On the `Testbed` workloads the stream is the one the wrapped node's log
//! pass wrote down (`wrapped::Log`): same specs, seed, populations, order
//! and simulated instants. Where the layer keeps counters of its own, the
//! replay's are checked against the wrapped run's and a driver that did not
//! reproduce them is refused. `KvTestbed` and `RackTestbed` have no wrapped
//! node; their drivers run the workload's own generators and say so.

use crate::timing::{batched, best_of, Timed, Timer, BATCH};
use crate::wrapped::{Log, Rec, EVENT_BYTES};
use gimbal_blobstore::{BackendId, Blobstore, HbaConfig, HierarchicalAllocator, RateLimiter};
use gimbal_broker::{Broker, BrokerConfig, BrokerStats, Charge};
use gimbal_cache::{is_flush_id, CacheConfig, SsdCache};
use gimbal_cores::{CoreScheduler, CoresStats, StealConfig};
use gimbal_fabric::{
    IoType, Port, RdmaDelays, SsdId, TenantId, TorSwitch, CMD_CAPSULE_BYTES, RSP_CAPSULE_BYTES,
};
use gimbal_lsm_kv::{IoCtx, LsmKv};
use gimbal_nic::{Core, CpuCost};
use gimbal_sim::{DetMap, EventQueue, Histogram, IoArena, SimDuration, SimRng, SimTime};
use gimbal_telemetry::{Event, TraceConfig, TraceHandle, Tracer};
use gimbal_testbed::{TestbedConfig, WorkerSpec};
use gimbal_workload::{FioStream, KvOp, YcsbWorkload};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Batches per generated driver: 128 × 1 024 = 131 072 calls, above the
/// 100 000-call floor under which a `_ns` metric is refused.
const BATCHES: u64 = 128;

fn at(ns: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_nanos(ns)
}

/// Time `f` over `items`, one `Instant` pair per [`BATCH`] items, net of the
/// timer's own cost. The result's `calls` is `units`: what one reported
/// call is made of (an IO's pop and push, say) rather than the item count.
fn replay<T>(timer: &Timer, items: &[T], units: u64, mut f: impl FnMut(&T)) -> Timed {
    let mut total_ns = 0.0;
    for chunk in items.chunks(BATCH as usize) {
        let t0 = Instant::now();
        for item in chunk {
            f(item);
        }
        total_ns += t0.elapsed().as_nanos() as f64 - timer.overhead_ns;
    }
    Timed {
        total_ns,
        calls: units,
    }
}

/// `sim.queue_hold_ns`: the pushes and pops the wrapped loop made, with the
/// same distances and the same payload size; per pop and the pushes it led
/// to.
pub fn queue_hold(t: &Timer, log: &Log) -> Timed {
    let mut q: EventQueue<[u8; EVENT_BYTES]> = EventQueue::new();
    replay(t, &log.queue_ops, log.queue_pops, |&op| {
        if op == 0 {
            black_box(q.pop());
        } else {
            q.push(q.now() + SimDuration::from_nanos(op >> 1), [0; EVENT_BYTES]);
        }
    })
}

/// A command's life as an engine's in-flight index sees it.
#[derive(Clone, Copy)]
enum Life {
    Issue(u32),
    Deliver(u32),
    Done(u32),
}

fn lives(log: &Log) -> (Vec<Life>, u64) {
    let lives: Vec<Life> = log
        .recs
        .iter()
        .filter_map(|r| match *r {
            Rec::Issue { id } => Some(Life::Issue(id)),
            Rec::Deliver { id, .. } => Some(Life::Deliver(id)),
            Rec::Cpl { id, .. } => Some(Life::Done(id)),
            _ => None,
        })
        .collect();
    let done = lives.iter().filter(|l| matches!(l, Life::Done(_))).count();
    (lives, done as u64)
}

/// `sim.detmap_cycle_ns`: insert at issue, get at delivery, remove at
/// completion, keyed by command id in the workload's own order — how the
/// engines index in-flight commands.
pub fn detmap_cycle(t: &Timer, log: &Log) -> Timed {
    let (lives, done) = lives(log);
    let mut m: DetMap<u64, u64> = DetMap::new();
    replay(t, &lives, done, |l| match *l {
        Life::Issue(id) => {
            m.insert(u64::from(id), u64::from(id));
        }
        Life::Deliver(id) => {
            black_box(m.get(&u64::from(id)));
        }
        Life::Done(id) => {
            black_box(m.remove(&u64::from(id)));
        }
    })
}

/// `sim.arena_cycle_ns`: alloc at issue, get_mut at delivery, free at
/// completion, in the workload's own order. No `Testbed` workload here arms
/// faults, so the engine itself makes none of these calls (the ledger
/// counts them zero times); the rack engine does, per physical command.
pub fn arena_cycle(t: &Timer, log: &Log) -> Timed {
    let (lives, done) = lives(log);
    let mut arena: IoArena<[u64; 8]> = IoArena::new();
    let mut handles = vec![None; log.cmds.len()];
    replay(t, &lives, done, |l| match *l {
        Life::Issue(id) => handles[id as usize] = Some(arena.alloc([u64::from(id); 8])),
        Life::Deliver(id) => {
            let h = handles[id as usize].expect("issued before delivered");
            arena.get_mut(h).expect("live handle")[0] += 1;
        }
        Life::Done(id) => {
            let h = handles[id as usize].take().expect("issued before done");
            black_box(arena.free(h).expect("live handle"));
        }
    })
}

/// `sim.hist_record_ns`: the device latency of every IO the SSD served and
/// the end-to-end latency of every completion, into per-SSD and per-client
/// histograms as the engine keeps them.
pub fn hist_record(t: &Timer, log: &Log, clients: usize, ssds: usize) -> Timed {
    let mut samples: Vec<(u32, u64)> = Vec::new();
    for r in &log.recs {
        match *r {
            Rec::Out {
                id,
                cached: false,
                device_latency_ns,
            } => {
                let c = &log.cmds[id as usize];
                samples.push((c.ssd.0 * 2 + c.opcode.index() as u32, device_latency_ns));
            }
            Rec::Cpl { id, now } => {
                let c = &log.cmds[id as usize];
                let slot = (ssds as u32 + c.tenant.0) * 2 + c.opcode.index() as u32;
                samples.push((slot, now.since(c.issued_at).as_nanos()));
            }
            _ => {}
        }
    }
    let mut hists: Vec<Histogram> = (0..(ssds + clients) * 2)
        .map(|_| Histogram::new())
        .collect();
    let timed = replay(t, &samples, samples.len() as u64, |&(slot, v)| {
        hists[slot as usize].record(v);
    });
    black_box(hists.iter().map(Histogram::count).sum::<u64>());
    timed
}

/// `fabric.capsule_pair_ns`: every command capsule (and write payload
/// fetch) out over its client's port, every completion capsule back over
/// its SSD's target port; per IO.
pub fn capsule_pair(
    t: &Timer,
    log: &Log,
    delays: &RdmaDelays,
    clients: usize,
    ssds: usize,
) -> Timed {
    let hops: Vec<(bool, u32)> = log
        .recs
        .iter()
        .filter_map(|r| match *r {
            Rec::Issue { id } => Some((false, id)),
            Rec::Out { id, .. } => Some((true, id)),
            _ => None,
        })
        .collect();
    let ios = hops.iter().filter(|h| h.0).count() as u64;
    let bw = delays.config().port_bandwidth;
    let mut tx: Vec<Port> = (0..clients).map(|_| Port::new(bw)).collect();
    let mut target: Vec<Port> = (0..ssds).map(|_| Port::new(bw)).collect();
    replay(t, &hops, ios, |&(back, id)| {
        let cmd = &log.cmds[id as usize];
        if back {
            let cpl = log.cpls[id as usize].expect("a logged output has its capsule");
            let port = &mut target[cmd.ssd.0 as usize];
            black_box(delays.completion_arrival(port, cpl.completed_at, cmd));
        } else {
            let port = &mut tx[cmd.tenant.0 as usize];
            let mut arrive = delays.command_arrival(port, cmd.issued_at, cmd);
            if cmd.opcode.is_write() {
                arrive = delays.write_payload_fetched(port, arrive, cmd);
            }
            black_box(arrive);
        }
    })
}

/// `nic.process_ns`: the submit-path charge of every arrival and the
/// completion-path charge of every device completion and DRAM hit, at their
/// simulated instants, on one core per SSD.
pub fn nic_process(t: &Timer, log: &Log, cost: CpuCost, ssds: usize) -> Timed {
    let mut charges: Vec<(u32, SimTime, f64)> = Vec::new();
    for r in &log.recs {
        match *r {
            Rec::Deliver { id, now } => {
                let c = &log.cmds[id as usize];
                charges.push((c.ssd.0, now, cost.submit_cycles(c.len_bytes(), false)));
            }
            Rec::DevComplete {
                ssd, id, len, at, ..
            } if !is_flush_id(id) => {
                charges.push((ssd, at, cost.complete_cycles(u64::from(len), false)));
            }
            Rec::Out {
                id, cached: true, ..
            } => {
                let c = &log.cmds[id as usize];
                let done = log.cpls[id as usize].expect("logged output").completed_at;
                charges.push((c.ssd.0, done, cost.complete_cycles(c.len_bytes(), false)));
            }
            _ => {}
        }
    }
    let mut cores: Vec<Core> = (0..ssds).map(|_| Core::new()).collect();
    replay(t, &charges, charges.len() as u64, |&(ssd, now, cycles)| {
        black_box(cores[ssd as usize].process(now, cycles));
    })
}

/// `gimbal.credit_client_ns`: Algorithm 3's client gate as the loop drove
/// it — every `can_submit`, `on_submit` and credit-carrying
/// `on_completion`; per IO.
pub fn credit_client(t: &Timer, log: &Log, cfg: &TestbedConfig, clients: usize) -> Timed {
    let steps: Vec<&Rec> = log
        .recs
        .iter()
        .filter(|r| matches!(r, Rec::Gate { .. } | Rec::Issue { .. } | Rec::Cpl { .. }))
        .collect();
    let ios = steps
        .iter()
        .filter(|r| matches!(r, Rec::Cpl { .. }))
        .count();
    let mut gates: Vec<_> = (0..clients).map(|_| cfg.scheme.make_client()).collect();
    replay(t, &steps, ios as u64, |r| match **r {
        Rec::Gate {
            client,
            outstanding,
            now,
        } => {
            black_box(gates[client as usize].can_submit(outstanding, now));
        }
        Rec::Issue { id } => {
            let c = &log.cmds[id as usize];
            gates[c.tenant.0 as usize].on_submit(c.issued_at);
        }
        Rec::Cpl { id, now } => {
            let cpl = log.cpls[id as usize].expect("a delivered capsule was logged");
            gates[cpl.tenant.0 as usize].on_completion(&cpl, now);
        }
        _ => {}
    })
}

/// `workload.fio_next_ns`: the issue path's rate gate and next IO, from
/// streams forked as the engine forks them. Refused if a replayed stream
/// draws anything but the command the wrapped run issued.
pub fn fio_next(t: &Timer, log: &Log, cfg: &TestbedConfig, workers: &[WorkerSpec]) -> Timed {
    let draws: Vec<&Rec> = log
        .recs
        .iter()
        .filter(|r| matches!(r, Rec::Issue { .. } | Rec::RateDenied { .. }))
        .collect();
    let mut root = SimRng::new(cfg.seed);
    for _ in 0..cfg.num_ssds {
        root.next_u64();
    }
    let mut streams: Vec<FioStream> = workers
        .iter()
        .enumerate()
        .map(|(i, w)| FioStream::new(w.fio, root.fork(i as u64)))
        .collect();
    let mut same = true;
    let timed = replay(t, &draws, log.cmds.len() as u64, |r| match **r {
        Rec::Issue { id } => {
            let c = &log.cmds[id as usize];
            let s = &mut streams[c.tenant.0 as usize];
            let _ = black_box(s.rate_gate(c.issued_at));
            let io = s.next_io(c.issued_at);
            same &= io.lba == c.lba && io.op == c.opcode;
        }
        Rec::RateDenied { client, now } => {
            let _ = black_box(streams[client as usize].rate_gate(now));
        }
        _ => {}
    });
    refuse_unless(same, timed)
}

fn refuse_unless(ok: bool, timed: Timed) -> Timed {
    if ok {
        timed
    } else {
        Timed::default()
    }
}

/// `cores.begin_end_ns`: every scheduler bracket of the wrapped loop on a
/// fresh scheduler, the core charged what the pipeline charged inside it,
/// homes rebalanced at the same boundaries. Refused unless the replay
/// steals within 5 % of what the wrapped run's scheduler did.
pub fn cores_begin_end(
    t: &Timer,
    log: &Log,
    cores: usize,
    ssds: usize,
    steal: StealConfig,
    wrapped: &CoresStats,
) -> Timed {
    let steps: Vec<&Rec> = log
        .recs
        .iter()
        .filter(|r| matches!(r, Rec::Quantum { .. } | Rec::Rebalance { .. }))
        .collect();
    let quanta = steps
        .iter()
        .filter(|r| matches!(r, Rec::Quantum { .. }))
        .count();
    let mut sched = CoreScheduler::new(cores, ssds, Some(steal), TraceHandle::disabled());
    let timed = replay(t, &steps, quanta as u64, |r| match **r {
        Rec::Quantum { ssd, used_ns, now } => {
            let q = sched.begin(ssd as usize, now);
            black_box(sched.drain_journal());
            if used_ns > 0 {
                let cycles = f64::from(used_ns) * gimbal_nic::CYCLES_PER_US / 1e3;
                sched.core_rc(q.core()).borrow_mut().process(now, cycles);
            }
            sched.end(ssd as usize, q);
        }
        Rec::Rebalance { now } => {
            sched.rebalance(now);
            sched.drain_journal();
        }
        _ => {}
    });
    let (got, want) = (sched.stats().steals as f64, wrapped.steals as f64);
    refuse_unless((got - want).abs() <= 0.05 * want.max(1.0), timed)
}

pub struct BrokerTimes {
    pub try_charge: Timed,
    pub settle_epoch: Timed,
}

/// One `try_charge` the pipelines made, or a settlement boundary.
#[derive(Clone, Copy)]
enum Ledger {
    Charge {
        ssd: u32,
        tenant: u32,
        bytes: u32,
        flush: bool,
        now: SimTime,
    },
    Settle(SimTime),
}

/// A fresh ledger and every `try_charge` call made on it so far.
struct Mirror {
    broker: Broker,
    calls: Vec<Ledger>,
}

/// A request a policy released: `(tenant, bytes, flush)`.
type Released = (u32, u32, bool);

impl Mirror {
    /// `Pipeline::broker_gate` and what `poll` does with its verdict: a
    /// tenant already denied in this poll round queues without a charge; a
    /// denial parks the request and marks the tenant.
    fn gate(
        &mut self,
        ssd: u32,
        req: Released,
        now: SimTime,
        denied: &mut Vec<u32>,
        parked: &mut Vec<Released>,
    ) {
        let (tenant, bytes, flush) = req;
        if denied.contains(&tenant) {
            parked.push(req);
            return;
        }
        self.calls.push(Ledger::Charge {
            ssd,
            tenant,
            bytes,
            flush,
            now,
        });
        let verdict =
            self.broker
                .try_charge(SsdId(ssd), TenantId(tenant), u64::from(bytes), flush, now);
        if let Charge::Denied { .. } = verdict {
            denied.push(tenant);
            parked.push(req);
        }
    }
}

/// The pipelines' broker gate, mirrored per SSD over the requests their
/// policies released: every `try_charge` call they made, grants and
/// denials, in order, and the ledger's counters afterwards.
fn ledger_calls(
    log: &Log,
    cfg: &BrokerConfig,
    active: &[(SsdId, Vec<TenantId>)],
) -> (Vec<Ledger>, BrokerStats) {
    let ssds = active.len();
    let mut m = Mirror {
        broker: Broker::new(cfg.clone(), TraceHandle::disabled()),
        calls: Vec::new(),
    };
    let mut parked: Vec<Vec<Released>> = vec![Vec::new(); ssds];
    let mut denied: Vec<Vec<u32>> = vec![Vec::new(); ssds];
    let mut poll_now = vec![SimTime::ZERO; ssds];
    for r in &log.recs {
        match *r {
            Rec::Poll { ssd, now } => {
                let s = ssd as usize;
                poll_now[s] = now;
                denied[s].clear();
                for req in std::mem::take(&mut parked[s]) {
                    m.gate(ssd, req, now, &mut denied[s], &mut parked[s]);
                }
            }
            Rec::PolicySubmit {
                ssd,
                tenant,
                bytes,
                flush,
            } => {
                let s = ssd as usize;
                let req = (tenant, bytes, flush);
                m.gate(ssd, req, poll_now[s], &mut denied[s], &mut parked[s]);
            }
            Rec::Epoch { now } => {
                m.broker.settle_epoch(now, active);
                m.broker.end_epoch();
                m.broker.drain_journal();
                m.calls.push(Ledger::Settle(now));
            }
            _ => {}
        }
    }
    let stats = m.broker.stats();
    (m.calls, stats)
}

/// `broker.*_ns`: every `try_charge` the wrapped pipelines made — grants,
/// borrows and denials, found by mirroring their gate over the requests the
/// policies released — on a fresh ledger settled at the same boundaries.
/// Refused unless the mirror's ledger ends with the wrapped run's counters.
///
/// A run settles a few dozen times, far under the 100 000-call floor, so
/// `settle_epoch` is timed one call at a time in a second loop: the next
/// 16 of the workload's charges, then a settlement.
pub fn broker_paths(
    t: &Timer,
    log: &Log,
    cfg: &BrokerConfig,
    active: &[(SsdId, Vec<TenantId>)],
    wrapped: &BrokerStats,
) -> BrokerTimes {
    let (calls, mirrored) = ledger_calls(log, cfg, active);
    if mirrored != *wrapped {
        return BrokerTimes {
            try_charge: Timed::default(),
            settle_epoch: Timed::default(),
        };
    }
    let charge = |b: &mut Broker, c: &Ledger, shift: SimDuration| {
        if let Ledger::Charge {
            ssd,
            tenant,
            bytes,
            flush,
            now,
        } = *c
        {
            let now = now + shift;
            black_box(b.try_charge(SsdId(ssd), TenantId(tenant), u64::from(bytes), flush, now));
        }
    };
    let mut b = Broker::new(cfg.clone(), TraceHandle::disabled());
    let mut try_charge = Timed::default();
    let mut i = 0;
    while i < calls.len() {
        if let Ledger::Settle(now) = calls[i] {
            b.settle_epoch(now, active);
            b.end_epoch();
            b.drain_journal();
            i += 1;
            continue;
        }
        let run = calls[i..]
            .iter()
            .position(|c| matches!(c, Ledger::Settle(_)))
            .map_or(calls.len(), |p| i + p);
        let part = replay(t, &calls[i..run], (run - i) as u64, |c| {
            charge(&mut b, c, SimDuration::ZERO)
        });
        try_charge.total_ns += part.total_ns;
        try_charge.calls += part.calls;
        i = run;
    }

    let charges: Vec<&Ledger> = calls
        .iter()
        .filter(|c| matches!(c, Ledger::Charge { .. }))
        .collect();
    let mut settle_epoch = Timed::default();
    if !charges.is_empty() {
        let mut b = Broker::new(cfg.clone(), TraceHandle::disabled());
        // Cycle through the charges; each lap starts where the last ended.
        let lap = charges
            .last()
            .map_or(SimDuration::ZERO, |c| c.at().since(SimTime::ZERO));
        let mut next = 0usize;
        for _ in 0..crate::spec::MIN_TIMED_CALLS {
            let mut now = SimTime::ZERO;
            for _ in 0..16 {
                let shift = SimDuration::from_nanos(lap.as_nanos() * (next / charges.len()) as u64);
                let c = charges[next % charges.len()];
                charge(&mut b, c, shift);
                now = c.at() + shift;
                next += 1;
            }
            let t0 = Instant::now();
            b.settle_epoch(now, active);
            settle_epoch.total_ns += t0.elapsed().as_nanos() as f64 - t.overhead_ns;
            settle_epoch.calls += 1;
            b.end_epoch();
            b.drain_journal();
        }
        b.audit();
    }
    BrokerTimes {
        try_charge,
        settle_epoch,
    }
}

impl Ledger {
    fn at(&self) -> SimTime {
        match *self {
            Ledger::Charge { now, .. } | Ledger::Settle(now) => now,
        }
    }
}

pub struct CacheTimes {
    pub read_hit: Timed,
    pub miss_fill: Timed,
    pub write_ack_flush: Timed,
    /// Hits, misses and DRAM-acknowledged writes of the replayed caches, to
    /// compare with the wrapped pipelines' own.
    pub counters: [u64; 3],
}

/// One call into a cache, timed on its own: the paths interleave, so a
/// batch cannot be told apart.
fn timed_call<R>(t: &Timer, into: &mut Timed, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = f();
    into.total_ns += t0.elapsed().as_nanos() as f64 - t.overhead_ns;
    r
}

/// `cache.*_ns`: every command the wrapped pipelines took, through one
/// fresh `SsdCache` per SSD the way `Pipeline` drives its own — lookup or
/// ack when the submit-path CPU charge is done, fill or write completion
/// when the device completed the command, the flusher's due lines taken at
/// every poll and completed when the device completed a flusher write.
///
/// * `read_hit`: a lookup that hit, per hit.
/// * `miss_fill`: a lookup that missed plus the fill its device completion
///   triggers, per miss.
/// * `write_ack_flush`: everything the write side costs — ack or staging,
///   write completions, `take_flushes` at every poll, flush completions —
///   per client write.
///
/// All three are refused unless the replayed caches hit, miss and
/// acknowledge writes within 1 % of the wrapped pipelines' own counters.
pub fn cache_paths(
    t: &Timer,
    log: &Log,
    cfg: &CacheConfig,
    cost: CpuCost,
    ssds: usize,
    wrapped: [u64; 3],
) -> CacheTimes {
    let mut caches: Vec<SsdCache> = (0..ssds)
        .map(|i| SsdCache::new(SsdId(i as u32), cfg.clone()))
        .collect();
    // The submit-path charge decides when a delivered command reaches the
    // cache; a private core per SSD stands for it.
    let mut cores: Vec<Core> = (0..ssds).map(|_| Core::new()).collect();
    let mut ready: Vec<VecDeque<(SimTime, u32)>> = vec![VecDeque::new(); ssds];
    // Commands the *replayed* cache sent on to the device: only their
    // device completions concern it.
    let mut at_device = vec![false; log.cmds.len()];
    let mut flushing: Vec<VecDeque<u64>> = vec![VecDeque::new(); ssds];
    // A poll takes the flusher's due lines after the device completions it
    // drained, which the log lists behind the poll itself.
    let mut polling: Vec<Option<SimTime>> = vec![None; ssds];
    let (mut read_hit, mut miss_fill, mut write) =
        (Timed::default(), Timed::default(), Timed::default());
    for r in &log.recs {
        match *r {
            Rec::Deliver { id, now } => {
                let c = &log.cmds[id as usize];
                let s = c.ssd.0 as usize;
                let at = cores[s].process(now, cost.submit_cycles(c.len_bytes(), false));
                ready[s].push_back((at, id));
            }
            Rec::Poll { ssd, now } => {
                let s = ssd as usize;
                let cache = &mut caches[s];
                polling[s] = Some(now);
                while ready[s].front().is_some_and(|(at, _)| *at <= now) {
                    let (at, id) = ready[s].pop_front().expect("checked");
                    let cmd = &log.cmds[id as usize];
                    match cmd.opcode {
                        IoType::Read => {
                            let t0 = Instant::now();
                            let hit = cache.try_read_hit(cmd, at);
                            let dt = t0.elapsed().as_nanos() as f64 - t.overhead_ns;
                            let path = if hit { &mut read_hit } else { &mut miss_fill };
                            path.total_ns += dt;
                            path.calls += 1;
                            at_device[id as usize] = !hit;
                        }
                        IoType::Write => {
                            write.calls += 1;
                            at_device[id as usize] = timed_call(t, &mut write, || {
                                let acked = cache.write_back_ack(cmd, at);
                                if !acked {
                                    cache.stage_write(cmd, at);
                                }
                                !acked
                            });
                        }
                    }
                }
            }
            Rec::DevComplete {
                ssd,
                id,
                latency_ns,
                at,
                ..
            } => {
                let s = ssd as usize;
                let cache = &mut caches[s];
                if is_flush_id(id) {
                    // The replay's own flush ids, oldest first: they equal
                    // the run's while the replay tracks it.
                    if let Some(mine) = flushing[s].pop_front() {
                        timed_call(t, &mut write, || cache.on_flush_completion(mine, false, at));
                    }
                    continue;
                }
                if !std::mem::take(&mut at_device[id as usize]) {
                    continue;
                }
                let cmd = &log.cmds[id as usize];
                match cmd.opcode {
                    IoType::Read => timed_call(t, &mut miss_fill, || {
                        let dev = SimDuration::from_nanos(latency_ns);
                        cache.on_read_completion(cmd, dev, false, at);
                    }),
                    IoType::Write => {
                        timed_call(t, &mut write, || cache.on_write_completion(cmd, false, at))
                    }
                }
            }
            // The bracket around a poll closes: its flusher step is due.
            Rec::Quantum { ssd, .. } => {
                let s = ssd as usize;
                if let Some(now) = polling[s].take() {
                    let due = timed_call(t, &mut write, || caches[s].take_flushes(now));
                    flushing[s].extend(due.iter().map(|f| f.id));
                }
            }
            _ => {}
        }
    }
    let counters = [
        caches.iter().map(|c| c.stats().hits).sum(),
        caches.iter().map(|c| c.stats().misses).sum(),
        caches.iter().map(|c| c.write_back_stats().acked).sum(),
    ];
    let close = |(got, want): (&u64, &u64)| {
        (*got as f64 - *want as f64).abs() <= 0.01 * (*want).max(1) as f64
    };
    let ok = counters.iter().zip(&wrapped).all(close);
    CacheTimes {
        read_hit: refuse_unless(ok, read_hit),
        miss_fill: refuse_unless(ok, miss_fill),
        write_ack_flush: refuse_unless(ok, write),
        counters,
    }
}

pub struct TelemetryTimes {
    pub record: Timed,
    pub disabled_record: Timed,
}

/// `telemetry.*_ns`: the events the traced run's ring retained — its last
/// 65 536, the real mix of kinds — recorded again behind an attached and a
/// disabled handle, in as many laps as clear the call floor; the fastest of
/// `reps` such measurements.
pub fn telemetry_record(t: &Timer, events: &[Event], reps: usize) -> TelemetryTimes {
    let laps = (crate::spec::MIN_TIMED_CALLS as usize).div_ceil(events.len().max(1));
    let run = |h: &TraceHandle| {
        let mut all = Timed::default();
        for _ in 0..laps {
            let lap = replay(t, events, events.len() as u64, |e| {
                // Opaque per call: a record site cannot know at compile time
                // whether its handle is attached.
                black_box(h).record(e.at, e.ssd, e.tenant, e.kind);
            });
            all.total_ns += lap.total_ns;
            all.calls += lap.calls;
        }
        all
    };
    let tracer = Rc::new(RefCell::new(Tracer::new(TraceConfig::default())));
    let (attached, disabled) = (TraceHandle::attached(&tracer), TraceHandle::disabled());
    TelemetryTimes {
        record: best_of(reps, || run(&attached)),
        disabled_record: best_of(reps, || run(&disabled)),
    }
}

/// `fabric.tor_hop_pair_ns`: one physical command down to its node and its
/// completion back up. The rack engine has no wrapped node, so the stream
/// is *modelled*: nodes drawn by the run's per-node ToR byte counts, reads
/// and writes by the configured ratio (a replicated write is two commands),
/// capsule sizes as the engine computes them.
pub fn tor_hop_pair(
    t: &Timer,
    mut tor: TorSwitch,
    node_bytes: &[u64],
    read_ratio: f64,
    io_bytes: u64,
    seed: u64,
) -> Timed {
    let total: u64 = node_bytes.iter().sum::<u64>().max(1);
    let physical_reads = read_ratio / (read_ratio + 2.0 * (1.0 - read_ratio));
    let mut rng = SimRng::with_stream(seed, 3);
    batched(t, BATCHES, |i| {
        let mut pick = rng.gen_below(total);
        let node = node_bytes
            .iter()
            .position(|&b| {
                let here = pick < b;
                pick = pick.saturating_sub(b);
                here
            })
            .unwrap_or(0);
        let (down, up) = if rng.gen_bool(physical_reads) {
            (CMD_CAPSULE_BYTES, RSP_CAPSULE_BYTES + io_bytes)
        } else {
            (CMD_CAPSULE_BYTES + io_bytes, RSP_CAPSULE_BYTES)
        };
        let arrive = tor.to_node(node, at(i * 2_000), down, SimDuration::ZERO);
        black_box(tor.from_node(node, arrive, up, SimDuration::ZERO));
    })
}

/// `workload.ycsb_next_ns`: the workload's own generator — same mix, record
/// count and seed.
pub fn ycsb_next(t: &Timer, mix: gimbal_workload::YcsbMix, records: u64, seed: u64) -> Timed {
    let mut w = YcsbWorkload::new(mix, records, SimRng::new(seed).fork(0));
    batched(t, BATCHES, |_| {
        black_box(w.next_op());
    })
}

/// A replicated blobstore over `backends` SSDs of `cap_blocks` each.
fn blobstore(backends: usize, cap_blocks: u64) -> Blobstore {
    let caps = vec![cap_blocks; backends];
    Blobstore::new(
        HierarchicalAllocator::new(HbaConfig::default(), &caps),
        true,
    )
    .expect("at least two backends")
}

/// `blobstore.plan_read_ns`: reads of `io_blocks` at uniform aligned
/// offsets over `files` replicated files of `file_blocks`, replica chosen
/// by credit headroom — the rack engine's own draw over its per-client
/// files; for the KV engine, over as many files as its preloaded stores
/// hold.
pub fn plan_read(
    t: &Timer,
    backends: usize,
    cap_blocks: u64,
    files: u64,
    file_blocks: u64,
    io_blocks: u64,
    seed: u64,
) -> Timed {
    let mut bs = blobstore(backends, cap_blocks);
    let lim = RateLimiter::new(backends, 16, true);
    let ids: Vec<_> = (0..files)
        .map(|_| {
            bs.create_file(file_blocks, |b| f64::from(lim.headroom(b)))
                .expect("pool has space")
        })
        .collect();
    let mut rng = SimRng::with_stream(seed, 4);
    let slots = (file_blocks / io_blocks).max(1);
    batched(t, BATCHES, |i| {
        let f = ids[(i % files) as usize];
        let off = rng.gen_below(slots) * io_blocks;
        black_box(bs.plan_read(f, off, io_blocks, |r: &[BackendId; 2]| {
            lim.choose_replica(r).unwrap_or(0)
        }));
    })
}

pub struct LsmTimes {
    pub begin_op: Timed,
    /// Files one preloaded instance holds, and their mean size in blocks.
    pub files: u64,
    pub file_blocks: u64,
}

/// `lsm-kv.begin_op_ns`: the workload's own YCSB stream (same mix, records,
/// seed) through a store built and preloaded as the engine builds one,
/// every block IO it plans completing at once — `begin_op` plus the
/// `io_done` steps that finish the op, with the WAL/flush pump every 200 µs
/// of simulated time as the engine does.
pub fn lsm_begin_op(t: &Timer, cfg: &gimbal_testbed::KvTestbedConfig) -> LsmTimes {
    let backends = cfg.backends() as usize;
    let cap_blocks = cfg.ssd.logical_capacity / cfg.ssd.logical_page_bytes;
    let mut bs = blobstore(backends, cap_blocks);
    let lim = RateLimiter::new(backends, cfg.gimbal_params.initial_credit_ios, true);
    let mut rng = SimRng::new(cfg.seed);
    let mut kv = LsmKv::new(cfg.lsm, rng.next_u64());
    let mut ctx = IoCtx {
        bs: &mut bs,
        lim: &lim,
        load_balance: cfg.load_balance,
    };
    kv.load(cfg.records_per_instance, &mut ctx);
    let files = ctx.bs.file_count() as u64;
    let free: u64 = (0..backends)
        .map(|b| ctx.bs.allocator().free_blocks(BackendId(b as u32)))
        .sum();
    let used = cap_blocks * backends as u64 - free;
    let mut w = YcsbWorkload::new(cfg.mix, cfg.records_per_instance, rng.fork(0));
    let mut todo = Vec::new();
    let begin_op = batched(t, BATCHES, |i| {
        let now = at(i * 10_000);
        let op: KvOp = w.next_op();
        let (_, out) = kv.begin_op(op, now, &mut ctx);
        todo.extend(out.ios);
        if i % 20 == 0 {
            todo.extend(kv.pump(now, &mut ctx).ios);
        }
        while let Some(io) = todo.pop() {
            todo.extend(kv.io_done(io.tag, now, &mut ctx).ios);
        }
    });
    LsmTimes {
        begin_op,
        files,
        // Replicated: every file block is stored twice.
        file_blocks: (used / 2 / files.max(1)).max(1),
    }
}
