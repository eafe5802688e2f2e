//! The *wrapped node*: every public `switch::Pipeline` of a `Testbed`
//! workload in a bench-owned closed loop that mirrors the engine's — one
//! event queue, the workload's own `FioStream`s forked as the engine forks
//! them, the same device seeds, preconditioning, policy, cache, broker,
//! core scheduler and batch settings. Fault-free, as the workloads are.
//!
//! It runs in three kinds of pass, bit-identically. A *span* pass records a
//! span around every call into the switch, the policy and the device. A
//! *plain* pass records nothing: the span passes' extra host time over it is
//! what the recorder itself cost, in place. The *log* pass writes down the
//! op stream the loop puts on every layer a pipeline does not own — queue
//! pushes and pops, fabric capsules, credit gates, fio draws, core quanta,
//! broker charges, cache lookups, latency samples — for the layer drivers
//! (`layers`) to replay.

use crate::timing::Recorder;
use gimbal_broker::{BrokerHandle, BrokerStats};
use gimbal_cache::CacheStats;
use gimbal_cores::{CoreScheduler, CoresStats};
use gimbal_fabric::{
    CmdId, IoType, NvmeCmd, NvmeCompletion, Port, Priority, RdmaDelays, SsdId, TenantId,
};
use gimbal_sim::{EventQueue, SimDuration, SimRng, SimTime};
use gimbal_ssd::{FlashSsd, SsdCompletion, StorageDevice};
use gimbal_switch::{
    ClientPolicy, CompletionInfo, Pipeline, PipelineConfig, PolicyPoll, Request, SwitchPolicy,
};
use gimbal_telemetry::{TraceConfig, TraceHandle, Tracer};
use gimbal_testbed::{Precondition, TestbedConfig, WorkerSpec};
use gimbal_workload::FioStream;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Span names, indexed by the constants below.
pub const SPAN_NAMES: [&str; 7] = [
    "switch.on_command",
    "switch.poll",
    "gimbal.on_arrival",
    "gimbal.next_submission",
    "gimbal.on_completion",
    "ssd.submit",
    "ssd.poll_into",
];
pub const ON_COMMAND: usize = 0;
pub const POLL: usize = 1;
pub const ON_ARRIVAL: usize = 2;
pub const NEXT_SUBMISSION: usize = 3;
pub const ON_COMPLETION: usize = 4;
pub const SUBMIT: usize = 5;
pub const POLL_INTO: usize = 6;

/// Commands the wrapped node serves before it stops early: enough for every
/// per-command span and replayed call to clear the 100 000-call floor.
/// With a cache in front the device sees a fraction of the commands, so
/// the node serves [`CACHED_FACTOR`] times as many.
pub const WRAPPED_IOS: u64 = 150_000;
pub const CACHED_FACTOR: u64 = 3;

/// One step of the op stream the loop put on the layers around the
/// pipelines, in the order it happened. Commands and completions are kept
/// once, in [`Log::cmds`] and [`Log::cpls`], and named here by command id.
#[derive(Clone, Copy, Debug)]
pub enum Rec {
    /// `ClientPolicy::can_submit(outstanding, now)`.
    Gate {
        client: u32,
        outstanding: u32,
        now: SimTime,
    },
    /// `FioStream::rate_gate(now)` refused (outside a burst's ON window).
    RateDenied { client: u32, now: SimTime },
    /// `rate_gate` passed; `next_io`, `on_submit`, the command capsule (and
    /// the payload fetch of a write) left the client at `cmd.issued_at`.
    Issue { id: u32 },
    /// The capsule reached its pipeline: `Pipeline::on_command(cmd, now)`.
    Deliver { id: u32, now: SimTime },
    /// One scheduler bracket (`begin` .. `end`) and the core time the
    /// pipeline charged inside it.
    Quantum {
        ssd: u32,
        used_ns: u32,
        now: SimTime,
    },
    /// `Pipeline::poll(now)` begins.
    Poll { ssd: u32, now: SimTime },
    /// The policy released a request to the broker gate and the device.
    PolicySubmit {
        ssd: u32,
        tenant: u32,
        bytes: u32,
        flush: bool,
    },
    /// The device completed a command (`SwitchPolicy::on_completion`); ids
    /// at or above `gimbal_cache::FLUSH_ID_BASE` are flusher writes.
    DevComplete {
        ssd: u32,
        id: u64,
        len: u32,
        latency_ns: u64,
        at: SimTime,
    },
    /// A completion capsule left the target: [`Log::cpls`]`[id]` holds it.
    Out {
        id: u32,
        cached: bool,
        device_latency_ns: u64,
    },
    /// The capsule reached its client at `now`.
    Cpl { id: u32, now: SimTime },
    /// A broker settlement boundary.
    Epoch { now: SimTime },
    /// A core-scheduler rebalance boundary.
    Rebalance { now: SimTime },
}

/// What the log pass wrote down.
#[derive(Default)]
pub struct Log {
    pub recs: Vec<Rec>,
    /// Every issued command, by id (ids count up from 0).
    pub cmds: Vec<NvmeCmd>,
    /// Every completion capsule, by command id.
    pub cpls: Vec<Option<NvmeCompletion>>,
    /// The bench-owned event queue's ops: a pop is `0`, a push is its
    /// distance from the queue's clock in ns, shifted left, plus one.
    pub queue_ops: Vec<u64>,
    /// Σ queue length at each pop, and the pops.
    pub queue_len_sum: u64,
    pub queue_pops: u64,
    /// Σ commands in flight at each issue.
    pub inflight_sum: u64,
    /// `TenantDeferred` events the policies recorded.
    pub deferrals: u64,
}

impl Log {
    /// Mean pending events in the queue when the loop popped one.
    pub fn queue_population(&self) -> f64 {
        self.queue_len_sum as f64 / self.queue_pops.max(1) as f64
    }

    /// Mean commands in flight when the loop issued one.
    pub fn inflight_population(&self) -> f64 {
        self.inflight_sum as f64 / self.cmds.len().max(1) as f64
    }
}

/// Spans, or the log, shared with the wrappers inside the pipelines.
struct Probe {
    spans: Option<Recorder>,
    log: Option<Vec<Rec>>,
}

impl Probe {
    #[inline]
    fn enter(&mut self, name: usize, io: Option<u64>) {
        if let Some(r) = &mut self.spans {
            r.enter(name, io);
        }
    }

    #[inline]
    fn exit(&mut self) {
        if let Some(r) = &mut self.spans {
            r.exit();
        }
    }

    #[inline]
    fn log(&mut self, rec: impl FnOnce() -> Rec) {
        if let Some(l) = &mut self.log {
            l.push(rec());
        }
    }
}

type Shared = Rc<RefCell<Probe>>;

/// A `StorageDevice` that records a span around `submit` and `poll_into`.
struct TimedDevice<D> {
    inner: D,
    probe: Shared,
}

impl<D: StorageDevice> StorageDevice for TimedDevice<D> {
    fn submit(&mut self, tag: u64, op: IoType, lba: u64, len: u64, now: SimTime) {
        self.probe.borrow_mut().enter(SUBMIT, Some(tag));
        self.inner.submit(tag, op, lba, len, now);
        self.probe.borrow_mut().exit();
    }

    fn poll(&mut self, now: SimTime) -> Vec<SsdCompletion> {
        let mut out = Vec::new();
        self.poll_into(now, &mut out);
        out
    }

    fn poll_into(&mut self, now: SimTime, out: &mut Vec<SsdCompletion>) {
        self.probe.borrow_mut().enter(POLL_INTO, None);
        self.inner.poll_into(now, out);
        self.probe.borrow_mut().exit();
    }

    fn next_event_at(&self) -> Option<SimTime> {
        self.inner.next_event_at()
    }

    fn inflight(&self) -> usize {
        self.inner.inflight()
    }

    fn attach_trace(&mut self, trace: TraceHandle, ssd: SsdId) {
        self.inner.attach_trace(trace, ssd);
    }

    fn is_failed(&self) -> bool {
        self.inner.is_failed()
    }
}

/// A `SwitchPolicy` that records a span around the three hot hooks of the
/// policy it wraps.
struct TimedPolicy {
    inner: Box<dyn SwitchPolicy>,
    ssd: u32,
    probe: Shared,
}

impl SwitchPolicy for TimedPolicy {
    fn on_arrival(&mut self, req: Request, now: SimTime) {
        self.probe
            .borrow_mut()
            .enter(ON_ARRIVAL, Some(req.cmd.id.0));
        self.inner.on_arrival(req, now);
        self.probe.borrow_mut().exit();
    }

    fn next_submission(&mut self, now: SimTime, device_inflight: usize) -> PolicyPoll {
        self.probe.borrow_mut().enter(NEXT_SUBMISSION, None);
        let poll = self.inner.next_submission(now, device_inflight);
        let mut p = self.probe.borrow_mut();
        p.exit();
        if let PolicyPoll::Submit(req) = &poll {
            p.log(|| Rec::PolicySubmit {
                ssd: self.ssd,
                tenant: req.cmd.tenant.0,
                bytes: req.cmd.len,
                flush: gimbal_cache::is_flush_id(req.cmd.id.0),
            });
        }
        poll
    }

    fn on_completion(&mut self, info: &CompletionInfo, now: SimTime) {
        self.probe
            .borrow_mut()
            .enter(ON_COMPLETION, Some(info.cmd.id.0));
        self.inner.on_completion(info, now);
        let mut p = self.probe.borrow_mut();
        p.exit();
        p.log(|| Rec::DevComplete {
            ssd: self.ssd,
            id: info.cmd.id.0,
            len: info.cmd.len,
            latency_ns: info.device_latency.as_nanos(),
            at: info.completed_at,
        });
    }

    fn credit_for(&mut self, tenant: TenantId) -> Option<u32> {
        self.inner.credit_for(tenant)
    }

    fn queued(&self) -> usize {
        self.inner.queued()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }

    fn attach_trace(&mut self, trace: TraceHandle, ssd: SsdId) {
        self.inner.attach_trace(trace, ssd);
    }
}

pub enum Ev {
    Start(usize),
    TryIssue(usize),
    DeliverCmd(NvmeCmd),
    Wake(usize),
    DeliverCpl(NvmeCompletion),
    BrokerEpoch,
    CoresRebalance,
}

/// Bytes of one queued event: the queue driver replays with as many.
pub const EVENT_BYTES: usize = std::mem::size_of::<Ev>();

struct Client {
    ssd: usize,
    priority: Priority,
    stream: FioStream,
    gate: Box<dyn ClientPolicy>,
    tx: Port,
    outstanding: u32,
    retry_pending: bool,
}

/// What one pass of the wrapped node produced.
pub struct Wrapped {
    /// Span aggregates and samples (span pass).
    pub recorder: Option<Recorder>,
    /// The op stream (log pass).
    pub log: Option<Log>,
    /// Commands completed back to their clients.
    pub ios: u64,
    /// Events the loop popped, coalesced deliveries included.
    pub events: u64,
    /// The simulated instant the pass stopped at.
    pub stopped_at: SimTime,
    /// Host seconds of the event loop alone (set-up left out).
    pub loop_secs: f64,
    /// The pipelines' and schedulers' own counters, to check replays against.
    pub cache: Vec<CacheStats>,
    /// Writes the pipelines' write-back caches acknowledged from DRAM.
    pub cache_acked: u64,
    pub broker: Option<BrokerStats>,
    pub cores: CoresStats,
}

struct Node<'a> {
    cfg: &'a TestbedConfig,
    probe: Shared,
    queue: EventQueue<Ev>,
    log: Option<Log>,
    clients: Vec<Client>,
    pipelines: Vec<Pipeline<TimedDevice<FlashSsd>>>,
    target_tx: Vec<Port>,
    delays: RdmaDelays,
    wake_at: Vec<SimTime>,
    sched: CoreScheduler,
    broker: Option<BrokerHandle>,
    tracer: Option<Rc<RefCell<Tracer>>>,
    next_cmd: u64,
    ios: u64,
    events: u64,
}

impl Node<'_> {
    fn push(&mut self, at: SimTime, ev: Ev) {
        if let Some(l) = &mut self.log {
            let delta = at.since(self.queue.now()).as_nanos();
            l.queue_ops.push(delta << 1 | 1);
        }
        self.queue.push(at, ev);
    }

    fn popped(&mut self) {
        self.events += 1;
        if let Some(l) = &mut self.log {
            l.queue_ops.push(0);
            // The popped event was pending until now.
            l.queue_len_sum += self.queue.len() as u64 + 1;
            l.queue_pops += 1;
        }
    }

    fn rec(&mut self, rec: Rec) {
        if self.log.is_some() {
            self.probe.borrow_mut().log(|| rec);
        }
    }

    /// The engine's `try_issue`: fill the client's queue depth.
    fn try_issue(&mut self, i: usize, now: SimTime) {
        if now >= SimTime::ZERO + self.cfg.duration {
            return;
        }
        loop {
            let c = &mut self.clients[i];
            if c.outstanding >= c.stream.spec().queue_depth {
                break;
            }
            let outstanding = c.outstanding;
            let open = c.gate.can_submit(outstanding, now);
            self.rec(Rec::Gate {
                client: i as u32,
                outstanding,
                now,
            });
            if !open {
                break; // resumed by the next completion
            }
            let c = &mut self.clients[i];
            if let Err(retry_at) = c.stream.rate_gate(now) {
                let first = !c.retry_pending;
                c.retry_pending = true;
                self.rec(Rec::RateDenied {
                    client: i as u32,
                    now,
                });
                if first {
                    self.push(retry_at, Ev::TryIssue(i));
                }
                break;
            }
            let io = c.stream.next_io(now);
            let cmd = NvmeCmd {
                id: CmdId(self.next_cmd),
                tenant: TenantId(i as u32),
                ssd: SsdId(c.ssd as u32),
                opcode: io.op,
                lba: io.lba,
                len: io.len as u32,
                priority: c.priority,
                issued_at: now,
                wal: None,
            };
            self.next_cmd += 1;
            c.outstanding += 1;
            c.gate.on_submit(now);
            let mut arrive = self.delays.command_arrival(&mut c.tx, now, &cmd);
            if cmd.opcode.is_write() {
                arrive = self.delays.write_payload_fetched(&mut c.tx, arrive, &cmd);
            }
            if let Some(l) = &mut self.log {
                l.inflight_sum += self
                    .clients
                    .iter()
                    .map(|c| u64::from(c.outstanding))
                    .sum::<u64>();
                l.cmds.push(cmd);
            }
            self.rec(Rec::Issue {
                id: cmd.id.0 as u32,
            });
            self.push(arrive, Ev::DeliverCmd(cmd));
        }
    }

    /// The engine's `begin_quantum` .. `sched.end` around `body`.
    fn quantum(&mut self, ssd: usize, now: SimTime, body: impl FnOnce(&mut Self)) {
        let q = self.sched.begin(ssd, now);
        let core = self.sched.core_rc(q.core());
        let busy = core.borrow().busy_time();
        self.pipelines[ssd].set_core(Rc::clone(&core));
        self.sched.drain_journal();
        body(self);
        self.sched.end(ssd, q);
        let used = core.borrow().busy_time() - busy;
        self.rec(Rec::Quantum {
            ssd: ssd as u32,
            used_ns: used.as_nanos() as u32,
            now,
        });
    }

    /// The engine's `DeliverCmd` arm up to its pump: the arrival and, with
    /// batching on, the same-instant arrivals that join its quantum.
    fn deliver(&mut self, cmd: NvmeCmd, now: SimTime) {
        let ssd = cmd.ssd.0 as usize;
        self.quantum(ssd, now, |n| {
            let mut next = Some(cmd);
            let mut taken = 0;
            while let Some(cmd) = next.take() {
                n.rec(Rec::Deliver {
                    id: cmd.id.0 as u32,
                    now,
                });
                n.probe.borrow_mut().enter(ON_COMMAND, Some(cmd.id.0));
                n.pipelines[ssd].on_command(cmd, now);
                n.probe.borrow_mut().exit();
                taken += 1;
                if taken < n.cfg.batch && n.pipelines[ssd].next_event_at().is_none_or(|t| t > now) {
                    let same = |e: &Ev| matches!(e, Ev::DeliverCmd(c) if c.ssd.0 as usize == ssd);
                    if let Some(Ev::DeliverCmd(c)) = n.queue.pop_if_at(now, same) {
                        n.popped();
                        next = Some(c);
                    }
                }
            }
        });
    }

    /// The engine's `pump`: poll, route completion capsules, re-arm the wake.
    fn pump(&mut self, ssd: usize, now: SimTime) {
        self.quantum(ssd, now, |n| {
            n.rec(Rec::Poll {
                ssd: ssd as u32,
                now,
            });
            n.probe.borrow_mut().enter(POLL, None);
            n.pipelines[ssd].poll(now);
            n.probe.borrow_mut().exit();
            if let Some(b) = &n.broker {
                b.drain_journal();
            }
            for out in n.pipelines[ssd].take_outputs() {
                let cpl = NvmeCompletion {
                    id: out.cmd.id,
                    tenant: out.cmd.tenant,
                    ssd: out.cmd.ssd,
                    opcode: out.cmd.opcode,
                    len: out.cmd.len,
                    status: out.status,
                    credit: out.credit,
                    issued_at: out.cmd.issued_at,
                    completed_at: out.at,
                };
                let arrive = n
                    .delays
                    .completion_arrival(&mut n.target_tx[ssd], out.at, &out.cmd);
                if let Some(l) = &mut n.log {
                    let id = cpl.id.0 as usize;
                    if l.cpls.len() <= id {
                        l.cpls.resize(id + 1, None);
                    }
                    l.cpls[id] = Some(cpl);
                }
                n.rec(Rec::Out {
                    id: cpl.id.0 as u32,
                    cached: out.served_from_cache,
                    device_latency_ns: out.device_latency.as_nanos(),
                });
                n.push(arrive, Ev::DeliverCpl(cpl));
            }
            if let Some(t) = n.pipelines[ssd].next_event_at() {
                let t = t.max(now + SimDuration::from_nanos(1));
                if t < n.wake_at[ssd] {
                    n.wake_at[ssd] = t;
                    n.push(t, Ev::Wake(ssd));
                }
            }
        });
        self.count_deferrals(false);
    }

    /// Drain the log pass's tracer before its ring wraps (or at the end) and
    /// count the policies' deferrals.
    fn count_deferrals(&mut self, all: bool) {
        let (Some(t), Some(l)) = (&self.tracer, &mut self.log) else {
            return;
        };
        if all || t.borrow().len() >= TRACE_RING / 2 {
            let drained = t.borrow_mut().finish();
            l.deferrals += drained
                .events
                .iter()
                .filter(|e| e.name() == "tenant_deferred")
                .count() as u64;
        }
    }
}

/// The tenants (worker indices) whose commands target `ssd`: a broker
/// settlement's active set.
pub fn tenants_on(workers: &[WorkerSpec], ssd: u32) -> Vec<TenantId> {
    let on = workers.iter().enumerate().filter(|(_, w)| w.ssd == ssd);
    on.map(|(i, _)| TenantId(i as u32)).collect()
}

/// Ring of the log pass's tracer; drained at half full.
const TRACE_RING: usize = 1 << 16;

/// Which pass to make.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pass {
    /// A span around every call into the switch, the policy and the device.
    Spans,
    /// Neither spans nor log: what the loop costs when nobody watches. The
    /// span passes' extra host time over this one is what the recorder cost
    /// in place, cache misses included.
    Plain,
    /// The op stream, written down.
    Log,
}

/// What an empty span measures — the clock reads themselves — through the
/// handle the wrappers hold; the quietest of several rounds.
pub fn empty_span_ns() -> f64 {
    const ROUNDS: usize = 16;
    const N: u64 = 1 << 13;
    let probe: Shared = Rc::new(RefCell::new(Probe {
        spans: Some(Recorder::new(&SPAN_NAMES)),
        log: None,
    }));
    let measured = || {
        let probe = probe.borrow();
        let spans = probe.spans.as_ref().expect("set above");
        spans.aggregate(0).total_ns
    };
    let mut best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let before = measured();
        for _ in 0..N {
            probe.borrow_mut().enter(0, None);
            probe.borrow_mut().exit();
        }
        best = best.min((measured() - before) / N as f64);
    }
    best
}

/// Run the wrapped node until it has served its commands ([`WRAPPED_IOS`],
/// more behind a cache) or the workload's simulated duration ends.
pub fn run(cfg: &TestbedConfig, workers: &[WorkerSpec], pass: Pass) -> Wrapped {
    let cached = cfg.cache.as_ref().is_some_and(|c| c.enabled());
    let limit = WRAPPED_IOS * if cached { CACHED_FACTOR } else { 1 };
    let probe: Shared = Rc::new(RefCell::new(Probe {
        spans: (pass == Pass::Spans).then(|| Recorder::new(&SPAN_NAMES)),
        log: (pass == Pass::Log).then(Vec::new),
    }));
    // Engine::build, step by step: device seeds first, then worker forks.
    let mut root = SimRng::new(cfg.seed);
    let mut cpu_cost = cfg.scheme.cpu_cost(cfg.xeon);
    cpu_cost.submit += cfg.added_per_io_us * gimbal_nic::CYCLES_PER_US;
    let broker = cfg
        .broker
        .as_ref()
        .map(|bc| BrokerHandle::new(bc.clone(), TraceHandle::disabled()));
    let sched = CoreScheduler::new(
        cfg.cores as usize,
        cfg.num_ssds as usize,
        cfg.steal.clone(),
        TraceHandle::disabled(),
    );
    // The log pass listens to the policies' own events for the deferral
    // count; the span pass runs with telemetry off, as the end-to-end pass.
    let tracer = (pass == Pass::Log).then(|| {
        Rc::new(RefCell::new(Tracer::new(TraceConfig {
            capacity: TRACE_RING,
        })))
    });
    let pipelines = (0..cfg.num_ssds)
        .map(|i| {
            let mut ssd = FlashSsd::new(cfg.ssd.clone(), root.next_u64());
            match cfg.precondition {
                Precondition::Clean => ssd.precondition_clean(),
                Precondition::Fragmented => ssd.precondition_fragmented(),
                Precondition::None => {}
            }
            let mut pipe = Pipeline::with_core(
                SsdId(i),
                TimedDevice {
                    inner: ssd,
                    probe: Rc::clone(&probe),
                },
                Box::new(TimedPolicy {
                    inner: cfg.scheme.make_policy(SsdId(i), cfg.gimbal_params),
                    ssd: i,
                    probe: Rc::clone(&probe),
                }),
                PipelineConfig {
                    cpu_cost,
                    null_device: false,
                    cache: cfg.cache.clone(),
                    broker: broker.clone(),
                },
                sched.core_rc(sched.home(i as usize)),
            );
            if let Some(t) = &tracer {
                pipe.attach_trace(TraceHandle::attached(t));
            }
            pipe
        })
        .collect();
    let clients = workers
        .iter()
        .enumerate()
        .map(|(i, w)| Client {
            ssd: w.ssd as usize,
            priority: w.priority,
            stream: FioStream::new(w.fio, root.fork(i as u64)),
            gate: cfg.scheme.make_client(),
            tx: Port::new(cfg.fabric.port_bandwidth),
            outstanding: 0,
            retry_pending: false,
        })
        .collect();
    let mut node = Node {
        cfg,
        probe: Rc::clone(&probe),
        queue: EventQueue::new(),
        log: (pass == Pass::Log).then(Log::default),
        clients,
        pipelines,
        target_tx: (0..cfg.num_ssds)
            .map(|_| Port::new(cfg.fabric.port_bandwidth))
            .collect(),
        delays: RdmaDelays::new(cfg.fabric),
        wake_at: vec![SimTime::MAX; cfg.num_ssds as usize],
        sched,
        broker,
        tracer,
        next_cmd: 0,
        ios: 0,
        events: 0,
    };

    // Engine::run.
    for (i, w) in workers.iter().enumerate() {
        node.push(w.start, Ev::Start(i));
    }
    if let Some(bc) = &cfg.broker {
        node.push(SimTime::ZERO + bc.epoch, Ev::BrokerEpoch);
    }
    if let Some(e) = node.sched.rebalance_epoch() {
        node.push(SimTime::ZERO + e, Ev::CoresRebalance);
    }
    let end = SimTime::ZERO + cfg.duration;
    let mut stopped_at = SimTime::ZERO;
    let loop_started = Instant::now();
    while let Some((now, ev)) = node.queue.pop() {
        if now > end || node.ios >= limit {
            break;
        }
        node.popped();
        stopped_at = now;
        match ev {
            Ev::Start(i) => node.try_issue(i, now),
            Ev::TryIssue(i) => {
                node.clients[i].retry_pending = false;
                node.try_issue(i, now);
            }
            Ev::DeliverCmd(cmd) => {
                node.deliver(cmd, now);
                node.pump(cmd.ssd.0 as usize, now);
            }
            Ev::Wake(ssd) => {
                // Only the currently armed wake may pump.
                if node.wake_at[ssd] == now {
                    node.wake_at[ssd] = SimTime::MAX;
                    node.pump(ssd, now);
                }
            }
            Ev::DeliverCpl(cpl) => {
                let i = cpl.tenant.0 as usize;
                let c = &mut node.clients[i];
                c.outstanding -= 1;
                c.gate.on_completion(&cpl, now);
                node.ios += 1;
                node.rec(Rec::Cpl {
                    id: cpl.id.0 as u32,
                    now,
                });
                node.try_issue(i, now);
            }
            Ev::BrokerEpoch => {
                let b = node.broker.clone().expect("epoch events need a broker");
                let active: Vec<(SsdId, Vec<TenantId>)> = (0..cfg.num_ssds)
                    .map(|s| (SsdId(s), tenants_on(workers, s)))
                    .collect();
                node.rec(Rec::Epoch { now });
                b.settle_epoch(now, &active);
                b.end_epoch();
                b.drain_journal();
                for ssd in 0..cfg.num_ssds as usize {
                    node.pump(ssd, now);
                }
                let epoch = cfg.broker.as_ref().expect("broker cfg").epoch;
                node.push(now + epoch, Ev::BrokerEpoch);
            }
            Ev::CoresRebalance => {
                node.rec(Rec::Rebalance { now });
                node.sched.rebalance(now);
                node.sched.drain_journal();
                if let Some(e) = node.sched.rebalance_epoch() {
                    node.push(now + e, Ev::CoresRebalance);
                }
            }
        }
    }
    let loop_secs = loop_started.elapsed().as_secs_f64();
    node.count_deferrals(true);

    let Node {
        pipelines,
        sched,
        broker,
        mut log,
        ios,
        events,
        probe: node_probe,
        ..
    } = node;
    drop(node_probe);
    let cache = pipelines.iter().filter_map(|p| p.cache_stats()).collect();
    let acked = pipelines
        .iter()
        .filter_map(|p| p.cache().map(|c| c.write_back_stats().acked))
        .sum();
    drop(pipelines);
    let probe = Rc::try_unwrap(probe)
        .ok()
        .expect("the pipelines held the other probe handles")
        .into_inner();
    if let (Some(l), Some(recs)) = (&mut log, probe.log) {
        l.recs = recs;
    }
    Wrapped {
        recorder: probe.spans,
        log,
        ios,
        events,
        stopped_at,
        loop_secs,
        cache,
        cache_acked: acked,
        broker: broker.map(|b| b.stats()),
        cores: sched.stats(),
    }
}
