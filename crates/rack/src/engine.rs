//! The rack-scale event loop.
//!
//! N JBOF nodes, each `ssds_per_node` switch pipelines, behind one
//! deterministic ToR switch. Closed-loop clients issue logical IOs against
//! zone-replicated blobstore files; every logical read maps to one physical
//! NVMe command (plus reroutes), every logical write fans out to one command
//! per live replica.
//!
//! ## Capsule path
//!
//! Command: client port serialization + fabric propagation
//! ([`RdmaDelays::command_arrival`]) → ToR downlink serialization + link
//! latency ([`TorSwitch::to_node`]) → node. Completion: node port +
//! propagation ([`RdmaDelays::completion_arrival`]) → ToR uplink →
//! client. Node faults act at the crossings: a dead or partitioned node
//! swallows capsules in both directions (`tor_cmd_drops` / `tor_cpl_drops`),
//! a degraded link adds latency per crossing and is journaled as a
//! [`EventKind::LinkDegraded`] event.
//!
//! ## Escalation ladder
//!
//! Armed per command when faults are configured: timeout → retransmit
//! (attempt < `suspect_after`) → mark the node *suspect* and reroute the
//! read to a surviving replica → terminal typed error only when no live
//! replica holds the span. Writes never reroute (a write side that dies is
//! a degraded ack, §4.3); they retransmit until exhaustion. All of it runs
//! through [`RetryConfig::escalate`], so the ladder's order is unit-tested
//! where it lives.
//!
//! ## Determinism
//!
//! Single event queue, FIFO within a timestamp; all randomness from forked
//! [`SimRng`] streams; every cross-node routing decision is journaled under
//! the `rack.route` component so the divergence sanitizer can localize a
//! nondeterministic route to its tick.

use crate::config::RackConfig;
use crate::results::{RackClientResult, RackCounters, RackResult};
use gimbal_blobstore::{
    BackendId, Blobstore, HbaConfig, HierarchicalAllocator, RateLimiter, ReplicaHealth,
};
use gimbal_broker::BrokerHandle;
use gimbal_cores::{CoreScheduler, Quantum};
use gimbal_fabric::{
    CmdId, EscalationAction, IoType, NvmeCmd, NvmeCompletion, Port, Priority, RdmaDelays,
    RetryConfig, SsdId, TenantId, TorSwitch, CMD_CAPSULE_BYTES, RSP_CAPSULE_BYTES,
};
use gimbal_sim::collections::DetMap;
use gimbal_sim::journal::JournalHandle;
use gimbal_sim::{
    EventQueue, FaultInjector, FaultPlan, Histogram, IoArena, IoHandle, SimDuration, SimRng,
    SimTime,
};
use gimbal_ssd::FlashSsd;
use gimbal_switch::{ClientPolicy, Pipeline, PipelineConfig, PipelineOut};
use gimbal_telemetry::{CapsuleKind, EventKind, TraceHandle, Tracer};
use gimbal_testbed::{FaultCounters, Precondition};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// One physical IO waiting behind a client's per-backend submission gate.
struct PendIo {
    logical: u64,
    backend: usize,
    lba: u64,
    blocks: u64,
    op: IoType,
}

/// One closed-loop client.
struct Client {
    /// Per-backend submission gates (credits for Gimbal, windows for Parda).
    gates: Vec<Box<dyn ClientPolicy>>,
    /// Outstanding physical commands per backend.
    outstanding: Vec<u32>,
    /// Gated per-backend submission queues.
    pending: Vec<VecDeque<PendIo>>,
    tx_port: Port,
    file: gimbal_blobstore::FileId,
    rng: SimRng,
    /// Open logical IOs (the closed loop's fill level).
    inflight: u32,
    read_hist: Histogram,
    write_hist: Histogram,
    ops_done: u64,
}

/// One open logical IO.
struct Logical {
    client: usize,
    offset: u64,
    blocks: u64,
    is_read: bool,
    started: SimTime,
    /// Physical commands still unresolved (queued or on the wire).
    pending: u32,
    ok_sides: u32,
    err_sides: u32,
    /// Write planned onto fewer replicas than configured.
    degraded: bool,
    /// Backends this read has been routed to (reroutes never revisit one).
    tried: Vec<u32>,
}

/// One live (non-terminal) physical command. Removed exactly once — at
/// completion delivery, final timeout, or abandonment for a reroute — which
/// is what makes the physical conservation audit exact.
struct Phys {
    logical: u64,
    backend: usize,
    attempt: u32,
    /// Whether any capsule copy reached the target pipeline.
    delivered: bool,
    /// Target-side cached completion for retransmit dedup.
    done_cpl: Option<NvmeCompletion>,
    cmd: NvmeCmd,
}

enum Ev {
    ClientStart(usize),
    DeliverCmd {
        backend: usize,
        cmd: NvmeCmd,
    },
    PipelineWake(usize),
    DeliverCpl {
        cpl: NvmeCompletion,
    },
    Timeout {
        cmd: u64,
        attempt: u32,
    },
    NodeDeath(usize),
    /// Broker settlement boundary (only scheduled when the broker is on):
    /// repays debts and forgives accounts on dead nodes' backends.
    BrokerEpoch,
    /// Core-scheduler rebalance boundary (only scheduled when stealing is
    /// on with a non-zero rebalance period): every node's scheduler
    /// re-derives home assignments from last epoch's per-pipeline load.
    CoresRebalance,
}

/// The rack experiment.
pub struct RackTestbed {
    cfg: RackConfig,
    /// Test-only nondeterminism injector: flip the first read-routing
    /// decision to a different live replica. Exists to prove the sanitizer
    /// localizes cross-node routing nondeterminism to its tick and the
    /// `rack.route` component.
    #[cfg(test)]
    pub(crate) perturb_first_route: bool,
}

impl RackTestbed {
    /// Create the experiment (panics on inconsistent configuration).
    pub fn new(cfg: RackConfig) -> Self {
        cfg.validate();
        RackTestbed {
            cfg,
            #[cfg(test)]
            perturb_first_route: false,
        }
    }

    /// Run it.
    pub fn run(self) -> RackResult {
        #[cfg_attr(not(test), allow(unused_mut))]
        let mut rt = Rt::build(self.cfg);
        #[cfg(test)]
        {
            rt.perturb_first_route = self.perturb_first_route;
        }
        rt.run()
    }
}

struct Rt {
    cfg: RackConfig,
    queue: EventQueue<Ev>,
    delays: RdmaDelays,
    tor: TorSwitch,
    pipelines: Vec<Pipeline<FlashSsd>>,
    node_ports: Vec<Port>,
    wake_at: Vec<SimTime>,
    /// Recycled completion-capsule buffer, swapped with a pipeline's own
    /// every pump ([`Pipeline::take_outputs_into`]).
    out_buf: Vec<PipelineOut>,
    /// Shared routing view: per-backend credit/outstanding/dead/suspect.
    /// Gating is per-client (`Client::gates`), so this limiter is disabled.
    router: RateLimiter,
    bs: Blobstore,
    clients: Vec<Client>,
    logical: DetMap<u64, Logical>,
    next_logical: u64,
    /// Live physical commands, by command id. The map holds arena handles;
    /// the arena recycles the `Phys` records themselves (incarnation-tagged,
    /// so a stale handle is a typed error instead of aliased state).
    phys: DetMap<u64, IoHandle>,
    phys_arena: IoArena<Phys>,
    next_cmd: u64,
    counters: FaultCounters,
    rack: RackCounters,
    /// `Some` only when the plan actually targets this rack: a plan whose
    /// every fault is aimed at absent nodes/SSDs runs exactly like
    /// `faults: None`, timers and all.
    active_plan: Option<FaultPlan>,
    injector: Option<FaultInjector>,
    retry: RetryConfig,
    node_dead: Vec<bool>,
    tracer: Option<Rc<RefCell<Tracer>>>,
    trace: TraceHandle,
    sanitizer: JournalHandle,
    /// Shared borrow ledger (`None` = broker off).
    broker: Option<BrokerHandle>,
    /// Per-node core schedulers, node-major (stealing never crosses the
    /// ToR). With `steal: None` each is an inert home-binding map.
    scheds: Vec<CoreScheduler>,
    end: SimTime,
    warm: SimTime,
    #[cfg(test)]
    perturb_first_route: bool,
    #[cfg(test)]
    perturb_done: bool,
}

impl Rt {
    fn build(cfg: RackConfig) -> Rt {
        let mut root_rng = SimRng::new(cfg.seed);
        let backends = cfg.backends() as usize;
        let nodes = cfg.nodes as usize;

        // A fault plan is "active" only if some target exists in this rack;
        // node faults aimed past `nodes` (or SSD faults past `backends`) are
        // inert, so such a plan must not even arm timers — that keeps the
        // run bit-identical to a fault-free one.
        let active_plan = cfg.faults.as_ref().map(|fc| &fc.plan).filter(|p| {
            p.cmd_loss_prob > 0.0
                || p.cpl_loss_prob > 0.0
                || !p.burst_windows.is_empty()
                || (0..backends).any(|i| p.ssd_spec(i).is_some())
                || (0..nodes).any(|n| p.node_spec(n).is_some())
        });
        let injector = active_plan.map(|p| FaultInjector::new(p.clone(), cfg.seed));
        let active_plan = active_plan.cloned();
        let retry = cfg.faults.as_ref().map(|fc| fc.retry).unwrap_or_default();

        let sanitizer = if cfg.sanitize {
            JournalHandle::enabled()
        } else {
            JournalHandle::disabled()
        };
        let (tracer, trace) = match &cfg.trace {
            Some(tc) => {
                let t = Rc::new(RefCell::new(Tracer::new(tc.clone())));
                let h = TraceHandle::attached(&t);
                (Some(t), h)
            }
            None => (None, TraceHandle::disabled()),
        };

        let broker = cfg
            .broker
            .as_ref()
            .map(|bc| BrokerHandle::new(bc.clone(), trace.clone()));
        let spn = cfg.ssds_per_node as usize;
        let scheds: Vec<CoreScheduler> = (0..nodes)
            .map(|_| CoreScheduler::new(spn, spn, cfg.steal.clone(), trace.clone()))
            .collect();
        let mut pipelines: Vec<Pipeline<FlashSsd>> = (0..backends)
            .map(|i| {
                let mut ssd = FlashSsd::new(cfg.ssd.clone(), root_rng.next_u64());
                match cfg.precondition {
                    Precondition::Clean => ssd.precondition_clean(),
                    Precondition::Fragmented => ssd.precondition_fragmented(),
                    Precondition::None => {}
                }
                if let Some(p) = &active_plan {
                    // Node-scoped GC storms are *correlated* device storms:
                    // fold them into every member SSD's stall windows so the
                    // device model both stalls and advertises `gc_busy`.
                    let mut spec = p.ssd_spec(i).cloned().unwrap_or_default();
                    if let Some(ns) = p.node_spec(cfg.node_of(i)) {
                        spec.stall_windows
                            .extend(ns.gc_storm_windows.iter().copied());
                    }
                    if !spec.is_noop() {
                        ssd.arm_faults(spec, FaultPlan::device_rng(cfg.seed, i));
                    }
                }
                let node_sched = &scheds[cfg.node_of(i)];
                Pipeline::with_core(
                    SsdId(i as u32),
                    ssd,
                    cfg.scheme.make_policy(SsdId(i as u32), cfg.gimbal_params),
                    PipelineConfig {
                        cpu_cost: cfg.scheme.cpu_cost(false),
                        null_device: false,
                        cache: None,
                        broker: broker.clone(),
                    },
                    node_sched.core_rc(node_sched.home(i % spn)),
                )
            })
            .collect();
        if trace.is_enabled() {
            for p in &mut pipelines {
                p.attach_trace(trace.clone());
            }
        }

        let router = RateLimiter::new(backends, cfg.gimbal_params.initial_credit_ios, false);

        let caps: Vec<u64> = (0..backends)
            .map(|_| cfg.ssd.logical_capacity / cfg.ssd.logical_page_bytes)
            .collect();
        let mut bs = Blobstore::new(
            HierarchicalAllocator::new(HbaConfig::default(), &caps),
            cfg.replicate,
        )
        .expect("validated in RackConfig::validate");

        let ssds_per_node = cfg.ssds_per_node;
        let clients: Vec<Client> = (0..cfg.clients as usize)
            .map(|i| {
                let file = bs
                    .create_file_zoned(
                        cfg.file_blocks,
                        |b| router.headroom(b) as f64,
                        |b| b.0 / ssds_per_node,
                    )
                    .expect("rack out of blobstore capacity — shrink file_blocks");
                Client {
                    gates: (0..backends).map(|_| cfg.scheme.make_client()).collect(),
                    outstanding: vec![0; backends],
                    pending: (0..backends).map(|_| VecDeque::new()).collect(),
                    tx_port: Port::new(cfg.fabric.port_bandwidth),
                    file,
                    rng: root_rng.fork(i as u64),
                    inflight: 0,
                    read_hist: Histogram::new(),
                    write_hist: Histogram::new(),
                    ops_done: 0,
                }
            })
            .collect();

        let mut queue = EventQueue::new();
        for i in 0..clients.len() {
            queue.push(SimTime::from_micros(i as u64 * 10), Ev::ClientStart(i));
        }
        if let Some(p) = &active_plan {
            for node in 0..nodes {
                if let Some(at) = p.node_spec(node).and_then(|s| s.die_at) {
                    queue.push(at, Ev::NodeDeath(node));
                }
            }
        }
        if let Some(bc) = &cfg.broker {
            queue.push(SimTime::ZERO + bc.epoch, Ev::BrokerEpoch);
        }
        if let Some(e) = scheds.first().and_then(CoreScheduler::rebalance_epoch) {
            queue.push(SimTime::ZERO + e, Ev::CoresRebalance);
        }

        Rt {
            delays: RdmaDelays::new(cfg.fabric),
            tor: TorSwitch::new(cfg.tor, nodes),
            node_ports: (0..backends)
                .map(|_| Port::new(cfg.fabric.port_bandwidth))
                .collect(),
            wake_at: vec![SimTime::MAX; backends],
            pipelines,
            router,
            bs,
            clients,
            logical: DetMap::new(),
            next_logical: 0,
            phys: DetMap::new(),
            phys_arena: IoArena::new(),
            out_buf: Vec::new(),
            next_cmd: 0,
            counters: FaultCounters::default(),
            rack: RackCounters::default(),
            active_plan,
            injector,
            retry,
            node_dead: vec![false; nodes],
            tracer,
            trace,
            sanitizer,
            broker,
            scheds,
            end: SimTime::ZERO + cfg.duration,
            warm: SimTime::ZERO + cfg.warmup,
            queue,
            cfg,
            #[cfg(test)]
            perturb_first_route: false,
            #[cfg(test)]
            perturb_done: false,
        }
    }

    fn armed(&self) -> bool {
        self.active_plan.is_some()
    }

    /// Whether `node`'s ToR link swallows capsules at `t` (death is
    /// permanent, partitions are windowed; both act in both directions).
    fn node_down(&self, node: usize, t: SimTime) -> bool {
        self.node_dead[node]
            || self
                .active_plan
                .as_ref()
                .and_then(|p| p.node_spec(node))
                .is_some_and(|s| s.dead(t) || s.partitioned(t))
    }

    /// Degraded-link penalty for a crossing of `node`'s link at `t`, with
    /// the counter and telemetry event it implies.
    fn link_extra(&mut self, node: usize, t: SimTime, ssd: SsdId, tenant: TenantId) -> SimDuration {
        let extra = self
            .active_plan
            .as_ref()
            .and_then(|p| p.node_spec(node))
            .and_then(|s| s.link_extra(t));
        match extra {
            Some(x) => {
                self.rack.link_degraded_crossings += 1;
                self.trace.record(
                    t,
                    ssd,
                    Some(tenant),
                    EventKind::LinkDegraded { node: node as u32 },
                );
                x
            }
            None => SimDuration::ZERO,
        }
    }

    /// Environment-sourced health of one backend, as the router sees it.
    fn backend_health(&self, b: BackendId, now: SimTime) -> ReplicaHealth {
        let node = self.cfg.node_of(b.index());
        let spec = self.active_plan.as_ref().and_then(|p| p.node_spec(node));
        ReplicaHealth {
            partitioned: spec.is_some_and(|s| s.dead(now) || s.partitioned(now)),
            // The GC signal is read straight off the device model, so
            // organic die-level collections steer exactly like injected
            // storms. The blind baseline reports "never busy".
            gc_busy: self.cfg.gc_aware_routing && self.pipelines[b.index()].device().gc_busy(now),
        }
    }

    /// Pick a replica among `cands` via the GC/failure-aware chooser, and
    /// journal the decision (`op` is "choose" or "reroute").
    fn route(&mut self, cands: &[BackendId], now: SimTime, op: &'static str) -> Option<BackendId> {
        let healths: Vec<ReplicaHealth> =
            cands.iter().map(|&b| self.backend_health(b, now)).collect();
        let chosen = self
            .router
            .choose_replica_aware(cands, |b| {
                healths[cands.iter().position(|&x| x == b).expect("candidate")]
            })
            .ok()?;
        #[allow(unused_mut)]
        let mut chosen = chosen;
        #[cfg(test)]
        if self.perturb_first_route && !self.perturb_done {
            if let Some(alt) =
                (0..cands.len()).find(|&j| j != chosen && !self.router.is_dead(cands[j]))
            {
                chosen = alt;
                self.perturb_done = true;
            }
        }
        let b = cands[chosen];
        self.sanitizer
            .record(now.as_nanos(), "rack.route", op, b.index() as u64);
        Some(b)
    }

    /// Keep client `i`'s closed loop full. Bounded per call so a rack with
    /// no live replicas produces a finite burst of typed errors per event
    /// instead of spinning.
    fn issue_logical(&mut self, i: usize, now: SimTime) {
        let io_blocks = self.cfg.io_blocks();
        let slots = self.cfg.file_blocks / io_blocks;
        let mut budget = self.cfg.queue_depth as usize * 2;
        while self.clients[i].inflight < self.cfg.queue_depth && budget > 0 {
            budget -= 1;
            let is_read = self.clients[i].rng.gen_bool(self.cfg.read_ratio);
            let offset = self.clients[i].rng.gen_below(slots) * io_blocks;
            let file = self.clients[i].file;
            let id = self.next_logical;
            self.next_logical += 1;
            self.rack.issued += 1;
            self.clients[i].inflight += 1;
            if is_read {
                let pair = self.bs.replicas_at(file, offset);
                let cands: Vec<BackendId> = if pair[0] == pair[1] {
                    vec![pair[0]]
                } else {
                    pair.to_vec()
                };
                let Some(b) = self.route(&cands, now, "choose") else {
                    // Every replica of this span is dead: typed error at
                    // issue, never a panic.
                    self.rack.failed_typed += 1;
                    self.clients[i].inflight -= 1;
                    continue;
                };
                let plan = self
                    .bs
                    .plan_read(file, offset, io_blocks, |pair| usize::from(pair[0] != b))[0];
                self.logical.insert(
                    id,
                    Logical {
                        client: i,
                        offset,
                        blocks: io_blocks,
                        is_read: true,
                        started: now,
                        pending: 1,
                        ok_sides: 0,
                        err_sides: 0,
                        degraded: false,
                        tried: vec![b.0],
                    },
                );
                self.clients[i].pending[plan.backend.index()].push_back(PendIo {
                    logical: id,
                    backend: plan.backend.index(),
                    lba: plan.lba,
                    blocks: plan.blocks,
                    op: IoType::Read,
                });
            } else {
                let router = &self.router;
                match self
                    .bs
                    .plan_write_degraded(file, offset, io_blocks, |b| router.is_dead(b))
                {
                    Err(_) => {
                        // No live replica can take the write.
                        self.rack.failed_typed += 1;
                        self.clients[i].inflight -= 1;
                    }
                    Ok(wp) => {
                        self.logical.insert(
                            id,
                            Logical {
                                client: i,
                                offset,
                                blocks: io_blocks,
                                is_read: false,
                                started: now,
                                pending: wp.plans.len() as u32,
                                ok_sides: 0,
                                err_sides: 0,
                                degraded: wp.degraded,
                                tried: vec![],
                            },
                        );
                        for p in wp.plans {
                            self.clients[i].pending[p.backend.index()].push_back(PendIo {
                                logical: id,
                                backend: p.backend.index(),
                                lba: p.lba,
                                blocks: p.blocks,
                                op: IoType::Write,
                            });
                        }
                    }
                }
            }
        }
    }

    /// Drain client `i`'s per-backend pending queues through its gates onto
    /// the fabric.
    fn dispatch(&mut self, i: usize, now: SimTime) {
        for b in 0..self.clients[i].pending.len() {
            loop {
                if self.clients[i].pending[b].is_empty() {
                    break;
                }
                let outstanding = self.clients[i].outstanding[b];
                if !self.clients[i].gates[b].can_submit(outstanding, now) {
                    break;
                }
                let io = self.clients[i].pending[b].pop_front().expect("non-empty");
                self.submit_phys(i, io, now);
            }
        }
    }

    fn submit_phys(&mut self, i: usize, io: PendIo, now: SimTime) {
        let cmd = NvmeCmd {
            id: CmdId(self.next_cmd),
            tenant: TenantId(i as u32),
            ssd: SsdId(io.backend as u32),
            opcode: io.op,
            lba: io.lba,
            len: (io.blocks * 4096) as u32,
            priority: Priority::NORMAL,
            issued_at: now,
            wal: None,
        };
        self.next_cmd += 1;
        self.counters.submitted += 1;
        self.clients[i].outstanding[io.backend] += 1;
        self.clients[i].gates[io.backend].on_submit(now);
        self.router.on_submit(BackendId(io.backend as u32));
        self.sanitizer
            .record(now.as_nanos(), "rack.issue", "submit", cmd.id.0);
        let h = self.phys_arena.alloc(Phys {
            logical: io.logical,
            backend: io.backend,
            attempt: 0,
            delivered: false,
            done_cpl: None,
            cmd,
        });
        self.phys.insert(cmd.id.0, h);
        if self.armed() {
            self.queue.push(
                now + self.retry.timeout_for(0),
                Ev::Timeout {
                    cmd: cmd.id.0,
                    attempt: 0,
                },
            );
        }
        self.send_command(i, cmd, now);
    }

    /// Transmit (or retransmit) a command capsule: client port → ToR →
    /// node, subject to injected capsule loss.
    fn send_command(&mut self, i: usize, cmd: NvmeCmd, now: SimTime) {
        if let Some(inj) = self.injector.as_mut() {
            if inj.drop_command(now) {
                self.counters.cmd_capsules_dropped += 1;
                self.trace.record(
                    now,
                    cmd.ssd,
                    Some(cmd.tenant),
                    EventKind::FaultInjected {
                        capsule: CapsuleKind::Command,
                    },
                );
                return;
            }
        }
        let mut at_tor = self
            .delays
            .command_arrival(&mut self.clients[i].tx_port, now, &cmd);
        if cmd.opcode.is_write() {
            at_tor = self
                .delays
                .write_payload_fetched(&mut self.clients[i].tx_port, at_tor, &cmd);
        }
        let node = self.cfg.node_of(cmd.ssd.index());
        let extra = self.link_extra(node, at_tor, cmd.ssd, cmd.tenant);
        let bytes = CMD_CAPSULE_BYTES
            + if cmd.opcode.is_write() {
                u64::from(cmd.len)
            } else {
                0
            };
        let arrive = self.tor.to_node(node, at_tor, bytes, extra);
        self.queue.push(
            arrive,
            Ev::DeliverCmd {
                backend: cmd.ssd.index(),
                cmd,
            },
        );
    }

    /// Transmit a completion capsule: node port → ToR → client. A dead or
    /// partitioned node emits nothing.
    fn send_completion(&mut self, backend: usize, cpl: NvmeCompletion, cmd: NvmeCmd, at: SimTime) {
        let node = self.cfg.node_of(backend);
        if self.node_down(node, at) {
            self.rack.tor_cpl_drops += 1;
            return;
        }
        if let Some(inj) = self.injector.as_mut() {
            if inj.drop_completion(at) {
                self.counters.cpl_capsules_dropped += 1;
                self.trace.record(
                    at,
                    cmd.ssd,
                    Some(cmd.tenant),
                    EventKind::FaultInjected {
                        capsule: CapsuleKind::Completion,
                    },
                );
                return;
            }
        }
        let at_tor = self
            .delays
            .completion_arrival(&mut self.node_ports[backend], at, &cmd);
        let extra = self.link_extra(node, at_tor, cmd.ssd, cmd.tenant);
        let bytes = RSP_CAPSULE_BYTES
            + if cmd.opcode.is_write() {
                0
            } else {
                u64::from(cmd.len)
            };
        let arrive = self.tor.from_node(node, at_tor, bytes, extra);
        self.queue.push(arrive, Ev::DeliverCpl { cpl });
    }

    /// Poll one pipeline, emit its completions, reschedule its wake. Dead
    /// nodes are frozen: their pipelines never pump again, and whatever was
    /// in flight inside them is recovered initiator-side by the ladder.
    fn pump(&mut self, backend: usize, now: SimTime) {
        if self.node_dead[self.cfg.node_of(backend)] {
            return;
        }
        let q = self.begin_quantum(backend, now);
        self.sanitizer
            .record(now.as_nanos(), "switch.pipeline", "pump", backend as u64);
        self.pipelines[backend].poll(now);
        self.drain_broker_journal(now);
        let mut outs = std::mem::take(&mut self.out_buf);
        self.pipelines[backend].take_outputs_into(&mut outs);
        for out in outs.drain(..) {
            self.sanitizer
                .record(now.as_nanos(), "switch.pipeline", "complete", out.cmd.id.0);
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
            if let Some(&h) = self.phys.get(&out.cmd.id.0) {
                self.phys_arena
                    .get_mut(h)
                    .expect("tracked handle is live")
                    .done_cpl = Some(cpl);
            }
            self.send_completion(backend, cpl, out.cmd, out.at);
        }
        self.out_buf = outs;
        if let Some(t) = self.pipelines[backend].next_event_at() {
            let t = t.max(now + SimDuration::from_nanos(1));
            if t < self.wake_at[backend] {
                self.wake_at[backend] = t;
                self.queue.push(t, Ev::PipelineWake(backend));
            }
        }
        self.end_quantum(backend, q);
    }

    /// Open a poll quantum for `backend` on whichever of its node's cores
    /// the scheduler picks, repointing the pipeline there and forwarding
    /// any steal decision into the journal *before* the quantum's own
    /// records — so a steal-order flip localizes to component `cores`.
    fn begin_quantum(&mut self, backend: usize, now: SimTime) -> Quantum {
        let node = self.cfg.node_of(backend);
        let local = backend % self.cfg.ssds_per_node as usize;
        let q = self.scheds[node].begin(local, now);
        let core = self.scheds[node].core_rc(q.core());
        self.pipelines[backend].set_core(core);
        self.drain_cores_journal(node, now);
        q
    }

    /// Close a poll quantum, attributing the CPU time it consumed.
    fn end_quantum(&mut self, backend: usize, q: Quantum) {
        let node = self.cfg.node_of(backend);
        self.scheds[node].end(backend % self.cfg.ssds_per_node as usize, q);
    }

    /// Forward one node scheduler's queued decisions into the divergence
    /// journal. Keys are offset to rack-global core/pipeline indices so
    /// same-named decisions on different nodes stay distinguishable.
    fn drain_cores_journal(&mut self, node: usize, now: SimTime) {
        let base = node as u64 * u64::from(self.cfg.ssds_per_node);
        let sanitizer = &self.sanitizer;
        self.scheds[node].drain_journal_with(|op, key| {
            sanitizer.record(now.as_nanos(), "cores", op, base + key);
        });
    }

    /// Mark a node suspect (idempotent while suspicion lasts).
    fn suspect_node(&mut self, node: usize, now: SimTime) {
        let first = BackendId((node as u32) * self.cfg.ssds_per_node);
        if self.router.is_suspect(first) {
            return;
        }
        for s in 0..self.cfg.ssds_per_node {
            self.router
                .mark_suspect(BackendId(node as u32 * self.cfg.ssds_per_node + s));
        }
        self.rack.nodes_suspected += 1;
        self.trace.record(
            now,
            SsdId(first.0),
            None,
            EventKind::NodeSuspected { node: node as u32 },
        );
        self.sanitizer
            .record(now.as_nanos(), "rack.route", "suspect", node as u64);
    }

    /// A completion arrived from `node`: it answered, so suspicion clears.
    fn clear_suspect_node(&mut self, node: usize) {
        let first = BackendId((node as u32) * self.cfg.ssds_per_node);
        if !self.router.is_suspect(first) {
            return;
        }
        for s in 0..self.cfg.ssds_per_node {
            self.router
                .clear_suspect(BackendId(node as u32 * self.cfg.ssds_per_node + s));
        }
    }

    /// Remove a physical command that timed out terminally or is being
    /// abandoned for a reroute, settling its client/gate/router state.
    fn abandon_phys(&mut self, cmd: u64, attempt: u32, now: SimTime) {
        let h = self.phys.remove(&cmd).expect("abandoning a tracked cmd");
        let p = self
            .phys_arena
            .free(h)
            .expect("tracked handle is live at abandon");
        self.counters.timed_out += 1;
        self.trace.record(
            now,
            p.cmd.ssd,
            Some(p.cmd.tenant),
            EventKind::TimedOut {
                cmd,
                attempts: attempt + 1,
            },
        );
        let i = p.cmd.tenant.index();
        self.clients[i].outstanding[p.backend] -= 1;
        self.clients[i].gates[p.backend].on_timeout(now);
        self.router.on_completion(BackendId(p.backend as u32), None);
        self.logical
            .get_mut(&p.logical)
            .expect("live logical")
            .pending -= 1;
    }

    /// Route an in-error read to an untried live replica. Returns false
    /// when none exists (the caller then finalizes the typed error).
    fn reroute_read(&mut self, lg_id: u64, from: usize, old_cmd: u64, now: SimTime) -> bool {
        let (client, offset, blocks) = {
            let lg = self.logical.get(&lg_id).expect("live logical");
            (lg.client, lg.offset, lg.blocks)
        };
        let file = self.clients[client].file;
        let pair = self.bs.replicas_at(file, offset);
        let mut cands: Vec<BackendId> = Vec::new();
        for b in [pair[0], pair[1]] {
            let tried = &self.logical.get(&lg_id).expect("live logical").tried;
            if !cands.contains(&b) && !tried.contains(&b.0) && !self.router.is_dead(b) {
                cands.push(b);
            }
        }
        if cands.is_empty() {
            return false;
        }
        let Some(b) = self.route(&cands, now, "reroute") else {
            return false;
        };
        self.rack.reroutes += 1;
        self.trace.record(
            now,
            SsdId(b.0),
            Some(TenantId(client as u32)),
            EventKind::Rerouted {
                cmd: old_cmd,
                from_node: self.cfg.node_of(from) as u32,
                to_node: self.cfg.node_of(b.index()) as u32,
            },
        );
        {
            let lg = self.logical.get_mut(&lg_id).expect("live logical");
            lg.tried.push(b.0);
            lg.pending += 1;
        }
        let plan = self
            .bs
            .plan_read(file, offset, blocks, |pair| usize::from(pair[0] != b))[0];
        self.clients[client].pending[plan.backend.index()].push_back(PendIo {
            logical: lg_id,
            backend: plan.backend.index(),
            lba: plan.lba,
            blocks: plan.blocks,
            op: IoType::Read,
        });
        self.dispatch(client, now);
        true
    }

    /// Forward queued broker ledger decisions into the divergence journal,
    /// stamped with the engine's current tick (keeps journal ticks monotone
    /// while preserving decision order).
    fn drain_broker_journal(&mut self, now: SimTime) {
        let Some(b) = &self.broker else { return };
        b.drain_journal_with(|op, key| self.sanitizer.record(now.as_nanos(), "broker", op, key));
    }

    /// One broker settlement boundary. Backends on dead or partitioned
    /// nodes drop out of the active set, so every account and debt touching
    /// them is forgiven — clients can't repay through a link that swallows
    /// capsules. Clients never stop at rack scale, so each live backend's
    /// active tenant set is all clients.
    fn broker_epoch(&mut self, now: SimTime) {
        let Some(broker) = self.broker.clone() else {
            return;
        };
        let mut active: Vec<(SsdId, Vec<TenantId>)> = Vec::new();
        for b in 0..self.pipelines.len() {
            if self.node_down(self.cfg.node_of(b), now) || self.pipelines[b].device().is_failed() {
                continue;
            }
            let tenants = (0..self.clients.len() as u32).map(TenantId).collect();
            active.push((SsdId(b as u32), tenants));
        }
        broker.settle_epoch(now, &active);
        broker.end_epoch();
        self.drain_broker_journal(now);
        // Settlement restores lender balances; parked requests may now
        // clear the gate.
        for b in 0..self.pipelines.len() {
            self.pump(b, now);
        }
        let epoch = self.cfg.broker.as_ref().expect("broker cfg").epoch;
        self.queue.push(now + epoch, Ev::BrokerEpoch);
    }

    fn record_ack(&mut self, lg: &Logical, now: SimTime) {
        let c = &mut self.clients[lg.client];
        c.inflight -= 1;
        if now >= self.warm && now < self.end {
            c.ops_done += 1;
            let lat = now.since(lg.started);
            if lg.is_read {
                c.read_hist.record_duration(lat);
            } else {
                c.write_hist.record_duration(lat);
            }
        }
    }

    fn finish_read_ok(&mut self, lg_id: u64, now: SimTime) {
        let lg = self.logical.remove(&lg_id).expect("live logical");
        self.rack.acked_ok += 1;
        self.record_ack(&lg, now);
    }

    fn finish_failed(&mut self, lg_id: u64, _now: SimTime) {
        let lg = self.logical.remove(&lg_id).expect("live logical");
        self.rack.failed_typed += 1;
        self.clients[lg.client].inflight -= 1;
    }

    fn finish_write(&mut self, lg_id: u64, now: SimTime) {
        let lg = self.logical.remove(&lg_id).expect("live logical");
        if lg.ok_sides > 0 {
            if lg.err_sides > 0 || lg.degraded {
                self.rack.acked_degraded += 1;
            } else {
                self.rack.acked_ok += 1;
            }
            self.record_ack(&lg, now);
        } else {
            self.rack.failed_typed += 1;
            self.clients[lg.client].inflight -= 1;
        }
    }

    fn run(mut self) -> RackResult {
        while let Some((now, ev)) = self.queue.pop() {
            if now > self.end {
                break;
            }
            if self.sanitizer.is_enabled() {
                let (component, op, key) = match &ev {
                    Ev::ClientStart(i) => ("rack.client", "start", *i as u64),
                    Ev::DeliverCmd { cmd, .. } => ("rack.fabric", "deliver_cmd", cmd.id.0),
                    Ev::PipelineWake(b) => ("rack.wake", "wake", *b as u64),
                    Ev::DeliverCpl { cpl } => ("rack.fabric", "deliver_cpl", cpl.id.0),
                    Ev::Timeout { cmd, .. } => ("rack.fault", "timeout", *cmd),
                    Ev::NodeDeath(n) => ("rack.node", "death", *n as u64),
                    Ev::BrokerEpoch => ("engine.broker", "epoch", 0),
                    Ev::CoresRebalance => ("engine.cores", "rebalance", 0),
                };
                self.sanitizer.record(now.as_nanos(), component, op, key);
            }
            match ev {
                Ev::ClientStart(i) => {
                    self.issue_logical(i, now);
                    self.dispatch(i, now);
                }
                Ev::BrokerEpoch => self.broker_epoch(now),
                Ev::CoresRebalance => {
                    for node in 0..self.scheds.len() {
                        self.scheds[node].rebalance(now);
                        self.drain_cores_journal(node, now);
                    }
                    if let Some(e) = self.scheds.first().and_then(CoreScheduler::rebalance_epoch) {
                        self.queue.push(now + e, Ev::CoresRebalance);
                    }
                }
                Ev::NodeDeath(node) => {
                    if self.node_dead[node] {
                        continue;
                    }
                    self.node_dead[node] = true;
                    for s in 0..self.cfg.ssds_per_node {
                        self.router
                            .mark_dead(BackendId(node as u32 * self.cfg.ssds_per_node + s));
                    }
                    self.trace.record(
                        now,
                        SsdId(node as u32 * self.cfg.ssds_per_node),
                        None,
                        EventKind::NodeDead { node: node as u32 },
                    );
                }
                Ev::DeliverCmd { backend, cmd } => {
                    let node = self.cfg.node_of(backend);
                    if self.node_down(node, now) {
                        self.rack.tor_cmd_drops += 1;
                        continue;
                    }
                    match self
                        .phys
                        .get(&cmd.id.0)
                        .copied()
                        .map(|h| self.phys_arena.get_mut(h).expect("tracked handle is live"))
                    {
                        // Initiator already abandoned it (rerouted or
                        // terminal): late replay, ignore.
                        None => self.counters.duplicate_cmds_ignored += 1,
                        Some(p) if p.delivered => match p.done_cpl {
                            Some(cpl) => {
                                self.counters.completions_resent += 1;
                                self.send_completion(backend, cpl, cmd, now);
                            }
                            None => self.counters.duplicate_cmds_ignored += 1,
                        },
                        Some(p) => {
                            p.delivered = true;
                            // Submit-path CPU cost is charged inside
                            // `on_command`, so it runs under its own quantum
                            // (same-tick `begin`s reuse one core decision).
                            let q = self.begin_quantum(backend, now);
                            self.pipelines[backend].on_command(cmd, now);
                            self.end_quantum(backend, q);
                            self.pump(backend, now);
                        }
                    }
                }
                Ev::PipelineWake(backend) => {
                    if self.wake_at[backend] == now {
                        self.wake_at[backend] = SimTime::MAX;
                        self.pump(backend, now);
                    }
                }
                Ev::DeliverCpl { cpl } => {
                    let Some(h) = self.phys.remove(&cpl.id.0) else {
                        self.counters.stale_completions_ignored += 1;
                        continue;
                    };
                    let p = self
                        .phys_arena
                        .free(h)
                        .expect("tracked handle is live at completion");
                    let i = cpl.tenant.index();
                    let b = p.backend;
                    self.clients[i].outstanding[b] -= 1;
                    self.clients[i].gates[b].on_completion(&cpl, now);
                    self.router.on_completion(BackendId(b as u32), cpl.credit);
                    let ok = cpl.status.is_success();
                    if ok {
                        self.counters.completed_ok += 1;
                        self.clear_suspect_node(self.cfg.node_of(b));
                    } else {
                        self.counters.completed_err += 1;
                        // The error completion is the client's first sight
                        // of a flash failure: hard-exclude the backend and
                        // recover via its replica (§4.3).
                        self.router.mark_dead(BackendId(b as u32));
                    }
                    let lg_id = p.logical;
                    let (is_read, pending_left) = {
                        let lg = self.logical.get_mut(&lg_id).expect("live logical");
                        lg.pending -= 1;
                        if !lg.is_read {
                            if ok {
                                lg.ok_sides += 1;
                            } else {
                                lg.err_sides += 1;
                            }
                        }
                        (lg.is_read, lg.pending)
                    };
                    if is_read {
                        if ok {
                            self.finish_read_ok(lg_id, now);
                        } else if !self.reroute_read(lg_id, b, cpl.id.0, now) {
                            self.finish_failed(lg_id, now);
                        }
                    } else if pending_left == 0 {
                        self.finish_write(lg_id, now);
                    }
                    self.issue_logical(i, now);
                    self.dispatch(i, now);
                }
                Ev::Timeout { cmd, attempt } => {
                    let Some(p) = self
                        .phys
                        .get(&cmd)
                        .map(|&h| self.phys_arena.get(h).expect("tracked handle is live"))
                    else {
                        continue; // resolved before the timer fired
                    };
                    if p.attempt != attempt {
                        continue; // superseded by a retransmission's timer
                    }
                    let (i, b, lg_id, pcmd) = (p.cmd.tenant.index(), p.backend, p.logical, p.cmd);
                    let can_reroute = {
                        let lg = self.logical.get(&lg_id).expect("live logical");
                        lg.is_read && {
                            let pair = self.bs.replicas_at(self.clients[i].file, lg.offset);
                            [pair[0], pair[1]]
                                .iter()
                                .any(|r| !lg.tried.contains(&r.0) && !self.router.is_dead(*r))
                        }
                    };
                    match self.retry.escalate(attempt, can_reroute) {
                        EscalationAction::Retransmit => {
                            let next = attempt + 1;
                            let h = *self.phys.get(&cmd).expect("tracked");
                            self.phys_arena
                                .get_mut(h)
                                .expect("tracked handle is live")
                                .attempt = next;
                            self.counters.retries += 1;
                            let t = self.retry.timeout_for(next);
                            self.trace.record(
                                now,
                                pcmd.ssd,
                                Some(pcmd.tenant),
                                EventKind::RetryScheduled {
                                    cmd,
                                    attempt: next,
                                    timeout_ns: t.as_nanos(),
                                },
                            );
                            self.queue.push(now + t, Ev::Timeout { cmd, attempt: next });
                            self.send_command(i, pcmd, now);
                        }
                        EscalationAction::SuspectAndReroute => {
                            self.abandon_phys(cmd, attempt, now);
                            self.suspect_node(self.cfg.node_of(b), now);
                            if !self.reroute_read(lg_id, b, cmd, now) {
                                self.finish_failed(lg_id, now);
                            }
                            self.issue_logical(i, now);
                            self.dispatch(i, now);
                        }
                        EscalationAction::Terminal => {
                            self.abandon_phys(cmd, attempt, now);
                            let (is_read, pending_left) = {
                                let lg = self.logical.get_mut(&lg_id).expect("live logical");
                                if !lg.is_read {
                                    lg.err_sides += 1;
                                }
                                (lg.is_read, lg.pending)
                            };
                            if is_read {
                                self.finish_failed(lg_id, now);
                            } else if pending_left == 0 {
                                self.finish_write(lg_id, now);
                            }
                            self.issue_logical(i, now);
                            self.dispatch(i, now);
                        }
                    }
                }
            }
        }

        self.counters.in_flight_at_end = self.phys.len() as u64;
        self.rack.in_flight_at_end = self.logical.len() as u64;
        debug_assert!(
            self.counters.conservation_holds(),
            "physical conservation violated: {:?}",
            self.counters
        );
        debug_assert!(
            self.rack.logical_conservation_holds(),
            "logical conservation violated: {:?}",
            self.rack
        );

        // Broker conservation must hold at every exit, including chaos
        // runs where debts were forgiven on node death.
        if let Some(b) = &self.broker {
            b.audit();
        }

        let nodes = self.cfg.nodes as usize;
        RackResult {
            clients: self
                .clients
                .iter()
                .map(|c| RackClientResult {
                    ops: c.ops_done,
                    read_latency: c.read_hist.summary(),
                    write_latency: c.write_hist.summary(),
                })
                .collect(),
            ssd_stats: self.pipelines.iter().map(|p| p.device().stats()).collect(),
            physical: self.counters,
            rack: self.rack,
            tor_bytes_down: (0..nodes).map(|n| self.tor.bytes_down(n)).collect(),
            tor_bytes_up: (0..nodes).map(|n| self.tor.bytes_up(n)).collect(),
            window: self.cfg.duration - self.cfg.warmup,
            trace: self.tracer.take().map(|t| t.borrow_mut().finish()),
            access_journal: self.sanitizer.snapshot(),
            broker: self.broker.as_ref().map(|b| b.stats()),
            // Collected only when stealing was configured, so steal-off
            // digests are bit-identical to pre-scheduler builds.
            cores: match self.cfg.steal {
                Some(_) => self.scheds.iter().map(CoreScheduler::stats).collect(),
                None => Vec::new(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gimbal_sim::journal::first_divergence;
    use gimbal_sim::FaultWindow;
    use gimbal_testbed::{FaultConfig, Scheme};

    fn quick(scheme: Scheme) -> RackConfig {
        RackConfig {
            scheme,
            duration: SimDuration::from_millis(30),
            warmup: SimDuration::from_millis(5),
            ..RackConfig::default()
        }
    }

    #[test]
    fn fault_free_rack_serves_and_balances() {
        for scheme in Scheme::COMPARED {
            let res = RackTestbed::new(quick(scheme)).run();
            let ops: u64 = res.clients.iter().map(|c| c.ops).sum();
            assert!(ops > 50, "{scheme:?}: only {ops} ops");
            assert!(res.conservation_audit_holds(), "{scheme:?}");
            assert_eq!(res.rack.failed_typed, 0, "{scheme:?}");
            assert_eq!(res.physical.timed_out, 0, "{scheme:?}");
            // Replicated writes touch more than one node.
            let nodes_written = (0..3)
                .filter(|&n| (0..2).any(|s| res.ssd_stats[n * 2 + s].writes > 0))
                .count();
            assert!(nodes_written >= 2, "{scheme:?}: {nodes_written}");
        }
    }

    #[test]
    fn plan_targeting_absent_nodes_is_bit_identical_to_fault_free() {
        let base = RackConfig {
            sanitize: true,
            ..quick(Scheme::Gimbal)
        };
        let clean = RackTestbed::new(base.clone()).run();
        let absent = RackTestbed::new(RackConfig {
            faults: Some(FaultConfig {
                // Node 7 does not exist in a 3-node rack: the plan is inert
                // and must not even arm timers.
                plan: FaultPlan::default()
                    .with_node_death(7, SimTime::from_micros(1))
                    .with_node_gc_storm(
                        9,
                        FaultWindow::new(SimTime::ZERO, SimTime::from_millis(5)),
                    ),
                retry: RetryConfig::default(),
            }),
            ..base
        })
        .run();
        assert_eq!(clean.stats_digest(), absent.stats_digest());
        assert_eq!(clean.access_digest(), absent.access_digest());
        assert_eq!(absent.physical.timed_out, 0);
    }

    /// The 2-node borrowing chaos smoke: broker on, node 1 dies mid-run.
    /// The ledger must keep borrowing on the surviving node, forgive every
    /// account and debt stranded on the dead one, conserve tokens end to
    /// end, and stay bit-identical across a sanitized double run.
    #[test]
    fn broker_chaos_node_death_forgives_and_conserves() {
        let cfg = RackConfig {
            nodes: 2,
            ssds_per_node: 2,
            sanitize: true,
            duration: SimDuration::from_millis(40),
            broker: Some(gimbal_broker::BrokerConfig {
                // Entitled share (capacity / clients) is far below one
                // active client's demand, so borrowing from idle peers is
                // the only way to keep moving.
                capacity_bps: 8 * 1024 * 1024,
                burst_bytes: 256 * 1024,
                epoch: SimDuration::from_millis(5),
                ..gimbal_broker::BrokerConfig::default()
            }),
            faults: Some(FaultConfig {
                plan: FaultPlan::default().with_node_death(1, SimTime::from_millis(13)),
                retry: RetryConfig::default(),
            }),
            ..quick(Scheme::Gimbal)
        };
        let a = RackTestbed::new(cfg.clone()).run();
        let b = RackTestbed::new(cfg).run();
        assert_eq!(a.stats_digest(), b.stats_digest());
        assert_eq!(a.access_digest(), b.access_digest());
        let bs = a.broker.as_ref().expect("broker stats");
        assert!(bs.borrow_events > 0, "no borrowing happened: {bs:?}");
        assert!(bs.conservation_holds(), "ledger conservation: {bs:?}");
        assert_eq!(bs.floor_violations, 0);
        assert!(a.conservation_audit_holds());
        let ops: u64 = a.clients.iter().map(|c| c.ops).sum();
        assert!(ops > 0, "rack made no progress under the broker gate");
    }

    /// Broker-off rack runs must be bit-identical to the pre-broker build:
    /// same stats digest, same journal, with or without the `broker: None`
    /// field ever being read.
    #[test]
    fn broker_off_rack_is_bit_identical() {
        let cfg = RackConfig {
            sanitize: true,
            ..quick(Scheme::Gimbal)
        };
        let a = RackTestbed::new(cfg.clone()).run();
        let b = RackTestbed::new(cfg).run();
        assert_eq!(a.stats_digest(), b.stats_digest());
        assert_eq!(a.access_digest(), b.access_digest());
        assert!(a.broker.is_none());
    }

    #[test]
    fn sanitizer_localizes_injected_route_nondeterminism() {
        let cfg = RackConfig {
            sanitize: true,
            read_ratio: 1.0,
            ..quick(Scheme::FlashFq)
        };
        let clean = RackTestbed::new(cfg.clone()).run();
        let mut perturbed = RackTestbed::new(cfg);
        perturbed.perturb_first_route = true;
        let perturbed = perturbed.run();
        let ja = clean.access_journal.as_ref().expect("sanitizer on");
        let jb = perturbed.access_journal.as_ref().expect("sanitizer on");
        let r = first_divergence(ja, jb).expect("perturbation must diverge");
        // The first routing decision happens when client 0 starts, at tick
        // 0, and the divergence must name the routing component — not some
        // downstream victim.
        assert_eq!(r.tick, 0, "{r}");
        assert_eq!(r.component(), "rack.route", "{r}");
    }
}
