//! The rack-scale event loop.
//!
//! N JBOF nodes ([`Node`]), each `ssds_per_node` switch pipelines, behind
//! one deterministic ToR switch. Closed-loop clients issue logical IOs
//! against zone-replicated blobstore files; every logical read maps to one
//! physical NVMe command (plus reroutes), every logical write fans out to
//! one command per live replica.
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
//! a degraded ack, §4.3); they retransmit until exhaustion. The ladder is
//! the shared [`Initiator`]'s; this engine only answers whether a read can
//! reroute and carries out the reroute.
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
    BackendId, Blobstore, FileId, HbaConfig, HierarchicalAllocator, IoPlan, RateLimiter,
    ReplicaHealth,
};
use gimbal_broker::BrokerHandle;
use gimbal_fabric::{
    NvmeCmd, NvmeCompletion, Port, Priority, RdmaDelays, SsdId, TenantId, TorSwitch,
    CMD_CAPSULE_BYTES, RSP_CAPSULE_BYTES,
};
use gimbal_sim::collections::DetMap;
use gimbal_sim::journal::JournalHandle;
use gimbal_sim::{EventQueue, FaultPlan, Histogram, SimDuration, SimRng, SimTime, SsdFaultSpec};
use gimbal_ssd::FlashSsd;
use gimbal_switch::PipelineOut;
use gimbal_telemetry::{CapsuleKind, EventKind, TraceHandle};
use gimbal_testbed::initiator::{Expiry, Initiator, Timer};
use gimbal_testbed::{recorders, Node, NodeHost, NodeSpec, Tracing, Tracked};

/// One closed-loop client. Its gates, queues and port are the initiator's.
struct Client {
    file: FileId,
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
    tried: Tried,
}

/// The replica backends a read has been routed to: at most the two copies
/// of its span, since a reroute never revisits one.
#[derive(Clone, Copy, Default)]
struct Tried([Option<u32>; 2]);

impl Tried {
    fn contains(&self, b: u32) -> bool {
        self.0.contains(&Some(b))
    }

    fn insert(&mut self, b: u32) {
        let slot = self
            .0
            .iter_mut()
            .find(|s| s.is_none())
            .expect("a read has at most two replicas to try");
        *slot = Some(b);
    }
}

/// The replicas of read `lg`'s span it may still be routed to: live, not
/// yet tried, and without duplicates.
fn untried(
    lg: &Logical,
    file: FileId,
    bs: &Blobstore,
    router: &RateLimiter,
) -> ([BackendId; 2], usize) {
    let pair = bs.replicas_at(file, lg.offset);
    let (mut cands, mut n) = (pair, 0);
    for b in pair {
        if !cands[..n].contains(&b) && !lg.tried.contains(b.0) && !router.is_dead(b) {
            cands[n] = b;
            n += 1;
        }
    }
    (cands, n)
}

enum Ev {
    ClientStart(usize),
    DeliverCmd(NvmeCmd),
    PipelineWake(usize),
    DeliverCpl(NvmeCompletion),
    Timeout(Timer),
    NodeDeath(usize),
    /// Broker settlement boundary (only scheduled when the broker is on):
    /// repays debts and forgives accounts on dead nodes' backends.
    BrokerEpoch,
    /// Core-scheduler rebalance boundary (only scheduled when stealing is
    /// on with a non-zero rebalance period): every node's scheduler
    /// re-derives home assignments from last epoch's per-pipeline load.
    CoresRebalance,
}

/// What the nodes call back into: the event queue, the ToR path back to
/// the clients, the clients' initiator, and the fault state every crossing
/// consults.
struct Net {
    queue: EventQueue<Ev>,
    delays: RdmaDelays,
    tor: TorSwitch,
    node_ports: Vec<Port>,
    ssds_per_node: usize,
    /// One client per rack client, one lane per backend. Physical IOs wait
    /// as (logical IO, plan), and each command is tagged with the logical
    /// IO it serves.
    init: Initiator<u64, (u64, IoPlan)>,
    rack: RackCounters,
    /// `Some` only when the plan actually targets this rack: a plan whose
    /// every fault is aimed at absent nodes/SSDs runs exactly like
    /// `faults: None`, timers and all.
    active_plan: Option<FaultPlan>,
    node_dead: Vec<bool>,
    trace: TraceHandle,
}

impl Net {
    fn node_of(&self, backend: usize) -> usize {
        backend / self.ssds_per_node
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

    /// Transmit (or retransmit) a command capsule: client port → ToR →
    /// node, subject to injected capsule loss, after arming its timer when
    /// one comes.
    fn send_command(&mut self, cmd: NvmeCmd, timer: Option<Timer>, now: SimTime) {
        if let Some(t) = timer {
            self.queue.push(t.at, Ev::Timeout(t));
        }
        if self.init.lose(CapsuleKind::Command, &cmd, now) {
            return;
        }
        let at_tor = self.init.wire(&self.delays, &cmd, now);
        let node = self.node_of(cmd.ssd.index());
        let extra = self.link_extra(node, at_tor, cmd.ssd, cmd.tenant);
        let bytes = CMD_CAPSULE_BYTES
            + if cmd.opcode.is_write() {
                u64::from(cmd.len)
            } else {
                0
            };
        let arrive = self.tor.to_node(node, at_tor, bytes, extra);
        self.queue.push(arrive, Ev::DeliverCmd(cmd));
    }

    /// Queue the physical IO `plan` of logical IO `logical` behind client
    /// `i`'s gate for its backend.
    fn enqueue(&mut self, i: usize, logical: u64, plan: IoPlan) {
        let backend = plan.backend.index();
        self.init
            .enqueue(i, backend, Priority::NORMAL, (logical, plan));
    }
}

impl NodeHost for Net {
    type Tag = u64;

    fn arm_wake(&mut self, backend: usize, at: SimTime) {
        self.queue.push(at, Ev::PipelineWake(backend));
    }

    fn served(&mut self, _: usize, _: &PipelineOut, _: SimTime) {}

    /// Completion capsules go node port → ToR → client. A dead or
    /// partitioned node emits nothing.
    fn send(&mut self, backend: usize, cmd: &NvmeCmd, cpl: NvmeCompletion, at: SimTime) {
        let node = self.node_of(backend);
        if self.node_down(node, at) {
            self.rack.tor_cpl_drops += 1;
            return;
        }
        if self.init.lose(CapsuleKind::Completion, cmd, at) {
            return;
        }
        let at_tor = self
            .delays
            .completion_arrival(&mut self.node_ports[backend], at, cmd);
        let extra = self.link_extra(node, at_tor, cmd.ssd, cmd.tenant);
        let bytes = RSP_CAPSULE_BYTES
            + if cmd.opcode.is_write() {
                0
            } else {
                u64::from(cmd.len)
            };
        let arrive = self.tor.from_node(node, at_tor, bytes, extra);
        self.queue.push(arrive, Ev::DeliverCpl(cpl));
    }

    fn in_flight(&mut self) -> Option<Tracked<'_, u64>> {
        self.init.in_flight()
    }
}

/// The rack experiment.
pub struct RackTestbed {
    cfg: RackConfig,
    /// The JBOF nodes, in node order. Stealing never crosses the ToR: each
    /// node schedules only its own cores.
    nodes: Vec<Node>,
    net: Net,
    /// Shared routing view: per-backend credit/outstanding/dead/suspect.
    /// Gating is the initiator's, so this limiter is disabled.
    router: RateLimiter,
    bs: Blobstore,
    clients: Vec<Client>,
    logical: DetMap<u64, Logical>,
    /// Recycled blobstore plan buffer; empty between logical IOs.
    plans: Vec<IoPlan>,
    next_logical: u64,
    tracer: Tracing,
    sanitizer: JournalHandle,
    /// Shared borrow ledger (`None` = broker off).
    broker: Option<BrokerHandle>,
    end: SimTime,
    warm: SimTime,
    /// Test-only nondeterminism injector: flip the first read-routing
    /// decision to a different live replica. Exists to prove the sanitizer
    /// localizes cross-node routing nondeterminism to its tick and the
    /// `rack.route` component.
    #[cfg(test)]
    perturb_first_route: bool,
    #[cfg(test)]
    perturb_done: bool,
}

impl RackTestbed {
    /// Create the experiment (panics on inconsistent configuration).
    pub fn new(cfg: RackConfig) -> Self {
        cfg.validate();
        let mut root_rng = SimRng::new(cfg.seed);
        let backends = cfg.backends() as usize;
        let nodes = cfg.nodes as usize;

        // A fault plan is "active" only if some target exists in this rack;
        // node faults aimed past `nodes` (or SSD faults past `backends`) are
        // inert, so such a plan must not even arm timers — that keeps the
        // run bit-identical to a fault-free one.
        let faults = cfg.faults.as_ref().filter(|fc| {
            let p = &fc.plan;
            p.cmd_loss_prob > 0.0
                || p.cpl_loss_prob > 0.0
                || !p.burst_windows.is_empty()
                || (0..backends).any(|i| p.ssd_spec(i).is_some())
                || (0..nodes).any(|n| p.node_spec(n).is_some())
        });
        let active_plan = faults.map(|fc| fc.plan.clone());

        let (tracer, trace, sanitizer) = recorders(cfg.trace.as_ref(), cfg.sanitize);
        let broker = cfg
            .broker
            .as_ref()
            .map(|bc| BrokerHandle::new(bc.clone(), trace.clone()));
        let spn = cfg.ssds_per_node as usize;
        let rack_nodes: Vec<Node> = (0..nodes)
            .map(|n| {
                Node::build(
                    NodeSpec {
                        first_ssd: n * spn,
                        ssds: spn,
                        cores: spn,
                        scheme: cfg.scheme,
                        gimbal_params: cfg.gimbal_params,
                        ssd: &cfg.ssd,
                        precondition: cfg.precondition,
                        cpu_cost: cfg.scheme.cpu_cost(false),
                        cache: None,
                        broker: broker.clone(),
                        steal: cfg.steal.clone(),
                        seed: cfg.seed,
                        trace: &trace,
                        sanitizer: &sanitizer,
                    },
                    &mut root_rng,
                    |i| {
                        let Some(p) = &active_plan else {
                            return SsdFaultSpec::default();
                        };
                        // Node-scoped GC storms are *correlated* device
                        // storms: fold them into every member SSD's stall
                        // windows so the device model both stalls and
                        // advertises `gc_busy`.
                        let mut spec = p.ssd_spec(i).cloned().unwrap_or_default();
                        if let Some(ns) = p.node_spec(n) {
                            spec.stall_windows
                                .extend(ns.gc_storm_windows.iter().copied());
                        }
                        spec
                    },
                )
            })
            .collect();

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
        if let Some(e) = rack_nodes.first().and_then(Node::rebalance_epoch) {
            queue.push(SimTime::ZERO + e, Ev::CoresRebalance);
        }

        RackTestbed {
            nodes: rack_nodes,
            net: Net {
                queue,
                delays: RdmaDelays::new(cfg.fabric),
                tor: TorSwitch::new(cfg.tor, nodes),
                node_ports: (0..backends)
                    .map(|_| Port::new(cfg.fabric.port_bandwidth))
                    .collect(),
                ssds_per_node: spn,
                init: Initiator::new(
                    clients.len(),
                    backends,
                    cfg.fabric.port_bandwidth,
                    faults,
                    cfg.seed,
                    trace.clone(),
                    || cfg.scheme.client_gate(cfg.gimbal_params, true),
                ),
                rack: RackCounters::default(),
                active_plan,
                node_dead: vec![false; nodes],
                trace,
            },
            router,
            bs,
            clients,
            logical: DetMap::new(),
            plans: Vec::new(),
            next_logical: 0,
            tracer,
            sanitizer,
            broker,
            end: SimTime::ZERO + cfg.duration,
            warm: SimTime::ZERO + cfg.warmup,
            cfg,
            #[cfg(test)]
            perturb_first_route: false,
            #[cfg(test)]
            perturb_done: false,
        }
    }

    /// The device behind backend `b`.
    fn device(&self, b: usize) -> &FlashSsd {
        let spn = self.net.ssds_per_node;
        self.nodes[b / spn].pipelines()[b % spn].device()
    }

    /// Environment-sourced health of one backend, as the router sees it.
    fn backend_health(&self, b: BackendId, now: SimTime) -> ReplicaHealth {
        let node = self.cfg.node_of(b.index());
        let spec = self
            .net
            .active_plan
            .as_ref()
            .and_then(|p| p.node_spec(node));
        ReplicaHealth {
            partitioned: spec.is_some_and(|s| s.dead(now) || s.partitioned(now)),
            // The GC signal is read straight off the device model, so
            // organic die-level collections steer exactly like injected
            // storms. The blind baseline reports "never busy".
            gc_busy: self.cfg.gc_aware_routing && self.device(b.index()).gc_busy(now),
        }
    }

    /// Pick a replica among `cands` (at most the two copies of one span)
    /// via the GC/failure-aware chooser, and journal the decision (`op` is
    /// "choose" or "reroute").
    fn route(&mut self, cands: &[BackendId], now: SimTime, op: &'static str) -> Option<BackendId> {
        let mut healths = [ReplicaHealth::default(); 2];
        for (h, &b) in healths.iter_mut().zip(cands) {
            *h = self.backend_health(b, now);
        }
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

    /// The first IO of a read of `file` served by its copy on `b`, planned
    /// in the recycled buffer.
    fn plan_read(&mut self, file: FileId, offset: u64, blocks: u64, b: BackendId) -> IoPlan {
        self.bs.plan_read_into(
            file,
            offset,
            blocks,
            |pair| usize::from(pair[0] != b),
            &mut self.plans,
        );
        let plan = self.plans[0];
        self.plans.clear();
        plan
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
            self.net.rack.issued += 1;
            self.clients[i].inflight += 1;
            if is_read {
                let pair = self.bs.replicas_at(file, offset);
                let n = if pair[0] == pair[1] { 1 } else { 2 };
                let Some(b) = self.route(&pair[..n], now, "choose") else {
                    // Every replica of this span is dead: typed error at
                    // issue, never a panic.
                    self.net.rack.failed_typed += 1;
                    self.clients[i].inflight -= 1;
                    continue;
                };
                let plan = self.plan_read(file, offset, io_blocks, b);
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
                        tried: Tried([Some(b.0), None]),
                    },
                );
                self.net.enqueue(i, id, plan);
            } else {
                let router = &self.router;
                match self.bs.plan_write_degraded_into(
                    file,
                    offset,
                    io_blocks,
                    |b| router.is_dead(b),
                    &mut self.plans,
                ) {
                    Err(_) => {
                        // No live replica can take the write.
                        self.net.rack.failed_typed += 1;
                        self.clients[i].inflight -= 1;
                    }
                    Ok(degraded) => {
                        self.logical.insert(
                            id,
                            Logical {
                                client: i,
                                offset,
                                blocks: io_blocks,
                                is_read: false,
                                started: now,
                                pending: self.plans.len() as u32,
                                ok_sides: 0,
                                err_sides: 0,
                                degraded,
                                tried: Tried::default(),
                            },
                        );
                        for p in self.plans.drain(..) {
                            self.net.enqueue(i, id, p);
                        }
                    }
                }
            }
        }
    }

    /// Drain client `i`'s per-backend pending queues through its gates onto
    /// the fabric.
    fn dispatch(&mut self, i: usize, now: SimTime) {
        for b in 0..self.cfg.backends() as usize {
            while let Some((logical, plan)) = self.net.init.next_pending(i, b, now) {
                let (cmd, timer) = self.net.init.submit(logical, now, |id| NvmeCmd {
                    id,
                    tenant: TenantId(i as u32),
                    ssd: SsdId(plan.backend.0),
                    opcode: plan.op,
                    lba: plan.lba,
                    len: (plan.blocks * 4096) as u32,
                    priority: Priority::NORMAL,
                    issued_at: now,
                    wal: None,
                });
                self.router.on_submit(plan.backend);
                self.sanitizer
                    .record(now.as_nanos(), "rack.issue", "submit", cmd.id.0);
                self.net.send_command(cmd, timer, now);
            }
        }
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
        self.net.rack.nodes_suspected += 1;
        self.net.trace.record(
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

    /// One physical side of logical IO `lg_id` on backend `b` resolved,
    /// `ok` or not (`cmd` names it in reroute events): finish the logical
    /// IO or reroute a failed read, then refill the client's loop.
    fn side_done(&mut self, lg_id: u64, ok: bool, b: usize, cmd: u64, now: SimTime) {
        let lg = self.logical.get_mut(&lg_id).expect("live logical");
        lg.pending -= 1;
        if !lg.is_read {
            if ok {
                lg.ok_sides += 1;
            } else {
                lg.err_sides += 1;
            }
        }
        let (i, is_read, pending_left) = (lg.client, lg.is_read, lg.pending);
        if is_read {
            if ok {
                self.finish_read_ok(lg_id, now);
            } else if !self.reroute_read(lg_id, b, cmd, now) {
                self.finish_failed(lg_id, now);
            }
        } else if pending_left == 0 {
            self.finish_write(lg_id, now);
        }
        self.issue_logical(i, now);
        self.dispatch(i, now);
    }

    /// Route an in-error read to an untried live replica. Returns false
    /// when none exists (the caller then finalizes the typed error).
    fn reroute_read(&mut self, lg_id: u64, from: usize, old_cmd: u64, now: SimTime) -> bool {
        let lg = self.logical.get(&lg_id).expect("live logical");
        let (client, offset, blocks) = (lg.client, lg.offset, lg.blocks);
        let file = self.clients[client].file;
        let (cands, n) = untried(lg, file, &self.bs, &self.router);
        if n == 0 {
            return false;
        }
        let Some(b) = self.route(&cands[..n], now, "reroute") else {
            return false;
        };
        self.net.rack.reroutes += 1;
        self.net.trace.record(
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
            lg.tried.insert(b.0);
            lg.pending += 1;
        }
        let plan = self.plan_read(file, offset, blocks, b);
        self.net.enqueue(client, lg_id, plan);
        self.dispatch(client, now);
        true
    }

    /// A retransmission timer fired. A read may reroute while an untried
    /// live replica holds its span; an abandoned side settles the router
    /// and the logical IO.
    fn timeout(&mut self, t: Timer, now: SimTime) {
        let (logical, bs, clients, router) = (&self.logical, &self.bs, &self.clients, &self.router);
        let can_reroute = |lg_id: &u64| {
            let lg = logical.get(lg_id).expect("live logical");
            lg.is_read && untried(lg, clients[lg.client].file, bs, router).1 > 0
        };
        match self.net.init.on_timer(t, now, can_reroute) {
            Some(Expiry::Retransmit { cmd, timer }) => self.net.send_command(cmd, Some(timer), now),
            Some(Expiry::Abandoned { entry, reroute }) => {
                let b = entry.cmd.ssd.index();
                self.router.on_completion(BackendId(b as u32), None);
                if reroute {
                    self.suspect_node(self.cfg.node_of(b), now);
                }
                self.side_done(entry.tag, false, b, t.cmd, now);
            }
            None => {}
        }
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
        for b in 0..self.cfg.backends() as usize {
            if self.net.node_down(self.cfg.node_of(b), now) || self.device(b).is_failed() {
                continue;
            }
            let tenants = (0..self.clients.len() as u32).map(TenantId).collect();
            active.push((SsdId(b as u32), tenants));
        }
        broker.settle_epoch(now, &active);
        broker.end_epoch();
        broker
            .drain_journal_with(|op, key| self.sanitizer.record(now.as_nanos(), "broker", op, key));
        // Settlement restores lender balances; parked requests may now
        // clear the gate. Dead nodes stay frozen.
        for (n, node) in self.nodes.iter_mut().enumerate() {
            if !self.net.node_dead[n] {
                node.pump_all(now, &mut self.net);
            }
        }
        let epoch = self.cfg.broker.as_ref().expect("broker cfg").epoch;
        self.net.queue.push(now + epoch, Ev::BrokerEpoch);
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
        self.net.rack.acked_ok += 1;
        self.record_ack(&lg, now);
    }

    fn finish_failed(&mut self, lg_id: u64, _now: SimTime) {
        let lg = self.logical.remove(&lg_id).expect("live logical");
        self.net.rack.failed_typed += 1;
        self.clients[lg.client].inflight -= 1;
    }

    fn finish_write(&mut self, lg_id: u64, now: SimTime) {
        let lg = self.logical.remove(&lg_id).expect("live logical");
        if lg.ok_sides > 0 {
            if lg.err_sides > 0 || lg.degraded {
                self.net.rack.acked_degraded += 1;
            } else {
                self.net.rack.acked_ok += 1;
            }
            self.record_ack(&lg, now);
        } else {
            self.net.rack.failed_typed += 1;
            self.clients[lg.client].inflight -= 1;
        }
    }

    /// Run it.
    pub fn run(mut self) -> RackResult {
        while let Some((now, ev)) = self.net.queue.pop() {
            if now > self.end {
                break;
            }
            if self.sanitizer.is_enabled() {
                let (component, op, key) = match &ev {
                    Ev::ClientStart(i) => ("rack.client", "start", *i as u64),
                    Ev::DeliverCmd(cmd) => ("rack.fabric", "deliver_cmd", cmd.id.0),
                    Ev::PipelineWake(b) => ("rack.wake", "wake", *b as u64),
                    Ev::DeliverCpl(cpl) => ("rack.fabric", "deliver_cpl", cpl.id.0),
                    Ev::Timeout(t) => ("rack.fault", "timeout", t.cmd),
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
                    for node in &mut self.nodes {
                        node.rebalance(now);
                    }
                    if let Some(e) = self.nodes.first().and_then(Node::rebalance_epoch) {
                        self.net.queue.push(now + e, Ev::CoresRebalance);
                    }
                }
                Ev::NodeDeath(node) => {
                    if self.net.node_dead[node] {
                        continue;
                    }
                    // The node is frozen from here on: its pipelines never
                    // pump again, and whatever was in flight inside them is
                    // recovered initiator-side by the ladder.
                    self.net.node_dead[node] = true;
                    for s in 0..self.cfg.ssds_per_node {
                        self.router
                            .mark_dead(BackendId(node as u32 * self.cfg.ssds_per_node + s));
                    }
                    self.net.trace.record(
                        now,
                        SsdId(node as u32 * self.cfg.ssds_per_node),
                        None,
                        EventKind::NodeDead { node: node as u32 },
                    );
                }
                Ev::DeliverCmd(cmd) => {
                    let backend = cmd.ssd.index();
                    let node = self.cfg.node_of(backend);
                    if self.net.node_down(node, now) {
                        self.net.rack.tor_cmd_drops += 1;
                        continue;
                    }
                    self.nodes[node].deliver(backend, cmd, now, &mut self.net, 1, |_| None);
                }
                Ev::PipelineWake(backend) => {
                    let node = self.cfg.node_of(backend);
                    if !self.net.node_dead[node] {
                        self.nodes[node].wake(backend, now, &mut self.net);
                    }
                }
                Ev::DeliverCpl(cpl) => {
                    let Some(lg_id) = self.net.init.complete(&cpl, now) else {
                        continue;
                    };
                    let b = cpl.ssd.index();
                    self.router.on_completion(BackendId(b as u32), cpl.credit);
                    let ok = cpl.status.is_success();
                    if ok {
                        self.clear_suspect_node(self.cfg.node_of(b));
                    } else {
                        // The error completion is the client's first sight
                        // of a flash failure: hard-exclude the backend and
                        // recover via its replica (§4.3).
                        self.router.mark_dead(BackendId(b as u32));
                    }
                    self.side_done(lg_id, ok, b, cpl.id.0, now);
                }
                Ev::Timeout(t) => self.timeout(t, now),
            }
        }

        let physical = self.net.init.finish();
        let mut rack = self.net.rack;
        rack.in_flight_at_end = self.logical.len() as u64;
        debug_assert!(
            rack.logical_conservation_holds(),
            "logical conservation violated: {rack:?}"
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
            ssd_stats: self
                .nodes
                .iter()
                .flat_map(|n| n.device_results().ssd_stats)
                .collect(),
            physical,
            rack,
            tor_bytes_down: (0..nodes).map(|n| self.net.tor.bytes_down(n)).collect(),
            tor_bytes_up: (0..nodes).map(|n| self.net.tor.bytes_up(n)).collect(),
            window: self.cfg.duration - self.cfg.warmup,
            trace: self.tracer.finish(),
            access_journal: self.sanitizer.snapshot(),
            broker: self.broker.as_ref().map(|b| b.stats()),
            cores: self.nodes.iter().filter_map(Node::cores_stats).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gimbal_fabric::RetryConfig;
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
