//! The rack engine, in the shared [`Reactor`].
//!
//! N JBOF nodes ([`gimbal_testbed::Node`]), each `ssds_per_node` switch
//! pipelines, behind one deterministic ToR switch (the reactor's
//! [`gimbal_testbed::reactor::Tor`], here with a hop). Closed-loop clients
//! issue logical IOs against
//! zone-replicated blobstore files; every logical read maps to one physical
//! NVMe command (plus reroutes), every logical write fans out to one
//! command per live replica.
//!
//! ## Capsule path
//!
//! Command: client port serialization + fabric propagation
//! ([`gimbal_fabric::RdmaDelays::command_arrival`]) → ToR downlink
//! serialization + link latency ([`gimbal_fabric::TorSwitch::to_node`]) →
//! node.
//! Completion: node port + propagation
//! ([`gimbal_fabric::RdmaDelays::completion_arrival`]) → ToR uplink →
//! client. A lost capsule has cleared its sender's port and vanishes in
//! flight, before the ToR hop. Node faults, read from the plan by time
//! alone, act at the crossings: a dead or partitioned node swallows
//! capsules in both directions (`tor_cmd_drops` / `tor_cpl_drops`), a
//! degraded link adds latency per crossing and is journaled as a
//! [`EventKind::LinkDegraded`] event. `Ev::NodeDeath` only tells the router.
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
//! The reactor's single event queue, FIFO within a timestamp; all
//! randomness from forked [`SimRng`] streams; every cross-node routing
//! decision is journaled under the `rack.route` component so the
//! divergence sanitizer can localize a nondeterministic route to its tick.

use crate::config::RackConfig;
use crate::results::{RackClientResult, RackCounters, RackResult};
use gimbal_blobstore::{
    BackendId, Blobstore, FileId, HbaConfig, HierarchicalAllocator, IoPlan, RateLimiter,
    ReplicaHealth,
};
use gimbal_fabric::{NvmeCmd, NvmeCompletion, Priority, SsdId, TenantId};
use gimbal_sim::collections::DetMap;
use gimbal_sim::{Histogram, SimRng, SimTime};
use gimbal_telemetry::EventKind;
use gimbal_testbed::initiator::{Expiry, Initiator, Timer};
use gimbal_testbed::reactor::{Engine, Reactor, Rig};

/// Queue the physical IO `plan` of logical IO `logical` behind client `i`'s
/// gate for its backend.
fn enqueue(init: &mut Initiator<u64, (u64, IoPlan)>, i: usize, logical: u64, plan: IoPlan) {
    init.enqueue(i, plan.backend.index(), Priority::NORMAL, (logical, plan));
}

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

/// The rack engine's own events.
pub enum Ev {
    ClientStart(usize),
    NodeDeath(usize),
}

/// The rack experiment.
pub struct RackTestbed {
    cfg: RackConfig,
    /// The nodes (stealing never crosses the ToR) and the ToR; one
    /// initiator client per rack client and lane per backend, each command
    /// tagged with the logical IO it serves.
    rt: Reactor<RackTestbed>,
    /// Shared routing view: per-backend credit/outstanding/dead/suspect.
    /// Gating is the initiator's.
    router: RateLimiter,
    bs: Blobstore,
    clients: Vec<Client>,
    logical: DetMap<u64, Logical>,
    /// Recycled blobstore plan buffer; empty between logical IOs.
    plans: Vec<IoPlan>,
    next_logical: u64,
    /// Logical and rack-level counters (the ToR keeps its own).
    rack: RackCounters,
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

        // Timers are armed only if some fault can act on this rack; node
        // faults aimed past `nodes` (or SSD faults past `backends`) are
        // inert, so such a plan runs bit-identical to a fault-free one.
        let retry = cfg
            .faults
            .as_ref()
            .filter(|fc| {
                let p = &fc.plan;
                p.cmd_loss_prob > 0.0
                    || p.cpl_loss_prob > 0.0
                    || !p.burst_windows.is_empty()
                    || (0..backends).any(|i| p.ssd_spec(i).is_some())
                    || (0..nodes).any(|n| p.node_spec(n).is_some())
            })
            .map(|fc| fc.retry);
        let plan = cfg.faults.as_ref().map(|fc| &fc.plan);
        let spn = cfg.ssds_per_node as usize;
        let mut rt = Reactor::new(
            Rig {
                nodes,
                ssds_per_node: spn,
                cores_per_node: spn,
                scheme: cfg.scheme,
                gimbal_params: cfg.gimbal_params,
                ssd: &cfg.ssd,
                precondition: cfg.precondition,
                cpu_cost: cfg.scheme.cpu_cost(false),
                cache: None,
                broker: cfg.broker.as_ref(),
                steal: cfg.steal.clone(),
                trace: cfg.trace.as_ref(),
                sanitize: cfg.sanitize,
                seed: cfg.seed,
                clients: cfg.clients as usize,
                lanes: backends,
                fabric: cfg.fabric,
                flow_control: true,
                plan: plan.cloned().unwrap_or_default(),
                retry,
                tor: Some(cfg.tor),
                meter_devices: false,
                batch: 1,
                sample_interval: None,
                duration: cfg.duration,
            },
            &mut root_rng,
        );

        let router = RateLimiter::new(backends, cfg.gimbal_params.initial_credit_ios, false);

        let caps: Vec<u64> = (0..backends)
            .map(|_| cfg.ssd.logical_capacity / cfg.ssd.logical_page_bytes)
            .collect();
        let mut bs = Blobstore::new(
            HierarchicalAllocator::new(HbaConfig::default(), &caps),
            cfg.replicate,
        )
        .expect("validated in RackConfig::validate");

        let clients: Vec<Client> = (0..cfg.clients as usize)
            .map(|i| {
                let file = bs
                    .create_file_zoned(
                        cfg.file_blocks,
                        |b| router.headroom(b) as f64,
                        |b| b.0 / cfg.ssds_per_node,
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

        for i in 0..clients.len() {
            rt.host.push(
                SimTime::from_micros((i as u64).saturating_mul(10)),
                Ev::ClientStart(i),
            );
        }
        for node in 0..nodes {
            let spec = plan.and_then(|p| p.node_spec(node));
            if let Some(at) = spec.and_then(|s| s.die_at) {
                rt.host.push(at, Ev::NodeDeath(node));
            }
        }

        RackTestbed {
            rt,
            router,
            bs,
            clients,
            logical: DetMap::new(),
            plans: Vec::new(),
            next_logical: 0,
            rack: RackCounters::default(),
            cfg,
            #[cfg(test)]
            perturb_first_route: false,
            #[cfg(test)]
            perturb_done: false,
        }
    }

    /// Environment-sourced health of one backend, as the router sees it.
    fn backend_health(&self, b: BackendId, now: SimTime) -> ReplicaHealth {
        ReplicaHealth {
            // A dead node's backends are already excluded as dead.
            partitioned: !self.rt.host.tor.reachable(self.cfg.node_of(b.index()), now),
            // The GC signal is read straight off the device model, so
            // organic die-level collections steer exactly like injected
            // storms. The blind baseline reports "never busy".
            gc_busy: self.cfg.gc_aware_routing && self.rt.device(b.index()).gc_busy(now),
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
        self.rt
            .sanitizer
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
            self.rack.issued += 1;
            self.clients[i].inflight += 1;
            if is_read {
                let pair = self.bs.replicas_at(file, offset);
                let n = if pair[0] == pair[1] { 1 } else { 2 };
                let Some(b) = self.route(&pair[..n], now, "choose") else {
                    // Every replica of this span is dead: typed error at
                    // issue, never a panic.
                    self.rack.failed_typed += 1;
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
                enqueue(&mut self.rt.host.init, i, id, plan);
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
                        self.rack.failed_typed += 1;
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
                            enqueue(&mut self.rt.host.init, i, id, p);
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
            while let Some((logical, plan)) = self.rt.host.init.next_pending(i, b, now) {
                let (cmd, timer) = self.rt.host.init.submit(logical, now, |id| NvmeCmd {
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
                self.rt
                    .sanitizer
                    .record(now.as_nanos(), "rack.issue", "submit", cmd.id.0);
                self.rt.host.transmit(cmd, timer, now);
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
        self.rack.nodes_suspected += 1;
        self.rt.trace.record(
            now,
            SsdId(first.0),
            None,
            EventKind::NodeSuspected { node: node as u32 },
        );
        self.rt
            .sanitizer
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
        self.rack.reroutes += 1;
        self.rt.trace.record(
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
        enqueue(&mut self.rt.host.init, client, lg_id, plan);
        self.dispatch(client, now);
        true
    }

    fn record_ack(&mut self, lg: &Logical, now: SimTime) {
        let c = &mut self.clients[lg.client];
        c.inflight -= 1;
        let (warm, end) = (self.cfg.warmup, self.cfg.duration);
        if now >= SimTime::ZERO + warm && now < SimTime::ZERO + end {
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

    /// Run it.
    pub fn run(mut self) -> RackResult {
        Reactor::run(&mut self);
        let tor = &self.rt.host.tor;
        let (tor_bytes_down, tor_bytes_up) =
            (0..self.cfg.nodes as usize).map(|n| tor.bytes(n)).unzip();
        let rack = RackCounters {
            tor_cmd_drops: tor.cmd_drops,
            tor_cpl_drops: tor.cpl_drops,
            link_degraded_crossings: tor.link_degraded_crossings,
            in_flight_at_end: self.logical.len() as u64,
            ..self.rack
        };
        debug_assert!(
            rack.logical_conservation_holds(),
            "logical conservation violated: {rack:?}"
        );
        let out = self.rt.finish();
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
            ssd_stats: out.ssd_stats,
            physical: out.faults,
            rack,
            tor_bytes_down,
            tor_bytes_up,
            window: self.cfg.duration - self.cfg.warmup,
            trace: out.trace,
            access_journal: out.access_journal,
            broker: out.broker,
            cores: out.cores,
            events_processed: out.events_processed,
        }
    }
}

impl Engine for RackTestbed {
    type Ev = Ev;
    type Tag = u64;
    type Queued = (u64, IoPlan);
    const FABRIC: &'static str = "rack.fabric";
    const WAKE: &'static str = "rack.wake";
    const FAULT: &'static str = "rack.fault";

    fn rt(&mut self) -> &mut Reactor<Self> {
        &mut self.rt
    }

    fn label(ev: &Ev) -> (&'static str, &'static str, u64) {
        match *ev {
            Ev::ClientStart(i) => ("rack.client", "start", i as u64),
            Ev::NodeDeath(n) => ("rack.node", "death", n as u64),
        }
    }

    fn on_event(&mut self, ev: Ev, now: SimTime) {
        match ev {
            Ev::ClientStart(i) => {
                self.issue_logical(i, now);
                self.dispatch(i, now);
            }
            Ev::NodeDeath(node) => {
                // The ToR freezes the node from here on: its pipelines
                // never pump again, and whatever was in flight inside them
                // is recovered initiator-side by the ladder. The router
                // learns it here.
                let first = node as u32 * self.cfg.ssds_per_node;
                for b in first..first + self.cfg.ssds_per_node {
                    self.router.mark_dead(BackendId(b));
                }
                let kind = EventKind::NodeDead { node: node as u32 };
                self.rt.trace.record(now, SsdId(first), None, kind);
            }
        }
    }

    fn complete(&mut self, cpl: NvmeCompletion, now: SimTime) {
        let Some(lg_id) = self.rt.host.init.complete(&cpl, now) else {
            return;
        };
        let b = cpl.ssd.index();
        self.router.on_completion(BackendId(b as u32), cpl.credit);
        let ok = cpl.status.is_success();
        if ok {
            self.clear_suspect_node(self.cfg.node_of(b));
        } else {
            // The error completion is the client's first sight of a flash
            // failure: hard-exclude the backend and recover via its replica
            // (§4.3).
            self.router.mark_dead(BackendId(b as u32));
        }
        self.side_done(lg_id, ok, b, cpl.id.0, now);
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
        match self.rt.host.init.on_timer(t, now, can_reroute) {
            Some(Expiry::Retransmit { cmd, timer }) => self.rt.host.transmit(cmd, Some(timer), now),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use gimbal_fabric::RetryConfig;
    use gimbal_sim::journal::first_divergence;
    use gimbal_sim::{FaultPlan, FaultWindow, SimDuration};
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

    /// A plan whose only fault is a power loss fires it in the rack too:
    /// one `power_loss` record at its tick, bit-identical across a double
    /// run.
    #[test]
    fn a_planned_power_loss_fires_in_the_rack() {
        let at = SimTime::from_millis(12);
        let cfg = RackConfig {
            sanitize: true,
            faults: Some(FaultConfig {
                plan: FaultPlan {
                    power_loss_at: Some(at),
                    ..FaultPlan::default()
                },
                retry: RetryConfig::default(),
            }),
            ..quick(Scheme::Gimbal)
        };
        let a = RackTestbed::new(cfg.clone()).run();
        let b = RackTestbed::new(cfg).run();
        assert_eq!(a.stats_digest(), b.stats_digest());
        assert_eq!(a.access_digest(), b.access_digest());
        let journal = a.access_journal.as_ref().expect("sanitizer on");
        let losses: Vec<u64> = journal
            .entries()
            .iter()
            .filter(|e| e.op == "power_loss")
            .map(|e| e.tick)
            .collect();
        assert_eq!(losses, [at.as_nanos()]);
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
