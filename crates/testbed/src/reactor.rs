//! The one event loop every engine runs: §4.1's reactor structure at the
//! scale of a whole run.
//!
//! The fio engine (`crate::engine`), the KV engine (`crate::kv`) and the
//! rack (`gimbal-rack`) each run in a [`Reactor`]. It owns the event queue,
//! the [`Node`]s, the one [`NodeHost`], the recorders, the broker
//! ledger, `events_processed`, the end-of-run cut-off, and the eight events
//! every engine shares, each with its sanitizer record. An [`Engine`] keeps
//! its own events and answers the loop's hooks. A [`Topology`] says where
//! capsules travel: [`Direct`] for one node, or the rack's ToR with node
//! liveness. Everything is generic over the engine, so the per-event path
//! is monomorphised: no trait objects and no allocation.

use crate::config::{FaultConfig, Precondition};
use crate::initiator::{Initiator, Timer};
use crate::node::{Node, Tracked};
use crate::results::{FaultCounters, GimbalTrace};
use crate::scheme::Scheme;
use gimbal_broker::{BrokerConfig, BrokerHandle, BrokerStats};
use gimbal_cache::{CacheConfig, CacheStats, DurabilityJournal, StagedWriteLoss, WriteBackStats};
use gimbal_core::Params;
use gimbal_cores::{CoresStats, StealConfig};
use gimbal_fabric::{FabricConfig, NvmeCmd, NvmeCompletion, Port, RdmaDelays, SsdId, TenantId};
use gimbal_nic::CpuCost;
use gimbal_sim::journal::JournalHandle;
use gimbal_sim::{AccessJournal, EventQueue, Ewma, Histogram, Meter, SimDuration, SimRng, SimTime};
use gimbal_ssd::{FlashSsd, SsdConfig, SsdStats};
use gimbal_switch::PipelineOut;
use gimbal_telemetry::{CapsuleKind, RecordedTrace, TraceConfig, TraceHandle};

/// An event of an engine whose own events are `E`.
pub enum Event<E> {
    /// One of the engine's own events.
    Own(E),
    DeliverCmd(NvmeCmd),
    /// A pipeline's wake; only the armed one pumps (`Node::wake`).
    PipelineWake(usize),
    DeliverCpl(NvmeCompletion),
    /// A retransmission timer (only with fault injection).
    Timeout(Timer),
    /// Simulated NIC power loss: every pipeline's cache goes cold and
    /// acked-but-unflushed write-back lines surface as typed losses.
    PowerLoss,
    /// Broker settlement boundary (only with a broker).
    BrokerEpoch,
    /// Core-scheduler rebalance boundary (only when stealing rebalances).
    CoresRebalance,
    /// Sampling instant (only with a sample interval).
    Sample,
}

/// An engine: its own events, and the hooks the shared loop calls.
pub trait Engine: Sized {
    type Ev;
    /// Per-command bookkeeping in the initiator's in-flight table.
    type Tag: Default;
    /// An IO waiting behind an initiator gate.
    type Queued;
    type Topo: Topology;
    /// Sanitizer components of the shared capsule, wake and fault events;
    /// broker, cores and sample events are `engine.*` in every engine.
    const FABRIC: &'static str = "engine.fabric";
    const WAKE: &'static str = "engine.wake";
    const FAULT: &'static str = "engine.fault";

    fn rt(&mut self) -> &mut Reactor<Self>;
    /// An own event's sanitizer record: component, operation, key.
    fn label(ev: &Self::Ev) -> (&'static str, &'static str, u64);
    fn on_event(&mut self, ev: Self::Ev, now: SimTime);
    /// A completion capsule reached its client.
    fn complete(&mut self, cpl: NvmeCompletion, now: SimTime);
    /// A retransmission timer fired.
    fn timeout(&mut self, t: Timer, now: SimTime);
    /// The tenants a broker epoch settles on SSD `ssd`: every client,
    /// unless the engine knows better.
    fn tenants(&mut self, _ssd: usize, _now: SimTime) -> Vec<TenantId> {
        let clients = self.rt().host.init.clients() as u32;
        (0..clients).map(TenantId).collect()
    }
    /// The broker settled an epoch and is about to close it.
    fn settled(&mut self, _broker: &BrokerHandle, _now: SimTime) {}
    /// Sample the engine's own series (the reactor samples Gimbal's).
    fn sample(&mut self, _now: SimTime) {}
}

/// Where capsules travel between the clients' ports and the nodes' ports,
/// and which nodes answer.
pub trait Topology {
    /// Whether a lost capsule has already serialized on its sender's port.
    /// The direct fabric loses capsules in flight; the ToR loses them
    /// before they leave (DESIGN §21.6's fork).
    const LOSS_AFTER_PORT: bool;
    /// A command cleared its client's port at `at`: when it reaches
    /// `node`.
    fn downlink(&mut self, _node: usize, _cmd: &NvmeCmd, at: SimTime) -> SimTime {
        at
    }
    /// A completion cleared `node`'s port at `at`: when it reaches the
    /// client.
    fn uplink(&mut self, _node: usize, _cmd: &NvmeCmd, at: SimTime) -> SimTime {
        at
    }
    /// Whether `node`'s link passes a `capsule` at `t`; a swallowed one is
    /// counted.
    fn passes(&mut self, _node: usize, _t: SimTime, _capsule: CapsuleKind) -> bool {
        true
    }
    /// Whether `node` answers at `t`; a broker epoch forgives the others.
    fn reachable(&self, _node: usize, _t: SimTime) -> bool {
        true
    }
    /// Whether `node` still runs; a dead node never pumps again.
    fn alive(&self, _node: usize) -> bool {
        true
    }
}

/// The direct fabric in front of a single node.
pub struct Direct;

impl Topology for Direct {
    const LOSS_AFTER_PORT: bool = true;
}

/// Per-SSD device latency and completion bandwidth, as the fio engine
/// reports them.
pub(crate) struct DeviceMeters {
    pub(crate) hist: Vec<[Histogram; 2]>,
    pub(crate) lat_ewma: Vec<[Ewma; 2]>,
    pub(crate) meter: Vec<Meter>,
    trace: TraceHandle,
}

/// What the nodes call back into: the queue, the initiator, the fabric
/// with its per-SSD target ports, the topology, and the device meters when
/// the engine reports them. SSD ids are global.
pub struct NodeHost<E: Engine> {
    pub(crate) queue: EventQueue<Event<E::Ev>>,
    pub init: Initiator<E::Tag, E::Queued>,
    pub topo: E::Topo,
    pub(crate) ports: Vec<Port>,
    pub(crate) meters: Option<DeviceMeters>,
    delays: RdmaDelays,
    ssds_per_node: usize,
}

impl<E: Engine> NodeHost<E> {
    /// Schedule one of the engine's own events.
    pub fn push(&mut self, at: SimTime, ev: E::Ev) {
        self.queue.push(at, Event::Own(ev));
    }

    /// Send a command capsule, after arming its timer when one comes.
    pub fn transmit(&mut self, cmd: NvmeCmd, timer: Option<Timer>, now: SimTime) {
        if let Some(t) = timer {
            self.queue.push(t.at, Event::Timeout(t));
        }
        let port = |h: &mut Self| h.init.wire(&h.delays, &cmd, now);
        if let Some(at) = self.cross(CapsuleKind::Command, &cmd, now, port) {
            let node = cmd.ssd.index() / self.ssds_per_node;
            let at = self.topo.downlink(node, &cmd, at);
            self.queue.push(at, Event::DeliverCmd(cmd));
        }
    }

    /// A `capsule` of `cmd` leaves at `at` through `port`, which returns
    /// when it clears, and is lost in the topology's order.
    fn cross(
        &mut self,
        capsule: CapsuleKind,
        cmd: &NvmeCmd,
        at: SimTime,
        port: impl FnOnce(&mut Self) -> SimTime,
    ) -> Option<SimTime> {
        let after = E::Topo::LOSS_AFTER_PORT;
        if !after && self.init.lose(capsule, cmd, at) {
            return None;
        }
        let cleared = port(self);
        (!(after && self.init.lose(capsule, cmd, at))).then_some(cleared)
    }

    /// Schedule a wake of pipeline `ssd` at `at`; [`Node::wake`] handles it.
    pub(crate) fn arm_wake(&mut self, ssd: usize, at: SimTime) {
        self.queue.push(at, Event::PipelineWake(ssd));
    }

    /// Pipeline `ssd` finished `out` during the pump at `now`, before its
    /// capsule is sent: the device-side accounting hook.
    pub(crate) fn served(&mut self, ssd: usize, out: &PipelineOut, now: SimTime) {
        if out.served_from_cache {
            // The SSD never saw this read: its DRAM-copy latency must not
            // pollute the device-latency signals.
            self.init.served_from_cache();
            return;
        }
        let Some(m) = &mut self.meters else {
            return;
        };
        let lat_ns = out.device_latency.as_nanos();
        let op = out.cmd.opcode.index();
        m.hist[ssd][op].record(lat_ns);
        m.trace.observe("device_latency_ns", out.cmd.tenant, lat_ns);
        m.lat_ewma[ssd][op].update(lat_ns as f64 / 1e3);
        m.meter[ssd].record(now, out.cmd.len_bytes());
    }

    /// Transmit the completion capsule of `cmd`, leaving SSD `ssd` at `at`.
    pub(crate) fn send(&mut self, ssd: usize, cmd: &NvmeCmd, cpl: NvmeCompletion, at: SimTime) {
        let node = ssd / self.ssds_per_node;
        if !self.topo.passes(node, at, CapsuleKind::Completion) {
            return;
        }
        let port = |h: &mut Self| h.delays.completion_arrival(&mut h.ports[ssd], at, cmd);
        if let Some(cleared) = self.cross(CapsuleKind::Completion, cmd, at, port) {
            let arrive = self.topo.uplink(node, cmd, cleared);
            self.queue.push(arrive, Event::DeliverCpl(cpl));
        }
    }

    /// The initiator's in-flight table; `None` while it arms no timers, so
    /// every arrival executes. An arriving copy of a command missing from
    /// the table is a late replay.
    pub(crate) fn in_flight(&mut self) -> Option<Tracked<'_, E::Tag>> {
        self.init.in_flight()
    }
}

fn per_ssd<T>(ssds: usize, f: impl Fn() -> T) -> Vec<T> {
    (0..ssds).map(|_| f()).collect()
}

/// How to build a [`Reactor`]: its nodes, recorders, initiator and
/// schedule. Node `n` serves SSDs `n × ssds_per_node ..`.
pub struct Rig<'a> {
    pub nodes: usize,
    pub ssds_per_node: usize,
    pub cores_per_node: usize,
    pub scheme: Scheme,
    pub gimbal_params: Params,
    pub ssd: &'a SsdConfig,
    pub precondition: Precondition,
    pub cpu_cost: CpuCost,
    pub cache: Option<CacheConfig>,
    pub broker: Option<&'a BrokerConfig>,
    pub steal: Option<StealConfig>,
    pub trace: Option<&'a TraceConfig>,
    pub sanitize: bool,
    /// Run seed; device fault streams derive from it.
    pub seed: u64,
    /// Initiator clients, each with `lanes` gated lanes.
    pub clients: usize,
    pub lanes: usize,
    pub fabric: FabricConfig,
    /// Whether a Gimbal client gates on credits.
    pub flow_control: bool,
    /// Capsule loss, device faults and timers (`None` = fault-free).
    pub faults: Option<&'a FaultConfig>,
    pub meter_devices: bool,
    /// Same-instant commands one quantum may take (1 = unbatched).
    pub batch: u32,
    pub sample_interval: Option<SimDuration>,
    pub power_loss_at: Option<SimTime>,
    pub duration: SimDuration,
}

/// What every engine reports from its reactor at the end of a run, device
/// results in SSD order (cache and write-back entries only where they ran).
#[derive(Default)]
pub struct Outcome {
    pub faults: FaultCounters,
    pub ssd_stats: Vec<SsdStats>,
    pub cache: Vec<CacheStats>,
    pub cache_losses: Vec<StagedWriteLoss>,
    pub write_back: Vec<WriteBackStats>,
    pub journals: Vec<DurabilityJournal>,
    pub gimbal_traces: Vec<GimbalTrace>,
    pub trace: Option<RecordedTrace>,
    pub access_journal: Option<AccessJournal>,
    pub broker: Option<BrokerStats>,
    /// Per node, only with stealing on.
    pub cores: Vec<CoresStats>,
    /// Events popped, batch-coalesced deliveries included. Perf
    /// instrumentation only: never folded into a digest.
    pub events_processed: u64,
}

/// The shared half of a run. See the module docs.
pub struct Reactor<E: Engine> {
    pub nodes: Vec<Node>,
    pub host: NodeHost<E>,
    pub trace: TraceHandle,
    pub sanitizer: JournalHandle,
    /// The shared borrow ledger with its epoch (`None` = broker off).
    broker: Option<(BrokerHandle, SimDuration)>,
    gimbal_traces: Vec<GimbalTrace>,
    batch: u32,
    sample_interval: Option<SimDuration>,
    power_loss_at: Option<SimTime>,
    end: SimTime,
    events_processed: u64,
}

impl<E: Engine> Reactor<E> {
    /// Build the recorders, the broker ledger, the nodes (drawing SSD seeds
    /// from `rng` in id order) and the initiator.
    pub fn new(rig: Rig<'_>, rng: &mut SimRng, topo: impl FnOnce(&TraceHandle) -> E::Topo) -> Self {
        let trace = rig
            .trace
            .map_or_else(TraceHandle::disabled, TraceHandle::new);
        let sanitizer = if rig.sanitize {
            JournalHandle::enabled()
        } else {
            JournalHandle::disabled()
        };
        let broker = rig
            .broker
            .map(|bc| (BrokerHandle::new(bc.clone(), trace.clone()), bc.epoch));
        let nodes = (0..rig.nodes)
            .map(|n| {
                let b = broker.as_ref().map(|(b, _)| b);
                Node::build(&rig, n, &trace, &sanitizer, b, rng)
            })
            .collect();
        let ssds = rig.nodes * rig.ssds_per_node;
        let meters = rig.meter_devices.then(|| DeviceMeters {
            hist: per_ssd(ssds, || [Histogram::new(), Histogram::new()]),
            lat_ewma: per_ssd(ssds, || [Ewma::new(0.2), Ewma::new(0.2)]),
            meter: per_ssd(ssds, || Meter::new(SimDuration::from_millis(10), 10)),
            trace: trace.clone(),
        });
        let gate = || rig.scheme.client_gate(rig.gimbal_params, rig.flow_control);
        let bandwidth = rig.fabric.port_bandwidth;
        let init = Initiator::new(
            rig.clients,
            rig.lanes,
            bandwidth,
            rig.faults,
            rig.seed,
            trace.clone(),
            gate,
        );
        Reactor {
            nodes,
            host: NodeHost {
                queue: EventQueue::new(),
                init,
                topo: topo(&trace),
                ports: per_ssd(ssds, || Port::new(bandwidth)),
                meters,
                delays: RdmaDelays::new(rig.fabric),
                ssds_per_node: rig.ssds_per_node,
            },
            trace,
            sanitizer,
            broker,
            gimbal_traces: per_ssd(ssds, GimbalTrace::default),
            batch: rig.batch,
            sample_interval: rig.sample_interval,
            power_loss_at: rig.power_loss_at,
            end: SimTime::ZERO + rig.duration,
            events_processed: 0,
        }
    }

    /// The device behind SSD `ssd`.
    pub fn device(&self, ssd: usize) -> &FlashSsd {
        let spn = self.host.ssds_per_node;
        self.nodes[ssd / spn].pipelines()[ssd % spn].device()
    }

    /// Run `e`, whose own start events are queued, until its queue drains
    /// or the clock passes the end.
    pub fn run(e: &mut E) {
        let rt = e.rt();
        let q = &mut rt.host.queue;
        if let Some(step) = rt.sample_interval {
            q.push(SimTime::ZERO + step, Event::Sample);
        }
        if let Some(at) = rt.power_loss_at {
            q.push(at, Event::PowerLoss);
        }
        if let Some((_, epoch)) = &rt.broker {
            q.push(SimTime::ZERO + *epoch, Event::BrokerEpoch);
        }
        if let Some(epoch) = rt.nodes[0].rebalance_epoch() {
            q.push(SimTime::ZERO + epoch, Event::CoresRebalance);
        }
        while let Some((now, ev)) = e.rt().host.queue.pop() {
            let rt = e.rt();
            if now > rt.end {
                break;
            }
            rt.events_processed += 1;
            if rt.sanitizer.is_enabled() {
                rt.journal(&ev, now);
            }
            let host = &mut rt.host;
            match ev {
                Event::Own(ev) => e.on_event(ev, now),
                Event::DeliverCmd(cmd) => rt.deliver(cmd, now),
                Event::PipelineWake(ssd) => {
                    let n = ssd / host.ssds_per_node;
                    if host.topo.alive(n) {
                        rt.nodes[n].wake(ssd, now, host);
                    }
                }
                Event::DeliverCpl(cpl) => e.complete(cpl, now),
                Event::Timeout(t) => e.timeout(t, now),
                Event::PowerLoss => {
                    for node in &mut rt.nodes {
                        node.power_loss(now, host);
                    }
                }
                Event::BrokerEpoch => Self::broker_epoch(e, now),
                Event::CoresRebalance => {
                    for node in &mut rt.nodes {
                        node.rebalance(now);
                    }
                    if let Some(epoch) = rt.nodes[0].rebalance_epoch() {
                        host.queue.push(now + epoch, Event::CoresRebalance);
                    }
                }
                Event::Sample => {
                    if let Some(step) = rt.sample_interval {
                        host.queue.push(now + step, Event::Sample);
                    }
                    let spn = host.ssds_per_node;
                    for (n, node) in rt.nodes.iter().enumerate() {
                        node.sample_gimbal(now, &mut rt.gimbal_traces[n * spn..]);
                    }
                    e.sample(now);
                }
            }
        }
    }

    fn journal(&self, ev: &Event<E::Ev>, now: SimTime) {
        let (component, op, key) = match ev {
            Event::Own(ev) => E::label(ev),
            Event::DeliverCmd(cmd) => (E::FABRIC, "deliver_cmd", cmd.id.0),
            Event::PipelineWake(ssd) => (E::WAKE, "wake", *ssd as u64),
            Event::DeliverCpl(cpl) => (E::FABRIC, "deliver_cpl", cpl.id.0),
            Event::Timeout(t) => (E::FAULT, "timeout", t.cmd),
            Event::PowerLoss => (E::FAULT, "power_loss", 0),
            Event::BrokerEpoch => ("engine.broker", "epoch", 0),
            Event::CoresRebalance => ("engine.cores", "rebalance", 0),
            Event::Sample => ("engine.sample", "sample", 0),
        };
        self.sanitizer.record(now.as_nanos(), component, op, key);
    }

    /// A command capsule reached its node's link at `now`; up to `batch - 1`
    /// following same-instant arrivals for its SSD join its quantum.
    fn deliver(&mut self, cmd: NvmeCmd, now: SimTime) {
        let ssd = cmd.ssd.index();
        let n = ssd / self.host.ssds_per_node;
        if !self.host.topo.passes(n, now, CapsuleKind::Command) {
            return;
        }
        let (sanitizer, events) = (&self.sanitizer, &mut self.events_processed);
        let more = |host: &mut NodeHost<E>| {
            let same_ssd =
                |e: &Event<E::Ev>| matches!(e, Event::DeliverCmd(c) if c.ssd.index() == ssd);
            #[expect(
                clippy::unreachable,
                reason = "pop_if_at returns only events that `same_ssd` matched"
            )]
            let Event::DeliverCmd(cmd) = host.queue.pop_if_at(now, same_ssd)?
            else {
                unreachable!("pop_if_at matched DeliverCmd")
            };
            *events += 1;
            sanitizer.record(now.as_nanos(), E::FABRIC, "deliver_cmd", cmd.id.0);
            Some(cmd)
        };
        self.nodes[n].deliver(ssd, cmd, now, &mut self.host, self.batch, more);
    }

    /// One broker settlement: settle each reachable live SSD's active
    /// tenants (the others are forgiven), let the engine migrate, close the
    /// epoch, and pump live nodes so parked requests see the refill.
    fn broker_epoch(e: &mut E, now: SimTime) {
        let Some((broker, epoch)) = e.rt().broker.clone() else {
            return;
        };
        let mut active: Vec<(SsdId, Vec<TenantId>)> = Vec::new();
        for ssd in 0..e.rt().host.ports.len() {
            let rt = e.rt();
            let node = ssd / rt.host.ssds_per_node;
            if !rt.host.topo.reachable(node, now) || rt.device(ssd).is_failed() {
                continue;
            }
            active.push((SsdId(ssd as u32), e.tenants(ssd, now)));
        }
        broker.settle_epoch(now, &active);
        e.settled(&broker, now);
        broker.end_epoch();
        let rt = e.rt();
        let sanitizer = &rt.sanitizer;
        broker.drain_journal_with(|op, key| sanitizer.record(now.as_nanos(), "broker", op, key));
        for (n, node) in rt.nodes.iter_mut().enumerate() {
            if rt.host.topo.alive(n) {
                node.pump_all(now, &mut rt.host);
            }
        }
        rt.host.queue.push(now + epoch, Event::BrokerEpoch);
    }

    /// End the run: audit the command ledger and the broker, close the
    /// recorders, and collect what every engine reports.
    pub fn finish(mut self) -> Outcome {
        let mut out = Outcome {
            faults: self.host.init.finish(),
            gimbal_traces: self.gimbal_traces,
            trace: self.trace.finish(),
            access_journal: self.sanitizer.snapshot(),
            cores: self.nodes.iter().filter_map(Node::cores_stats).collect(),
            events_processed: self.events_processed,
            ..Outcome::default()
        };
        for node in &mut self.nodes {
            node.device_results_into(&mut out);
        }
        // Broker conservation must hold at every exit, not only in tests.
        if let Some((b, _)) = &self.broker {
            b.audit();
            out.broker = Some(b.stats());
        }
        out
    }
}
