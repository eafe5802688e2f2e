//! The deterministic event loop wiring workers, fabric, and pipelines.

use crate::config::{Precondition, TestbedConfig, WorkerSpec};
use crate::results::{
    DeviceSeries, FaultCounters, GimbalTrace, RunResult, SubmissionRecord, WorkerResult,
};
use gimbal_broker::{BrokerHandle, SsdTelemetry};
use gimbal_core::GimbalPolicy;
use gimbal_cores::{CoreScheduler, Quantum};
use gimbal_fabric::{
    CmdId, IoType, NvmeCmd, NvmeCompletion, Port, RdmaDelays, RetryConfig, SsdId, TenantId,
};
use gimbal_sim::journal::JournalHandle;
use gimbal_sim::stats::LatencySummary;
use gimbal_sim::{
    DetMap, EventQueue, FaultInjector, FaultPlan, Histogram, IoArena, IoHandle, Meter, SimDuration,
    SimRng, SimTime, TimeSeries,
};
use gimbal_ssd::FlashSsd;
use gimbal_switch::{ClientPolicy, Pipeline, PipelineConfig, PipelineOut};
use gimbal_telemetry::{CapsuleKind, EventKind, TraceHandle, Tracer};
use std::cell::RefCell;
use std::rc::Rc;

enum Ev {
    WorkerStart(usize),
    TryIssue(usize),
    DeliverCmd {
        ssd: usize,
        cmd: NvmeCmd,
    },
    PipelineWake(usize),
    DeliverCpl {
        worker: usize,
        cpl: NvmeCompletion,
    },
    /// Retransmission timer for command `cmd`, armed for transmission
    /// `attempt`. Only pushed when fault injection is configured.
    Timeout {
        cmd: u64,
        attempt: u32,
    },
    /// Simulated NIC power loss ([`FaultPlan::power_loss_at`]): every
    /// pipeline's NIC-DRAM cache is cleared cold and acked-but-unflushed
    /// write-back lines surface as [`gimbal_cache::StagedWriteLoss`].
    PowerLoss,
    /// Broker settlement boundary: debts repay, departures forgive, and the
    /// placement layer (when enabled) migrates tenants. Only scheduled when
    /// [`TestbedConfig::broker`] is set, so broker-off runs see no event.
    BrokerEpoch,
    /// Core-scheduler rebalance boundary: home assignments move per the
    /// epoch's per-pipeline cycle consumption. Only scheduled when
    /// [`TestbedConfig::steal`] is set with a non-zero rebalance period, so
    /// steal-off runs see no event.
    CoresRebalance,
    Sample,
}

/// What a freshly arrived command capsule should do at the target.
enum CmdAction {
    /// First arrival: execute it.
    Execute,
    /// Replay of a command still executing (or already abandoned): ignore.
    Duplicate,
    /// Replay of a finished command: resend the cached completion.
    Resend(NvmeCompletion),
}

/// Fault-handling runtime, present only when [`TestbedConfig::faults`] is
/// set. Fault-off runs never touch this state, so they stay bit-identical
/// to builds without fault support.
struct FaultRt {
    injector: FaultInjector,
    retry: RetryConfig,
    /// Live (non-terminal) commands by id. The entry is removed exactly
    /// once — at completion delivery or at final timeout — which is what
    /// makes the conservation audit exact. Values are handles into
    /// [`Self::arena`]; the map stays the deterministic index while the
    /// records themselves recycle.
    tracked: DetMap<u64, IoHandle>,
    /// Arena-recycled [`CmdTrack`] storage: freed records are reused by
    /// later commands, with incarnation tags catching any stale access.
    arena: IoArena<CmdTrack>,
}

/// Per-command bookkeeping while fault injection is armed.
struct CmdTrack {
    cmd: NvmeCmd,
    worker: usize,
    ssd: usize,
    /// Latest transmission attempt (0 = original); timers carry the attempt
    /// they were armed for, so superseded timers die on arrival.
    attempt: u32,
    /// Whether any capsule copy has reached the target pipeline.
    delivered: bool,
    /// Completion cached "at the target" for replay dedup: a retransmitted
    /// command whose IO already finished elicits this instead of a second
    /// execution.
    done_cpl: Option<NvmeCompletion>,
}

struct Worker {
    spec: WorkerSpec,
    stream: gimbal_workload::FioStream,
    client: Box<dyn ClientPolicy>,
    tx_port: Port,
    outstanding: u32,
    started: bool,
    retry_pending: bool,
    read_hist: Histogram,
    write_hist: Histogram,
    ops: u64,
    bytes: u64,
    meter: Meter,
    series: TimeSeries,
}

/// A configured experiment, ready to run.
pub struct Testbed {
    cfg: TestbedConfig,
    specs: Vec<WorkerSpec>,
}

impl Testbed {
    /// Create a testbed with the given workers.
    pub fn new(cfg: TestbedConfig, workers: Vec<WorkerSpec>) -> Self {
        cfg.validate();
        assert!(!workers.is_empty(), "no workers");
        for w in &workers {
            assert!(
                (w.ssd as usize) < cfg.num_ssds as usize,
                "worker on missing SSD"
            );
            w.fio.validate();
            assert!(
                w.fio.region_start + w.fio.region_blocks
                    <= cfg.ssd.logical_capacity / cfg.ssd.logical_page_bytes,
                "worker region exceeds SSD capacity"
            );
        }
        Testbed {
            cfg,
            specs: workers,
        }
    }

    /// Run the experiment to completion and collect results.
    pub fn run(self) -> RunResult {
        Engine::build(self.cfg, self.specs).run()
    }
}

struct Engine {
    cfg: TestbedConfig,
    queue: EventQueue<Ev>,
    workers: Vec<Worker>,
    pipelines: Vec<Pipeline<FlashSsd>>,
    target_ports: Vec<Port>,
    delays: RdmaDelays,
    /// Earliest scheduled wake per pipeline (avoids event storms).
    wake_at: Vec<SimTime>,
    next_cmd: u64,
    device_hist: Vec<[Histogram; 2]>,
    traces: Vec<GimbalTrace>,
    /// Smoothed raw device latency per SSD and op type, fed in `pump`.
    dev_lat_ewma: Vec<[gimbal_sim::Ewma; 2]>,
    dev_meter: Vec<Meter>,
    device_series: Vec<DeviceSeries>,
    /// Submission trace, populated when `cfg.record_submissions` is set.
    submissions: Vec<SubmissionRecord>,
    /// Fault injection state (`None` = fault-free run).
    faults: Option<FaultRt>,
    /// Always-on command accounting; all zeros except `submitted` /
    /// `completed_ok` / `in_flight_at_end` when faults are off.
    counters: FaultCounters,
    /// The event recorder backing every [`TraceHandle`] in the run
    /// (`None` = tracing off; handles stay disabled and record nothing).
    tracer: Option<Rc<RefCell<Tracer>>>,
    /// The engine's own handle for fabric-path events (fault injections,
    /// retransmissions, timeouts, credit flow).
    trace: TraceHandle,
    /// Divergence sanitizer handle ([`TestbedConfig::sanitize`]); disabled
    /// by default, so record sites cost one `None` branch.
    sanitizer: JournalHandle,
    /// Shared broker ledger (`None` = broker off; pipelines then carry no
    /// gate and no epoch events are scheduled).
    broker: Option<BrokerHandle>,
    /// Total events popped from the event queue, including batch-coalesced
    /// command deliveries. Pure perf instrumentation (the `--scale` bench's
    /// events/sec numerator); never folded into digests.
    events_processed: u64,
    /// Recycled telemetry sample buffer: device latencies collected during
    /// one pump, flushed in a single [`TraceHandle::observe_many`] call.
    obs_buf: Vec<(TenantId, u64)>,
    /// Recycled completion-capsule buffer, swapped with a pipeline's own
    /// every pump ([`Pipeline::take_outputs_into`]).
    out_buf: Vec<PipelineOut>,
    /// The node's reactor-core scheduler (gimbal-cores). Owns every core;
    /// each pipeline quantum runs on the core it assigns. With
    /// [`TestbedConfig::steal`] unset it always assigns the home core and
    /// records nothing, preserving the pre-scheduler 1:1 behavior.
    sched: CoreScheduler,
    /// Test-only injected nondeterminism: pump pipelines in reverse order
    /// at [`Ev::PowerLoss`]. Exists to prove the sanitizer localizes a real
    /// ordering bug to its exact tick and component.
    #[cfg(test)]
    perturb_powerloss_pump: bool,
}

impl Engine {
    fn build(cfg: TestbedConfig, specs: Vec<WorkerSpec>) -> Engine {
        let mut root_rng = SimRng::new(cfg.seed);
        let mut cpu_cost = cfg.scheme.cpu_cost(cfg.xeon);
        cpu_cost.submit += cfg.added_per_io_us * gimbal_nic::CYCLES_PER_US;

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
        // The node's cores, owned by the scheduler. Homes are assigned
        // round-robin (§4.1: one per SSD when cores ≥ SSDs), exactly the
        // binding pipelines had when they owned their cores directly.
        let sched = CoreScheduler::new(
            cfg.cores as usize,
            cfg.num_ssds as usize,
            cfg.steal.clone(),
            trace.clone(),
        );
        let mut pipelines: Vec<Pipeline<FlashSsd>> = (0..cfg.num_ssds)
            .map(|i| {
                let mut ssd = FlashSsd::new(cfg.ssd.clone(), root_rng.next_u64());
                match cfg.precondition {
                    Precondition::Clean => ssd.precondition_clean(),
                    Precondition::Fragmented => ssd.precondition_fragmented(),
                    Precondition::None => {}
                }
                if let Some(fc) = &cfg.faults {
                    if let Some(spec) = fc.plan.ssd_spec(i as usize) {
                        ssd.arm_faults(spec.clone(), FaultPlan::device_rng(cfg.seed, i as usize));
                    }
                }
                Pipeline::with_core(
                    SsdId(i),
                    ssd,
                    cfg.scheme.make_policy(SsdId(i), cfg.gimbal_params),
                    PipelineConfig {
                        cpu_cost,
                        null_device: false,
                        cache: cfg.cache.clone(),
                        broker: broker.clone(),
                    },
                    sched.core_rc(sched.home(i as usize)),
                )
            })
            .collect();
        if trace.is_enabled() {
            for p in &mut pipelines {
                p.attach_trace(trace.clone());
            }
        }

        let workers: Vec<Worker> = specs
            .into_iter()
            .enumerate()
            .map(|(i, spec)| Worker {
                stream: gimbal_workload::FioStream::new(spec.fio, root_rng.fork(i as u64)),
                client: cfg.scheme.make_client(),
                tx_port: Port::new(cfg.fabric.port_bandwidth),
                outstanding: 0,
                started: false,
                retry_pending: false,
                read_hist: Histogram::new(),
                write_hist: Histogram::new(),
                ops: 0,
                bytes: 0,
                meter: Meter::new(SimDuration::from_millis(10), 10),
                series: TimeSeries::new(),
                spec,
            })
            .collect();

        let target_ports = (0..cfg.num_ssds)
            .map(|_| Port::new(cfg.fabric.port_bandwidth))
            .collect();
        let device_hist = (0..cfg.num_ssds)
            .map(|_| [Histogram::new(), Histogram::new()])
            .collect();
        let traces = (0..cfg.num_ssds).map(|_| GimbalTrace::default()).collect();
        let dev_lat_ewma = (0..cfg.num_ssds)
            .map(|_| [gimbal_sim::Ewma::new(0.2), gimbal_sim::Ewma::new(0.2)])
            .collect();
        let dev_meter = (0..cfg.num_ssds)
            .map(|_| Meter::new(SimDuration::from_millis(10), 10))
            .collect();
        let device_series = (0..cfg.num_ssds).map(|_| DeviceSeries::default()).collect();
        let faults = cfg.faults.as_ref().map(|fc| FaultRt {
            injector: FaultInjector::new(fc.plan.clone(), cfg.seed),
            retry: fc.retry,
            tracked: DetMap::new(),
            arena: IoArena::new(),
        });

        Engine {
            delays: RdmaDelays::new(cfg.fabric),
            wake_at: vec![SimTime::MAX; cfg.num_ssds as usize],
            queue: EventQueue::new(),
            next_cmd: 0,
            workers,
            pipelines,
            target_ports,
            device_hist,
            traces,
            dev_lat_ewma,
            dev_meter,
            device_series,
            submissions: Vec::new(),
            faults,
            counters: FaultCounters::default(),
            events_processed: 0,
            obs_buf: Vec::new(),
            out_buf: Vec::new(),
            tracer,
            trace,
            sanitizer,
            broker,
            sched,
            #[cfg(test)]
            perturb_powerloss_pump: false,
            cfg,
        }
    }

    fn duration(&self) -> SimTime {
        SimTime::ZERO + self.cfg.duration
    }

    /// Whether an instant falls inside a worker's measured window.
    fn in_window(&self, w: usize, at: SimTime) -> bool {
        let spec = &self.workers[w].spec;
        let lo = spec.start.max(SimTime::ZERO + self.cfg.warmup);
        let hi = spec.stop.unwrap_or(SimTime::MAX).min(self.duration());
        at >= lo && at < hi
    }

    fn measured_window(&self, w: usize) -> SimDuration {
        let spec = &self.workers[w].spec;
        let lo = spec.start.max(SimTime::ZERO + self.cfg.warmup);
        let hi = spec.stop.unwrap_or(self.duration()).min(self.duration());
        if hi > lo {
            hi.since(lo)
        } else {
            SimDuration::ZERO
        }
    }

    fn try_issue(&mut self, wi: usize, now: SimTime) {
        let stop = self.workers[wi].spec.stop.unwrap_or(SimTime::MAX);
        if !self.workers[wi].started || now >= stop || now >= self.duration() {
            return;
        }
        loop {
            let w = &mut self.workers[wi];
            if w.outstanding >= w.spec.fio.queue_depth {
                break;
            }
            if !w.client.can_submit(w.outstanding, now) {
                break; // resumed by the next completion
            }
            match w.stream.rate_gate(now) {
                Ok(()) => {}
                Err(at) => {
                    if !w.retry_pending {
                        w.retry_pending = true;
                        self.queue.push(at, Ev::TryIssue(wi));
                    }
                    break;
                }
            }
            let io = w.stream.next_io(now);
            let cmd = NvmeCmd {
                id: CmdId(self.next_cmd),
                tenant: TenantId(wi as u32),
                ssd: SsdId(w.spec.ssd),
                opcode: io.op,
                lba: io.lba,
                len: io.len as u32,
                priority: w.spec.priority,
                issued_at: now,
                wal: None,
            };
            self.next_cmd += 1;
            self.sanitizer
                .record(now.as_nanos(), "engine.issue", "submit", cmd.id.0);
            if self.cfg.record_submissions {
                self.submissions.push(SubmissionRecord {
                    at_ns: now.as_nanos(),
                    cmd: cmd.id.0,
                    tenant: cmd.tenant.0,
                    opcode: if cmd.opcode.is_write() { 1 } else { 0 },
                    lba: cmd.lba,
                    len: cmd.len,
                });
            }
            w.outstanding += 1;
            w.client.on_submit(now);
            self.counters.submitted += 1;
            // Fabric: capsule, then payload fetch for non-inlined writes.
            let ssd = w.spec.ssd as usize;
            let mut arrive = self.delays.command_arrival(&mut w.tx_port, now, &cmd);
            if cmd.opcode.is_write() {
                arrive = self
                    .delays
                    .write_payload_fetched(&mut w.tx_port, arrive, &cmd);
            }
            if let Some(f) = self.faults.as_mut() {
                let h = f.arena.alloc(CmdTrack {
                    cmd,
                    worker: wi,
                    ssd,
                    attempt: 0,
                    delivered: false,
                    done_cpl: None,
                });
                f.tracked.insert(cmd.id.0, h);
                self.queue.push(
                    now + f.retry.timeout_for(0),
                    Ev::Timeout {
                        cmd: cmd.id.0,
                        attempt: 0,
                    },
                );
                if f.injector.drop_command(now) {
                    // Lost in the fabric: the timer retransmits.
                    self.counters.cmd_capsules_dropped += 1;
                    self.trace.record(
                        now,
                        cmd.ssd,
                        Some(cmd.tenant),
                        EventKind::FaultInjected {
                            capsule: CapsuleKind::Command,
                        },
                    );
                    continue;
                }
            }
            self.queue.push(arrive, Ev::DeliverCmd { ssd, cmd });
        }
    }

    /// Transmit a completion capsule from the target's port, subject to
    /// completion-loss injection. `at` is the instant the capsule leaves.
    fn send_completion(&mut self, ssd: usize, cmd: &NvmeCmd, cpl: NvmeCompletion, at: SimTime) {
        let arrive = self
            .delays
            .completion_arrival(&mut self.target_ports[ssd], at, cmd);
        if let Some(f) = self.faults.as_mut() {
            if f.injector.drop_completion(at) {
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
        self.queue.push(
            arrive,
            Ev::DeliverCpl {
                worker: cmd.tenant.index(),
                cpl,
            },
        );
    }

    /// Open a poll quantum for `ssd`: the scheduler picks the executing
    /// core (home, or an idle thief when stealing is on), the pipeline is
    /// repointed at it, and any steal decision is stamped into the
    /// divergence journal ahead of the quantum's own records. Re-entry at
    /// the same tick reuses the decision, so the command-arrival charge and
    /// the pump that follows land on one core.
    fn begin_quantum(&mut self, ssd: usize, now: SimTime) -> Quantum {
        let q = self.sched.begin(ssd, now);
        let core = self.sched.core_rc(q.core());
        self.pipelines[ssd].set_core(core);
        self.drain_cores_journal(now);
        q
    }

    /// Forward queued core-scheduler decisions (steals, home moves) into
    /// the divergence journal under component `cores`. Empty — and free —
    /// when stealing is off.
    fn drain_cores_journal(&mut self, now: SimTime) {
        let sanitizer = &self.sanitizer;
        self.sched
            .drain_journal_with(|op, key| sanitizer.record(now.as_nanos(), "cores", op, key));
    }

    /// Poll a pipeline, route its completion capsules, reschedule its wake.
    fn pump(&mut self, ssd: usize, now: SimTime) {
        let q = self.begin_quantum(ssd, now);
        self.sanitizer
            .record(now.as_nanos(), "switch.pipeline", "pump", ssd as u64);
        self.pipelines[ssd].poll(now);
        self.drain_broker_journal(now);
        let mut outs = std::mem::take(&mut self.out_buf);
        self.pipelines[ssd].take_outputs_into(&mut outs);
        for out in outs.drain(..) {
            // Journal at `now` (the poll step), not `out.at`: ticks must be
            // monotone and the capsule's departure lies in the future.
            self.sanitizer
                .record(now.as_nanos(), "switch.pipeline", "complete", out.cmd.id.0);
            if out.served_from_cache {
                // The SSD never saw this read: its DRAM-copy latency must
                // not pollute the device-latency signals (histograms, the
                // EWMA Gimbal-style monitors sample, the device meter).
                self.counters.cache_served += 1;
            } else {
                let lat_ns = out.device_latency.as_nanos();
                self.device_hist[ssd][out.cmd.opcode.index()].record(lat_ns);
                if self.trace.is_enabled() {
                    // Buffered for one observe_many flush after the loop:
                    // one tracer borrow per pump instead of one per IO.
                    // Samples keep their order, so digests are unchanged.
                    self.obs_buf.push((out.cmd.tenant, lat_ns));
                }
                self.dev_lat_ewma[ssd][out.cmd.opcode.index()].update(lat_ns as f64 / 1e3);
                self.dev_meter[ssd].record(now, out.cmd.len_bytes());
            }
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
            if let Some(f) = self.faults.as_mut() {
                // Cache for replay dedup. A missing entry means the
                // initiator already abandoned the command; the capsule
                // still travels and is ignored on arrival.
                if let Some(&h) = f.tracked.get(&cpl.id.0) {
                    f.arena.get_mut(h).expect("tracked handle is live").done_cpl = Some(cpl);
                }
            }
            self.send_completion(ssd, &out.cmd, cpl, out.at);
        }
        self.out_buf = outs;
        if !self.obs_buf.is_empty() {
            self.trace.observe_many("device_latency_ns", &self.obs_buf);
            self.obs_buf.clear();
        }
        if let Some(t) = self.pipelines[ssd].next_event_at() {
            let t = t.max(now + SimDuration::from_nanos(1));
            // Only schedule a wake if no earlier one is already pending;
            // that wake's pump will reschedule as needed.
            if t < self.wake_at[ssd] {
                self.wake_at[ssd] = t;
                self.queue.push(t, Ev::PipelineWake(ssd));
            }
        }
        self.sched.end(ssd, q);
    }

    fn sample(&mut self, now: SimTime) {
        for w in &mut self.workers {
            let bps = w.meter.rate_bytes_per_sec(now);
            w.series.push(now, bps);
        }
        for i in 0..self.pipelines.len() {
            let ds = &mut self.device_series[i];
            if let Some(r) = self.dev_lat_ewma[i][0].get() {
                ds.read_lat_us.push(now, r);
            }
            if let Some(w) = self.dev_lat_ewma[i][1].get() {
                ds.write_lat_us.push(now, w);
            }
            ds.bandwidth_bps
                .push(now, self.dev_meter[i].rate_bytes_per_sec(now));
        }
        for (i, p) in self.pipelines.iter().enumerate() {
            if let Some(g) = p.policy().as_any().downcast_ref::<GimbalPolicy>() {
                let tr = &mut self.traces[i];
                tr.target_rate.push(now, g.target_rate());
                tr.write_cost.push(now, g.current_write_cost());
                let rm = g.monitor(IoType::Read);
                tr.read_ewma_us.push(now, rm.ewma_ns() / 1e3);
                tr.read_thresh_us.push(now, rm.thresh_ns() / 1e3);
                let wm = g.monitor(IoType::Write);
                tr.write_ewma_us.push(now, wm.ewma_ns() / 1e3);
                tr.write_thresh_us.push(now, wm.thresh_ns() / 1e3);
            }
        }
    }

    /// Forward queued broker ledger decisions into the divergence journal.
    /// The ledger cannot see the event tick from inside a pipeline poll, so
    /// it queues records and the engine stamps them here — keeping journal
    /// ticks monotone while preserving decision order.
    fn drain_broker_journal(&mut self, now: SimTime) {
        let Some(b) = &self.broker else { return };
        b.drain_journal_with(|op, key| self.sanitizer.record(now.as_nanos(), "broker", op, key));
    }

    /// One broker settlement boundary: repay all debts, forgive departures
    /// (stopped workers, failed SSDs), optionally migrate tenants per the
    /// placement planner, then pump every pipeline — settlement restores
    /// lender balances, so parked requests may now clear the gate.
    fn broker_epoch(&mut self, now: SimTime) {
        let Some(broker) = self.broker.clone() else {
            return;
        };
        // Active tenant sets per live SSD. A failed SSD drops out entirely,
        // so every account and debt touching it is forgiven at settlement.
        let mut active: Vec<(SsdId, Vec<TenantId>)> = Vec::new();
        for ssd in 0..self.pipelines.len() {
            if self.pipelines[ssd].device().is_failed() {
                continue;
            }
            let mut tenants: Vec<TenantId> = Vec::new();
            for (wi, w) in self.workers.iter().enumerate() {
                if w.spec.ssd as usize == ssd && w.spec.stop.is_none_or(|s| now < s) {
                    tenants.push(TenantId(wi as u32));
                }
            }
            active.push((SsdId(ssd as u32), tenants));
        }
        broker.settle_epoch(now, &active);
        if self.cfg.broker.as_ref().is_some_and(|b| b.placement) {
            let telem = self.ssd_telemetry(now);
            for m in broker.plan_migrations(&telem) {
                broker.apply_migration(&m, now);
                // The worker's future commands target the new SSD; the
                // in-flight tail drains at the old one.
                self.workers[m.tenant.index()].spec.ssd = m.to.0;
            }
        }
        broker.end_epoch();
        self.drain_broker_journal(now);
        for ssd in 0..self.pipelines.len() {
            self.pump(ssd, now);
        }
        let epoch = self.cfg.broker.as_ref().expect("broker cfg").epoch;
        self.queue.push(now + epoch, Ev::BrokerEpoch);
    }

    /// Interference telemetry per SSD for the placement planner: liveness
    /// and GC state from the device; congestion and write cost from the
    /// Gimbal latency monitors when that policy runs (neutral defaults for
    /// the baseline schemes).
    fn ssd_telemetry(&self, now: SimTime) -> Vec<SsdTelemetry> {
        self.pipelines
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let (congested, write_cost_milli) =
                    match p.policy().as_any().downcast_ref::<GimbalPolicy>() {
                        Some(g) => {
                            let rm = g.monitor(IoType::Read);
                            let wm = g.monitor(IoType::Write);
                            let congested =
                                rm.ewma_ns() > rm.thresh_ns() || wm.ewma_ns() > wm.thresh_ns();
                            let wc = (g.current_write_cost() * 1000.0) as u64;
                            (congested, wc.max(1000))
                        }
                        None => (false, 1000),
                    };
                SsdTelemetry {
                    ssd: SsdId(i as u32),
                    alive: !p.device().is_failed(),
                    gc_busy: p.device().gc_busy(now),
                    congested,
                    write_cost_milli,
                }
            })
            .collect()
    }

    fn run(mut self) -> RunResult {
        for i in 0..self.workers.len() {
            let at = self.workers[i].spec.start;
            self.queue.push(at, Ev::WorkerStart(i));
        }
        if let Some(step) = self.cfg.sample_interval {
            self.queue.push(SimTime::ZERO + step, Ev::Sample);
        }
        if let Some(at) = self.cfg.faults.as_ref().and_then(|f| f.plan.power_loss_at) {
            self.queue.push(at, Ev::PowerLoss);
        }
        if let Some(bc) = &self.cfg.broker {
            self.queue.push(SimTime::ZERO + bc.epoch, Ev::BrokerEpoch);
        }
        if let Some(e) = self.sched.rebalance_epoch() {
            self.queue.push(SimTime::ZERO + e, Ev::CoresRebalance);
        }
        let end = self.duration();
        while let Some((now, ev)) = self.queue.pop() {
            if now > end {
                break;
            }
            self.events_processed += 1;
            if self.sanitizer.is_enabled() {
                let (component, op, key) = match &ev {
                    Ev::WorkerStart(i) => ("engine.worker", "start", *i as u64),
                    Ev::TryIssue(i) => ("engine.worker", "try_issue", *i as u64),
                    Ev::DeliverCmd { cmd, .. } => ("engine.fabric", "deliver_cmd", cmd.id.0),
                    Ev::PipelineWake(ssd) => ("engine.wake", "wake", *ssd as u64),
                    Ev::DeliverCpl { cpl, .. } => ("engine.fabric", "deliver_cpl", cpl.id.0),
                    Ev::Timeout { cmd, .. } => ("engine.fault", "timeout", *cmd),
                    Ev::PowerLoss => ("engine.fault", "power_loss", 0),
                    Ev::BrokerEpoch => ("engine.broker", "epoch", 0),
                    Ev::CoresRebalance => ("engine.cores", "rebalance", 0),
                    Ev::Sample => ("engine.sample", "sample", 0),
                };
                self.sanitizer.record(now.as_nanos(), component, op, key);
            }
            match ev {
                Ev::WorkerStart(i) => {
                    self.workers[i].started = true;
                    self.try_issue(i, now);
                }
                Ev::TryIssue(i) => {
                    self.workers[i].retry_pending = false;
                    self.try_issue(i, now);
                }
                Ev::DeliverCmd { ssd, cmd } => {
                    let action = match self.faults.as_mut() {
                        None => CmdAction::Execute,
                        Some(f) => match f.tracked.get(&cmd.id.0).copied() {
                            // Initiator already gave up on it: late replay.
                            None => CmdAction::Duplicate,
                            Some(h) => {
                                let t = f.arena.get_mut(h).expect("tracked handle is live");
                                match t.done_cpl {
                                    Some(cpl) => CmdAction::Resend(cpl),
                                    None if t.delivered => CmdAction::Duplicate,
                                    None => {
                                        t.delivered = true;
                                        CmdAction::Execute
                                    }
                                }
                            }
                        },
                    };
                    match action {
                        CmdAction::Execute => {
                            // The submit-path CPU charge must land on the
                            // quantum's core, so the scheduler decides
                            // before the command enters the pipeline; the
                            // pump below re-enters the same quantum.
                            let q = self.begin_quantum(ssd, now);
                            self.pipelines[ssd].on_command(cmd, now);
                            // Batched submission: coalesce the immediately
                            // following same-instant arrivals for this SSD
                            // into the open quantum — one scheduler decision
                            // and one pump per batch instead of per IO. Only
                            // fault-free (replay dedup can turn an arrival
                            // into a resend mid-batch), and only while the
                            // pipeline has nothing else due at `now`: an
                            // intermediate completion must interleave
                            // exactly as the unbatched engine would.
                            if self.cfg.batch > 1 && self.faults.is_none() {
                                let mut n = 1;
                                while n < self.cfg.batch
                                    && self.pipelines[ssd].next_event_at().is_none_or(|t| t > now)
                                {
                                    let Some(ev) = self.queue.pop_if_at(
                                        now,
                                        |e| matches!(e, Ev::DeliverCmd { ssd: s, .. } if *s == ssd),
                                    ) else {
                                        break;
                                    };
                                    let Ev::DeliverCmd { cmd, .. } = ev else {
                                        unreachable!("pop_if_at matched DeliverCmd")
                                    };
                                    self.events_processed += 1;
                                    self.sanitizer.record(
                                        now.as_nanos(),
                                        "engine.fabric",
                                        "deliver_cmd",
                                        cmd.id.0,
                                    );
                                    self.pipelines[ssd].on_command(cmd, now);
                                    n += 1;
                                }
                            }
                            self.sched.end(ssd, q);
                            self.pump(ssd, now);
                        }
                        CmdAction::Duplicate => self.counters.duplicate_cmds_ignored += 1,
                        CmdAction::Resend(cpl) => {
                            self.counters.completions_resent += 1;
                            self.send_completion(ssd, &cmd, cpl, now);
                        }
                    }
                }
                Ev::PipelineWake(ssd) => {
                    // Only the currently armed wake may pump; superseded
                    // (stale) wakes die here, otherwise they would respawn
                    // forever and flood the queue.
                    if self.wake_at[ssd] == now {
                        self.wake_at[ssd] = SimTime::MAX;
                        self.pump(ssd, now);
                    }
                }
                Ev::DeliverCpl { worker, cpl } => {
                    if let Some(f) = self.faults.as_mut() {
                        match f.tracked.remove(&cpl.id.0) {
                            None => {
                                // The command was already abandoned (final
                                // timeout): its outstanding slot is gone.
                                self.counters.stale_completions_ignored += 1;
                                continue;
                            }
                            Some(h) => {
                                // Terminal: recycle the record (the freed
                                // handle goes stale atomically).
                                f.arena.free(h).expect("tracked handle is live");
                            }
                        }
                    }
                    {
                        let in_window = self.in_window(worker, now);
                        let w = &mut self.workers[worker];
                        w.outstanding -= 1;
                        // Even error completions reach the client: they
                        // carry the credit grant that re-syncs §3.6 flow
                        // control after losses.
                        w.client.on_completion(&cpl, now);
                        if let Some(credit) = cpl.credit {
                            self.trace.record(
                                now,
                                cpl.ssd,
                                Some(cpl.tenant),
                                EventKind::CreditGranted { credit },
                            );
                        }
                        if cpl.status.is_success() {
                            self.counters.completed_ok += 1;
                            w.meter.record(now, u64::from(cpl.len));
                            if in_window {
                                w.ops += 1;
                                w.bytes += u64::from(cpl.len);
                                let e2e = now.since(cpl.issued_at);
                                match cpl.opcode {
                                    IoType::Read => w.read_hist.record_duration(e2e),
                                    IoType::Write => w.write_hist.record_duration(e2e),
                                }
                            }
                        } else {
                            // Failed IOs move no payload: they are
                            // accounted, not measured as throughput.
                            self.counters.completed_err += 1;
                        }
                    }
                    self.try_issue(worker, now);
                }
                Ev::Timeout { cmd, attempt } => {
                    let Some(f) = self.faults.as_mut() else {
                        continue;
                    };
                    let (track_cmd, worker, ssd, cur_attempt) = match f.tracked.get(&cmd).copied() {
                        None => continue, // already terminal
                        Some(h) => {
                            let t = f.arena.get(h).expect("tracked handle is live");
                            if t.attempt != attempt {
                                continue; // superseded timer
                            }
                            (t.cmd, t.worker, t.ssd, t.attempt)
                        }
                    };
                    if f.retry.exhausted(cur_attempt) {
                        // Out of retries: the command errors out
                        // client-side. Its grant is presumed lost, so the
                        // client shrinks its window (re-synced by the next
                        // surviving completion).
                        if let Some(h) = f.tracked.remove(&cmd) {
                            f.arena.free(h).expect("tracked handle is live");
                        }
                        self.counters.timed_out += 1;
                        self.trace.record(
                            now,
                            track_cmd.ssd,
                            Some(track_cmd.tenant),
                            EventKind::TimedOut {
                                cmd,
                                attempts: cur_attempt,
                            },
                        );
                        let w = &mut self.workers[worker];
                        w.outstanding -= 1;
                        let before = w.client.allowance();
                        w.client.on_timeout(now);
                        let after = w.client.allowance();
                        if after != before {
                            self.trace.record(
                                now,
                                track_cmd.ssd,
                                Some(track_cmd.tenant),
                                EventKind::CreditHalved { before, after },
                            );
                        }
                        self.try_issue(worker, now);
                        continue;
                    }
                    let next = cur_attempt + 1;
                    if let Some(&h) = f.tracked.get(&cmd) {
                        f.arena.get_mut(h).expect("tracked handle is live").attempt = next;
                    }
                    self.counters.retries += 1;
                    let deadline = now + f.retry.timeout_for(next);
                    self.trace.record(
                        now,
                        track_cmd.ssd,
                        Some(track_cmd.tenant),
                        EventKind::RetryScheduled {
                            cmd,
                            attempt: next,
                            timeout_ns: deadline.since(now).as_nanos(),
                        },
                    );
                    self.queue
                        .push(deadline, Ev::Timeout { cmd, attempt: next });
                    // Retransmit through the worker's port; the target
                    // dedups replays and resends cached completions.
                    let w = &mut self.workers[worker];
                    let mut arrive = self.delays.command_arrival(&mut w.tx_port, now, &track_cmd);
                    if track_cmd.opcode.is_write() {
                        arrive =
                            self.delays
                                .write_payload_fetched(&mut w.tx_port, arrive, &track_cmd);
                    }
                    if let Some(f) = self.faults.as_mut() {
                        if f.injector.drop_command(now) {
                            self.counters.cmd_capsules_dropped += 1;
                            self.trace.record(
                                now,
                                track_cmd.ssd,
                                Some(track_cmd.tenant),
                                EventKind::FaultInjected {
                                    capsule: CapsuleKind::Command,
                                },
                            );
                            continue;
                        }
                    }
                    self.queue.push(
                        arrive,
                        Ev::DeliverCmd {
                            ssd,
                            cmd: track_cmd,
                        },
                    );
                }
                Ev::PowerLoss => {
                    #[allow(unused_mut)]
                    let mut order: Vec<usize> = (0..self.pipelines.len()).collect();
                    #[cfg(test)]
                    if self.perturb_powerloss_pump {
                        order.reverse();
                    }
                    for ssd in order {
                        self.pipelines[ssd].power_loss(now);
                        self.pump(ssd, now);
                    }
                }
                Ev::BrokerEpoch => self.broker_epoch(now),
                Ev::CoresRebalance => {
                    self.sched.rebalance(now);
                    self.drain_cores_journal(now);
                    if let Some(e) = self.sched.rebalance_epoch() {
                        self.queue.push(now + e, Ev::CoresRebalance);
                    }
                }
                Ev::Sample => {
                    self.sample(now);
                    if let Some(step) = self.cfg.sample_interval {
                        self.queue.push(now + step, Ev::Sample);
                    }
                }
            }
        }

        // Commands still on the wire or in a device when the clock ran out.
        self.counters.in_flight_at_end =
            self.workers.iter().map(|w| u64::from(w.outstanding)).sum();
        debug_assert!(
            self.counters.conservation_holds(),
            "command conservation violated: {:?}",
            self.counters
        );

        // Export fabric-port utilization counters as whole-run gauges.
        if self.trace.is_enabled() {
            let (mut ib, mut im) = (0u64, 0u64);
            for w in &self.workers {
                ib += w.tx_port.bytes_sent();
                im += w.tx_port.messages_sent();
            }
            let (mut tb, mut tm) = (0u64, 0u64);
            for p in &self.target_ports {
                tb += p.bytes_sent();
                tm += p.messages_sent();
            }
            self.trace.set_gauge("initiator_bytes_sent", ib as f64);
            self.trace.set_gauge("initiator_messages_sent", im as f64);
            self.trace.set_gauge("target_bytes_sent", tb as f64);
            self.trace.set_gauge("target_messages_sent", tm as f64);
        }
        let trace = self.tracer.take().map(|t| t.borrow_mut().finish());

        let windows: Vec<SimDuration> = (0..self.workers.len())
            .map(|i| self.measured_window(i))
            .collect();
        let workers = self
            .workers
            .into_iter()
            .zip(windows)
            .map(|(w, window)| WorkerResult {
                label: w.spec.label,
                ops: w.ops,
                bytes: w.bytes,
                window,
                read_latency: w.read_hist.summary(),
                write_latency: w.write_hist.summary(),
                series: w.series,
            })
            .collect();
        let ssd_stats = self.pipelines.iter().map(|p| p.device().stats()).collect();
        let device_latency: Vec<[LatencySummary; 2]> = self
            .device_hist
            .iter()
            .map(|h| [h[0].summary(), h[1].summary()])
            .collect();
        // Per-SSD cache counters and typed staged-loss records, in pipeline
        // order; both stay empty on cache-off runs so digests are untouched.
        let cache: Vec<gimbal_cache::CacheStats> = self
            .pipelines
            .iter()
            .filter_map(|p| p.cache_stats())
            .collect();
        let cache_losses: Vec<gimbal_cache::StagedWriteLoss> = self
            .pipelines
            .iter()
            .flat_map(|p| p.cache_losses().iter().copied())
            .collect();
        // Write-back counters and durability journals, only under
        // `WritePolicy::Back` so write-through results stay bit-identical.
        let mut write_back = Vec::new();
        let mut journals = Vec::new();
        for p in &self.pipelines {
            if let Some(c) = p
                .cache()
                .filter(|c| c.write_policy() == gimbal_cache::WritePolicy::Back)
            {
                let wb = c.write_back_stats();
                debug_assert!(
                    wb.conservation_holds(),
                    "write-back line conservation violated: {wb:?}"
                );
                write_back.push(wb);
                journals.push(c.journal().to_vec());
            }
        }
        // Broker conservation must hold at every exit, not only in tests.
        if let Some(b) = &self.broker {
            b.audit();
        }
        let broker = self.broker.as_ref().map(|b| b.stats());
        // Scheduler counters exist only when stealing was configured, so
        // steal-off digests are bit-identical to pre-scheduler builds.
        let cores = self.cfg.steal.as_ref().map(|_| self.sched.stats());
        let access_journal = self.sanitizer.snapshot();
        RunResult {
            workers,
            ssd_stats,
            device_latency,
            gimbal_traces: self.traces,
            device_series: self.device_series,
            submissions: self.submissions,
            faults: self.counters,
            trace,
            cache,
            cache_losses,
            write_back,
            journals,
            access_journal,
            broker,
            cores,
            events_processed: self.events_processed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FaultConfig;
    use crate::scheme::Scheme;
    use gimbal_cores::StealConfig;
    use gimbal_sim::journal::first_divergence;
    use gimbal_workload::FioSpec;

    fn region(i: u32, n: u32, cap_blocks: u64) -> (u64, u64) {
        let per = cap_blocks / u64::from(n);
        (u64::from(i) * per, per)
    }

    fn base_cfg(scheme: Scheme, pre: Precondition) -> TestbedConfig {
        TestbedConfig {
            scheme,
            precondition: pre,
            duration: SimDuration::from_millis(800),
            warmup: SimDuration::from_millis(300),
            ..TestbedConfig::default()
        }
    }

    fn workers(n: u32, read_ratio: f64, io: u64, cap_blocks: u64) -> Vec<WorkerSpec> {
        (0..n)
            .map(|i| {
                let (start, blocks) = region(i, n, cap_blocks);
                WorkerSpec::new(
                    format!("w{i}"),
                    FioSpec::paper_default(read_ratio, io, start, blocks),
                )
            })
            .collect()
    }

    const CAP_BLOCKS: u64 = 512 * 1024 * 1024 / 4096;

    #[test]
    fn vanilla_single_reader_saturates_reads() {
        let cfg = base_cfg(Scheme::Vanilla, Precondition::Clean);
        let res = Testbed::new(cfg, workers(1, 1.0, 128 * 1024, CAP_BLOCKS)).run();
        let w = &res.workers[0];
        // One QD4 128 KB reader: decent but sub-peak bandwidth.
        assert!(
            w.bandwidth_mbps() > 1200.0,
            "128K QD4 reader: {:.0} MB/s",
            w.bandwidth_mbps()
        );
        assert!(w.read_latency.count > 1000);
        assert!(w.write_latency.count == 0);
    }

    #[test]
    fn gimbal_multi_tenant_read_fairness() {
        let cfg = TestbedConfig {
            duration: SimDuration::from_secs(2),
            warmup: SimDuration::from_millis(800),
            ..base_cfg(Scheme::Gimbal, Precondition::Fragmented)
        };
        let res = Testbed::new(cfg, workers(4, 1.0, 4096, CAP_BLOCKS)).run();
        let bws: Vec<f64> = res.workers.iter().map(|w| w.bandwidth_mbps()).collect();
        let total: f64 = bws.iter().sum();
        assert!(total > 800.0, "aggregate 4K read {total:.0} MB/s");
        let min = bws.iter().cloned().fold(f64::MAX, f64::min);
        let max = bws.iter().cloned().fold(0.0, f64::max);
        assert!(max / min < 1.35, "fair split: {bws:?}");
    }

    #[test]
    fn parda_clients_window_down_under_contention() {
        let cfg = base_cfg(Scheme::Parda, Precondition::Fragmented);
        let res = Testbed::new(cfg, workers(8, 1.0, 4096, CAP_BLOCKS)).run();
        let total: f64 = res.workers.iter().map(|w| w.bandwidth_mbps()).sum();
        assert!(total > 100.0, "parda makes progress: {total:.0} MB/s");
        // End-to-end p99 stays bounded (client-side backpressure).
        for w in &res.workers {
            assert!(
                w.read_latency.p99_us() < 5_000.0,
                "{}: p99 {:.0}us",
                w.label,
                w.read_latency.p99_us()
            );
        }
    }

    #[test]
    fn dynamic_worker_windows_are_honored() {
        let cfg = TestbedConfig {
            sample_interval: Some(SimDuration::from_millis(50)),
            ..base_cfg(Scheme::Gimbal, Precondition::Clean)
        };
        let cap = CAP_BLOCKS;
        let late = WorkerSpec::new("late", FioSpec::paper_default(1.0, 4096, 0, cap / 2))
            .active(SimTime::from_millis(400), None);
        let early = WorkerSpec::new("early", FioSpec::paper_default(1.0, 4096, cap / 2, cap / 2))
            .active(SimTime::ZERO, Some(SimTime::from_millis(400)));
        let res = Testbed::new(cfg, vec![late, early]).run();
        // Early worker only has 300→400 ms in window; late has 400→800 ms.
        assert!(res.workers[0].ops > 0);
        assert!(res.workers[1].ops > 0);
        assert!(res.workers[0].window > res.workers[1].window);
        assert!(!res.workers[0].series.is_empty());
    }

    #[test]
    fn gimbal_traces_are_recorded_when_sampling() {
        let cfg = TestbedConfig {
            sample_interval: Some(SimDuration::from_millis(20)),
            ..base_cfg(Scheme::Gimbal, Precondition::Clean)
        };
        let res = Testbed::new(cfg, workers(2, 1.0, 128 * 1024, CAP_BLOCKS)).run();
        let tr = &res.gimbal_traces[0];
        assert!(!tr.target_rate.is_empty());
        assert!(!tr.read_thresh_us.is_empty());
        // Threshold stays within [Thresh_min, Thresh_max].
        for &(_, v) in tr.read_thresh_us.points() {
            assert!((250.0..=1500.0).contains(&v), "thresh {v}us");
        }
        // Write cost is 9 throughout a read-only run.
        for &(_, v) in tr.write_cost.points() {
            assert_eq!(v, 9.0);
        }
    }

    #[test]
    fn non_gimbal_schemes_have_empty_traces() {
        let cfg = TestbedConfig {
            sample_interval: Some(SimDuration::from_millis(50)),
            ..base_cfg(Scheme::FlashFq, Precondition::Clean)
        };
        let res = Testbed::new(cfg, workers(1, 1.0, 4096, CAP_BLOCKS)).run();
        assert!(res.gimbal_traces[0].target_rate.is_empty());
        assert!(!res.workers[0].series.is_empty());
    }

    #[test]
    fn device_stats_reflect_write_amplification() {
        let cfg = TestbedConfig {
            duration: SimDuration::from_millis(600),
            ..base_cfg(Scheme::Vanilla, Precondition::Fragmented)
        };
        let res = Testbed::new(cfg, workers(4, 0.0, 4096, CAP_BLOCKS)).run();
        assert!(
            res.ssd_stats[0].write_amplification() > 1.5,
            "WA {:.2}",
            res.ssd_stats[0].write_amplification()
        );
        assert!(
            res.device_latency[0][1].count > 0,
            "write latencies observed"
        );
    }

    #[test]
    #[should_panic(expected = "missing SSD")]
    fn rejects_worker_on_missing_ssd() {
        let cfg = base_cfg(Scheme::Vanilla, Precondition::None);
        let w = WorkerSpec::new("w", FioSpec::paper_default(1.0, 4096, 0, 1024)).on_ssd(3);
        Testbed::new(cfg, vec![w]);
    }

    /// Injected nondeterminism, localized: reversing the pipeline pump
    /// order at the power-loss tick is exactly the class of bug the
    /// sanitizer exists for. The comparator must name the power-loss tick
    /// itself (not any later symptom) and the pipeline pump entry where the
    /// orders first differ.
    #[test]
    fn sanitizer_localizes_injected_pump_order_nondeterminism() {
        let loss_at = SimTime::ZERO + SimDuration::from_millis(200);
        let cfg = TestbedConfig {
            num_ssds: 2,
            cores: 2,
            sanitize: true,
            duration: SimDuration::from_millis(400),
            warmup: SimDuration::from_millis(100),
            faults: Some(FaultConfig {
                plan: FaultPlan {
                    power_loss_at: Some(loss_at),
                    ..FaultPlan::default()
                },
                retry: RetryConfig::default(),
            }),
            ..base_cfg(Scheme::Gimbal, Precondition::Clean)
        };
        let run = |perturb: bool| {
            let mut specs = workers(2, 0.5, 4096, CAP_BLOCKS);
            specs[1].ssd = 1;
            let mut e = Engine::build(cfg.clone(), specs);
            e.perturb_powerloss_pump = perturb;
            e.run()
        };

        // Control: two clean runs agree entry for entry.
        let a = run(false);
        let a2 = run(false);
        let ja = a.access_journal.as_ref().expect("sanitize was on");
        assert!(!ja.is_empty(), "journal recorded nothing");
        assert_eq!(
            first_divergence(ja, a2.access_journal.as_ref().unwrap()),
            None
        );
        assert_eq!(a.access_digest(), a2.access_digest());

        // Perturbed run: first divergence is the pump-order swap at the
        // power-loss tick, naming the pipeline component and the swapped
        // SSD keys.
        let b = run(true);
        let jb = b.access_journal.as_ref().expect("sanitize was on");
        let r = first_divergence(ja, jb).expect("perturbation must diverge");
        assert_eq!(r.tick, loss_at.as_nanos(), "wrong divergence tick: {r}");
        assert_eq!(r.component(), "switch.pipeline");
        let ea = r.a.expect("entry in clean run");
        let eb = r.b.expect("entry in perturbed run");
        assert_eq!(ea.op, "pump");
        assert_eq!(eb.op, "pump");
        assert_eq!((ea.key, eb.key), (0, 1), "pump order swap: {r}");
    }

    /// Three tenants share one SSD under the broker: a heavy 128 KiB reader
    /// plus two late-starting (hence idle, lendable) tenants. The heavy
    /// tenant must overdraw its entitled third and borrow.
    fn broker_cfg_and_workers(bc: gimbal_broker::BrokerConfig) -> (TestbedConfig, Vec<WorkerSpec>) {
        let cfg = TestbedConfig {
            duration: SimDuration::from_millis(400),
            warmup: SimDuration::from_millis(100),
            broker: Some(bc),
            ..base_cfg(Scheme::Gimbal, Precondition::Clean)
        };
        let per = CAP_BLOCKS / 3;
        let mut specs = vec![WorkerSpec::new(
            "heavy",
            FioSpec::paper_default(1.0, 128 * 1024, 0, per),
        )];
        for i in 1..3u64 {
            specs.push(
                WorkerSpec::new(
                    format!("idle{i}"),
                    FioSpec::paper_default(1.0, 4096, i * per, per),
                )
                .active(SimTime::from_millis(350), None),
            );
        }
        (cfg, specs)
    }

    #[test]
    fn broker_heavy_tenant_borrows_and_ledger_conserves() {
        let (cfg, specs) = broker_cfg_and_workers(gimbal_broker::BrokerConfig::default());
        let res = Testbed::new(cfg, specs).run();
        let b = res.broker.as_ref().expect("broker stats present");
        assert!(b.charged_bytes > 0, "gate charged nothing: {b:?}");
        assert!(b.borrow_events > 0, "heavy tenant never borrowed: {b:?}");
        assert!(b.epochs > 0, "no settlement ran: {b:?}");
        assert!(b.conservation_holds(), "ledger conservation: {b:?}");
        assert_eq!(b.floor_violations, 0);
        // The heavy reader still moves real traffic through the gate.
        assert!(res.workers[0].bandwidth_mbps() > 100.0);
    }

    /// Injected nondeterminism in the broker, localized: flipping the
    /// deterministic lexicographic lender scan is exactly the class of bug
    /// the ledger journal exists for. The comparator must blame the broker
    /// component's first borrow decision, naming the swapped lender keys.
    #[test]
    fn sanitizer_localizes_injected_lender_order_flip() {
        let run = |perturb: bool| {
            let bc = gimbal_broker::BrokerConfig {
                perturb_lender_order: perturb,
                ..gimbal_broker::BrokerConfig::default()
            };
            let (mut cfg, specs) = broker_cfg_and_workers(bc);
            cfg.sanitize = true;
            Engine::build(cfg, specs).run()
        };

        // Control: two clean broker runs agree entry for entry.
        let a = run(false);
        let a2 = run(false);
        let ja = a.access_journal.as_ref().expect("sanitize was on");
        assert!(
            a.broker.as_ref().expect("broker stats").borrow_events > 0,
            "clean run must borrow for the flip to matter"
        );
        assert_eq!(
            first_divergence(ja, a2.access_journal.as_ref().unwrap()),
            None
        );
        assert_eq!(a.access_digest(), a2.access_digest());

        // Perturbed run: the first divergence is the lender pick itself.
        let b = run(true);
        let jb = b.access_journal.as_ref().expect("sanitize was on");
        let r = first_divergence(ja, jb).expect("lender flip must diverge");
        assert_eq!(r.component(), "broker", "wrong component: {r}");
        let ea = r.a.expect("entry in clean run");
        let eb = r.b.expect("entry in perturbed run");
        assert_eq!(ea.op, "borrow");
        assert_eq!(eb.op, "borrow");
        assert_ne!(ea.key, eb.key, "lender keys must differ: {r}");
    }

    /// Skewed placement designed to exercise stealing: four SSDs over three
    /// cores (homes 0,1,2,0) with the only active workers on SSDs 0 and 3 —
    /// both homed on core 0 — so cores 1 and 2 sit idle and eligible to
    /// steal. Three cores matter: a two-core ring has a single thief
    /// candidate, which a ring-order flip cannot change.
    fn steal_cfg_and_workers(steal: StealConfig) -> (TestbedConfig, Vec<WorkerSpec>) {
        let cfg = TestbedConfig {
            num_ssds: 4,
            cores: 3,
            sanitize: true,
            duration: SimDuration::from_millis(400),
            warmup: SimDuration::from_millis(100),
            steal: Some(steal),
            ..base_cfg(Scheme::Gimbal, Precondition::Clean)
        };
        let specs = vec![
            WorkerSpec::new("hot0", FioSpec::paper_default(1.0, 4096, 0, CAP_BLOCKS)),
            WorkerSpec::new("hot3", FioSpec::paper_default(1.0, 4096, 0, CAP_BLOCKS)).on_ssd(3),
        ];
        (cfg, specs)
    }

    #[test]
    fn steal_on_double_runs_are_bit_identical() {
        let run = || {
            let (cfg, specs) = steal_cfg_and_workers(StealConfig::default());
            Engine::build(cfg, specs).run()
        };
        let a = run();
        let b = run();
        let ca = a.cores.as_ref().expect("cores stats present");
        assert!(ca.steals > 0, "skewed mix must steal: {ca:?}");
        assert_eq!(a.stats_digest(), b.stats_digest());
        assert_eq!(a.access_digest(), b.access_digest());
        assert_eq!(
            first_divergence(
                a.access_journal.as_ref().unwrap(),
                b.access_journal.as_ref().unwrap()
            ),
            None
        );
    }

    /// Injected nondeterminism in the core scheduler, localized: reversing
    /// the fixed-order steal ring is exactly the class of bug the scheduler
    /// journal exists for. The comparator must blame the cores component's
    /// first steal decision, naming the divergent thief core ids.
    #[test]
    fn sanitizer_localizes_injected_steal_order_flip() {
        let run = |perturb: bool| {
            let (cfg, specs) = steal_cfg_and_workers(StealConfig {
                perturb_steal_order: perturb,
                ..StealConfig::default()
            });
            Engine::build(cfg, specs).run()
        };

        // Control: two clean stealing runs agree entry for entry.
        let a = run(false);
        let a2 = run(false);
        let ja = a.access_journal.as_ref().expect("sanitize was on");
        assert!(
            a.cores.as_ref().expect("cores stats").steals > 0,
            "clean run must steal for the flip to matter"
        );
        assert_eq!(
            first_divergence(ja, a2.access_journal.as_ref().unwrap()),
            None
        );
        assert_eq!(a.access_digest(), a2.access_digest());

        // Perturbed run: the first divergence is the thief pick itself.
        let b = run(true);
        let jb = b.access_journal.as_ref().expect("sanitize was on");
        let r = first_divergence(ja, jb).expect("steal-ring flip must diverge");
        assert_eq!(r.component(), "cores", "wrong component: {r}");
        let ea = r.a.expect("entry in clean run");
        let eb = r.b.expect("entry in perturbed run");
        assert_eq!(ea.op, "steal");
        assert_eq!(eb.op, "steal");
        assert_ne!(ea.key, eb.key, "thief keys must differ: {r}");
    }
}
