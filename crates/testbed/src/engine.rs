//! The fio engine: closed-loop fio workers driving one [`Node`] over the
//! fabric through one [`Initiator`]. The node runs the target side and the
//! initiator the client side; this engine keeps what is its own — the
//! workers, the capsule path with its loss injection, same-instant
//! batching, and per-SSD device histograms.

use crate::config::{TestbedConfig, WorkerSpec};
use crate::initiator::{Expiry, Initiator, Timer};
use crate::node::{recorders, Node, NodeHost, NodeSpec, Tracing, Tracked};
use crate::results::{DeviceSeries, GimbalTrace, RunResult, SubmissionRecord, WorkerResult};
use gimbal_broker::{BrokerHandle, SsdTelemetry};
use gimbal_core::GimbalPolicy;
use gimbal_fabric::{IoType, NvmeCmd, NvmeCompletion, Port, RdmaDelays, SsdId, TenantId};
use gimbal_sim::journal::JournalHandle;
use gimbal_sim::{EventQueue, Ewma, Histogram, Meter, SimDuration, SimRng, SimTime, TimeSeries};
use gimbal_switch::PipelineOut;
use gimbal_telemetry::{CapsuleKind, TraceHandle};

enum Ev {
    WorkerStart(usize),
    TryIssue(usize),
    DeliverCmd(NvmeCmd),
    PipelineWake(usize),
    DeliverCpl(NvmeCompletion),
    /// A retransmission timer. Only pushed when fault injection is
    /// configured.
    Timeout(Timer),
    /// Simulated NIC power loss ([`gimbal_sim::FaultPlan::power_loss_at`]):
    /// every pipeline's NIC-DRAM cache is cleared cold and
    /// acked-but-unflushed write-back lines surface as
    /// [`gimbal_cache::StagedWriteLoss`].
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

struct Worker {
    spec: WorkerSpec,
    stream: gimbal_workload::FioStream,
    started: bool,
    retry_pending: bool,
    read_hist: Histogram,
    write_hist: Histogram,
    ops: u64,
    bytes: u64,
    meter: Meter,
    series: TimeSeries,
}

/// What the node calls back into: the event queue, the completion path
/// back to the workers, the initiator, and per-SSD device accounting.
struct Host {
    queue: EventQueue<Ev>,
    delays: RdmaDelays,
    target_ports: Vec<Port>,
    /// The workers' side: one client and one lane per worker.
    init: Initiator<()>,
    /// The engine's handle for device-latency observations and port gauges.
    trace: TraceHandle,
    device_hist: Vec<[Histogram; 2]>,
    /// Smoothed raw device latency per SSD and op type.
    dev_lat_ewma: Vec<[Ewma; 2]>,
    dev_meter: Vec<Meter>,
}

impl Host {
    /// Send a command capsule from its worker's port, subject to
    /// command-loss injection, after arming its timer when one comes.
    fn transmit(&mut self, cmd: NvmeCmd, timer: Option<Timer>, now: SimTime) {
        if let Some(t) = timer {
            self.queue.push(t.at, Ev::Timeout(t));
        }
        let arrive = self.init.wire(&self.delays, &cmd, now);
        if !self.init.lose(CapsuleKind::Command, &cmd, now) {
            self.queue.push(arrive, Ev::DeliverCmd(cmd));
        }
    }
}

impl NodeHost for Host {
    type Tag = ();

    fn arm_wake(&mut self, ssd: usize, at: SimTime) {
        self.queue.push(at, Ev::PipelineWake(ssd));
    }

    fn served(&mut self, ssd: usize, out: &PipelineOut, now: SimTime) {
        if out.served_from_cache {
            // The SSD never saw this read: its DRAM-copy latency must not
            // pollute the device-latency signals (histograms, the EWMA
            // Gimbal-style monitors sample, the device meter).
            self.init.served_from_cache();
            return;
        }
        let lat_ns = out.device_latency.as_nanos();
        let op = out.cmd.opcode.index();
        self.device_hist[ssd][op].record(lat_ns);
        self.trace
            .observe("device_latency_ns", out.cmd.tenant, lat_ns);
        self.dev_lat_ewma[ssd][op].update(lat_ns as f64 / 1e3);
        self.dev_meter[ssd].record(now, out.cmd.len_bytes());
    }

    /// Completion capsules leave the target's port, subject to
    /// completion-loss injection.
    fn send(&mut self, ssd: usize, cmd: &NvmeCmd, cpl: NvmeCompletion, at: SimTime) {
        let arrive = self
            .delays
            .completion_arrival(&mut self.target_ports[ssd], at, cmd);
        if !self.init.lose(CapsuleKind::Completion, cmd, at) {
            self.queue.push(arrive, Ev::DeliverCpl(cpl));
        }
    }

    fn in_flight(&mut self) -> Option<Tracked<'_, ()>> {
        self.init.in_flight()
    }
}

/// A configured experiment, ready to run.
pub struct Testbed {
    cfg: TestbedConfig,
    node: Node,
    host: Host,
    workers: Vec<Worker>,
    traces: Vec<GimbalTrace>,
    device_series: Vec<DeviceSeries>,
    /// Submission trace, populated when `cfg.record_submissions` is set.
    submissions: Vec<SubmissionRecord>,
    tracer: Tracing,
    /// Divergence sanitizer handle ([`TestbedConfig::sanitize`]); disabled
    /// by default, so record sites cost one `None` branch.
    sanitizer: JournalHandle,
    /// Shared broker ledger (`None` = broker off; pipelines then carry no
    /// gate and no epoch events are scheduled).
    broker: Option<BrokerHandle>,
    /// Total events popped from the event queue, including batch-coalesced
    /// command deliveries. Pure perf instrumentation; never folded into
    /// digests.
    events_processed: u64,
}

impl Testbed {
    /// Create a testbed with the given workers.
    pub fn new(cfg: TestbedConfig, specs: Vec<WorkerSpec>) -> Self {
        cfg.validate();
        assert!(!specs.is_empty(), "no specs");
        for w in &specs {
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
        let mut root_rng = SimRng::new(cfg.seed);
        let mut cpu_cost = cfg.scheme.cpu_cost(cfg.xeon);
        cpu_cost.submit += cfg.added_per_io_us * gimbal_nic::CYCLES_PER_US;

        let (tracer, trace, sanitizer) = recorders(cfg.trace.as_ref(), cfg.sanitize);
        let broker = cfg
            .broker
            .as_ref()
            .map(|bc| BrokerHandle::new(bc.clone(), trace.clone()));
        let plan = cfg.faults.as_ref().map(|fc| &fc.plan);
        let node = Node::build(
            NodeSpec {
                first_ssd: 0,
                ssds: cfg.num_ssds as usize,
                cores: cfg.cores as usize,
                scheme: cfg.scheme,
                gimbal_params: cfg.gimbal_params,
                ssd: &cfg.ssd,
                precondition: cfg.precondition,
                cpu_cost,
                cache: cfg.cache.clone(),
                broker: broker.clone(),
                steal: cfg.steal.clone(),
                seed: cfg.seed,
                trace: &trace,
                sanitizer: &sanitizer,
            },
            &mut root_rng,
            |i| {
                plan.and_then(|p| p.ssd_spec(i))
                    .cloned()
                    .unwrap_or_default()
            },
        );

        let workers: Vec<Worker> = specs
            .into_iter()
            .enumerate()
            .map(|(i, spec)| Worker {
                stream: gimbal_workload::FioStream::new(spec.fio, root_rng.fork(i as u64)),
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

        let n = cfg.num_ssds as usize;
        let host = Host {
            queue: EventQueue::new(),
            delays: RdmaDelays::new(cfg.fabric),
            target_ports: (0..n)
                .map(|_| Port::new(cfg.fabric.port_bandwidth))
                .collect(),
            init: Initiator::new(
                workers.len(),
                1,
                cfg.fabric.port_bandwidth,
                cfg.faults.as_ref(),
                cfg.seed,
                trace.clone(),
                || cfg.scheme.client_gate(cfg.gimbal_params, true),
            ),
            trace,
            device_hist: (0..n)
                .map(|_| [Histogram::new(), Histogram::new()])
                .collect(),
            dev_lat_ewma: (0..n).map(|_| [Ewma::new(0.2), Ewma::new(0.2)]).collect(),
            dev_meter: (0..n)
                .map(|_| Meter::new(SimDuration::from_millis(10), 10))
                .collect(),
        };

        Testbed {
            node,
            host,
            workers,
            traces: (0..n).map(|_| GimbalTrace::default()).collect(),
            device_series: (0..n).map(|_| DeviceSeries::default()).collect(),
            submissions: Vec::new(),
            events_processed: 0,
            tracer,
            sanitizer,
            broker,
            cfg,
        }
    }

    fn duration(&self) -> SimTime {
        SimTime::ZERO + self.cfg.duration
    }

    /// A worker's measured window, `[lo, hi)`.
    fn window(&self, w: usize) -> (SimTime, SimTime) {
        let spec = &self.workers[w].spec;
        let lo = spec.start.max(SimTime::ZERO + self.cfg.warmup);
        (lo, spec.stop.unwrap_or(SimTime::MAX).min(self.duration()))
    }

    fn try_issue(&mut self, wi: usize, now: SimTime) {
        let stop = self.workers[wi].spec.stop.unwrap_or(SimTime::MAX);
        if !self.workers[wi].started || now >= stop || now >= self.duration() {
            return;
        }
        loop {
            let w = &mut self.workers[wi];
            let init = &mut self.host.init;
            if !init.admits(wi, 0, w.spec.fio.queue_depth, now) {
                break; // resumed by the next completion
            }
            match w.stream.rate_gate(now) {
                Ok(()) => {}
                Err(at) => {
                    if !w.retry_pending {
                        w.retry_pending = true;
                        self.host.queue.push(at, Ev::TryIssue(wi));
                    }
                    break;
                }
            }
            let io = w.stream.next_io(now);
            let (cmd, timer) = init.submit((), now, |id| NvmeCmd {
                id,
                tenant: TenantId(wi as u32),
                ssd: SsdId(w.spec.ssd),
                opcode: io.op,
                lba: io.lba,
                len: io.len as u32,
                priority: w.spec.priority,
                issued_at: now,
                wal: None,
            });
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
            self.host.transmit(cmd, timer, now);
        }
    }

    /// A completion capsule reached its worker.
    fn complete(&mut self, cpl: NvmeCompletion, now: SimTime) {
        if self.host.init.complete(&cpl, now).is_none() {
            return; // already abandoned: its slot is gone
        }
        let worker = cpl.tenant.index();
        let (lo, hi) = self.window(worker);
        let w = &mut self.workers[worker];
        // Failed IOs move no payload: they are accounted, not measured as
        // throughput.
        if cpl.status.is_success() {
            w.meter.record(now, u64::from(cpl.len));
            if now >= lo && now < hi {
                w.ops += 1;
                w.bytes += u64::from(cpl.len);
                let e2e = now.since(cpl.issued_at);
                match cpl.opcode {
                    IoType::Read => w.read_hist.record_duration(e2e),
                    IoType::Write => w.write_hist.record_duration(e2e),
                }
            }
        }
        self.try_issue(worker, now);
    }

    fn sample(&mut self, now: SimTime) {
        for w in &mut self.workers {
            let bps = w.meter.rate_bytes_per_sec(now);
            w.series.push(now, bps);
        }
        for (i, ds) in self.device_series.iter_mut().enumerate() {
            let [r, w] = &self.host.dev_lat_ewma[i];
            if let Some(r) = r.get() {
                ds.read_lat_us.push(now, r);
            }
            if let Some(w) = w.get() {
                ds.write_lat_us.push(now, w);
            }
            ds.bandwidth_bps
                .push(now, self.host.dev_meter[i].rate_bytes_per_sec(now));
        }
        self.node.sample_gimbal(now, &mut self.traces);
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
        for (ssd, p) in self.node.pipelines().iter().enumerate() {
            if p.device().is_failed() {
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
        broker
            .drain_journal_with(|op, key| self.sanitizer.record(now.as_nanos(), "broker", op, key));
        self.node.pump_all(now, &mut self.host);
        let epoch = self.cfg.broker.as_ref().expect("broker cfg").epoch;
        self.host.queue.push(now + epoch, Ev::BrokerEpoch);
    }

    /// Interference telemetry per SSD for the placement planner: liveness
    /// and GC state from the device; congestion and write cost from the
    /// Gimbal latency monitors when that policy runs (neutral defaults for
    /// the baseline schemes).
    fn ssd_telemetry(&self, now: SimTime) -> Vec<SsdTelemetry> {
        self.node
            .pipelines()
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

    /// Run the experiment to completion and collect results.
    pub fn run(mut self) -> RunResult {
        for i in 0..self.workers.len() {
            let at = self.workers[i].spec.start;
            self.host.queue.push(at, Ev::WorkerStart(i));
        }
        if let Some(step) = self.cfg.sample_interval {
            self.host.queue.push(SimTime::ZERO + step, Ev::Sample);
        }
        if let Some(at) = self.cfg.faults.as_ref().and_then(|f| f.plan.power_loss_at) {
            self.host.queue.push(at, Ev::PowerLoss);
        }
        if let Some(bc) = &self.cfg.broker {
            self.host
                .queue
                .push(SimTime::ZERO + bc.epoch, Ev::BrokerEpoch);
        }
        if let Some(e) = self.node.rebalance_epoch() {
            self.host.queue.push(SimTime::ZERO + e, Ev::CoresRebalance);
        }
        let end = self.duration();
        while let Some((now, ev)) = self.host.queue.pop() {
            if now > end {
                break;
            }
            self.events_processed += 1;
            if self.sanitizer.is_enabled() {
                let (component, op, key) = match &ev {
                    Ev::WorkerStart(i) => ("engine.worker", "start", *i as u64),
                    Ev::TryIssue(i) => ("engine.worker", "try_issue", *i as u64),
                    Ev::DeliverCmd(cmd) => ("engine.fabric", "deliver_cmd", cmd.id.0),
                    Ev::PipelineWake(ssd) => ("engine.wake", "wake", *ssd as u64),
                    Ev::DeliverCpl(cpl) => ("engine.fabric", "deliver_cpl", cpl.id.0),
                    Ev::Timeout(t) => ("engine.fault", "timeout", t.cmd),
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
                Ev::DeliverCmd(cmd) => {
                    // Batched submission: coalesce the immediately following
                    // same-instant arrivals for this SSD into one quantum.
                    let ssd = cmd.ssd.index();
                    let (sanitizer, events) = (&self.sanitizer, &mut self.events_processed);
                    let more = |host: &mut Host| {
                        let same_ssd =
                            |e: &Ev| matches!(e, Ev::DeliverCmd(c) if c.ssd.index() == ssd);
                        let Ev::DeliverCmd(cmd) = host.queue.pop_if_at(now, same_ssd)? else {
                            unreachable!("pop_if_at matched DeliverCmd")
                        };
                        *events += 1;
                        sanitizer.record(now.as_nanos(), "engine.fabric", "deliver_cmd", cmd.id.0);
                        Some(cmd)
                    };
                    let batch = self.cfg.batch;
                    self.node
                        .deliver(ssd, cmd, now, &mut self.host, batch, more);
                }
                Ev::PipelineWake(ssd) => self.node.wake(ssd, now, &mut self.host),
                Ev::DeliverCpl(cpl) => self.complete(cpl, now),
                // Retransmit, or once retries are exhausted the command
                // errors out client-side and its worker refills. The target
                // dedups replays and resends cached completions.
                Ev::Timeout(t) => match self.host.init.on_timer(t, now, |_| false) {
                    Some(Expiry::Retransmit { cmd, timer }) => {
                        self.host.transmit(cmd, Some(timer), now)
                    }
                    Some(Expiry::Abandoned { entry, .. }) => {
                        self.try_issue(entry.cmd.tenant.index(), now)
                    }
                    None => {}
                },
                Ev::PowerLoss => self.node.power_loss(now, &mut self.host),
                Ev::BrokerEpoch => self.broker_epoch(now),
                Ev::CoresRebalance => {
                    self.node.rebalance(now);
                    if let Some(e) = self.node.rebalance_epoch() {
                        self.host.queue.push(now + e, Ev::CoresRebalance);
                    }
                }
                Ev::Sample => {
                    self.sample(now);
                    if let Some(step) = self.cfg.sample_interval {
                        self.host.queue.push(now + step, Ev::Sample);
                    }
                }
            }
        }

        let counters = self.host.init.finish();

        // Export fabric-port utilization counters as whole-run gauges.
        let trace = &self.host.trace;
        if trace.is_enabled() {
            let sent = |ports: &[Port]| {
                let bytes: u64 = ports.iter().map(Port::bytes_sent).sum();
                (bytes, ports.iter().map(Port::messages_sent).sum::<u64>())
            };
            let (ib, im) = sent(self.host.init.ports());
            let (tb, tm) = sent(&self.host.target_ports);
            trace.set_gauge("initiator_bytes_sent", ib as f64);
            trace.set_gauge("initiator_messages_sent", im as f64);
            trace.set_gauge("target_bytes_sent", tb as f64);
            trace.set_gauge("target_messages_sent", tm as f64);
        }
        let windows: Vec<SimDuration> = (0..self.workers.len())
            .map(|i| match self.window(i) {
                (lo, hi) if hi > lo => hi.since(lo),
                _ => SimDuration::ZERO,
            })
            .collect();
        let trace = self.tracer.finish();
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
        let device = self.node.device_results();
        // Broker conservation must hold at every exit, not only in tests.
        if let Some(b) = &self.broker {
            b.audit();
        }
        RunResult {
            workers,
            ssd_stats: device.ssd_stats,
            device_latency: self
                .host
                .device_hist
                .iter()
                .map(|h| [h[0].summary(), h[1].summary()])
                .collect(),
            gimbal_traces: self.traces,
            device_series: self.device_series,
            submissions: self.submissions,
            faults: counters,
            trace,
            cache: device.cache,
            cache_losses: device.cache_losses,
            write_back: device.write_back,
            journals: device.journals,
            access_journal: self.sanitizer.snapshot(),
            broker: self.broker.as_ref().map(|b| b.stats()),
            cores: self.node.cores_stats(),
            events_processed: self.events_processed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FaultConfig, Precondition};
    use crate::scheme::Scheme;
    use gimbal_cores::StealConfig;
    use gimbal_fabric::RetryConfig;
    use gimbal_sim::journal::first_divergence;
    use gimbal_sim::FaultPlan;
    use gimbal_telemetry::{EventKind, TraceConfig};
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

    /// The credit gate starts from `gimbal_params.initial_credit_ios`: with
    /// one initial credit, a QD-4 worker sends one command and waits for
    /// its completion's grant before sending more.
    #[test]
    fn initial_credit_bounds_submissions_before_the_first_grant() {
        let cfg = TestbedConfig {
            duration: SimDuration::from_millis(50),
            warmup: SimDuration::from_millis(10),
            record_submissions: true,
            trace: Some(TraceConfig::default()),
            gimbal_params: gimbal_core::Params {
                initial_credit_ios: 1,
                ..gimbal_core::Params::default()
            },
            ..base_cfg(Scheme::Gimbal, Precondition::Clean)
        };
        let res = Testbed::new(cfg, workers(3, 1.0, 4096, CAP_BLOCKS)).run();
        let trace = res.trace.as_ref().expect("tracing was on");
        for w in 0..3u32 {
            let first_grant = trace
                .events
                .iter()
                .find(|e| {
                    e.tenant == Some(TenantId(w))
                        && matches!(e.kind, EventKind::CreditGranted { .. })
                })
                .expect("every worker completes a command")
                .at
                .as_nanos();
            let early = res
                .submissions
                .iter()
                .filter(|s| s.tenant == w && s.at_ns < first_grant)
                .count();
            assert_eq!(
                early, 1,
                "worker {w}: {early} submissions before its first grant"
            );
        }
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
            let mut e = Testbed::new(cfg.clone(), specs);
            e.node.perturb_powerloss_pump = perturb;
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
            Testbed::new(cfg, specs).run()
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
            Testbed::new(cfg, specs).run()
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
            Testbed::new(cfg, specs).run()
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
