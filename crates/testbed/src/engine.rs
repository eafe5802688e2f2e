//! The fio engine: closed-loop fio workers driving one [`crate::Node`] over
//! the direct fabric, in the shared [`Reactor`]. The reactor runs the node,
//! the initiator and every shared event; this engine keeps what is its own
//! — the workers and their issue path, worker and device series, and the
//! broker's placement planner.

use crate::config::{TestbedConfig, WorkerSpec};
use crate::initiator::{Expiry, Timer};
use crate::reactor::{Engine, Reactor, Rig};
use crate::results::{DeviceSeries, RunResult, SubmissionRecord, WorkerResult};
use gimbal_broker::{BrokerHandle, SsdTelemetry};
use gimbal_core::GimbalPolicy;
use gimbal_fabric::{IoType, NvmeCmd, NvmeCompletion, Port, SsdId, TenantId};
use gimbal_sim::{Histogram, Meter, SimDuration, SimRng, SimTime, TimeSeries};

/// The fio engine's own events.
#[derive(Clone, Copy)]
pub enum Ev {
    WorkerStart(usize),
    TryIssue(usize),
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

/// A configured experiment, ready to run.
pub struct Testbed {
    cfg: TestbedConfig,
    /// One node; one initiator client and lane per worker.
    rt: Reactor<Testbed>,
    workers: Vec<Worker>,
    device_series: Vec<DeviceSeries>,
    /// Submission trace, populated when `cfg.record_submissions` is set.
    submissions: Vec<SubmissionRecord>,
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
        let n = cfg.num_ssds as usize;
        let rt = Reactor::new(
            Rig {
                nodes: 1,
                ssds_per_node: n,
                cores_per_node: cfg.cores as usize,
                scheme: cfg.scheme,
                gimbal_params: cfg.gimbal_params,
                ssd: &cfg.ssd,
                precondition: cfg.precondition,
                cpu_cost,
                cache: cfg.cache.clone(),
                broker: cfg.broker.as_ref(),
                steal: cfg.steal.clone(),
                trace: cfg.trace.as_ref(),
                sanitize: cfg.sanitize,
                seed: cfg.seed,
                clients: specs.len(),
                lanes: 1,
                fabric: cfg.fabric,
                flow_control: true,
                plan: cfg
                    .faults
                    .as_ref()
                    .map(|f| f.plan.clone())
                    .unwrap_or_default(),
                retry: cfg.faults.as_ref().map(|f| f.retry),
                tor: None,
                meter_devices: true,
                batch: cfg.batch,
                sample_interval: cfg.sample_interval,
                duration: cfg.duration,
            },
            &mut root_rng,
        );
        let workers = specs
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
        Testbed {
            rt,
            workers,
            device_series: (0..n).map(|_| DeviceSeries::default()).collect(),
            submissions: Vec::new(),
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
            let host = &mut self.rt.host;
            if !host.init.admits(wi, 0, w.spec.fio.queue_depth, now) {
                break; // resumed by the next completion
            }
            match w.stream.rate_gate(now) {
                Ok(()) => {}
                Err(at) => {
                    if !w.retry_pending {
                        w.retry_pending = true;
                        host.push(at, Ev::TryIssue(wi));
                    }
                    break;
                }
            }
            let io = w.stream.next_io(now);
            let (cmd, timer) = host.init.submit((), now, |id| NvmeCmd {
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
            self.rt
                .sanitizer
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
            self.rt.host.transmit(cmd, timer, now);
        }
    }

    /// Interference telemetry per SSD for the placement planner: liveness
    /// and GC state from the device; congestion and write cost from the
    /// Gimbal latency monitors when that policy runs (neutral defaults for
    /// the baseline schemes).
    fn ssd_telemetry(&self, now: SimTime) -> Vec<SsdTelemetry> {
        self.rt.nodes[0]
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
            self.rt.host.push(at, Ev::WorkerStart(i));
        }
        Reactor::run(&mut self);

        // Export fabric-port utilization counters as whole-run gauges.
        let (host, trace) = (&self.rt.host, &self.rt.trace);
        if trace.is_enabled() {
            let sent = |ports: &[Port]| {
                let bytes: u64 = ports.iter().map(Port::bytes_sent).sum();
                (bytes, ports.iter().map(Port::messages_sent).sum::<u64>())
            };
            let (ib, im) = sent(host.init.ports());
            let (tb, tm) = sent(&host.ports);
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
        let device_latency = host
            .meters
            .iter()
            .flat_map(|m| &m.hist)
            .map(|h| [h[0].summary(), h[1].summary()])
            .collect();
        let out = self.rt.finish();
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
        RunResult {
            workers,
            ssd_stats: out.ssd_stats,
            device_latency,
            gimbal_traces: out.gimbal_traces,
            device_series: self.device_series,
            submissions: self.submissions,
            faults: out.faults,
            trace: out.trace,
            cache: out.cache,
            cache_losses: out.cache_losses,
            write_back: out.write_back,
            journals: out.journals,
            access_journal: out.access_journal,
            broker: out.broker,
            cores: out.cores.into_iter().next(),
            events_processed: out.events_processed,
        }
    }
}

impl Engine for Testbed {
    type Ev = Ev;
    type Tag = ();
    type Queued = ();

    fn rt(&mut self) -> &mut Reactor<Self> {
        &mut self.rt
    }

    fn label(ev: &Ev) -> (&'static str, &'static str, u64) {
        match *ev {
            Ev::WorkerStart(i) => ("engine.worker", "start", i as u64),
            Ev::TryIssue(i) => ("engine.worker", "try_issue", i as u64),
        }
    }

    fn on_event(&mut self, ev: Ev, now: SimTime) {
        match ev {
            Ev::WorkerStart(i) => self.workers[i].started = true,
            Ev::TryIssue(i) => self.workers[i].retry_pending = false,
        }
        let (Ev::WorkerStart(i) | Ev::TryIssue(i)) = ev;
        self.try_issue(i, now);
    }

    /// A completion capsule reached its worker.
    fn complete(&mut self, cpl: NvmeCompletion, now: SimTime) {
        if self.rt.host.init.complete(&cpl, now).is_none() {
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

    /// Retransmit, or once retries are exhausted the command errors out
    /// client-side and its worker refills. The target dedups replays and
    /// resends cached completions.
    fn timeout(&mut self, t: Timer, now: SimTime) {
        let host = &mut self.rt.host;
        match host.init.on_timer(t, now, |_| false) {
            Some(Expiry::Retransmit { cmd, timer }) => host.transmit(cmd, Some(timer), now),
            Some(Expiry::Abandoned { entry, .. }) => self.try_issue(entry.cmd.tenant.index(), now),
            None => {}
        }
    }

    /// Workers homed on `ssd` that have not stopped.
    fn tenants(&mut self, ssd: usize, now: SimTime) -> Vec<TenantId> {
        (self.workers.iter().enumerate())
            .filter(|(_, w)| w.spec.ssd as usize == ssd && w.spec.stop.is_none_or(|s| now < s))
            .map(|(wi, _)| TenantId(wi as u32))
            .collect()
    }

    /// Migrate tenants per the placement planner, when it runs.
    fn settled(&mut self, broker: &BrokerHandle, now: SimTime) {
        if !self.cfg.broker.as_ref().is_some_and(|b| b.placement) {
            return;
        }
        for m in broker.plan_migrations(&self.ssd_telemetry(now)) {
            broker.apply_migration(&m, now);
            // The worker's future commands target the new SSD; the
            // in-flight tail drains at the old one.
            self.workers[m.tenant.index()].spec.ssd = m.to.0;
        }
    }

    fn sample(&mut self, now: SimTime) {
        for w in &mut self.workers {
            let bps = w.meter.rate_bytes_per_sec(now);
            w.series.push(now, bps);
        }
        let Some(m) = &mut self.rt.host.meters else {
            return;
        };
        for (i, ds) in self.device_series.iter_mut().enumerate() {
            let [r, w] = &m.lat_ewma[i];
            if let Some(r) = r.get() {
                ds.read_lat_us.push(now, r);
            }
            if let Some(w) = w.get() {
                ds.write_lat_us.push(now, w);
            }
            ds.bandwidth_bps
                .push(now, m.meter[i].rate_bytes_per_sec(now));
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
            e.rt.nodes[0].perturb_powerloss_pump = perturb;
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
