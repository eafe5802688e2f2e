//! The application-level testbed: YCSB over LSM stores over the blobstore
//! over NVMe-oF (§4.3 / §5.6, Figs 10–13).
//!
//! Multiple DB instances share a pool of JBOF nodes. Each instance runs a
//! closed loop of YCSB operations against its own [`gimbal_lsm_kv::LsmKv`];
//! the store's IO plans flow through the initiator's per-backend
//! priority queues and gates (credits for Gimbal, windows for Parda),
//! across the fabric, into the per-SSD switch pipelines. Each store is
//! pumped after every step on its instance and at its next WAL-batch
//! deadline ([`LsmKv::next_deadline`]), never on a fixed grid (DESIGN.md
//! §21.7).

use crate::config::Precondition;
use crate::initiator::Timer;
use crate::reactor::{Direct, Engine, Reactor, Rig};
use crate::results::{FaultCounters, GimbalTrace};
use crate::scheme::Scheme;
use gimbal_blobstore::{BackendId, Blobstore, HbaConfig, HierarchicalAllocator, RateLimiter};
use gimbal_core::Params;
use gimbal_fabric::{FabricConfig, NvmeCmd, NvmeCompletion, SsdId, TenantId};
use gimbal_lsm_kv::{IoCtx, LsmConfig, LsmKv, LsmStats, StepOutput, TaggedIo};
use gimbal_sim::collections::DetMap;
use gimbal_sim::stats::LatencySummary;
use gimbal_sim::{Histogram, SimDuration, SimRng, SimTime};
use gimbal_ssd::{SsdConfig, SsdStats};
use gimbal_workload::{KvOp, YcsbMix, YcsbWorkload};

/// Configuration of a KV-store experiment.
#[derive(Clone, Debug)]
pub struct KvTestbedConfig {
    /// Scheme at the JBOFs.
    pub scheme: Scheme,
    /// Gimbal parameters.
    pub gimbal_params: Params,
    /// SSD model.
    pub ssd: SsdConfig,
    /// JBOF node count (3 in Fig 10).
    pub num_nodes: u32,
    /// SSDs per node (4 on the Stingray).
    pub ssds_per_node: u32,
    /// DB instances.
    pub instances: u32,
    /// Preloaded records per instance (paper: 10 M 1 KB pairs; scaled down
    /// with the SSD capacity).
    pub records_per_instance: u64,
    /// YCSB mix.
    pub mix: YcsbMix,
    /// Outstanding operations per instance (closed loop).
    pub ops_concurrency: u32,
    /// LSM tuning.
    pub lsm: LsmConfig,
    /// Replicate files (primary + shadow, §4.3).
    pub replicate: bool,
    /// Client-side IO rate limiter (credit flow control) enabled.
    pub flow_control: bool,
    /// Read load balancer enabled.
    pub load_balance: bool,
    /// SSD preconditioning (§5.6 runs on fragmented SSDs).
    pub precondition: Precondition,
    /// Fabric parameters.
    pub fabric: FabricConfig,
    /// Run length.
    pub duration: SimDuration,
    /// Measurement starts here.
    pub warmup: SimDuration,
    /// Seed.
    pub seed: u64,
    /// Record Gimbal control traces at this interval.
    pub sample_interval: Option<SimDuration>,
    /// Inject a permanent flash failure: backend index + instant.
    pub fail_backend_at: Option<(u32, SimDuration)>,
    /// Simulated NIC power loss at this offset: every backend cache is
    /// cleared cold and write-back dirty lines surface as typed losses the
    /// crash-consistency oracle accounts for exactly.
    pub power_loss_at: Option<SimDuration>,
    /// NIC-DRAM cache tier per backend pipeline. `None` (the default) — or a
    /// zero-capacity config — constructs no cache: such a run is
    /// bit-identical to one on a build without cache support.
    pub cache: Option<gimbal_cache::CacheConfig>,
}

impl Default for KvTestbedConfig {
    fn default() -> Self {
        KvTestbedConfig {
            scheme: Scheme::Gimbal,
            gimbal_params: Params::default(),
            ssd: SsdConfig {
                logical_capacity: 512 * 1024 * 1024,
                ..SsdConfig::default()
            },
            num_nodes: 1,
            ssds_per_node: 2,
            instances: 4,
            records_per_instance: 20_000,
            mix: YcsbMix::A,
            ops_concurrency: 4,
            lsm: LsmConfig::default(),
            replicate: true,
            flow_control: true,
            load_balance: true,
            precondition: Precondition::Fragmented,
            fabric: FabricConfig::default(),
            duration: SimDuration::from_secs(2),
            warmup: SimDuration::from_millis(500),
            seed: 42,
            sample_interval: None,
            fail_backend_at: None,
            power_loss_at: None,
            cache: None,
        }
    }
}

impl KvTestbedConfig {
    /// Total backends (SSDs across nodes).
    pub fn backends(&self) -> u32 {
        self.num_nodes * self.ssds_per_node
    }
}

/// Per-instance measurements.
#[derive(Clone, Debug)]
pub struct KvInstanceResult {
    /// Operations completed in the measured window.
    pub ops: u64,
    /// Read-op latency (YCSB read operations end-to-end).
    pub read_latency: LatencySummary,
    /// Write-op latency (updates / inserts / RMW).
    pub write_latency: LatencySummary,
    /// LSM internals.
    pub lsm: LsmStats,
}

/// Output of a KV experiment.
#[derive(Clone, Debug)]
pub struct KvRunResult {
    /// Per-instance results.
    pub instances: Vec<KvInstanceResult>,
    /// Per-backend SSD statistics.
    pub ssd_stats: Vec<SsdStats>,
    /// Gimbal control traces per backend (populated when `sample_interval`
    /// is set and the scheme is Gimbal).
    pub gimbal_traces: Vec<GimbalTrace>,
    /// Per-backend cache statistics (empty when no cache is configured).
    pub cache: Vec<gimbal_cache::CacheStats>,
    /// Typed staged-write-loss records across backends, in pipeline order
    /// (empty without a cache).
    pub cache_losses: Vec<gimbal_cache::StagedWriteLoss>,
    /// Per-backend write-back counters (populated only under
    /// `WritePolicy::Back`).
    pub write_back: Vec<gimbal_cache::WriteBackStats>,
    /// Per-backend durability journals (same gating as `write_back`): the
    /// streams the crash-consistency oracle replays.
    pub journals: Vec<Vec<gimbal_cache::DurabilityEvent>>,
    /// The initiator's command ledger across instances.
    pub faults: FaultCounters,
    /// Measured window length.
    pub window: SimDuration,
    /// Total events the engine popped from its queue. Perf instrumentation
    /// only, like [`crate::RunResult::events_processed`]: never folded into
    /// any digest, so a run driven with extra (idempotent) pumps compares
    /// equal to one without.
    pub events_processed: u64,
}

impl KvRunResult {
    /// Aggregate operation throughput, KIOPS.
    pub fn total_kiops(&self) -> f64 {
        let ops: u64 = self.instances.iter().map(|i| i.ops).sum();
        ops as f64 / self.window.as_secs_f64() / 1e3
    }

    /// Mean of per-instance average read latencies, µs.
    pub fn avg_read_latency_us(&self) -> f64 {
        let xs: Vec<f64> = self
            .instances
            .iter()
            .filter(|i| i.read_latency.count > 0)
            .map(|i| i.read_latency.mean_us())
            .collect();
        xs.iter().sum::<f64>() / xs.len().max(1) as f64
    }

    /// Mean of per-instance p99.9 read latencies, µs.
    pub fn p999_read_latency_us(&self) -> f64 {
        let xs: Vec<f64> = self
            .instances
            .iter()
            .filter(|i| i.read_latency.count > 0)
            .map(|i| i.read_latency.p999_us())
            .collect();
        xs.iter().sum::<f64>() / xs.len().max(1) as f64
    }

    /// Aggregate cache hit ratio over all backends (0.0 when no cache ran).
    pub fn cache_hit_ratio(&self) -> f64 {
        let hits: u64 = self.cache.iter().map(|c| c.hits).sum();
        let lookups: u64 = self.cache.iter().map(|c| c.lookups()).sum();
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        }
    }
}

/// The KV engine's own events.
pub enum Ev {
    InstanceStart(usize),
    KvPump(usize),
    FailBackend(usize),
}

struct OpTicket {
    started: SimTime,
    is_read: bool,
}

struct Instance {
    kv: LsmKv,
    /// Earliest armed `Ev::KvPump` for this instance (`SimTime::MAX` when
    /// none), so each WAL-batch deadline is pushed once.
    pump_at: SimTime,
    workload: YcsbWorkload,
    /// The routing view the store reads through [`IoCtx`]: per-backend
    /// credit, outstanding and failure state. Gating is the initiator's.
    lim: RateLimiter,
    ops_inflight: DetMap<u64, OpTicket>,
    read_hist: Histogram,
    write_hist: Histogram,
    ops_done: u64,
}

/// The KV experiment engine.
pub struct KvTestbed {
    cfg: KvTestbedConfig,
    /// The backends as one node, a core per pipeline (§4.1); one initiator
    /// client per instance and lane per backend. No loss, no timers.
    rt: Reactor<KvTestbed>,
    bs: Blobstore,
    instances: Vec<Instance>,
    /// Recycled output of one store step; [`Self::absorb`] drains it.
    step: StepOutput,
}

impl KvTestbed {
    /// Create the experiment.
    pub fn new(cfg: KvTestbedConfig) -> Self {
        cfg.ssd.validate();
        assert!(cfg.instances >= 1 && cfg.backends() >= 1);
        assert!(!cfg.replicate || cfg.backends() >= 2);
        let mut root_rng = SimRng::new(cfg.seed);
        let backends = cfg.backends() as usize;
        let rt = Reactor::new(
            Rig {
                nodes: 1,
                ssds_per_node: backends,
                cores_per_node: backends,
                scheme: cfg.scheme,
                gimbal_params: cfg.gimbal_params,
                ssd: &cfg.ssd,
                precondition: cfg.precondition,
                cpu_cost: cfg.scheme.cpu_cost(false),
                cache: cfg.cache.clone(),
                broker: None,
                steal: None,
                trace: None,
                sanitize: false,
                seed: cfg.seed,
                clients: cfg.instances as usize,
                lanes: backends,
                fabric: cfg.fabric,
                flow_control: cfg.flow_control,
                faults: None,
                meter_devices: false,
                batch: 1,
                sample_interval: cfg.sample_interval,
                power_loss_at: cfg.power_loss_at.map(|at| SimTime::ZERO + at),
                duration: cfg.duration,
            },
            &mut root_rng,
            |_| Direct,
        );

        // Shared blobstore over all backends.
        let caps: Vec<u64> = (0..backends)
            .map(|_| cfg.ssd.logical_capacity / cfg.ssd.logical_page_bytes)
            .collect();
        // Backend count was validated above.
        let mut bs = Blobstore::new(
            HierarchicalAllocator::new(HbaConfig::default(), &caps),
            cfg.replicate,
        )
        .expect("validated in KvTestbed::new");

        // Instances, preloaded.
        let initial_credit = cfg.gimbal_params.initial_credit_ios;
        let instances: Vec<Instance> = (0..cfg.instances as usize)
            .map(|i| {
                let mut kv = LsmKv::new(cfg.lsm, root_rng.next_u64());
                let lim = RateLimiter::new(backends, initial_credit, false);
                {
                    let mut ctx = IoCtx {
                        bs: &mut bs,
                        lim: &lim,
                        load_balance: cfg.load_balance,
                    };
                    kv.load(cfg.records_per_instance, &mut ctx);
                }
                Instance {
                    kv,
                    pump_at: SimTime::MAX,
                    workload: YcsbWorkload::new(
                        cfg.mix,
                        cfg.records_per_instance,
                        root_rng.fork(i as u64),
                    ),
                    lim,
                    ops_inflight: DetMap::new(),
                    read_hist: Histogram::new(),
                    write_hist: Histogram::new(),
                    ops_done: 0,
                }
            })
            .collect();

        KvTestbed {
            rt,
            bs,
            instances,
            step: StepOutput::default(),
            cfg,
        }
    }

    /// Run it.
    pub fn run(mut self) -> KvRunResult {
        for i in 0..self.instances.len() {
            let at = SimTime::from_micros((i as u64).saturating_mul(10));
            self.rt.host.push(at, Ev::InstanceStart(i));
        }
        if let Some((b, at)) = self.cfg.fail_backend_at {
            assert!(b < self.cfg.backends(), "failing a missing backend");
            self.rt
                .host
                .push(SimTime::ZERO + at, Ev::FailBackend(b as usize));
        }
        Reactor::run(&mut self);
        let out = self.rt.finish();
        KvRunResult {
            instances: self
                .instances
                .iter()
                .map(|inst| KvInstanceResult {
                    ops: inst.ops_done,
                    read_latency: inst.read_hist.summary(),
                    write_latency: inst.write_hist.summary(),
                    lsm: inst.kv.stats(),
                })
                .collect(),
            ssd_stats: out.ssd_stats,
            gimbal_traces: out.gimbal_traces,
            cache: out.cache,
            cache_losses: out.cache_losses,
            write_back: out.write_back,
            journals: out.journals,
            faults: out.faults,
            window: self.cfg.duration - self.cfg.warmup,
            events_processed: out.events_processed,
        }
    }

    /// After a step of instance `i` that left its store pumped: record
    /// what finished, keep its closed loop full, and arm a pump at its next
    /// WAL-batch deadline unless an earlier one is armed (that pump re-arms
    /// as needed).
    fn settle(&mut self, i: usize, now: SimTime) {
        self.absorb(i, now);
        self.refill(i, now);
        let inst = &mut self.instances[i];
        if let Some(at) = inst.kv.next_deadline() {
            if at < inst.pump_at {
                inst.pump_at = at;
                self.rt.host.push(at, Ev::KvPump(i));
            }
        }
    }

    /// Record finished ops and enqueue new IOs from the last step of
    /// instance `i`, leaving `self.step` empty.
    fn absorb(&mut self, i: usize, now: SimTime) {
        let measured =
            now >= SimTime::ZERO + self.cfg.warmup && now < SimTime::ZERO + self.cfg.duration;
        let inst = &mut self.instances[i];
        for op in self.step.finished.drain(..) {
            if let Some(ticket) = inst.ops_inflight.remove(&op) {
                if measured {
                    inst.ops_done += 1;
                    let lat = now.since(ticket.started);
                    if ticket.is_read {
                        inst.read_hist.record_duration(lat);
                    } else {
                        inst.write_hist.record_duration(lat);
                    }
                }
            }
        }
        for io in self.step.ios.drain(..) {
            self.rt
                .host
                .init
                .enqueue(i, io.plan.backend.index(), io.priority, io);
        }
    }

    /// Keep instance `i`'s closed loop full — begin new YCSB ops up to the
    /// concurrency target, pumping after each — then drain its per-backend
    /// pending queues through its gate onto the fabric.
    fn refill(&mut self, i: usize, now: SimTime) {
        while self.instances[i].ops_inflight.len() < self.cfg.ops_concurrency as usize {
            let inst = &mut self.instances[i];
            let op = inst.workload.next_op();
            let is_read = matches!(op, KvOp::Read(_));
            let mut ctx = IoCtx {
                bs: &mut self.bs,
                lim: &inst.lim,
                load_balance: self.cfg.load_balance,
            };
            let id = inst.kv.begin_op_into(op, now, &mut ctx, &mut self.step);
            inst.kv.pump_into(now, &mut ctx, &mut self.step);
            inst.ops_inflight.insert(
                id,
                OpTicket {
                    started: now,
                    is_read,
                },
            );
            self.absorb(i, now);
        }
        let (host, lim) = (&mut self.rt.host, &mut self.instances[i].lim);
        for backend in 0..self.cfg.backends() as usize {
            while let Some(io) = host.init.next_pending(i, backend, now) {
                let (cmd, timer) = host.init.submit(io.tag, now, |id| NvmeCmd {
                    id,
                    tenant: TenantId(i as u32),
                    ssd: SsdId(backend as u32),
                    opcode: io.plan.op,
                    lba: io.plan.lba,
                    len: (io.plan.blocks * 4096) as u32,
                    priority: io.priority,
                    issued_at: now,
                    wal: io.wal_seq,
                });
                lim.on_submit(io.plan.backend);
                host.transmit(cmd, timer, now);
            }
        }
    }
}

impl Engine for KvTestbed {
    type Ev = Ev;
    type Tag = u64;
    type Queued = TaggedIo;
    type Topo = Direct;

    fn rt(&mut self) -> &mut Reactor<Self> {
        &mut self.rt
    }

    fn label(ev: &Ev) -> (&'static str, &'static str, u64) {
        match *ev {
            Ev::InstanceStart(i) => ("kv.instance", "start", i as u64),
            Ev::KvPump(i) => ("kv.instance", "pump", i as u64),
            Ev::FailBackend(b) => ("kv.fault", "fail_backend", b as u64),
        }
    }

    fn on_event(&mut self, ev: Ev, now: SimTime) {
        match ev {
            Ev::FailBackend(b) => self.rt.nodes[0].fail_device(b),
            // A freshly loaded store has nothing to pump.
            Ev::InstanceStart(i) => self.settle(i, now),
            Ev::KvPump(i) => {
                // The armed pump clears its slot; an early or spurious one
                // runs the same body, which does nothing that is not due.
                let inst = &mut self.instances[i];
                if inst.pump_at == now {
                    inst.pump_at = SimTime::MAX;
                }
                let mut ctx = IoCtx {
                    bs: &mut self.bs,
                    lim: &inst.lim,
                    load_balance: self.cfg.load_balance,
                };
                inst.kv.pump_into(now, &mut ctx, &mut self.step);
                self.settle(i, now);
            }
        }
    }

    /// A completion capsule reached instance `cpl.tenant`.
    fn complete(&mut self, cpl: NvmeCompletion, now: SimTime) {
        let Some(kv_tag) = self.rt.host.init.complete(&cpl, now) else {
            return;
        };
        let i = cpl.tenant.index();
        let backend = BackendId(cpl.ssd.0);
        let inst = &mut self.instances[i];
        inst.lim.on_completion(backend, cpl.credit);
        if !cpl.status.is_success() {
            // The client learns about the flash failure from the error
            // completion: avoid the backend from now on and recover the IO
            // via its replica.
            inst.lim.mark_dead(backend);
        }
        let mut ctx = IoCtx {
            bs: &mut self.bs,
            lim: &inst.lim,
            load_balance: self.cfg.load_balance,
        };
        if cpl.status.is_success() {
            inst.kv.io_done_into(kv_tag, now, &mut ctx, &mut self.step);
        } else {
            inst.kv
                .io_failed_into(kv_tag, now, &mut ctx, &mut self.step);
        }
        // Both steps end in a pump, except a failed probe's re-plan, which
        // changes nothing a pump reads.
        self.settle(i, now);
    }

    /// The KV engine arms no timers.
    fn timeout(&mut self, _: Timer, _: SimTime) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(scheme: Scheme, mix: YcsbMix) -> KvTestbedConfig {
        KvTestbedConfig {
            scheme,
            mix,
            instances: 3,
            num_nodes: 1,
            ssds_per_node: 2,
            records_per_instance: 10_000,
            duration: SimDuration::from_millis(700),
            warmup: SimDuration::from_millis(200),
            ..KvTestbedConfig::default()
        }
    }

    #[test]
    fn ycsb_c_reads_flow_end_to_end() {
        let res = KvTestbed::new(quick_cfg(Scheme::Gimbal, YcsbMix::C)).run();
        let total: u64 = res.instances.iter().map(|i| i.ops).sum();
        assert!(total > 5_000, "ops {total}");
        assert!(res.total_kiops() > 10.0);
        let lat = res.avg_read_latency_us();
        assert!(lat > 10.0 && lat < 5_000.0, "read latency {lat}us");
        // Read-only: no flushes or compactions.
        for i in &res.instances {
            assert_eq!(i.lsm.flushes, 0);
        }
    }

    #[test]
    fn ycsb_a_exercises_flush_and_compaction() {
        // FlashFQ (work-conserving, no pacing ramp) drives enough update
        // volume in a short test to exercise flush + compaction machinery.
        let mut cfg = quick_cfg(Scheme::FlashFq, YcsbMix::A);
        cfg.duration = SimDuration::from_millis(1500);
        // Small memtable so flushes happen within the short run.
        cfg.lsm.memtable_bytes = 256 * 1024;
        cfg.lsm.level_base_bytes = 1024 * 1024;
        let res = KvTestbed::new(cfg).run();
        let flushes: u64 = res.instances.iter().map(|i| i.lsm.flushes).sum();
        assert!(flushes > 0, "flushes {flushes}");
        let total: u64 = res.instances.iter().map(|i| i.ops).sum();
        assert!(total > 1_000, "ops {total}");
        // Writes reached the devices.
        let writes: u64 = res.ssd_stats.iter().map(|s| s.writes).sum();
        assert!(writes > 0);
    }

    #[test]
    fn schemes_all_run_ycsb_b() {
        // Gimbal's target rate ramps from a conservative initial value
        // (§3.3); at this tiny offered load (3 instances × 4 ops) it stays
        // deliberately paced, so its floor is lower here.
        for (scheme, floor) in [
            (Scheme::Reflex, 500),
            (Scheme::Parda, 500),
            (Scheme::FlashFq, 500),
            (Scheme::Gimbal, 250),
        ] {
            let res = KvTestbed::new(quick_cfg(scheme, YcsbMix::B)).run();
            let total: u64 = res.instances.iter().map(|i| i.ops).sum();
            assert!(total > floor, "{:?}: ops {total}", scheme);
        }
    }

    #[test]
    fn flash_failure_fails_over_to_replicas() {
        let mut cfg = quick_cfg(Scheme::Gimbal, YcsbMix::B);
        cfg.duration = SimDuration::from_millis(1200);
        cfg.fail_backend_at = Some((0, SimDuration::from_millis(500)));
        let res = KvTestbed::new(cfg).run();
        let total: u64 = res.instances.iter().map(|i| i.ops).sum();
        assert!(total > 500, "ops continued after the failure: {total}");
        let retries: u64 = res
            .instances
            .iter()
            .map(|i| i.lsm.failed_read_retries)
            .sum();
        assert!(retries > 0, "reads failed over to the surviving replica");
        // Sanity: the failed backend stopped doing useful work while the
        // survivor kept serving.
        assert!(res.ssd_stats[1].reads > 0);
    }

    #[test]
    fn a_failed_backend_keeps_the_command_ledger_balanced() {
        let mut cfg = quick_cfg(Scheme::Parda, YcsbMix::B);
        cfg.fail_backend_at = Some((0, SimDuration::from_millis(300)));
        let f = KvTestbed::new(cfg).run().faults;
        assert!(f.completed_err > 0, "no error completions: {f:?}");
        assert!(f.conservation_holds(), "{f:?}");
        assert_eq!(f.timed_out, 0, "the KV engine arms no timers");
    }

    /// Run `cfg` with `extra` spurious pumps pushed at seeded instants
    /// after every instance has started, half of them in same-instant
    /// pairs.
    fn run_with_extra_pumps(cfg: KvTestbedConfig, extra: u64) -> KvRunResult {
        let mut tb = KvTestbed::new(cfg);
        let mut rng = SimRng::new(0xca_de_ce);
        let first = SimTime::from_millis(1);
        let end = SimTime::ZERO + tb.cfg.duration;
        let instances = tb.instances.len() as u64;
        let mut pushed = 0;
        while pushed < extra {
            let at = SimTime::from_nanos(rng.gen_range(first.as_nanos(), end.as_nanos()));
            let i = rng.gen_below(instances) as usize;
            let copies = if pushed % 4 == 0 { 2 } else { 1 };
            for _ in 0..copies.min(extra - pushed) {
                tb.rt.host.push(at, Ev::KvPump(i));
                pushed += 1;
            }
        }
        tb.run()
    }

    /// A KV run's per-instance results, device counters and command ledger
    /// (a superset of the fields `kv_digest` folds), bit for bit: `{:?}`
    /// prints each `f64` as its shortest round-trip form.
    fn outcome(r: &KvRunResult) -> String {
        format!("{:?} {:?} {:?}", r.instances, r.ssd_stats, r.faults)
    }

    /// Cadence invariance: the pump is idempotent and a store's WAL-batch
    /// deadline is the only instant that matters, so spurious pumps change
    /// no result and arm no event of their own.
    #[test]
    fn extra_kv_pumps_change_nothing() {
        let mut cfgs = Vec::new();
        for scheme in Scheme::COMPARED {
            for mix in [YcsbMix::A, YcsbMix::B] {
                cfgs.push(quick_cfg(scheme, mix));
            }
        }
        let mut failover = quick_cfg(Scheme::Parda, YcsbMix::B);
        failover.fail_backend_at = Some((0, SimDuration::from_millis(300)));
        cfgs.push(failover);
        let extra = 2_000;
        for cfg in cfgs {
            let label = format!(
                "{:?} {:?} fail {:?}",
                cfg.scheme, cfg.mix, cfg.fail_backend_at
            );
            let base = KvTestbed::new(cfg.clone()).run();
            let perturbed = run_with_extra_pumps(cfg, extra);
            assert!(
                outcome(&base) == outcome(&perturbed),
                "{label}: extra pumps moved a result"
            );
            assert_eq!(
                perturbed.events_processed,
                base.events_processed + extra,
                "{label}: extra pumps armed events"
            );
        }
    }

    #[test]
    fn replication_writes_hit_two_backends() {
        let mut cfg = quick_cfg(Scheme::FlashFq, YcsbMix::A);
        cfg.lsm.memtable_bytes = 256 * 1024;
        let res = KvTestbed::new(cfg).run();
        let with_writes = res.ssd_stats.iter().filter(|s| s.writes > 0).count();
        assert!(
            with_writes >= 2,
            "replicated writes on {with_writes} backends"
        );
    }
}
