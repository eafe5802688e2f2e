//! The six workloads: seed → generated engine config → one engine run.
//!
//! The engines see only the generated configs. The seed feeds
//! `*Config::seed` and the LBA-region layout (which slice of the SSD each
//! tenant owns); everything else about a workload is fixed here and frozen
//! in `BENCHMARK.json`.

use gimbal_cores::StealConfig;
use gimbal_fabric::RetryConfig;
use gimbal_rack::{RackConfig, RackResult, RackTestbed};
use gimbal_sim::{FaultPlan, SimDuration, SimRng, SimTime};
use gimbal_telemetry::TraceConfig;
use gimbal_testbed::{
    cache_tier_wb, AdmissionPolicy, BrokerConfig, BrokerMode, FaultConfig, KvRunResult, KvTestbed,
    KvTestbedConfig, Precondition, RunResult, Scheme, Testbed, TestbedConfig, WorkerSpec,
    WritePolicy,
};
use gimbal_workload::{AccessPattern, FioSpec, YcsbMix};

/// Logical blocks of the experiment SSD (512 MiB / 4 KiB).
pub const CAP_BLOCKS: u64 = gimbal_bench::common::CAP_BLOCKS;

/// Value size of the KV workload (`LsmConfig::default().value_bytes`): the
/// payload one KV operation moves.
pub const KV_VALUE_BYTES: u64 = 1024;

/// Logical IO size of the rack workload.
pub const RACK_IO_BYTES: u64 = 4096;

/// A workload's fixed identity. Names are cited by later issues; do not
/// rename.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    MixedFrag,
    ScaleFanout,
    CacheWbZipf,
    BurstSkew,
    KvYcsbA,
    RackFailover,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::MixedFrag,
        Workload::ScaleFanout,
        Workload::CacheWbZipf,
        Workload::BurstSkew,
        Workload::KvYcsbA,
        Workload::RackFailover,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MixedFrag => "mixed_frag",
            Workload::ScaleFanout => "scale_fanout",
            Workload::CacheWbZipf => "cache_wb_zipf",
            Workload::BurstSkew => "burst_skew",
            Workload::KvYcsbA => "kv_ycsb_a",
            Workload::RackFailover => "rack_failover",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Why the workload exists (one line, mirrored in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::MixedFrag => "paper core scenario (Figs 6-8): ssd FTL/GC and gimbal Alg.1/DRR do the work on one fragmented SSD; cache, broker, cores, rack idle",
            Workload::ScaleFanout => "256 closed-loop 4 KiB readers over 4 clean SSDs with batching: testbed dispatch over thousands of in-flight commands, sim and switch dominate; per-IO ssd work is the cheap clean-read path",
            Workload::CacheWbZipf => "Zipf reads and writes through a 16 MiB write-back cache on a fragmented SSD: cache does the work and reaches ssd only via flusher writes; crash-consistency oracle runs",
            Workload::BurstSkew => "staggered bursty readers on two SSDs homed on one of two cores plus bulk writers: the only workload where the token broker and core stealing run",
            Workload::KvYcsbA => "YCSB-A over 6 LSM instances on replicated blobstore files (Fig 10): lsm-kv WAL/flush/compaction and blobstore replica choice do the work; second engine",
            Workload::RackFailover => "3-node rack behind the ToR, node 1 dies at one third of the run: rack routing/escalation and fabric retry timers; the only workload with retried and degraded operations",
        }
    }

    /// Closed-loop clients and their depth, for the README/metadata line.
    pub fn clients(self) -> &'static str {
        match self {
            Workload::MixedFrag => "8 fio readers QD32 + 4 fio writers QD8",
            Workload::ScaleFanout => "256 fio readers QD32",
            Workload::CacheWbZipf => "4 fio readers QD32 + 4 fio writers QD32",
            Workload::BurstSkew => "8 bursty fio readers QD32 + 2 fio writers QD4",
            Workload::KvYcsbA => "6 DB instances x ops_concurrency 4",
            Workload::RackFailover => "8 rack clients QD8",
        }
    }

    /// Frozen `(duration, warm-up)` in simulated milliseconds.
    pub fn sim_ms(self) -> (u64, u64) {
        match self {
            Workload::MixedFrag => (5000, 1000),
            Workload::ScaleFanout => (600, 100),
            Workload::CacheWbZipf => (3000, 500),
            Workload::BurstSkew => (3000, 500),
            Workload::KvYcsbA => (2500, 600),
            Workload::RackFailover => (1500, 300),
        }
    }

    pub fn engine(self) -> &'static str {
        match self {
            Workload::KvYcsbA => "KvTestbed",
            Workload::RackFailover => "RackTestbed",
            _ => "Testbed",
        }
    }
}

/// How long to simulate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Length {
    /// The frozen duration.
    Full,
    /// `--quick`: frozen duration ÷ 10.
    Quick,
    /// 1 ms, no warm-up: what building the engine costs (`setup_s`).
    Setup,
}

fn durations(w: Workload, len: Length) -> (SimDuration, SimDuration) {
    let (d, wu) = w.sim_ms();
    match len {
        Length::Full => (SimDuration::from_millis(d), SimDuration::from_millis(wu)),
        Length::Quick => (
            SimDuration::from_millis(d / 10),
            SimDuration::from_millis(wu / 10),
        ),
        Length::Setup => (SimDuration::from_millis(1), SimDuration::ZERO),
    }
}

/// A generated engine input.
pub enum Plan {
    Fio(TestbedConfig, Vec<WorkerSpec>),
    Kv(KvTestbedConfig),
    Rack(RackConfig),
}

/// What the engine returned.
pub enum Raw {
    Fio(Box<RunResult>),
    Kv(Box<KvRunResult>),
    Rack(Box<RackResult>),
}

/// `n` disjoint equal slices of one SSD's LBA space, handed out in a
/// seed-shuffled order so the seed moves every tenant's region.
fn regions(n: usize, rng: &mut SimRng) -> Vec<(u64, u64)> {
    let per = CAP_BLOCKS / n as u64;
    let mut out: Vec<(u64, u64)> = (0..n as u64).map(|i| (i * per, per)).collect();
    rng.shuffle(&mut out);
    out
}

fn fio(read_ratio: f64, io_bytes: u64, region: (u64, u64)) -> FioSpec {
    FioSpec::paper_default(read_ratio, io_bytes, region.0, region.1)
}

fn zipf(mut f: FioSpec) -> FioSpec {
    f.read_pattern = AccessPattern::Zipfian;
    f.write_pattern = AccessPattern::Zipfian;
    f
}

/// Generate the engine input for `w` from `seed`.
pub fn plan(w: Workload, seed: u64, len: Length, trace: bool) -> Plan {
    let (duration, warmup) = durations(w, len);
    let mut rng = SimRng::with_stream(seed, 0x1B0F);
    let trace = trace.then(TraceConfig::default);
    let base = TestbedConfig {
        scheme: Scheme::Gimbal,
        duration,
        warmup,
        seed,
        trace: trace.clone(),
        ..TestbedConfig::default()
    };
    match w {
        Workload::MixedFrag => {
            let r = regions(12, &mut rng);
            let mut workers = Vec::new();
            for &reg in &r[..8] {
                workers.push(WorkerSpec::new("4k-read", fio(1.0, 4096, reg)));
            }
            for &reg in &r[8..] {
                let mut f = fio(0.0, 128 * 1024, reg);
                f.queue_depth = 8;
                workers.push(WorkerSpec::new("128k-write", f));
            }
            let cfg = TestbedConfig {
                precondition: Precondition::Fragmented,
                ..base
            };
            Plan::Fio(cfg, workers)
        }
        Workload::ScaleFanout => {
            let (tenants, ssds) = (256u32, 4u32);
            let per_ssd = (tenants / ssds) as usize;
            let layout: Vec<Vec<(u64, u64)>> =
                (0..ssds).map(|_| regions(per_ssd, &mut rng)).collect();
            let workers = (0..tenants)
                .map(|i| {
                    let reg = layout[(i % ssds) as usize][(i / ssds) as usize];
                    WorkerSpec::new("4k-read", fio(1.0, 4096, reg)).on_ssd(i % ssds)
                })
                .collect();
            let cfg = TestbedConfig {
                num_ssds: ssds,
                cores: ssds,
                batch: 32,
                ..base
            };
            Plan::Fio(cfg, workers)
        }
        Workload::CacheWbZipf => {
            let r = regions(8, &mut rng);
            let mut workers = Vec::new();
            for &reg in &r[..4] {
                workers.push(WorkerSpec::new("4k-read-zipf", zipf(fio(1.0, 4096, reg))));
            }
            for &reg in &r[4..] {
                workers.push(WorkerSpec::new("4k-write-zipf", zipf(fio(0.0, 4096, reg))));
            }
            let cfg = TestbedConfig {
                precondition: Precondition::Fragmented,
                cache: cache_tier_wb(16, AdmissionPolicy::Always, WritePolicy::Back),
                ..base
            };
            Plan::Fio(cfg, workers)
        }
        Workload::BurstSkew => {
            let mut workers = Vec::new();
            let (on, off) = (25u64, 75u64);
            for ssd in [0u32, 2] {
                let r = regions(4, &mut rng);
                for (k, &reg) in r.iter().enumerate() {
                    // Phases staggered evenly so ON windows interleave:
                    // some readers peak while the rest idle — the mix
                    // inter-tenant borrowing is built for.
                    let phase_ns = k as u64 * (on + off) * 1_000_000 / 4;
                    let f = fio(1.0, 4096, reg).with_burst(
                        SimDuration::from_millis(on),
                        SimDuration::from_millis(off),
                        SimDuration::from_nanos(phase_ns),
                    );
                    workers.push(WorkerSpec::new("4k-read-burst", f).on_ssd(ssd));
                }
            }
            for &reg in &regions(2, &mut rng) {
                workers.push(WorkerSpec::new("128k-write", fio(0.0, 128 * 1024, reg)).on_ssd(1));
            }
            let cfg = TestbedConfig {
                num_ssds: 4,
                cores: 2,
                broker: Some(BrokerConfig {
                    mode: BrokerMode::Borrow,
                    capacity_bps: 200 * 1024 * 1024,
                    epoch: SimDuration::from_millis(17),
                    ..BrokerConfig::default()
                }),
                steal: Some(StealConfig {
                    rebalance_epoch: SimDuration::from_millis(20),
                    ..StealConfig::default()
                }),
                ..base
            };
            Plan::Fio(cfg, workers)
        }
        Workload::KvYcsbA => Plan::Kv(KvTestbedConfig {
            scheme: Scheme::Gimbal,
            num_nodes: 1,
            ssds_per_node: 4,
            instances: 6,
            records_per_instance: 25_000,
            mix: YcsbMix::A,
            ops_concurrency: 4,
            replicate: true,
            flow_control: true,
            load_balance: true,
            precondition: Precondition::Fragmented,
            duration,
            warmup,
            seed,
            ..KvTestbedConfig::default()
        }),
        Workload::RackFailover => {
            let die_at = SimTime::ZERO + SimDuration::from_nanos(duration.as_nanos() / 3);
            Plan::Rack(RackConfig {
                scheme: Scheme::Gimbal,
                nodes: 3,
                ssds_per_node: 2,
                clients: 8,
                queue_depth: 8,
                read_ratio: 0.7,
                io_bytes: RACK_IO_BYTES,
                replicate: true,
                gc_aware_routing: true,
                duration,
                warmup,
                seed,
                faults: Some(FaultConfig {
                    plan: FaultPlan::default().with_node_death(1, die_at),
                    retry: RetryConfig {
                        base_timeout: SimDuration::from_millis(1),
                        max_timeout: SimDuration::from_millis(8),
                        max_retries: 5,
                        suspect_after: 2,
                    },
                }),
                trace,
                ..RackConfig::default()
            })
        }
    }
}

/// Run a plan through its engine's public `run()`.
pub fn execute(plan: Plan) -> Raw {
    match plan {
        Plan::Fio(cfg, workers) => Raw::Fio(Box::new(Testbed::new(cfg, workers).run())),
        Plan::Kv(cfg) => Raw::Kv(Box::new(KvTestbed::new(cfg).run())),
        Plan::Rack(cfg) => Raw::Rack(Box::new(RackTestbed::new(cfg).run())),
    }
}
