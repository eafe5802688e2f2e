//! Testbed and worker specifications.

use crate::scheme::Scheme;
use gimbal_broker::BrokerConfig;
use gimbal_cache::CacheConfig;
use gimbal_core::Params;
use gimbal_cores::StealConfig;
use gimbal_fabric::{FabricConfig, Priority, RetryConfig};
use gimbal_sim::{FaultPlan, SimDuration, SimTime};
use gimbal_ssd::SsdConfig;
use gimbal_telemetry::TraceConfig;
use gimbal_workload::{AccessPattern, FioSpec};

/// Fault injection for a run: the plan of what goes wrong, and the
/// initiator-side retry policy that recovers from it.
#[derive(Clone, Debug, Default)]
pub struct FaultConfig {
    /// What gets injected (capsule loss, SSD errors/stalls/death).
    pub plan: FaultPlan,
    /// Initiator timeout/backoff/retry policy for lost capsules.
    pub retry: RetryConfig,
}

impl FaultConfig {
    /// Validate both halves.
    pub fn validate(&self) {
        self.plan.validate();
        self.retry.validate();
    }
}

/// SSD preconditioning state (§5.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Precondition {
    /// 128 KiB sequential writes: everything mapped, perfectly striped,
    /// ample free blocks.
    Clean,
    /// Hours of 4 KiB random writes: random placement, dead space, free
    /// blocks at the GC watermark.
    Fragmented,
    /// Fresh device, nothing mapped (unit tests only).
    None,
}

/// One fio worker in an experiment.
#[derive(Clone, Debug)]
pub struct WorkerSpec {
    /// Label for grouped reporting ("4KB-RD", "victim", ...).
    pub label: String,
    /// The stream shape.
    pub fio: FioSpec,
    /// Index of the SSD this worker targets.
    pub ssd: u32,
    /// Priority tag carried on its commands.
    pub priority: Priority,
    /// When the worker starts issuing.
    pub start: SimTime,
    /// When it stops issuing (`None` = runs to the end).
    pub stop: Option<SimTime>,
}

impl WorkerSpec {
    /// A worker running for the whole experiment on SSD 0.
    pub fn new(label: impl Into<String>, fio: FioSpec) -> Self {
        WorkerSpec {
            label: label.into(),
            fio,
            ssd: 0,
            priority: Priority::NORMAL,
            start: SimTime::ZERO,
            stop: None,
        }
    }

    /// Builder: target SSD index.
    pub fn on_ssd(mut self, ssd: u32) -> Self {
        self.ssd = ssd;
        self
    }

    /// Builder: priority tag.
    pub fn with_priority(mut self, p: Priority) -> Self {
        self.priority = p;
        self
    }

    /// Builder: active interval.
    pub fn active(mut self, start: SimTime, stop: Option<SimTime>) -> Self {
        self.start = start;
        self.stop = stop;
        self
    }
}

/// The workers a worker list describes — the grammar of `jbofsim
/// --workers`. The list is comma-separated specs
/// `COUNTxSIZE-TYPE[-qdN][-rateM][-zipf][-burstAxB][-ssdN]`: SIZE is like
/// `4k` or `1m`; TYPE is `read`, `write` or `mixP` (P % reads); `rateM`
/// caps each worker at M MB/s; `zipf` skews its addresses; `burstAxB` runs
/// A ms on and B ms off, with phases staggered evenly across the group so
/// their ON windows interleave; `ssdN` pins the whole group to SSD N.
/// Every worker gets its own equal LBA region of the default 512 MiB
/// device, groups without `-ssdN` go round-robin over `ssds`, and each
/// spec is its group's label. A spec that is malformed, has no workers or
/// pins an SSD outside `0..ssds` is an error naming it.
pub fn parse_workers(list: &str, ssds: u32) -> Result<Vec<WorkerSpec>, String> {
    let groups = list
        .split(',')
        .map(|spec| parse_group(spec).ok_or_else(|| format!("bad worker spec: {spec}")))
        .collect::<Result<Vec<_>, _>>()?;
    let cap_blocks = 512 * 1024 * 1024 / 4096u64;
    let total: u32 = groups.iter().map(|g| g.1).sum();
    let per_region = cap_blocks / u64::from(total).max(1);
    let mut workers = Vec::new();
    for (label, count, shape, pin) in groups {
        if count == 0 || pin.unwrap_or(0) >= ssds {
            return Err(format!("bad worker spec: {label}"));
        }
        for k in 0..count {
            let idx = workers.len() as u64;
            let mut fio = FioSpec {
                region_start: idx * per_region,
                region_blocks: per_region,
                ..shape
            };
            if let Some(b) = &mut fio.burst {
                b.phase = (b.on + b.off) * u64::from(k) / u64::from(count);
            }
            let ssd = pin.unwrap_or((idx % u64::from(ssds)) as u32);
            workers.push(WorkerSpec::new(label, fio).on_ssd(ssd));
        }
    }
    Ok(workers)
}

/// One spec of a [`parse_workers`] list: the spec itself, its worker
/// count, the fio shape its workers share (regions and burst phases are
/// set per worker) and its `-ssdN` pin.
fn parse_group(spec: &str) -> Option<(&str, u32, FioSpec, Option<u32>)> {
    let (count, rest) = spec.split_once('x')?;
    let mut parts = rest.split('-');
    let size = parts.next()?.to_ascii_lowercase();
    let (num, mult) = match (size.strip_suffix('k'), size.strip_suffix('m')) {
        (Some(n), _) => (n, 1024),
        (_, Some(n)) => (n, 1024 * 1024),
        _ => (size.as_str(), 1),
    };
    let read_ratio = match parts.next()? {
        "read" => 1.0,
        "write" => 0.0,
        t if t.starts_with("mix") => t[3..].parse::<f64>().ok()? / 100.0,
        _ => return None,
    };
    let mut fio = FioSpec::paper_default(read_ratio, num.parse::<u64>().ok()? * mult, 0, 0);
    let mut pin = None;
    for p in parts {
        if let Some(n) = p.strip_prefix("ssd") {
            pin = Some(n.parse().ok()?);
        } else if let Some(n) = p.strip_prefix("qd") {
            fio.queue_depth = n.parse().ok()?;
        } else if let Some(n) = p.strip_prefix("rate") {
            fio.rate_limit = Some(n.parse::<f64>().ok()? * 1e6);
        } else if let Some((on, off)) = p.strip_prefix("burst").and_then(|b| b.split_once('x')) {
            let (on, off) = (on.parse().ok()?, off.parse().ok()?);
            if on == 0 || off == 0 {
                return None;
            }
            let ms = SimDuration::from_millis;
            fio = fio.with_burst(ms(on), ms(off), SimDuration::ZERO);
        } else if p == "zipf" {
            fio.read_pattern = AccessPattern::Zipfian;
            fio.write_pattern = AccessPattern::Zipfian;
        } else {
            return None;
        }
    }
    Some((spec, count.parse().ok()?, fio, pin))
}

/// Full experiment configuration.
#[derive(Clone, Debug)]
pub struct TestbedConfig {
    /// Multi-tenancy scheme at the JBOF.
    pub scheme: Scheme,
    /// Gimbal parameters (ignored by other schemes).
    pub gimbal_params: Params,
    /// SSD model configuration (same for every SSD in the node).
    pub ssd: SsdConfig,
    /// Number of SSDs in the JBOF.
    pub num_ssds: u32,
    /// Preconditioning applied to every SSD.
    pub precondition: Precondition,
    /// SmartNIC/host cores at the target; pipelines are assigned
    /// round-robin (§4.1 uses one core per SSD).
    pub cores: u32,
    /// Model Xeon (server JBOF) instead of ARM cores.
    pub xeon: bool,
    /// Fabric parameters.
    pub fabric: FabricConfig,
    /// Virtual-time length of the run.
    pub duration: SimDuration,
    /// Stats ignored before this instant (device warm-up, rate ramp).
    pub warmup: SimDuration,
    /// Extra per-IO submit-path cost in µs (the Fig 16 sweep).
    pub added_per_io_us: f64,
    /// Record per-worker bandwidth / Gimbal-internals time series at this
    /// interval.
    pub sample_interval: Option<SimDuration>,
    /// Experiment seed; every stochastic stream derives from it.
    pub seed: u64,
    /// Record every command submission into
    /// [`crate::results::RunResult::submissions`] (determinism audits; off
    /// by default — a long run submits millions of commands).
    pub record_submissions: bool,
    /// Fault injection plan and retry policy. `None` (the default) runs
    /// fault-free and consumes no fault randomness: such a run is
    /// bit-identical to one on a build without fault support.
    pub faults: Option<FaultConfig>,
    /// Structured telemetry recording. `None` (the default) keeps every
    /// record site behind a disabled handle: no events, no allocations, and
    /// run digests bit-identical to a build without telemetry.
    pub trace: Option<TraceConfig>,
    /// NIC-DRAM cache tier per SSD pipeline. `None` (the default) — or a
    /// zero-capacity config — constructs no cache: such a run is
    /// bit-identical to one on a build without cache support.
    pub cache: Option<CacheConfig>,
    /// Divergence sanitizer: record a state-access journal
    /// ([`gimbal_sim::journal`]) of every engine decision, digestible and
    /// comparable across a double run. `false` (the default) keeps every
    /// record site behind a disabled handle, so unsanitized runs are
    /// bit-identical to builds without the journal.
    pub sanitize: bool,
    /// Inter-tenant token broker (borrow ledger + optional placement).
    /// `None` (the default) constructs no ledger and schedules no epoch
    /// events: such a run is bit-identical to one on a build without broker
    /// support.
    pub broker: Option<BrokerConfig>,
    /// Maximum command capsules coalesced into one pipeline quantum when
    /// they arrive at the same instant on the same SSD: one scheduler
    /// decision and one pump per batch instead of per IO. `1` (the default)
    /// executes every arrival in its own quantum — bit-identical to
    /// pre-batching builds. Batching only engages on fault-free runs (replay
    /// dedup can turn an arrival into a resend mid-batch) and closes early
    /// whenever the pipeline has other work due at the batch instant, so an
    /// intermediate completion interleaves exactly as the unbatched engine
    /// would.
    pub batch: u32,
    /// Inter-pipeline work stealing across reactor cores (gimbal-cores).
    /// `None` (the default) keeps the fixed home binding: every quantum
    /// runs on its pipeline's home core (`ssd % cores`), the scheduler
    /// journals and traces nothing, and no rebalance events are scheduled
    /// — such a run is bit-identical to one on a build without the core
    /// scheduler.
    pub steal: Option<StealConfig>,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            scheme: Scheme::Gimbal,
            gimbal_params: Params::default(),
            ssd: SsdConfig {
                logical_capacity: 512 * 1024 * 1024,
                ..SsdConfig::default()
            },
            num_ssds: 1,
            precondition: Precondition::Clean,
            cores: 1,
            xeon: false,
            fabric: FabricConfig::default(),
            duration: SimDuration::from_secs(2),
            warmup: SimDuration::from_millis(500),
            added_per_io_us: 0.0,
            sample_interval: None,
            seed: 42,
            record_submissions: false,
            faults: None,
            trace: None,
            cache: None,
            sanitize: false,
            broker: None,
            batch: 1,
            steal: None,
        }
    }
}

impl TestbedConfig {
    /// Check this config's own top-level conditions (not those of its
    /// nested configs); the error names the offending value.
    pub fn check(&self) -> Result<(), String> {
        if self.num_ssds == 0 {
            return Err("num_ssds must be at least 1".into());
        }
        if self.cores == 0 {
            return Err("cores must be at least 1".into());
        }
        if self.batch == 0 {
            return Err("batch of 0 would coalesce nothing".into());
        }
        if self.warmup >= self.duration {
            return Err(format!(
                "duration {} must be longer than warmup {}",
                self.duration, self.warmup
            ));
        }
        Ok(())
    }

    /// Validate basic consistency; panics with [`Self::check`]'s message.
    pub(crate) fn validate(&self) {
        assert_eq!(self.check(), Ok(()), "invalid testbed config");
        self.ssd.validate();
        self.gimbal_params.validate();
        if let Some(f) = &self.faults {
            f.validate();
        }
        if let Some(t) = &self.trace {
            t.validate();
        }
        if let Some(b) = &self.broker {
            b.validate();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gimbal_workload::FioSpec;

    #[test]
    fn worker_builder() {
        let w = WorkerSpec::new("w", FioSpec::paper_default(1.0, 4096, 0, 1 << 16))
            .on_ssd(2)
            .with_priority(Priority::HIGH)
            .active(SimTime::from_secs(1), Some(SimTime::from_secs(2)));
        assert_eq!(w.ssd, 2);
        assert_eq!(w.priority, Priority::HIGH);
        assert_eq!(w.start, SimTime::from_secs(1));
    }

    #[test]
    fn worker_lists_expand_by_the_cli_grammar() {
        let w = parse_workers("2x4k-read-burst20x60,1x128k-mix70-qd8-rate50-zipf-ssd1", 2)
            .expect("valid list");
        assert_eq!(w.len(), 3);
        let per = 512 * 1024 * 1024 / 4096 / 3;
        let regions: Vec<_> = w.iter().map(|w| w.fio.region_start).collect();
        assert_eq!(regions, [0, per, 2 * per]);
        assert_eq!(w.iter().map(|w| w.ssd).collect::<Vec<_>>(), [0, 1, 1]);
        let phases: Vec<_> = w[..2].iter().map(|w| w.fio.burst.unwrap().phase).collect();
        assert_eq!(phases, [SimDuration::ZERO, SimDuration::from_millis(40)]);
        let mixed = &w[2];
        assert_eq!(mixed.label, "1x128k-mix70-qd8-rate50-zipf-ssd1");
        assert_eq!((mixed.fio.io_bytes, mixed.fio.queue_depth), (128 * 1024, 8));
        assert_eq!(mixed.fio.rate_limit, Some(50e6));
        assert!((mixed.fio.read_ratio - 0.7).abs() < 1e-12);
        assert_eq!(mixed.fio.read_pattern, AccessPattern::Zipfian);
        for bad in [
            "4x4k-foo",
            "x4k-read",
            "0x4k-read",
            "4x4k-read-burst0x5",
            "4x4k-read-qd",
            "4x4q-read",
            "1x4k-read-ssd1",
        ] {
            let list = format!("1x4k-read,{bad}");
            assert_eq!(
                parse_workers(&list, 1).err(),
                Some(format!("bad worker spec: {bad}"))
            );
        }
    }

    #[test]
    fn default_config_is_valid() {
        TestbedConfig::default().validate();
    }
}
