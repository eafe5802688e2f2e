//! Experiment measurements and the paper's evaluation metrics.

use gimbal_broker::BrokerStats;
use gimbal_cache::{CacheStats, DurabilityJournal, StagedWriteLoss, WriteBackStats};
use gimbal_cores::CoresStats;
use gimbal_sim::stats::LatencySummary;
use gimbal_sim::{Digest, SimDuration, TimeSeries};
use gimbal_ssd::SsdStats;
use gimbal_telemetry::RecordedTrace;

/// One NVMe command submission, recorded at creation time when
/// [`crate::TestbedConfig::record_submissions`] is on. The sequence of these
/// records is the engine's externally visible schedule: two runs are
/// behaviorally identical iff their submission traces match byte for byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubmissionRecord {
    /// Virtual time of submission, nanoseconds.
    pub at_ns: u64,
    /// Command id (globally unique, monotone).
    pub cmd: u64,
    /// Issuing tenant (worker index).
    pub tenant: u32,
    /// Opcode: 0 = read, 1 = write.
    pub opcode: u8,
    /// Logical block address.
    pub lba: u64,
    /// Payload length in bytes.
    pub len: u32,
}

impl SubmissionRecord {
    /// Fold this record into a digest, field order fixed.
    pub(crate) fn fold_into(&self, d: &mut Digest) {
        d.update_u64(self.at_ns)
            .update_u64(self.cmd)
            .update_u64(u64::from(self.tenant))
            .update(&[self.opcode])
            .update_u64(self.lba)
            .update_u64(u64::from(self.len));
    }
}

/// Measurements for one worker over its measured window.
#[derive(Clone, Debug)]
pub struct WorkerResult {
    /// The worker's label from its spec.
    pub label: String,
    /// Completed operations in the measured window.
    pub ops: u64,
    /// Completed payload bytes in the measured window.
    pub bytes: u64,
    /// Length of the worker's measured window.
    pub window: SimDuration,
    /// End-to-end read latency distribution.
    pub read_latency: LatencySummary,
    /// End-to-end write latency distribution.
    pub write_latency: LatencySummary,
    /// Bandwidth time series (if sampling was enabled).
    pub series: TimeSeries,
}

impl WorkerResult {
    /// Mean bandwidth over the measured window, bytes/second.
    pub fn bandwidth_bps(&self) -> f64 {
        if self.window == SimDuration::ZERO {
            0.0
        } else {
            self.bytes as f64 / self.window.as_secs_f64()
        }
    }

    /// Mean bandwidth in MB/s (the paper's reporting unit).
    pub fn bandwidth_mbps(&self) -> f64 {
        self.bandwidth_bps() / 1e6
    }

    /// Completed operations per second.
    pub fn iops(&self) -> f64 {
        if self.window == SimDuration::ZERO {
            0.0
        } else {
            self.ops as f64 / self.window.as_secs_f64()
        }
    }
}

/// Time series of Gimbal's internal control state for one SSD (Figs 9, 18).
#[derive(Clone, Debug, Default)]
pub struct GimbalTrace {
    /// Target submission rate, bytes/second.
    pub target_rate: TimeSeries,
    /// Dynamic write cost.
    pub write_cost: TimeSeries,
    /// Read EWMA latency, µs.
    pub read_ewma_us: TimeSeries,
    /// Read dynamic threshold, µs.
    pub read_thresh_us: TimeSeries,
    /// Write EWMA latency, µs.
    pub write_ewma_us: TimeSeries,
    /// Write dynamic threshold, µs.
    pub write_thresh_us: TimeSeries,
}

/// Sampled per-SSD device-level series (Figs 9, 17): smoothed raw device
/// latency per op type and aggregate completion bandwidth.
#[derive(Clone, Debug, Default)]
pub struct DeviceSeries {
    /// EWMA of device read latency, µs.
    pub read_lat_us: TimeSeries,
    /// EWMA of device write latency, µs.
    pub write_lat_us: TimeSeries,
    /// Completion bandwidth, bytes/second.
    pub bandwidth_bps: TimeSeries,
}

/// Per-run fault-handling counters, populated whether or not a
/// [`crate::FaultConfig`] is armed (all zero on a fault-free run). The
/// conservation audit over these counters is the end-to-end correctness
/// check for the failure paths: every submitted command reaches exactly one
/// terminal state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Commands submitted by workers.
    pub submitted: u64,
    /// Commands whose completion arrived with a success status.
    pub completed_ok: u64,
    /// Commands whose completion arrived with an error status (injected
    /// transient errors, dead devices, buffer overruns...).
    pub completed_err: u64,
    /// Commands abandoned after exhausting every retransmission.
    pub timed_out: u64,
    /// Commands still in flight when the run's clock expired (a run ends at
    /// a wall, not a drain; these are accounted, not lost).
    pub in_flight_at_end: u64,
    /// Command capsules dropped by the fault injector.
    pub cmd_capsules_dropped: u64,
    /// Completion capsules dropped by the fault injector.
    pub cpl_capsules_dropped: u64,
    /// Command retransmissions after a timer fired.
    pub retries: u64,
    /// Cached completions resent for retransmitted, already-executed
    /// commands (target-side dedup).
    pub completions_resent: u64,
    /// Replayed command capsules the target recognized and dropped.
    pub duplicate_cmds_ignored: u64,
    /// Completions for commands the initiator had already timed out.
    pub stale_completions_ignored: u64,
    /// Completions served from the NIC-DRAM cache without touching the
    /// device. A *service-source* counter, not a terminal bucket: a
    /// cache-served command still lands in `completed_ok` (or, when its
    /// completion capsule is lost and retries exhaust, `timed_out`), so the
    /// conservation law is unchanged — this counter proves the audit covers
    /// completions the SSD never saw.
    pub cache_served: u64,
}

impl FaultCounters {
    /// The conservation law: every submission lands in exactly one of the
    /// four terminal buckets. Cache-served completions are `completed_ok`
    /// like any other — `cache_served` only attributes their service source
    /// — so the equation needs no cache term.
    pub fn conservation_holds(&self) -> bool {
        self.submitted
            == self.completed_ok + self.completed_err + self.timed_out + self.in_flight_at_end
    }
}

/// The complete output of one testbed run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Per-worker measurements, in spec order.
    pub workers: Vec<WorkerResult>,
    /// Per-SSD device statistics.
    pub ssd_stats: Vec<SsdStats>,
    /// Per-SSD device-level latency summaries `[read, write]` (raw service
    /// latency at the device, the signal Gimbal's CC observes).
    pub device_latency: Vec<[LatencySummary; 2]>,
    /// Gimbal control traces per SSD (empty for other schemes or when
    /// sampling is off).
    pub gimbal_traces: Vec<GimbalTrace>,
    /// Per-SSD device-latency/bandwidth series (empty when sampling is off).
    pub device_series: Vec<DeviceSeries>,
    /// Every command submission in order (empty unless
    /// `record_submissions` was set in the config).
    pub submissions: Vec<SubmissionRecord>,
    /// Fault-handling counters and the conservation audit inputs.
    pub faults: FaultCounters,
    /// Recorded telemetry (`None` unless [`crate::TestbedConfig::trace`] was
    /// set).
    pub trace: Option<RecordedTrace>,
    /// Per-SSD cache counters (empty unless [`crate::TestbedConfig::cache`]
    /// configured a cache — the digest then folds them in, so cache-off runs
    /// keep their pre-cache digests).
    pub cache: Vec<CacheStats>,
    /// Typed records of staged write data dropped on failed device writes,
    /// across all SSDs in pipeline order (empty without a cache).
    pub cache_losses: Vec<StagedWriteLoss>,
    /// Per-SSD write-back counters, indexed like `cache`. Populated only
    /// when the cache tier ran `WritePolicy::Back`, so write-through runs
    /// keep their pre-write-back digests bit for bit.
    pub write_back: Vec<WriteBackStats>,
    /// Per-SSD durability journals (same gating as `write_back`): the
    /// event streams the crash-consistency oracle replays.
    pub journals: Vec<DurabilityJournal>,
    /// The state-access journal recorded by the divergence sanitizer
    /// (`None` unless [`crate::TestbedConfig::sanitize`] was set). Feed two
    /// of these to [`gimbal_sim::journal::first_divergence`] to localize a
    /// double-run mismatch to its first divergent tick.
    pub access_journal: Option<gimbal_sim::AccessJournal>,
    /// Broker ledger counters (`None` unless
    /// [`crate::TestbedConfig::broker`] configured a ledger — the digest
    /// then folds them in, so broker-off runs keep their pre-broker
    /// digests).
    pub broker: Option<BrokerStats>,
    /// Core-scheduler counters (`None` unless
    /// [`crate::TestbedConfig::steal`] enabled work stealing — the digest
    /// then folds them in, so steal-off runs keep their pre-scheduler
    /// digests).
    pub cores: Option<CoresStats>,
    /// Total events the engine popped from its queue, including
    /// batch-coalesced command deliveries. Perf instrumentation only
    /// (`jbof-bench` divides its host time by it for
    /// `testbed.host_ns_per_event`): deliberately **never** folded into any
    /// digest, so identical simulations compare equal regardless of how the
    /// harness was driven.
    pub events_processed: u64,
}

impl RunResult {
    /// Digest of the full submission trace (requires `record_submissions`).
    pub fn submission_digest(&self) -> u64 {
        let mut d = Digest::new();
        for r in &self.submissions {
            r.fold_into(&mut d);
        }
        d.value()
    }

    /// Digest of the recorded telemetry stream, `None` when tracing was off.
    /// Deterministic: two same-seed traced runs must agree bit for bit.
    pub fn trace_digest(&self) -> Option<u64> {
        self.trace.as_ref().map(RecordedTrace::digest)
    }

    /// Digest of the state-access journal, `None` when the sanitizer was
    /// off. Two same-seed sanitized runs must agree bit for bit; when they
    /// do not, [`gimbal_sim::journal::first_divergence`] names the first
    /// divergent tick.
    pub fn access_digest(&self) -> Option<u64> {
        self.access_journal.as_ref().map(|j| j.digest())
    }

    /// Digest of the run's aggregate statistics: per-worker counters and
    /// latency summaries plus per-SSD device counters. Two runs with the
    /// same seed must produce the same value, bit for bit — floats are
    /// folded by exact bit pattern, not approximate value.
    pub fn stats_digest(&self) -> u64 {
        let mut d = Digest::new();
        for w in &self.workers {
            d.update(w.label.as_bytes())
                .update_u64(w.ops)
                .update_u64(w.bytes)
                .update_u64(w.window.as_nanos());
            w.read_latency.fold_into(&mut d);
            w.write_latency.fold_into(&mut d);
        }
        for s in &self.ssd_stats {
            s.fold_into(&mut d);
        }
        // Folded only when a cache ran, so cache-off digests are
        // bit-identical to pre-cache builds.
        if !self.cache.is_empty() {
            for c in &self.cache {
                c.fold_into(&mut d);
            }
            d.update_u64(self.cache_losses.len() as u64);
            for l in &self.cache_losses {
                l.fold_into(&mut d);
            }
        }
        // Folded only under `WritePolicy::Back`, so write-through runs keep
        // their pre-write-back digests bit for bit.
        if !self.write_back.is_empty() {
            for wb in &self.write_back {
                wb.fold_into(&mut d);
            }
            for j in &self.journals {
                j.fold_into(&mut d);
            }
        }
        // Folded only when a broker ran, so broker-off digests are
        // bit-identical to pre-broker builds.
        if let Some(b) = &self.broker {
            b.fold_into(&mut d);
        }
        // Folded only when work stealing ran, so steal-off digests are
        // bit-identical to pre-scheduler builds.
        if let Some(c) = &self.cores {
            c.fold_into(&mut d);
        }
        d.value()
    }

    /// Aggregate cache hit ratio across all SSDs (0 when no cache ran).
    pub fn cache_hit_ratio(&self) -> f64 {
        let hits: u64 = self.cache.iter().map(|c| c.hits).sum();
        let lookups: u64 = self.cache.iter().map(|c| c.lookups()).sum();
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        }
    }

    /// Aggregated bandwidth (bytes/s) of workers whose label satisfies the
    /// predicate.
    pub fn aggregate_bps<F: Fn(&str) -> bool>(&self, pred: F) -> f64 {
        self.workers
            .iter()
            .filter(|w| pred(&w.label))
            .map(|w| w.bandwidth_bps())
            .sum()
    }

    /// Merge the latency summaries of workers matching the predicate into a
    /// (reads, writes) pair of flat-weighted means over percentiles. For
    /// identical workers this is a faithful view of the group.
    pub fn group_latency<F: Fn(&str) -> bool>(&self, pred: F) -> [LatencySummary; 2] {
        let mut out = [LatencySummary::default(); 2];
        for (idx, pick) in [true, false].iter().enumerate() {
            let sums: Vec<&LatencySummary> = self
                .workers
                .iter()
                .filter(|w| pred(&w.label))
                .map(|w| {
                    if *pick {
                        &w.read_latency
                    } else {
                        &w.write_latency
                    }
                })
                .filter(|s| s.count > 0)
                .collect();
            if sums.is_empty() {
                continue;
            }
            let n = sums.len() as f64;
            out[idx] = LatencySummary {
                count: sums.iter().map(|s| s.count).sum(),
                mean_ns: sums.iter().map(|s| s.mean_ns).sum::<f64>() / n,
                p50_ns: (sums.iter().map(|s| s.p50_ns).sum::<u64>() as f64 / n) as u64,
                p99_ns: (sums.iter().map(|s| s.p99_ns).sum::<u64>() as f64 / n) as u64,
                p999_ns: (sums.iter().map(|s| s.p999_ns).sum::<u64>() as f64 / n) as u64,
                max_ns: sums.iter().map(|s| s.max_ns).max().unwrap_or(0),
            };
        }
        out
    }
}

/// The paper's fairness metric (§5.1):
///
/// ```text
/// f-Util(i) = per_worker_bw(i) / (standalone_max_bw(i) / total_workers)
/// ```
///
/// 1.0 is the ideal (each worker gets exactly its fair share of its own
/// standalone capability).
pub fn f_util(worker_bps: f64, standalone_max_bps: f64, total_workers: u32) -> f64 {
    assert!(standalone_max_bps > 0.0 && total_workers > 0);
    worker_bps / (standalone_max_bps / f64::from(total_workers))
}

/// Jain's fairness index over per-tenant allocations:
/// `(Σx)² / (n · Σx²)`. 1.0 means perfectly equal shares; `1/n` means one
/// tenant took everything. An empty (or all-zero) allocation vector reports
/// 1.0 — a system serving nobody is trivially fair.
pub fn jain_index(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq > 0.0 {
        sum * sum / (xs.len() as f64 * sq)
    } else {
        1.0
    }
}

#[cfg(test)]
/// Utilization deviation (§5.3): `|actual − ideal| / ideal` with ideal = 1.
fn utilization_deviation(f_util: f64) -> f64 {
    (f_util - 1.0).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f_util_ideal_is_one() {
        // 16 workers, standalone 1600 MB/s, each achieving 100 MB/s.
        let f = f_util(100e6, 1600e6, 16);
        assert!((f - 1.0).abs() < 1e-9);
        assert!(utilization_deviation(f) < 1e-9);
    }

    #[test]
    fn f_util_scales_linearly() {
        assert!((f_util(200e6, 1600e6, 16) - 2.0).abs() < 1e-9);
        assert!((f_util(50e6, 1600e6, 16) - 0.5).abs() < 1e-9);
        assert!((utilization_deviation(0.5) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn jain_index_spans_equal_to_monopoly() {
        assert!((jain_index(&[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        // Mild skew sits strictly between the extremes.
        let j = jain_index(&[2.0, 1.0, 1.0, 1.0]);
        assert!(j > 0.25 && j < 1.0, "skewed index {j}");
        assert!((jain_index(&[]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[0.0, 0.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn conservation_audit_balances_terminal_states() {
        let mut f = FaultCounters {
            submitted: 100,
            completed_ok: 90,
            completed_err: 4,
            timed_out: 3,
            in_flight_at_end: 3,
            ..FaultCounters::default()
        };
        assert!(f.conservation_holds());
        f.in_flight_at_end = 2; // one command vanished
        assert!(!f.conservation_holds());
    }

    #[test]
    fn worker_result_rates() {
        let w = WorkerResult {
            label: "x".into(),
            ops: 1000,
            bytes: 4_096_000,
            window: SimDuration::from_secs(2),
            read_latency: LatencySummary::default(),
            write_latency: LatencySummary::default(),
            series: TimeSeries::new(),
        };
        assert!((w.iops() - 500.0).abs() < 1e-9);
        assert!((w.bandwidth_mbps() - 2.048).abs() < 1e-9);
    }
}
