//! The simulated-clock view of one engine run: a common per-tenant shape
//! over the three engines' result structs, and the `sim_*` metrics.

use crate::workloads::Raw;
use gimbal_sim::stats::LatencySummary;
use gimbal_sim::Digest;
use gimbal_testbed::jain_index;

/// A p99 is reported only over tenants with at least this many samples, so
/// at least ten samples lie beyond it.
pub const P99_MIN_SAMPLES: u64 = 1000;

/// A worst-tenant p99 with the number of samples behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorstP99 {
    pub us: f64,
    /// Samples of the tenant whose p99 this is.
    pub samples: u64,
}

/// One closed-loop client's measured window.
pub struct Tenant {
    /// Worker group (fio label; `db` for KV instances; `client` for rack).
    pub group: String,
    pub ops: u64,
    pub bytes: u64,
    pub window_s: f64,
    pub read: LatencySummary,
    pub write: LatencySummary,
}

impl Tenant {
    fn bandwidth(&self) -> f64 {
        if self.window_s > 0.0 {
            self.bytes as f64 / self.window_s
        } else {
            0.0
        }
    }
}

pub struct Sim {
    /// Digest of the run's simulated statistics; equal across repetitions.
    pub digest: u64,
    pub tenants: Vec<Tenant>,
    /// Operations the clients submitted.
    pub attempted: u64,
    /// Client-visible failures (fio: error + timed-out commands; rack:
    /// logical IOs that ended in a typed error).
    pub failed: u64,
    /// Numerator of `failed_share`: the above plus, for the rack, physical
    /// commands that timed out and were retried or rerouted.
    pub failed_any: u64,
    /// Denominator of `failed_share`: submitted commands at the level
    /// `failed_any` counts.
    pub submitted: u64,
}

fn fold_latency(d: &mut Digest, s: &LatencySummary) {
    d.update_u64(s.count)
        .update_f64(s.mean_ns)
        .update_u64(s.p50_ns)
        .update_u64(s.p99_ns)
        .update_u64(s.p999_ns)
        .update_u64(s.max_ns);
}

impl Sim {
    pub fn of(raw: &Raw) -> Sim {
        match raw {
            Raw::Fio(r) => Sim {
                digest: r.stats_digest(),
                tenants: r
                    .workers
                    .iter()
                    .map(|w| Tenant {
                        group: w.label.clone(),
                        ops: w.ops,
                        bytes: w.bytes,
                        window_s: w.window.as_secs_f64(),
                        read: w.read_latency,
                        write: w.write_latency,
                    })
                    .collect(),
                attempted: r.faults.submitted,
                failed: r.faults.completed_err + r.faults.timed_out,
                failed_any: r.faults.completed_err + r.faults.timed_out,
                submitted: r.faults.submitted,
            },
            Raw::Kv(r) => {
                // The KV engine publishes no digest of its own: fold what it
                // does publish.
                let mut d = Digest::new();
                for i in &r.instances {
                    d.update_u64(i.ops);
                    fold_latency(&mut d, &i.read_latency);
                    fold_latency(&mut d, &i.write_latency);
                    d.update_u64(i.lsm.probe_reads)
                        .update_u64(i.lsm.wal_writes)
                        .update_u64(i.lsm.flushes)
                        .update_u64(i.lsm.compactions)
                        .update_u64(i.lsm.background_write_bytes);
                }
                for s in &r.ssd_stats {
                    d.update_u64(s.reads)
                        .update_u64(s.writes)
                        .update_u64(s.read_bytes)
                        .update_u64(s.write_bytes)
                        .update_u64(s.ftl.gc_slot_writes);
                }
                let ops: u64 = r.instances.iter().map(|i| i.ops).sum();
                Sim {
                    digest: d.value(),
                    tenants: r
                        .instances
                        .iter()
                        .map(|i| Tenant {
                            group: "db".into(),
                            ops: i.ops,
                            bytes: i.ops * crate::workloads::KV_VALUE_BYTES,
                            window_s: r.window.as_secs_f64(),
                            read: i.read_latency,
                            write: i.write_latency,
                        })
                        .collect(),
                    // The KV engine counts completed operations only.
                    attempted: ops,
                    failed: 0,
                    failed_any: 0,
                    submitted: ops,
                }
            }
            Raw::Rack(r) => Sim {
                digest: r.stats_digest(),
                tenants: r
                    .clients
                    .iter()
                    .map(|c| Tenant {
                        group: "client".into(),
                        ops: c.ops,
                        bytes: c.ops * crate::workloads::RACK_IO_BYTES,
                        window_s: r.window.as_secs_f64(),
                        read: c.read_latency,
                        write: c.write_latency,
                    })
                    .collect(),
                attempted: r.rack.issued,
                failed: r.rack.failed_typed,
                failed_any: r.physical.completed_err + r.physical.timed_out + r.rack.failed_typed,
                submitted: r.physical.submitted,
            },
        }
    }

    pub fn ops(&self) -> u64 {
        self.tenants.iter().map(|t| t.ops).sum()
    }

    pub fn kiops(&self) -> f64 {
        self.tenants
            .iter()
            .filter(|t| t.window_s > 0.0)
            .map(|t| t.ops as f64 / t.window_s)
            .sum::<f64>()
            / 1e3
    }

    pub fn mbps(&self) -> f64 {
        self.tenants.iter().map(Tenant::bandwidth).sum::<f64>() / 1e6
    }

    /// Count-weighted mean over tenants of `f(summary)` in µs; `None` when
    /// no tenant has a sample. The engines publish per-tenant summaries,
    /// not pooled histograms.
    fn weighted_us(
        &self,
        pick: impl Fn(&Tenant) -> &LatencySummary,
        f: impl Fn(&LatencySummary) -> f64,
    ) -> Option<f64> {
        let (mut num, mut den) = (0.0, 0u64);
        for s in self.tenants.iter().map(pick).filter(|s| s.count > 0) {
            num += f(s) * s.count as f64;
            den += s.count;
        }
        (den > 0).then(|| num / den as f64 / 1e3)
    }

    pub fn read_mean_us(&self) -> Option<f64> {
        self.weighted_us(|t| &t.read, |s| s.mean_ns)
    }

    pub fn read_p50_us(&self) -> Option<f64> {
        self.weighted_us(|t| &t.read, |s| s.p50_ns as f64)
    }

    /// The worst p99 over tenants with at least [`P99_MIN_SAMPLES`] samples
    /// of that kind; `None` when no tenant qualifies.
    fn worst_p99(&self, pick: impl Fn(&Tenant) -> &LatencySummary) -> Option<WorstP99> {
        self.tenants
            .iter()
            .map(pick)
            .filter(|s| s.count >= P99_MIN_SAMPLES)
            .max_by_key(|s| s.p99_ns)
            .map(|s| WorstP99 {
                us: s.p99_ns as f64 / 1e3,
                samples: s.count,
            })
    }

    /// Count-weighted mean of the read p99 of the tenants `read_p99` ranges
    /// over.
    pub fn read_p99_mean_us(&self) -> Option<f64> {
        let (mut num, mut den) = (0.0, 0u64);
        for t in &self.tenants {
            if t.read.count >= P99_MIN_SAMPLES {
                num += t.read.p99_ns as f64 * t.read.count as f64;
                den += t.read.count;
            }
        }
        (den > 0).then(|| num / den as f64 / 1e3)
    }

    pub fn read_p99(&self) -> Option<WorstP99> {
        self.worst_p99(|t| &t.read)
    }

    pub fn write_p99(&self) -> Option<WorstP99> {
        self.worst_p99(|t| &t.write)
    }

    /// Minimum over worker groups of Jain's index of per-tenant bandwidth.
    pub fn jain(&self) -> f64 {
        let mut groups: Vec<&str> = self.tenants.iter().map(|t| t.group.as_str()).collect();
        groups.sort_unstable();
        groups.dedup();
        groups
            .iter()
            .map(|g| {
                let bw: Vec<f64> = self
                    .tenants
                    .iter()
                    .filter(|t| t.group == *g)
                    .map(Tenant::bandwidth)
                    .collect();
                jain_index(&bw)
            })
            .fold(1.0, f64::min)
    }

    pub fn failed_share(&self) -> f64 {
        self.failed_any as f64 / self.submitted.max(1) as f64
    }
}
