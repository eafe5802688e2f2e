//! Rack run output: per-client measurements plus the two-level
//! conservation audit.
//!
//! The single-node engines prove *physical* conservation: every submitted
//! NVMe command reaches exactly one terminal state. The rack adds a second
//! ledger one level up — *logical* application IOs, which may be served by
//! several physical commands (write replication) or by a chain of them
//! (timeout → reroute). The rack audit holds only when both books balance,
//! which is exactly "no acknowledged IO lost, no IO double-served": a lost
//! IO would leave `issued` above the terminal buckets, and a double-served
//! one would push a terminal bucket above `issued`.

use gimbal_broker::BrokerStats;
use gimbal_cores::CoresStats;
use gimbal_sim::stats::LatencySummary;
use gimbal_sim::{AccessJournal, Digest, SimDuration};
use gimbal_ssd::SsdStats;
use gimbal_telemetry::RecordedTrace;
use gimbal_testbed::FaultCounters;

/// Measurements for one closed-loop client over the measured window.
#[derive(Clone, Debug)]
pub struct RackClientResult {
    /// Logical IOs acknowledged in the measured window.
    pub ops: u64,
    /// End-to-end read latency (issue → acknowledgement, reroutes included).
    pub read_latency: LatencySummary,
    /// End-to-end write latency (all replicas resolved).
    pub write_latency: LatencySummary,
}

/// Rack-level counters: the logical IO ledger plus ToR/escalation activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RackCounters {
    /// Logical IOs issued by clients.
    pub issued: u64,
    /// Logical IOs acknowledged with full redundancy.
    pub acked_ok: u64,
    /// Logical IOs acknowledged on fewer replicas than configured (a write
    /// side died or timed out; the data is durable but under-replicated).
    pub acked_degraded: u64,
    /// Logical IOs that ended in a typed error — every live replica was
    /// exhausted. Never a panic, never silence.
    pub failed_typed: u64,
    /// Logical IOs still open when the clock expired.
    pub in_flight_at_end: u64,
    /// Node-suspected transitions (entering suspicion; clearing is free).
    pub nodes_suspected: u64,
    /// Reads moved to a surviving replica by the escalation ladder or by an
    /// error completion.
    pub reroutes: u64,
    /// Command capsules swallowed by a dead or partitioned node's ToR port.
    pub tor_cmd_drops: u64,
    /// Completion capsules swallowed by a dead or partitioned node.
    pub tor_cpl_drops: u64,
    /// Capsule crossings that paid a degraded-link latency penalty.
    pub link_degraded_crossings: u64,
}

impl RackCounters {
    /// The logical conservation law: every issued IO lands in exactly one
    /// terminal bucket.
    pub(crate) fn logical_conservation_holds(&self) -> bool {
        self.issued
            == self.acked_ok + self.acked_degraded + self.failed_typed + self.in_flight_at_end
    }

    /// Fold every counter into a digest, field order fixed.
    pub(crate) fn fold_into(&self, d: &mut Digest) {
        for v in [
            self.issued,
            self.acked_ok,
            self.acked_degraded,
            self.failed_typed,
            self.in_flight_at_end,
            self.nodes_suspected,
            self.reroutes,
            self.tor_cmd_drops,
            self.tor_cpl_drops,
            self.link_degraded_crossings,
        ] {
            d.update_u64(v);
        }
    }
}

/// The complete output of one rack run.
#[derive(Clone, Debug)]
pub struct RackResult {
    /// Per-client measurements, in client order.
    pub clients: Vec<RackClientResult>,
    /// Per-backend SSD statistics, node-major order.
    pub ssd_stats: Vec<SsdStats>,
    /// Physical per-command counters (same ledger as the single-node
    /// engines; reroutes appear as a timeout plus a fresh submission).
    pub physical: FaultCounters,
    /// Logical and rack-level counters.
    pub rack: RackCounters,
    /// Bytes each node's ToR downlink carried.
    pub tor_bytes_down: Vec<u64>,
    /// Bytes each node's ToR uplink carried.
    pub tor_bytes_up: Vec<u64>,
    /// Measured window length.
    pub window: SimDuration,
    /// Recorded telemetry (`None` unless tracing was configured).
    pub trace: Option<RecordedTrace>,
    /// State-access journal (`None` unless the sanitizer was on).
    pub access_journal: Option<AccessJournal>,
    /// Broker ledger statistics (`None` unless the broker was configured).
    pub broker: Option<BrokerStats>,
    /// Per-node core-scheduler counters (empty unless
    /// [`crate::RackConfig::steal`] enabled work stealing — the digest then
    /// folds them in, so steal-off runs keep their pre-scheduler digests).
    pub cores: Vec<CoresStats>,
    /// Total events the reactor popped, counted as for
    /// [`gimbal_testbed::RunResult::events_processed`]. Perf instrumentation
    /// only: never folded into any digest.
    pub events_processed: u64,
}

impl RackResult {
    /// The rack conservation audit: both the physical and the logical
    /// ledgers balance.
    pub fn conservation_audit_holds(&self) -> bool {
        self.physical.conservation_holds() && self.rack.logical_conservation_holds()
    }

    /// Digest of the run's aggregate statistics; two same-seed runs must
    /// agree bit for bit.
    pub fn stats_digest(&self) -> u64 {
        let mut d = Digest::new();
        for c in &self.clients {
            d.update_u64(c.ops);
            c.read_latency.fold_into(&mut d);
            c.write_latency.fold_into(&mut d);
        }
        for s in &self.ssd_stats {
            s.fold_into(&mut d);
        }
        let p = &self.physical;
        for v in [
            p.submitted,
            p.completed_ok,
            p.completed_err,
            p.timed_out,
            p.in_flight_at_end,
            p.cmd_capsules_dropped,
            p.cpl_capsules_dropped,
            p.retries,
            p.completions_resent,
            p.duplicate_cmds_ignored,
            p.stale_completions_ignored,
        ] {
            d.update_u64(v);
        }
        self.rack.fold_into(&mut d);
        for v in self.tor_bytes_down.iter().chain(&self.tor_bytes_up) {
            d.update_u64(*v);
        }
        // Broker-off digests must match builds without broker support, so
        // the ledger folds in only when it ran.
        if let Some(b) = &self.broker {
            b.fold_into(&mut d);
        }
        // Folded only when work stealing ran, so steal-off digests are
        // bit-identical to pre-scheduler builds.
        for c in &self.cores {
            c.fold_into(&mut d);
        }
        d.value()
    }

    /// Digest of the recorded telemetry stream, `None` when tracing was off.
    pub fn trace_digest(&self) -> Option<u64> {
        self.trace.as_ref().map(RecordedTrace::digest)
    }

    /// Digest of the state-access journal, `None` when the sanitizer was
    /// off.
    pub fn access_digest(&self) -> Option<u64> {
        self.access_journal.as_ref().map(|j| j.digest())
    }

    /// Count-weighted mean read latency across clients, µs.
    pub fn mean_read_latency_us(&self) -> f64 {
        let (mut num, mut den) = (0.0, 0u64);
        for c in &self.clients {
            num += c.read_latency.mean_ns * c.read_latency.count as f64;
            den += c.read_latency.count;
        }
        if den == 0 {
            0.0
        } else {
            num / den as f64 / 1e3
        }
    }

    /// Count-weighted mean of per-client p99 read latencies, µs.
    pub fn p99_read_latency_us(&self) -> f64 {
        let (mut num, mut den) = (0.0, 0u64);
        for c in &self.clients {
            num += c.read_latency.p99_ns as f64 * c.read_latency.count as f64;
            den += c.read_latency.count;
        }
        if den == 0 {
            0.0
        } else {
            num / den as f64 / 1e3
        }
    }

    /// Total acknowledged logical IOs per second over the measured window.
    pub fn iops(&self) -> f64 {
        if self.window == SimDuration::ZERO {
            return 0.0;
        }
        let ops: u64 = self.clients.iter().map(|c| c.ops).sum();
        ops as f64 / self.window.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_conservation_balances_terminal_buckets() {
        let mut c = RackCounters {
            issued: 100,
            acked_ok: 80,
            acked_degraded: 10,
            failed_typed: 5,
            in_flight_at_end: 5,
            ..RackCounters::default()
        };
        assert!(c.logical_conservation_holds());
        c.acked_ok = 81; // one IO acknowledged twice
        assert!(!c.logical_conservation_holds());
        c.acked_ok = 80;
        c.in_flight_at_end = 4; // one IO vanished
        assert!(!c.logical_conservation_holds());
    }

    #[test]
    fn counter_digest_is_order_sensitive() {
        let a = RackCounters {
            issued: 1,
            acked_ok: 2,
            ..RackCounters::default()
        };
        let b = RackCounters {
            issued: 2,
            acked_ok: 1,
            ..RackCounters::default()
        };
        let (mut da, mut db) = (Digest::new(), Digest::new());
        a.fold_into(&mut da);
        b.fold_into(&mut db);
        assert_ne!(da.value(), db.value());
    }
}
