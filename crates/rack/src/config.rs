//! Rack experiment configuration.

use gimbal_broker::BrokerConfig;
use gimbal_core::Params;
use gimbal_cores::StealConfig;
use gimbal_fabric::{FabricConfig, TorConfig};
use gimbal_sim::SimDuration;
use gimbal_ssd::SsdConfig;
use gimbal_telemetry::TraceConfig;
use gimbal_testbed::{FaultConfig, Precondition, Scheme};

/// Configuration of a rack-scale experiment.
#[derive(Clone, Debug)]
pub struct RackConfig {
    /// Scheme running on every JBOF node's switch pipelines.
    pub scheme: Scheme,
    /// Gimbal parameters (used when `scheme == Scheme::Gimbal`).
    pub gimbal_params: Params,
    /// SSD model, identical across the rack.
    pub ssd: SsdConfig,
    /// JBOF node count behind the ToR.
    pub nodes: u32,
    /// SSDs (switch pipelines) per node.
    pub ssds_per_node: u32,
    /// Closed-loop clients, each with its own blobstore file.
    pub clients: u32,
    /// Outstanding logical IOs per client.
    pub queue_depth: u32,
    /// Fraction of logical IOs that are reads.
    pub read_ratio: f64,
    /// Logical IO size in bytes (multiple of 4 KiB, at most one micro blob).
    pub io_bytes: u64,
    /// Per-client file size in logical blocks.
    pub file_blocks: u64,
    /// Replicate files (primary + shadow on a *different node* — the zoned
    /// placement that makes node death survivable).
    pub replicate: bool,
    /// GC-aware read routing: when on, the replica chooser sees each
    /// backend's live GC state and steers reads away from devices
    /// mid-collection; when off, only death/partition/suspicion steer (the
    /// GC-blind baseline the A/B experiment compares against).
    pub gc_aware_routing: bool,
    /// SSD preconditioning.
    pub precondition: Precondition,
    /// Initiator-side fabric parameters (ports, propagation, inline cutoff).
    pub fabric: FabricConfig,
    /// ToR switch model (per-node link latency and bandwidth).
    pub tor: TorConfig,
    /// Run length.
    pub duration: SimDuration,
    /// Measurement starts here.
    pub warmup: SimDuration,
    /// Seed.
    pub seed: u64,
    /// Fault plan + retry/escalation policy. `None` (or a plan whose every
    /// target is absent from this rack) runs fault-free with no timers, so
    /// such runs are bit-identical to a `faults: None` run.
    pub faults: Option<FaultConfig>,
    /// Structured telemetry (`None` = off).
    pub trace: Option<TraceConfig>,
    /// Record the state-access journal for the divergence sanitizer.
    pub sanitize: bool,
    /// Inter-tenant token broker on every backend pipeline. `None` (the
    /// default) constructs no ledger and schedules no epoch events, so such
    /// a run is bit-identical to one on a build without broker support.
    /// Placement is ignored at rack scale (the blobstore owns data
    /// placement); only the borrow ledger runs.
    pub broker: Option<BrokerConfig>,
    /// Inter-pipeline work stealing on every node's reactor cores
    /// (gimbal-cores). Each node gets its own scheduler over its
    /// `ssds_per_node` cores; stealing never crosses the ToR — a node's
    /// cores live on its SmartNIC. `None` (the default) keeps the fixed
    /// 1:1 pipeline-to-core binding: the scheduler journals and traces
    /// nothing, schedules no rebalance events, and such a run is
    /// bit-identical to one on a build without the core scheduler.
    pub steal: Option<StealConfig>,
}

impl Default for RackConfig {
    fn default() -> Self {
        RackConfig {
            scheme: Scheme::Gimbal,
            gimbal_params: Params::default(),
            ssd: SsdConfig {
                logical_capacity: 256 * 1024 * 1024,
                ..SsdConfig::default()
            },
            nodes: 3,
            ssds_per_node: 2,
            clients: 4,
            queue_depth: 4,
            read_ratio: 0.7,
            io_bytes: 4096,
            file_blocks: 4096,
            replicate: true,
            gc_aware_routing: true,
            precondition: Precondition::Clean,
            fabric: FabricConfig::default(),
            tor: TorConfig::default(),
            duration: SimDuration::from_millis(60),
            warmup: SimDuration::from_millis(10),
            seed: 42,
            faults: None,
            trace: None,
            sanitize: false,
            broker: None,
            steal: None,
        }
    }
}

impl RackConfig {
    /// Total backends (SSDs across all nodes).
    pub fn backends(&self) -> u32 {
        self.nodes * self.ssds_per_node
    }

    /// The node owning backend `b` (backends are numbered node-major).
    pub(crate) fn node_of(&self, b: usize) -> usize {
        b / self.ssds_per_node as usize
    }

    /// Logical IO size in blocks.
    pub fn io_blocks(&self) -> u64 {
        self.io_bytes / 4096
    }

    /// Check this config's own top-level conditions (not those of its
    /// nested configs); the error names the offending value.
    pub fn check(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("need at least one node".into());
        }
        if self.ssds_per_node == 0 {
            return Err("need at least one SSD per node".into());
        }
        if self.clients == 0 || self.queue_depth == 0 {
            return Err(format!(
                "clients ({}) and queue_depth ({}) must be at least 1",
                self.clients, self.queue_depth
            ));
        }
        if !(0.0..=1.0).contains(&self.read_ratio) {
            return Err(format!("read_ratio {} out of [0, 1]", self.read_ratio));
        }
        if self.io_bytes < 4096 || !self.io_bytes.is_multiple_of(4096) {
            return Err(format!(
                "io_bytes {} must be a positive multiple of 4 KiB",
                self.io_bytes
            ));
        }
        // One logical IO must map to exactly one physical IO per replica
        // (micro blobs are the replication unit), so it may not straddle a
        // micro-blob boundary.
        if !64u64.is_multiple_of(self.io_blocks()) {
            return Err(format!(
                "io_bytes {} must divide the 256 KiB micro blob",
                self.io_bytes
            ));
        }
        if self.file_blocks < self.io_blocks() {
            return Err(format!(
                "file of {} blocks is smaller than one IO",
                self.file_blocks
            ));
        }
        if self.replicate && self.backends() < 2 {
            return Err(format!(
                "replication needs at least two backends, not {}",
                self.backends()
            ));
        }
        if self.warmup > self.duration {
            return Err(format!(
                "warmup {} past the end of duration {}",
                self.warmup, self.duration
            ));
        }
        Ok(())
    }

    /// Panic on inconsistent configuration, with [`Self::check`]'s message
    /// for the top-level conditions.
    pub(crate) fn validate(&self) {
        self.ssd.validate();
        self.tor.validate();
        assert_eq!(self.check(), Ok(()), "invalid rack config");
        if let Some(fc) = &self.faults {
            fc.validate();
        }
        if let Some(bc) = &self.broker {
            bc.validate();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        RackConfig::default().validate();
    }

    #[test]
    fn backend_to_node_mapping_is_node_major() {
        let cfg = RackConfig {
            nodes: 3,
            ssds_per_node: 2,
            ..RackConfig::default()
        };
        assert_eq!(cfg.backends(), 6);
        assert_eq!(cfg.node_of(0), 0);
        assert_eq!(cfg.node_of(1), 0);
        assert_eq!(cfg.node_of(2), 1);
        assert_eq!(cfg.node_of(5), 2);
    }

    #[test]
    #[should_panic(expected = "micro blob")]
    fn io_straddling_a_micro_is_rejected() {
        RackConfig {
            io_bytes: 48 * 4096,
            ..RackConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "two backends")]
    fn replication_needs_two_backends() {
        RackConfig {
            nodes: 1,
            ssds_per_node: 1,
            ..RackConfig::default()
        }
        .validate();
    }
}
