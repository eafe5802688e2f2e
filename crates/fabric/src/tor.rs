//! Deterministic top-of-rack switch model for multi-node JBOF racks.
//!
//! Every rack node (initiator hosts count as nodes' peers — they sit on the
//! other side of the ToR) reaches the rest of the rack through one ToR link
//! modeled as a pair of serialization [`Port`]s (downlink toward the node,
//! uplink away from it) plus a fixed per-hop latency. The ToR adds *queueing*
//! (messages to the same node serialize back-to-back on its downlink) and
//! *latency* on top of the end-host fabric model in [`crate::network`]; loss
//! and partitions are decided by the engine from the fault plan, not here, so
//! the switch itself stays policy-free and trivially deterministic.
//!
//! Arrival times at a shared ToR port are **not** monotone — capsules from
//! different initiators interleave arbitrarily — so forwarding always uses
//! [`Port::transmit_at`], which skips the monotonic-`now` watermark while
//! still serializing correctly behind the port's busy horizon.

use crate::network::Port;
use gimbal_sim::{SimDuration, SimTime};

/// Top-of-rack link parameters.
#[derive(Clone, Copy, Debug)]
pub struct TorConfig {
    /// Per-hop switch traversal + cable latency, applied once per crossing.
    pub link_latency: SimDuration,
    /// Per-node link rate in bytes/second (defaults to the 100 Gbps fabric
    /// rate, so the ToR is latency- not bandwidth-limiting at smoke scale).
    pub link_bandwidth: u64,
}

impl Default for TorConfig {
    fn default() -> Self {
        TorConfig {
            link_latency: SimDuration::from_micros(1),
            link_bandwidth: 12_500_000_000,
        }
    }
}

impl TorConfig {
    /// Panic on a degenerate configuration.
    pub fn validate(&self) {
        assert!(self.link_bandwidth > 0, "zero ToR link bandwidth");
    }
}

/// A ToR switch with one down/up link pair per rack node.
#[derive(Clone, Debug)]
pub struct TorSwitch {
    cfg: TorConfig,
    down: Vec<Port>,
    up: Vec<Port>,
}

impl TorSwitch {
    /// Build a switch serving `nodes` rack nodes.
    pub fn new(cfg: TorConfig, nodes: usize) -> Self {
        cfg.validate();
        TorSwitch {
            cfg,
            down: (0..nodes).map(|_| Port::new(cfg.link_bandwidth)).collect(),
            up: (0..nodes).map(|_| Port::new(cfg.link_bandwidth)).collect(),
        }
    }

    /// Forward a message that reached the ToR at `at_tor` down to `node`;
    /// returns when it arrives at the node. `extra` is fault-injected link
    /// degradation (zero when the link is healthy).
    pub fn to_node(
        &mut self,
        node: usize,
        at_tor: SimTime,
        bytes: u64,
        extra: SimDuration,
    ) -> SimTime {
        self.down[node].transmit_at(at_tor, bytes) + self.cfg.link_latency + extra
    }

    /// Forward a message leaving `node` at `at_node` up through the ToR;
    /// returns when it clears the switch (ready for the far-side hop).
    pub fn from_node(
        &mut self,
        node: usize,
        at_node: SimTime,
        bytes: u64,
        extra: SimDuration,
    ) -> SimTime {
        self.up[node].transmit_at(at_node, bytes) + self.cfg.link_latency + extra
    }

    /// Bytes forwarded toward `node` (telemetry gauge feed).
    pub fn bytes_down(&self, node: usize) -> u64 {
        self.down[node].bytes_sent()
    }

    /// Bytes forwarded away from `node`.
    pub fn bytes_up(&self, node: usize) -> u64 {
        self.up[node].bytes_sent()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossing_pays_serialization_plus_latency() {
        let cfg = TorConfig {
            link_latency: SimDuration::from_micros(1),
            link_bandwidth: 1_000_000_000, // 1 GB/s: 1000 B = 1 µs
        };
        let mut tor = TorSwitch::new(cfg, 2);
        let t = tor.to_node(0, SimTime::ZERO, 1000, SimDuration::ZERO);
        assert_eq!(t.as_micros(), 2, "1 µs serialize + 1 µs hop");
        // Second message to the same node queues behind the first.
        let t2 = tor.to_node(0, SimTime::ZERO, 1000, SimDuration::ZERO);
        assert_eq!(t2.as_micros(), 3);
        // A different node's link is independent.
        let t3 = tor.to_node(1, SimTime::ZERO, 1000, SimDuration::ZERO);
        assert_eq!(t3.as_micros(), 2);
    }

    #[test]
    fn non_monotone_arrivals_serialize_correctly() {
        // Capsules from two initiators reach the ToR out of order; the later
        // handoff with the earlier timestamp must still queue, not panic.
        let cfg = TorConfig {
            link_latency: SimDuration::ZERO,
            link_bandwidth: 1_000_000_000,
        };
        let mut tor = TorSwitch::new(cfg, 1);
        let a = tor.to_node(0, SimTime::from_micros(10), 1000, SimDuration::ZERO);
        assert_eq!(a.as_micros(), 11);
        let b = tor.to_node(0, SimTime::from_micros(5), 1000, SimDuration::ZERO);
        assert_eq!(b.as_micros(), 12, "earlier arrival queues behind busy link");
    }

    #[test]
    fn degradation_extra_adds_one_way_latency() {
        let mut tor = TorSwitch::new(TorConfig::default(), 1);
        let base = tor.from_node(0, SimTime::ZERO, 100, SimDuration::ZERO);
        let mut tor2 = TorSwitch::new(TorConfig::default(), 1);
        let slow = tor2.from_node(0, SimTime::ZERO, 100, SimDuration::from_micros(50));
        assert_eq!(slow.since(base), SimDuration::from_micros(50));
    }

    #[test]
    fn gauges_track_per_direction_bytes() {
        let mut tor = TorSwitch::new(TorConfig::default(), 2);
        tor.to_node(0, SimTime::ZERO, 4096, SimDuration::ZERO);
        tor.from_node(0, SimTime::ZERO, 128, SimDuration::ZERO);
        assert_eq!(tor.bytes_down(0), 4096);
        assert_eq!(tor.bytes_up(0), 128);
        assert_eq!(tor.bytes_down(1), 0);
    }

    #[test]
    #[should_panic(expected = "zero ToR link bandwidth")]
    fn zero_bandwidth_is_rejected() {
        TorSwitch::new(
            TorConfig {
                link_bandwidth: 0,
                ..TorConfig::default()
            },
            1,
        );
    }
}
