//! # gimbal-rack
//!
//! The rack-scale testbed: N JBOF nodes — each a full storage engine
//! (switch pipeline + SSDs) — behind a deterministic top-of-rack switch
//! model, shared by a set of closed-loop clients running over the
//! replicated blobstore.
//!
//! The single-node engines answer "does the scheme keep tenants fair on one
//! JBOF"; this crate answers "does the *rack* keep serving when a whole
//! node dies". The moving parts:
//!
//! * `engine` — the rack engine: its clients, logical IOs and routing,
//!   and the ToR topology, run in the event loop every engine shares
//!   ([`gimbal_testbed::reactor`]). Every capsule crosses the ToR
//!   ([`gimbal_fabric::TorSwitch`]) twice: initiator port → ToR downlink →
//!   node, and node uplink → ToR → initiator. Node-scoped faults
//!   ([`gimbal_sim::NodeFaultSpec`]) act at those crossings: a dead or
//!   partitioned node silently swallows capsules in both directions, a
//!   degraded link adds latency per crossing, and a node-scoped GC storm
//!   stalls every SSD in the node at once.
//! * **GC/failure-aware routing** — reads are steered by
//!   [`gimbal_blobstore::RateLimiter::choose_replica_aware`]: alive beats
//!   dead (hard), reachable beats partitioned, trusted beats suspect,
//!   idle beats GC-busy (soft), then credit headroom. The GC signal comes
//!   straight from the device model ([`gimbal_ssd::FlashSsd::gc_busy`]),
//!   so organic die-level collections and injected storms both steer.
//! * **Escalation ladder** — per-command timeout → retransmit (existing
//!   fabric retry) → mark-node-suspect → reroute to a surviving replica →
//!   terminal typed error only when no live replica holds the span
//!   ([`gimbal_fabric::RetryConfig::escalate`], climbed by the initiator
//!   runtime every engine shares, [`gimbal_testbed::initiator`]).
//! * `results` — physical (per-capsule) *and* logical (per-application-IO)
//!   conservation counters; the rack audit holds when both balance: no
//!   acknowledged IO lost, no IO double-served.
//!
//! Determinism is inherited wholesale: same seed, same config → bit-identical
//! stats, trace, and state-access journal digests, and the divergence
//! sanitizer journals every cross-node routing decision (`rack.route`) so a
//! double-run mismatch names the tick and decision that diverged.

mod config;
mod engine;
mod results;

pub use config::RackConfig;
pub use engine::RackTestbed;
pub use results::{RackClientResult, RackCounters, RackResult};
