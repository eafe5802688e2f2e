//! NVMe-over-Fabrics protocol types and a message-level network fabric model.
//!
//! This crate is the vocabulary the rest of the workspace speaks:
//!
//! * [`types`] — identifiers (tenants, SSDs, nodes, commands), the IO opcode
//!   and priority tags, and block-size constants;
//! * `capsule` — NVMe-oF command/response capsules, including the
//!   completion's reserved field that Gimbal repurposes to piggyback credit
//!   grants (§3.6 of the paper);
//! * `network` — an RDMA-flavoured link model reproducing the five-step
//!   NVMe-over-RDMA request flow of §2.1 (command capsule via `RDMA_SEND`,
//!   data fetch via `RDMA_READ` for writes, data push via `RDMA_WRITE` for
//!   reads, completion capsule via `RDMA_SEND`) as serialization +
//!   propagation delays on 100 Gbps ports;
//! * `retry` — the initiator-side timeout/backoff policy that recovers
//!   lost capsules (and their piggybacked credits) under fault injection,
//!   plus the rack escalation ladder (retransmit → suspect → reroute);
//! * `tor` — a deterministic top-of-rack switch model (per-node link
//!   serialization, hop latency, fault-injected degradation) for the
//!   rack-scale testbed;
//! * `health` — the shared lexicographic backend-preference key used by
//!   the blobstore replica chooser and the broker placement scorer.
//!
//! The real system runs SPDK's RDMA transport; we substitute a message-level
//! model because Gimbal only observes the fabric as *delay plus per-message
//! CPU cost* — both of which the model reproduces (see DESIGN.md §2).

mod capsule;
mod health;
mod network;
mod retry;
mod tor;
pub mod types;

pub use capsule::{CmdStatus, NvmeCmd, NvmeCompletion, CMD_CAPSULE_BYTES, RSP_CAPSULE_BYTES};
pub use health::HealthScore;
pub use network::{FabricConfig, Port, RdmaDelays};
pub use retry::{EscalationAction, RetryConfig};
pub use tor::{TorConfig, TorSwitch};
pub use types::{CmdId, IoType, Priority, SsdId, TenantId, BLOCK_SIZE};
