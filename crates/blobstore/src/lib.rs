//! The blobstore filesystem layer of §4.3: a hierarchical blob allocator
//! over a pool of NVMe-oF backends, with replication, a credit-driven IO
//! rate limiter, and a read load balancer.
//!
//! The paper runs RocksDB "over a blobstore file system in an NVMe-oF aware
//! environment"; this crate is that layer, kept purely *logical*: it decides
//! where data lives and which replica serves a read, and emits [`IoPlan`]s
//! that the driving engine executes against the simulated fabric/JBOF.
//!
//! * `allocator` — the hierarchical blob allocator (HBA): a global
//!   allocator hands out *mega blobs* (large contiguous chunks, bitmap
//!   tracked); a local agent splits them into *micro blobs* (256 KiB) and
//!   serves file allocations from its free pool, spilling back to the
//!   global level when empty. Mega/micro selection is load-aware: pick the
//!   backend with the most credit (§4.3).
//! * `store` — files as sequences of replicated micro blobs (primary +
//!   shadow on distinct backends); write plans fan out to both replicas,
//!   read plans pick a replica via a caller-supplied chooser.
//! * `limiter` — the credit-based rate limiter and per-backend load view
//!   used both for submission gating and replica choice.
//! * `error` — typed errors for tenant-facing operations: bad replica
//!   sets, impossible configurations, and spans with no live copy left.

mod allocator;
mod error;
mod limiter;
mod store;

pub use allocator::{BackendId, BlobAddr, HbaConfig, HierarchicalAllocator};
pub use error::BlobError;
pub use limiter::{RateLimiter, ReplicaHealth};
pub use store::{Blobstore, FileId, IoPlan};
