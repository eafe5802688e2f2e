//! # gimbal-repro
//!
//! A full reproduction of **"Gimbal: Enabling Multi-tenant Storage
//! Disaggregation on SmartNIC JBOFs"** (Min et al., SIGCOMM 2021) as a
//! deterministic discrete-event simulation in Rust.
//!
//! This façade crate re-exports the workspace so applications can depend on
//! one crate:
//!
//! * [`sim`] — the simulation kernel (virtual time, events, RNG, stats);
//! * [`fabric`] — NVMe-oF protocol types and the RDMA fabric model;
//! * [`ssd`] — the flash SSD model (FTL, GC, write buffer, die priority);
//! * [`nic`] — SmartNIC/server CPU cost model;
//! * [`switch`] — the storage-switch pipeline and policy traits;
//! * [`cache`] — the congestion-aware multi-tenant NIC-DRAM cache tier;
//! * [`gimbal`] — the paper's contribution: delay-based congestion control,
//!   dual token bucket, write-cost estimation, virtual-slot DRR scheduling,
//!   credit-based flow control;
//! * [`baselines`] — ReFlex, Parda, FlashFQ ports;
//! * [`workload`] — fio-like streams and YCSB;
//! * [`broker`] — inter-tenant token borrowing with deterministic
//!   repayment, and Serifos-style interference-aware tenant placement;
//! * [`cores`] — the node-level reactor-core scheduler: deterministic
//!   inter-pipeline work stealing and epoch-based home rebalance;
//! * [`blobstore`] — the hierarchical blob allocator + replication layer;
//! * [`lsm_kv`] — the RocksDB-analog LSM store;
//! * [`telemetry`] — deterministic structured tracing, metrics, and
//!   Perfetto/JSONL export;
//! * [`testbed`] — end-to-end experiment orchestration.
//!
//! ## Quick start
//!
//! ```
//! use gimbal_repro::testbed::{Scheme, Testbed, TestbedConfig, WorkerSpec};
//! use gimbal_repro::workload::FioSpec;
//! use gimbal_repro::sim::SimDuration;
//!
//! // Two tenants share one SSD behind a Gimbal switch.
//! let cap = 512 * 1024 * 1024 / 4096;
//! let workers = vec![
//!     WorkerSpec::new("small-reads", FioSpec::paper_default(1.0, 4096, 0, cap / 2)),
//!     WorkerSpec::new("big-reads", FioSpec::paper_default(1.0, 128 * 1024, cap / 2, cap / 2)),
//! ];
//! let cfg = TestbedConfig {
//!     scheme: Scheme::Gimbal,
//!     duration: SimDuration::from_millis(400),
//!     warmup: SimDuration::from_millis(100),
//!     ..TestbedConfig::default()
//! };
//! let result = Testbed::new(cfg, workers).run();
//! assert!(result.workers.iter().all(|w| w.ops > 0));
//! ```

pub use gimbal_baselines as baselines;
pub use gimbal_blobstore as blobstore;
pub use gimbal_broker as broker;
pub use gimbal_cache as cache;
pub use gimbal_core as gimbal;
pub use gimbal_cores as cores;
pub use gimbal_fabric as fabric;
pub use gimbal_lsm_kv as lsm_kv;
pub use gimbal_nic as nic;
pub use gimbal_rack as rack;
pub use gimbal_sim as sim;
pub use gimbal_ssd as ssd;
pub use gimbal_switch as switch;
pub use gimbal_telemetry as telemetry;
pub use gimbal_testbed as testbed;
pub use gimbal_workload as workload;
