//! Experiment orchestration: a full client ↔ fabric ↔ JBOF testbed in
//! virtual time.
//!
//! This crate reproduces the paper's evaluation rig (§5.1): client servers
//! running fio-like workers, a 100 Gbps RDMA fabric, and a Stingray-style
//! JBOF whose per-SSD pipelines run one of the five schemes (vanilla FIFO,
//! ReFlex, Parda, FlashFQ, Gimbal). The fio, KV and rack engines share one
//! deterministic discrete-event loop ([`reactor`]); every figure binary in
//! `gimbal-bench` is a thin wrapper over an engine's `run`.
//!
//! * `scheme` — the scheme selector and its policy/client/CPU factories;
//! * `config` — testbed and worker specifications;
//! * [`reactor`] — the one event loop every engine runs: the queue, the
//!   nodes, the shared events (capsules both ways, wakes, timers, power
//!   loss, broker epochs, core rebalances, samples) and their sanitizer
//!   records, generic over an [`reactor::Engine`] and a
//!   [`reactor::Topology`];
//! * `node` — one JBOF node: its pipelines and reactor cores, driven by
//!   every engine (the fio engine, the KV engine, and the rack's N nodes);
//! * [`initiator`] — the client side every engine submits through: gates,
//!   priority queues, ports, the in-flight table, the retry ladder and the
//!   command ledger;
//! * `engine` — the fio engine's own part: workers, their issue path,
//!   sampling and placement;
//! * `kv` — the YCSB-over-LSM engine's own part: instances, their stores
//!   and deadline pumps;
//! * `results` — per-worker and per-SSD measurements, f-Util computation
//!   (§5.1's fairness metric) and reporting helpers.

// Unit tests may pin exact float values; the library build keeps float_cmp.
#![cfg_attr(test, allow(clippy::float_cmp))]

mod config;
mod engine;
pub mod initiator;
mod kv;
mod node;
mod oracle;
pub mod reactor;
mod results;
mod scheme;

pub use config::{parse_workers, FaultConfig, Precondition, TestbedConfig, WorkerSpec};
pub use engine::Testbed;
pub use gimbal_broker::{BrokerConfig, BrokerMode, BrokerStats};
pub use gimbal_cache::{
    AdmissionPolicy, CacheConfig, CacheStats, DurabilityEvent, DurabilityJournal, FlushIo,
    StagedWriteLoss, WriteBackStats, WritePolicy, FLUSH_ID_BASE, LOSS_EVENT_CMD,
};
pub use kv::{KvInstanceResult, KvRunResult, KvTestbed, KvTestbedConfig};
pub use node::{InFlight, Node, Tracked};
pub use oracle::{check_journal, check_kv_run, check_run, OracleReport};
pub use results::{
    f_util, jain_index, FaultCounters, GimbalTrace, RunResult, SubmissionRecord, WorkerResult,
};
pub use scheme::{cache_tier, cache_tier_wb, Scheme};
