//! A log-structured merge-tree key-value store over the blobstore — the
//! RocksDB analog of §4.3 / Appendix E.
//!
//! Structure (Appendix E): a **memtable** absorbs recent updates and serves
//! reads of recently updated values; when full it is persisted as an
//! **SSTable** by sequential flush writes; low-level SSTables merge into
//! high-level ones via **compaction**. `L0` holds the newest (overlapping)
//! tables; `L1..Ln` hold sorted runs with disjoint key ranges. Reads start
//! at the memtable and walk L0 (newest first) then one candidate per level,
//! with per-table Bloom filters skipping most absent probes. Writes append
//! to a group-committed WAL.
//!
//! Membership is the simulation's ground truth. The memtable is a
//! `DetSet` that keeps its capacity across fills. Each SSTable holds its
//! keys as a sorted, deduplicated `Box<[u64]>` (8 B per key, looked up by
//! binary search): a flush sorts the memtable's keys into it, and a
//! compaction sorts and dedups its inputs' keys into one run and cuts it
//! into output tables.
//!
//! The store is *IO-plan driven*: it never performs IO itself. Operations
//! and background jobs (flush, compaction) emit [`TaggedIo`]s for the
//! driving engine to execute against the simulated fabric/JBOF; the engine
//! feeds completions back via [`LsmKv::io_done`]. This keeps the store's
//! logic exhaustively unit-testable with an instant-completion stub.

mod kv;
mod sstable;

pub use kv::{IoCtx, LsmConfig, LsmKv, LsmStats, StepOutput, TaggedIo};
