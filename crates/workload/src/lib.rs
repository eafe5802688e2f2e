//! Synthetic workload generation: fio-style block streams and YCSB key-value
//! mixes.
//!
//! The paper drives its microbenchmarks with fio (§5.1) — random/sequential
//! read/write streams of a given IO size and queue depth, optionally
//! rate-limited (Fig 9 caps workers at 200/60 MB/s) — and its application
//! study with YCSB over RocksDB (§5.6). [`FioSpec`]/[`FioStream`] reproduce
//! the former; `ycsb` provides the zipfian/latest key distributions and
//! the A/B/C/D/F operation mixes for the latter.

mod fio;
mod ycsb;

pub use fio::{AccessPattern, BurstSpec, FioSpec, FioStream, ZIPF_THETA};
pub use ycsb::{KvOp, YcsbMix, YcsbWorkload, Zipfian};
