//! A discrete-event flash SSD model.
//!
//! The Samsung DCT983 / Intel P3600 drives used in the paper are substituted
//! by this simulator (DESIGN.md §2). The model reproduces the device
//! behaviours Gimbal's algorithms feed on:
//!
//! * **parallelism** — channels × dies with FIFO occupancy, so concurrent IOs
//!   complete independently and latency is *not* linear in IO size (§3.2);
//! * **asymmetric IO-size throughput** — small reads are die-limited, large
//!   reads are limited by the controller/PCIe link (4 KB ≈ 1.6 GB/s vs
//!   128 KB ≈ 3.2 GB/s on the DCT983 profile);
//! * **read/write interference** — program and erase operations occupy dies
//!   for hundreds of microseconds, head-of-line blocking reads;
//! * **write buffering** — a DRAM buffer absorbs writes below the drain
//!   capability at ~tens of µs latency (the effect §3.4's write-cost
//!   estimator rides on), and fills under sustained load;
//! * **garbage collection & write amplification** — a page-mapped FTL with
//!   greedy victim selection; on a fragmented drive each host write drags
//!   copy + erase work behind it, collapsing write bandwidth to ~1/7th and
//!   disturbing read latency (Appendix A);
//! * **fragmentation-dependent striping** — sequentially written data is
//!   perfectly striped across dies, randomly overwritten data is not, so
//!   large reads on a fragmented drive suffer die collisions (Fig 15).
//!
//! The device is a synchronous, poll-based state machine: [`FlashSsd::submit`]
//! enqueues a command, [`FlashSsd::poll`] retires due internal events and
//! returns completions, and [`FlashSsd::next_event_at`] tells the caller when
//! to poll next. All timing derives from FIFO *busy-until* horizons on dies,
//! channels, and the controller link, which makes the model exact for
//! non-preemptive FIFO hardware while staying fast enough to simulate minutes
//! of device time in seconds.

// Unit tests may pin exact float values; the library build keeps float_cmp.
#![cfg_attr(test, allow(clippy::float_cmp))]

mod buffer;
mod config;
mod device;
pub mod ftl;
mod null;
mod stats;

pub use config::{SsdConfig, SsdProfile};
pub use device::{FlashSsd, SsdCompletion, StorageDevice};
pub use null::NullDevice;
pub use stats::SsdStats;
