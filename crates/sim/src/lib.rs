//! Deterministic discrete-event simulation kernel for the Gimbal reproduction.
//!
//! Everything in this workspace runs on *virtual time*: a nanosecond-resolution
//! [`SimTime`] clock advanced by an [`EventQueue`]. Components are synchronous,
//! poll-based state machines (in the style of `smoltcp`) — they never spawn
//! threads or sleep; instead they report the next instant at which they need to
//! run, and the orchestrator drives them.
//!
//! The kernel provides:
//!
//! * `time` — the [`SimTime`] instant and [`SimDuration`] span newtypes;
//! * `queue` — a stable (FIFO-within-timestamp) event queue;
//! * `rng` — a small, fast, fully deterministic PRNG ([`rng::SimRng`]);
//! * `fault` — seeded fault-injection plans (capsule loss, SSD errors,
//!   stalls, device death) on dedicated RNG streams;
//! * [`stats`] — latency histograms, EWMA filters, throughput meters and time
//!   series used by every experiment;
//! * `token_bucket` — the token-bucket primitive underlying Gimbal's rate
//!   pacing engine (§3.3 of the paper).
//!
//! Determinism is a hard invariant: given the same seed and configuration,
//! every simulation in this workspace produces byte-identical results. This is
//! what lets the benchmark harness regenerate each figure of the paper
//! reproducibly.

// Unit tests may pin exact float values; the library build keeps float_cmp.
#![cfg_attr(test, allow(clippy::float_cmp))]

mod arena;
pub mod cast;
pub mod collections;
mod digest;
mod fault;
pub mod journal;
mod queue;
mod rng;
pub mod stats;
mod time;
mod token_bucket;

pub use arena::{ArenaError, IoArena, IoHandle};
pub use collections::{DetMap, DetSet};
pub use digest::Digest;
pub use fault::{FaultInjector, FaultPlan, FaultWindow, NodeFaultSpec, SsdFaultSpec};
pub use journal::{first_divergence, AccessJournal, DivergenceReport, JournalHandle};
pub use queue::EventQueue;
pub use rng::SimRng;
pub use stats::{Ewma, Histogram, Meter, TimeSeries};
pub use time::{SimDuration, SimTime};
pub use token_bucket::TokenBucket;
