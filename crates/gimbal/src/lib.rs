//! Gimbal: the paper's software storage switch (§3).
//!
//! This crate is the primary contribution of the reproduced paper, organised
//! one module per technique:
//!
//! * `params` — the tuning parameters of §4.2: the paper's fixed values
//!   as constants, and [`Params`] for what callers vary;
//! * `congestion` — delay-based SSD congestion control (§3.2): per-IO-type
//!   EWMA latency against a dynamically scaled threshold, yielding one of
//!   four congestion states;
//! * `rate` — the rate control engine (§3.3): a target submission rate
//!   adjusted per completion (Algorithm 1) feeding a dual token bucket
//!   (Appendix C.1, Algorithm 4);
//! * `write_cost` — dynamic write-cost estimation (§3.4): ADMI calibration
//!   of the read:write cost ratio from write latency;
//! * [`scheduler`] — the two-level hierarchical IO scheduler (§3.5,
//!   Algorithm 2): DRR over tenants in virtual-slot units with
//!   active/deferred lists and per-tenant priority queues;
//! * `credit` — end-to-end credit-based flow control (§3.6, Algorithm 3)
//!   including the client side;
//! * `policy` — [`GimbalPolicy`], the `SwitchPolicy` implementation that
//!   composes all of the above into one per-SSD pipeline stage.

// Unit tests may pin exact float values; the library build keeps float_cmp.
#![cfg_attr(test, allow(clippy::float_cmp))]

mod congestion;
mod credit;
mod params;
mod policy;
mod rate;
pub mod scheduler;
mod write_cost;

pub use congestion::{CongestionState, LatencyMonitor};
pub use credit::CreditClient;
pub use params::{Params, ALPHA_T, BUCKET_BYTES, DELTA, THRESH_MIN, WRITE_COST_WORST};
pub use policy::GimbalPolicy;
pub use rate::RateController;
pub use scheduler::VirtualSlotScheduler;
pub use write_cost::WriteCostEstimator;
