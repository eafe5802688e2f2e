//! The multi-tenancy baselines the paper compares against (§5.1).
//!
//! None of the original systems target NVMe-oF SmartNIC JBOFs; like the
//! paper, we port their mechanisms onto the same storage-switch pipeline
//! Gimbal runs in:
//!
//! * `reflex` — **ReFlex** (Klimovic et al., ASPLOS '17): an
//!   offline-profiled, request-size-proportional token cost model with a
//!   DRR-style QoS scheduler at the target and *no* client-side flow
//!   control. Its static calibration is what costs it utilization on a
//!   clean SSD (§5.2) and fairness when conditions change (§5.3).
//! * `parda` — **PARDA** (Gulati et al., FAST '09): proportional sharing
//!   enforced *at the client* by a FAST-TCP-style AIMD window driven by
//!   observed end-to-end IO latency; the target is a plain FIFO. Its long,
//!   noisy feedback loop is what limits it on low-latency NVMe devices
//!   (§5.9).
//! * `flashfq` — **FlashFQ** (Shen & Park, ATC '13): start-time fair
//!   queueing with throttled dispatch (SFQ(D)) and a *linear* per-request
//!   cost model; work-conserving and fair in model-cost terms, but blind to
//!   the device's actual congestion state and write asymmetry.

// Unit tests may pin exact float values; the library build keeps float_cmp.
#![cfg_attr(test, allow(clippy::float_cmp))]

mod flashfq;
mod parda;
mod reflex;

pub use flashfq::FlashFqPolicy;
pub use parda::PardaClient;
pub use reflex::ReflexPolicy;
