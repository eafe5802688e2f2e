//! The storage-switch framework: per-SSD pipelines with pluggable
//! multi-tenancy policies.
//!
//! The paper's Gimbal prototype and the three comparison systems (ReFlex,
//! Parda, FlashFQ — §5.1) all sit at the same place in the data path: between
//! NVMe-oF command arrival and NVMe command submission, plus a hook on the
//! completion path. This crate factors that place into traits so each scheme
//! is a plug-in:
//!
//! * [`SwitchPolicy`] — the target-side scheduler/congestion controller of a
//!   per-SSD pipeline (Gimbal, ReFlex, FlashFQ implement this; Parda uses the
//!   pass-through [`FifoPolicy`]);
//! * [`ClientPolicy`] — the initiator-side submission gate (Gimbal's
//!   credit-based flow control and Parda's latency-driven window live here;
//!   ReFlex/FlashFQ use [`UnlimitedClient`]);
//! * [`Pipeline`] — the shared-nothing per-SSD engine (§4.1): it charges CPU
//!   cycles for both paths on its dedicated core, drives the device, and
//!   emits completion capsules with optional piggybacked credits.

mod client;
mod pipeline;
mod policy;

pub use client::{ClientPolicy, UnlimitedClient};
pub use pipeline::{Pipeline, PipelineConfig, PipelineOut};
pub use policy::{CompletionInfo, FifoPolicy, PolicyPoll, Request, SwitchPolicy};
