//! gimbal-cores: deterministic inter-pipeline compute sharing across SSD
//! reactor cores.
//!
//! Gimbal's engine is shared-nothing — one reactor core per SSD pipeline —
//! so idle cycles on one core cannot help a saturated neighbor. That caps
//! aggregate throughput exactly on the skewed tenant mixes the broker makes
//! common: one hot pipeline pegs its core while the others idle. XBOF's
//! thesis (PAPERS.md) is that inter-SSD compute sharing on a JBOF pays for
//! this workload shape, and this crate is that refactor: a node-level
//! [`CoreScheduler`] owns the N reactor cores over M pipelines instead of
//! each pipeline owning a core forever.
//!
//! The scheduler stays deterministic through three disciplines:
//!
//! * **Quantum granularity.** A pipeline's work at one event tick — command
//!   arrival plus the poll that follows — is one *quantum*, executed wholly
//!   on one core. The engine brackets every quantum with
//!   [`CoreScheduler::begin`]/[`CoreScheduler::end`]; repeated `begin`s at
//!   the same tick reuse the first decision, so a quantum never splits.
//! * **A fixed-order steal ring.** When stealing is on and the home core is
//!   still busy at quantum start, the thief is the first idle core in
//!   ascending core-id order entered past the home id — the same ring
//!   discipline as the broker's lender scan. The decision reads only
//!   simulator state (core busy horizons), so double runs agree bit for
//!   bit.
//! * **Epoch rebalance.** Home assignments move only at rebalance epochs,
//!   via a greedy longest-processing-time pass over the cycles each
//!   pipeline consumed during the epoch (ties broken by lower id).
//!
//! Every steal and every home move is journaled under sanitizer component
//! `cores` and traced under [`gimbal_telemetry::Component::Cores`], so the
//! divergence sanitizer localizes a scheduling bug to the exact decision.
//!
//! With stealing off ([`StealConfig`] absent) the scheduler is inert: every
//! quantum runs on the home core (`ssd % cores`, the binding the engines
//! used before this crate existed), nothing is journaled or traced, and no
//! digest folds anything — runs are bit-identical to pre-scheduler builds.

mod sched;

pub use sched::{CoreScheduler, CoresStats, Quantum, StealConfig};
