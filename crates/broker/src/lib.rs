//! gimbal-broker: adaptive inter-tenant token borrowing with deterministic
//! repayment, plus Serifos-style tenant placement.
//!
//! Gimbal's rate engine (§3.3–3.5 of the paper) gives every tenant a strict
//! token-bucket entitlement. That is the right isolation story, but on
//! bursty multi-tenant mixes it strands capacity: a tenant in an off-phase
//! accrues tokens it will never spend (they evaporate at its burst cap)
//! while a co-located tenant in an on-phase sits throttled at its own
//! entitlement. This crate adds two layers on top of the entitlement:
//!
//! * `ledger` — the borrow ledger. An empty bucket may borrow headroom
//!   from tenants running below their rate, with a fixed lexicographic
//!   lender order, a per-pair debt cap, an isolation floor, and epoch-based
//!   repayment with round-up interest so lenders are never worse off at
//!   steady state. Conservation (`granted == repaid + forgiven +
//!   outstanding`) is audited on every settlement.
//! * `placement` — the Serifos-style consolidation planner. It scores
//!   (tenant, SSD) assignments from telemetry-observed interference
//!   (congestion residency, GC overlap, write-cost EWMA) via the shared
//!   [`HealthScore`] key and emits deterministic migration plans applied at
//!   epoch boundaries.
//!
//! Both layers are optional and additive: with no broker configured, every
//! embedding engine is bit-identical to the strict-entitlement build.
//!
//! [`HealthScore`]: gimbal_fabric::HealthScore

mod config;
mod ledger;
mod placement;

pub use config::{BrokerConfig, BrokerMode};
pub use ledger::{Broker, BrokerHandle, BrokerStats, Charge};
pub use placement::{Migration, SsdTelemetry};
