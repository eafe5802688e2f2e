//! Gimbal's tuning parameters (§4.2 of the paper).
//!
//! The paper fixes every §4.2 value at the Samsung DCT983 setting; those
//! are the constants below. [`Params`] keeps only what a caller varies:
//! `Thresh_max` (§5.8 retunes it for the Intel P3600), the per-tenant slot
//! count, the initial credit, and the ablation switches.

use gimbal_sim::SimDuration;

/// Upper bound of "congestion-free" latency (`Thresh_min`, 250 µs): larger
/// than the worst single-outstanding-IO latency (~230 µs).
pub const THRESH_MIN: SimDuration = SimDuration::from_micros(250);
/// Threshold adaptation gain `α_T` (2⁻¹): how fast the dynamic threshold
/// tracks the EWMA latency downward.
pub const ALPHA_T: f64 = 0.5;
/// Latency EWMA weight `α_D` (2⁻¹).
pub(crate) const ALPHA_D: f64 = 0.5;
/// Rate probe multiplier `β` (8) used in the under-utilized state.
pub(crate) const BETA: f64 = 8.0;
/// Virtual-slot size (128 KiB, the de-facto maximum NVMe-oF IO size); one
/// slot is also the DRR quantum.
pub(crate) const SLOT_BYTES: u64 = 128 * 1024;
/// `write_cost_worst` (9 for the DCT983, from the datasheet's read/write
/// IOPS ratio).
pub const WRITE_COST_WORST: f64 = 9.0;
/// Additive decrement `δ` (0.5) of the write cost.
pub const DELTA: f64 = 0.5;
/// Token bucket capacity (256 KiB, Appendix C.1).
pub const BUCKET_BYTES: u64 = 256 * 1024;
/// Interval between write-cost recalibrations.
pub(crate) const WRITE_COST_PERIOD: SimDuration = SimDuration::from_millis(10);
/// Floor for the target rate so probing can always restart.
pub(crate) const MIN_RATE: f64 = 4.0e6;
/// Ceiling for the target rate (above any device's capability).
pub(crate) const MAX_RATE: f64 = 6.0e9;
/// Initial target rate before any congestion feedback.
pub(crate) const INITIAL_RATE: f64 = 64.0e6;

const _: () = assert!(ALPHA_T > 0.0 && ALPHA_T <= 1.0);
const _: () = assert!(ALPHA_D > 0.0 && ALPHA_D <= 1.0);
const _: () = assert!(BETA >= 1.0);
const _: () = assert!(WRITE_COST_WORST >= 1.0);
const _: () = assert!(DELTA > 0.0);
const _: () = assert!(BUCKET_BYTES >= SLOT_BYTES);
const _: () = assert!(MIN_RATE > 0.0 && MIN_RATE < MAX_RATE);

/// The knobs of the Gimbal switch that callers set, with the paper's
/// defaults for the Samsung DCT983 (§4.2). §5.8 tunes only `thresh_max` (to
/// 3 ms) for the Intel P3600.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Threshold above which the device counts as overloaded
    /// (`Thresh_max`, 1500 µs).
    pub thresh_max: SimDuration,
    /// Threshold on the number of virtual slots for a single tenant (8 —
    /// the minimum outstanding 128 KiB reads that saturate the device).
    pub slots_per_tenant: u32,
    /// Initial per-tenant credit grant before the first completed slot.
    pub initial_credit_ios: u32,

    // ------------------------------------------------------------------
    // Ablation switches (all default to the paper's design; the ablation
    // benches flip them one at a time to quantify each technique).
    // ------------------------------------------------------------------
    /// `None` = the paper's dynamic threshold scaling (§3.2). `Some(t)` =
    /// the fixed threshold the paper tried first and rejected ("2ms fixed
    /// threshold is only effective for large IOs").
    pub fixed_threshold: Option<SimDuration>,
    /// Use a single shared token bucket instead of the dual read/write
    /// buckets of Appendix C.1.
    pub single_bucket: bool,
    /// Disable the ADMI write-cost estimator: the cost stays pinned at
    /// [`WRITE_COST_WORST`] (a ReFlex-style static tax).
    pub static_write_cost: bool,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            thresh_max: SimDuration::from_micros(1500),
            slots_per_tenant: 8,
            initial_credit_ios: 16,
            fixed_threshold: None,
            single_bucket: false,
            static_write_cost: false,
        }
    }
}

impl Params {
    /// The §5.8 variant for the Intel P3600: `Thresh_max` raised to 3 ms
    /// "for better read utilization".
    pub fn p3600() -> Self {
        Params {
            thresh_max: SimDuration::from_millis(3),
            ..Params::default()
        }
    }

    /// Sanity-check parameter relationships.
    pub fn validate(&self) {
        assert!(THRESH_MIN < self.thresh_max);
        assert!(self.slots_per_tenant >= 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let p = Params::default();
        p.validate();
        assert_eq!(THRESH_MIN, SimDuration::from_micros(250));
        assert_eq!(p.thresh_max, SimDuration::from_micros(1500));
        assert_eq!(ALPHA_T, 0.5);
        assert_eq!(ALPHA_D, 0.5);
        assert_eq!(BETA, 8.0);
        assert_eq!(SLOT_BYTES, 128 * 1024);
        assert_eq!(p.slots_per_tenant, 8);
        assert_eq!(WRITE_COST_WORST, 9.0);
        assert_eq!(DELTA, 0.5);
        assert_eq!(BUCKET_BYTES, 256 * 1024);
    }

    #[test]
    fn p3600_raises_thresh_max_only() {
        let d = Params::default();
        let p = Params::p3600();
        p.validate();
        assert_eq!(p.thresh_max, SimDuration::from_millis(3));
        assert_eq!(p.slots_per_tenant, d.slots_per_tenant);
        assert_eq!(p.initial_credit_ios, d.initial_credit_ios);
    }
}
