//! Gimbal's tuning parameters (§4.2 of the paper).

use gimbal_sim::SimDuration;

/// All knobs of the Gimbal switch, with the paper's defaults for the Samsung
/// DCT983 (§4.2). §5.8 tunes only `thresh_max` (to 3 ms) for the Intel P3600.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Upper bound of "congestion-free" latency (`Thresh_min`, 250 µs):
    /// larger than the worst single-outstanding-IO latency (~230 µs).
    pub thresh_min: SimDuration,
    /// Threshold above which the device counts as overloaded
    /// (`Thresh_max`, 1500 µs).
    pub thresh_max: SimDuration,
    /// Threshold adaptation gain `α_T` (2⁻¹): how fast the dynamic threshold
    /// tracks the EWMA latency downward.
    pub alpha_t: f64,
    /// Latency EWMA weight `α_D` (2⁻¹).
    pub alpha_d: f64,
    /// Rate probe multiplier `β` (8) used in the under-utilized state.
    pub beta: f64,
    /// Virtual-slot size (128 KiB, the de-facto maximum NVMe-oF IO size).
    pub slot_bytes: u64,
    /// Threshold on the number of virtual slots for a single tenant (8 —
    /// the minimum outstanding 128 KiB reads that saturate the device).
    pub slots_per_tenant: u32,
    /// `write_cost_worst` (9 for the DCT983, from the datasheet's read/write
    /// IOPS ratio).
    pub write_cost_worst: f64,
    /// Additive decrement `δ` (0.5) of the write cost.
    pub delta: f64,
    /// Token bucket capacity (256 KiB, Appendix C.1).
    pub bucket_bytes: u64,
    /// Interval between write-cost recalibrations.
    pub write_cost_period: SimDuration,
    /// Floor for the target rate so probing can always restart.
    pub min_rate: f64,
    /// Ceiling for the target rate (above any device's capability).
    pub max_rate: f64,
    /// Initial target rate before any congestion feedback.
    pub initial_rate: f64,
    /// Initial per-tenant credit grant before the first completed slot.
    pub initial_credit_ios: u32,
    /// Weighted-round-robin weights across the three priority levels
    /// (HIGH, NORMAL, LOW).
    pub priority_weights: [u32; 3],

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
    /// `write_cost_worst` (a ReFlex-style static tax).
    pub static_write_cost: bool,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            thresh_min: SimDuration::from_micros(250),
            thresh_max: SimDuration::from_micros(1500),
            alpha_t: 0.5,
            alpha_d: 0.5,
            beta: 8.0,
            slot_bytes: 128 * 1024,
            slots_per_tenant: 8,
            write_cost_worst: 9.0,
            delta: 0.5,
            bucket_bytes: 256 * 1024,
            write_cost_period: SimDuration::from_millis(10),
            min_rate: 4.0e6,
            max_rate: 6.0e9,
            initial_rate: 64.0e6,
            initial_credit_ios: 16,
            priority_weights: [4, 2, 1],
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

    /// DRR quantum: one virtual slot per round.
    pub(crate) fn quantum(&self) -> f64 {
        self.slot_bytes as f64
    }

    /// Sanity-check parameter relationships.
    pub fn validate(&self) {
        assert!(self.thresh_min < self.thresh_max);
        assert!(self.alpha_t > 0.0 && self.alpha_t <= 1.0);
        assert!(self.alpha_d > 0.0 && self.alpha_d <= 1.0);
        assert!(self.beta >= 1.0);
        assert!(self.write_cost_worst >= 1.0);
        assert!(self.delta > 0.0);
        assert!(self.slots_per_tenant >= 1);
        assert!(self.bucket_bytes >= self.slot_bytes);
        assert!(self.min_rate > 0.0 && self.min_rate < self.max_rate);
        assert!(self.priority_weights.iter().all(|&w| w > 0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let p = Params::default();
        p.validate();
        assert_eq!(p.thresh_min, SimDuration::from_micros(250));
        assert_eq!(p.thresh_max, SimDuration::from_micros(1500));
        assert_eq!(p.alpha_t, 0.5);
        assert_eq!(p.alpha_d, 0.5);
        assert_eq!(p.beta, 8.0);
        assert_eq!(p.slot_bytes, 128 * 1024);
        assert_eq!(p.slots_per_tenant, 8);
        assert_eq!(p.write_cost_worst, 9.0);
        assert_eq!(p.delta, 0.5);
        assert_eq!(p.bucket_bytes, 256 * 1024);
    }

    #[test]
    fn p3600_raises_thresh_max_only() {
        let d = Params::default();
        let p = Params::p3600();
        p.validate();
        assert_eq!(p.thresh_max, SimDuration::from_millis(3));
        assert_eq!(p.thresh_min, d.thresh_min);
        assert_eq!(p.write_cost_worst, d.write_cost_worst);
    }
}
