//! Measurement primitives shared by every experiment: latency histograms,
//! EWMA filters, windowed throughput meters, and time series recorders.
//!
//! The histogram is an HDR-style log-linear histogram: values are bucketed by
//! power-of-two magnitude with 64 linear sub-buckets per magnitude, giving a
//! worst-case relative error below ~1.6% across the full `u64` range — plenty
//! for latency percentiles spanning microseconds to seconds. Its counts cover
//! only the magnitudes between the lowest and highest sample recorded, so a
//! histogram costs memory in proportion to the spread of its samples (a
//! tenant's latencies span about ten of the 59 magnitudes), not to the
//! `u64` range.

use crate::digest::Digest;
use crate::time::{SimDuration, SimTime};
use std::fmt;

/// Number of linear sub-buckets per power-of-two magnitude (must be a power
/// of two). 64 sub-buckets ⇒ ≤1/64 relative quantization error.
const SUB_BUCKETS: u64 = 64;
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();
/// Sub-buckets per magnitude as an index stride.
const MAGNITUDE: usize = SUB_BUCKETS as usize;

/// An HDR-style log-linear histogram of `u64` samples.
#[derive(Clone)]
pub struct Histogram {
    /// Counts of buckets `base..base + counts.len()`: whole magnitudes, from
    /// the lowest to the highest recorded. Empty until the first sample.
    counts: Vec<u64>,
    /// Bucket index of `counts[0]`, a multiple of [`MAGNITUDE`].
    base: usize,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Create an empty histogram. Allocates nothing: the counts grow in
    /// whole magnitudes (64 buckets each) to the range recorded.
    pub fn new() -> Self {
        Histogram {
            counts: Vec::new(),
            base: 0,
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    #[inline]
    fn index_of(value: u64) -> usize {
        if value < SUB_BUCKETS {
            return value as usize;
        }
        let magnitude = 63 - value.leading_zeros(); // >= SUB_BITS
        let bucket = magnitude - SUB_BITS + 1;
        let sub = (value >> (magnitude - SUB_BITS)) - SUB_BUCKETS;
        (u64::from(bucket) * SUB_BUCKETS + sub) as usize
    }

    /// Representative (upper-edge) value of bucket `idx`.
    fn value_of(idx: usize) -> u64 {
        let idx = idx as u64;
        let bucket = idx >> SUB_BITS;
        let sub = idx & (SUB_BUCKETS - 1);
        if bucket == 0 {
            sub
        } else {
            (sub + SUB_BUCKETS) << (bucket - 1)
        }
    }

    /// Widen `counts` to cover buckets `lo..=hi`, rounded out to whole
    /// magnitudes. Existing counts keep their bucket indices.
    #[cold]
    fn cover(&mut self, lo: usize, hi: usize) {
        let lo = lo - lo % MAGNITUDE;
        let end = hi - hi % MAGNITUDE + MAGNITUDE;
        if self.counts.is_empty() {
            self.base = lo;
            self.counts.resize(end - lo, 0);
            return;
        }
        if end > self.base + self.counts.len() {
            self.counts.resize(end - self.base, 0);
        }
        if lo < self.base {
            self.counts
                .splice(0..0, std::iter::repeat_n(0, self.base - lo));
            self.base = lo;
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let idx = Self::index_of(value);
        // Below `base` the subtraction wraps past the end: one range check.
        if let Some(c) = self.counts.get_mut(idx.wrapping_sub(self.base)) {
            *c += 1;
        } else {
            self.cover(idx, idx);
            self.counts[idx - self.base] += 1;
        }
        self.total += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Record a [`SimDuration`] sample in nanoseconds.
    #[inline]
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_nanos());
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Arithmetic mean of all samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Smallest recorded sample (0 if empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at quantile `q` in `[0, 1]` (e.g. 0.999 for p99.9).
    ///
    /// Returns the representative value of the bucket containing the
    /// quantile's rank; 0 if the histogram is empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value_of(self.base + i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if let Some(last) = other.counts.len().checked_sub(1) {
            self.cover(other.base, other.base + last);
            let from = other.base - self.base;
            for (a, b) in self.counts[from..].iter_mut().zip(&other.counts) {
                *a += b;
            }
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Reset to empty without deallocating; the covered range is kept.
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Convenience summary with the percentiles the paper reports.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.total,
            mean_ns: self.mean(),
            p50_ns: self.quantile(0.50),
            p99_ns: self.quantile(0.99),
            p999_ns: self.quantile(0.999),
            max_ns: self.max(),
        }
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.total)
            .field("mean", &self.mean())
            .field("p99", &self.quantile(0.99))
            .field("max", &self.max)
            .finish()
    }
}

/// The latency percentiles reported throughout the paper's evaluation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Mean, nanoseconds.
    pub mean_ns: f64,
    /// Median, nanoseconds.
    pub p50_ns: u64,
    /// 99th percentile, nanoseconds.
    pub p99_ns: u64,
    /// 99.9th percentile, nanoseconds.
    pub p999_ns: u64,
    /// Maximum, nanoseconds.
    pub max_ns: u64,
}

impl LatencySummary {
    /// Mean in microseconds (the paper's reporting unit).
    pub fn mean_us(&self) -> f64 {
        self.mean_ns / 1e3
    }
    /// p99 in microseconds.
    pub fn p99_us(&self) -> f64 {
        self.p99_ns as f64 / 1e3
    }
    /// p99.9 in microseconds.
    pub fn p999_us(&self) -> f64 {
        self.p999_ns as f64 / 1e3
    }

    /// Fold every field into a run digest, in declaration order; the mean
    /// goes in by exact bit pattern.
    pub fn fold_into(&self, d: &mut Digest) {
        d.update_u64(self.count)
            .update_f64(self.mean_ns)
            .update_u64(self.p50_ns)
            .update_u64(self.p99_ns)
            .update_u64(self.p999_ns)
            .update_u64(self.max_ns);
    }
}

/// Exponentially weighted moving average, the filter Gimbal's congestion
/// control applies to completion latencies (§3.2: `ewma = (1-α)·ewma + α·x`).
#[derive(Clone, Copy, Debug)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Create a filter with smoothing factor `alpha` in `(0, 1]`. The paper
    /// uses `α_D = 2⁻¹`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha {alpha} out of (0,1]");
        Ewma { alpha, value: None }
    }

    /// Feed one observation; returns the updated average.
    pub fn update(&mut self, x: f64) -> f64 {
        let v = match self.value {
            None => x,
            Some(prev) => (1.0 - self.alpha) * prev + self.alpha * x,
        };
        self.value = Some(v);
        v
    }

    /// Current average, or `default` if nothing has been observed yet.
    pub fn get_or(&self, default: f64) -> f64 {
        self.value.unwrap_or(default)
    }

    /// Current average, if any observation has been made.
    pub fn get(&self) -> Option<f64> {
        self.value
    }
}

/// A windowed throughput meter: counts bytes/ops in a ring of time buckets so
/// a *recent* rate can be queried at any instant.
///
/// Gimbal's rate controller needs the current *completion rate* when entering
/// the overloaded state (§3.3, Algorithm 1 line 4); the experiments need
/// per-interval bandwidth series (Fig 9). Both are served by this meter.
#[derive(Clone, Debug)]
pub struct Meter {
    bucket_width: SimDuration,
    buckets_bytes: Vec<u64>,
    /// Absolute index of the bucket currently being filled.
    cur_bucket: u64,
    /// Bytes recorded since creation; only the unit tests read it.
    #[cfg(test)]
    total_bytes: u64,
}

impl Meter {
    /// Create a meter whose sliding window is `buckets × bucket_width` long.
    pub fn new(bucket_width: SimDuration, buckets: usize) -> Self {
        assert!(bucket_width > SimDuration::ZERO && buckets >= 2);
        Meter {
            bucket_width,
            buckets_bytes: vec![0; buckets],
            cur_bucket: 0,
            #[cfg(test)]
            total_bytes: 0,
        }
    }

    /// A meter with the defaults used by the congestion controller: 10 ms
    /// buckets over a 100 ms window.
    pub fn default_rate_meter() -> Self {
        Meter::new(SimDuration::from_millis(10), 10)
    }

    fn advance_to(&mut self, now: SimTime) {
        let abs = now.as_nanos() / self.bucket_width.as_nanos();
        if abs > self.cur_bucket {
            let n = self.buckets_bytes.len() as u64;
            let steps = (abs - self.cur_bucket).min(n);
            for i in 0..steps {
                let idx = ((self.cur_bucket + 1 + i) % n) as usize;
                self.buckets_bytes[idx] = 0;
            }
            self.cur_bucket = abs;
        }
    }

    /// Record an event of `bytes` at instant `now`.
    pub fn record(&mut self, now: SimTime, bytes: u64) {
        self.advance_to(now);
        let idx = (self.cur_bucket % self.buckets_bytes.len() as u64) as usize;
        self.buckets_bytes[idx] += bytes;
        #[cfg(test)]
        {
            self.total_bytes += bytes;
        }
    }

    /// Bytes/second over the sliding window ending at `now`.
    pub fn rate_bytes_per_sec(&mut self, now: SimTime) -> f64 {
        self.advance_to(now);
        let window = self.bucket_width * self.buckets_bytes.len() as u64;
        let bytes: u64 = self.buckets_bytes.iter().sum();
        bytes as f64 / window.as_secs_f64()
    }
}

/// A timestamped series of measurements, used for the timeline figures
/// (Fig 9 worker bandwidth, Fig 17 latency impulse, Fig 18 threshold trace).
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Create an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a point. Timestamps should be non-decreasing.
    pub fn push(&mut self, at: SimTime, value: f64) {
        debug_assert!(
            self.points.last().is_none_or(|&(t, _)| t <= at),
            "time series must be appended in order"
        );
        self.points.push((at, value));
    }

    /// All recorded points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Mean of values within `[from, to)`.
    pub fn mean_in(&self, from: SimTime, to: SimTime) -> Option<f64> {
        let vals: Vec<f64> = self
            .points
            .iter()
            .filter(|&&(t, _)| t >= from && t < to)
            .map(|&(_, v)| v)
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }
}

#[cfg(test)]
impl Meter {
    /// Total bytes recorded since creation.
    pub(crate) fn total_bytes(&self) -> u64 {
        self.total_bytes
    }
}

#[cfg(test)]
impl Histogram {
    /// Whether no samples have been recorded.
    pub(crate) fn is_empty(&self) -> bool {
        self.total == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_records_and_summarizes() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 500.5).abs() < 0.001);
        let p50 = h.quantile(0.5);
        assert!((490..=510).contains(&p50), "p50={p50}");
        let p99 = h.quantile(0.99);
        assert!((975..=1000).contains(&p99), "p99={p99}");
    }

    #[test]
    fn histogram_relative_error_is_bounded() {
        let mut h = Histogram::new();
        for exp in 0..40u32 {
            let v = 3u64 << exp;
            h.clear();
            h.record(v);
            let q = h.quantile(1.0);
            let err = (q as f64 - v as f64).abs() / v as f64;
            assert!(err <= 1.0 / 64.0 + 1e-9, "v={v} q={q} err={err}");
        }
    }

    #[test]
    fn histogram_extremes() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(0.0), 0);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        (0..500).for_each(|v| a.record(v));
        (500..1000).for_each(|v| b.record(v));
        a.merge(&b);
        assert_eq!(a.count(), 1000);
        assert_eq!(a.max(), 999);
        assert!((a.mean() - 499.5).abs() < 0.001);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert!(h.is_empty());
    }

    #[test]
    fn ewma_matches_the_papers_formula() {
        // α = 1/2, observations 100 then 200: 100, then 150.
        let mut e = Ewma::new(0.5);
        assert_eq!(e.update(100.0), 100.0);
        assert_eq!(e.update(200.0), 150.0);
        assert_eq!(e.update(200.0), 175.0);
    }

    #[test]
    fn ewma_converges_to_constant_input() {
        let mut e = Ewma::new(0.25);
        for _ in 0..100 {
            e.update(42.0);
        }
        assert!((e.get().unwrap() - 42.0).abs() < 1e-9);
    }

    #[test]
    fn meter_measures_steady_rate() {
        let mut m = Meter::new(SimDuration::from_millis(10), 10);
        // 1 MB every ms for 200 ms = 1 GB/s.
        for i in 0..200u64 {
            m.record(SimTime::from_millis(i), 1_000_000);
        }
        let r = m.rate_bytes_per_sec(SimTime::from_millis(200));
        assert!(
            (r - 1e9).abs() / 1e9 < 0.15,
            "rate {r} should be about 1 GB/s"
        );
    }

    #[test]
    fn meter_forgets_old_traffic() {
        let mut m = Meter::new(SimDuration::from_millis(10), 10);
        m.record(SimTime::from_millis(1), 100_000_000);
        // Long silence: the burst should age out of the window.
        let r = m.rate_bytes_per_sec(SimTime::from_secs(2));
        assert_eq!(r, 0.0);
        assert_eq!(m.total_bytes(), 100_000_000);
    }
}
