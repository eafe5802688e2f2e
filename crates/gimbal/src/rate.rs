//! The rate control engine (§3.3) with its dual token bucket (Appendix C.1).
//!
//! A single *target rate* (bytes/s) tracks the SSD's estimated capacity. It
//! is adjusted on every completion according to the congestion state of that
//! completion's IO type (Algorithm 1):
//!
//! * **congestion avoidance** → probe: `rate += completed size`;
//! * **congested** → back off: `rate -= completed size`;
//! * **overloaded** → snap to the measured *completion rate*, discard all
//!   bucket tokens (burst suppression), then subtract the completed size so
//!   the rate sits below peak until the device drains;
//! * **under-utilized** → aggressive probing: `rate += β × size` (CUBIC /
//!   TIMELY-inspired fast convergence when the IO mix shifts).
//!
//! Tokens generated at the target rate split between the read and write
//! buckets in write-cost proportion (`wc/(1+wc)` to reads, `1/(1+wc)` to
//! writes); a full bucket's overflow spills to its sibling (Algorithm 4).

#![deny(clippy::cast_possible_truncation)]

use crate::congestion::{CongestionState, LatencyMonitor};
use crate::params::Params;
use gimbal_fabric::{IoType, SsdId};
use gimbal_sim::{Meter, SimDuration, SimTime, TokenBucket};
use gimbal_telemetry::{EventKind, OverflowDirection, TraceHandle};

/// The per-SSD rate controller.
#[derive(Clone, Debug)]
pub struct RateController {
    params: Params,
    target_rate: f64,
    read_bucket: TokenBucket,
    write_bucket: TokenBucket,
    last_token_update: SimTime,
    monitors: [LatencyMonitor; 2],
    completion_meter: Meter,
    /// Most recent congestion state; only the unit tests read it.
    #[cfg(test)]
    last_state: CongestionState,
    /// Last observed state per IO type; transitions are emitted on change.
    io_states: [CongestionState; 2],
    trace: TraceHandle,
    trace_ssd: SsdId,
}

impl RateController {
    /// Create a controller with the initial target rate from `params`.
    pub fn new(params: Params) -> Self {
        params.validate();
        RateController {
            target_rate: params.initial_rate,
            read_bucket: TokenBucket::external(params.bucket_bytes),
            write_bucket: TokenBucket::external(params.bucket_bytes),
            last_token_update: SimTime::ZERO,
            monitors: [LatencyMonitor::new(&params), LatencyMonitor::new(&params)],
            completion_meter: Meter::default_rate_meter(),
            #[cfg(test)]
            last_state: CongestionState::Underutilized,
            io_states: [CongestionState::Underutilized; 2],
            trace: TraceHandle::disabled(),
            trace_ssd: SsdId(0),
            params,
        }
    }

    /// Attach a telemetry handle; events carry `ssd` as their origin.
    pub fn attach_trace(&mut self, trace: TraceHandle, ssd: SsdId) {
        self.trace = trace;
        self.trace_ssd = ssd;
    }

    /// Algorithm 4: accrue tokens for elapsed time, split by write cost,
    /// transfer overflow between buckets.
    pub fn update_buckets(&mut self, now: SimTime, write_cost: f64) {
        if now <= self.last_token_update {
            return;
        }
        let dt = now.since(self.last_token_update).as_secs_f64();
        self.last_token_update = now;
        let avail = self.target_rate * dt;
        if self.params.single_bucket {
            // Ablation: one bucket for everything (Appendix C.1 explains
            // why this submits writes at the wrong rate).
            self.read_bucket.deposit(avail);
            if self.trace.is_enabled() {
                self.trace.record(
                    now,
                    self.trace_ssd,
                    None,
                    EventKind::BucketRefill {
                        read_tokens: self.read_bucket.tokens(),
                        write_tokens: self.write_bucket.tokens(),
                    },
                );
            }
            return;
        }
        let read_share = write_cost / (1.0 + write_cost);
        let overflow_r = self.read_bucket.deposit(avail * read_share);
        let overflow_w = self.write_bucket.deposit(avail * (1.0 - read_share));
        if overflow_r > 0.0 {
            self.write_bucket.deposit(overflow_r);
            // Overflow only happens when the source bucket filled to
            // capacity, i.e. its tenant-side demand is idle (Algorithm 4).
            self.trace.record(
                now,
                self.trace_ssd,
                None,
                EventKind::OverflowTransfer {
                    direction: OverflowDirection::ReadToWrite,
                    amount: overflow_r,
                    src_tokens: self.read_bucket.tokens(),
                },
            );
        }
        if overflow_w > 0.0 {
            self.read_bucket.deposit(overflow_w);
            self.trace.record(
                now,
                self.trace_ssd,
                None,
                EventKind::OverflowTransfer {
                    direction: OverflowDirection::WriteToRead,
                    amount: overflow_w,
                    src_tokens: self.write_bucket.tokens(),
                },
            );
        }
        if self.trace.is_enabled() {
            self.trace.record(
                now,
                self.trace_ssd,
                None,
                EventKind::BucketRefill {
                    read_tokens: self.read_bucket.tokens(),
                    write_tokens: self.write_bucket.tokens(),
                },
            );
        }
    }

    fn bucket(&mut self, io_type: IoType) -> &mut TokenBucket {
        if self.params.single_bucket {
            return &mut self.read_bucket;
        }
        match io_type {
            IoType::Read => &mut self.read_bucket,
            IoType::Write => &mut self.write_bucket,
        }
    }

    /// Try to consume tokens for a submission of `size` bytes.
    pub(crate) fn try_consume(&mut self, io_type: IoType, size: u64) -> bool {
        self.bucket(io_type).try_consume(size)
    }

    /// Whether [`Self::try_consume`] would succeed right now (consumes
    /// nothing).
    pub(crate) fn can_consume(&self, io_type: IoType, size: u64) -> bool {
        let bucket = match io_type {
            IoType::Write if !self.params.single_bucket => &self.write_bucket,
            _ => &self.read_bucket,
        };
        bucket.can_consume(size)
    }

    /// Estimate when enough tokens for (`io_type`, `size`) will exist.
    /// Conservative hint: the caller re-polls and re-checks.
    pub(crate) fn wait_hint(
        &self,
        now: SimTime,
        io_type: IoType,
        size: u64,
        write_cost: f64,
    ) -> SimTime {
        // The bucket the request consumes and its share of the target rate
        // (overflow from the sibling bucket ignored). In single-bucket mode
        // every request consumes the read bucket, which gets the whole rate.
        let (bucket, share) = match io_type {
            _ if self.params.single_bucket => (&self.read_bucket, 1.0),
            IoType::Read => (&self.read_bucket, write_cost / (1.0 + write_cost)),
            IoType::Write => (&self.write_bucket, 1.0 / (1.0 + write_cost)),
        };
        let deficit = (size as f64 - bucket.tokens()).max(0.0);
        let rate = (self.target_rate * share).max(self.params.min_rate * 0.25);
        let secs = deficit / rate;
        // Clamp so a stalled estimate still re-polls promptly.
        let wait = SimDuration::from_secs_f64(secs.clamp(1e-6, 5e-3));
        now + wait
    }

    /// Algorithm 1's completion handler: update the latency monitor for the
    /// completed type, adjust the target rate, and record the completion for
    /// rate measurement. Returns the congestion state observed.
    pub fn on_completion(
        &mut self,
        now: SimTime,
        io_type: IoType,
        size: u64,
        device_latency: SimDuration,
    ) -> CongestionState {
        self.completion_meter.record(now, size);
        let io_idx = io_type.index();
        let thresh_before = self.monitors[io_idx].thresh_ns();
        let state = self.monitors[io_idx].update(device_latency);
        if state != self.io_states[io_idx] {
            self.trace.record(
                now,
                self.trace_ssd,
                None,
                EventKind::CongestionTransition {
                    io: io_type,
                    from: self.io_states[io_idx].trace_state(),
                    to: state.trace_state(),
                    ewma_ns: self.monitors[io_idx].ewma_ns(),
                    thresh_before_ns: thresh_before,
                    thresh_after_ns: self.monitors[io_idx].thresh_ns(),
                },
            );
            self.io_states[io_idx] = state;
        }
        let old_rate = self.target_rate;
        let size = size as f64;
        match state {
            CongestionState::Overloaded => {
                // Snap to the measured completion rate and kill queued burst.
                let measured = self.completion_meter.rate_bytes_per_sec(now);
                if measured > 0.0 {
                    self.target_rate = measured;
                }
                self.read_bucket.discard();
                self.write_bucket.discard();
                self.target_rate -= size;
            }
            CongestionState::Congested => self.target_rate -= size,
            CongestionState::CongestionAvoidance => self.target_rate += size,
            CongestionState::Underutilized => self.target_rate += self.params.beta * size,
        }
        self.target_rate = self
            .target_rate
            .clamp(self.params.min_rate, self.params.max_rate);
        self.trace.record(
            now,
            self.trace_ssd,
            None,
            EventKind::RateUpdate {
                io: io_type,
                state: state.trace_state(),
                old_bps: old_rate,
                new_bps: self.target_rate,
            },
        );
        #[cfg(test)]
        {
            self.last_state = state;
        }
        state
    }

    /// Current target submission rate, bytes/second.
    pub(crate) fn target_rate(&self) -> f64 {
        self.target_rate
    }

    /// The latency monitor for an IO type (the write monitor feeds the
    /// write-cost estimator, §3.4).
    pub fn monitor(&self, io_type: IoType) -> &LatencyMonitor {
        &self.monitors[io_type.index()]
    }
}

#[cfg(test)]
impl RateController {
    /// Most recent congestion state.
    pub(crate) fn state(&self) -> CongestionState {
        self.last_state
    }

    /// Tokens currently in the read bucket (for tests/inspection).
    pub(crate) fn read_tokens(&self) -> f64 {
        self.read_bucket.tokens()
    }

    /// Tokens currently in the write bucket.
    pub(crate) fn write_tokens(&self) -> f64 {
        self.write_bucket.tokens()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl() -> RateController {
        RateController::new(Params::default())
    }

    #[test]
    fn tokens_split_by_write_cost() {
        let mut c = ctl();
        // Drain the initial full buckets.
        c.try_consume(IoType::Read, 256 * 1024);
        c.try_consume(IoType::Write, 256 * 1024);
        // wc = 3 → 75 % of tokens to reads. 10 ms at 64 MB/s = 640 KB, which
        // overflows; use 1 ms = 64 KB.
        c.update_buckets(SimTime::from_millis(1), 3.0);
        let r = c.read_tokens();
        let w = c.write_tokens();
        assert!(
            (r / (r + w) - 0.75).abs() < 0.01,
            "read share {}",
            r / (r + w)
        );
    }

    #[test]
    fn overflow_transfers_to_sibling() {
        let mut c = ctl();
        c.try_consume(IoType::Write, 256 * 1024); // empty the write bucket
                                                  // Read bucket is already full; a long interval generates plenty for
                                                  // both: read overflow must spill into the write bucket.
        c.update_buckets(SimTime::from_millis(100), 9.0);
        assert!(
            c.write_tokens() > 0.0,
            "spilled tokens: {}",
            c.write_tokens()
        );
    }

    #[test]
    fn underutilized_probes_aggressively() {
        let mut c = ctl();
        let r0 = c.target_rate();
        c.on_completion(
            SimTime::from_micros(100),
            IoType::Read,
            128 * 1024,
            SimDuration::from_micros(100),
        );
        assert_eq!(c.state(), CongestionState::Underutilized);
        assert_eq!(c.target_rate(), r0 + 8.0 * 128.0 * 1024.0);
    }

    #[test]
    fn congestion_avoidance_probes_linearly() {
        let mut c = ctl();
        // Warm the monitor into the CA band (~600 µs).
        for i in 0..50 {
            c.on_completion(
                SimTime::from_micros(100 * (i + 1)),
                IoType::Read,
                4096,
                SimDuration::from_micros(600),
            );
        }
        let r0 = c.target_rate();
        c.on_completion(
            SimTime::from_millis(6),
            IoType::Read,
            4096,
            SimDuration::from_micros(600),
        );
        assert_eq!(c.state(), CongestionState::CongestionAvoidance);
        assert_eq!(c.target_rate(), r0 + 4096.0);
    }

    #[test]
    fn overload_snaps_to_completion_rate_and_discards_tokens() {
        let mut c = ctl();
        // Build a measured completion rate: 128 KB each 1 ms ≈ 128 MB/s.
        for i in 1..=100u64 {
            c.on_completion(
                SimTime::from_millis(i),
                IoType::Read,
                128 * 1024,
                SimDuration::from_micros(300),
            );
        }
        // Push the EWMA beyond Thresh_max.
        let s = c.on_completion(
            SimTime::from_millis(101),
            IoType::Read,
            128 * 1024,
            SimDuration::from_millis(20),
        );
        assert_eq!(s, CongestionState::Overloaded);
        assert_eq!(c.read_tokens(), 0.0);
        assert_eq!(c.write_tokens(), 0.0);
        let r = c.target_rate();
        assert!(
            (60e6..180e6).contains(&r),
            "snapped near completion rate: {r}"
        );
    }

    #[test]
    fn rate_stays_in_bounds() {
        let mut c = ctl();
        for i in 1..=10_000u64 {
            c.on_completion(
                SimTime::from_micros(i * 10),
                IoType::Read,
                128 * 1024,
                SimDuration::from_micros(50),
            );
        }
        assert!(c.target_rate() <= Params::default().max_rate);
        for i in 1..=10_000u64 {
            c.on_completion(
                SimTime::from_micros(100_000_000 + i * 10),
                IoType::Read,
                128 * 1024,
                SimDuration::from_millis(10),
            );
        }
        assert!(c.target_rate() >= Params::default().min_rate);
    }

    #[test]
    fn wait_hint_is_future_and_bounded() {
        let mut c = ctl();
        c.try_consume(IoType::Read, 256 * 1024);
        let now = SimTime::from_millis(5);
        let hint = c.wait_hint(now, IoType::Read, 128 * 1024, 9.0);
        assert!(hint > now);
        assert!(hint <= now + SimDuration::from_millis(5));
    }

    /// The first instant at which `c`, refilled once from its current
    /// state, can consume the request (binary search over nanoseconds).
    fn first_covering_instant(c: &RateController, io: IoType, size: u64, wc: f64) -> SimTime {
        let covers = |ns: u64| {
            let mut probe = c.clone();
            probe.update_buckets(SimTime::from_nanos(ns), wc);
            probe.can_consume(io, size)
        };
        let (mut lo, mut hi) = (0u64, 10_000_000u64);
        assert!(covers(hi), "not covered within 10 ms");
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if covers(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        SimTime::from_nanos(hi)
    }

    #[test]
    fn wait_hint_lands_when_the_consumed_bucket_first_covers_the_request() {
        let size = 128 * 1024;
        // Write costs low enough that no bucket overflows into its sibling
        // before the request is covered, and waits under the 5 ms clamp.
        for (single_bucket, io, wc) in [
            (false, IoType::Read, 1.0),
            (false, IoType::Write, 1.0),
            (false, IoType::Read, 9.0),
            (true, IoType::Read, 1.0),
            (true, IoType::Write, 1.0),
            (true, IoType::Read, 9.0),
            (true, IoType::Write, 9.0),
        ] {
            let mut c = RateController::new(Params {
                single_bucket,
                ..Params::default()
            });
            // Empty every bucket a request can consume.
            assert!(c.try_consume(IoType::Read, 256 * 1024));
            if !single_bucket {
                assert!(c.try_consume(IoType::Write, 256 * 1024));
            }
            let hint = c.wait_hint(SimTime::ZERO, io, size, wc);
            let truth = first_covering_instant(&c, io, size, wc);
            let gap = hint.as_nanos().abs_diff(truth.as_nanos());
            assert!(
                gap <= 1_000,
                "single {single_bucket} {io:?} wc {wc}: hint {hint:?}, covered at {truth:?}"
            );
        }
    }

    #[test]
    fn single_bucket_ablation_shares_tokens() {
        let mut c = RateController::new(Params {
            single_bucket: true,
            ..Params::default()
        });
        // Drain the shared bucket via writes; reads now also starve.
        assert!(c.try_consume(IoType::Write, 256 * 1024));
        assert!(!c.try_consume(IoType::Read, 4096));
        // All generated tokens land in the shared bucket.
        c.update_buckets(SimTime::from_millis(1), 9.0);
        assert!(c.read_tokens() > 0.0);
        assert_eq!(c.write_tokens(), 256.0 * 1024.0, "write bucket untouched");
        assert!(c.try_consume(IoType::Read, 4096));
    }

    #[test]
    fn per_type_monitors_are_independent() {
        let mut c = ctl();
        // Writes fast (buffered), reads slow.
        for i in 1..=20u64 {
            c.on_completion(
                SimTime::from_micros(i * 50),
                IoType::Write,
                4096,
                SimDuration::from_micros(60),
            );
            c.on_completion(
                SimTime::from_micros(i * 50 + 10),
                IoType::Read,
                4096,
                SimDuration::from_micros(900),
            );
        }
        assert!(c.monitor(IoType::Write).below_min());
        assert!(!c.monitor(IoType::Read).below_min());
    }
}
