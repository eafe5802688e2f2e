//! fio-style synthetic block workload streams.
//!
//! A [`FioStream`] is a closed-loop generator: the driver keeps `queue_depth`
//! IOs outstanding and asks for the next (opcode, LBA, length) whenever one
//! completes. Optional rate limiting caps the stream's issue rate with a
//! token bucket, emulating fio's `rate=` option (used by the Fig 9 dynamic
//! experiment: readers 200 MB/s, writers 60 MB/s).

use crate::ycsb::Zipfian;
use gimbal_fabric::{IoType, BLOCK_SIZE};
use gimbal_sim::{SimDuration, SimRng, SimTime, TokenBucket};

/// The Zipfian skew used by [`AccessPattern::Zipfian`] — YCSB's default
/// constant, matching the KV workloads.
pub const ZIPF_THETA: f64 = 0.99;

/// Random or sequential addressing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessPattern {
    /// Uniformly random aligned offsets within the region.
    Random,
    /// Sequentially advancing offsets, wrapping at the region end.
    Sequential,
    /// Zipfian-skewed offsets (theta [`ZIPF_THETA`]): rank 0 — the hottest
    /// IO-sized slot — sits at the region start. Cache-sensitive workloads.
    Zipfian,
}

/// On/off burst phasing: the stream issues only during the ON phase of a
/// fixed `on + off` cycle, shifted by `phase`. Staggering phases across
/// tenants produces the bursty multi-tenant mix where inter-tenant token
/// borrowing pays off: at any instant some tenants idle while others peak.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BurstSpec {
    /// Length of the issuing phase.
    pub on: SimDuration,
    /// Length of the idle phase.
    pub off: SimDuration,
    /// Cycle shift, so tenants can alternate instead of peaking together.
    pub phase: SimDuration,
}

impl BurstSpec {
    /// Full cycle length.
    pub(crate) fn period(&self) -> SimDuration {
        self.on + self.off
    }

    /// Whether the stream may issue at `now`; `Err` carries the next ON
    /// instant.
    pub(crate) fn gate(&self, now: SimTime) -> Result<(), SimTime> {
        let period = self.period().as_nanos();
        let pos = (now.as_nanos() + self.phase.as_nanos()) % period;
        if pos < self.on.as_nanos() {
            Ok(())
        } else {
            let wait = period - pos;
            Err(now + SimDuration::from_nanos(wait))
        }
    }

    /// Panic on a degenerate cycle.
    pub(crate) fn validate(&self) {
        assert!(
            self.on > SimDuration::ZERO,
            "burst on-phase must be positive"
        );
        assert!(
            self.off > SimDuration::ZERO,
            "burst off-phase must be positive"
        );
    }
}

/// A fio-like stream specification.
#[derive(Clone, Copy, Debug)]
pub struct FioSpec {
    /// Fraction of operations that are reads, in `[0, 1]`.
    pub read_ratio: f64,
    /// IO size in bytes (multiple of the 4 KiB block size).
    pub io_bytes: u64,
    /// Addressing pattern for reads.
    pub read_pattern: AccessPattern,
    /// Addressing pattern for writes.
    pub write_pattern: AccessPattern,
    /// Target outstanding IOs (driver-enforced).
    pub queue_depth: u32,
    /// Optional rate cap, bytes/second.
    pub rate_limit: Option<f64>,
    /// Optional on/off burst phasing (`None` = always on).
    pub burst: Option<BurstSpec>,
    /// First LBA of the stream's region.
    pub region_start: u64,
    /// Number of logical blocks in the region.
    pub region_blocks: u64,
}

impl FioSpec {
    /// The paper's default microbenchmark shapes (§5.1): QD 32 for 4 KiB,
    /// QD 4 for 128 KiB; reads random; 128 KiB writes sequential, 4 KiB
    /// writes random.
    pub fn paper_default(
        read_ratio: f64,
        io_bytes: u64,
        region_start: u64,
        region_blocks: u64,
    ) -> Self {
        let qd = if io_bytes >= 128 * 1024 { 4 } else { 32 };
        let write_pattern = if io_bytes >= 128 * 1024 {
            AccessPattern::Sequential
        } else {
            AccessPattern::Random
        };
        FioSpec {
            read_ratio,
            io_bytes,
            read_pattern: AccessPattern::Random,
            write_pattern,
            queue_depth: qd,
            rate_limit: None,
            burst: None,
            region_start,
            region_blocks,
        }
    }

    /// Builder: on/off burst phasing.
    pub fn with_burst(mut self, on: SimDuration, off: SimDuration, phase: SimDuration) -> Self {
        self.burst = Some(BurstSpec { on, off, phase });
        self
    }

    /// Blocks per IO.
    pub(crate) fn io_blocks(&self) -> u64 {
        self.io_bytes / BLOCK_SIZE
    }

    /// Validate the specification.
    pub fn validate(&self) {
        assert!((0.0..=1.0).contains(&self.read_ratio));
        assert!(self.io_bytes > 0 && self.io_bytes.is_multiple_of(BLOCK_SIZE));
        assert!(self.queue_depth >= 1);
        assert!(
            self.region_blocks >= self.io_blocks(),
            "region smaller than one IO"
        );
        if let Some(b) = &self.burst {
            b.validate();
        }
    }
}

/// A single IO described by the generator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FioIo {
    /// Opcode.
    pub op: IoType,
    /// Starting LBA.
    pub lba: u64,
    /// Length in bytes.
    pub len: u64,
}

/// Closed-loop fio-style stream state.
#[derive(Clone, Debug)]
pub struct FioStream {
    spec: FioSpec,
    rng: SimRng,
    seq_cursor: u64,
    limiter: Option<TokenBucket>,
    zipf: Option<Zipfian>,
}

impl FioStream {
    /// Create a stream with its own RNG stream.
    pub fn new(spec: FioSpec, rng: SimRng) -> Self {
        spec.validate();
        let limiter = spec.rate_limit.map(|r| {
            // Bucket depth of 4 IOs keeps bursts short while allowing the
            // closed loop to refill between completions.
            TokenBucket::with_rate(r, (spec.io_bytes * 4).max(1))
        });
        let zipf = (spec.read_pattern == AccessPattern::Zipfian
            || spec.write_pattern == AccessPattern::Zipfian)
            .then(|| Zipfian::new(spec.region_blocks / spec.io_blocks(), ZIPF_THETA));
        FioStream {
            spec,
            rng,
            seq_cursor: 0,
            limiter,
            zipf,
        }
    }

    /// The specification.
    pub fn spec(&self) -> &FioSpec {
        &self.spec
    }

    /// Whether the stream currently allows one more IO; if not, returns
    /// the instant it will. The burst phase gates before the rate limiter:
    /// an OFF-phase stream issues nothing regardless of tokens.
    pub fn rate_gate(&mut self, now: SimTime) -> Result<(), SimTime> {
        if let Some(b) = &self.spec.burst {
            b.gate(now)?;
        }
        let io = self.spec.io_bytes;
        match &mut self.limiter {
            None => Ok(()),
            Some(tb) => {
                tb.refill(now);
                if tb.can_consume(io) {
                    Ok(())
                } else {
                    let at = tb
                        .time_until_available(now, io)
                        .unwrap_or(now + gimbal_sim::SimDuration::from_micros(100));
                    // Strictly in the future: float rounding in the token
                    // estimate must never produce a same-instant retry, or
                    // the driving event loop would spin at one timestamp.
                    Err(at.max(now + gimbal_sim::SimDuration::from_micros(1)))
                }
            }
        }
    }

    /// Generate the next IO (consumes rate-limit tokens if configured).
    pub fn next_io(&mut self, now: SimTime) -> FioIo {
        if let Some(tb) = &mut self.limiter {
            tb.refill(now);
            tb.try_consume(self.spec.io_bytes);
        }
        let is_read = self.rng.gen_f64() < self.spec.read_ratio;
        let op = if is_read { IoType::Read } else { IoType::Write };
        let pattern = if is_read {
            self.spec.read_pattern
        } else {
            self.spec.write_pattern
        };
        let blocks = self.spec.io_blocks();
        let lba = match pattern {
            AccessPattern::Random => {
                let slots = self.spec.region_blocks / blocks;
                self.spec.region_start + self.rng.gen_below(slots) * blocks
            }
            AccessPattern::Sequential => {
                let lba = self.spec.region_start + self.seq_cursor;
                self.seq_cursor += blocks;
                if self.seq_cursor + blocks > self.spec.region_blocks {
                    self.seq_cursor = 0;
                }
                lba
            }
            AccessPattern::Zipfian => {
                // `zipf` is always built in `new` when either pattern is
                // Zipfian; fall back to slot 0 rather than panic.
                let rank = match &self.zipf {
                    Some(z) => z.next(&mut self.rng),
                    None => 0,
                };
                self.spec.region_start + rank * blocks
            }
        };
        FioIo {
            op,
            lba,
            len: self.spec.io_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gimbal_sim::SimDuration;

    fn spec(read_ratio: f64, io: u64) -> FioSpec {
        FioSpec::paper_default(read_ratio, io, 0, 1 << 20)
    }

    #[test]
    fn paper_defaults_match_section_5_1() {
        let small = spec(1.0, 4096);
        assert_eq!(small.queue_depth, 32);
        assert_eq!(small.write_pattern, AccessPattern::Random);
        let big = spec(0.0, 128 * 1024);
        assert_eq!(big.queue_depth, 4);
        assert_eq!(big.write_pattern, AccessPattern::Sequential);
    }

    #[test]
    fn read_ratio_is_respected() {
        let mut s = FioStream::new(spec(0.7, 4096), SimRng::new(1));
        let n = 10_000;
        let reads = (0..n)
            .filter(|_| s.next_io(SimTime::ZERO).op.is_read())
            .count();
        let ratio = reads as f64 / n as f64;
        assert!((ratio - 0.7).abs() < 0.02, "ratio {ratio}");
    }

    #[test]
    fn random_addresses_stay_in_region_and_aligned() {
        let mut sp = spec(1.0, 128 * 1024);
        sp.region_start = 1000;
        sp.region_blocks = 3200;
        let mut s = FioStream::new(sp, SimRng::new(2));
        for _ in 0..1000 {
            let io = s.next_io(SimTime::ZERO);
            assert!(io.lba >= 1000);
            assert!(io.lba + 32 <= 1000 + 3200);
            assert_eq!((io.lba - 1000) % 32, 0, "aligned to IO size");
        }
    }

    #[test]
    fn sequential_advances_and_wraps() {
        let mut sp = spec(0.0, 128 * 1024);
        sp.region_blocks = 96; // room for exactly 3 IOs
        let mut s = FioStream::new(sp, SimRng::new(3));
        let l0 = s.next_io(SimTime::ZERO).lba;
        let l1 = s.next_io(SimTime::ZERO).lba;
        let l2 = s.next_io(SimTime::ZERO).lba;
        let l3 = s.next_io(SimTime::ZERO).lba;
        assert_eq!(l1, l0 + 32);
        assert_eq!(l2, l1 + 32);
        assert_eq!(l3, l0, "wrapped");
    }

    #[test]
    fn zipfian_skews_toward_the_region_start_and_stays_aligned() {
        let mut sp = spec(1.0, 4096);
        sp.read_pattern = AccessPattern::Zipfian;
        sp.region_start = 500;
        sp.region_blocks = 1 << 12;
        let mut s = FioStream::new(sp, SimRng::new(7));
        let n = 8_000;
        let mut hottest = 0u64;
        for _ in 0..n {
            let io = s.next_io(SimTime::ZERO);
            assert!(io.lba >= 500 && io.lba < 500 + (1 << 12));
            if io.lba == 500 {
                hottest += 1;
            }
        }
        // Rank 0 of 4096 slots at theta 0.99 draws far more than the 2-ish
        // hits a uniform stream would give it.
        assert!(hottest > n / 100, "hottest slot drew {hottest} of {n}");
    }

    #[test]
    fn rate_limit_gates_issue() {
        let mut sp = spec(1.0, 4096);
        sp.rate_limit = Some(4096.0 * 1000.0); // 1000 IOPS
        let mut s = FioStream::new(sp, SimRng::new(4));
        // Burst allowance: 4 IOs up front.
        for _ in 0..4 {
            assert!(s.rate_gate(SimTime::ZERO).is_ok());
            s.next_io(SimTime::ZERO);
        }
        let gate = s.rate_gate(SimTime::ZERO);
        let at = gate.expect_err("must be limited now");
        assert_eq!(at, SimTime::from_millis(1), "one IO per ms at 1000 IOPS");
        // After waiting, the gate opens.
        assert!(s.rate_gate(at).is_ok());
    }

    #[test]
    fn sustained_rate_matches_cap() {
        let mut sp = spec(1.0, 4096);
        sp.rate_limit = Some(10e6); // 10 MB/s
        let mut s = FioStream::new(sp, SimRng::new(5));
        let mut now = SimTime::ZERO;
        let mut issued = 0u64;
        let horizon = SimTime::from_millis(500);
        while now < horizon {
            match s.rate_gate(now) {
                Ok(()) => {
                    s.next_io(now);
                    issued += 1;
                }
                Err(at) => now = at,
            }
        }
        let mbps = issued as f64 * 4096.0 / horizon.as_secs_f64() / 1e6;
        assert!((9.0..11.0).contains(&mbps), "sustained {mbps} MB/s");
    }

    #[test]
    fn burst_gate_alternates_on_and_off_with_phase() {
        let b = BurstSpec {
            on: SimDuration::from_millis(10),
            off: SimDuration::from_millis(30),
            phase: SimDuration::ZERO,
        };
        assert!(b.gate(SimTime::ZERO).is_ok());
        assert!(b.gate(SimTime::from_millis(9)).is_ok());
        // OFF phase: the error names the next cycle start.
        let at = b.gate(SimTime::from_millis(10)).expect_err("off");
        assert_eq!(at, SimTime::from_millis(40));
        assert!(b.gate(at).is_ok());
        // A phase of one on-length shifts the whole cycle.
        let shifted = BurstSpec {
            phase: SimDuration::from_millis(10),
            ..b
        };
        assert!(shifted.gate(SimTime::ZERO).is_err());
        assert!(shifted.gate(SimTime::from_millis(30)).is_ok());
    }

    #[test]
    fn bursty_stream_issues_nothing_during_off_phase() {
        let mut sp = spec(1.0, 4096);
        sp.burst = Some(BurstSpec {
            on: SimDuration::from_millis(5),
            off: SimDuration::from_millis(5),
            phase: SimDuration::ZERO,
        });
        let mut s = FioStream::new(sp, SimRng::new(6));
        assert!(s.rate_gate(SimTime::from_millis(2)).is_ok());
        let at = s.rate_gate(SimTime::from_millis(7)).expect_err("off");
        assert_eq!(at, SimTime::from_millis(10));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = FioStream::new(spec(0.5, 4096), SimRng::new(9));
        let mut b = FioStream::new(spec(0.5, 4096), SimRng::new(9));
        for _ in 0..100 {
            assert_eq!(a.next_io(SimTime::ZERO), b.next_io(SimTime::ZERO));
        }
        let _ = SimDuration::ZERO;
    }
}
