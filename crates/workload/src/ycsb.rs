//! YCSB workload generation (§5.6): zipfian/latest key distributions and the
//! standard A/B/C/D/F operation mixes.
//!
//! The paper configures "10M 1KB key-value pairs with a Zipfian distribution
//! of skewness 0.99 for each DB instance" and runs workloads A (50/50
//! update/read), B (95/5 read/update), C (read-only), D (read-latest, 95/5
//! read/insert), and F (read-modify-write).

use gimbal_sim::SimRng;

/// The classic YCSB zipfian generator (Gray et al.'s algorithm, as used by
/// the YCSB reference implementation), skewness `θ`.
#[derive(Clone, Debug)]
pub struct Zipfian {
    items: u64,
    theta: f64,
    zetan: f64,
    alpha: f64,
    eta: f64,
}

impl Zipfian {
    /// Build a generator over `items` keys with skew `theta` (0.99 in the
    /// paper). O(items) once.
    pub fn new(items: u64, theta: f64) -> Self {
        assert!(items > 0 && theta > 0.0 && theta < 1.0);
        let zetan = Self::zeta(items, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / items as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian {
            items,
            theta,
            zetan,
            alpha,
            eta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Draw a key rank in `[0, items)`; rank 0 is the most popular.
    pub fn next(&self, rng: &mut SimRng) -> u64 {
        let u = rng.gen_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let spread = (self.eta * u - self.eta + 1.0).powf(self.alpha);
        ((self.items as f64) * spread) as u64 % self.items
        // modulo guards the rare fp edge at u → 1.
    }
}

/// A key-value operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KvOp {
    /// Point read of a key.
    Read(u64),
    /// Overwrite of an existing key.
    Update(u64),
    /// Insert of a fresh key (workload D grows the keyspace).
    Insert(u64),
    /// Read-modify-write of a key (workload F).
    ReadModifyWrite(u64),
}

/// The standard YCSB core workload mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum YcsbMix {
    /// 50 % read / 50 % update, zipfian.
    A,
    /// 95 % read / 5 % update, zipfian.
    B,
    /// 100 % read, zipfian.
    C,
    /// 95 % read / 5 % insert, *latest* distribution.
    D,
    /// 50 % read / 50 % read-modify-write, zipfian.
    F,
}

impl YcsbMix {
    /// All mixes evaluated in the paper (Figs 10–13).
    pub const ALL: [YcsbMix; 5] = [YcsbMix::A, YcsbMix::B, YcsbMix::C, YcsbMix::D, YcsbMix::F];

    /// Display name ("YCSB-A", ...).
    pub fn name(self) -> &'static str {
        match self {
            YcsbMix::A => "YCSB-A",
            YcsbMix::B => "YCSB-B",
            YcsbMix::C => "YCSB-C",
            YcsbMix::D => "YCSB-D",
            YcsbMix::F => "YCSB-F",
        }
    }
}

/// A YCSB operation stream for one DB instance.
#[derive(Clone, Debug)]
pub struct YcsbWorkload {
    mix: YcsbMix,
    zipf: Zipfian,
    rng: SimRng,
    /// Current keyspace size (grows under workload D inserts).
    record_count: u64,
}

impl YcsbWorkload {
    /// Create a stream over `records` preloaded keys with the paper's 0.99
    /// skew.
    pub fn new(mix: YcsbMix, records: u64, rng: SimRng) -> Self {
        YcsbWorkload {
            mix,
            zipf: Zipfian::new(records, 0.99),
            rng,
            record_count: records,
        }
    }

    fn zipf_key(&mut self) -> u64 {
        self.zipf.next(&mut self.rng) % self.record_count
    }

    /// "Latest" distribution: zipfian over recency — most recently inserted
    /// keys are the most popular.
    fn latest_key(&mut self) -> u64 {
        let back = self.zipf.next(&mut self.rng) % self.record_count;
        self.record_count - 1 - back
    }

    /// Draw the next operation.
    pub fn next_op(&mut self) -> KvOp {
        let p = self.rng.gen_f64();
        match self.mix {
            YcsbMix::A => {
                if p < 0.5 {
                    KvOp::Read(self.zipf_key())
                } else {
                    KvOp::Update(self.zipf_key())
                }
            }
            YcsbMix::B => {
                if p < 0.95 {
                    KvOp::Read(self.zipf_key())
                } else {
                    KvOp::Update(self.zipf_key())
                }
            }
            YcsbMix::C => KvOp::Read(self.zipf_key()),
            YcsbMix::D => {
                if p < 0.95 {
                    KvOp::Read(self.latest_key())
                } else {
                    let k = self.record_count;
                    self.record_count += 1;
                    KvOp::Insert(k)
                }
            }
            YcsbMix::F => {
                if p < 0.5 {
                    KvOp::Read(self.zipf_key())
                } else {
                    KvOp::ReadModifyWrite(self.zipf_key())
                }
            }
        }
    }
}

#[cfg(test)]
impl YcsbWorkload {
    /// Current record count (grows with inserts).
    pub(crate) fn record_count(&self) -> u64 {
        self.record_count
    }
}

#[cfg(test)]
impl KvOp {
    /// Whether the op involves a write to the store.
    pub(crate) fn writes(&self) -> bool {
        !matches!(self, KvOp::Read(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipfian_is_skewed_and_bounded() {
        let z = Zipfian::new(10_000, 0.99);
        let mut rng = SimRng::new(1);
        let n = 200_000;
        let mut head = 0u64;
        for _ in 0..n {
            let k = z.next(&mut rng);
            assert!(k < 10_000);
            if k < 100 {
                head += 1;
            }
        }
        // With θ=0.99 the top 1 % of keys draw roughly half the accesses.
        let frac = head as f64 / n as f64;
        assert!((0.35..0.75).contains(&frac), "head mass {frac}");
    }

    #[test]
    fn zipfian_rank_probabilities_decrease() {
        let z = Zipfian::new(1000, 0.99);
        let mut rng = SimRng::new(2);
        let mut counts = vec![0u64; 1000];
        for _ in 0..300_000 {
            counts[z.next(&mut rng) as usize] += 1;
        }
        assert!(counts[0] > counts[9]);
        assert!(counts[9] > counts[99]);
        assert!(counts[99] > counts[999]);
    }

    #[test]
    fn mix_ratios_match_spec() {
        let check = |mix: YcsbMix, want_write: f64| {
            let mut w = YcsbWorkload::new(mix, 10_000, SimRng::new(7));
            let n = 20_000;
            let writes = (0..n).filter(|_| w.next_op().writes()).count();
            let frac = writes as f64 / n as f64;
            assert!(
                (frac - want_write).abs() < 0.02,
                "{}: write frac {frac} want {want_write}",
                mix.name()
            );
        };
        check(YcsbMix::A, 0.5);
        check(YcsbMix::B, 0.05);
        check(YcsbMix::C, 0.0);
        check(YcsbMix::D, 0.05);
        check(YcsbMix::F, 0.5);
    }

    #[test]
    fn workload_d_inserts_grow_keyspace_and_reads_skew_recent() {
        let mut w = YcsbWorkload::new(YcsbMix::D, 10_000, SimRng::new(3));
        let start = w.record_count();
        let mut recent_reads = 0u64;
        let mut reads = 0u64;
        for _ in 0..20_000 {
            match w.next_op() {
                KvOp::Read(k) => {
                    reads += 1;
                    if k + 1000 >= w.record_count() {
                        recent_reads += 1;
                    }
                }
                KvOp::Insert(k) => assert!(k >= start),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(w.record_count() > start);
        let frac = recent_reads as f64 / reads as f64;
        assert!(frac > 0.5, "latest-skew: {frac}");
    }

    #[test]
    fn f_produces_rmw_not_plain_updates() {
        let mut w = YcsbWorkload::new(YcsbMix::F, 1000, SimRng::new(4));
        let mut saw_rmw = false;
        for _ in 0..1000 {
            match w.next_op() {
                KvOp::ReadModifyWrite(_) => saw_rmw = true,
                KvOp::Read(_) => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(saw_rmw);
    }

    #[test]
    fn deterministic_streams() {
        let mut a = YcsbWorkload::new(YcsbMix::A, 1000, SimRng::new(5));
        let mut b = YcsbWorkload::new(YcsbMix::A, 1000, SimRng::new(5));
        for _ in 0..500 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }
}
