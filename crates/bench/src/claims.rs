//! The paper's headline shapes, pinned as claims on the figures' own
//! experiments.
//!
//! Each [`Claim`] reruns only the cells it needs, through the same helper
//! its figure's `run(quick)` prints from, at quick settings. It asserts the
//! paper's *shape* — orderings and rough ratios, not absolute microseconds —
//! and pins the verdict glyphs that EXPERIMENTS.md publishes in the claim's
//! section heading, so neither the measurement nor the published verdict
//! can change alone. `tests/scoreboard.rs` runs one test per claim;
//! `figures scoreboard` prints the table.

use crate::figs::{
    fig04_interference, fig06_utilization, fig07_fairness, fig09_dynamic, fig10_ycsb, gen_p3600,
};
use gimbal_testbed::{Precondition, Scheme};
use gimbal_workload::YcsbMix;

/// EXPERIMENTS.md, whose section headings publish the verdicts.
pub const EXPERIMENTS_MD: &str = include_str!("../../../EXPERIMENTS.md");

/// Glyphs of the verdict legend (✔ reproduces, ◐ partially, ✖ diverges),
/// plus the separators headings combine them with.
const VERDICT_CHARS: &str = "✔◐✖ /";

/// One paper claim.
pub struct Claim {
    /// Test name, and the scoreboard row label.
    pub name: &'static str,
    /// Start of the EXPERIMENTS.md section heading that publishes the
    /// verdict, e.g. `"## Figure 6 —"`.
    pub heading: &'static str,
    /// The verdict glyphs that heading ends with, e.g. `"✔ / ◐"`.
    pub verdict: &'static str,
    /// Reruns the claim's cells: the measured evidence if the shape holds,
    /// otherwise what broke.
    pub check: fn() -> Result<String, String>,
}

impl Claim {
    /// Run the claim and compare its pinned verdict with the one `doc`
    /// (EXPERIMENTS.md) publishes.
    pub fn verify(&self, doc: &str) -> Result<String, String> {
        match published_verdict(doc, self.heading) {
            Some(v) if v == self.verdict => (self.check)(),
            Some(v) => Err(format!(
                "EXPERIMENTS.md publishes `{}` {v} but the claim pins {}",
                self.heading, self.verdict
            )),
            None => Err(format!(
                "EXPERIMENTS.md has no single heading starting `{}`",
                self.heading
            )),
        }
    }
}

/// The verdict glyphs ending the one line of `doc` that starts with
/// `heading`; `None` when no line, or more than one, starts with it.
pub(crate) fn published_verdict<'d>(doc: &'d str, heading: &str) -> Option<&'d str> {
    let mut lines = doc.lines().filter(|l| l.starts_with(heading));
    let line = lines.next()?;
    if lines.next().is_some() {
        return None;
    }
    let title = line.trim_end_matches(|c| VERDICT_CHARS.contains(c));
    Some(line[title.len()..].trim())
}

/// `clause` as the evidence when the shape holds, otherwise as what broke.
/// Each clause prints its measured values next to the bounds they must meet.
fn holds(shape: bool, clause: String) -> Result<String, String> {
    if shape {
        Ok(clause)
    } else {
        Err(format!("shape broke: {clause}"))
    }
}

/// §2.3 / Fig 4: on an unmanaged target, a 4× more intense identical flow
/// takes several times the victim's bandwidth.
pub const FIG04: Claim = Claim {
    name: "fig04_intensity_steals_bandwidth_without_isolation",
    heading: "## Figure 4 —",
    verdict: "✔",
    check: || {
        let &(label, io_kb, op, qd) = fig04_interference::NEIGHBORS
            .iter()
            .find(|n| n.0 == "4KB-RD QD128")
            .expect("Fig 4 has a 4KB-RD QD128 bar");
        let res = fig04_interference::run_neighbor(io_kb, op, qd, true);
        let v = res.workers[0].bandwidth_mbps();
        let nb = res.workers[1].bandwidth_mbps();
        holds(
            nb > 2.5 * v,
            format!("{label} neighbor {nb:.0} vs victim {v:.0} MB/s (> ×2.5)"),
        )
    },
};

/// §5.2 / Fig 6: ReFlex's static worst-case model leaves clean-SSD read
/// bandwidth on the table by more than 2× relative to Gimbal.
pub const FIG06: Claim = Claim {
    name: "fig06_reflex_underutilizes_clean_reads",
    heading: "## Figure 6 —",
    verdict: "✔",
    check: || {
        let [(label, pre, op, io), ..] = fig06_utilization::cases();
        let bw = |scheme| {
            fig06_utilization::run_case(scheme, pre, op, io, true).aggregate_bps(|_| true) / 1e6
        };
        let (gimbal, reflex) = (bw(Scheme::Gimbal), bw(Scheme::Reflex));
        holds(
            gimbal > 2.0 * reflex,
            format!("{label}: Gimbal {gimbal:.0} vs ReFlex {reflex:.0} MB/s (> ×2; paper ×2.4)"),
        )
    },
};

/// §3.5 / Fig 7 (a): the virtual-slot DRR grants device-efficient large IOs
/// more bandwidth per worker than 4 KB IOs, but not unboundedly more (the
/// paper measures +22 %).
pub const FIG07: Claim = Claim {
    name: "fig07_gimbal_grants_large_ios_their_efficiency",
    heading: "## Figure 7 —",
    verdict: "✔ / ◐",
    check: || {
        let [sizes, ..] = fig07_fairness::mixes();
        let r = fig07_fairness::run_mix(&sizes, Scheme::Gimbal, true);
        let (small, large) = (r.groups[0].0 / 1e6, r.groups[1].0 / 1e6);
        holds(
            large > small && large < 2.5 * small,
            format!(
                "(a) Gimbal 128KB {large:.1} vs 4KB {small:.1} MB/s/worker (in (×1, ×2.5); paper +22%)"
            ),
        )
    },
};

/// §5.4 / Fig 8: under high consolidation (16 readers + 16 writers on one
/// fragmented SSD, Fig 7 mix (c)), Gimbal's flow control bounds the write
/// tail an unmanaged target lets grow, while keeping read tails comparable.
pub const FIG08: Claim = Claim {
    name: "fig08_gimbal_bounds_write_tails_under_consolidation",
    heading: "## Figure 8 —",
    verdict: "✔",
    check: || {
        let [.., frag] = fig07_fairness::mixes();
        let p999 = |scheme| {
            let [rd, wr] = fig07_fairness::run_mix(&frag, scheme, true).latency;
            (rd.p999_us(), wr.p999_us())
        };
        let (g_rd, g_wr) = p999(Scheme::Gimbal);
        let (v_rd, v_wr) = p999(Scheme::Vanilla);
        holds(
            g_wr * 2.0 < v_wr && g_rd < 2.0 * v_rd,
            format!(
                "(c) p99.9 Gimbal vs Vanilla: write {g_wr:.0} vs {v_wr:.0} us (< ×0.5), \
                 read {g_rd:.0} vs {v_rd:.0} us (< ×2)"
            ),
        )
    },
};

/// §5.5 / Fig 9: the write-cost estimator credits buffered writes. The
/// first rate-capped writer to join the read-heavy mix sees buffer-level
/// write latency while readers see device-level latency, it sustains its
/// capped rate, and the write cost falls as it joins.
pub const FIG09: Claim = Claim {
    name: "fig09_first_writer_is_absorbed_by_the_buffer",
    heading: "## Figure 9 —",
    verdict: "✔✔",
    check: || {
        let (res, rows) = fig09_dynamic::timeline(true, 2);
        let (before, joined) = (&rows[0], &rows[1]);
        let writer = res
            .workers
            .iter()
            .find(|w| w.label == "writer")
            .expect("Fig 9 has writers");
        let (wr_us, wr_mbps, rd_us) = (
            writer.write_latency.mean_us(),
            joined.writer_bps / 1e6,
            joined.read_lat_us,
        );
        let (cost0, cost1) = (before.write_cost, joined.write_cost);
        holds(
            wr_us < 150.0 && rd_us > 3.0 * wr_us && wr_mbps > 45.0 && cost1 < cost0,
            format!(
                "t=2s: writer {wr_mbps:.0} MB/s (> 45) at {wr_us:.0} us (< 150), \
                 reads {rd_us:.0} us (> ×3), write cost {cost0:.1} → {cost1:.1} (falls)"
            ),
        )
    },
};

/// §5.6 / Fig 10: on update-heavy YCSB-A, Gimbal has the highest
/// throughput of the four schemes.
pub const FIG10: Claim = Claim {
    name: "fig10_gimbal_leads_ycsb_a_throughput",
    heading: "## Figure 10 —",
    verdict: "✔ / ◐",
    check: || {
        let kiops = Scheme::COMPARED.map(|s| {
            let res = fig10_ycsb::run_cell(s, YcsbMix::A, fig10_ycsb::instances(true), true);
            (s, res.total_kiops())
        });
        let gimbal = kiops
            .iter()
            .find(|(s, _)| *s == Scheme::Gimbal)
            .map_or(0.0, |&(_, k)| k);
        holds(
            kiops
                .iter()
                .all(|&(s, k)| s == Scheme::Gimbal || k < gimbal),
            format!(
                "YCSB-A KIOPS: {}",
                kiops
                    .map(|(s, k)| format!("{} {k:.1}", s.name()))
                    .join(", ")
            ),
        )
    },
};

/// §5.8: retuning only `Thresh_max` adapts Gimbal to a different device.
/// The P3600 profile is about a third slower on 128 KB clean reads, and
/// the fragmented 4 KB read/write mix still reaches the paper's f-Utils.
pub const S58: Claim = Claim {
    name: "s58_gimbal_generalizes_to_the_p3600_profile",
    heading: "## §5.8 ",
    verdict: "✔",
    check: || {
        let (dct, p3600) = gen_p3600::clean_read_bw(true);
        let delta = (p3600 - dct) / dct * 100.0;
        let (rd, wr) = gen_p3600::rw_futils(Precondition::Fragmented, 4096, true);
        holds(
            (-45.0..-25.0).contains(&delta) && rd > 0.58 && wr > 0.8,
            format!(
                "128KB clean read {delta:+.1}% vs DCT983 (paper −33.5%); Frag 4KB f-Util \
                 read {rd:.2} (> 0.58), write {wr:.2} (> 0.8; paper 0.90)"
            ),
        )
    },
};

/// Every claim, in figure order.
pub const CLAIMS: [Claim; 7] = [FIG04, FIG06, FIG07, FIG08, FIG09, FIG10, S58];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_verdict_reads_the_heading_glyphs() {
        let doc = "## Figure 7 — fairness (f-Util) ✔ / ◐\n\n## Figure 9 — dynamic ✔✔\n";
        assert_eq!(published_verdict(doc, "## Figure 7 —"), Some("✔ / ◐"));
        assert_eq!(published_verdict(doc, "## Figure 9 —"), Some("✔✔"));
        assert_eq!(published_verdict(doc, "## Figure 8 —"), None);
        assert_eq!(published_verdict("## A ✔\n## A ✖\n", "## A"), None);
    }
}
