//! SSD geometry, timing, and calibration profiles.

use gimbal_sim::SimDuration;

/// Which real drive a configuration is calibrated against (§5.1, §5.8).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SsdProfile {
    /// Samsung DCT983 960 GB (TLC) — the drive used in all main experiments.
    Dct983,
    /// Intel DC P3600 1.2 TB (2-bit MLC) — the generalization study (§5.8):
    /// 33.5 % lower 128 KB read bandwidth, 35 % higher 4 KB random write.
    P3600,
}

/// Full configuration of the flash SSD model.
///
/// Defaults are calibrated to the DCT983 headline numbers listed in
/// DESIGN.md §3. The logical capacity is scaled down from the real 960 GB to
/// keep FTL tables small; throughput and latency are capacity-independent in
/// this model (they depend on geometry and NAND timing, not on total blocks).
#[derive(Clone, Debug)]
pub struct SsdConfig {
    /// Number of NAND channels.
    pub channels: u32,
    /// Dies per channel.
    pub dies_per_channel: u32,
    /// NAND page size in bytes (the read unit; 16 KiB for modern TLC).
    pub nand_page_bytes: u64,
    /// Logical (FTL-mapped) page size in bytes; 4 KiB.
    pub logical_page_bytes: u64,
    /// NAND pages per erase block.
    pub pages_per_block: u32,
    /// Exported (logical) capacity in bytes.
    pub logical_capacity: u64,
    /// Overprovisioning ratio: physical = logical × (1 + op).
    pub overprovision: f64,

    /// NAND array read time (tR) per page.
    pub t_read: SimDuration,
    /// NAND program time (tPROG) per program unit.
    pub t_program: SimDuration,
    /// Block erase time (tBERS).
    pub t_erase: SimDuration,
    /// NAND pages programmed per program operation (multi-plane one-shot
    /// programming; 2 × 16 KiB pages per tPROG gives the DCT983's
    /// ~1.3 GB/s clean sequential write).
    pub pages_per_program: u32,

    /// Per-channel bus bandwidth, bytes/second.
    pub channel_bandwidth: u64,
    /// Controller/PCIe link bandwidth, bytes/second (PCIe Gen3 ×4 ≈ 3.2 GB/s).
    pub link_bandwidth: u64,
    /// Fixed controller overhead added to every IO (command decode,
    /// completion generation).
    pub controller_overhead: SimDuration,

    /// DRAM write buffer capacity in bytes.
    pub write_buffer_bytes: u64,
    /// Latency of a write acknowledged from the DRAM buffer.
    pub buffer_write_latency: SimDuration,
    /// Latency of a read served from the DRAM buffer.
    pub buffer_read_latency: SimDuration,

    /// GC starts when a die's free blocks fall to this count.
    pub gc_low_watermark: u32,
    /// Background GC (after fragmented preconditioning) stops at this count.
    pub gc_high_watermark: u32,
}

impl Default for SsdConfig {
    fn default() -> Self {
        SsdConfig::profile(SsdProfile::Dct983)
    }
}

impl SsdConfig {
    /// Calibrated configuration for a drive profile.
    pub fn profile(p: SsdProfile) -> Self {
        let base = SsdConfig {
            channels: 8,
            dies_per_channel: 4,
            nand_page_bytes: 16 * 1024,
            logical_page_bytes: 4096,
            // 16 NAND pages (256 KiB) per modeled erase unit: one greedy
            // collection then stalls a die for single-digit milliseconds,
            // matching the tail behaviour of real TLC drives whose
            // controllers interleave GC finely with host IO.
            pages_per_block: 16,
            logical_capacity: 4 * 1024 * 1024 * 1024, // scaled-down 4 GiB
            overprovision: 0.18,
            t_read: SimDuration::from_micros(60),
            t_program: SimDuration::from_micros(800),
            t_erase: SimDuration::from_millis(3),
            pages_per_program: 2,
            channel_bandwidth: 1_200_000_000,
            link_bandwidth: 3_200_000_000,
            controller_overhead: SimDuration::from_micros(8),
            write_buffer_bytes: 48 * 1024 * 1024,
            buffer_write_latency: SimDuration::from_micros(12),
            buffer_read_latency: SimDuration::from_micros(10),
            gc_low_watermark: 2,
            gc_high_watermark: 5,
        };
        match p {
            SsdProfile::Dct983 => base,
            // P3600: MLC — faster programs (higher random-write BW) but a
            // slower host interface (lower large-read BW) and slower tR.
            SsdProfile::P3600 => SsdConfig {
                t_read: SimDuration::from_micros(88),
                t_program: SimDuration::from_micros(600),
                link_bandwidth: 2_100_000_000,
                ..base
            },
        }
    }

    /// Total number of dies.
    pub fn dies(&self) -> u32 {
        self.channels * self.dies_per_channel
    }

    /// Logical pages exported by the namespace.
    pub(crate) fn logical_pages(&self) -> u64 {
        self.logical_capacity / self.logical_page_bytes
    }

    /// Logical-page slots per NAND page.
    pub(crate) fn slots_per_nand_page(&self) -> u32 {
        (self.nand_page_bytes / self.logical_page_bytes) as u32
    }

    /// Logical-page slots per erase block.
    pub(crate) fn slots_per_block(&self) -> u32 {
        self.pages_per_block * self.slots_per_nand_page()
    }

    /// Erase blocks per die needed to hold the logical capacity exactly.
    pub(crate) fn data_blocks_per_die(&self) -> u32 {
        self.logical_pages()
            .div_ceil(u64::from(self.dies()))
            .div_ceil(u64::from(self.slots_per_block())) as u32
    }

    /// Erase blocks per die: the data blocks plus an overprovisioning
    /// reserve. The reserve is at least `gc_high_watermark + 2` blocks so a
    /// freshly clean drive sits above the GC watermark even at tiny
    /// (test-scale) capacities.
    pub fn blocks_per_die(&self) -> u32 {
        let data = self.data_blocks_per_die();
        let op_reserve = (f64::from(data) * self.overprovision).ceil() as u32;
        data + op_reserve.max(self.gc_high_watermark + 2)
    }

    /// Logical pages a single program operation persists.
    pub(crate) fn slots_per_program(&self) -> u32 {
        self.pages_per_program * self.slots_per_nand_page()
    }

    /// Validate internal consistency; panics with a description on error.
    pub fn validate(&self) {
        assert!(self.channels > 0 && self.dies_per_channel > 0);
        assert!(
            self.nand_page_bytes.is_multiple_of(self.logical_page_bytes),
            "NAND page must hold whole logical pages"
        );
        assert!(self
            .logical_capacity
            .is_multiple_of(self.logical_page_bytes));
        assert!(
            self.overprovision > 0.0,
            "need overprovisioned space for GC"
        );
        assert!(self.gc_low_watermark >= 2);
        assert!(self.gc_high_watermark > self.gc_low_watermark);
        assert!(self.blocks_per_die() > self.gc_high_watermark);
        assert!(self.pages_per_program >= 1);
        assert!(self.write_buffer_bytes >= self.logical_page_bytes * 64);
    }
}

#[cfg(test)]
impl SsdConfig {
    /// Theoretical clean sequential write bandwidth (all dies programming
    /// continuously), bytes/second. Used by calibration tests.
    pub(crate) fn peak_program_bandwidth(&self) -> f64 {
        let per_die = (u64::from(self.pages_per_program) * self.nand_page_bytes) as f64
            / self.t_program.as_secs_f64();
        per_die * f64::from(self.dies())
    }

    /// Theoretical 4 KiB random read IOPS (die-limited), ops/second.
    pub(crate) fn peak_small_read_iops(&self) -> f64 {
        f64::from(self.dies()) / self.t_read.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_profile_is_consistent() {
        let c = SsdConfig::default();
        c.validate();
        assert_eq!(c.dies(), 32);
        assert_eq!(c.slots_per_nand_page(), 4);
        assert_eq!(c.slots_per_block(), 64);
        assert_eq!(c.slots_per_program(), 8);
    }

    #[test]
    fn dct983_calibration_targets() {
        let c = SsdConfig::profile(SsdProfile::Dct983);
        // Clean sequential write ≈ 1.3 GB/s (paper: server saturates
        // ~1316 KIOPS 4 KB seq write across 4 SSDs ⇒ ~1.3 GB/s each).
        let w = c.peak_program_bandwidth();
        assert!((1.2e9..1.4e9).contains(&w), "program bw {w}");
        // Die-limited 4 KB read ceiling; realized bandwidth at finite queue
        // depth lands near the paper's 1.6 GB/s (~75 % of this due to die
        // load imbalance — verified in the device tests).
        let r = c.peak_small_read_iops() * 4096.0;
        assert!((1.9e9..2.4e9).contains(&r), "small read bw {r}");
        // Large reads capped by the link at 3.2 GB/s.
        assert_eq!(c.link_bandwidth, 3_200_000_000);
    }

    #[test]
    fn p3600_differs_in_the_right_direction() {
        let d = SsdConfig::profile(SsdProfile::Dct983);
        let p = SsdConfig::profile(SsdProfile::P3600);
        p.validate();
        // Lower large-read bandwidth, higher program (random-write) rate.
        assert!(p.link_bandwidth < d.link_bandwidth);
        assert!(p.peak_program_bandwidth() > d.peak_program_bandwidth());
    }

    #[test]
    fn geometry_scales_with_capacity() {
        let mut c = SsdConfig::default();
        let small = c.data_blocks_per_die();
        c.logical_capacity *= 2;
        assert_eq!(c.data_blocks_per_die(), small * 2);
        // A clean drive always starts above the GC watermark.
        assert!(c.blocks_per_die() - c.data_blocks_per_die() > c.gc_high_watermark);
    }

    #[test]
    #[should_panic(expected = "overprovisioned")]
    fn validate_rejects_zero_op() {
        let c = SsdConfig {
            overprovision: 0.0,
            ..SsdConfig::default()
        };
        c.validate();
    }
}
